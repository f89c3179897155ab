import numpy as np
import pytest

from treecrf import LabelSchema, ScoreChart


@pytest.fixture
def schema2():
    """One observed + one latent label."""
    return LabelSchema(observed_labels=("PER",), latent_label_count=1)


@pytest.fixture
def schema3():
    """Two observed + one latent label."""
    return LabelSchema(observed_labels=("PER", "ORG"), latent_label_count=1)


def zero_chart(n: int, schema: LabelSchema) -> ScoreChart:
    return ScoreChart(np.zeros((n * (n + 1) // 2, schema.n_labels)), schema)
