from unittest import mock

import numpy as np
import pytest

from treecrf import LabelSchema, ScoreChart
from treecrf import inference as inference_module
from treecrf.chart import below_diagonal, unpack_cells
from treecrf.inference import _lse


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


def log_domain_reference(chart, mask=None, shift=None):
    """Log root and ``(n, n, L)`` marginals by a per-width log-sum-exp
    inside and outside, rejected labels at -inf.

    Every full tree has 2n - 1 nodes, so the marginals do not change when
    every score drops by the same ``shift``; the one that makes the root 0
    keeps the log values small, and their rounding with them.
    """
    n = chart.n
    if shift is None:
        root, _ = log_domain_reference(chart, mask, 0.0)
        shift = root / (2 * n - 1) if np.isfinite(root) else 0.0
    with np.errstate(divide="ignore"):
        logm = 0.0 if mask is None else np.log(unpack_cells(mask.cells, n))
    x = chart.s - shift + logm
    a = _lse(x, axis=2)
    beta = np.full((n, n), -np.inf)
    beta[np.arange(n), np.arange(n)] = a[np.arange(n), np.arange(n)]
    for w in range(2, n + 1):
        i = np.arange(n - w + 1)[:, None]
        t = np.arange(w - 1)[None, :]
        split = _lse(beta[i, i + t] + beta[i + t + 1, i + w - 1], axis=1)
        beta[i[:, 0], i[:, 0] + w - 1] = a[i[:, 0], i[:, 0] + w - 1] + split
    root = beta[0, n - 1]
    alpha = np.full((n, n), -np.inf)
    alpha[0, n - 1] = 0.0
    for w in range(n, 1, -1):
        i = np.arange(n - w + 1)[:, None]
        t = np.arange(w - 1)[None, :]
        j = i + w - 1
        parent = alpha[i, j] + a[i, j]
        alpha[i, i + t] = np.logaddexp(alpha[i, i + t], parent + beta[i + t + 1, j])
        alpha[i + t + 1, j] = np.logaddexp(alpha[i + t + 1, j], parent + beta[i, i + t])
    cell = np.exp(alpha + beta - root)
    label = np.exp(x - np.where(a > -np.inf, a, 0.0)[..., None])
    mu = cell[..., None] * label
    mu[below_diagonal(n)] = 0.0
    return root + shift * (2 * n - 1), mu


def _passes(run, semiring):
    """How many inside passes in ``semiring`` ``run`` makes."""
    with mock.patch.object(
        inference_module, "_inside_pass", wraps=inference_module._inside_pass
    ) as inside_pass:
        run()
    return sum(call.args[2] is semiring for call in inside_pass.call_args_list)


def log_passes(run):
    """How many times ``run`` redoes charts in the log semiring."""
    return _passes(run, inference_module._LOG)


def scaled_passes(run):
    """How many kernel batches ``run`` makes: one scaled real pass each."""
    return _passes(run, inference_module._SCALED_REAL)
