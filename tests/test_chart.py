import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecrf import (
    CrossingSpans,
    EmptySentence,
    EmptySpan,
    LabelSchema,
    NodeKind,
    OutOfBounds,
    PartialTree,
    Span,
    UnknownLabel,
    build_mask,
    classify_nodes,
    smooth_mask,
    validate_annotation,
)
from treecrf.chart import _spans_cross
from treecrf.errors import BadConfig
from treecrf.oracle import random_partial_tree


class TestLabelSchema:
    def test_indices(self, schema3):
        assert schema3.n_observed == 2
        assert schema3.n_labels == 3
        assert schema3.label_index("ORG") == 1
        assert list(schema3.latent_indices) == [2]
        assert schema3.is_latent(2) and not schema3.is_latent(1)

    def test_unknown_label(self, schema3):
        with pytest.raises(UnknownLabel):
            schema3.label_index("LOC")

    @pytest.mark.parametrize(
        "labels,latent",
        [((), 1), (("A", "A"), 1), (("A", ""), 1), (("A",), 0)],
    )
    def test_invalid_schemas(self, labels, latent):
        with pytest.raises(BadConfig):
            LabelSchema(observed_labels=labels, latent_label_count=latent)


class TestValidateAnnotation:
    def test_convention_conversion(self, schema3):
        tree = validate_annotation(["A", "B", "C"], [(0, 2, "PER")], schema3)
        assert tree.n == 3
        assert tree.entities == (Span(0, 1, 0),)

    def test_crossing_error(self, schema3):
        with pytest.raises(CrossingSpans) as err:
            validate_annotation(
                ["A", "B", "C"], [(0, 2, "PER"), (1, 3, "ORG")], schema3
            )
        assert "(0, 1)" in str(err.value) and "(1, 2)" in str(err.value)

    def test_empty_annotation(self, schema3):
        tree = validate_annotation(["A", "B"], [], schema3)
        assert tree == PartialTree(n=2, entities=())

    def test_unknown_label(self, schema3):
        with pytest.raises(UnknownLabel):
            validate_annotation(["A"], [(0, 1, "LOC")], schema3)

    def test_out_of_bounds(self, schema3):
        with pytest.raises(OutOfBounds):
            validate_annotation(["A", "B"], [(0, 3, "PER")], schema3)
        with pytest.raises(OutOfBounds):
            validate_annotation(["A", "B"], [(-1, 1, "PER")], schema3)

    def test_empty_span(self, schema3):
        with pytest.raises(EmptySpan):
            validate_annotation(["A", "B"], [(1, 1, "PER")], schema3)

    def test_empty_sentence(self, schema3):
        with pytest.raises(EmptySentence):
            validate_annotation([], [], schema3)

    def test_duplicates_collapse(self, schema3):
        tree = validate_annotation(
            ["A", "B"], [(0, 2, "PER"), (0, 2, "PER")], schema3
        )
        assert tree.entities == (Span(0, 1, 0),)

    def test_multi_label_span_kept(self, schema3):
        tree = validate_annotation(
            ["A", "B"], [(0, 2, "PER"), (0, 2, "ORG")], schema3
        )
        assert tree.entities == (Span(0, 1, 0), Span(0, 1, 1))

    def test_nested_ok(self, schema3):
        tree = validate_annotation(
            ["A", "B", "C"], [(0, 3, "PER"), (0, 2, "ORG")], schema3
        )
        assert len(tree.entities) == 2


class TestClassifyNodes:
    def test_single_entity(self, schema3):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        assert sym.node_kind[0, 0] == NodeKind.LATENT
        assert sym.node_kind[1, 1] == NodeKind.LATENT
        assert sym.node_kind[2, 2] == NodeKind.LATENT
        assert sym.node_kind[0, 1] == NodeKind.OBSERVED
        assert sym.node_kind[1, 2] == NodeKind.REJECTED
        assert sym.node_kind[0, 2] == NodeKind.LATENT

    def test_single_token(self):
        tree = PartialTree(n=1, entities=())
        sym = classify_nodes(tree)
        assert sym.node_kind[0, 0] == NodeKind.LATENT

    def test_nested_entities(self, schema3):
        tree = PartialTree(n=3, entities=(Span(0, 2, 0), Span(0, 1, 0)))
        sym = classify_nodes(tree)
        assert sym.node_kind[0, 2] == NodeKind.OBSERVED
        assert sym.node_kind[0, 1] == NodeKind.OBSERVED
        assert sym.node_kind[1, 2] == NodeKind.REJECTED
        assert sym.node_kind[0, 0] == NodeKind.LATENT
        assert sym.node_kind[1, 1] == NodeKind.LATENT
        assert sym.node_kind[2, 2] == NodeKind.LATENT

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_matches_exhaustive_crossing_check(self, n, seed):
        schema = LabelSchema(observed_labels=("A", "B"), latent_label_count=1)
        rng = np.random.default_rng(seed)
        tree = random_partial_tree(n, schema, rng, multilabel_prob=0.2)
        sym = classify_nodes(tree)
        annotated = {(e.start, e.end) for e in tree.entities}
        for i in range(n):
            for j in range(i, n):
                if (i, j) in annotated:
                    expected = NodeKind.OBSERVED
                elif any(
                    _spans_cross((i, j), (e.start, e.end)) for e in tree.entities
                ):
                    expected = NodeKind.REJECTED
                else:
                    expected = NodeKind.LATENT
                assert sym.node_kind[i, j] == expected

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_leaves_and_root_never_rejected(self, n, seed):
        schema = LabelSchema(observed_labels=("A",), latent_label_count=2)
        rng = np.random.default_rng(seed)
        sym = classify_nodes(random_partial_tree(n, schema, rng))
        for i in range(n):
            assert sym.node_kind[i, i] != NodeKind.REJECTED
        assert sym.node_kind[0, n - 1] != NodeKind.REJECTED


class TestBuildMask:
    def test_three_rules(self, schema2):
        tree = PartialTree(n=2, entities=(Span(0, 1, 0),))
        mask = build_mask(classify_nodes(tree), schema2)
        assert mask.m[0, 1].tolist() == [1.0, 0.0]
        assert mask.m[0, 0].tolist() == [0.0, 1.0]
        assert mask.m[1, 1].tolist() == [0.0, 1.0]

    def test_all_latent(self, schema2):
        tree = PartialTree(n=2, entities=())
        mask = build_mask(classify_nodes(tree), schema2)
        for i in range(2):
            for j in range(i, 2):
                assert mask.m[i, j].tolist() == [0.0, 1.0]

    def test_rejected_cell_zero(self, schema3):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        mask = build_mask(classify_nodes(tree), schema3)
        assert mask.m[1, 2].tolist() == [0.0, 0.0, 0.0]

    def test_multi_label_cell(self, schema3):
        tree = PartialTree(n=2, entities=(Span(0, 1, 0), Span(0, 1, 1)))
        mask = build_mask(classify_nodes(tree), schema3)
        assert mask.m[0, 1].tolist() == [1.0, 1.0, 0.0]

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 7), seed=st.integers(0, 10_000))
    def test_invariants(self, n, seed):
        schema = LabelSchema(observed_labels=("A", "B"), latent_label_count=2)
        rng = np.random.default_rng(seed)
        tree = random_partial_tree(n, schema, rng, multilabel_prob=0.15)
        sym = classify_nodes(tree)
        mask = build_mask(sym, schema)
        # 0/1-valued, deterministic, lower triangle all zero
        assert set(np.unique(mask.m)) <= {0.0, 1.0}
        again = build_mask(classify_nodes(tree), schema)
        assert np.array_equal(mask.m, again.m)
        for i in range(n):
            for j in range(i):
                assert not mask.m[i, j].any()
        # leaves and root always admit at least one label
        for i in range(n):
            assert mask.m[i, i].sum() >= 1
        assert mask.m[0, n - 1].sum() >= 1


class TestSmoothMask:
    def test_rejected_becomes_epsilon(self, schema2):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        mask = smooth_mask(build_mask(sym, schema2), sym, 0.01)
        assert mask.m[1, 2].tolist() == [0.01, 0.01]

    def test_zero_epsilon_identity(self, schema2):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        base = build_mask(sym, schema2)
        assert np.array_equal(smooth_mask(base, sym, 0.0).m, base.m)

    def test_observed_and_latent_cells_unchanged(self, schema2):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        base = build_mask(sym, schema2)
        smoothed = smooth_mask(base, sym, 0.02)
        assert smoothed.m[0, 1].tolist() == [1.0, 0.0]
        assert smoothed.m[0, 0].tolist() == [0.0, 1.0]
        assert smoothed.m[0, 2].tolist() == [0.0, 1.0]

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 7), seed=st.integers(0, 10_000), eps=st.floats(0.001, 0.5))
    def test_changes_exactly_rejected_cells(self, n, seed, eps):
        schema = LabelSchema(observed_labels=("A", "B"), latent_label_count=1)
        rng = np.random.default_rng(seed)
        tree = random_partial_tree(n, schema, rng)
        sym = classify_nodes(tree)
        base = build_mask(sym, schema)
        smoothed = smooth_mask(base, sym, eps)
        for i in range(n):
            for j in range(i, n):
                if sym.node_kind[i, j] == NodeKind.REJECTED:
                    assert np.all(smoothed.m[i, j] == eps)
                else:
                    assert np.array_equal(smoothed.m[i, j], base.m[i, j])

    def test_bad_epsilon(self, schema2):
        tree = PartialTree(n=2, entities=())
        sym = classify_nodes(tree)
        base = build_mask(sym, schema2)
        with pytest.raises(BadConfig):
            smooth_mask(base, sym, 1.0)


class TestPartialTree:
    def test_crossing_rejected_at_construction(self):
        with pytest.raises(CrossingSpans):
            PartialTree(n=4, entities=(Span(0, 2, 0), Span(1, 3, 0)))

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            PartialTree(n=2, entities=(Span(0, 2, 0),))

    def test_duplicate_triples(self):
        with pytest.raises(ValueError):
            PartialTree(n=2, entities=(Span(0, 1, 0), Span(0, 1, 0)))
