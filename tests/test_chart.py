import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecrf import (
    ChartMask,
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
    smoothed_masks,
    validate_annotation,
)
from treecrf.chart import (
    _spans_cross,
    below_diagonal,
    pack_cells,
    span_positions,
    unpack_cells,
)
from treecrf.errors import BadConfig, DimensionMismatch
from treecrf.oracle import random_partial_tree


def square(mask):
    """A mask's ``(n, n, L)`` square, 0 below the diagonal."""
    return unpack_cells(mask.cells, mask.n)


def crossing_kinds(tree):
    """The node kind of each span cell of ``tree``, in packed order, by the
    definition: one cell and one annotated span at a time."""
    annotated = {(e.start, e.end) for e in tree.entities}
    kinds = []
    for i, j in zip(*np.triu_indices(tree.n)):
        if (i, j) in annotated:
            kinds.append(NodeKind.OBSERVED)
        elif any(_spans_cross((i, j), (e.start, e.end)) for e in tree.entities):
            kinds.append(NodeKind.REJECTED)
        else:
            kinds.append(NodeKind.LATENT)
    return np.array(kinds)


class TestPackedLayout:
    def test_below_diagonal_is_the_strict_lower_triangle(self):
        for n in range(101):
            mask = below_diagonal(n)
            assert mask.dtype == bool
            np.testing.assert_array_equal(mask, np.tri(n, k=-1, dtype=bool))

    def test_span_positions_of_mixed_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lengths = rng.integers(1, 30, size=rng.integers(1, 6)).tolist()
            n = max(lengths) + int(rng.integers(0, 3))
            expected = np.concatenate(
                [
                    b * n * n + np.ravel_multi_index(np.triu_indices(m), (n, n))
                    for b, m in enumerate(lengths)
                ]
            )
            np.testing.assert_array_equal(span_positions(lengths, n), expected)


class TestLabelSchema:
    def test_indices(self, schema3):
        assert schema3.n_observed == 2
        assert schema3.n_labels == 3
        assert schema3.label_index("ORG") == 1
        # latent labels take the indices after the observed ones
        assert schema3.latent_label_count == 1
        assert list(range(schema3.n_observed, schema3.n_labels)) == [2]

    def test_unknown_label(self, schema3):
        with pytest.raises(UnknownLabel):
            schema3.label_index("LOC")

    @pytest.mark.parametrize(
        "labels,latent",
        # a string is refused: tuple("PER") is three labels, "P", "E", "R"
        [((), 1), (("A", "A"), 1), (("A", ""), 1), (("A",), 0), ("PER", 1)],
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
        np.testing.assert_array_equal(pack_cells(sym.node_kind), crossing_kinds(tree))

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_leaves_and_root_never_rejected(self, n, seed):
        schema = LabelSchema(observed_labels=("A",), latent_label_count=2)
        rng = np.random.default_rng(seed)
        sym = classify_nodes(random_partial_tree(n, schema, rng))
        for i in range(n):
            assert sym.node_kind[i, i] != NodeKind.REJECTED
        assert sym.node_kind[0, n - 1] != NodeKind.REJECTED


class TestPartialTreeKinds:
    def test_read_only_and_classify_nodes_returns_the_tree(self):
        tree = PartialTree(n=2, entities=(Span(0, 1, 0),))
        assert classify_nodes(tree) is tree
        assert tree.observed_label == {(0, 1): (0,)}
        assert tree.node_kind is tree.node_kind
        with pytest.raises(ValueError):
            tree.node_kind[0, 0] = NodeKind.OBSERVED
        for name in ("node_kind", "observed_label"):
            with pytest.raises(AttributeError):
                setattr(tree, name, None)
        # the cached attributes take no part in equality or hashing
        again = PartialTree(n=2, entities=(Span(0, 1, 0),))
        assert again == tree and hash(again) == hash(tree)

    def test_kinds_labels_and_mask_of_random_trees(self):
        # its node kinds are the definition's, its observed labels are
        # the entities', and its mask is the batched builder's at epsilon
        # 0, bit for bit
        schema = LabelSchema(observed_labels=("A", "B", "C"), latent_label_count=2)
        rng = np.random.default_rng(27)
        for n in range(1, 13):
            trees = [random_partial_tree(n, schema, rng, 0.4) for _ in range(8)]
            for tree, batched in zip(trees, smoothed_masks(trees, schema, 0.0)):
                labels = {}
                for e in tree.entities:
                    labels.setdefault((e.start, e.end), set()).add(e.label)
                assert tree.observed_label == {
                    span: tuple(sorted(ks)) for span, ks in labels.items()
                }
                assert tree.node_kind.shape == (n, n)
                assert not tree.node_kind.flags.writeable
                kinds = pack_cells(tree.node_kind)
                np.testing.assert_array_equal(kinds, crossing_kinds(tree))
                mask = build_mask(tree, schema)
                assert mask.cells.dtype == batched.cells.dtype
                assert mask.cells.tobytes() == batched.cells.tobytes()


class TestBuildMask:
    def test_three_rules(self, schema2):
        tree = PartialTree(n=2, entities=(Span(0, 1, 0),))
        mask = build_mask(classify_nodes(tree), schema2)
        assert square(mask)[0, 1].tolist() == [1.0, 0.0]
        assert square(mask)[0, 0].tolist() == [0.0, 1.0]
        assert square(mask)[1, 1].tolist() == [0.0, 1.0]

    def test_all_latent(self, schema2):
        tree = PartialTree(n=2, entities=())
        mask = build_mask(classify_nodes(tree), schema2)
        for i in range(2):
            for j in range(i, 2):
                assert square(mask)[i, j].tolist() == [0.0, 1.0]

    def test_rejected_cell_zero(self, schema3):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        mask = build_mask(classify_nodes(tree), schema3)
        assert square(mask)[1, 2].tolist() == [0.0, 0.0, 0.0]

    def test_multi_label_cell(self, schema3):
        tree = PartialTree(n=2, entities=(Span(0, 1, 0), Span(0, 1, 1)))
        mask = build_mask(classify_nodes(tree), schema3)
        assert square(mask)[0, 1].tolist() == [1.0, 1.0, 0.0]

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 7), seed=st.integers(0, 10_000))
    def test_invariants(self, n, seed):
        schema = LabelSchema(observed_labels=("A", "B"), latent_label_count=2)
        rng = np.random.default_rng(seed)
        tree = random_partial_tree(n, schema, rng, multilabel_prob=0.15)
        sym = classify_nodes(tree)
        mask = build_mask(sym, schema)
        # 0/1-valued and deterministic
        assert set(np.unique(mask.cells)) <= {0.0, 1.0}
        again = build_mask(classify_nodes(tree), schema)
        assert np.array_equal(mask.cells, again.cells)
        # leaves and root always admit at least one label
        for i in range(n):
            assert square(mask)[i, i].sum() >= 1
        assert square(mask)[0, n - 1].sum() >= 1


class TestSmoothMask:
    def test_rejected_becomes_epsilon(self, schema2):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        mask = smooth_mask(build_mask(sym, schema2), sym, 0.01)
        assert square(mask)[1, 2].tolist() == [0.01, 0.01]

    def test_zero_epsilon_identity(self, schema2):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        base = build_mask(sym, schema2)
        assert np.array_equal(smooth_mask(base, sym, 0.0).cells, base.cells)

    def test_observed_and_latent_cells_unchanged(self, schema2):
        tree = PartialTree(n=3, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        base = build_mask(sym, schema2)
        smoothed = smooth_mask(base, sym, 0.02)
        assert square(smoothed)[0, 1].tolist() == [1.0, 0.0]
        assert square(smoothed)[0, 0].tolist() == [0.0, 1.0]
        assert square(smoothed)[0, 2].tolist() == [0.0, 1.0]

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
                    assert np.all(square(smoothed)[i, j] == eps)
                else:
                    assert np.array_equal(square(smoothed)[i, j], square(base)[i, j])

    def test_bad_epsilon(self, schema2):
        tree = PartialTree(n=2, entities=())
        sym = classify_nodes(tree)
        base = build_mask(sym, schema2)
        with pytest.raises(BadConfig):
            smooth_mask(base, sym, 1.0)


def reference_mask(tree, schema, epsilon):
    """The smoothed mask of one tree, cell by cell from the three rules."""
    m = np.zeros((tree.n, tree.n, schema.n_labels))
    spans = tree.observed_label
    for i in range(tree.n):
        for j in range(i, tree.n):
            if (i, j) in spans:
                m[i, j, list(spans[(i, j)])] = 1.0
            elif any(_spans_cross((i, j), span) for span in spans):
                m[i, j] = epsilon
            else:
                m[i, j, schema.n_observed :] = 1.0
    return m


class TestSmoothedMasks:
    """The masks of a length group equal the per-sentence composition and
    the cell-by-cell rules, bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=12),
        seed=st.integers(0, 10_000),
        epsilon=st.sampled_from([0.0, 0.01, 0.5]),
        latent=st.integers(1, 2),
    )
    def test_equal_per_sentence_and_reference(self, lengths, seed, epsilon, latent):
        # mixed and repeated lengths, n = 1, trees with no entities (every
        # third, and any the draw leaves empty) and multi-label spans
        schema = LabelSchema(observed_labels=("A", "B", "C"), latent_label_count=latent)
        rng = np.random.default_rng(seed)
        trees = [
            random_partial_tree(n, schema, rng, multilabel_prob=0.3)
            if b % 3
            else PartialTree(n=n, entities=())
            for b, n in enumerate(lengths)
        ]
        masks = smoothed_masks(trees, schema, epsilon)
        assert [mask.n for mask in masks] == lengths
        for tree, mask in zip(trees, masks):
            sym = classify_nodes(tree)
            single = smooth_mask(build_mask(sym, schema), sym, epsilon)
            np.testing.assert_array_equal(mask.cells, single.cells)
            reference = reference_mask(tree, schema, epsilon)
            np.testing.assert_array_equal(square(mask), reference)
            assert not mask.cells.flags.writeable

    def test_empty_list(self, schema3):
        assert smoothed_masks([], schema3, 0.01) == []

    def test_bad_epsilon(self, schema3):
        with pytest.raises(BadConfig):
            smoothed_masks([PartialTree(n=2, entities=())], schema3, 1.0)

    def test_latent_label_annotation(self, schema3):
        tree = PartialTree(n=2, entities=(Span(0, 1, 2),))  # label 2 is latent
        with pytest.raises(DimensionMismatch):
            smoothed_masks([tree], schema3, 0.0)


class TestChartMask:
    @pytest.mark.parametrize("weight", [np.nan, -1.0, 2.0, np.inf])
    def test_weight_outside_unit_interval_raises(self, weight):
        # one cell of a 3x3x2 mask of zeros; unchecked, NaN and -1 act as
        # weight 0 and inf turns masked_inside into NaN
        m = np.zeros((3, 3, 2))
        m[0, 2, 1] = weight
        with pytest.raises(BadConfig):
            ChartMask(pack_cells(m))

    def test_weights_in_unit_interval_accepted(self):
        m = np.zeros((3, 3, 2))
        m[0, 2] = (0.0, 1.0)
        m[1, 1] = (0.5, 5e-324)
        assert ChartMask(pack_cells(m)).cells.shape == (6, 2)

    @pytest.mark.parametrize("weight", [np.nan, -1.0, 2.0, np.inf])
    def test_packed_weight_outside_unit_interval_raises(self, weight):
        cells = np.zeros((6, 2))
        cells[2, 1] = weight  # span cell (0, 2)
        with pytest.raises(BadConfig):
            ChartMask(cells)

    def test_below_the_diagonal_is_ignored(self):
        # the square's cells i > j stand for no span: packing drops them
        m = np.zeros((3, 3, 2))
        m[0, 2] = (0.0, 1.0)
        m[2, 0] = (np.nan, 2.0)
        mask = ChartMask(pack_cells(m))
        np.testing.assert_array_equal(mask.cells, m[~below_diagonal(3)])
        np.testing.assert_array_equal(pack_cells(square(mask)), mask.cells)
        assert not square(mask)[below_diagonal(3)].any()

    def test_admitted_weight_per_cell(self):
        # the sum of each span cell's label weights, read-only, with the
        # bits of one sum over the mask stacked in a batch
        rng = np.random.default_rng(3)
        masks = [ChartMask(rng.uniform(size=(m * (m + 1) // 2, 9))) for m in (1, 4, 7)]
        stacked = np.einsum("ij->i", np.concatenate([mask.cells for mask in masks]))
        np.testing.assert_array_equal(
            np.concatenate([mask.admitted for mask in masks]), stacked
        )
        np.testing.assert_allclose(masks[1].admitted, masks[1].cells.sum(axis=1))
        assert not masks[0].admitted.flags.writeable

    def test_packed_cell_count_is_checked(self):
        for cells in (np.zeros((4, 2)), np.zeros((6,)), np.zeros((3, 3, 2))):
            with pytest.raises(DimensionMismatch):
                ChartMask(cells)
        assert ChartMask(np.zeros((10, 2))).n == 4


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

    def test_negative_label(self):
        # -1 would index the schema's last label, a latent one, so the
        # malformed annotation would score as a latent node
        with pytest.raises(UnknownLabel, match="negative label index -1"):
            PartialTree(n=3, entities=(Span(0, 1, -1),))

    @pytest.mark.parametrize(
        "span,error",
        [
            (Span(0, 1, 1.5), UnknownLabel),
            (Span(0, 1, "0"), UnknownLabel),
            (Span(0.0, 1, 0), OutOfBounds),
            (Span(0, np.float64(1.0), 0), OutOfBounds),
        ],
        ids=["float-label", "str-label", "float-start", "numpy-float-end"],
    )
    def test_non_integer_offset_or_label(self, span, error):
        # a label of 1.5 used to make build_mask admit label 1 at (0, 1),
        # and the vanilla pass and the oracle raise a bare numpy IndexError
        with pytest.raises(error, match="is not an integer"):
            PartialTree(n=3, entities=(span,))

    def test_integer_length_and_numpy_integers(self):
        with pytest.raises(OutOfBounds, match="is not an integer"):
            PartialTree(n=3.0, entities=())
        tree = PartialTree(n=np.int64(3), entities=(Span(*np.arange(3)[[0, 1, 0]]),))
        assert tree.observed_label == {(0, 1): (0,)}
