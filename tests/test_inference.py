import functools
import importlib.util
import itertools
import math
import os
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecrf import (
    ChartMask,
    DegenerateChart,
    DimensionMismatch,
    FullTree,
    LabelSchema,
    NonFiniteLoss,
    PartialTree,
    ScoreChart,
    Span,
    batch_cky_decode,
    batch_loss_and_score_gradient,
    batched_masked_inside,
    build_mask,
    cky_decode,
    classify_nodes,
    extract_entities,
    inside,
    log_prob,
    loss_and_score_gradient,
    marginals,
    mask_from_full_tree,
    masked_inside,
    smooth_mask,
    train,
    tree_score,
    vanilla_partial_marginalization,
)
from treecrf import inference as inference_module
from treecrf.chart import (
    NodeKind,
    below_diagonal,
    pack_cells,
    packed_index,
)
from treecrf import scorer as scorer_module
from treecrf.data import corpus_schema, corpus_vocab, preprocess
from treecrf.oracle import (
    _structure_score_and_labels,
    _structures,
    brute_force_best_tree,
    catalan,
    random_chart,
    random_partial_tree,
)
from treecrf.scorer import ScorerConfig, Vocab, forward_batch, init_params
from treecrf.train import TrainConfig

from conftest import log_domain_reference, log_passes, scaled_passes, zero_chart

LOG8 = math.log(8.0)
LOG64 = math.log(64.0)


def annotation_mask(n, entities, schema, epsilon=0.0):
    tree = PartialTree(n=n, entities=entities)
    sym = classify_nodes(tree)
    mask = build_mask(sym, schema)
    if epsilon:
        mask = smooth_mask(mask, sym, epsilon)
    return sym, mask


class TestInside:
    def test_single_leaf(self, schema3):
        s = np.zeros((1, 1, 3))
        s[0, 0] = [0.3, -1.2, 0.5]
        chart = ScoreChart(pack_cells(s), schema3)
        expected = math.log(sum(math.exp(v) for v in (0.3, -1.2, 0.5)))
        assert inside(chart) == pytest.approx(expected, abs=1e-12)

    def test_two_tokens_zero_scores(self, schema2):
        assert inside(zero_chart(2, schema2)) == pytest.approx(LOG8, abs=1e-12)

    def test_three_tokens_zero_scores(self, schema2):
        assert inside(zero_chart(3, schema2)) == pytest.approx(LOG64, abs=1e-12)

    def test_degenerate(self, schema2):
        chart = ScoreChart(np.zeros((0, 2)), schema2)
        with pytest.raises(DegenerateChart):
            inside(chart)

    def test_zero_chart_closed_form(self, schema2):
        # Catalan(n-1) bracketings, |L|^(2n-1) labelings, every score zero.
        for n in range(1, 7):
            expected = math.log(catalan(n - 1)) + (2 * n - 1) * math.log(2)
            assert inside(zero_chart(n, schema2)) == pytest.approx(expected, abs=1e-9)


class TestScoreChart:
    """A chart holds its span cells packed; its square is built on demand."""

    def test_packed_cells_are_kept_and_unpacked(self, schema3):
        rng = np.random.default_rng(27)
        for n in (1, 2, 6):
            s = rng.normal(size=(n, n, 3))
            cells = pack_cells(s)
            chart = ScoreChart(cells, schema3)
            assert chart.n == n and chart.cells is cells
            assert chart.cells.shape == (n * (n + 1) // 2, 3)
            np.testing.assert_array_equal(chart.cells, s[np.triu_indices(n)])
            np.testing.assert_array_equal(chart.s[~below_diagonal(n)], chart.cells)
            assert not chart.s[below_diagonal(n)].any()
            assert not chart.cells.flags.writeable and not chart.s.flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_span_cell_raises(self, schema3, value):
        s = np.zeros((3, 3, 3))
        s[1, 2, 0] = value
        with pytest.raises(ValueError, match="non-finite score"):
            ScoreChart(pack_cells(s), schema3)

    def test_non_finite_below_the_diagonal_is_accepted(self, schema3):
        s = np.zeros((3, 3, 3))
        s[2, 0] = np.nan
        s[1, 0, 2] = np.inf
        chart = ScoreChart(pack_cells(s), schema3)
        assert np.isfinite(chart.cells).all() and np.isfinite(chart.s).all()

    def test_cell_count_and_labels_are_checked(self, schema3):
        squares = (np.zeros((3, 3, 3)), np.zeros((3, 2, 3)))
        for cells in (np.zeros((4, 3)), np.zeros((6,)), np.zeros((6, 3, 1)), *squares):
            with pytest.raises(DimensionMismatch):
                ScoreChart(cells, schema3)
        with pytest.raises(DimensionMismatch):
            ScoreChart(np.zeros((6, 2)), schema3)


class TestMaskedInside:
    def test_forced_single_tree(self, schema2):
        _, mask = annotation_mask(2, (Span(0, 1, 0),), schema2)
        assert masked_inside(zero_chart(2, schema2), mask) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_all_ones_equals_inside_bitwise(self, schema3):
        rng = np.random.default_rng(0)
        chart = random_chart(5, schema3, rng)
        ones = ChartMask(np.ones((15, 3)))
        assert masked_inside(chart, ones) == inside(chart)

    def test_full_tree_mask_recovers_evaluation(self, schema3):
        rng = np.random.default_rng(1)
        for n in (1, 2, 4, 6):
            chart = random_chart(n, schema3, rng)
            probe = cky_decode(random_chart(n, schema3, rng))
            mask = mask_from_full_tree(probe, schema3)
            assert masked_inside(chart, mask) == pytest.approx(
                tree_score(chart, probe), abs=1e-6
            )

    def test_dimension_mismatch(self, schema2):
        with pytest.raises(DimensionMismatch):
            masked_inside(zero_chart(2, schema2), ChartMask(np.zeros((6, 2))))

    def test_length_mismatch_of_tree_and_symbols(self, schema3):
        rng = np.random.default_rng(3)
        chart = random_chart(4, schema3, rng)
        tree = cky_decode(random_chart(3, schema3, rng))
        symbols = classify_nodes(random_partial_tree(3, schema3, rng))
        with pytest.raises(DimensionMismatch, match="symbols over 3 tokens"):
            vanilla_partial_marginalization(chart, symbols)
        with pytest.raises(DimensionMismatch, match="tree over 3 tokens"):
            tree_score(chart, tree)

    def test_upper_bound_for_arbitrary_masks(self, schema3):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            chart = random_chart(n, schema3, rng)
            mask = ChartMask(pack_cells(rng.uniform(0, 1, size=(n, n, 3))))
            assert masked_inside(chart, mask) <= inside(chart) + 1e-6

    def test_monotone_under_mask_tightening(self, schema3):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            chart = random_chart(n, schema3, rng)
            loose = rng.uniform(0, 1, size=(n, n, 3))
            tight = loose * rng.uniform(0, 1, size=loose.shape)
            assert masked_inside(chart, ChartMask(pack_cells(tight))) <= masked_inside(
                chart, ChartMask(pack_cells(loose))
            ) + 1e-6


class TestVanillaPartialMarginalization:
    def test_forced_single_tree(self, schema2):
        sym, _ = annotation_mask(2, (Span(0, 1, 0),), schema2)
        assert vanilla_partial_marginalization(
            zero_chart(2, schema2), sym
        ) == pytest.approx(0.0, abs=1e-12)

    def test_three_tokens_forced_structure(self, schema2):
        # the single compatible structure is ((0,1),2) with all labels forced
        sym, _ = annotation_mask(3, (Span(0, 1, 0),), schema2)
        assert vanilla_partial_marginalization(
            zero_chart(3, schema2), sym
        ) == pytest.approx(0.0, abs=1e-12)

    def test_empty_annotation_latent_only_sum(self, schema3):
        # zero scores: value counts trees labeled entirely with latent labels
        for n in range(1, 6):
            sym, _ = annotation_mask(n, (), schema3)
            expected = math.log(catalan(n - 1) * 1 ** (2 * n - 1))
            assert vanilla_partial_marginalization(
                zero_chart(n, schema3), sym
            ) == pytest.approx(expected, abs=1e-9)

    def test_agrees_with_masked_inside(self, schema3):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            chart = random_chart(n, schema3, rng)
            tree = random_partial_tree(n, schema3, rng, multilabel_prob=0.2)
            sym = classify_nodes(tree)
            mask = build_mask(sym, schema3)
            assert vanilla_partial_marginalization(chart, sym) == pytest.approx(
                masked_inside(chart, mask), abs=1e-6
            )


class TestLogProb:
    def test_two_tokens(self, schema2):
        _, mask = annotation_mask(2, (Span(0, 1, 0),), schema2)
        assert log_prob(zero_chart(2, schema2), mask) == pytest.approx(
            -LOG8, abs=1e-6
        )

    def test_three_tokens(self, schema2):
        _, mask = annotation_mask(3, (Span(0, 1, 0),), schema2)
        assert log_prob(zero_chart(3, schema2), mask) == pytest.approx(
            -LOG64, abs=1e-6
        )

    def test_all_ones_mask_is_zero(self, schema3):
        rng = np.random.default_rng(5)
        chart = random_chart(4, schema3, rng)
        ones = ChartMask(np.ones((10, 3)))
        assert log_prob(chart, ones) == 0.0

    def test_nonpositive_for_unsmoothed_masks(self, schema3):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            chart = random_chart(n, schema3, rng)
            tree = random_partial_tree(n, schema3, rng)
            _, mask = annotation_mask(n, tree.entities, schema3)
            assert log_prob(chart, mask) <= 1e-6


class TestMarginals:
    def test_two_tokens_uniform(self, schema2):
        mu = marginals(zero_chart(2, schema2))
        for i, j in ((0, 0), (1, 1), (0, 1)):
            np.testing.assert_allclose(mu[i, j], [0.5, 0.5], atol=1e-12)

    def test_single_token_softmax(self, schema3):
        s = np.zeros((1, 1, 3))
        s[0, 0] = [1.0, 2.0, -0.5]
        chart = ScoreChart(pack_cells(s), schema3)
        mu = marginals(chart)
        e = np.exp(s[0, 0])
        np.testing.assert_allclose(mu[0, 0], e / e.sum(), atol=1e-12)

    def test_masked_single_compatible_tree(self, schema2):
        _, mask = annotation_mask(2, (Span(0, 1, 0),), schema2)
        mu = marginals(zero_chart(2, schema2), mask)
        np.testing.assert_allclose(mu[0, 1], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(mu[0, 0], [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(mu[1, 1], [0.0, 1.0], atol=1e-9)

    def test_identities_random(self, schema3):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            chart = random_chart(n, schema3, rng)
            mu = marginals(chart)
            assert mu.sum() == pytest.approx(2 * n - 1, abs=1e-6)
            for i in range(n):
                assert mu[i, i].sum() == pytest.approx(1.0, abs=1e-9)
            assert mu[0, n - 1].sum() == pytest.approx(1.0, abs=1e-9)
            assert (mu >= 0).all() and (mu <= 1).all()


class TestLossAndScoreGradient:
    def test_gradient_sums_to_zero(self, schema3):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            chart = random_chart(n, schema3, rng)
            tree = random_partial_tree(n, schema3, rng)
            _, mask = annotation_mask(n, tree.entities, schema3)
            loss, grad = loss_and_score_gradient(chart, mask)
            assert loss >= -1e-6
            assert abs(grad.sum()) < 1e-6

    def test_rejected_cells_keep_unmasked_posterior(self, schema2):
        sym, mask = annotation_mask(3, (Span(0, 1, 0),), schema2)
        chart = zero_chart(3, schema2)
        _, grad = loss_and_score_gradient(chart, mask)
        mu_unmasked = marginals(chart)[~below_diagonal(3)]
        rejected = pack_cells(sym.node_kind) == NodeKind.REJECTED
        assert rejected.sum() == 1  # cell (1, 2)
        np.testing.assert_allclose(grad[rejected], mu_unmasked[rejected], atol=1e-9)

    def test_all_ones_mask_gives_zero_loss_and_gradient(self, schema3):
        rng = np.random.default_rng(9)
        chart = random_chart(4, schema3, rng)
        ones = ChartMask(np.ones((10, 3)))
        loss, grad = loss_and_score_gradient(chart, ones)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, schema3):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            chart = random_chart(n, schema3, rng)
            tree = random_partial_tree(n, schema3, rng)
            _, mask = annotation_mask(n, tree.entities, schema3, epsilon=0.01)
            _, grad = loss_and_score_gradient(chart, mask)
            h = 1e-5
            # the gradient is packed like chart.cells
            for cell in range(len(chart.cells)):
                for k in range(3):
                    sp = chart.cells.copy()
                    sp[cell, k] += h
                    up = loss_and_score_gradient(ScoreChart(sp, schema3), mask)[0]
                    sp = chart.cells.copy()
                    sp[cell, k] -= h
                    dn = loss_and_score_gradient(ScoreChart(sp, schema3), mask)[0]
                    fd = (up - dn) / (2 * h)
                    a = grad[cell, k]
                    assert abs(fd - a) <= 1e-4 * max(abs(fd), abs(a), 1e-3)


class TestSmoothingMonotonicity:
    def test_strictly_increasing_in_epsilon(self, schema3):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(40):
            n = int(rng.integers(3, 7))
            chart = random_chart(n, schema3, rng)
            tree = random_partial_tree(n, schema3, rng)
            sym = classify_nodes(tree)
            if not (sym.node_kind[np.triu_indices(n)] == 2).any():
                continue
            found += 1
            base = build_mask(sym, schema3)
            values = [
                masked_inside(chart, smooth_mask(base, sym, eps))
                for eps in (0.0, 0.01, 0.02, 0.1)
            ]
            for lo, hi in zip(values, values[1:]):
                assert hi - lo > 1e-9
        assert found >= 10

    def test_epsilon_zero_recovers_unsmoothed(self, schema3):
        rng = np.random.default_rng(12)
        chart = random_chart(5, schema3, rng)
        tree = random_partial_tree(5, schema3, rng)
        sym = classify_nodes(tree)
        base = build_mask(sym, schema3)
        assert masked_inside(chart, smooth_mask(base, sym, 0.0)) == masked_inside(
            chart, base
        )


class TestCkyDecode:
    def test_two_token_example(self, schema2):
        s = np.zeros((2, 2, 2))
        s[0, 1] = [2.0, 0.0]
        s[0, 0] = [1.0, 0.0]
        s[1, 1] = [0.5, 0.0]
        chart = ScoreChart(pack_cells(s), schema2)
        tree = cky_decode(chart)
        assert tree.nodes == ((0, 1, 0), (0, 0, 0), (1, 1, 0))
        assert tree_score(chart, tree) == pytest.approx(3.5, abs=1e-12)

    def test_single_token(self, schema3):
        s = np.zeros((1, 1, 3))
        s[0, 0] = [0.1, 0.9, 0.3]
        tree = cky_decode(ScoreChart(pack_cells(s), schema3))
        assert tree.nodes == ((0, 0, 1),)

    def test_tie_break_left_splits_label_zero(self, schema3):
        tree = cky_decode(zero_chart(4, schema3))
        # left-most splits, label 0: (0, 3) -> (0, 0) + (1, 3), and so on
        assert tree.nodes == (
            (0, 3, 0), (0, 0, 0), (1, 3, 0), (1, 1, 0), (2, 3, 0), (2, 2, 0), (3, 3, 0)
        )

    def test_degenerate(self, schema2):
        with pytest.raises(DegenerateChart):
            cky_decode(ScoreChart(np.zeros((0, 2)), schema2))

    def test_tree_score_of_a_deep_tree(self):
        # A left-branching tree over 1500 tokens is 1500 levels deep.
        n = 1500
        schema = LabelSchema(("A",), latent_label_count=1)
        nodes = [(0, j, 0) for j in range(n)] + [(j, j, 0) for j in range(1, n)]
        tree = FullTree(n=n, nodes=tuple(nodes))
        chart = ScoreChart(np.ones((n * (n + 1) // 2, 2)), schema)
        assert tree_score(chart, tree) == 2 * n - 1

    def test_root_value_is_tree_score_bitwise(self, schema3):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            chart = random_chart(n, schema3, rng)
            tree = cky_decode(chart)
            assert tree_score(chart, tree) <= inside(chart) + 1e-9


class TestExtractEntities:
    def test_all_latent_tree_empty(self, schema3):
        nodes = ((0, 1, 2), (0, 0, 2), (1, 1, 2))
        assert extract_entities(FullTree(n=2, nodes=nodes), schema3) == []

    def test_decode_example(self, schema2):
        s = np.zeros((2, 2, 2))
        s[0, 1] = [2.0, 0.0]
        s[0, 0] = [1.0, 0.0]
        s[1, 1] = [0.5, 0.0]
        tree = cky_decode(ScoreChart(pack_cells(s), schema2))
        assert extract_entities(tree, schema2) == [
            Span(0, 1, 0),
            Span(0, 0, 0),
            Span(1, 1, 0),
        ]

    def test_mixed_tree(self, schema3):
        nodes = ((0, 1, 1), (0, 0, 2), (1, 1, 0))
        spans = extract_entities(FullTree(n=2, nodes=nodes), schema3)
        assert spans == [Span(0, 1, 1), Span(1, 1, 0)]


class TestFullTree:
    def test_node_count_enforced(self):
        with pytest.raises(ValueError):
            FullTree(n=2, nodes=((0, 1, 0), (0, 0, 0)))

    def test_partition_enforced(self):
        # (0,1) and (1,2) cross; the root's right child (2,2) is missing
        with pytest.raises(ValueError):
            FullTree(n=3, nodes=((0, 2, 0), (0, 1, 0), (1, 2, 0), (0, 0, 0), (1, 1, 0)))
        # well-formed version passes
        FullTree(n=3, nodes=((0, 2, 0), (0, 1, 0), (0, 0, 0), (1, 1, 0), (2, 2, 0)))

    @pytest.mark.parametrize(
        "n, nodes",
        [
            (1, ((0, 0, 1.5),)),
            (1, ((0.0, 0, 0),)),
            (1, ((0, 0.0, 0),)),
            (1.0, ((0, 0, 0),)),
            (2, ((0, 1, 0), (0, 0, 0), (1, 1, "0"))),
        ],
    )
    def test_non_integer_values_rejected(self, n, nodes):
        with pytest.raises(ValueError, match="must be integers"):
            FullTree(n=n, nodes=nodes)

    def test_numpy_integers_accepted(self):
        i = np.int64
        nodes = ((i(0), i(1), i(0)), (i(0), i(0), i(1)), (i(1), i(1), i(0)))
        assert FullTree(n=i(2), nodes=nodes).nodes == ((0, 1, 0), (0, 0, 1), (1, 1, 0))

    def test_document_order_canonicalization(self):
        scrambled = ((1, 1, 0), (0, 1, 0), (0, 0, 0))
        assert FullTree(n=2, nodes=scrambled).nodes == (
            (0, 1, 0),
            (0, 0, 0),
            (1, 1, 0),
        )


@functools.cache
def _bracketings(n):
    """Each binary bracketing over ``n`` tokens: sorted spans -> splits."""
    return {
        tuple(sorted((i, j) for i, j, _ in structure)): {
            (i, j): m for i, j, m in structure if m >= 0
        }
        for structure in _structures(0, n - 1)
    }


def _expected_splits(n, nodes):
    """The splits of the bracketing ``nodes`` label, or None if they do not."""
    if any(k < 0 for *_, k in nodes):
        return None
    return _bracketings(n).get(tuple(sorted((i, j) for i, j, _ in nodes)))


@st.composite
def _node_lists(draw):
    """``2n - 1`` labeled spans: a bracketing with some nodes redrawn."""
    n = draw(st.integers(1, 5))
    spans = draw(st.sampled_from(sorted(_bracketings(n))))
    nodes = [(i, j, draw(st.integers(0, 2))) for i, j in spans]
    coord = st.integers(-1, n)
    for _ in range(draw(st.integers(0, len(nodes)))):
        at = draw(st.integers(0, len(nodes) - 1))
        nodes[at] = (draw(coord), draw(coord), draw(st.integers(-1, 2)))
    return n, tuple(draw(st.permutations(nodes)))


class TestFullTreeAcceptance:
    """FullTree accepts exactly the binary bracketings, in preorder."""

    def _check(self, n, nodes):
        if _expected_splits(n, nodes) is None:
            with pytest.raises(ValueError):
                FullTree(n=n, nodes=nodes)
        else:
            preorder = tuple(sorted(nodes, key=lambda t: (t[0], -t[1])))
            assert FullTree(n=n, nodes=nodes).nodes == preorder

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_bracketing_in_any_order(self, n):
        rng = np.random.default_rng(n)
        for spans in _bracketings(n):
            nodes = [(i, j, int(rng.integers(0, 3))) for i, j in spans]
            rng.shuffle(nodes)
            self._check(n, tuple(nodes))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_multiset_of_spans(self, n):
        spans = [(i, j) for i in range(n) for j in range(i, n)]
        accepted = 0
        for chosen in itertools.combinations_with_replacement(spans, 2 * n - 1):
            nodes = tuple((i, j, 0) for i, j in chosen)
            self._check(n, nodes)
            accepted += _expected_splits(n, nodes) is not None
        assert accepted == catalan(n - 1)

    @pytest.mark.parametrize(
        "n, nodes",
        [
            (3, ((0, 2, 0), (0, 0, 0), (0, 0, 0), (1, 1, 0), (2, 2, 0))),
            (3, ((0, 2, 0), (0, 2, 1), (0, 0, 0), (1, 1, 0), (2, 2, 0))),
            (3, ((0, 2, 0), (0, 1, 0), (1, 2, 0), (0, 0, 0), (1, 1, 0))),
            (4, ((0, 3, 0), (0, 1, 0), (0, 0, 0), (1, 1, 0), (2, 3, 0), (0, 2, 0),
                 (3, 3, 0))),
            (3, ((0, 1, 0), (0, 0, 0), (1, 1, 0), (2, 2, 0), (1, 2, 0))),
            (2, ((0, 1, 0), (0, 0, 0), (1, 2, 0))),
            (2, ((0, 1, 0), (-1, 0, 0), (1, 1, 0))),
            (2, ((0, 1, 0), (1, 0, 0), (1, 1, 0))),
            (2, ((0, 1, -1), (0, 0, 0), (1, 1, 0))),
            (2, ((0, 1, 0), (0, 0, 0))),
        ],
        ids=[
            "duplicate-leaf",
            "duplicate-root",
            "crossing",
            "missing-leaf",
            "missing-root",
            "end-past-n",
            "negative-start",
            "start-after-end",
            "negative-label",
            "too-few-nodes",
        ],
    )
    def test_malformed_lists_raise_value_error(self, n, nodes):
        assert _expected_splits(n, nodes) is None
        self._check(n, nodes)

    @settings(deadline=None, max_examples=500)
    @given(case=_node_lists())
    def test_accepts_exactly_the_bracketings(self, case):
        self._check(*case)


class TestNaNPoisoning:
    def test_pack_cells_drops_nan_below_the_diagonal(self, schema3):
        # a square's cells below the diagonal never reach a chart: NaN
        # there leaves exactly the span cells of the clean square
        rng = np.random.default_rng(14)
        for n in (1, 2, 5, 9):
            clean = random_chart(n, schema3, rng).s
            poisoned = clean.copy()
            poisoned[np.tril_indices(n, k=-1)] = np.nan
            cells = ScoreChart(pack_cells(poisoned), schema3).cells
            assert np.isfinite(cells).all()
            np.testing.assert_array_equal(cells, pack_cells(clean))


class TestNoModuleState:
    """Calls leave no growing state behind in the engine's modules."""

    @staticmethod
    def _container_sizes():
        return {
            (module.__name__, name): len(value)
            for module in (inference_module, scorer_module)
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))
        }

    def test_module_containers_do_not_grow(self, schema3):
        rng = np.random.default_rng(17)
        vocab = Vocab.build(f"t{i}" for i in range(10))
        params = init_params(vocab, ScorerConfig(4, 8, schema3), seed=0)
        before = self._container_sizes()
        charts, masks = [], []
        for n in range(101, 131, 3):
            chart = random_chart(n, schema3, rng)
            mask = build_mask(classify_nodes(random_partial_tree(n, schema3, rng)), schema3)
            loss_and_score_gradient(chart, mask)
            cky_decode(chart)
            charts.append(chart)
            masks.append(mask)
            tokens = [f"t{int(k)}" for k in rng.integers(0, 10, size=n)]
            _, tape = forward_batch([params.vocab.encode(tokens)], params)
            tape.backward([rng.normal(size=chart.cells.shape)])
        batched_masked_inside(charts, masks)
        assert self._container_sizes() == before


def wide_spread_probes(schema2):
    """Two charts whose scores spread too far for the scaled pass.

    n = 3: leaves at 0, both width-2 cells at -800, the root at +900;
    n = 4: cells (0, 1) and (2, 3) at +800, (1, 2) and (0, 2) at -700.
    """
    s = np.zeros((3, 3, 2))
    s[0, 1] = s[1, 2] = -800.0
    s[0, 2] = 900.0
    t = np.zeros((4, 4, 2))
    t[0, 1] = t[2, 3] = 800.0
    t[1, 2] = t[0, 2] = -700.0
    return [ScoreChart(pack_cells(s), schema2), ScoreChart(pack_cells(t), schema2)]


class TestMasksThatAdmitNoTree:
    """A mask that admits no full tree: -inf, as the reference gives, and an
    infinite loss, all without a RuntimeWarning."""

    @staticmethod
    def _masks(chart, schema, rng):
        admitting = build_mask(
            classify_nodes(random_partial_tree(chart.n, schema, rng)), schema
        )
        no_root = admitting.cells.copy()
        no_root[packed_index(0, chart.n - 1, chart.n)] = 0.0
        return admitting, [ChartMask(np.zeros_like(no_root)), ChartMask(no_root)]

    def test_masked_inside_and_the_batch(self, schema3):
        rng = np.random.default_rng(30)
        charts = [random_chart(n, schema3, rng) for n in (4, 6, 5)]
        admitting, rejecting = self._masks(charts[1], schema3, rng)
        assert np.isfinite(masked_inside(charts[1], admitting))
        ones = [ChartMask(np.ones_like(chart.cells)) for chart in charts]
        for mask in rejecting:
            assert masked_inside(charts[1], mask) == -np.inf
            got = batched_masked_inside(charts, [ones[0], mask, ones[2]])
            assert got[1] == -np.inf
            assert got[0] == inside(charts[0]) and got[2] == inside(charts[2])

    def test_infinite_loss_leaves_the_other_gradients(self, schema3):
        rng = np.random.default_rng(31)
        charts = [random_chart(n, schema3, rng) for n in (4, 6, 5)]
        admitting, rejecting = self._masks(charts[1], schema3, rng)
        others = [
            build_mask(classify_nodes(random_partial_tree(c.n, schema3, rng)), schema3)
            for c in (charts[0], charts[2])
        ]
        for mask in rejecting:
            masks = [others[0], mask, others[1]]
            results = list(batch_loss_and_score_gradient(charts, masks))
            assert results[1][0] == np.inf
            assert np.isfinite(results[1][1]).all()
            for k in (0, 2):
                loss, grad = loss_and_score_gradient(charts[k], masks[k])
                assert results[k][0] == loss
                np.testing.assert_array_equal(results[k][1], grad)


class TestRange:
    """The structured layer's range: scores up to ``_score_limit(n, L)``,
    which keeps every log value below the largest double.  Every entry
    point checks it before any kernel call, and a chart beyond it raises,
    naming its batch position; within it, every value is finite (or -inf
    where a mask admits no tree), and charts whose scores spread too far
    for the scaled pass are redone exactly."""

    GRID = list(itertools.product((1, 2, 3, 7, 40), (2, 4, 8)))

    @staticmethod
    def _charts(n, L, x):
        """Charts of all ``x``, of all ``-x`` and of ``x`` and ``-x``
        alternating, and their schema."""
        schema = LabelSchema(tuple(f"L{k}" for k in range(L - 1)), 1)
        cells = n * (n + 1) // 2
        signs = np.where(np.indices((cells, L)).sum(axis=0) % 2, 1.0, -1.0)
        charts = [ScoreChart(np.full((cells, L), value), schema) for value in (x, -x)]
        return charts + [ScoreChart(x * signs, schema)], schema

    def test_the_limit(self):
        for n, L in self.GRID:
            bound = (np.finfo(float).max - (n - 1) * math.log(4)) / (2 * n - 1)
            limit = inference_module._score_limit(n, L)
            assert limit == pytest.approx(bound - math.log(L) - 745, rel=1e-8)
            assert limit < bound - math.log(L) - 745

    def test_every_entry_point_is_finite_at_the_limit(self):
        # all ones and the smallest positive weight, which adds -744.4; the
        # reference both on latent cells and on a root of every observed label
        for n, L in self.GRID:
            charts, schema = self._charts(n, L, inference_module._score_limit(n, L))
            root = tuple(Span(0, n - 1, k) for k in range(L - 1))
            symbols = [classify_nodes(PartialTree(n=n, entities=e)) for e in ((), root)]
            cells = n * (n + 1) // 2
            for chart, weight in itertools.product(charts, (1.0, 5e-324)):
                mask = ChartMask(np.full((cells, L), weight))
                with np.errstate(over="raise", invalid="raise"):
                    tree = batch_cky_decode([chart])[0]
                    values = [
                        inside(chart),
                        masked_inside(chart, mask),
                        log_prob(chart, mask),
                        *batched_masked_inside([chart, chart], [mask, mask]),
                        tree_score(chart, tree),
                        *(vanilla_partial_marginalization(chart, t) for t in symbols),
                    ]
                    loss, grad = loss_and_score_gradient(chart, mask)
                    mu = marginals(chart), marginals(chart, mask)
                assert np.isfinite(values + [loss]).all(), (n, L, weight)
                assert np.isfinite(grad).all() and np.isfinite(mu).all()

    def test_one_ulp_above_the_limit_raises_before_any_pass(self):
        wrapped = inference_module._inside_pass
        for n, L in self.GRID:
            limit = inference_module._score_limit(n, L)
            charts, schema = self._charts(n, L, np.nextafter(limit, np.inf))
            inner = zero_chart(n, schema)
            ones = [ChartMask(np.ones_like(inner.cells))] * 3
            loss = batch_loss_and_score_gradient
            tree = cky_decode(inner)
            latent = classify_nodes(PartialTree(n=n, entities=()))
            for chart in charts:
                runs = [
                    ("0: ", lambda: inside(chart)),
                    ("1: ", lambda: batched_masked_inside([inner, chart], ones[:2])),
                    ("2: ", lambda: loss([inner, inner, chart], ones)),
                    ("1: CKY ", lambda: batch_cky_decode([inner, chart])),
                    ("0: ", lambda: vanilla_partial_marginalization(chart, latent)),
                    ("0: tree_score ", lambda: tree_score(chart, tree)),
                ]
                for position, run in runs:
                    match = "batch position " + position
                    with mock.patch.object(
                        inference_module, "_inside_pass", wraps=wrapped
                    ) as inside_pass, pytest.raises(NonFiniteLoss, match=match):
                        run()
                    assert inside_pass.call_count == 0, match

    def test_a_loss_that_overflows_in_range_raises(self, schema2):
        # one token: inside 1.7e308, masked inside -1.7e308, both in range;
        # their difference is not, but the mask admits a tree
        chart = ScoreChart(np.array([[1.7e308, -1.7e308]]), schema2)
        mask = ChartMask(np.array([[0.0, 1.0]]))
        assert masked_inside(chart, mask) == -1.7e308
        with pytest.raises(NonFiniteLoss, match="batch position 0: ") as error:
            loss_and_score_gradient(chart, mask)
        assert error.value.position == 0
        with pytest.raises(NonFiniteLoss, match="batch position 0: "):
            log_prob(chart, mask)
        inner = zero_chart(1, schema2)
        with pytest.raises(NonFiniteLoss, match="batch position 1: ") as error:
            batch_loss_and_score_gradient([inner, chart, inner], [mask] * 3)
        assert error.value.position == 1

    def test_the_first_overflowing_loss_in_input_order_is_named(self, schema2):
        # five zero charts of n = 100 cut the batch into blocks of three:
        # positions 0, 2, 3; then 4, 5 and the n = 2 overflow at 6; then the
        # 1-token overflow at 1, alone in the last block.  Its position in
        # the input is named, not the block's first overflow, nor a
        # position in its block or in the longest-first order
        first = ScoreChart(np.array([[1.7e308, -1.7e308]]), schema2)
        x = 0.99 * inference_module._score_limit(2, 2)
        second = ScoreChart(np.tile([x, -x], (3, 1)), schema2)
        inner = zero_chart(100, schema2)
        charts = [inner, first, inner, inner, inner, inner, second]
        masks = [ChartMask(np.tile([0.0, 1.0], (len(c.cells), 1))) for c in charts]
        blocks = list(inference_module._blocks(charts))
        assert blocks == [[0, 2, 3], [4, 5, 6], [1]]
        with pytest.raises(NonFiniteLoss, match="batch position 0: the loss "):
            loss_and_score_gradient(second, masks[6])
        with pytest.raises(NonFiniteLoss, match="batch position 1: the loss ") as error:
            batch_loss_and_score_gradient(charts, masks)
        assert error.value.position == 1

    def test_both_sides_of_the_overflow_bound(self, schema2):
        # a constant chart of n = 3: log Z = 5 x + log(2 * 2^5)
        bound = np.finfo(float).max / 5
        inner = ScoreChart(np.full((6, 2), 0.99 * bound), schema2)
        assert inside(inner) == pytest.approx(5 * 0.99 * bound, rel=1e-12)
        latent = classify_nodes(PartialTree(n=3, entities=()))
        for x in (1.01 * bound, -1.01 * bound, 1.7e308):
            outer = ScoreChart(np.full((6, 2), x), schema2)
            with pytest.raises(NonFiniteLoss, match="batch position 0: "):
                inside(outer)
            ones = ChartMask(np.ones((6, 2)))
            with pytest.raises(NonFiniteLoss, match="batch position 2: ") as error:
                batched_masked_inside([inner, inner, outer], [ones] * 3)
            assert error.value.position == 2
            with pytest.raises(NonFiniteLoss, match="batch position 1: "):
                batch_loss_and_score_gradient([inner, outer], [ones] * 2)
            with pytest.raises(NonFiniteLoss, match="batch position 0: "):
                vanilla_partial_marginalization(outer, latent)

    def test_cky_both_sides_of_its_bound(self, schema2):
        # max-plus on a constant chart of n = 3: the root is 5 x
        bound = np.finfo(float).max / 5
        inner = ScoreChart(np.full((6, 2), 0.99 * bound), schema2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (0.99 * bound, -0.99 * bound):
                chart = ScoreChart(np.full((6, 2), x), schema2)
                assert tree_score(chart, cky_decode(chart)) == pytest.approx(5 * x)
            for x in (1.01 * bound, -1.01 * bound, 1.7e308):
                outer = ScoreChart(np.full((6, 2), x), schema2)
                with pytest.raises(NonFiniteLoss, match="batch position 0: CKY "):
                    cky_decode(outer)
                with pytest.raises(NonFiniteLoss, match="batch position 2: ") as error:
                    batch_cky_decode([inner, inner, outer])
                assert error.value.position == 2
                with pytest.raises(NonFiniteLoss, match="position 0: tree_score "):
                    tree_score(outer, cky_decode(inner))

    def test_cky_on_wide_charts_equals_the_oracle(self, schema2):
        # the wide-spread probes and raw charts drawn at scale 300: the
        # decoded tree is the oracle's, and its score the oracle's best
        rng = np.random.default_rng(37)
        charts = wide_spread_probes(schema2) + [
            ScoreChart(pack_cells(300.0 * rng.normal(size=(n, n, 2))), schema2)
            for n in range(1, 8)
        ]
        for chart, tree in zip(charts, batch_cky_decode(charts)):
            assert tree.nodes == cky_decode(chart).nodes
            assert tree.nodes == brute_force_best_tree(chart).nodes
            best = max(
                _structure_score_and_labels(chart, structure)[0]
                for structure in _structures(0, chart.n - 1)
            )
            assert tree_score(chart, tree) == best

    def test_wide_spread_probe(self, schema2):
        chart = wide_spread_probes(schema2)[0]
        ones = ChartMask(np.ones((6, 2)))
        assert inside(chart) == pytest.approx(104.15888308335946, rel=1e-12)
        assert masked_inside(chart, ones) == inside(chart)
        assert log_passes(lambda: inside(chart)) == 1

    def test_a_root_the_scaled_pass_loses_is_redone(self, schema2):
        # leaf (0, 0) and cell (0, 1) 800 below the rest: every product of
        # the scaled pass's root underflows, the log semiring's does not
        s = np.zeros((3, 3, 2))
        s[0, 0] = s[0, 1] = -800.0
        chart = ScoreChart(pack_cells(s), schema2)
        root, mu = log_domain_reference(chart)
        assert inside(chart) == pytest.approx(root, rel=1e-12)
        np.testing.assert_allclose(marginals(chart), mu, rtol=1e-12, atol=1e-300)

    def test_a_chart_is_redone_or_not_as_it_is_alone(self, schema2):
        # a leaf of scores 100 and -41: every label exponential is at least
        # 2^-60, and its scaled label part is 1/2, so it stays in the scaled
        # pass; next to a chart whose label exponential e^-50 is below
        # 2^-60 it must too, with the bits it gets alone
        chart = ScoreChart(np.array([[100.0, -41.0]]), schema2)
        other = ScoreChart(np.array([[0.0, -50.0]]), schema2)
        mask = ChartMask(np.array([[1.0, 0.5]]))
        masks = [mask, ChartMask(np.ones((1, 2)))]
        assert log_passes(lambda: masked_inside(chart, mask)) == 0
        assert log_passes(lambda: masked_inside(other, masks[1])) == 1
        for b, charts in ((0, [chart, other]), (1, [other, chart])):
            batch_masks = masks if b == 0 else masks[::-1]
            root = batched_masked_inside(charts, batch_masks)[b]
            assert root == masked_inside(chart, mask)
            loss, grad = list(batch_loss_and_score_gradient(charts, batch_masks))[b]
            expected_loss, expected_grad = loss_and_score_gradient(chart, mask)
            assert loss == expected_loss
            np.testing.assert_array_equal(grad, expected_grad)

    def test_a_label_exponential_below_2_60_is_refused_alone_and_in_a_batch(
        self, schema2
    ):
        # exp(-42) < 2^-60 <= exp(-41): the chart's peak, 42, asks for the
        # scan of its label exponentials, and the rest of the batch, whose
        # peaks stay below 41, cannot hold one so small
        rng = np.random.default_rng(38)
        low = ScoreChart(np.array([[0.5, -42.0], [1.0, 0.0], [0.0, 2.0]]), schema2)
        edge = ScoreChart(np.array([[0.5, -41.0], [1.0, 0.0], [0.0, 2.0]]), schema2)
        others = [normalized_chart(n, schema2, rng) for n in (4, 2, 1)]
        assert max(chart.peak for chart in others) < 41.0
        for chart, refused in ((low, True), (edge, False)):
            assert inference_module._inside([chart], [None]).redone == [0] * refused
            batch = [others[0], chart, *others[1:]]
            ones = [ChartMask(np.ones_like(c.cells)) for c in batch]
            for masks in ([None] * 4, ones):
                assert inference_module._inside(batch, masks).redone == [1] * refused

    def test_redone_charts_equal_their_batch_of_one(self, schema2):
        rng = np.random.default_rng(32)
        charts = [random_chart(n, schema2, rng) for n in (5, 3, 7)]
        charts.insert(1, wide_spread_probes(schema2)[0])
        masks = [
            build_mask(classify_nodes(random_partial_tree(c.n, schema2, rng)), schema2)
            for c in charts
        ]
        assert log_passes(lambda: batch_loss_and_score_gradient(charts, masks)) == 1
        results = list(batch_loss_and_score_gradient(charts, masks))
        for chart, mask, (loss, grad) in zip(charts, masks, results):
            expected_loss, expected_grad = loss_and_score_gradient(chart, mask)
            assert loss == expected_loss
            np.testing.assert_array_equal(grad, expected_grad)

    def test_scorer_charts_stay_in_the_scaled_pass(self, schema3):
        rng = np.random.default_rng(33)
        vocab = Vocab.build(f"t{i}" for i in range(20))
        params = init_params(vocab, ScorerConfig(16, 32, schema3), seed=0)
        lengths = [1, 2, 7, 20, 60, 100]
        charts, _ = forward_batch(
            [vocab.encode([f"t{k}" for k in rng.integers(0, 20, n)]) for n in lengths],
            params,
        )
        trees = [random_partial_tree(n, schema3, rng) for n in lengths]
        symbols = [classify_nodes(tree) for tree in trees]
        masks = [smooth_mask(build_mask(sym, schema3), sym, 0.01) for sym in symbols]
        assert (
            log_passes(lambda: list(batch_loss_and_score_gradient(charts, masks))) == 0
        )


def normalized_chart(n, schema, rng):
    """Normal draws scaled to mean 0 and variance 1, as the scorer's charts."""
    cells = rng.normal(size=(n * (n + 1) // 2, schema.n_labels))
    return ScoreChart((cells - cells.mean()) / max(cells.std(), 1e-3), schema)


def width_growing_chart(n, c, schema, rng):
    """Scores ``c (j - i)`` plus noise: a cell's log inside value grows (or,
    for ``c < 0``, falls) about as the square of its width, which no one
    offset per node follows over every width."""
    i, j = np.triu_indices(n)
    noise = 0.3 * rng.normal(size=(len(i), schema.n_labels))
    return ScoreChart(c * (j - i)[:, None] + noise, schema)


def smoothed_random_masks(charts, schema, rng):
    """Epsilon-smoothed masks of random partial trees, one per chart."""
    symbols = [classify_nodes(random_partial_tree(c.n, schema, rng)) for c in charts]
    return [smooth_mask(build_mask(s, schema), s, 0.01) for s in symbols]


def rebases(run):
    """How many rows the scaled passes of ``run`` rebase."""
    count = 0
    rebase = inference_module._rebase

    def spy(p, cells, w):
        nonlocal count
        before = p.offset.copy()
        rebase(p, cells, w)
        count += int((p.offset != before).sum())

    with mock.patch.object(inference_module, "_rebase", spy):
        run()
    return count


def benchmark_workloads():
    """The benchmark's workload module, which builds its corpora."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # for its dataclasses
        spec.loader.exec_module(module)
    return module


class TestOffsets:
    """The scaled pass's one log offset per row and node.  It holds every
    chart the scaling per width held, and rebases a row whose values leave
    its window at some width, exactly and from the row's own values.
    Normalized charts stay in the scaled pass up to n = 600, masked or not;
    at n = 1000 some draws are redone in the log semiring."""

    def test_normalized_charts_stay_in_the_scaled_pass(self, schema3):
        # lengths 1-100 as one batch, then 300 and 1000; each unmasked and
        # under a smoothed mask
        rng = np.random.default_rng(40)
        for lengths in (range(1, 101), [300], [1000]):
            charts = [normalized_chart(n, schema3, rng) for n in lengths]
            masks = smoothed_random_masks(charts, schema3, rng)
            run = functools.partial(batch_loss_and_score_gradient, charts, masks)
            assert log_passes(lambda: list(run())) == 0, max(lengths)
        # fresh draws at 300 and 600, each chart with its own seed
        for n, seeds in ((300, range(4)), (600, range(3))):
            for seed in seeds:
                rng = np.random.default_rng(seed)
                charts = [normalized_chart(n, schema3, rng)]
                masks = smoothed_random_masks(charts, schema3, rng)
                run = functools.partial(batch_loss_and_score_gradient, charts, masks)
                assert log_passes(lambda: list(run())) == 0, (n, seed)

    def test_a_redone_n1000_chart_keeps_its_root(self, schema3):
        # a masked n = 1000 draw that holds a cell beyond 2^+-400 before a
        # rebase: its root is the log semiring's, whichever pass gives it
        rng = np.random.default_rng(1006)
        chart = normalized_chart(1000, schema3, rng)
        (mask,) = smoothed_random_masks([chart], schema3, rng)
        with np.errstate(divide="ignore"):  # log of a rejected label's 0
            log = inference_module._inside_pass([chart], [mask], inference_module._LOG)
        root = float(inference_module._root_values(log)[0])
        assert masked_inside(chart, mask) == pytest.approx(root, rel=1e-12)

    def test_training_corpora_stay_in_the_scaled_pass(self):
        # one epoch on each of the benchmark's train-std and train-long corpora
        workloads = benchmark_workloads()
        for corpus in (workloads.std_corpus, workloads.long_corpus):
            records = corpus(41)
            run = functools.partial(train, records, TrainConfig(seed=0, epochs=1))
            assert log_passes(run) == 0, corpus.__name__

    @pytest.mark.parametrize("n, c", [(200, 0.02), (400, 0.01)])
    def test_width_growing_charts_are_rebased_exactly(self, schema3, n, c):
        rng = np.random.default_rng(41)
        chart = width_growing_chart(n, c, schema3, rng)
        assert rebases(lambda: inside(chart)) >= 2
        assert log_passes(lambda: inside(chart)) == 0
        # the root against the log semiring's; the marginals against the
        # shifted reference, whose log values stay small
        log = inference_module._inside_pass([chart], [None], inference_module._LOG)
        root = float(inference_module._root_values(log)[0])
        assert inside(chart) == pytest.approx(root, rel=1e-12)
        _, mu = log_domain_reference(chart)
        np.testing.assert_allclose(marginals(chart), mu, rtol=1e-12, atol=1e-300)

    def test_batched_equals_alone_with_and_without_rebased_rows(self, schema3):
        rng = np.random.default_rng(42)
        plain = [normalized_chart(n, schema3, rng) for n in range(1, 101)]
        rebased = [
            width_growing_chart(80, 0.2, schema3, rng),
            width_growing_chart(60, -0.2, schema3, rng),
        ]
        for charts in (plain, plain[:40] + rebased + plain[40:]):
            masks = smoothed_random_masks(charts, schema3, rng)
            run = functools.partial(batch_loss_and_score_gradient, charts, masks)
            assert (rebases(lambda: list(run())) > 0) == (charts is not plain)
            assert log_passes(lambda: list(run())) == 0
            roots = batched_masked_inside(charts, masks)
            for chart, mask, root, (loss, grad) in zip(charts, masks, roots, run()):
                assert root == masked_inside(chart, mask)
                expected_loss, expected_grad = loss_and_score_gradient(chart, mask)
                assert loss == expected_loss
                np.testing.assert_array_equal(grad, expected_grad)

    def test_a_rebase_never_hides_a_cell_outside_the_window(self, schema3):
        # cell (0, 1) at 2^-1000, below the window, and cell (0, 3) at 2^300:
        # the rebase at width 4 takes the first to 0, which alone would read
        # as a rejection, so the row must fail the certificate
        chart = normalized_chart(8, schema3, np.random.default_rng(44))
        scaled = inference_module._SCALED_REAL
        p = inference_module._inside_pass([chart], [None], scaled)
        assert inference_module._certified(p).all()
        # cell (i, j) sits at table[j - i, i, row]
        p.table[1, 0, 0] = 2.0**-1000
        cells = p.table[3, :5]  # the width-4 cells
        cells[0, 0] = 2.0**300
        inference_module._rebase(p, cells, 4)
        assert p.table[1, 0, 0] == 0.0 and p.table[3, 0, 0] == pytest.approx(1.0)
        assert not inference_module._certified(p).any()

    def test_all_ones_mask_reproduces_inside_bitwise(self, schema3):
        rng = np.random.default_rng(43)
        for c in (0.2, -0.2, 0.0):
            chart = width_growing_chart(70, c, schema3, rng)
            ones = ChartMask(np.ones_like(chart.cells))
            assert (rebases(lambda: inside(chart)) > 0) == (c != 0.0)
            assert masked_inside(chart, ones) == inside(chart)
            np.testing.assert_array_equal(marginals(chart, ones), marginals(chart))


class TestAgainstLogDomainReference:
    """Roots and marginals within 1e-12 relative of a log-sum-exp reference."""

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 150, 300])
    def test_normalized_charts(self, schema3, n):
        rng = np.random.default_rng(34 + n)
        s = rng.normal(size=(n, n, 3))
        cells = pack_cells(s)
        chart = ScoreChart((cells - cells.mean()) / max(cells.std(), 1e-3), schema3)
        sym = classify_nodes(random_partial_tree(n, schema3, rng))
        for mask in (None, smooth_mask(build_mask(sym, schema3), sym, 0.01)):
            root, mu = log_domain_reference(chart, mask)
            value = inside(chart) if mask is None else masked_inside(chart, mask)
            assert value == pytest.approx(root, rel=1e-12)
            np.testing.assert_allclose(
                marginals(chart, mask), mu, rtol=1e-12, atol=1e-300
            )

    def test_wide_spread_probes(self, schema2):
        # unmasked, under the mask of a random partial tree and under an
        # all-ones mask: the log redo's both halves and its one sweep
        rng = np.random.default_rng(36)
        for chart in wide_spread_probes(schema2):
            sym = classify_nodes(random_partial_tree(chart.n, schema2, rng))
            ones = ChartMask(np.ones_like(chart.cells))
            for mask in (None, build_mask(sym, schema2), ones):
                root, mu = log_domain_reference(chart, mask)
                value = inside(chart) if mask is None else masked_inside(chart, mask)
                assert value == pytest.approx(root, rel=1e-12)
                assert log_passes(lambda: marginals(chart, mask)) == 1
                np.testing.assert_allclose(
                    marginals(chart, mask), mu, rtol=1e-12, atol=1e-300
                )


class TestBatchedMaskedInside:
    def test_matches_per_sentence_bitwise(self):
        # (sentences, length range, labels): mixed short lengths, the bench
        # shape (32 x n 40 x 8 labels), and padded mixed lengths 1..29.
        cases = ((9, (1, 9), 3), (32, (40, 41), 8), (32, (1, 30), 4))
        for count, lengths, n_labels in cases:
            schema = LabelSchema(
                tuple(f"L{k}" for k in range(n_labels - 1)), latent_label_count=1
            )
            rng = np.random.default_rng(15)
            charts, masks = [], []
            for _ in range(count):
                n = int(rng.integers(*lengths))
                charts.append(random_chart(n, schema, rng))
                tree = random_partial_tree(n, schema, rng)
                sym = classify_nodes(tree)
                masks.append(build_mask(sym, schema))
            got = batched_masked_inside(charts, masks)
            expected = np.array(
                [masked_inside(c, m) for c, m in zip(charts, masks)]
            )
            np.testing.assert_array_equal(got, expected)

    def test_empty_batch(self):
        assert batched_masked_inside([], []).shape == (0,)


class TestBatchLossAndScoreGradient:
    @staticmethod
    def _sentences(lengths, schema, rng, poison=True):
        charts, masks = [], []
        for n in lengths:
            s = random_chart(n, schema, rng).s.copy()
            if poison:
                s[np.tril_indices(n, k=-1)] = np.nan
            charts.append(ScoreChart(pack_cells(s), schema))
            sym = classify_nodes(random_partial_tree(n, schema, rng))
            masks.append(smooth_mask(build_mask(sym, schema), sym, 0.01))
        return charts, masks

    def _assert_matches_per_sentence(self, charts, masks):
        results = list(batch_loss_and_score_gradient(charts, masks))
        assert len(results) == len(charts)
        for chart, mask, (loss, grad) in zip(charts, masks, results):
            expected_loss, expected_grad = loss_and_score_gradient(chart, mask)
            assert loss == expected_loss
            np.testing.assert_array_equal(grad, expected_grad)

    def test_mixed_lengths_bitwise_in_input_order(self, schema3):
        # lengths 1..30, some repeated, and a few long ones, shuffled so
        # that the longest-first rows of the kernel differ from the input
        # order; cells below the diagonal are NaN.  The batch is more than
        # DECODE_CHUNK_CELLS padded cells, so it runs in blocks
        rng = np.random.default_rng(18)
        lengths = rng.permutation(list(range(1, 31)) + [1, 7, 7, 19, 30, 45, 76, 100])
        charts, masks = self._sentences(lengths, schema3, rng)
        run = lambda: list(batch_loss_and_score_gradient(charts, masks))  # noqa: E731
        assert scaled_passes(run) >= 2
        self._assert_matches_per_sentence(charts, masks)

    def test_a_train_long_block_equals_each_sentence_alone(self):
        # block 0 of the benchmark's train-long corpus (seed 41, 19
        # sentences of 6-100 tokens) as a training step sees it: the charts
        # of an initial model and the smoothed masks; it runs in blocks
        records = benchmark_workloads().long_corpus(41)[:19]
        schema, vocab = corpus_schema(records, 1), corpus_vocab(records)
        examples = preprocess(records, schema, vocab, 0.01)
        params = init_params(vocab, ScorerConfig(16, 32, schema), seed=0)
        charts, _ = forward_batch([example.token_ids for example in examples], params)
        masks = [example.mask for example in examples]
        run = lambda: list(batch_loss_and_score_gradient(charts, masks))  # noqa: E731
        assert scaled_passes(run) >= 2
        self._assert_matches_per_sentence(charts, masks)

    def test_a_train_std_minibatch_is_one_kernel_batch(self, schema3):
        # 16 sentences of 6-20 tokens, 20 among them: at most 32 rows of
        # 210 span cells, within DECODE_CHUNK_CELLS
        rng = np.random.default_rng(27)
        lengths = rng.permutation([6, 20, *rng.integers(6, 21, size=14)])
        charts, masks = self._sentences(lengths, schema3, rng)
        run = lambda: list(batch_loss_and_score_gradient(charts, masks))  # noqa: E731
        assert scaled_passes(run) == 1
        self._assert_matches_per_sentence(charts, masks)

    def test_equals_inside_and_marginals_bitwise(self, schema3):
        # the loss and gradient come from the same inside pass and sweep as
        # inside, masked_inside and marginals, so they match them exactly
        rng = np.random.default_rng(21)
        lengths = rng.permutation(list(range(1, 31)) + [1, 7, 7, 19, 30, 45, 76, 100])
        charts, masks = self._sentences(lengths, schema3, rng)
        for chart, mask in zip(charts, masks):
            loss, grad = loss_and_score_gradient(chart, mask)
            assert loss == inside(chart) - masked_inside(chart, mask)
            expected = marginals(chart) - marginals(chart, mask)
            assert np.array_equal(grad, expected[~below_diagonal(chart.n)])

    @pytest.mark.parametrize(
        "count, n",
        [pytest.param(c, 12, id=str(c)) for c in (1, 4, 16)]
        + [pytest.param(16, 60, id="16-above-the-bound")],
    )
    def test_one_mask_and_label_reduction_per_batch(self, schema3, count, n):
        # the masks, the label reduction and the kernel run once per block:
        # one seed, given the block's charts longest first in a stable order
        # and every chart's cells and every mask of the block in one array
        # each, and n_b - 1 widths, n_b the block's longest length.  A block
        # grows while 2 rows per sentence times the span cells of its
        # longest stay within DECODE_CHUNK_CELLS: a batch within it, as at
        # n = 12, is one block; 16 sentences up to n = 60 are two
        rng = np.random.default_rng(22)
        lengths = rng.permutation([n, *rng.integers(1, n + 1, size=count - 1)])
        charts, masks = self._sentences(lengths, schema3, rng)

        def padded(block):  # two rows per sentence, at the first's span cells
            return len(block) * lengths[block[0]] * (lengths[block[0]] + 1)

        bound = inference_module.DECODE_CHUNK_CELLS
        blocks: list[list[int]] = []
        for b in sorted(range(count), key=lambda b: -lengths[b]):
            if blocks and padded(blocks[-1] + [b]) <= bound:
                blocks[-1].append(b)
            else:
                blocks.append([b])
        assert len(blocks) == (2 if n == 60 else 1)
        real = inference_module._SCALED_REAL
        seed, split = mock.Mock(wraps=real.seed), mock.Mock(wraps=real.split)
        with mock.patch.object(
            inference_module, "_SCALED_REAL", real._replace(seed=seed, split=split)
        ), mock.patch.object(np, "concatenate", wraps=np.concatenate) as concatenate:
            assert len(list(batch_loss_and_score_gradient(charts, masks))) == count
        assert seed.call_count == len(blocks)
        assert split.call_count == sum(lengths[block[0]] - 1 for block in blocks)
        for call, block in zip(seed.call_args_list, blocks):
            inside_pass, batch_charts, batch_masks = call.args
            expected = [charts[b] for b in block] * 2
            assert all(x is y for x, y in zip(batch_charts, expected, strict=True))
            cells = sum(lengths[b] * (lengths[b] + 1) // 2 for b in block)
            assert inside_pass.potentials.shape == (2 * cells, 3)
            assert inside_pass.weights.shape == (2 * cells, 3)
            assert inside_pass.value.shape == (2 * cells,)
        # each block's masks enter one concatenation, as one array, and so
        # do their admitted weights, which no pass sums again
        for name in ("cells", "admitted"):
            with_masks = [
                call.args[0]
                for call in concatenate.call_args_list
                if any(
                    np.shares_memory(x, getattr(m, name))
                    for x in call.args[0]
                    for m in masks
                )
            ]
            assert len(with_masks) == len(blocks)
            for arrays, block in zip(with_masks, blocks):
                expected = [getattr(masks[b], name) for b in block]
                assert all(x is y for x, y in zip(arrays, expected, strict=True))

    def test_batch_of_one(self, schema3):
        rng = np.random.default_rng(19)
        for n in (1, 2, 9):
            charts, masks = self._sentences([n], schema3, rng)
            self._assert_matches_per_sentence(charts, masks)

    def test_empty_batch(self):
        assert list(batch_loss_and_score_gradient([], [])) == []

    def test_mismatches_raise_dimension_mismatch(self, schema2, schema3):
        rng = np.random.default_rng(20)
        charts, masks = self._sentences([3, 4], schema3, rng, poison=False)
        other, other_masks = self._sentences([4], schema2, rng, poison=False)
        bad = [
            (charts, masks[:1]),  # one mask short
            (charts, masks[::-1]),  # each mask over the other length
            (charts + other, masks + other_masks),  # label counts differ
        ]
        for batch_charts, batch_masks in bad:
            with pytest.raises(DimensionMismatch):
                batch_loss_and_score_gradient(batch_charts, batch_masks)


class TestBatchedEqualsAloneAtTableEdges:
    """Every chart's values in a batch are those it gets alone, bit for
    bit, at the edge shapes of the kernel's table ``[w - 1, i, row]``: n = 1
    and n = 2, a lone row (the chart alone, against a batch in which an
    equal-length chart doubles every width's rows), a longest chart whose
    rows shrink to one while the table keeps the others, and a short chart
    padded next to a much longer one.  Normal draws stay in the scaled
    pass; with one label score of -50, whose exponential is below 2^-60,
    the same draws are redone in the log semiring."""

    # (the chart's length, the lengths of the rest of its batch)
    CASES = {
        "n1": (1, [1, 5, 1]),
        "n2": (2, [2, 7, 1]),
        "lone-row": (40, [40]),
        "prefix-shrinks-to-one": (12, [5, 3, 5, 1]),
        "padded-next-to-a-long-one": (3, [60, 2]),
    }

    @staticmethod
    def _batch(n, others, redo, schema, rng):
        """The batch, with the chart of ``n`` tokens in the middle, their
        masks, and the chart's position."""
        b = len(others) // 2
        charts = []
        for m in others[:b] + [n] + others[b:]:
            cells = rng.normal(size=(m * (m + 1) // 2, 3))
            cells[0, 0] = -50.0 if redo else cells[0, 0]
            charts.append(ScoreChart(cells, schema))
        return charts, smoothed_random_masks(charts, schema, rng), b

    def test_a_lone_cell_sums_its_splits_in_order(self):
        # the log semiring's split of a width with one cell and one row,
        # against the same cell next to another row: numpy sums a lone
        # slice pairwise, which differs from in-order sums in about one
        # draw in eight
        rng = np.random.default_rng(55)
        for k in (9, 29, 99):
            for _ in range(50):
                x = 3.0 * rng.normal(size=(k, 1, 2))
                lone = inference_module._lse(x[..., :1].copy(), 0)
                assert lone[0, 0] == inference_module._lse(x, 0)[0, 0]

    @pytest.mark.parametrize("redo", [False, True], ids=["scaled", "log"])
    def test_outside_each_chart_every_entry_is_the_pad(self, schema3, redo):
        # The outside sweep's padded terms read the pass's table and the
        # sweep's ratio table outside each chart's own cells, and add an
        # exact 0 only if every such entry of a certified row of the scaled
        # pass is +0.0 and every such ratio of the log redo is -inf.  An
        # unmasked and a masked row per chart, as in a training step; with
        # ``redo``, the charts of 60 and 2 tokens are redone in the log
        # semiring, and the 3-token one stays in the scaled pass.
        rng = np.random.default_rng(58)
        charts = []
        for m in (3, 60, 2):
            cells = rng.normal(size=(m * (m + 1) // 2, 3))
            cells[0, 0] = -50.0 if redo and m != 3 else cells[0, 0]
            charts.append(ScoreChart(cells, schema3))
        masks = smoothed_random_masks(charts, schema3, rng)
        batch = inference_module._inside([*charts, *charts], [None] * 3 + masks)
        assert batch.redone == ([1, 2, 4, 5] if redo else [])
        with mock.patch.object(
            inference_module,
            "_parent_operands",
            wraps=inference_module._parent_operands,
        ) as views:
            inference_module._posteriors(batch)
        for p, pad in ((batch.scaled, 0.0), (batch.log, -np.inf)):
            if p is None:
                continue
            # the leaves' views read the whole ratio table, after its last write
            (ratios,) = [
                call.args[1]
                for call in views.call_args_list
                if call.args[2] == 1 and np.shares_memory(call.args[0], p.table)
            ]
            held = inference_module._certified(p) if pad == 0.0 else slice(None)
            diagonal, start = np.indices(p.table.shape[:2])
            for length, row in zip(p.lengths[held], p.row[held]):
                outside = start + diagonal >= length
                entries = [ratios[..., row][outside]]
                if pad == 0.0:  # outside a chart the log table holds what -inf masks
                    entries.append(p.table[..., row][outside])
                for x in entries:
                    np.testing.assert_array_equal(x, pad)
                    assert not np.signbit(x).any() or pad < 0.0

    @pytest.mark.parametrize("redo", [False, True], ids=["scaled", "log"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_entry_point(self, schema3, case, redo):
        n, others = self.CASES[case]
        rng = np.random.default_rng(50 + n)
        charts, masks, b = self._batch(n, others, redo, schema3, rng)
        chart, mask = charts[b], masks[b]
        packed = ~below_diagonal(n)
        count = len(charts)
        assert log_passes(lambda: inside(chart)) == redo
        # inside, marginals and the CKY root values of the unmasked batch
        unmasked = inference_module._inside(charts, [None] * count)
        assert unmasked.roots[b] == inside(chart)
        mu = inference_module._posteriors(unmasked)[unmasked.scaled.slots[b]]
        np.testing.assert_array_equal(mu, marginals(chart)[packed])
        best = inference_module._inside_pass(
            charts, [None] * count, inference_module._MAX_PLUS
        )
        alone = inference_module._inside_pass(
            [chart], [None], inference_module._MAX_PLUS
        )
        assert (
            inference_module._root_values(best)[b]
            == inference_module._root_values(alone)[0]
        )
        # masked_inside, masked marginals, the loss and gradient, CKY trees
        masked = inference_module._inside(charts, masks)
        assert masked.roots[b] == masked_inside(chart, mask)
        assert batched_masked_inside(charts, masks)[b] == masked_inside(chart, mask)
        mu = inference_module._posteriors(masked)[masked.scaled.slots[b]]
        np.testing.assert_array_equal(mu, marginals(chart, mask)[packed])
        loss, grad = list(batch_loss_and_score_gradient(charts, masks))[b]
        expected_loss, expected_grad = loss_and_score_gradient(chart, mask)
        assert loss == expected_loss
        np.testing.assert_array_equal(grad, expected_grad)
        tree = batch_cky_decode(charts)[b]
        assert tree.nodes == cky_decode(chart).nodes
        assert tree_score(chart, tree) == inference_module._root_values(alone)[0]


class TestBatchCkyDecode:
    def test_mixed_lengths_equal_per_sentence(self, schema3):
        # lengths 1..30, some repeated, and a few long ones, shuffled; every
        # third chart is all zeros, so every label and split ties; cells
        # below the diagonal are NaN
        rng = np.random.default_rng(25)
        lengths = rng.permutation(list(range(1, 31)) + [1, 7, 7, 19, 30, 45, 76, 100])
        charts = []
        for b, n in enumerate(lengths):
            s = random_chart(n, schema3, rng).s.copy() if b % 3 else np.zeros((n, n, 3))
            s[np.tril_indices(n, k=-1)] = np.nan
            charts.append(ScoreChart(pack_cells(s), schema3))
        trees = batch_cky_decode(charts)
        assert [tree.nodes for tree in trees] == [cky_decode(c).nodes for c in charts]
        for n, tree in zip(lengths[::3], trees[::3]):
            # the tie-break: left-most splits, label 0
            nodes = [(i, n - 1, 0) for i in range(n)] + [(i, i, 0) for i in range(n - 1)]
            assert tree.nodes == FullTree(n=n, nodes=tuple(nodes)).nodes

    def test_empty_batch(self):
        assert batch_cky_decode([]) == []

    def test_label_counts_must_agree(self, schema2, schema3):
        with pytest.raises(DimensionMismatch):
            batch_cky_decode([zero_chart(2, schema2), zero_chart(2, schema3)])


# Every public structured entry point as ``f(chart, mask)``; the ones that
# take no mask ignore it.
ENTRY_POINTS = {
    "inside": lambda chart, mask: inside(chart),
    "masked_inside": masked_inside,
    "log_prob": log_prob,
    "marginals": lambda chart, mask: marginals(chart),
    "marginals_masked": marginals,
    "loss_and_score_gradient": loss_and_score_gradient,
    "batch_loss_and_score_gradient": lambda chart, mask: (
        batch_loss_and_score_gradient([chart], [mask])
    ),
    "batched_masked_inside": lambda chart, mask: batched_masked_inside([chart], [mask]),
    "cky_decode": lambda chart, mask: cky_decode(chart),
    "batch_cky_decode": lambda chart, mask: batch_cky_decode([chart]),
}
TAKES_MASK = sorted(
    set(ENTRY_POINTS) - {"inside", "marginals", "cky_decode", "batch_cky_decode"}
)


class TestLongestFirstRows:
    """At each width ``w`` the split operands span exactly the charts at
    least ``w`` long: the kernel keeps its rows longest first and runs
    each width over the prefix of rows long enough for it.  So does the
    outside sweep, whose views of the table and of its ratio table at
    width ``w`` read the parents of the width-``w`` cells."""

    LENGTHS = [3, 17, 1, 9, 17, 5]  # shuffled, with a repeat and a 1

    @staticmethod
    def _rows_per_width(run, name="_split_operands"):
        """Each width's rows in the views of every call of ``name``."""
        with mock.patch.object(
            inference_module, name, wraps=getattr(inference_module, name)
        ) as views:
            run()
        rows: dict[int, set[int]] = {}
        for call in views.call_args_list:
            *tables, w = call.args
            rows.setdefault(w, set()).update(table.shape[-1] for table in tables)
        return rows

    def _expected(self, copies, widths=None):
        # every sentence is ``copies`` rows: its unmasked and masked chart
        widths = widths or range(2, max(self.LENGTHS) + 1)
        return {w: {copies * sum(n >= w for n in self.LENGTHS)} for w in widths}

    def test_batched_masked_inside(self, schema3):
        rng = np.random.default_rng(23)
        charts, masks = TestBatchLossAndScoreGradient._sentences(
            self.LENGTHS, schema3, rng
        )
        rows = self._rows_per_width(lambda: batched_masked_inside(charts, masks))
        assert rows == self._expected(1)

    def test_batch_loss_and_score_gradient(self, schema3):
        # the inside pass over the prefix of each width's rows, and the
        # outside sweep at every width below the longest, leaves included
        rng = np.random.default_rng(24)
        charts, masks = TestBatchLossAndScoreGradient._sentences(
            self.LENGTHS, schema3, rng
        )
        run = lambda: list(batch_loss_and_score_gradient(charts, masks))  # noqa: E731
        assert self._rows_per_width(run) == self._expected(2)
        sweep = self._rows_per_width(run, "_parent_operands")
        assert sweep == self._expected(2, range(1, max(self.LENGTHS)))

    def test_batch_cky_decode(self, schema3):
        rng = np.random.default_rng(26)
        charts = [random_chart(n, schema3, rng) for n in self.LENGTHS]
        rows = self._rows_per_width(lambda: batch_cky_decode(charts))
        assert rows == self._expected(1)


class TestArgumentChecks:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_empty_chart_is_degenerate(self, name, schema2):
        mask = ChartMask(np.zeros((0, 2)))
        with pytest.raises(DegenerateChart):
            ENTRY_POINTS[name](zero_chart(0, schema2), mask)

    @pytest.mark.parametrize("name", TAKES_MASK)
    def test_mask_of_the_wrong_shape(self, name, schema2):
        mask = ChartMask(np.ones((6, 2)))
        with pytest.raises(DimensionMismatch):
            ENTRY_POINTS[name](zero_chart(2, schema2), mask)

    @pytest.mark.parametrize("name", sorted(set(TAKES_MASK) - {"marginals_masked"}))
    def test_missing_mask_raises(self, name, schema2):
        with pytest.raises(DimensionMismatch, match="mask at batch position 0"):
            ENTRY_POINTS[name](zero_chart(2, schema2), None)

    @pytest.mark.parametrize(
        "batch",
        [batch_loss_and_score_gradient, batched_masked_inside],
        ids=lambda f: f.__name__,
    )
    def test_missing_mask_names_its_batch_position(self, batch, schema2):
        chart, mask = zero_chart(2, schema2), ChartMask(np.ones((3, 2)))
        with pytest.raises(DimensionMismatch, match="mask at batch position 1"):
            batch([chart] * 3, [mask, None, mask])

    def test_tree_label_outside_the_schema(self, schema3):
        tree = FullTree(n=1, nodes=((0, 0, 5),))
        with pytest.raises(DimensionMismatch, match="label index 5 outside 3 labels"):
            tree_score(zero_chart(1, schema3), tree)
        with pytest.raises(DimensionMismatch, match="label index 5 outside 3 labels"):
            mask_from_full_tree(tree, schema3)

    @pytest.mark.parametrize("label", [2, 5], ids=["latent", "past-the-schema"])
    def test_vanilla_rejects_a_label_that_is_not_observed(self, label, schema3):
        # schema3 has two observed labels and one latent one (index 2)
        symbols = classify_nodes(PartialTree(n=2, entities=(Span(0, 1, label),)))
        message = f"annotated label index {label} is not an observed label"
        with pytest.raises(DimensionMismatch, match=message):
            build_mask(symbols, schema3)
        with pytest.raises(DimensionMismatch, match=message):
            vanilla_partial_marginalization(zero_chart(2, schema3), symbols)

    def test_marginals_without_a_mask_are_unmasked(self, schema2):
        chart = zero_chart(3, schema2)
        np.testing.assert_array_equal(marginals(chart, None), marginals(chart))
