import math

import numpy as np
import pytest

from treecrf import (
    LOG_ZERO,
    ChartMask,
    DegenerateChart,
    DimensionMismatch,
    FullTree,
    LabelSchema,
    PartialTree,
    ScoreChart,
    Span,
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
    tree_score,
    vanilla_partial_marginalization,
)
from treecrf import inference as inference_module
from treecrf import scorer as scorer_module
from treecrf.oracle import catalan, random_chart, random_partial_tree
from treecrf.scorer import (
    ScorerConfig,
    Vocab,
    _normalize,
    _normalize_backward,
    forward,
    init_params,
    potential_normalize,
)

from conftest import zero_chart

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
        chart = ScoreChart(s=s, schema=schema3)
        expected = math.log(sum(math.exp(v) for v in (0.3, -1.2, 0.5)))
        assert inside(chart) == pytest.approx(expected, abs=1e-12)

    def test_two_tokens_zero_scores(self, schema2):
        assert inside(zero_chart(2, schema2)) == pytest.approx(LOG8, abs=1e-12)

    def test_three_tokens_zero_scores(self, schema2):
        assert inside(zero_chart(3, schema2)) == pytest.approx(LOG64, abs=1e-12)

    def test_degenerate(self, schema2):
        chart = ScoreChart(s=np.zeros((0, 0, 2)), schema=schema2)
        with pytest.raises(DegenerateChart):
            inside(chart)

    def test_zero_chart_closed_form(self, schema2):
        # Catalan(n-1) bracketings, |L|^(2n-1) labelings, every score zero.
        for n in range(1, 7):
            expected = math.log(catalan(n - 1)) + (2 * n - 1) * math.log(2)
            assert inside(zero_chart(n, schema2)) == pytest.approx(expected, abs=1e-9)


class TestMaskedInside:
    def test_forced_single_tree(self, schema2):
        _, mask = annotation_mask(2, (Span(0, 1, 0),), schema2)
        assert masked_inside(zero_chart(2, schema2), mask) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_all_ones_equals_inside_bitwise(self, schema3):
        rng = np.random.default_rng(0)
        chart = random_chart(5, schema3, rng)
        ones = ChartMask(n=5, m=np.ones((5, 5, 3)))
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
            masked_inside(zero_chart(2, schema2), ChartMask(n=3, m=np.zeros((3, 3, 2))))

    def test_upper_bound_for_arbitrary_masks(self, schema3):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            chart = random_chart(n, schema3, rng)
            mask = ChartMask(n=n, m=rng.uniform(0, 1, size=(n, n, 3)))
            assert masked_inside(chart, mask) <= inside(chart) + 1e-6

    def test_monotone_under_mask_tightening(self, schema3):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            chart = random_chart(n, schema3, rng)
            loose = rng.uniform(0, 1, size=(n, n, 3))
            tight = loose * rng.uniform(0, 1, size=loose.shape)
            assert masked_inside(chart, ChartMask(n=n, m=tight)) <= masked_inside(
                chart, ChartMask(n=n, m=loose)
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
        ones = ChartMask(n=4, m=np.ones((4, 4, 3)))
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
        mu = marginals(zero_chart(2, schema2)).mu
        for i, j in ((0, 0), (1, 1), (0, 1)):
            np.testing.assert_allclose(mu[i, j], [0.5, 0.5], atol=1e-12)

    def test_single_token_softmax(self, schema3):
        s = np.zeros((1, 1, 3))
        s[0, 0] = [1.0, 2.0, -0.5]
        chart = ScoreChart(s=s, schema=schema3)
        mu = marginals(chart).mu
        e = np.exp(s[0, 0])
        np.testing.assert_allclose(mu[0, 0], e / e.sum(), atol=1e-12)

    def test_masked_single_compatible_tree(self, schema2):
        _, mask = annotation_mask(2, (Span(0, 1, 0),), schema2)
        mu = marginals(zero_chart(2, schema2), mask).mu
        np.testing.assert_allclose(mu[0, 1], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(mu[0, 0], [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(mu[1, 1], [0.0, 1.0], atol=1e-9)

    def test_identities_random(self, schema3):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            chart = random_chart(n, schema3, rng)
            mu = marginals(chart).mu
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
        mu_unmasked = marginals(chart).mu
        np.testing.assert_allclose(grad[1, 2], mu_unmasked[1, 2], atol=1e-9)

    def test_all_ones_mask_gives_zero_loss_and_gradient(self, schema3):
        rng = np.random.default_rng(9)
        chart = random_chart(4, schema3, rng)
        ones = ChartMask(n=4, m=np.ones((4, 4, 3)))
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
            for i in range(n):
                for j in range(i, n):
                    for k in range(3):
                        sp = chart.s.copy()
                        sp[i, j, k] += h
                        up = loss_and_score_gradient(
                            ScoreChart(s=sp, schema=schema3), mask
                        )[0]
                        sp = chart.s.copy()
                        sp[i, j, k] -= h
                        dn = loss_and_score_gradient(
                            ScoreChart(s=sp, schema=schema3), mask
                        )[0]
                        fd = (up - dn) / (2 * h)
                        a = grad[i, j, k]
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
        chart = ScoreChart(s=s, schema=schema2)
        tree = cky_decode(chart)
        assert tree.nodes == ((0, 1, 0), (0, 0, 0), (1, 1, 0))
        assert tree_score(chart, tree) == pytest.approx(3.5, abs=1e-12)

    def test_single_token(self, schema3):
        s = np.zeros((1, 1, 3))
        s[0, 0] = [0.1, 0.9, 0.3]
        tree = cky_decode(ScoreChart(s=s, schema=schema3))
        assert tree.nodes == ((0, 0, 1),)

    def test_tie_break_left_splits_label_zero(self, schema3):
        tree = cky_decode(zero_chart(4, schema3))
        assert all(k == 0 for _, _, k in tree.nodes)
        # left-most splits: fully left-branching tree
        assert tree.splits == {(0, 3): 0, (1, 3): 1, (2, 3): 2}

    def test_degenerate(self, schema2):
        with pytest.raises(DegenerateChart):
            cky_decode(ScoreChart(s=np.zeros((0, 0, 2)), schema=schema2))

    def test_tree_score_of_a_deep_tree(self):
        # A left-branching tree over 1500 tokens is 1500 levels deep.
        n = 1500
        schema = LabelSchema(("A",), latent_label_count=1)
        nodes = [(0, j, 0) for j in range(n)] + [(j, j, 0) for j in range(1, n)]
        tree = FullTree(n=n, nodes=tuple(nodes))
        chart = ScoreChart(s=np.ones((n, n, 2)), schema=schema)
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
        tree = cky_decode(ScoreChart(s=s, schema=schema2))
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

    def test_document_order_canonicalization(self):
        scrambled = ((1, 1, 0), (0, 1, 0), (0, 0, 0))
        assert FullTree(n=2, nodes=scrambled).nodes == (
            (0, 1, 0),
            (0, 0, 0),
            (1, 1, 0),
        )


class TestNaNPoisoning:
    """Lower-triangular cells are never read by any chart algorithm."""

    def _poisoned_pair(self, n, schema, rng):
        clean = random_chart(n, schema, rng)
        s = clean.s.copy()
        s[np.tril_indices(n, k=-1)] = np.nan
        return clean, ScoreChart(s=s, schema=schema)

    def test_all_operations(self, schema3):
        rng = np.random.default_rng(14)
        for n in (2, 4, 6):
            clean, poisoned = self._poisoned_pair(n, schema3, rng)
            tree = random_partial_tree(n, schema3, rng)
            sym = classify_nodes(tree)
            mask = build_mask(sym, schema3)
            assert inside(poisoned) == inside(clean)
            assert masked_inside(poisoned, mask) == masked_inside(clean, mask)
            assert vanilla_partial_marginalization(
                poisoned, sym
            ) == vanilla_partial_marginalization(clean, sym)
            assert cky_decode(poisoned).nodes == cky_decode(clean).nodes
            iu, ju = np.triu_indices(n)
            np.testing.assert_array_equal(
                marginals(poisoned, mask).mu[iu, ju], marginals(clean, mask).mu[iu, ju]
            )
            loss_p, grad_p = loss_and_score_gradient(poisoned, mask)
            loss_c, grad_c = loss_and_score_gradient(clean, mask)
            assert loss_p == loss_c
            np.testing.assert_array_equal(grad_p[iu, ju], grad_c[iu, ju])
            assert np.isfinite(grad_p[iu, ju]).all()

    def test_normalization_and_its_backward(self, schema3):
        rng = np.random.default_rng(16)
        for n in (1, 2, 5, 9):
            clean, poisoned = self._poisoned_pair(n, schema3, rng)
            iu, ju = np.triu_indices(n)
            np.testing.assert_array_equal(
                potential_normalize(poisoned).s[iu, ju],
                potential_normalize(clean).s[iu, ju],
            )
            grad = rng.normal(size=clean.s.shape)
            grad_poisoned = grad.copy()
            grad_poisoned[np.tril_indices(n, k=-1)] = np.nan
            back_c = _normalize_backward(*_normalize(clean.s), grad)
            back_p = _normalize_backward(*_normalize(poisoned.s), grad_poisoned)
            # the raw gradient feeds sums over the whole chart, so it must
            # be zero (not NaN) below the diagonal
            np.testing.assert_array_equal(back_p, back_c)
            assert np.isfinite(back_p).all()


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
            _, tape = forward(params.vocab.encode(tokens), params)
            tape.backward(rng.normal(size=chart.s.shape))
        batched_masked_inside(charts, masks)
        assert self._container_sizes() == before


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

    def test_log_zero_constant(self):
        assert LOG_ZERO == -1.0e6


class TestBatchLossAndScoreGradient:
    @staticmethod
    def _sentences(lengths, schema, rng, poison=True):
        charts, masks = [], []
        for n in lengths:
            s = random_chart(n, schema, rng).s.copy()
            if poison:
                s[np.tril_indices(n, k=-1)] = np.nan
            charts.append(ScoreChart(s=s, schema=schema))
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
        # lengths 1..30, some repeated, shuffled so that the longest-first
        # rows of the kernel differ from the input order; cells below the
        # diagonal are NaN
        rng = np.random.default_rng(18)
        lengths = rng.permutation(list(range(1, 31)) + [1, 7, 7, 19, 30])
        charts, masks = self._sentences(lengths, schema3, rng)
        self._assert_matches_per_sentence(charts, masks)

    def test_equals_inside_and_marginals_bitwise(self, schema3):
        # the loss and gradient come from the same inside pass and sweep as
        # inside, masked_inside and marginals, so they match them exactly
        rng = np.random.default_rng(21)
        lengths = rng.permutation(list(range(1, 31)) + [1, 7, 7, 19, 30])
        charts, masks = self._sentences(lengths, schema3, rng)
        for chart, mask in zip(charts, masks):
            loss, grad = loss_and_score_gradient(chart, mask)
            assert loss == inside(chart) - masked_inside(chart, mask)
            expected = marginals(chart).mu - marginals(chart, mask).mu
            assert np.array_equal(grad, expected)

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
}
TAKES_MASK = sorted(set(ENTRY_POINTS) - {"inside", "marginals", "cky_decode"})


class TestArgumentChecks:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_empty_chart_is_degenerate(self, name, schema2):
        mask = ChartMask(n=0, m=np.zeros((0, 0, 2)))
        with pytest.raises(DegenerateChart):
            ENTRY_POINTS[name](zero_chart(0, schema2), mask)

    @pytest.mark.parametrize("name", TAKES_MASK)
    def test_mask_of_the_wrong_shape(self, name, schema2):
        mask = ChartMask(n=3, m=np.ones((3, 3, 2)))
        with pytest.raises(DimensionMismatch):
            ENTRY_POINTS[name](zero_chart(2, schema2), mask)
