import math

import numpy as np
import pytest

from treecrf import (
    DimensionMismatch,
    LabelSchema,
    PartialTree,
    Span,
    TooLarge,
    build_mask,
    classify_nodes,
    inside,
    masked_inside,
    tree_score,
    vanilla_partial_marginalization,
)
from treecrf.inference import _lse
from treecrf.oracle import (
    brute_force_best_tree,
    brute_force_log_z,
    brute_force_marginals,
    brute_force_partial_score,
    catalan,
    enumerate_full_trees,
    is_compatible,
    random_chart,
    random_partial_tree,
)

from conftest import zero_chart


class TestEnumeration:
    def test_counts(self, schema2, schema3):
        assert sum(1 for _ in enumerate_full_trees(2, schema2)) == 8
        assert sum(1 for _ in enumerate_full_trees(3, schema2)) == 64
        four = LabelSchema(("A", "B"), 1)
        assert sum(1 for _ in enumerate_full_trees(4, four)) == 5 * 3**7

    def test_total_field(self, schema2):
        # a plain generator: count what it yields against the closed form
        for n in range(1, 5):
            total = catalan(n - 1) * schema2.n_labels ** (2 * n - 1)
            assert sum(1 for _ in enumerate_full_trees(n, schema2)) == total

    def test_bracketing_count_is_catalan(self, schema2):
        for n in range(1, 6):
            enum = enumerate_full_trees(n, schema2)
            structures = {tuple(sorted((i, j) for i, j, _ in t.nodes)) for t in enum}
            assert len(structures) == catalan(n - 1)

    def test_guard(self, schema2):
        with pytest.raises(TooLarge):
            enumerate_full_trees(9, schema2)
        big = LabelSchema(tuple("ABCDEFG"), 1)
        with pytest.raises(TooLarge):
            enumerate_full_trees(8, big)  # 8^15 * 429 trees

    def test_trees_unique_and_valid(self, schema2):
        seen = set()
        for tree in enumerate_full_trees(3, schema2):
            assert len(tree.nodes) == 5
            seen.add(tree.nodes)
        assert len(seen) == 64

    def test_catalan(self):
        assert [catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


class TestBruteForceLogZ:
    def test_zero_chart(self, schema2):
        assert brute_force_log_z(zero_chart(3, schema2)) == pytest.approx(
            math.log(64), abs=1e-12
        )

    def test_guard(self, schema2):
        with pytest.raises(TooLarge):
            brute_force_log_z(zero_chart(9, schema2))

    def test_matches_labeled_enumeration(self, schema3):
        # certifies the per-node label reduction against the labeled oracle
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            chart = random_chart(n, schema3, rng)
            scores = [
                tree_score(chart, tree)
                for tree in enumerate_full_trees(n, schema3)
            ]
            direct = float(_lse(np.array(scores), axis=0))
            assert brute_force_log_z(chart) == pytest.approx(direct, abs=1e-10)
            assert inside(chart) == pytest.approx(direct, abs=1e-10)


class TestCompatibility:
    def test_single_compatible_tree(self, schema2):
        tree = PartialTree(n=2, entities=(Span(0, 1, 0),))
        sym = classify_nodes(tree)
        compatible = [
            t for t in enumerate_full_trees(2, schema2) if is_compatible(t, sym, schema2)
        ]
        assert len(compatible) == 1
        assert compatible[0].nodes == ((0, 1, 0), (0, 0, 1), (1, 1, 1))

    def test_empty_annotation_count(self):
        schema = LabelSchema(("A",), 2)
        for n in (1, 2, 3, 4):
            sym = classify_nodes(PartialTree(n=n, entities=()))
            count = sum(
                1
                for t in enumerate_full_trees(n, schema)
                if is_compatible(t, sym, schema)
            )
            assert count == catalan(n - 1) * 2 ** (2 * n - 1)

    def test_partial_score_matches_labeled_enumeration(self, schema3):
        rng = np.random.default_rng(1)
        for trial in range(12):
            n = int(rng.integers(1, 5))
            chart = random_chart(n, schema3, rng)
            ptree = random_partial_tree(n, schema3, rng, multilabel_prob=0.2)
            sym = classify_nodes(ptree)
            scores = [
                tree_score(chart, t)
                for t in enumerate_full_trees(n, schema3)
                if is_compatible(t, sym, schema3)
            ]
            direct = float(_lse(np.array(scores), axis=0))
            assert brute_force_partial_score(chart, sym) == pytest.approx(
                direct, abs=1e-10
            )

    def test_partial_score_matches_mask_semantics(self, schema3):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n = int(rng.integers(1, 8))
            chart = random_chart(n, schema3, rng)
            ptree = random_partial_tree(n, schema3, rng, multilabel_prob=0.15)
            sym = classify_nodes(ptree)
            mask = build_mask(sym, schema3)
            assert brute_force_partial_score(chart, sym) == pytest.approx(
                masked_inside(chart, mask), abs=1e-6
            )


def _counted_marginals(chart, trees):
    """Span-label probabilities by normalized counting over ``trees``."""
    n = chart.n
    weights = np.array([tree_score(chart, t) for t in trees])
    z = _lse(weights, axis=0)
    mu = np.zeros((n, n, chart.schema.n_labels))
    for tree, w in zip(trees, weights):
        for i, j, k in tree.nodes:
            mu[i, j, k] += math.exp(w - z)
    return mu


class TestBruteForceMarginals:
    def test_matches_labeled_counting(self, schema3):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            chart = random_chart(n, schema3, rng)
            trees = list(enumerate_full_trees(n, schema3))
            np.testing.assert_allclose(
                brute_force_marginals(chart), _counted_marginals(chart, trees),
                atol=1e-10,
            )

    def test_masked_matches_compatible_counting(self, schema3):
        # 30 draws hold four spans with two annotated labels
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = trial % 3 + 1
            chart = random_chart(n, schema3, rng)
            sym = classify_nodes(
                random_partial_tree(n, schema3, rng, multilabel_prob=0.3)
            )
            trees = [
                t for t in enumerate_full_trees(n, schema3)
                if is_compatible(t, sym, schema3)
            ]
            np.testing.assert_allclose(
                brute_force_marginals(chart, sym), _counted_marginals(chart, trees),
                atol=1e-10,
            )


class TestAnnotationLength:
    """An annotation over another length is refused, as by the kernel's
    per-node reference."""

    @pytest.mark.parametrize("symbols_n", [2, 4])
    def test_other_length_raises(self, schema3, symbols_n):
        chart = random_chart(3, schema3, np.random.default_rng(6))
        sym = classify_nodes(PartialTree(n=symbols_n, entities=(Span(0, 1, 0),)))
        with pytest.raises(DimensionMismatch):
            vanilla_partial_marginalization(chart, sym)
        with pytest.raises(DimensionMismatch):
            brute_force_partial_score(chart, sym)
        with pytest.raises(DimensionMismatch):
            brute_force_marginals(chart, sym)


class TestBruteForceBestTree:
    def test_matches_direct_max(self, schema3):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            chart = random_chart(n, schema3, rng)
            best = max(
                enumerate_full_trees(n, schema3),
                key=lambda t: tree_score(chart, t),
            )
            got = brute_force_best_tree(chart)
            assert tree_score(chart, got) == pytest.approx(
                tree_score(chart, best), abs=1e-12
            )

    def test_tie_break_all_zero(self, schema3):
        got = brute_force_best_tree(zero_chart(4, schema3))
        # split at the lowest point: (0, 3) -> (0, 0) + (1, 3), and so on
        assert got.nodes == (
            (0, 3, 0), (0, 0, 0), (1, 3, 0), (1, 1, 0), (2, 3, 0), (2, 2, 0), (3, 3, 0)
        )


class TestRandomPartialTree:
    def test_always_valid(self, schema3):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            tree = random_partial_tree(n, schema3, rng, multilabel_prob=0.3)
            assert tree.n == n  # PartialTree construction validates the rest
