"""Brute-force reference implementations over exhaustive tree enumeration.

These functions certify the chart dynamic programs on small instances.
:func:`enumerate_full_trees` yields every labeled full binary tree, which
is feasible only while ``Catalan(n-1) * |labels|^(2n-1)`` stays tiny.  The
scoring oracles instead enumerate every BRACKETING exhaustively (there are
``Catalan(n-1)`` of them) and reduce the label choices per node in closed
form: for a fixed structure the label of each node is chosen independently,
so summing over labelings of a product of node weights is the product of
per-node label sums, and maximizing is the per-node max.  That keeps the
oracles exact while reaching sizes (n = 6, four labels) where the labeled
enumeration would exceed a hundred million trees.  The two views are
cross-checked against each other in the test suite at sizes where both run.

One rule states what an annotation admits: an ``(n, n, L)`` table of the
labels each span may carry (every label without an annotation; with one,
the annotated labels on an annotated span and the latent labels on any
other).  The log-partition, the partial score and both marginals read
that table alone: each node's label sum runs over its admitted labels,
and a bracketing counts iff it holds every observed span.  No bracketing
that holds a span can hold one that crosses it, so the spans the masks
reject never count.  The table is built from the annotated spans and
labels alone, never from the node kinds or the mask code, so the oracle
stays independent of what it certifies.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .chart import LabelSchema, PartialTree, ScoreChart, Span, _spans_cross, pack_cells
from .errors import DimensionMismatch, TooLarge
from .inference import FullTree, _lse

ENUMERATION_LIMIT = 10_000_000
MAX_ORACLE_N = 8

# A structure is a preorder tuple of (start, end, split); leaves use -1.
Structure = tuple[tuple[int, int, int], ...]


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _structures(i: int, j: int) -> Iterator[Structure]:
    """All binary bracketings of the span (i, j), in canonical split order."""
    if i == j:
        yield ((i, i, -1),)
        return
    for m in range(i, j):
        for left in _structures(i, m):
            for right in _structures(m + 1, j):
                yield ((i, j, m),) + left + right


def _check_structure_guard(n: int) -> None:
    if not 1 <= n <= MAX_ORACLE_N:
        raise TooLarge(f"oracle supports 1 <= n <= {MAX_ORACLE_N}, got {n}")


def enumerate_full_trees(n: int, schema: LabelSchema) -> Iterator[FullTree]:
    """Every (bracketing, labeling) pair exactly once, deterministically.

    Bracketings recurse on split points; labelings run as an odometer over
    the ``2n - 1`` preorder nodes (first node slowest).  Guarded, when
    called, so the full enumeration stays below ``ENUMERATION_LIMIT`` trees.
    """
    _check_structure_guard(n)
    n_labels = schema.n_labels
    total = catalan(n - 1) * n_labels ** (2 * n - 1)
    if total > ENUMERATION_LIMIT:
        raise TooLarge(
            f"{total} labeled trees exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    return (
        FullTree(n=n, nodes=tuple((i, j, k) for (i, j, _), k in zip(structure, labels)))
        for structure in _structures(0, n - 1)
        for labels in itertools.product(range(n_labels), repeat=2 * n - 1)
    )


def _admissible(chart: ScoreChart, tree: PartialTree | None) -> np.ndarray:
    """The ``(n, n, L)`` table of the labels each span may carry.

    Without an annotation every span takes every label.  With one, an
    annotated span takes its annotated labels and every other span the
    latent labels; an annotated label that is not observed is refused.
    """
    n = chart.n
    if tree is None:
        return np.ones((n, n, chart.schema.n_labels), dtype=bool)
    if tree.n != n:
        raise DimensionMismatch(f"tree over {tree.n} tokens but chart over {n}")
    bad = [e.label for e in tree.entities if e.label >= chart.schema.n_observed]
    if bad:
        raise DimensionMismatch(f"annotated label index {bad[0]} is not an observed label")
    admissible = np.zeros((n, n, chart.schema.n_labels), dtype=bool)
    admissible[:, :, chart.schema.n_observed :] = True
    for (i, j), ks in tree.observed_label.items():
        admissible[i, j] = False
        admissible[i, j, list(ks)] = True
    return admissible


def _label_lse(chart: ScoreChart, admissible: np.ndarray) -> np.ndarray:
    """Per-cell log-sum over the admitted labels; -inf where none is."""
    out = np.full(admissible.shape[:2], -np.inf)
    for i, j in zip(*np.nonzero(admissible.any(axis=2))):
        out[i, j] = _lse(chart.s[i, j, admissible[i, j]], axis=0)
    return out


def _weighted_structures(
    chart: ScoreChart, tree: PartialTree | None, lab: np.ndarray
) -> Iterator[tuple[Structure, float]]:
    """Bracketings holding every observed span, each with its log weight
    under the per-cell label sums ``lab``."""
    observed = set() if tree is None else set(tree.observed_label)
    for structure in _structures(0, chart.n - 1):
        if observed <= {(i, j) for i, j, _ in structure}:
            yield structure, float(sum(lab[i, j] for i, j, _ in structure))


def _log_sum(weights: list[float]) -> float:
    return float(_lse(np.array(weights), axis=0)) if weights else float("-inf")


def brute_force_log_z(chart: ScoreChart) -> float:
    """Log partition function by exhaustive enumeration of bracketings."""
    return brute_force_partial_score(chart, None)


def brute_force_partial_score(chart: ScoreChart, tree: PartialTree | None) -> float:
    """Log-sum over full trees compatible with the partial annotation.

    A full tree is compatible iff every observed span is present carrying
    one of its annotated labels and every other node carries a latent
    label.  ``tree=None`` admits every full tree.
    """
    _check_structure_guard(chart.n)
    lab = _label_lse(chart, _admissible(chart, tree))
    return _log_sum([w for _, w in _weighted_structures(chart, tree, lab)])


def brute_force_marginals(
    chart: ScoreChart, tree: PartialTree | None = None
) -> np.ndarray:
    """Posterior span-label probabilities by normalized counting.

    The ``(n, n, L)`` array, zero below the diagonal, that
    :func:`treecrf.inference.marginals` must match.
    """
    _check_structure_guard(chart.n)
    admissible = _admissible(chart, tree)
    lab = _label_lse(chart, admissible)
    pairs = list(_weighted_structures(chart, tree, lab))
    log_z = _log_sum([w for _, w in pairs])
    mu = np.zeros(admissible.shape)
    for structure, w in pairs:
        p_structure = math.exp(w - log_z)
        for i, j, _ in structure:
            ks = admissible[i, j]
            mu[i, j, ks] += p_structure * np.exp(chart.s[i, j, ks] - lab[i, j])
    return np.clip(mu, 0.0, 1.0)


def _structure_score_and_labels(
    chart: ScoreChart, structure: Structure
) -> tuple[float, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Best score for a structure plus its decision key for tie-breaking.

    The best labeling of a fixed structure takes each node's first-argmax
    label independently.  The decision key lists (label, split) per
    preorder node, so comparing keys reproduces the decoder's
    lowest-label-then-lowest-split tie-break.
    """
    s = chart.s
    labels = []
    key = []
    for i, j, m in structure:
        k = int(np.argmax(s[i, j, :]))
        labels.append(k)
        key.append((k, m if m >= 0 else i))
    score_of = {(i, j): (s[i, j, k], m) for (i, j, m), k in zip(structure, labels)}

    def rec(i: int, j: int) -> float:
        v, m = score_of[(i, j)]
        if i == j:
            return float(v)
        return float(v + (rec(i, m) + rec(m + 1, j)))

    return rec(structure[0][0], structure[0][1]), tuple(labels), tuple(key)


def brute_force_best_tree(chart: ScoreChart) -> FullTree:
    """Exhaustive argmax tree with the decoder's deterministic tie-break."""
    _check_structure_guard(chart.n)
    best = None
    for structure in _structures(0, chart.n - 1):
        score, labels, key = _structure_score_and_labels(chart, structure)
        if best is None or score > best[0] or (score == best[0] and key < best[1]):
            best = (score, key, structure, labels)
    assert best is not None
    _, _, structure, labels = best
    return FullTree(
        n=chart.n,
        nodes=tuple((i, j, k) for (i, j, _), k in zip(structure, labels)),
    )


def is_compatible(tree: FullTree, partial: PartialTree, schema: LabelSchema) -> bool:
    """Definitional compatibility of a full tree with a partial annotation:
    every observed span is present with an annotated label, and every
    other node has a latent label."""
    labels = {(i, j): k for i, j, k in tree.nodes}
    observed = partial.observed_label
    if any(labels.get(span) not in ks for span, ks in observed.items()):
        return False
    return all(span in observed or k >= schema.n_observed for span, k in labels.items())


def random_chart(
    n: int,
    schema: LabelSchema,
    rng: np.random.Generator,
) -> ScoreChart:
    """Random score chart with uniform potentials on the upper triangle."""
    s = rng.uniform(-2.0, 2.0, size=(n, n, schema.n_labels))
    return ScoreChart(pack_cells(s), schema)


def random_partial_tree(
    n: int,
    schema: LabelSchema,
    rng: np.random.Generator,
    multilabel_prob: float = 0.0,
) -> PartialTree:
    """Random laminar annotation for harness and property tests.

    Proposes random spans, keeping each one that neither crosses nor
    duplicates the spans accepted so far; labels are drawn uniformly from
    the observed set, with an optional chance of a second label on the
    same span.
    """
    accepted: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(0, n + 1))):
        a = int(rng.integers(0, n))
        b = int(rng.integers(a, n))
        if (a, b) in accepted:
            continue
        if any(_spans_cross((a, b), other) for other in accepted):
            continue
        accepted.append((a, b))
    entities: list[Span] = []
    for a, b in accepted:
        k = int(rng.integers(0, schema.n_observed))
        entities.append(Span(a, b, k))
        if schema.n_observed > 1 and rng.random() < multilabel_prob:
            k2 = int(rng.integers(0, schema.n_observed))
            if k2 != k:
                entities.append(Span(a, b, k2))
    return PartialTree(n=n, entities=tuple(entities))
