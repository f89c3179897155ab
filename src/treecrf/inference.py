"""Chart dynamic programming over labeled binary trees.

All algorithms work in the log semiring on ``n x n x |labels|`` charts of
log potentials.  A full tree over ``n`` tokens is a binary bracketing with
exactly ``2n - 1`` labeled spans; its score is the sum of its node
potentials.  The core recursion factorizes each cell into a label part and
a split part::

    beta[i, i] = LSE_k s[i, i, k]
    beta[i, j] = LSE_k s[i, j, k] + LSE_m (beta[i, m] + beta[m+1, j])

which is valid because the label choice at a node is independent of where
the node splits.  Masked marginalization adds ``log M`` to the potentials
first, substituting ``LOG_ZERO`` for ``log 0``; with an all-ones mask this
is bit-identical to the plain recursion, and with a mask built from a full
tree it degenerates to evaluating that tree.

One kernel, :func:`_chart_dp`, runs this recursion for every algorithm
here, with the reduction as a parameter: log-sum-exp for the inside pass
and max with first argmax for CKY.  It takes a batch of charts of mixed
lengths.  Each chart's label part is reduced on that chart alone; the
split part runs width by width over one flat array that holds the charts
as rows, longest first, in the layout of the longest one, so that at
width ``w`` only the prefix of rows at least ``w`` long takes part.  The
split operands of a whole diagonal are strided views of that array, which
keeps every cell also at its mirror below the diagonal.  Each chart's
result sits at its own root, ``(0, n_b - 1)``.

Every structured entry point is one :func:`_check_batch` (masks may be
``None``, unmasked) and one :func:`_inside_pass`, which masks and
label-reduces each chart and runs the kernel once over the whole batch;
a single sentence is a batch of one.  Posteriors are the gradient of the
roots, which :func:`_posteriors` takes by one reverse sweep over the same
views (inside-outside as backpropagation) from every row's own root,
handing out one chart's posteriors at a time.
:func:`batch_loss_and_score_gradient` runs each sentence's unmasked and
masked charts through that pair as one batch, so its values equal
``inside - masked_inside`` and the difference of the two
:func:`marginals` bit for bit.
:func:`vanilla_partial_marginalization` keeps its own cell-by-cell loop
as the reference the kernel is checked against.

Score cells below the diagonal (``i > j``, see
:func:`treecrf.chart.below_diagonal`) are unspecified: they may hold any
value, NaN included, and no result reads them; tests poison them with NaN
to prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chart import ChartMask, LabelSchema, NodeKind, Span, SymbolTree, below_diagonal
from .errors import DegenerateChart, DimensionMismatch

# Substitute for log 0 when masking in the logarithm scale.  Large enough
# that exp(LOG_ZERO) underflows to exactly 0.0 in double precision, so
# masked-out structures contribute nothing detectable to any sum.
LOG_ZERO = -1.0e6

# Smallest positive double; lets log() skip the undefined log(0) lanes
# without an errstate context (the -inf branch is selected separately).
_TINY = 5e-324


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp that maps all-(-inf) slices to -inf."""
    m = x.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    total = np.exp(x - shift).sum(axis=axis)
    out = np.where(total > 0.0, np.log(np.maximum(total, _TINY)), -np.inf)
    return out + np.squeeze(shift, axis=axis)


@dataclass(frozen=True)
class ScoreChart:
    """Log potentials ``s[i, j, k]`` for spans ``i <= j`` and labels ``k``.

    Only the upper triangle is meaningful; entries there must be finite.
    Cells below the diagonal are unspecified and may hold anything.
    """

    s: np.ndarray
    schema: LabelSchema

    def __post_init__(self) -> None:
        if self.s.ndim != 3 or self.s.shape[0] != self.s.shape[1]:
            raise DimensionMismatch(f"score array has shape {self.s.shape}")
        if self.s.shape[2] != self.schema.n_labels:
            raise DimensionMismatch(
                f"chart has {self.s.shape[2]} labels, schema {self.schema.n_labels}"
            )
        finite = np.isfinite(self.s)
        if not finite.all() and not finite[~below_diagonal(self.n)].all():
            raise ValueError("non-finite score in an upper-triangular cell")
        self.s.flags.writeable = False

    @property
    def n(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class MarginalChart:
    """Posterior span-label probabilities ``mu[i, j, k]``."""

    mu: np.ndarray


@dataclass(frozen=True)
class FullTree:
    """A full labeled binary bracketing: exactly ``2n - 1`` labeled spans.

    Nodes are stored in document order (start ascending, end descending),
    which coincides with preorder traversal.  Construction validates that
    the spans form a binary tree whose children exactly partition their
    parent, and records each internal span's split point.
    """

    n: int
    nodes: tuple[tuple[int, int, int], ...]
    splits: dict[tuple[int, int], int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        nodes = tuple(sorted(self.nodes, key=lambda t: (t[0], -t[1])))
        object.__setattr__(self, "nodes", nodes)
        n = self.n
        if len(nodes) != 2 * n - 1:
            raise ValueError(f"expected {2 * n - 1} nodes, got {len(nodes)}")
        spans = [(i, j) for i, j, _ in nodes]
        span_set = set(spans)
        if len(span_set) != len(spans):
            raise ValueError("duplicate spans in tree")
        for i, j, k in nodes:
            if not (0 <= i <= j < n) or k < 0:
                raise ValueError(f"bad node ({i}, {j}, {k})")
        ends_by_start: dict[int, list[int]] = {}
        for i, j in spans:
            ends_by_start.setdefault(i, []).append(j)
        splits: dict[tuple[int, int], int] = {}
        stack = [(0, n - 1)]
        if (0, n - 1) not in span_set:
            raise ValueError("root span missing")
        visited = 0
        while stack:
            i, j = stack.pop()
            visited += 1
            if i == j:
                continue
            inner = [e for e in ends_by_start.get(i, ()) if e < j]
            if not inner:
                raise ValueError(f"span ({i}, {j}) has no left child")
            m = max(inner)
            if (m + 1, j) not in span_set:
                raise ValueError(f"span ({i}, {j}) has no right child at {m + 1}")
            splits[(i, j)] = m
            stack.append((i, m))
            stack.append((m + 1, j))
        if visited != len(nodes):
            raise ValueError("spans do not form a single binary bracketing")
        object.__setattr__(self, "splits", splits)

    def label_of(self) -> dict[tuple[int, int], int]:
        return {(i, j): k for i, j, k in self.nodes}


def _check_batch(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None]
) -> None:
    """Validate a batch of charts and their masks (``None``: unmasked)."""
    if len(charts) != len(masks):
        raise DimensionMismatch("need one mask per chart")
    for chart, mask in zip(charts, masks):
        if chart.n == 0:
            raise DegenerateChart("chart over zero tokens")
        if mask is not None and mask.m.shape != chart.s.shape:
            raise DimensionMismatch(
                f"mask shape {mask.m.shape} does not match chart shape {chart.s.shape}"
            )
        if chart.s.shape[2] != charts[0].s.shape[2]:
            raise DimensionMismatch("charts in a batch must share a label count")


def _apply_mask(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Offset potentials by log-mask, with LOG_ZERO substituted for log 0."""
    logm = np.where(m > 0.0, np.log(np.maximum(m, _TINY)), LOG_ZERO)
    return s + logm


def _potentials(chart: ScoreChart, mask: ChartMask | None) -> np.ndarray:
    """The potentials the kernel runs on: ``s``, or ``s + log M`` if masked."""
    return chart.s if mask is None else _apply_mask(chart.s, mask.m)


def _logsumexp(x: np.ndarray) -> tuple[np.ndarray, None]:
    """Log-semiring reduction of the last axis (the inside pass).

    The kernel only sees finite values (``LOG_ZERO`` stands in for log 0),
    so this is :func:`_lse` without its -inf lanes, with the same result.
    """
    m = x.max(axis=-1)
    x -= m[..., None]
    total = np.exp(x, out=x).sum(axis=-1)
    return np.log(total, out=total) + m, None


def _max_argmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-semiring reduction of the last axis with its first argmax (CKY)."""
    return x.max(axis=-1), x.argmax(axis=-1)


def _stripe(flat: np.ndarray, n: int, offset: int, rows: int, cols: int) -> np.ndarray:
    """Writable view ``[b, i, t] = flat[b, offset + i * (n + 1) + t]``.

    ``flat`` holds one chart per row: cell ``(i, j)`` at ``i * n + j``, plus
    one padding entry.  A slice and a reshape give the view, never a copy.
    """
    block = flat[:, offset : offset + rows * (n + 1)]
    return block.reshape(-1, rows, n + 1)[:, :, :cols]


def _cells(flat: np.ndarray, n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The width-``w`` cells ``(i, i + w - 1)`` and their mirrors, ``(B, rows)``."""
    rows = n - w + 1
    upper = _stripe(flat, n, w - 1, rows, 1)[:, :, 0]
    mirror = _stripe(flat, n, (w - 1) * n, rows, 1)[:, :, 0]
    return upper, mirror


def _split_operands(flat: np.ndarray, n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right children of every split of the width-``w`` cells.

    ``left[b, i, t]`` is cell ``(i, i + t)`` and ``right[b, i, t]`` is cell
    ``(i + t + 1, i + w - 1)``, read from its mirror ``(i + w - 1, i + t + 1)``
    in the lower triangle, so both are stripes with strides ``(n + 1, 1)``.
    """
    rows = n - w + 1
    left = _stripe(flat, n, 0, rows, w - 1)
    right = _stripe(flat, n, (w - 1) * n + 1, rows, w - 1)
    return left, right


def _label_reduce(
    sp: np.ndarray, spans: np.ndarray, reduce
) -> tuple[np.ndarray, np.ndarray | None]:
    """The label part of every span cell of one ``(n, n, L)`` chart.

    ``spans`` marks the span cells, ``~below_diagonal(n)``, and ``reduce``
    is the kernel's reduction (see :func:`_chart_dp`).  Returns its value
    and argument as ``(n, n)`` arrays, 0 below the diagonal.
    """
    n = len(sp)
    value, arg = reduce(sp[spans])
    lab = np.zeros((n, n))
    lab[spans] = value
    if arg is None:
        return lab, None
    label_arg = np.zeros((n, n), dtype=np.int64)
    label_arg[spans] = arg
    return lab, label_arg


class _Chart(NamedTuple):
    """What one run of :func:`_chart_dp` leaves behind.

    ``flat`` holds one chart per row, longest first, all in the layout of
    the longest length ``n`` (see :func:`_stripe`; cell ``(i, j)`` is also
    stored at its mirror ``(j, i)``).  ``row`` and ``lengths`` are in the
    order the charts were given.
    """

    flat: np.ndarray
    n: int
    row: np.ndarray  # row of ``flat`` that holds each chart
    lengths: np.ndarray  # each chart's own length
    # per width w >= 2: split reduction (value, argument) of the rows whose
    # charts are at least w long, (rows, n - w + 1)
    split: list

    def square(self, flat: np.ndarray, b: int) -> np.ndarray:
        """Chart ``b``'s ``(n_b, n_b)`` cells of an array laid out as ``flat``."""
        n, nb = self.n, self.lengths[b]
        return flat[self.row[b], : n * n].reshape(n, n)[:nb, :nb]

    def roots(self) -> np.ndarray:
        """Each chart's value at its own root cell ``(0, n_b - 1)``."""
        return self.flat[self.row, self.lengths - 1]


def _chart_dp(labels: Sequence[np.ndarray], reduce) -> _Chart:
    """The chart recursion over a batch of charts, from their label parts.

    ``labels`` holds each chart's :func:`_label_reduce` value, ``(n_b,
    n_b)``; charts may differ in length.  ``reduce`` maps a fresh array,
    which it may overwrite, to ``(value, argument)`` over its last axis:
    :func:`_logsumexp` for inside, :func:`_max_argmax` for CKY.  Each label
    part seeds its chart's row of the flat chart; then the split recursion
    runs one width at a time over all start positions of every row long
    enough for that width (a prefix, since rows are longest first),
    reading the split operands as stripes.  Cells of a row past its own
    length hold finite values that no cell of its chart reads, because a
    cell's splits stay inside its span.
    """
    lengths = np.array([len(lab) for lab in labels])
    order = np.argsort(-lengths, kind="stable")
    row = np.empty_like(order)
    row[order] = np.arange(len(labels))
    n = int(lengths[order[0]])
    # at_least[w]: the number of charts at least w long, a prefix of the rows
    at_least = np.searchsorted(-lengths[order], -np.arange(n + 1), side="right")
    flat = np.zeros((len(labels), n * (n + 1) + 1))
    chart = _Chart(flat, n, row, lengths, split=[None, None])
    for b, lab in enumerate(labels):
        chart.square(flat, b)[...] = lab
    for w, count in enumerate(at_least.tolist()[2:], start=2):
        rows = flat[:count]
        left, right = _split_operands(rows, n, w)
        chart.split.append(reduce(left + right))
        upper, mirror = _cells(rows, n, w)
        upper += chart.split[w][0]
        mirror[...] = upper
    return chart


def _outside(chart: _Chart) -> np.ndarray:
    """``g = d logZ / d beta`` of every chart, laid out as ``chart.flat``.

    One reverse sweep over the inside pass's stripes: ``g`` starts at 1 on
    each row's own root and flows from each cell to both children of each
    split, weighted by the softmax of the split scores, over the same rows
    as the inside pass at each width.  Left children collect their share
    in the upper triangle and right children at their mirror, so each
    update writes distinct cells; a cell adds its two parts when its own
    width comes up.  Only the upper triangle of the result is meaningful.
    """
    n = chart.n
    g = np.zeros_like(chart.flat)
    g[chart.row, chart.lengths - 1] = 1.0
    for w in range(n, 1, -1):
        value = chart.split[w][0]
        rows = slice(0, len(value))
        upper, mirror = _cells(g[rows], n, w)
        upper += mirror
        left, right = _split_operands(chart.flat[rows], n, w)
        share = left + right
        share -= value[..., None]
        np.exp(share, out=share)
        share *= upper[..., None]
        to_left, to_right = _split_operands(g[rows], n, w)
        to_left += share
        to_right += share
    return g


def _inside_pass(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None], reduce=_logsumexp
) -> tuple[list[tuple[np.ndarray, np.ndarray | None]], _Chart]:
    """The chart recursion over a checked, non-empty batch of charts.

    Each chart's potentials (masked when its mask is not ``None``) are
    built and label-reduced one chart at a time, then :func:`_chart_dp`
    runs once over all of them.  Returns each chart's :func:`_label_reduce`
    ``(value, argument)`` in input order and the kernel's :class:`_Chart`.
    """
    spans = ~below_diagonal(max(chart.n for chart in charts))
    parts = [
        _label_reduce(_potentials(chart, mask), spans[: chart.n, : chart.n], reduce)
        for chart, mask in zip(charts, masks)
    ]
    return parts, _chart_dp([value for value, _ in parts], reduce)


def _posteriors(
    charts: Sequence[ScoreChart],
    masks: Sequence[ChartMask | None],
    parts: list[tuple[np.ndarray, np.ndarray | None]],
    inside_pass: _Chart,
) -> Iterator[np.ndarray]:
    """Span-label posteriors ``mu = g * softmax_k(s)`` of each chart, in order.

    Takes the arguments and results of one log-sum-exp :func:`_inside_pass`;
    ``g`` is the chart's square of :func:`_outside`, which runs at the
    first step.  Each chart's potentials are built again here instead of
    being kept from the label reduction, so one chart's are held at a time.
    Each result is 0 below the diagonal.
    """
    g = _outside(inside_pass)
    below = below_diagonal(inside_pass.n)
    for b, (chart, mask) in enumerate(zip(charts, masks)):
        mu = _potentials(chart, mask) - parts[b][0][..., None]
        with np.errstate(invalid="ignore", over="ignore"):
            np.exp(mu, out=mu)
            mu *= inside_pass.square(g, b)[..., None]
        mu[below[: chart.n, : chart.n]] = 0.0
        # Rounding can overshoot 1 by an ulp; the posterior is a probability.
        yield np.clip(mu, 0.0, 1.0, out=mu)


def inside(chart: ScoreChart) -> float:
    """Log partition function over all full labeled binary trees."""
    _check_batch([chart], [None])
    return float(_inside_pass([chart], [None])[1].roots()[0])


def masked_inside(chart: ScoreChart, mask: ChartMask) -> float:
    """Log-sum of scores of all full trees compatible with the mask.

    Computed exactly as ``inside(s + log M)`` with LOG_ZERO substituted
    for ``log 0``; an all-ones mask reproduces :func:`inside` bit for bit.
    """
    _check_batch([chart], [mask])
    return float(_inside_pass([chart], [mask])[1].roots()[0])


def vanilla_partial_marginalization(chart: ScoreChart, symbols: SymbolTree) -> float:
    """Reference partial marginalization with per-cell branching.

    Walks the chart cell by cell: observed cells contribute only their
    annotated label(s), latent cells sum over latent labels, rejected
    cells are truly excluded (log-score -inf, no LOG_ZERO approximation).
    Slow on purpose; it is the per-sentence baseline the batched masked
    path is checked and benchmarked against.
    """
    _check_batch([chart], [None])
    if symbols.n != chart.n:
        raise DimensionMismatch(
            f"symbols over {symbols.n} tokens but chart over {chart.n}"
        )
    s = chart.s
    n = chart.n
    n_observed = chart.schema.n_observed
    beta = np.full((n, n), np.nan)
    for w in range(1, n + 1):
        for i in range(n - w + 1):
            j = i + w - 1
            kind = symbols.node_kind[i, j]
            if kind == NodeKind.REJECTED:
                beta[i, j] = -np.inf
                continue
            if kind == NodeKind.OBSERVED:
                ks = list(symbols.observed_label[(i, j)])
                a = _lse(s[i, j, ks], axis=0)
            else:
                a = _lse(s[i, j, n_observed:], axis=0)
            if w == 1:
                beta[i, j] = a
            else:
                cand = beta[i, i:j] + beta[i + 1 : j + 1, j]
                beta[i, j] = a + _lse(cand, axis=0)
    return float(beta[0, n - 1])


def log_prob(chart: ScoreChart, mask: ChartMask) -> float:
    """Log conditional probability of the partial tree the mask encodes."""
    return masked_inside(chart, mask) - inside(chart)


def marginals(chart: ScoreChart, mask: ChartMask | None = None) -> MarginalChart:
    """Posterior probability of each span-label pair under the (masked) model.

    Equals the gradient of the (masked) log partition function with
    respect to each potential ``s[i, j, k]``.
    """
    _check_batch([chart], [mask])
    parts, inside_pass = _inside_pass([chart], [mask])
    return MarginalChart(mu=next(_posteriors([chart], [mask], parts, inside_pass)))


def loss_and_score_gradient(
    chart: ScoreChart, mask: ChartMask
) -> tuple[float, np.ndarray]:
    """Negative log conditional probability and its exact score gradient.

    The gradient at each cell is the unmasked posterior minus the masked
    posterior; the two node-count identities make it sum to zero.  This is
    the batch-of-one case of :func:`batch_loss_and_score_gradient`.
    """
    return next(batch_loss_and_score_gradient([chart], [mask]))


def batch_loss_and_score_gradient(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask]
) -> Iterator[tuple[float, np.ndarray]]:
    """:func:`loss_and_score_gradient` of each sentence, in input order.

    Each sentence's unmasked and masked charts, whatever their lengths,
    run through the kernel as one batch, in that order, so every value is
    bit-identical to ``inside - masked_inside`` and to the difference of
    the two :func:`marginals`.  Arguments are checked and the inside pass
    runs at the call; each sentence's gradient is built only when the
    iterator reaches it, so one gradient is held at a time.
    """
    _check_batch(charts, masks)
    if not charts:
        return iter(())
    both = [chart for chart in charts for _ in range(2)]
    both_masks = [m for mask in masks for m in (None, mask)]
    parts, inside_pass = _inside_pass(both, both_masks)
    roots = inside_pass.roots()
    mus = _posteriors(both, both_masks, parts, inside_pass)
    return (
        (float(unmasked - masked), mu_unmasked - mu_masked)
        for unmasked, masked, (mu_unmasked, mu_masked) in zip(
            roots[::2], roots[1::2], zip(mus, mus)
        )
    )


def cky_decode(chart: ScoreChart) -> FullTree:
    """Highest-scoring full labeled binary tree.

    Ties break deterministically: lowest label index first, then lowest
    split point (numpy argmax picks the first maximum).
    """
    _check_batch([chart], [None])
    [(_, label_arg)], best = _inside_pass([chart], [None], _max_argmax)
    n = chart.n
    nodes: list[tuple[int, int, int]] = []
    stack = [(0, n - 1)]
    while stack:
        i0, j0 = stack.pop()
        nodes.append((i0, j0, int(label_arg[i0, j0])))
        if i0 < j0:
            m = i0 + int(best.split[j0 - i0 + 1][1][0, i0])
            stack.append((m + 1, j0))
            stack.append((i0, m))
    return FullTree(n=n, nodes=tuple(nodes))


def extract_entities(tree: FullTree, schema: LabelSchema) -> list[Span]:
    """Tree nodes carrying observed labels, in document order."""
    return [
        Span(i, j, k) for i, j, k in tree.nodes if k < schema.n_observed
    ]


def tree_score(chart: ScoreChart, tree: FullTree) -> float:
    """Sum of a tree's node potentials.

    Associates the sum exactly as the chart recursions do
    (node + (left subtree + right subtree)), so a decoded tree's score is
    bit-identical to the decoder's root value.  Nodes are visited in
    reverse preorder, which reaches both children before their parent.
    """
    if tree.n != chart.n:
        raise DimensionMismatch(f"tree over {tree.n} tokens, chart over {chart.n}")
    s = chart.s
    score: dict[tuple[int, int], float] = {}
    for i, j, k in reversed(tree.nodes):
        v = s[i, j, k]
        if i == j:
            score[(i, j)] = float(v)
        else:
            m = tree.splits[(i, j)]
            score[(i, j)] = float(v + (score.pop((i, m)) + score.pop((m + 1, j))))
    return score[(0, tree.n - 1)]


def mask_from_full_tree(tree: FullTree, schema: LabelSchema) -> ChartMask:
    """Mask admitting exactly one full tree: 1 at each node, 0 elsewhere.

    Feeding this to :func:`masked_inside` recovers plain bottom-up
    evaluation of that tree.
    """
    m = np.zeros((tree.n, tree.n, schema.n_labels))
    for i, j, k in tree.nodes:
        m[i, j, k] = 1.0
    return ChartMask(n=tree.n, m=m)


def batched_masked_inside(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask]
) -> np.ndarray:
    """Masked inside over a batch of sentences in one kernel call.

    Sentences may differ in length (see :func:`_chart_dp`); each result is
    read at the sentence's own root cell, and every cell runs the same
    operations as in :func:`masked_inside`, so values are bitwise identical
    to the per-sentence computation regardless of batch composition.
    """
    _check_batch(charts, masks)
    if not charts:
        return np.zeros(0)
    return _inside_pass(charts, masks)[1].roots()
