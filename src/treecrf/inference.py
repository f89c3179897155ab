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
here: width by width over a batch of charts (a single sentence is a batch
of one), with the reduction as a parameter, log-sum-exp for the inside
pass and max with first argmax for CKY.  It reads the split operands of
a whole diagonal as strided views of the chart, keeping every cell also
at its mirror below the diagonal.  Posteriors are the gradient of the
root, taken by one reverse sweep over the same views (inside-outside as
backpropagation).  :func:`vanilla_partial_marginalization` keeps its own
cell-by-cell loop as the reference the kernel is checked against.

Score cells below the diagonal (``i > j``, see
:func:`treecrf.chart.below_diagonal`) are unspecified: they may hold any
value, NaN included, and no result reads them; tests poison them with NaN
to prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
class InsideChart:
    """Log inside scores ``beta[i, j]`` for every span."""

    beta: np.ndarray


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


def _require_nonempty(n: int) -> None:
    if n == 0:
        raise DegenerateChart("chart over zero tokens")


def _check_mask(chart: ScoreChart, mask: ChartMask) -> None:
    if mask.m.shape != chart.s.shape:
        raise DimensionMismatch(
            f"mask shape {mask.m.shape} does not match chart shape {chart.s.shape}"
        )


def _apply_mask(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Offset potentials by log-mask, with LOG_ZERO substituted for log 0."""
    logm = np.where(m > 0.0, np.log(np.maximum(m, _TINY)), LOG_ZERO)
    return s + logm


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


class _Chart(NamedTuple):
    """What one run of :func:`_chart_dp` leaves behind."""

    flat: np.ndarray  # see _stripe; cell (i, j) also stored at its mirror (j, i)
    lab: np.ndarray  # label reduction of each cell, (B, n, n), upper triangle
    label_arg: np.ndarray | None  # its argument, same shape
    split: list  # per width w >= 2: split reduction (value, argument), (B, n - w + 1)


def _chart_dp(sp: np.ndarray, reduce) -> _Chart:
    """The chart recursion over a batch of ``(B, n, n, L)`` potentials.

    ``reduce`` maps a fresh array, which it may overwrite, to ``(value,
    argument)`` over its last axis: :func:`_logsumexp` for inside,
    :func:`_max_argmax` for CKY.  Runs one width at a time over all start
    positions and batch rows, reading the split operands as stripes.
    """
    b, n = sp.shape[:2]
    spans = ~below_diagonal(n)
    lab = np.zeros((b, n, n))
    lab[:, spans], arg = reduce(sp[:, spans])
    label_arg = None
    if arg is not None:
        label_arg = np.zeros((b, n, n), dtype=np.int64)
        label_arg[:, spans] = arg
    flat = np.empty((b, n * (n + 1) + 1))
    split = [None, None]
    for w in range(1, n + 1):
        value = np.diagonal(lab, w - 1, 1, 2)
        if w > 1:
            left, right = _split_operands(flat, n, w)
            split.append(reduce(left + right))
            value = value + split[w][0]
        upper, mirror = _cells(flat, n, w)
        upper[...] = value
        mirror[...] = value
    return _Chart(flat, lab, label_arg, split)


def _posteriors(sp: np.ndarray, chart: _Chart) -> np.ndarray:
    """Span-label posteriors ``d logZ / d sp`` of each chart in the batch.

    One reverse sweep over the inside pass's stripes: ``g = d logZ / d beta``
    starts at 1 on the root and flows from each cell to both children of
    each split, weighted by the softmax of the split scores; then
    ``mu = g * softmax_k(sp)``.  Left children collect their share in the
    upper triangle of ``g`` and right children at their mirror, so each
    update writes distinct cells; a cell adds its two parts when its own
    width comes up.
    """
    b, n = sp.shape[:2]
    g = np.zeros_like(chart.flat)
    g[:, n - 1] = 1.0
    for w in range(n, 1, -1):
        upper, mirror = _cells(g, n, w)
        upper += mirror
        left, right = _split_operands(chart.flat, n, w)
        share = left + right
        share -= chart.split[w][0][..., None]
        np.exp(share, out=share)
        share *= upper[..., None]
        to_left, to_right = _split_operands(g, n, w)
        to_left += share
        to_right += share
    g = g[:, : n * n].reshape(b, n, n)
    mu = sp - chart.lab[..., None]
    with np.errstate(invalid="ignore", over="ignore"):
        np.exp(mu, out=mu)
        mu *= g[..., None]
    mu[:, below_diagonal(n)] = 0.0
    # Rounding can overshoot 1 by an ulp; the posterior is a probability.
    return np.clip(mu, 0.0, 1.0)


def _inside_flat(sp: np.ndarray) -> np.ndarray:
    """Flat inside chart (see :func:`_stripe`) of one ``(n, n, L)`` array."""
    return _chart_dp(sp[None], _logsumexp).flat


def inside(chart: ScoreChart) -> float:
    """Log partition function over all full labeled binary trees."""
    _require_nonempty(chart.n)
    return float(_inside_flat(chart.s)[0, chart.n - 1])


def inside_chart(chart: ScoreChart, mask: ChartMask | None = None) -> InsideChart:
    """Full table of log inside scores, optionally masked."""
    _require_nonempty(chart.n)
    sp = chart.s
    if mask is not None:
        _check_mask(chart, mask)
        sp = _apply_mask(chart.s, mask.m)
    n = chart.n
    beta = _inside_flat(sp)[0, : n * n].reshape(n, n)
    beta[below_diagonal(n)] = np.nan
    return InsideChart(beta=beta)


def masked_inside(chart: ScoreChart, mask: ChartMask) -> float:
    """Log-sum of scores of all full trees compatible with the mask.

    Computed exactly as ``inside(s + log M)`` with LOG_ZERO substituted
    for ``log 0``; an all-ones mask reproduces :func:`inside` bit for bit.
    """
    _require_nonempty(chart.n)
    _check_mask(chart, mask)
    sp = _apply_mask(chart.s, mask.m)
    return float(_inside_flat(sp)[0, chart.n - 1])


def vanilla_partial_marginalization(chart: ScoreChart, symbols: SymbolTree) -> float:
    """Reference partial marginalization with per-cell branching.

    Walks the chart cell by cell: observed cells contribute only their
    annotated label(s), latent cells sum over latent labels, rejected
    cells are truly excluded (log-score -inf, no LOG_ZERO approximation).
    Slow on purpose; it is the per-sentence baseline the batched masked
    path is checked and benchmarked against.
    """
    _require_nonempty(chart.n)
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
    _require_nonempty(chart.n)
    sp = chart.s
    if mask is not None:
        _check_mask(chart, mask)
        sp = _apply_mask(chart.s, mask.m)
    sp = sp[None]
    return MarginalChart(mu=_posteriors(sp, _chart_dp(sp, _logsumexp))[0])


def loss_and_score_gradient(
    chart: ScoreChart, mask: ChartMask
) -> tuple[float, np.ndarray]:
    """Negative log conditional probability and its exact score gradient.

    The gradient at each cell is the unmasked posterior minus the masked
    posterior; the two node-count identities make it sum to zero.  The
    unmasked and masked charts run through the kernel as a batch of two.
    """
    _require_nonempty(chart.n)
    _check_mask(chart, mask)
    sp = np.stack([chart.s, _apply_mask(chart.s, mask.m)])
    inside_pass = _chart_dp(sp, _logsumexp)
    root = chart.n - 1
    loss = float(inside_pass.flat[0, root] - inside_pass.flat[1, root])
    mu = _posteriors(sp, inside_pass)
    return loss, mu[0] - mu[1]


def cky_decode(chart: ScoreChart) -> FullTree:
    """Highest-scoring full labeled binary tree.

    Ties break deterministically: lowest label index first, then lowest
    split point (numpy argmax picks the first maximum).
    """
    _require_nonempty(chart.n)
    n = chart.n
    best = _chart_dp(chart.s[None], _max_argmax)
    nodes: list[tuple[int, int, int]] = []
    stack = [(0, n - 1)]
    while stack:
        i0, j0 = stack.pop()
        nodes.append((i0, j0, int(best.label_arg[0, i0, j0])))
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
    """Masked inside over a batch of sentences in one padded computation.

    Sentences are padded to the longest length; padded cells carry all-zero
    masks (LOG_ZERO potentials) and cannot influence any in-range cell,
    because a cell's split sum only reads cells inside its own span.  Each
    sentence's result is read at its own root cell, and every cell runs the
    same operations as in :func:`masked_inside`, so values are bitwise
    identical to the per-sentence computation regardless of batch
    composition.
    """
    if len(charts) != len(masks):
        raise DimensionMismatch("need one mask per chart")
    if not charts:
        return np.zeros(0)
    n_labels = charts[0].s.shape[2]
    lengths = []
    for chart, mask in zip(charts, masks):
        _require_nonempty(chart.n)
        _check_mask(chart, mask)
        if chart.s.shape[2] != n_labels:
            raise DimensionMismatch("charts in a batch must share a label count")
        lengths.append(chart.n)
    n_max = max(lengths)
    sp = np.full((len(charts), n_max, n_max, n_labels), LOG_ZERO)
    for b, (chart, mask) in enumerate(zip(charts, masks)):
        nb = chart.n
        sp[b, :nb, :nb, :] = _apply_mask(chart.s, mask.m)
    flat = _chart_dp(sp, _logsumexp).flat
    return flat[np.arange(len(charts)), np.array(lengths) - 1]
