"""Chart dynamic programming over labeled binary trees.

All algorithms work in the log semiring on charts of log potentials
``s[i, j, k]`` of spans ``i <= j`` and labels ``k``.  A full tree over
``n`` tokens is a binary bracketing with exactly ``2n - 1`` labeled spans;
its score is the sum of its node potentials.  The core recursion
factorizes each cell into a label part and a split part::

    beta[i, i] = LSE_k s[i, i, k]
    beta[i, j] = LSE_k s[i, j, k] + LSE_m (beta[i, m] + beta[m+1, j])

which is valid because the label choice at a node is independent of where
the node splits.  Masked marginalization adds ``log M`` to the potentials
first, substituting ``LOG_ZERO`` for ``log 0``; with an all-ones mask this
is bit-identical to the plain recursion, and with a mask built from a full
tree it degenerates to evaluating that tree.

Charts and masks hold their span cells packed, ``(n(n+1)/2, L)``, in
row-major order (those of ``~below_diagonal(n)``, see
:func:`treecrf.chart.pack_cells`), and that is the layout the kernel
reads and the gradients come back in.  One kernel, :func:`_inside_pass`,
runs the recursion for every algorithm here, with the reduction as a
parameter: log-sum-exp for the inside pass and max with first argmax for
CKY.  It takes a batch of charts of mixed lengths; a single sentence is a
batch of one.  Everything done per cell runs on one ``(cells, L)`` array,
the concatenated span cells of every chart, the unmasked charts first,
and their masks likewise.  One :func:`_apply_mask` call adds the
log-masks of all masked charts and one reduction takes the label part of
every cell.  The log-sum-exp shifts each row by its max, and on the short
label axis and the narrow widths of a batch ``ndarray.max`` pays more per
row than the exp and the sum together, so there the max runs one column
at a time over all rows (see :func:`_row_max`); a max is exact in any
order, so the values stay those of ``ndarray.max``.  CKY's max and first
argmax stay row-wise.  The split part runs width by width over one flat
array that holds the charts as rows, longest first, in the layout of the
longest one, so that at width ``w`` only the prefix of rows at least ``w``
long takes part.  The split operands of a whole diagonal are strided views
of that array, which keeps every cell also at its mirror below the
diagonal.  Each chart's result sits at its own root, ``(0, n_b - 1)``.
The pass's result, :class:`_Pass`, owns that layout: the packed arrays,
the flat chart, each cell's and each root's place in it and the per-width
split reductions.

Every structured entry point is one check, :func:`_check_batch` (a
``None`` mask: unmasked) or, where every chart needs its mask,
:func:`_check_masked`, and one :func:`_inside_pass`.  CKY,
:func:`batch_cky_decode`, walks each chart's tree back from its own root
through the argmax the pass keeps.  Posteriors are the
gradient of the roots: :func:`_posteriors` takes it by one reverse sweep
over the same views (inside-outside as backpropagation) from every row's
own root, and turns the packed potentials of the whole batch into
posteriors in place.  :func:`batch_loss_and_score_gradient` runs every
sentence's unmasked and masked charts through that pair as one batch and
subtracts the two halves once, so its values equal ``inside -
masked_inside`` and the difference of the two :func:`marginals` bit for
bit; only :func:`marginals` unpacks its result into an ``(n, n, L)``
square.
:func:`vanilla_partial_marginalization` keeps its own cell-by-cell loop
as the reference the kernel is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chart import (
    ChartMask,
    LabelSchema,
    NodeKind,
    ScoreChart,
    Span,
    SymbolTree,
    packed_index,
    span_positions,
    unpack_cells,
)
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
class FullTree:
    """A full labeled binary bracketing: exactly ``2n - 1`` labeled spans.

    The tree is just its nodes ``(i, j, k)``, stored in document order
    (start ascending, end descending), which coincides with preorder
    traversal.  Construction validates that the spans form a binary tree
    whose children exactly partition their parent.
    """

    n: int
    nodes: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        nodes = tuple(sorted(self.nodes, key=lambda t: (t[0], -t[1])))
        object.__setattr__(self, "nodes", nodes)
        n = self.n
        if len(nodes) != 2 * n - 1:
            raise ValueError(f"expected {2 * n - 1} nodes, got {len(nodes)}")
        for i, j, k in nodes:
            if not (0 <= i <= j < n) or k < 0:
                raise ValueError(f"bad node ({i}, {j}, {k})")
        # One preorder walk: each node must be the next span due, and an
        # internal span (i, j) comes right before its left child (i, m),
        # which gives the split.  The nodes walked so far are a preorder
        # prefix of some bracketing, whose 2n - 1 nodes end in a leaf, so
        # an internal node is never the last one.
        due = [(0, n - 1)]  # spans still to come, the next one last
        for at, (i, j, _) in enumerate(nodes):
            if due.pop() != (i, j):
                raise ValueError("spans do not form a single binary bracketing")
            if i < j:
                m = nodes[at + 1][1]
                if m >= j:
                    raise ValueError(f"span ({i}, {j}) has no left child")
                due += [(m + 1, j), (i, m)]


def _check_batch(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None]
) -> None:
    """Validate a batch of charts and their masks (``None``: unmasked)."""
    if len(charts) != len(masks):
        raise DimensionMismatch("need one mask per chart")
    for chart, mask in zip(charts, masks):
        if chart.n == 0:
            raise DegenerateChart("chart over zero tokens")
        if mask is not None and mask.cells.shape != chart.cells.shape:
            raise DimensionMismatch(
                f"mask cells {mask.cells.shape} do not match chart cells "
                f"{chart.cells.shape}"
            )
        if chart.cells.shape[1] != charts[0].cells.shape[1]:
            raise DimensionMismatch("charts in a batch must share a label count")


def _check_masked(charts: Sequence[ScoreChart], masks: Sequence[ChartMask]) -> None:
    """:func:`_check_batch` of a batch in which every chart needs its mask."""
    _check_batch(charts, masks)
    for b, mask in enumerate(masks):
        if mask is None:
            raise DimensionMismatch(f"missing mask at batch position {b}")


def _apply_mask(s: np.ndarray, m: np.ndarray) -> None:
    """Add the log-mask to potentials ``s`` in place, LOG_ZERO for log 0.

    Overwrites the mask weights ``m``, which :class:`ChartMask` keeps in
    [0, 1].
    """
    zero = m == 0.0
    np.log(m, out=m, where=~zero)
    m[zero] = LOG_ZERO
    s += m


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` by ``ndarray.max`` or by one :func:`np.maximum`
    per column, whichever is faster for ``x``'s shape.

    Both give every row's value; only where ``+0.0`` and ``-0.0`` tie for a
    row's max may the sign of that zero differ, as numpy's reduction picks
    one by its own order.
    """
    k = x.shape[-1]
    # On numpy 2.4.6 (x86-64), ndarray.max(axis=-1) costs 30-95 ns per row
    # on a short last axis, and np.maximum about 1 us per call plus 1-2 ns
    # per row.  Column by column is the faster way when the axis is at most
    # a sixteenth of the rows: 1.3x on (64, 4), 7x on the (26240, 8) label
    # part of 32 charts of n = 40 and up to 13x on their narrow widths.
    # Near that bound, on axes longer than 16, ndarray.max can be as fast or
    # up to 2x faster, a few tens of microseconds a call.  A fact, not a
    # knob.
    if 16 * k * k > x.size:
        return x.max(axis=-1)
    m = x[..., 0].copy()
    for column in range(1, k):
        np.maximum(m, x[..., column], out=m)
    return m


def _logsumexp(x: np.ndarray) -> tuple[np.ndarray, None]:
    """Log-semiring reduction of the last axis (the inside pass).

    The kernel only sees finite values (``LOG_ZERO`` stands in for log 0),
    so this is :func:`_lse` without its -inf lanes, with the same result.
    The shift is each row's max, taken by :func:`_row_max`: ``ndarray.max``
    pays a fixed cost per row, which on the short label axis and the
    narrow widths of a batch outweighs the reduction itself, so there the
    max runs one column at a time over all rows.  A max is exact in any
    order, and the sign of a zero shift changes neither ``exp(x - m)`` nor
    ``log(total) + m`` (``total >= 1``), so the result is bit for bit that
    of ``ndarray.max``.
    """
    m = _row_max(x)
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
    """The width-``w`` cells ``(i, i + w - 1)`` and their mirrors, ``(B, rows)``.

    One-column :func:`_stripe` views taken as basic slices with step
    ``n + 1``, which skips the reshape.
    """
    rows = n - w + 1
    upper = flat[:, w - 1 : w - 1 + rows * (n + 1) : n + 1]
    mirror = flat[:, (w - 1) * n : (w - 1) * n + rows * (n + 1) : n + 1]
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


class _Pass(NamedTuple):
    """What one :func:`_inside_pass` leaves behind.

    ``flat`` holds one chart per row, longest first, all in the layout of
    the longest length ``n`` (see :func:`_stripe`; cell ``(i, j)`` is also
    stored at its mirror ``(j, i)``).  Positions index ``flat.ravel()``;
    per-chart fields are in the order the charts were given.
    """

    potentials: np.ndarray  # (cells, L): every chart's span cells, packed
    slots: list[slice]  # each chart's cells in the packed arrays
    value: np.ndarray  # label reduction of each packed cell
    arg: np.ndarray | None  # and its argument (CKY)
    flat: np.ndarray
    n: int
    cells: np.ndarray  # each packed cell's position
    root_cells: np.ndarray  # each chart's root position, cell (0, n_b - 1)
    # per width w >= 2: split reduction (value, argument) of the rows whose
    # charts are at least w long, (rows, n - w + 1)
    split: list

    def roots(self) -> np.ndarray:
        """Each chart's value at its own root."""
        return self.flat.ravel()[self.root_cells]


def _inside_pass(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None], reduce
) -> _Pass:
    """The chart recursion over a checked, non-empty batch of charts.

    The unmasked charts (mask ``None``) come first; charts may differ in
    length.  Concatenates the packed span cells of every chart into one
    ``(cells, L)`` array, and the masks of the masked charts likewise, so
    that one :func:`_apply_mask` call adds them at the end.  ``reduce``
    maps a fresh array, which it may overwrite, to ``(value, argument)``
    over its last axis: :func:`_logsumexp` for inside, :func:`_max_argmax`
    for CKY.  One ``reduce`` call takes the label part of every cell, on a
    copy, so the potentials stay for :func:`_posteriors`, and one scatter
    seeds the flat chart with it.  Then the split recursion runs one width
    at a time over all start positions of every row long enough for that
    width (a prefix, since rows are longest first), reading the split
    operands as stripes.  Cells of a row past its own length hold finite
    values that no cell of its chart reads, because a cell's splits stay
    inside its span.
    """
    lengths = [chart.n for chart in charts]
    sizes = [m * (m + 1) // 2 for m in lengths]
    n = max(lengths)
    # ``scratch`` holds the mask weights, then the copy that ``reduce``
    # overwrites.  One allocation for both: with glibc's malloc, two large
    # arrays freed together go back to the system and every call faults
    # them in again (a quarter of a 32 x 40 batched_masked_inside call).
    potentials, scratch = np.empty((2, sum(sizes), charts[0].cells.shape[1]))
    np.concatenate([chart.cells for chart in charts], out=potentials)
    starts = list(accumulate(sizes, initial=0))
    slots = [slice(a, b) for a, b in zip(starts, starts[1:])]
    unmasked = sum(mask is None for mask in masks)
    assert all(mask is None for mask in masks[:unmasked]), "unmasked charts first"
    first_masked = starts[unmasked]
    if first_masked < len(potentials):
        weights = scratch[first_masked:]
        np.concatenate([mask.cells for mask in masks[unmasked:]], out=weights)
        _apply_mask(potentials[first_masked:], weights)
    np.copyto(scratch, potentials)
    value, arg = reduce(scratch)
    # Rows longest first, in a stable order.  Chart b's cell (i, j) is
    # b * n * n + i * n + j in a stack of (n, n) squares; shift it to the
    # chart's row.
    count = len(charts)
    order = sorted(range(count), key=lambda b: -lengths[b])
    row = np.empty(count, dtype=int)
    row[order] = range(count)
    stride = n * (n + 1) + 1
    ends = np.array(lengths) - 1
    cells = span_positions(lengths, n)
    cells += np.repeat(row * stride - np.arange(count) * n * n, sizes)
    flat = np.zeros((count, stride))
    flat.ravel()[cells] = value
    split = [None, None]
    for w in range(2, n + 1):
        while lengths[order[count - 1]] < w:
            count -= 1  # rows at least w long
        rows = flat[:count]
        left, right = _split_operands(rows, n, w)
        split.append(reduce(left + right))
        upper, mirror = _cells(rows, n, w)
        upper += split[w][0]
        mirror[...] = upper
    return _Pass(
        potentials, slots, value, arg, flat, n, cells, row * stride + ends, split
    )


def _outside(inside_pass: _Pass) -> np.ndarray:
    """``g = d logZ / d beta`` of every chart, laid out as the flat chart.

    One reverse sweep over the inside pass's stripes: ``g`` starts at 1 on
    each row's own root and flows from each cell to both children of each
    split, weighted by the softmax of the split scores, over the same rows
    as the inside pass at each width.  Left children collect their share
    in the upper triangle and right children at their mirror, so each
    update writes distinct cells; a cell adds its two parts when its own
    width comes up.  Only the upper triangle of the result is meaningful.
    """
    n, flat = inside_pass.n, inside_pass.flat
    g = np.zeros_like(flat)
    g.ravel()[inside_pass.root_cells] = 1.0
    for w in range(n, 1, -1):
        value = inside_pass.split[w][0]
        rows = slice(0, len(value))
        upper, mirror = _cells(g[rows], n, w)
        upper += mirror
        left, right = _split_operands(flat[rows], n, w)
        share = left + right
        share -= value[..., None]
        np.exp(share, out=share)
        share *= upper[..., None]
        to_left, to_right = _split_operands(g[rows], n, w)
        to_left += share
        to_right += share
    return g


def _posteriors(inside_pass: _Pass) -> np.ndarray:
    """Span-label posteriors ``mu = g * softmax_k(s)`` of every packed cell.

    Takes one log-sum-exp :func:`_inside_pass` and turns its packed
    potentials into the posteriors in place, for the whole batch at once;
    ``g`` is :func:`_outside` read at each cell's place in the flat chart.
    """
    mu = inside_pass.potentials
    mu -= inside_pass.value[:, None]
    np.exp(mu, out=mu)
    mu *= _outside(inside_pass).ravel()[inside_pass.cells][:, None]
    # Rounding can overshoot 1 by an ulp; the posterior is a probability.
    return np.clip(mu, 0.0, 1.0, out=mu)


def inside(chart: ScoreChart) -> float:
    """Log partition function over all full labeled binary trees."""
    _check_batch([chart], [None])
    return float(_inside_pass([chart], [None], _logsumexp).roots()[0])


def masked_inside(chart: ScoreChart, mask: ChartMask) -> float:
    """Log-sum of scores of all full trees compatible with the mask.

    Computed exactly as ``inside(s + log M)`` with LOG_ZERO substituted
    for ``log 0``; an all-ones mask reproduces :func:`inside` bit for bit.
    """
    _check_masked([chart], [mask])
    return float(_inside_pass([chart], [mask], _logsumexp).roots()[0])


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


def marginals(chart: ScoreChart, mask: ChartMask | None = None) -> np.ndarray:
    """Posterior probability ``mu[i, j, k]`` of each span-label pair.

    Returns an ``(n, n, L)`` array: the gradient of the (masked) log
    partition function with respect to each potential ``s[i, j, k]``.
    Cells below the diagonal are zero.
    """
    _check_batch([chart], [mask])
    mu = _posteriors(_inside_pass([chart], [mask], _logsumexp))
    return unpack_cells(mu, chart.n)


def loss_and_score_gradient(
    chart: ScoreChart, mask: ChartMask
) -> tuple[float, np.ndarray]:
    """Negative log conditional probability and its exact score gradient.

    The gradient, packed like ``chart.cells``, is at each span cell the
    unmasked posterior minus the masked posterior; the two node-count
    identities make it sum to zero.  This is the batch-of-one case of
    :func:`batch_loss_and_score_gradient`.
    """
    return next(batch_loss_and_score_gradient([chart], [mask]))


def batch_loss_and_score_gradient(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask]
) -> Iterator[tuple[float, np.ndarray]]:
    """:func:`loss_and_score_gradient` of each sentence, in input order.

    Every sentence's unmasked chart and then every sentence's masked
    chart, whatever their lengths, run through the kernel as one batch, so
    every value is bit-identical to ``inside - masked_inside`` and to the
    difference of the two :func:`marginals` at the span cells.  The whole
    batch's packed gradient is one subtraction of the two halves of the
    posteriors, after which the pass's buffers are released; each
    sentence's gradient is a view of it, shaped like its ``chart.cells``.
    """
    _check_masked(charts, masks)
    if not charts:
        return iter(())
    count = len(charts)
    inside_pass = _inside_pass(
        [*charts, *charts], [None] * count + list(masks), _logsumexp
    )
    roots = inside_pass.roots()
    mu = _posteriors(inside_pass)
    slots = inside_pass.slots[:count]
    grad = mu[: slots[-1].stop] - mu[slots[-1].stop :]
    losses = (roots[:count] - roots[count:]).tolist()
    return zip(losses, (grad[slot] for slot in slots))


def cky_decode(chart: ScoreChart) -> FullTree:
    """Highest-scoring full labeled binary tree.

    Ties break deterministically: lowest label index first, then lowest
    split point (numpy argmax picks the first maximum).  This is the
    batch-of-one case of :func:`batch_cky_decode`.
    """
    return batch_cky_decode([chart])[0]


def batch_cky_decode(charts: Sequence[ScoreChart]) -> list[FullTree]:
    """:func:`cky_decode` of each chart, in input order, by one kernel call.

    The charts may differ in length.  One max-with-argmax
    :func:`_inside_pass` runs them all; each tree is then read back from
    its own root, through its chart's packed label argmax and its row of
    the split argmax of every width.  Max and argmax are exact, so every
    tree, ties included, is the one its chart gets alone.
    """
    _check_batch(charts, [None] * len(charts))
    if not charts:
        return []
    best = _inside_pass(charts, [None] * len(charts), _max_argmax)
    # each chart's row of the flat chart, and the argmax as Python lists:
    # the walk reads one element per node
    rows = [cell // best.flat.shape[1] for cell in best.root_cells.tolist()]
    labels = best.arg.tolist()
    splits = [None, None] + [arg.tolist() for _, arg in best.split[2:]]
    trees = []
    for chart, slot, row in zip(charts, best.slots, rows):
        n = chart.n
        nodes: list[tuple[int, int, int]] = []
        stack = [(0, n - 1)]
        while stack:
            i0, j0 = stack.pop()
            nodes.append((i0, j0, labels[slot.start + packed_index(i0, j0, n)]))
            if i0 < j0:
                m = i0 + splits[j0 - i0 + 1][row][i0]
                stack.append((m + 1, j0))
                stack.append((i0, m))
        trees.append(FullTree(n=n, nodes=tuple(nodes)))
    return trees


def extract_entities(tree: FullTree, schema: LabelSchema) -> list[Span]:
    """Tree nodes carrying observed labels, in document order."""
    return [
        Span(i, j, k) for i, j, k in tree.nodes if k < schema.n_observed
    ]


def tree_score(chart: ScoreChart, tree: FullTree) -> float:
    """Sum of a tree's node potentials.

    Associates the sum exactly as the chart recursions do
    (node + (left subtree + right subtree)), so a decoded tree's score is
    bit-identical to the decoder's root value.  A stack evaluates the
    reversed preorder: a leaf pushes its potential, an internal node pops
    its left and then its right subtree's score and pushes its own.
    """
    if tree.n != chart.n:
        raise DimensionMismatch(f"tree over {tree.n} tokens, chart over {chart.n}")
    stack: list[float] = []
    for i, j, k in reversed(tree.nodes):
        v = chart.cells[packed_index(i, j, chart.n), k]
        stack.append(float(v) if i == j else float(v + (stack.pop() + stack.pop())))
    return stack[0]


def mask_from_full_tree(tree: FullTree, schema: LabelSchema) -> ChartMask:
    """Mask admitting exactly one full tree: 1 at each node, 0 elsewhere.

    Feeding this to :func:`masked_inside` recovers plain bottom-up
    evaluation of that tree.
    """
    cells = np.zeros((tree.n * (tree.n + 1) // 2, schema.n_labels))
    i, j, k = np.array(tree.nodes).T
    cells[packed_index(i, j, tree.n), k] = 1.0
    return ChartMask(cells)


def batched_masked_inside(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask]
) -> np.ndarray:
    """Masked inside over a batch of sentences in one kernel call.

    Sentences may differ in length (see :func:`_inside_pass`); each result
    is read at the sentence's own root cell, and every cell runs the same
    operations as in :func:`masked_inside`, so values are bitwise identical
    to the per-sentence computation regardless of batch composition.
    """
    _check_masked(charts, masks)
    if not charts:
        return np.zeros(0)
    return _inside_pass(charts, masks, _logsumexp).roots()
