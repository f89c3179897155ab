"""Chart dynamic programming over labeled binary trees.

Charts hold log potentials ``s[i, j, k]`` of spans ``i <= j`` and labels
``k``.  A full tree over ``n`` tokens is a binary bracketing with exactly
``2n - 1`` labeled spans; its score is the sum of its node potentials.
The core recursion factorizes each cell into a label part and a split
part, shown here in the log semiring::

    beta[i, i] = LSE_k (s[i, i, k] + log M[i, i, k])
    beta[i, j] = LSE_k (s[i, j, k] + log M[i, j, k]) + LSE_m (beta[i, m] + beta[m+1, j])

which is valid because the label choice at a node is independent of where
the node splits.  Mask weights ``M`` multiply the label exponentials, so a
rejected label or cell is an exact zero; with an all-ones mask this is
bit-identical to the plain recursion, and with a mask built from a full
tree it degenerates to evaluating that tree.

Charts and masks hold their span cells packed, ``(n(n+1)/2, L)``, in
row-major order (those of ``~below_diagonal(n)``, see
:func:`treecrf.chart.pack_cells`), and that is the layout the kernel
reads and the gradients come back in.  One kernel, :func:`_inside_pass`,
runs the recursion for every algorithm here, in a semiring given as its
seed (the label part of every cell) and split (combine the children of
every split of one width and reduce over the splits).  It takes a batch
of charts of mixed lengths; a single sentence is a batch of one.
Everything done per cell runs on one ``(cells, L)`` array, the
concatenated span cells of every chart, the unmasked charts first, and
their mask weights likewise.  The split part runs width by width over one
table of diagonals, ``table[w - 1, i, row]`` for cell ``(i, i + w - 1)``,
with the charts as rows, innermost and longest first, so that at width
``w`` only the prefix of rows at least ``w`` long takes part.  Both split
operands of a width are views of that table, the left children its first
``w - 1`` diagonals as they are and the right children the same
diagonals reversed and sheared, so no cell is stored twice and every
cell sums its splits in their order, whatever else its batch holds.
Each chart's result sits at its own root, ``(0, n_b - 1)``.  The pass's
result, :class:`_Pass`, owns that layout.

The inside pass runs in the scaled real semiring: the table holds
``beta~ = exp(beta - kappa (2w - 1))`` at width ``w``, with one log offset
``kappa`` per row and tree node.  A cell's label part and the two children
of any of its splits hold ``2w - 1`` nodes between them, so the offsets
cancel.  The label part is one exp of every potential and one fused
product with the mask weights and sum over the labels; the split part of
width ``w`` is one fused product-sum, ``u * sum_t left_t * right_t``.
Every fourth width, a row whose largest cell at that width has left
``2^(+-200)`` is rebased: its offset moves so that that cell is 1, and its
cells are scaled to match.  CKY stays in the max-plus semiring, max and
first argmax over labels and splits, so its trees and :func:`tree_score`
are those of a plain max-plus recursion.  Max-plus and the log semiring of
the redo below are both additive, ``u + reduce_t (left_t + right_t)``: one
seed and one split, made by :func:`_additive` from the semiring's
reduction, serve them both.

The range.  Every log value a pass forms is at most ``(2n - 1) S + (2n -
1) log L + (n - 1) log 4`` in magnitude, ``S`` the largest ``|s + log M|``
over the admitted labels (there are fewer than ``4^(n-1)`` bracketings).
Every entry point first compares each chart's largest ``|s|``, its
``peak``, with :func:`_score_limit`: the ``S`` at which that bound reaches
the largest double, less 745 for ``log M`` of any positive mask weight.
A chart beyond it raises :class:`~treecrf.errors.NonFiniteLoss` naming
its batch position before any pass runs; within it no log value
overflows, so a root is -inf only where the mask admits no full tree, and
no pass looks for overflow.  Only a loss, the difference of two roots,
can still overflow, and raises the same way.

The scaled pass is exact, to rounding, for every chart whose values keep
to a window of a double's exponent range, which :func:`_certified`
checks: label exponentials and label parts of at least 2^-60, scaled label
parts of at least 2^-200 and every nonzero ``beta~`` within 2^(+-400).
Scorer charts, normalized to unit variance, keep well inside it.  The
charts it does not certify, raw scores spread over hundreds of nats, are
redone as one batch in the log semiring, exactly; so every chart's values
are the ones it gets alone, whatever the batch.

Every structured entry point is one check, :func:`_check_batch` (a
``None`` mask: unmasked) or, where every chart needs its mask,
:func:`_check_masked`, and one kernel call.  CKY, :func:`batch_cky_decode`,
walks each chart's tree back from its own root through the argmax the
pass keeps.  Posteriors are the gradient of the roots (inside-outside
as backpropagation): :func:`_posteriors` takes it by one outside sweep,
:func:`_outside`, in pull form over the same table, widest first from
every row's own root, and turns the packed label exponentials of the
whole batch into posteriors in place.  A cell's share of its chart's
trees is its ``beta`` times the sum, over its parents, of the parent's
share per split sum, its ratio, times the sibling's ``beta``; a second
table, shaped like the pass's, keeps the ratios, and each width is two
fused product-sums over views of the two tables, one per role of the
cell, left or right child, each cell's terms in order.  A parent outside
a chart has a ratio of exactly 0 (-inf in the log semiring), so the
padded terms add exact zeros and each cell's sum is the one it gets
alone.  The sweep serves both sum-product semirings; each semiring keeps
its own product-sum, ratio and label step.
:func:`batch_loss_and_score_gradient` runs the sentences longest first in
consecutive blocks within ``DECODE_CHUNK_CELLS`` padded cells, the one
bound that also caps a decode chunk of :func:`treecrf.train.batch_predict`.
Each block's unmasked and masked charts run through that pair as one
batch, and the two halves are subtracted once per block.  A chart's values
do not depend on its batch, so every loss and gradient equals the
sentence's alone, ``inside - masked_inside`` and the difference of the two
:func:`marginals`, bit for bit; only :func:`marginals` unpacks its result
into an ``(n, n, L)`` square.
:func:`vanilla_partial_marginalization` keeps its own cell-by-cell loop
in the log domain as the reference the kernel is checked against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from operator import index
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .chart import (
    ChartMask,
    LabelSchema,
    NodeKind,
    PartialTree,
    ScoreChart,
    Span,
    _check_observed,
    packed_index,
    span_positions,
    unpack_cells,
)
from .errors import DegenerateChart, DimensionMismatch, NonFiniteLoss

# The one bound on the padded chart of a kernel call cut from a larger
# batch: a block of batch_loss_and_score_gradient (two rows per sentence)
# and a decode chunk of train.batch_predict (one row per sentence) grow
# while their rows times the span cells n (n + 1) / 2 of their longest
# sentence stay within this many cells; a longer sentence runs alone.
# Either way every value is the one the sentence gets alone.
DECODE_CHUNK_CELLS = 2**15

# Smallest positive double; lets log() skip the undefined log(0) lanes
# without an errstate context (the -inf branch is selected separately), and
# as a divisor's floor keeps 0 / 0 at 0.
_TINY = 5e-324


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp that maps all-(-inf) slices to -inf.

    Over the leading axis of a kernel width, every cell sums its terms in
    order; numpy sums the terms of a lone cell pairwise instead, so those
    are accumulated.
    """
    m = x.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    terms = np.exp(x - shift)
    if axis == 0 and terms.ndim > 1 and terms.size == len(terms):
        total = np.add.accumulate(terms)[-1]
    else:
        total = terms.sum(axis=axis)
    out = np.where(total > 0.0, np.log(np.maximum(total, _TINY)), -np.inf)
    return out + np.squeeze(shift, axis=axis)


@dataclass(frozen=True)
class FullTree:
    """A full labeled binary bracketing: exactly ``2n - 1`` labeled spans.

    The tree is just its nodes ``(i, j, k)``, stored in document order
    (start ascending, end descending), which coincides with preorder
    traversal.  Construction validates that the length, offsets and labels
    are integers (numpy's too) and that the spans form a binary tree whose
    children exactly partition their parent, raising ``ValueError``.
    """

    n: int
    nodes: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        nodes = tuple(sorted(self.nodes, key=lambda t: (t[0], -t[1])))
        object.__setattr__(self, "nodes", nodes)
        try:
            n = index(self.n)
            if len(nodes) != 2 * n - 1:
                raise ValueError(f"expected {2 * n - 1} nodes, got {len(nodes)}")
            for i, j, k in nodes:
                if not (0 <= index(i) <= index(j) < n) or index(k) < 0:
                    raise ValueError(f"bad node ({i}, {j}, {k})")
        except TypeError:
            raise ValueError("tree length, offsets and labels must be integers") from None
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


def _score_limit(n: int, labels: int) -> float:
    """The largest ``|s|`` a chart of ``n`` tokens and ``labels`` labels may
    hold: ``(DBL_MAX - (n - 1) log 4) / (2n - 1) - log L - 745``, less a
    relative 1e-9 that covers the rounding of sums of ``2n - 1`` terms for
    any ``n`` a chart fits in memory with."""
    limit = (sys.float_info.max - (n - 1) * math.log(4)) / (2 * n - 1)
    return (limit - math.log(labels) - 745) * (1 - 1e-9)


def _check_batch(
    charts: Sequence[ScoreChart],
    masks: Sequence[ChartMask | None],
    kernel: str = "the inside pass",
) -> None:
    """Validate a batch of charts and their masks (``None``: unmasked).

    A chart whose ``peak`` exceeds :func:`_score_limit` raises
    :class:`NonFiniteLoss` naming its batch position and the ``kernel``
    that would overflow on it; within the limit no pass needs to look for
    overflow.
    """
    if len(charts) != len(masks):
        raise DimensionMismatch("need one mask per chart")
    for b, (chart, mask) in enumerate(zip(charts, masks)):
        if chart.n == 0:
            raise DegenerateChart("chart over zero tokens")
        if mask is not None and mask.cells.shape != chart.cells.shape:
            raise DimensionMismatch(
                f"mask cells {mask.cells.shape} do not match chart cells "
                f"{chart.cells.shape}"
            )
        if chart.cells.shape[1] != charts[0].cells.shape[1]:
            raise DimensionMismatch("charts in a batch must share a label count")
        limit = _score_limit(chart.n, chart.cells.shape[1])
        if chart.peak > limit:
            detail = f"{chart.n} tokens, max |score| {chart.peak:.3e} > {limit:.3e}"
            raise _overflow(b, f"{kernel} would overflow ({detail})")


def _overflow(position: int, detail: str) -> NonFiniteLoss:
    """The error for the chart or loss at batch ``position`` that overflows."""
    return NonFiniteLoss(f"batch position {position}: {detail}", position=position)


def _check_masked(charts: Sequence[ScoreChart], masks: Sequence[ChartMask]) -> None:
    """:func:`_check_batch` of a batch in which every chart needs its mask."""
    _check_batch(charts, masks)
    for b, mask in enumerate(masks):
        if mask is None:
            raise DimensionMismatch(f"missing mask at batch position {b}")


def _split_operands(table: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right children of every split of the width-``w`` cells,
    ``(w - 1, n - w + 1, rows)`` each, as views of ``table`` (see
    :class:`_Pass`).

    ``left[t, i]`` is cell ``(i, i + t)``: the first ``w - 1`` diagonals as
    they are.  ``right[t, i]`` is cell ``(i + t + 1, i + w - 1)``, diagonal
    ``w - 2 - t`` at start ``i + t + 1``: the same diagonals in reverse,
    each read one start further right.  With the two leading axes read as
    one, a step of ``n`` goes one diagonal on and one start left, so a
    slice and a reshape give that view, never a copy, also of a prefix of
    the rows.
    """
    n, cols = table.shape[1] - 1, table.shape[1] - w
    left = table[: w - 1, :cols]
    run = table.reshape(-1, table.shape[-1])[w - 1 : (w - 1) * (n + 1)]
    return left, run.reshape(w - 1, n, -1)[::-1, :cols]


@dataclass(eq=False)
class _Pass:
    """What one :func:`_inside_pass` builds and leaves behind.

    ``table[w - 1, i, row]`` holds cell ``(i, i + w - 1)`` of the chart in
    ``row``: one diagonal per width, indexed by start, with the rows
    innermost, longest first; ``(n, n + 1, rows)`` for the longest length
    ``n``, whose last start only pads the views of :func:`_split_operands`
    and :func:`_parent_operands`.  Each cell is stored once.  Width ``w``
    runs over the first ``rows[w]`` rows, so every operand of a width is a
    view whose contiguous runs hold those rows.  Positions index
    ``table.ravel()``; per-chart fields are in the order the charts were
    given.  The semiring fills the rest.
    """

    slots: list[slice]  # each chart's cells in the packed arrays
    starts: list[int]  # and where they start
    table: np.ndarray
    n: int
    cells: np.ndarray  # each packed cell's position
    row: np.ndarray  # each chart's row of the table
    lengths: np.ndarray
    root_cells: np.ndarray  # each chart's root position, cell (0, n_b - 1)
    potentials: np.ndarray | None = None  # every chart's span cells, packed
    value: np.ndarray | None = None  # label part of each packed cell
    arg: np.ndarray | None = None  # and what an additive reduction keeps of it
    # per width w >= 2: how many rows, longest first, are at least w long,
    # and what the split keeps of them, (n - w + 1, rows): the split argmax
    # (CKY), or what the one outside sweep of both sum-product semirings
    # reads, the split sums (scaled real) or the split log-sum-exps (log)
    rows: list[int] = field(default_factory=lambda: [0, 0])
    split: list = field(default_factory=lambda: [None, None])
    # sum-product: each chart's mask weights, packed like the potentials;
    # scaled real: each chart's smallest nonzero label part (or a label
    # exponential below _LABEL_LOW), and per row its log offset per node
    # and the largest it held
    weights: np.ndarray | None = None
    label_low: np.ndarray | None = None
    offset: np.ndarray | None = None
    offset_high: np.ndarray | None = None


class _Semiring(NamedTuple):
    """How :func:`_inside_pass` seeds and combines a chart.

    ``seed(p, charts, masks)`` takes the label part of every span cell of
    the batch and writes it to the table; ``split(p, rows, w)`` combines
    the children of every split of the width-``w`` cells of the first
    ``rows`` rows, reduces over the splits and writes the cells.  Max-plus
    and the log semiring are both additive: one seed and one split, made
    by :func:`_additive` from the reductions, serve them.  The two
    sum-product semirings, scaled real and log, share one outside sweep,
    :func:`_outside`.
    """

    seed: Callable[[_Pass, Sequence[ScoreChart], Sequence[ChartMask | None]], None]
    split: Callable[[_Pass, int, int], None]


# An additive semiring's reduction: the reduced values and what the pass keeps.
_Reduction = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _root_values(p: _Pass) -> np.ndarray:
    return p.table.ravel()[p.root_cells]


def _by_mask(
    p: _Pass, masks: Sequence[ChartMask | None], out: np.ndarray, fill: float, name: str
) -> None:
    """Write ``fill`` to the packed cells of the unmasked charts in ``out``,
    which come first, and each mask's array ``name`` to those of the others,
    by one concatenation."""
    unmasked = sum(mask is None for mask in masks)
    first = (p.starts + [len(p.cells)])[unmasked]
    out[:first] = fill
    if first < len(p.cells):
        arrays = [getattr(mask, name) for mask in masks[unmasked:]]
        np.concatenate(arrays, out=out[first:])


def _packed(
    p: _Pass, charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None]
) -> None:
    """Every chart's span cells packed into ``p.potentials``, ``(cells, L)``,
    and their mask weights into ``p.weights``, 1 for an unmasked chart."""
    # One allocation for both: with glibc's malloc, two large arrays freed
    # together go back to the system and every call faults them in again
    # (a quarter of a 32 x 40 batched_masked_inside call).
    p.potentials, p.weights = np.empty((2, len(p.cells), charts[0].cells.shape[1]))
    np.concatenate([chart.cells for chart in charts], out=p.potentials)
    _by_mask(p, masks, p.weights, 1.0, "cells")


def _additive(label: _Reduction, split: _Reduction) -> _Semiring:
    """The seed and split of an additive semiring, given its reductions,
    ``label`` over the last axis and ``split`` over the first.

    The label part of a cell is ``label_k (s_k + log m_k)``; an unmasked
    batch (its last chart is unmasked, as the unmasked come first), as
    CKY's always is, reduces the potentials as they are, and a masked one
    adds the log mask weights first (-inf for a rejected label).
    The width-``w`` cells are ``u + split_t (left_t + right_t)``.
    """

    def seed(
        p: _Pass, charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None]
    ) -> None:
        if masks[-1] is None:
            p.potentials = np.concatenate([chart.cells for chart in charts])
        else:
            _packed(p, charts, masks)
            p.potentials += np.log(p.weights, out=p.weights)
        p.value, p.arg = label(p.potentials)
        p.table.ravel()[p.cells] = p.value

    def split_width(p: _Pass, rows: int, w: int) -> None:
        table = p.table[..., :rows]
        left, right = _split_operands(table, w)
        value, kept = split(left + right)
        p.split.append(kept)
        table[w - 1, : p.n - w + 1] += value

    return _Semiring(seed, split_width)


def _label_max_argmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and first argmax over the short last axis of ``x``, column by
    column: numpy reduces a short last axis row by row, at about three
    times the cost on a batch's cells.  A later label takes over only
    where it is larger, so a tie keeps the lowest label."""
    best = x[:, 0].copy()
    arg = np.zeros(len(x), dtype=np.intp)
    for k in range(1, x.shape[1]):
        column = x[:, k]
        arg[column > best] = k
        np.maximum(best, column, out=best)
    return best, arg


# CKY, unmasked: max and first argmax over labels and splits, node + (left +
# right); the splits run in ascending order, so a tie keeps the lowest.
_MAX_PLUS = _additive(_label_max_argmax, lambda x: (x.max(0), x.argmax(0)))


def _scaled_seed(
    p: _Pass, charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None]
) -> None:
    """Label parts ``u = sum_k m_k exp(s_k)`` in the scaled real semiring:
    one exp over every label of the batch and one fused product with the
    mask weights and sum over the labels, written to the table as ``u
    exp(-kappa)``.

    A chart's offset ``kappa`` is the mean of its ``log u``, each cell
    weighted by its admitted mask weight ``sum_k m_k`` (see
    :class:`~treecrf.chart.ChartMask`), plus ``log 2``; a tree has ``2n -
    1`` nodes and fewer than ``4^(n - 1)`` bracketings, so that keeps its
    cells near 1.  (Unweighted, the mean drifts on masked charts, whose
    rejected cells may hold a smoothing weight.)  ``p.label_low`` keeps
    each chart's smallest nonzero label part, or its smallest label
    exponential where that is below ``_LABEL_LOW``, which fails the chart;
    so whether a chart is certified does not depend on its batch.  A batch
    whose every ``peak`` is below ``_PEAK_LOW`` holds no label exponential
    that small and skips that scan.  ``p.offset_high`` keeps the largest
    offset each row holds, for :func:`_certified`.
    """
    _packed(p, charts, masks)
    q = np.exp(p.potentials, out=p.potentials)
    p.value = np.einsum("ij,ij->i", q, p.weights)
    p.label_low = np.minimum.reduceat(np.where(p.value > 0.0, p.value, 1.0), p.starts)
    if max(chart.peak for chart in charts) >= _PEAK_LOW and q.min() < _LABEL_LOW:
        exps = np.array([q[slot].min() for slot in p.slots])
        p.label_low[exps < _LABEL_LOW] = exps[exps < _LABEL_LOW]
    admitted = np.empty(len(p.cells))
    _by_mask(p, masks, admitted, charts[0].cells.shape[1], "admitted")
    mean = np.add.reduceat(admitted * np.log(np.maximum(p.value, _TINY)), p.starts)
    mean /= np.maximum(np.add.reduceat(admitted, p.starts), _TINY)
    # in row order: each row's offset, and the largest it has held
    p.offset, p.offset_high = np.tile((mean + math.log(2))[np.argsort(p.row)], (2, 1))
    p.table.ravel()[p.cells] = p.value
    p.table *= np.exp(-p.offset)


def _scaled_split(p: _Pass, rows: int, w: int) -> None:
    """The width-``w`` cells: ``u * sum_t left_t * right_t``, by one fused
    product-sum over the splits, the outer axis, which every cell sums in
    split order whatever the rows; the offsets cancel, as the children of
    a split hold ``2w - 2`` nodes.  Every ``_REBASE_EVERY`` widths,
    :func:`_rebase` keeps each row's values in range."""
    table = p.table[..., :rows]
    total = np.einsum("tib,tib->ib", *_split_operands(table, w))
    p.split.append(total)
    cells = table[w - 1, : p.n - w + 1]
    cells *= total
    if w % _REBASE_EVERY == 0:
        _rebase(p, cells, w)


def _rebase(p: _Pass, cells: np.ndarray, w: int) -> None:
    """Move the offset of each row whose width-``w`` ``cells``' max ``M``
    has left ``2^(+-_REBASE_WINDOW)`` by ``d = log M / (2w - 1)``, making
    ``M`` 1.

    The row's diagonals of width ``v <= w`` are scaled by ``exp(-d (2v -
    1))``, its label parts still to come by ``exp(-d)`` and its kept split
    sums by ``exp(-d (2v - 2))``.  Only the row's own values decide, so
    every chart's values are those it gets alone.  A row whose max is 0,
    infinite or NaN keeps its offset and is left to :func:`_certified`, and
    so is a row that holds a nonzero cell outside the certified window when
    it is rebased: its largest offset becomes NaN, which fails it.
    """
    top = cells.max(axis=0)
    # the binary exponent of 0, inf or NaN is 0
    far = np.flatnonzero(np.abs(np.frexp(top)[1]) > _REBASE_WINDOW)
    if len(far):
        d = np.log(top[far]) / (2 * w - 1)
        width = np.arange(1, p.n + 1)
        # cells of width v <= w hold 2v - 1 nodes; a label part still to come, 1
        nodes = np.where(width <= w, 2 * width - 1, 1)
        rows = p.table[..., far]
        # a row holding a cell outside the certified window fails: the
        # scaling could take that cell to 0, or back inside
        exponent = np.abs(np.frexp(rows)[1]).max(axis=(0, 1))
        p.offset_high[far[exponent > _CELL_EXPONENT]] = np.nan
        rows *= np.exp(-np.outer(nodes, d))[:, None]
        p.table[..., far] = rows
        for v in range(2, w + 1):
            p.split[v][:, far] *= np.exp(-d * (2 * v - 2))
        p.offset[far] += d
        np.maximum(p.offset_high, p.offset, out=p.offset_high)


def _scaled_read_out(p: _Pass) -> np.ndarray:
    """``log beta~ + (2 n_b - 1) kappa`` at each root; -inf where ``beta~``
    is 0.  The caller silences ``log(0)``; a root that is negative or not
    finite fails :func:`_certified` and is redone."""
    return np.log(_root_values(p)) + (2 * p.lengths - 1) * p.offset[p.row]


def _parent_operands(
    table: np.ndarray, ratio: np.ndarray, w: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The parents' ratios and the siblings of every width-``w`` cell, as
    views of the ratio table and of ``table``, shaped like the pass's (see
    :class:`_Pass`): ``(ratio, sibling)`` for the cell as a left child and
    as a right child, over the same ``t`` per term.

    As a left child, cell ``(i, i + w - 1)`` has the parent ``(i, i + w +
    t)``, ``ratio[w + t, i]``, and the sibling ``(i + w, i + w + t)``,
    ``table[t, i + w]``: straight views, ``(n - w, n - w + 1, rows)``.  As
    a right child, at a start ``i >= 1``, it has the parent ``(i - t - 1,
    i + w - 1)``, ``ratio[w + t, i - t - 1]``, and the sibling ``(i - t -
    1, i - 1)``, ``table[t, i - t - 1]``: with the two leading axes read as
    one, a step of ``n`` goes one diagonal on and one start left, so a
    slice and a reshape give those views from start 1, ``(n - w, n - w,
    rows)``, as :func:`_split_operands` gives the right children.  A term
    past a cell's own parents reads a parent outside its chart, whose
    ratio is the pad (see :func:`_outside`): past the chart's end, or, for
    ``t >= i`` of a right child, at the end of the diagonal before, past
    the cells of every chart.
    """
    n, cols = table.shape[1] - 1, table.shape[1] - w

    def sheared(x: np.ndarray, first: int) -> np.ndarray:
        run = x.reshape(-1, x.shape[-1])[first : first + (n - w) * n]
        return run.reshape(n - w, n, -1)[:, : cols - 1]

    left = ratio[w:, :cols], table[: n - w, w:]
    return left, (sheared(ratio, w * (n + 1)), sheared(table, 0))


def _outside(
    p: _Pass, root: np.ndarray, pad: float, pull: Callable, ratio: Callable
) -> np.ndarray:
    """``g``, each packed cell's share of its chart's trees, by one pull
    sweep over the inside pass's table; it serves both sum-product
    semirings, ``g`` in the semiring's own domain.

    ``g`` starts at ``root`` on each row's own root and at ``pad``, the
    semiring's 0, everywhere else, and so does a second table shaped like
    the pass's, which holds each cell's ratio ``g / split`` once its width
    is done.  Widest first, over the same rows as the inside pass at each
    width, ``pull(cell, beta, left, right)`` adds to every cell's ``g`` its
    ``beta`` times the sum of its parents' ratios times its siblings, over
    each role's views from :func:`_parent_operands` in order of the
    sibling's width; ``ratio(cell, kept, out)`` then writes the cells'
    ratios from what the semiring's split kept.  Every term a view reads
    outside a chart's own cells has a ratio of exactly ``pad``: the ratio
    table starts at ``pad``, and a cell outside a chart has parents only
    outside it, so its share and its ratio stay ``pad`` (the scaled pass
    holds 0 there, in a chart it certifies).  So the padded terms of a
    cell, which come after its own, each add an exact 0 to a sum taken in
    order, and every cell sums the terms it gets alone, whatever its batch.
    """
    n = p.n
    g, ratios = np.full((2, *p.table.shape), pad)
    g.ravel()[p.root_cells] = root
    for w in range(n, 0, -1):
        rows, cols = p.rows[w] if w > 1 else p.table.shape[-1], n - w + 1
        cell = g[w - 1, :cols, :rows]
        if w < n:
            beta = p.table[w - 1, :cols, :rows]
            table, r = p.table[..., :rows], ratios[..., :rows]
            pull(cell, beta, *_parent_operands(table, r, w))
        if w > 1:
            ratio(cell, p.split[w], out=ratios[w - 1, :cols, :rows])
    return g.ravel()[p.cells]


def _scaled_posteriors(p: _Pass) -> np.ndarray:
    """Span-label posteriors ``mu = g * m exp(s) / u``, ``g`` from
    :func:`_outside`; the label exponentials become the posteriors in
    place, for the whole batch at once."""

    def pull(cell, beta, left, right):
        # two fused product-sums over the outer axis, each cell's terms in
        # order; a cell at start 0 is no right child
        total = np.einsum("tib,tib->ib", *left)
        total[1:] += np.einsum("tib,tib->ib", *right)
        cell += np.multiply(beta, total, out=total)

    def ratio(cell, total, out):
        # A cell whose split sum is 0 is itself 0, so it has no share and
        # passes none on; the division is exact for every nonzero total a
        # certified pass holds (at least 2^-800).
        np.divide(cell, total + _TINY, out=out)

    g = _outside(p, _root_values(p) > 0.0, 0.0, pull, ratio)
    mu = np.multiply(p.potentials, p.weights, out=p.potentials)
    # a cell whose labels are all rejected has no share: 0 / TINY
    mu *= (g / (p.value + _TINY))[:, None]
    # Rounding can overshoot 1 by an ulp; the posterior is a probability.
    return np.clip(mu, 0.0, 1.0, out=mu)


# Inside: sum-product on beta~ = exp(beta - kappa (2w - 1)) at width w, with
# one log offset kappa per row and node.
_SCALED_REAL = _Semiring(_scaled_seed, _scaled_split)

# Every fourth width, a row whose max at that width has left 2^(+-200) is
# rebased (the window is a binary exponent).
_REBASE_EVERY, _REBASE_WINDOW = 4, 200

# What the scaled real pass holds exactly: label exponentials and nonzero
# label parts of at least 2^-60, nonzero scaled label parts of at least
# 2^-200, and nonzero beta~ within 2^(+-400).  Every product the pass and
# its sweep form then stays within 2^(+-1000), so no value overflows or
# underflows and every 0 is a rejection.
_LABEL_LOW, _PART_LOW, _CELL_EXPONENT = 2.0**-60, 2.0**-200, 400

# Scores above -_PEAK_LOW have label exponentials above exp(-41) > 2^-60.
_PEAK_LOW = 41.0


def _certified(p: _Pass) -> np.ndarray:
    """Per chart: whether its scaled real pass stayed inside those bounds.

    The scaled label parts are at least the chart's smallest label part
    times ``exp(-kappa)`` for the largest offset its row held.  A NaN
    anywhere fails the chart.  Every cell is checked as it ends the pass,
    and, in a row :func:`_rebase` scales, as it was before each rebase, so
    the window held at every split.
    """
    beta = p.table.ravel()[p.cells]
    beta[beta == 0.0] = 1.0
    low, high = (f.reduceat(beta, p.starts) for f in (np.minimum, np.maximum))
    parts = p.label_low * np.exp(-p.offset_high[p.row])
    cells = (low >= 2.0**-_CELL_EXPONENT) & (high <= 2.0**_CELL_EXPONENT)
    return cells & (p.label_low >= _LABEL_LOW) & (parts >= _PART_LOW)


def _log_posteriors(p: _Pass) -> np.ndarray:
    """:func:`_scaled_posteriors` in the log semiring, ``mu = exp(s + log m
    - u + g)`` with ``g`` a log share; the ratios' pad is -inf."""

    def pull(cell, beta, left, right):
        total = _lse(np.add(*left), 0)
        total[1:] = np.logaddexp(total[1:], _lse(np.add(*right), 0))
        np.logaddexp(cell, np.add(beta, total, out=total), out=cell)

    def ratio(cell, value, out):
        np.subtract(cell, np.where(value > -np.inf, value, 0.0), out=out)

    root = np.where(_root_values(p) > -np.inf, 0.0, -np.inf)
    g = _outside(p, root, -np.inf, pull, ratio)
    mu = p.potentials
    mu -= np.where(p.value > -np.inf, p.value, 0.0)[:, None]
    mu += g[:, None]
    np.exp(mu, out=mu)
    return np.clip(mu, 0.0, 1.0, out=mu)


# Inside in the log semiring, for the charts the scaled pass cannot hold; the
# split keeps its log-sum-exps for the outside sweep.
_LOG = _additive(lambda x: (_lse(x, -1),) * 2, lambda x: (_lse(x, 0),) * 2)


def _inside_pass(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None], semiring: _Semiring
) -> _Pass:
    """The chart recursion over a checked, non-empty batch of charts.

    The unmasked charts (mask ``None``) come first; charts may differ in
    length.  The semiring seeds the table with the label part of every
    cell of the batch at once.  Then the split recursion runs one width at
    a time over all start positions of every row long enough for that
    width (a prefix, since rows are longest first), reading the split
    operands as views of the table.  Cells of a row past its own length
    hold finite values that no cell of its chart reads, because a cell's
    splits stay inside its span.
    """
    lengths = [chart.n for chart in charts]
    sizes = [m * (m + 1) // 2 for m in lengths]
    n = max(lengths)
    starts = list(accumulate(sizes, initial=0))
    unmasked = sum(mask is None for mask in masks)
    assert all(mask is None for mask in masks[:unmasked]), "unmasked charts first"
    # Rows longest first, in a stable order.  Chart b's cell (i, j) is
    # P = b n^2 + i n + j in a stack of (n, n) squares, and (j - i, i, row)
    # in the table: (n + 2) (P mod n) - P = (j - i)(n + 1) + i - b n^2.
    count = len(charts)
    order = sorted(range(count), key=lambda b: -lengths[b])
    row = np.argsort(order)
    square = span_positions(lengths, n)
    cells = (n + 2) * (square % n) - square
    cells *= count
    cells += np.repeat(np.arange(count) * n * n * count + row, sizes)
    p = _Pass(
        [slice(a, b) for a, b in zip(starts, starts[1:])],
        starts[:-1],
        np.zeros((n, n + 1, count)),
        n,
        cells,
        row,
        np.array(lengths),
        (np.array(lengths) - 1) * (n + 1) * count + row,
    )
    semiring.seed(p, charts, masks)
    for w in range(2, n + 1):
        while lengths[order[count - 1]] < w:
            count -= 1  # rows at least w long
        p.rows.append(count)
        semiring.split(p, count, w)
    return p


class _Inside(NamedTuple):
    """One batch's inside pass: the scaled real pass, each chart's log
    root, and the charts it could not hold, redone in the log semiring."""

    scaled: _Pass
    roots: np.ndarray
    redone: list[int]
    log: _Pass | None


def _inside(charts: Sequence[ScoreChart], masks: Sequence[ChartMask | None]) -> _Inside:
    """The inside pass of a checked, non-empty batch and each chart's log root.

    The batch runs in the scaled real semiring; the charts that pass could
    not hold exactly (see :func:`_certified`) run again, as one batch, in
    the log semiring.  Each chart's values are therefore those it gets
    alone.  The scaled pass may overflow on the charts it redoes, and a
    log-sum-exp's shift may overflow to -inf (a term of 0); the checked
    range keeps every log root finite, or -inf where the mask admits no
    full tree.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = _inside_pass(charts, masks, _SCALED_REAL)
        roots = _scaled_read_out(p)
        redone = np.flatnonzero(~_certified(p)).tolist()
        log = None
        if redone:
            log = _inside_pass(
                [charts[b] for b in redone], [masks[b] for b in redone], _LOG
            )
            roots[redone] = _root_values(log)
    return _Inside(p, roots, redone, log)


def _posteriors(inside: _Inside) -> np.ndarray:
    """Span-label posteriors of every packed cell of the batch, ``(cells, L)``."""
    if not inside.redone:
        return _scaled_posteriors(inside.scaled)
    # the rows the log semiring redoes may hold any value in the scaled
    # pass, and their log differences may overflow to -inf (a posterior of 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu = _scaled_posteriors(inside.scaled)
        redone = _log_posteriors(inside.log)
    for b, slot in zip(inside.redone, inside.log.slots):
        mu[inside.scaled.slots[b]] = redone[slot]
    return mu


def inside(chart: ScoreChart) -> float:
    """Log partition function over all full labeled binary trees."""
    _check_batch([chart], [None])
    return float(_inside([chart], [None]).roots[0])


def masked_inside(chart: ScoreChart, mask: ChartMask) -> float:
    """Log-sum of scores of all full trees compatible with the mask.

    The mask weights multiply the label exponentials, so a rejected cell
    is an exact 0; an all-ones mask reproduces :func:`inside` bit for bit,
    and a mask that admits no full tree gives -inf.
    """
    _check_masked([chart], [mask])
    return float(_inside([chart], [mask]).roots[0])


def vanilla_partial_marginalization(chart: ScoreChart, tree: PartialTree) -> float:
    """Reference partial marginalization with per-cell branching.

    Walks the chart cell by cell: observed cells contribute only their
    annotated label(s), latent cells sum over latent labels, rejected
    cells are excluded (log-score -inf), all in the log domain.
    Slow on purpose; it is the per-sentence baseline the batched masked
    path is checked and benchmarked against.
    """
    _check_batch([chart], [None])
    if tree.n != chart.n:
        raise DimensionMismatch(f"tree over {tree.n} tokens but chart over {chart.n}")
    labels = [k for ks in tree.observed_label.values() for k in ks]
    _check_observed(np.array(labels, dtype=np.intp), chart.schema)
    s = chart.s
    n = chart.n
    n_observed = chart.schema.n_observed
    beta = np.full((n, n), np.nan)
    # a log-sum-exp's shift may overflow to -inf (a term of 0)
    with np.errstate(over="ignore"):
        for w in range(1, n + 1):
            for i in range(n - w + 1):
                j = i + w - 1
                kind = tree.node_kind[i, j]
                if kind == NodeKind.REJECTED:
                    beta[i, j] = -np.inf
                    continue
                if kind == NodeKind.OBSERVED:
                    ks = list(tree.observed_label[(i, j)])
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
    """Log conditional probability of the partial tree the mask encodes:
    ``masked_inside - inside``, both roots from one kernel call."""
    _check_masked([chart], [mask])
    # 0.0 - loss: +0.0, not -0.0, where the two roots are equal
    return 0.0 - float(_losses(_inside([chart, chart], [None, mask]).roots)[0])


def _losses(roots: np.ndarray) -> np.ndarray:
    """``inside - masked_inside`` of each sentence, from the roots of every
    unmasked chart and then every masked one.

    A loss is inf where the mask admits no full tree; one that overflows
    although its masked root is finite raises :class:`NonFiniteLoss`
    naming its batch position.
    """
    count = len(roots) // 2
    with np.errstate(over="ignore"):
        losses = roots[:count] - roots[count:]
    overflowed = np.flatnonzero(np.isinf(losses) & np.isfinite(roots[count:]))
    if len(overflowed):
        b = int(overflowed[0])
        detail = f"inside {roots[b]:.3e}, masked inside {roots[count + b]:.3e}"
        raise _overflow(b, f"the loss overflows ({detail})")
    return losses


def marginals(chart: ScoreChart, mask: ChartMask | None = None) -> np.ndarray:
    """Posterior probability ``mu[i, j, k]`` of each span-label pair.

    Returns an ``(n, n, L)`` array: the gradient of the (masked) log
    partition function with respect to each potential ``s[i, j, k]``.
    Cells below the diagonal are zero.
    """
    _check_batch([chart], [mask])
    mu = _posteriors(_inside([chart], [mask]))
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

    After one check of the whole batch, the sentences run longest first in
    consecutive blocks, each within the padded cells of
    ``DECODE_CHUNK_CELLS`` (see :func:`_blocks`).  Each block's unmasked
    and then masked charts run through the kernel as one batch, and its
    packed gradient is one subtraction of the two halves of the
    posteriors, after which the pass's buffers are released; each
    sentence's gradient is a view of it, shaped like its ``chart.cells``.
    A chart's values do not depend on its batch, so every value is
    bit-identical to the sentence alone, to ``inside - masked_inside`` and
    to the difference of the two :func:`marginals` at the span cells.  The
    losses are taken once, in input order, so a loss that overflows is
    named by its position in ``charts``.
    """
    _check_masked(charts, masks)
    count = len(charts)
    roots = np.empty((2, count))
    grads: list[np.ndarray | None] = [None] * count
    for block in _blocks(charts):
        roots[:, block], block_grads = _block_gradients(
            [charts[b] for b in block], [masks[b] for b in block]
        )
        for b, grad in zip(block, block_grads):
            grads[b] = grad
    return zip(_losses(roots.ravel()).tolist(), grads)


def _blocks(charts: Sequence[ScoreChart]) -> Iterator[list[int]]:
    """Batch positions, longest chart first in a stable order, cut into
    consecutive blocks.  A block grows while its rows, an unmasked and a
    masked one per sentence, times the span cells of its longest (first)
    chart stay within ``DECODE_CHUNK_CELLS``; a longer chart runs alone."""
    order = sorted(range(len(charts)), key=lambda b: -charts[b].n)
    while order:
        size = max(1, DECODE_CHUNK_CELLS // (2 * len(charts[order[0]].cells)))
        yield order[:size]
        order = order[size:]


def _block_gradients(
    charts: Sequence[ScoreChart], masks: Sequence[ChartMask]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The roots, ``(2, B)`` unmasked over masked, and each sentence's
    packed score gradient, of one checked block run as one batch."""
    count = len(charts)
    inside = _inside([*charts, *charts], [None] * count + list(masks))
    mu = _posteriors(inside)
    slots = inside.scaled.slots[:count]
    grad = mu[: slots[-1].stop] - mu[slots[-1].stop :]
    return inside.roots.reshape(2, count), [grad[slot] for slot in slots]


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
    tree, ties included, is the one its chart gets alone.  The values are
    tree scores, at most ``(2n - 1) max |s|`` in magnitude, which the
    checked range keeps finite.
    """
    _check_batch(charts, [None] * len(charts), "CKY")
    if not charts:
        return []
    best = _inside_pass(charts, [None] * len(charts), _MAX_PLUS)
    # each chart's row of the table, and the argmax as Python lists:
    # the walk reads one element per node
    labels = best.arg.tolist()
    splits = [None, None] + [arg.tolist() for arg in best.split[2:]]
    trees = []
    for chart, slot, row in zip(charts, best.slots, best.row.tolist()):
        n = chart.n
        nodes: list[tuple[int, int, int]] = []
        stack = [(0, n - 1)]
        while stack:
            i0, j0 = stack.pop()
            nodes.append((i0, j0, labels[slot.start + packed_index(i0, j0, n)]))
            if i0 < j0:
                m = i0 + splits[j0 - i0 + 1][i0][row]
                stack.append((m + 1, j0))
                stack.append((i0, m))
        trees.append(FullTree(n=n, nodes=tuple(nodes)))
    return trees


def extract_entities(tree: FullTree, schema: LabelSchema) -> list[Span]:
    """Tree nodes carrying observed labels, in document order."""
    n_observed = schema.n_observed
    return [Span(i, j, k) for i, j, k in tree.nodes if k < n_observed]


def _check_tree_labels(tree: FullTree, schema: LabelSchema) -> None:
    k, n_labels = max(k for _, _, k in tree.nodes), schema.n_labels
    if k >= n_labels:
        raise DimensionMismatch(f"tree label index {k} outside {n_labels} labels")


def tree_score(chart: ScoreChart, tree: FullTree) -> float:
    """Sum of a tree's node potentials.

    Associates the sum exactly as the chart recursions do
    (node + (left subtree + right subtree)), so a decoded tree's score is
    bit-identical to the decoder's root value.  A stack evaluates the
    reversed preorder: a leaf pushes its potential, an internal node pops
    its left and then its right subtree's score and pushes its own.  The
    chart must lie in the range CKY checks, which keeps the sum finite.
    """
    if tree.n != chart.n:
        raise DimensionMismatch(f"tree over {tree.n} tokens, chart over {chart.n}")
    _check_batch([chart], [None], "tree_score")
    _check_tree_labels(tree, chart.schema)
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
    _check_tree_labels(tree, schema)
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
    return _inside(charts, masks).roots
