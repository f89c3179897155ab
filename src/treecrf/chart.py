"""Chart data types, annotation validation, node classification, and masks.

Span indexing convention: everything in this module (and the rest of the
package) is 0-based and end-INCLUSIVE, matching the chart dynamic programs.
Corpus files use 0-based end-EXCLUSIVE offsets; the conversion happens in
exactly one place, :func:`validate_annotation` (and its inverse during
serialization).

A chart over an ``n``-token sentence has one cell per span ``(i, j)`` with
``0 <= i <= j < n``.  Each cell is classified as one of three node kinds:

* OBSERVED - the span is an annotated entity; only its annotated label(s)
  are admissible.
* REJECTED - the span overlaps an annotated entity without nesting, so no
  tree containing it can embed the annotation.
* LATENT   - anything else; the span may appear in a tree, labeled with a
  latent label.

A validated :class:`PartialTree` carries that classification as its
``node_kind``, built from its annotation when first read by the same rule
(:func:`_node_kinds`) that :func:`smoothed_masks` applies to a whole
length group, so the masks, :func:`smooth_mask` and the vanilla pass use
the one classification the annotation implies (the oracle reads the
annotated spans themselves).  It is turned into a 0/1 mask over every
span cell and label; structure smoothing later relaxes rejected cells
from 0 to a small epsilon.  The cells ``i > j`` below the diagonal stand
for no span; :func:`below_diagonal` marks them.  Score charts and masks
hold their span cells packed: one ``(n(n+1)/2, |labels|)`` array of the
cells of ``~below_diagonal(n)`` in row-major order (:func:`pack_cells`),
the layout the chart kernel reads, of bool, integer or float dtype
(:func:`packed_length`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadConfig,
    CrossingSpans,
    DimensionMismatch,
    EmptySentence,
    EmptySpan,
    OutOfBounds,
    UnknownLabel,
    integer,
)


def below_diagonal(n: int) -> np.ndarray:
    """Boolean ``(n, n)`` mask of the unused cells ``i > j``.

    Indexing a chart with its negation visits the span cells in the same
    row-major order as ``np.triu_indices(n)``.
    """
    j = np.arange(n, dtype=np.min_scalar_type(n))  # small types compare fastest
    return j[:, None] > j


def pack_cells(square: np.ndarray) -> np.ndarray:
    """The span cells of an ``(n, n, ...)`` square, packed as
    ``(n(n+1)/2, ...)``: those of ``~below_diagonal(n)``, row after row."""
    return square[~below_diagonal(len(square))]


def unpack_cells(cells: np.ndarray, n: int) -> np.ndarray:
    """The ``(n, n, L)`` square of packed span cells, 0 below the diagonal."""
    square = np.zeros((n, n, cells.shape[1]))
    square[~below_diagonal(n)] = cells
    return square


def packed_index(i, j, n: int):
    """Where span cell ``(i, j)`` of a length-``n`` chart sits among its
    packed cells: after the ``n - r`` cells of each row ``r < i``.  Takes
    integers or integer arrays."""
    return i * n - i * (i + 1) // 2 + j


def span_positions(lengths: Sequence[int], n: int) -> np.ndarray:
    """Where the span cells of charts of ``lengths`` sit in a stack of
    ``(n, n)`` squares: ``b * n * n + i * n + j`` for cell ``(i, j)`` of
    chart ``b``, in packed order, chart after chart."""
    ends = np.array(lengths) - 1
    return np.flatnonzero(~below_diagonal(n) & (np.arange(n) <= ends[:, None, None]))


def packed_length(cells: np.ndarray) -> int:
    """The sentence length ``n`` of packed span cells ``(n(n+1)/2, L)``.

    The one packed-cells rule, which charts and masks share: the cells are
    a numpy array of bool, integer or floating dtype.  Anything else, a
    list or complex, object or string cells, raises
    :class:`DimensionMismatch`.
    """
    if not isinstance(cells, np.ndarray) or cells.dtype.kind not in "biuf":
        raise DimensionMismatch(
            "span cells must be a numpy array of bool, integer or float dtype"
        )
    if cells.ndim == 2:
        n = (math.isqrt(8 * len(cells) + 1) - 1) // 2
        if n * (n + 1) // 2 == len(cells):
            return n
    raise DimensionMismatch(f"{cells.shape} is not a shape of packed span cells")


class NodeKind(IntEnum):
    OBSERVED = 0
    LATENT = 1
    REJECTED = 2


@dataclass(frozen=True)
class LabelSchema:
    """Observed label names plus a count of anonymous latent labels.

    Label indices are fixed: observed labels occupy ``0 .. n_observed-1``
    in the order given; latent labels occupy the remaining indices up to
    ``n_labels - 1``.
    """

    observed_labels: tuple[str, ...]
    latent_label_count: int = 1

    def __post_init__(self) -> None:
        labels = self.observed_labels
        if not isinstance(labels, (list, tuple)):
            raise BadConfig(f"observed labels must be a list or tuple, got {labels!r}")
        object.__setattr__(self, "observed_labels", tuple(labels))
        if not self.observed_labels:
            raise BadConfig("schema needs at least one observed label")
        if len(set(self.observed_labels)) != len(self.observed_labels):
            raise BadConfig("observed label names must be unique")
        if any(not (isinstance(name, str) and name) for name in self.observed_labels):
            raise BadConfig("observed label names must be non-empty strings")
        count = integer(self.latent_label_count, "latent_label_count", 1)
        object.__setattr__(self, "latent_label_count", count)

    @property
    def n_observed(self) -> int:
        return len(self.observed_labels)

    @property
    def n_labels(self) -> int:
        return self.n_observed + self.latent_label_count

    def label_index(self, name: str) -> int:
        try:
            return self.observed_labels.index(name)
        except ValueError:
            raise UnknownLabel(f"unknown label {name!r}") from None


@dataclass(frozen=True, order=True)
class Span:
    """A labeled span, 0-based and end-inclusive."""

    start: int
    end: int
    label: int


def _spans_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True if the two inclusive spans overlap without nesting."""
    (i, j), (a0, b0) = a, b
    return (i < a0 <= j < b0) or (a0 < i <= b0 < j)


def _first_crossing(spans: Sequence[tuple[int, int]]) -> tuple[int, int] | None:
    """Index pair of the first crossing span pair, or None if laminar."""
    for p in range(len(spans)):
        for q in range(p + 1, len(spans)):
            if _spans_cross(spans[p], spans[q]):
                return p, q
    return None


@dataclass(frozen=True)
class PartialTree:
    """A validated laminar set of observed entity spans over ``n`` tokens.

    Two read-only attributes are built from the entities when first read.
    ``node_kind`` is an ``n x n`` read-only array of NodeKind values, of
    which only the upper triangle (i <= j) is meaningful: a cell is
    OBSERVED iff its span is annotated, REJECTED iff it crosses at least
    one annotated span, LATENT otherwise.  Width-1 cells and the root cell
    cross nothing, so they are never REJECTED.  ``observed_label`` maps
    each annotated (start, end) to its sorted annotated labels.
    """

    n: int
    entities: tuple[Span, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(self.entities))
        n = integer(self.n, "sentence length", 1, error=OutOfBounds)
        object.__setattr__(self, "n", n)
        for ent in self.entities:
            start = integer(ent.start, "span start", 0, error=OutOfBounds)
            integer(ent.end, "span end", start, n - 1, error=OutOfBounds)
            integer(ent.label, "label index", 0, error=UnknownLabel)
        triples = [(e.start, e.end, e.label) for e in self.entities]
        if len(set(triples)) != len(triples):
            raise ValueError("duplicate (start, end, label) triples in annotation")
        bounds = [(e.start, e.end) for e in self.entities]
        hit = _first_crossing(bounds)
        if hit is not None:
            p, q = hit
            raise CrossingSpans(
                f"spans {bounds[p]} and {bounds[q]} cross (inclusive offsets)"
            )

    @cached_property
    def node_kind(self) -> np.ndarray:
        kinds = _node_kinds(self.n, 1, _annotated([self]))[0]
        kinds.flags.writeable = False
        return kinds

    @cached_property
    def observed_label(self) -> dict[tuple[int, int], tuple[int, ...]]:
        out: dict[tuple[int, int], list[int]] = {}
        for ent in self.entities:
            out.setdefault((ent.start, ent.end), []).append(ent.label)
        return {k: tuple(sorted(v)) for k, v in out.items()}


class ScoreChart:
    """Log potentials ``s[i, j, k]`` for spans ``i <= j`` and labels ``k``.

    ``cells`` holds the span cells packed, ``(n(n+1)/2, L)`` (see
    :func:`pack_cells`), kept as given (not copied) and made read-only;
    every one must be finite.  ``peak`` is the largest ``|cell|``, which
    the structured layer compares with its range.  ``s`` is the ``(n, n,
    L)`` square, 0 below the diagonal, built when first read.
    """

    def __init__(self, cells: np.ndarray, schema: LabelSchema) -> None:
        self.n = packed_length(cells)
        if cells.shape[1] != schema.n_labels:
            raise DimensionMismatch(
                f"chart has {cells.shape[1]} labels, schema {schema.n_labels}"
            )
        self.peak = float(np.abs(cells).max(initial=0.0))
        if not math.isfinite(self.peak):
            raise ValueError("non-finite score in a span cell")
        cells.flags.writeable = False
        self.cells = cells
        self.schema = schema

    @cached_property
    def s(self) -> np.ndarray:
        s = unpack_cells(self.cells, self.n)
        s.flags.writeable = False
        return s


class ChartMask:
    """Weights in [0, 1] of each span cell and label.

    ``cells`` holds the span cells packed (see :func:`pack_cells`), kept as
    given (not copied) and made read-only.  Unsmoothed masks are 0/1
    valued.  A weight outside [0, 1], NaN included, raises
    :class:`BadConfig`.  ``admitted`` holds each span cell's admitted
    weight, the sum of its labels' weights, read-only: the inside pass
    weighs a cell's share of its chart's offset by it in every epoch.
    """

    def __init__(self, cells: np.ndarray) -> None:
        self.n = packed_length(cells)
        if not ((cells >= 0.0) & (cells <= 1.0)).all():
            raise BadConfig("mask weights must lie in [0, 1]")
        cells.flags.writeable = False
        self.cells = cells
        self.admitted = np.einsum("ij->i", cells)
        self.admitted.flags.writeable = False


def validate_annotation(
    tokens: Sequence[str],
    raw_spans: Iterable[tuple[int, int, str]],
    schema: LabelSchema,
) -> PartialTree:
    """Check a raw end-exclusive annotation and convert it to a PartialTree.

    ``raw_spans`` uses the corpus file convention: 0-based, end-exclusive,
    label by name.  Exact duplicate (start, end, label) triples collapse to
    one entity; the same span may carry several distinct observed labels.
    """
    if not tokens:
        raise EmptySentence("token list is empty")
    n = len(tokens)
    entities: list[Span] = []
    seen: set[tuple[int, int, int]] = set()
    for start, end, name in raw_spans:
        label = schema.label_index(name)
        if start >= end:
            raise EmptySpan(
                f"span ({start}, {end}) is empty under the end-exclusive convention"
            )
        if start < 0 or end > n:
            raise OutOfBounds(f"span ({start}, {end}) outside [0, {n}]")
        triple = (start, end - 1, label)
        if triple in seen:
            continue
        seen.add(triple)
        entities.append(Span(*triple))
    return PartialTree(n=n, entities=tuple(entities))


def _annotated(trees: Sequence[PartialTree]) -> np.ndarray:
    """``(entities, 4)`` rows ``(tree, start, end, label)`` of every entity."""
    rows = [
        (t, e.start, e.end, e.label) for t, tree in enumerate(trees) for e in tree.entities
    ]
    return np.array(rows, dtype=np.intp).reshape(-1, 4)


def _node_kinds(n: int, count: int, annotated: np.ndarray) -> np.ndarray:
    """``(count, n, n)`` node kinds of ``count`` trees over ``n`` tokens.

    ``annotated`` holds their entities (see :func:`_annotated`).  One
    crossing test covers every annotated span at once: cell ``(i, j)``
    crosses ``(a, b)`` iff ``i < a <= j < b`` or ``a < i <= b < j``, which
    no cell on or below the diagonal does.
    """
    owner, start, end = annotated[:, 0], annotated[:, 1], annotated[:, 2]
    a, b = start[:, None, None], end[:, None, None]
    i, j = np.arange(n)[:, None], np.arange(n)
    crossing = (i < a) & (a <= j) & (j < b)
    crossing |= (a < i) & (i <= b) & (b < j)
    span, ci, cj = np.nonzero(crossing)
    kinds = np.full((count, n, n), int(NodeKind.LATENT), dtype=np.int8)
    kinds[owner[span], ci, cj] = int(NodeKind.REJECTED)
    kinds[owner, start, end] = int(NodeKind.OBSERVED)
    return kinds


def _reject(cells: np.ndarray, kinds: np.ndarray, epsilon: float) -> None:
    """Set every label of the rejected span cells of packed masks ``cells``
    to epsilon; ``kinds`` are their node kinds, packed alike."""
    cells[kinds == int(NodeKind.REJECTED)] = epsilon


def _check_observed(labels: np.ndarray, schema: LabelSchema) -> None:
    """Raise unless every annotated label index names an observed label."""
    bad = (labels < 0) | (labels >= schema.n_observed)
    if bad.any():
        raise DimensionMismatch(
            f"annotated label index {labels[bad][0]} is not an observed label"
        )


def check_epsilon(epsilon: float) -> None:
    """Reject a structure-smoothing epsilon that is a bool, not a real
    number, or outside [0, 1)."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):
        raise BadConfig(f"epsilon must be a real number, got {epsilon!r}")
    if not 0.0 <= epsilon < 1.0:
        raise BadConfig(f"epsilon must be in [0, 1), got {epsilon}")


def classify_nodes(tree: PartialTree) -> PartialTree:
    """The tree itself, which carries its node kinds (see
    :class:`PartialTree`), so that callers that classify a tree before
    building its mask keep working."""
    return tree


def build_mask(tree: PartialTree, schema: LabelSchema) -> ChartMask:
    """Materialize the 0/1 mask that encodes the tree's node kinds:
    ``smoothed_masks([tree], schema, 0.0)[0]``.

    Observed cells admit exactly their annotated label(s); latent cells
    admit all latent labels; rejected cells admit nothing.
    """
    return smoothed_masks([tree], schema, 0.0)[0]


def smooth_mask(mask: ChartMask, tree: PartialTree, epsilon: float) -> ChartMask:
    """Structure smoothing: raise rejected cells' weights from 0 to epsilon.

    Only rejected cells change; zero entries of observed and latent cells
    stay zero.  ``epsilon = 0`` returns an identical mask.
    """
    check_epsilon(epsilon)
    if mask.n != tree.n:
        raise DimensionMismatch(f"mask is over {mask.n} tokens but tree over {tree.n}")
    cells = mask.cells.copy()
    _reject(cells, pack_cells(tree.node_kind), epsilon)
    return ChartMask(cells)


def smoothed_masks(
    trees: Sequence[PartialTree], schema: LabelSchema, epsilon: float
) -> list[ChartMask]:
    """``smooth_mask(build_mask(t, schema), t, epsilon)`` of each tree ``t``.

    The one mask rule: a latent span cell admits every latent label, a
    rejected one every label at weight ``epsilon`` and an observed one
    exactly its annotated labels; everything else is 0.  The masks of all
    trees of one length are built together, packed, in one ``(count,
    n(n+1)/2, L)`` array: one crossing test over every annotated span of
    the group, one gather of the group's node kinds at the span cells, one
    fill each for the latent and the rejected cells and one scatter for
    the observed cells.  Each returned mask, in input order, holds a view
    of its group's array.
    """
    check_epsilon(epsilon)
    groups: dict[int, list[int]] = {}
    for idx, tree in enumerate(trees):
        groups.setdefault(tree.n, []).append(idx)
    masks: dict[int, ChartMask] = {}
    for n, members in groups.items():
        annotated = _annotated([trees[idx] for idx in members])
        _check_observed(annotated[:, 3], schema)
        kinds = _node_kinds(n, len(members), annotated)[:, ~below_diagonal(n)]
        m = np.zeros((*kinds.shape, schema.n_labels))
        m[kinds == int(NodeKind.LATENT), schema.n_observed :] = 1.0
        _reject(m, kinds, epsilon)
        owner, i, j, k = annotated.T
        m[owner, packed_index(i, j, n), k] = 1.0
        for g, idx in enumerate(members):
            masks[idx] = ChartMask(m[g])
    return [masks[idx] for idx in range(len(trees))]
