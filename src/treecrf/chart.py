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

The classification is turned into a dense ``n x n x |labels|`` 0/1 mask;
structure smoothing later relaxes rejected cells from 0 to a small epsilon.
The cells ``i > j`` below the diagonal stand for no span;
:func:`below_diagonal` marks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadConfig,
    CrossingSpans,
    DimensionMismatch,
    EmptySentence,
    EmptySpan,
    OutOfBounds,
    UnknownLabel,
)


def below_diagonal(n: int) -> np.ndarray:
    """Boolean ``(n, n)`` mask of the unused cells ``i > j``.

    Indexing a chart with its negation visits the span cells in the same
    row-major order as ``np.triu_indices(n)``.
    """
    return np.tri(n, k=-1, dtype=bool)


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
        object.__setattr__(self, "observed_labels", tuple(self.observed_labels))
        if not self.observed_labels:
            raise BadConfig("schema needs at least one observed label")
        if len(set(self.observed_labels)) != len(self.observed_labels):
            raise BadConfig("observed label names must be unique")
        if any(not name for name in self.observed_labels):
            raise BadConfig("observed label names must be non-empty")
        if self.latent_label_count < 1:
            raise BadConfig("schema needs at least one latent label")

    @property
    def n_observed(self) -> int:
        return len(self.observed_labels)

    @property
    def n_latent(self) -> int:
        return self.latent_label_count

    @property
    def n_labels(self) -> int:
        return self.n_observed + self.latent_label_count

    def label_index(self, name: str) -> int:
        try:
            return self.observed_labels.index(name)
        except ValueError:
            raise UnknownLabel(f"unknown label {name!r}") from None

    def is_latent(self, label: int) -> bool:
        return label >= self.n_observed

    @property
    def latent_indices(self) -> range:
        return range(self.n_observed, self.n_labels)


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
    """A validated laminar set of observed entity spans over ``n`` tokens."""

    n: int
    entities: tuple[Span, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(self.entities))
        if self.n < 1:
            raise OutOfBounds("sentence length must be at least 1")
        for ent in self.entities:
            if not (0 <= ent.start <= ent.end < self.n):
                raise OutOfBounds(
                    f"span ({ent.start}, {ent.end}) outside sentence of length {self.n}"
                )
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

    def span_labels(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Map each annotated (start, end) to its sorted annotated labels."""
        out: dict[tuple[int, int], list[int]] = {}
        for ent in self.entities:
            out.setdefault((ent.start, ent.end), []).append(ent.label)
        return {k: tuple(sorted(v)) for k, v in out.items()}


@dataclass(frozen=True)
class SymbolTree:
    """Per-span node classification derived from a PartialTree.

    ``node_kind`` is an ``n x n`` array of NodeKind values; only the upper
    triangle (i <= j) is meaningful.  ``observed_label`` maps each observed
    span to its annotated label indices.
    """

    n: int
    node_kind: np.ndarray
    observed_label: Mapping[tuple[int, int], tuple[int, ...]]

    def __post_init__(self) -> None:
        self.node_kind.flags.writeable = False


@dataclass(frozen=True)
class ChartMask:
    """Dense ``n x n x |labels|`` mask with weights in [0, 1].

    Unsmoothed masks are 0/1 valued; lower-triangular cells are all zero
    and never read by the dynamic programs.
    """

    n: int
    m: np.ndarray

    def __post_init__(self) -> None:
        if self.m.shape[:2] != (self.n, self.n) or self.m.ndim != 3:
            raise DimensionMismatch(
                f"mask shape {self.m.shape} does not match n={self.n}"
            )
        self.m.flags.writeable = False

    @property
    def n_labels(self) -> int:
        return self.m.shape[2]


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


def classify_nodes(tree: PartialTree) -> SymbolTree:
    """Classify every chart cell as Observed, Latent, or Rejected.

    A cell is Observed iff its span is annotated; Rejected iff it crosses
    at least one annotated span; Latent otherwise.  Width-1 cells and the
    root cell can never cross anything, so they are never Rejected.
    """
    n = tree.n
    labels = tree.span_labels()
    kinds = np.full((n, n), int(NodeKind.LATENT), dtype=np.int8)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rejected = np.zeros((n, n), dtype=bool)
    for a, b in labels.keys():
        # (i, j) crosses (a, b) iff i < a <= j < b or a < i <= b < j
        rejected |= (ii < a) & (a <= jj) & (jj < b)
        rejected |= (a < ii) & (ii <= b) & (b < jj)
    kinds[rejected] = int(NodeKind.REJECTED)
    for i, j in labels.keys():
        kinds[i, j] = int(NodeKind.OBSERVED)
    return SymbolTree(n=n, node_kind=kinds, observed_label=labels)


def build_mask(symbols: SymbolTree, schema: LabelSchema) -> ChartMask:
    """Materialize the 0/1 mask that encodes the node classification.

    Observed cells admit exactly their annotated label(s); latent cells
    admit all latent labels; rejected cells admit nothing.
    """
    n = symbols.n
    n_labels = schema.n_labels
    m = np.zeros((n, n, n_labels), dtype=np.float64)
    for (i, j), annotated in symbols.observed_label.items():
        for k in annotated:
            if k >= schema.n_observed:
                raise DimensionMismatch(
                    f"annotated label index {k} is not an observed label"
                )
            m[i, j, k] = 1.0
    lat_i, lat_j = np.nonzero(
        np.triu(symbols.node_kind == int(NodeKind.LATENT))
    )
    m[lat_i, lat_j, schema.n_observed :] = 1.0
    return ChartMask(n=n, m=m)


def smooth_mask(mask: ChartMask, symbols: SymbolTree, epsilon: float) -> ChartMask:
    """Structure smoothing: raise rejected cells' weights from 0 to epsilon.

    Only rejected cells change; zero entries of observed and latent cells
    stay zero.  ``epsilon = 0`` returns an identical mask.
    """
    if not 0.0 <= epsilon < 1.0:
        raise BadConfig(f"epsilon must be in [0, 1), got {epsilon}")
    if mask.n != symbols.n:
        raise DimensionMismatch(
            f"mask is over {mask.n} tokens but symbols over {symbols.n}"
        )
    m = mask.m.copy()
    rej_i, rej_j = np.nonzero(
        np.triu(symbols.node_kind == NodeKind.REJECTED)
    )
    m[rej_i, rej_j, :] = epsilon
    return ChartMask(n=mask.n, m=m)
