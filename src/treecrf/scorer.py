"""Trainable span scorer: embeddings, local mixer, feed-forward, biaffine.

The scorer replaces a heavyweight pretrained encoder with the smallest
stack that gives boundary tokens context: an embedding lookup, one width-3
local mixing layer, and two feed-forward layers (hidden sizes ``h`` and
``h/2``).  Span potentials come from a per-label biaffine form on the
boundary embeddings::

    s[i, j, k] = e_i' U1_k e_j + (e_i + e_j)' U2_k + b_k

:func:`forward_batch` scores a minibatch: its normalized charts, in input
order, and one :class:`BatchTape` whose ``backward`` chains hand-written
reverse-mode gradients of every layer, normalization's Jacobian included,
and returns the minibatch's parameter gradients summed in batch order.
Sentences of 2 to ``PADDED_MAX_TOKENS`` tokens run in at most two groups,
each padded to its longest sentence, cut where the padding is least: each
encoder layer and each backward layer is one stacked ``@`` per group, one
gemm per sentence.  A sentence's biaffine products and its normalization
statistics are its own.  Every other sentence is a group of one.  Scores
leave the scorer as packed span cells (see
:func:`~treecrf.chart.pack_cells`): one gather takes a group's span cells
from its biaffine squares, normalization runs on them in place and each
chart is a view of them.  The backward pass takes gradients packed
the same way and runs one group at a time: normalization's backward, one
scatter into the group's padded square, the biaffine and encoder backward,
then the embedding rows.  At the default dimensions every chart, and every
sentence's share of the gradients, is bit-identical to the sentence alone
(see ``PADDED_MAX_TOKENS``).  A single sentence is a batch of one; the
test suite certifies every parameter gradient against central finite
differences.

Model files are self-describing: magic, a little-endian uint32 format
version, a JSON config block (dimensions, label schema, vocabulary, array
shapes, payload checksum), then the raw little-endian float64 parameter
arrays concatenated in ``PARAM_ORDER``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .chart import LabelSchema, ScoreChart, below_diagonal, span_positions
from .errors import (
    BadConfig,
    DimensionMismatch,
    EmptySentence,
    ModelFormatError,
    NonFiniteLoss,
    integer,
)

UNK_TOKEN = "<unk>"

MODEL_MAGIC = b"TCRF"
MODEL_FORMAT_VERSION = 1

PARAM_ORDER = (
    "emb",
    "mix_w",
    "mix_b",
    "ff1_w",
    "ff1_b",
    "ff2_w",
    "ff2_b",
    "bi_u1",
    "bi_u2",
    "bi_b",
)

# Degenerate-scale floor for potential normalization.
STD_FLOOR = 1e-8

# The longest sentence forward_batch pads into a shared group.  Measured
# on OpenBLAS 0.3.31 (Haswell kernels), embed 16, hidden 32, 2 to 8 labels:
# in a group whose longest sentence has at most 75 tokens, every sentence
# of 2 to 75 tokens keeps the bits it has alone; at 76 every shorter one
# changes (a gemm of 16 columns and K >= 32 switches kernel at 76 rows, and
# longer sentences change its K blocking).  A 1-token sentence takes numpy's
# gemv path alone, so it never joins.  Other dimensions pick other kernels:
# hidden 8 or 64 differs in the last bit in groups of at most 40 tokens.  A
# fact, not a knob; TestPaddingFacts in the test suite checks it at every
# length.
PADDED_MAX_TOKENS = 75


@dataclass(frozen=True)
class Vocab:
    """Token-to-index map with a dedicated unknown token at index 0."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tokens = self.tokens
        if not isinstance(tokens, (list, tuple)):
            raise BadConfig(f"vocabulary must be a list or tuple, got {tokens!r}")
        object.__setattr__(self, "tokens", tuple(tokens))
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise BadConfig(f"vocabulary must start with {UNK_TOKEN!r}")
        if not all(isinstance(tok, str) for tok in self.tokens):
            raise BadConfig("vocabulary tokens must be strings")
        if len(set(self.tokens)) != len(self.tokens):
            raise BadConfig("vocabulary tokens must be unique")
        object.__setattr__(
            self, "index", {tok: i for i, tok in enumerate(self.tokens)}
        )

    @classmethod
    def build(cls, tokens: Iterable[str]) -> "Vocab":
        seen = sorted(set(tokens) - {UNK_TOKEN})
        return cls(tokens=(UNK_TOKEN, *seen))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.index.get(t, 0) for t in tokens], dtype=np.int64)


def check_dimensions(config) -> None:
    """Reject layer sizes the scorer cannot be built with, and store the
    frozen ``config``'s ``embed_dim`` and ``hidden_dim`` as plain ints."""
    for name in ("embed_dim", "hidden_dim"):
        object.__setattr__(config, name, integer(getattr(config, name), name, 2))
    if config.hidden_dim % 2:
        raise BadConfig(f"hidden_dim must be even, got {config.hidden_dim}")


@dataclass(frozen=True)
class ScorerConfig:
    embed_dim: int
    hidden_dim: int
    schema: LabelSchema

    def __post_init__(self) -> None:
        check_dimensions(self)

    @property
    def half_dim(self) -> int:
        return self.hidden_dim // 2


@dataclass
class ScorerParams:
    """All trainable arrays.  Shapes (V = vocab size, d = embed_dim,
    h = hidden_dim, L = label count):

    emb (V, d); mix_w (d, 3d); mix_b (d,); ff1_w (h, d); ff1_b (h,);
    ff2_w (h/2, h); ff2_b (h/2,); bi_u1 (L, h/2, h/2); bi_u2 (L, h/2);
    bi_b (L,).
    """

    vocab: Vocab
    config: ScorerConfig
    emb: np.ndarray
    mix_w: np.ndarray
    mix_b: np.ndarray
    ff1_w: np.ndarray
    ff1_b: np.ndarray
    ff2_w: np.ndarray
    ff2_b: np.ndarray
    bi_u1: np.ndarray
    bi_u2: np.ndarray
    bi_b: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    def copy(self) -> "ScorerParams":
        return ScorerParams(
            vocab=self.vocab,
            config=self.config,
            **{name: getattr(self, name).copy() for name in PARAM_ORDER},
        )


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(vocab: Vocab, config: ScorerConfig, seed: int) -> ScorerParams:
    """Deterministic initialization: uniform Glorot weights, zero biases.

    Arrays are drawn in ``PARAM_ORDER`` so the same seed always yields
    bit-identical parameters.
    """
    d, h = config.embed_dim, config.hidden_dim
    h2 = config.half_dim
    n_labels = config.schema.n_labels
    rng = np.random.default_rng(seed)
    return ScorerParams(
        vocab=vocab,
        config=config,
        emb=_glorot(rng, (len(vocab), d), len(vocab), d),
        mix_w=_glorot(rng, (d, 3 * d), 3 * d, d),
        mix_b=np.zeros(d),
        ff1_w=_glorot(rng, (h, d), d, h),
        ff1_b=np.zeros(h),
        ff2_w=_glorot(rng, (h2, h), h, h2),
        ff2_b=np.zeros(h2),
        bi_u1=_glorot(rng, (n_labels, h2, h2), h2, h2),
        bi_u2=_glorot(rng, (n_labels, h2), h2, 1),
        bi_b=np.zeros(n_labels),
    )


def _rows(lengths: Sequence[int], stride: int) -> np.ndarray:
    """Row ``b * stride + i`` of token ``i`` of sentence ``b``, sentence
    after sentence."""
    shift = [b * stride - start for b, start in enumerate(accumulate([0, *lengths[:-1]]))]
    return np.arange(sum(lengths)) + np.repeat(shift, lengths)


def _context(ids_list: Sequence[np.ndarray], n: int, emb: np.ndarray) -> np.ndarray:
    """``(B, n, 3d)``: each token's left neighbor, itself and its right
    neighbor; a sentence's edges, and the rows past its end, see zeros."""
    # intp: int64 and uint64 ids alone would concatenate to floats
    x = emb[np.concatenate(ids_list, dtype=np.intp)]
    padded = np.zeros((len(ids_list), n + 2, emb.shape[1]))
    start = 0
    for row, ids in zip(padded, ids_list):
        row[1 : len(ids) + 1] = x[start : start + len(ids)]
        start += len(ids)
    return np.concatenate([padded[:, :-2], padded[:, 1:-1], padded[:, 2:]], axis=2)


class _Layers(NamedTuple):
    """Encoder activations of a group, each ``(B, n, ·)``.  The backward
    pass rebuilds the context, and reads each ReLU's derivative off its
    output: ``a > 0`` exactly where ``z > 0``."""

    a0: np.ndarray  # mixer activation
    a1: np.ndarray  # first feed-forward activation
    out: np.ndarray  # contextual embeddings, (B, n, h/2)


def _encode(ids_list: Sequence[np.ndarray], params: ScorerParams) -> _Layers:
    """The encoder of non-empty sentences, padded to the longest."""
    ctx = _context(ids_list, max(len(ids) for ids in ids_list), params.emb)
    a0 = np.maximum(ctx @ params.mix_w.T + params.mix_b, 0.0)
    a1 = np.maximum(a0 @ params.ff1_w.T + params.ff1_b, 0.0)
    return _Layers(a0, a1, a1 @ params.ff2_w.T + params.ff2_b)


def encode(tokens: Sequence[str], params: ScorerParams) -> np.ndarray:
    """Contextual embeddings ``e_1 .. e_n``, each of size ``h/2``.

    Each token sees its immediate neighbors through the width-3 mixer;
    sentence edges are padded with zero vectors.
    """
    if not tokens:
        raise EmptySentence("cannot encode an empty sentence")
    return _encode([params.vocab.encode(tokens)], params).out[0]


def _times_u1(e: np.ndarray, params: ScorerParams) -> np.ndarray:
    """``eu[b, i, k, c] = sum_a e[b, i, a] U1[k, a, c]``, ``(B, n, L, h/2)``."""
    count, n, h2 = e.shape
    n_labels = len(params.bi_b)
    u1 = params.bi_u1.transpose(1, 0, 2).reshape(h2, n_labels * h2)
    return (e @ u1).reshape(count, n, n_labels, h2)


def _squares(scores: np.ndarray, lengths: Sequence[int]) -> list[np.ndarray]:
    """Each sentence's ``(m, m, L)`` square of the cells of ``scores``."""
    ends = accumulate(m * m for m in lengths)
    return [scores[end - m * m : end].reshape(m, m, -1) for end, m in zip(ends, lengths)]


def _biaffine(e: np.ndarray, lengths: Sequence[int], params: ScorerParams) -> np.ndarray:
    """Raw scores of the span cells of each sentence, packed sentence after
    sentence, ``(cells, L)``, from embeddings ``e`` ``(B, n, h/2)``.

    Each sentence's ``(m, m)`` square is computed with the products of its
    sentence alone, square after square: padded, the pairwise sums
    ``e_i + e_j`` of a group would take ``(B, n, n, h/2)`` floats, many of
    them past the sentences' ends, and one padded product per group
    measured slower than this loop on groups of 15 to 75 tokens.  One
    gather then takes the span cells.
    """
    eu = _times_u1(e, params)
    scores = np.empty((sum(m * m for m in lengths), len(params.bi_b)))
    for b, (m, square) in enumerate(zip(lengths, _squares(scores, lengths))):
        x = e[b, :m]
        square[...] = (x[:, None, :] + x[None, :, :]) @ params.bi_u2.T
        square += (eu[b, :m] @ x.T).transpose(0, 2, 1)
    spans = ~below_diagonal(e.shape[1])
    keep = np.concatenate([spans[:m, :m].ravel() for m in lengths])
    cells = np.compress(keep, scores, axis=0)
    cells += params.bi_b
    return cells


def biaffine_scores(embeddings: np.ndarray, params: ScorerParams) -> ScoreChart:
    """Span potentials for every cell ``i <= j`` and every label."""
    h2 = params.config.half_dim
    if embeddings.ndim != 2 or embeddings.shape[1] != h2:
        raise DimensionMismatch(
            f"embeddings have shape {embeddings.shape}, expected (n, {h2})"
        )
    n = len(embeddings)
    cells = _biaffine(embeddings[None], [n], params)
    return ScoreChart(cells, params.config.schema)


def _normalize(cells: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Standardize, in place, each sentence's span cells of ``cells``
    ``(cells, L)``, ``sizes`` of them sentence after sentence; return the
    standard deviations of the sentences' raw span cells.

    A sentence's cells are one contiguous block, in row-major order, so its
    mean and standard deviation sum them exactly as alone, and its affine
    map runs on that block in place.  A spread below ``STD_FLOOR`` is
    degenerate: those scores are only mean-centered.  Non-finite standard
    deviations are returned, not raised.
    """
    std = []
    for a, b in pairwise(accumulate(sizes, initial=0)):
        vals = cells[a:b]
        # ndarray.mean's sum and division, without its Python overhead
        mean = np.add.reduce(vals, axis=None) / vals.size
        dev = vals - mean
        std.append(math.sqrt(np.add.reduce(dev * dev, axis=None) / vals.size))
        vals -= mean
        vals /= std[-1] if std[-1] >= STD_FLOOR else 1.0
    return np.array(std)


def _non_finite(std: float, position: int) -> NonFiniteLoss:
    return NonFiniteLoss(
        f"scorer forward: non-finite span scores (std {std})", position=position
    )


def potential_normalize(chart: ScoreChart) -> ScoreChart:
    """Standardize all span potentials of one sentence.

    Subtracts the mean and divides by the population standard deviation of
    the span cells; a chart with essentially constant scores is only
    mean-centered.  Raises :class:`NonFiniteLoss`, as
    :func:`forward_batch` does, when the spread of the scores is not
    finite.
    """
    cells = chart.cells.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        (std,) = _normalize(cells, [len(cells)])
    if not math.isfinite(std):
        raise _non_finite(float(std), 0)
    return ScoreChart(cells, chart.schema)


def _normalize_backward(
    normalized: np.ndarray, sizes: Sequence[int], std: np.ndarray, grad: np.ndarray
) -> np.ndarray:
    """Chain the gradient ``grad`` w.r.t. the ``normalized`` span cells
    back to the raw span cells, all packed alike (see :func:`_normalize`);
    each sentence's block is chained on its own."""
    out = np.empty_like(grad)
    segments = pairwise(accumulate(sizes, initial=0))
    for (a, b), sd in zip(segments, std.tolist()):
        g, y, raw = grad[a:b], normalized[a:b], out[a:b]
        np.subtract(g, np.add.reduce(g, axis=None) / g.size, out=raw)
        if sd >= STD_FLOOR:
            raw -= y * (np.add.reduce(g * y, axis=None) / g.size)
            raw /= sd
    return out


def _biaffine_backward(
    e: np.ndarray, params: ScorerParams, grad: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sentence gradients of the biaffine layer, stacked, plus the
    embedding gradient, from the padded raw-score gradient ``grad``."""
    count, n, h2 = e.shape
    n_labels = grad.shape[-1]
    row_col = grad.sum(axis=2) + grad.sum(axis=1)  # (B, n, L)
    # t1[b, i, k, c] = sum_j grad[b, i, j, k] e[b, j, c]
    t1 = grad.transpose(0, 1, 3, 2).reshape(count, n * n_labels, n) @ e
    bi_u1 = e.transpose(0, 2, 1) @ t1.reshape(count, n, n_labels * h2)
    grads = {
        "bi_u1": bi_u1.reshape(count, h2, n_labels, h2).transpose(0, 2, 1, 3),
        "bi_u2": row_col.transpose(0, 2, 1) @ e,
        "bi_b": grad.sum(axis=(1, 2)),
    }
    # ue[b, k, a, j] = sum_c U1[k, a, c] e[b, j, c]
    ue = params.bi_u1 @ e.transpose(0, 2, 1)[:, None]
    ue = ue.transpose(0, 3, 1, 2).reshape(count, n * n_labels, h2)
    de = grad.reshape(count, n, n * n_labels) @ ue
    swapped = grad.transpose(0, 2, 1, 3).reshape(count, n, n * n_labels)
    de += swapped @ _times_u1(e, params).reshape(count, n * n_labels, h2)
    de += row_col @ params.bi_u2
    return grads, de


def _encode_backward(
    layers: _Layers, ctx: np.ndarray, params: ScorerParams, de: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sentence encoder weight gradients, stacked, and the context
    gradient ``(B, n, 3d)``."""
    grads: dict[str, np.ndarray] = {}
    grads["ff2_w"] = de.transpose(0, 2, 1) @ layers.a1
    grads["ff2_b"] = de.sum(axis=1)
    dz1 = (de @ params.ff2_w) * (layers.a1 > 0.0)
    grads["ff1_w"] = dz1.transpose(0, 2, 1) @ layers.a0
    grads["ff1_b"] = dz1.sum(axis=1)
    dzm = (dz1 @ params.ff1_w) * (layers.a0 > 0.0)
    grads["mix_w"] = dzm.transpose(0, 2, 1) @ ctx
    grads["mix_b"] = dzm.sum(axis=1)
    return grads, dzm @ params.mix_w


class _Group(NamedTuple):
    """Sentences of a batch whose layers run as one padded stack."""

    members: list[int]  # positions in the batch, ascending
    ids: list[np.ndarray]
    layers: _Layers
    normalized: np.ndarray  # (cells, L): the charts' span cells, packed
    std: np.ndarray  # of each sentence's raw span scores


def _padded_groups(lengths: Sequence[int]) -> list[list[int]]:
    """Batch positions by group, each ascending: at most two padded groups
    first, then one per sentence outside ``2 .. PADDED_MAX_TOKENS``.

    The ``m`` padded sentences, longest first, are cut where the padded
    cells ``k n_0^2 + (m - k) n_k^2`` are fewest: the ``k`` longest pad to
    the longest, ``n_0`` tokens, the other ``m - k`` to the first of them,
    ``n_k``.  ``k = 0`` is one group, and the first fewest is taken, so a
    tie keeps it.  A cut between equal lengths never pads fewer cells than
    the cut before them, so the second group is the sentences of at most
    ``n_k`` tokens.  More groups would pad less, but each pays a fixed
    numpy cost per layer that short sentences feel.  Fewer than two padded
    sentences, as in ``predict``'s batch of one, skip the search, whose
    Python cost per-sentence decoding would feel.
    """
    padded = [b for b, n in enumerate(lengths) if 2 <= n <= PADDED_MAX_TOKENS]
    alone = [[b] for b, n in enumerate(lengths) if not 2 <= n <= PADDED_MAX_TOKENS]
    if len(padded) < 2:
        return [padded, *alone] if padded else alone
    sizes = sorted((lengths[b] for b in padded), reverse=True)
    m, longest = len(sizes), sizes[0] ** 2
    cells = [k * longest + (m - k) * n * n for k, n in enumerate(sizes)]
    short = sizes[cells.index(min(cells))]
    first = [b for b in padded if lengths[b] > short]
    second = [b for b in padded if lengths[b] <= short]
    return [group for group in (first, second) if group] + alone


@dataclass
class BatchTape:
    """What :func:`forward_batch` keeps of a batch for :meth:`backward`: the
    parameters, the charts in input order and the groups' layers."""

    params: ScorerParams
    charts: list[ScoreChart]
    groups: list[_Group]

    def backward(self, score_gradients: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        """Parameter gradients, in ``PARAM_ORDER``, of a loss whose gradient
        with respect to the charts :func:`forward_batch` returned is
        ``score_gradients``, one per chart in input order.

        Group by group, normalization's backward takes the group's packed
        gradients to its raw span cells, one scatter puts them in the
        group's padded square, and the biaffine and encoder backward read
        that square.  Each gradient is the sum over the batch, in batch
        order, of the sentences' gradients, as adding each sentence's
        gradients from its batch of one to zeros in turn gives it (bit for
        bit at the default dimensions).
        """
        if len(score_gradients) != len(self.charts):
            raise DimensionMismatch(
                f"{len(score_gradients)} score gradients for a batch of "
                f"{len(self.charts)} charts"
            )
        for b, (grad, chart) in enumerate(zip(score_gradients, self.charts)):
            if np.shape(grad) != chart.cells.shape:
                raise DimensionMismatch(
                    f"score gradient {b} has shape {np.shape(grad)}, "
                    f"its chart's span cells {chart.cells.shape}"
                )
        params = self.params
        d = params.config.embed_dim
        stacks = {
            name: np.zeros((len(self.charts), *getattr(params, name).shape))
            for name in PARAM_ORDER[1:]
        }
        slots, rows = [np.empty(0, dtype=np.intp)], [np.empty((0, d))]
        for group in self.groups:
            lengths = [len(ids) for ids in group.ids]
            cells = _normalize_backward(
                group.normalized,
                [m * (m + 1) // 2 for m in lengths],
                group.std,
                np.concatenate([score_gradients[b] for b in group.members]),
            )
            count, n, _ = group.layers.out.shape
            raw = np.zeros((count, n, n, cells.shape[1]))
            raw.reshape(-1, cells.shape[1])[span_positions(lengths, n)] = cells
            grads, de = _biaffine_backward(group.layers.out, params, raw)
            ctx = _context(group.ids, n, params.emb)
            more, dctx = _encode_backward(group.layers, ctx, params, de)
            grads.update(more)
            for name, value in grads.items():
                stacks[name][group.members] = value
            # a token's embedding slot in its sentence, b * V + id, takes its
            # centre contributions, then its part of its right neighbor's
            # context, then of its left neighbor's (zeros past the edges)
            padded = np.zeros((count, n + 2, 3 * d))
            padded[:, 1:-1] = dctx
            padded = padded.reshape(-1, 3 * d)
            at = _rows(lengths, n + 2) + 1
            slot = np.repeat(group.members, lengths) * len(params.emb)
            slots.append(np.tile(slot + np.concatenate(group.ids), 3))
            rows += [padded[at, d : 2 * d], padded[at + 1, :d], padded[at - 1, 2 * d :]]
        # each sentence's sum per token id, then those sums in batch order
        used, slot = np.unique(np.concatenate(slots), return_inverse=True)
        sums = np.zeros((len(used), d))
        np.add.at(sums, slot, np.concatenate(rows))
        out = {"emb": np.zeros_like(params.emb)}
        np.add.at(out["emb"], used % len(params.emb), sums)
        for name, stack in stacks.items():
            out[name] = np.add.reduce(stack, axis=0, initial=0.0)
        return out


def _check_ids(ids_list: Sequence[np.ndarray], size: int) -> None:
    """Raise for the first sentence whose ids are not integers in
    ``0 .. size - 1``; one check of the concatenation passes a good batch."""
    flat = np.concatenate(ids_list)
    if not (flat.dtype.kind in "iu" and 0 <= flat.min() and flat.max() < size):
        for b, ids in enumerate(map(np.asarray, ids_list)):
            if ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= size:
                raise DimensionMismatch(
                    f"token ids at batch position {b} are not integers in 0 .. {size - 1}"
                )


def forward_batch(
    ids_list: Sequence[np.ndarray], params: ScorerParams
) -> tuple[list[ScoreChart], BatchTape]:
    """The normalized chart of each sentence, in input order, and the tape
    that :meth:`BatchTape.backward` reads: the charts and each group's
    encoder layers, normalized span cells and standard deviations.

    A chart is what training consumes and ``predict`` decodes:
    :func:`potential_normalize` of :func:`biaffine_scores` of the token
    ids' embeddings.  Sentences of 2 to ``PADDED_MAX_TOKENS`` tokens run
    in at most two groups (see :func:`_padded_groups`), each layer once per
    group, padded to the group's longest; every other sentence runs alone.
    Each chart is that of its sentence's batch of one, and each sentence's
    share of the gradients too, bit for bit at the default dimensions and
    to rounding at others.  An empty sentence raises
    :class:`EmptySentence`; scores that are not finite, or whose spread
    overflows, raise :class:`NonFiniteLoss` for the first such sentence,
    its batch position in ``position``.  Token ids that are not of an
    integer type, or fall outside ``0 .. len(params.vocab) - 1``, raise
    :class:`DimensionMismatch` naming the first such batch position.
    """
    for b, ids in enumerate(ids_list):
        if len(ids) == 0:
            raise EmptySentence(f"cannot encode an empty sentence (batch position {b})")
    if ids_list:
        _check_ids(ids_list, len(params.vocab))
    schema = params.config.schema
    charts: list = [None] * len(ids_list)
    groups = []
    failed = []
    for members in _padded_groups([len(ids) for ids in ids_list]):
        ids = [ids_list[b] for b in members]
        lengths = [len(x) for x in ids]
        sizes = [m * (m + 1) // 2 for m in lengths]
        with np.errstate(over="ignore", invalid="ignore"):
            layers = _encode(ids, params)
            cells = _biaffine(layers.out, lengths, params)
            std = _normalize(cells, sizes)
        failed += [(b, sd) for b, sd in zip(members, std.tolist()) if not math.isfinite(sd)]
        if failed:
            continue
        for b, (start, end) in zip(members, pairwise(accumulate(sizes, initial=0))):
            charts[b] = ScoreChart(cells[start:end], schema)
        groups.append(_Group(members, ids, layers, cells, std))
    if failed:
        b, std = min(failed)
        raise _non_finite(std, b)
    return charts, BatchTape(params, charts, groups)


def save_model(params: ScorerParams, path: str) -> None:
    """Write a self-describing model file (see module docstring)."""
    arrays = params.arrays()
    payload = b"".join(
        np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
        for name in PARAM_ORDER
    )
    header = {
        "embed_dim": params.config.embed_dim,
        "hidden_dim": params.config.hidden_dim,
        "observed_labels": list(params.config.schema.observed_labels),
        "latent_label_count": params.config.schema.latent_label_count,
        "vocab_tokens": list(params.vocab.tokens),
        "arrays": [
            {"name": name, "shape": list(arrays[name].shape)}
            for name in PARAM_ORDER
        ],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_array_list(value: object) -> bool:
    """A list of ``{"name": ..., "shape": [int, ...]}`` entries."""
    return isinstance(value, list) and all(
        isinstance(a, dict)
        and isinstance(a.get("shape"), list)
        and all(type(d) is int for d in a["shape"])
        for a in value
    )


def load_model(path: str) -> ScorerParams:
    """Read a model file, verifying magic, version, shapes, and checksum.

    Any malformed header field, and any NaN or infinite parameter, raises
    :class:`ModelFormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise ModelFormatError(f"{path}: truncated model file")
    if data[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: model format version {version} is not supported "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header_end = 16 + header_len
    try:
        header = json.loads(data[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: corrupt header ({exc})") from None
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object")
    payload = data[header_end:]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ModelFormatError(f"{path}: payload checksum mismatch")

    def header_field(key: str, valid) -> object:
        value = header.get(key)
        if not valid(value):
            raise ModelFormatError(f"{path}: malformed header field {key!r}")
        return value

    try:
        schema = LabelSchema(
            observed_labels=header_field("observed_labels", _is_str_list),
            latent_label_count=header.get("latent_label_count"),
        )
        config = ScorerConfig(header.get("embed_dim"), header.get("hidden_dim"), schema)
        vocab = Vocab(tokens=header_field("vocab_tokens", _is_str_list))
    except BadConfig as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    expected = [
        (a.get("name"), tuple(a["shape"]))
        for a in header_field("arrays", _is_array_list)
    ]
    d, h, h2 = config.embed_dim, config.hidden_dim, config.half_dim
    n_labels = schema.n_labels
    shapes = [(len(vocab), d), (d, 3 * d), (d,), (h, d), (h,), (h2, h), (h2,)]
    shapes += [(n_labels, h2, h2), (n_labels, h2), (n_labels,)]
    if expected != list(zip(PARAM_ORDER, shapes)):
        raise ModelFormatError(
            f"{path}: parameter arrays do not match the header's dimensions"
        )
    for name, shape in expected:
        size = math.prod(shape)
        end = offset + 8 * size
        if end > len(payload):
            raise ModelFormatError(f"{path}: truncated payload at array {name!r}")
        arrays[name] = (
            np.frombuffer(payload[offset:end], dtype="<f8").astype(np.float64).reshape(shape)
        )
        if not np.isfinite(arrays[name]).all():
            raise ModelFormatError(f"{path}: array {name!r} holds non-finite values")
        offset = end
    if offset != len(payload):
        raise ModelFormatError(f"{path}: trailing bytes after parameter arrays")
    return ScorerParams(vocab=vocab, config=config, **arrays)
