"""Trainable span scorer: embeddings, local mixer, feed-forward, biaffine.

The scorer replaces a heavyweight pretrained encoder with the smallest
stack that gives boundary tokens context: an embedding lookup, one width-3
local mixing layer, and two feed-forward layers (hidden sizes ``h`` and
``h/2``).  Span potentials come from a per-label biaffine form on the
boundary embeddings::

    s[i, j, k] = e_i' U1_k e_j + (e_i + e_j)' U2_k + b_k

:func:`forward` returns a sentence's normalized chart and a :class:`Tape`
whose ``backward`` chains hand-written reverse-mode gradients of every
layer, normalization's Jacobian included; the test suite certifies every
parameter gradient against central finite differences.

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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .chart import LabelSchema, below_diagonal
from .errors import (
    BadConfig,
    DimensionMismatch,
    EmptySentence,
    ModelFormatError,
    NonFiniteLoss,
)
from .inference import ScoreChart

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


@dataclass(frozen=True)
class Vocab:
    """Token-to-index map with a dedicated unknown token at index 0."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise BadConfig(f"vocabulary must start with {UNK_TOKEN!r}")
        if len(set(self.tokens)) != len(self.tokens):
            raise BadConfig("vocabulary tokens must be unique")
        object.__setattr__(
            self, "index", {tok: i for i, tok in enumerate(self.tokens)}
        )

    @classmethod
    def build(cls, tokens: Iterable[str]) -> "Vocab":
        seen = sorted(set(tokens) - {UNK_TOKEN})
        return cls(tokens=(UNK_TOKEN, *seen))

    @property
    def unk_index(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.index.get(t, 0) for t in tokens], dtype=np.int64)


@dataclass(frozen=True)
class ScorerConfig:
    embed_dim: int
    hidden_dim: int
    schema: LabelSchema

    def __post_init__(self) -> None:
        if self.embed_dim < 2 or self.hidden_dim < 2:
            raise BadConfig("embed_dim and hidden_dim must be at least 2")
        if self.hidden_dim % 2:
            raise BadConfig(f"hidden_dim must be even, got {self.hidden_dim}")

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

    def parameter_count(self) -> int:
        return sum(a.size for a in self.arrays().values())


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(vocab: Vocab, config: ScorerConfig, seed: int) -> ScorerParams:
    """Deterministic initialization: uniform Glorot weights, zero biases.

    Arrays are drawn in ``PARAM_ORDER`` so the same seed always yields
    bit-identical parameters.
    """
    if len(vocab) == 0:
        raise BadConfig("empty vocabulary")
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


class Tape(NamedTuple):
    """What :func:`forward` keeps of one sentence for :meth:`backward`."""

    params: ScorerParams
    ids: np.ndarray
    ctx: np.ndarray  # (n, 3d) concatenated neighbor embeddings
    zm: np.ndarray  # mixer pre-activation
    a0: np.ndarray  # mixer activation
    z1: np.ndarray  # first feed-forward pre-activation
    a1: np.ndarray  # first feed-forward activation
    out: np.ndarray  # contextual embeddings, (n, h/2)
    normalized: np.ndarray  # the scores of the chart forward returned
    std: float  # of the raw span scores
    degenerate: bool  # std below STD_FLOOR: scores were only mean-centered

    def backward(self, score_gradient: np.ndarray) -> dict[str, np.ndarray]:
        """Exact parameter gradients, in ``PARAM_ORDER``, of a loss whose
        gradient with respect to the chart :func:`forward` returned is
        ``score_gradient``."""
        if score_gradient.shape != self.normalized.shape:
            raise DimensionMismatch(
                f"score gradient shape {score_gradient.shape} "
                f"!= chart {self.normalized.shape}"
            )
        raw_grad = _normalize_backward(
            self.normalized, self.std, self.degenerate, score_gradient
        )
        bi_grads, de = _biaffine_backward(self.out, self.params, raw_grad)
        grads = _encode_backward(self, de)
        grads.update(bi_grads)
        return {name: grads[name] for name in PARAM_ORDER}


def _encode(ids: np.ndarray, params: ScorerParams) -> tuple[np.ndarray, ...]:
    """Encoder activations, in :class:`Tape` field order."""
    if len(ids) == 0:
        raise EmptySentence("cannot encode an empty sentence")
    d = params.config.embed_dim
    x = params.emb[ids]
    zero = np.zeros((1, d))
    left = np.concatenate([zero, x[:-1]], axis=0)
    right = np.concatenate([x[1:], zero], axis=0)
    ctx = np.concatenate([left, x, right], axis=1)
    zm = ctx @ params.mix_w.T + params.mix_b
    a0 = np.maximum(zm, 0.0)
    z1 = a0 @ params.ff1_w.T + params.ff1_b
    a1 = np.maximum(z1, 0.0)
    out = a1 @ params.ff2_w.T + params.ff2_b
    return ctx, zm, a0, z1, a1, out


def encode(tokens: Sequence[str], params: ScorerParams) -> np.ndarray:
    """Contextual embeddings ``e_1 .. e_n``, each of size ``h/2``.

    Each token sees its immediate neighbors through the width-3 mixer;
    sentence edges are padded with zero vectors.
    """
    return _encode(params.vocab.encode(tokens), params)[-1]


def _biaffine(embeddings: np.ndarray, params: ScorerParams) -> np.ndarray:
    h2 = params.config.half_dim
    if embeddings.ndim != 2 or embeddings.shape[1] != h2:
        raise DimensionMismatch(
            f"embeddings have shape {embeddings.shape}, expected (n, {h2})"
        )
    e = embeddings
    # tmp[i, k, b] = sum_a e[i, a] U1[k, a, b]
    tmp = np.tensordot(e, params.bi_u1, axes=([1], [1]))
    bilinear = (tmp @ e.T).transpose(0, 2, 1)
    linear = (e[:, None, :] + e[None, :, :]) @ params.bi_u2.T
    return bilinear + linear + params.bi_b[None, None, :]


def biaffine_scores(embeddings: np.ndarray, params: ScorerParams) -> ScoreChart:
    """Span potentials for every cell ``i <= j`` and every label.

    Cells below the diagonal are unspecified; nothing reads them.
    """
    return ScoreChart(s=_biaffine(embeddings, params), schema=params.config.schema)


def _normalize(s: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """``(normalized, std, degenerate)`` of a raw score array.

    Span scores that are not finite, or whose spread overflows, raise
    :class:`NonFiniteLoss` without a floating-point warning.
    """
    vals = s[~below_diagonal(len(s))]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(vals.mean())
        std = float(np.sqrt(((vals - mean) ** 2).mean()))
        if not math.isfinite(std):
            raise NonFiniteLoss(f"scorer forward: non-finite span scores (std {std})")
        degenerate = std < STD_FLOOR
        return (s - mean if degenerate else (s - mean) / std), std, degenerate


def potential_normalize(chart: ScoreChart) -> ScoreChart:
    """Standardize all valid potentials of one sentence in place.

    Subtracts the mean and divides by the population standard deviation of
    the upper-triangular entries; a chart with essentially constant scores
    is only mean-centered.  Cells below the diagonal go through the same
    affine map and stay unspecified.  Raises :class:`NonFiniteLoss`, as
    :func:`forward` does, when the spread of the scores is not finite.
    """
    return ScoreChart(s=_normalize(chart.s)[0], schema=chart.schema)


def forward(ids: np.ndarray, params: ScorerParams) -> tuple[ScoreChart, Tape]:
    """The chart training consumes and ``predict`` decodes, and its tape.

    The chart is :func:`potential_normalize` of :func:`biaffine_scores` of
    the token ids' embeddings.  Scores that are not finite, or whose spread
    overflows, raise :class:`NonFiniteLoss` without a floating-point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        layers = _encode(ids, params)
        tape = Tape(params, ids, *layers, *_normalize(_biaffine(layers[-1], params)))
    return ScoreChart(s=tape.normalized, schema=params.config.schema), tape


def _normalize_backward(
    normalized: np.ndarray, std: float, degenerate: bool, grad: np.ndarray
) -> np.ndarray:
    """Chain a gradient w.r.t. normalized scores back to raw scores.

    Reads only the span cells of ``grad``; the result is 0 below the diagonal.
    """
    spans = ~below_diagonal(len(grad))
    g = grad[spans]
    out = np.zeros_like(grad)
    if degenerate:
        out[spans] = g - g.mean()
        return out
    y = normalized[spans]
    out[spans] = (g - g.mean() - y * (g * y).mean()) / std
    return out


def _biaffine_backward(
    e: np.ndarray, params: ScorerParams, grad: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of the biaffine layer plus the embedding gradient."""
    row = grad.sum(axis=1)  # (n, L)
    col = grad.sum(axis=0)  # (n, L)
    # t1[i, k, b] = sum_j grad[i, j, k] e[j, b]
    t1 = np.tensordot(grad, e, axes=([1], [0]))
    grads = {
        "bi_u1": np.tensordot(e, t1, axes=([0], [0])).transpose(1, 0, 2),
        "bi_u2": (row + col).T @ e,
        "bi_b": grad.sum(axis=(0, 1)),
    }
    # ue[k, a, j] = sum_b U1[k, a, b] e[j, b]; eu[i, k, b] = sum_a e[i, a] U1[k, a, b]
    ue = params.bi_u1 @ e.T
    eu = np.tensordot(e, params.bi_u1, axes=([1], [1]))
    de = (
        np.tensordot(grad, ue, axes=([1, 2], [2, 0]))
        + np.tensordot(grad, eu, axes=([0, 2], [0, 1]))
        + (row + col) @ params.bi_u2
    )
    return grads, de


def _encode_backward(tape: Tape, de: np.ndarray) -> dict[str, np.ndarray]:
    params = tape.params
    d = params.config.embed_dim
    grads: dict[str, np.ndarray] = {}
    grads["ff2_w"] = de.T @ tape.a1
    grads["ff2_b"] = de.sum(axis=0)
    da1 = de @ params.ff2_w
    dz1 = da1 * (tape.z1 > 0.0)
    grads["ff1_w"] = dz1.T @ tape.a0
    grads["ff1_b"] = dz1.sum(axis=0)
    da0 = dz1 @ params.ff1_w
    dzm = da0 * (tape.zm > 0.0)
    grads["mix_w"] = dzm.T @ tape.ctx
    grads["mix_b"] = dzm.sum(axis=0)
    dctx = dzm @ params.mix_w
    demb = np.zeros_like(params.emb)
    ids = tape.ids
    n = len(ids)
    np.add.at(demb, ids, dctx[:, d : 2 * d])
    if n > 1:
        np.add.at(demb, ids[: n - 1], dctx[1:, :d])
        np.add.at(demb, ids[1:], dctx[: n - 1, 2 * d :])
    grads["emb"] = demb
    return grads


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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_array_list(value: object) -> bool:
    """A list of ``{"name": ..., "shape": [int, ...]}`` entries."""
    return isinstance(value, list) and all(
        isinstance(a, dict)
        and isinstance(a.get("shape"), list)
        and all(_is_int(d) for d in a["shape"])
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
            observed_labels=tuple(header_field("observed_labels", _is_str_list)),
            latent_label_count=header_field("latent_label_count", _is_int),
        )
        embed_dim = header_field("embed_dim", _is_int)
        hidden_dim = header_field("hidden_dim", _is_int)
        config = ScorerConfig(embed_dim=embed_dim, hidden_dim=hidden_dim, schema=schema)
        vocab = Vocab(tokens=tuple(header_field("vocab_tokens", _is_str_list)))
    except BadConfig as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    expected = [
        (a.get("name"), tuple(a["shape"]))
        for a in header_field("arrays", _is_array_list)
    ]
    d, h, h2, n_labels = embed_dim, hidden_dim, config.half_dim, schema.n_labels
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
