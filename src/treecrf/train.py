"""Training loop, Adam optimizer and evaluation metrics.

The objective per sentence is the negative log conditional probability of
its partial annotation: ``inside(s) - masked_inside(s, M)`` with the mask
epsilon-smoothed during training only.  Scores always pass through
per-sentence potential normalization before the structured layer;
evaluation and prediction never see masks or smoothing.

Each minibatch is one step in three calls: one
:func:`~treecrf.scorer.forward_batch`, which gives every sentence's
normalized score chart and one tape for the minibatch, one
:func:`~treecrf.inference.batch_loss_and_score_gradient` call that runs
the structured layer of the whole minibatch through the chart kernel in
length-sorted blocks, and one ``tape.backward``, which sums the
sentences' parameter gradients in batch order.  Each block's padded span
cells stay within ``DECODE_CHUNK_CELLS``, the one bound that also caps a
decode chunk (below); a train-std minibatch of 16 sentences of up to 20
tokens is one block.  The values equal those of running the sentences one
by one (bit for bit at the default scorer dimensions; see
:mod:`treecrf.scorer`).  Scores, masks and score gradients pass between
the three as packed span cells, ``(n(n+1)/2, L)`` per sentence (see
:func:`~treecrf.chart.pack_cells`); the only squares on the way are the
scorer's own padded biaffine stacks.  A diverging run raises
:class:`~treecrf.errors.NonFiniteLoss` naming the sentence, its length
and the phase (scorer forward or loss) where scores stopped being finite.
The masks are built ahead of training by
:func:`~treecrf.data.preprocess`, one length group at a time.

Prediction decodes the chart of the same scorer forward.  :func:`predict`
scores one sentence as a batch of one and decodes it.
:func:`batch_predict`, and so :func:`evaluate` and the dev evaluation
after each epoch, scores and decodes consecutive sentences together, one
``forward_batch`` and one :func:`~treecrf.inference.batch_cky_decode`
call per chunk whose padded span cells stay within
``DECODE_CHUNK_CELLS`` (defined in :mod:`treecrf.inference`); the trees
are those of decoding each sentence alone.

Runs are bit-reproducible: the corpus split, parameter initialization, and
the per-epoch shuffle all derive from ``TrainConfig.seed``, and batch
gradients accumulate in batch order.

The training log is line-oriented CSV with header
``epoch,mean_loss,dev_precision,dev_recall,dev_f1``.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chart import LabelSchema, Span, check_epsilon, validate_annotation
from .data import (
    CorpusRecord,
    PreprocessedExample,
    corpus_schema,
    corpus_vocab,
    preprocess,
    split_corpus,
)
from .errors import BadConfig, EmptyCorpus, EmptySentence, NonFiniteLoss, integer
# loss_and_score_gradient is re-exported: the per-sentence step is looked
# up here by callers that check a trained model sentence by sentence.
from .inference import (  # noqa: F401
    DECODE_CHUNK_CELLS,
    batch_cky_decode,
    batch_loss_and_score_gradient,
    cky_decode,
    extract_entities,
    loss_and_score_gradient,
)
from .scorer import (
    ScorerConfig,
    ScorerParams,
    check_dimensions,
    forward_batch,
    init_params,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 16
    epsilon_smoothing: float = 0.01
    seed: int = 0
    latent_label_count: int = 1
    embed_dim: int = 16
    hidden_dim: int = 32

    def __post_init__(self) -> None:
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise BadConfig(f"learning_rate must be a real number, got {rate!r}")
        if not (math.isfinite(rate) and rate > 0):
            raise BadConfig(f"learning_rate must be positive and finite, got {rate}")
        check_epsilon(self.epsilon_smoothing)
        lows = {"epochs": 1, "batch_size": 1, "seed": 0, "latent_label_count": 1}
        for name, low in lows.items():
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        check_dimensions(self)


@dataclass
class AdamState:
    """First and second moment estimates per parameter array."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, arrays: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in arrays.items()},
            v={k: np.zeros_like(a) for k, a in arrays.items()},
        )


def adam_step(
    arrays: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> None:
    """One adaptive-moment update, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in arrays.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= learning_rate * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    matched: int


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    gold_count: int
    predicted_count: int
    matched_count: int
    per_label: dict[str, LabelMetrics] = field(default_factory=dict)


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    mean_loss: float
    dev_precision: float
    dev_recall: float
    dev_f1: float


@dataclass
class TrainResult:
    params: ScorerParams
    log: list[EpochLog]
    best_epoch: int
    dev_report: EvalReport


def _prf(gold: int, predicted: int, matched: int) -> tuple[float, float, float]:
    p = matched / predicted if predicted else 0.0
    r = matched / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def _diverged(idx: int, n: int, detail: object) -> NonFiniteLoss:
    return NonFiniteLoss(f"sentence {idx} (length {n}), {detail}", position=idx)


def _batch_gradient(
    batch: np.ndarray,
    examples: Sequence[PreprocessedExample],
    params: ScorerParams,
    losses: list[float],
    positions: Sequence[int],
) -> dict[str, np.ndarray]:
    """Mean parameter gradient of one minibatch; appends its losses.

    Three calls: one scorer :func:`~treecrf.scorer.forward_batch`, one
    batched structured loss and gradient, then the batch tape's backward,
    which sums the sentences' gradients in batch order.  A sentence whose
    scores or loss stop being finite raises :class:`NonFiniteLoss` naming
    its length and ``positions[idx]``, ``idx`` its index in ``examples``.
    """
    try:
        charts, tape = forward_batch([examples[idx].token_ids for idx in batch], params)
    except NonFiniteLoss as exc:
        idx = batch[exc.position]
        raise _diverged(positions[idx], len(examples[idx].token_ids), exc) from None
    results = batch_loss_and_score_gradient(charts, [examples[idx].mask for idx in batch])
    score_grads = []
    for idx, chart, (loss, score_grad) in zip(batch, charts, results):
        if not np.isfinite(loss):
            detail = f"loss: loss={loss}, max |score|={chart.peak:.3e}"
            raise _diverged(positions[idx], chart.n, detail)
        losses.append(loss)
        score_grads.append(score_grad)
    grads = tape.backward(score_grads)
    scale = 1.0 / len(batch)
    for name in grads:
        grads[name] *= scale
    return grads


def train(records: Sequence[CorpusRecord], config: TrainConfig) -> TrainResult:
    """Train a scorer on a corpus; return the best-dev-F1 checkpoint.

    The corpus is split 80/10/10 with the config seed; the vocabulary and
    label schema come from the whole corpus.  The model with the highest
    dev F1 wins, ties going to the earliest epoch.  If the dev split is
    empty (tiny corpora), checkpoint selection falls back to the training
    split.  A sentence that diverges, in training or in the dev
    evaluation, raises :class:`NonFiniteLoss` naming its 0-based position
    among ``records``.
    """
    if not records:
        raise EmptyCorpus("cannot train on an empty corpus")
    schema = corpus_schema(records, config.latent_label_count)
    vocab = corpus_vocab(records)
    train_at, dev_at, _ = split_corpus(range(len(records)), config.seed)
    if not train_at:
        raise EmptyCorpus("train split is empty")
    train_records = [records[k] for k in train_at]
    eval_at = dev_at if dev_at else train_at
    eval_records = [records[k] for k in eval_at]
    examples = preprocess(train_records, schema, vocab, config.epsilon_smoothing)
    params = init_params(
        vocab,
        ScorerConfig(
            embed_dim=config.embed_dim,
            hidden_dim=config.hidden_dim,
            schema=schema,
        ),
        config.seed,
    )
    adam = AdamState.init(params.arrays())
    rng = np.random.default_rng(config.seed)
    log: list[EpochLog] = []
    best: tuple[float, int, ScorerParams, EvalReport] | None = None
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        losses: list[float] = []
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            grads = _batch_gradient(batch, examples, params, losses, train_at)
            adam_step(params.arrays(), grads, adam, config.learning_rate)
        try:
            report = evaluate(params, eval_records)
        except NonFiniteLoss as exc:
            # batch_predict chains the scorer's error to its own
            k, detail = exc.position, exc.__cause__
            raise _diverged(eval_at[k], len(eval_records[k].tokens), detail) from None
        mean_loss = float(np.mean(losses))
        log.append(
            EpochLog(
                epoch=epoch,
                mean_loss=mean_loss,
                dev_precision=report.precision,
                dev_recall=report.recall,
                dev_f1=report.f1,
            )
        )
        if best is None or report.f1 > best[0]:
            best = (report.f1, epoch, params.copy(), report)
    assert best is not None
    return TrainResult(
        params=best[2], log=log, best_epoch=best[1], dev_report=best[3]
    )


def predict(params: ScorerParams, tokens: Sequence[str]) -> list[Span]:
    """Entities of the highest-probability tree (latent nodes dismissed)."""
    (chart,), _ = forward_batch([params.vocab.encode(tokens)], params)
    return extract_entities(cky_decode(chart), params.config.schema)


def batch_predict(
    params: ScorerParams, sentences: Iterable[Sequence[str]]
) -> Iterator[list[Span]]:
    """:func:`predict` of each sentence, in order, decoded chunk by chunk.

    Runs :func:`~treecrf.scorer.forward_batch` and
    :func:`~treecrf.inference.batch_cky_decode` once per chunk of
    consecutive sentences (see ``DECODE_CHUNK_CELLS``), so the entities
    equal those of :func:`predict`.  Lazy: a chunk is scored and decoded
    when the iterator reaches it.  A :class:`NonFiniteLoss` from the
    scorer names the sentence by its 0-based position among
    ``sentences``, in the message and in ``position``, and is chained to
    the scorer's error.  An empty sentence raises :class:`EmptySentence`
    naming its position in the same form.
    """
    schema = params.config.schema

    def decode(start: int, chunk: list[np.ndarray]) -> Iterator[list[Span]]:
        try:
            charts, _ = forward_batch(chunk, params)
        except NonFiniteLoss as exc:
            b = exc.position
            raise _diverged(start + b, len(chunk[b]), exc) from exc
        return (extract_entities(t, schema) for t in batch_cky_decode(charts))

    chunk: list[np.ndarray] = []
    start = longest = 0
    for k, tokens in enumerate(sentences):
        if len(tokens) == 0:
            detail = "cannot decode an empty sentence"
            raise EmptySentence(f"sentence {k} (length 0), {detail}")
        longest = max(longest, len(tokens))
        padded = (len(chunk) + 1) * longest * (longest + 1) // 2
        if chunk and padded > DECODE_CHUNK_CELLS:
            yield from decode(start, chunk)
            start, chunk, longest = start + len(chunk), [], len(tokens)
        chunk.append(params.vocab.encode(tokens))
    yield from decode(start, chunk)


def _gold_spans(record: CorpusRecord, schema: LabelSchema) -> set[tuple[int, int, int]]:
    tree = validate_annotation(
        record.tokens, [(e.start, e.end, e.label) for e in record.entities], schema
    )
    return {(e.start, e.end, e.label) for e in tree.entities}


def evaluate(params: ScorerParams, records: Sequence[CorpusRecord]) -> EvalReport:
    """Micro-averaged exact-match precision/recall/F1 with per-label rows.

    An entity counts as matched only when start, end, and label all agree.
    Predictions come from :func:`batch_predict`.
    """
    if not records:
        raise EmptyCorpus("cannot evaluate on an empty corpus")
    schema = params.config.schema
    by_label: dict[str, list[int]] = {
        name: [0, 0, 0] for name in schema.observed_labels
    }
    predictions = batch_predict(params, (record.tokens for record in records))
    for record, spans in zip(records, predictions):
        gold = _gold_spans(record, schema)
        pred = {(s.start, s.end, s.label) for s in spans}
        for column, triples in enumerate((gold, pred, gold & pred)):
            for _, _, k in triples:
                by_label[schema.observed_labels[k]][column] += 1
    # every gold and predicted span carries an observed label
    gold_n, pred_n, match_n = map(sum, zip(*by_label.values()))
    precision, recall, f1 = _prf(gold_n, pred_n, match_n)
    per_label = {}
    for name, (g, p, m) in by_label.items():
        lp, lr, lf = _prf(g, p, m)
        per_label[name] = LabelMetrics(
            precision=lp, recall=lr, f1=lf, gold=g, predicted=p, matched=m
        )
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        gold_count=gold_n,
        predicted_count=pred_n,
        matched_count=match_n,
        per_label=per_label,
    )


def write_training_log(log: Sequence[EpochLog], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "dev_precision", "dev_recall", "dev_f1"])
        for row in log:
            writer.writerow(
                [
                    row.epoch,
                    f"{row.mean_loss:.6f}",
                    f"{row.dev_precision:.6f}",
                    f"{row.dev_recall:.6f}",
                    f"{row.dev_f1:.6f}",
                ]
            )


def format_eval_report(report: EvalReport) -> str:
    lines = [
        f"precision {report.precision:.4f}  recall {report.recall:.4f}  "
        f"f1 {report.f1:.4f}  (gold {report.gold_count}, predicted "
        f"{report.predicted_count}, matched {report.matched_count})"
    ]
    for name, m in sorted(report.per_label.items()):
        lines.append(
            f"  {name:>8}: P {m.precision:.4f}  R {m.recall:.4f}  F1 {m.f1:.4f}  "
            f"(gold {m.gold}, predicted {m.predicted}, matched {m.matched})"
        )
    return "\n".join(lines)
