"""Training loop, Adam optimizer, evaluation metrics, latent-label sweep.

The objective per sentence is the negative log conditional probability of
its partial annotation: ``inside(s) - masked_inside(s, M)`` with the mask
epsilon-smoothed during training only.  Scores always pass through
per-sentence potential normalization before the structured layer;
evaluation and prediction never see masks or smoothing.

Runs are bit-reproducible: the corpus split, parameter initialization, and
the per-epoch shuffle all derive from ``TrainConfig.seed``, and batch
gradients accumulate in a fixed order.

The training log is line-oriented CSV with header
``epoch,mean_loss,dev_precision,dev_recall,dev_f1``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .chart import LabelSchema, Span, validate_annotation
from .data import (
    CorpusRecord,
    PreprocessedExample,
    corpus_schema,
    corpus_vocab,
    preprocess,
    split_corpus,
)
from .errors import BadConfig, EmptyCorpus, EmptySentence, NonFiniteLoss
from .inference import cky_decode, extract_entities, loss_and_score_gradient
from .scorer import (
    ScorerConfig,
    ScorerParams,
    _backward_from_caches,
    _forward_encode,
    _normalize_with_cache,
    biaffine_scores,
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
        if self.learning_rate <= 0:
            raise BadConfig("learning_rate must be positive")
        if not 0.0 <= self.epsilon_smoothing < 1.0:
            raise BadConfig("epsilon_smoothing must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise BadConfig("epochs and batch_size must be positive")
        if self.latent_label_count < 1:
            raise BadConfig("latent_label_count must be at least 1")


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


def _sentence_loss_and_grads(
    example: PreprocessedExample, params: ScorerParams
) -> tuple[float, dict[str, np.ndarray]]:
    cache = _forward_encode(example.token_ids, params)
    raw = biaffine_scores(cache.out, params)
    normalized, ncache = _normalize_with_cache(raw)
    loss, score_grad = loss_and_score_gradient(normalized, example.mask)
    if not np.isfinite(loss):
        raise NonFiniteLoss(
            f"loss={loss}, max |score|={np.abs(normalized.s).max():.3e}"
        )
    return loss, _backward_from_caches(cache, ncache, params, score_grad)


def train(records: Sequence[CorpusRecord], config: TrainConfig) -> TrainResult:
    """Train a scorer on a corpus; return the best-dev-F1 checkpoint.

    The corpus is split 80/10/10 with the config seed; the vocabulary and
    label schema come from the whole corpus.  The model with the highest
    dev F1 wins, ties going to the earliest epoch.  If the dev split is
    empty (tiny corpora), checkpoint selection falls back to the training
    split.
    """
    if not records:
        raise EmptyCorpus("cannot train on an empty corpus")
    schema = corpus_schema(records, config.latent_label_count)
    vocab = corpus_vocab(records)
    train_records, dev_records, _ = split_corpus(records, config.seed)
    if not train_records:
        raise EmptyCorpus("train split is empty")
    eval_records = dev_records if dev_records else train_records
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
            acc = {k: np.zeros_like(a) for k, a in params.arrays().items()}
            for idx in batch:
                try:
                    loss, grads = _sentence_loss_and_grads(examples[idx], params)
                except NonFiniteLoss as exc:
                    raise NonFiniteLoss(f"sentence {int(idx)}: {exc}") from None
                losses.append(loss)
                for name in acc:
                    acc[name] += grads[name]
            scale = 1.0 / len(batch)
            for name in acc:
                acc[name] *= scale
            adam_step(params.arrays(), acc, adam, config.learning_rate)
        report = evaluate(params, eval_records)
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
    if not tokens:
        raise EmptySentence("cannot predict on an empty sentence")
    cache = _forward_encode(params.vocab.encode(tokens), params)
    raw = biaffine_scores(cache.out, params)
    normalized, _ = _normalize_with_cache(raw)
    tree = cky_decode(normalized)
    return extract_entities(tree, params.config.schema)


def _gold_spans(record: CorpusRecord, schema: LabelSchema) -> set[tuple[int, int, int]]:
    tree = validate_annotation(
        record.tokens, [(e.start, e.end, e.label) for e in record.entities], schema
    )
    return {(e.start, e.end, e.label) for e in tree.entities}


def evaluate(params: ScorerParams, records: Sequence[CorpusRecord]) -> EvalReport:
    """Micro-averaged exact-match precision/recall/F1 with per-label rows.

    An entity counts as matched only when start, end, and label all agree.
    """
    if not records:
        raise EmptyCorpus("cannot evaluate on an empty corpus")
    schema = params.config.schema
    gold_n = pred_n = match_n = 0
    by_label: dict[str, list[int]] = {
        name: [0, 0, 0] for name in schema.observed_labels
    }
    for record in records:
        gold = _gold_spans(record, schema)
        pred = {(s.start, s.end, s.label) for s in predict(params, record.tokens)}
        matched = gold & pred
        gold_n += len(gold)
        pred_n += len(pred)
        match_n += len(matched)
        for i, j, k in gold:
            by_label[schema.observed_labels[k]][0] += 1
        for i, j, k in pred:
            by_label[schema.observed_labels[k]][1] += 1
        for i, j, k in matched:
            by_label[schema.observed_labels[k]][2] += 1
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


def sweep_latent_labels(
    records: Sequence[CorpusRecord],
    config: TrainConfig,
    counts: Sequence[int],
) -> list[tuple[int, EvalReport]]:
    """Train once per latent-label count (same seed) and collect dev reports."""
    if any(c < 1 for c in counts):
        raise BadConfig("latent label counts must be at least 1")
    rows = []
    for count in counts:
        result = train(records, replace(config, latent_label_count=count))
        rows.append((count, result.dev_report))
    return rows


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
