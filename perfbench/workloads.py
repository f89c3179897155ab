"""The benchmark's workloads, driven through treecrf's public entry points.

Every workload is a closed loop in one process and one thread: the next
operation starts when the previous one returns.  A workload has four parts:

* ``setup(seed, workdir)`` builds the inputs from the seed alone;
* ``measure(state, seconds, tally, between)`` runs the timed loop for
  ``seconds``, calling ``between`` off the clock between samples;
* ``unit(state, tally)`` runs one fixed amount of work, used by the traced
  run so that its per-layer counts repeat exactly for a given seed;
* ``check(state, tally)`` verifies the outputs, outside any timed region.

Layer functions are always looked up on their module at call time
(``train_mod.train``, ``data.read_corpus``, ...), so the tracer's wrappers
and a test's monkeypatches both take effect.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

import treecrf
import treecrf.chart as chart_mod
import treecrf.data as data
import treecrf.inference as inference
import treecrf.oracle as oracle
import treecrf.scorer as scorer

# ``treecrf.train`` is shadowed by the re-exported function ``train``.
train_mod = importlib.import_module("treecrf.train")

# Tolerances of the correctness checks.
LOSS_TOL = 1e-9  # relative to max(1, |loss|)
GRAD_SUM_TOL = 1e-8
VANILLA_TOL = 1e-6
CHECKED_SENTENCES = 8  # per train-* run, spread evenly over the corpus


@dataclass
class Tally:
    """Attempted and failed operations and checks; failures keep a note."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(note)

    def call(self, what: str, fn: Callable, *args) -> tuple[bool, object, float]:
        """Run and time one operation; an exception counts as a failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # every failure is counted, not raised
            self._fail(f"{what}: {exc!r}")
            return False, None, time.perf_counter() - start
        return True, value, time.perf_counter() - start

    @contextmanager
    def guard(self, what: str) -> Iterator[None]:
        """Count an exception raised by a check as one failed check."""
        try:
            yield
        except Exception as exc:  # a crashing check is a failed check
            self.attempted += 1
            self._fail(f"{what}: {exc!r}")


class Sample(NamedTuple):
    """One timed sample: its wall-clock span and the work done in it."""

    start: float
    end: float
    sents: int
    busy_s: float  # time inside the timed operations

    @property
    def rate(self) -> float:
        return self.sents / self.busy_s


@dataclass
class Measurement:
    """What a timed loop did: its samples, and the workload's further
    metrics as (value, unit, samples), from raw wall-clock times."""

    samples: list[Sample]
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)


def quantile(values, q: float) -> float:
    """The ``q`` quantile, or 0 when every timed operation failed."""
    values = list(values)
    return float(np.quantile(values, q)) if values else 0.0


def median(values) -> float:
    return quantile(values, 0.5)


def _closed_loop(
    seconds: float, step: Callable[[], None], between: Callable[[], None]
) -> None:
    """Call ``step`` until ``seconds`` have passed, at least once.

    ``between`` runs between two steps, off the clock.
    """
    start = time.perf_counter()
    off_clock = 0.0
    step()
    while time.perf_counter() - start - off_clock < seconds:
        paused = time.perf_counter()
        between()
        off_clock += time.perf_counter() - paused
        step()


def _write_and_read(records: list, workdir: str) -> list:
    path = os.path.join(workdir, "corpus.jsonl")
    data.write_corpus(records, path)
    return data.read_corpus(path)


def _spans_of(record: data.CorpusRecord) -> list[tuple[int, int, str]]:
    return [(e.start, e.end, e.label) for e in record.entities]


def _model_chart(tokens, params) -> inference.ScoreChart:
    """The normalized score chart ``predict`` and training both consume."""
    raw = scorer.biaffine_scores(scorer.encode(tokens, params), params)
    return scorer.potential_normalize(raw)


# --- corpora ---------------------------------------------------------------

STD_CORPUS = dict(
    num_sentences=2000, num_entity_types=3, max_nesting_depth=3, max_length=20
)


def std_corpus(seed: int) -> list[data.CorpusRecord]:
    """The standard corpus: 2000 sentences of 6 to 20 tokens."""
    return data.gen_synthetic(data.SynthConfig(**STD_CORPUS, seed=seed))


LONG_LENGTHS = range(6, 101)
LONG_BLOCKS = 10


def long_corpus(seed: int) -> list[data.CorpusRecord]:
    """``LONG_BLOCKS`` blocks that together hold every length twice.

    Sentences come from the standard generator; their lengths are laid out
    the same way for every seed.  Position p of every block holds one of
    the lengths ranked ``p * LONG_BLOCKS`` to ``(p + 1) * LONG_BLOCKS - 1``,
    dealt to the blocks in alternating order, so each block costs about the
    same to train and its train split (a hash of the position) holds nearly
    the same lengths.  Training cost grows as n^3, so a free length draw
    would change the work of a run from seed to seed.
    """
    lengths = sorted(list(LONG_LENGTHS) * 2)
    size = len(lengths) // LONG_BLOCKS
    blocks = [[0] * size for _ in range(LONG_BLOCKS)]
    for p in range(size):
        group = lengths[p * LONG_BLOCKS : (p + 1) * LONG_BLOCKS]
        for b, n in enumerate(group[::-1] if p % 2 else group):
            blocks[b][p] = n
    profile = [n for block in blocks for n in block]
    need = {n: profile.count(n) for n in LONG_LENGTHS}
    by_length: dict[int, list] = {}
    for chunk in itertools.count():
        pool = data.gen_synthetic(
            data.SynthConfig(
                num_sentences=5 * len(profile),
                max_length=LONG_LENGTHS[-1],
                seed=seed * 1000 + chunk,
            )
        )
        for record in pool:
            by_length.setdefault(len(record.tokens), []).append(record)
        if all(len(by_length.get(n, ())) >= k for n, k in need.items()):
            break
    return [by_length[n].pop() for n in profile]


# --- train-std, train-long ---------------------------------------------------


@dataclass
class TrainState:
    generated: list
    records: list
    results: dict[int, object] = field(default_factory=dict)  # slice -> last result


@dataclass
class TrainWorkload:
    """``train()`` for one epoch on each consecutive slice of a corpus.

    Each call on one slice is one timed sample, so that a run yields tens
    of samples.
    """

    corpus: Callable[[int], list]
    slice_size: int

    config = train_mod.TrainConfig(seed=0, epochs=1)
    rate_name = "train_sents_per_s"

    def setup(self, seed: int, workdir: str) -> TrainState:
        generated = self.corpus(seed)
        return TrainState(generated, _write_and_read(generated, workdir))

    def _slice(self, state: TrainState, k: int) -> list:
        return state.records[k * self.slice_size : (k + 1) * self.slice_size]

    def _slice_count(self, state: TrainState) -> int:
        return -(-len(state.records) // self.slice_size)

    def _train_once(self, state: TrainState, k: int, tally: Tally) -> float | None:
        records = self._slice(state, k)
        ok, result, dt = tally.call("train", train_mod.train, records, self.config)
        if ok:
            state.results[k] = result
        return dt if ok else None

    def measure(
        self,
        state: TrainState,
        seconds: float,
        tally: Tally,
        between: Callable[[], None],
    ) -> Measurement:
        slices = self._slice_count(state)
        sentences = [
            len(data.split_corpus(self._slice(state, k), self.config.seed)[0])
            * self.config.epochs
            for k in range(slices)
        ]
        samples: list[Sample] = []
        counter = itertools.count()

        def step() -> None:
            k = next(counter) % slices
            start = time.perf_counter()
            dt = self._train_once(state, k, tally)
            if dt is not None:
                samples.append(Sample(start, time.perf_counter(), sentences[k], dt))

        _closed_loop(seconds, step, between)
        return Measurement(samples)

    def unit(self, state: TrainState, tally: Tally) -> None:
        for k in range(self._slice_count(state)):
            self._train_once(state, k, tally)

    def check(self, state: TrainState, tally: Tally) -> None:
        tally.check(state.records == state.generated, "corpus changed on write/read")
        tally.check(bool(state.results), "no train() call succeeded")
        for k, result in sorted(state.results.items()):
            for row in result.log:
                tally.check(
                    np.isfinite(row.mean_loss),
                    f"slice {k} epoch {row.epoch}: loss {row.mean_loss}",
                )
        picks = np.linspace(0, len(state.records) - 1, CHECKED_SENTENCES).astype(int)
        for idx in dict.fromkeys(picks.tolist()):
            result = state.results.get(idx // self.slice_size)
            if result is None:
                continue
            with tally.guard(f"sentence {idx} check"):
                self._check_sentence(state.records[idx], idx, result.params, tally)

    def _check_sentence(self, record, idx, params, tally: Tally) -> None:
        schema = params.config.schema
        chart = _model_chart(record.tokens, params)
        tree = chart_mod.validate_annotation(record.tokens, _spans_of(record), schema)
        symbols = chart_mod.classify_nodes(tree)
        mask = chart_mod.build_mask(symbols, schema)
        smoothed = chart_mod.smooth_mask(mask, symbols, self.config.epsilon_smoothing)
        loss, grad = train_mod.loss_and_score_gradient(chart, smoothed)
        expected = inference.inside(chart) - inference.masked_inside(chart, smoothed)
        tally.check(
            abs(loss - expected) <= LOSS_TOL * max(1.0, abs(expected)),
            f"sentence {idx}: loss {loss!r} != inside - masked_inside {expected!r}",
        )
        tally.check(
            abs(float(np.sum(grad))) <= GRAD_SUM_TOL,
            f"sentence {idx}: score gradient sums to {float(np.sum(grad))!r}",
        )
        masked = inference.masked_inside(chart, mask)
        vanilla = inference.vanilla_partial_marginalization(chart, symbols)
        tally.check(
            abs(masked - vanilla) <= VANILLA_TOL,
            f"sentence {idx}: masked_inside {masked!r} != vanilla {vanilla!r}",
        )


# --- decode-std --------------------------------------------------------------


@dataclass
class DecodeState:
    generated: list
    records: list
    initial: scorer.ScorerParams
    params: scorer.ScorerParams
    predicted: dict[int, set] = field(default_factory=dict)
    reports: list[tuple[int, int, object]] = field(default_factory=list)


@dataclass
class DecodeWorkload:
    """Per-sentence ``predict`` and chunked ``evaluate`` with a fixed model."""

    corpus: Callable[[int], list]

    rate_name = "decode_sents_per_s"
    eval_chunk = 100  # sentences per timed evaluate sample
    predict_chunk = 50  # sentences per timed predict sample
    predict_share = 0.75  # of the window; evaluate gets the rest

    def setup(self, seed: int, workdir: str) -> DecodeState:
        generated = self.corpus(seed)
        records = _write_and_read(generated, workdir)
        config = scorer.ScorerConfig(
            embed_dim=train_mod.TrainConfig.embed_dim,
            hidden_dim=train_mod.TrainConfig.hidden_dim,
            schema=data.corpus_schema(records),
        )
        initial = scorer.init_params(data.corpus_vocab(records), config, seed)
        path = os.path.join(workdir, "model.bin")
        scorer.save_model(initial, path)
        return DecodeState(generated, records, initial, scorer.load_model(path))

    def _predict(self, state: DecodeState, idx: int, tally: Tally) -> float | None:
        tokens = state.records[idx].tokens
        ok, spans, dt = tally.call("predict", train_mod.predict, state.params, tokens)
        if ok:
            state.predicted[idx] = {(s.start, s.end, s.label) for s in spans}
        return dt if ok else None

    def _evaluate(
        self, state: DecodeState, lo: int, hi: int, tally: Tally
    ) -> float | None:
        chunk = state.records[lo:hi]
        ok, report, dt = tally.call("evaluate", train_mod.evaluate, state.params, chunk)
        if ok:
            state.reports.append((lo, hi, report))
        return dt if ok else None

    def measure(
        self,
        state: DecodeState,
        seconds: float,
        tally: Tally,
        between: Callable[[], None],
    ) -> Measurement:
        n_records = len(state.records)
        latency: list[float] = []
        samples: list[Sample] = []
        eval_samples: list[Sample] = []
        predict_chunks, eval_chunks = itertools.count(), itertools.count()

        def predict_step() -> None:
            lo = next(predict_chunks) * self.predict_chunk
            start = time.perf_counter()
            times = [
                self._predict(state, idx % n_records, tally)
                for idx in range(lo, lo + self.predict_chunk)
            ]
            times = [t for t in times if t is not None]
            latency.extend(times)
            if times:
                end = time.perf_counter()
                samples.append(Sample(start, end, len(times), sum(times)))

        def eval_step() -> None:
            lo = (next(eval_chunks) * self.eval_chunk) % n_records
            hi = min(lo + self.eval_chunk, n_records)
            start = time.perf_counter()
            dt = self._evaluate(state, lo, hi, tally)
            if dt is not None:
                eval_samples.append(Sample(start, time.perf_counter(), hi - lo, dt))

        _closed_loop(self.predict_share * seconds, predict_step, between)
        _closed_loop((1.0 - self.predict_share) * seconds, eval_step, between)
        ms = [1e3 * t for t in latency]
        return Measurement(
            samples,
            {
                "decode_ms_p50": (median(ms), "ms", len(ms)),
                "decode_ms_p99": (quantile(ms, 0.99), "ms", len(ms)),
                "eval_sents_per_s": (
                    median(s.rate for s in eval_samples),
                    "sents/s",
                    len(eval_samples),
                ),
            },
        )

    def unit(self, state: DecodeState, tally: Tally) -> None:
        n_records = len(state.records)
        for idx in range(n_records):
            self._predict(state, idx, tally)
        for lo in range(0, n_records, self.eval_chunk):
            self._evaluate(state, lo, min(lo + self.eval_chunk, n_records), tally)

    def check(self, state: DecodeState, tally: Tally) -> None:
        tally.check(state.records == state.generated, "corpus changed on write/read")
        initial, params = state.initial, state.params
        tally.check(
            initial.vocab == params.vocab
            and initial.config == params.config
            and all(
                np.array_equal(a, params.arrays()[k])
                for k, a in initial.arrays().items()
            ),
            "model changed on save/load",
        )
        schema = params.config.schema
        for idx, predicted in sorted(state.predicted.items()):
            with tally.guard(f"sentence {idx} check"):
                self._check_sentence(state.records[idx], idx, predicted, params, tally)
        for lo, hi, report in state.reports:
            with tally.guard(f"evaluate [{lo}, {hi}) check"):
                self._check_report(state, lo, hi, report, schema, tally)

    def _check_sentence(self, record, idx, predicted, params, tally: Tally) -> None:
        n = len(record.tokens)
        in_range = all(
            0 <= i <= j < n and 0 <= k < params.config.schema.n_observed
            for i, j, k in predicted
        )
        laminar = not any(
            a < c <= b < d or c < a <= d < b
            for (a, b, _), (c, d, _) in itertools.combinations(predicted, 2)
        )
        tally.check(
            in_range and laminar, f"sentence {idx}: entities {sorted(predicted)}"
        )
        if n > oracle.MAX_ORACLE_N:
            return
        best = oracle.brute_force_best_tree(_model_chart(record.tokens, params))
        expected = {
            (s.start, s.end, s.label)
            for s in inference.extract_entities(best, params.config.schema)
        }
        tally.check(
            predicted == expected,
            f"sentence {idx}: predicted {sorted(predicted)}, oracle {sorted(expected)}",
        )

    def _check_report(self, state, lo, hi, report, schema, tally: Tally) -> None:
        gold_n = pred_n = match_n = 0
        for idx in range(lo, hi):
            record = state.records[idx]
            gold = {
                (e.start, e.end - 1, schema.label_index(e.label))
                for e in record.entities
            }
            predicted = state.predicted.get(idx)
            if predicted is None:
                spans = train_mod.predict(state.params, record.tokens)
                predicted = {(s.start, s.end, s.label) for s in spans}
            gold_n += len(gold)
            pred_n += len(predicted)
            match_n += len(gold & predicted)
        counts = (report.gold_count, report.predicted_count, report.matched_count)
        tally.check(
            counts == (gold_n, pred_n, match_n),
            f"evaluate [{lo}, {hi}): counts {counts} != {(gold_n, pred_n, match_n)}",
        )


# --- batch-inside ------------------------------------------------------------


@dataclass
class BatchState:
    charts: list
    symbols: list
    masks: list
    batched: list = field(default_factory=list)
    vanilla: dict[int, float] = field(default_factory=dict)


@dataclass
class BatchWorkload:
    """Random charts through ``batched_masked_inside`` and the vanilla path."""

    rate_name = "batch_inside_sents_per_s"
    batch = 32
    length = 40
    labels = 8

    def setup(self, seed: int, workdir: str) -> BatchState:
        rng = np.random.default_rng(seed)
        schema = treecrf.LabelSchema(
            observed_labels=tuple(f"L{k}" for k in range(self.labels - 1)),
            latent_label_count=1,
        )
        charts, symbols, masks = [], [], []
        for _ in range(self.batch):
            charts.append(oracle.random_chart(self.length, schema, rng))
            tree = oracle.random_partial_tree(self.length, schema, rng)
            symbols.append(chart_mod.classify_nodes(tree))
            masks.append(chart_mod.build_mask(symbols[-1], schema))
        return BatchState(charts, symbols, masks)

    def _round(
        self, state: BatchState, k: int, tally: Tally
    ) -> tuple[float | None, float | None]:
        """One batched call over every chart, then the vanilla path on chart k."""
        ok, values, dt_batched = tally.call(
            "batched_masked_inside",
            inference.batched_masked_inside,
            state.charts,
            state.masks,
        )
        if ok:
            state.batched.append(values)
        k %= self.batch
        ok_v, value, dt_vanilla = tally.call(
            "vanilla_partial_marginalization",
            inference.vanilla_partial_marginalization,
            state.charts[k],
            state.symbols[k],
        )
        if ok_v:
            state.vanilla[k] = value
        return (dt_batched if ok else None, dt_vanilla if ok_v else None)

    def measure(
        self,
        state: BatchState,
        seconds: float,
        tally: Tally,
        between: Callable[[], None],
    ) -> Measurement:
        samples: list[Sample] = []
        vanilla: list[Sample] = []
        speedups: list[float] = []  # of rounds where both paths succeeded
        counter = itertools.count()

        def step() -> None:
            start = time.perf_counter()
            dt_batched, dt_vanilla = self._round(state, next(counter), tally)
            end = time.perf_counter()
            if dt_batched is not None:
                samples.append(Sample(start, end, self.batch, dt_batched))
            if dt_vanilla is not None:
                vanilla.append(Sample(start, end, 1, dt_vanilla))
            if dt_batched is not None and dt_vanilla is not None:
                speedups.append(self.batch * dt_vanilla / dt_batched)

        _closed_loop(seconds, step, between)
        return Measurement(
            samples,
            {
                "vanilla_sents_per_s": (
                    median(s.rate for s in vanilla),
                    "sents/s",
                    len(vanilla),
                ),
                "batched_speedup": (median(speedups), "x", len(speedups)),
            },
        )

    def unit(self, state: BatchState, tally: Tally) -> None:
        for k in range(self.batch):
            self._round(state, k, tally)

    def check(self, state: BatchState, tally: Tally) -> None:
        tally.check(bool(state.batched), "no batched call succeeded")
        if not state.batched:
            return
        first = state.batched[0]
        tally.check(
            all(np.array_equal(first, other) for other in state.batched[1:]),
            "batched results differ between calls",
        )
        for k in range(self.batch):
            with tally.guard(f"chart {k} check"):
                if k not in state.vanilla:
                    state.vanilla[k] = inference.vanilla_partial_marginalization(
                        state.charts[k], state.symbols[k]
                    )
                gap = abs(float(first[k]) - state.vanilla[k])
                tally.check(
                    gap <= VANILLA_TOL,
                    f"chart {k}: batched and vanilla differ by {gap:.3e}",
                )


WORKLOADS = {
    "train-std": TrainWorkload(corpus=std_corpus, slice_size=200),
    "train-long": TrainWorkload(
        corpus=long_corpus, slice_size=2 * len(LONG_LENGTHS) // LONG_BLOCKS
    ),
    "decode-std": DecodeWorkload(corpus=std_corpus),
    "batch-inside": BatchWorkload(),
}
