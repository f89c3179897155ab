import importlib
import math
from unittest import mock

import numpy as np
import pytest

from treecrf import (
    BadConfig,
    CorpusRecord,
    EmptyCorpus,
    EmptySentence,
    Entity,
    NonFiniteLoss,
    SynthConfig,
    TrainConfig,
    batch_predict,
    evaluate,
    gen_synthetic,
    predict,
    train,
    validate_annotation,
)
from treecrf.chart import ChartMask, ScoreChart, pack_cells
from treecrf.cli import main as cli_main
from treecrf.data import (
    corpus_schema,
    corpus_vocab,
    preprocess,
    split_corpus,
    write_corpus,
)
from treecrf.inference import loss_and_score_gradient
from treecrf.scorer import (
    PARAM_ORDER,
    ScorerConfig,
    biaffine_scores,
    encode,
    forward_batch,
    init_params,
)
from treecrf.train import (
    ADAM_EPS,
    AdamState,
    EpochLog,
    _batch_gradient,
    adam_step,
    write_training_log,
)

from conftest import log_domain_reference, log_passes


def sentence_loss_and_grads(tokens, mask, params):
    """The training objective of one sentence, through public functions."""
    (chart,), tape = forward_batch([params.vocab.encode(tokens)], params)
    loss, score_grad = loss_and_score_gradient(chart, mask)
    return loss, tape.backward([score_grad])


def record_of_length(n, rng):
    """``n`` tokens with a whole-sentence entity and, from two tokens on,
    its two halves as nested entities."""
    tokens = tuple(f"w{int(t)}" for t in rng.integers(0, 40, size=n))
    entities = [Entity(0, n, "E0")]
    if n >= 2:
        entities += [Entity(0, n // 2, "E1"), Entity(n // 2, n, "E2")]
    return CorpusRecord(tokens=tokens, entities=tuple(entities))


def reference_training(records, config):
    """``train`` run sentence by sentence, gradients summed in batch order:
    its log, the parameters after each epoch, and the sentence lengths of
    every minibatch."""
    schema = corpus_schema(records)
    vocab = corpus_vocab(records)
    train_records, dev_records, _ = split_corpus(records, config.seed)
    eval_records = dev_records or train_records
    examples = preprocess(train_records, schema, vocab, config.epsilon_smoothing)
    params = init_params(
        vocab, ScorerConfig(config.embed_dim, config.hidden_dim, schema), config.seed
    )
    adam = AdamState.init(params.arrays())
    rng = np.random.default_rng(config.seed)
    log, snapshots, batches = [], [], []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            batches.append([len(train_records[idx].tokens) for idx in batch])
            acc = {k: np.zeros_like(a) for k, a in params.arrays().items()}
            for idx in batch:
                loss, grads = sentence_loss_and_grads(
                    train_records[idx].tokens, examples[idx].mask, params
                )
                losses.append(loss)
                for name in acc:
                    acc[name] += grads[name]
            for name in acc:
                acc[name] *= 1.0 / len(batch)
            adam_step(params.arrays(), acc, adam, config.learning_rate)
        report = evaluate(params, eval_records)
        log.append(
            EpochLog(epoch, float(np.mean(losses)), report.precision, report.recall, report.f1)
        )
        snapshots.append(params.copy())
    return log, snapshots, batches


def single_record():
    return CorpusRecord(
        tokens=("<e0>", "w1", "</e0>", "w2"), entities=(Entity(0, 3, "E0"),)
    )


class TestAdam:
    def test_two_steps_match_hand_computation(self):
        p = {"w": np.array([1.0, 2.0])}
        state = AdamState.init(p)
        lr, b1, b2 = 0.01, 0.9, 0.999
        gs = [np.array([0.1, -0.2]), np.array([0.05, 0.05])]
        # independent straight-line transcription of the update rule
        m = np.zeros(2)
        v = np.zeros(2)
        expect = np.array([1.0, 2.0])
        for t, g in enumerate(gs, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            expect = expect - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            adam_step(p, {"w": g}, state, lr)
            np.testing.assert_allclose(p["w"], expect, atol=1e-10)


class TestOverfit:
    def test_unnormalized_pipeline_reaches_near_zero_loss(self):
        # the structured loss itself is overfittable: without per-sentence
        # score normalization, 200 Adam steps on one example's raw span
        # cells drive its loss to ~0
        record = single_record()
        schema = corpus_schema([record])
        vocab = corpus_vocab([record])
        (example,) = preprocess([record], schema, vocab, 0.0)
        params = init_params(vocab, ScorerConfig(8, 16, schema), seed=0)
        cells = biaffine_scores(encode(record.tokens, params), params).cells.copy()
        adam = AdamState.init({"cells": cells})
        for _ in range(200):
            raw = ScoreChart(cells.copy(), schema)
            loss, sg = loss_and_score_gradient(raw, example.mask)
            adam_step({"cells": cells}, {"cells": sg}, adam, 25.0)
        assert loss < 0.01
        # the last raw chart spreads over hundreds of nats, too wide for the
        # scaled real pass, so it is redone in the log semiring; its loss
        # and gradient are still exact
        assert np.ptp(raw.cells) > 200
        assert log_passes(lambda: loss_and_score_gradient(raw, example.mask)) == 1
        root, mu = log_domain_reference(raw)
        masked_root, masked_mu = log_domain_reference(raw, example.mask)
        assert loss == pytest.approx(root - masked_root, abs=1e-12 * abs(root))
        expected = pack_cells(mu - masked_mu)
        np.testing.assert_allclose(sg, expected, rtol=1e-12, atol=1e-12)

    def test_normalized_pipeline_predicts_gold_exactly(self):
        # variance-1 normalization bounds score gaps, so the loss plateaus
        # above zero; the decoded entities still match the example exactly
        record = single_record()
        schema = corpus_schema([record])
        vocab = corpus_vocab([record])
        (example,) = preprocess([record], schema, vocab, 0.0)
        params = init_params(vocab, ScorerConfig(8, 16, schema), seed=0)
        adam = AdamState.init(params.arrays())
        for _ in range(200):
            loss, grads = sentence_loss_and_grads(record.tokens, example.mask, params)
            adam_step(params.arrays(), grads, adam, 0.05)
        gold = validate_annotation(
            record.tokens, [(e.start, e.end, e.label) for e in record.entities], schema
        )
        assert set(predict(params, record.tokens)) == set(gold.entities)
        assert loss < 1.0  # settled near the normalization-imposed floor


@pytest.fixture(scope="module")
def small_corpus():
    return gen_synthetic(SynthConfig(num_sentences=220, seed=0))


@pytest.fixture(scope="module")
def trained(small_corpus):
    return train(small_corpus, TrainConfig(epochs=5, seed=0))


class TestTrain:
    def test_loss_non_increasing_first_epochs(self, small_corpus):
        result = train(small_corpus, TrainConfig(epochs=3, seed=0))
        losses = [row.mean_loss for row in result.log]
        assert losses[0] >= losses[1] >= losses[2]

    def test_bit_reproducible(self, small_corpus):
        config = TrainConfig(epochs=2, seed=7)
        a = train(small_corpus[:60], config)
        b = train(small_corpus[:60], config)
        for name in PARAM_ORDER:
            np.testing.assert_array_equal(
                getattr(a.params, name), getattr(b.params, name)
            )
        assert a.log == b.log

    def test_matches_per_sentence_reference_loop(self, small_corpus):
        # train() batches the structured layer over each minibatch; this
        # loop runs it sentence by sentence and sums gradients in batch
        # order, so any change of values or accumulation order shows here.
        records = small_corpus[:70]
        config = TrainConfig(epochs=2, seed=3, batch_size=8)
        schema = corpus_schema(records)
        vocab = corpus_vocab(records)
        train_records, dev_records, _ = split_corpus(records, config.seed)
        examples = preprocess(train_records, schema, vocab, config.epsilon_smoothing)
        scorer_config = ScorerConfig(config.embed_dim, config.hidden_dim, schema)
        params = init_params(vocab, scorer_config, config.seed)
        adam = AdamState.init(params.arrays())
        rng = np.random.default_rng(config.seed)
        log, snapshots = [], []
        for epoch in (1, 2):
            order = rng.permutation(len(examples))
            losses = []
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo : lo + config.batch_size]
                acc = {k: np.zeros_like(a) for k, a in params.arrays().items()}
                for idx in batch:
                    loss, grads = sentence_loss_and_grads(
                        train_records[idx].tokens, examples[idx].mask, params
                    )
                    losses.append(loss)
                    for name in acc:
                        acc[name] += grads[name]
                for name in acc:
                    acc[name] *= 1.0 / len(batch)
                adam_step(params.arrays(), acc, adam, config.learning_rate)
            report = evaluate(params, dev_records)
            log.append(
                EpochLog(
                    epoch, float(np.mean(losses)), report.precision, report.recall, report.f1
                )
            )
            snapshots.append(params.copy())
        result = train(records, config)
        assert result.log == log
        best = snapshots[result.best_epoch - 1]
        for name in PARAM_ORDER:
            np.testing.assert_array_equal(
                getattr(result.params, name), getattr(best, name)
            )

    def test_matches_reference_loop_on_mixed_lengths(self):
        # minibatches that mix sentences of 1 and 2 tokens with 60-100,
        # 74 to 77 included: a 1-token sentence padded into a group, or a
        # group padded past 75 tokens, changes the last bit of gradients
        rng = np.random.default_rng(5)
        lengths = [1, 1, 1, 2, 2, 2, *[74, 75, 76, 77] * 2, *rng.integers(60, 101, size=8)]
        records = [record_of_length(int(n), rng) for n in rng.permutation(lengths)]
        config = TrainConfig(epochs=2, seed=3, batch_size=6)
        log, snapshots, batches = reference_training(records, config)
        assert {1, 2, 74, 75, 76, 77} <= {n for batch in batches for n in batch}
        assert any(
            1 in batch and 2 in batch and max(batch) >= 76 for batch in batches
        ), batches
        result = train(records, config)
        assert result.log == log
        best = snapshots[result.best_epoch - 1]
        for name in PARAM_ORDER:
            np.testing.assert_array_equal(
                getattr(result.params, name), getattr(best, name)
            )

    def test_diverged_forward_names_the_sentence(self):
        # the third sentence of a mixed batch, padded together with the
        # fourth behind two that run alone, is the only one that reads the
        # poisoned embedding row
        rng = np.random.default_rng(6)
        records = [record_of_length(n, rng) for n in (90, 1, 12, 30, 5, 8)]
        records[4] = CorpusRecord(("poison",) * 5, records[4].entities)
        schema, vocab = corpus_schema(records), corpus_vocab(records)
        examples = preprocess(records, schema, vocab, 0.01)
        params = init_params(vocab, ScorerConfig(16, 32, schema), seed=0)
        params.emb[vocab.index["poison"]] = np.nan
        batch = np.array([0, 1, 4, 3])
        with pytest.raises(
            NonFiniteLoss, match=r"^sentence 4 \(length 5\), scorer forward: "
        ):
            _batch_gradient(batch, examples, params, [], range(len(examples)))

    def test_mask_admitting_no_tree_names_the_sentence(self):
        # the structured layer gives that sentence an infinite loss, and the
        # finite-loss check names it
        rng = np.random.default_rng(7)
        records = [record_of_length(n, rng) for n in (9, 30, 4, 12)]
        schema, vocab = corpus_schema(records), corpus_vocab(records)
        examples = preprocess(records, schema, vocab, 0.01)
        examples[1] = examples[1]._replace(
            mask=ChartMask(np.zeros_like(examples[1].mask.cells))
        )
        params = init_params(vocab, ScorerConfig(16, 32, schema), seed=0)
        with pytest.raises(
            NonFiniteLoss, match=r"^sentence 1 \(length 30\), loss: loss=inf"
        ):
            _batch_gradient(np.array([0, 1, 2, 3]), examples, params, [], range(4))

    @pytest.mark.parametrize("poisoned", [126, 93])
    def test_divergence_names_the_corpus_position(self, poisoned, monkeypatch):
        # record 126 is the 101st of the train split and record 93 the 11th
        # of the dev split; only the poisoned record reads the token whose
        # embedding overflows the scores, in training or in the dev
        # evaluation after the epoch
        records = list(gen_synthetic(SynthConfig(num_sentences=400, seed=5)))
        train_at, dev_at, _ = split_corpus(range(len(records)), 0)
        assert train_at.index(126) == 100 and dev_at.index(93) == 10
        bad = records[poisoned]
        records[poisoned] = CorpusRecord(("poison",) + bad.tokens[1:], bad.entities)
        train_module = importlib.import_module("treecrf.train")

        def poisoned_params(vocab, config, seed):
            params = init_params(vocab, config, seed)
            params.emb[vocab.index["poison"]] = 1e200
            return params

        monkeypatch.setattr(train_module, "init_params", poisoned_params)
        with pytest.raises(NonFiniteLoss) as info:
            train(records, TrainConfig(epochs=1))
        assert info.value.position == poisoned
        prefix = f"sentence {poisoned} (length {len(bad.tokens)}), scorer forward: "
        assert str(info.value).startswith(prefix)

    def test_losses_nonnegative_without_smoothing(self, small_corpus):
        config = TrainConfig(epochs=1, seed=0, epsilon_smoothing=0.0)
        result = train(small_corpus[:40], config)
        assert result.log[0].mean_loss >= -1e-6

    def test_epsilon_changes_first_epoch_loss(self, small_corpus):
        base = TrainConfig(epochs=1, seed=0, epsilon_smoothing=0.0)
        smoothed = TrainConfig(epochs=1, seed=0, epsilon_smoothing=0.01)
        a = train(small_corpus[:40], base)
        b = train(small_corpus[:40], smoothed)
        assert a.log[0].mean_loss != b.log[0].mean_loss

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train([], TrainConfig())

    def test_bad_config(self):
        with pytest.raises(BadConfig):
            TrainConfig(latent_label_count=0)
        with pytest.raises(BadConfig):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(BadConfig):
            TrainConfig(epsilon_smoothing=1.0)
        for rate in (math.nan, math.inf):
            with pytest.raises(BadConfig):
                TrainConfig(learning_rate=rate)

    def test_best_checkpoint_earliest_on_tie(self, small_corpus):
        result = train(small_corpus, TrainConfig(epochs=3, seed=0))
        best_f1 = max(row.dev_f1 for row in result.log)
        first_best = next(r.epoch for r in result.log if r.dev_f1 == best_f1)
        assert result.best_epoch == first_best


class TestPredictEvaluate:
    def test_predictions_laminar(self, trained, small_corpus):
        for record in small_corpus[:30]:
            spans = predict(trained.params, record.tokens)
            for a in spans:
                for b in spans:
                    ok = (
                        a.end < b.start
                        or b.end < a.start
                        or (a.start <= b.start and b.end <= a.end)
                        or (b.start <= a.start and a.end <= b.end)
                    )
                    assert ok

    def test_untrained_zero_params_predict_all_label_zero(self, small_corpus):
        schema = corpus_schema(small_corpus)
        vocab = corpus_vocab(small_corpus)
        params = init_params(vocab, ScorerConfig(8, 16, schema), seed=0)
        for arr in params.arrays().values():
            arr[:] = 0.0
        spans = predict(params, ("w1", "w2", "w3"))
        assert len(spans) == 5  # every node of the tie-broken tree
        assert all(s.label == 0 for s in spans)

    def test_perfect_predictions_give_f1_one(self, trained, small_corpus):
        # evaluate against the model's own predictions as gold
        schema = trained.params.config.schema
        pseudo_gold = []
        for record in small_corpus[:20]:
            spans = predict(trained.params, record.tokens)
            entities = tuple(
                Entity(s.start, s.end + 1, schema.observed_labels[s.label])
                for s in spans
            )
            pseudo_gold.append(CorpusRecord(tokens=record.tokens, entities=entities))
        report = evaluate(trained.params, pseudo_gold)
        assert report.precision == report.recall == report.f1 == 1.0

    @pytest.mark.parametrize("bound", [None, 1, 3000], ids=["default", "1", "3000"])
    def test_chunked_decoding_equals_per_record_predict(
        self, trained, small_corpus, monkeypatch, bound
    ):
        # chunks at the default bound, of one sentence each, and of a few
        # sentences, with sentences of up to 100 tokens (5050 span cells):
        # 1 and 76 or more tokens are scored alone, 2 to 75 padded together
        train_module = importlib.import_module("treecrf.train")
        if bound is not None:
            monkeypatch.setattr(train_module, "DECODE_CHUNK_CELLS", bound)
        longer = gen_synthetic(SynthConfig(num_sentences=12, max_length=60, seed=3))
        rng = np.random.default_rng(4)
        edges = [record_of_length(n, rng) for n in (1, 75, 76, 100)]
        records = small_corpus[:150] + longer[:6] + edges + longer[6:] + small_corpus[150:]
        params = trained.params
        schema = params.config.schema
        singles = [predict(params, record.tokens) for record in records]
        decode = mock.patch.object(
            train_module, "batch_cky_decode", wraps=train_module.batch_cky_decode
        )
        with decode as batch_cky_decode:
            assert list(batch_predict(params, (r.tokens for r in records))) == singles
        # consecutive chunks, each as long as the bound allows
        chunks = [[c.n for c in call.args[0]] for call in batch_cky_decode.call_args_list]
        assert sum(chunks, []) == [len(r.tokens) for r in records]
        padded = [len(c) * max(c) * (max(c) + 1) // 2 for c in chunks]
        limit = train_module.DECODE_CHUNK_CELLS
        assert all(p <= limit for p, c in zip(padded, chunks) if len(c) > 1)
        for chunk, after in zip(chunks, chunks[1:]):
            longest = max(chunk + after[:1])
            assert (len(chunk) + 1) * longest * (longest + 1) // 2 > limit
        counts = {name: [0, 0, 0] for name in schema.observed_labels}
        for record, spans in zip(records, singles):
            tree = validate_annotation(
                record.tokens, [(e.start, e.end, e.label) for e in record.entities], schema
            )
            gold = {(e.start, e.end, e.label) for e in tree.entities}
            pred = {(s.start, s.end, s.label) for s in spans}
            for spans_of, column in ((gold, 0), (pred, 1), (gold & pred, 2)):
                for _, _, k in spans_of:
                    counts[schema.observed_labels[k]][column] += 1
        report = evaluate(params, records)
        per_label = {
            name: (m.gold, m.predicted, m.matched) for name, m in report.per_label.items()
        }
        assert per_label == {name: tuple(c) for name, c in counts.items()}
        totals = tuple(sum(c[column] for c in counts.values()) for column in range(3))
        assert (report.gold_count, report.predicted_count, report.matched_count) == totals

    @pytest.mark.parametrize("entry", ["batch_predict", "evaluate"])
    def test_scorer_failure_names_the_corpus_position(self, entry, monkeypatch):
        # only sentence 350 holds the token whose embedding overflows the
        # scores; chunks of a few sentences put it in a later chunk than the
        # first, so its position in its chunk is not its position in the input
        train_module = importlib.import_module("treecrf.train")
        monkeypatch.setattr(train_module, "DECODE_CHUNK_CELLS", 1000)
        records = list(gen_synthetic(SynthConfig(num_sentences=400, seed=5)))
        bad = records[350]
        records[350] = CorpusRecord(("poison",) + bad.tokens[1:], bad.entities)
        schema = corpus_schema(records)
        vocab = corpus_vocab(records)
        params = init_params(vocab, ScorerConfig(8, 16, schema), seed=0)
        params.emb[vocab.index["poison"]] = 1e200
        with pytest.raises(NonFiniteLoss) as info:
            if entry == "evaluate":
                evaluate(params, records)
            else:
                list(batch_predict(params, (r.tokens for r in records)))
        assert info.value.position == 350
        prefix = f"sentence 350 (length {len(bad.tokens)}), scorer forward: "
        assert str(info.value).startswith(prefix)

    def test_empty_sentence_names_its_input_position(self):
        # sentence 350 falls in a later decode chunk than the first
        records = list(gen_synthetic(SynthConfig(num_sentences=400, seed=5)))
        schema, vocab = corpus_schema(records), corpus_vocab(records)
        params = init_params(vocab, ScorerConfig(8, 16, schema), seed=0)
        sentences = [r.tokens for r in records]
        sentences[350] = ()
        with pytest.raises(EmptySentence, match=r"^sentence 350 \(length 0\), "):
            list(batch_predict(params, sentences))

    def test_report_arithmetic(self):
        from treecrf.train import _prf

        assert _prf(1, 2, 1) == (0.5, 1.0, pytest.approx(2 / 3))
        assert _prf(3, 0, 0) == (0.0, 0.0, 0.0)

    def test_evaluate_empty_corpus(self, trained):
        with pytest.raises(EmptyCorpus):
            evaluate(trained.params, [])


def _sweep_rows(records, tmp_path, capsys, counts, flags):
    """The (count, precision, recall, f1) rows `treecrf sweep-latent` prints."""
    path = str(tmp_path / "sweep.jsonl")
    write_corpus(records, path)
    assert cli_main(["sweep-latent", "--data", path, "--counts", counts, *flags]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == "latent_labels,dev_precision,dev_recall,dev_f1"
    return [
        (int(c), float(p), float(r), float(f))
        for c, p, r, f in (line.split(",") for line in lines[1:])
    ]


class TestSweep:
    def test_single_count_matches_plain_train(self, small_corpus, tmp_path, capsys):
        rows = _sweep_rows(small_corpus[:80], tmp_path, capsys, "1",
                           ["--epochs", "2", "--seed", "0"])
        plain = train(small_corpus[:80], TrainConfig(epochs=2, seed=0)).dev_report
        assert [row[0] for row in rows] == [1]
        assert rows[0][1:] == pytest.approx(
            (plain.precision, plain.recall, plain.f1), abs=5e-7
        )

    def test_row_per_count(self, small_corpus, tmp_path, capsys):
        rows = _sweep_rows(small_corpus[:60], tmp_path, capsys, "1,2,3",
                           ["--epochs", "1", "--seed", "0"])
        assert [row[0] for row in rows] == [1, 2, 3]
        for _, *report in rows:
            assert all(0.0 <= value <= 1.0 for value in report)


class TestTrainingLog:
    def test_csv_format(self, tmp_path):
        rows = [
            EpochLog(1, 2.5, 0.1, 0.2, 0.13),
            EpochLog(2, 1.25, 0.5, 0.6, 0.55),
        ]
        path = str(tmp_path / "log.csv")
        write_training_log(rows, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "epoch,mean_loss,dev_precision,dev_recall,dev_f1"
        assert lines[1] == "1,2.500000,0.100000,0.200000,0.130000"
        assert len(lines) == 3
