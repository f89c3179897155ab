import math

import numpy as np
import pytest

from treecrf import (
    BadConfig,
    CorpusRecord,
    EmptyCorpus,
    Entity,
    SynthConfig,
    TrainConfig,
    evaluate,
    gen_synthetic,
    predict,
    sweep_latent_labels,
    train,
    validate_annotation,
)
from treecrf.data import corpus_schema, corpus_vocab, preprocess
from treecrf.inference import loss_and_score_gradient
from treecrf.scorer import (
    PARAM_ORDER,
    ScorerConfig,
    _biaffine_backward,
    _encode_backward,
    _forward_encode,
    biaffine_scores,
    init_params,
)
from treecrf.train import (
    ADAM_EPS,
    AdamState,
    EpochLog,
    adam_step,
    write_training_log,
    _sentence_loss_and_grads,
)


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
        # score normalization, 200 steps drive one example's loss to ~0
        record = single_record()
        schema = corpus_schema([record])
        vocab = corpus_vocab([record])
        (example,) = preprocess([record], schema, vocab, 0.0)
        params = init_params(vocab, ScorerConfig(8, 16, schema), seed=0)
        adam = AdamState.init(params.arrays())
        loss = math.inf
        for _ in range(200):
            cache = _forward_encode(example.token_ids, params)
            raw = biaffine_scores(cache.out, params)
            loss, sg = loss_and_score_gradient(raw, example.mask)
            bi_grads, de = _biaffine_backward(cache.out, params, sg)
            grads = _encode_backward(cache, params, de)
            grads.update(bi_grads)
            adam_step(params.arrays(), {k: grads[k] for k in PARAM_ORDER}, adam, 0.05)
        assert loss < 0.01

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
            loss, grads = _sentence_loss_and_grads(example, params)
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

    def test_report_arithmetic(self):
        from treecrf.train import _prf

        assert _prf(1, 2, 1) == (0.5, 1.0, pytest.approx(2 / 3))
        assert _prf(3, 0, 0) == (0.0, 0.0, 0.0)

    def test_evaluate_empty_corpus(self, trained):
        with pytest.raises(EmptyCorpus):
            evaluate(trained.params, [])


class TestSweep:
    def test_single_count_matches_plain_train(self, small_corpus):
        config = TrainConfig(epochs=2, seed=0)
        rows = sweep_latent_labels(small_corpus[:80], config, [1])
        plain = train(small_corpus[:80], config)
        assert rows[0][0] == 1
        assert rows[0][1] == plain.dev_report

    def test_row_per_count(self, small_corpus):
        config = TrainConfig(epochs=1, seed=0)
        rows = sweep_latent_labels(small_corpus[:60], config, [1, 2, 3])
        assert [c for c, _ in rows] == [1, 2, 3]
        for _, report in rows:
            assert 0.0 <= report.f1 <= 1.0

    def test_bad_count(self, small_corpus):
        with pytest.raises(BadConfig):
            sweep_latent_labels(small_corpus[:10], TrainConfig(), [0])


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
