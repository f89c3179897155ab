import ast
import functools
import hashlib
import json
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treecrf
from treecrf import (
    BadConfig,
    DimensionMismatch,
    EmptySentence,
    LabelSchema,
    ModelFormatError,
    NonFiniteLoss,
    ScorerConfig,
    Vocab,
    build_mask,
    classify_nodes,
    init_params,
    load_model,
    loss_and_score_gradient,
    save_model,
    smooth_mask,
)
from treecrf.chart import pack_cells
from treecrf.inference import ScoreChart, cky_decode
from treecrf.oracle import random_partial_tree
from treecrf.scorer import (
    MODEL_FORMAT_VERSION,
    MODEL_MAGIC,
    PADDED_MAX_TOKENS,
    PARAM_ORDER,
    _padded_groups,
    biaffine_scores,
    encode,
    forward_batch,
    potential_normalize,
)


@pytest.fixture
def small_vocab():
    return Vocab.build(f"tok{i}" for i in range(12))


@pytest.fixture
def small_config(schema3):
    return ScorerConfig(embed_dim=4, hidden_dim=8, schema=schema3)


def noised_params(vocab, config, seed):
    """Random params at a generic point (biases off the ReLU kinks)."""
    params = init_params(vocab, config, seed)
    rng = np.random.default_rng(1000 + seed)
    for arr in params.arrays().values():
        arr += rng.uniform(-0.05, 0.05, size=arr.shape)
    return params


class TestVocab:
    def test_build_sorted_with_unk_first(self):
        vocab = Vocab.build(["b", "a", "b"])
        assert vocab.tokens == ("<unk>", "a", "b")
        assert vocab.index["<unk>"] == 0

    def test_encode_unknowns(self, small_vocab):
        ids = small_vocab.encode(["tok1", "never-seen"])
        assert ids[1] == 0  # <unk>


class TestInitParams:
    def test_deterministic(self, small_vocab, small_config):
        a = init_params(small_vocab, small_config, seed=3)
        b = init_params(small_vocab, small_config, seed=3)
        for name in PARAM_ORDER:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_weights(self, small_vocab, small_config):
        a = init_params(small_vocab, small_config, seed=3)
        b = init_params(small_vocab, small_config, seed=4)
        assert not np.array_equal(a.emb, b.emb)

    def test_biases_zero(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        for name in ("mix_b", "ff1_b", "ff2_b", "bi_b"):
            assert not getattr(params, name).any()

    def test_zero_bilinear_terms_score_zero(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        params.bi_u1[:] = 0.0
        params.bi_u2[:] = 0.0
        chart = biaffine_scores(encode(["tok1", "tok2"], params), params)
        np.testing.assert_array_equal(chart.s, 0.0)

    def test_parameter_count_golden(self):
        # |V|=100, d=16, h=32, labels=4:
        # 100*16 + (16*48+16) + (32*16+32) + (16*32+16) + 4*16*16 + 4*16 + 4
        vocab = Vocab(tokens=("<unk>", *[f"t{i}" for i in range(99)]))
        schema = LabelSchema(("A", "B", "C"), 1)
        config = ScorerConfig(embed_dim=16, hidden_dim=32, schema=schema)
        params = init_params(vocab, config, seed=0)
        assert sum(a.size for a in params.arrays().values()) == 4548

    def test_bad_config(self, schema3):
        with pytest.raises(BadConfig):
            ScorerConfig(embed_dim=4, hidden_dim=7, schema=schema3)
        with pytest.raises(BadConfig):
            ScorerConfig(embed_dim=1, hidden_dim=8, schema=schema3)


class TestEncode:
    def test_all_zero_params_give_zero_embeddings(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        for arr in params.arrays().values():
            arr[:] = 0.0
        e = encode(["tok1", "tok2", "tok3"], params)
        np.testing.assert_array_equal(e, 0.0)

    def test_single_token_uses_zero_padding(self, small_vocab, small_config):
        params = noised_params(small_vocab, small_config, seed=0)
        single = encode(["tok5"], params)
        # same token flanked by others encodes differently (context mixing)
        flanked = encode(["tok1", "tok5", "tok2"], params)[1]
        assert single.shape == (1, 4)
        assert not np.allclose(single[0], flanked)

    def test_width_three_locality(self, small_vocab, small_config):
        params = noised_params(small_vocab, small_config, seed=1)
        tokens = [f"tok{i}" for i in range(8)]
        swapped = list(tokens)
        swapped[0], swapped[6] = swapped[6], swapped[0]
        e1 = encode(tokens, params)
        e2 = encode(swapped, params)
        changed = {p for p in range(8) if not np.allclose(e1[p], e2[p])}
        assert changed <= {0, 1, 5, 6, 7}
        assert {0, 1, 6} <= changed

    def test_empty_sentence(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        with pytest.raises(EmptySentence):
            encode([], params)


class TestBiaffineScores:
    def test_constant_bias_case(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        params.bi_u1[:] = 0.0
        params.bi_u2[:] = 0.0
        params.bi_b[:] = [1.5, -2.0, 0.25]
        chart = biaffine_scores(encode(["tok1", "tok2", "tok3"], params), params)
        for i in range(3):
            for j in range(i, 3):
                assert chart.s[i, j].tolist() == [1.5, -2.0, 0.25]

    def test_scalar_arithmetic(self, schema3, small_vocab):
        # h/2 = 1: e_0 = [1], e_1 = [2], U1 = 1, U2 = 0, b = 0
        config = ScorerConfig(embed_dim=2, hidden_dim=2, schema=schema3)
        params = init_params(small_vocab, config, seed=0)
        params.bi_u1[:] = 0.0
        params.bi_u1[0] = 1.0
        params.bi_u2[:] = 0.0
        params.bi_b[:] = 0.0
        e = np.array([[1.0], [2.0]])
        chart = biaffine_scores(e, params)
        assert chart.s[0, 0, 0] == 1.0
        assert chart.s[0, 1, 0] == 2.0
        assert chart.s[1, 1, 0] == 4.0

    def test_cells_equal_the_biaffine_form(self, schema3, small_vocab):
        # s[i, j, k] = e_i' U1_k e_j + (e_i + e_j)' U2_k + b_k, with U1, U2
        # and b all random and nonzero
        rng = np.random.default_rng(5)
        for embed_dim, hidden_dim in ((2, 4), (16, 32)):
            config = ScorerConfig(embed_dim, hidden_dim, schema3)
            params = init_params(small_vocab, config, seed=5)
            for arr in (params.bi_u1, params.bi_u2, params.bi_b):
                arr[...] = rng.normal(size=arr.shape)
            for n in (1, 2, 7):
                e = rng.normal(size=(n, config.half_dim))
                bilinear = np.einsum("ia,kab,jb->ijk", e, params.bi_u1, e)
                linear = np.einsum("ia,ka->ik", e, params.bi_u2)
                want = bilinear + linear[:, None] + linear[None] + params.bi_b
                # a sum's rounding is relative to its terms, so a cell that
                # cancels to near 0 is held to the chart's scale
                scale = np.abs(want).max()
                np.testing.assert_allclose(
                    biaffine_scores(e, params).cells,
                    pack_cells(want),
                    rtol=1e-12,
                    atol=1e-12 * scale,
                )

    def test_dimension_mismatch(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        with pytest.raises(DimensionMismatch):
            biaffine_scores(np.zeros((3, 5)), params)


class TestPotentialNormalize:
    def test_two_point(self, schema2):
        s = np.zeros((1, 1, 2))
        s[0, 0] = [0.0, 2.0]
        out = potential_normalize(ScoreChart(pack_cells(s), schema2))
        np.testing.assert_allclose(out.s[0, 0], [-1.0, 1.0], atol=1e-12)

    def test_zero_mean_unit_variance(self, schema3):
        rng = np.random.default_rng(0)
        s = rng.normal(2.0, 3.0, size=(5, 5, 3))
        out = potential_normalize(ScoreChart(pack_cells(s), schema3))
        iu, ju = np.triu_indices(5)
        vals = out.s[iu, ju, :]
        assert abs(vals.mean()) < 1e-9
        assert abs(vals.var() - 1.0) < 1e-9

    def test_constant_chart_mean_centered(self, schema3):
        s = np.full((3, 3, 3), 7.0)
        out = potential_normalize(ScoreChart(pack_cells(s), schema3))
        iu, ju = np.triu_indices(3)
        np.testing.assert_array_equal(out.s[iu, ju, :], 0.0)

    def test_idempotent(self, schema3):
        rng = np.random.default_rng(1)
        s = rng.normal(0.0, 5.0, size=(4, 4, 3))
        once = potential_normalize(ScoreChart(pack_cells(s), schema3))
        twice = potential_normalize(once)
        np.testing.assert_allclose(twice.s, once.s, atol=1e-9)

    def test_decode_invariant(self, schema3):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = rng.normal(1.0, 2.0, size=(5, 5, 3))
            chart = ScoreChart(pack_cells(s), schema3)
            assert cky_decode(chart).nodes == cky_decode(
                potential_normalize(chart)
            ).nodes


    def test_overflowing_spread_raises(self, schema2):
        # finite scores whose squared deviations overflow: std is inf
        rng = np.random.default_rng(0)
        chart = ScoreChart(pack_cells(rng.normal(size=(4, 4, 2)) * 1e300), schema2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLoss, match="non-finite span scores"):
                potential_normalize(chart)


class TestForward:
    def test_chart_is_the_stages_composed(self, small_vocab, small_config):
        # a batch of one sentence: its chart, and its embeddings on the tape,
        # are those of the stage-by-stage pipeline
        params = noised_params(small_vocab, small_config, seed=2)
        for n in (1, 2, 7):
            tokens = [f"tok{k}" for k in range(n)]
            (chart,), tape = forward_batch([params.vocab.encode(tokens)], params)
            staged = potential_normalize(
                biaffine_scores(encode(tokens, params), params)
            )
            np.testing.assert_array_equal(chart.s, staged.s)
            (group,) = tape.groups
            np.testing.assert_array_equal(group.layers.out[0], encode(tokens, params))

    def test_empty_sentence(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        with pytest.raises(EmptySentence):
            forward_batch([params.vocab.encode([])], params)


class TestForwardBatch:
    @pytest.mark.parametrize("dims", [(16, 32), (4, 8)], ids=["default", "small"])
    def test_charts_and_gradients_equal_the_sentences_alone(
        self, small_vocab, schema3, dims
    ):
        # bit-identical at the default dimensions; at others the BLAS may
        # pick another kernel for a padded gemm, and the batch's gradients
        # agree with the sentences' to rounding
        params = noised_params(small_vocab, ScorerConfig(*dims, schema3), seed=3)
        rng = np.random.default_rng(3)
        ids = [rng.integers(0, len(small_vocab), size=n) for n in (5, 1, 9, 2, 80, 7)]
        charts, tape = forward_batch(ids, params)
        grads = [rng.normal(size=chart.cells.shape) for chart in charts]
        total = {name: np.zeros_like(a) for name, a in params.arrays().items()}
        for x, chart, grad in zip(ids, charts, grads):
            (alone,), alone_tape = forward_batch([x], params)
            np.testing.assert_array_equal(chart.s, alone.s)
            for name, value in alone_tape.backward([grad]).items():
                total[name] += value
        summed = tape.backward(grads)
        assert tuple(summed) == PARAM_ORDER
        for name in PARAM_ORDER:
            if dims == (16, 32):
                np.testing.assert_array_equal(summed[name], total[name])
            else:
                np.testing.assert_allclose(summed[name], total[name], rtol=1e-12, atol=1e-12)

    def test_empty_batch(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        charts, tape = forward_batch([], params)
        assert charts == []
        for name, grad in tape.backward([]).items():
            assert grad.shape == getattr(params, name).shape
            assert not grad.any()

    @pytest.mark.parametrize(
        "name, value", [("bi_b", np.nan), ("emb", np.inf), ("bi_u1", 1e300)]
    )
    def test_non_finite_scores_raise(self, small_vocab, small_config, name, value):
        # bi_u1 = 1e300 keeps the scores finite, but their spread overflows
        params = noised_params(small_vocab, small_config, seed=2)
        getattr(params, name)[...] = value
        with pytest.raises(NonFiniteLoss, match="scorer forward: ") as info:
            forward_batch([params.vocab.encode(["tok1", "tok2", "tok3"])], params)
        assert info.value.position == 0

    def test_empty_sentence_in_a_batch(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        ids = [np.array([1, 2]), np.array([], dtype=np.int64), np.array([3])]
        with pytest.raises(EmptySentence, match="batch position 1"):
            forward_batch(ids, params)

    @pytest.mark.parametrize("kind", ["negative", "vocab-size", "float", "bool"])
    def test_token_ids_outside_the_vocab(self, small_vocab, small_config, kind):
        # -1 would read, and train, the last embedding row; the others would
        # raise numpy's IndexError
        params = init_params(small_vocab, small_config, seed=0)
        bad = {
            "negative": np.array([1, 2, -1]),
            "vocab-size": np.array([1, len(params.vocab)]),
            "float": np.array([1.0, 2.0]),
            "bool": np.array([True, False]),
        }[kind]
        ids = [np.array([1, 2]), np.array([3]), bad, np.array([-1])]
        with pytest.raises(DimensionMismatch, match="batch position 2 "):
            forward_batch(ids, params)

    def test_integer_ids_of_any_width(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        size = len(params.vocab)
        ids = [np.array([1, 2, 3])]
        (want,), _ = forward_batch(ids, params)
        for dtype in (np.int8, np.uint8, np.int32, np.uint64):
            (chart,), _ = forward_batch([ids[0].astype(dtype)], params)
            np.testing.assert_array_equal(chart.cells, want.cells)
        (edge,), _ = forward_batch([np.array([0, size - 1])], params)
        assert edge.n == 2
        # one padded group of signed and unsigned ids, which numpy's
        # concatenation alone would promote to floats
        mixed = [ids[0], ids[0].astype(np.uint64)]
        charts, _ = forward_batch(mixed, params)
        for chart in charts:
            np.testing.assert_array_equal(chart.cells, want.cells)

    @pytest.mark.parametrize("poisoned, position", [([7], 2), ([7, 1], 0)])
    def test_non_finite_scores_name_the_batch_position(
        self, small_vocab, small_config, poisoned, position
    ):
        # row 7 is read only by the third sentence, in a padded group, which
        # runs before the two sentences that run alone; row 1 only by the
        # first, which runs alone: the first failing sentence is named
        params = noised_params(small_vocab, small_config, seed=2)
        params.emb[poisoned] = np.inf
        ids = [np.full(80, 1), np.array([2]), np.array([3, 7, 4]), np.array([5, 6])]
        with pytest.raises(NonFiniteLoss, match="scorer forward: ") as info:
            forward_batch(ids, params)
        assert info.value.position == position

    def test_cells_are_the_stages_composed_at_every_length(self, schema3):
        # lengths 1-100 in one batch, at the default dimensions: each
        # chart's packed cells, and each sentence's rows of its group's
        # embeddings, are those of the stage-by-stage pipeline, bit for
        # bit; the benchmark's checks rely on this identity
        vocab = Vocab.build(f"t{i}" for i in range(60))
        params = noised_params(vocab, ScorerConfig(16, 32, schema3), seed=5)
        rng = np.random.default_rng(5)
        sentences = [
            [f"t{int(k)}" for k in rng.integers(0, 60, size=n)]
            for n in rng.permutation(np.arange(1, 101))
        ]
        charts, tape = forward_batch([params.vocab.encode(t) for t in sentences], params)
        embedded = {
            b: group.layers.out[k, : len(sentences[b])]
            for group in tape.groups
            for k, b in enumerate(group.members)
        }
        for b, (tokens, chart) in enumerate(zip(sentences, charts)):
            e = encode(tokens, params)
            assert np.array_equal(embedded[b], e), f"length {len(tokens)}"
            staged = potential_normalize(biaffine_scores(e, params))
            assert chart.cells.shape == (len(tokens) * (len(tokens) + 1) // 2, 3)
            assert np.array_equal(chart.cells, staged.cells), f"length {len(tokens)}"

    def test_nan_embedding_names_the_batch_position(self, small_vocab, small_config):
        params = noised_params(small_vocab, small_config, seed=2)
        params.emb[7] = np.nan
        ids = [np.array([1, 2]), np.array([5, 6, 1]), np.array([3, 7, 4])]
        with pytest.raises(NonFiniteLoss, match="scorer forward: ") as info:
            forward_batch(ids, params)
        assert info.value.position == 2

    def test_backward_checks_count_and_shapes(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        charts, tape = forward_batch([np.array([1, 2]), np.array([3, 4, 5])], params)
        grads = [np.zeros(chart.cells.shape) for chart in charts]
        for count in (1, 3):
            with pytest.raises(
                DimensionMismatch, match=f"{count} score gradients for a batch of 2"
            ):
                tape.backward((grads * 2)[:count])
        with pytest.raises(DimensionMismatch, match=r"score gradient 1 has shape \(2, 2, 3\)"):
            tape.backward([grads[0], np.zeros((2, 2, 3))])

    def test_backward_rejects_square_gradients(self, small_vocab, small_config):
        # gradients are packed like chart.cells; a square, the shape of
        # chart.s, is refused, naming its position in the batch
        params = init_params(small_vocab, small_config, seed=0)
        charts, tape = forward_batch([np.array([1, 2]), np.array([3, 4, 5])], params)
        grads = [np.zeros(chart.cells.shape) for chart in charts]
        grads[1] = np.zeros(charts[1].s.shape)
        with pytest.raises(
            DimensionMismatch,
            match=r"gradient 1 has shape \(3, 3, 3\), its chart's span cells \(6, 3\)",
        ):
            tape.backward(grads)


def _padded(lengths, groups):
    """The groups of ``groups`` whose sentences are padded."""
    return [g for g in groups if 2 <= lengths[g[0]] <= PADDED_MAX_TOKENS]


def _padded_cells(lengths, groups):
    """The cells of the padded squares of ``groups``' padded groups."""
    return sum(len(g) * max(lengths[b] for b in g) ** 2 for g in _padded(lengths, groups))


class TestPaddingFacts:
    """``forward_batch`` pads sentences of 2 to ``PADDED_MAX_TOKENS`` tokens
    into at most two groups and runs each of a group's gemms with as many
    rows as its longest sentence.  That a sentence's values stay
    bit-identical is a fact about the BLAS build and the gemm shapes, not
    about the algebra: a gemm of 76 or more rows changes kernel, and a
    single row takes numpy's gemv path.  These tests check the fact at
    every length for the default dimensions, so that another BLAS fails
    here, naming the length, rather than as a changed training log.
    """

    @pytest.mark.parametrize("n_labels", range(2, 9))
    def test_every_length_equals_the_sentence_alone(self, n_labels):
        schema = LabelSchema(tuple(f"L{k}" for k in range(n_labels - 1)), 1)
        vocab = Vocab.build(f"t{i}" for i in range(60))
        params = noised_params(vocab, ScorerConfig(16, 32, schema), seed=n_labels)
        rng = np.random.default_rng(n_labels)
        for group in np.array_split(rng.permutation(np.arange(1, 101)), 12):
            ids = [rng.integers(0, len(vocab), size=n) for n in group]
            charts, tape = forward_batch(ids, params)
            # every batch is cut in two, so the shorter group is checked too
            padded = [g for g in tape.groups if 2 <= len(g.ids[0]) <= PADDED_MAX_TOKENS]
            assert len(padded) == 2, f"lengths {sorted(group)} are not cut in two"
            grads = [rng.normal(size=chart.cells.shape) for chart in charts]
            for b, (x, chart) in enumerate(zip(ids, charts)):
                where = f"length {len(x)} in a batch whose longest has {max(group)} tokens"
                (alone,), alone_tape = forward_batch([x], params)
                assert np.array_equal(chart.s, alone.s), f"{where}: chart differs"
                # the batch's backward with every other gradient zero gives
                # this sentence's own parameter gradients
                only = [g if k == b else np.zeros_like(g) for k, g in enumerate(grads)]
                shared = tape.backward(only)
                for name, value in alone_tape.backward([grads[b]]).items():
                    assert np.array_equal(shared[name], value), (
                        f"{where}: {name} gradient differs"
                    )

    def test_groups(self):
        # 2 to PADDED_MAX_TOKENS tokens are padded, the rest run alone; the
        # cut after the longest pads 75^2 + 2 * 30^2 cells, one group 3 * 75^2
        lengths = [1, 2, PADDED_MAX_TOKENS, PADDED_MAX_TOKENS + 1, 30]
        assert _padded_groups(lengths) == [[2], [1, 4], [0], [3]]

    @settings(deadline=None, max_examples=300)
    @given(lengths=st.lists(st.integers(1, 100), min_size=1, max_size=40))
    @example(lengths=[13] * 16)
    @example(lengths=[7, 7, 1, 90, 7])
    @example(lengths=[40])
    def test_groups_of_any_lengths(self, lengths):
        groups = _padded_groups(lengths)
        assert sorted(b for g in groups for b in g) == list(range(len(lengths)))
        assert all(g == sorted(g) for g in groups)
        padded = _padded(lengths, groups)
        assert len(padded) <= 2
        assert all(2 <= lengths[b] <= PADDED_MAX_TOKENS for g in padded for b in g)
        assert all(len(g) == 1 for g in groups if g not in padded)
        # never more padded cells than one group, a tie keeps one group,
        # and no cut of the longest-first order pads fewer
        members = sorted((b for g in padded for b in g), key=lambda b: -lengths[b])
        one = _padded_cells(lengths, [members] if members else [])
        chosen = _padded_cells(lengths, groups)
        assert chosen <= one
        assert chosen < one or len(padded) <= 1
        cuts = [[members[:k], members[k:]] for k in range(1, len(members))]
        assert all(chosen <= _padded_cells(lengths, cut) for cut in cuts)


class TestModuleBoundary:
    def test_no_module_imports_private_scorer_names(self):
        # the scorer's public surface is forward_batch/BatchTape.backward
        # and the stage functions; its underscore helpers stay inside the
        # module.  The same holds for the inference pass and kernel, except
        # the log-sum-exp that the oracle shares.
        allowed = {"scorer": set(), "inference": {"_lse"}}
        package = os.path.dirname(treecrf.__file__)
        offenders = []
        for fname in sorted(os.listdir(package)):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(package, fname), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), fname)
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                source = "." * node.level + (node.module or "")
                module = source.removeprefix("treecrf.").removeprefix(".")
                if module not in allowed:
                    continue
                offenders += [
                    f"{fname}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                    and alias.name not in allowed[module]
                ]
        assert offenders == []


class TestBackward:
    def test_matches_finite_differences(self, small_vocab, small_config, schema3):
        rng = np.random.default_rng(0)
        for trial in range(3):
            n = trial + 2
            tokens = [f"tok{int(rng.integers(0, 12))}" for _ in range(n)]
            params = noised_params(small_vocab, small_config, seed=trial)
            ptree = random_partial_tree(n, schema3, rng)
            sym = classify_nodes(ptree)
            mask = smooth_mask(build_mask(sym, schema3), sym, 0.01)

            def loss_of(p):
                (normed,), _ = forward_batch([p.vocab.encode(tokens)], p)
                return loss_and_score_gradient(normed, mask)[0]

            (normed,), tape = forward_batch([params.vocab.encode(tokens)], params)
            _, sg = loss_and_score_gradient(normed, mask)
            grads = tape.backward([sg])
            h = 1e-5
            for name, arr in params.arrays().items():
                flat = arr.reshape(-1)
                for ix in range(flat.size):
                    orig = flat[ix]
                    flat[ix] = orig + h
                    up = loss_of(params)
                    flat[ix] = orig - h
                    down = loss_of(params)
                    flat[ix] = orig
                    fd = (up - down) / (2 * h)
                    an = grads[name].reshape(-1)[ix]
                    assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-3), (
                        name,
                        ix,
                        fd,
                        an,
                    )

    def test_zero_score_gradient(self, small_vocab, small_config):
        params = noised_params(small_vocab, small_config, seed=9)
        _, tape = forward_batch([params.vocab.encode(["tok1", "tok2"])], params)
        grads = tape.backward([np.zeros((3, 3))])
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_gradient_keys_cover_all_parameters(self, small_vocab, small_config):
        params = noised_params(small_vocab, small_config, seed=9)
        _, tape = forward_batch([params.vocab.encode(["tok1"])], params)
        grads = tape.backward([np.zeros((1, 3))])
        assert tuple(grads.keys()) == PARAM_ORDER
        for name in PARAM_ORDER:
            assert grads[name].shape == getattr(params, name).shape

    def test_shape_mismatch(self, small_vocab, small_config):
        params = init_params(small_vocab, small_config, seed=0)
        _, tape = forward_batch([params.vocab.encode(["tok1", "tok2"])], params)
        with pytest.raises(DimensionMismatch):
            tape.backward([np.zeros((3, 3, 3))])


class TestSerialization:
    def test_round_trip(self, small_vocab, small_config, tmp_path):
        params = noised_params(small_vocab, small_config, seed=4)
        path = str(tmp_path / "model.tcrf")
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.vocab.tokens == params.vocab.tokens
        assert loaded.config == params.config
        for name in PARAM_ORDER:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))

    def test_checksum_detects_corruption(self, small_vocab, small_config, tmp_path):
        params = init_params(small_vocab, small_config, seed=4)
        path = str(tmp_path / "model.tcrf")
        save_model(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_version_mismatch_names_both_versions(
        self, small_vocab, small_config, tmp_path
    ):
        params = init_params(small_vocab, small_config, seed=4)
        path = str(tmp_path / "model.tcrf")
        save_model(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 9  # format version field
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelFormatError, match=r"version 9.*version 1"):
            load_model(path)

    @pytest.mark.parametrize("name, value", [("bi_b", np.nan), ("mix_w", -np.inf)])
    def test_non_finite_parameter(self, small_vocab, small_config, tmp_path, name, value):
        params = init_params(small_vocab, small_config, seed=4)
        getattr(params, name).flat[0] = value
        path = str(tmp_path / "model.tcrf")
        save_model(params, path)
        with pytest.raises(ModelFormatError, match=f"array '{name}' holds non-finite"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = str(tmp_path / "nope.bin")
        open(path, "wb").write(b"definitely not a model")
        with pytest.raises(ModelFormatError):
            load_model(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@functools.cache
def _valid_model_parts():
    """Header dict and payload bytes of a small saved model."""
    schema = LabelSchema(observed_labels=("PER",), latent_label_count=1)
    config = ScorerConfig(embed_dim=2, hidden_dim=2, schema=schema)
    params = init_params(Vocab.build(["a", "b"]), config, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.tcrf")
        save_model(params, path)
        with open(path, "rb") as fh:
            blob = fh.read()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16 : 16 + header_len]), blob[16 + header_len :]


@st.composite
def model_headers(draw):
    """Any JSON value, or the valid header with some fields dropped or
    replaced, or with one array's shape replaced."""
    valid_header, valid_payload = _valid_model_parts()
    payload = draw(st.sampled_from([valid_payload, b""]) | st.binary(max_size=64))
    if draw(st.booleans()):
        return draw(JSON_VALUES), payload
    header = dict(valid_header)
    for key in sorted(valid_header):
        action = draw(st.sampled_from(("keep", "keep", "drop", "replace")))
        if action == "drop":
            del header[key]
        elif action == "replace":
            header[key] = draw(JSON_VALUES)
    if header.get("arrays") == valid_header["arrays"] and draw(st.booleans()):
        arrays = [dict(a) for a in valid_header["arrays"]]
        entry = draw(st.sampled_from(arrays))
        entry["shape"] = draw(JSON_VALUES | st.lists(st.integers(), max_size=3))
        header["arrays"] = arrays
    if draw(st.booleans()):
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    return header, payload


def _load_from_parts(header, payload):
    blob = json.dumps(header).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.tcrf")
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(struct.pack("<I", MODEL_FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob + payload)
        return load_model(path)


class TestMalformedModelHeader:
    @settings(deadline=None, max_examples=300)
    @given(case=model_headers())
    def test_loads_or_raises_model_format_error(self, case):
        try:
            params = _load_from_parts(*case)
        except ModelFormatError:
            return
        fresh = init_params(params.vocab, params.config, 0)
        for name in PARAM_ORDER:
            assert getattr(params, name).shape == getattr(fresh, name).shape
            assert np.isfinite(getattr(params, name)).all()

    def test_shape_that_disagrees_with_dimensions(self):
        header, payload = _valid_model_parts()
        header = json.loads(json.dumps(header))
        emb = next(a for a in header["arrays"] if a["name"] == "emb")
        emb["shape"] = emb["shape"][::-1]  # same size, transposed
        with pytest.raises(ModelFormatError, match="dimensions"):
            _load_from_parts(header, payload)
