import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import treecrf
from treecrf import load_model, predict, read_corpus, save_model, validate_annotation
from treecrf.cli import _train_config, build_parser, main
from treecrf.data import corpus_schema
from treecrf.train import TrainConfig, train


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "corpus.jsonl")
    rc = main(
        ["gen", "--out", path, "--sentences", "200", "--types", "2", "--seed", "0"]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = str(tmp_path_factory.mktemp("model") / "model.tcrf")
    rc = main(
        [
            "train",
            "--data",
            corpus_path,
            "--model",
            path,
            "--epochs",
            "4",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        flags = ["--sentences", "50", "--types", "3", "--depth", "3", "--seed", "5"]
        assert main(["gen", "--out", a, *flags]) == 0
        assert main(["gen", "--out", b, *flags]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--sentences", "10"])
        assert err.value.code == 2

    def test_bad_flag_values(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--sentences", "0"]) == 2

    def test_unwritable_path_is_io_error(self):
        assert main(["gen", "--out", "/nonexistent-dir/x.jsonl"]) == 1


class TestTrainCommand:
    def test_writes_model_and_log(self, model_path, capsys):
        assert open(model_path, "rb").read(4) == b"TCRF"
        assert open(model_path + ".train.csv").readline().startswith("epoch,")

    def test_latent_zero_is_usage_error(self, corpus_path, tmp_path):
        rc = main(
            [
                "train",
                "--data",
                corpus_path,
                "--model",
                str(tmp_path / "m"),
                "--latent",
                "0",
            ]
        )
        assert rc == 2

    def test_latent_flag_sets_the_latent_label_count(self, corpus_path, tmp_path):
        path = str(tmp_path / "m")
        argv = ["train", "--data", corpus_path, "--model", path, "--epochs", "1"]
        assert main(argv + ["--latent", "2"]) == 0
        assert load_model(path).config.schema.latent_label_count == 2

    def test_epsilon_zero_valid(self, corpus_path, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--data",
                corpus_path,
                "--model",
                str(tmp_path / "m"),
                "--epochs",
                "1",
                "--epsilon",
                "0",
            ]
        )
        assert rc == 0
        assert "RESULT split=dev" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"tokens":["\xff"],"entities":[]}\n', "error: line 1: invalid UTF-8"),
            (b"\n" + b"[" * 100_000 + b"\n", "error: line 2: invalid record"),
        ],
        ids=["invalid-utf8", "deep-nesting"],
    )
    def test_unreadable_corpus_is_a_parse_error(
        self, tmp_path, capsys, content, message
    ):
        data = tmp_path / "bad.jsonl"
        data.write_bytes(content)
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(
        self, corpus_path, tmp_path, capsys, rate
    ):
        model = str(tmp_path / "m")
        rc = main(["train", "--data", corpus_path, "--model", model, "--lr", rate])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: learning_rate must be positive and finite")

    def test_diverging_training_is_a_runtime_error(self, tmp_path, capsys):
        data = str(tmp_path / "g.jsonl")
        assert main(["gen", "--out", data, "--sentences", "40", "--seed", "0"]) == 0
        capsys.readouterr()
        rc = main(
            ["train", "--data", data, "--model", str(tmp_path / "m"), "--lr", "1e308"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert re.match(r"error: sentence \d+ \(length \d+\), scorer forward: ", err)
        assert "Traceback" not in err


def _snapshot(directory) -> dict:
    """Each entry of ``directory``: whether it is a symlink, and its bytes."""
    return {p.name: (p.is_symlink(), p.read_bytes()) for p in directory.iterdir()}


class TestOutputPathsFailFast:
    """An output path that cannot be written fails before the corpus is
    read: exit 1, an ``error:`` line, no training and no file written.  An
    output that resolves to an input or to another output exits 2."""

    @pytest.mark.parametrize("where", ["log", "model"])
    def test_train_output_in_a_missing_directory(self, tmp_path, capsys, where):
        data = str(tmp_path / "g.jsonl")
        assert main(["gen", "--out", data, "--sentences", "40", "--seed", "0"]) == 0
        capsys.readouterr()
        model = str(tmp_path / "m.tcrf")
        paths = {"model": model, "log": str(tmp_path / "log.csv")}
        paths[where] = str(tmp_path / "missing" / "x")
        argv = ["train", "--data", data, "--epochs", "2"]
        rc = main(argv + ["--model", paths["model"], "--log", paths["log"]])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: ") and "missing" in err
        assert "epoch" not in err and out == ""
        assert not os.path.exists(model) and not os.path.exists(paths["log"])

    def test_train_checks_before_reading_the_corpus(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        rc = main(["train", "--data", missing, "--model", str(tmp_path / "no" / "m")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "missing.jsonl" not in err

    @pytest.mark.parametrize("spelling", ["same", "symlink"])
    def test_train_log_that_is_the_model(self, tmp_path, capsys, spelling):
        # exit 2 before the corpus, which is missing, is read; the log
        # would otherwise overwrite the model it follows
        model = str(tmp_path / "m.tcrf")
        log = model
        if spelling == "symlink":
            log = str(tmp_path / "log.csv")
            os.symlink(model, log)
        argv = ["train", "--data", str(tmp_path / "missing.jsonl")]
        rc = main(argv + ["--model", model, "--log", log])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ([] if spelling == "same" else ["log.csv"])

    @pytest.mark.parametrize("spelling", ["same", "symlink"])
    @pytest.mark.parametrize(
        "command, output, target",
        [
            ("predict", "--out", "--model"),
            ("predict", "--out", "--data"),
            ("train", "--model", "--data"),
            ("train", "--log", "--data"),
        ],
    )
    def test_output_that_is_an_input(
        self, model_path, corpus_path, tmp_path, capsys, command, output, target,
        spelling,
    ):
        # exit 2 before anything is read or written; the output would
        # otherwise replace the input it names
        paths = {
            "--model": str(tmp_path / "m.tcrf"),
            "--data": str(tmp_path / "g.jsonl"),
            "--out": str(tmp_path / "p.jsonl"),
            "--log": str(tmp_path / "log.csv"),
        }
        shutil.copy(model_path, paths["--model"])
        shutil.copy(corpus_path, paths["--data"])
        paths[output] = paths[target]
        if spelling == "symlink":
            paths[output] = str(tmp_path / "link")
            os.symlink(paths[target], paths[output])
        flags = {"predict": ["--model", "--data", "--out"],
                 "train": ["--data", "--model", "--log"]}[command]
        before = _snapshot(tmp_path)
        argv = [command] + [arg for flag in flags for arg in (flag, paths[flag])]
        if command == "train":
            argv += ["--epochs", "1"]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert output in err and target in err
        assert _snapshot(tmp_path) == before

    def test_gen_checks_before_generating(self, tmp_path, capsys, monkeypatch):
        def never(config):
            raise AssertionError("gen_synthetic called")

        monkeypatch.setattr("treecrf.cli.gen_synthetic", never)
        out = str(tmp_path / "missing" / "x.jsonl")
        rc = main(["gen", "--out", out, "--sentences", "200000"])
        stdout, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: ") and "missing" in err
        assert stdout == "" and not os.path.exists(out)

    def test_model_path_that_is_a_directory(self, corpus_path, tmp_path, capsys):
        rc = main(["train", "--data", corpus_path, "--model", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "epoch" not in err

    def test_predict_out_in_a_missing_directory(
        self, model_path, corpus_path, tmp_path, capsys
    ):
        out = str(tmp_path / "missing" / "p.jsonl")
        argv = ["predict", "--model", model_path, "--data", corpus_path]
        rc = main(argv + ["--out", out])
        stdout, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: ") and "missing" in err
        assert stdout == "" and not os.path.exists(out)


class TestDefaults:
    def test_bare_train_flags_are_the_config_defaults(self):
        args = build_parser().parse_args(["train", "--data", "X", "--model", "Y"])
        assert _train_config(args) == TrainConfig()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--seed", "-1"],
        ["gen", "--vocab", "100000000000000000000"],
        ["train", "--seed", "-1"],
        ["sweep-latent", "--seed", "-1", "--counts", "1"],
        ["selfcheck", "--seed", "-1"],
        ["bench", "--seed", "-1"],
    ],
    ids=["gen-seed", "gen-vocab", "train-seed", "sweep-seed", "selfcheck-seed",
         "bench-seed"],
)
def test_out_of_range_integer_is_usage_error(argv, corpus_path, tmp_path):
    command = argv[0]
    if command == "gen":
        argv = argv + ["--out", str(tmp_path / "out.jsonl")]
    elif command in ("train", "sweep-latent"):
        argv = argv + ["--data", corpus_path]
        if command == "train":
            argv += ["--model", str(tmp_path / "m")]
    # a child process, so that a traceback reaches stderr as it would for
    # a user
    src = os.path.dirname(os.path.dirname(treecrf.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "treecrf.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--seed", "-1"],
        ["train", "--hidden-dim", "3"],
        ["train", "--embed-dim", "1"],
        ["sweep-latent", "--counts", "0"],
    ],
    ids=["train-seed", "train-hidden-dim", "train-embed-dim", "sweep-counts"],
)
def test_usage_error_comes_before_the_corpus_is_read(argv, tmp_path):
    # the corpus does not exist: a flag checked only after the read would
    # surface as the I/O error (exit 1) instead of the usage error
    argv = argv + ["--data", str(tmp_path / "missing.jsonl")]
    if argv[0] == "train":
        argv += ["--model", str(tmp_path / "m")]
    src = os.path.dirname(os.path.dirname(treecrf.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "treecrf.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "missing.jsonl" not in proc.stderr
    assert "Traceback" not in proc.stderr


class TestPredictEval:
    def test_predict_output_validates(self, model_path, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "pred.jsonl")
        assert main(["predict", "--model", model_path, "--data", corpus_path, "--out", out]) == 0
        records = read_corpus(out)
        assert len(records) == 200
        # the chunked decoding of the command gives predict's entities
        params = load_model(model_path)
        names = params.config.schema.observed_labels
        for record, gold in zip(records, read_corpus(corpus_path)):
            spans = predict(params, gold.tokens)
            assert [(e.start, e.end - 1, e.label) for e in record.entities] == [
                (s.start, s.end, names[s.label]) for s in spans
            ]
        schema = corpus_schema(read_corpus(corpus_path))
        for record in records:
            if record.entities:
                validate_annotation(
                    record.tokens,
                    [(e.start, e.end, e.label) for e in record.entities],
                    schema,
                )

    def test_eval_against_own_predictions_is_perfect(
        self, model_path, corpus_path, tmp_path, capsys
    ):
        out = str(tmp_path / "pred.jsonl")
        main(["predict", "--model", model_path, "--data", corpus_path, "--out", out])
        assert main(["eval", "--model", model_path, "--data", out]) == 0
        stdout = capsys.readouterr().out
        assert "f1=1.000000" in stdout

    def test_eval_reports_metrics(self, model_path, corpus_path, capsys):
        assert main(["eval", "--model", model_path, "--data", corpus_path]) == 0
        assert "RESULT precision=" in capsys.readouterr().out

    def test_eval_empty_corpus_is_usage_error(self, model_path, tmp_path):
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").write("")
        assert main(["eval", "--model", model_path, "--data", empty]) == 2

    def test_version_mismatch_exits_one(self, model_path, tmp_path, capsys):
        blob = bytearray(open(model_path, "rb").read())
        blob[4] = 9
        bad = str(tmp_path / "bad.tcrf")
        open(bad, "wb").write(bytes(blob))
        assert main(["eval", "--model", bad, "--data", "unused"]) == 1
        err = capsys.readouterr().err
        assert "version 9" in err and "version 1" in err

    def test_missing_model_file(self, corpus_path):
        assert main(["eval", "--model", "/no/such/model", "--data", corpus_path]) == 1

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "name, index, value, message",
        [
            ("bi_b", 0, np.nan, "array 'bi_b' holds non-finite values"),
            # finite scores (about 1e299) whose standard deviation overflows
            ("bi_u1", ..., 1e300, "scorer forward: "),
        ],
        ids=["nan-parameter", "overflowing-scores"],
    )
    def test_broken_model_is_a_runtime_error(
        self, model_path, corpus_path, tmp_path, command, name, index, value, message
    ):
        params = load_model(model_path)
        getattr(params, name)[index] = value
        bad = str(tmp_path / "bad.tcrf")
        save_model(params, bad)
        argv = [command, "--model", bad, "--data", corpus_path]
        if command == "predict":
            argv += ["--out", str(tmp_path / "pred.jsonl")]
        # a child process, so that a traceback or a floating-point warning
        # reaches stderr as it would for a user
        src = os.path.dirname(os.path.dirname(treecrf.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "treecrf.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestInputBoundaries:
    """Malformed model and corpus files exit 1, and an impossible corpus
    request exits 2, each with one ``error:`` line."""

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("short", "truncated model file"),
            ("non-json", "corrupt header"),
            ("trailing", "trailing bytes after parameter arrays"),
        ],
        ids=["shorter-than-16-bytes", "non-json-header", "trailing-payload"],
    )
    def test_broken_model_file(
        self, model_path, corpus_path, tmp_path, capsys, kind, message
    ):
        blob = open(model_path, "rb").read()
        (header_len,) = struct.unpack_from("<Q", blob, 8)
        header, payload = blob[16 : 16 + header_len], blob[16 + header_len :]
        if kind == "short":
            blob = blob[:15]
        elif kind == "non-json":
            blob = blob[:16] + b"{" * header_len + payload
        else:
            # one more double, under a checksum that covers it
            payload += bytes(8)
            fields = json.loads(header)
            fields["payload_sha256"] = hashlib.sha256(payload).hexdigest()
            header = json.dumps(fields, sort_keys=True).encode("utf-8")
            blob = blob[:8] + struct.pack("<Q", len(header)) + header + payload
        bad = tmp_path / "bad.tcrf"
        bad.write_bytes(blob)
        assert main(["eval", "--model", str(bad), "--data", corpus_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "entity, message",
        [
            (
                '{"start":0,"end":1.5,"label":"X"}',
                'entity field "end" must be an integer, got 1.5',
            ),
            ('{"start":0,"end":1,"label":""}', 'entity field "label" must be a non-empty string'),
            ('{"start":-1,"end":1,"label":"X"}', 'entity field "start" must be at least 0, got -1'),
        ],
        ids=["non-integer-end", "empty-label", "negative-start"],
    )
    def test_bad_corpus_entity(self, model_path, tmp_path, capsys, entity, message):
        bad = tmp_path / "bad.jsonl"
        good = '{"entities":[],"tokens":["a"]}'
        bad.write_text(f'{good}\n{{"tokens":["a","b"],"entities":[{entity}]}}\n')
        assert main(["eval", "--model", model_path, "--data", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: line 2: {message}\n"

    def test_gen_too_small_for_every_type(self, tmp_path, capsys):
        argv = ["--sentences", "1", "--types", "5", "--max-length", "6", "--depth", "1"]
        assert main(["gen", "--out", str(tmp_path / "c.jsonl"), *argv]) == 2
        err = capsys.readouterr().err
        assert err == "error: corpus too small to cover every entity type\n"

    def test_gen_too_small_for_a_nest(self, tmp_path, capsys):
        argv = ["--sentences", "1", "--types", "5", "--max-length", "6", "--depth", "2"]
        assert main(["gen", "--out", str(tmp_path / "c.jsonl"), *argv]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: corpus too small to cover every entity type and a depth-2 nest\n"
        )


class TestSelfcheck:
    def test_fresh_checkout_passes(self, capsys):
        rc = main(["selfcheck", "--max-n", "4", "--cases", "40", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "fault", ["inside-flipped", "outside-dropped", "outside-negated"]
    )
    def test_a_broken_kernel_fails(self, capsys, monkeypatch, fault):
        # Flipping the inside pass's right split operand breaks every row.
        # Dropping or negating the outside sweep's right-role view breaks
        # the posteriors and every gradient, and no inside or decoder row.
        inference = treecrf.inference
        split_operands = inference._split_operands
        parent_operands = inference._parent_operands

        def flipped(table, w):
            left, right = split_operands(table, w)
            return left, -right

        def broken(table, ratio, w):
            left, (parents, siblings) = parent_operands(table, ratio, w)
            if fault == "outside-dropped":
                return left, (parents[:0], siblings[:0])
            return left, (parents, -siblings)

        if fault == "inside-flipped":
            monkeypatch.setattr(inference, "_split_operands", flipped)
        else:
            monkeypatch.setattr(inference, "_parent_operands", broken)
        rc = main(["selfcheck", "--max-n", "4", "--cases", "40", "--seed", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1 and len(lines) == 7
        failing = {
            line[6:].partition(":")[0] for line in lines if line.startswith("FAIL")
        }
        if fault == "inside-flipped":
            assert len(failing) == 7
        else:
            assert failing == {
                "marginal identities and enumerated posteriors",
                "batched loss and gradient equal enumerated ones",
            }

    def test_oracle_guard(self):
        assert main(["selfcheck", "--max-n", "9"]) == 2

    @pytest.mark.parametrize(
        "score, row",
        [
            ("inside", "inside equals enumerated log-partition"),
            # the first of the row's two errors
            (
                "vanilla_partial_marginalization",
                "masked = vanilla = enumerated partial score",
            ),
            ("tree_score", "full-tree mask recovers tree evaluation"),
        ],
        ids=["inside", "three-way", "full-tree"],
    )
    def test_nan_score_fails(self, capsys, monkeypatch, score, row):
        monkeypatch.setattr(treecrf.cli, score, lambda *args: np.nan)
        rc = main(["selfcheck", "--max-n", "3", "--cases", "6", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"FAIL  {row}: 6 cases, 6 failures, worst error nan" in out

    def test_nan_masked_marginals_fail(self, capsys, monkeypatch):
        # the masked posteriors are the last of the row's four errors
        marginals = treecrf.cli.marginals

        def nan_when_masked(chart, mask=None):
            mu = marginals(chart, mask)
            return mu if mask is None else np.full_like(mu, np.nan)

        monkeypatch.setattr(treecrf.cli, "marginals", nan_when_masked)
        rc = main(["selfcheck", "--max-n", "3", "--cases", "6", "--seed", "0"])
        assert rc == 1
        assert (
            "FAIL  marginal identities and enumerated posteriors: 6 cases, "
            "6 failures, worst error nan"
        ) in capsys.readouterr().out

    def test_each_error_has_its_own_tolerance(self, capsys, monkeypatch):
        # A leaf-root error of 1e-8 fails the row: its tolerance is 1e-9,
        # though the row's other errors, 1e-8 here too, are within 1e-6.
        marginals = treecrf.cli.marginals

        def leaf_off_by_1e_8(chart, mask=None):
            mu = marginals(chart, mask)
            if mask is None:
                mu[0, 0, mu[0, 0].argmin()] += 1e-8
            return mu

        monkeypatch.setattr(treecrf.cli, "marginals", leaf_off_by_1e_8)
        rc = main(["selfcheck", "--max-n", "3", "--cases", "6", "--seed", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL  marginal identities and enumerated posteriors: 6 cases, "
            "6 failures, worst error 1.000e-08"
        ]

    def test_nan_batched_gradients_fail(self, capsys, monkeypatch):
        # the gradient error is the second of the batched row's two errors
        batched = treecrf.cli.batch_loss_and_score_gradient

        def nan_gradients(charts, masks):
            for loss, grad in batched(charts, masks):
                yield loss, np.full_like(grad, np.nan)

        monkeypatch.setattr(treecrf.cli, "batch_loss_and_score_gradient", nan_gradients)
        rc = main(["selfcheck", "--max-n", "3", "--cases", "6", "--seed", "0"])
        assert rc == 1
        assert (
            "FAIL  batched loss and gradient equal enumerated ones: 6 cases, "
            "6 failures, worst error nan"
        ) in capsys.readouterr().out


class TestBench:
    def test_small_bench_agrees_and_reports(self, capsys):
        rc = main(
            [
                "bench",
                "--batch",
                "4",
                "--length",
                "10",
                "--labels",
                "3",
                "--repeats",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0].startswith("batch_size,sentence_length,label_count,")
        assert len(lines) == 3  # header + one row per repeat
        for line in lines[1:]:
            disc = float(line.split(",")[6])
            assert disc <= 1e-6
        assert "summary:" in captured.err

    def test_nan_discrepancy_voids_the_benchmark(self, capsys, monkeypatch):
        monkeypatch.setattr(
            treecrf.cli,
            "batched_masked_inside",
            lambda charts, masks: np.full(len(charts), np.nan),
        )
        argv = ["--batch", "4", "--length", "6", "--labels", "3", "--repeats", "2"]
        assert main(["bench", *argv]) == 1
        err = capsys.readouterr().err
        assert "max value discrepancy nan" in err
        assert "error: the two paths disagree" in err

    def test_nonpositive_sizes_usage_error(self):
        assert main(["bench", "--batch", "0"]) == 2
        assert main(["bench", "--length", "-3"]) == 2


class TestSweepLatent:
    def test_table_shape(self, corpus_path, capsys):
        rc = main(
            [
                "sweep-latent",
                "--data",
                corpus_path,
                "--counts",
                "1,2",
                "--epochs",
                "1",
                "--seed",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "latent_labels,dev_precision,dev_recall,dev_f1"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")

    def test_rows_are_the_dev_reports_of_train(self, tmp_path, capsys):
        # one row per count, in --counts order, from train() on that count's
        # config: the shared flags, and the count as latent_label_count
        data = str(tmp_path / "small.jsonl")
        assert main(["gen", "--out", data, "--sentences", "80", "--seed", "1"]) == 0
        capsys.readouterr()
        flags = ["--epochs", "2", "--seed", "3", "--batch", "8"]
        assert main(["sweep-latent", "--data", data, "--counts", "2,1", *flags]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        records = read_corpus(data)
        want = ["latent_labels,dev_precision,dev_recall,dev_f1"]
        for count in (2, 1):
            config = TrainConfig(epochs=2, seed=3, batch_size=8, latent_label_count=count)
            r = train(records, config).dev_report
            want.append(f"{count},{r.precision:.6f},{r.recall:.6f},{r.f1:.6f}")
        assert lines == want

    def test_has_no_latent_flag(self, capsys):
        # --counts sets every run's latent label count
        with pytest.raises(SystemExit):
            main(["sweep-latent", "--help"])
        out = capsys.readouterr().out
        assert "--counts" in out
        assert "--latent" not in out

    def test_non_integer_count_is_usage_error(self, corpus_path, capsys):
        rc = main(["sweep-latent", "--data", corpus_path, "--counts", "1,x"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --counts")
