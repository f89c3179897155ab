import pytest

from treecrf import read_corpus, validate_annotation
from treecrf.cli import main
from treecrf.data import corpus_schema


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


class TestPredictEval:
    def test_predict_output_validates(self, model_path, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "pred.jsonl")
        assert main(["predict", "--model", model_path, "--data", corpus_path, "--out", out]) == 0
        records = read_corpus(out)
        assert len(records) == 200
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


class TestSelfcheck:
    def test_fresh_checkout_passes(self, capsys):
        rc = main(["selfcheck", "--max-n", "4", "--cases", "40", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_injected_fault_fails_loudly(self, capsys):
        rc = main(
            [
                "selfcheck",
                "--max-n",
                "4",
                "--cases",
                "40",
                "--seed",
                "0",
                "--inject-fault",
            ]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_injected_fault_does_not_outlive_its_run(self, capsys):
        args = ["selfcheck", "--max-n", "4", "--cases", "40", "--seed", "0"]
        assert main(args + ["--inject-fault"]) == 1
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_oracle_guard(self):
        assert main(["selfcheck", "--max-n", "9"]) == 2


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

    def test_non_integer_count_is_usage_error(self, corpus_path, capsys):
        rc = main(["sweep-latent", "--data", corpus_path, "--counts", "1,x"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --counts")
