import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_selftest_passes():
    # The benchmark looks its functions up by name in treecrf; a refactor
    # that breaks one of those names fails here, not only in the benchmark.
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# The sites of tracer.SITES that treecrf no longer has.  A traced run names
# each on a "trace: layer missing:" line; a site lost by a refactor adds a
# line, and a benchmark change that retires one of these removes it.
MISSING_SITES = {
    "chart.classify_nodes (treecrf.data.classify_nodes)",
    "chart.build_mask (treecrf.data.build_mask)",
    "chart.smooth_mask (treecrf.data.smooth_mask)",
    "scorer.encode (treecrf.train._forward_encode)",
    "scorer.biaffine (treecrf.train.biaffine_scores)",
    "scorer.normalize (treecrf.train._normalize_with_cache)",
    "scorer.backward (treecrf.train._backward_from_caches)",
}

# The layers each workload reaches, so each must count calls when traced.
CALLED_LAYERS = {
    "train-std": [
        "data.read_corpus",
        "data.preprocess",
        "chart.validate_annotation",
        "train.train",
        "train.adam",
        "train.evaluate",
    ],
    "decode-std": [
        "data.read_corpus",
        "chart.validate_annotation",
        "scorer.load_model",
        "train.predict",
        "inference.cky",
        "train.evaluate",
    ],
    "batch-inside": ["inference.batched_inside", "inference.vanilla_partial"],
}


@pytest.mark.parametrize("workload", ["train-std", "decode-std", "batch-inside"])
def test_a_short_traced_run_completes(workload):
    # selftest runs untraced; a traced run also wraps every layer site of
    # tracer.SITES that treecrf still has, times the units it wraps, and
    # writes the spans, so a change that breaks --trace 1, loses a site or
    # stops a workload reaching one of its layers fails here.
    # batch-inside builds masks and runs the vanilla pass on its partial
    # trees, and its tracer reads each chart's square.
    # decode-std wraps predict, cky_decode and evaluate.
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
        + ["--workload", workload, "--seed", "1"]
        + ["--seconds", "0.5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["metrics"]
    prefix = "trace: layer missing: "
    missing = {line[len(prefix) :] for line in lines if line.startswith(prefix)}
    assert missing == MISSING_SITES
    for layer in CALLED_LAYERS[workload]:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer
