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


@pytest.mark.parametrize("workload", ["train-std", "decode-std", "batch-inside"])
def test_a_short_traced_run_completes(workload):
    # selftest runs untraced; a traced run also wraps every layer site of
    # tracer.SITES that treecrf still has, times the units it wraps, and
    # writes the spans, so a change that breaks --trace 1 fails here.
    # batch-inside classifies nodes, builds masks and runs the vanilla
    # pass on its SymbolTrees, and its tracer reads each chart's square.
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
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["metrics"]
