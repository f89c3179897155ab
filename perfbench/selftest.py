"""Show that the benchmark's correctness checks can fail.

Runs tiny versions of the workloads through the same set-up, timed loop
and checks as ``run.py``: once clean, once with
``treecrf.train.loss_and_score_gradient`` returning a wrong loss and
gradient, and once with ``treecrf.train.cky_decode`` returning a wrong
tree.  Clean runs must report error_rate = 0 and faulty runs
error_rate > 0.  Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Exits with code 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import run

run.bootstrap()

import treecrf.data as data  # noqa: E402  (needs the bootstrapped path)
import treecrf.inference as inference  # noqa: E402
import workloads as wl  # noqa: E402

train_mod = importlib.import_module("treecrf.train")


def tiny_corpus(seed: int) -> list[data.CorpusRecord]:
    config = data.SynthConfig(num_sentences=40, max_length=10, seed=seed)
    return data.gen_synthetic(config)


def wrong_loss_and_score_gradient(chart, mask):
    loss, grad = REAL_LOSS_GRAD(chart, mask)
    return loss + 1.0, grad + 1e-3


def wrong_cky_decode(chart):
    """A left-branching tree with every node labelled 0."""
    nodes = [(0, j, 0) for j in range(chart.n)] + [(j, j, 0) for j in range(1, chart.n)]
    return inference.FullTree(n=chart.n, nodes=tuple(nodes))


REAL_LOSS_GRAD = train_mod.loss_and_score_gradient

# (case, workload, patched name in treecrf.train or None, replacement)
CASES = (
    ("train clean", wl.TrainWorkload(corpus=tiny_corpus, slice_size=20), None, None),
    ("decode clean", wl.DecodeWorkload(corpus=tiny_corpus), None, None),
    ("batch clean", wl.BatchWorkload(), None, None),
    (
        "train, wrong loss_and_score_gradient",
        wl.TrainWorkload(corpus=tiny_corpus, slice_size=20),
        "loss_and_score_gradient",
        wrong_loss_and_score_gradient,
    ),
    (
        "decode, wrong cky_decode",
        wl.DecodeWorkload(corpus=tiny_corpus),
        "cky_decode",
        wrong_cky_decode,
    ),
)


def error_rate(workload, name: str | None, replacement) -> float:
    tally = wl.Tally()
    args = argparse.Namespace(seed=0, seconds=0.2)
    original = getattr(train_mod, name) if name else None
    if name:
        setattr(train_mod, name, replacement)
    try:
        run.run(workload, args, tally, None)
    finally:
        if name:
            setattr(train_mod, name, original)
    return tally.failed / max(tally.attempted, 1)


def main() -> int:
    ok = True
    for case, workload, name, replacement in CASES:
        rate = error_rate(workload, name, replacement)
        expected_fail = name is not None
        passed = rate > 0 if expected_fail else rate == 0
        ok &= passed
        want = "> 0" if expected_fail else "= 0"
        verdict = "ok  " if passed else "FAIL"
        print(f"{verdict} {case}: error_rate {rate:.4f} (want {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
