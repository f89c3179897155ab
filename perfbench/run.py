"""Run one workload of the treecrf benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-std --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout, with BLAS and OpenMP
pinned to one thread.

With ``--trace 0`` the workload's closed loop runs for ``--seconds`` and
the end-to-end metrics are reported; set-up runs ``SETUP_REPEATS`` times,
spread over the timed window, and its median is reported.  Throughput and
set-up time are stated at the nominal machine speed of ``clock.py``, in
reference seconds: ``sents_per_s`` has the unit ``sents/ref_s``, and
``setup_s`` keeps the unit ``s`` that the benchmark's format fixes for it
although it too is in reference seconds.  The raw wall-clock values are
printed beside them, with the machine speed that relates the two.

With ``--trace 1`` set-up is traced, then one fixed unit of work runs once
to warm up and ``TRACE_PAIRS`` times untraced and traced in turn.  The
per-layer metrics come from the set-ups and the fastest traced unit, the
tracing overhead from the fastest unit of each kind, and the spans are
written to ``.perfbench_out/``.  A fixed unit keeps the per-layer counts
of a seed identical from run to run and from commit to commit.

Correctness checks run after the timed region.  The last line of standard
output is one JSON object; the exit code is 1 when any operation or check
failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
TRACE_PAIRS = 2
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def bootstrap() -> None:
    """Pin BLAS threads and make ``src/treecrf`` of this checkout importable.

    Must run before numpy is imported.  Exits with code 2 when the checkout
    holds no package source, so that no installed copy is measured instead.
    """
    os.environ.update(PINNED_ENV)
    src = ROOT / "src"
    if not (src / "treecrf" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'treecrf'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{name: os.environ.get(name) for name in PINNED_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class SetupRepeats:
    """Times ``SETUP_REPEATS`` set-ups spread evenly over the timed window.

    The machine's speed drifts over seconds, so set-ups timed back to back
    share one state of the machine; spread out, their median does not.
    Each set-up is bracketed by reference passes of ``clock``.
    """

    def __init__(self, setup, seconds: float, clock) -> None:
        self.setup = setup
        self.clock = clock
        self.interval = seconds / SETUP_REPEATS
        self.spans: list[tuple[float, float]] = []
        self.start = time.perf_counter()

    def once(self):
        gc.collect()
        self.clock.tick(force=True)
        start = time.perf_counter()
        state = self.setup()
        self.spans.append((start, time.perf_counter()))
        self.clock.tick(force=True)
        return state

    def when_due(self) -> None:
        """Run the next set-up if its turn in the window has come."""
        due = len(self.spans) * self.interval
        if len(self.spans) < SETUP_REPEATS and time.perf_counter() - self.start >= due:
            self.once()

    def finish(self) -> None:
        while len(self.spans) < SETUP_REPEATS:
            self.once()


def run(workload, args: argparse.Namespace, tally, tracer) -> tuple[dict, dict]:
    """Set up, measure and check one workload.

    Returns the JSON metrics and the named metrics to print, each named one
    as (value, unit, samples).
    """
    from clock import ReferenceClock
    from tracer import Tracer, cache_mb
    from workloads import median

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    clock = ReferenceClock()
    setups = SetupRepeats(
        lambda: workload.setup(args.seed, workdir), args.seconds, clock
    )

    def between() -> None:
        setups.when_due()
        clock.tick()

    try:
        if tracer is None:
            state = setups.once()
            gc.collect()
            m = workload.measure(state, args.seconds, tally, between)
            clock.tick(force=True)
            setups.finish()
            rss = peak_rss_mb()
        else:
            with tracer.installed():
                state = setups.once()
                setups.finish()
            workload.unit(state, tally)  # warm-up: fills lazy caches
            untraced, traced = [], []
            for _ in range(TRACE_PAIRS):
                gc.collect()
                start = time.perf_counter()
                workload.unit(state, tally)
                untraced.append(time.perf_counter() - start)
                unit_tracer = Tracer()
                gc.collect()
                with unit_tracer.installed():
                    start = time.perf_counter()
                    workload.unit(state, tally)
                    traced.append((time.perf_counter() - start, unit_tracer))
            untraced_s = min(untraced)
            traced_s, fastest = min(traced, key=lambda pair: pair[0])
            tracer.absorb(fastest)
        workload.check(state, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        speeds = [clock.speed(x.start, x.end) for x in m.samples]
        rate = median(x.rate / v for x, v in zip(m.samples, speeds))
        raw_rate = median(x.rate for x in m.samples)
        setup_s = median(
            (end - start) * clock.speed(start, end) for start, end in setups.spans
        )
        raw_setup_s = median(end - start for start, end in setups.spans)
        samples, reps = len(m.samples), len(setups.spans)
        named = {
            **m.named,
            "sents_per_s": (rate, "sents/ref_s", samples),
            workload.rate_name: (raw_rate, "sents/s", samples),
            "setup_s": (setup_s, "ref_s", reps),
            "setup_s_raw": (raw_setup_s, "s", reps),
            "machine_speed": (median(speeds), "of REF_HZ", len(clock.rates)),
            "peak_rss_mb": (rss, "MB", 1),
        }
        metrics = {
            "sents_per_s": metric(rate, "sents/ref_s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }
        return metrics, named

    metrics = {}
    for layer, row in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = metric(row["calls"], "count")
        metrics[f"{layer}.s"] = metric(row["s"], "s")
        metrics[f"{layer}.self_s"] = metric(row["self_s"], "s")
    overhead = 100.0 * (traced_s / untraced_s - 1.0)
    metrics["inference.cells"] = metric(tracer.cells, "count")
    metrics["inference.widths"] = metric(tracer.widths, "count")
    metrics["inference.cache_mb"] = metric(cache_mb(), "MB")
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    named = {
        "untraced_unit_s": (untraced_s, "s", TRACE_PAIRS),
        "traced_unit_s": (traced_s, "s", TRACE_PAIRS),
        "trace.overhead_pct": (overhead, "%", TRACE_PAIRS),
    }
    return metrics, named


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    from tracer import Tracer
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    env = environment(args)
    print("env " + json.dumps(env))
    tally = Tally()
    tracer = Tracer() if args.trace else None
    metrics, named = run(WORKLOADS[args.workload], args, tally, tracer)

    error_rate = tally.failed / max(tally.attempted, 1)
    named["error_rate"] = (error_rate, "ratio", tally.attempted)
    for name, (value, unit, samples) in named.items():
        print(f"metric {name} = {value!r} {unit} (samples {samples})")
    if tracer is not None:
        for site in tracer.missing:
            print(f"trace: layer missing: {site}")
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(path), {"env": env, "metrics": metrics})
        print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
