"""In-memory span tracer that wraps treecrf's layer functions from outside.

Each layer function is replaced, for the duration of a traced region, by a
wrapper installed on the module attribute its caller looks up at call time
(``treecrf.train.loss_and_score_gradient``, ``treecrf.data.build_mask``,
...).  A wrapper records one span per call: name, start, end and the index
of the enclosing span.  Self time is a span's duration minus the durations
of its direct children.  A wrapped name that no longer exists is reported
as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# (layer, module, attribute): each site where a caller looks a layer up.
SITES = (
    ("data.read_corpus", "treecrf.data", "read_corpus"),
    ("data.preprocess", "treecrf.train", "preprocess"),
    ("chart.validate_annotation", "treecrf.data", "validate_annotation"),
    ("chart.validate_annotation", "treecrf.train", "validate_annotation"),
    ("chart.classify_nodes", "treecrf.data", "classify_nodes"),
    ("chart.build_mask", "treecrf.data", "build_mask"),
    ("chart.smooth_mask", "treecrf.data", "smooth_mask"),
    ("scorer.encode", "treecrf.train", "_forward_encode"),
    ("scorer.biaffine", "treecrf.train", "biaffine_scores"),
    ("scorer.normalize", "treecrf.train", "_normalize_with_cache"),
    ("scorer.backward", "treecrf.train", "_backward_from_caches"),
    ("scorer.load_model", "treecrf.scorer", "load_model"),
    ("inference.loss_grad", "treecrf.train", "loss_and_score_gradient"),
    ("inference.cky", "treecrf.train", "cky_decode"),
    ("inference.batched_inside", "treecrf.inference", "batched_masked_inside"),
    (
        "inference.vanilla_partial",
        "treecrf.inference",
        "vanilla_partial_marginalization",
    ),
    ("train.adam", "treecrf.train", "adam_step"),
    ("train.train", "treecrf.train", "train"),
    ("train.evaluate", "treecrf.train", "evaluate"),
    ("train.predict", "treecrf.train", "predict"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SITES))

# Module-level dicts that hold per-length index arrays in treecrf.inference.
CACHES = ("_triu_cache", "_tril_cache", "_inside_index_cache", "_outside_index_cache")


def _chart_shapes(arg: object) -> list[tuple[int, ...]]:
    """Shapes of the score chart, or list of charts, an inference layer got."""
    charts = arg if isinstance(arg, (list, tuple)) else [arg]
    return [c.s.shape for c in charts]


class Tracer:
    """Collects spans and boundary counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]; perf_counter s
        self.cells = 0
        self.widths = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _count_charts(self, args: tuple) -> None:
        for n, _, n_labels in _chart_shapes(args[0]):
            self.cells += n * (n + 1) // 2 * n_labels
            self.widths += n

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = self._count_charts if name.startswith("inference.") else None

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            if count is not None:
                count(args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[1] = start
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace every layer site by its wrapper; restore them on exit."""
        saved = []
        for layer, module_name, attr in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                site = f"{layer} ({module_name}.{attr})"
                if site not in self.missing:
                    self.missing.append(site)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per-layer calls, inclusive seconds and self seconds."""
        totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in LAYERS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = totals[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - children
        return totals

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's spans and counts to this one's."""
        offset = len(self.spans)
        self.spans += [
            [name, start, end, parent + offset if parent >= 0 else -1]
            for name, start, end, parent in other.spans
        ]
        self.cells += other.cells
        self.widths += other.widths
        self.missing += [site for site in other.missing if site not in self.missing]

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "missing": self.missing, "spans": self.spans}, fh)


def cache_mb() -> float:
    """Megabytes held by treecrf.inference's per-length index caches."""
    inference = importlib.import_module("treecrf.inference")

    def nbytes(obj: object) -> int:
        if isinstance(obj, dict):
            return sum(nbytes(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(nbytes(v) for v in obj)
        return int(getattr(obj, "nbytes", 0))

    return sum(nbytes(getattr(inference, name, {})) for name in CACHES) / 2**20
