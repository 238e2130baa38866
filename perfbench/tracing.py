"""In-memory spans around gupbell's public functions.

``Tracer.install`` replaces module attributes with timing wrappers, so calls
the package makes through its own modules (``lab.grid_scan``,
``kernels.sample_counts``, ...) are recorded without touching its source.
A span is (name, start_ns, end_ns, parent, op_id); spans are only recorded
while an operation is open, so the benchmark's own oracle calls stay out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

#: (module, attribute) pairs wrapped as spans named "<module>.<attribute>"
LAYERS = (
    ("cli", "parse_config"), ("cli", "execute"), ("cli", "render_heatmap"),
    ("lab", "grid_scan"), ("lab", "beta_sweep"), ("lab", "optimize_angles"),
    ("gup", "perturb_state"), ("gup", "gup_correct_observable"),
    ("tensor", "eig_hermitian"),
    ("shots", "estimate_chsh"), ("shots", "joint_probabilities"),
    ("kernels", "sample_counts"),
    ("security", "build_report"),
)

now = time.perf_counter_ns


class Tracer:
    """Spans and per-operation counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, now(), 0, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int):
        self.spans[index][2] = now()
        self.stack.pop()

    def count(self, name: str, amount: int):
        if self.op is not None:
            self.counts[f"{self.op}:{name}"] += int(amount)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if counter is not None:
                self.count(*counter(args, kwargs))
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def install(self):
        """Wrap the layer functions in the gupbell modules."""
        for mod_name, attr in LAYERS:
            mod = importlib.import_module(f"gupbell.{mod_name}")
            counter = _shots_counter if (mod_name, attr) == ("kernels", "sample_counts") else None
            setattr(mod, attr, self.wrap(getattr(mod, attr), f"{mod_name}.{attr}", counter))
        lab = importlib.import_module("gupbell.lab")
        lab.BatchEvaluator = self._batch_evaluator(lab.BatchEvaluator)

    def _batch_evaluator(self, base):
        tracer = self

        class TracedBatchEvaluator(base):
            def __init__(self, cfg):
                index = tracer.begin("lab.batch_evaluator_build") if tracer.op is not None else None
                try:
                    super().__init__(cfg)
                finally:
                    if index is not None:
                        tracer.end(index)

            def values(self, na, nap, nb, nbp):
                out = super().values(na, nap, nb, nbp)
                tracer.count("lab.evaluations", out.shape[0])
                return out

        return TracedBatchEvaluator

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _shots_counter(args, kwargs):
    n = args[2] if len(args) > 2 else kwargs["n"]
    return "kernels.shots", n


def self_times(spans: list) -> list:
    """Duration minus the durations of direct children (single-threaded
    code, so children never overlap), in seconds, one per span."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1] - child[i]) / 1e9 for i, s in enumerate(spans)]


def merge(into: Tracer, dump: dict, parent: int):
    """Attach a child process's spans under ``parent`` of ``into``."""
    offset = len(into.spans)
    for name, start, end, p, op in dump["spans"]:
        into.spans.append([name, start, end, parent if p < 0 else p + offset, op])
    for key, value in dump["counts"].items():
        into.counts[key] += value


def write(path, tracer: Tracer):
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
