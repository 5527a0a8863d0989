"""Timing wrappers around the public calls of each zpdistill module.

A wrapper goes on the name the *calling* module resolves at call time:
`from .numerics import stream` binds a separate name in `distill_sim`, so
the sampler is wrapped as `zpdistill.distill_sim.stream`. Spans stay in
memory as (op, layer, parent, start, end) tuples and are written out once,
after the run. A layer's self time is its span's duration minus the
durations of its direct child spans (calls nest, so children never overlap).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

from zpdistill.errors import ZpdistillError


def _loaded_bytes(args, result):
    # The loaders consume the whole file they are handed.
    return os.fstat(args[0].fileno()).st_size


def _written_bytes(args, result):
    # The writers are handed a freshly opened file.
    return args[0].tell()


def _weight_counts(args, result):
    return int((result.normalized > 0.0).sum()), len(result.entries)


# layer name -> (calling modules whose binding is wrapped, attribute, extra measure)
LAYERS = {
    "numerics.stream": (("distill_sim",), "stream", None),
    "numerics.log_softmax": (("distill_sim",), "log_softmax", None),
    "distill_sim.build_world": (("cli",), "build_world", None),
    "distill_sim.train": (("cli",), "train", None),
    "distill_sim.run_rollouts": (("distill_sim",), "run_rollouts", None),
    "distill_sim.retention": (("distill_sim",), "retention", None),
    "distill_sim.measure_snr": (("distill_sim",), "measure_snr", None),
    "passrate.estimate_pass_rate": (("distill_sim", "cli"), "estimate_pass_rate", None),
    "passrate.histogram": (("distill_sim",), "histogram", None),
    "passrate.hard_filter": (("distill_sim", "cli"), "hard_filter", None),
    "kernel.beta_weight": (("distill_sim", "cli"), "beta_weight", None),
    "kernel.normalize_weights": (("distill_sim", "cli"), "normalize_weights", _weight_counts),
    "kernel.zpd_moments": (("cli",), "zpd_moments", None),
    "kernel.select_exponents": (("cli",), "select_exponents", None),
    "fileio.load_gradient_records": (("cli",), "load_gradient_records", _loaded_bytes),
    "fileio.load_rollouts": (("cli",), "load_rollouts", _loaded_bytes),
    "fileio.write_gradient_records": (("cli",), "write_gradient_records", _written_bytes),
    "fileio.write_metrics": (("cli",), "write_metrics", _written_bytes),
    "fileio.write_weight_table": (("cli",), "write_weight_table", _written_bytes),
    "fileio.load_sim_config": (("cli",), "load_sim_config", None),
    "snr_profile.compute_snr_bins": (("cli",), "compute_snr_bins", None),
    "snr_profile.normalize_profile": (("cli",), "normalize_profile", None),
    "snr_profile.bell_shape_score": (("cli",), "bell_shape_score", None),
    "robustness.fit_snr_model": (("cli",), "fit_snr_model", None),
    "variance.variance_ratio_beta": (("cli",), "variance_ratio_beta", None),
    "cli.main": (("cli",), "main", None),
}
BYTES_LAYERS = tuple(
    name for name, (_, _, measure) in LAYERS.items() if measure in (_loaded_bytes, _written_bytes)
)
ROOT = "bench.op"  # one span around each traced operation


class Tracer:
    """Span store plus the install/restore of every wrapper."""

    def __init__(self) -> None:
        self.names = [ROOT, *LAYERS]
        self.spans: list[tuple[int, int, int, float, float] | None] = []
        self.stack: list[int] = [-1]
        self.op = -1
        self.errors: dict[tuple[int, str], int] = defaultdict(int)
        self.extras: dict[tuple[int, str], list] = defaultdict(list)
        self._originals: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self._op_start = 0.0

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn, layer: int, measure):
        spans, stack, clock, name = self.spans, self.stack, time.perf_counter, self.names[layer]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ZpdistillError:
                self.errors[self.op, name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, layer, parent, start, end)
            if measure is not None:
                self.extras[self.op, name].append(measure(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding; a binding the program no longer has is skipped
        and listed in `missing`, and its layer then reports zero calls."""
        if self._originals:
            raise RuntimeError("wrappers are already installed")
        for layer, (modules, attr, measure) in enumerate(LAYERS.values(), start=1):
            for short in modules:
                module = importlib.import_module(f"zpdistill.{short}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module.__name__}.{attr}")
                    continue
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer, measure))

    def restore(self) -> list[str]:
        """Put every original back; return the names still not original."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        leftover = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._originals
            if getattr(module, attr) is not original
        ]
        self._originals.clear()
        return leftover

    # -- spans ----------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        idx = self.stack.pop()
        self.spans[idx] = (self.op, 0, self.stack[-1], self._op_start, end)

    def op_stats(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per op and layer: calls, self_s, errors and any extra counts."""
        child_time = defaultdict(float)
        for idx, (_, _, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[int, dict[str, dict[str, float]]] = {}
        for idx, (op, layer, _, start, end) in enumerate(self.spans):
            per_op = stats.setdefault(op, {n: {"calls": 0, "self_s": 0.0} for n in self.names})
            entry = per_op[self.names[layer]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[idx]
        for op, per_op in stats.items():
            for name in LAYERS:
                per_op[name]["errors"] = self.errors.get((op, name), 0)
                extras = self.extras.get((op, name), [])
                if name in BYTES_LAYERS:
                    per_op[name]["bytes"] = sum(extras)
                elif extras:
                    per_op[name]["nonzero"] = sum(v[0] for v in extras)
                    per_op[name]["entries"] = sum(v[1] for v in extras)
        return stats

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,op,name,parent,start_s,end_s\n")
            for idx, (op, layer, parent, start, end) in enumerate(self.spans):
                f.write(f"{idx},{op},{self.names[layer]},{parent},{start:.9f},{end:.9f}\n")
