"""zpdistill benchmark: closed-loop workloads timed at each module's public calls.

    python3 perfbench/run.py --workload golden --seed 7 --seconds 20 --trace 0

Run from the root of a checkout of the repository; the program is imported
from its `src/`. One caller in one process makes its next
`zpdistill.cli.main` call only after the previous one returns (a closed
loop, like a researcher at a terminal), until --seconds have passed.

--trace 0 reports the end-to-end metrics with no wrapper installed:
  setup_s      median time of `import zpdistill.cli` in fresh interpreters
               (interpreter start-up left out)
  run_s        median wall time of one operation
  cpu_s        median user+system CPU time of one operation, all threads
  peak_rss_mb  peak resident memory of this process, which runs only the
               workload (input generation and set-up run in child processes)
and prints fail_frac, plus run_s_tail when at least eleven operations ran.
Times are in reference seconds (calib.py); the raw medians are printed too.

--trace 1 alternates untraced and traced operations. Traced ones run with
timing wrappers (spans.py) on every layer and report per-layer calls,
self_s, errors, bytes and the weight nonzero_frac, plus the tracing
overhead: traced run_s minus untraced run_s.

Every operation's outputs are checked (workloads.py) and hashed; all
operations of a run must write identical bytes, traced or not. Per-layer
calls, errors and bytes must repeat exactly between traced operations and
between runs of the same program on the same seed. The last stdout line is
one JSON object; the full record, with the environment and every
operation's raw timing, is written to .perfbench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One BLAS thread. On a 2-vCPU machine OpenBLAS's second thread made the
# N = 20 000 run slower (5.2-6.2 s against 4.9-5.8 s) and less steady, and
# calib.py's scaling only tracks single-threaded work. Set before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
SETUP_CODE = (
    "import time, calib\n"
    "loops = [calib.loop_seconds() for _ in range(3)]\n"
    "t = time.perf_counter()\n"
    "import zpdistill.cli\n"
    "t = time.perf_counter() - t\n"
    "loops += [calib.loop_seconds() for _ in range(3)]\n"
    "print(t, calib.scale(loops), zpdistill.cli.__file__)\n"
)
LOAD = "closed loop: one caller in one process; each call starts after the previous one returns"
# Per-layer values that must repeat exactly for the same program and seed.
COUNT_KINDS = ("calls", "errors", "bytes")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="zpdistill benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "thread_vars": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python_vars": {k: v for k, v in os.environ.items() if k.startswith("PYTHON")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "load": LOAD,
    }


def measure_setup() -> list[dict]:
    """`import zpdistill.cli` timed inside fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, factor, path = out.stdout.strip().split(" ", 2)
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported zpdistill from {path}, not {SRC}")
        samples.append({"wall_s": float(seconds), "scale": float(factor)})
    return samples


def program_fingerprint() -> str:
    """Digest of the program and benchmark sources, to key the count record."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py"), ROOT / "configs" / "golden.cfg"]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


class Run:
    def __init__(self, args: argparse.Namespace, workload, tracer) -> None:
        self.args = args
        self.workload = workload
        self.tracer = tracer
        self.ops: list[dict] = []
        self.errors: list[str] = []
        self.sampler = calib.Sampler()
        self.first_digests: dict[str, str] | None = None
        self.first_counts: dict | None = None

    def one_op(self, index: int, traced: bool) -> None:
        op = {"op": index, "traced": traced, "error": None}
        n_spans = len(self.tracer.spans)
        if traced:
            self.tracer.install()
            self.tracer.begin_op(index)
        spent = self.sampler.spent
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            self.workload.run()
        except (Exception, SystemExit):
            op["error"] = traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        spent = self.sampler.spent - spent
        op["wall_s"], op["cpu_s"], op["calib_s"] = t1 - t0 - spent, c1 - c0 - spent, spent
        op["start"], op["end"] = t0, t1
        if traced:
            self.tracer.end_op()
            leftover = self.tracer.restore()
            if leftover:
                op["error"] = op["error"] or f"wrappers not restored: {leftover}"
        elif len(self.tracer.spans) != n_spans:
            op["error"] = op["error"] or "an untraced operation recorded spans"
        if op["error"] is None:
            try:
                op["digests"] = self.workload.check()
            except Exception:
                op["error"] = traceback.format_exc(limit=2)
        if op["error"] is None:
            if self.first_digests is None:
                self.first_digests = op["digests"]
            elif op["digests"] != self.first_digests:
                op["error"] = f"outputs differ from the first operation: {op['digests']}"
        self.ops.append(op)

    def loop(self) -> None:
        # No untimed warm-up call: in a ten-seed sweep of every workload the
        # first call of a run took 0.61-1.22 times the median of the rest,
        # with no consistent excess.
        start = time.perf_counter()
        index = 0
        with self.sampler:
            while True:
                done = time.perf_counter() - start >= self.args.seconds
                kinds = {op["traced"] for op in self.ops}
                if done and len(kinds) == (2 if self.args.trace else 1):
                    break
                self.one_op(index, traced=bool(self.args.trace) and index % 2 == 1)
                index += 1
        for op in self.ops:
            op["scale"] = self.sampler.scale_between(op["start"], op["end"])

    def times(self, traced: bool, key: str = "wall_s") -> list[float]:
        """Operation times in reference seconds."""
        return [op[key] * op["scale"] for op in self.ops if op["traced"] == traced]

    def end_to_end(self, setup: list[dict]) -> dict:
        return {
            "setup_s": (statistics.median(s["wall_s"] * s["scale"] for s in setup), "s"),
            "run_s": (statistics.median(self.times(False)), "s"),
            "cpu_s": (statistics.median(self.times(False, "cpu_s")), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        from spans import BYTES_LAYERS, LAYERS

        stats = self.tracer.op_stats()
        traced_ops = [op for op in self.ops if op["traced"]]
        traced = [stats[op["op"]] for op in traced_ops]
        counts = [
            {name: {k: s[name][k] for k in COUNT_KINDS if k in s[name]} for name in LAYERS}
            for s in traced
        ]
        for op, c in zip(traced_ops, counts):
            if c != counts[0]:
                op["error"] = op["error"] or "per-layer counts drifted between operations"
        self.first_counts = counts[0]
        metrics = {}
        for name in LAYERS:
            self_s = [s[name]["self_s"] * op["scale"] for s, op in zip(traced, traced_ops)]
            metrics[f"{name}.calls"] = (counts[0][name]["calls"], "count")
            metrics[f"{name}.self_s"] = (statistics.median(self_s), "s")
            metrics[f"{name}.errors"] = (counts[0][name]["errors"], "count")
            if name in BYTES_LAYERS:
                metrics[f"{name}.bytes"] = (counts[0][name]["bytes"], "B")
        weights = [s["kernel.normalize_weights"] for s in traced]
        metrics["kernel.normalize_weights.nonzero_frac"] = (
            statistics.median(w["nonzero"] / w["entries"] if w.get("entries") else 0.0 for w in weights),
            "ratio",
        )
        metrics["trace.overhead_s"] = (
            statistics.median(self.times(True)) - statistics.median(self.times(False)), "s")
        return metrics

    def check_count_record(self) -> None:
        """Counts on the same program and seed must repeat exactly across runs."""
        record = OUT / "counts" / f"{self.args.workload}-seed{self.args.seed}-{program_fingerprint()}.json"
        if record.exists():
            if json.loads(record.read_text()) != self.first_counts:
                self.errors.append(f"per-layer counts differ from the earlier run recorded in {record}")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(self.first_counts, sort_keys=True))


def report(run: Run, metrics: dict, setup: list[dict]) -> None:
    a = run.args
    untraced = [op for op in run.ops if not op["traced"]]
    failed = sum(op["error"] is not None for op in run.ops)
    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace}: {len(run.ops)} operations, {LOAD}")
    scales = [op["scale"] for op in run.ops]
    print(f"  times in reference seconds (calib.py), scale {min(scales):.3f}-{max(scales):.3f}; "
          "raw medians in brackets")
    notes = {"run_s": f"median of {len(untraced)} untraced operations "
                      f"[{statistics.median(op['wall_s'] for op in untraced):.4g} s]",
             "cpu_s": f"median of {len(untraced)} untraced operations "
                      f"[{statistics.median(op['cpu_s'] for op in untraced):.4g} s]"}
    if setup:
        notes["setup_s"] = (f"median of {len(setup)} fresh imports "
                            f"[{statistics.median(s['wall_s'] for s in setup):.4g} s]")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    if not a.trace:
        t = tail(run.times(False))
        if t is not None:
            print(f"  {'run_s_tail':<44} {t[1]:>14.6g} s  "
                  f"(p{t[0]:.1f}: 10 of {len(untraced)} operations beyond)")
    print(f"  {'fail_frac':<44} {failed / len(run.ops):>14.6g}  ({failed} of {len(run.ops)})")
    for name, digest in (run.first_digests or {}).items():
        print(f"  sha256 {name} {digest}")
    for op in run.ops:
        if op["error"]:
            print(f"operation {op['op']} failed: {op['error']}", file=sys.stderr)
    for error in run.errors:
        print(f"run check failed: {error}", file=sys.stderr)
    for name in sorted(run.tracer.missing):
        print(f"note: {name} does not exist, so it was not traced", file=sys.stderr)


def main() -> int:
    args = parse_args()
    if not (SRC / "zpdistill" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'zpdistill'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**63
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    env = environment()
    setup = [] if args.trace else measure_setup()
    workload = WORKLOADS[args.workload]()
    workload.prepare(ROOT, out, seed)
    run = Run(args, workload, Tracer())
    run.loop()
    if args.trace:
        metrics = run.per_layer()
        run.check_count_record()
        run.tracer.write(out / "spans.csv")
    else:
        metrics = run.end_to_end(setup)

    failed = sum(op["error"] is not None for op in run.ops)
    correct = failed == 0 and not run.errors
    report(run, metrics, setup)
    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": seed, "trace": args.trace, "environment": env,
        "setup": setup, "loop_samples_s": run.sampler.samples,
        "inputs": getattr(workload, "inputs", {}), "digests": run.first_digests,
        "counts": run.first_counts, "untraced_bindings": sorted(run.tracer.missing),
        "run_errors": run.errors, "operations": run.ops,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }, indent=1))
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
