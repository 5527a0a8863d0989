"""The four benchmark workloads: what one operation calls and how it is checked.

Every operation goes in process through `zpdistill.cli.main([...])`, looked
up on the module at call time so the tracer's wrapper on `cli.main` is seen.
`prepare` runs before the timed region; `run` is one timed operation;
`check` verifies the outputs and returns their sha256 digests.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import zpdistill.cli

import gen_inputs

# Golden outputs at seed 7, as the README documents them; changes must keep them byte-identical.
GOLDEN_SEED7_SHA256 = {
    "metrics.csv": "08831676715d9df8bf8c1d8593133c330912d9608ee8b9a7557da3ab448e8cda",
    "gradients_step20.csv": "74d740b57ad2fa1c2d2229a0d77df08fe373682ba178331ad868322a46f4894e",
}
METRICS_HEADER = [
    "step", "stage", "loss", "train_acc", "retention_kl",
    "frac_low", "frac_med", "frac_high", "mean_p",
]
FIT_TOLERANCE = 0.05


class CheckFailed(Exception):
    """An operation exited nonzero or wrote an output that fails a check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def call_cli(argv: list[str]) -> str:
    """One CLI call; returns its stderr report."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = zpdistill.cli.main(argv)
    require(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return err.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def read_report(path: Path) -> dict[str, str]:
    """`key = value` lines, as select-exponents, fit-snr and variance-ratio write."""
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {key: value for key, value in pairs}


class Simulate:
    """`zpdistill simulate` on the golden config, optionally with overrides."""

    def __init__(
        self,
        overrides: dict[str, dict[str, str]],
        stages: tuple[str, ...] = ("forward",) * 4,
        stderr_lines: tuple[str, ...] = ("recomputed weights at steps: 0",),
        dump: bool = False,
    ) -> None:
        self.overrides = overrides
        self.stages = stages
        self.stderr_lines = stderr_lines
        self.dump = dump

    def prepare(self, root: Path, out: Path, seed: int) -> None:
        config = root / "configs" / "golden.cfg"
        parser = configparser.ConfigParser()
        parser.read_string(config.read_text(encoding="utf-8"))
        for section, values in self.overrides.items():
            parser[section].update(values)
        self.num_problems = parser.getint("world", "num_problems")
        if self.overrides:
            config = out / "workload.cfg"
            with open(config, "w", encoding="utf-8") as f:
                parser.write(f)
        self.seed = seed
        self.out = out
        self.argv = ["simulate", "--config", str(config), "--seed", str(seed),
                     "--out", str(out / "metrics.csv")]
        if self.dump:
            self.argv += ["--dump-gradients", str(out / "gradients_step"), "--dump-step", "20"]

    def run(self) -> None:
        self.stderr = call_cli(self.argv)

    def check(self) -> dict[str, str]:
        for line in self.stderr_lines:
            require(line in self.stderr.splitlines(), f"stderr lacks {line!r}")
        rows = read_csv(self.out / "metrics.csv")
        require(rows[0] == METRICS_HEADER, "metrics.csv header changed")
        require([r[0] for r in rows[1:]] == ["0", "20", "40", "60"], "checkpoint steps changed")
        require(tuple(r[1] for r in rows[1:]) == self.stages, "loss stages changed")
        for r in rows[1:]:
            values = [float(v) for v in r[2:]]
            require(all(math.isfinite(v) for v in values), f"non-finite metric at step {r[0]}")
            require(abs(sum(values[3:6]) - 1.0) < 1e-6, f"band fractions at step {r[0]} do not sum to 1")
        files = ["metrics.csv"]
        if self.dump:
            grads = read_csv(self.out / "gradients_step20.csv")
            require(len(grads) == self.num_problems + 1, "gradient dump row count changed")
            require(all(len(r) == len(grads[0]) for r in grads), "ragged gradient dump")
            files.append("gradients_step20.csv")
        digests = {name: sha256(self.out / name) for name in files}
        if self.dump and self.seed == 7:
            for name, want in GOLDEN_SEED7_SHA256.items():
                require(digests[name] == want, f"{name} sha256 {digests[name]} != pinned {want}")
        return digests


class AnalysisIO:
    """weight -> select-exponents -> snr-profile -> fit-snr -> variance-ratio
    on generated rollout and gradient files."""

    def prepare(self, root: Path, out: Path, seed: int) -> None:
        # A child process, so the generator's memory stays out of peak_rss_mb.
        subprocess.run(
            [sys.executable, str(Path(gen_inputs.__file__)), "--seed", str(seed), "--out-dir", str(out)],
            check=True, timeout=150,
        )
        self.out = out
        self.inputs = {name: sha256(out / name) for name in ("rollouts.jsonl", "gradients.csv")}

    def run(self) -> None:
        o = self.out
        call_cli(["weight", str(o / "rollouts.jsonl"), "--alpha", "1", "--beta", "1",
                  "--out", str(o / "weights.csv")])
        call_cli(["select-exponents", str(o / "rollouts.jsonl"), "--epsilon", "0.125",
                  "--out", str(o / "exponents.txt")])
        self.bell = call_cli(["snr-profile", str(o / "gradients.csv"), "--bins", "10",
                              "--out", str(o / "profile.csv")])
        call_cli(["fit-snr", str(o / "profile.csv"), "--out", str(o / "fit.txt")])
        fit = read_report(o / "fit.txt")
        call_cli(["variance-ratio", "--signal", *map(str, self.signal()),
                  fit["a_prime"], fit["b_prime"], "--out", str(o / "variance.txt")])

    @staticmethod
    def signal() -> tuple[float, float]:
        # Noise energy is the same in every row, so |E g| ~ sqrt(SNR^2).
        return gen_inputs.SNR_A / 2.0, gen_inputs.SNR_B / 2.0

    def check(self) -> dict[str, str]:
        o = self.out
        weights = read_csv(o / "weights.csv")
        require(len(weights) == gen_inputs.NUM_PROBLEMS + 1, "weight table row count changed")
        mean_w = sum(float(r[3]) for r in weights[1:]) / gen_inputs.NUM_PROBLEMS
        require(abs(mean_w - 1.0) < 1e-6, f"normalized weights have mean {mean_w}, not 1")
        require(read_report(o / "exponents.txt").get("validity") == "ok",
                "select-exponents validity is not ok")
        require(len(read_csv(o / "profile.csv")) == 11, "profile does not have 10 bins")
        require(any(line.startswith("bell: true") for line in self.bell.splitlines()),
                "snr-profile did not report a bell shape")
        fit = read_report(o / "fit.txt")
        a, b = float(fit["a_prime"]), float(fit["b_prime"])
        require(abs(a - gen_inputs.SNR_A) <= FIT_TOLERANCE and abs(b - gen_inputs.SNR_B) <= FIT_TOLERANCE,
                f"fit-snr recovered ({a}, {b}), generator used ({gen_inputs.SNR_A}, {gen_inputs.SNR_B})")
        ratio = float(read_report(o / "variance.txt")["variance_ratio"])
        require(math.isclose(ratio, closed_form_ratio(a, b, *self.signal()), rel_tol=1e-8),
                f"variance_ratio {ratio} disagrees with the Beta-function oracle")
        names = ["weights.csv", "exponents.txt", "profile.csv", "fit.txt", "variance.txt"]
        return {name: sha256(o / name) for name in names}


def closed_form_ratio(a_prime: float, b_prime: float, a_s: float, b_s: float) -> float:
    """B(2a+g1+1, 2b+g2+1) / (B(a+1, b+1)^2 B(g1+1, g2+1)) with g = 2*signal - snr."""
    def log_beta(x: float, y: float) -> float:
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    g1, g2 = 2.0 * a_s - a_prime, 2.0 * b_s - b_prime
    return math.exp(
        log_beta(2 * a_prime + g1 + 1, 2 * b_prime + g2 + 1)
        - 2 * log_beta(a_prime + 1, b_prime + 1)
        - log_beta(g1 + 1, g2 + 1)
    )


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "golden": lambda: Simulate({}, dump=True),
    "train_20k": lambda: Simulate({"world": {"num_problems": "20000"}}),
    "reverse_2k": lambda: Simulate(
        {
            "world": {"num_problems": "2000"},
            "weighting": {"scheme": "hard", "recompute_interval": "15"},
            "training": {"loss_direction": "two_stage", "reverse_kl_samples": "16",
                         "batch_size": "500"},
        },
        stages=("forward", "forward", "reverse", "reverse"),
        stderr_lines=("recomputed weights at steps: 0, 15, 30, 45", "stage switch at step 30"),
    ),
    "analysis_io": AnalysisIO,
}
