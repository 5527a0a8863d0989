import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zpdistill import cli, fileio
from zpdistill.cli import _COMMANDS, _OVERRIDES, _build_parser, main
from zpdistill.distill_sim import SimConfig, build_world
from zpdistill.fileio import fmt, load_gradient_records
from zpdistill.kernel import select_exponents, unit_mean, zpd_moments
from zpdistill.variance import VarianceSpec, smoothness_constant, variance_ratio_beta

from sim_oracles import observed_train

_GOLDEN_CFG = Path(__file__).resolve().parent.parent / "configs" / "golden.cfg"


def _write_rollouts(path, spec):
    """spec: (problem_id, successes, attempts) triples."""
    lines = []
    for pid, s, k in spec:
        outcomes = [True] * s + [False] * (k - s)
        lines.append(json.dumps({"problem_id": pid, "outcomes": outcomes}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _kv(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            out[k] = v
    return out


def _table(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _single_error(capsys, tmp_path, argv):
    """Run argv with --out; it must exit 1, print exactly one `error:` line
    and no traceback, and leave no output file. Returns the line."""
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()
    return err[0]


class TestWeight:
    def test_beta_kernel_matches_library(self, tmp_path, capsys):
        spec = [("a", 2, 8), ("b", 4, 8), ("c", 7, 8)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["weight", str(path), "--alpha", "1.5", "--beta", "0.5"]) == 0
        rows = _table(capsys.readouterr().out)
        raw = [(s / k) ** 1.5 * (1.0 - s / k) ** 0.5 for _, s, k in spec]
        for row, (pid, _, _), w, wn in zip(rows, spec, raw, unit_mean(np.array(raw))):
            assert row["problem_id"] == pid
            assert float(row["w"]) == pytest.approx(w, rel=1e-9)
            assert float(row["w_norm"]) == pytest.approx(wn, rel=1e-9)

    def test_hard_filter_flag(self, tmp_path, capsys):
        spec = [("a", 1, 8), ("b", 4, 8), ("c", 8, 8)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(
            ["weight", str(path), "--hard-filter", "0.2", "0.8"]
        ) == 0
        rows = _table(capsys.readouterr().out)
        assert [float(r["w"]) for r in rows] == [0.0, 1.0, 0.0]
        assert float(rows[1]["w_norm"]) == pytest.approx(3.0)

    def test_floor_is_the_minimum_raw_weight_under_the_hard_band(self, tmp_path, capsys):
        # A floor above 1 lifts the kept problem too, so nothing is inverted.
        spec = [("a", 1, 8), ("b", 4, 8), ("c", 8, 8)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["weight", str(path), "--hard-filter", "0.2", "0.8", "--floor", "2"]) == 0
        rows = _table(capsys.readouterr().out)
        assert [(r["w"], r["w_norm"]) for r in rows] == [("2", "1")] * 3

    def test_degenerate_warns_on_stderr(self, tmp_path, capsys):
        path = _write_rollouts(tmp_path / "r.jsonl", [("a", 0, 4), ("b", 0, 4)])
        assert main(["weight", str(path)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        rows = _table(captured.out)
        assert all(float(r["w_norm"]) == 0.0 for r in rows)

    @pytest.mark.parametrize(
        "spec, flags, want",
        [
            # The mean of 1e308 and 1e308 overflows.
            ([("a", 1, 2), ("b", 2, 2)], ["--floor", "1e308"], [1.0, 1.0]),
            # w = 0.5**1074 is the smallest subnormal; its mean with 0 is 0.
            ([("a", 1, 2), ("b", 0, 2)], ["--alpha", "1074", "--beta", "0"], [2.0, 0.0]),
        ],
    )
    def test_weights_whose_mean_is_out_of_range(self, tmp_path, capsys, spec, flags, want):
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["weight", str(path), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [float(r["w_norm"]) for r in _table(captured.out)] == want

    @pytest.mark.parametrize("floor", ["nan", "-1", "inf"])
    def test_floor_that_is_not_finite_and_nonnegative_exits_1(self, tmp_path, capsys, floor):
        path = _write_rollouts(tmp_path / "r.jsonl", [("a", 2, 4)])
        assert main(["weight", str(path), "--floor", floor]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: floor ")
        assert captured.out == ""

    def test_out_flag_writes_file(self, tmp_path):
        path = _write_rollouts(tmp_path / "r.jsonl", [("a", 4, 8), ("b", 6, 8)])
        out = tmp_path / "weights.csv"
        assert main(["weight", str(path), "--out", str(out)]) == 0
        assert out.read_text().startswith("problem_id,p,w,w_norm\n")

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["weight", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_line_is_error(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        path.write_text("{bad json\n", encoding="utf-8")
        assert main(["weight", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err


_NEGATIVE_EXPONENT = (
    "a matched exponent is negative; use the flat kernel (alpha = 0, beta = 0)"
)


class TestSelectExponents:
    def test_valid_moments_match_library(self, tmp_path, capsys):
        spec = [("a", 6, 20), ("b", 10, 20), ("c", 14, 20)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["select-exponents", str(path)]) == 0
        kv = _kv(capsys.readouterr().out)
        alpha, beta = select_exponents(zpd_moments([s / k for _, s, k in spec], 0.125))
        assert float(kv["alpha_star"]) == pytest.approx(alpha, rel=1e-9)
        assert float(kv["beta_star"]) == pytest.approx(beta, rel=1e-9)
        assert kv["validity"] == "ok"
        assert "peak" in kv and "recommendation" not in kv

    def test_peak_is_the_kernel_argmax(self, tmp_path, capsys):
        # Oracle: dense grid argmax of the kernel with the printed exponents.
        grid = np.linspace(0.0, 1.0, 200001)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            center, sd = rng.uniform(0.3, 0.7), rng.uniform(2.0, 5.0)
            successes = np.clip(np.rint(rng.normal(center * 20, sd, 40)), 0, 20)
            spec = [(f"q{i}", int(s), 20) for i, s in enumerate(successes)]
            path = _write_rollouts(tmp_path / "r.jsonl", spec)
            assert main(["select-exponents", str(path)]) == 0
            kv = _kv(capsys.readouterr().out)
            w = grid ** float(kv["alpha_star"]) * (1.0 - grid) ** float(kv["beta_star"])
            assert float(kv["peak"]) == pytest.approx(grid[np.argmax(w)], abs=1e-5)

    def test_negative_exponent_prints_no_peak(self, tmp_path, capsys):
        # Skewed in-band moments: valid, yet the matched alpha is negative.
        spec = [(f"q{i}", s, 20) for i, s in enumerate([2] * 6 + [3] * 3 + [13] * 2)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["select-exponents", str(path), "--epsilon", "0.1"]) == 0
        kv = _kv(capsys.readouterr().out)
        assert kv["validity"] == "ok"
        assert float(kv["alpha_star"]) < 0.0 < float(kv["beta_star"])
        assert "peak" not in kv
        assert kv["recommendation"] == _NEGATIVE_EXPONENT

    def test_off_centre_flat_boundary_recommends_the_flat_kernel(self, tmp_path, capsys):
        # Mean 1/4 and variance 1/16 = mean(1 - mean)/3, both exact: the
        # boundary off centre, where the matched exponents are -1/2 and 1/2.
        spec = [(f"q{i}", s, 8) for i, s in enumerate([1] * 4 + [6])]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["select-exponents", str(path)]) == 0
        kv = _kv(capsys.readouterr().out)
        assert (kv["alpha_star"], kv["beta_star"]) == ("-0.5", "0.5")
        assert kv["validity"] == "flat_boundary"
        assert "peak" not in kv
        assert kv["recommendation"] == _NEGATIVE_EXPONENT

    def test_flat_kernel_prints_no_peak(self, tmp_path, capsys):
        # In-band mean 1/2 and variance 1/12, both exact: the flat boundary.
        spec = [(f"q{i}", s, 8) for i, s in enumerate([1] * 8 + [7] * 8 + [4] * 11)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["select-exponents", str(path)]) == 0
        kv = _kv(capsys.readouterr().out)
        assert (kv["alpha_star"], kv["beta_star"]) == ("0", "0")
        assert kv["validity"] == "flat_boundary"
        assert "peak" not in kv and "recommendation" not in kv

    def test_excess_variance_gives_recommendation(self, tmp_path, capsys):
        spec = [("a", 3, 20), ("b", 17, 20)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["select-exponents", str(path)]) == 0
        out = capsys.readouterr().out
        kv = _kv(out)
        assert kv["validity"] == "invalid"
        assert "flat kernel" in kv["recommendation"]
        assert "alpha_star" not in kv

    def test_epsilon_flag_changes_band(self, tmp_path, capsys):
        spec = [("a", 1, 20), ("b", 10, 20), ("c", 11, 20)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        assert main(["select-exponents", str(path), "--epsilon", "0.3"]) == 0
        kv = _kv(capsys.readouterr().out)
        # p = 0.05 falls outside [0.3, 0.7]; only two rates remain.
        assert kv["count"] == "2"

    def test_too_few_in_band_is_error(self, tmp_path, capsys):
        path = _write_rollouts(tmp_path / "r.jsonl", [("a", 0, 4), ("b", 2, 4)])
        assert main(["select-exponents", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestRobustness:
    def test_default_table(self, capsys):
        assert main(["robustness"]) == 0
        rows = _table(capsys.readouterr().out)
        assert [float(r["delta"]) for r in rows] == pytest.approx(
            [0.1, 0.3, 0.5, math.log(2.0)]
        )
        for row, want in zip(rows, (0.990, 0.915, 0.786, 0.640)):
            assert float(row["worst_case_efficiency"]) == pytest.approx(
                want, abs=5e-4
            )

    def test_extra_delta_rows(self, capsys):
        assert main(["robustness", "--delta", "0.7", "--delta", "1.1"]) == 0
        rows = _table(capsys.readouterr().out)
        assert len(rows) == 6
        assert float(rows[-1]["sech"]) == pytest.approx(1.0 / math.cosh(1.1), rel=1e-9)

    def test_negative_delta_is_error(self, capsys):
        assert main(["robustness", "--delta", "-0.5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_delta_whose_exponential_overflows_is_error(self, tmp_path, capsys):
        err = _single_error(capsys, tmp_path, ["robustness", "--delta", "710"])
        assert "delta = 710.0" in err


class TestVarianceRatio:
    def test_uniform_kernel(self, capsys):
        args = ["variance-ratio", "--alpha", "1", "--beta", "1",
                "--gamma1", "0", "--gamma2", "0"]
        assert main(args) == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["variance_ratio"]) == pytest.approx(1.2, rel=1e-9)
        assert kv["reduces_variance"] == "no"
        assert float(kv["b_kernel"]) == pytest.approx(1.0 / 6.0, rel=1e-9)

    def test_signal_form(self, capsys):
        assert main(["variance-ratio", "--signal", "1", "1", "1", "1"]) == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["gamma1"]) == pytest.approx(1.0)
        assert float(kv["gamma2"]) == pytest.approx(1.0)
        want = variance_ratio_beta(VarianceSpec(1.0, 1.0, 1.0, 1.0))
        assert float(kv["variance_ratio"]) == pytest.approx(want, rel=1e-9)

    def test_missing_flags_named(self, capsys):
        assert main(["variance-ratio", "--alpha", "1", "--beta", "1"]) == 1
        err = capsys.readouterr().err
        assert "--gamma1" in err
        assert "--gamma2" in err

    def test_epsilon_truncation(self, capsys):
        args = ["variance-ratio", "--alpha", "1", "--beta", "1",
                "--gamma1", "0", "--gamma2", "0", "--epsilon", "0.05"]
        assert main(args) == 0
        kv = _kv(capsys.readouterr().out)
        want = variance_ratio_beta(VarianceSpec(1.0, 1.0, 0.0, 0.0), epsilon=0.05)
        assert float(kv["variance_ratio"]) == pytest.approx(want, rel=1e-9)
        assert "b_numerator" not in kv

    def test_invalid_spec_is_error(self, capsys):
        args = ["variance-ratio", "--alpha", "1", "--beta", "1",
                "--gamma1", "-1", "--gamma2", "0"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error:")

    _HUGE_ALPHA = ["variance-ratio", "--alpha", "1e300", "--beta", "0",
                   "--gamma1", "0", "--gamma2", "0"]

    def test_huge_kernel_exponent(self, capsys):
        # B(x, 1) = 1/x, so R = (alpha + 1)^2 / (2 alpha + 1) = 5e299.
        assert main(self._HUGE_ALPHA) == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["variance_ratio"]) == pytest.approx(5e299, rel=1e-9)
        assert float(kv["b_numerator"]) == pytest.approx(5e-301, rel=1e-9)

    def test_truncated_moment_that_underflows_is_error(self, tmp_path, capsys):
        err = _single_error(capsys, tmp_path, [*self._HUGE_ALPHA, "--epsilon", "0.1"])
        assert "truncated numerator moment is 0.0" in err

    def test_ratio_that_underflows_is_error(self, tmp_path, capsys):
        args = ["variance-ratio", "--alpha", "0", "--beta", "1000",
                "--gamma1", "1000", "--gamma2", "0"]
        assert "variance ratio e^-189" in _single_error(capsys, tmp_path, args)


def _gradient_csv(tmp_path, rows):
    path = tmp_path / "grads.csv"
    dim = len(rows[0][2])
    header = "problem_id,pass_rate," + ",".join(f"g{i}" for i in range(dim))
    lines = [header]
    for pid, p, grad in rows:
        lines.append(",".join([pid, repr(p)] + [repr(g) for g in grad]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSnrProfile:
    def test_profile_and_bell_report(self, tmp_path, capsys):
        rows = []
        for i, (p, height) in enumerate(
            [(0.1, 0.5), (0.3, 2.0), (0.5, 4.0), (0.7, 2.0), (0.9, 0.5)]
        ):
            rows.append((f"a{i}", p, (height, 1.0)))
            rows.append((f"b{i}", p, (height, -1.0)))
        path = _gradient_csv(tmp_path, rows)
        assert main(["snr-profile", str(path), "--bins", "5"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"
        assert len(lines) == 6
        assert "bell: true" in captured.err

    def test_degenerate_profile_soft_fails(self, tmp_path, capsys):
        rows = [
            ("a", 0.1, (1.0, 1.0)),
            ("b", 0.1, (1.0, 1.0)),
            ("c", 0.9, (2.0, 0.0)),
            ("d", 0.9, (2.0, 0.0)),
        ]
        path = _gradient_csv(tmp_path, rows)
        assert main(["snr-profile", str(path), "--bins", "5"]) == 0
        captured = capsys.readouterr()
        assert "normalization unavailable" in captured.err
        assert "bell: unavailable" in captured.err
        assert captured.out.startswith("bin_lo,")

    def test_non_numeric_field_in_a_later_chunk_is_error(self, tmp_path, capsys):
        n = 3 * fileio._CHUNK_LINES + 100
        bad = n - 30  # index of the faulty row, on line bad + 2
        lines = ["problem_id,pass_rate,g0,g1"]
        for i in range(n):
            lines.append(f"q{i},0.5,{'x1' if i == bad else '1'},-1")
        path = tmp_path / "grads.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "profile.csv"
        assert main(["snr-profile", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: line {bad + 2}: non-numeric field (")
        assert not out.exists()

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["snr-profile", str(tmp_path / "nope.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestFitSnr:
    def _profile_csv(self, tmp_path, ps, snrs):
        path = tmp_path / "profile.csv"
        lines = ["bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"]
        for p, s in zip(ps, snrs):
            lines.append(f"0,1,{p!r},2,{s!r},,")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_recovers_power_law(self, tmp_path, capsys):
        ps = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
        snrs = [math.sqrt(0.8 * p**1.3 * (1 - p) ** 0.7) for p in ps]
        path = self._profile_csv(tmp_path, ps, snrs)
        assert main(["fit-snr", str(path)]) == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["a_prime"]) == pytest.approx(1.3, abs=1e-6)
        assert float(kv["b_prime"]) == pytest.approx(0.7, abs=1e-6)
        assert float(kv["c0"]) == pytest.approx(0.8, rel=1e-6)
        assert float(kv["delta"]) == pytest.approx(0.0, abs=1e-9)
        assert float(kv["minimax_scale"]) == pytest.approx(1.0, abs=1e-9)
        assert float(kv["worst_case_efficiency"]) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points_is_error(self, tmp_path, capsys):
        path = self._profile_csv(tmp_path, [0.3, 0.7], [1.0, 1.0])
        assert main(["fit-snr", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_boundary_constant_that_overflows_is_error(self, tmp_path, capsys):
        # A finite profile whose fitted intercept is 750 > log(max double).
        ps = [0.05, 0.25, 0.45, 0.55, 0.75, 0.95]
        snrs = [math.exp(0.5 * (750.0 + 60.0 * math.log(p * (1.0 - p)))) for p in ps]
        path = self._profile_csv(tmp_path, ps, snrs)
        assert "boundary constant c0" in _single_error(capsys, tmp_path, ["fit-snr", str(path)])

    def test_snr_whose_square_overflows_is_error(self, tmp_path, capsys):
        # Finite snr values above sqrt(max double) ~ 1.34e154 square to inf.
        ps = [0.1, 0.3, 0.5, 0.7, 0.9]
        path = self._profile_csv(tmp_path, ps, [1e159, 3e159, 5e159, 7e159, 9e159])
        err = _single_error(capsys, tmp_path, ["fit-snr", str(path)])
        assert err == "error: bin snr 1e+159: its square overflows a double"

    @pytest.mark.parametrize("snrs, want", [
        # Finite snr values below about 1.6e-162 square to 0.
        ([1e-170, 2e-170, 3e-170, 2e-170, 1e-170], "its square underflows a double"),
        ([0.5, 0.0, 0.7, 0.6, 0.4], "snr must be > 0"),
    ])
    def test_snr_whose_square_vanishes_is_error(self, tmp_path, capsys, snrs, want):
        bad = next(s for s in snrs if s * s == 0.0)
        path = self._profile_csv(tmp_path, [0.1, 0.3, 0.5, 0.7, 0.9], snrs)
        err = _single_error(capsys, tmp_path, ["fit-snr", str(path)])
        assert err == f"error: bin snr {bad!r}: {want}"


_SMALL_CFG = """
[world]
num_problems = 12
num_anchors = 4
feature_dim = 5
vocab_size = 6
seed = 11

[rollouts]
count = 4

[training]
steps = 4
eval_interval = 2
"""


class TestSimulate:
    def _cfg(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(_SMALL_CFG, encoding="utf-8")
        return path

    def test_metrics_to_stdout(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(self._cfg(tmp_path))]) == 0
        captured = capsys.readouterr()
        rows = _table(captured.out)
        assert [r["step"] for r in rows] == ["0", "2", "4"]
        assert "recomputed weights at steps: 0" in captured.err
        assert "final step 4" in captured.err

    def test_deterministic_rerun(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first

    def test_overrides(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path)
        args = [
            "simulate", "--config", str(cfg), "--steps", "2", "--seed", "9",
            "--scheme", "unweighted", "--recompute-interval", "none",
        ]
        assert main(args) == 0
        rows = _table(capsys.readouterr().out)
        assert rows[-1]["step"] == "2"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exits_1_naming_step(self, tmp_path, capsys):
        # Logits of this size overflow, so the step-0 checkpoint loss is NaN.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(_SMALL_CFG.replace("seed = 11", "seed = 11\nteacher_sharpness = 1e308"),
                       encoding="utf-8")
        out = tmp_path / "metrics.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: checkpoint loss is nan at step 0" in capsys.readouterr().err
        assert not out.exists()

    def test_two_stage_switch_logged(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path)
        args = ["simulate", "--config", str(cfg), "--schedule", "two_stage",
                "--steps", "10"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "stage switch at step 5" in captured.err
        assert "recomputed weights at steps: 0, 5" in captured.err
        stages = {r["stage"] for r in _table(captured.out)}
        assert stages == {"forward", "reverse"}

    def test_dump_gradients(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path)
        prefix = str(tmp_path / "dump_")
        args = ["simulate", "--config", str(cfg), "--dump-gradients", prefix,
                "--dump-step", "2"]
        assert main(args) == 0
        assert "wrote gradient dump" in capsys.readouterr().err
        with open(prefix + "2.csv", encoding="utf-8") as f:
            table = load_gradient_records(f)
        assert table.gradients.shape == (12, 5 * 6)

    def test_repeated_dump_step_writes_one_file_each(self, tmp_path, capsys):
        prefix = str(tmp_path / "dump_")
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--dump-gradients", prefix,
                "--dump-step", "0", "--dump-step", "3"]
        assert main(args) == 0
        assert capsys.readouterr().err.count("wrote gradient dump") == 2
        assert sorted(p.name for p in tmp_path.glob("dump_*")) == ["dump_0.csv", "dump_3.csv"]

    def test_a_dump_step_named_twice_is_dumped_once(self, tmp_path, capsys):
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--out", str(tmp_path / "m.csv")]
        dumps = []
        for name, steps in (("once_", ["3"]), ("twice_", ["3", "3"])):
            prefix = str(tmp_path / name)
            flags = [flag for step in steps for flag in ("--dump-step", step)]
            assert main([*args, "--dump-gradients", prefix, *flags]) == 0
            assert capsys.readouterr().err.count("wrote gradient dump") == 1
            assert [p.name for p in tmp_path.glob(name + "*")] == [name + "3.csv"]
            dumps.append(Path(prefix + "3.csv").read_bytes())
        assert dumps[0] == dumps[1]

    def test_smoothness_constant_is_computed_once_per_recompute(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def spy(features, weights):
            calls.append(weights)
            return smoothness_constant(features, weights)

        monkeypatch.setattr(cli, "smoothness_constant", spy)
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--steps", "6",
                "--recompute-interval", "2"]
        assert main(args) == 0
        assert "recomputed weights at steps: 0, 2, 4" in capsys.readouterr().err
        assert len(calls) == 3

    def test_dump_step_defaults_to_20(self, tmp_path, capsys):
        prefix = str(tmp_path / "dump_")
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--steps", "20",
                "--dump-gradients", prefix]
        assert main(args) == 0
        assert [p.name for p in tmp_path.glob("dump_*")] == ["dump_20.csv"]

    def test_dump_step_without_dump_gradients_is_error(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--out", str(out),
                "--dump-step", "3"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--dump-step" in err and "--dump-gradients" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, bad", [
        (["--dump-step", "0", "--dump-step", "5"], "5"),
        (["--dump-step", "-1"], "-1"),
        ([], "20"),  # the default, with the config's 4 steps
    ])
    def test_dump_step_outside_the_run_fails_before_the_world_is_built(
        self, tmp_path, capsys, monkeypatch, flags, bad
    ):
        built = []
        monkeypatch.setattr(cli, "build_world", built.append)
        out = tmp_path / "metrics.csv"
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--out", str(out),
                "--dump-gradients", str(tmp_path / "g"), *flags]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: --dump-step {bad} outside [0, 4] (default 20)\n"
        assert not built and not out.exists()

    def test_unopenable_dump_path_writes_no_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        prefix = str(tmp_path / "nodir" / "g")
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--out", str(out),
                "--dump-gradients", prefix, "--dump-step", "0"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nodir" in err
        assert not out.exists()

    def test_bad_recompute_interval_is_error(self, tmp_path, capsys):
        args = ["simulate", "--config", str(self._cfg(tmp_path)),
                "--recompute-interval", "soon"]
        assert main(args) == 1
        assert "recompute-interval" in capsys.readouterr().err

    _MALFORMED = [
        ("--seed", "abc", "seed"),
        ("--k", "1.5", "rollout_count"),
        ("--alpha", "x", "alpha"),
        ("--beta", "nan", "beta"),
        ("--scheme", "bogus", "scheme"),
        ("--schedule", "sideways", "loss_direction"),
        ("--stage1-fraction", "2", "stage1_fraction"),
        ("--recompute-interval", "0", "recompute_interval"),
        ("--steps", "many", "steps"),
        ("--eta", "-1", "learning_rate"),
    ]

    def test_malformed_cases_cover_every_flag(self):
        assert {(f, field) for f, _, field in self._MALFORMED} == {
            (f, field) for f, field, _ in _OVERRIDES
        }

    @pytest.mark.parametrize("flag, value, field", _MALFORMED)
    def test_malformed_override_exits_1(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "metrics.csv"
        args = ["simulate", "--config", str(self._cfg(tmp_path)), "--out", str(out),
                flag, value]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag in err or field in err
        assert not out.exists()

    def test_defaults_without_config_flag(self, capsys):
        # No --config: pure SimConfig defaults, overridden to stay fast.
        assert main(["simulate", "--steps", "1", "--k", "2", "--seed", "3"]) == 0
        rows = _table(capsys.readouterr().out)
        assert rows[0]["step"] == "0"
        assert rows[-1]["step"] == "1"

    def test_missing_config_file_is_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @staticmethod
    def _warnings(err):
        return [line for line in err.splitlines() if line.startswith("warning:")]

    def test_divergent_step_size_warns_once(self, capsys):
        assert main(["simulate", "--steps", "6", "--eta", "1e300"]) == 0
        (line,) = self._warnings(capsys.readouterr().err)
        smoothness = observed_train(build_world(SimConfig(steps=6, learning_rate=1e300)))[2][0]
        assert f"eta*L = {fmt(1e300 * smoothness)} >= 2 at step 0" in line
        assert "forward KL only" not in line

    @pytest.mark.parametrize("schedule", ["reverse", "two_stage"])
    def test_divergence_warning_names_forward_kl_scope(self, capsys, schedule):
        # Unit weights keep L fixed, so every recompute breaks the bound;
        # only the first one is reported.
        args = ["simulate", "--steps", "6", "--eta", "1e300", "--schedule", schedule,
                "--recompute-interval", "2", "--scheme", "unweighted"]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "recomputed weights at steps: 0, 2" in err
        (line,) = self._warnings(err)
        assert "at step 0" in line and line.endswith("the bound covers forward KL only")

    def test_all_zero_weights_warn_at_the_first_such_step(self, tmp_path, capsys):
        # A K = 8 pass rate is a multiple of 1/8, so it never equals 0.55.
        cfg = tmp_path / "band.cfg"
        cfg.write_text("[weighting]\nscheme = hard\nfilter_lo = 0.55\nfilter_hi = 0.55\n",
                       encoding="utf-8")
        out = tmp_path / "metrics.csv"
        args = ["simulate", "--config", str(cfg), "--steps", "4", "--recompute-interval", "2",
                "--out", str(out)]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "recomputed weights at steps: 0, 2" in err
        (line,) = self._warnings(err)
        assert line == ("warning: every weight is zero at step 0, so the updates "
                        "until the next recompute change nothing")
        assert out.exists()

    def test_divergent_run_warns_when_its_weights_reach_zero(self, capsys):
        # The second recompute, at the stage switch, finds every pass rate at 0 or 1.
        assert main(["simulate", "--steps", "6", "--eta", "1e300",
                     "--schedule", "two_stage"]) == 0
        err = capsys.readouterr().err
        assert "recomputed weights at steps: 0, 3" in err
        eta_l, zero = self._warnings(err)
        assert "eta*L" in eta_l and "at step 0" in eta_l
        assert zero.startswith("warning: every weight is zero at step 3,")

    def test_zero_step_size_does_not_warn(self, capsys):
        assert main(["simulate", "--steps", "2", "--eta", "0"]) == 0
        assert self._warnings(capsys.readouterr().err) == []

    def test_underflowing_step_size_does_not_warn(self, tmp_path, capsys):
        # eta * L underflows to 0 here while the golden weights are far from zero.
        args = ["simulate", "--config", str(_GOLDEN_CFG), "--steps", "2", "--eta", "1e-323",
                "--out", str(tmp_path / "m.csv")]
        assert main(args) == 0
        assert self._warnings(capsys.readouterr().err) == []

    def test_golden_run_does_not_warn(self, tmp_path, capsys):
        args = ["simulate", "--config", str(_GOLDEN_CFG), "--out", str(tmp_path / "m.csv")]
        assert main(args) == 0
        assert self._warnings(capsys.readouterr().err) == []


def _exit_output(capsys, parse):
    """(stdout, stderr, exit code) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


class TestParser:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_subcommand_help_equals_full_parser(self, capsys, command):
        full = _exit_output(capsys, lambda: _build_parser().parse_args([command, "--help"]))
        assert full[0].startswith(f"usage: zpdistill {command} ")
        assert _exit_output(capsys, lambda: main([command, "--help"])) == full

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["simulate", "--bogus"]])
    def test_top_level_output_equals_full_parser(self, capsys, argv):
        full = _exit_output(capsys, lambda: _build_parser().parse_args(argv))
        assert _exit_output(capsys, lambda: main(argv)) == full

    def test_main_builds_only_the_invoked_subparser(self, tmp_path, capsys, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(_SMALL_CFG, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 0
        assert names == ["simulate"]
        names.clear()
        _exit_output(capsys, lambda: main(["--help"]))
        assert names == list(_COMMANDS)


def test_module_entry_point_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "zpdistill", "robustness"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0
    assert res.stdout.startswith("delta,ratio_lo,ratio_hi,sech,worst_case_efficiency")
    res = subprocess.run(
        [sys.executable, "-m", "zpdistill", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0
    listed = re.findall(r"^    (\S+)", res.stdout, flags=re.M)
    assert listed == list(_COMMANDS) == [
        "weight", "select-exponents", "robustness", "variance-ratio",
        "snr-profile", "fit-snr", "simulate",
    ]
