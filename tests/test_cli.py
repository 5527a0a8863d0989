import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zpdistill
from zpdistill import cli, fileio
from zpdistill.cli import _COMMANDS, _OVERRIDES, _build_parser, main
from zpdistill.distill_sim import SimConfig, build_world, measure_snr
from zpdistill.fileio import fmt, load_gradient_records, load_sim_config, write_profile
from zpdistill.kernel import select_exponents, unit_mean, zpd_moments
from zpdistill.robustness import fit_snr_model
from zpdistill.snr_profile import GradientTable, compute_snr_bins, normalize_profile
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

    @pytest.mark.parametrize("flags, named", [
        (["--alpha", "7", "--beta", "9"], "--alpha, --beta"),
        (["--beta", "1"], "--beta"),
    ])
    def test_kernel_exponents_with_the_hard_filter_fail_before_reading(
        self, tmp_path, capsys, flags, named
    ):
        # The rollout file does not exist, so the error comes before any read.
        argv = ["weight", str(tmp_path / "nope.jsonl"), "--hard-filter", "0.2", "0.8", *flags]
        err = _single_error(capsys, tmp_path, argv)
        assert err == f"error: --hard-filter cannot be combined with {named}"

    def test_default_kernel_is_beta_1_1(self, tmp_path, capsys):
        path = _write_rollouts(tmp_path / "r.jsonl", [("a", 2, 8), ("b", 4, 8), ("c", 7, 8)])
        tables = []
        for flags in ([], ["--alpha", "1"], ["--alpha", "1", "--beta", "1"]):
            assert main(["weight", str(path), *flags]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] == tables[2]

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

    def test_ids_a_csv_row_cannot_hold_are_refused_before_writing(self, tmp_path, capsys):
        path = _write_rollouts(tmp_path / "r.jsonl", [("a,b", 1, 2), ("c\nd", 1, 4), ("e", 3, 4)])
        assert main(["weight", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: problem 'a,b': "), err
        # A refused table leaves an existing --out file as it was.
        out = tmp_path / "w.csv"
        out.write_text("keep\n", encoding="utf-8")
        assert main(["weight", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == err
        assert out.read_text(encoding="utf-8") == "keep\n"
        # The rollout format holds such ids, so select-exponents reads them.
        assert main(["select-exponents", str(path)]) == 0

    @pytest.mark.parametrize("command", ["weight", "select-exponents"])
    def test_file_without_records_is_error(self, tmp_path, capsys, command):
        path = tmp_path / "r.jsonl"
        path.write_text("\n \n", encoding="utf-8")
        err = _single_error(capsys, tmp_path, [command, str(path)])
        assert err == f"error: no rollout records in {path}"


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

    def test_p_1_stays_out_where_1_minus_epsilon_rounds_to_1(self, tmp_path, capsys):
        # 1 - 1e-17 rounds to 1.0; a (p = 1) must stay out of the band all the same.
        spec = [("a", 2, 2), ("b", 1, 2), ("c", 1, 4), ("d", 3, 4)]
        path = _write_rollouts(tmp_path / "r.jsonl", spec)
        for epsilon in ("1e-16", "1e-17"):
            assert main(["select-exponents", str(path), "--epsilon", epsilon]) == 0
            kv = _kv(capsys.readouterr().out)
            assert (kv["count"], kv["mean_p"]) == ("3", "0.5")

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

    @pytest.mark.parametrize("flags, named", [
        (["--alpha", "5", "--gamma1", "9"], "--alpha, --gamma1"),
        (["--gamma2", "0"], "--gamma2"),
    ])
    def test_exponent_flags_with_signal_are_error(self, tmp_path, capsys, flags, named):
        argv = ["variance-ratio", "--signal", "1.0", "1.5", "1.3", "0.7", *flags]
        err = _single_error(capsys, tmp_path, argv)
        assert err == f"error: --signal cannot be combined with {named}"

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

    # The exact snr of each bin's doubles, from rational arithmetic.
    @pytest.mark.parametrize("rows, want", [
        ([("a", 0.5, (1e160, 1.0)), ("b", 0.5, (1.000000001e160, 1.0))], 1999999971.214125),
        # The mean row cancels to about 1e-200 of the largest gradient.
        ([("a", 0.6, (1e200, 1.0)), ("b", 0.6, (-1e200, 1.0)), ("e", 0.9, (1.0, 1.0))],
         1.2909944487358058e-200),
    ], ids=["signal", "spread"])
    def test_a_bin_whose_norms_overflow_is_rescaled(self, tmp_path, capsys, rows, want):
        path = _gradient_csv(tmp_path, [*rows, ("c", 0.1, (1.0, 2.0)), ("d", 0.4, (2.0, 3.0))])
        assert main(["snr-profile", str(path), "--bins", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "bell: unavailable (bell_shape_score needs >= 3 defined bins, got 2)\n")
        low, high = _table(captured.out)
        assert low["snr"] == "4.123105626"
        # 4e-8 is the cancellation of the deviations of two gradients 1e-9 apart.
        assert math.isclose(float(high["snr"]), want, rel_tol=1e-7)

    # Squares of 1e-170 fall below the smallest double, so each of these bins
    # lost its spread or its signal to underflow before it was rescaled.
    @pytest.mark.parametrize("rows, want", [
        ([("a", 0.5, (1.0, 1e-170)), ("b", 0.5, (1.0, -1e-170)),
          ("c", 0.1, (1.0, 2.0)), ("d", 0.4, (2.0, 3.0))], "1e+170"),
        ([("a", 0.5, (1e-170,)), ("b", 0.5, (-1e-170,)), ("c", 0.1, (2.0,)), ("d", 0.4, (3.0,))],
         "0"),
        ([("a", 0.5, (1.0, 1e-170)), ("b", 0.5, (-1.0, 1e-170)),
          ("c", 0.1, (1.0, 2.0)), ("d", 0.4, (2.0, 3.0))], "1e-170"),
    ], ids=["spread", "zero_mean_1d", "signal"])
    def test_a_bin_whose_squares_underflow_is_rescaled(self, tmp_path, capsys, rows, want):
        assert main(["snr-profile", str(_gradient_csv(tmp_path, rows)), "--bins", "2"]) == 0
        high = _table(capsys.readouterr().out)[1]
        assert (high["count"], high["snr"]) == ("2", want)

    def test_rows_that_differ_below_the_scaled_range_are_above_it(self, tmp_path, capsys):
        # The two rows differ by 2**-1074 beside a column of 8s: snr ~ 8 * 2**1075.
        path = _gradient_csv(tmp_path, [
            ("a", 0.5, (8.0, 2.2250738585072014e-308)), ("b", 0.5, (8.0, 2.225073858507202e-308)),
            ("c", 0.1, (1.0, 2.0)), ("d", 0.4, (2.0, 3.0))])
        assert main(["snr-profile", str(path), "--bins", "2"]) == 1
        assert capsys.readouterr().err == "error: bin 1: snr is above the double range\n"

    def test_a_refused_profile_leaves_an_existing_out_file_as_it_was(self, tmp_path, capsys):
        # snr = 1e154 / 5.56e-155 is finite but renders as inf at 10 digits.
        e = 5.5626846470796994e-155
        path = _gradient_csv(tmp_path, [("a", 0.5, (1e154, e)), ("b", 0.5, (1e154, -e)),
                                        ("c", 0.1, (1.0, 2.0)), ("d", 0.4, (2.0, 3.0))])
        out = tmp_path / "profile.csv"
        out.write_text("keep\n", encoding="utf-8")
        assert main(["snr-profile", str(path), "--bins", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bin 1: "), err
        assert err[0].endswith("renders at 10 significant digits as inf")
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_a_bin_of_identical_gradients_has_no_snr(self, tmp_path, capsys):
        # The mean of three 0.1s rounds, so their deviations are about 1e-17.
        path = _gradient_csv(tmp_path, [*[(pid, 0.5, (0.1, 1.0)) for pid in "abc"],
                                        ("d", 0.1, (1.0, 2.0)), ("e", 0.2, (2.0, 3.0))])
        assert main(["snr-profile", str(path), "--bins", "2"]) == 0
        low, high = _table(capsys.readouterr().out)
        assert (high["count"], high["snr"], high["snr_norm"]) == ("3", "", "")
        assert low["snr_norm"] == "1"

    def test_an_snr_above_the_double_range_is_one_error_line(self, tmp_path, capsys):
        path = _gradient_csv(tmp_path, [("a", 0.5, (1e150, 0.0)), ("b", 0.5, (1e150, 1e-160)),
                                        ("c", 0.1, (1.0, 2.0)), ("d", 0.4, (2.0, 3.0))])
        out = tmp_path / "profile.csv"
        out.write_text("keep\n", encoding="utf-8")
        assert main(["snr-profile", str(path), "--bins", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: bin 1: snr is above the double range\n"
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_bin_count_is_checked_before_the_file_is_read(self, tmp_path, capsys):
        argv = ["snr-profile", str(tmp_path / "missing.csv"), "--bins", "1"]
        assert _single_error(capsys, tmp_path, argv) == "error: num_bins must be >= 2, got 1"

    @pytest.mark.parametrize("message, want", [
        ("Unable to allocate 14.9 GiB for an array with shape (2000000001,) and data "
         "type float64", "error: Unable to allocate 14.9 GiB for an array with shape "
         "(2000000001,) and data type float64"),
        ("", "error: MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                             message, want):
        # The bin edges raise as numpy does for --bins 2000000000, allocating nothing.
        def exhausted(num_bins):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "equal_edges", exhausted)
        path = _gradient_csv(tmp_path, [("a", 0.5, (1.0,))])
        out = tmp_path / "profile.csv"
        argv = ["snr-profile", str(path), "--bins", "2000000000", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [want]
        assert not out.exists()


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

    def test_agrees_with_the_in_memory_golden_profile(self, tmp_path, capsys):
        # The golden step-0 profile, fitted from its arrays and from its file.
        world = build_world(load_sim_config(_GOLDEN_CFG.read_text(encoding="utf-8")))
        table = GradientTable(world.problem_ids, *measure_snr(world, "forward"))
        profile = compute_snr_bins(table, 10)
        fit = fit_snr_model(profile.mean_p, profile.snr)
        path = tmp_path / "profile.csv"
        with open(path, "w", encoding="utf-8") as f:
            write_profile(f, normalize_profile(profile))
        # The README's out/snr_bell/profile_step0.csv.
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "2e142da032d9b03a2ec67f80f0cc307d009f2418c4a5e8f44a9e3dab1b10dadc"
        assert main(["fit-snr", str(path)]) == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["a_prime"]) == pytest.approx(fit.a_prime, rel=0, abs=1e-8)
        assert float(kv["b_prime"]) == pytest.approx(fit.b_prime, rel=0, abs=1e-8)

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
        # Finite snr values above sqrt(max double) ~ 1.34e154 square to inf;
        # the fit reads 2 log snr, and its boundary constant overflows.
        ps = [0.1, 0.3, 0.5, 0.7, 0.9]
        path = self._profile_csv(tmp_path, ps, [1e159, 3e159, 5e159, 7e159, 9e159])
        err = _single_error(capsys, tmp_path, ["fit-snr", str(path)])
        assert err == "error: boundary constant c0 = e^736.8272297580946 overflows a double"

    @pytest.mark.parametrize("snrs, want", [
        # Finite snr values below about 1.6e-162 square to 0; the fit reads
        # 2 log snr, and its boundary constant underflows.
        ([1e-170, 2e-170, 3e-170, 2e-170, 1e-170],
         "boundary constant c0 = e^-778.3360702685665 underflows a double"),
        ([0.5, 0.0, 0.7, 0.6, 0.4], "bin 1: snr must be finite and > 0, got 0.0"),
    ], ids=["underflow", "zero"])
    def test_snr_whose_square_vanishes_is_error(self, tmp_path, capsys, snrs, want):
        path = self._profile_csv(tmp_path, [0.1, 0.3, 0.5, 0.7, 0.9], snrs)
        err = _single_error(capsys, tmp_path, ["fit-snr", str(path)])
        assert err == f"error: {want}"


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

    def test_each_distinct_dump_step_writes_its_own_file(self, tmp_path, capsys):
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

    @pytest.mark.parametrize("flags, want", [
        (["--scheme", "hard", "--alpha", "5", "--beta", "3", "--stage1-fraction", "0.3"],
         "scheme 'hard' ignores --alpha and --beta; schedule 'forward' ignores --stage1-fraction"),
        (["--scheme", "unweighted", "--beta", "3"], "scheme 'unweighted' ignores --beta"),
        (["--schedule", "reverse", "--stage1-fraction", "0.3"],
         "schedule 'reverse' ignores --stage1-fraction"),
        (["--config", "band.cfg", "--alpha", "2"], "scheme 'hard' ignores --alpha"),
    ])
    def test_flags_the_resolved_mode_ignores_fail_before_the_world_is_built(
        self, tmp_path, capsys, monkeypatch, flags, want
    ):
        self._zero_band(tmp_path)
        built = []
        monkeypatch.setattr(cli, "build_world", built.append)
        flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
        err = _single_error(capsys, tmp_path, ["simulate", "--steps", "2", *flags])
        assert err == f"error: {want}" and not built

    @pytest.mark.parametrize("flags", [
        ["--alpha", "2", "--beta", "0.5"],
        ["--schedule", "two_stage", "--stage1-fraction", "0.3"],
        # golden.cfg spells out alpha, beta and stage1_fraction; keys are allowed.
        ["--config", str(_GOLDEN_CFG), "--scheme", "hard", "--schedule", "reverse"],
    ])
    def test_flags_the_resolved_mode_reads_are_accepted(self, capsys, flags):
        assert main(["simulate", "--steps", "2", *flags]) == 0

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

    @staticmethod
    def _zero_band(tmp_path):
        """A config whose hard band gives every problem weight zero: a K = 8
        pass rate is a multiple of 1/8, so it never equals 0.55."""
        cfg = tmp_path / "band.cfg"
        cfg.write_text("[weighting]\nscheme = hard\nfilter_lo = 0.55\nfilter_hi = 0.55\n",
                       encoding="utf-8")
        return cfg

    def test_all_zero_weights_warn_at_the_first_such_step(self, tmp_path, capsys):
        cfg = self._zero_band(tmp_path)
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

    def test_all_zero_weights_are_read_from_the_weights_not_from_l(
        self, tmp_path, capsys, monkeypatch
    ):
        # With L patched to 1, eta * L = 1 < 2 and L is never 0: the warning
        # must come from the all-zero weights themselves.
        monkeypatch.setattr(cli, "smoothness_constant", lambda features, weights: 1.0)
        cfg = self._zero_band(tmp_path)
        args = ["simulate", "--config", str(cfg), "--steps", "4", "--recompute-interval", "2",
                "--eta", "1", "--out", str(tmp_path / "metrics.csv")]
        assert main(args) == 0
        (line,) = self._warnings(capsys.readouterr().err)
        assert line == ("warning: every weight is zero at step 0, so the updates "
                        "until the next recompute change nothing")

    def test_the_eta_l_warning_prints_first_whichever_step_comes_first(
        self, tmp_path, capsys, monkeypatch
    ):
        # L reads 0 at the first recompute and 10 after it, so the zero-weight
        # warning is decided at step 0 and the eta*L one at step 2.
        constants = iter([0.0, 10.0])
        monkeypatch.setattr(cli, "smoothness_constant", lambda features, weights: next(constants))
        cfg = self._zero_band(tmp_path)
        args = ["simulate", "--config", str(cfg), "--steps", "4", "--recompute-interval", "2",
                "--eta", "1", "--out", str(tmp_path / "metrics.csv")]
        assert main(args) == 0
        eta_l, zero = self._warnings(capsys.readouterr().err)
        assert eta_l.startswith("warning: eta*L = 10 >= 2 at step 2,")
        assert zero.startswith("warning: every weight is zero at step 0,")

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


# The commands that read an input file, each with its argv for a path.
_READERS = {
    "weight": lambda path: ["weight", path],
    "select-exponents": lambda path: ["select-exponents", path],
    "snr-profile": lambda path: ["snr-profile", path],
    "fit-snr": lambda path: ["fit-snr", path],
    "simulate": lambda path: ["simulate", "--config", path, "--steps", "2"],
}


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestInputFiles:
    @pytest.mark.parametrize("command", list(_READERS))
    def test_a_file_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\n")
        err = _single_error(capsys, tmp_path, _READERS[command](str(path)))
        assert err == f"error: {path} is not UTF-8 text (invalid start byte)"

    def test_a_bad_byte_past_the_first_chunk_is_one_error_line(self, tmp_path, capsys):
        rows = "".join(f"p{i},0.5,1\n" for i in range(3 * fileio._CHUNK_LINES))
        path = tmp_path / "g.csv"
        path.write_bytes(f"problem_id,pass_rate,g0\n{rows}".encode() + b"q,0.5,\xe9\n")
        err = _single_error(capsys, tmp_path, ["snr-profile", str(path)])
        assert err == f"error: {path} is not UTF-8 text (invalid continuation byte)"

    @pytest.mark.parametrize("command", list(_READERS))
    @settings(max_examples=100, deadline=None)
    @given(content=st.one_of(st.binary(max_size=80),
                             st.text(max_size=80).map(lambda t: t.encode("utf-8"))))
    def test_any_input_exits_0_or_1_with_one_error_line(self, fuzz_input, command, content):
        fuzz_input.write_bytes(content)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(_READERS[command](str(fuzz_input)))
        assert code in (0, 1)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


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
    # The child imports the package under test, wherever pytest found it.
    package = Path(zpdistill.__file__).resolve()
    env = {**os.environ, "PYTHONPATH": str(package.parent.parent)}
    res = subprocess.run(
        [sys.executable, "-c", "import zpdistill; print(zpdistill.__file__)"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert Path(res.stdout.strip()).resolve() == package
    res = subprocess.run(
        [sys.executable, "-m", "zpdistill", "robustness"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert res.returncode == 0
    assert res.stdout.startswith("delta,ratio_lo,ratio_hi,sech,worst_case_efficiency")
    res = subprocess.run(
        [sys.executable, "-m", "zpdistill", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert res.returncode == 0
    listed = re.findall(r"^    (\S+)", res.stdout, flags=re.M)
    assert listed == list(_COMMANDS) == [
        "weight", "select-exponents", "robustness", "variance-ratio",
        "snr-profile", "fit-snr", "simulate",
    ]
