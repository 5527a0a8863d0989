import math

import numpy as np
import pytest

from zpdistill.errors import DomainError, FitError, InsufficientDataError
from zpdistill.numerics import sech, sech2
from zpdistill.robustness import (
    fit_snr_model,
    minimax_scale,
    minimax_weight,
    robustness_rows,
)


def _worst_case(c: float, delta: float) -> float:
    """Oracle: the smaller descent efficiency 2*rho - rho^2 of rho = c e^{+-delta}."""
    return min(2.0 * rho - rho * rho for rho in (c * math.exp(-delta), c * math.exp(delta)))


class TestMinimax:
    def test_table_values(self):
        rows = robustness_rows([0.1, 0.3, 0.5, math.log(2.0)])
        effs = [r[4] for r in rows]
        for got, want in zip(effs, (0.990, 0.915, 0.786, 0.640)):
            assert got == pytest.approx(want, abs=5e-4)

    def test_row_structure(self):
        (row,) = robustness_rows([0.5])
        d, lo, hi, s, eff = row
        assert d == 0.5
        assert (lo, hi) == (pytest.approx(math.exp(-0.5)), pytest.approx(math.exp(0.5)))
        assert s == minimax_scale(0.5) == sech(0.5)
        assert eff == pytest.approx(s * s, rel=1e-14)

    def test_rejects_negative_delta(self):
        with pytest.raises(DomainError):
            robustness_rows([0.1, -0.2])

    def test_delta_whose_exponential_overflows_is_named(self):
        assert robustness_rows([709.0])[0][2] == math.exp(709.0)
        with pytest.raises(DomainError, match="delta = 710.0"):
            robustness_rows([0.1, 710.0])

    def test_equalizer_property(self):
        # At c = sech(delta) both extreme misspecifications achieve the
        # same efficiency, and it equals sech^2(delta).
        for delta in (0.1, 0.3, 0.5, math.log(2.0)):
            c = minimax_scale(delta)
            lo = c * math.exp(-delta)
            hi = c * math.exp(delta)
            assert 2.0 * lo - lo * lo == pytest.approx(2.0 * hi - hi * hi, rel=1e-12)
            assert _worst_case(c, delta) == pytest.approx(sech2(delta), abs=1e-13)

    def test_no_better_scale_on_coarse_grid(self):
        delta = 0.4
        best = _worst_case(minimax_scale(delta), delta)
        for c in np.linspace(0.01, 3.0, 300):
            assert _worst_case(float(c), delta) <= best + 1e-12

    def test_zero_delta_recovers_exact_optimum(self):
        assert minimax_scale(0.0) == 1.0
        assert robustness_rows([0.0]) == [(0.0, 1.0, 1.0, 1.0, 1.0)]

    def test_minimax_weight_scales_kernel(self):
        w = minimax_weight(np.array([0.5, 0.2, 0.0]), 1.0, 1.0, 0.5)
        assert w == pytest.approx(sech(0.5) * np.array([0.25, 0.16, 0.0]), rel=1e-13)
        for a, b in ((0.0, 1.0), (1.0, -1.0)):
            with pytest.raises(DomainError, match="positive exponents"):
                minimax_weight(np.array([0.5]), a, b, 0.5)


class TestFitSnrModel:
    def test_exact_recovery(self):
        ps = np.linspace(0.05, 0.95, 31)
        a, b, c = 1.3, 0.7, 0.8
        snr_sq = c * ps**a * (1 - ps) ** b
        fit = fit_snr_model(list(zip(ps, snr_sq)))
        assert fit.a_prime == pytest.approx(a, abs=1e-9)
        assert fit.b_prime == pytest.approx(b, abs=1e-9)
        assert fit.c0 == pytest.approx(c, rel=1e-9)
        assert fit.c1 == pytest.approx(c, rel=1e-9)
        assert fit.delta == pytest.approx(0.0, abs=1e-12)

    def test_sin_perturbation_delta(self):
        ps = np.linspace(0.05, 0.95, 101)
        base = 0.8 * ps**1.3 * (1 - ps) ** 0.7
        pert = base * np.exp(0.2 * np.sin(2 * np.pi * ps))
        fit = fit_snr_model(list(zip(ps, pert)))
        assert abs(fit.delta - 0.2) <= 0.05

    def test_reconstruction_round_trip(self):
        # Stored intercept and remainders must reproduce the inputs exactly.
        rng = np.random.default_rng(2)
        ps = np.linspace(0.1, 0.9, 12)
        snr_sq = 0.5 * ps**0.9 * (1 - ps) ** 1.1 * np.exp(rng.normal(0, 0.1, ps.size))
        fit = fit_snr_model(list(zip(ps, snr_sq)))
        recon = [
            math.exp(
                fit.a_prime * math.log(p)
                + fit.b_prime * math.log1p(-p)
                + fit.intercept
                + r
            )
            for p, r in zip(fit.ps, fit.remainders)
        ]
        assert np.allclose(recon, snr_sq, rtol=1e-10)

    def test_band_constants_bracket_the_data(self):
        rng = np.random.default_rng(8)
        ps = np.linspace(0.1, 0.9, 25)
        snr_sq = 0.6 * ps**1.0 * (1 - ps) ** 1.0 * np.exp(rng.normal(0, 0.2, ps.size))
        fit = fit_snr_model(list(zip(ps, snr_sq)))
        # Half-medians sit within delta of the global median, so every point
        # lies within e^{2 delta} of each boundary-constant model.
        for p, s in zip(ps, snr_sq):
            model_lo = fit.c0 * p**fit.a_prime * (1 - p) ** fit.b_prime
            assert abs(math.log(s / model_lo)) <= 2.0 * fit.delta + 1e-9

    def test_requires_four_interior_points_spanning_halves(self):
        with pytest.raises(InsufficientDataError):
            fit_snr_model([(0.2, 1.0), (0.4, 1.0), (0.6, 1.0)])
        with pytest.raises(DomainError):
            fit_snr_model([(0.0, 1.0), (0.4, 1.0), (0.6, 1.0), (0.8, 1.0)])
        with pytest.raises(DomainError):
            fit_snr_model([(0.2, -1.0), (0.4, 1.0), (0.6, 1.0), (0.8, 1.0)])
        # All points on one side of 1/2 cannot pin down both exponents.
        with pytest.raises(FitError):
            fit_snr_model([(0.1, 1.0), (0.2, 1.1), (0.3, 1.2), (0.4, 1.3)])

    def test_duplicate_p_rank_deficient(self):
        with pytest.raises(FitError):
            fit_snr_model([(0.3, 1.0), (0.3, 1.0), (0.7, 1.2), (0.7, 1.2)])

    def test_boundary_constant_that_overflows_is_named(self):
        # An exact power law whose intercept is 750 > log(max double).
        ps = [0.05, 0.25, 0.45, 0.55, 0.75, 0.95]
        points = [(p, math.exp(750.0 + 60.0 * math.log(p * (1.0 - p)))) for p in ps]
        with pytest.raises(FitError, match="boundary constant c0 = e\\^749.99"):
            fit_snr_model(points)
