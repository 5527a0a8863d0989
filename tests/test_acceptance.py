"""End-to-end acceptance checks, one reported line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Each check enforces its stated numeric tolerance and runtime budget; the
directional simulator checks (8-11) run on the committed golden config.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate

from zpdistill.distill_sim import (
    SimConfig,
    build_world,
    train,
)
from zpdistill.errors import DomainError
from zpdistill.kernel import ZpdMoments, at_flat_boundary, select_exponents
from zpdistill.robustness import fit_snr_model, robustness_rows
from zpdistill.snr_profile import (
    GradientTable,
    bell_shape_score,
    compute_snr_bins,
    normalize_profile,
)
from zpdistill.variance import (
    VarianceSpec,
    variance_ratio_beta,
    variance_ratio_empirical,
)

from sim_oracles import metrics_diff, observed_train, single_kl

_GOLDEN_DELTAS = (0.1, 0.3, 0.5, math.log(2.0))
_GOLDEN_EFFICIENCIES = (0.990, 0.915, 0.786, 0.640)

_golden_cache: dict[str, tuple] = {}


def _golden(scheme: str):
    """Train the golden config once per scheme and memoize its SNR dumps
    (steps 0 and 20, beta only) and metrics."""
    if scheme not in _golden_cache:
        cfg = SimConfig()
        if scheme != "beta":
            cfg = dataclasses.replace(cfg, scheme=scheme)
        metrics, dumps, _ = observed_train(
            build_world(cfg), (0, 20) if scheme == "beta" else ())
        _golden_cache[scheme] = (dumps, metrics)
    return _golden_cache[scheme]


def _report(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] AC{n} {label}: {detail}")
    assert ok, f"AC{n} {label}: {detail}"


def test_ac01_robustness_table():
    t0 = time.perf_counter()
    rows = robustness_rows(_GOLDEN_DELTAS)
    errs = [
        abs(row[4] - want) for row, want in zip(rows, _GOLDEN_EFFICIENCIES)
    ]
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 5e-4 and elapsed < 1.0
    _report(
        1,
        "robustness table",
        ok,
        f"max deviation {max(errs):.2e} (tol 5e-4), {elapsed:.3f}s",
    )


def _worst_efficiency(c, delta):
    """Oracle: min of the descent efficiency 2 rho - rho^2 over rho = c e^{+-delta}."""
    lo = c * math.exp(-delta)
    hi = c * math.exp(delta)
    return np.minimum(2 * lo - lo * lo, 2 * hi - hi * hi)


def test_ac02_minimax_equalizer():
    # The robustness table's sech column must be the minimax scale and its
    # sech^2 column that scale's worst-case efficiency.
    t0 = time.perf_counter()
    worst_eq_err = 0.0
    worst_excess = -math.inf
    cs = np.arange(1e-4, 3.0 + 1e-12, 1e-4)
    for delta, _, _, c_star, efficiency in robustness_rows(_GOLDEN_DELTAS):
        eq_err = abs(float(_worst_efficiency(c_star, delta)) - efficiency)
        worst_eq_err = max(worst_eq_err, eq_err)
        worst_excess = max(
            worst_excess, float(_worst_efficiency(cs, delta).max()) - efficiency
        )
    elapsed = time.perf_counter() - t0
    ok = worst_eq_err <= 1e-12 and worst_excess <= 1e-12 and elapsed < 5.0
    _report(
        2,
        "minimax equalizer",
        ok,
        f"equalizer err {worst_eq_err:.2e} (tol 1e-12), best grid excess "
        f"{worst_excess:.2e}, {elapsed:.3f}s",
    )


def _quad_ratio(spec: VarianceSpec) -> float:
    def mom(e1, e2):
        val, _ = integrate.quad(
            lambda p: 1.0, 0.0, 1.0, weight="alg", wvar=(e1, e2)
        )
        return val

    num = mom(2 * spec.alpha + spec.gamma1, 2 * spec.beta + spec.gamma2)
    den_w = mom(spec.alpha, spec.beta)
    den_s = mom(spec.gamma1, spec.gamma2)
    return num / (den_w * den_w * den_s)


def test_ac03_variance_ratio_closed_form():
    t0 = time.perf_counter()
    r_ref = variance_ratio_beta(VarianceSpec(1.0, 1.0, -0.5, -0.5))
    in_band = 0.839 <= r_ref <= 0.849

    # Crossover of the symmetric family R(1,1,g,g) = 1.
    def f(g):
        return variance_ratio_beta(VarianceSpec(1.0, 1.0, g, g)) - 1.0

    lo, hi = -0.499, -1e-6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    crossover = 0.5 * (lo + hi)
    crossover_ok = -0.5 < crossover < 0.0

    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    while checked < 20:
        alpha, beta = rng.uniform(0.0, 3.0, 2)
        gamma1, gamma2 = rng.uniform(-0.8, 2.0, 2)
        try:
            spec = VarianceSpec(alpha, beta, gamma1, gamma2)
        except DomainError:
            continue
        rel = abs(variance_ratio_beta(spec) - _quad_ratio(spec)) / _quad_ratio(spec)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = in_band and crossover_ok and worst <= 1e-6 and elapsed < 10.0
    _report(
        3,
        "variance-ratio closed form",
        ok,
        f"R(1,1,-0.5,-0.5)={r_ref:.6f} in [0.839,0.849], crossover gamma="
        f"{crossover:.4f} in (-0.5,0), quad oracle max rel err {worst:.2e} "
        f"(tol 1e-6) on 20 specs, {elapsed:.3f}s",
    )


def _kernel_moments(alpha: float, beta: float) -> tuple[float, float]:
    # Normalized kernel = Beta(alpha+1, beta+1) density.
    mean = (alpha + 1.0) / (alpha + beta + 2.0)
    var = mean * (1.0 - mean) / (alpha + beta + 3.0)
    return mean, var


def test_ac04_moment_matching():
    t0 = time.perf_counter()
    alpha, beta = select_exponents(
        ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=0.05, count=10)
    )
    exact_err = max(abs(alpha - 1.0), abs(beta - 1.0))

    flat = ZpdMoments(epsilon=0.125, mean_p=0.5, var_p=1.0 / 12.0, count=10)
    flat_ok = at_flat_boundary(flat) and select_exponents(flat) == (0.0, 0.0)

    rng = np.random.default_rng(23)
    worst_rt = 0.0
    for _ in range(100):
        mean_p = rng.uniform(0.15, 0.85)
        bound = mean_p * (1.0 - mean_p) / 3.0
        var_p = rng.uniform(0.05, 0.95) * bound
        m, v = _kernel_moments(*select_exponents(
            ZpdMoments(epsilon=0.1, mean_p=mean_p, var_p=var_p, count=10)
        ))
        worst_rt = max(worst_rt, abs(m - mean_p), abs(v - var_p))
    elapsed = time.perf_counter() - t0
    ok = exact_err <= 1e-10 and flat_ok and worst_rt <= 1e-10 and elapsed < 1.0
    _report(
        4,
        "moment matching",
        ok,
        f"(0.5,1/20)->(1,1) err {exact_err:.2e}, flat boundary flagged "
        f"{flat_ok}, round-trip max err {worst_rt:.2e} (tol 1e-10) on 100 "
        f"pairs, {elapsed:.3f}s",
    )


def test_ac05_theory_normalization():
    t0 = time.perf_counter()
    # Three populated bins with mean_p exactly 0.1, 0.2, 0.5; the 0.5 bin
    # carries the theoretical maximum sqrt(0.25) = 0.5.
    table = GradientTable(
        ("a", "b", "c", "d", "e", "f"),
        [0.1, 0.1, 0.2, 0.2, 0.5, 0.5],
        [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0], [3.0, 1.0], [3.0, -1.0]],
    )
    profile = normalize_profile(compute_snr_bins(table, num_bins=10))
    by_lo = dict(zip(np.round(profile.edges[:-1], 3).tolist(), profile.theory_norm))
    err_01 = abs(by_lo[0.1] - 0.6)
    err_02 = abs(by_lo[0.2] - 0.8)
    err_05 = abs(by_lo[0.5] - 1.0)
    elapsed = time.perf_counter() - t0
    worst = max(err_01, err_02, err_05)
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        5,
        "SNR theory normalization",
        ok,
        f"theory_norm(0.1)=0.6 err {err_01:.2e}, theory_norm(0.2)=0.8 err "
        f"{err_02:.2e} (tol 1e-12), {elapsed:.3f}s",
    )


def test_ac06_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for _ in range(10):
        vocab = int(rng.integers(4, 33))
        feat = int(rng.integers(3, 17))
        n = int(rng.integers(4, 10))
        cfg = SimConfig(
            num_problems=n,
            num_anchors=2,
            feature_dim=feat,
            vocab_size=vocab,
            rollout_count=4,
            steps=1,
            eval_interval=1,
            seed=int(rng.integers(0, 10000)),
            difficulty_spread=float(rng.uniform(2.0, 8.0)),
            teacher_sharpness=float(rng.uniform(4.0, 10.0)),
        )
        world = build_world(cfg)
        for _ in range(10):
            idx = int(rng.integers(0, n))
            direction = "forward" if rng.random() < 0.5 else "reverse"
            _, grad = single_kl(world, idx, direction)
            h = 1e-6
            fd = np.zeros_like(grad)
            for fi in range(feat):
                for vi in range(vocab):
                    orig = world.theta[fi, vi]
                    world.theta[fi, vi] = orig + h
                    up, _ = single_kl(world, idx, direction)
                    world.theta[fi, vi] = orig - h
                    down, _ = single_kl(world, idx, direction)
                    world.theta[fi, vi] = orig
                    fd[fi, vi] = (up - down) / (2.0 * h)
            rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and worst <= 1e-5 and elapsed < 30.0
    _report(
        6,
        "KL gradient correctness",
        ok,
        f"max FD relative error {worst:.2e} (tol 1e-5) on {checked} "
        f"instances, {elapsed:.3f}s",
    )


def test_ac07_empirical_variance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        m, dim = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        raw = rng.uniform(0.05, 4.0, m)
        weights = raw / raw.mean()
        mus = rng.normal(0.0, 1.0, (m, dim))
        ds = rng.uniform(0.1, 1.5, (m, dim))
        s2 = np.sum(mus * mus, axis=1) + np.sum(ds * ds, axis=1)
        got = variance_ratio_empirical(weights, s2, mus).ratio
        # Brute force over the 2m equally likely (record, sign) outcomes.
        w = np.concatenate([weights, weights])
        g = np.concatenate([mus + ds, mus - ds], axis=0)
        wg = w[:, None] * g

        def tr_cov(x):
            return float(np.sum(np.mean(x * x, axis=0) - np.mean(x, axis=0) ** 2))

        want = tr_cov(wg) / tr_cov(g)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        7,
        "empirical variance oracle",
        ok,
        f"max |closed - enumerated| {worst:.2e} (tol 1e-10) on 50 instances, "
        f"{elapsed:.3f}s",
    )


def test_ac08_bell_curve_on_golden_run():
    t0 = time.perf_counter()
    dumps, _ = _golden("beta")
    ratios = {}
    bells = {}
    for step in (0, 20):
        profile = compute_snr_bins(dumps[step], num_bins=10)
        is_bell, ratio = bell_shape_score(profile)
        bells[step] = is_bell
        ratios[step] = ratio
    elapsed = time.perf_counter() - t0
    ok = (
        bells[0]
        and bells[20]
        and ratios[0] > 1.2
        and ratios[20] > 1.2
        and elapsed < 120.0
    )
    _report(
        8,
        "mechanistic bell curve",
        ok,
        f"mid/edge ratio step 0: {ratios[0]:.3f}, step 20: {ratios[20]:.3f} "
        f"(both > 1.2 required), {elapsed:.1f}s",
    )


def test_ac09_curriculum_migration():
    t0 = time.perf_counter()
    _, metrics = _golden("beta")
    mean_ps = metrics.mean_p.tolist()
    (_, med_0, high_0), (_, med_1, high_1) = metrics.fractions[[0, -1]].tolist()
    monotone = all(b > a for a, b in zip(mean_ps, mean_ps[1:]))
    high_up = high_1 > high_0
    med_down = med_1 < med_0
    elapsed = time.perf_counter() - t0
    ok = monotone and high_up and med_down and elapsed < 120.0
    _report(
        9,
        "curriculum migration",
        ok,
        f"mean_p {' -> '.join(f'{m:.3f}' for m in mean_ps)} monotone={monotone}, "
        f"high {high_0:.3f}->{high_1:.3f} up={high_up}, "
        f"med {med_0:.3f}->{med_1:.3f} down={med_down}, "
        f"{elapsed:.1f}s",
    )


def test_ac10_plasticity_stability_direction():
    t0 = time.perf_counter()
    results = {}
    for scheme in ("beta", "unweighted", "hard"):
        _, metrics = _golden(scheme)
        results[scheme] = (metrics.retention_kl[-1], metrics.mean_p[-1])
    ret_beta, mp_beta = results["beta"]
    ret_unw, mp_unw = results["unweighted"]
    ret_hard, _ = results["hard"]
    retention_ok = ret_beta <= ret_unw
    mean_p_ok = mp_beta >= mp_unw
    hard_between = ret_beta <= ret_hard <= ret_unw
    elapsed = time.perf_counter() - t0
    ok = retention_ok and mean_p_ok and hard_between and elapsed < 300.0
    _report(
        10,
        "plasticity-stability direction",
        ok,
        f"retention beta/hard/unweighted = {ret_beta:.4f}/{ret_hard:.4f}/"
        f"{ret_unw:.4f} (beta <= hard <= unweighted), final mean_p beta "
        f"{mp_beta:.4f} >= unweighted {mp_unw:.4f}, {elapsed:.1f}s",
    )


def test_ac11_two_stage_schedule():
    t0 = time.perf_counter()
    cfg = dataclasses.replace(SimConfig(), loss_direction="two_stage")
    w1 = build_world(cfg)
    m1 = train(w1)
    w2 = build_world(cfg)
    m2 = train(w2)

    expected_switch = round(cfg.stage1_fraction * cfg.steps)
    switch_ok = m1.stage_switch_step == expected_switch
    switch_recomputes = [s for s in m1.recompute_steps if s == expected_switch]
    recompute_ok = len(switch_recomputes) == 1 and m1.recompute_steps == (
        0,
        expected_switch,
    )
    replay_ok = (
        np.array_equal(w1.theta, w2.theta)
        and not metrics_diff(m1, m2)
        and m1.recompute_steps == m2.recompute_steps
    )
    stages = list(m1.stage)
    stage_ok = stages == ["forward", "forward", "reverse", "reverse"]

    # Directional note (logged, not gated): two-stage vs pure forward.
    _, fwd = _golden("beta")
    print(
        f"  note AC11: two-stage final mean_p {m1.mean_p[-1]:.4f} vs "
        f"forward {fwd.mean_p[-1]:.4f}, retention "
        f"{m1.retention_kl[-1]:.4f} vs {fwd.retention_kl[-1]:.4f}"
    )
    elapsed = time.perf_counter() - t0
    ok = switch_ok and recompute_ok and replay_ok and stage_ok and elapsed < 300.0
    _report(
        11,
        "two-stage schedule",
        ok,
        f"switch at {m1.stage_switch_step} (configured {expected_switch}), "
        f"recomputes {m1.recompute_steps}, stages {stages}, bitwise replay "
        f"{replay_ok}, {elapsed:.1f}s",
    )


def test_ac12_snr_fit_recovery():
    t0 = time.perf_counter()
    worst_exact = 0.0
    for a, b, c in ((1.3, 0.7, 0.8), (0.5, 2.0, 1.5), (2.2, 1.1, 0.3)):
        ps = np.linspace(0.05, 0.95, 41)
        snr_sq = c * ps**a * (1.0 - ps) ** b
        fit = fit_snr_model(ps, np.sqrt(snr_sq))
        worst_exact = max(worst_exact, abs(fit.a_prime - a), abs(fit.b_prime - b))

    ps = np.linspace(0.05, 0.95, 101)
    base = 0.8 * ps**1.3 * (1.0 - ps) ** 0.7
    pert = base * np.exp(0.2 * np.sin(2.0 * np.pi * ps))
    fit = fit_snr_model(ps, np.sqrt(pert))
    delta_err = abs(fit.delta - 0.2)
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-6 and delta_err <= 0.05 and elapsed < 1.0
    _report(
        12,
        "SNR fit recovery",
        ok,
        f"exact (a',b') max err {worst_exact:.2e} (tol 1e-6), perturbation "
        f"delta {fit.delta:.4f} within 0.05 of 0.2, {elapsed:.3f}s",
    )
