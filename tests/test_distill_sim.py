import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zpdistill import distill_sim, fileio, variance
from zpdistill.distill_sim import (
    SimConfig,
    build_world,
    measure_snr,
    retention,
    train,
)
from zpdistill.distill_sim import (
    _categorical,
    _draws,
    _sampled_reverse_diffs,
    _sweep,
    _weights,
)
from zpdistill.errors import ConfigError, DomainError, NumericError
from zpdistill.fileio import fmt, write_metrics
from zpdistill.kernel import unit_mean
from zpdistill.numerics import label_tokens, log_softmax, stream
from zpdistill.snr_profile import bell_shape_score, compute_snr_bins
from zpdistill.variance import smoothness_constant

from sim_oracles import (
    diffs, metrics_diff, observed_train, outcomes, single_kl, student, student_logits,
)

_SMALL = SimConfig(
    num_problems=12,
    num_anchors=4,
    feature_dim=5,
    vocab_size=6,
    rollout_count=4,
    steps=6,
    eval_interval=3,
    seed=11,
)


def _small(**kwargs) -> SimConfig:
    return dataclasses.replace(_SMALL, **kwargs)


class TestSimConfig:
    def test_defaults_valid(self):
        SimConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_problems": 0},
            {"steps": 0},
            {"vocab_size": 1},
            {"rollout_count": 0},
            {"difficulty_spread": -1.0},
            {"teacher_sharpness": 0.0},
            {"rollout_temperature": 0.0},
            {"scheme": "softmax"},
            {"scheme": "beta", "alpha": -0.5},
            {"scheme": "hard", "filter_lo": 0.9, "filter_hi": 0.2},
            {"weight_floor": -0.1},
            {"loss_direction": "both"},
            {"stage1_fraction": 0.0},
            {"stage1_fraction": 1.0},
            {"learning_rate": -1.0},
            {"batch_size": 0},
            {"batch_size": 10**6},
            {"reverse_kl_samples": -1},
            {"recompute_interval": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"eval_interval": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            dataclasses.replace(SimConfig(), **kwargs)

    @pytest.mark.parametrize(
        "key, value, scheme",
        [
            ("seed", True, "beta"),
            ("steps", True, "beta"),
            ("num_problems", False, "beta"),
            ("batch_size", True, "beta"),
            ("recompute_interval", True, "beta"),
            ("reverse_kl_samples", 1.5, "beta"),
            ("steps", 3.0, "beta"),
            ("alpha", True, "beta"),
            ("weight_floor", float("nan"), "beta"),
            ("alpha", float("nan"), "hard"),
            ("beta", float("inf"), "unweighted"),
            ("filter_lo", float("nan"), "beta"),
            ("filter_hi", float("inf"), "unweighted"),
            ("teacher_sharpness", float("inf"), "beta"),
            ("difficulty_spread", float("nan"), "beta"),
            ("learning_rate", float("-inf"), "beta"),
            ("stage1_fraction", float("nan"), "beta"),
            ("rollout_temperature", float("inf"), "beta"),
            ("scheme", 1, "beta"),
        ],
    )
    def test_rejects_wrong_type_or_nonfinite_naming_key(self, key, value, scheme):
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(SimConfig(), **{"scheme": scheme, key: value})


class TestBuildWorld:
    def test_deterministic_per_seed(self):
        w1 = build_world(_SMALL)
        w2 = build_world(_SMALL)
        assert np.array_equal(w1.features, w2.features)
        assert np.array_equal(w1.teacher_log_probs, w2.teacher_log_probs)
        assert np.array_equal(w1.theta, w2.theta)
        assert np.array_equal(w1.anchor_log_targets, w2.anchor_log_targets)
        w3 = build_world(_small(seed=12))
        assert not np.array_equal(w1.features, w3.features)

    def test_feature_rows_are_unit(self):
        w = build_world(_SMALL)
        assert np.allclose(np.linalg.norm(w.features, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(w.anchor_features, axis=1), 1.0, atol=1e-12)

    def test_shapes(self):
        w = build_world(_SMALL)
        assert w.features.shape == (12, 5)
        assert w.teacher_log_probs.shape == (12, 6)
        assert w.theta.shape == (5, 6)
        assert w.anchor_features.shape == (4, 5)
        assert w.anchor_log_targets.shape == (4, 6)
        assert len(w.problem_ids) == 12
        assert np.array_equal(w.problem_tokens, label_tokens(w.problem_ids))

    def test_anchor_targets_are_initial_student(self):
        # Anchors store the untrained student's own predictions, so the
        # forgetting measure starts at exactly zero.
        w = build_world(_SMALL)
        assert np.allclose(np.exp(w.anchor_log_targets).sum(axis=1), 1.0, atol=1e-12)
        assert retention(w) == pytest.approx(0.0, abs=1e-12)


def _successes(world, k, purpose):
    """(N,) successes of k rollouts per problem from one sweep of train's."""
    return _sweep(world, k, (purpose,))[0][purpose]


class TestRollouts:
    def test_deterministic_at_fixed_step(self):
        w = build_world(_SMALL)
        r1 = _successes(w, 4, "rollout")
        r2 = _successes(w, 4, "rollout")
        assert np.array_equal(r1, r2)
        assert np.array_equal(
            outcomes(w, 4, "rollout"), outcomes(w, 4, "rollout")
        )

    def test_step_changes_stream(self):
        w1 = build_world(_SMALL)
        w2 = build_world(_SMALL)
        w2.step = 3
        o1 = outcomes(w1, 16, "rollout")
        o2 = outcomes(w2, 16, "rollout")
        assert not np.array_equal(o1, o2)

    def test_matches_per_problem_stream_oracle(self):
        # The batched sampler must draw what one stream() per problem draws,
        # outcome by outcome; a sweep counts that (k, N) matrix.
        cfg = _small(num_problems=30, rollout_temperature=1.7)
        w = build_world(cfg)
        w.step = 5
        k = 7
        probs = np.exp(log_softmax(student_logits(w) / 1.7, axis=1))
        want = []
        for i, pid in enumerate(w.problem_ids):
            u = stream(cfg.seed, "rollout", 5, pid).random(k)
            cdf = np.cumsum(probs[i])
            tokens = np.minimum(np.searchsorted(cdf, u, side="right"), cfg.vocab_size - 1)
            want.append([bool(t == w.answers[i]) for t in tokens])
        assert outcomes(w, k, "rollout").T.tolist() == want
        assert _successes(w, k, "rollout").tolist() == [sum(row) for row in want]


def _searchsorted_oracle(probs, u):
    """(k, N) per-problem inverse-cdf sampling of (N, V) probs at the (k, N)
    uniforms u, as the simulator drew tokens per problem; _categorical
    takes the (V, N) transpose of probs."""
    v = probs.shape[1]
    return np.array(
        [np.minimum(np.searchsorted(np.cumsum(p), col, side="right"), v - 1)
         for p, col in zip(probs, u.T)]
    ).reshape(u.T.shape).T


class TestCategorical:
    def test_uniform_on_a_cdf_entry_moves_past_it(self):
        probs = np.array([[0.25, 0.25, 0.5], [0.5, 0.5, 0.0]])
        u = np.array([[0.0, 0.25, 0.5, 0.75], [0.5, 0.0, 0.999, 0.25]]).T
        got = _categorical(probs.T, u)
        assert np.array_equal(got.T, [[0, 1, 2, 2], [1, 0, 1, 0]])
        assert np.array_equal(got, _searchsorted_oracle(probs, u))

    def test_cdf_ending_below_one_is_clamped(self):
        probs = np.array([[0.125, 0.25, 0.375]])
        u = np.array([[0.0625, 0.375, 0.75, 0.8, 0.99]]).T
        got = _categorical(probs.T, u)
        assert np.array_equal(got.T, [[0, 2, 2, 2, 2]])
        assert np.array_equal(got, _searchsorted_oracle(probs, u))

    @pytest.mark.parametrize("v", [255, 256, 300])
    def test_counts_past_255_tokens(self, v):
        # The count's integer type widens with the vocabulary.
        probs = np.full((2, v), 1.0 / v)
        u = np.array([[0.9999, 0.5], [0.001, 0.9999]])
        got = _categorical(probs.T, u)
        assert np.array_equal(got, _searchsorted_oracle(probs, u))
        assert got[0, 0] == v - 1

    @given(
        rows=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6), min_size=1, max_size=5
        ),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_matches_searchsorted_oracle(self, rows, picks, data):
        v = min(len(r) for r in rows)
        probs = np.array([r[:v] for r in rows])
        if data.draw(st.booleans()):
            totals = probs.sum(axis=1, keepdims=True)
            probs = probs / np.where(totals > 0.0, totals, 1.0)
        cdf = np.cumsum(probs, axis=1)
        # Mix exact cdf entries with arbitrary uniforms in [0, 1).
        u = np.array(
            [[cdf[i, j % v] if j % 2 else (j % 997) / 997.0 for i in range(len(probs))]
             for j in picks]
        )
        assert np.array_equal(_categorical(probs.T, u), _searchsorted_oracle(probs, u))


def _fd_grad(world, idx, direction, entries, h=1e-6):
    """Central finite differences of the per-problem loss in theta entries."""
    out = []
    for f, v in entries:
        orig = world.theta[f, v]
        world.theta[f, v] = orig + h
        hi, _ = single_kl(world, idx, direction)
        world.theta[f, v] = orig - h
        lo, _ = single_kl(world, idx, direction)
        world.theta[f, v] = orig
        out.append((hi - lo) / (2.0 * h))
    return np.array(out)


class TestKlGradients:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_matches_central_differences(self, direction):
        w = build_world(_SMALL)
        rng = np.random.default_rng(3)
        for idx in (0, 5, 11):
            _, grad = single_kl(w, idx, direction)
            entries = [
                (int(rng.integers(0, 5)), int(rng.integers(0, 6))) for _ in range(6)
            ]
            fd = _fd_grad(w, idx, direction, entries)
            got = np.array([grad[f, v] for f, v in entries])
            assert np.allclose(got, fd, rtol=1e-5, atol=1e-8)

    def test_forward_loss_nonnegative(self):
        w = build_world(_SMALL)
        for idx in range(12):
            loss, _ = single_kl(w, idx, "forward")
            assert loss >= 0.0
            loss_r, _ = single_kl(w, idx, "reverse")
            assert loss_r >= 0.0

    def test_sampled_reverse_diffs_unbiased(self):
        # The score-function rows must approach the exact reverse rows.
        cfg = _small(vocab_size=4, num_problems=4)
        w = build_world(cfg)
        exact = diffs(w, "reverse")
        u = next(_draws(cfg.seed, [("revkl", 0, w.problem_tokens)], 60000))
        approx = _sampled_reverse_diffs(*student(w), u, np.empty_like(exact))
        assert np.allclose(approx, exact, atol=0.02)

    def test_sampled_reverse_diffs_match_per_problem_oracle(self):
        # Bit-exact against one stream() and one sequential sum per problem.
        cfg = _small(num_problems=25)
        w = build_world(cfg)
        w.theta = w.theta + 0.3 * np.sin(np.arange(w.theta.size)).reshape(w.theta.shape)
        w.step = 4
        log_ps = log_softmax(student_logits(w), axis=1)
        ps = np.exp(log_ps)
        ratio = log_ps - w.teacher_log_probs
        want = np.zeros_like(ps)
        for i, pid in enumerate(w.problem_ids):
            u = stream(cfg.seed, "revkl", 4, pid).random(13)
            cdf = np.cumsum(ps[i])
            tokens = np.minimum(np.searchsorted(cdf, u, side="right"), cfg.vocab_size - 1)
            acc = np.zeros(ps.shape[1])
            for t in tokens:
                one_hot = np.zeros(ps.shape[1])
                one_hot[t] = 1.0
                acc += ratio[i, t] * (one_hot - ps[i])
            want[i] = acc / 13
        u = next(_draws(cfg.seed, [("revkl", 4, w.problem_tokens)], 13))
        got = _sampled_reverse_diffs(*student(w), u, np.empty_like(want.T))
        assert np.array_equal(got, want.T)


# Arms that differ from _SHARED only in keys outside [world].
_SHARED = SimConfig(num_problems=60, num_anchors=8, feature_dim=6, vocab_size=7, steps=21)
_ARMS = {
    "hard": dict(scheme="hard"),
    "unweighted": dict(scheme="unweighted"),
    "alpha2_beta05": dict(alpha=2.0, beta=0.5),
    "sampled_reverse_batch50": dict(
        loss_direction="reverse", reverse_kl_samples=16, batch_size=50),
    "two_stage_recompute7": dict(loss_direction="two_stage", recompute_interval=7),
    "temperature07_lr2": dict(rollout_temperature=0.7, learning_rate=2.0),
    "exact_reverse": dict(loss_direction="reverse"),
    "k4_eval7": dict(rollout_count=4, eval_interval=7),
}


class TestTrain:
    def test_zero_learning_rate_is_control(self):
        cfg = _small(learning_rate=0.0)
        w = build_world(cfg)
        theta0 = w.theta.copy()
        metrics = train(w)
        assert np.array_equal(w.theta, theta0)
        assert w.step == cfg.steps
        losses = set(metrics.loss.tolist())
        assert len(losses) == 1
        assert (metrics.retention_kl == 0.0).all()

    def test_one_world_serves_every_arm(self):
        # build_world leaves every array but theta read-only and train rebinds
        # theta, so one world per (seed, [world] keys) serves every arm that
        # shares them: each arm runs as it would on a world of its own.
        shared = build_world(_SHARED)
        theta0 = shared.theta.copy()
        for name, keys in _ARMS.items():
            arm = dataclasses.replace(_SHARED, **keys)
            assert all(getattr(arm, key) == getattr(_SHARED, key)
                       for key in fileio._SECTIONS["world"]), name
            runs = []
            for world in (dataclasses.replace(shared, config=arm), build_world(arm)):
                metrics = train(world)
                buf = io.StringIO()
                write_metrics(buf, metrics)
                runs.append((buf.getvalue(), world.theta.tobytes(), metrics.recompute_steps))
            assert runs[0] == runs[1], name
            assert shared.theta.tobytes() == theta0.tobytes() and shared.step == 0, name

    def test_checkpoint_schedule_and_stage_labels(self):
        cfg = _small(steps=7, eval_interval=3)
        metrics = train(build_world(cfg))
        assert metrics.step.tolist() == [0, 3, 6, 7]
        assert metrics.stage == ("forward",) * 4

    def test_train_acc_equals_mean_p(self):
        # SimMetrics holds mean_p once; the file prints it in both columns.
        metrics = train(build_world(_SMALL))
        buf = io.StringIO()
        write_metrics(buf, metrics)
        written = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(written) == len(metrics.step)
        for i, line in enumerate(written):
            assert line["train_acc"] == line["mean_p"] == fmt(metrics.mean_p[i])
            assert metrics.fractions[i].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("keys", [
        dict(steps=7, eval_interval=3),
        dict(steps=6, eval_interval=6),
        dict(loss_direction="two_stage", steps=10, eval_interval=4, recompute_interval=3),
        dict(steps=5, eval_interval=2, batch_size=4, scheme="hard"),
    ])
    def test_columns_hold_one_entry_per_checkpoint(self, keys):
        cfg = _small(**keys)
        metrics = train(build_world(cfg))
        grid = sorted({*range(0, cfg.steps, cfg.eval_interval), cfg.steps})
        assert metrics.step.tolist() == grid
        assert len(metrics.stage) == len(grid)
        for column in (metrics.loss, metrics.retention_kl, metrics.mean_p):
            assert column.shape == (len(grid),)
        assert metrics.fractions.shape == (len(grid), 3)
        assert np.all(np.abs(metrics.fractions.sum(axis=1) - 1.0) <= 1e-12)

    def test_single_recompute_by_default(self):
        metrics = train(build_world(_SMALL))
        assert metrics.recompute_steps == (0,)
        assert metrics.stage_switch_step is None

    def test_recompute_interval_schedule(self):
        cfg = _small(steps=9, recompute_interval=3, eval_interval=9)
        metrics = train(build_world(cfg))
        assert metrics.recompute_steps == (0, 3, 6)

    def test_hard_scheme_matches_manual_indicator_update(self):
        # White-box: one full-batch step under the hard filter must equal
        # the hand-built indicator-weight update on an identical world.
        cfg = _small(scheme="hard", steps=1, eval_interval=1, learning_rate=2.0)
        w_train = build_world(cfg)
        metrics = train(w_train)
        assert metrics.recompute_steps == (0,)

        w_manual = build_world(cfg)
        p_hat = outcomes(w_manual, cfg.rollout_count, "rollout").mean(axis=0)
        raw = [1.0 if cfg.filter_lo <= p <= cfg.filter_hi else 0.0 for p in p_hat]
        weights = unit_mean(np.array(raw))
        rows = diffs(w_manual, "forward").T
        grad = w_manual.features.T @ ((weights[:, None] / cfg.num_problems) * rows)
        expected = w_manual.theta - cfg.learning_rate * grad
        assert np.array_equal(w_train.theta, expected)

    def test_minibatch_replay_is_bitwise(self):
        cfg = _small(batch_size=5, steps=8)
        w1 = build_world(cfg)
        m1 = train(w1)
        w2 = build_world(cfg)
        m2 = train(w2)
        assert np.array_equal(w1.theta, w2.theta)
        assert not metrics_diff(m1, m2)

    def test_minibatch_differs_from_full_batch(self):
        full = _small(steps=4)
        mini = _small(steps=4, batch_size=3)
        w_full = build_world(full)
        train(w_full)
        w_mini = build_world(mini)
        train(w_mini)
        assert not np.array_equal(w_full.theta, w_mini.theta)

    def test_two_stage_switch(self):
        cfg = _small(loss_direction="two_stage", steps=10, eval_interval=5)
        metrics = train(build_world(cfg))
        assert metrics.stage_switch_step == 5
        assert metrics.recompute_steps == (0, 5)
        assert metrics.stage == ("forward", "reverse", "reverse")

    def test_two_stage_needs_two_steps(self):
        # With one step there is no step at which to switch stages.
        with pytest.raises(ConfigError, match="steps"):
            _small(loss_direction="two_stage", steps=1)
        metrics = train(build_world(_small(loss_direction="two_stage", steps=2)))
        assert metrics.stage_switch_step == 1
        assert metrics.stage == ("forward", "reverse")

    def test_two_stage_replay_bitwise(self):
        cfg = _small(loss_direction="two_stage", steps=10)
        w1 = build_world(cfg)
        m1 = train(w1)
        w2 = build_world(cfg)
        m2 = train(w2)
        assert np.array_equal(w1.theta, w2.theta)
        assert not metrics_diff(m1, m2)
        assert m1.recompute_steps == m2.recompute_steps

    def test_sampled_reverse_path_runs(self):
        cfg = _small(loss_direction="reverse", reverse_kl_samples=8, steps=3)
        w = build_world(cfg)
        metrics = train(w)
        assert w.step == 3
        assert metrics.stage == ("reverse",) * len(metrics.step)

    def test_config_comes_from_the_world(self):
        cfg = _small(steps=2, eval_interval=1)
        w = build_world(cfg)
        with pytest.raises(TypeError):
            train(w, _small(num_problems=5, rollout_count=2))
        assert w.step == 0
        assert train(w).step.tolist() == [0, 1, 2]

    def test_observer_sees_each_step_before_its_update(self):
        # Recomputes every 3 steps and at the two-stage switch: 0, 3, 4, 6.
        cfg = _small(loss_direction="two_stage", scheme="hard", recompute_interval=3, steps=8)
        world, unobserved = build_world(cfg), build_world(cfg)
        theta0 = world.theta.copy()
        calls = []

        def observe(w, direction, weights, counts):
            assert w is world
            rebuilt = None if counts is None else _weights(w, counts)
            calls.append((w.step, direction, weights, counts, rebuilt, w.theta.copy()))

        metrics = train(world, observe=observe)
        assert [call[0] for call in calls] == list(range(cfg.steps + 1))
        assert metrics.recompute_steps == (0, 3, 4, 6) and metrics.stage_switch_step == 4
        assert tuple(call[0] for call in calls if call[3] is not None) == metrics.recompute_steps
        previous = None
        for step, direction, weights, counts, rebuilt, _ in calls:
            assert direction == ("forward" if step < 4 else "reverse")
            if counts is None:
                assert weights is previous
            else:
                assert weights is not previous
                assert counts.shape == (cfg.num_problems,)
                assert np.array_equal(rebuilt, weights)
            previous = weights
        # Each call comes before its step's update, the last after the last one.
        assert np.array_equal(calls[0][-1], theta0)
        assert np.array_equal(calls[-1][-1], world.theta)
        # Observing changes nothing.
        assert not metrics_diff(train(unobserved), metrics)
        assert np.array_equal(unobserved.theta, world.theta)

    def test_an_observer_cannot_change_the_world(self):
        world = build_world(_small(steps=2))
        fixed = (world.problem_tokens, world.features, world.answers,
                 world.teacher_log_probs, world.teacher_log_probs.T, world.anchor_features,
                 world.anchor_log_targets)
        assert not any(a.flags.writeable for a in fixed)
        assert world.theta.flags.writeable

        def observe(w, direction, weights, counts):
            w.features[0, 0] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            train(world, observe=observe)

    def test_without_an_observer_no_smoothness_constant_is_computed(self, monkeypatch):
        def fail(*args):
            raise AssertionError("smoothness_constant called")

        monkeypatch.setattr(variance, "smoothness_constant", fail)
        monkeypatch.setattr(distill_sim, "smoothness_constant", fail, raising=False)
        metrics = train(build_world(_small(recompute_interval=2)))
        assert metrics.recompute_steps == (0, 2, 4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_theta_raises_numeric_error_naming_step(self):
        w = build_world(_SMALL)
        w.theta[1, 2] = np.nan
        w.step = 5
        with pytest.raises(NumericError, match="checkpoint loss is nan at step 5"):
            train(w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_update_raises_numeric_error_naming_step(self):
        # The step-0 checkpoint is finite; the first update overflows theta.
        w = build_world(_small(scheme="unweighted", learning_rate=1e300))
        w.features = w.features * 1e150
        with pytest.raises(NumericError, match="after the update at step 0"):
            train(w)
        assert w.step == 0

    def test_retention_grows_after_training(self):
        cfg = _SMALL
        w = build_world(cfg)
        train(w)
        assert retention(w) > 0.0


class TestMeasureSnr:
    def test_one_record_per_problem(self):
        w = build_world(_SMALL)
        p, gradients = measure_snr(w, "forward")
        assert p.shape == (len(w.problem_ids),) == (12,)
        assert gradients.shape == (12, 5 * 6)
        assert np.all((p >= 0.0) & (p <= 1.0))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_rows_match_per_problem_outer_products(self, direction):
        w = build_world(_small(num_problems=30))
        w.theta = w.theta + 0.2 * np.cos(np.arange(w.theta.size)).reshape(w.theta.shape)
        w.step = 2
        p, gradients = measure_snr(w, direction)
        columns = diffs(w, direction)
        counts = outcomes(w, _SMALL.rollout_count, "snr").sum(axis=0)
        for i in range(30):
            assert np.array_equal(
                gradients[i], np.outer(w.features[i], columns[:, i]).ravel()
            )
            assert p[i] == int(counts[i]) / 4

    def test_rejects_two_stage_label(self):
        with pytest.raises(DomainError):
            measure_snr(build_world(_SMALL), "two_stage")


class TestGoldenStepZero:
    def test_frozen_initial_checkpoint(self):
        # Regression pin for the committed default run; values depend only
        # on the deterministic seed streams, not on training.
        cfg = dataclasses.replace(SimConfig(), steps=1, eval_interval=1)
        world = build_world(cfg)
        metrics = observed_train(world, (0,))[0]
        assert metrics.loss[0] == pytest.approx(1.039541377761623, rel=1e-9)
        assert metrics.mean_p[0] == pytest.approx(0.339375, abs=1e-12)
        assert metrics.retention_kl[0] == 0.0
        assert tuple(metrics.fractions[0]) == (
            pytest.approx(0.5),
            pytest.approx(0.355),
            pytest.approx(0.145),
        )

    def test_step_size_times_smoothness_at_recompute(self):
        # L of the step-0 weights: golden's eta * L sits well below the
        # divergence line eta * L = 2.
        cfg = dataclasses.replace(SimConfig(), steps=1, eval_interval=1)
        world = build_world(cfg)
        weights = _weights(world, outcomes(world, cfg.rollout_count, "rollout").sum(axis=0))
        want = smoothness_constant(world.features, weights)
        assert observed_train(world)[2] == (want,)
        assert cfg.learning_rate * want == pytest.approx(0.321, abs=1e-3)

    def test_frozen_initial_bell_ratio(self):
        cfg = dataclasses.replace(SimConfig(), steps=1, eval_interval=1)
        world = build_world(cfg)
        dumps = observed_train(world, (0,))[1]
        profile = compute_snr_bins(dumps[0], num_bins=10)
        is_bell, ratio = bell_shape_score(profile)
        assert is_bell
        assert ratio == pytest.approx(1.3680438694957637, rel=1e-6)
