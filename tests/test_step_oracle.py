"""train against a copy of the per-step path it replaced, and its memory.

train computes each step's student log-probabilities once, into two
vocabulary-major (V, N) buffers reused across steps, and every consumer at
that step reads them. The functions prefixed `_old_` below are the earlier
path, kept as it was (less the two-stage branch for steps < 2, which
SimConfig now rejects): problem-major (N, V) arrays reduced along axis 1,
each consumer recomputed `log_softmax` on fresh arrays, and a minibatch
update computed gradient rows and reverse-KL draws for every problem before
keeping its batch rows. Outputs must match it bit for bit (np.array_equal,
not the 10 digits the CSVs print).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from zpdistill import distill_sim
from zpdistill.distill_sim import (
    CheckpointRow,
    SimConfig,
    SimMetrics,
    build_world,
    forward_kl,
    measure_snr,
    retention,
    reverse_kl,
    train,
)
from zpdistill.distill_sim import (
    _direction_at,
    _sampled_reverse_diffs,
    _step_probs,
    _weights,
)
from zpdistill.numerics import stream, stream_uniforms
from zpdistill.passrate import THREE_BIN_EDGES, histogram
from zpdistill.snr_profile import GradientTable


def _old_log_softmax(logits, axis=-1):
    z = np.asarray(logits, dtype=np.float64)
    zmax = np.max(z, axis=axis, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


def _old_student_logits(world):
    return world.features @ world.theta


def _old_teacher_log_probs(world):
    # build_world took the log-softmax of C-ordered (N, V) teacher logits.
    return _old_log_softmax(np.ascontiguousarray(world.teacher_logits), axis=1)


def _old_categorical(probs, u):
    cdf = np.cumsum(probs, axis=1)
    tokens = np.zeros(u.shape, dtype=np.intp)
    for column in cdf.T:
        tokens += column[:, None] <= u
    return np.minimum(tokens, probs.shape[1] - 1, out=tokens)


def _old_sample_pass_rates(world, k, purpose):
    logits = _old_student_logits(world) / world.config.rollout_temperature
    probs = np.exp(_old_log_softmax(logits, axis=1))
    u = stream_uniforms((world.config.seed, purpose, world.step), world.problem_ids, k)
    return _old_categorical(probs, u) == world.answers[:, None]


def _old_losses_and_diffs(world, direction):
    log_ps = _old_log_softmax(_old_student_logits(world), axis=1)
    ps = np.exp(log_ps)
    log_pt = _old_teacher_log_probs(world)
    if direction == "forward":
        pt = np.exp(log_pt)
        losses = np.sum(pt * (log_pt - log_ps), axis=1)
        diffs = ps - pt
    else:
        ratio = log_ps - log_pt
        losses = np.sum(ps * ratio, axis=1)
        diffs = ps * (ratio - losses[:, None])
    return losses, diffs


def _old_sampled_reverse_diffs(world, n_samples):
    log_ps = _old_log_softmax(_old_student_logits(world), axis=1)
    ps = np.exp(log_ps)
    ratio = log_ps - _old_teacher_log_probs(world)
    u = stream_uniforms(
        (world.config.seed, "revkl", world.step), world.problem_ids, n_samples
    )
    rows = np.arange(ps.shape[0])
    acc = np.zeros_like(ps)
    for tokens in _old_categorical(ps, u).T:
        one_hot = np.zeros_like(ps)
        one_hot[rows, tokens] = 1.0
        acc += ratio[rows, tokens, None] * (one_hot - ps)
    return acc / n_samples


def _old_eval_checkpoint(world, weights, direction):
    k = world.config.rollout_count
    p = _old_sample_pass_rates(world, k, "eval").sum(axis=1) / k
    hist = histogram(p, THREE_BIN_EDGES)
    losses, _ = _old_losses_and_diffs(world, direction)
    return CheckpointRow(
        step=world.step,
        stage=direction,
        loss=float(np.mean(weights * losses)),
        retention_kl=retention(world),
        frac_low=hist.fractions[0],
        frac_med=hist.fractions[1],
        frac_high=hist.fractions[2],
        mean_p=hist.mean_p,
    )


def _old_measure_snr(world, direction):
    k = world.config.rollout_count
    counts = _old_sample_pass_rates(world, k, "snr").sum(axis=1)
    _, diffs = _old_losses_and_diffs(world, direction)
    grads = world.features[:, :, None] * diffs[:, None, :]
    return GradientTable(world.problem_ids, counts / k, grads.reshape(len(counts), -1))


def _old_train(world, snr_dump_steps=()):
    config = world.config
    n = config.num_problems
    t_total = config.steps
    switch_step = 0
    if config.loss_direction == "two_stage":
        switch_step = int(round(config.stage1_fraction * t_total))
        switch_step = min(max(switch_step, 1), t_total - 1)
    base = world.step
    recompute_steps, rows, dumps = [], [], {}
    for local in range(t_total + 1):
        direction = _direction_at(config, min(local, t_total - 1), switch_step)
        needs_recompute = (
            local == 0
            or (
                config.loss_direction == "two_stage"
                and local == switch_step
                and local < t_total
            )
            or (
                config.recompute_interval is not None
                and local > 0
                and local < t_total
                and local % config.recompute_interval == 0
            )
        )
        if needs_recompute:
            outcomes = _old_sample_pass_rates(world, config.rollout_count, "rollout")
            weights = _weights(world, outcomes.sum(axis=1))
            recompute_steps.append(world.step)
        if local % config.eval_interval == 0 or local == t_total:
            rows.append(_old_eval_checkpoint(world, weights, direction))
        if local in snr_dump_steps:
            dumps[local] = _old_measure_snr(world, direction)
        if local == t_total:
            break
        if direction == "reverse" and config.reverse_kl_samples > 0:
            diffs = _old_sampled_reverse_diffs(world, config.reverse_kl_samples)
        else:
            _, diffs = _old_losses_and_diffs(world, direction)
        if config.batch_size is None:
            grad = world.features.T @ ((weights[:, None] / n) * diffs)
        else:
            gen = stream(config.seed, "batch", world.step)
            batch = gen.choice(n, size=config.batch_size, replace=False)
            scale = weights[batch, None] / config.batch_size
            grad = world.features[batch].T @ (scale * diffs[batch])
        world.theta = world.theta - config.learning_rate * grad
        world.step = base + local + 1
    return SimMetrics(
        rows=tuple(rows),
        recompute_steps=tuple(recompute_steps),
        stage_switch_step=(
            base + switch_step if config.loss_direction == "two_stage" else None
        ),
        gradient_dumps=dumps,
    )


_BASE = SimConfig(
    num_problems=80, num_anchors=6, feature_dim=6, vocab_size=7, rollout_count=5,
    steps=9, eval_interval=4, seed=23,
)
_CONFIGS = {
    "forward": {},
    "forward_batch": {"batch_size": 30},
    "exact_reverse": {"loss_direction": "reverse"},
    "exact_reverse_batch": {"loss_direction": "reverse", "batch_size": 30},
    # At temperature 1 the rollouts read the step's shared probs.
    "sampled_reverse_batch": {
        "loss_direction": "reverse", "reverse_kl_samples": 6, "batch_size": 30,
    },
    "sampled_reverse_t0.7_batch": {
        "loss_direction": "reverse", "reverse_kl_samples": 6,
        "rollout_temperature": 0.7, "batch_size": 30,
    },
    "two_stage_hard_recompute": {
        "loss_direction": "two_stage", "scheme": "hard", "recompute_interval": 3,
        "reverse_kl_samples": 3,
    },
    "forward_t1.3_beta": {"rollout_temperature": 1.3, "alpha": 2.0, "beta": 0.5},
}
_DUMPS = (0, 5, 9)


def _assert_same_run(w_new, m_new, w_old, m_old):
    assert np.array_equal(w_new.theta, w_old.theta)
    assert w_new.step == w_old.step
    assert m_new.rows == m_old.rows
    assert m_new.recompute_steps == m_old.recompute_steps
    assert m_new.stage_switch_step == m_old.stage_switch_step
    assert sorted(m_new.gradient_dumps) == sorted(m_old.gradient_dumps)
    for step, table in m_new.gradient_dumps.items():
        old = m_old.gradient_dumps[step]
        assert table.problem_ids == old.problem_ids
        assert np.array_equal(table.p, old.p)
        assert np.array_equal(table.gradients, old.gradients)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_train_matches_old_per_step_path(name):
    cfg = dataclasses.replace(_BASE, **_CONFIGS[name])
    w_new, w_old = build_world(cfg), build_world(cfg)
    m_new = train(w_new, snr_dump_steps=_DUMPS)
    m_old = _old_train(w_old, snr_dump_steps=_DUMPS)
    _assert_same_run(w_new, m_new, w_old, m_old)


def test_golden_config_matches_old_per_step_path():
    w_new, w_old = build_world(SimConfig()), build_world(SimConfig())
    m_new = train(w_new, snr_dump_steps=(0, 20))
    m_old = _old_train(w_old, snr_dump_steps=(0, 20))
    _assert_same_run(w_new, m_new, w_old, m_old)


def test_resumed_training_matches_old_per_step_path():
    # A second train call starts from a nonzero world.step.
    cfg = dataclasses.replace(_BASE, **_CONFIGS["two_stage_hard_recompute"])
    w_new, w_old = build_world(cfg), build_world(cfg)
    train(w_new)
    _old_train(w_old)
    _assert_same_run(w_new, train(w_new, snr_dump_steps=(4,)), w_old,
                     _old_train(w_old, snr_dump_steps=(4,)))


def _batch(config, step):
    gen = stream(config.seed, "batch", step)
    return gen.choice(config.num_problems, size=config.batch_size, replace=False)


def test_minibatch_reverse_draws_only_for_the_batch(monkeypatch):
    # Each step's revkl uniforms are drawn for the batch's ids, in batch order.
    cfg = dataclasses.replace(_BASE, **_CONFIGS["sampled_reverse_batch"])
    calls = []

    def spy(prefix, labels, k):
        calls.append((tuple(prefix), list(labels), k))
        return stream_uniforms(prefix, labels, k)

    monkeypatch.setattr(distill_sim, "stream_uniforms", spy)
    world = build_world(cfg)
    train(world)
    revkl = [call for call in calls if call[0][1] == "revkl"]
    assert [prefix for prefix, _, _ in revkl] == [
        (cfg.seed, "revkl", step) for step in range(cfg.steps)
    ]
    for (_, _, step), labels, k in revkl:
        assert labels == [world.problem_ids[i] for i in _batch(cfg, step)]
        assert len(labels) == cfg.batch_size and k == cfg.reverse_kl_samples


def test_sampled_reverse_rows_of_a_subset_equal_the_full_rows():
    w = build_world(_BASE)
    w.theta = w.theta + 0.4 * np.sin(np.arange(w.theta.size)).reshape(w.theta.shape)
    w.step = 5
    full = _sampled_reverse_diffs(w, _step_probs(w), w.problem_ids, 7)
    cfg = dataclasses.replace(_BASE, batch_size=25)
    for rows in (_batch(cfg, 5), np.array([79]), np.array([60, 2, 33])):
        ids = [w.problem_ids[i] for i in rows]
        part = _sampled_reverse_diffs(w, _step_probs(w).take(rows), ids, 7)
        assert np.array_equal(part, full[:, rows])


@pytest.mark.parametrize("cfg", [_BASE, SimConfig()], ids=["v7", "golden_v16"])
def test_world_teacher_log_probs_match_old_path(cfg):
    # build_world computes them vocabulary-major, once; readers see (N, V).
    w = build_world(cfg)
    assert w.teacher_log_probs.shape == (cfg.num_problems, cfg.vocab_size)
    assert w.teacher_log_probs.T.flags.c_contiguous
    assert np.array_equal(w.teacher_log_probs, _old_teacher_log_probs(w))
    assert np.array_equal(w.student_logits(), _old_student_logits(w))


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_standalone_calls_match_old_path(direction):
    w = build_world(_BASE)
    w.theta = w.theta + 0.4 * np.sin(np.arange(w.theta.size)).reshape(w.theta.shape)
    w.step = 3
    losses, diffs = _old_losses_and_diffs(w, direction)
    single = forward_kl if direction == "forward" else reverse_kl
    for i in (0, 41, 79):
        loss, grad = single(w, i)
        assert loss == float(losses[i])
        assert np.array_equal(grad, np.outer(w.features[i], diffs[i]))
    table, old = measure_snr(w, direction), _old_measure_snr(w, direction)
    assert np.array_equal(table.p, old.p)
    assert np.array_equal(table.gradients, old.gradients)


# Config overrides and the bound on train's peak traced allocation at
# N = 5000, in (N, V) float64 arrays.
# Measured: 5.69 and 5.68 for forward and exact reverse (peak while drawing
# eval rollouts: the two step buffers, the teacher probabilities, the cdf and
# the uniforms), 6.27 for 4 reverse-KL samples (the step arrays plus the
# sample accumulator and term). The earlier path peaked at 6.09, 6.08 and
# 9.25. With batch_size 500, 5.68: the sampled rows and draws are (500, V),
# so the peak is the eval rollouts again; sampling all N rows for the update
# and then keeping the batch peaked at 6.26.
_PEAK_BOUND = {
    "forward": ({}, 6.0),
    "reverse": ({"loss_direction": "reverse"}, 6.0),
    "sampled_reverse": ({"loss_direction": "reverse", "reverse_kl_samples": 4}, 6.5),
    "sampled_reverse_batch": (
        {"loss_direction": "reverse", "reverse_kl_samples": 4, "batch_size": 500}, 6.0,
    ),
}


@pytest.mark.parametrize("name", sorted(_PEAK_BOUND))
def test_train_peak_allocation_is_a_few_step_arrays(name):
    kwargs, bound = _PEAK_BOUND[name]
    cfg = SimConfig(num_problems=5000, steps=6, eval_interval=3, **kwargs)
    world = build_world(cfg)
    array_bytes = cfg.num_problems * cfg.vocab_size * 8
    tracemalloc.start()
    try:
        train(world)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * array_bytes
