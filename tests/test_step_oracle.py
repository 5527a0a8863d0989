"""train against a copy of the per-step path it replaced, and its memory.

train reads every problem at a recompute or checkpoint in one sweep over
column blocks: each block's student log-probabilities go into a small
vocabulary-major (V, block) scratch, and every consumer at that step reads
the block before the next one. An update runs the columns of the
nonzero-weight problems among its rows alone, all N or its minibatch's,
through such blocks, and its gradient product runs over those rows.
The functions prefixed `_old_` below are the earlier path, kept as it was
(less the two-stage branch for steps < 2, which SimConfig now rejects):
problem-major (N, V) arrays reduced along axis 1, each consumer recomputed
`log_softmax` on fresh arrays, and a minibatch update computed gradient
rows and reverse-KL draws for every problem before keeping its batch rows.
Outputs must match it bit for bit (np.array_equal, not the 10 digits the
CSVs print), except past the size where a full-batch product over every
row leaves OpenBLAS's small-matrix kernel, where they match to rounding.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from zpdistill import distill_sim
from zpdistill.distill_sim import (
    SimConfig,
    SimMetrics,
    build_world,
    measure_snr,
    retention,
    train,
)
from zpdistill.distill_sim import (
    _draws,
    _kl_rows,
    _sampled_reverse_diffs,
    _sweep,
    _updates,
    _weights,
)
from zpdistill.numerics import key_uniforms, label_keys, label_tokens, log_softmax, stream
from zpdistill.passrate import THREE_BIN_EDGES
from zpdistill.snr_profile import GradientTable

from sim_oracles import (
    diffs, metrics_diff, observed_train, outcomes, single_kl, stream_uniforms, student,
    student_logits,
)


def _old_log_softmax(logits, axis=-1):
    z = np.asarray(logits, dtype=np.float64)
    zmax = np.max(z, axis=axis, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


def _old_student_logits(world):
    return world.features @ world.theta


def _old_teacher_log_probs(world):
    # build_world drew the teacher logits from the "teacher" stream, stored
    # them and took the log-softmax of their C-ordered (N, V) copy.
    cfg = world.config
    n = cfg.num_problems
    logits = distill_sim._TEACHER_JITTER * stream(cfg.seed, "teacher").standard_normal(
        (n, cfg.vocab_size)
    )
    logits[np.arange(n), world.answers] += cfg.teacher_sharpness
    return _old_log_softmax(logits, axis=1)


def _old_categorical(probs, u):
    # (N, k) tokens from (N, V) probs and (N, k) uniforms.
    cdf = np.cumsum(probs, axis=1)
    tokens = np.zeros(u.shape, dtype=np.intp)
    for column in cdf.T:
        tokens += column[:, None] <= u
    return np.minimum(tokens, probs.shape[1] - 1, out=tokens)


def _old_sample_pass_rates(world, k, purpose):
    logits = _old_student_logits(world) / world.config.rollout_temperature
    probs = np.exp(_old_log_softmax(logits, axis=1))
    prefix = (world.config.seed, purpose, world.step)
    u = stream_uniforms(prefix, label_tokens(world.problem_ids), k).T
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
        (world.config.seed, "revkl", world.step), label_tokens(world.problem_ids), n_samples
    ).T
    rows = np.arange(ps.shape[0])
    acc = np.zeros_like(ps)
    for tokens in _old_categorical(ps, u).T:
        one_hot = np.zeros_like(ps)
        one_hot[rows, tokens] = 1.0
        acc += ratio[rows, tokens, None] * (one_hot - ps)
    return acc / n_samples


@dataclasses.dataclass(frozen=True)
class _OldRow:
    """One checkpoint as the earlier path recorded it."""

    step: int
    stage: str
    loss: float
    retention_kl: float
    frac_low: float
    frac_med: float
    frac_high: float
    mean_p: float


def _old_eval_checkpoint(world, weights, direction):
    k = world.config.rollout_count
    p = _old_sample_pass_rates(world, k, "eval").sum(axis=1) / k
    counts, _ = np.histogram(p, bins=np.array(THREE_BIN_EDGES))
    fractions = counts / p.size
    losses, _ = _old_losses_and_diffs(world, direction)
    return _OldRow(
        step=world.step,
        stage=direction,
        loss=float(np.mean(weights * losses)),
        retention_kl=retention(world),
        frac_low=float(fractions[0]),
        frac_med=float(fractions[1]),
        frac_high=float(fractions[2]),
        mean_p=float(p.mean()),
    )


def _old_measure_snr(world, direction):
    k = world.config.rollout_count
    counts = _old_sample_pass_rates(world, k, "snr").sum(axis=1)
    _, diffs = _old_losses_and_diffs(world, direction)
    grads = world.features[:, :, None] * diffs[:, None, :]
    return GradientTable(world.problem_ids, counts / k, grads.reshape(len(counts), -1))


def _old_direction_at(config, local_step, switch_step):
    if config.loss_direction != "two_stage":
        return config.loss_direction
    return "forward" if local_step < switch_step else "reverse"


def _old_train(world, dump_steps=()):
    """The earlier train, with its SNR dumps at dump_steps: (metrics, dumps)."""
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
        direction = _old_direction_at(config, min(local, t_total - 1), switch_step)
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
        if local in dump_steps:
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
    # The rows as SimMetrics columns, for a bit-for-bit comparison per column.
    column = {f.name: [getattr(row, f.name) for row in rows] for f in dataclasses.fields(_OldRow)}
    return SimMetrics(
        step=np.array(column["step"]),
        stage=tuple(column["stage"]),
        loss=np.array(column["loss"]),
        retention_kl=np.array(column["retention_kl"]),
        fractions=np.array([column["frac_low"], column["frac_med"], column["frac_high"]]).T,
        mean_p=np.array(column["mean_p"]),
        recompute_steps=tuple(recompute_steps),
        stage_switch_step=(
            base + switch_step if config.loss_direction == "two_stage" else None
        ),
    ), dumps


_BASE = SimConfig(
    num_problems=80, num_anchors=6, feature_dim=6, vocab_size=7, rollout_count=5,
    steps=9, eval_interval=4, seed=23,
)
_CONFIGS = {
    "forward": {},
    "forward_batch": {"batch_size": 30},
    # numpy multiplies a one-column batch by gemv, the full product by gemm.
    "forward_batch1": {"batch_size": 1},
    "forward_n1_batch1": {"num_problems": 1, "batch_size": 1},
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
    # Batch-only steps between recomputes and across the stage switch.
    "two_stage_hard_recompute_batch": {
        "loss_direction": "two_stage", "scheme": "hard", "recompute_interval": 3,
        "reverse_kl_samples": 3, "batch_size": 30,
    },
    "forward_t1.3_beta": {"rollout_temperature": 1.3, "alpha": 2.0, "beta": 0.5},
}
_DUMPS = (0, 5, 9)


def _assert_same_run(w_new, new, w_old, old):
    """new and old each start (metrics, dumps), as observed_train and
    _old_train return them."""
    (m_new, d_new, *_), (m_old, d_old, *_) = new, old
    assert np.array_equal(w_new.theta, w_old.theta)
    assert w_new.step == w_old.step
    assert not metrics_diff(m_new, m_old)
    assert sorted(d_new) == sorted(d_old)
    for step, table in d_new.items():
        old = d_old[step]
        assert table.problem_ids == old.problem_ids
        assert np.array_equal(table.p, old.p)
        assert np.array_equal(table.gradients, old.gradients)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_train_matches_old_per_step_path(name):
    cfg = dataclasses.replace(_BASE, **_CONFIGS[name])
    w_new, w_old = build_world(cfg), build_world(cfg)
    _assert_same_run(w_new, observed_train(w_new, _DUMPS), w_old, _old_train(w_old, _DUMPS))


def test_golden_config_matches_old_per_step_path():
    w_new, w_old = build_world(SimConfig()), build_world(SimConfig())
    new, old = observed_train(w_new, (0, 20)), _old_train(w_old, (0, 20))
    _assert_same_run(w_new, new, w_old, old)


def test_resumed_training_matches_old_per_step_path():
    # A second train call starts from a nonzero world.step.
    cfg = dataclasses.replace(_BASE, **_CONFIGS["two_stage_hard_recompute"])
    w_new, w_old = build_world(cfg), build_world(cfg)
    train(w_new)
    _old_train(w_old)
    _assert_same_run(w_new, observed_train(w_new, (4,)), w_old, _old_train(w_old, (4,)))


# Weight patterns at the edges of the nonzero-column path. At seed 4 one
# problem alone has p-hat = 0.8; it is in 4 of the 9 batches of 30. With
# K = 5 no p-hat equals 0.5.
_ONE = {"seed": 4, "scheme": "hard", "filter_lo": 0.8, "filter_hi": 0.8}
_NONE = {"scheme": "hard", "filter_lo": 0.5, "filter_hi": 0.5}
_EDGE_CONFIGS = {
    "one_nonzero": (_ONE, 1),
    "one_nonzero_batch": ({**_ONE, "batch_size": 30}, 1),
    "one_nonzero_sampled_reverse_batch": (
        {**_ONE, "loss_direction": "reverse", "reverse_kl_samples": 6, "batch_size": 30}, 1,
    ),
    "all_zero": (_NONE, 0),
    "all_zero_sampled_reverse_batch": (
        {**_NONE, "loss_direction": "reverse", "reverse_kl_samples": 6, "batch_size": 30}, 0,
    ),
    "unweighted": ({"scheme": "unweighted"}, 80),
    "unweighted_exact_reverse_batch": (
        {"scheme": "unweighted", "loss_direction": "reverse", "batch_size": 30}, 80,
    ),
    "floor": ({"weight_floor": 0.05}, 80),
    "floor_sampled_reverse": (
        {"weight_floor": 0.05, "loss_direction": "reverse", "reverse_kl_samples": 6}, 80,
    ),
}


@pytest.mark.parametrize("name", sorted(_EDGE_CONFIGS))
def test_edge_weight_patterns_match_old_per_step_path(name):
    overrides, nonzero = _EDGE_CONFIGS[name]
    cfg = dataclasses.replace(_BASE, **overrides)
    w_new, w_old = build_world(cfg), build_world(cfg)
    counts = _old_sample_pass_rates(w_new, cfg.rollout_count, "rollout").sum(axis=1)
    weights = _weights(w_new, counts)
    assert np.count_nonzero(weights) == nonzero
    theta0 = w_new.theta.copy()
    new = observed_train(w_new, _DUMPS)
    _assert_same_run(w_new, new, w_old, _old_train(w_old, _DUMPS))
    if nonzero == 0:
        # theta is untouched, and L = 0 is what the CLI's all-zero warning reads.
        assert np.array_equal(w_new.theta, theta0)
        assert new[2] == (0.0,)
    else:
        assert not np.array_equal(w_new.theta, theta0)


def _batch(config, step):
    gen = stream(config.seed, "batch", step)
    return gen.choice(config.num_problems, size=config.batch_size, replace=False)


def _spy_weights(monkeypatch):
    """{world.step: weights} of every recompute of the runs that follow."""
    weights = {}

    def spy(world, counts):
        weights[world.step] = _weights(world, counts)
        return weights[world.step]

    monkeypatch.setattr(distill_sim, "_weights", spy)
    return weights


def _update_columns(cfg, weights, step):
    """The problems whose columns the update at step computes: the nonzero
    weights of its rows, in row order."""
    current = weights[max(s for s in weights if s <= step)]
    rows = np.arange(cfg.num_problems) if cfg.batch_size is None else _batch(cfg, step)
    return rows[current[rows] != 0]


def _spy_draws(monkeypatch, purposes):
    """The (prefix, labels) of every key step and the (keys, k) of every
    Philox pass that the draws of the given purposes make from here on;
    a pass holds the keys of the steps since the one before it."""
    keyed, passes, pending = [], [], []

    def keys_spy(prefix, tokens):
        pending.append(prefix[1])
        if prefix[1] in purposes:
            keyed.append((tuple(prefix), tokens.tolist()))
        return label_keys(prefix, tokens)

    def pass_spy(keys, k):
        if set(pending) & set(purposes):
            passes.append((len(keys), k))
        pending.clear()
        return key_uniforms(keys, k)

    monkeypatch.setattr(distill_sim, "label_keys", keys_spy)
    monkeypatch.setattr(distill_sim, "key_uniforms", pass_spy)
    return keyed, passes


def _check_reverse_draws(monkeypatch, overrides, empty):
    cfg = dataclasses.replace(_BASE, **{**overrides, "reverse_kl_samples": 6})
    keyed, passes = _spy_draws(monkeypatch, ("revkl",))
    weights = _spy_weights(monkeypatch)
    streams = []
    monkeypatch.setattr(distill_sim, "stream", lambda *key: streams.append(key) or stream(*key))
    world = build_world(cfg)
    metrics = train(world)
    # Each step's minibatch is drawn once, in step order, whichever of its
    # update and the pass that reads its rows comes first.
    assert [key for key in streams if key[1] == "batch"] == [
        (cfg.seed, "batch", step) for step in range(cfg.steps)
    ]
    want = {
        step: _update_columns(cfg, weights, step)
        for step in range(metrics.stage_switch_step or 0, cfg.steps)
    }
    assert [len(cols) for cols in want.values()].count(0) == empty
    revkl = [call for call in keyed if call[0][1] == "revkl"]
    assert [prefix for prefix, _ in revkl] == [
        (cfg.seed, "revkl", step) for step, cols in want.items() if len(cols)
    ]
    for (_, _, step), labels in revkl:
        ids = [world.problem_ids[i] for i in want[step]]
        assert labels == label_tokens(ids).tolist()
        assert 0 < len(labels) < cfg.batch_size
    # One Philox pass of k uniforms per reverse-stage interval between two
    # sweeps (a recompute or a checkpoint) that draws at all, over every
    # key of its steps.
    sweeps = sorted({*metrics.recompute_steps, *metrics.step.tolist()})
    per_interval = [
        sum(len(want[step]) for step in range(start, end))
        for start, end in zip(sweeps, sweeps[1:]) if start in want
    ]
    assert passes == [(n, cfg.reverse_kl_samples) for n in per_interval if n]


def test_minibatch_reverse_draws_only_for_the_batch(monkeypatch):
    # Each step's revkl uniforms are drawn for the ids of the batch's
    # nonzero-weight problems, in batch order, and not at all at the steps
    # whose batch has none (5 of 9 with one nonzero weight); the steps
    # between two sweeps share one Philox pass.
    _check_reverse_draws(monkeypatch, _CONFIGS["two_stage_hard_recompute_batch"], 0)
    _check_reverse_draws(monkeypatch, {**_ONE, "loss_direction": "reverse", "batch_size": 30}, 5)


def test_a_sweep_draws_all_its_purposes_in_one_pass(monkeypatch):
    # At N = 200 and k = 8 a pass holds 2 048 keys, so step 0, which both
    # recomputes and checkpoints, draws its rollout and eval keys in one
    # Philox pass; a dump's snr rollouts are drawn through the same drawer.
    cfg = SimConfig(steps=2, eval_interval=2)
    keyed, passes = _spy_draws(monkeypatch, ("rollout", "eval", "snr"))
    world, w_old = build_world(cfg), build_world(cfg)
    run = observed_train(world, (1,))
    labels = world.problem_tokens.tolist()
    assert keyed == [
        ((cfg.seed, purpose, step), labels)
        for purpose, step in [("rollout", 0), ("eval", 0), ("snr", 1), ("eval", 2)]
    ]
    n, k = cfg.num_problems, cfg.rollout_count
    assert passes == [(2 * n, k), (n, k), (n, k)]
    _assert_same_run(world, run, w_old, _old_train(w_old, (1,)))


@pytest.mark.parametrize("k", [1, 6, 8, 17])
def test_draws_give_each_unit_its_own_stream_uniforms(monkeypatch, k):
    # Units of every purpose and of several steps, one of them empty, joined
    # in order into passes of at most 40 keys, a wider unit alone.
    monkeypatch.setattr(distill_sim, "_PASS_WORDS", 40 * 4 * -(-k // 4))
    tokens = label_tokens([f"p{i:04d}" for i in range(60)])
    units = [("rollout", 0, tokens[:10]), ("eval", 0, tokens[10:35]), ("revkl", 3, tokens[:0]),
             ("revkl", 4, tokens[5:50]), ("snr", 2, tokens[50:]), ("revkl", 5, tokens[:1])]
    _, passes = _spy_draws(monkeypatch, ("rollout", "eval", "snr", "revkl"))
    draws = list(_draws(23, units, k))
    assert len(draws) == len(units)
    for (purpose, step, labels), u in zip(units, draws):
        assert np.array_equal(u, stream_uniforms((23, purpose, step), labels, k))
    assert passes == [(35, k), (45, k), (11, k)]


def test_a_pass_of_one_unit_reads_its_keys_uncopied(monkeypatch):
    # At N = 8 000 and k = 8 each sweep block of 4 000 keys fills a pass
    # alone, so the pass reads the key step's own array, not a joined copy.
    made, read = [], []
    monkeypatch.setattr(
        distill_sim, "label_keys", lambda *args: made.append(label_keys(*args)) or made[-1])
    monkeypatch.setattr(
        distill_sim, "key_uniforms", lambda keys, k: read.append(keys) or key_uniforms(keys, k))
    world = build_world(SimConfig(num_problems=8000))
    counts = _sweep(world, 8, ("rollout", "eval"))[0]
    assert len(made) == len(read) == 4
    assert all(keys is own for keys, own in zip(read, made))
    for purpose in ("rollout", "eval"):
        assert np.array_equal(counts[purpose], outcomes(world, 8, purpose).sum(axis=0))


def _greedy_passes(widths, cap):
    """Key counts of the passes that join consecutive nonempty widths up to
    cap keys, a wider one alone."""
    passes, group = [], []
    for n in filter(None, widths):
        if group and sum(group) + n > cap:
            passes, group = passes + [sum(group)], []
        group.append(n)
    return passes + [sum(group)] * bool(group)


# Edges of the update intervals. At 6 samples a key is 8 Philox words.
_INTERVAL_EDGES = {
    # A pass of 6 keys: steps of 7 live columns draw alone, 3 + 3 share one.
    "step_wider_than_a_pass": (
        {"loss_direction": "reverse", "reverse_kl_samples": 6, "batch_size": 12,
         "eval_interval": 9}, 48,
    ),
    # No recompute and no checkpoint before the end: one interval for the run.
    "one_interval_for_the_run": (
        {"loss_direction": "reverse", "reverse_kl_samples": 6, "batch_size": 12,
         "eval_interval": 9}, None,
    ),
    # Recomputes at 0, 5, 6 (the switch) and 10, off the checkpoint grid.
    "recompute_inside_reverse": (
        {"loss_direction": "two_stage", "scheme": "hard", "recompute_interval": 5,
         "steps": 12, "reverse_kl_samples": 6, "batch_size": 30}, None,
    ),
    # A sweep every step; 5 of the 9 steps' batches have no nonzero weight.
    "intervals_with_only_empty_batches": (
        {**_ONE, "loss_direction": "reverse", "reverse_kl_samples": 6, "batch_size": 30,
         "eval_interval": 1}, None,
    ),
    # Every problem's column at every step; the steps between checkpoints
    # share a pass.
    "full_batch": (
        {"loss_direction": "reverse", "reverse_kl_samples": 6, "weight_floor": 0.05}, None,
    ),
}


@pytest.mark.parametrize("name", sorted(_INTERVAL_EDGES))
def test_update_interval_edges_match_old_per_step_path(monkeypatch, name):
    overrides, pass_words = _INTERVAL_EDGES[name]
    if pass_words:
        monkeypatch.setattr(distill_sim, "_PASS_WORDS", pass_words)
    cap = distill_sim._PASS_WORDS // 8
    cfg = dataclasses.replace(_BASE, **overrides)
    _, passes = _spy_draws(monkeypatch, ("revkl",))
    weights = _spy_weights(monkeypatch)
    w_new, w_old = build_world(cfg), build_world(cfg)
    new = observed_train(w_new, _DUMPS)
    _assert_same_run(w_new, new, w_old, _old_train(w_old, _DUMPS))
    m_new = new[0]
    first = m_new.stage_switch_step or 0
    live = [len(_update_columns(cfg, weights, step)) for step in range(cfg.steps)]
    sweeps = sorted({*m_new.recompute_steps, *m_new.step.tolist()})
    intervals = [live[a:b] for a, b in zip(sweeps, sweeps[1:]) if a >= first]
    assert passes == [
        (n, 6) for widths in intervals for n in _greedy_passes(widths, cap)
    ]
    if name == "step_wider_than_a_pass":
        assert max(live) > cap and len(passes) < np.count_nonzero(live)
    if name == "one_interval_for_the_run":
        assert intervals == [live] and len(passes) == 1
    if name == "recompute_inside_reverse":
        # The recompute at 10, off the checkpoint grid, splits [8, 12) in two.
        assert m_new.stage_switch_step == 6 and 10 in m_new.recompute_steps
        assert 10 % cfg.eval_interval and len(passes) == 3
    if name == "intervals_with_only_empty_batches":
        assert intervals.count([0]) == 5 and len(passes) == 4
    if name == "full_batch":
        assert passes == [(320, 6), (320, 6), (80, 6)]


# Edges of the sweep schedule at N = 40, over the 9 steps of _BASE unless
# set: (overrides, recompute steps, checkpoint steps).
_SCHEDULE_EDGES = {
    "eval_interval_past_the_end": ({"eval_interval": 12}, (0,), (0, 9)),
    "recompute_interval_past_the_end": ({"recompute_interval": 12}, (0,), (0, 4, 8, 9)),
    "recompute_every_step": (
        {"recompute_interval": 1, "loss_direction": "reverse", "reverse_kl_samples": 3},
        tuple(range(9)), (0, 4, 8, 9),
    ),
    "switch_on_the_grid": (
        {"loss_direction": "two_stage", "steps": 8, "reverse_kl_samples": 3, "batch_size": 15},
        (0, 4), (0, 4, 8),
    ),
    "switch_off_the_grid": (
        {"loss_direction": "two_stage", "steps": 8, "stage1_fraction": 0.4,
         "reverse_kl_samples": 3, "batch_size": 15}, (0, 3), (0, 4, 8),
    ),
    "two_stage_two_steps": ({"loss_direction": "two_stage", "steps": 2}, (0, 1), (0, 2)),
    "sampled_reverse_batch": (
        {"loss_direction": "reverse", "reverse_kl_samples": 4, "batch_size": 15,
         "scheme": "hard"}, (0,), (0, 4, 8, 9),
    ),
}


@pytest.mark.parametrize("name", sorted(_SCHEDULE_EDGES))
def test_schedule_edges_match_old_per_step_path(name):
    overrides, recomputes, checkpoints = _SCHEDULE_EDGES[name]
    cfg = dataclasses.replace(_BASE, num_problems=40, **overrides)
    w_new, w_old = build_world(cfg), build_world(cfg)
    seen, dumps = [], {}

    def observe(world, direction, weights, counts):
        seen.append((world.step, counts is not None))
        dumps[world.step] = GradientTable(world.problem_ids, *measure_snr(world, direction))

    metrics = train(w_new, observe=observe)
    # One call per step 0..steps, in order, with counts at a recompute alone.
    assert seen == [(step, step in recomputes) for step in range(cfg.steps + 1)]
    assert metrics.recompute_steps == recomputes
    assert tuple(metrics.step.tolist()) == checkpoints
    everything = range(cfg.steps + 1)
    _assert_same_run(w_new, (metrics, dumps), w_old, _old_train(w_old, everything))


def test_sampled_reverse_rows_of_a_subset_equal_the_full_rows():
    # The batch path: the student's columns computed for the rows alone,
    # beside the teacher's columns taken from the full arrays.
    w = build_world(_BASE)
    w.theta = w.theta + 0.4 * np.sin(np.arange(w.theta.size)).reshape(w.theta.shape)
    w.step = 5
    log_ps, ps, log_pt = student(w)
    u = next(_draws(w.config.seed, [("revkl", 5, w.problem_tokens)], 7))
    full = _sampled_reverse_diffs(log_ps, ps, log_pt, u, np.empty_like(ps))
    cfg = dataclasses.replace(_BASE, batch_size=25)
    for rows in (_batch(cfg, 5), np.array([79]), np.array([60, 2, 33])):
        labels = label_tokens([w.problem_ids[i] for i in rows])
        u = next(_draws(cfg.seed, [("revkl", 5, labels)], 7))
        batch = student(w, rows)
        assert np.array_equal(batch[1], ps[:, rows])
        part = _sampled_reverse_diffs(*batch, u, np.empty_like(batch[1]))
        assert np.array_equal(part, full[:, rows])


def _spy_log_softmax_widths(monkeypatch, world):
    """[(world.step, columns)] of every student log-softmax that follows;
    each runs down axis 0 of (V, columns) logits, and the anchors'
    retention log-softmax, along axis 1, is left out."""
    columns = []

    def spy(logits, axis=-1, **kwargs):
        if axis == 0:
            columns.append((world.step, logits.shape[1]))
        return log_softmax(logits, axis=axis, **kwargs)

    monkeypatch.setattr(distill_sim, "log_softmax", spy)
    return columns


def _check_log_softmax_widths(monkeypatch, cfg):
    # With blocks of at most 32 columns, N = 80 is swept as 27, 27 and 26.
    # Each recompute or checkpoint sweeps every problem once, a dump step's
    # measure_snr sweeps them for its rollouts and takes one N-wide
    # log-softmax for its gradients, and an update sweeps the nonzero
    # weights among its rows.
    monkeypatch.setattr(distill_sim, "_BLOCK", 32)
    world = build_world(cfg)
    columns = _spy_log_softmax_widths(monkeypatch, world)
    weights = _spy_weights(monkeypatch)
    metrics = observed_train(world, (5,))[0]
    full_steps = set(metrics.step.tolist()) | set(metrics.recompute_steps)
    assert full_steps | {5} == {0, 3, 4, 5, 6, 8, 9}
    n = cfg.num_problems

    def blocks(step, m):
        return [(step, min(27, m - i)) for i in range(0, m, 27)]

    want, updates = [], []
    for step in range(cfg.steps + 1):
        if step in full_steps:
            want += blocks(step, n)
        if step == 5:
            want += blocks(step, n) + [(step, n)]
        if step < cfg.steps:
            updates.append(len(_update_columns(cfg, weights, step)))
            want += blocks(step, updates[-1])
    assert all(width < (cfg.batch_size or n) for width in updates)
    assert columns == want


def test_minibatch_steps_compute_full_student_arrays_only_where_read(monkeypatch):
    cfg = dataclasses.replace(_BASE, **_CONFIGS["two_stage_hard_recompute_batch"])
    _check_log_softmax_widths(monkeypatch, cfg)


def test_full_batch_steps_compute_full_student_arrays_only_where_read(monkeypatch):
    cfg = dataclasses.replace(_BASE, **_CONFIGS["two_stage_hard_recompute"])
    _check_log_softmax_widths(monkeypatch, cfg)


# At N = 4 097 the default blocks are 2 049 and 2 048 columns wide.
_N4097 = {"num_problems": 4097, "steps": 4, "eval_interval": 2}
_WIDE_CONFIGS = {
    "forward": {},
    "exact_reverse_recompute": {"loss_direction": "reverse", "recompute_interval": 3},
    "sampled_reverse_t0.7": {
        "loss_direction": "reverse", "reverse_kl_samples": 4, "rollout_temperature": 0.7,
    },
    "two_stage_hard_batch": {
        "loss_direction": "two_stage", "scheme": "hard", "reverse_kl_samples": 4,
        "batch_size": 3000,
    },
}


@pytest.mark.parametrize("name", sorted(_WIDE_CONFIGS))
def test_no_student_log_softmax_in_train_is_wider_than_one_block(monkeypatch, name):
    cfg = SimConfig(**_N4097, **_WIDE_CONFIGS[name])
    world = build_world(cfg)
    columns = _spy_log_softmax_widths(monkeypatch, world)
    observed_train(world, (2,))
    wide = [call for call in columns if call[1] > 2049]
    # The dump's measure_snr builds its own N-wide arrays for its gradients,
    # at any rollout temperature (its rollouts are swept in blocks); nothing
    # else does.
    assert wide == [(2, cfg.num_problems)]
    assert (0, 2049) in columns  # step 0's sweep, in blocks of the default width


@pytest.mark.parametrize("cfg", [_BASE, SimConfig()], ids=["v7", "golden_v16"])
def test_world_teacher_log_probs_match_old_path(cfg):
    # build_world computes them vocabulary-major, once; readers see (N, V).
    w = build_world(cfg)
    assert w.teacher_log_probs.shape == (cfg.num_problems, cfg.vocab_size)
    assert w.teacher_log_probs.T.flags.c_contiguous
    assert np.array_equal(w.teacher_log_probs, _old_teacher_log_probs(w))
    assert np.array_equal(student_logits(w), _old_student_logits(w))


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_standalone_calls_match_old_path(direction):
    w = build_world(_BASE)
    w.theta = w.theta + 0.4 * np.sin(np.arange(w.theta.size)).reshape(w.theta.shape)
    w.step = 3
    losses, diffs = _old_losses_and_diffs(w, direction)
    for i in (0, 41, 79):
        loss, grad = single_kl(w, i, direction)
        assert loss == float(losses[i])
        assert np.array_equal(grad, np.outer(w.features[i], diffs[i]))
    (p, gradients), old = measure_snr(w, direction), _old_measure_snr(w, direction)
    assert np.array_equal(p, old.p)
    assert np.array_equal(gradients, old.gradients)


@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("n", [1, 80, 200, 5000])
def test_single_problem_calls_equal_the_full_column(direction, n):
    # The single-problem oracle computes problem i's column alone; it equals
    # column i of the arrays computed for all N problems.
    w = build_world(dataclasses.replace(_BASE, num_problems=n))
    w.theta = w.theta + 0.4 * np.sin(np.arange(w.theta.size)).reshape(w.theta.shape)
    columns = diffs(w, direction)
    losses = _kl_rows(*student(w), direction)
    for i in sorted({0, n // 2, n - 1}):
        loss, grad = single_kl(w, i, direction)
        assert loss == float(losses[i])
        assert np.array_equal(grad, np.outer(w.features[i], columns[:, i]))


# (num_problems, batch_size, share of zero weights). F = V = 16 and at most
# 3 900 rows: scipy-openblas 0.3.31 runs a product with M * N * K <= 1e6
# (3 906 rows here) in its small-matrix kernel, which adds each entry in
# row order, so the exact-zero rows the update drops change no bit.
_PRODUCT_CASES = [
    (200, None, 0.45),
    (3900, None, 0.0),
    (3900, None, 0.45),
    (3900, None, 0.99),
    (3900, 3900, 0.45),
    (3900, 1000, 0.7),
    (500, 80, 0.3),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, batch_size, zero_share", _PRODUCT_CASES)
def test_live_row_product_equals_the_zero_filled_product(n, batch_size, zero_share, seed):
    cfg = SimConfig(num_problems=n, batch_size=batch_size, seed=seed + 3)
    world = build_world(cfg)
    world.theta = world.theta + 0.4 * np.sin(np.arange(world.theta.size)).reshape(
        world.theta.shape
    )
    world.step = 3
    rng = np.random.default_rng(seed)
    weights = rng.random(n) * (rng.random(n) >= zero_share)
    # The earlier update: every row's scaled column, zero where the weight
    # is, in a zeroed (V, rows) buffer and one product over all rows.
    rows = np.arange(n) if batch_size is None else _batch(cfg, world.step)
    live = weights[rows] != 0
    assert 0 < np.count_nonzero(live) and (zero_share == 0) == live.all()
    full = np.zeros((cfg.vocab_size, len(rows)))
    full[:, live] = diffs(world, "forward")[:, rows[live]] * (weights[rows[live]] / len(rows))
    want = world.theta - cfg.learning_rate * (world.features[rows].T @ full.T)

    next(_updates(world, weights, "forward", range(world.step, world.step + 1)))
    assert np.array_equal(world.theta, want)


def test_large_full_batch_matches_old_per_step_path_to_rounding():
    # At N = 5 000 the earlier zero-filled product over every row ran in
    # OpenBLAS's blocked kernel, which groups its partial sums by row
    # position, so dropping the zero rows moves theta in its last bits
    # (8.9e-16 measured with scipy-openblas 0.3.31).
    cfg = SimConfig(num_problems=5000, steps=4, eval_interval=2)
    w_new, w_old = build_world(cfg), build_world(cfg)
    m_new, (m_old, _) = train(w_new), _old_train(w_old)
    np.testing.assert_allclose(w_new.theta, w_old.theta, rtol=1e-12, atol=0)
    assert len(m_new.step) == len(m_old.step) == 3
    assert m_new.step.tolist() == m_old.step.tolist() and m_new.stage == m_old.stage
    for name in ("loss", "retention_kl", "fractions", "mean_p"):
        np.testing.assert_allclose(
            getattr(m_new, name), getattr(m_old, name), rtol=1e-12, atol=0, err_msg=name
        )
    assert m_new.recompute_steps == m_old.recompute_steps


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("name", ["sampled_reverse_t0.7_batch", "two_stage_hard_recompute"])
def test_column_blocks_change_no_value(monkeypatch, name, block):
    # N = 80 is not a multiple of 3 or 7, so the last block is short.
    cfg = dataclasses.replace(_BASE, **_CONFIGS[name])

    def whole(world):
        # Every column at once, from full (V, N) arrays.
        return (
            outcomes(world, 5, "eval").sum(axis=0),
            outcomes(world, 5, "rollout").sum(axis=0),
            _kl_rows(*student(world), "forward"),
            _kl_rows(*student(world), "reverse"),
        )

    def swept(world):
        counts, forward = _sweep(world, 5, ("eval", "rollout"), "forward")
        reverse = _sweep(world, 5, (), "reverse")[1]
        return counts["eval"], counts["rollout"], forward, reverse

    w_one, w_blocks = build_world(cfg), build_world(cfg)
    for w in (w_one, w_blocks):
        w.theta = w.theta + 0.4 * np.sin(np.arange(w.theta.size)).reshape(w.theta.shape)
        w.step = 3
    want = whole(w_one)
    one = observed_train(w_one, _DUMPS)
    monkeypatch.setattr(distill_sim, "_BLOCK", block)
    widths = []

    def spy(prefix, tokens):
        if prefix[1] in ("rollout", "eval"):  # a sweep's, not an update's or a dump's
            widths.append((tuple(prefix), len(tokens)))
        return label_keys(prefix, tokens)

    monkeypatch.setattr(distill_sim, "label_keys", spy)
    got = swept(w_blocks)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    widths.clear()
    blocks = observed_train(w_blocks, _DUMPS)
    _assert_same_run(w_blocks, blocks, w_one, one)
    assert blocks[2] == one[2]  # L at each recompute
    assert set(width for _, width in widths) == {block, cfg.num_problems % block or block}
    # Each sweep of train draws every problem's rollouts once, in the
    # fewest blocks.
    for prefix in set(prefix for prefix, _ in widths):
        sweep = [width for key, width in widths if key == prefix]
        assert sum(sweep) == cfg.num_problems and len(sweep) == -(-cfg.num_problems // block)


def _one_block_run(name):
    """train at N = 4 097 with every problem in one block: world, observed_train's run."""
    cfg = SimConfig(**_N4097, **_WIDE_CONFIGS[name])
    world = build_world(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distill_sim, "_BLOCK", cfg.num_problems)
        return world, observed_train(world, (0, 2))


@pytest.mark.parametrize("name", sorted(_WIDE_CONFIGS))
def test_default_blocks_change_no_output_at_n4097(name):
    # The default blocks split N into 2 049 + 2 048 columns; one block of
    # 4 097 runs the logit product in OpenBLAS's blocked kernel, the halves
    # in its small-matrix one. Blocks of 1, 3 and 7 are checked at N = 80.
    w_one, one = _one_block_run(name)
    world = build_world(w_one.config)
    run = observed_train(world, (0, 2))
    _assert_same_run(world, run, w_one, one)
    assert run[2] == one[2]  # L at each recompute


def test_build_world_peak_allocation_is_a_few_arrays():
    # At N = 20 000 build_world peaked at 3.81 (N, V) arrays, in the mixture
    # features' (N, F) temporaries (F = V here); storing the teacher logits
    # beside their log-softmax peaked at 6.40.
    cfg = SimConfig(num_problems=20000)
    tracemalloc.start()
    try:
        build_world(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * cfg.num_problems * cfg.vocab_size * 8


# Config overrides and the bound on train's peak traced allocation, in
# (N, V) float64 arrays, at N = 5000 unless the overrides set num_problems.
# Measured: 4.78 for forward and exact reverse (peak while drawing eval
# rollouts: the two step buffers, the teacher probabilities, the cdf and the
# uniforms), 5.68 for 4 reverse-KL samples (the step arrays plus the sample
# accumulator and term); with (N, k) uniforms, intp tokens and a per-call
# digest list they were 5.31 and 5.89, and the earlier path peaked at 6.09,
# 6.08 and 9.25. With batch_size 500, 4.78: the sampled rows and draws are
# (500, V), so the peak is the eval rollouts again; sampling all N rows for
# the update and then keeping the batch peaked at 6.26. With the reverse-KL
# ratios and token entries gathered per (k, N) flat index before the sample
# loop, sampled reverse peaks at 5.92; the batch's own (V, 500) buffers lift
# sampled_reverse_batch to 5.16. With sampling and the checkpoint KL in
# blocks of 4 096 columns: forward 4.55, reverse 4.70 (the update's (V, N)
# reverse-KL product), sampled reverse 5.92 (its full-batch draws are not
# blocked), sampled_reverse_batch 4.94; at N = 20 000, about five blocks,
# forward 3.75 and sampled_reverse_batch 3.85, where unblocked sampling
# peaked at 4.75 and 4.85. With updates computed only for nonzero-weight
# columns in the step buffers (no persistent teacher probabilities, the
# kept nonzero rows' features and teacher columns instead), the exact
# reverse-KL sum and the checkpoint KL's exp(log_pt) in column blocks, and
# each rollout block forming its own logits at temperature != 1: forward
# 4.61, reverse 4.61, sampled reverse 4.96, sampled_reverse_batch 3.43; at
# N = 20 000, forward 3.91, reverse 3.91 (4.69 with the (V, N) product),
# sampled_reverse_batch 2.75, temperature 0.7 4.14 (5.75 with the softmax
# of all N logit columns at once). With every recompute and checkpoint one
# sweep over equal column blocks of at most 4 096 (2 x 2 500 at N = 5 000,
# 5 x 4 000 at N = 20 000), the checkpoint KL formed in the block scratch,
# and each update's nonzero-weight columns run through the same scratch into
# one (V, rows) gradient array (no (V, N) student buffers): forward 3.96,
# reverse 3.95, sampled reverse 3.95, sampled_reverse_batch 2.18; at
# N = 20 000, forward 2.83, reverse 2.83, full-batch sampled reverse 2.83
# (4.85 with (V, N) buffers and full-width draws), sampled_reverse_batch
# 1.08, temperature 0.7 2.44. The peak is a checkpoint's rollout draws
# beside the kept nonzero rows' features, teacher and gradient columns.
# With the reverse-KL draws of the steps between two sweeps joined into
# Philox passes of at most 16 384 words, 24 steps of batch 200 at 16 samples
# and no sweep between step 0 and the end peak at 2.18, at a checkpoint, as
# with one draw per step; the passes (1 024 keys) stay below it. 100 steps of
# batch 2 000 at 4 samples with no sweep between peak at 2.70 (2.31 drawing
# per step), in a pass of 4 096 keys; holding every step's rows from the
# sweep peaked at 4.06, and 8.26 at 400 steps. Full-batch
# sampled reverse at 16 samples peaks at 4.85 (4.78 drawing per block), in
# the sample gathers; with the block's pass still held there, 5.35. A
# full-batch recompute every 2 steps at N = 20 000 peaks at 2.78; building
# the new nonzero columns while the last interval's updates still held the
# old ones peaked at 4.06. With each run of updates building its full-batch
# columns after its sweep, so that no sweep runs beside them: forward 3.32,
# reverse 3.78, sampled reverse 3.79, sampled reverse at 16 samples 4.82; at
# N = 20 000, forward 2.49, reverse 2.68, full-batch sampled reverse 2.60,
# temperature 0.7 2.12, a recompute every 2 steps 2.49 (the columns held
# through the sweeps read 3.95, 3.94, 3.94, 4.85, 2.84, 2.84, 2.84, 2.46 and
# 2.78). The minibatch peaks did not move.
_PEAK_BOUND = {
    "forward": ({}, 3.6),
    "reverse": ({"loss_direction": "reverse"}, 3.85),
    "sampled_reverse": ({"loss_direction": "reverse", "reverse_kl_samples": 4}, 3.86),
    "sampled_reverse_batch": (
        {"loss_direction": "reverse", "reverse_kl_samples": 4, "batch_size": 500}, 2.5,
    ),
    "forward_n20000": ({"num_problems": 20000}, 2.65),
    "reverse_n20000": ({"num_problems": 20000, "loss_direction": "reverse"}, 2.75),
    "sampled_reverse_n20000": (
        {"num_problems": 20000, "loss_direction": "reverse", "reverse_kl_samples": 4}, 2.7,
    ),
    "sampled_reverse_batch_n20000": (
        {"num_problems": 20000, "loss_direction": "reverse", "reverse_kl_samples": 4,
         "batch_size": 500}, 1.25,
    ),
    "temperature_0.7_n20000": ({"num_problems": 20000, "rollout_temperature": 0.7}, 2.3),
    "sampled_reverse_k16": ({"loss_direction": "reverse", "reverse_kl_samples": 16}, 5.0),
    "sampled_reverse_batch2000_one_interval": (
        {"loss_direction": "reverse", "reverse_kl_samples": 4, "batch_size": 2000,
         "steps": 100, "eval_interval": 100}, 3.0,
    ),
    "sampled_reverse_batch200_k16_one_interval": (
        {"loss_direction": "reverse", "reverse_kl_samples": 16, "batch_size": 200,
         "steps": 24, "eval_interval": 24}, 2.25,
    ),
    "forward_recompute_n20000": ({"num_problems": 20000, "recompute_interval": 2}, 2.65),
}


@pytest.mark.parametrize("name", sorted(_PEAK_BOUND))
def test_train_peak_allocation_is_a_few_step_arrays(name):
    kwargs, bound = _PEAK_BOUND[name]
    cfg = SimConfig(**{"num_problems": 5000, "steps": 6, "eval_interval": 3, **kwargs})
    world = build_world(cfg)
    array_bytes = cfg.num_problems * cfg.vocab_size * 8
    tracemalloc.start()
    try:
        train(world)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * array_bytes


def test_weight_recompute_allocates_a_fraction_of_a_step_array():
    # One recompute at N = 5000 peaked at 0.39 (N, V) arrays above its
    # entry; building (problem_id, weight) tuples on the way peaked at 1.82.
    cfg = SimConfig(num_problems=5000)
    world = build_world(cfg)
    counts = _old_sample_pass_rates(world, cfg.rollout_count, "rollout").sum(axis=1)
    tracemalloc.start()
    try:
        _weights(world, counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * cfg.num_problems * cfg.vocab_size * 8
