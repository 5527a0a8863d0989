"""Reference computations that the simulator's tests compare against.

None of these is part of the package: train reaches every problem through
column-block sweeps and shared draws, and these read one problem, or every
problem in one block, the plainest way its arithmetic allows. observed_train
runs train with the observer that simulate passes it.
"""

import dataclasses

import numpy as np

from zpdistill.distill_sim import (
    SimMetrics, _categorical, _diffs, _kl_rows, _student, measure_snr, train,
)
from zpdistill.numerics import key_uniforms, label_keys
from zpdistill.snr_profile import GradientTable
from zpdistill.variance import smoothness_constant


def stream_uniforms(prefix, tokens, k):
    """(k, N) uniforms, column j stream(*prefix, labels[j]).random(k) for
    tokens = label_tokens(labels), every column from one Philox pass."""
    return key_uniforms(label_keys(prefix, tokens), k)


def observed_train(world, dump_steps=()):
    """train(world) observed as simulate observes it: (metrics, {step:
    GradientTable of measure_snr's arrays} at each of dump_steps, counted
    from the world's step at the call, and the smoothness constant L of the
    weights at each recompute, in order)."""
    base, dumps, smoothness = world.step, {}, []

    def observe(world, direction, weights, counts):
        if counts is not None:
            smoothness.append(smoothness_constant(world.features, weights))
        if world.step - base in dump_steps:
            dumps[world.step - base] = GradientTable(
                world.problem_ids, *measure_snr(world, direction))

    return train(world, observe=observe), dumps, tuple(smoothness)


def metrics_diff(a, b):
    """The names of the SimMetrics fields in which a and b differ, each
    column compared bit for bit: its dtype, shape and bytes."""
    def key(x):
        return (x.dtype, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x

    return [f.name for f in dataclasses.fields(SimMetrics)
            if key(getattr(a, f.name)) != key(getattr(b, f.name))]


def student_logits(world):
    """(N, V) logits, the transpose of the C-ordered (V, N) theta^T x_i."""
    return (world.theta.T @ world.features.T).T


def student(world, rows=slice(None), temperature=1.0):
    """Fresh (V, len(rows)) arrays (log_ps, ps, log_pt) of the problems rows:
    the student's distributions at world.theta and temperature, and a view
    of the teacher's log-probabilities."""
    log_pt = world.teacher_log_probs.T[:, rows]
    log_ps, ps = np.empty((2, *log_pt.shape))
    _student(world, world.features[rows], log_ps, ps, temperature)
    return log_ps, ps, log_pt


def diffs(world, direction, rows=slice(None)):
    """A fresh (V, len(rows)) array of the exact logit-space gradient columns
    of the problems rows."""
    log_ps, ps, log_pt = student(world, rows)
    teacher = np.exp(log_pt) if direction == "forward" else log_pt
    return _diffs(log_ps, ps, teacher, direction, np.empty_like(ps))


def outcomes(world, k, purpose):
    """(k, N) correctness of k rollouts per problem at world.step, every
    problem in one block, at the world's rollout temperature."""
    ps = student(world, temperature=world.config.rollout_temperature)[1]
    u = stream_uniforms((world.config.seed, purpose, world.step), world.problem_tokens, k)
    return _categorical(ps, u) == world.answers


def single_kl(world, problem_index, direction):
    """The KL of one problem in the given direction ("forward" is
    KL(teacher || student)) and its exact theta gradient, from its column
    alone."""
    column = [problem_index]
    grad = np.outer(world.features[problem_index], diffs(world, direction, column)[:, 0])
    return float(_kl_rows(*student(world, column), direction)[0]), grad
