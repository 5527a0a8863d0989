"""Reference computations that the simulator's tests compare against.

None of these is part of the package: train reaches every problem through
column-block sweeps and shared draws, and these read one problem, or every
problem in one block, the plainest way its arithmetic allows.
"""

import numpy as np

from zpdistill.distill_sim import _categorical, _diffs, _kl_rows, _Probs, _step_probs
from zpdistill.numerics import stream_uniforms


def student_logits(world):
    """(N, V) logits, the transpose of the C-ordered (V, N) theta^T x_i."""
    return (world.theta.T @ world.features.T).T


def outcomes(world, k, purpose):
    """(k, N) correctness of k rollouts per problem at world.step, every
    problem in one block, at the world's rollout temperature."""
    ps = _step_probs(world, temperature=world.config.rollout_temperature).ps
    u = stream_uniforms((world.config.seed, purpose, world.step), world.problem_tokens, k)
    return _categorical(ps, u) == world.answers


def single_kl(world, problem_index, direction):
    """The KL of one problem in the given direction ("forward" is
    KL(teacher || student)) and its exact theta gradient, from its column
    alone."""
    column = [problem_index]
    probs = _Probs(*np.empty((2, world.config.vocab_size, 1)), world.teacher_log_probs.T[:, column])
    _step_probs(world, probs, world.features[column])
    grad = np.outer(world.features[problem_index], _diffs(probs, direction)[:, 0])
    return float(_kl_rows(probs, direction)[0]), grad
