"""Desk-scale synthetic distillation world.

The world is a single-token classification task. Each problem i has a unit
feature vector x_i, a correct token a_i, and a fixed teacher distribution
softmax(sharpness * e_{a_i} + jitter). The student is a shared linear
softmax model: logits_i = theta^T x_i with theta an F x V matrix, so
problems interact only through theta.

Difficulty is built into the features. Token prototypes mu_v are random
unit vectors, the initial student is the prototype classifier at the
teacher's own sharpness, theta_0 = sharpness * [mu_1 .. mu_V], and problem
features are x_i = unit(mu_{a_i} + eps_i * n_i) with n_i a random unit
direction. Growing eps_i attenuates the correct-answer logit under theta_0
from `sharpness` toward noise level, so sweeping eps_i across problems
makes initial pass rates span [0, 1]. The same mixing controls gradient
geometry: hopeless problems are noise-directional (incoherent gradients),
mastered ones start matched to the teacher and differ only through
per-problem jitter (dispersed small gradients), and mid-band problems
share the coherent prototype-alignment signal. _TEACHER_JITTER and the
anchor difficulty range were tuned once against the default desk
configuration and are frozen.

Anchor inputs are generated the same way (disjoint streams, easier range)
and their targets are defined as the initial student's own distributions,
so retention KL is exactly 0 before training and measures pure drift.

Determinism: every random draw comes from a counter-based stream keyed by
(seed, purpose, step, problem_id), so results do not depend on evaluation
order and identical configs replay bit-for-bit. Rollouts for weighting,
telemetry, and SNR measurement use distinct purpose labels. Per-problem
draws are taken for all problems at once with numerics.stream_uniforms,
which reproduces numerics.stream() bit for bit; stream() remains the
contract that defines every draw.

Per-step arithmetic: train computes the student's log-probabilities and
probabilities once per step, with out= ufuncs into two buffers allocated
once per call, and computes the teacher's probabilities once. The step
arrays are vocabulary-major, (V, N) with one column per problem, so every
reduction over the vocabulary runs down axis 0 over contiguous rows of N.
Sums over the vocabulary use numerics._sum_axis0, which adds in the
pairwise order of np.sum over a contiguous (N, V) row, and the logit and
gradient products are the transposes of the (N, V) ones, so every value
is bit-identical to the problem-major arithmetic. Every consumer at that
step reads the arrays: rollout sampling for weights, checkpoints and SNR
dumps (at rollout temperature 1; other temperatures sample from their own
softmax), the checkpoint loss, measure_snr, and the update. A full-batch
update writes its gradient columns into the buffers. A minibatch update
computes gradient columns, and reverse-KL draws, for its batch problems
only, in batch order; each draw is keyed by its problem and each column's
arithmetic reads that column alone, so those columns equal the same
columns of a full computation.

At each weight recompute train records eta * L, with L the forward-KL
smoothness constant of variance.smoothness_constant, in SimMetrics.eta_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .kernel import SCHEMES, normalize_weights, raw_weights
from .numerics import _sum_axis0, log_softmax, stream, stream_uniforms
from .passrate import THREE_BIN_EDGES, RolloutTable, histogram
from .snr_profile import GradientTable
from .variance import smoothness_constant

__all__ = [
    "DIRECTIONS",
    "SimConfig",
    "SimWorld",
    "SimMetrics",
    "CheckpointRow",
    "build_world",
    "run_rollouts",
    "forward_kl",
    "reverse_kl",
    "train",
    "measure_snr",
    "retention",
]

_TEACHER_JITTER = 1.5
# Anchors draw difficulties from the easy quarter of the sweep: retention
# is meant to probe confidently-held prior behavior.
_ANCHOR_DIFFICULTY_FRACTION = 0.25

DIRECTIONS = ("forward", "reverse", "two_stage")
# Smallest accepted value of each integer field; the rest must be >= 1.
_INT_MIN = {"vocab_size": 2, "reverse_kl_samples": 0, "seed": 0}
_STAGE_DIRECTIONS = ("forward", "reverse")


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulated distillation run."""

    num_problems: int = 200
    num_anchors: int = 50
    feature_dim: int = 16
    vocab_size: int = 16
    difficulty_spread: float = 7.0
    teacher_sharpness: float = 8.0
    rollout_count: int = 8
    rollout_temperature: float = 1.0
    scheme: str = "beta"
    alpha: float = 1.0
    beta: float = 1.0
    filter_lo: float = 0.2
    filter_hi: float = 0.8
    weight_floor: float = 0.0
    loss_direction: str = "forward"
    stage1_fraction: float = 0.5
    learning_rate: float = 6.0
    steps: int = 60
    batch_size: int | None = None
    reverse_kl_samples: int = 0
    recompute_interval: int | None = None
    seed: int = 7
    eval_interval: int = 20

    def __post_init__(self) -> None:
        # Types and finiteness, one field at a time, from the annotations.
        # bool is an int subclass but is never accepted as a number.
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type == "str":
                ok, want = isinstance(value, str), "a string"
            elif f.type == "float":
                ok, want = number and math.isfinite(value), "a finite number"
            elif value is None and f.type == "int | None":
                continue
            else:
                low = _INT_MIN.get(f.name, 1)
                ok = number and isinstance(value, int) and value >= low
                want = f"an integer >= {low}"
            if not ok:
                raise ConfigError(f"{f.name} must be {want}, got {value!r}")

        # learning_rate 0 is allowed: a no-op run is a useful control.
        for key in ("difficulty_spread", "weight_floor", "learning_rate"):
            if getattr(self, key) < 0.0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)!r}")
        for key in ("teacher_sharpness", "rollout_temperature"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "beta" and (self.alpha < 0.0 or self.beta < 0.0):
            raise ConfigError(
                f"alpha and beta must be >= 0, got ({self.alpha}, {self.beta})"
            )
        if self.scheme == "hard" and not (
            0.0 <= self.filter_lo <= self.filter_hi <= 1.0
        ):
            raise ConfigError(
                "filter_lo/filter_hi must satisfy 0 <= lo <= hi <= 1, got "
                f"({self.filter_lo}, {self.filter_hi})"
            )
        if self.loss_direction not in DIRECTIONS:
            raise ConfigError(
                f"loss_direction must be one of {DIRECTIONS}, got {self.loss_direction!r}"
            )
        if self.loss_direction == "two_stage" and self.steps < 2:
            raise ConfigError(
                f"steps must be >= 2 for loss_direction two_stage, got {self.steps!r}"
            )
        if not 0.0 < self.stage1_fraction < 1.0:
            raise ConfigError(
                f"stage1_fraction must lie in (0,1), got {self.stage1_fraction!r}"
            )
        if self.batch_size is not None and self.batch_size > self.num_problems:
            raise ConfigError(
                f"batch_size must be in [1, num_problems], got {self.batch_size!r}"
            )
        if self.seed >= 2**64:
            raise ConfigError(f"seed must be a 64-bit nonnegative integer, got {self.seed!r}")


@dataclass
class SimWorld:
    """Mutable world state: fixed data plus the trainable student matrix."""

    config: SimConfig
    problem_ids: tuple[str, ...]
    features: np.ndarray  # (N, F), unit rows
    answers: np.ndarray  # (N,), int tokens
    # (N, V) transposes of C-ordered (V, N) arrays: .T is vocabulary-major.
    teacher_logits: np.ndarray
    teacher_log_probs: np.ndarray  # log_softmax of teacher_logits
    anchor_features: np.ndarray  # (M, F)
    anchor_log_targets: np.ndarray  # (M, V)
    theta: np.ndarray  # (F, V)
    step: int = 0

    def student_logits(self) -> np.ndarray:
        """(N, V) logits, the transpose of the C-ordered (V, N) theta^T x_i."""
        return (self.theta.T @ self.features.T).T


@dataclass(frozen=True)
class CheckpointRow:
    step: int
    stage: str
    loss: float
    retention_kl: float
    frac_low: float
    frac_med: float
    frac_high: float
    mean_p: float


@dataclass(frozen=True)
class SimMetrics:
    rows: tuple[CheckpointRow, ...]
    recompute_steps: tuple[int, ...]
    stage_switch_step: int | None
    gradient_dumps: dict[int, GradientTable] = field(default_factory=dict)
    # eta * variance.smoothness_constant at each step of recompute_steps.
    eta_l: tuple[float, ...] = ()


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _mixture_features(
    prototypes: np.ndarray,
    answers: np.ndarray,
    eps: np.ndarray,
    noise_gen: np.random.Generator,
) -> np.ndarray:
    feature_dim = prototypes.shape[0]
    noise = _unit_rows(noise_gen.standard_normal((answers.size, feature_dim)))
    mixed = prototypes.T[answers] + eps[:, None] * noise
    return _unit_rows(mixed)


def build_world(config: SimConfig) -> SimWorld:
    """Deterministic world construction from the config seed."""
    n, m = config.num_problems, config.num_anchors
    f, v = config.feature_dim, config.vocab_size
    seed = config.seed

    proto_gen = stream(seed, "proto")
    prototypes = _unit_rows(proto_gen.standard_normal((v, f))).T  # (F, V)

    answers = stream(seed, "answers").integers(0, v, size=n)
    # Stratified difficulty sweep with jitter: eps_i covers [0, spread].
    jitter = stream(seed, "difficulty").random(n)
    eps = config.difficulty_spread * (np.arange(n) + jitter) / n
    features = _mixture_features(prototypes, answers, eps, stream(seed, "noise"))

    teacher_noise = stream(seed, "teacher").standard_normal((n, v))
    teacher_logits = np.empty((v, n))
    np.multiply(_TEACHER_JITTER, teacher_noise.T, out=teacher_logits)
    teacher_logits[answers, np.arange(n)] += config.teacher_sharpness

    # Initial student: prototype classifier at the teacher's own sharpness,
    # so the easiest problems start already matched to the teacher and the
    # high-p gradient mean collapses to per-problem jitter.
    theta = config.teacher_sharpness * prototypes.copy()

    anchor_answers = stream(seed, "anchor_answers").integers(0, v, size=m)
    anchor_jitter = stream(seed, "anchor_difficulty").random(m)
    anchor_eps = (
        _ANCHOR_DIFFICULTY_FRACTION
        * config.difficulty_spread
        * (np.arange(m) + anchor_jitter)
        / m
    )
    anchor_features = _mixture_features(
        prototypes, anchor_answers, anchor_eps, stream(seed, "anchor_noise")
    )
    anchor_log_targets = log_softmax(anchor_features @ theta, axis=1)

    return SimWorld(
        config=config,
        problem_ids=tuple(f"p{i:04d}" for i in range(n)),
        features=features,
        answers=answers,
        teacher_logits=teacher_logits.T,
        teacher_log_probs=log_softmax(teacher_logits, axis=0).T,
        anchor_features=anchor_features,
        anchor_log_targets=anchor_log_targets,
        theta=theta,
        step=0,
    )


def _categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(N, k) tokens drawn by inverting each column of the (V, N) probs at
    the uniforms u, row i of u for column i.

    Counting cdf entries <= u equals searchsorted(cdf, u, side="right") on a
    nondecreasing cdf; the clamp catches a cdf that rounds to below 1. The
    count runs one vocabulary entry at a time to keep temporaries at (N, k).
    """
    cdf = np.cumsum(probs, axis=0)
    tokens = np.zeros(u.shape, dtype=np.intp)
    for entry in cdf:
        tokens += entry[:, None] <= u
    return np.minimum(tokens, probs.shape[0] - 1, out=tokens)


@dataclass(frozen=True)
class _Probs:
    """Student log-probs and probs at the current theta beside the teacher's.

    Each array is C-ordered (V, N), one column per problem. train fills
    log_ps and ps once per step and every consumer at that step reads them;
    a full-batch update then overwrites them with its gradient columns.
    """

    log_ps: np.ndarray
    ps: np.ndarray
    log_pt: np.ndarray  # world.teacher_log_probs.T
    pt: np.ndarray

    def take(self, index: np.ndarray) -> _Probs:
        """C-ordered copies of the four arrays at the problem columns index."""
        arrays = (self.log_ps, self.ps, self.log_pt, self.pt)
        return _Probs(*(a.take(index, axis=1) for a in arrays))


def _step_probs(world: SimWorld, buffers: _Probs | None = None) -> _Probs:
    """The student's distributions at world.theta, written into buffers.

    Without buffers, fresh arrays are allocated and the teacher's
    probabilities computed; with them, only log_ps and ps are rewritten.
    """
    if buffers is None:
        log_pt = world.teacher_log_probs.T
        buffers = _Probs(np.empty_like(log_pt), np.empty_like(log_pt), log_pt, np.exp(log_pt))
    log_ps, ps = buffers.log_ps, buffers.ps
    np.matmul(world.theta.T, world.features.T, out=log_ps)
    log_softmax(log_ps, axis=0, out=log_ps, work=ps)
    np.exp(log_ps, out=ps)
    return buffers


def _sample_pass_rates(
    world: SimWorld, k: int, purpose: str, probs: _Probs | None = None
) -> np.ndarray:
    """(N, k) correctness of k rollouts per problem at the current step.

    At rollout temperature 1 the step's shared probs are sampled as they
    are, since dividing the logits by 1.0 is exact.
    """
    if k < 1:
        raise DomainError(f"rollout count must be >= 1, got {k}")
    if probs is not None and world.config.rollout_temperature == 1.0:
        sample_probs = probs.ps
    else:
        logits = world.student_logits().T / world.config.rollout_temperature
        sample_probs = np.exp(log_softmax(logits, axis=0, out=logits))
    u = stream_uniforms((world.config.seed, purpose, world.step), world.problem_ids, k)
    return _categorical(sample_probs, u) == world.answers[:, None]


def run_rollouts(world: SimWorld, K: int) -> RolloutTable:
    """Successes of K rollouts per problem at the current step (weighting
    stream)."""
    successes = _sample_pass_rates(world, K, "rollout").sum(axis=1)
    return RolloutTable(world.problem_ids, successes, np.full(successes.shape, K))


def _kl_rows(probs: _Probs, direction: str) -> np.ndarray:
    """Per-problem KL in the given direction."""
    if direction == "forward":
        terms = probs.log_pt - probs.log_ps
        terms *= probs.pt
    else:
        terms = probs.log_ps - probs.log_pt
        terms *= probs.ps
    return _sum_axis0(terms)


def _diffs(probs: _Probs, direction: str, in_place: bool = False) -> np.ndarray:
    """Logit-space gradient columns of the per-problem KL.

    in_place writes the columns into the step buffers (ps for forward, log_ps
    for reverse) instead of a fresh array.
    """
    if direction == "forward":
        return np.subtract(probs.ps, probs.pt, out=probs.ps if in_place else None)
    if direction == "reverse":
        ratio = np.subtract(probs.log_ps, probs.log_pt, out=probs.log_ps if in_place else None)
        ratio -= _sum_axis0(probs.ps * ratio)
        return np.multiply(probs.ps, ratio, out=ratio)
    raise DomainError(f"unknown loss direction {direction!r}")


def _single_loss_grad(world: SimWorld, problem_index: int, direction: str):
    n = world.config.num_problems
    if not 0 <= problem_index < n:
        raise DomainError(f"problem_index must lie in [0, {n}), got {problem_index}")
    probs = _step_probs(world)
    loss = _kl_rows(probs, direction)[problem_index]
    grad = np.outer(world.features[problem_index], _diffs(probs, direction)[:, problem_index])
    return float(loss), grad


def forward_kl(world: SimWorld, problem_index: int) -> tuple[float, np.ndarray]:
    """KL(teacher || student) for one problem and its exact theta gradient."""
    return _single_loss_grad(world, problem_index, "forward")


def reverse_kl(world: SimWorld, problem_index: int) -> tuple[float, np.ndarray]:
    """KL(student || teacher) for one problem and its exact theta gradient."""
    return _single_loss_grad(world, problem_index, "reverse")


def _sampled_reverse_diffs(
    world: SimWorld, probs: _Probs, problem_ids: Sequence[str], n_samples: int
) -> np.ndarray:
    """Score-function estimate of the reverse-KL logit gradient columns.

    Column i of probs belongs to problem_ids[i]; a minibatch step passes
    only its batch columns. Each problem's draws come from its own key
    (seed, "revkl", step, id), and every column's cdf, draws and sum depend
    on that column alone, so any subset of columns equals those columns of
    the full result. Samples are accumulated one at a time, in draw order,
    for all columns together, so each column's sum is the same sequential
    sum as per problem. A sample's term r * (onehot - ps) is subtracted as
    r * ps with its token entry set to r * (ps - 1): both are exact
    negations, so the sum is bit-identical. probs.log_ps is overwritten
    with the log-ratio.
    """
    ps = probs.ps
    ratio = np.subtract(probs.log_ps, probs.log_pt, out=probs.log_ps)
    u = stream_uniforms((world.config.seed, "revkl", world.step), problem_ids, n_samples)
    draws = _categorical(ps, u)
    cols = np.arange(ps.shape[1])
    acc = np.zeros_like(ps)
    term = np.empty_like(ps)
    for tokens in draws.T:
        r = ratio[tokens, cols]
        np.multiply(ps, r, out=term)
        term[tokens, cols] = r * (ps[tokens, cols] - 1.0)
        acc -= term
    acc /= n_samples
    return acc


def _weights(world: SimWorld, counts: np.ndarray) -> np.ndarray:
    """Normalized weights from per-problem success counts out of rollout_count."""
    c = world.config
    raw = raw_weights(
        counts / c.rollout_count, c.scheme, c.alpha, c.beta, c.filter_lo, c.filter_hi,
        c.weight_floor,
    )
    return normalize_weights(list(zip(world.problem_ids, raw.tolist()))).normalized


def _direction_at(config: SimConfig, local_step: int, switch_step: int) -> str:
    if config.loss_direction != "two_stage":
        return config.loss_direction
    return "forward" if local_step < switch_step else "reverse"


def _eval_checkpoint(
    world: SimWorld, weights: np.ndarray, direction: str, probs: _Probs
) -> CheckpointRow:
    k = world.config.rollout_count
    p = _sample_pass_rates(world, k, "eval", probs).sum(axis=1) / k
    hist = histogram(p, THREE_BIN_EDGES)
    loss = float(np.mean(weights * _kl_rows(probs, direction)))
    if not math.isfinite(loss):
        raise NumericError(f"checkpoint loss is {loss} at step {world.step}")
    return CheckpointRow(
        step=world.step,
        stage=direction,
        loss=loss,
        retention_kl=retention(world),
        frac_low=hist.fractions[0],
        frac_med=hist.fractions[1],
        frac_high=hist.fractions[2],
        mean_p=hist.mean_p,
    )


def _descend(world: SimWorld, weights: np.ndarray, direction: str, probs: _Probs) -> None:
    """The parameter update at world.step, from the gradient columns of its batch.

    The problems are picked first: all of them, or the step's minibatch.
    Only their gradients, and reverse-KL draws, are computed. A full batch
    works on the step buffers and overwrites them; a minibatch works on
    copies of its columns.
    """
    config = world.config
    rows, ids = slice(None), world.problem_ids
    if config.batch_size is not None:
        gen = stream(config.seed, "batch", world.step)
        rows = gen.choice(config.num_problems, size=config.batch_size, replace=False)
        ids = [world.problem_ids[i] for i in rows]
        probs = probs.take(rows)
    if direction == "reverse" and config.reverse_kl_samples > 0:
        diffs = _sampled_reverse_diffs(world, probs, ids, config.reverse_kl_samples)
    else:
        diffs = _diffs(probs, direction, in_place=True)
    diffs *= weights[rows] / len(ids)
    grad = world.features[rows].T @ diffs.T
    world.theta = world.theta - config.learning_rate * grad


def train(world: SimWorld, *, snr_dump_steps: Iterable[int] = ()) -> SimMetrics:
    """Run the weighting-then-descend loop configured by world.config.

    Pass rates and weights are computed once at the start, again at the
    two-stage switch, and every recompute_interval steps when configured.
    Checkpoints (every eval_interval steps, plus step 0 and the final step)
    record state before that step's parameter update. theta and the step
    counter are updated in place on the passed world. A non-finite
    checkpoint loss or theta raises NumericError naming the step.
    """
    config = world.config
    t_total = config.steps
    switch_step = 0
    if config.loss_direction == "two_stage":
        switch_step = int(round(config.stage1_fraction * t_total))
        switch_step = min(max(switch_step, 1), t_total - 1)

    dump_steps = sorted(set(int(s) for s in snr_dump_steps))
    for s in dump_steps:
        if not 0 <= s <= t_total:
            raise DomainError(f"snr dump step {s} outside [0, {t_total}]")

    base = world.step
    recompute_steps: list[int] = []
    eta_l: list[float] = []
    rows: list[CheckpointRow] = []
    dumps: dict[int, GradientTable] = {}
    probs = None

    for local in range(t_total + 1):
        probs = _step_probs(world, probs)
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
            counts = _sample_pass_rates(world, config.rollout_count, "rollout", probs).sum(axis=1)
            weights = _weights(world, counts)
            recompute_steps.append(world.step)
            eta_l.append(config.learning_rate * smoothness_constant(world.features, weights))

        if local % config.eval_interval == 0 or local == t_total:
            rows.append(_eval_checkpoint(world, weights, direction, probs))
        if local in dump_steps:
            dumps[local] = measure_snr(world, direction, probs=probs)

        if local == t_total:
            break

        _descend(world, weights, direction, probs)
        if not np.isfinite(world.theta).all():
            raise NumericError(f"theta is not finite after the update at step {world.step}")
        world.step = base + local + 1

    return SimMetrics(
        rows=tuple(rows),
        recompute_steps=tuple(recompute_steps),
        stage_switch_step=(
            base + switch_step if config.loss_direction == "two_stage" else None
        ),
        gradient_dumps=dumps,
        eta_l=tuple(eta_l),
    )


def measure_snr(
    world: SimWorld, loss_direction: str, *, probs: _Probs | None = None
) -> GradientTable:
    """One flattened gradient per problem plus fresh pass-rate estimates.

    Row i of the gradients is np.outer(features[i], diffs[i]).ravel(), the
    problem's theta gradient in logit-difference form. probs are the
    step's shared distributions inside train; without them they are
    computed from world.
    """
    if loss_direction not in _STAGE_DIRECTIONS:
        raise DomainError(
            f"loss_direction must be one of {_STAGE_DIRECTIONS}, got {loss_direction!r}"
        )
    if probs is None:
        probs = _step_probs(world)
    k = world.config.rollout_count
    counts = _sample_pass_rates(world, k, "snr", probs).sum(axis=1)
    diffs = _diffs(probs, loss_direction).T
    grads = world.features[:, :, None] * diffs[:, None, :]
    return GradientTable(world.problem_ids, counts / k, grads.reshape(len(counts), -1))


def retention(world: SimWorld) -> float:
    """Mean KL from the stored anchor targets to the current student."""
    if world.config.num_anchors < 1:
        raise DomainError("retention requires at least one anchor")
    log_current = log_softmax(world.anchor_features @ world.theta, axis=1)
    targets = np.exp(world.anchor_log_targets)
    kl = np.sum(targets * (world.anchor_log_targets - log_current), axis=1)
    return float(np.mean(kl))
