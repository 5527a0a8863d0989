"""Desk-scale synthetic distillation world.

The world is a single-token classification task. Each problem i has a unit
feature vector x_i, a correct token a_i, and a fixed teacher distribution
softmax(sharpness * e_{a_i} + jitter). The student is a shared linear
softmax model: logits_i = theta^T x_i with theta an F x V matrix, so
problems interact only through theta. train returns its checkpoints as
SimMetrics columns and measure_snr the arrays (p, gradients): record types
belong to the CLI and fileio.

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

Anchors are drawn by the problems' rule, _points, from their own streams
over an easier range. Their targets are the initial student's own
distributions, so retention KL (_kl_rows, forward) is exactly 0 before
training and measures pure drift. Every world array but theta is read-only.

Determinism: every random draw comes from a counter-based stream keyed by
(seed, purpose, step, problem_id), so results do not depend on evaluation
order and identical configs replay bit-for-bit. Weighting, checkpoint and
SNR rollouts and reverse-KL samples use distinct purposes ("rollout",
"eval", "snr", "revkl"). One drawer, _draws, takes each of their
per-problem draws with numerics.label_keys and key_uniforms, bit for bit as
stream(), which remains the contract that defines every draw. It joins a
sweep's purposes, and the reverse-KL draws of the updates between two
sweeps (whose rows and weights do not read theta), into shared Philox
passes; a column reads its key alone. build_world keys the problems once,
as SimWorld.problem_tokens, and a minibatch takes its rows of that array.
The world stores the teacher's log-probabilities, not its logits.

Per-step arithmetic: train holds no student array as wide as N; only
measure_snr, which an observer of train may call, builds its own. A weight
recompute or checkpoint reads every problem in one sweep over equal column
blocks of at most _BLOCK problems; _student writes each block's log_ps and
ps into (V, block) views of a scratch, which every consumer at that step
(rollouts, the checkpoint KL) reads as plain arrays before the next block.
Many weights are 0 (p(1 - p) at p = 0 or 1, the hard scheme outside its
band), so an update runs only the nonzero-weight problems among its rows
(all N, or its minibatch), in row order and in such blocks, into one
(V, rows) array of gradient columns that its gradient product spans. One
_updates generator makes the updates between two sweeps, whose reverse-KL
draws share passes of at most _PASS_WORDS Philox words. Each sweep owns
its scratch, each generator its scratch and columns; one lives at a time.
The arrays are vocabulary-major, one column per problem, so every
reduction over the vocabulary runs down axis 0; numerics._sum_axis0 adds
in the pairwise order of np.sum over a contiguous (N, V) row, and the
logit and gradient products are the transposes of the (N, V) ones. Each
column's key and arithmetic read that column alone, so blocks change no
value, and every value is bit-identical to the problem-major arithmetic,
but for the last bits of an update over more than 3 906 rows (see
_updates).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .kernel import SCHEMES, raw_weights, unit_mean
from .numerics import _sum_axis0, key_uniforms, label_keys, label_tokens, log_softmax, stream
from .passrate import THREE_BIN_EDGES, bin_indices

__all__ = [
    "DIRECTIONS",
    "SimConfig",
    "SimWorld",
    "SimMetrics",
    "build_world",
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
# Most problem columns per block of a sweep: Philox ran about 30% faster
# on 4 096-8 192 keys than on 20 000 at once.
_BLOCK = 4096
# Most Philox output words (keys times k rounded up to 4) in one shared pass
# of draws: 1 024 keys at 16 samples, 2 048 at 8.
_PASS_WORDS = 16384


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
    """World state: fixed, read-only data plus the trainable student matrix."""

    config: SimConfig
    problem_ids: tuple[str, ...]
    problem_tokens: np.ndarray  # (N,) numerics.label_tokens(problem_ids)
    features: np.ndarray  # (N, F), unit rows
    answers: np.ndarray  # (N,), int tokens
    # (N, V) transpose of a C-ordered (V, N) array: .T is vocabulary-major.
    teacher_log_probs: np.ndarray
    anchor_features: np.ndarray  # (M, F)
    anchor_log_targets: np.ndarray  # (M, V)
    theta: np.ndarray  # (F, V)
    step: int = 0


@dataclass(frozen=True)
class SimMetrics:
    """A run's C checkpoints in step order, as columns: step, loss,
    retention_kl and mean_p (C,), stage (the loss direction of each) and the
    (C, 3) shares of problems in the low, medium and high pass-rate bands."""

    step: np.ndarray
    stage: tuple[str, ...]
    loss: np.ndarray
    retention_kl: np.ndarray
    fractions: np.ndarray
    mean_p: np.ndarray
    recompute_steps: tuple[int, ...]
    stage_switch_step: int | None


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _points(seed: int, prefix: str, prototypes: np.ndarray, count: int, spread: float):
    """(answers, unit feature rows) of count points from the streams prefix +
    "answers", "difficulty" and "noise": uniform answer tokens, features
    unit(mu_a + eps * n), eps a stratified, jittered sweep over [0, spread]."""
    feature_dim, vocab_size = prototypes.shape
    answers = stream(seed, prefix + "answers").integers(0, vocab_size, size=count)
    jitter = stream(seed, prefix + "difficulty").random(count)
    eps = spread * (np.arange(count) + jitter) / count
    noise = _unit_rows(stream(seed, prefix + "noise").standard_normal((count, feature_dim)))
    return answers, _unit_rows(prototypes.T[answers] + eps[:, None] * noise)


def build_world(config: SimConfig) -> SimWorld:
    """Deterministic world construction from the config seed. Every array
    but theta is read-only."""
    n, m = config.num_problems, config.num_anchors
    f, v = config.feature_dim, config.vocab_size
    seed = config.seed

    proto_gen = stream(seed, "proto")
    prototypes = _unit_rows(proto_gen.standard_normal((v, f))).T  # (F, V)
    answers, features = _points(seed, "", prototypes, n, config.difficulty_spread)

    teacher_noise = stream(seed, "teacher").standard_normal((n, v))
    log_pt = np.empty((v, n))
    np.multiply(_TEACHER_JITTER, teacher_noise.T, out=log_pt)
    del teacher_noise
    log_pt[answers, np.arange(n)] += config.teacher_sharpness
    log_softmax(log_pt, axis=0, out=log_pt)

    # Initial student: prototype classifier at the teacher's own sharpness,
    # so the easiest problems start already matched to the teacher and the
    # high-p gradient mean collapses to per-problem jitter.
    theta = config.teacher_sharpness * prototypes.copy()

    anchor_spread = _ANCHOR_DIFFICULTY_FRACTION * config.difficulty_spread
    _, anchor_features = _points(seed, "anchor_", prototypes, m, anchor_spread)
    anchor_log_targets = log_softmax(anchor_features @ theta, axis=1)

    problem_ids = tuple(f"p{i:04d}" for i in range(n))
    world = SimWorld(config, problem_ids, label_tokens(problem_ids), features, answers,
                     log_pt.T, anchor_features, anchor_log_targets, theta)
    for a in (world.problem_tokens, features, answers, world.teacher_log_probs,
              anchor_features, anchor_log_targets):
        a.setflags(write=False)
    return world


def _categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(k, N) tokens drawn by inverting each column of the (V, N) probs at
    the (k, N) uniforms u, column i of u for column i.

    Counting cdf entries <= u equals searchsorted(cdf, u, side="right") on a
    nondecreasing cdf; the clamp catches a cdf that rounds to below 1. The
    cdf is one running (N,) row, added to in the sequential order of
    np.cumsum over axis 0, and the count runs one vocabulary entry at a
    time, into one (k, N) mask and the smallest unsigned integer type that
    holds V.
    """
    v = probs.shape[0]
    cdf = np.zeros(probs.shape[1:])
    tokens = np.zeros(u.shape, dtype=np.min_scalar_type(v))
    hit = np.empty(u.shape, dtype=bool)
    for row in probs:
        cdf += row
        tokens += np.less_equal(cdf, u, out=hit)
    return np.minimum(tokens, v - 1, out=tokens)


def _student(
    world: SimWorld, x: np.ndarray, log_ps: np.ndarray, ps: np.ndarray,
    temperature: float = 1.0,
) -> None:
    """The student's log-probabilities and probabilities at world.theta and
    temperature for the feature rows x, written into the (V, len(x)) arrays
    log_ps and ps. Each column's arithmetic reads that column alone, so a
    subset of rows gives those columns of the full arrays.
    """
    if len(x) == 1 < len(world.features):
        # numpy sends a one-column product to gemv, which adds in another
        # order than the full product's gemm; a second copy of the row keeps
        # the column equal to the full product's.
        np.copyto(log_ps, np.matmul(world.theta.T, x[[0, 0]].T)[:, :1])
    else:
        np.matmul(world.theta.T, x.T, out=log_ps)
    if temperature != 1.0:
        log_ps /= temperature
    log_softmax(log_ps, axis=0, out=log_ps, work=ps)
    np.exp(log_ps, out=ps)


def _scratch(world: SimWorld) -> np.ndarray:
    """A (2, V, width) block scratch, width the narrowest that covers the
    world's problems in the fewest blocks of at most _BLOCK columns, so
    that no N needs a scratch much wider than its blocks."""
    n = world.config.num_problems
    return np.empty((2, world.config.vocab_size, -(-n // -(-n // _BLOCK))))


def _blocks(n: int, scratch: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(c, log_ps, ps) for consecutive column slices c of range(n), each at
    most as wide as scratch, with C-ordered (V, width of c) views on it."""
    v, width = scratch.shape[1:]
    for i in range(0, n, width):
        m = min(width, n - i)
        yield slice(i, i + m), *scratch.reshape(-1)[: 2 * v * m].reshape(2, v, m)


def _sweep(
    world: SimWorld, k: int, purposes: tuple[str, ...], direction: str | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Per purpose the (N,) successes of k rollouts per problem, each block's
    purposes drawn in turn through _draws, and with a direction the (N,) KL
    rows, from one sweep over the blocks of its own scratch. Rollouts sample
    at the rollout temperature and the KL reads temperature 1; at
    temperature 1 (dividing the logits by 1.0 is exact) both read one softmax.
    """
    n, temperature = world.config.num_problems, world.config.rollout_temperature
    scratch = _scratch(world)
    counts = {purpose: np.empty(n, dtype=np.intp) for purpose in purposes}
    kl = np.empty(n) if direction else None
    draws = _draws(world.config.seed, ((purpose, world.step, world.problem_tokens[c])
                   for c, *_ in _blocks(n, scratch) for purpose in purposes), k)
    for c, log_ps, ps in _blocks(n, scratch):
        x = world.features[c]
        _student(world, x, log_ps, ps, temperature)
        for purpose in purposes:
            hits = _categorical(ps, next(draws)) == world.answers[c]
            counts[purpose][c] = hits.sum(axis=0)
        if direction:
            if temperature != 1.0:
                _student(world, x, log_ps, ps)
            kl[c] = _kl_rows(log_ps, ps, world.teacher_log_probs.T[:, c], direction)
    return counts, kl


def _kl_rows(log_ps: np.ndarray, ps: np.ndarray, log_pt: np.ndarray, direction: str) -> np.ndarray:
    """Per-problem KL in the given direction, one per column of the (V, n)
    arrays; its terms are formed in log_ps and ps, which it overwrites."""
    if direction == "forward":
        terms = np.subtract(log_pt, log_ps, out=log_ps)
        terms *= np.exp(log_pt, out=ps)
    else:
        terms = np.subtract(log_ps, log_pt, out=log_ps)
        terms *= ps
    return _sum_axis0(terms)


def _diffs(log_ps: np.ndarray, ps: np.ndarray, teacher: np.ndarray, direction: str,
           out: np.ndarray) -> np.ndarray:
    """Logit-space gradient columns of the per-problem KL, into out. teacher
    holds the teacher's probabilities for forward and its log-probabilities
    for reverse, whose log-ratio overwrites log_ps."""
    if direction == "forward":
        return np.subtract(ps, teacher, out=out)
    ratio = np.subtract(log_ps, teacher, out=log_ps)
    ratio -= _sum_axis0(ps * ratio)
    return np.multiply(ps, ratio, out=out)


def _sampled_reverse_diffs(log_ps: np.ndarray, ps: np.ndarray, log_pt: np.ndarray,
                           u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Score-function estimate of the reverse-KL logit gradient columns from
    the (k, columns) uniforms u, into out.

    Column i of u holds the draws of the problem in column i of the (V, B)
    log_ps, ps and log_pt, from its own key (seed, "revkl", step, id) (see
    _draws); every column's cdf, draws and sum depend on that column alone,
    so any subset of columns equals those columns of the full result.
    Samples are accumulated one at a time, in draw order, for all columns
    together, so each column's sum is the same sequential sum as per
    problem. A sample's term r * (onehot - ps) is subtracted as r * ps with
    its token entry set to r * (ps - 1): both are exact negations, so the sum
    is bit-identical. The drawn entries are addressed by their flat index in
    the C-ordered arrays, and their ratios and token entries are gathered
    for all samples before the loop, which then forms each term in log_ps.
    """
    n_samples = len(u)
    ratio = np.subtract(log_ps, log_pt, out=log_ps)
    draws = _categorical(ps, u)
    del u  # frees a pass that only this call reads before the gathers below
    b = ps.shape[1]
    flat = draws.astype(np.intp) * b + np.arange(b)
    r = ratio.take(flat)
    token_terms = r * (ps.take(flat) - 1.0)
    out.fill(0.0)
    term = ratio
    for s in range(n_samples):
        np.multiply(ps, r[s], out=term)
        term.put(flat[s], token_terms[s])
        out -= term
    out /= n_samples
    return out


def _weights(world: SimWorld, counts: np.ndarray) -> np.ndarray:
    """Unit-mean weights from per-problem success counts out of rollout_count."""
    c = world.config
    return unit_mean(raw_weights(
        counts / c.rollout_count, c.scheme, c.alpha, c.beta, c.filter_lo, c.filter_hi,
        c.weight_floor,
    ))


def _checkpoint(world: SimWorld, weights: np.ndarray, counts: np.ndarray, kl: np.ndarray) -> tuple:
    """(loss, retention KL, (3,) band shares, mean pass rate) at world.step."""
    p = counts / world.config.rollout_count
    loss = np.mean(weights * kl)
    if not math.isfinite(loss):
        raise NumericError(f"checkpoint loss is {loss} at step {world.step}")
    return (loss, retention(world),
            np.bincount(bin_indices(p, THREE_BIN_EDGES), minlength=3) / p.size, p.mean())


def _live(
    world: SimWorld, weights: np.ndarray, cols: np.ndarray | slice, direction: str
) -> tuple[np.ndarray, ...]:
    """The feature rows of the problems cols, their (V, len(cols)) teacher
    columns (probabilities for forward), scales and problem tokens, and a
    (V, len(cols)) array for their gradient columns."""
    config = world.config
    teacher = world.teacher_log_probs.T[:, cols]
    if direction == "forward":
        teacher = np.exp(teacher)  # kept: every update at these weights reads it
    scale = weights[cols] / (config.batch_size or config.num_problems)
    return (world.features[cols], teacher, scale, world.problem_tokens[cols],
            np.empty((config.vocab_size, len(scale))))


def _draws(seed: int, units: Iterable[tuple[str, int, np.ndarray]], k: int) -> Iterator:
    """The (k, len(tokens)) uniforms of each (purpose, step, tokens) unit in
    turn, column j keyed (seed, purpose, step, label j) as stream() keys it:
    every per-problem draw of the simulator. Consecutive units share one
    Philox pass of at most _PASS_WORDS output words (a wider unit has its
    own), drawn when its first unit is asked for, so one pass is held at a
    time; a pass of one unit draws from that unit's keys as they are."""
    group, cap = [], _PASS_WORDS // (4 * -(-k // 4))
    for unit in itertools.chain(units, [None]):
        widths = [len(tokens) for *_, tokens in group]
        if group and (unit is None or sum(widths) + len(unit[2]) > cap):
            keys = [label_keys((seed, purpose, step), tokens) for purpose, step, tokens in group]
            keys = keys[0] if len(keys) == 1 else np.concatenate(keys)
            parts = np.split(key_uniforms(keys, k), np.cumsum(widths[:-1]), axis=1)
            while parts:  # a part's reader holds the last reference to it
                yield parts.pop(0)
            group = []
        group.append(unit)


def _descend(world: SimWorld, direction: str, live: tuple, scratch: np.ndarray,
             draws: Iterator | None) -> None:
    """The update at world.step from the rows of a _live tuple, a scratch
    block's log_ps and ps at a time (draws: each block's reverse-KL uniforms,
    or None), then one gradient product over those rows (zero with none)."""
    x, teacher, scale, _, diffs = live
    for c, log_ps, ps in _blocks(len(x), scratch):
        out = diffs[:, c]
        _student(world, x[c], log_ps, ps)
        if draws is None:
            _diffs(log_ps, ps, teacher[:, c], direction, out)
        else:
            _sampled_reverse_diffs(log_ps, ps, teacher[:, c], next(draws), out)
        out *= scale[c]
    world.theta = world.theta - world.config.learning_rate * (x.T @ diffs.T)


def _updates(world: SimWorld, weights: np.ndarray, direction: str, steps: range) -> Iterator[None]:
    """One update per next() at each of steps, which share their weights and
    direction, from the nonzero-weight problems among its rows in row order:
    all N, whose _live columns it builds once, or each step's minibatch, whose
    columns the step builds. Their reverse-KL draws share passes (see _draws).
    The zero-weight rows add only exact zeros to the product over every
    row, and while that product fits OpenBLAS's small-matrix gemm
    (M * N * K <= 1e6: 3 906 rows at F = V = 16, scipy-openblas 0.3.31),
    which adds in row order, dropping them changes no bit; past it, the
    blocked kernel groups its sums otherwise and theta can differ in its
    last bits (8.9e-16 measured).
    """
    config, kept, n, scratch = world.config, {}, world.config.num_problems, _scratch(world)
    samples = config.reverse_kl_samples if direction == "reverse" else 0
    live = None if config.batch_size else _live(
        world, weights, slice(None) if weights.all() else np.flatnonzero(weights), direction)

    def batch(step: int) -> np.ndarray:
        # Drawn once: with samples, whichever of a step's update and the pass
        # that reads its rows comes first keeps them for the other.
        rows = kept.pop(step, None)
        if rows is None:
            rows = stream(config.seed, "batch", step).choice(n, config.batch_size, replace=False)
            rows = rows[weights[rows] != 0]
            if samples:
                kept[step] = rows
        return rows

    units = (("revkl", s, tokens[c]) for s in steps
             for tokens in [world.problem_tokens[batch(s)] if live is None else live[3]]
             for c, *_ in _blocks(len(tokens), scratch))
    draws = _draws(config.seed, units, samples) if samples else None
    for step in steps:
        # A minibatch step's columns are built in the call, so they die on its return.
        _descend(world, direction, live or _live(world, weights, batch(step), direction),
                 scratch, draws)
        if not np.isfinite(world.theta).all():
            raise NumericError(f"theta is not finite after the update at step {step}")
        world.step = step + 1
        yield


def train(
    world: SimWorld,
    *,
    observe: Callable[[SimWorld, str, np.ndarray, np.ndarray | None], None] | None = None,
) -> SimMetrics:
    """Run the weighting-then-descend loop configured by world.config.

    Pass rates and weights are computed once at the start, again at the
    two-stage switch, and every recompute_interval steps when configured.
    Checkpoints (every eval_interval steps, plus step 0 and the final step)
    record state before that step's parameter update. The run walks from
    one recompute or checkpoint sweep over every problem's column blocks to
    the next, and one _updates generator, which builds the columns it reads,
    makes the updates between them: between sweeps only the weights are held.
    theta and the step counter are updated in place on the passed world, and
    the checkpoints come back as SimMetrics columns. A non-finite checkpoint
    loss or theta raises NumericError naming the step.

    observe, when given, is called as observe(world, direction, weights,
    counts) before each step's update and once more after the last one,
    after that step's checkpoint: direction is the step's loss direction,
    weights the (N,) weights in use, a new array only at a recompute, and
    counts that recompute's (N,) rollout successes, None at every other
    step. An observer must not change world (a write to a build_world array
    raises ValueError); it forms any student arrays it reads itself, as
    measure_snr does.
    """
    config, base, t_total = world.config, world.step, world.config.steps
    switch_step = 0
    if config.loss_direction == "two_stage":
        switch_step = int(round(config.stage1_fraction * t_total))
        switch_step = min(max(switch_step, 1), t_total - 1)
    interval = config.recompute_interval or t_total
    starts = {0, switch_step, *range(interval, t_total, interval)}
    grid = {*range(0, t_total, config.eval_interval), t_total}
    sweeps = sorted(starts | grid)
    checkpoints = []

    for start, stop in zip(sweeps, [*sweeps[1:], t_total + 1]):
        updates = None  # the last run of updates' columns, draws and scratch go first
        direction = config.loss_direction
        if direction == "two_stage":
            direction = "forward" if start < switch_step else "reverse"
        recompute, checkpoint = start in starts, start in grid
        purposes = ("rollout",) * recompute + ("eval",) * checkpoint
        counts, kl = _sweep(world, config.rollout_count, purposes,
                            direction if checkpoint else None)
        if recompute:
            weights = _weights(world, counts["rollout"])
        if checkpoint:
            checkpoints.append(
                (world.step, direction, *_checkpoint(world, weights, counts["eval"], kl)))

        updates = _updates(world, weights, direction, range(world.step, base + stop))
        for local in range(start, stop):
            if observe is not None:  # a recompute's counts go to its own step alone
                observe(world, direction, weights, counts.pop("rollout", None))
            if local < t_total:
                next(updates)

    step, stage, *values = zip(*checkpoints)
    return SimMetrics(
        np.array(step), stage, *map(np.array, values),
        recompute_steps=tuple(base + s for s in sorted(starts)),
        stage_switch_step=(
            base + switch_step if config.loss_direction == "two_stage" else None
        ),
    )


def measure_snr(world: SimWorld, loss_direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Fresh pass-rate estimates p (N,) and one flattened gradient per
    problem (N, F * V), in problem order.

    The pass rates count k "snr" rollouts per problem from one _sweep.
    Row i of the gradients is np.outer(features[i], diffs[i]).ravel(), the
    problem's theta gradient in logit-difference form. The (N, F * V) array
    is N-wide anyway, so the student's (V, N) distributions are formed for
    all problems at once, and the gradient columns overwrite ps.
    """
    if loss_direction not in _STAGE_DIRECTIONS:
        raise DomainError(
            f"loss_direction must be one of {_STAGE_DIRECTIONS}, got {loss_direction!r}"
        )
    k = world.config.rollout_count
    counts = _sweep(world, k, ("snr",))[0]["snr"]
    log_ps, ps = np.empty((2, world.config.vocab_size, len(counts)))
    _student(world, world.features, log_ps, ps)
    log_pt = world.teacher_log_probs.T
    teacher = np.exp(log_pt) if loss_direction == "forward" else log_pt
    diffs = _diffs(log_ps, ps, teacher, loss_direction, out=ps).T
    grads = world.features[:, :, None] * diffs[:, None, :]
    return counts / k, grads.reshape(len(counts), -1)


def retention(world: SimWorld) -> float:
    """Mean forward KL from the stored anchor targets to the current
    student, by _kl_rows on the (V, M) views of the (M, V) arrays."""
    log_current = log_softmax(world.anchor_features @ world.theta, axis=1).T
    kl = _kl_rows(log_current, np.empty_like(log_current), world.anchor_log_targets.T, "forward")
    return float(np.mean(kl))
