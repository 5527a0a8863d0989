"""File formats: rollout lines, gradient tables, profiles, metrics, configs.

All data files are plain text, UTF-8, with floats rendered at 10 significant
digits and no timestamps, so re-running a command on the same inputs yields
byte-identical files.

- Rollouts: one JSON object per line, {"problem_id": str, "outcomes": [bool]}.
  Duplicate problem ids are rejected at load.
- Gradient records: CSV with header problem_id,pass_rate,g0,...,g{D-1}, one
  row per problem; loaded into a snr_profile.GradientTable. A row with a
  non-finite value or a pass_rate outside [0, 1] is a format error; the
  writer refuses a gradient whose 10-digit rendering would parse as inf.
- SNR profiles: CSV with header bin_lo,bin_hi,mean_p,count,snr,snr_norm,
  theory_norm; undefined values are empty fields. The loader rejects a
  mean_p outside [0, 1] and a negative or non-finite snr.
- Weight tables: CSV with header problem_id,p,w,w_norm.
- Simulation metrics: CSV, one checkpoint per row.
- Simulation configs: INI-style sections [world], [rollouts], [weighting],
  [training]; every key optional, falling back to SimConfig defaults. The
  full schema is documented in the README.
"""

from __future__ import annotations

import configparser
import json
import math
from typing import IO, Iterable, Sequence

import numpy as np

from .distill_sim import SimConfig, SimMetrics
from .errors import ConfigError, DomainError, FileFormatError
from .passrate import RolloutRecord
from .snr_profile import GradientTable, SnrProfile

__all__ = [
    "fmt",
    "load_rollouts",
    "load_gradient_records",
    "write_gradient_records",
    "write_profile",
    "load_profile_points",
    "write_weight_table",
    "write_metrics",
    "load_sim_config",
]


def fmt(x: float) -> str:
    """Canonical float rendering: 10 significant digits."""
    return f"{x:.10g}"


def _opt(x: float | None) -> str:
    return "" if x is None else fmt(x)


def load_rollouts(lines: Iterable[str]) -> list[RolloutRecord]:
    """Parse rollout records from JSON lines; blank lines are skipped."""
    records: list[RolloutRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # Besides JSONDecodeError, an integer literal past Python's
            # digit limit raises ValueError and deep nesting RecursionError.
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
            raise FileFormatError(f"line {lineno}: invalid JSON ({reason})") from exc
        if not isinstance(obj, dict) or "problem_id" not in obj or "outcomes" not in obj:
            raise FileFormatError(
                f"line {lineno}: expected keys problem_id and outcomes"
            )
        pid = obj["problem_id"]
        outcomes = obj["outcomes"]
        if not isinstance(pid, str) or not pid:
            raise FileFormatError(f"line {lineno}: problem_id must be a non-empty string")
        if not isinstance(outcomes, list) or not outcomes or not all(
            isinstance(o, bool) for o in outcomes
        ):
            raise FileFormatError(
                f"line {lineno}: outcomes must be a non-empty array of booleans"
            )
        if pid in seen:
            raise FileFormatError(f"line {lineno}: duplicate problem_id {pid!r}")
        seen.add(pid)
        records.append(RolloutRecord(problem_id=pid, outcomes=tuple(outcomes)))
    return records


def _parse_floats(rows: Sequence[str]) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def load_gradient_records(lines: Iterable[str]) -> GradientTable:
    """Parse a gradient table from the delimited format; blank lines are skipped."""
    it = iter(enumerate(lines, start=1))
    try:
        _, header = next(it)
    except StopIteration:
        raise FileFormatError("gradient file is empty") from None
    cols = header.strip().split(",")
    if cols[:2] != ["problem_id", "pass_rate"] or len(cols) < 3:
        raise FileFormatError(
            "line 1: header must be problem_id,pass_rate,g0,...,g{D-1}"
        )
    dim = len(cols) - 2
    ids: list[str] = []
    rows: list[str] = []  # each row's fields after the id
    linenos: list[int] = []
    for lineno, line in it:
        text = line.strip()
        if not text:
            continue
        fields = text.count(",") + 1
        if fields != dim + 2:
            raise FileFormatError(
                f"line {lineno}: expected {dim + 2} fields, got {fields}"
            )
        pid, _, rest = text.partition(",")
        if not pid:
            raise FileFormatError(f"line {lineno}: empty problem_id")
        ids.append(pid)
        rows.append(rest)
        linenos.append(lineno)
    if not ids:
        raise FileFormatError("gradient file has a header but no records")
    try:
        values = _parse_floats(rows)
    except ValueError as exc:
        # Rows parse independently: report the first that fails on its own.
        where, error = "", exc
        for lineno, row in zip(linenos, rows):
            try:
                _parse_floats([row])
            except ValueError as row_exc:
                where, error = f"line {lineno}: ", row_exc
                break
        detail = str(error).split(" at row ")[0]
        raise FileFormatError(f"{where}non-numeric field ({detail})") from exc
    bad = GradientTable.invalid_rows(values[:, 0], values[:, 1:])
    if bad.any():
        raise FileFormatError(
            f"line {linenos[int(np.argmax(bad))]}: values must be finite and "
            "pass_rate must lie in [0,1]"
        )
    return GradientTable(tuple(ids), values[:, 0], values[:, 1:])


# The smallest double whose 10-digit rendering, 1.797693135e+308, parses to
# inf; a gradient this large would be written as a row the loader rejects.
_RENDERS_AS_INF = 1.7976931345e308


def write_gradient_records(f: IO[str], table: GradientTable) -> None:
    """Write a gradient table; refuses, before writing, any gradient whose
    10-digit rendering would parse back as inf."""
    too_large = (np.abs(table.gradients) >= _RENDERS_AS_INF).any(axis=1)
    if too_large.any():
        pid = table.problem_ids[int(np.argmax(too_large))]
        raise DomainError(
            f"problem {pid!r}: a gradient of magnitude >= {_RENDERS_AS_INF!r} "
            "renders at 10 significant digits as inf"
        )
    dim = table.gradients.shape[1]
    header = ["problem_id", "pass_rate"] + [f"g{i}" for i in range(dim)]
    f.write(",".join(header) + "\n")
    # "%.10g" renders exactly as fmt() does.
    row_fmt = "%s" + ",%.10g" * (dim + 1) + "\n"
    for pid, p, grad in zip(table.problem_ids, table.p.tolist(), table.gradients):
        f.write(row_fmt % (pid, p, *grad.tolist()))


_PROFILE_HEADER = "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"


def write_profile(f: IO[str], profile: SnrProfile) -> None:
    f.write(_PROFILE_HEADER + "\n")
    for b in profile.bins:
        fields = [
            fmt(b.lo),
            fmt(b.hi),
            _opt(b.mean_p),
            str(b.count),
            _opt(b.snr),
            _opt(b.snr_norm),
            _opt(b.theory_norm),
        ]
        f.write(",".join(fields) + "\n")


def load_profile_points(lines: Iterable[str]) -> list[tuple[float, float]]:
    """(mean_p, snr) pairs of the defined, interior bins of a profile file."""
    it = iter(enumerate(lines, start=1))
    try:
        _, header = next(it)
    except StopIteration:
        raise FileFormatError("profile file is empty") from None
    if header.strip() != _PROFILE_HEADER:
        raise FileFormatError(f"line 1: header must be {_PROFILE_HEADER}")
    points: list[tuple[float, float]] = []
    for lineno, line in it:
        text = line.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 7:
            raise FileFormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        mean_p, snr = parts[2], parts[4]
        if mean_p == "" or snr == "":
            continue
        try:
            p, s = float(mean_p), float(snr)
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: non-numeric field ({exc})") from exc
        if not (0.0 <= p <= 1.0 and 0.0 <= s < math.inf):
            raise FileFormatError(
                f"line {lineno}: mean_p must lie in [0,1] and snr must be finite "
                f"and >= 0, got {mean_p}, {snr}"
            )
        if 0.0 < p < 1.0:
            points.append((p, s))
    return points


def write_weight_table(
    f: IO[str], rows: Sequence[tuple[str, float, float, float]]
) -> None:
    f.write("problem_id,p,w,w_norm\n")
    for pid, p, w, w_norm in rows:
        f.write(f"{pid},{fmt(p)},{fmt(w)},{fmt(w_norm)}\n")


def write_metrics(f: IO[str], metrics: SimMetrics) -> None:
    f.write(
        "step,stage,loss,train_acc,retention_kl,frac_low,frac_med,frac_high,mean_p\n"
    )
    for r in metrics.rows:
        fields = [
            str(r.step),
            r.stage,
            fmt(r.loss),
            fmt(r.train_acc),
            fmt(r.retention_kl),
            fmt(r.frac_low),
            fmt(r.frac_med),
            fmt(r.frac_high),
            fmt(r.mean_p),
        ]
        f.write(",".join(fields) + "\n")


_CONFIG_SCHEMA: dict[str, dict[str, tuple[str, type]]] = {
    "world": {
        "num_problems": ("num_problems", int),
        "num_anchors": ("num_anchors", int),
        "feature_dim": ("feature_dim", int),
        "vocab_size": ("vocab_size", int),
        "difficulty_spread": ("difficulty_spread", float),
        "teacher_sharpness": ("teacher_sharpness", float),
        "seed": ("seed", int),
    },
    "rollouts": {
        "count": ("rollout_count", int),
        "temperature": ("rollout_temperature", float),
    },
    "weighting": {
        "scheme": ("scheme", str),
        "alpha": ("alpha", float),
        "beta": ("beta", float),
        "filter_lo": ("filter_lo", float),
        "filter_hi": ("filter_hi", float),
        "weight_floor": ("weight_floor", float),
        "recompute_interval": ("recompute_interval", int),
    },
    "training": {
        "loss_direction": ("loss_direction", str),
        "stage1_fraction": ("stage1_fraction", float),
        "learning_rate": ("learning_rate", float),
        "steps": ("steps", int),
        "batch_size": ("batch_size", int),
        "reverse_kl_samples": ("reverse_kl_samples", int),
        "eval_interval": ("eval_interval", int),
    },
}

# Keys whose value may be the literal "none"/"full" meaning "not set".
_OPTIONAL_NONE = {"recompute_interval": ("none",), "batch_size": ("full", "none")}


def load_sim_config(text: str, overrides: dict[str, object] | None = None) -> SimConfig:
    """Parse an INI-style simulation config, applying CLI overrides last."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            field_name, caster = _CONFIG_SCHEMA[section][key]
            if key in _OPTIONAL_NONE and raw.lower() in _OPTIONAL_NONE[key]:
                values[field_name] = None
                continue
            try:
                value: object = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"config key {key!r} in [{section}]: cannot parse {raw!r} "
                    f"as {caster.__name__}"
                ) from exc
            values[field_name] = value

    # Overrides are applied verbatim: the caller includes only flags that
    # were actually provided, and a None value forces the field to None.
    if overrides:
        values.update(overrides)
    return SimConfig(**values)
