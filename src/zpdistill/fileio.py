"""File formats: rollout lines, gradient tables, profiles, metrics, configs.

All data files are plain text, UTF-8, with floats rendered at 10 significant
digits and no timestamps, so re-running a command on the same inputs yields
byte-identical files.

- Rollouts: one JSON object per line, {"problem_id": str, "outcomes": [bool]};
  loaded into a passrate.RolloutTable of per-problem successes and k.
  Duplicate problem ids are rejected at load.
- Gradient records: CSV with header problem_id,pass_rate,g0,...,g{D-1}, one
  row per problem; loaded into a snr_profile.GradientTable. A row with a
  non-finite value or a pass_rate outside [0, 1] is a format error; the
  writer refuses a gradient whose 10-digit rendering would parse as inf.
- SNR profiles: CSV with header bin_lo,bin_hi,mean_p,count,snr,snr_norm,
  theory_norm; undefined values are empty fields. The loader rejects a
  mean_p outside [0, 1] and a negative or non-finite snr; the writer
  refuses an snr whose 10-digit rendering would parse as inf.
- Weight tables: CSV with header problem_id,p,w,w_norm, written from arrays.
- Simulation metrics: CSV, one checkpoint per row.
- Simulation configs: INI-style sections [world], [rollouts], [weighting],
  [training]; every key optional, falling back to SimConfig defaults. The
  schema comes from SimConfig: one table puts each field in a section, and
  parse_config_value parses a value by its field's annotation for both the
  file and the CLI's override flags. The README documents every key.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
from typing import IO, Iterable, Sequence

import numpy as np

from .distill_sim import SimConfig, SimMetrics
from .errors import ConfigError, DomainError, FileFormatError
from .passrate import RolloutTable
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
    "parse_config_value",
]


def fmt(x: float) -> str:
    """Canonical float rendering: 10 significant digits."""
    return f"{x:.10g}"


def _opt(x: float | None) -> str:
    return "" if x is None else fmt(x)


def load_rollouts(lines: Iterable[str]) -> RolloutTable:
    """Parse per-problem rollout counts from JSON lines; blank lines are
    skipped. Each line is parsed on its own, so an error names its line."""
    ids: list[str] = []
    successes: list[int] = []
    k: list[int] = []
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
        if type(obj) is not dict or "problem_id" not in obj or "outcomes" not in obj:
            raise FileFormatError(
                f"line {lineno}: expected keys problem_id and outcomes"
            )
        pid = obj["problem_id"]
        outcomes = obj["outcomes"]
        if type(pid) is not str or not pid:
            raise FileFormatError(f"line {lineno}: problem_id must be a non-empty string")
        if type(outcomes) is not list or not outcomes or not all(
            type(o) is bool for o in outcomes
        ):
            raise FileFormatError(
                f"line {lineno}: outcomes must be a non-empty array of booleans"
            )
        if pid in seen:
            raise FileFormatError(f"line {lineno}: duplicate problem_id {pid!r}")
        seen.add(pid)
        ids.append(pid)
        successes.append(outcomes.count(True))
        k.append(len(outcomes))
    return RolloutTable(
        tuple(ids), np.array(successes, dtype=np.int64), np.array(k, dtype=np.int64)
    )


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
# inf; a value this large would be written as a row the loader rejects.
_RENDERS_AS_INF = 1.7976931345e308


def _refuse_inf_renderings(values: np.ndarray, kind: str, names: Sequence) -> None:
    """Raise DomainError naming (names[i]) the first row of values that holds
    a value whose 10-digit rendering would parse back as inf."""
    rows = np.nonzero(np.abs(values) >= _RENDERS_AS_INF)[0]
    if rows.size:
        raise DomainError(
            f"{kind} {names[rows[0]]!r}: a value of magnitude >= "
            f"{_RENDERS_AS_INF!r} renders at 10 significant digits as inf"
        )


def write_gradient_records(f: IO[str], table: GradientTable) -> None:
    """Write a gradient table; refuses, before writing, any gradient whose
    10-digit rendering would parse back as inf."""
    _refuse_inf_renderings(table.gradients, "problem", table.problem_ids)
    dim = table.gradients.shape[1]
    header = ["problem_id", "pass_rate"] + [f"g{i}" for i in range(dim)]
    f.write(",".join(header) + "\n")
    # "%.10g" renders exactly as fmt() does.
    row_fmt = "%s" + ",%.10g" * (dim + 1) + "\n"
    for pid, p, grad in zip(table.problem_ids, table.p.tolist(), table.gradients):
        f.write(row_fmt % (pid, p, *grad.tolist()))


_PROFILE_HEADER = "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"


def write_profile(f: IO[str], profile: SnrProfile) -> None:
    """Write a profile; refuses, before writing, any snr whose 10-digit
    rendering would parse back as inf."""
    snr = np.array([b.snr or 0.0 for b in profile.bins])
    _refuse_inf_renderings(snr, "bin", range(len(snr)))
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
    f: IO[str], problem_ids: Sequence[str], p: np.ndarray, raw: np.ndarray,
    normalized: np.ndarray,
) -> None:
    """Write one row per problem: its id, pass rate, raw and normalized weight."""
    f.write("problem_id,p,w,w_norm\n")
    columns = (np.asarray(c, dtype=np.float64).tolist() for c in (p, raw, normalized))
    # "%.10g" renders exactly as fmt() does.
    f.writelines("%s,%.10g,%.10g,%.10g\n" % row for row in zip(problem_ids, *columns))


def write_metrics(f: IO[str], metrics: SimMetrics) -> None:
    f.write(
        "step,stage,loss,train_acc,retention_kl,frac_low,frac_med,frac_high,mean_p\n"
    )
    for r in metrics.rows:
        fields = [
            str(r.step),
            r.stage,
            fmt(r.loss),
            fmt(r.mean_p),  # the train_acc column
            fmt(r.retention_kl),
            fmt(r.frac_low),
            fmt(r.frac_med),
            fmt(r.frac_high),
            fmt(r.mean_p),
        ]
        f.write(",".join(fields) + "\n")


# SimConfig fields by INI section. A key is its field's name, except in
# [rollouts], which drops the "rollout_" prefix.
_SECTIONS = {
    "world": ("num_problems", "num_anchors", "feature_dim", "vocab_size",
              "difficulty_spread", "teacher_sharpness", "seed"),
    "rollouts": ("rollout_count", "rollout_temperature"),
    "weighting": ("scheme", "alpha", "beta", "filter_lo", "filter_hi",
                  "weight_floor", "recompute_interval"),
    "training": ("loss_direction", "stage1_fraction", "learning_rate", "steps",
                 "batch_size", "reverse_kl_samples", "eval_interval"),
}
_KEYS = {s: {n.removeprefix("rollout_"): n for n in names} for s, names in _SECTIONS.items()}
_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig)}
_CASTERS = {"int": int, "float": float, "str": str, "int | None": int}
# The words an optional (int | None) field reads as None.
_NONE_WORDS = {"batch_size": ("none", "full")}


def parse_config_value(name: str, raw: str, where: str) -> object:
    """SimConfig field `name` parsed from `raw`; a ConfigError names `where`."""
    caster = _CASTERS[_TYPES[name]]
    words = _NONE_WORDS.get(name, ("none",)) if _TYPES[name] == "int | None" else ()
    if raw.strip().lower() in words:
        return None
    try:
        return caster(raw)
    except ValueError as exc:
        want = " or ".join([caster.__name__, *map(repr, words)])
        raise ConfigError(f"{where}: cannot parse {raw!r} as {want}") from exc


def load_sim_config(text: str, overrides: dict[str, object] | None = None) -> SimConfig:
    """Parse an INI-style simulation config, then apply overrides (field
    values, verbatim: None forces an optional field to None)."""
    # No section header can hold a newline, so a file's [DEFAULT] is an
    # ordinary, unknown section instead of defaults copied into every section.
    parser = configparser.ConfigParser(default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            name = _KEYS[section][key]
            values[name] = parse_config_value(name, raw, f"config key {key!r} in [{section}]")
    values.update(overrides or {})
    return SimConfig(**values)
