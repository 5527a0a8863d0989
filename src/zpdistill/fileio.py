"""File formats: rollout lines, gradient tables, profiles, metrics, configs.

All data files are plain text, UTF-8, with floats rendered at 10 significant
digits and no timestamps, so re-running a command on the same inputs yields
byte-identical files. Every loader skips blank lines and reports the first
malformed line in file order, naming it. The gradient and weight-table
writers refuse, naming it, a problem id that a CSV row cannot hold as it is
(_refuse_unwritable_ids).

- Rollouts: one JSON object per line, {"problem_id": str, "outcomes": [bool]};
  loaded into a passrate.RolloutTable of per-problem successes and k.
  Duplicate problem ids are rejected at load.
- Gradient records: CSV with header problem_id,pass_rate,g0,...,g{D-1}, one
  row per problem; loaded into a snr_profile.GradientTable. Rows are parsed
  in fixed-size chunks, so the loader's peak memory is the table plus one
  chunk's text, not the whole file's, and it reads no line past the chunk
  that holds the first malformed one. A row with a non-finite value or a
  pass_rate outside [0, 1] is a format error; the writer refuses a gradient
  whose 10-digit rendering would parse as inf.
- SNR profiles: CSV with header bin_lo,bin_hi,mean_p,count,snr,snr_norm,
  theory_norm; undefined values, NaN in a profile, are empty fields. The
  loader reads the mean_p and snr columns, an empty field as NaN, and
  rejects a mean_p outside [0, 1] and a negative or non-finite snr; the
  writer refuses an snr whose 10-digit rendering would parse as inf.
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
import itertools
import json
import math
import re
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


def _opt(x: float) -> str:
    return "" if math.isnan(x) else fmt(x)


# json.loads less its per-call wrapper; load_rollouts repeats the checks
# that matter on a stripped line, with json's messages.
_raw_decode = json.JSONDecoder().raw_decode


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
            if text.startswith("\ufeff"):
                bom = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
                raise json.JSONDecodeError(bom, text, 0)
            obj, end = _raw_decode(text)
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
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


# Lines per np.loadtxt call: the loader holds one chunk's text at a time.
_CHUNK_LINES = 1024


def _parse_rows(rows: Sequence[str], width: int) -> np.ndarray:
    """rows as a (len(rows), width) array; ValueError unless every row holds
    width numbers, also when all rows agree on another count."""
    values = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    if values.shape != (len(rows), width):
        raise ValueError(f"expected {width} columns in each of {len(rows)} rows")
    return values


def _checked_lines(
    parts: Sequence[tuple[str, str, str]], first: int, dim: int
) -> tuple[list[str], np.ndarray]:
    """The ids and (n, dim + 1) values of a chunk's non-blank lines, each
    checked on its own; parts are the chunk's stripped lines split at the
    first comma, from line `first` on. Raises on the first malformed line."""
    pids: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, (pid, comma, row) in enumerate(parts, start=first):
        if not (pid or comma):
            continue
        fields = row.count(",") + 2 if comma else 1
        if fields != dim + 2:
            raise FileFormatError(f"line {lineno}: expected {dim + 2} fields, got {fields}")
        if not pid:
            raise FileFormatError(f"line {lineno}: empty problem_id")
        try:
            values = _parse_rows([row], dim + 1)
        except ValueError as exc:
            detail = str(exc).split(" at row ")[0]
            raise FileFormatError(f"line {lineno}: non-numeric field ({detail})") from exc
        if GradientTable.invalid_rows(values[:, 0], values[:, 1:])[0]:
            raise FileFormatError(
                f"line {lineno}: values must be finite and pass_rate must lie in [0,1]"
            )
        pids.append(pid)
        rows.append(values[0])
    return pids, np.array(rows, dtype=np.float64).reshape(-1, dim + 1)


def load_gradient_records(lines: Iterable[str]) -> GradientTable:
    """Parse a gradient table from the delimited format; blank lines are skipped.

    Lines are parsed _CHUNK_LINES at a time, each chunk by one np.loadtxt call
    into one growing array. A chunk that fails to parse, or holds a blank
    line, a non-finite value or a pass_rate outside [0, 1], is checked again
    one line at a time, so an error names the first malformed line.
    """
    it = iter(lines)
    header = next(it, None)
    if header is None:
        raise FileFormatError("gradient file is empty")
    cols = header.strip().split(",")
    dim = len(cols) - 2
    if dim < 1 or cols != ["problem_id", "pass_rate", *(f"g{j}" for j in range(dim))]:
        raise FileFormatError("line 1: header must be problem_id,pass_rate,g0,...,g{D-1}")
    ids: list[str] = []
    values = np.empty((0, dim + 1))
    for first in itertools.count(2, _CHUNK_LINES):
        parts = [line.strip().partition(",") for line in itertools.islice(it, _CHUNK_LINES)]
        if not parts:
            break
        pids = [part[0] for part in parts]
        rows = [part[2] for part in parts]
        try:
            if "" in pids or "" in rows:
                raise ValueError("a blank line, or one with an empty id or too few fields")
            chunk = _parse_rows(rows, dim + 1)
            if GradientTable.invalid_rows(chunk[:, 0], chunk[:, 1:]).any():
                raise ValueError("a non-finite value or a pass_rate outside [0, 1]")
        except ValueError:
            pids, chunk = _checked_lines(parts, first, dim)
        del parts, rows  # free the chunk's text before values grows
        # No view of values exists yet, so it may be resized in place; realloc
        # extends or remaps the block rather than copying it.
        values.resize((len(ids) + len(chunk), dim + 1), refcheck=False)
        values[len(ids):] = chunk
        ids += pids
    if not ids:
        raise FileFormatError("gradient file has a header but no records")
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


# What a written problem id may not hold: a comma, a double quote, CR, LF, a
# lone surrogate (UTF-8 has no encoding for it), or whitespace at either end.
# The ids are searched joined by LF, one per line, so [^\S\n] is whitespace
# but the separator, and an id that holds an LF adds a line.
_UNWRITABLE_ID = re.compile(r'[,"\r\ud800-\udfff]|^[^\S\n]|[^\S\n]$', re.M)


def _refuse_unwritable_ids(ids: Sequence[str]) -> None:
    """Raise DomainError naming the first id a CSV row cannot hold as it is;
    every id is checked in one search of the joined ids."""
    joined = "\n".join(ids)
    if len(ids) and (joined.count("\n") >= len(ids) or _UNWRITABLE_ID.search(joined)):
        bad = next(pid for pid in ids if "\n" in pid or _UNWRITABLE_ID.search(pid))
        raise DomainError(
            f"problem {bad!r}: an id with a comma, a double quote, CR, LF, a lone "
            "surrogate or whitespace at either end cannot be written"
        )


def write_gradient_records(f: IO[str], table: GradientTable) -> None:
    """Write a gradient table; refuses, before writing, any id that
    _refuse_unwritable_ids names and any gradient whose 10-digit rendering
    would parse back as inf."""
    _refuse_unwritable_ids(table.problem_ids)
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
    """Write a profile, a NaN as an empty field; refuses, before writing,
    any snr whose 10-digit rendering would parse back as inf."""
    _refuse_inf_renderings(profile.snr, "bin", range(len(profile.snr)))
    f.write(_PROFILE_HEADER + "\n")
    columns = (profile.mean_p, profile.count, profile.snr, profile.snr_norm,
               profile.theory_norm)
    rows = zip(profile.edges[:-1].tolist(), profile.edges[1:].tolist(),
               *(c.tolist() for c in columns))
    for lo, hi, mean_p, count, *rest in rows:
        fields = [fmt(lo), fmt(hi), _opt(mean_p), str(count), *map(_opt, rest)]
        f.write(",".join(fields) + "\n")


def load_profile_points(lines: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """The (B,) mean_p and snr columns of a profile file, NaN for an empty
    field; the other five fields are checked but not kept."""
    it = iter(enumerate(lines, start=1))
    try:
        _, header = next(it)
    except StopIteration:
        raise FileFormatError("profile file is empty") from None
    if header.strip() != _PROFILE_HEADER:
        raise FileFormatError(f"line 1: header must be {_PROFILE_HEADER}")
    rows: list[tuple[float, float]] = []
    for lineno, line in it:
        text = line.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 7:
            raise FileFormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        lo, hi, mean_p, count, snr, *norms = parts
        floats = [lo, hi, mean_p, snr, *norms]
        try:  # bin_lo and bin_hi are numbers, the other float fields numbers or empty
            _, _, p, s, *_ = values = [float(x) if x or i < 2 else math.nan
                                       for i, x in enumerate(floats)]
            if sum(map(math.isnan, values)) > floats.count(""):
                raise ValueError("a NaN is written as an empty field")
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: non-numeric field ({exc})") from exc
        if not (count.isascii() and count.isdigit()):
            raise FileFormatError(f"line {lineno}: count must be an integer >= 0, got {count!r}")
        if not ((not mean_p or 0.0 <= p <= 1.0) and (not snr or 0.0 <= s < math.inf)):
            raise FileFormatError(
                f"line {lineno}: mean_p must lie in [0,1] and snr must be finite "
                f"and >= 0, got {mean_p}, {snr}"
            )
        rows.append((p, s))
    mean_p, snr = np.array(rows, dtype=np.float64).reshape(-1, 2).T
    return mean_p, snr


def write_weight_table(
    f: IO[str], problem_ids: Sequence[str], p: np.ndarray, raw: np.ndarray,
    normalized: np.ndarray,
) -> None:
    """Write one row per problem: its id, pass rate, raw and normalized
    weight; refuses, before writing, any id that _refuse_unwritable_ids names."""
    _refuse_unwritable_ids(problem_ids)
    f.write("problem_id,p,w,w_norm\n")
    columns = (np.asarray(c, dtype=np.float64).tolist() for c in (p, raw, normalized))
    # "%.10g" renders exactly as fmt() does.
    f.writelines("%s,%.10g,%.10g,%.10g\n" % row for row in zip(problem_ids, *columns))


def write_metrics(f: IO[str], metrics: SimMetrics) -> None:
    """One CSV row per checkpoint column entry; mean_p fills train_acc too."""
    f.write("step,stage,loss,train_acc,retention_kl,frac_low,frac_med,frac_high,mean_p\n")
    columns = [c.tolist() for c in (metrics.loss, metrics.mean_p, metrics.retention_kl,
                                    *metrics.fractions.T, metrics.mean_p)]
    for step, stage, *values in zip(metrics.step.tolist(), metrics.stage, *columns):
        f.write(f"{step},{stage}," + ",".join(map(fmt, values)) + "\n")


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
    # A value is read as written, % and all, less a " ;" comment.
    parser = configparser.ConfigParser(default_section="\n", interpolation=None,
                                       inline_comment_prefixes=(";",))
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
