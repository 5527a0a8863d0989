import configparser
import csv
import dataclasses
import io
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zpdistill import fileio
from zpdistill.distill_sim import SimConfig, build_world, measure_snr, train
from zpdistill.errors import ConfigError, DomainError, FileFormatError
from zpdistill.fileio import (
    fmt,
    load_gradient_records,
    load_profile_points,
    load_rollouts,
    load_sim_config,
    parse_config_value,
    write_gradient_records,
    write_metrics,
    write_profile,
    write_weight_table,
)
from zpdistill.passrate import RolloutTable
from zpdistill.robustness import fit_snr_model
from zpdistill.snr_profile import (
    GradientTable,
    SnrProfile,
    compute_snr_bins,
    normalize_profile,
)

_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN_CFG = _ROOT / "configs" / "golden.cfg"


class TestFmt:
    def test_ten_significant_digits(self):
        assert fmt(3.14159265358979) == "3.141592654"
        assert fmt(1.0) == "1"
        assert fmt(0.25) == "0.25"
        assert fmt(1e-10) == "1e-10"
        assert fmt(-2.5) == "-2.5"


class TestLoadRollouts:
    def test_happy_path_with_blank_lines(self):
        lines = [
            '{"problem_id": "a", "outcomes": [true, false]}',
            "",
            '{"problem_id": "b", "outcomes": [true]}',
            "   ",
        ]
        table = load_rollouts(lines)
        assert table.problem_ids == ("a", "b")
        assert table.successes.tolist() == [1, 1]
        assert table.k.tolist() == [2, 1]

    def test_bad_json_names_line(self):
        with pytest.raises(FileFormatError, match="line 2"):
            load_rollouts(['{"problem_id": "a", "outcomes": [true]}', "{broken"])

    def test_missing_keys(self):
        with pytest.raises(FileFormatError, match="line 1"):
            load_rollouts(['{"problem_id": "a"}'])

    def test_non_boolean_outcomes(self):
        with pytest.raises(FileFormatError, match="boolean"):
            load_rollouts(['{"problem_id": "a", "outcomes": [1, 0]}'])

    def test_empty_outcomes(self):
        with pytest.raises(FileFormatError, match="non-empty"):
            load_rollouts(['{"problem_id": "a", "outcomes": []}'])

    def test_empty_problem_id(self):
        with pytest.raises(FileFormatError, match="problem_id"):
            load_rollouts(['{"problem_id": "", "outcomes": [true]}'])

    def test_duplicate_id_names_line(self):
        lines = [
            '{"problem_id": "a", "outcomes": [true]}',
            '{"problem_id": "b", "outcomes": [true]}',
            '{"problem_id": "a", "outcomes": [false]}',
        ]
        with pytest.raises(FileFormatError, match="line 3.*duplicate"):
            load_rollouts(lines)

    @pytest.mark.parametrize(
        "line",
        [
            '{"problem_id": "a", "outcomes": [' + "1" * 5000 + "]}",
            "[" * 100000,
        ],
        ids=["past_the_integer_digit_limit", "nested_past_the_recursion_limit"],
    )
    def test_json_beyond_python_limits_is_a_format_error(self, line):
        with pytest.raises(FileFormatError, match="line 2: invalid JSON"):
            load_rollouts(['{"problem_id": "a", "outcomes": [true]}', line])

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('\ufeff{"problem_id": "a", "outcomes": [true]}',
             "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ('{"problem_id": "a", "outcomes": [true]} {}', "Extra data"),
            ('{"problem_id": "a", "outcomes": [true]}]', "Extra data"),
            ('{"problem_id": "a", "outcomes": [true]', "Expecting ',' delimiter"),
        ],
        ids=["byte_order_mark", "two_values", "trailing_bracket", "unclosed_object"],
    )
    def test_invalid_json_names_json_reason(self, line, reason):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(line.strip())
        assert want.value.msg == reason
        with pytest.raises(FileFormatError) as got:
            load_rollouts(['{"problem_id": "b", "outcomes": [true]}', line])
        assert str(got.value) == f"line 2: invalid JSON ({reason})"

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=8), st.lists(st.booleans(), min_size=1, max_size=9),
                      st.sampled_from(["", "\n", "  \n"])),
            max_size=6,
            unique_by=lambda row: row[0],
        )
    )
    def test_round_trip(self, rows):
        # Oracle: json.loads of each line, then sum and len of its outcomes.
        lines = [json.dumps({"problem_id": pid, "outcomes": outcomes}) for pid, outcomes, _ in rows]
        text = "".join(line + "\n" + blank for line, (_, _, blank) in zip(lines, rows))
        table = load_rollouts(io.StringIO(text))
        parsed = [json.loads(line) for line in lines]
        assert table.problem_ids == tuple(obj["problem_id"] for obj in parsed)
        assert table.successes.tolist() == [sum(obj["outcomes"]) for obj in parsed]
        assert table.k.tolist() == [len(obj["outcomes"]) for obj in parsed]
        assert table.p.tolist() == [sum(obj["outcomes"]) / len(obj["outcomes"]) for obj in parsed]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text('{}[]":, 0123456789.eE+-truefalsnul\n\\'),
                     st.text('{}[]":, truefalsproblem_idoutcomes\n')))
    def test_arbitrary_text_raises_only_format_errors(self, text):
        for lines in (text.splitlines(), io.StringIO(text)):
            try:
                table = load_rollouts(lines)
            except FileFormatError:
                continue
            assert isinstance(table, RolloutTable)
            assert np.all((table.p >= 0.0) & (table.p <= 1.0))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text('\ufeff{}[]":, 0123456789.eE+-truefalsnul\t\\')))
    def test_each_line_decodes_as_json_loads_does(self, line):
        # Oracle: json.loads on the stripped line, its value or its message.
        text = line.strip()
        if not text:
            return
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            with pytest.raises(FileFormatError, match=re.escape(f"invalid JSON ({exc.msg})")):
                load_rollouts([line])
            return
        try:
            table = load_rollouts([line])
        except FileFormatError as exc:
            assert "invalid JSON" not in str(exc)
            return
        assert (table.problem_ids, table.successes.tolist()) == (
            (obj["problem_id"],), [obj["outcomes"].count(True)]
        )


def _write_table(table: GradientTable) -> str:
    buf = io.StringIO()
    write_gradient_records(buf, table)
    return buf.getvalue()


def _unwritable(pid):
    """The writers' id rule, one id at a time: a comma, a double quote, CR,
    LF, a lone surrogate, or whitespace at either end."""
    return (any(c in ',"\r\n' or "\ud800" <= c <= "\udfff" for c in pid)
            or pid != pid.strip())


# Ids from any text, or from the characters the rule and the loaders turn on.
_IDS = st.lists(st.text(min_size=1) | st.text(' ,"\r\n\t\x85\u2028\ud800ab', min_size=1),
                min_size=1, max_size=4)


def _float_parse(lines):
    """Reference parse of gradient rows: float() on every field after the id."""
    return np.array([[float(v) for v in line.split(",")[1:]] for line in lines])


def _per_line_load(lines: Iterable[str]) -> GradientTable:
    """The gradient format read plainly as the oracle: each line is checked
    and parsed on its own, and the first malformed line is reported."""
    it = iter(enumerate(lines, start=1))
    try:
        _, header = next(it)
    except StopIteration:
        raise FileFormatError("gradient file is empty") from None
    cols = header.strip().split(",")
    dim = len(cols) - 2
    names = [f"g{j}" for j in range(dim)]
    if cols[:2] != ["problem_id", "pass_rate"] or cols[2:] != names or dim < 1:
        raise FileFormatError(
            "line 1: header must be problem_id,pass_rate,g0,...,g{D-1}"
        )
    ids: list[str] = []
    rows: list[np.ndarray] = []
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
        try:
            row = np.loadtxt([rest], delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            if row.shape != (1, dim + 1):
                raise ValueError(f"expected {dim + 1} columns in each of 1 rows")
        except ValueError as exc:
            detail = str(exc).split(" at row ")[0]
            raise FileFormatError(f"line {lineno}: non-numeric field ({detail})") from exc
        if not (0.0 <= row[0, 0] <= 1.0 and np.isfinite(row).all()):
            raise FileFormatError(
                f"line {lineno}: values must be finite and pass_rate must lie in [0,1]"
            )
        ids.append(pid)
        rows.append(row[0])
    if not ids:
        raise FileFormatError("gradient file has a header but no records")
    values = np.array(rows)
    return GradientTable(tuple(ids), values[:, 0], values[:, 1:])


def _outcome(load, lines):
    """What a loader makes of lines: the table's ids, shape and bytes, or the
    FileFormatError message."""
    try:
        table = load(lines)
    except FileFormatError as exc:
        return str(exc)
    return table.problem_ids, table.gradients.shape, table.p.tobytes(), table.gradients.tobytes()


# Fields that parse, with whitespace around some; fields that do not; and
# fields that parse to a value the table rejects.
_GOOD_P = ["0", "1", "0.5", " 0.25", "0.75 ", "\t1e-3", "1e-320"]
_GOOD_G = _GOOD_P + ["-2.5e+2", "1e308", " -7\t"]
_BAD = ["nan", "inf", "-1e999", "1.5", "-0.5", "x", "", " ", "0x10", "1_0", "\r", "1\r2", "-"]


@st.composite
def _gradient_text(draw):
    """A header and rows that are mostly well formed, with blank lines, stray
    text and faults of every kind mixed in."""
    dim = draw(st.integers(1, 3))
    lines = ["problem_id,pass_rate," + ",".join(f"g{j}" for j in range(dim))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 39))
        if kind < 2:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r", " \t\r "])))
        elif kind == 2:
            lines.append(draw(st.text("ab01.,-e \t\r", max_size=10)))
        else:
            count = dim + 1 + {3: -1, 4: 1}.get(kind, 0)
            row = [draw(st.sampled_from([""] if kind == 5 else ["a", "b2", " c", "d\t", "\re"]))]
            for j in range(count):
                bad = draw(st.integers(0, 39)) == 0
                row.append(draw(st.sampled_from(_BAD if bad else _GOOD_G if j else _GOOD_P)))
            lines.append(",".join(row))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestGradientRecords:
    def _table(self):
        return GradientTable(
            ("p0", "p1"), [0.25, 1.0 / 3.0], [[0.5, -1.0, 2.0], [1e-8, 0.0, -3.25]]
        )

    def test_round_trip(self):
        text = _write_table(self._table())
        assert text.splitlines()[0] == "problem_id,pass_rate,g0,g1,g2"
        loaded = load_gradient_records(text.splitlines())
        orig = self._table()
        assert loaded.problem_ids == orig.problem_ids
        assert np.allclose(loaded.p, orig.p, rtol=1e-9, atol=0.0)
        assert np.allclose(loaded.gradients, orig.gradients, rtol=1e-9, atol=1e-18)

    def test_rerun_is_byte_identical(self):
        assert _write_table(self._table()) == _write_table(self._table())

    def test_refuses_empty_write(self):
        # An empty gradient file cannot be written because an empty table
        # cannot be built.
        with pytest.raises(DomainError):
            GradientTable((), np.zeros(0), np.zeros((0, 3)))

    def test_refuses_values_that_render_as_inf(self):
        # 1.7976931345e308 is the smallest double rendered as 1.797693135e+308,
        # which parses to inf; the double below it renders as a finite number.
        below = np.nextafter(1.7976931345e308, 0.0)
        ok = GradientTable(("a", "b"), [0.5, 0.5], [[below, 1.0], [-below, 0.0]])
        loaded = load_gradient_records(_write_table(ok).splitlines())
        assert np.isfinite(loaded.gradients).all()
        for big in (1.7976931345e308, -1.7976931345e308, np.finfo(float).max):
            table = GradientTable(("a", "b"), [0.5, 0.5], [[1.0, 2.0], [3.0, big]])
            buf = io.StringIO()
            with pytest.raises(DomainError, match="'b'"):
                write_gradient_records(buf, table)
            assert buf.getvalue() == ""

    def test_rejects_empty_file(self):
        with pytest.raises(FileFormatError, match="empty"):
            load_gradient_records([])

    def test_rejects_bad_header(self):
        headers = [
            "id,p,g0",
            "problem_id,pass_rate",
            # The gradient columns must be named g0..g{D-1}, in order.
            "problem_id,pass_rate,zz,g7",
            "problem_id,pass_rate,g1",
            "problem_id,pass_rate,g0,g0",
            "problem_id,pass_rate,g0,g2",
            "problem_id,pass_rate,g1,g0",
            "problem_id,pass_rate,G0",
            "problem_id,pass_rate,g0 ,g1",
        ]
        for header in headers:
            row = "a,0.5" + ",1" * max(header.count(",") - 1, 1)
            with pytest.raises(FileFormatError, match=r"^line 1: header must be "):
                load_gradient_records([header, row])

    def test_rejects_wrong_field_count(self):
        lines = ["problem_id,pass_rate,g0,g1", "a,0.5,1.0"]
        with pytest.raises(FileFormatError, match="line 2"):
            load_gradient_records(lines)

    def test_rejects_non_numeric(self):
        lines = ["problem_id,pass_rate,g0", "a,0.5,oops"]
        with pytest.raises(FileFormatError, match="line 2.*non-numeric"):
            load_gradient_records(lines)
        lines = ["problem_id,pass_rate,g0", "a,0.5,1", "", "b,0.5,", "c,0.5,x"]
        with pytest.raises(FileFormatError, match="line 4.*non-numeric"):
            load_gradient_records(lines)

    @pytest.mark.parametrize(
        "row", ["a,0.5,nan", "a,0.5,inf", "a,0.5,-1e999", "a,1.5,1", "a,-0.5,1", "a,nan,1"]
    )
    def test_rejects_bad_values_naming_the_line(self, row):
        lines = ["problem_id,pass_rate,g0", "z,0.5,1", "", row]
        with pytest.raises(FileFormatError, match="line 4"):
            load_gradient_records(lines)

    def test_rejects_empty_problem_id(self):
        with pytest.raises(FileFormatError, match="line 2.*problem_id"):
            load_gradient_records(["problem_id,pass_rate,g0", ",0.5,1"])

    def test_rejects_header_only(self):
        with pytest.raises(FileFormatError, match="no records"):
            load_gradient_records(["problem_id,pass_rate,g0", ""])

    def test_load_matches_float_parse(self):
        # Bit-exact against float() on each field, over many magnitudes,
        # subnormals and renderings longer than the writer's 10 digits.
        rng = np.random.default_rng(3)
        values = rng.standard_normal((300, 9)) * 10.0 ** rng.integers(-320, 300, (300, 9))
        values[:, 0] = rng.random(300)
        lines = ["problem_id,pass_rate," + ",".join(f"g{j}" for j in range(8))]
        for i, row in enumerate(values.tolist()):
            style = ("%r", "%.17g", "%.10g", "%.3e")[i % 4]
            lines.append(f"q{i}," + ",".join(style % v for v in row))
        table = load_gradient_records(lines)
        want = _float_parse(lines[1:])
        assert np.array_equal(table.p, want[:, 0])
        assert np.array_equal(table.gradients, want[:, 1:])

    def test_simulator_dump_matches_float_parse(self):
        world = build_world(SimConfig(num_problems=40, feature_dim=6, vocab_size=5))
        text = _write_table(GradientTable(world.problem_ids, *measure_snr(world, "forward")))
        lines = text.splitlines()
        table = load_gradient_records(lines)
        want = _float_parse(lines[1:])
        assert np.array_equal(np.column_stack((table.p, table.gradients)), want)
        assert _write_table(table) == text

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.lists(
                st.tuples(
                    st.text("abcxyz_-0123456789", min_size=1, max_size=6),
                    st.floats(0.0, 1.0),
                    st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=d, max_size=d),
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_round_trip_at_ten_digits(self, rows):
        ids, ps, grads = zip(*rows)
        table = GradientTable(ids, ps, grads)
        want = np.array([[float(fmt(v)) for v in (p, *grad)] for _, p, grad in rows])
        if not np.isfinite(want).all():
            # A value within 10 digits of the float maximum renders as a
            # number that parses to inf; the writer refuses that table.
            bad = ids[int(np.argmax(~np.isfinite(want).all(axis=1)))]
            with pytest.raises(DomainError, match=re.escape(repr(bad))):
                _write_table(table)
            return
        text = _write_table(table)
        expected_lines = [
            ",".join([pid, fmt(p)] + [fmt(g) for g in grad]) for pid, p, grad in rows
        ]
        assert text.splitlines()[1:] == expected_lines
        loaded = load_gradient_records(text.splitlines())
        assert loaded.problem_ids == ids
        assert np.array_equal(loaded.p, want[:, 0])
        assert np.array_equal(loaded.gradients, want[:, 1:])

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            _gradient_text(),
            st.tuples(
                st.booleans(), st.text("0123456789.,-+eEnaifINF x\r\t\n") | st.text()
            ).map(lambda t: ("problem_id,pass_rate,g0,g1\n" if t[0] else "") + t[1]),
        )
    )
    def test_matches_the_per_line_loader(self, text):
        # Chunks of 1-3 lines put faults on both sides of chunk boundaries; the
        # result, or the error message with its line, must not depend on them.
        sizes = (1, 2, 3, fileio._CHUNK_LINES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for split in (str.splitlines, lambda t: t.split("\n"), io.StringIO):
                want = _outcome(_per_line_load, split(text))
                for size in sizes:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(fileio, "_CHUNK_LINES", size)
                        assert _outcome(load_gradient_records, split(text)) == want

    @settings(max_examples=300, deadline=None)
    @given(_IDS)
    def test_an_id_is_refused_at_write_or_loads_back_equal(self, ids):
        table = GradientTable(ids, [0.5] * len(ids), [[1.0]] * len(ids))
        buf = io.StringIO()
        bad = [pid for pid in ids if _unwritable(pid)]
        if bad:
            with pytest.raises(DomainError, match=re.escape(repr(bad[0]))):
                write_gradient_records(buf, table)
            assert buf.getvalue() == ""
            return
        write_gradient_records(buf, table)
        # Read back as a text file is: CR, LF and CRLF each end a line.
        loaded = load_gradient_records(io.StringIO(buf.getvalue(), newline=None))
        assert loaded.problem_ids == table.problem_ids

    def test_first_bad_line_wins_across_chunks(self, monkeypatch):
        # Chunks of 2 lines: lines 2-3, 4-5, 6-7.
        monkeypatch.setattr(fileio, "_CHUNK_LINES", 2)
        head = ["problem_id,pass_rate,g0", "a,0.5,1", "b,0.5,nan"]
        ok = head[:2] + ["b,0.5,1"]
        cases = [
            # A non-finite value outranks any fault on a later line, in a later
            # chunk or in the same one.
            (head + ["c,0.5,x", "d,0.5,1", "e,0.5"], "line 3: values must be finite"),
            (head + ["c,0.5,x", "d,0.5,1", ",0.5,1"], "line 3: values must be finite"),
            (head + ["c,0.5,1", "d,0.5,1", "e,0.5,x"], "line 3: values must be finite"),
            (head + ["c,0.5,1"], "line 3: values must be finite"),
            (["problem_id,pass_rate,g0", "a,0.5,inf", "b,0.5"], "line 2: values must be finite"),
            # Each kind of fault wins when it comes first, wherever the chunk
            # boundary falls and whatever follows it.
            (ok + ["c,0.5,x", "d,0.5"], "line 4: non-numeric field"),
            (ok + ["c,0.5,1", "d,1.5,1", "e,0.5"], "line 5: values must be finite"),
            (ok + ["c,0.5", "d,0.5,x"], "line 4: expected 3 fields, got 2"),
            (ok + ["", "c,0.5,1,2", "d,0.5,nan"], "line 5: expected 3 fields, got 4"),
            (ok + ["c,0.5,1", "d,0.5,1", ",0.5,1", "e,0.5,x"], "line 6: empty problem_id"),
        ]
        for lines, message in cases:
            with pytest.raises(FileFormatError, match=f"^{re.escape(message)}"):
                load_gradient_records(lines)

    @pytest.mark.parametrize("bad", ["c,0.5,x", "c,0.5,nan", "c,2,1", "c,0.5", ",0.5,1"])
    def test_reads_no_line_past_the_chunk_of_the_first_bad_line(self, monkeypatch, bad):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", 2)
        lines = ["problem_id,pass_rate,g0", "a,0.5,1", "b,0.5,1", bad, "d,0.5,1"]
        lines += [f"e{i},0.5,1" for i in range(100)]
        taken = 0

        def counted():
            nonlocal taken
            for line in lines:
                taken += 1
                yield line

        with pytest.raises(FileFormatError, match="^line 4: "):
            load_gradient_records(counted())
        # The header, then the chunks of lines 2-3 and 4-5.
        assert taken == 5

    def test_peak_allocation_is_the_table_and_one_chunk(self):
        # Peak traced allocation while loading N = 5000, D = 64 from a
        # StringIO, in bytes of the (N, D + 1) float64 result. Measured: 1.75
        # (the result and ids read so far, then one 1024-line chunk's text and
        # loadtxt's buffers); 1.94 while the chunk's text lived on as the
        # result grew, and 3.13 parsing every row with one np.loadtxt call.
        n, dim = 5000, 64
        rng = np.random.default_rng(5)
        table = GradientTable(
            tuple(f"q{i}" for i in range(n)), rng.random(n), rng.standard_normal((n, dim))
        )
        src = io.StringIO(_write_table(table))
        tracemalloc.start()
        try:
            loaded = load_gradient_records(src)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.problem_ids == table.problem_ids
        assert peak <= 2.4 * n * (dim + 1) * 8

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text("0123456789.,-+eEnaifINF x\r\t\n"),
        ),
        st.booleans(),
    )
    def test_arbitrary_text_raises_only_format_errors(self, body, with_header):
        text = ("problem_id,pass_rate,g0,g1\n" if with_header else "") + body
        for lines in (text.splitlines(), text.split("\n"), io.StringIO(text)):
            try:
                table = load_gradient_records(lines)
            except FileFormatError:
                continue
            assert isinstance(table, GradientTable)


def _profile_with_gaps():
    table = GradientTable(
        ("a", "b", "c", "d", "e", "f"),
        [0.1, 0.1, 0.55, 0.55, 0.95, 0.95],
        [[1.0, 0.0], [0.0, 1.0], [3.0, 1.0], [3.0, -1.0], [2.0, 2.0], [2.0, 2.0]],
    )
    return compute_snr_bins(table, num_bins=5)


def _profile(edges, count, mean_p, snr, snr_norm=None, theory_norm=None):
    """A profile built from per-bin values, NaN where undefined."""
    unset = [math.nan] * len(count)
    columns = (edges, count, mean_p, snr, snr_norm or unset, theory_norm or unset)
    return SnrProfile(*map(np.asarray, columns))


class TestProfileIo:
    def test_write_shape(self):
        buf = io.StringIO()
        write_profile(buf, normalize_profile(_profile_with_gaps()))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 7 for line in lines[1:])
        # Empty bin renders empty mean_p/snr fields but keeps the count.
        empty_row = lines[2].split(",")
        assert empty_row[2] == ""
        assert empty_row[3] == "0"
        assert empty_row[4] == ""

    def test_load_points_keeps_defined_interior_bins(self):
        buf = io.StringIO()
        write_profile(buf, normalize_profile(_profile_with_gaps()))
        mean_p, snr = load_profile_points(buf.getvalue().splitlines())
        # Bins: defined at 0.1 and 0.55; the empty bins read NaN for both
        # fields and the degenerate 0.95 bin (identical gradients) for snr.
        nan = math.nan
        assert mean_p == pytest.approx([0.1, nan, 0.55, nan, 0.95], nan_ok=True)
        assert np.isnan(snr).tolist() == [False, True, False, True, True]
        assert (snr[[0, 2]] > 0).all()

    def test_refuses_snr_that_renders_as_inf(self):
        # 1.7976931345e308 is the smallest double rendered as 1.797693135e+308,
        # which parses to inf; the double below it renders as a finite number.
        below = np.nextafter(1.7976931345e308, 0.0)
        ok = _profile([0.0, 0.5, 1.0], [2, 2], [0.25, 0.75], [1.0, below])
        buf = io.StringIO()
        write_profile(buf, ok)
        assert load_profile_points(buf.getvalue().splitlines())[1][1] < math.inf
        for big in (1.7976931345e308, np.finfo(float).max):
            bad = _profile([0.0, 0.5, 1.0], [0, 2], [math.nan, 0.75], [math.nan, big])
            buf = io.StringIO()
            with pytest.raises(DomainError, match="bin 1:"):
                write_profile(buf, bad)
            assert buf.getvalue() == ""

    def test_load_points_drops_boundary_mean_p(self):
        # The loader reads every bin; the fit drops those at mean_p 0 and 1.
        rows = ["0,0.2,0,2,1.5,,", "0.2,0.4,0.25,2,0.45,,", "0.2,0.4,0.4,2,0.5,,",
                "0.6,0.8,0.6,2,0.48,,", "0.6,0.8,0.75,2,0.42,,", "0.8,1,1,2,0.5,,"]
        mean_p, snr = load_profile_points([_PROFILE_HEADER, *rows])
        assert mean_p.tolist() == [0.0, 0.25, 0.4, 0.6, 0.75, 1.0]
        assert snr.tolist() == [1.5, 0.45, 0.5, 0.48, 0.42, 0.5]
        assert fit_snr_model(mean_p, snr) == fit_snr_model(mean_p[1:5], snr[1:5])

    def test_rejects_wrong_header(self):
        with pytest.raises(FileFormatError, match="header"):
            load_profile_points(["lo,hi", "0,1"])

    def test_rejects_empty(self):
        with pytest.raises(FileFormatError, match="empty"):
            load_profile_points([])

    def test_rejects_bad_row(self):
        head = "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"
        with pytest.raises(FileFormatError, match="line 2"):
            load_profile_points([head, "0,1,0.5"])
        with pytest.raises(FileFormatError, match="line 2"):
            load_profile_points([head, "0,1,oops,2,1.0,,"])
        # The five fields the fit does not read are checked too.
        for row in ("x,y,0.1,z,1.0,w,v", "0.8,1,0.9,abc,1.0,nan,-7", "0,1,0.5,2,1.0,nan,",
                    "0,1,0.5,-2,1.0,,", ",1,0.5,2,1.0,,"):
            with pytest.raises(FileFormatError, match="^line 3: "):
                load_profile_points([head, "0,1,0.5,2,1.0,,", row])


_PROFILE_HEADER = "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"
_finite = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(0.0, 1.0)


@st.composite
def _profiles(draw, min_bins=0):
    """Profiles of min_bins to 6 bins with arbitrary values, NaN where undefined."""
    n = draw(st.integers(min_bins, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    nan = st.just(math.nan)
    return _profile(
        draw(st.lists(_finite, min_size=n + 1, max_size=n + 1)),
        column(st.integers(0, 10**9)),
        column(nan | _unit),
        column(nan | st.floats(0.0, allow_infinity=False)),
        column(nan | _finite),
        column(nan | _finite),
    )


class TestProfileProperties:
    @settings(max_examples=100, deadline=None)
    @given(_profiles())
    def test_round_trip_at_ten_digits(self, profile):
        buf = io.StringIO()
        snr = profile.snr.tolist()
        overflow = [
            i for i, s in enumerate(snr) if not math.isnan(s) and math.isinf(float(fmt(s)))
        ]
        if overflow:
            # An snr within 10 digits of the float maximum renders as a
            # number that parses to inf; the writer refuses the profile.
            with pytest.raises(DomainError, match=f"bin {overflow[0]}:"):
                write_profile(buf, profile)
            assert buf.getvalue() == ""
            return
        write_profile(buf, profile)
        lines = buf.getvalue().splitlines()
        for got, want in zip(load_profile_points(lines), (profile.mean_p, profile.snr)):
            np.testing.assert_array_equal(got, [float(fmt(x)) for x in want.tolist()])

    @settings(max_examples=200, deadline=None)
    @given(_profiles(min_bins=1), st.data())
    def test_a_garbled_field_in_any_column_names_its_line(self, profile, data):
        buf = io.StringIO()
        try:
            write_profile(buf, profile)
        except DomainError:  # an snr that renders as inf; see the round trip above
            assume(False)
        lines = buf.getvalue().splitlines()
        row, column = data.draw(st.integers(1, len(lines) - 1)), data.draw(st.integers(0, 6))
        # Text no column accepts; bin_lo, bin_hi and count must not be empty,
        # and count is a plain nonnegative integer.
        junk = ["abc", "nan", "-nan", "1..5", "0x1", "1e"]
        junk += {0: [""], 1: [""], 3: ["", "-1", "+3", "2.0", "1e3", " 4", "\u0663"]}.get(column, [])
        fields = lines[row].split(",")
        fields[column] = data.draw(st.sampled_from(junk))
        lines[row] = ",".join(fields)
        with pytest.raises(FileFormatError, match=f"^line {row + 1}: "):
            load_profile_points(lines)

    @pytest.mark.parametrize("mean_p, snr", [("1.5", "2"), ("nan", "2"), ("0.5", "-1"),
                                             ("0.5", "inf"), ("0.5", "nan")])
    def test_rejects_values_outside_the_domain(self, mean_p, snr):
        row = f"0,1,{mean_p},2,{snr},,"
        with pytest.raises(FileFormatError, match="line 2"):
            load_profile_points([_PROFILE_HEADER, row])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text("0123456789.,-+eEnaifINF x\r\t\n")), st.booleans())
    def test_arbitrary_text_raises_only_format_errors(self, body, with_header):
        text = (_PROFILE_HEADER + "\n" if with_header else "") + body
        for lines in (text.splitlines(), io.StringIO(text)):
            try:
                mean_p, snr = load_profile_points(lines)
            except FileFormatError:
                continue
            assert mean_p.shape == snr.shape
            assert all(math.isnan(p) or 0.0 <= p <= 1.0 for p in mean_p.tolist())
            assert all(math.isnan(s) or 0.0 <= s < math.inf for s in snr.tolist())


@pytest.mark.parametrize(
    "load, lines, lineno",
    [
        (
            load_rollouts,
            ['{"problem_id": "a", "outcomes": [true]}',
             '{"problem_id": "b", "outcomes": []}', '{"problem_id": "c"'],
            2,
        ),
        (
            load_gradient_records,
            ["problem_id,pass_rate,g0", "a,0.5,1", "b,0.5,nan", "c,0.5"],
            3,
        ),
        (
            load_profile_points,
            ["bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm",
             "0,0.5,0.25,3,1,1,1", "0.5,1,1.5,3,1,1,1", "0.5,1,0.75,3,1"],
            3,
        ),
    ],
    ids=["rollouts", "gradients", "profile"],
)
def test_every_loader_names_the_first_bad_line(load, lines, lineno):
    # A value fault on an earlier line outranks a structural fault (bad JSON,
    # a wrong field count) on a later one.
    with pytest.raises(FileFormatError, match=f"^line {lineno}: "):
        load(lines)


class TestWeightTable:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text("abcxyz_-0123456789", min_size=1, max_size=6), _unit,
                      _finite, _finite),
            max_size=6,
        )
    )
    def test_round_trip_at_ten_digits(self, rows):
        # The library writes weight tables but never reads them, so the
        # documented CSV is parsed here.
        buf = io.StringIO()
        ids = [pid for pid, *_ in rows]
        p, raw, normalized = (np.array([row[i] for row in rows]) for i in (1, 2, 3))
        write_weight_table(buf, ids, p, raw, normalized)
        parsed = list(csv.reader(io.StringIO(buf.getvalue())))
        assert parsed[0] == ["problem_id", "p", "w", "w_norm"]
        want = [(pid, *(float(fmt(v)) for v in values)) for pid, *values in rows]
        assert [(r[0], *map(float, r[1:])) for r in parsed[1:]] == want

    @settings(max_examples=300, deadline=None)
    @given(_IDS)
    def test_an_id_is_refused_at_write_or_parses_back_equal(self, ids):
        # The same rule as the gradient writer's, read back by a CSV reader.
        ones = np.ones(len(ids))
        buf = io.StringIO()
        bad = [pid for pid in ids if _unwritable(pid)]
        if bad:
            with pytest.raises(DomainError, match=re.escape(repr(bad[0]))):
                write_weight_table(buf, ids, ones, ones, ones)
            assert buf.getvalue() == ""
            return
        write_weight_table(buf, ids, ones, ones, ones)
        rows = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
        assert [row[0] for row in rows[1:]] == ids

    def test_exact_text(self):
        buf = io.StringIO()
        write_weight_table(
            buf, ("a", "b"), np.array([0.5, 0.75]), np.array([0.25, 0.1875]),
            np.array([1.0, 0.75]),
        )
        assert buf.getvalue() == (
            "problem_id,p,w,w_norm\n"
            "a,0.5,0.25,1\n"
            "b,0.75,0.1875,0.75\n"
        )


class TestMetricsIo:
    def test_header_and_rows(self):
        cfg = SimConfig(
            num_problems=10,
            num_anchors=3,
            feature_dim=4,
            vocab_size=5,
            rollout_count=4,
            steps=4,
            eval_interval=2,
            seed=3,
        )
        metrics = train(build_world(cfg))
        buf = io.StringIO()
        write_metrics(buf, metrics)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "step,stage,loss,train_acc,retention_kl,frac_low,frac_med,"
            "frac_high,mean_p"
        )
        assert len(lines) == 1 + len(metrics.step)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "forward"
        assert float(first[2]) == pytest.approx(metrics.loss[0], rel=1e-9)


class TestLoadSimConfig:
    def test_empty_text_gives_defaults(self):
        assert load_sim_config("") == SimConfig()

    def test_golden_file_matches_defaults(self):
        # The committed config spells out every default explicitly.
        assert load_sim_config(_GOLDEN_CFG.read_text()) == SimConfig()

    def test_full_round_trip(self):
        text = """
[world]
num_problems = 50
num_anchors = 10
feature_dim = 8
vocab_size = 9
difficulty_spread = 3.5
teacher_sharpness = 5.0
seed = 123

[rollouts]
count = 16
temperature = 0.7

[weighting]
scheme = hard
alpha = 2.0
beta = 3.0
filter_lo = 0.1
filter_hi = 0.9
weight_floor = 0.01
recompute_interval = 5

[training]
loss_direction = two_stage
stage1_fraction = 0.25
learning_rate = 1.5
steps = 40
batch_size = 20
reverse_kl_samples = 4
eval_interval = 10
"""
        cfg = load_sim_config(text)
        assert cfg == SimConfig(
            num_problems=50,
            num_anchors=10,
            feature_dim=8,
            vocab_size=9,
            difficulty_spread=3.5,
            teacher_sharpness=5.0,
            seed=123,
            rollout_count=16,
            rollout_temperature=0.7,
            scheme="hard",
            alpha=2.0,
            beta=3.0,
            filter_lo=0.1,
            filter_hi=0.9,
            weight_floor=0.01,
            recompute_interval=5,
            loss_direction="two_stage",
            stage1_fraction=0.25,
            learning_rate=1.5,
            steps=40,
            batch_size=20,
            reverse_kl_samples=4,
            eval_interval=10,
        )

    def test_none_and_full_literals(self):
        text = "[weighting]\nrecompute_interval = none\n[training]\nbatch_size = FULL\n"
        cfg = load_sim_config(text)
        assert cfg.recompute_interval is None
        assert cfg.batch_size is None

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[optimizer\]"):
            load_sim_config("[optimizer]\nlr = 1\n")

    def test_unknown_key_names_key_and_section(self):
        with pytest.raises(ConfigError, match=r"'sharpness'.*\[world\]"):
            load_sim_config("[world]\nsharpness = 3\n")

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match=r"'steps'.*\[training\]"):
            load_sim_config("[training]\nsteps = soon\n")

    @pytest.mark.parametrize(
        "text, raw",
        [("[world]\nseed = 5%\n", "5%"),
         ("[world]\nseed = 3\nnum_problems = %(seed)s0\n", "%(seed)s0")],
        ids=["lone_percent", "interpolation_syntax"],
    )
    def test_percent_is_read_verbatim(self, text, raw):
        # configparser's default interpolation raised its own error on the
        # first and silently loaded num_problems = 30 from the second.
        key = "seed" if raw == "5%" else "num_problems"
        want = f"config key '{key}' in [world]: cannot parse '{raw}' as int"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            load_sim_config(text)

    def test_nonfinite_value(self):
        with pytest.raises(ConfigError, match="finite"):
            load_sim_config("[world]\ndifficulty_spread = inf\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="parse failure"):
            load_sim_config("steps = 3\n")

    def test_default_section_alone_is_unknown(self):
        # configparser would read [DEFAULT] as defaults that no section uses.
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            load_sim_config("[DEFAULT]\nsteps = 3\n")

    def test_default_section_does_not_leak_into_sections(self):
        # configparser would copy steps into [world] and report it there.
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            load_sim_config("[world]\nseed = 1\n[DEFAULT]\nsteps = 3\n")

    def test_overrides_win_over_file(self):
        cfg = load_sim_config("[training]\nsteps = 40\n", overrides={"steps": 5})
        assert cfg.steps == 5

    def test_override_none_forces_none(self):
        text = "[weighting]\nrecompute_interval = 5\n"
        cfg = load_sim_config(text, overrides={"recompute_interval": None})
        assert cfg.recompute_interval is None

    def test_invalid_merged_config_rejected(self):
        with pytest.raises(ConfigError):
            load_sim_config("", overrides={"steps": 0})


def _readme_block(language: str) -> str:
    """The README's first ```<language> block."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


class TestConfigSchema:
    def test_every_field_sits_in_exactly_one_section(self):
        placed = [name for names in fileio._SECTIONS.values() for name in names]
        assert sorted(placed) == sorted(f.name for f in dataclasses.fields(SimConfig))

    def test_every_annotation_has_a_caster(self):
        assert {f.type for f in dataclasses.fields(SimConfig)} <= fileio._CASTERS.keys()

    @pytest.mark.parametrize(
        "text", [_GOLDEN_CFG.read_text(encoding="utf-8"), _readme_block("ini")],
        ids=["golden.cfg", "README"],
    )
    def test_names_every_key_once_and_loads_to_defaults(self, text):
        # A strict parser rejects a key repeated within a section. The
        # README's block is loaded as written, ; comments and all.
        parser = configparser.ConfigParser()
        parser.read_string(text)
        named = [(section, key) for section in parser.sections() for key in parser[section]]
        every = [(section, key) for section, keys in fileio._KEYS.items() for key in keys]
        assert sorted(named) == sorted(every)
        assert load_sim_config(text) == SimConfig()

    @pytest.mark.parametrize(
        "name, raw, want",
        [("steps", "12", 12), ("alpha", "0.5", 0.5), ("scheme", "hard", "hard"),
         ("recompute_interval", "None", None), ("recompute_interval", "3", 3),
         ("batch_size", "full", None), ("batch_size", " NONE ", None)],
    )
    def test_parse_by_annotation(self, name, raw, want):
        assert parse_config_value(name, raw, "here") == want

    @pytest.mark.parametrize(
        "name, raw, want",
        [("steps", "1.5", "int"), ("alpha", "x", "float"),
         ("recompute_interval", "full", "int or 'none'"),
         ("batch_size", "all", "int or 'none' or 'full'")],
    )
    def test_parse_error_names_the_source(self, name, raw, want):
        with pytest.raises(ConfigError, match=f"^here: cannot parse {raw!r} as {want}$"):
            parse_config_value(name, raw, "here")
