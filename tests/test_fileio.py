import configparser
import csv
import dataclasses
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from zpdistill.passrate import RolloutRecord
from zpdistill.snr_profile import (
    GradientTable,
    SnrBin,
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
        records = load_rollouts(lines)
        assert [r.problem_id for r in records] == ["a", "b"]
        assert records[0].outcomes == (True, False)

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

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=8), st.lists(st.booleans(), min_size=1, max_size=9)),
            max_size=6,
            unique_by=lambda row: row[0],
        )
    )
    def test_round_trip(self, rows):
        text = "".join(
            json.dumps({"problem_id": pid, "outcomes": outcomes}) + "\n" for pid, outcomes in rows
        )
        records = load_rollouts(io.StringIO(text))
        assert [(r.problem_id, list(r.outcomes)) for r in records] == rows

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text('{}[]":, 0123456789.eE+-truefalsnul\n\\'),
                     st.text('{}[]":, truefalsproblem_idoutcomes\n')))
    def test_arbitrary_text_raises_only_format_errors(self, text):
        for lines in (text.splitlines(), io.StringIO(text)):
            try:
                records = load_rollouts(lines)
            except FileFormatError:
                continue
            assert all(isinstance(r, RolloutRecord) for r in records)


def _write_table(table: GradientTable) -> str:
    buf = io.StringIO()
    write_gradient_records(buf, table)
    return buf.getvalue()


def _float_parse(lines):
    """Reference parse of gradient rows: float() on every field after the id."""
    return np.array([[float(v) for v in line.split(",")[1:]] for line in lines])


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
        with pytest.raises(FileFormatError, match="header"):
            load_gradient_records(["id,p,g0", "a,0.5,1.0"])

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
        text = _write_table(measure_snr(world, "forward"))
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
        points = load_profile_points(buf.getvalue().splitlines())
        # Bins: defined at 0.1 and 0.55; empty bins and the degenerate
        # 0.95 bin (identical gradients, snr undefined) are dropped.
        assert [p for p, _ in points] == [pytest.approx(0.1), pytest.approx(0.55)]
        assert all(s > 0 for _, s in points)

    def test_refuses_snr_that_renders_as_inf(self):
        # 1.7976931345e308 is the smallest double rendered as 1.797693135e+308,
        # which parses to inf; the double below it renders as a finite number.
        below = np.nextafter(1.7976931345e308, 0.0)
        ok = SnrProfile((SnrBin(0.0, 0.5, 0.25, 2, 1.0), SnrBin(0.5, 1.0, 0.75, 2, below)))
        buf = io.StringIO()
        write_profile(buf, ok)
        assert load_profile_points(buf.getvalue().splitlines())[1][1] < math.inf
        for big in (1.7976931345e308, np.finfo(float).max):
            bins = (SnrBin(0.0, 0.5, None, 0, None), SnrBin(0.5, 1.0, 0.75, 2, big))
            buf = io.StringIO()
            with pytest.raises(DomainError, match="bin 1:"):
                write_profile(buf, SnrProfile(bins))
            assert buf.getvalue() == ""

    def test_load_points_drops_boundary_mean_p(self):
        text = (
            "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm\n"
            "0,0.5,0,2,1.5,,\n"
            "0.5,1,0.75,2,2.5,,\n"
        )
        assert load_profile_points(text.splitlines()) == [(0.75, 2.5)]

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


_PROFILE_HEADER = "bin_lo,bin_hi,mean_p,count,snr,snr_norm,theory_norm"
_finite = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(0.0, 1.0)


class TestProfileProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                SnrBin,
                lo=_finite,
                hi=_finite,
                mean_p=st.none() | _unit,
                count=st.integers(0, 10**9),
                snr=st.none() | st.floats(0.0, allow_infinity=False),
                snr_norm=st.none() | _finite,
                theory_norm=st.none() | _finite,
            ),
            max_size=6,
        )
    )
    def test_round_trip_at_ten_digits(self, bins):
        buf = io.StringIO()
        overflow = [
            i for i, b in enumerate(bins)
            if b.snr is not None and math.isinf(float(fmt(b.snr)))
        ]
        if overflow:
            # An snr within 10 digits of the float maximum renders as a
            # number that parses to inf; the writer refuses the profile.
            with pytest.raises(DomainError, match=f"bin {overflow[0]}:"):
                write_profile(buf, SnrProfile(tuple(bins)))
            assert buf.getvalue() == ""
            return
        write_profile(buf, SnrProfile(tuple(bins)))
        lines = buf.getvalue().splitlines()
        defined = [
            (float(fmt(b.mean_p)), float(fmt(b.snr)))
            for b in bins
            if b.mean_p is not None and b.snr is not None
        ]
        want = [(p, s) for p, s in defined if 0.0 < p < 1.0]
        assert load_profile_points(lines) == want

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
                points = load_profile_points(lines)
            except FileFormatError:
                continue
            assert all(0.0 < p < 1.0 and 0.0 <= s < math.inf for p, s in points)


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
        write_weight_table(buf, rows)
        parsed = list(csv.reader(io.StringIO(buf.getvalue())))
        assert parsed[0] == ["problem_id", "p", "w", "w_norm"]
        want = [(pid, *(float(fmt(v)) for v in values)) for pid, *values in rows]
        assert [(r[0], *map(float, r[1:])) for r in parsed[1:]] == want

    def test_exact_text(self):
        buf = io.StringIO()
        write_weight_table(buf, [("a", 0.5, 0.25, 1.0), ("b", 0.75, 0.1875, 0.75)])
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
        assert len(lines) == 1 + len(metrics.rows)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "forward"
        assert float(first[2]) == pytest.approx(metrics.rows[0].loss, rel=1e-9)


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

    def test_nonfinite_value(self):
        with pytest.raises(ConfigError, match="finite"):
            load_sim_config("[world]\ndifficulty_spread = inf\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="parse failure"):
            load_sim_config("steps = 3\n")

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


def _readme_ini() -> str:
    """The README's ```ini block with its ; comments stripped."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    return "\n".join(line.split(";", 1)[0].rstrip() for line in block.splitlines())


class TestConfigSchema:
    def test_every_field_sits_in_exactly_one_section(self):
        placed = [name for names in fileio._SECTIONS.values() for name in names]
        assert sorted(placed) == sorted(f.name for f in dataclasses.fields(SimConfig))

    def test_every_annotation_has_a_caster(self):
        assert {f.type for f in dataclasses.fields(SimConfig)} <= fileio._CASTERS.keys()

    @pytest.mark.parametrize(
        "text", [_GOLDEN_CFG.read_text(encoding="utf-8"), _readme_ini()],
        ids=["golden.cfg", "README"],
    )
    def test_names_every_key_once_and_loads_to_defaults(self, text):
        # A strict parser rejects a key repeated within a section.
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
