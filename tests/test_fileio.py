import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpdistill.distill_sim import SimConfig, build_world, measure_snr, train
from zpdistill.errors import ConfigError, DomainError, FileFormatError
from zpdistill.fileio import (
    fmt,
    load_gradient_records,
    load_profile_points,
    load_rollouts,
    load_sim_config,
    write_gradient_records,
    write_metrics,
    write_profile,
    write_weight_table,
)
from zpdistill.snr_profile import GradientTable, compute_snr_bins, normalize_profile

_GOLDEN_CFG = Path(__file__).resolve().parent.parent / "configs" / "golden.cfg"


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
        text = _write_table(table)
        expected_lines = [
            ",".join([pid, fmt(p)] + [fmt(g) for g in grad]) for pid, p, grad in rows
        ]
        assert text.splitlines()[1:] == expected_lines
        want = np.array([[float(fmt(v)) for v in (p, *grad)] for _, p, grad in rows])
        if not np.isfinite(want).all():
            # A value within 10 digits of the float maximum renders as a
            # number that parses to inf; the loader rejects that row.
            with pytest.raises(FileFormatError, match="finite"):
                load_gradient_records(text.splitlines())
            return
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


class TestWeightTable:
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
