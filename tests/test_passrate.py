import numpy as np
import pytest
from hypothesis import given, strategies as st

from zpdistill.errors import DomainError, InsufficientDataError
from zpdistill.passrate import (
    THREE_BIN_EDGES,
    PassRateHistogram,
    RolloutTable,
    equal_edges,
    hard_filter,
    histogram,
)


def _table(rows):
    """RolloutTable from (problem_id, successes, k) rows."""
    ids, successes, k = zip(*rows)
    return RolloutTable(ids, np.array(successes), np.array(k))


class TestEstimatePassRate:
    """The pass-rate estimate is RolloutTable.p = successes / k."""

    def test_exact_counts(self):
        t = _table([("p1", 3, 8)])
        assert (t.successes[0], t.k[0], t.p[0]) == (3, 8, 3 / 8)

    def test_recount_oracle_on_random_draws(self):
        # Independent oracle: recount successes with a plain loop and divide
        # as Python ints; p must be that quotient bit for bit.
        rng = np.random.default_rng(42)
        rows = []
        for i in range(50):
            k = int(rng.integers(1, 20))
            outcomes = [bool(b) for b in rng.random(k) < 0.4]
            rows.append((f"x{i}", sum(1 for o in outcomes if o), k))
        t = _table(rows)
        assert t.p.tolist() == [s / k for _, s, k in rows]

    @given(st.lists(st.booleans(), min_size=1, max_size=32))
    def test_p_in_unit_interval(self, outcomes):
        p = _table([("x", sum(outcomes), len(outcomes))]).p[0]
        assert 0.0 <= p <= 1.0


class TestPassRateValidation:
    def test_rejects_inconsistent_fields(self):
        with pytest.raises(DomainError):
            RolloutTable(("a", "b"), np.array([3]), np.array([8, 8]))

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            _table([("a", 9, 8)])
        with pytest.raises(DomainError):
            _table([("a", -1, 8)])
        with pytest.raises(DomainError):
            _table([("a", 0, 0)])


class TestRolloutTable:
    @pytest.mark.parametrize(
        "ids, successes, k, message",
        [
            (("a", "b"), [1], [4, 4], "shape"),
            (("a",), [1, 2], [4, 4], "shape"),
            (("a",), [[1]], [[4]], "shape"),
            (("a",), [1.0], [4], "integer"),
            (("a",), [1], [4.0], "integer"),
            (("a",), [True], [4], "integer"),
            (("",), [1], [4], "non-empty"),
            (("a", "a"), [1, 2], [4, 4], "unique"),
            (("a",), [0], [0], "k >= 1"),
            (("a",), [0], [-2], "k >= 1"),
            (("a", "b"), [1, -1], [4, 4], r"row 1 \('b'\).*-1 of 4"),
            (("a", "b"), [5, 1], [4, 4], r"row 0 \('a'\).*5 of 4"),
        ],
        ids=["short_counts", "long_counts", "two_dimensional", "float_successes",
             "float_k", "bool_successes", "empty_id", "duplicate_id", "k_zero",
             "k_negative", "negative_successes", "successes_above_k"],
    )
    def test_rejects_invalid(self, ids, successes, k, message):
        with pytest.raises(DomainError, match=message):
            RolloutTable(ids, np.array(successes), np.array(k))

    def test_empty_table_is_valid(self):
        t = RolloutTable((), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert t.p.shape == (0,)

    def test_p_is_successes_over_k_at_mixed_k(self):
        t = _table([("a", 0, 4), ("b", 3, 8), ("c", 4, 4), ("d", 1, 3)])
        assert t.p.tolist() == [0.0, 3 / 8, 1.0, 1 / 3]
        assert t.problem_ids == ("a", "b", "c", "d")


class TestHardFilter:
    def test_default_band_is_inclusive(self):
        # K=8 default band keeps exactly 2..6 successes.
        kept = [s for s in range(9) if hard_filter(s / 8)]
        assert kept == [2, 3, 4, 5, 6]

    def test_custom_bounds(self):
        assert hard_filter(0.5, 0.5, 0.5)
        assert not hard_filter(0.375, 0.5, 0.5)

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            hard_filter(0.5, 0.8, 0.2)
        with pytest.raises(DomainError):
            hard_filter(0.5, -0.1, 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(DomainError):
            hard_filter(p)

    @given(st.integers(0, 8))
    def test_matches_direct_comparison(self, s):
        p = s / 8
        assert hard_filter(p, 0.2, 0.8) == (0.2 <= p <= 0.8)


class TestHistogram:
    def test_three_bin_edges_constant(self):
        assert THREE_BIN_EDGES == (0.0, 0.2, 0.8, 1.0)

    def test_equal_edges(self):
        assert equal_edges(4) == (0.0, 0.25, 0.5, 0.75, 1.0)
        with pytest.raises(DomainError):
            equal_edges(1)

    def test_left_closed_right_open_final_closed(self):
        # 0.2 falls in the middle bin; 1.0 falls in the final bin.
        h = histogram(np.array([0.0, 1 / 5, 1.0]), THREE_BIN_EDGES)
        assert h.fractions == (ptx := (1 / 3, 1 / 3, 1 / 3)) or h.fractions == ptx

    def test_binning_differs_from_inclusive_filter_at_lower_edge(self):
        # p = 0.2: the filter keeps it, but the histogram puts it in bin 2,
        # because bins are left-closed right-open.
        p = 1 / 5
        assert hard_filter(p, 0.2, 0.8)
        h = histogram(np.array([p]), THREE_BIN_EDGES)
        assert h.fractions == (0.0, 1.0, 0.0)

    def test_upper_edge_value_in_final_bin(self):
        h = histogram(np.array([1.0]), THREE_BIN_EDGES)
        assert h.fractions == (0.0, 0.0, 1.0)

    def test_mean_is_unbinned_mean(self):
        h = histogram(np.array([0, 3, 8, 5]) / 8, THREE_BIN_EDGES)
        assert h.mean_p == pytest.approx((0 + 3 + 8 + 5) / 32, abs=1e-15)

    def test_matches_numpy_histogram(self):
        rng = np.random.default_rng(9)
        p = rng.integers(0, 17, 100) / 16
        for num_bins in (3, 5, 10):
            edges = equal_edges(num_bins)
            h = histogram(p, edges)
            counts, _ = np.histogram(p, bins=np.array(edges))
            assert np.allclose(h.fractions, counts / 100)

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientDataError):
            histogram(np.array([]), THREE_BIN_EDGES)

    def test_bad_edges_rejected(self):
        with pytest.raises(DomainError):
            histogram(np.array([0.5]), (0.0, 0.5, 0.4, 1.0))
        with pytest.raises(DomainError):
            histogram(np.array([0.5]), (0.1, 0.5, 1.0))

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=50))
    def test_fractions_sum_to_one(self, successes):
        h = histogram(np.array(successes) / 8, THREE_BIN_EDGES)
        assert sum(h.fractions) == pytest.approx(1.0, abs=1e-12)


class TestPassRateHistogramValidation:
    def test_rejects_bad_fraction_sum(self):
        with pytest.raises(DomainError):
            PassRateHistogram(THREE_BIN_EDGES, (0.5, 0.1, 0.1), 0.4)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            PassRateHistogram(THREE_BIN_EDGES, (0.5, 0.5), 0.4)
