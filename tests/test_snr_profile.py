import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpdistill.errors import DegenerateInputError, DomainError, InsufficientDataError
from zpdistill.snr_profile import (
    GradientTable,
    SnrProfile,
    bell_shape_score,
    compute_snr_bins,
    normalize_profile,
)


def _rec(pid: str, p: float, grad) -> tuple:
    return pid, p, tuple(grad)


def _table(records) -> GradientTable:
    ids, ps, grads = zip(*records)
    return GradientTable(ids, np.array(ps), np.array(grads, dtype=float))


def _bin_with(profile: SnrProfile, lo: float):
    (b,) = [b for b in profile.bins if b.lo == pytest.approx(lo)]
    return b


class TestGradientTable:
    def test_coerces_to_float_arrays(self):
        table = GradientTable(["a", "b"], [0.25, 2 / 8], [[1, 2], [3, 4]])
        assert table.problem_ids == ("a", "b")
        assert table.p.dtype == np.float64 and table.p.shape == (2,)
        assert table.gradients.dtype == np.float64
        assert np.array_equal(table.gradients, [[1.0, 2.0], [3.0, 4.0]])

    def test_validation(self):
        cases = [
            (("",), [0.5], [[1.0]]),
            (("a",), [0.5], np.zeros((1, 0))),
            ((), [], np.zeros((0, 1))),
            (("a",), [0.5], [1.0]),
            (("a", "b"), [0.5], [[1.0]]),
            (("a",), [0.5, 0.5], [[1.0]]),
            (("a",), [0.5], [[math.nan]]),
            (("a",), [0.5], [[-math.inf]]),
            (("a",), [math.nan], [[1.0]]),
            (("a",), [1.5], [[1.0]]),
            (("a",), [-0.1], [[1.0]]),
        ]
        for ids, p, grads in cases:
            with pytest.raises(DomainError):
                GradientTable(ids, p, grads)


class TestComputeSnrBins:
    def test_hand_computed_two_bins(self):
        records = [
            _rec("a", 0.1, (1.0, 0.0)),
            _rec("b", 0.1, (0.0, 1.0)),
            _rec("c", 0.6, (2.0, 0.0)),
            _rec("d", 0.9, (4.0, 0.0)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=2)
        low, high = profile.bins
        # Low bin: mean (0.5, 0.5), each point 0.5 away squared -> spread 0.5.
        assert low.count == 2
        assert low.mean_p == pytest.approx(0.1)
        assert low.snr == pytest.approx(math.sqrt(0.5) / math.sqrt(0.5), abs=1e-15)
        # High bin: mean (3, 0), spread 1, norm 3.
        assert high.count == 2
        assert high.mean_p == pytest.approx(0.75)
        assert high.snr == pytest.approx(3.0, abs=1e-14)

    def test_p_equal_one_lands_in_final_bin(self):
        records = [
            _rec("a", 1.0, (1.0,)),
            _rec("b", 1.0, (2.0,)),
            _rec("c", 0.0, (3.0,)),
            _rec("d", 0.0, (5.0,)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=4)
        assert profile.bins[-1].count == 2
        assert profile.bins[0].count == 2
        assert all(b.count == 0 for b in profile.bins[1:-1])

    def test_empty_bin_fields(self):
        records = [
            _rec("a", 0.05, (1.0,)),
            _rec("b", 0.05, (2.0,)),
            _rec("c", 0.95, (1.0,)),
            _rec("d", 0.95, (4.0,)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=3)
        mid = profile.bins[1]
        assert mid.count == 0
        assert mid.mean_p is None
        assert mid.snr is None
        assert not mid.degenerate

    def test_degenerate_bin_keeps_mean_p(self):
        records = [
            _rec("a", 0.1, (1.0, 1.0)),
            _rec("b", 0.15, (1.0, 1.0)),
            _rec("c", 0.8, (1.0, 0.0)),
            _rec("d", 0.9, (0.0, 1.0)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=2)
        low = profile.bins[0]
        assert low.degenerate
        assert low.snr is None
        assert low.mean_p == pytest.approx(0.125)
        assert low.count == 2

    def test_rotation_scale_permutation_invariance(self):
        rng = np.random.default_rng(5)
        grads = rng.normal(0.0, 1.0, (30, 4))
        ps = rng.uniform(0.0, 1.0, 30)
        base = [_rec(f"p{i}", float(ps[i]), grads[i]) for i in range(30)]
        ref = compute_snr_bins(_table(base), num_bins=5)

        q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (4, 4)))
        rotated = [
            _rec(f"p{i}", float(ps[i]), 2.5 * (q @ grads[i])) for i in range(30)
        ]
        perm = rng.permutation(30)
        got = compute_snr_bins(_table([rotated[i] for i in perm]), num_bins=5)

        for b_ref, b_got in zip(ref.bins, got.bins):
            assert b_got.count == b_ref.count
            if b_ref.snr is None:
                assert b_got.snr is None
            else:
                assert b_got.snr == pytest.approx(b_ref.snr, rel=1e-12)
                assert b_got.mean_p == pytest.approx(b_ref.mean_p, rel=1e-12)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        st.integers(2, 12),
    )
    def test_counts_match_np_histogram(self, ps, num_bins):
        records = [_rec(f"p{i}", p, (float(i), 1.0)) for i, p in enumerate(ps)]
        profile = compute_snr_bins(_table(records), num_bins=num_bins)
        want, _ = np.histogram(ps, bins=np.linspace(0.0, 1.0, num_bins + 1))
        assert [b.count for b in profile.bins] == list(want)

    def test_validation(self):
        # An empty or ragged table cannot be built (TestGradientTable), so
        # the bin count is the only argument left to check.
        with pytest.raises(DomainError):
            compute_snr_bins(_table([_rec("a", 0.5, (1.0,))]), num_bins=1)


class TestNormalizeProfile:
    def _profile(self):
        records = [
            _rec("a", 0.2, (1.0, 0.0)),
            _rec("b", 0.2, (0.0, 1.0)),
            _rec("c", 0.5, (3.0, 0.0)),
            _rec("d", 0.5, (3.0, 2.0)),
            _rec("e", 0.9, (0.5, 0.0)),
            _rec("f", 0.9, (0.0, 0.5)),
        ]
        return compute_snr_bins(_table(records), num_bins=5)

    def test_max_is_exactly_one(self):
        norm = normalize_profile(self._profile())
        snr_norms = [b.snr_norm for b in norm.bins if b.snr_norm is not None]
        theory_norms = [b.theory_norm for b in norm.bins if b.theory_norm is not None]
        assert max(snr_norms) == 1.0
        assert max(theory_norms) == 1.0

    def test_theory_values_against_closed_form(self):
        # Bins at mean_p 0.2, 0.5, 0.9 with the max at 0.5 give
        # 2*sqrt(p(1-p)): 0.8, 1.0, 0.6.
        norm = normalize_profile(self._profile())
        assert _bin_with(norm, 0.2).theory_norm == pytest.approx(0.8, abs=1e-12)
        assert _bin_with(norm, 0.4).theory_norm == pytest.approx(1.0, abs=1e-12)
        assert _bin_with(norm, 0.8).theory_norm == pytest.approx(0.6, abs=1e-12)

    def test_ratios_preserved(self):
        profile = self._profile()
        norm = normalize_profile(profile)
        raw = [(b.lo, b.snr) for b in profile.bins if b.snr is not None]
        top = max(s for _, s in raw)
        for lo, s in raw:
            assert _bin_with(norm, lo).snr_norm == pytest.approx(s / top, rel=1e-14)

    def test_empty_and_degenerate_stay_none(self):
        records = [
            _rec("a", 0.1, (1.0,)),
            _rec("b", 0.1, (1.0,)),
            _rec("c", 0.9, (1.0,)),
            _rec("d", 0.9, (3.0,)),
        ]
        norm = normalize_profile(compute_snr_bins(_table(records), num_bins=5))
        degen = norm.bins[0]
        assert degen.snr_norm is None
        assert degen.theory_norm is not None
        empty = norm.bins[2]
        assert empty.snr_norm is None
        assert empty.theory_norm is None

    def test_all_degenerate_rejected(self):
        records = [
            _rec("a", 0.1, (1.0,)),
            _rec("b", 0.1, (1.0,)),
            _rec("c", 0.9, (2.0,)),
            _rec("d", 0.9, (2.0,)),
        ]
        with pytest.raises(DegenerateInputError):
            normalize_profile(compute_snr_bins(_table(records), num_bins=2))

    def test_all_zero_snr_rejected(self):
        records = [
            _rec("a", 0.1, (1.0,)),
            _rec("b", 0.1, (-1.0,)),
            _rec("c", 0.9, (2.0,)),
            _rec("d", 0.9, (-2.0,)),
        ]
        with pytest.raises(DegenerateInputError):
            normalize_profile(compute_snr_bins(_table(records), num_bins=2))


def _profile_from_heights(spec):
    """Build records giving each (center, height) bin snr == height exactly.

    Two records per bin: mean gradient (height, 0), offsets (0, +-1), so
    norm(mean) = height and spread 1.
    """
    records = []
    for i, (center, height) in enumerate(spec):
        records.append(_rec(f"a{i}", center, (height, 1.0)))
        records.append(_rec(f"b{i}", center, (height, -1.0)))
    return compute_snr_bins(_table(records), num_bins=5)


class TestBellShapeScore:
    def test_bell_case_ratio(self):
        profile = _profile_from_heights(
            [(0.1, 0.5), (0.3, 2.0), (0.5, 4.0), (0.7, 2.0), (0.9, 0.5)]
        )
        is_bell, ratio = bell_shape_score(profile)
        assert is_bell
        # Mid bins: mean_p 0.5 only (0.3/0.7 fall outside [0.35, 0.65]).
        # Edge bins: 0.1 and 0.9. Heights normalized by max 4.
        want = (4.0 / 4.0) / np.mean([0.5 / 4.0, 0.5 / 4.0])
        assert ratio == pytest.approx(want, rel=1e-12)

    def test_monotone_profile_is_not_bell(self):
        profile = _profile_from_heights(
            [(0.1, 0.5), (0.3, 1.0), (0.5, 2.0), (0.7, 3.0), (0.9, 4.0)]
        )
        is_bell, ratio = bell_shape_score(profile)
        assert not is_bell
        assert ratio < 1.0

    def test_zero_edges_give_infinite_ratio(self):
        records = [
            _rec("a", 0.1, (1.0, 0.0)),
            _rec("b", 0.1, (-1.0, 0.0)),
            _rec("c", 0.5, (3.0, 1.0)),
            _rec("d", 0.5, (3.0, -1.0)),
            _rec("e", 0.9, (0.0, 1.0)),
            _rec("f", 0.9, (0.0, -1.0)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=5)
        is_bell, ratio = bell_shape_score(profile)
        assert is_bell
        assert math.isinf(ratio)

    def test_accepts_unnormalized_profile(self):
        profile = _profile_from_heights(
            [(0.1, 1.0), (0.5, 3.0), (0.9, 1.0)]
        )
        raw_result = bell_shape_score(profile)
        norm_result = bell_shape_score(normalize_profile(profile))
        assert raw_result == norm_result

    def test_too_few_defined_bins(self):
        profile = _profile_from_heights([(0.1, 1.0), (0.9, 2.0)])
        with pytest.raises(InsufficientDataError):
            bell_shape_score(profile)

    def test_needs_an_edge_bin(self):
        # Three defined bins but none with mean_p < 0.2 or > 0.8.
        profile = _profile_from_heights([(0.25, 1.0), (0.5, 2.0), (0.75, 1.5)])
        with pytest.raises(InsufficientDataError, match="edge bin"):
            bell_shape_score(profile)

    def test_needs_a_mid_bin(self):
        # Three defined bins but none with mean_p in [0.35, 0.65].
        profile = _profile_from_heights([(0.1, 1.0), (0.25, 2.0), (0.9, 1.5)])
        with pytest.raises(InsufficientDataError, match="mid bin"):
            bell_shape_score(profile)
