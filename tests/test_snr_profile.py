import decimal
import io
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpdistill.errors import DegenerateInputError, DomainError, InsufficientDataError
from zpdistill.fileio import _PROFILE_HEADER, _refuse_inf_renderings, fmt, write_profile
from zpdistill.passrate import bin_indices, equal_edges
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


def _bin_with(profile: SnrProfile, lo: float) -> int:
    """Index of the bin whose lower edge is lo."""
    (j,) = np.flatnonzero(np.isclose(profile.edges[:-1], lo))
    return j


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
        assert profile.edges.tolist() == [0.0, 0.5, 1.0]
        assert profile.count.dtype.kind == "i" and profile.count.tolist() == [2, 2]
        # Low bin: mean (0.5, 0.5), each point 0.5 away squared -> spread 0.5.
        assert profile.mean_p[0] == pytest.approx(0.1)
        assert profile.snr[0] == pytest.approx(math.sqrt(0.5) / math.sqrt(0.5), abs=1e-15)
        # High bin: mean (3, 0), spread 1, norm 3.
        assert profile.mean_p[1] == pytest.approx(0.75)
        assert profile.snr[1] == pytest.approx(3.0, abs=1e-14)
        # Normalized values stay undefined until normalize_profile runs.
        assert np.isnan(profile.snr_norm).all() and np.isnan(profile.theory_norm).all()

    def test_p_equal_one_lands_in_final_bin(self):
        records = [
            _rec("a", 1.0, (1.0,)),
            _rec("b", 1.0, (2.0,)),
            _rec("c", 0.0, (3.0,)),
            _rec("d", 0.0, (5.0,)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=4)
        assert profile.count.tolist() == [2, 0, 0, 2]

    def test_empty_bin_fields(self):
        records = [
            _rec("a", 0.05, (1.0,)),
            _rec("b", 0.05, (2.0,)),
            _rec("c", 0.95, (1.0,)),
            _rec("d", 0.95, (4.0,)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=3)
        assert profile.count[1] == 0
        assert np.isnan(profile.mean_p[1])
        assert np.isnan(profile.snr[1])

    def test_degenerate_bin_keeps_mean_p(self):
        records = [
            _rec("a", 0.1, (1.0, 1.0)),
            _rec("b", 0.15, (1.0, 1.0)),
            _rec("c", 0.8, (1.0, 0.0)),
            _rec("d", 0.9, (0.0, 1.0)),
        ]
        profile = compute_snr_bins(_table(records), num_bins=2)
        assert np.isnan(profile.snr[0])
        assert profile.mean_p[0] == pytest.approx(0.125)
        assert profile.count[0] == 2

    @settings(max_examples=200, deadline=None)
    @given(
        row=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        repeats=st.integers(2, 50),
        p=st.floats(0.0, 1.0),
    )
    def test_identical_rows_have_no_snr_whatever_their_count(self, row, repeats, p):
        # A mean of equal rows can round (three 0.1s do), so their deviations
        # need not be exactly 0.
        table = GradientTable(tuple(f"q{i}" for i in range(repeats)), [p] * repeats,
                              [row] * repeats)
        profile = compute_snr_bins(table, num_bins=2)
        assert profile.count.sum() == repeats and np.isnan(profile.snr).all()

    @settings(max_examples=300, deadline=None)
    @given(case=st.data(), k=st.integers(-900, 900))
    def test_a_power_of_two_scale_moves_no_snr_bit(self, case, k):
        # Nonzero magnitudes in [2**-50, 2**50), so every value times 2**k
        # stays a normal double; bins of identical, opposite and free rows.
        dim = case.draw(st.integers(1, 8))
        value = st.just(0.0) | st.builds(
            lambda m, x, sign: sign * math.ldexp(m, x),
            st.floats(1.0, 2.0, exclude_max=True), st.integers(-50, 49), st.sampled_from([1, -1]))
        rows = case.draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                  min_size=1, max_size=40))
        rows += case.draw(st.sampled_from([
            [], rows, [[-x for x in row] for row in rows], [rows[0]] * 3]))
        ps = case.draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
                                min_size=len(rows), max_size=len(rows)))
        ids = tuple(f"q{i}" for i in range(len(rows)))
        base = compute_snr_bins(GradientTable(ids, ps, rows), num_bins=5)
        scaled = compute_snr_bins(GradientTable(ids, ps, np.ldexp(rows, k)), num_bins=5)
        assert scaled.snr.tobytes() == base.snr.tobytes(), (base.snr, scaled.snr)

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

        assert np.array_equal(got.count, ref.count)
        assert np.array_equal(np.isnan(got.snr), np.isnan(ref.snr))
        np.testing.assert_allclose(got.snr, ref.snr, rtol=1e-12)
        np.testing.assert_allclose(got.mean_p, ref.mean_p, rtol=1e-12)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        st.integers(2, 12),
    )
    def test_counts_match_np_histogram(self, ps, num_bins):
        records = [_rec(f"p{i}", p, (float(i), 1.0)) for i, p in enumerate(ps)]
        profile = compute_snr_bins(_table(records), num_bins=num_bins)
        want, _ = np.histogram(ps, bins=np.linspace(0.0, 1.0, num_bins + 1))
        assert profile.count.tolist() == want.tolist()

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
        assert np.nanmax(norm.snr_norm) == 1.0
        assert np.nanmax(norm.theory_norm) == 1.0

    def test_theory_values_against_closed_form(self):
        # Bins at mean_p 0.2, 0.5, 0.9 with the max at 0.5 give
        # 2*sqrt(p(1-p)): 0.8, 1.0, 0.6.
        norm = normalize_profile(self._profile())
        theory = norm.theory_norm
        assert theory[_bin_with(norm, 0.2)] == pytest.approx(0.8, abs=1e-12)
        assert theory[_bin_with(norm, 0.4)] == pytest.approx(1.0, abs=1e-12)
        assert theory[_bin_with(norm, 0.8)] == pytest.approx(0.6, abs=1e-12)

    def test_ratios_preserved(self):
        profile = self._profile()
        norm = normalize_profile(profile)
        defined = ~np.isnan(profile.snr)
        assert defined.sum() == 3
        top = profile.snr[defined].max()
        np.testing.assert_allclose(norm.snr_norm[defined], profile.snr[defined] / top,
                                   rtol=1e-14)

    def test_empty_and_degenerate_stay_none(self):
        records = [
            _rec("a", 0.1, (1.0,)),
            _rec("b", 0.1, (1.0,)),
            _rec("c", 0.9, (1.0,)),
            _rec("d", 0.9, (3.0,)),
        ]
        norm = normalize_profile(compute_snr_bins(_table(records), num_bins=5))
        # Bin 0 is degenerate, bin 2 empty.
        assert np.isnan(norm.snr_norm[0]) and not np.isnan(norm.theory_norm[0])
        assert np.isnan(norm.snr_norm[2]) and np.isnan(norm.theory_norm[2])

    def test_all_degenerate_rejected(self):
        records = [
            _rec("a", 0.1, (1.0,)),
            _rec("b", 0.1, (1.0,)),
            _rec("c", 0.9, (2.0,)),
            _rec("d", 0.9, (2.0,)),
        ]
        with pytest.raises(DegenerateInputError):
            normalize_profile(compute_snr_bins(_table(records), num_bins=2))

    def test_all_theory_values_zero_rejected(self):
        # Both defined bins have spread, but sit at mean_p 0 and 1.
        records = [
            _rec("a", 0.0, (1.0, 1.0)),
            _rec("b", 0.0, (1.0, -1.0)),
            _rec("c", 1.0, (2.0, 1.0)),
            _rec("d", 1.0, (2.0, -1.0)),
        ]
        with pytest.raises(DegenerateInputError, match="all theoretical bin values are zero"):
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


# The record-based profile that the arrays replaced, kept verbatim as the
# oracle of the array path: one SnrBin per bin, None where undefined.
@dataclass(frozen=True)
class _OldSnrBin:
    lo: float
    hi: float
    mean_p: float | None
    count: int
    snr: float | None
    degenerate: bool = False
    snr_norm: float | None = None
    theory_norm: float | None = None


@dataclass(frozen=True)
class _OldSnrProfile:
    bins: tuple[_OldSnrBin, ...]


def _old_compute_snr_bins(table: GradientTable, num_bins: int) -> _OldSnrProfile:
    ps, grads = table.p, table.gradients
    edges = np.asarray(equal_edges(num_bins))
    idx = bin_indices(ps, edges)

    bins: list[_OldSnrBin] = []
    for j in range(num_bins):
        mask = idx == j
        lo, hi = float(edges[j]), float(edges[j + 1])
        count = int(mask.sum())
        if count == 0:
            bins.append(_OldSnrBin(lo=lo, hi=hi, mean_p=None, count=0, snr=None))
            continue
        g = grads[mask]
        identical = len({tuple(row) for row in g.tolist()}) == 1
        g_bar = g.mean(axis=0)
        signal = np.linalg.norm(g_bar)
        g -= g_bar
        g *= g
        spread_sq = float(np.mean(np.sum(g, axis=1)))
        snr = float(signal / math.sqrt(spread_sq)) if spread_sq and not identical else None
        # Out of [2**-511, 2**511] the squares can under- or overflow, so the
        # snr is taken again exactly, from the rows and rounded mean row.
        in_range = 2**-511 <= signal <= 2**511 and 2**-1022 <= spread_sq <= 2**1022
        if not identical and not in_range:
            snr = _old_exact_snr(grads[mask], g_bar)
            if math.isinf(snr):
                raise DomainError(f"bin {j}: snr is above the double range")
        bins.append(
            _OldSnrBin(lo=lo, hi=hi, mean_p=float(ps[mask].mean()), count=count,
                       snr=snr, degenerate=snr is None)
        )
    return _OldSnrProfile(bins=tuple(bins))


def _old_exact_snr(rows: np.ndarray, mean: np.ndarray) -> float:
    """||mean|| / RMS ||row - mean|| over the rows, in rationals from the
    doubles, as the nearest double (inf above the double range)."""
    mean = [Fraction(m) for m in mean.tolist()]
    signal_sq = sum(m * m for m in mean)
    spread_sq = sum(
        (Fraction(x) - m) ** 2 for row in rows.tolist() for x, m in zip(row, mean)
    ) / len(rows)
    ratio = signal_sq / spread_sq
    exact = decimal.Context(prec=40, Emin=-10**6, Emax=10**6)
    return float(exact.sqrt(exact.divide(ratio.numerator, ratio.denominator)))


def _old_theory_value(mean_p: float) -> float:
    return math.sqrt(mean_p * (1.0 - mean_p))


def _old_normalize_profile(profile: _OldSnrProfile) -> _OldSnrProfile:
    defined = [b.snr for b in profile.bins if b.snr is not None and b.count > 0]
    if not defined:
        raise DegenerateInputError("no bin has a defined SNR")
    snr_max = max(defined)
    if snr_max <= 0.0:
        raise DegenerateInputError("all defined SNR values are zero")
    theory_values = [
        _old_theory_value(b.mean_p) for b in profile.bins if b.mean_p is not None
    ]
    theory_max = max(theory_values)
    if theory_max <= 0.0:
        raise DegenerateInputError("all theoretical bin values are zero")

    out = []
    for b in profile.bins:
        snr_norm = None if b.snr is None else b.snr / snr_max
        theory_norm = (
            None if b.mean_p is None else _old_theory_value(b.mean_p) / theory_max
        )
        out.append(replace(b, snr_norm=snr_norm, theory_norm=theory_norm))
    return _OldSnrProfile(bins=tuple(out))


def _old_bell_shape_score(profile: _OldSnrProfile) -> tuple[bool, float]:
    n_defined = sum(1 for b in profile.bins if b.snr is not None)
    if n_defined < 3:
        raise InsufficientDataError(
            f"bell_shape_score needs >= 3 defined bins, got {n_defined}"
        )
    if any(b.snr is not None and b.snr_norm is None for b in profile.bins):
        profile = _old_normalize_profile(profile)

    mid = [
        b.snr_norm
        for b in profile.bins
        if b.snr_norm is not None and b.mean_p is not None and 0.35 <= b.mean_p <= 0.65
    ]
    edge = [
        b.snr_norm
        for b in profile.bins
        if b.snr_norm is not None
        and b.mean_p is not None
        and (b.mean_p < 0.2 or b.mean_p > 0.8)
    ]
    if not mid or not edge:
        raise InsufficientDataError(
            "bell_shape_score needs at least one mid bin (mean_p in [0.35, 0.65]) "
            "and one edge bin (mean_p < 0.2 or > 0.8)"
        )
    edge_mean = float(np.mean(edge))
    if edge_mean == 0.0:
        return True, math.inf
    ratio = float(np.mean(mid)) / edge_mean
    return ratio > 1.0, ratio


def _old_opt(x: float | None) -> str:
    return "" if x is None else fmt(x)


def _old_write_profile(f, profile: _OldSnrProfile) -> None:
    snr = np.array([b.snr or 0.0 for b in profile.bins])
    _refuse_inf_renderings(snr, "bin", range(len(snr)))
    f.write(_PROFILE_HEADER + "\n")
    for b in profile.bins:
        fields = [
            fmt(b.lo),
            fmt(b.hi),
            _old_opt(b.mean_p),
            str(b.count),
            _old_opt(b.snr),
            _old_opt(b.snr_norm),
            _old_opt(b.theory_norm),
        ]
        f.write(",".join(fields) + "\n")


def _outcome(fn, profile):
    """fn(profile), or the type and message of the error it raises."""
    try:
        return fn(profile)
    except (DegenerateInputError, InsufficientDataError) as exc:
        return type(exc), str(exc)


def _written(write, profile) -> str:
    buf = io.StringIO()
    write(buf, profile)
    return buf.getvalue()


def _assert_matches_oracle(table: GradientTable, num_bins: int) -> None:
    """The array path writes the oracle's profile bytes, raw and normalized,
    and gives its bell result, on a copy of the same table each."""
    try:
        new = compute_snr_bins(table, num_bins)
    except DomainError as exc:  # an snr above the double range
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            _old_compute_snr_bins(table, num_bins)
        return
    old = _old_compute_snr_bins(table, num_bins)
    assert _written(write_profile, new) == _written(_old_write_profile, old)
    degenerate = (new.count > 0) & np.isnan(new.snr)
    assert degenerate.tolist() == [b.degenerate for b in old.bins]
    old_norm = _outcome(_old_normalize_profile, old)
    new_norm = _outcome(normalize_profile, new)
    if isinstance(old_norm, _OldSnrProfile):
        assert _written(write_profile, new_norm) == _written(_old_write_profile, old_norm)
        assert _outcome(bell_shape_score, new_norm) == _outcome(_old_bell_shape_score, old_norm)
    else:
        assert new_norm == old_norm
    assert _outcome(bell_shape_score, new) == _outcome(_old_bell_shape_score, old)


_KINDS = ("empty", "degenerate", "zero_signal", "spread")


@st.composite
def _binned_tables(draw):
    """(table, num_bins) at 2 to 50 bins, each bin empty, degenerate
    (identical rows), zero-signal (rows +v and -v, mean exactly 0) or spread."""
    num_bins = draw(st.integers(2, 50))
    dim = draw(st.integers(1, 3))
    edges = equal_edges(num_bins)
    coord = st.floats(-8.0, 8.0, allow_subnormal=False)
    row = st.lists(coord, min_size=dim, max_size=dim)
    # Pass rates at a bin's lower edge or inside it.
    where = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.99)
    ps, grads = [], []
    for j in range(num_bins):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "empty":
            continue
        if kind == "degenerate":
            rows = [draw(row)] * draw(st.integers(1, 3))
        elif kind == "zero_signal":
            v = draw(row)
            rows = [v, [-x for x in v]] * draw(st.integers(1, 2))
        else:
            rows = draw(st.lists(row, min_size=1, max_size=5))
        ps += [edges[j] + (edges[j + 1] - edges[j]) * draw(where) for _ in rows]
        grads += rows
    if not ps:
        ps, grads = [1.0], [[1.0] * dim]
    ids = tuple(f"q{i}" for i in range(len(ps)))
    return GradientTable(ids, ps, grads), num_bins


class TestRecordOracle:
    @settings(max_examples=300, deadline=None)
    @given(_binned_tables())
    def test_array_path_matches_record_path(self, case):
        _assert_matches_oracle(*case)

    @pytest.mark.parametrize("num_bins", [2, 3, 5, 7, 10, 13, 50])
    def test_every_kind_of_bin(self, num_bins):
        # Bins from low to high: spread rows, then zero-signal, degenerate
        # and empty ones, at the edges and in the middle of [0, 1].
        rng = np.random.default_rng(num_bins)
        ps = list(rng.uniform(0.0, 1.0, 400)) + [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
        grads = list(rng.normal(0.3, 1.0, (400, 4)))
        grads += [[1, 2, 3, 4]] * 2 + [[1, -1, 0, 2], [-1, 1, 0, -2]] + [[5, 5, 5, 5]] * 2
        table = GradientTable(tuple(f"q{i}" for i in range(406)), ps, grads)
        _assert_matches_oracle(table, num_bins)
        sparse = GradientTable(("a", "b", "c", "d", "e"), [0.0, 0.0, 0.5, 0.5, 1.0],
                               [[1.0, 2.0], [1.0, 2.0], [1.0, 0.0], [-1.0, 0.0], [3.0, 1.0]])
        _assert_matches_oracle(sparse, num_bins)
        # Bins whose mean_p sits exactly on a mid or edge bound of the bell.
        bounds = [0.1, 0.2, 0.35, 0.5, 0.65, 0.8]
        grads = [[1.0 + i, sign] for i in range(len(bounds)) for sign in (1.0, -1.0)]
        on_bounds = GradientTable(tuple(f"b{i}" for i in range(len(grads))),
                                  np.repeat(bounds, 2), grads)
        _assert_matches_oracle(on_bounds, num_bins)
