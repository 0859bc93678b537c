import math
import warnings

import numpy as np
import pytest

from mexneedlets import (FrameSpec, SpectralFilter, calderon_constant, daubechies_bounds,
                         daubechies_sum, eigen_daubechies_sum, sphere_eigenvalue,
                         truncated_daubechies_sum, window_margin)
from mexneedlets import daubechies
from mexneedlets.daubechies import (_MAX_TERMS, _TAIL_REL, _WALK_CHUNK_CELLS, _ladder_sums,
                                    _ladder_walk, _peak_rung)

MEX1 = SpectralFilter("mexican", 1)
MEX2 = SpectralFilter("mexican", 2)
CUT = SpectralFilter("cutoff_bump")
NORM = SpectralFilter("normalized_cutoff")
A13 = 2.0 ** (1.0 / 3.0)


def scalar_ladder_sum(filt, a, lam):
    """Reference walk: one rung at a time outward from the peak rung, same stop rule."""
    sigma = a ** filt.dilation_exponent
    x_peak = _peak_rung(lam, sigma)
    total = float(filt(x_peak)) ** 2
    for direction in (sigma, 1.0 / sigma):
        x = x_peak
        small = 0
        for _ in range(_MAX_TERMS):
            x *= direction
            term = float(filt(x)) ** 2
            total += term
            if term <= _TAIL_REL * total:
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
        else:
            raise RuntimeError("ladder sum failed to converge")
    return total


def brute_ladder_sum(filt, a, lam, span=400):
    """Independent oracle: direct summation over a wide fixed scale range."""
    sigma = a ** filt.dilation_exponent
    js = np.arange(-span, span + 1)
    return float(np.sum(filt(lam * sigma ** js.astype(float)) ** 2))


def brent_bounds(filt, a, grid_points=256):
    """Oracle: the same scan, then a bounded Brent search (xatol 1e-12 period) about each extremum."""
    from scipy.optimize import minimize_scalar

    period = 2.0 * math.log(a)
    us = np.linspace(0.0, period, grid_points, endpoint=False)
    gs = _ladder_sums(filt, a, [math.exp(u) for u in us])
    h = period / grid_points

    def refine(i, sign):
        res = minimize_scalar(lambda u: sign * daubechies_sum(filt, a, math.exp(u)),
                              bounds=(us[i] - h, us[i] + h), method="bounded",
                              options={"xatol": 1e-12 * max(period, 1.0)})
        return sign * res.fun

    return (min(float(np.min(gs)), refine(int(np.argmin(gs)), 1.0)),
            max(float(np.max(gs)), refine(int(np.argmax(gs)), -1.0)))


def test_sum_matches_brute_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        lam = math.exp(rng.uniform(-5, 5))
        a = 1.05 + 1.2 * rng.random()
        got = daubechies_sum(MEX1, a, lam)
        assert got == pytest.approx(brute_ladder_sum(MEX1, a, lam), rel=1e-13)


def test_reference_point_value():
    # hand-checked: the j in [-5, 2] terms dominate
    assert daubechies_sum(MEX1, 2.0, 1.0) == pytest.approx(0.18231, abs=1e-5)
    assert daubechies_sum(MEX1, 2.0, 1.0) == pytest.approx(brute_ladder_sum(MEX1, 2.0, 1.0), rel=1e-14)


def test_periodicity_reindexing():
    rng = np.random.default_rng(2)
    for a in (A13, 2.0):
        for _ in range(100):
            lam = math.exp(rng.uniform(-6, 6))
            g1 = daubechies_sum(MEX1, a, lam)
            g2 = daubechies_sum(MEX1, a, a * a * lam)
            assert g2 == pytest.approx(g1, rel=1e-12)


def test_near_one_dilation_tracks_calderon_level():
    ref = calderon_constant(MEX1) / (2.0 * math.log(A13))
    for lam in (0.07, 1.0, 13.0, 400.0):
        assert daubechies_sum(MEX1, A13, lam) == pytest.approx(ref, rel=1e-4)


def test_truncated_sum_single_term_and_sandwich():
    assert truncated_daubechies_sum(MEX1, 2.0, 1.7, 0, 0) == pytest.approx(MEX1(1.7) ** 2, rel=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = math.exp(rng.uniform(-4, 4))
        M, N = rng.integers(0, 8, size=2)
        full = daubechies_sum(MEX1, 2.0, lam)
        part = truncated_daubechies_sum(MEX1, 2.0, lam, int(M), int(N))
        assert part <= full * (1 + 1e-14)


def test_truncated_sum_converges_to_full():
    full = daubechies_sum(MEX1, 2.0, 1.0)
    # remaining tail at M=N=5 is the j=-6 term (4^-6 e^{-4^-6})^2 ~ 6e-8,
    # dropping below 1e-10 once both windows reach 9
    assert full - truncated_daubechies_sum(MEX1, 2.0, 1.0, 5, 5) == pytest.approx(6.36e-8, rel=2e-2)
    assert truncated_daubechies_sum(MEX1, 2.0, 1.0, 9, 9) == pytest.approx(full, abs=1e-10)
    gaps = [full - truncated_daubechies_sum(MEX1, 2.0, 1.0, M, M) for M in (1, 2, 3, 4)]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))


def test_bounds_mexican_near_one():
    b = daubechies_bounds(MEX1, A13)
    assert abs(b.ratio - 1.0) < 5e-5  # four significant digits
    assert 0 < b.A <= b.reference_level <= b.B


def test_bounds_ratio_trend_in_a():
    r16 = daubechies_bounds(MEX1, 2.0 ** (1.0 / 6.0)).ratio
    r13 = daubechies_bounds(MEX1, A13).ratio
    r2 = daubechies_bounds(MEX1, 2.0).ratio
    assert r16 < r13 < r2
    assert all(r >= 1.0 for r in (r16, r13, r2))


def test_bounds_enclose_sum_everywhere():
    rng = np.random.default_rng(4)
    for a in (A13, 2.0 ** (1.0 / 6.0)):
        b = daubechies_bounds(MEX1, a)
        lams = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000))
        for lam in lams:
            g = daubechies_sum(MEX1, a, float(lam))
            assert b.A * (1 - 1e-10) <= g <= b.B * (1 + 1e-10)


BOUNDS_CASES = ([(SpectralFilter("mexican", r), a) for r in (1, 2, 3)
                 for a in (1.002, 1.05, A13, 1.2599, math.sqrt(2.0), 2.0)]
                + [(CUT, 1.3), (CUT, 2.0), (NORM, 2.0)])


@pytest.mark.parametrize("filt, a", BOUNDS_CASES,
                         ids=["%s-%.6g" % (filt.name, a) for filt, a in BOUNDS_CASES])
def test_bounds_match_the_brent_oracle_and_enclose_a_fine_scan(filt, a):
    b = daubechies_bounds(filt, a)
    A0, B0 = brent_bounds(filt, a)
    # where g is flat to its own rounding (B - A below 1e-13 of A: a <= 1.05 for
    # mexican filters, normalized cutoff), A and B are extremes of rounding noise,
    # and the two searches sample different points of it
    noise = B0 - A0 if B0 - A0 < 1e-13 * A0 else 0.0
    assert abs(b.A - A0) <= max(1e-15 * A0, noise)
    assert abs(b.B - B0) <= max(1e-15 * B0, noise)
    # a 16 times finer scan, allowing the sum's rounding (2.3e-15 of A at a = 1.002)
    us = np.linspace(0.0, 2.0 * math.log(a), 4096, endpoint=False)
    scan = _ladder_sums(filt, a, np.exp(us))
    assert b.A * (1.0 - 1e-14) <= np.min(scan)
    assert np.max(scan) <= b.B * (1.0 + 1e-14)


def test_bounds_refine_both_extrema_in_one_ladder_call_per_step(monkeypatch):
    sizes = []

    def recording(filt, a, lams):
        sizes.append(len(lams))
        return _ladder_sums(filt, a, lams)

    monkeypatch.setattr(daubechies, "_ladder_sums", recording)
    daubechies_bounds(MEX1, 2.0)
    assert sizes[0] == 256
    assert 1 <= len(sizes) - 1 <= daubechies._PARABOLIC_STEPS
    assert set(sizes[1:]) == {2}


def test_normalized_cutoff_exact_partition_bounds():
    b = daubechies_bounds(NORM, 2.0)
    assert b.A == pytest.approx(1.0, abs=1e-10)
    assert b.B == pytest.approx(1.0, abs=1e-10)
    assert b.ratio == pytest.approx(1.0, abs=1e-10)
    assert b.reference_level == pytest.approx(1.0, rel=1e-9)


def test_eigen_axis_sum_consistency():
    # on the eigenvalue axis both filter families use multiplier ladders
    lam = 12.0
    direct = sum(MEX1.multiplier(A13 ** j, lam) ** 2 for j in range(-60, 40))
    assert eigen_daubechies_sum(MEX1, A13, lam) == pytest.approx(direct, rel=1e-12)
    direct = sum(NORM.multiplier(2.0 ** j, lam) ** 2 for j in range(-40, 40))
    assert eigen_daubechies_sum(NORM, 2.0, lam) == pytest.approx(direct, rel=1e-12)
    assert eigen_daubechies_sum(NORM, 2.0, lam) == pytest.approx(1.0, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        daubechies_sum(MEX1, 1.0, 1.0)
    with pytest.raises(ValueError):
        daubechies_sum(MEX1, 2.0, 0.0)
    with pytest.raises(ValueError):
        daubechies_bounds(MEX1, A13, grid_points=32)
    with pytest.raises(ValueError):
        truncated_daubechies_sum(MEX1, 2.0, 1.0, -1, 0)


def test_non_finite_dilation_rejected():
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dilation a must be finite"):
            daubechies_bounds(MEX1, a)



@pytest.mark.parametrize("filt, a", [(MEX1, A13), (MEX1, math.sqrt(2.0)), (MEX1, 2.0),
                                     (MEX2, A13), (MEX2, math.sqrt(2.0)), (MEX2, 2.0),
                                     (NORM, 2.0)])
def test_bounds_scan_is_bit_identical_to_one_sum_per_point(filt, a):
    # the 256-point scan of daubechies_bounds walks every ladder at once
    us = np.linspace(0.0, 2.0 * math.log(a), 256, endpoint=False)
    lams = [math.exp(u) for u in us]
    expected = np.array([scalar_ladder_sum(filt, a, lam) for lam in lams])
    assert np.array_equal(_ladder_sums(filt, a, lams), expected)


def test_ladder_sums_are_bit_identical_at_random_points():
    rng = np.random.default_rng(4)
    for filt in (MEX1, MEX2, NORM):
        a = 1.05 + 1.5 * rng.random()
        lams = np.exp(rng.uniform(-12.0, 12.0, 40)).tolist()
        expected = np.array([scalar_ladder_sum(filt, a, lam) for lam in lams])
        assert np.array_equal(_ladder_sums(filt, a, lams), expected)


@pytest.mark.parametrize("a", [1.01, 1.1, A13, math.sqrt(2.0), 2.0])
@pytest.mark.parametrize("filt", [MEX1, MEX2, CUT, NORM], ids=lambda f: f.name)
def test_block_walk_equals_scalar_walk(filt, a):
    # at a = 1.01 a mexican walk takes several blocks of rungs in each direction
    rng = np.random.default_rng(5)
    lams = np.exp(rng.uniform(-20.0, 20.0, 60)).tolist()
    expected = np.array([scalar_ladder_sum(filt, a, lam) for lam in lams])
    assert np.array_equal(_ladder_sums(filt, a, lams), expected)
    assert np.array_equal([daubechies_sum(filt, a, lam) for lam in lams], expected)


def test_block_walk_stays_finite_for_steep_filter():
    # s^8 overflows 64 rungs past the stop at sigma = 16; the blocks stop short of that
    mex8 = SpectralFilter("mexican", 8)
    lams = np.exp(np.linspace(-20.0, 20.0, 41)).tolist()
    expected = [scalar_ladder_sum(mex8, 4.0, lam) for lam in lams]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_ladder_sums(mex8, 4.0, lams), expected)


class RungFilter:
    """Summand on the ladder 2^n: 1 for 0 <= n < k, 1e-10 at n = k, k + 1, 1 at k + 2, else 0."""

    dilation_exponent = 1

    def __init__(self, k):
        self.k = k

    def __call__(self, s):
        n = np.rint(np.log2(s))
        return np.select([n < 0, n < self.k, n < self.k + 2, n == self.k + 2],
                         [0.0, 1.0, 1e-10, 1.0], 0.0)


def test_walk_stops_at_the_first_two_small_terms():
    # the walk must stop before rung k + 2 wherever the pair falls against
    # the block boundaries; every term past the stop of a real filter is
    # below half an ulp of the total, so only a stub can show the stop
    for k in range(1, 70):
        filt = RungFilter(k)
        assert scalar_ladder_sum(filt, 2.0, 1.0) == k
        assert daubechies_sum(filt, 2.0, 1.0) == k
        assert np.array_equal(_ladder_sums(filt, 2.0, [1.0, 3.0, 1.0]), [k, k, k])


class LoneSmallFilter(RungFilter):
    """RungFilter with a single small term: 1e-10 at n = k only, then 1 at n = k + 1."""

    def __call__(self, s):
        n = np.rint(np.log2(s))
        return np.select([n < 0, n < self.k, n == self.k, n == self.k + 1], [0.0, 1.0, 1e-10, 1.0],
                         0.0)


def test_one_sided_walk_stops_at_the_first_two_small_terms():
    # from start rungs 2^0 and 2^1 with running totals 1 and 0.5, up and down
    for k in range(2, 70):
        up = _ladder_walk(RungFilter(k), 2.0, [1.0, 2.0], [1.0, 0.5], 1)
        assert np.array_equal(up, [k, k - 1.5])
        # one small term is not a stop: the walk goes on to the 1 at rung k + 1
        assert np.array_equal(_ladder_walk(LoneSmallFilter(k), 2.0, [1.0], [1.0], 1), [k + 1])
        down = _ladder_walk(RungFilter(k), 2.0, [2.0 ** (k + 3)], [0.0], -1)
        assert np.array_equal(down, [1.0])


def test_walk_out_of_rungs_raises_a_value_error_naming_the_dilation():
    with pytest.raises(ValueError, match=r"dilation a = 1\.0001 does not converge"):
        daubechies_sum(MEX1, 1.0001, 1.0)


class RecordingFilter:
    """A filter that records the number of arguments of every call."""

    def __init__(self, filt):
        self.filt = filt
        self.dilation_exponent = filt.dilation_exponent
        self.sizes = []

    def __call__(self, s):
        self.sizes.append(np.size(s))
        return self.filt(s)


def test_walk_blocks_fit_the_walk_cell_budget():
    # at a = 1.0001 the downward walks run out of rungs, so every ladder takes
    # blocks for the whole _MAX_TERMS rungs
    filt = RecordingFilter(MEX1)
    lams = np.exp(np.linspace(-5.0, 5.0, 1000)).tolist()
    with pytest.raises(ValueError, match="does not converge"):
        _ladder_sums(filt, 1.0001, lams)
    assert len(filt.sizes) > 2
    assert max(filt.sizes) <= _WALK_CHUNK_CELLS


@pytest.mark.parametrize("filt, a", [(MEX1, A13), (NORM, 2.0), (CUT, 1.3)])
def test_window_margin_equals_per_degree_loop(filt, a):
    spec = FrameSpec.build(filt, a, 0.9, L_max=24, j_range=(-4, 1))
    for M, N in ((0, 0), (3, 1), (22, 4)):
        worst = 0.0
        for l in range(1, spec.L_max + 1):
            lam = sphere_eigenvalue(l)
            x = lam if filt.dilation_exponent == 2 else math.sqrt(lam)
            g = scalar_ladder_sum(filt, a, x)
            worst = max(worst, (g - truncated_daubechies_sum(filt, a, x, M, N)) / g)
        assert window_margin(spec, M, N) == worst
