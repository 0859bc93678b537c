import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from mexneedlets import (SpectralFilter, kernel_gaussian_approx,
                         kernel_profile, kernel_series, series_gaussian_max_diff)
from mexneedlets.errors import SeriesOverflowError, UnsupportedFilterError
from mexneedlets.kernels import band_weight, series_cut_degree

MEX1 = SpectralFilter("mexican", 1)
CUT = SpectralFilter("cutoff_bump")


def series_oracle(filt, t, x, L, convention="laplacian"):
    """Plain truncated sum with an explicit degree (tail-bound cross-check)."""
    ls = np.arange(L + 1)
    w = (2 * ls + 1) * band_weight(filt, t, ls, convention)
    return float(np.dot(w, eval_legendre(ls, x)))


def test_large_scale_kernel_is_negligible():
    # dominated by the l=1 term, 3 f(200) cos(theta) ~ 6e-85
    val = kernel_series(MEX1, 10.0, 0.7, tol=1e-90)
    assert abs(val) < 1e-80


def test_peak_value_near_hundred():
    val = kernel_series(MEX1, 0.1, 1.0, tol=1e-10)
    assert val == pytest.approx(99.9993308, abs=1e-4)
    assert 95.0 <= val <= 105.0


def test_mean_zero_against_weight():
    # int_0^pi h_t(cos th) sin th dth = 0 since the l=0 band is absent
    x, w = np.polynomial.legendre.leggauss(80)
    vals = kernel_series(MEX1, 0.4, x, tol=1e-12)
    assert abs(float(np.dot(w, vals))) < 1e-9


def test_tail_bound_soundness():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        x = rng.uniform(-1, 1)
        tol = 10.0 ** rng.uniform(-10, -6)
        L = series_cut_degree(MEX1, t, tol)
        v1 = series_oracle(MEX1, t, x, L)
        v2 = series_oracle(MEX1, t, x, 2 * L)
        assert abs(v1 - v2) < tol
        assert abs(kernel_series(MEX1, t, x, tol=tol) - v2) < tol


def test_series_overflow_guard():
    with pytest.raises(SeriesOverflowError):
        series_cut_degree(CUT, 1e-7, 1e-8)
    with pytest.raises(SeriesOverflowError):
        kernel_series(MEX1, 1e-6, 0.5, tol=1e-12)


def test_gaussian_approx_values():
    # theta = 0: exp factor 1, value (p - t^2 q)/t^2 with the printed series
    t = 0.1
    p0 = 1 + t**2/3 + t**4/15 + 4*t**6/315 + t**8/315
    q0 = 1/3 + 2*t**2/15 + 4*t**4/105 + 4*t**6/315
    assert kernel_gaussian_approx(t, 0.0) == pytest.approx((p0 - t*t*q0) / t**2, rel=1e-14)
    # first factor vanishes at theta = 2t and forces a negative value
    th = 2 * t
    q_at = 1/3 + 2*t**2/15 + 4*t**4/105 + 4*t**6/315 \
        + (th*th/4) * (2/15 + 8*t**2/105 + 4*t**4/105)
    assert kernel_gaussian_approx(t, th) == pytest.approx(-math.exp(-1.0) * q_at, rel=1e-13)
    assert kernel_gaussian_approx(t, th) < 0


def test_gaussian_filter_guard():
    with pytest.raises(UnsupportedFilterError):
        kernel_gaussian_approx(0.1, 0.0, SpectralFilter("mexican", 2))
    with pytest.raises(UnsupportedFilterError):
        kernel_gaussian_approx(0.1, 0.0, CUT)
    kernel_gaussian_approx(0.1, 0.0, MEX1)  # allowed


def test_series_gaussian_agreement():
    # measured ceilings; the approximation error grows with t
    ceilings = {0.05: 3e-4, 0.1: 9.5e-4, 0.15: 2.2e-3}
    diffs = {t: series_gaussian_max_diff(t, n_theta=2001) for t in ceilings}
    for t, cap in ceilings.items():
        assert diffs[t] <= cap
    assert diffs[0.05] < diffs[0.1] < diffs[0.15]


def test_auto_dispatch():
    far = kernel_profile(MEX1, 10.0, 101, method="auto")
    assert far.method == "series"
    assert np.array_equal(far.values, kernel_series(MEX1, 10.0, np.cos(far.thetas)))
    near = kernel_profile(MEX1, 0.05, 101, method="auto")
    assert near.method == "gaussian"
    assert np.array_equal(near.values, kernel_gaussian_approx(0.05, near.thetas))
    # crossover region: both methods agree to 1e-2
    for x in np.linspace(-1, 1, 21):
        s = kernel_series(MEX1, 0.2, x, tol=1e-10)
        g = kernel_gaussian_approx(0.2, math.acos(x))
        assert abs(s - g) < 1e-2


def test_profile_symmetry_and_csv(tmp_path):
    prof = kernel_profile(MEX1, 0.1, 101, method="series")
    assert len(prof.thetas) == 101
    assert np.allclose(prof.values, prof.values[::-1], atol=1e-9)
    assert np.all(np.diff(prof.thetas) > 0)
    # single central peak ~100, a shallow negative ring, fast decay outward
    assert prof.values[50] == pytest.approx(99.9993, abs=1e-3)
    assert prof.values.min() < 0
    assert abs(prof.values[0]) < 1e-6
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,value,method,t,filter"
    assert len(lines) == 102
    assert lines[1].endswith("series,0.1,mexican:r=1")


def test_cutoff_profile_oscillates():
    prof = kernel_profile(CUT, 0.1, 1001, method="series", convention="degree")
    vals = prof.values[np.abs(prof.values) > 1e-12]
    sign_changes = int(np.sum(np.diff(np.sign(vals)) != 0))
    assert sign_changes > 3


def test_large_t_decay_rate():
    caps = []
    for t in (5.0, 10.0, 20.0):
        vals = kernel_series(MEX1, t, np.linspace(-1, 1, 41), tol=1e-120)
        caps.append(t ** 4 * float(np.max(np.abs(vals))))
    assert caps[0] < 1e-15 and caps[1] < caps[0] and caps[2] <= caps[1]


def test_profile_validation():
    with pytest.raises(ValueError):
        kernel_profile(MEX1, 0.1, 1)
    with pytest.raises(ValueError):
        kernel_series(MEX1, 0.1, 1.5)
    with pytest.raises(ValueError):
        kernel_series(MEX1, -0.1, 0.5)


def test_kernel_profile_rejects_non_finite_scale():
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="scale t must be positive and finite"):
            kernel_profile(MEX1, t, 11)


def test_gaussian_approx_rejects_bad_scale():
    with pytest.raises(ValueError, match="scale t must be positive and finite"):
        kernel_gaussian_approx(math.nan, 0.3)
    # 1/t^2 overflows: the closed form has no finite value at theta = 0
    with pytest.raises(ValueError, match="floating-point range"):
        kernel_gaussian_approx(1e-300, np.array([0.0, 0.3]))


def test_series_cut_degree_outside_float_range():
    # t^2 underflows to 0 (the degree formula divided by it) or overflows
    for filt in (MEX1, CUT):
        for t in (1e-300, 1e308):
            with pytest.raises(SeriesOverflowError, match="floating-point range"):
                series_cut_degree(filt, t, 1e-8)
    # t^2 is finite but t^2 L^2 is not: the tail cannot be certified
    for convention in ("laplacian", "degree"):
        with pytest.raises(SeriesOverflowError):
            series_cut_degree(MEX1, 1e154, 1e-8, convention)
    with pytest.raises(ValueError, match="finite"):
        series_cut_degree(MEX1, math.nan, 1e-8)
