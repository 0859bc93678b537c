import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre

from mexneedlets import (FrameSpec, GeodesicCap, HarmonicField, SpectralFilter,
                         apply_summation, complement_masks, daubechies_bounds,
                         empirical_frame_bounds, fit_riemann_constant, frequency_bound,
                         measured_truncation_error, moment_constant, quadratic_form,
                         spatial_index_set, spatial_truncation_report,
                         spectral_tail_norm, window_margin)
from mexneedlets.harmonics import sh_index
from mexneedlets.truncation import cap_energy_split

MEX1 = SpectralFilter("mexican", 1)
CUT = SpectralFilter("cutoff_bump")
A13 = 2.0 ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def spec():
    # small window whose margin is still comfortable for L_max = 2
    return FrameSpec.build(MEX1, A13, 0.9, L_max=2, j_range=(-22, 5))


@pytest.fixture(scope="module")
def bounds():
    return daubechies_bounds(MEX1, A13)


def test_moment_constant_closed_forms():
    # max r^J s^r e^{-s} is attained at s = J + r
    assert moment_constant(MEX1, 1) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-8)
    assert moment_constant(MEX1, 3) == pytest.approx(256.0 * math.exp(-4.0), rel=1e-8)
    mex2 = SpectralFilter("mexican", 2)
    assert moment_constant(mex2, 2) == pytest.approx(4.0 ** 4 * math.exp(-4.0), rel=1e-8)


def test_moment_constant_cutoff_support():
    got = moment_constant(CUT, 3)
    s = np.linspace(0.5, 2.0, 20001)
    assert got == pytest.approx(float(np.max(s ** 3 * CUT(s))), rel=1e-6)
    with pytest.raises(ValueError):
        moment_constant(MEX1, 0)


def test_prefactor_arithmetic(spec, bounds):
    rep = frequency_bound(spec, 1, 1, 2.0, 3, 3, 0.0, 1.0, bounds=bounds)
    assert rep.c_prime_L == pytest.approx(4.0 / (A13 ** 4 - 1.0), rel=1e-12)
    assert rep.c_prime_L == pytest.approx(2.632, abs=5e-4)
    m1 = moment_constant(MEX1, 1)
    assert rep.C_prime_J == pytest.approx(m1 ** 2 / ((A13 ** 4 - 1.0) * 4.0), rel=1e-8)
    assert rep.M_J == pytest.approx(m1, rel=1e-12)


def test_bound_monotonicity_and_limit(spec, bounds):
    vals_M = [frequency_bound(spec, 1, 1, 6.0, M, 4, 0.0, 1.0, bounds=bounds).bound_without_C0b
              for M in range(8)]
    vals_N = [frequency_bound(spec, 1, 1, 6.0, 4, N, 0.0, 1.0, bounds=bounds).bound_without_C0b
              for N in range(8)]
    assert all(x > y for x, y in zip(vals_M, vals_M[1:]))
    assert all(x > y for x, y in zip(vals_N, vals_N[1:]))
    far = frequency_bound(spec, 1, 1, 6.0, 60, 60, 0.0, 1.0, bounds=bounds).bound_without_C0b
    assert far < 1e-20


def test_bound_parameter_errors(spec, bounds):
    with pytest.raises(ValueError):
        frequency_bound(spec, 1, 0, 6.0, 1, 1, 0.0, 1.0, bounds=bounds)
    with pytest.raises(ValueError):
        frequency_bound(spec, 1, 1, 0.0, 1, 1, 0.0, 1.0, bounds=bounds)
    with pytest.raises(ValueError):
        frequency_bound(spec, 2, 1, 6.0, 1, 1, 0.0, 1.0, bounds=bounds)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["J", "L", "M", "N", "tail_norm", "F_norm"])
def test_bound_rejects_non_finite_arguments(spec, bounds, name, value):
    args = {"J": 1, "L": 6.0, "M": 1, "N": 1, "tail_norm": 0.0, "F_norm": 1.0}
    args[name] = value
    with pytest.raises(ValueError, match="%s must be finite" % name):
        frequency_bound(spec, 1, bounds=bounds, **args)


def test_bound_rejects_negative_norms(spec, bounds):
    for tail_norm, F_norm in ((-1.0, 1.0), (0.0, -1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            frequency_bound(spec, 1, 1, 6.0, 1, 1, tail_norm, F_norm, bounds=bounds)


def test_spectral_tail_norm_thresholds():
    F = HarmonicField.random_mean_zero(5, np.random.default_rng(0))
    assert spectral_tail_norm(F, 30.0) == 0.0
    assert spectral_tail_norm(F, 0.0) == pytest.approx(F.norm(), rel=1e-14)
    u = HarmonicField.single_harmonic(3, 0, L=5)
    assert spectral_tail_norm(u, 11.0) == pytest.approx(1.0)
    assert spectral_tail_norm(u, 12.0) == 0.0


def test_measured_error_full_window_and_monotone(spec):
    F = HarmonicField.random_mean_zero(2, np.random.default_rng(1))
    assert measured_truncation_error(spec, F, 22, 5) == 0.0
    errs = [measured_truncation_error(spec, F, 22, N) for N in (5, 3, 1, 0)]
    assert all(x <= y + 1e-16 for x, y in zip(errs, errs[1:]))
    with pytest.raises(ValueError):
        measured_truncation_error(spec, F, 23, 5)
    with pytest.raises(ValueError):
        measured_truncation_error(spec, F, 22, 6)


def test_window_margin_adequacy_link(spec):
    margin = window_margin(spec, 20, 3)
    assert margin < 1e-6
    fb = empirical_frame_bounds(spec, trials=5, seed=11)
    rng = np.random.default_rng(2)
    for _ in range(3):
        F = HarmonicField.random_mean_zero(2, rng)
        err = measured_truncation_error(spec, F, 20, 3)
        assert err <= 1e-4 * fb.upper * F.norm()


def test_fitted_constant_reported(spec, bounds):
    rng = np.random.default_rng(4)
    fields = [HarmonicField.random_mean_zero(2, rng) for _ in range(2)]
    c0 = fit_riemann_constant(spec, fields, 20, 3, bounds=bounds)
    assert c0 >= 0.0 and math.isfinite(c0)


# -- spatial side -----------------------------------------------------------


@pytest.fixture(scope="module")
def spatial_spec():
    return FrameSpec.build(MEX1, A13, 0.4, L_max=8, j_range=(-10, 2))


@pytest.fixture(scope="module")
def cap_field():
    # heat-type bell centered on the cap: zonal, localized, mean-zero
    coeffs = np.zeros(81)
    for l in range(1, 9):
        coeffs[sh_index(l, 0)] = math.exp(-l * (l + 1) * 0.02) * math.sqrt(2 * l + 1)
    return HarmonicField(coeffs / np.linalg.norm(coeffs))


NORTH = np.array([0.0, 0.0, 1.0])


def _zonal_values(field, theta):
    """Zonal field at colatitude theta from its Legendre series."""
    return sum(field.coeff(l, 0) * math.sqrt((2 * l + 1) / (4.0 * math.pi))
               * eval_legendre(l, math.cos(theta)) for l in range(field.L_max + 1))


def test_spatial_index_set_limits(spatial_spec):
    cap = GeodesicCap(center=NORTH, radius=0.3)
    masks = spatial_index_set(spatial_spec, cap, 1e6)
    assert all(bool(np.all(masks[j])) for j in spatial_spec.scales)
    whole = GeodesicCap(center=NORTH, radius=math.pi)
    masks = spatial_index_set(spatial_spec, whole, 0.5)
    assert all(bool(np.all(masks[j])) for j in spatial_spec.scales)
    with pytest.raises(ValueError):
        spatial_index_set(spatial_spec, cap, 0.0)


def test_far_cells_are_excluded(spatial_spec):
    cap = GeodesicCap(center=NORTH, radius=0.3)
    masks = spatial_index_set(spatial_spec, cap, 2.0)
    j = -6  # (c_j + 1) a^j ~ 0.75: cells near the south pole stay out
    part = spatial_spec.partitions[j]
    south = part.locate(-NORTH)
    assert not masks[j][south]
    north = part.locate(NORTH)
    assert masks[j][north]


def test_dropped_form_monotone_under_doubling(spatial_spec, cap_field):
    cap = GeodesicCap(center=NORTH, radius=0.6)
    forms = []
    prev_masks = None
    for c in (0.5, 1.0, 2.0, 4.0):
        masks = spatial_index_set(spatial_spec, cap, c)
        if prev_masks is not None:
            for j in spatial_spec.scales:  # nested index sets
                assert np.all(masks[j] >= prev_masks[j])
        dropped = complement_masks(spatial_spec, masks)
        forms.append(quadratic_form(spatial_spec, cap_field, masks=dropped))
        prev_masks = masks
    assert all(x > y for x, y in zip(forms, forms[1:]))


def test_spatial_chain_inequality(spatial_spec, cap_field):
    cap = GeodesicCap(center=NORTH, radius=0.6)
    fb = empirical_frame_bounds(spatial_spec, trials=50, seed=5)
    rng = np.random.default_rng(6)
    fields = [cap_field] + [HarmonicField.random_mean_zero(8, rng) for _ in range(10)]
    masks = spatial_index_set(spatial_spec, cap, 1.0)
    dropped = complement_masks(spatial_spec, masks)
    for F in fields:
        lhs = apply_summation(spatial_spec, F, masks=dropped).norm() ** 2
        rhs = quadratic_form(spatial_spec, F, masks=dropped)
        assert lhs <= fb.upper * rhs * (1 + 1e-10)


def test_spatial_report_structure(spatial_spec, cap_field):
    fb_upper = empirical_frame_bounds(spatial_spec, trials=10, seed=5).upper
    # chi F -> F as the cap grows to the sphere: the leakage is b_emp times the
    # root energy beyond colatitude r, computed here from the Legendre series
    leakages = [spatial_truncation_report(spatial_spec, cap_field, GeodesicCap(NORTH, r),
                                          2.0, 3.0, b_emp=fb_upper).leakage
                for r in (0.6, 2.0, 3.1, math.pi)]
    assert all(x > y for x, y in zip(leakages, leakages[1:]))
    assert leakages[-1] == 0.0
    off_cap = 2.0 * math.pi * quad(lambda th: _zonal_values(cap_field, th) ** 2 * math.sin(th),
                                   3.1, math.pi, epsabs=0.0, epsrel=1e-13)[0]
    assert leakages[2] == pytest.approx(fb_upper * math.sqrt(off_cap), rel=1e-8)

    cap = GeodesicCap(center=NORTH, radius=0.6)
    rep1 = spatial_truncation_report(spatial_spec, cap_field, cap, 1.0, 3.0, b_emp=fb_upper)
    rep2 = spatial_truncation_report(spatial_spec, cap_field, cap, 2.0, 3.0, b_emp=fb_upper)
    assert rep2.structural_factor < rep1.structural_factor
    assert rep2.measured <= rep1.measured + 1e-15
    assert rep1.kept_cells + rep1.dropped_cells == spatial_spec.total_cells()
    assert math.isfinite(rep1.measured_to_structural)


def test_off_cap_energy_exact_off_pole(spatial_spec):
    # the off-cap parts of a cap and of its antipodal complement tile the sphere
    center = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    F = HarmonicField.random_mean_zero(8, np.random.default_rng(7))
    _, outside = cap_energy_split(spatial_spec, F, GeodesicCap(center, 1.0))
    _, inside = cap_energy_split(spatial_spec, F, GeodesicCap(-center, math.pi - 1.0))
    assert outside > 0.0 and inside > 0.0
    assert outside + inside == pytest.approx(F.norm() ** 2, abs=1e-13)


def test_cap_rejects_non_finite_parameters():
    for center, radius in ((NORTH, math.nan), (NORTH, math.inf),
                           (np.array([0.0, math.nan, 1.0]), 0.5)):
        with pytest.raises(ValueError):
            GeodesicCap(center=center, radius=radius)


def test_cap_center_is_normalised(spatial_spec, cap_field):
    unit = GeodesicCap(center=NORTH, radius=0.6)
    scaled = GeodesicCap(center=2.0 * NORTH, radius=0.6)
    assert np.array_equal(scaled.center, NORTH)
    for c in (0.5, 2.0):
        masks = spatial_index_set(spatial_spec, unit, c)
        scaled_masks = spatial_index_set(spatial_spec, scaled, c)
        assert all(np.array_equal(masks[j], scaled_masks[j]) for j in spatial_spec.scales)
    energies = cap_energy_split(spatial_spec, cap_field, unit)
    assert cap_energy_split(spatial_spec, cap_field, scaled) == energies
    for center in (np.zeros(3), np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            GeodesicCap(center=center, radius=0.6)
