import math

import numpy as np
import pytest

from mexneedlets import (FrameSpec, HarmonicField, SpectralFilter, analyze,
                         apply_summation, build_partition, coefficients_to_csv,
                         default_scale_window, empirical_frame_bounds, evaluate_field,
                         frame_element, greedy_ball_partition, kernel_series,
                         quadratic_form, rayleigh_quotient, spectral_multiplier_energy)
from mexneedlets.errors import BandLimitError, ZeroFieldError

MEX1 = SpectralFilter("mexican", 1)
A13 = 2.0 ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def spec():
    return FrameSpec.build(MEX1, A13, 0.5, L_max=8, j_range=(-8, 2))


@pytest.fixture(scope="module")
def field():
    return HarmonicField.random_mean_zero(8, np.random.default_rng(3))


def test_frame_element_spectral_form(spec):
    el = frame_element(spec, 0, 5)
    assert el.coeff(0, 0) == 0.0
    center, mu = spec.partitions[0].grid.point(5)
    w = spec.weight_vector(0)
    # norm identity through the addition theorem
    norm_sq = mu * sum(w[l] ** 2 * (2 * l + 1) / (4 * math.pi) for l in range(9))
    assert el.norm() ** 2 == pytest.approx(norm_sq, rel=1e-12)
    # pointwise values agree with the kernel series
    x = np.array([0.3, -0.5, 0.81])
    x /= np.linalg.norm(x)
    ct = float(np.dot(center, x))
    expected = math.sqrt(mu) / (4 * math.pi) * kernel_series(MEX1, A13 ** 0, ct, tol=1e-14)
    assert evaluate_field(el, x) == pytest.approx(expected, rel=1e-10)


def test_analyze_self_inner_product(spec):
    el = frame_element(spec, -2, 7)
    unit = HarmonicField(el.coeffs / el.norm())
    coeffs = analyze(spec, unit)
    assert float(coeffs[-2][7]) == pytest.approx(el.norm(), rel=1e-12)


def test_constant_field_is_annihilated(spec):
    const = HarmonicField.zeros(8)
    const.coeffs[0] = 3.7
    coeffs = analyze(spec, const)
    assert sum(float(np.dot(v, v)) for v in coeffs.values()) == 0.0
    assert apply_summation(spec, const).norm() == 0.0


def test_quadratic_form_consistency(spec, field):
    qf = quadratic_form(spec, field)
    coeffs = analyze(spec, field)
    assert qf == pytest.approx(sum(float(np.dot(v, v)) for v in coeffs.values()), rel=1e-12)
    SF = apply_summation(spec, field)
    assert float(np.dot(SF.coeffs, field.coeffs)) == pytest.approx(qf, rel=1e-10)
    assert SF.coeffs[0] == 0.0  # mean-zero output


def test_summation_self_adjoint_psd(spec, field):
    rng = np.random.default_rng(10)
    G = HarmonicField.random_mean_zero(8, rng)
    SF = apply_summation(spec, field)
    SG = apply_summation(spec, G)
    lhs = float(np.dot(SF.coeffs, G.coeffs))
    rhs = float(np.dot(SG.coeffs, field.coeffs))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)
    assert quadratic_form(spec, field) >= 0.0
    assert quadratic_form(spec, G) >= 0.0


def test_rayleigh_quotient_properties(spec, field):
    q = rayleigh_quotient(spec, field)
    assert q > 0
    scaled = HarmonicField(2.5 * field.coeffs)
    assert rayleigh_quotient(spec, scaled) == pytest.approx(q, rel=1e-13)
    with pytest.raises(ZeroFieldError):
        rayleigh_quotient(spec, HarmonicField.zeros(8))
    bad = HarmonicField.zeros(8)
    bad.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        rayleigh_quotient(spec, bad)


def test_band_limit_guard(spec):
    big = HarmonicField.random_mean_zero(12, np.random.default_rng(4))
    with pytest.raises(BandLimitError):
        analyze(spec, big)
    # structurally larger but spectrally inside the band limit is fine
    small = HarmonicField.single_harmonic(3, 1, L=12)
    analyze(spec, small)


def test_greedy_partition_is_rejected():
    greedy = greedy_ball_partition(0.9, candidates=200, grid_theta=32)
    with pytest.raises(ValueError):
        FrameSpec(MEX1, A13, 0.5, 8, {0: build_partition(0, A13, 0.5), 1: greedy})


def test_single_scale_limit_trend():
    F = HarmonicField.random_mean_zero(8, np.random.default_rng(3))
    errs = []
    for b in (1.0, 0.5, 0.25):
        s1 = FrameSpec.build(MEX1, A13, b, L_max=8, j_range=(-6, -6))
        errs.append(abs(quadratic_form(s1, F) - spectral_multiplier_energy(s1, F, -6)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05 * s1.b  # comfortably within O(b)


def test_riemann_sum_convergence():
    rng = np.random.default_rng(11)
    fields = [HarmonicField.random_mean_zero(8, rng) for _ in range(5)]
    means = []
    for b in (1.0, 0.5, 0.25):
        s = FrameSpec.build(MEX1, A13, b, L_max=8, j_range=(-14, 3))
        gaps = []
        for F in fields:
            exact = sum(spectral_multiplier_energy(s, F, j) for j in s.scales)
            gaps.append(abs(quadratic_form(s, F) - exact))
        means.append(float(np.mean(gaps)))
    assert means[0] > means[1] > means[2]


def test_subset_quadratic_form_monotone(spec, field):
    full = quadratic_form(spec, field)
    sub = quadratic_form(spec, field, scales=[-4, -3, -2])
    assert 0 <= sub <= full * (1 + 1e-14)
    masks = {j: np.zeros(spec.n_cells(j), dtype=bool) for j in spec.scales}
    for j in spec.scales:
        masks[j][:: 2] = True
    part = quadratic_form(spec, field, masks=masks)
    assert 0 <= part <= full * (1 + 1e-14)


def test_restricted_norm_chain(spec, field):
    # ||S_I F||^2 <= B <S_I F, F> with B the sampled upper bound
    fb = empirical_frame_bounds(spec, trials=50, seed=2)
    for scales in ([-4, -3], [-8, -7, -6], list(spec.scales)[::2]):
        SIF = apply_summation(spec, field, scales=scales)
        qf = quadratic_form(spec, field, scales=scales)
        assert SIF.norm() ** 2 <= fb.upper * qf * (1 + 1e-10)


def test_empirical_bounds_enclose_their_ensemble(spec):
    # replaying the seeded ensemble yields quotients inside the recorded
    # extremes up to rounding
    fb = empirical_frame_bounds(spec, trials=100, seed=21)
    assert fb.lower > 0
    rng = np.random.default_rng(21)
    for _ in range(100):
        F = HarmonicField.random_mean_zero(8, rng)
        q = rayleigh_quotient(spec, F)
        assert fb.lower - 1e-12 <= q <= fb.upper + 1e-12


def test_empirical_bounds_basics(spec):
    fb1 = empirical_frame_bounds(spec, trials=1, seed=7)
    assert fb1.lower == fb1.upper
    fb = empirical_frame_bounds(spec, trials=10, seed=7)
    assert 0 < fb.lower <= fb.upper
    assert fb.ratio == pytest.approx(fb.upper / fb.lower, rel=1e-15)
    again = empirical_frame_bounds(spec, trials=10, seed=7)
    assert (again.lower, again.upper) == (fb.lower, fb.upper)
    with pytest.raises(ValueError):
        empirical_frame_bounds(spec, trials=0)


def test_default_scale_window_margins():
    j_lo, j_hi = default_scale_window(MEX1, A13, 4, eps=1e-6)
    from mexneedlets import eigen_daubechies_sum, truncated_daubechies_sum
    for l in (1, 4):
        lam = l * (l + 1.0)
        g = eigen_daubechies_sum(MEX1, A13, lam)
        g_win = truncated_daubechies_sum(MEX1, A13, lam, -j_lo, j_hi)
        assert g_win >= (1 - 1e-6) * g
    # one scale narrower breaks the per-side half-budget at the driving
    # eigenvalue (the window splits eps equally between the two tails)
    g = eigen_daubechies_sum(MEX1, A13, 20.0)
    g_narrow = truncated_daubechies_sum(MEX1, A13, 20.0, -(j_lo + 1), j_hi + 40)
    assert g - g_narrow > 0.5e-6 * g


def test_band_adequacy_residual():
    tight = FrameSpec.build(MEX1, A13, 0.5, L_max=32, j_range=(-7, 3))
    assert tight.band_adequacy_residual() < 1e-14
    deep = FrameSpec.build(MEX1, A13, 0.5, L_max=32, j_range=(-15, 3))
    assert deep.band_adequacy_residual() > 1e-14


def test_coefficient_csv(tmp_path, spec, field):
    small = FrameSpec.build(MEX1, A13, 0.9, L_max=4, j_range=(0, 1))
    coeffs = analyze(small, HarmonicField.random_mean_zero(4, np.random.default_rng(0)))
    path = tmp_path / "coeffs.csv"
    coefficients_to_csv(small, coeffs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,k,center_x,center_y,center_z,measure,coefficient"
    assert len(lines) == 1 + small.total_cells()
