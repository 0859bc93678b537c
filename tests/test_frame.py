import math

import numpy as np
import pytest

from mexneedlets import (FrameSpec, HarmonicField, SpectralFilter, analyze,
                         apply_summation, build_needlet_frame, build_partition,
                         default_scale_window, empirical_frame_bounds, evaluate_field,
                         frame_element, greedy_ball_partition, kernel_series,
                         quadratic_form, rayleigh_quotient)
from mexneedlets.errors import BandLimitError, ZeroFieldError
from mexneedlets.harmonics import degree_of_index, n_coeffs
from mexneedlets.sphgrid import BandGrid

MEX1 = SpectralFilter("mexican", 1)
A13 = 2.0 ** (1.0 / 3.0)


def spectral_multiplier_energy(spec, field, j):
    """Exact ||f(a^{2j} Delta) F||^2 = sum_{l,q} w_j(l)^2 c_{l,q}^2, the Riemann sums' limit."""
    L = min(spec.L_max, field.L_max)
    w = spec.weight_vector(j)[degree_of_index(L)]
    return float(np.sum((w * field.coeffs[: n_coeffs(L)]) ** 2))


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


def test_summation_self_adjoint_psd(spec):
    # <S F, G> = <F, S G> and <S F, F> >= 0, for S and for restricted S_I
    rng = np.random.default_rng(10)
    needlets = build_needlet_frame(SpectralFilter("normalized_cutoff"), -3, 0)
    cases = [
        (spec, spec.L_max, {}),
        (needlets, max(s.l_cut for s in needlets.scales), {}),
        (spec, spec.L_max, {"scales": spec.scales[::2]}),
        (spec, spec.L_max, {"masks": {j: rng.random(spec.n_cells(j)) < 0.5 for j in spec.scales}}),
    ]
    for frame, L, restrict in cases:
        for _ in range(3):
            F = HarmonicField.random_mean_zero(L, rng)
            G = HarmonicField.random_mean_zero(L, rng)
            SF = apply_summation(frame, F, **restrict)
            SG = apply_summation(frame, G, **restrict)
            lhs = float(np.dot(SF.coeffs, G.coeffs))
            assert lhs == pytest.approx(float(np.dot(F.coeffs, SG.coeffs)), rel=1e-12)
            assert float(np.dot(SF.coeffs, F.coeffs)) >= 0.0
            assert quadratic_form(frame, F, **restrict) >= 0.0


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
    j_lo, j_hi = default_scale_window(MEX1, A13, 4)
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


def _point_path(frame, field, masks=None):
    """(<S F, F>, S F) from point values: synthesis, weights mu (masked), adjoint."""
    L = max(len(w) for _, _, w in frame.terms()) - 1
    form, out = 0.0, np.zeros(n_coeffs(L))
    for j, grid, w in frame.terms():
        L_j = len(w) - 1
        L_in = min(L_j, field.L_max)
        values = grid.synthesis(w[degree_of_index(L_in)] * field.coeffs[: n_coeffs(L_in)])
        mu = grid.point_weights()
        if masks is not None and j in masks:
            mu = np.where(masks[j], mu, 0.0)
        form += float(np.dot(mu, values * values))
        out[: n_coeffs(L_j)] += w[degree_of_index(L_j)] * grid.adjoint(mu * values, L_j)
    return form, out


def _assert_matches_point_path(frame, field, masks=None):
    form, ref = _point_path(frame, field, masks)
    assert quadratic_form(frame, field, masks=masks) == pytest.approx(form, rel=1e-12)
    SF = apply_summation(frame, field, masks=masks).coeffs
    assert SF.shape == ref.shape
    assert np.linalg.norm(SF - ref) <= 1e-12 * np.linalg.norm(ref)
    return SF, ref


def test_summation_of_low_band_field_reaches_the_frame_band(spec):
    # S F of a field of band 4 < L_max = 8 has components up to L_max
    F = HarmonicField.random_mean_zero(4, np.random.default_rng(5))
    SF, ref = _assert_matches_point_path(spec, F)
    high = slice(n_coeffs(4), None)
    assert np.linalg.norm(ref[high]) > 1e-3 * np.linalg.norm(ref)
    assert np.linalg.norm(SF[high] - ref[high]) <= 1e-12 * np.linalg.norm(ref[high])


def test_needlet_summation_of_low_band_field_matches_point_path():
    frame = build_needlet_frame(SpectralFilter("normalized_cutoff"), -3, 0)
    assert max(s.l_cut for s in frame.scales) > 3
    F = HarmonicField.random_mean_zero(3, np.random.default_rng(6))
    SF, _ = _assert_matches_point_path(frame, F)
    assert SF.shape == (n_coeffs(max(s.l_cut for s in frame.scales)),)


def test_masks_on_some_scales_match_point_path(spec, field):
    rng = np.random.default_rng(8)
    masks = {j: rng.random(spec.n_cells(j)) < 0.5 for j in spec.scales[::3]}
    assert 0 < len(masks) < len(spec.scales)
    _assert_matches_point_path(spec, field, masks)
    _assert_matches_point_path(spec, field)


class _PointValues(Exception):
    pass


def test_unmasked_form_and_summation_take_no_point_values(spec, field, monkeypatch):
    needlets = build_needlet_frame(SpectralFilter("normalized_cutoff"), -3, 0)
    G = HarmonicField.random_mean_zero(5, np.random.default_rng(9))

    def refuse(*args, **kwargs):
        raise _PointValues

    monkeypatch.setattr(BandGrid, "synthesis", refuse)
    monkeypatch.setattr(BandGrid, "adjoint", refuse)
    for frame, F in ((spec, field), (needlets, G)):
        quadratic_form(frame, F)
        apply_summation(frame, F)
        with pytest.raises(_PointValues):
            analyze(frame, F)
    quadratic_form(spec, field, scales=[-4, -3])
    apply_summation(spec, field, scales=[-4, -3])
    masks = {spec.scales[0]: np.ones(spec.n_cells(spec.scales[0]), dtype=bool)}
    with pytest.raises(_PointValues):
        quadratic_form(spec, field, masks=masks)
    with pytest.raises(_PointValues):
        apply_summation(spec, field, masks=masks)
