import math

import numpy as np
import pytest

from mexneedlets import frame as frame_module
from mexneedlets import sphgrid
from mexneedlets import (FrameSpec, HarmonicField, SpectralFilter, analyze,
                         apply_summation, build_needlet_frame, build_partition,
                         default_scale_window, empirical_frame_bounds, evaluate_field,
                         frame_element, greedy_ball_partition, kernel_series,
                         quadratic_form, rayleigh_quotient)
from mexneedlets.errors import BandLimitError, ZeroFieldError
from mexneedlets.daubechies import eigen_daubechies_sum
from mexneedlets.frame import ADEQUACY_EPS, _forms, _summed, _weighted
from mexneedlets.harmonics import (degree_of_index, n_coeffs, norm_assoc_legendre,
                                   sphere_eigenvalue)
from mexneedlets.sphgrid import BandGrid

MEX1 = SpectralFilter("mexican", 1)
A13 = 2.0 ** (1.0 / 3.0)


def spectral_multiplier_energy(spec, field, j):
    """Exact ||f(a^{2j} Delta) F||^2 = sum_{l,q} w_j(l)^2 c_{l,q}^2, the Riemann sums' limit."""
    L = min(spec.L_max, field.L_max)
    w = spec.weight_vector(j)[degree_of_index(L)]
    return float(np.sum((w * field.coeffs[: n_coeffs(L)]) ** 2))


def sub_frame(spec, scales):
    """The frame of ``spec``'s partitions at ``scales`` alone: S over a window of scales."""
    return FrameSpec(spec.filter, spec.a, spec.b, spec.L_max,
                     {j: spec.partitions[j] for j in scales})


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
    # <S F, G> = <F, S G> and <S F, F> >= 0, for S and for S over a window of scales
    # (S over the cells a mask drops: test_truncation::test_dropped_sums_self_adjoint_psd)
    rng = np.random.default_rng(10)
    needlets = build_needlet_frame(SpectralFilter("normalized_cutoff"), -3, 0)
    cases = [
        (spec, spec.L_max),
        (needlets, max(s.l_cut for s in needlets.scales)),
        (sub_frame(spec, spec.scales[::2]), spec.L_max),
    ]
    for frame, L in cases:
        for _ in range(3):
            F = HarmonicField.random_mean_zero(L, rng)
            G = HarmonicField.random_mean_zero(L, rng)
            SF, SG = apply_summation(frame, F).coeffs, apply_summation(frame, G).coeffs
            form = quadratic_form(frame, F)
            lhs = float(np.dot(SF, G.coeffs))
            assert lhs == pytest.approx(float(np.dot(F.coeffs, SG)), rel=1e-12)
            assert float(np.dot(SF, F.coeffs)) >= 0.0
            assert form >= 0.0


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
    greedy = greedy_ball_partition(0.9, candidates=200)
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
    sub = quadratic_form(sub_frame(spec, [-4, -3, -2]), field)
    assert 0 <= sub <= full * (1 + 1e-14)


def test_restricted_norm_chain(spec, field):
    # ||S_I F||^2 <= B <S_I F, F> with B the sampled upper bound
    fb = empirical_frame_bounds(spec, trials=50, seed=2)
    for scales in ([-4, -3], [-8, -7, -6], list(spec.scales)[::2]):
        SIF = apply_summation(sub_frame(spec, scales), field)
        qf = quadratic_form(sub_frame(spec, scales), field)
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


def _needlet_frame():
    return build_needlet_frame(SpectralFilter("normalized_cutoff"), -3, 0)


def _two_column_budget(monkeypatch, frame):
    """Shrink the chunk budget to two columns per pass on the frame's widest grid."""
    widest = max(grid.n_rows * len(w) for _, grid, w in frame.terms())
    monkeypatch.setattr(sphgrid, "_TARGET_CHUNK_FLOATS", 2 * 2 * widest)


@pytest.mark.parametrize("frame_kind", ["spec", "needlet"])
@pytest.mark.parametrize("chunked", [False, True])
def test_block_form_and_summation_match_single_fields(spec, frame_kind, chunked, monkeypatch):
    frame = spec if frame_kind == "spec" else _needlet_frame()
    if chunked:
        _two_column_budget(monkeypatch, frame)
        if frame_kind == "spec":
            frame = sub_frame(spec, spec.scales)  # its row stack is built within the budget
    rng = np.random.default_rng(11)
    fields = [HarmonicField.random_mean_zero(frame.coverage_limit(), rng) for _ in range(5)]
    block = np.stack([F.coeffs for F in fields], axis=1)
    forms, summed = _forms(frame, block), _summed(frame, block)
    assert forms.shape == (5,) and summed.shape[1] == 5
    for i, F in enumerate(fields):
        assert forms[i] == pytest.approx(quadratic_form(frame, F), rel=1e-13)
        ref = apply_summation(frame, F).coeffs
        assert np.linalg.norm(summed[:, i] - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("frame_kind", ["spec", "needlet"])
@pytest.mark.parametrize("chunked", [False, True])
def test_empirical_bounds_are_the_per_field_extremes(spec, frame_kind, chunked, monkeypatch):
    frame = spec if frame_kind == "spec" else _needlet_frame()
    if chunked:
        _two_column_budget(monkeypatch, frame)
    fb = empirical_frame_bounds(frame, trials=9, seed=4)
    rng = np.random.default_rng(4)
    quotients = [rayleigh_quotient(frame, HarmonicField.random_mean_zero(frame.coverage_limit(), rng))
                 for _ in range(9)]
    assert fb.lower == pytest.approx(min(quotients), rel=1e-14)
    assert fb.upper == pytest.approx(max(quotients), rel=1e-14)


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


def reference_scale_window(filt, a, L_max):
    """The edge search of ``default_scale_window`` one multiplier at a time, as it was before
    its tails went through the ladder walk: terms out to 1e-25 of the full sum, then
    scales dropped from the far end inward while the dropped mass fits half the budget."""

    def tail_edge(lam, direction):
        g = eigen_daubechies_sum(filt, a, lam)
        budget = 0.5 * ADEQUACY_EPS * g
        j_peak = int(round(-math.log(lam) / (2.0 * math.log(a))))
        js, terms = [], []
        j = j_peak
        while len(terms) <= 2 or terms[-1] >= 1e-25 * g:
            w = float(filt.multiplier(a ** j, lam))
            js.append(j)
            terms.append(w * w)
            j += direction
        dropped = 0.0
        for idx in range(len(terms) - 1, -1, -1):
            if dropped + terms[idx] > budget:
                return js[idx]
            dropped += terms[idx]
        return j_peak

    return tail_edge(sphere_eigenvalue(L_max), -1), tail_edge(sphere_eigenvalue(1), 1)


@pytest.mark.parametrize("filt", [SpectralFilter("mexican", r) for r in (1, 2, 3)]
                         + [SpectralFilter("cutoff_bump"), SpectralFilter("normalized_cutoff")],
                         ids=lambda f: f.name)
def test_default_scale_window_equals_the_scale_by_scale_search(filt):
    for a in (1.05, A13, math.sqrt(2.0), 2.0, 3.0):
        for L_max in (1, 4, 32, 127):
            assert default_scale_window(filt, a, L_max) == reference_scale_window(filt, a, L_max)


def test_band_adequacy_residual():
    tight = FrameSpec.build(MEX1, A13, 0.5, L_max=32, j_range=(-7, 3))
    assert tight.band_adequacy_residual() < 1e-14
    deep = FrameSpec.build(MEX1, A13, 0.5, L_max=32, j_range=(-15, 3))
    assert deep.band_adequacy_residual() > 1e-14


def _point_path(frame, field):
    """(<S F, F>, S F) from point values: synthesis, weights mu, adjoint."""
    L = max(len(w) for _, _, w in frame.terms()) - 1
    form, out = 0.0, np.zeros(n_coeffs(L))
    for _, grid, w in frame.terms():
        L_j = len(w) - 1
        L_in = min(L_j, field.L_max)
        values = grid.synthesis(w[degree_of_index(L_in)] * field.coeffs[: n_coeffs(L_in)])
        mu = grid.point_weights()
        form += float(np.dot(mu, values * values))
        out[: n_coeffs(L_j)] += w[degree_of_index(L_j)] * grid.adjoint(mu * values, L_j)
    return form, out


def _assert_matches_point_path(frame, field):
    form, ref = _point_path(frame, field)
    got, SF = quadratic_form(frame, field), apply_summation(frame, field).coeffs
    assert got == pytest.approx(form, rel=1e-12)
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


def test_form_and_summation_match_point_path(spec, field):
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
    quadratic_form(sub_frame(spec, [-4, -3]), field)
    apply_summation(sub_frame(spec, [-4, -3]), field)


class CountingFilter:
    """A filter that counts the arguments it is called on."""

    def __init__(self, filt):
        self.filt = filt
        self.cells = 0

    def __getattr__(self, name):
        return getattr(self.filt, name)

    def __call__(self, x):
        self.cells += np.size(x)
        return self.filt(x)


def test_default_scale_window_near_a_one_walks_few_cells():
    # a scan walking every candidate edge to its own stop took 367,499 cells here;
    # a bracketing search walks a few rounds of a few candidates each
    filt = CountingFilter(MEX1)
    assert default_scale_window(filt, 1.02, 32) == reference_scale_window(MEX1, 1.02, 32)
    assert filt.cells < 60_000


# -- the row stack of a FrameSpec ----------------------------------------------


def _per_scale_forms(frame, coeffs):
    """<S F, F> as every frame took it before the row stack: one grid energy per scale."""
    return sum(grid.energy(_weighted(w, coeffs)) for _, grid, w in frame.terms())


def _per_scale_summed(frame, coeffs):
    """S F as every frame took it before the row stack: one grid normal per scale."""
    L = max(len(w) for _, _, w in frame.terms()) - 1
    out = np.zeros((n_coeffs(L),) + coeffs.shape[1:])
    for _, grid, w in frame.terms():
        L_j = len(w) - 1
        out[: n_coeffs(L_j)] += _weighted(w, grid.normal(_weighted(w, coeffs), L_j))
    return out


@pytest.fixture(scope="module")
def readme_frame():
    """The frame of the README ``frame-verify`` command (L = 16, 1,113,422 cells)."""
    return FrameSpec.build(MEX1, 1.2599, 0.5, L_max=16, j_range=(-18, 4))


@pytest.fixture(scope="module")
def stack_frames(spec, readme_frame):
    coarse = sub_frame(spec, [1, 2])
    assert all(np.all(g.counts <= 2 * spec.L_max) for _, g, _ in coarse.terms())
    # rows of exactly 2 L_max = 8 points, where orders m = m' = L_max alias, at scales whose
    # w_j(L_max) is not negligible: the long-row test must leave them to the short grid
    boundary = FrameSpec.build(MEX1, A13, 1.0, L_max=4, j_range=(-6, -4))
    assert all(np.any(g.counts == 8) for _, g, _ in boundary.terms())
    return {"spec": spec, "sub-frame": sub_frame(spec, [-7, -4, -3, 0]),
            "all-short": coarse, "boundary": boundary, "readme": readme_frame}


def _column_rel_err(got, ref):
    return np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)


@pytest.mark.parametrize("name", ["spec", "sub-frame", "all-short", "boundary", "readme"])
@pytest.mark.parametrize("band_drop", [0, 3])
@pytest.mark.parametrize("columns", [None, 7])
def test_row_stack_matches_the_per_scale_sums(stack_frames, name, band_drop, columns):
    frame = stack_frames[name]
    rng = np.random.default_rng(31)
    L = frame.L_max - band_drop
    fields = [HarmonicField.random_mean_zero(L, rng).coeffs for _ in range(columns or 1)]
    coeffs = np.stack(fields, axis=1) if columns else fields[0]
    forms, ref_forms = _forms(frame, coeffs), _per_scale_forms(frame, coeffs)
    summed, ref_summed = _summed(frame, coeffs), _per_scale_summed(frame, coeffs)
    assert np.shape(forms) == np.shape(ref_forms) and summed.shape == ref_summed.shape
    assert np.all(np.abs(forms - ref_forms) <= 1e-13 * np.abs(ref_forms))
    assert np.all(_column_rel_err(summed.reshape(len(summed), -1),
                                  ref_summed.reshape(len(summed), -1)) <= 1e-13)
    if name == "all-short":
        assert not any(block.any() for block in frame._row_stack().blocks)


@pytest.mark.parametrize("name", ["spec", "sub-frame", "all-short", "boundary", "readme"])
def test_row_stack_summation_is_self_adjoint_and_mean_zero(stack_frames, name):
    frame = stack_frames[name]
    rng = np.random.default_rng(32)
    F, G = (np.stack([HarmonicField.random_mean_zero(frame.L_max, rng).coeffs
                      for _ in range(7)], axis=1) for _ in range(2))
    SF, SG = _summed(frame, F), _summed(frame, G)
    lhs, rhs = SF.T @ G, F.T @ SG
    assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()
    assert np.all(SF[0] == 0.0)
    assert apply_summation(frame, HarmonicField(F[:, 0])).coeffs[0] == 0.0


def test_exact_summation_operator_of_the_spatial_frame():
    # the spatial command's frame; its exact upper bound B is 0.557831, where
    # 20 sampled Rayleigh quotients give 0.536752
    spatial = FrameSpec.build(MEX1, A13, 0.4, L_max=8, j_range=(-13, 2))
    S = _summed(spatial, np.eye(n_coeffs(8)))
    assert np.abs(S - S.T).max() <= 1e-14 * np.abs(S).max()
    assert np.all(S[0] == 0.0) and np.all(S[:, 0] == 0.0)
    assert abs(np.linalg.eigvalsh(S).max() - 0.557831) <= 1e-6


def test_needlet_forms_and_sums_are_the_per_scale_sums():
    frame = _needlet_frame()
    rng = np.random.default_rng(33)
    L = max(s.l_cut for s in frame.scales)
    for coeffs in (HarmonicField.random_mean_zero(L, rng).coeffs,
                   np.stack([HarmonicField.random_mean_zero(L - 3, rng).coeffs
                             for _ in range(7)], axis=1)):
        assert np.array_equal(_forms(frame, coeffs), _per_scale_forms(frame, coeffs))
        assert np.array_equal(_summed(frame, coeffs), _per_scale_summed(frame, coeffs))


def test_row_stack_takes_long_rows_in_chunks_within_the_budget(spec, field, monkeypatch):
    tables = []

    def recording(L, cos_theta):
        table = norm_assoc_legendre(L, cos_theta)
        tables.append(table.size)
        return table

    frame = sub_frame(spec, spec.scales)
    _two_column_budget(monkeypatch, frame)
    monkeypatch.setattr(frame_module, "norm_assoc_legendre", recording)
    form, SF = quadratic_form(frame, field), apply_summation(frame, field).coeffs
    long_scales = sum(bool(np.any(g.counts > 2 * frame.L_max)) for _, g, _ in frame.terms())
    assert len(tables) > long_scales  # some scale took its long rows in more than one chunk
    assert max(tables) <= sphgrid._TARGET_CHUNK_FLOATS
    assert form == pytest.approx(_per_scale_forms(spec, field.coeffs), rel=1e-13)
    ref = _per_scale_summed(spec, field.coeffs)
    assert np.linalg.norm(SF - ref) <= 1e-13 * np.linalg.norm(ref)
