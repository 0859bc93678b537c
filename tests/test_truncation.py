import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre

from mexneedlets import (FrameSpec, GeodesicCap, HarmonicField, SpectralFilter,
                         apply_summation, daubechies_bounds, evaluate_field,
                         empirical_frame_bounds, fit_riemann_constant, frequency_bound,
                         measured_truncation_error, moment_constant, quadratic_form,
                         spatial_index_set, spatial_truncation_report, spectral_tail_norm,
                         window_margin)
from mexneedlets.harmonics import degree_of_index, n_coeffs, sh_index
from mexneedlets.sphgrid import _TARGET_CHUNK_FLOATS, BandGrid
from mexneedlets import sphgrid, truncation
from mexneedlets.truncation import _dropped_sums, cap_energy_split

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


def test_moment_constant_where_the_grid_powers_overflow():
    # r^78 overflows a float on the grid far beyond the peak at r = 79; the peak itself fits
    J = 78
    closed = math.exp((J + 1) * math.log(J + 1) - (J + 1))
    with np.errstate(over="raise"):
        assert moment_constant(MEX1, J) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("J", [1, 2, 3, 5, 10, 40, 77, 130, 150, 170])
def test_mexican_moment_constant_against_decimal(J):
    # M_J = k^k e^{-k} at k = J + 1, to 50 digits; 171^171 e^-171 is 3.8e307
    with localcontext() as ctx:
        ctx.prec = 50
        k = Decimal(J + 1)
        reference = float(k ** (J + 1) * (-k).exp())
    assert moment_constant(MEX1, J) == pytest.approx(reference, rel=1e-13)


def test_mexican_moment_constant_past_the_float_range_is_inf(spec, bounds):
    assert moment_constant(MEX1, 200) == math.inf
    with pytest.raises(OverflowError, match="M_J passes the float range"):
        frequency_bound(spec, 200, 6.0, 1, 0, 0.0, 1.0, bounds=bounds)


@pytest.mark.parametrize("J", [1, 3, 10])
@pytest.mark.parametrize("filt", [CUT, SpectralFilter("normalized_cutoff")], ids=lambda f: f.name)
def test_cutoff_moment_constant_matches_a_brent_search(filt, J):
    from scipy.optimize import minimize_scalar

    grid = np.linspace(0.5, 2.0, 4001)[1:-1]
    i = int(np.argmax(grid ** J * filt(grid)))
    res = minimize_scalar(lambda s: -(s ** J) * filt(s), bounds=(grid[i - 1], grid[i + 1]),
                          method="bounded", options={"xatol": 1e-12 * grid[i + 1]})
    assert moment_constant(filt, J) == pytest.approx(-res.fun, rel=1e-14)


def test_moment_constant_cutoff_support():
    got = moment_constant(CUT, 3)
    s = np.linspace(0.5, 2.0, 20001)
    assert got == pytest.approx(float(np.max(s ** 3 * CUT(s))), rel=1e-6)
    with pytest.raises(ValueError):
        moment_constant(MEX1, 0)


def test_prefactor_arithmetic(spec, bounds):
    rep = frequency_bound(spec, 1, 2.0, 3, 3, 0.0, 1.0, bounds=bounds)
    assert rep.l == MEX1.vanishing_order == 1
    assert rep.c_prime_L == pytest.approx(4.0 / (A13 ** 4 - 1.0), rel=1e-12)
    assert rep.c_prime_L == pytest.approx(2.632, abs=5e-4)
    m1 = moment_constant(MEX1, 1)
    assert rep.C_prime_J == pytest.approx(m1 ** 2 / ((A13 ** 4 - 1.0) * 4.0), rel=1e-8)
    assert rep.M_J == pytest.approx(m1, rel=1e-12)


def test_bound_monotonicity_and_limit(spec, bounds):
    vals_M = [frequency_bound(spec, 1, 6.0, M, 4, 0.0, 1.0, bounds=bounds).bound_without_C0b
              for M in range(8)]
    vals_N = [frequency_bound(spec, 1, 6.0, 4, N, 0.0, 1.0, bounds=bounds).bound_without_C0b
              for N in range(8)]
    assert all(x > y for x, y in zip(vals_M, vals_M[1:]))
    assert all(x > y for x, y in zip(vals_N, vals_N[1:]))
    far = frequency_bound(spec, 1, 6.0, 60, 60, 0.0, 1.0, bounds=bounds).bound_without_C0b
    assert far < 1e-20


def test_bound_parameter_errors(spec, bounds):
    with pytest.raises(ValueError):
        frequency_bound(spec, 0, 6.0, 1, 1, 0.0, 1.0, bounds=bounds)
    with pytest.raises(ValueError):
        frequency_bound(spec, 1, 0.0, 1, 1, 0.0, 1.0, bounds=bounds)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["J", "L", "M", "N", "tail_norm", "F_norm"])
def test_bound_rejects_non_finite_arguments(spec, bounds, name, value):
    args = {"J": 1, "L": 6.0, "M": 1, "N": 1, "tail_norm": 0.0, "F_norm": 1.0}
    args[name] = value
    with pytest.raises(ValueError, match="%s must be finite" % name):
        frequency_bound(spec, bounds=bounds, **args)


def test_bound_rejects_negative_norms(spec, bounds):
    for tail_norm, F_norm in ((-1.0, 1.0), (0.0, -1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            frequency_bound(spec, 1, 6.0, 1, 1, tail_norm, F_norm, bounds=bounds)


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


@pytest.mark.parametrize("M, N", [(20, 3), (22, 0), (0, 5), (5, 1)])
def test_measured_error_is_s_of_the_dropped_sub_frame(spec, M, N, monkeypatch):
    # the dropped scales form a frame of their own, with the same partitions in
    # the same order, and its S F has exactly the norm of the measured error
    F = HarmonicField.random_mean_zero(2, np.random.default_rng(7))
    complement = [j for j in spec.scales if j < -M or j > N]
    sub = FrameSpec(spec.filter, spec.a, spec.b, spec.L_max,
                    {j: spec.partitions[j] for j in complement})
    frames = []

    def recording(frame, field):
        frames.append(frame)
        return apply_summation(frame, field)

    monkeypatch.setattr(truncation, "apply_summation", recording)
    assert measured_truncation_error(spec, F, M, N) == apply_summation(sub, F).norm()
    (frame,) = frames
    assert frame.scales == complement
    assert all(frame.partitions[j] is spec.partitions[j] for j in complement)


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
    c0 = fit_riemann_constant(spec, fields, 6.0, 20, 3, bounds=bounds)
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
SWEEP = (0.5, 1.0, 2.0, 4.0)


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


def _point_masks(spec, cap, cs):
    """spatial_index_set's masks from the cap distance of every cell."""
    cs = np.asarray(cs, dtype=float)
    return {j: np.less_equal.outer(cap.distance(spec.partitions[j].grid.points()),
                                   (cs + 1.0) * spec.a ** j) for j in spec.scales}


@pytest.fixture(scope="module")
def readme_spatial_spec():
    # the README `spatial` command's frame: b = 0.4, L_max = 8, j in [-13, 2]
    return FrameSpec.build(MEX1, A13, 0.4, L_max=8, j_range=(-13, 2))


def _readme_caps(spec):
    """The README polar cap, an off-pole cap, and polar caps whose reach at c = 0.5 lands
    1e-13 inside and outside a row of scale -5."""
    grid = spec.partitions[-5].grid
    theta = float(grid.theta[grid.n_rows // 3])
    radius = theta - 1.5 * spec.a ** -5
    return [GeodesicCap(NORTH, 0.6), GeodesicCap(np.array([0.3, -0.5, 0.8]), 0.6),
            GeodesicCap(NORTH, radius + 1e-13), GeodesicCap(NORTH, radius - 1e-13)]


@pytest.mark.parametrize("case", range(4))
def test_spatial_index_set_rows_match_point_distances(readme_spatial_spec, case):
    # rows decided by their colatitude alone give the per-cell masks bit for bit
    spec = readme_spatial_spec
    cap = _readme_caps(spec)[case]
    cs = [0.5, 1.0, 2.0, 4.0]
    if case >= 2:
        grid = spec.partitions[-5].grid
        edge = cap.radius + 1.5 * spec.a ** -5
        assert 0 < np.min(np.abs(grid.theta - edge)) <= 2e-13
    for c in (cs, 0.5, 3.0):
        masks, ref = spatial_index_set(spec, cap, c), _point_masks(spec, cap, c)
        for j in spec.scales:
            assert np.array_equal(masks[j], ref[j]), (c, j)


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
    masks = spatial_index_set(spatial_spec, cap, SWEEP)
    for j in spatial_spec.scales:  # nested index sets
        assert np.all(masks[j][:, 1:] >= masks[j][:, :-1])
    forms, _ = _dropped_sums(spatial_spec, cap_field.coeffs, masks)
    assert all(x > y for x, y in zip(forms, forms[1:]))


def test_spatial_chain_inequality(spatial_spec, cap_field):
    cap = GeodesicCap(center=NORTH, radius=0.6)
    fb = empirical_frame_bounds(spatial_spec, trials=50, seed=5)
    rng = np.random.default_rng(6)
    fields = [cap_field] + [HarmonicField.random_mean_zero(8, rng) for _ in range(10)]
    masks = spatial_index_set(spatial_spec, cap, [1.0])
    for F in fields:
        (form,), (summed,) = _dropped_sums(spatial_spec, F.coeffs, masks)
        lhs = float(np.linalg.norm(summed)) ** 2
        rhs = float(form)
        assert lhs <= fb.upper * rhs * (1 + 1e-10)


def test_spatial_report_structure(spatial_spec, cap_field):
    fb_upper = empirical_frame_bounds(spatial_spec, trials=10, seed=5).upper
    # chi F -> F as the cap grows to the sphere: the leakage is b_emp times the
    # root energy beyond colatitude r, computed here from the Legendre series
    leakages = [spatial_truncation_report(spatial_spec, cap_field, GeodesicCap(NORTH, r),
                                          [2.0], 3.0, b_emp=fb_upper)[0].leakage
                for r in (0.6, 2.0, 3.1, math.pi)]
    assert all(x > y for x, y in zip(leakages, leakages[1:]))
    assert leakages[-1] == 0.0
    off_cap = 2.0 * math.pi * quad(lambda th: _zonal_values(cap_field, th) ** 2 * math.sin(th),
                                   3.1, math.pi, epsabs=0.0, epsrel=1e-13)[0]
    assert leakages[2] == pytest.approx(fb_upper * math.sqrt(off_cap), rel=1e-8)

    cap = GeodesicCap(center=NORTH, radius=0.6)
    rep1, rep2 = spatial_truncation_report(spatial_spec, cap_field, cap, [1.0, 2.0], 3.0,
                                           b_emp=fb_upper)
    assert rep2.structural_factor < rep1.structural_factor
    assert rep2.measured <= rep1.measured + 1e-15
    assert rep1.kept_cells + rep1.dropped_cells == spatial_spec.total_cells()
    assert math.isfinite(rep1.measured_to_structural)


def test_spatial_sweep_equals_per_c_restricted_operator(spatial_spec, cap_field):
    cap = GeodesicCap(center=NORTH, radius=0.6)
    reports = spatial_truncation_report(spatial_spec, cap_field, cap, SWEEP, 3.0, b_emp=0.7)
    assert len(reports) == len(SWEEP)
    for c, rep in zip(SWEEP, reports):
        masks = spatial_index_set(spatial_spec, cap, [c])
        (form,), (summed,) = _dropped_sums(spatial_spec, cap_field.coeffs, masks)
        assert rep.measured == float(np.linalg.norm(summed))
        assert rep.dropped_quadratic_form == float(form)
        assert rep.kept_cells == sum(int(np.sum(masks[j])) for j in spatial_spec.scales)
        assert rep == spatial_truncation_report(spatial_spec, cap_field, cap, [c], 3.0,
                                                b_emp=0.7)[0]


def test_spatial_sweep_synthesizes_only_the_cap_rule(spatial_spec, cap_field, monkeypatch):
    cap = GeodesicCap(center=NORTH, radius=0.6)
    calls = {"synthesis": [], "adjoint": [], "block_iter": [], "_check_field": [],
             "cap_energy_split": []}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((BandGrid, "synthesis"), (BandGrid, "adjoint"), (BandGrid, "block_iter"),
                        (truncation, "_check_field"), (truncation, "cap_energy_split")):
        counted(owner, name)
    spatial_truncation_report(spatial_spec, cap_field, cap, SWEEP, 3.0, b_emp=1.0)
    # the cubature rule of cap_energy_split is the only synthesis; no grid runs an adjoint
    grids = [spatial_spec.partitions[j].grid for j in spatial_spec.scales]
    assert len(calls["synthesis"]) == 1
    assert not any(calls["synthesis"][0] is grid for grid in grids)
    assert calls["adjoint"] == []
    # one distance pass per scale, over the rows whose colatitude leaves a mask open: none
    # for a polar cap, whose rows each sit at one distance from its center (the cap
    # energy's nodes take the other block walks)
    assert not any(g is grid for g in calls["block_iter"] for grid in grids)
    assert sum(g.n_points == 0 for g in calls["block_iter"]) == len(grids)
    # one field check, inside cap_energy_split
    assert len(calls["_check_field"]) == len(calls["cap_energy_split"]) == 1


def reference_dropped(spec, field, kept):
    """(<S_D F, F>, S_D F) for one kept mask per scale, D the cells it drops, point by point:
    synthesis, the weights mu zeroed on the kept cells, adjoint."""
    L = spec.L_max
    form, out = 0.0, np.zeros(n_coeffs(L))
    for j in spec.scales:
        grid, w = spec.partitions[j].grid, spec.weight_vector(j)[degree_of_index(L)]
        values = grid.synthesis(w * field.coeffs)
        mu = np.where(kept[j], 0.0, grid.point_weights())
        form += float(np.dot(mu, values * values))
        out += w * grid.adjoint(mu * values, L)
    return form, out


def test_masks_on_every_scale_match_point_path(spatial_spec):
    rng = np.random.default_rng(8)
    F = HarmonicField.random_mean_zero(8, rng)
    kept = {j: rng.random((spatial_spec.n_cells(j), 3)) < 0.5 for j in spatial_spec.scales}
    forms, sums = _dropped_sums(spatial_spec, F.coeffs, kept)
    assert forms.shape == (3,) and sums.shape == (3, n_coeffs(8))
    for i in range(3):
        form, ref = reference_dropped(spatial_spec, F, {j: kept[j][:, i] for j in kept})
        assert forms[i] == pytest.approx(form, rel=1e-12)
        assert np.linalg.norm(sums[i] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_dropped_sums_self_adjoint_psd(spatial_spec):
    # <S_D F, G> = <F, S_D G> and <S_D F, F> >= 0 for the cells D that random masks drop
    rng = np.random.default_rng(10)
    kept = {j: rng.random((spatial_spec.n_cells(j), 2)) < 0.5 for j in spatial_spec.scales}
    for _ in range(3):
        F = HarmonicField.random_mean_zero(8, rng)
        G = HarmonicField.random_mean_zero(8, rng)
        forms, SF = _dropped_sums(spatial_spec, F.coeffs, kept)
        _, SG = _dropped_sums(spatial_spec, G.coeffs, kept)
        for i in range(2):
            lhs = float(np.dot(SF[i], G.coeffs))
            assert lhs == pytest.approx(float(np.dot(F.coeffs, SG[i])), rel=1e-12)
            assert float(np.dot(SF[i], F.coeffs)) >= 0.0
            assert forms[i] >= 0.0


def test_dropped_form_at_most_the_full_form(spatial_spec):
    F = HarmonicField.random_mean_zero(8, np.random.default_rng(3))
    full = quadratic_form(spatial_spec, F)
    kept = {}
    for j in spatial_spec.scales:  # keep every other cell, then every cell, then none
        kept[j] = np.zeros((spatial_spec.n_cells(j), 3), dtype=bool)
        kept[j][::2, 0] = kept[j][:, 1] = True
    forms, sums = _dropped_sums(spatial_spec, F.coeffs, kept)
    assert 0 <= forms[0] <= full * (1 + 1e-14)
    assert forms[1] == 0.0 and not np.any(sums[1])
    # dropping every cell drops all of S
    assert forms[2] == pytest.approx(full, rel=1e-12)
    ref = apply_summation(spatial_spec, F).coeffs
    assert np.linalg.norm(sums[2] - ref) <= 1e-12 * np.linalg.norm(ref)


def _partly_kept_rows(spec, masks):
    """Rows of the frame's grids that some column of the mask blocks keeps only in part."""
    partly = 0
    for j in spec.scales:
        grid = spec.partitions[j].grid
        kept = np.add.reduceat(masks[j].astype(int), grid.offsets[:-1], axis=0)
        partly += int(np.sum(np.any((kept > 0) & (kept < grid.counts[:, None]), axis=1)))
    return partly


@pytest.fixture(scope="module")
def command_spec():
    # the spatial command's frame
    return FrameSpec.build(MEX1, A13, 0.4, L_max=8, j_range=(-13, 2))


def test_off_pole_sweep_matches_point_path(command_spec):
    # the polar cap keeps or drops whole rows, a cap off the pole keeps arcs of rows
    spec = command_spec
    rows = sum(spec.partitions[j].grid.n_rows for j in spec.scales)
    polar = spatial_index_set(spec, GeodesicCap(NORTH, 0.6), SWEEP)
    assert (rows, _partly_kept_rows(spec, polar)) == (1076, 0)
    cap = GeodesicCap(np.array([0.3, -0.5, 0.8]), 0.6)
    masks = spatial_index_set(spec, cap, SWEEP)
    assert _partly_kept_rows(spec, masks) == 558
    F = HarmonicField.random_mean_zero(8, np.random.default_rng(12))
    reports = spatial_truncation_report(spec, F, cap, SWEEP, 3.0, b_emp=0.7)
    for i, rep in enumerate(reports):
        kept = {j: masks[j][:, i] for j in spec.scales}
        form, ref = reference_dropped(spec, F, kept)
        assert rep.dropped_quadratic_form == pytest.approx(form, rel=1e-12)
        assert rep.measured == pytest.approx(float(np.linalg.norm(ref)), rel=1e-12)
        assert rep.kept_cells == sum(int(np.sum(m)) for m in kept.values())


def test_polar_sweep_takes_no_point_values_on_the_frame(command_spec, cap_field, monkeypatch):
    grids = [command_spec.partitions[j].grid for j in command_spec.scales]

    def refusing(name):
        original = getattr(BandGrid, name)

        def wrapper(grid, *args, **kwargs):
            if any(grid is g for g in grids):
                raise AssertionError("%s on a frame grid" % name)
            return original(grid, *args, **kwargs)

        monkeypatch.setattr(BandGrid, name, wrapper)

    refusing("synthesis")
    refusing("adjoint")
    reports = spatial_truncation_report(command_spec, cap_field, GeodesicCap(NORTH, 0.6), SWEEP,
                                        3.0, b_emp=0.7)
    # the measured values the spatial command prints for this sweep, to every printed digit
    assert [rep.measured for rep in reports] == pytest.approx(
        [0.0684094, 0.0536395, 0.0315218, 0.0270844], abs=5e-8)


def test_dropped_sums_in_chunks_equal_the_per_column_calls(spatial_spec, monkeypatch):
    rng = np.random.default_rng(14)
    F = HarmonicField.random_mean_zero(8, rng)
    # 40 columns from keeping no cell to keeping every cell: whole and partly kept rows
    share = np.linspace(0.0, 1.0, 40)
    kept = {j: rng.random((spatial_spec.n_cells(j), 40)) < share for j in spatial_spec.scales}
    columns = [_dropped_sums(spatial_spec, F.coeffs, {j: kept[j][:, i:i + 1] for j in kept})
               for i in range(40)]
    # FFT batches of 2592 / (2 n) rows of n points, spectrum chunks of 16 (row, column) pairs
    monkeypatch.setattr(sphgrid, "_TARGET_CHUNK_FLOATS", 16 * 2 * 9 * 9)
    forms, sums = _dropped_sums(spatial_spec, F.coeffs, kept)
    for i, (form, summed) in enumerate(columns):
        assert forms[i] == form[0], i
        assert np.array_equal(sums[i], summed[0]), i


@pytest.mark.parametrize("I_decay", [1.0, 0.0, -1.0, math.nan])
def test_spatial_report_needs_decay_order_above_one(spatial_spec, cap_field, I_decay):
    # c^{2-2I} is flat in c at I = 1 and grows with c below it
    with pytest.raises(ValueError, match="decay order I must be > 1"):
        spatial_truncation_report(spatial_spec, cap_field, GeodesicCap(NORTH, 0.6), SWEEP,
                                  I_decay, b_emp=0.7)


def test_spatial_index_set_sequence_stacks_scalar_calls(spatial_spec):
    cap = GeodesicCap(center=NORTH, radius=0.6)
    block = spatial_index_set(spatial_spec, cap, SWEEP)
    columns = [spatial_index_set(spatial_spec, cap, c) for c in SWEEP]
    for j in spatial_spec.scales:
        assert np.array_equal(block[j], np.column_stack([masks[j] for masks in columns]))
    for cs in ((1.0, 0.0), (2.0, -1.0, 4.0)):
        with pytest.raises(ValueError):
            spatial_index_set(spatial_spec, cap, cs)


def test_off_cap_energy_exact_off_pole(spatial_spec):
    # the off-cap parts of a cap and of its antipodal complement tile the sphere
    center = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    F = HarmonicField.random_mean_zero(8, np.random.default_rng(7))
    _, outside = cap_energy_split(spatial_spec, F, GeodesicCap(center, 1.0))
    _, inside = cap_energy_split(spatial_spec, F, GeodesicCap(-center, math.pi - 1.0))
    assert outside > 0.0 and inside > 0.0
    assert outside + inside == pytest.approx(F.norm() ** 2, abs=1e-13)


def reference_off_cap_energy(field, cap):
    """``_off_cap_energy`` as it was before ``product_grid``: its own rotated ring, row by row."""
    L = field.L_max
    half = 0.5 * (math.cos(cap.radius) + 1.0)
    x, w = np.polynomial.legendre.leggauss(L + 1)
    t = half * (x + 1.0) - 1.0
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, 1.0))
    n_phi = 2 * L + 1
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    c = cap.center
    e1 = np.cross(c, [1.0, 0.0, 0.0] if abs(c[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * np.cross(c, e1)
    xyz = s[:, None, None] * ring + t[:, None, None] * c
    values = evaluate_field(field, xyz.reshape(-1, 3)).reshape(L + 1, n_phi)
    return float(np.dot(half * w * (2.0 * math.pi / n_phi), np.sum(values ** 2, axis=1)))


@pytest.mark.parametrize("L", [1, 4, 16])
def test_off_cap_energy_matches_the_reference_rule(L):
    F = HarmonicField.random_mean_zero(L, np.random.default_rng(L))
    for center in ([0.3, -0.5, 0.8], [0.95, 0.1, -0.2], [-0.2, 0.9, 0.1]):
        for radius in (0.0, 0.6, math.pi):
            cap = GeodesicCap(np.array(center), radius)
            got = truncation._off_cap_energy(F, cap)
            assert got == pytest.approx(reference_off_cap_energy(F, cap), rel=1e-14, abs=1e-14)
    assert truncation._off_cap_energy(F, GeodesicCap(np.array([0.3, -0.5, 0.8]), math.pi)) == 0.0


def test_off_cap_energy_evaluates_within_the_chunk_budget(monkeypatch):
    sizes = []

    def recording(field, xyz):
        sizes.append(len(xyz) * n_coeffs(field.L_max))  # the harmonic matrix it builds
        return evaluate_field(field, xyz)

    monkeypatch.setattr(truncation, "evaluate_field", recording)
    F = HarmonicField.random_mean_zero(64, np.random.default_rng(0))
    truncation._off_cap_energy(F, GeodesicCap(np.array([0.3, -0.5, 0.8]), 0.6))
    assert sum(sizes) == 65 * 129 * n_coeffs(64)  # every point once
    assert len(sizes) > 1 and max(sizes) <= _TARGET_CHUNK_FLOATS


def test_cap_rejects_non_finite_parameters():
    for center, radius in ((NORTH, math.nan), (NORTH, math.inf),
                           (np.array([0.0, math.nan, 1.0]), 0.5)):
        with pytest.raises(ValueError):
            GeodesicCap(center=center, radius=radius)


def test_cap_radius_must_lie_in_zero_to_pi():
    for radius in (-0.6, -1e-12, math.pi + 1e-12, 4.0):
        with pytest.raises(ValueError, match="radius"):
            GeodesicCap(center=NORTH, radius=radius)
    # the boundary values are a point and the whole sphere
    assert GeodesicCap(center=NORTH, radius=0.0).area == 0.0
    assert GeodesicCap(center=NORTH, radius=math.pi).area == pytest.approx(4.0 * math.pi)
    assert np.all(GeodesicCap(center=NORTH, radius=math.pi).distance(-NORTH) == 0.0)


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
