"""Acceptance suite: one test per headline criterion, pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
pass lines and the measured numbers behind them.
"""

import math

import numpy as np
import pytest

from mexneedlets import (FrameSpec, GeodesicCap, HarmonicField, SpectralFilter,
                         apply_summation, build_needlet_frame, build_partition,
                         calderon_constant, complement_masks, crossing_bracket,
                         crossing_index, cubature_rule, daubechies_bounds,
                         empirical_frame_bounds, fit_riemann_constant, frequency_bound,
                         greedy_ball_partition, hybrid_rate, kernel_series,
                         measured_truncation_error, quadratic_form, spatial_index_set,
                         spectral_tail_norm, tail_bound_lhs_rhs, tightness_ratio,
                         window_margin)
from mexneedlets.harmonics import geodesic_distance, sh_index
from mexneedlets.kernels import kernel_gaussian_approx
from mexneedlets.partition import MEASURE_CONDITION_DELTA0

MEX1 = SpectralFilter("mexican", 1)
NORM = SpectralFilter("normalized_cutoff")
A13 = 2.0 ** (1.0 / 3.0)


def report(num, text):
    print("\n[criterion %d] PASS: %s" % (num, text))


def test_criterion_1_daubechies_ratio():
    bounds = daubechies_bounds(MEX1, A13)
    assert abs(bounds.ratio - 1.0) < 5e-5
    report(1, "mexican r=1, a=2^(1/3): B/A = %.7f (|B/A - 1| = %.3g < 5e-5)"
           % (bounds.ratio, abs(bounds.ratio - 1.0)))


def test_criterion_2_calderon_constant():
    c = calderon_constant(MEX1)
    assert abs(c - 0.25) < 1e-9
    report(2, "Calderon constant = %.12f (|c - 1/4| = %.3g < 1e-9)" % (c, abs(c - 0.25)))


def test_criterion_3_kernel_cross_validation():
    thetas = np.linspace(-math.pi, math.pi, 10000)
    series = kernel_series(MEX1, 0.1, np.cos(thetas), tol=1e-10)
    approx = kernel_gaussian_approx(0.1, thetas)
    max_diff = float(np.max(np.abs(series - approx)))
    peak = float(np.max(series))
    assert max_diff <= 9.5e-4
    assert 95.0 <= peak <= 105.0
    report(3, "t=0.1: max |series - gaussian| = %.6g <= 9.5e-4 over 10^4 grid; "
              "peak = %.4f in [95, 105]" % (max_diff, peak))


def test_criterion_4_needlet_tightness():
    frame = build_needlet_frame(NORM, -5, 0)
    assert frame.coverage_limit() >= 32
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        field = HarmonicField.random_mean_zero(32, rng)
        worst = max(worst, abs(tightness_ratio(frame, field) - 1.0))
    assert worst <= 1e-8
    report(4, "normalized cutoff needlets over 1 <= l <= 32, 20 fields: "
              "max |ratio - 1| = %.3g <= 1e-8" % worst)


def test_criterion_5_nearly_tight_trend():
    ratios = {}
    for b in (1.0, 0.5, 0.25):
        spec = FrameSpec.build(MEX1, A13, b, L_max=32, j_range=(-23, 5))
        fb = empirical_frame_bounds(spec, trials=6, seed=42)
        assert fb.lower > 0.0
        ratios[b] = fb.ratio
    assert ratios[1.0] > ratios[0.5] > ratios[0.25]
    report(5, "L_max=32, a=2^(1/3): ratio strictly decreases with b "
              "(b=1: %.6f, b=0.5: %.6f, b=0.25: %.6f), lower bounds positive"
           % (ratios[1.0], ratios[0.5], ratios[0.25]))


def test_criterion_6_frequency_truncation():
    spec = FrameSpec.build(MEX1, A13, 0.9, L_max=2, j_range=(-24, 6))
    M, N = 22, 4
    level = 6.0  # lambda_2: every carried eigenvalue is within [0, L]

    # full-window truncation error vanishes identically
    probe = HarmonicField.random_mean_zero(2, np.random.default_rng(0))
    assert measured_truncation_error(spec, probe, 24, 6) == 0.0

    # computable bound strictly monotone in each window size
    bounds = daubechies_bounds(MEX1, A13)
    in_m = [frequency_bound(spec, 1, 1, level, m, N, 0.0, 1.0,
                            bounds=bounds).bound_without_C0b for m in range(8)]
    in_n = [frequency_bound(spec, 1, 1, level, M, n, 0.0, 1.0,
                            bounds=bounds).bound_without_C0b for n in range(8)]
    assert all(x > y for x, y in zip(in_m, in_m[1:]))
    assert all(x > y for x, y in zip(in_n, in_n[1:]))

    # window retains a (1 - 1e-6) ladder fraction on the carried spectrum
    margin = window_margin(spec, M, N)
    assert margin <= 1e-6

    fb = empirical_frame_bounds(spec, trials=5, seed=11)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(3):
        field = HarmonicField.random_mean_zero(2, rng)
        assert spectral_tail_norm(field, level) == 0.0
        err = measured_truncation_error(spec, field, M, N)
        assert err <= 1e-4 * fb.upper * field.norm()
        worst = max(worst, err / (fb.upper * field.norm()))
    c0_est = fit_riemann_constant(spec, [HarmonicField.random_mean_zero(2, rng)],
                                  M, N, bounds=bounds)
    report(6, "window [-%d, %d], ladder margin %.3g <= 1e-6: measured error "
              "<= %.3g x B_emp ||F|| (allowed 1e-4); fitted C0_est = %.3g (reported only)"
           % (M, N, margin, worst, c0_est))


def test_criterion_7_spatial_truncation():
    spec = FrameSpec.build(MEX1, A13, 0.4, L_max=8, j_range=(-13, 2))
    coeffs = np.zeros(81)
    for l in range(1, 9):
        coeffs[sh_index(l, 0)] = math.exp(-l * (l + 1) * 0.02) * math.sqrt(2 * l + 1)
    field = HarmonicField(coeffs / np.linalg.norm(coeffs))
    cap = GeodesicCap(center=np.array([0.0, 0.0, 1.0]), radius=0.6)
    fb = empirical_frame_bounds(spec, trials=100, seed=5)

    forms = []
    chain_worst = 0.0
    for c in (0.5, 1.0, 2.0, 4.0):
        dropped = complement_masks(spec, spatial_index_set(spec, cap, c))
        qf = quadratic_form(spec, field, masks=dropped)
        norm_sq = apply_summation(spec, field, masks=dropped).norm() ** 2
        assert norm_sq <= fb.upper * qf * (1 + 1e-10)
        chain_worst = max(chain_worst, norm_sq / (fb.upper * qf))
        forms.append(qf)
    assert all(x > y for x, y in zip(forms, forms[1:]))

    rng = np.random.default_rng(6)
    dropped = complement_masks(spec, spatial_index_set(spec, cap, 1.0))
    for _ in range(20):
        f = HarmonicField.random_mean_zero(8, rng)
        qf = quadratic_form(spec, f, masks=dropped)
        norm_sq = apply_summation(spec, f, masks=dropped).norm() ** 2
        assert norm_sq <= fb.upper * qf * (1 + 1e-10)
        chain_worst = max(chain_worst, norm_sq / (fb.upper * qf))
    report(7, "cap field, c_j doubling: dropped form strictly decreasing "
              "(%.4g > %.4g > %.4g > %.4g); norm chain ratio <= %.3f of B_emp on all trials"
           % (*forms, chain_worst))


def test_criterion_8_tail_inequalities():
    rng = np.random.default_rng(8)
    for _ in range(50):
        M = 0.5 + 7.5 * rng.random()
        b = 0.05 + 0.95 * rng.random()
        a = 1.05 + 1.45 * rng.random()
        lhs, rhs = tail_bound_lhs_rhs(M, b, a)
        assert lhs <= rhs
    for _ in range(50):
        a = 2.0 ** rng.uniform(1.0 / 6.0, 1.0)
        r = hybrid_rate(a) * (1.0 + 2.0 * rng.random())
        N = 2.0 + 62.0 * rng.random()
        l = int(rng.integers(1, min(32, int(r * N)) + 1))
        m = crossing_index(N, r, l, a)
        p, q = crossing_bracket(N, r, l, a)
        assert p - 1e-8 <= m <= q + 1e-8
    report(8, "50 random scale-tail inequalities and 50 random crossing-index "
              "brackets: zero violations")


def test_criterion_9_partition_axioms():
    worst_c0 = math.inf
    checked = 0
    for a in (A13, 2.0):
        for b in (0.25, 0.5, 1.0):
            j_lo = int(math.ceil(math.log(1.0001e-3 / b) / math.log(a)))
            j_hi = int(math.floor(math.log(2 * math.pi / b) / math.log(a)))
            for j in range(j_lo, j_hi + 1):
                part = build_partition(j, a, b)
                d = b * a ** j
                assert abs(part.sum_measure() - 4 * math.pi) <= 1e-10 * 4 * math.pi
                assert part.max_diameter_bound() <= d * (1 + 1e-12)
                if d < MEASURE_CONDITION_DELTA0:
                    worst_c0 = min(worst_c0, part.achieved_c0())
                checked += 1
    assert worst_c0 > 0.05

    t = math.pi / 4
    greedy = greedy_ball_partition(t, candidates=2000, grid_theta=256)
    assert abs(greedy.sum_measure() - 4 * math.pi) <= 1e-3 * 4 * math.pi
    assert greedy.max_diameter_bound() <= 4 * t
    centers = greedy.centers
    dist = geodesic_distance(centers[:, None, :], centers[None, :, :])
    np.fill_diagonal(dist, math.inf)
    assert np.min(dist) >= 2 * t  # disjoint inner balls

    rule = cubature_rule(8)
    res = rule.grid.adjoint(rule.grid.point_weights(), 8)
    worst_res = max(np.max(np.abs(res[l * l:(l + 1) * (l + 1)])) for l in range(1, 9))
    assert worst_res <= 1e-10
    res10 = rule.grid.adjoint(rule.grid.point_weights(), 10)
    assert np.max(np.abs(res10[100:121])) > 1e-6  # negative control at m+2
    report(9, "%d band partitions: disjoint cover, certified diameters, "
              "uniform c0 = %.3f > 0.05; greedy witness valid; cubature exact to "
              "degree 8 (resid %.2g), fails at 10" % (checked, worst_c0, worst_res))
