import math

import numpy as np
import pytest

from mexneedlets import (HarmonicField, SpectralFilter, apply_summation,
                         build_needlet_frame, crossing_bracket, crossing_index, cubature_rule,
                         empirical_frame_bounds, hybrid_cut_degree, hybrid_rate,
                         hybrid_tail_diagnostics, needlet_analyze, needlet_frame_element,
                         tail_bound_lhs_rhs, tightness_ratio)
from mexneedlets.errors import BandLimitError

NORM = SpectralFilter("normalized_cutoff")
A13 = 2.0 ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def frame():
    return build_needlet_frame(NORM, -5, 0)


def test_cut_degrees_and_support(frame):
    for scale in frame.scales:
        t = 2.0 ** scale.j
        assert NORM(t * (scale.l_cut + 1)) == 0.0  # first degree past the cut
        assert np.all(scale.weights[scale.l_cut + 1:] == 0.0) if len(scale.weights) > scale.l_cut + 1 else True
        assert scale.rule.degree == 2 * scale.l_cut
    assert frame.coverage_limit() >= 32


def test_partition_of_unity_over_scales(frame):
    for l in range(1, 33):
        mass = sum(float(s.weights[l]) ** 2 for s in frame.scales if l <= s.l_cut)
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_tightness_on_covered_fields(frame):
    rng = np.random.default_rng(7)
    for _ in range(5):
        F = HarmonicField.random_mean_zero(32, rng)
        assert tightness_ratio(frame, F) == pytest.approx(1.0, abs=1e-8)


def test_tightness_via_empirical_bounds(frame):
    ratio = empirical_frame_bounds(frame, 5, seed=1).ratio
    assert ratio == pytest.approx(1.0, abs=1e-8)


def test_summation_operator_is_identity_on_covered_fields(frame):
    L = frame.coverage_limit()
    F = HarmonicField.random_mean_zero(L, np.random.default_rng(5))
    SF = apply_summation(frame, F)
    assert SF.L_max == max(s.l_cut for s in frame.scales)
    padded = np.pad(F.coeffs, (0, SF.coeffs.size - F.coeffs.size))
    assert np.linalg.norm(SF.coeffs - padded) <= 1e-12 * F.norm()


def test_field_above_largest_cut_is_rejected(frame):
    band = max(s.l_cut for s in frame.scales)
    F = HarmonicField.random_mean_zero(band + 1, np.random.default_rng(6))
    with pytest.raises(BandLimitError):
        needlet_analyze(frame, F)
    # zero padding above the band is not content
    inside = HarmonicField.random_mean_zero(band, np.random.default_rng(6))
    # degree band + 1 holds 2 band + 3 coefficients
    padded = needlet_analyze(frame, HarmonicField(np.pad(inside.coeffs, (0, 2 * band + 3))))
    for j, values in needlet_analyze(frame, inside).items():
        assert np.array_equal(padded[j], values)


def test_element_sits_on_the_analysis_node(frame):
    # <F, phi_{j,i}> from the element equals the analysis coefficient
    F = HarmonicField.random_mean_zero(20, np.random.default_rng(8))
    coeffs = needlet_analyze(frame, F)
    for scale in frame.scales:
        i = scale.rule.n_nodes // 3
        el = needlet_frame_element(frame, scale.j, i)
        n = min(el.coeffs.size, F.coeffs.size)
        assert float(np.dot(el.coeffs[:n], F.coeffs[:n])) == pytest.approx(
            coeffs[scale.j][i], rel=1e-10, abs=1e-14)


def test_nonadjacent_scales_orthogonal(frame):
    e1 = needlet_frame_element(frame, -5, 11)
    e2 = needlet_frame_element(frame, -3, 4)
    n = min(e1.coeffs.size, e2.coeffs.size)
    assert float(np.dot(e1.coeffs[:n], e2.coeffs[:n])) == 0.0


def test_analysis_coefficient_consistency(frame):
    F = HarmonicField.random_mean_zero(16, np.random.default_rng(2))
    coeffs = needlet_analyze(frame, F)
    total = sum(float(np.dot(v, v)) for v in coeffs.values())
    assert total == pytest.approx(F.norm() ** 2, rel=1e-12)


def test_needlet_guards():
    with pytest.raises(ValueError):
        build_needlet_frame(SpectralFilter("mexican", 1), -3, 0)
    with pytest.raises(ValueError):
        build_needlet_frame(NORM, -9, 0)  # cut degree beyond desk scale
    with pytest.raises(ValueError):
        build_needlet_frame(NORM, 0, -1)


@pytest.mark.parametrize("j_min, j_max, name", [
    (-3.5, 0, "j_min"), (-3, 0.7, "j_max"), (math.nan, 0, "j_min"),
    (-3, math.nan, "j_max"), (-math.inf, 0, "j_min"), (-3, math.inf, "j_max"),
])
def test_needlet_scale_bounds_must_be_integers(j_min, j_max, name):
    with pytest.raises(ValueError, match=name):
        build_needlet_frame(NORM, j_min, j_max)


def test_tail_bound_values_and_inequality():
    lhs, rhs = tail_bound_lhs_rhs(3.0, 1.0, 2.0)
    assert rhs == pytest.approx(4.0 / 3.0 * math.exp(-6.0) * 1.75, rel=1e-14)
    assert rhs == pytest.approx(5.7838e-3, abs=1e-6)
    assert lhs <= rhs
    rng = np.random.default_rng(1)
    for _ in range(50):
        M = 0.5 + 7.5 * rng.random()
        b = 0.05 + 0.95 * rng.random()
        a = 1.05 + 1.45 * rng.random()
        lhs, rhs = tail_bound_lhs_rhs(M, b, a)
        assert lhs <= rhs
    big = tail_bound_lhs_rhs(30.0, 0.7, 1.3)
    assert big[0] <= big[1] < 1e-24
    with pytest.raises(ValueError):
        tail_bound_lhs_rhs(0.5, 1.0, 2.0)


def test_crossing_index_positive_branch():
    # l(l+1) < N: the negative part never engages and m = p exactly
    m = crossing_index(40.0, 2.0, 3, A13)
    p, q = crossing_bracket(40.0, 2.0, 3, A13)
    assert m == pytest.approx(p, abs=1e-9)
    assert m <= q


def test_crossing_index_residual_and_bracket():
    m = crossing_index(4.0, 2.0, 3, A13)
    resid = A13 ** (2 * m) * 12.0 - (4.0 + 2.0 * max(-m, 0.0))
    assert abs(resid) <= 1e-8
    p, q = crossing_bracket(4.0, 2.0, 3, A13)
    assert p == pytest.approx(0.5 * math.log(1.0 / 3.0) / math.log(A13), rel=1e-12)
    assert q == pytest.approx(0.5 * math.log(8.0 / 3.0) / math.log(A13), rel=1e-12)
    assert p - 1e-9 <= m <= q + 1e-9


def test_crossing_bracket_random_domain():
    # bracket validity needs the large-N regime; r N >= l keeps it provable
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = 2.0 ** rng.uniform(1.0 / 6.0, 1.0)
        r = hybrid_rate(a) * (1.0 + 2.0 * rng.random())
        N = 2.0 + 62.0 * rng.random()
        l = int(rng.integers(1, min(32, int(r * N)) + 1))
        m = crossing_index(N, r, l, a)
        p, q = crossing_bracket(N, r, l, a)
        assert p - 1e-8 <= m <= q + 1e-8


def test_hybrid_cut_degree_rules():
    assert hybrid_cut_degree(1, 10.0, A13) == 4  # least integer > sqrt(10)
    assert hybrid_cut_degree(1, 9.0, A13) == 4   # strict: above an exact square
    assert hybrid_rate(A13) == pytest.approx(8.0 * math.log(2.0) / 3.0, rel=1e-14)
    assert hybrid_rate(1.01) == 1.0
    ls = [hybrid_cut_degree(j, 16.0, A13) for j in range(-4, 5)]
    assert all(x >= y for x, y in zip(ls, ls[1:]))


def test_hybrid_tail_diagnostics_decay():
    recs = [hybrid_tail_diagnostics(N, A13, 32, grid_points=200) for N in (4.0, 8.0, 12.0)]
    eps3 = [r["eps3"] for r in recs]
    eps4 = [r["eps4"] for r in recs]
    assert eps3[0] > eps3[1] > eps3[2]
    assert eps4[0] > eps4[1] > eps4[2]
    assert recs[2]["eps3"] < 1e-3
    for r in recs:
        assert r["eps3_ratio"] < 0.01 and r["eps4_ratio"] < 0.01


def test_hybrid_tail_diagnostics_rejects_non_finite_n():
    for N in (math.inf, math.nan):
        with pytest.raises(ValueError, match="N must be finite"):
            hybrid_tail_diagnostics(N, A13, 4, grid_points=10)


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_hybrid_rules_reject_non_finite_dilation(a):
    with pytest.raises(ValueError, match="dilation a must be finite"):
        hybrid_tail_diagnostics(4.0, a, 4)
    with pytest.raises(ValueError, match="dilation a must be finite"):
        hybrid_rate(a)
    with pytest.raises(ValueError, match="dilation a must be finite"):
        hybrid_cut_degree(0, 4.0, a)


def test_hybrid_cut_degree_rejects_non_finite_n():
    for N in (math.inf, math.nan):
        with pytest.raises(ValueError, match="N must be finite"):
            hybrid_cut_degree(0, N, A13)


@pytest.mark.parametrize("name, call", [
    pytest.param("M", lambda: tail_bound_lhs_rhs(math.nan, 1.0, 2.0), id="tail_bound-M"),
    pytest.param("b", lambda: tail_bound_lhs_rhs(3.0, math.inf, 2.0), id="tail_bound-b"),
    pytest.param("a", lambda: tail_bound_lhs_rhs(3.0, 1.0, math.nan), id="tail_bound-a"),
    pytest.param("N", lambda: crossing_index(math.nan, 1.0, 2, 2.0), id="crossing_index-N"),
    pytest.param("a", lambda: crossing_index(4.0, 1.0, 2, math.inf), id="crossing_index-a"),
    pytest.param("a", lambda: crossing_bracket(4.0, 1.0, 2, math.inf), id="crossing_bracket-a"),
    pytest.param("r", lambda: crossing_bracket(4.0, math.nan, 2, 2.0), id="crossing_bracket-r"),
    pytest.param("m", lambda: cubature_rule(math.nan), id="cubature_rule-nan"),
    pytest.param("m", lambda: cubature_rule(math.inf), id="cubature_rule-inf"),
])
def test_non_finite_parameters_raise_a_message_naming_them(name, call):
    with pytest.raises(ValueError, match=r"(^|\s)%s must be" % name):
        call()
