import math
import sys

import numpy as np
import pytest

from mexneedlets import (HarmonicField, SpectralFilter, apply_summation,
                         build_needlet_frame, crossing_bracket, crossing_index, cubature_rule,
                         empirical_frame_bounds, hybrid_cut_degree, hybrid_rate,
                         hybrid_tail_diagnostics, needlet_analyze, needlet_frame_element,
                         tail_bound_lhs_rhs, tightness_ratio)
from mexneedlets.errors import BandLimitError, ZeroFieldError

NORM = SpectralFilter("normalized_cutoff")
A13 = 2.0 ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def frame():
    return build_needlet_frame(NORM, -5, 0)


def test_cut_degrees_and_support(frame):
    for scale in frame.scales:
        t = 2.0 ** scale.j
        assert NORM(t * (scale.l_cut + 1)) == 0.0  # first degree past the cut
        assert len(scale.weights) == scale.l_cut + 1
        assert NORM(t * scale.l_cut) > 0.0  # the cut degree is inside the support
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


def test_tightness_needs_a_nonzero_mean_zero_field(frame):
    with pytest.raises(ZeroFieldError):
        tightness_ratio(frame, HarmonicField.zeros(8))
    with pytest.raises(ValueError, match="mean-zero"):
        tightness_ratio(frame, HarmonicField.single_harmonic(0, 0, L=8))


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
    with pytest.raises(ValueError, match="cut degree 511 beyond desk scale at j=-8"):
        build_needlet_frame(NORM, -8, 0)  # a degree-1022 cubature rule
    with pytest.raises(ValueError):
        build_needlet_frame(NORM, 0, -1)
    with pytest.raises(ValueError, match=r"j = 1\.\.3: no degree >= 1; needlet scales need j <= 0"):
        build_needlet_frame(NORM, 1, 3)
    assert [s.j for s in build_needlet_frame(NORM, -1, 3).scales] == [-1, 0]


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
    recs = [hybrid_tail_diagnostics(N, A13, 32) for N in (4.0, 8.0, 12.0)]
    eps3 = [r["eps3"] for r in recs]
    eps4 = [r["eps4"] for r in recs]
    assert eps3[0] > eps3[1] > eps3[2]
    assert eps4[0] > eps4[1] > eps4[2]
    assert recs[2]["eps3"] < 1e-3
    for r in recs:
        assert r["eps3_ratio"] < 0.01 and r["eps4_ratio"] < 0.01


def reference_scale_tail(a, s, threshold):
    """sum |f(a^{2j} s)|^2 over the scales with a^{2j} s > threshold(j), one rung at a time.

    The scalar loop the hybrid tails used before they went through the
    ladder walk, with its own stops (x > 750, j > 4000), except that it
    starts two rungs below the crossing of the constant part threshold(1):
    the old start came from threshold(0), which lies past the first rung
    when (N + r) / N > a^4, and then dropped the leading eps4 terms.
    """
    j = int(math.floor(math.log(threshold(1) / s) / (2.0 * math.log(a)))) - 2
    total = 0.0
    while True:
        x = a ** (2 * j) * s
        if x > threshold(j):
            term = (x * math.exp(-x)) ** 2
            total += term
            if x > 750.0:
                break
        j += 1
        if j > 4000:
            break
    return total


def reference_hybrid_tails(N, a, l_max):
    """(eps3, eps4) from ``reference_scale_tail``, one grid point and one degree at a time."""
    r = hybrid_rate(a)
    grid = np.exp(np.linspace(0.0, 2.0 * math.log(a), 1000, endpoint=False))
    eps3 = max(reference_scale_tail(a, float(s), lambda j: N * a * a) for s in grid)
    eps4 = 0.0
    for l in range(1, l_max + 1):
        eps4 += (2 * l + 1) * reference_scale_tail(
            a, l * (l + 1.0), lambda j: N * a * a + r * a * a * max(1 - j, 0))
    return eps3, eps4


@pytest.mark.parametrize("a", [1.05, 1.3, A13, 2.0])
def test_hybrid_tails_match_the_rung_by_rung_reference(a):
    # N = 2 at a = 1.05 has its first eps4 rungs below the old loop's start
    for N in (2.0, 4.0, 12.0, 20.0):
        rec = hybrid_tail_diagnostics(N, a, 16)
        eps3, eps4 = reference_hybrid_tails(N, a, 16)
        assert rec["eps3"] == pytest.approx(eps3, rel=1e-14)
        assert rec["eps4"] == pytest.approx(eps4, rel=1e-14)


def reference_tail_bound_lhs(M, b, a):
    """lhs of ``tail_bound_lhs_rhs`` one rung at a time, as it was summed before the ladder walk."""
    j = int(math.floor(math.log(M / b) / (2.0 * math.log(a)))) - 1
    while a ** (2 * (j - 1)) <= M / b:
        j += 1
    lhs = 0.0
    while True:
        s = b * a ** (2 * j)
        term = (s * math.exp(-s)) ** 2
        lhs += term
        j += 1
        if term < 1e-300 or (lhs > 0 and term < 1e-20 * lhs):
            break
    return lhs


def test_tail_bound_lhs_matches_the_rung_by_rung_reference():
    rng = np.random.default_rng(8)
    for _ in range(300):
        M = 0.5 + 40.0 * rng.random()
        b = 0.01 + rng.random()
        a = 1.02 + 2.0 * rng.random()
        lhs, _ = tail_bound_lhs_rhs(M, b, a)
        assert lhs == pytest.approx(reference_tail_bound_lhs(M, b, a), rel=1e-14)


def test_hybrid_tails_near_one_dilation_equal_a_fixed_range_sum():
    # at a = 1.0001 the first eps3 rung is j ~ 6930, past the old loop's
    # j <= 4000, which then reported eps3 = 0
    a, N = 1.0001, 4.0
    rec = hybrid_tail_diagnostics(N, a, 2)
    js = np.arange(-3000, 21000)  # a^{2j} from 0.55 to 67; the rungs past it add < 1e-52
    powers = a ** (2.0 * js)
    grid = np.exp(np.linspace(0.0, 2.0 * math.log(a), 1000, endpoint=False))
    eps3 = 0.0
    for rows in np.array_split(grid, 10):
        x = np.outer(rows, powers)
        eps3 = max(eps3, float(np.max(np.sum(np.where(x > N * a * a, (x * np.exp(-x)) ** 2, 0.0),
                                              axis=1))))
    eps4 = 0.0
    for l in (1, 2):
        x = l * (l + 1.0) * powers
        above = x > N * a * a + hybrid_rate(a) * a * a * np.maximum(1 - js, 0)
        eps4 += (2 * l + 1) * float(np.sum(np.where(above, (x * np.exp(-x)) ** 2, 0.0)))
    assert eps3 > 3.7
    assert rec["eps3"] == pytest.approx(eps3, rel=1e-12)
    assert rec["eps4"] == pytest.approx(eps4, rel=1e-12)


def test_hybrid_tail_diagnostics_rejects_non_finite_n():
    for N in (math.inf, math.nan):
        with pytest.raises(ValueError, match="N must be finite"):
            hybrid_tail_diagnostics(N, A13, 4)


@pytest.mark.parametrize("l_max", [0, -3])
def test_hybrid_tail_diagnostics_rejects_an_empty_degree_range(l_max):
    with pytest.raises(ValueError, match="need l_max >= 1"):
        hybrid_tail_diagnostics(4.0, A13, l_max)


def test_hybrid_tail_diagnostics_needs_a_normal_decay_divisor():
    # the tails are about 1e-271 at N = 200 and underflow to 0 by N = 250; e^{-708} is a
    # normal float and e^{-709} is not
    rec = hybrid_tail_diagnostics(200.0, A13, 4)
    assert min(rec["eps3"], rec["eps4"]) >= sys.float_info.min
    assert 0.0 < rec["eps3_ratio"] < math.inf and 0.0 < rec["eps4_ratio"] < math.inf
    for N in (250.0, 708.0):
        with pytest.raises(ValueError, match="N = %r too large: a tail sum is below" % N):
            hybrid_tail_diagnostics(N, A13, 4)
    with pytest.raises(ValueError, match="N = 709.0 too large: e"):
        hybrid_tail_diagnostics(709.0, A13, 4)


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
