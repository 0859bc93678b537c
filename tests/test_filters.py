import math

import numpy as np
import pytest
from scipy.integrate import quad

from mexneedlets import SpectralFilter, calderon_constant, parse_filter
from mexneedlets.errors import CalderonDivergenceError

MEX1 = SpectralFilter("mexican", 1)
CUT = SpectralFilter("cutoff_bump")
NORM = SpectralFilter("normalized_cutoff")


def test_mexican_point_values():
    assert MEX1(0.0) == 0.0
    assert MEX1(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    mex3 = SpectralFilter("mexican", 3)
    assert mex3(2.0) == pytest.approx(8.0 * math.exp(-2.0), rel=1e-14)


def test_mexican_positive_and_rapidly_decaying():
    s = np.exp(np.linspace(-6, 6, 400))
    vals = MEX1(s)
    assert np.all(vals > 0)
    # s^J f(s) stays below its analytic supremum (J + r at the max)
    for J in (1, 2, 4):
        peak = (J + 1.0) ** (J + 1) * math.exp(-(J + 1.0))
        assert np.all(s ** J * vals <= peak * (1 + 1e-12))


def test_cutoff_support_is_exact():
    for f in (CUT, NORM):
        assert f(0.5) == 0.0
        assert f(2.0) == 0.0
        assert f(0.3) == 0.0
        assert f(7.0) == 0.0
        assert f(1.0) > 0.0
    # interior closed form for the raw bump
    s = 1.1
    assert CUT(s) == pytest.approx(math.exp(-1.0 / (9.0 / 16.0 - (s - 1.25) ** 2)), rel=1e-15)


def test_normalized_cutoff_partition_of_unity():
    rng = np.random.default_rng(0)
    s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000))
    total = np.zeros_like(s)
    for j in range(-25, 26):
        total += NORM(np.ldexp(s, j)) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_parse_filter_names():
    assert parse_filter("mexican:r=2") == SpectralFilter("mexican", 2)
    assert parse_filter("cutoff") == CUT
    assert parse_filter("normalized_cutoff") == NORM
    with pytest.raises(ValueError):
        parse_filter("gauss")
    with pytest.raises(ValueError):
        parse_filter("mexican:r=0")


def test_calderon_closed_forms():
    # against quadrature: int_0^inf s^{2r-1} e^{-2s} ds = (2r-1)! / 4^r
    for r in (1, 2, 3):
        oracle, _ = quad(lambda s: s ** (2 * r - 1) * math.exp(-2.0 * s), 0.0, math.inf,
                         epsabs=0.0, epsrel=1e-13)
        assert calderon_constant(SpectralFilter("mexican", r)) == pytest.approx(oracle, rel=1e-12)


def test_calderon_normalized_cutoff_is_ln2():
    # sum_j g(2^j t)^2 = 1 folds int_0^inf g^2 dt/t onto one octave
    oracle, _ = quad(lambda s: NORM(s) ** 2 / s, 0.5, 2.0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert oracle == pytest.approx(math.log(2.0), rel=1e-12)
    assert calderon_constant(NORM) == pytest.approx(oracle, rel=1e-12)


def test_calderon_cutoff_against_direct_quadrature():
    # the 64-node Gauss-Legendre rule in log t against adaptive quadrature in t
    val = calderon_constant(CUT)
    assert val > 0
    oracle, _ = quad(lambda s: CUT(s) ** 2 / s, 0.5, 2.0, epsabs=0, epsrel=1e-13, limit=200)
    assert val == pytest.approx(oracle, rel=1e-13)


def test_calderon_divergence_flag():
    stub = SpectralFilter("mexican", 1)
    stub.vanishing_order = 0  # a filter not vanishing at 0 diverges
    with pytest.raises(CalderonDivergenceError):
        calderon_constant(stub)


def test_mexican_f0_sup_is_one():
    assert MEX1.f0_sup() == 1.0


def test_multiplier_conventions():
    # mexican acts through f(t^2 lam), cutoff through g(t sqrt(lam))
    assert MEX1.multiplier(0.5, 8.0) == pytest.approx(MEX1(2.0), rel=1e-15)
    assert CUT.multiplier(0.5, 4.0) == pytest.approx(CUT(1.0), rel=1e-15)
    assert MEX1.dilation_exponent == 2
    assert CUT.dilation_exponent == 1


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        MEX1(-1.0)
