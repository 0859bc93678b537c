import numpy as np
import pytest

from mexneedlets import HarmonicField, cubature_rule, evaluate_field, real_sh_matrix
from mexneedlets.errors import ZeroFieldError
from mexneedlets.fields import require_nonzero
from mexneedlets.harmonics import sh_index, sph_to_xyz


def test_single_harmonic_evaluation():
    f = HarmonicField.single_harmonic(3, 2, L=5)
    x = np.array([0.6, -0.64, 0.48])
    x /= np.linalg.norm(x)
    assert evaluate_field(f, x) == pytest.approx(real_sh_matrix(5, x[None])[0][sh_index(3, 2)], rel=1e-13)


def test_parseval_against_dense_quadrature():
    rng = np.random.default_rng(8)
    f = HarmonicField.random_mean_zero(10, rng, normalize=False)
    rule = cubature_rule(20)
    values = rule.grid.synthesis(f.coeffs)
    integral = float(np.dot(rule.weights, values ** 2))
    assert integral == pytest.approx(f.norm() ** 2, rel=1e-12, abs=1e-8)


def test_zonal_field_depends_only_on_colatitude():
    f = HarmonicField.zeros(6)
    for l in range(1, 7):
        f.coeffs[sh_index(l, 0)] = 1.0 / l
    v1 = evaluate_field(f, sph_to_xyz(1.1, 0.3))
    v2 = evaluate_field(f, sph_to_xyz(1.1, 5.9))
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_random_field_determinism_and_normalization():
    f1 = HarmonicField.random_mean_zero(8, np.random.default_rng(42))
    f2 = HarmonicField.random_mean_zero(8, np.random.default_rng(42))
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert f1.coeffs[0] == 0.0
    assert f1.norm() == pytest.approx(1.0, rel=1e-14)
    assert f1.mean_zero


def test_padding_and_guards():
    f = HarmonicField.single_harmonic(2, -1)
    g = f.padded(5)
    assert g.L_max == 5 and g.coeff(2, -1) == 1.0
    with pytest.raises(ValueError):
        g.padded(3)
    with pytest.raises(ZeroFieldError):
        require_nonzero(HarmonicField.zeros(3))
    with pytest.raises(ValueError):
        HarmonicField(np.zeros(7))  # not a perfect square length
