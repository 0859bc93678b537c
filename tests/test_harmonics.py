import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from mexneedlets import multiplicity, real_sh_matrix, sphere_eigenvalue
from mexneedlets.harmonics import (geodesic_distance, n_coeffs, norm_assoc_legendre, sh_index,
                                   sph_to_xyz)


def test_sphere_eigendata():
    assert (sphere_eigenvalue(0), multiplicity(0)) == (0.0, 1)
    assert (sphere_eigenvalue(1), multiplicity(1)) == (2.0, 3)
    assert (sphere_eigenvalue(10), multiplicity(10)) == (110.0, 21)
    with pytest.raises(ValueError):
        sphere_eigenvalue(-1)


def test_low_degree_harmonics_closed_forms():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    Y = real_sh_matrix(2, v[None])[0]
    c1 = math.sqrt(3.0 / (4.0 * math.pi))
    assert Y[sh_index(0, 0)] == pytest.approx(math.sqrt(1 / (4 * math.pi)), rel=1e-14)
    assert Y[sh_index(1, 0)] == pytest.approx(c1 * v[2], rel=1e-13)
    assert Y[sh_index(1, 1)] == pytest.approx(c1 * v[0], rel=1e-13)
    assert Y[sh_index(1, -1)] == pytest.approx(c1 * v[1], rel=1e-13)
    assert Y[sh_index(2, 0)] == pytest.approx(
        math.sqrt(5.0 / (16.0 * math.pi)) * (3 * v[2] ** 2 - 1), rel=1e-12)


def test_addition_theorem():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y = rng.standard_normal((2, 3))
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        Yx = real_sh_matrix(12, x[None])[0]
        Yy = real_sh_matrix(12, y[None])[0]
        for l in (1, 6, 12):
            got = sum(Yx[sh_index(l, q)] * Yy[sh_index(l, q)] for q in range(-l, l + 1))
            expect = (2 * l + 1) / (4 * math.pi) * eval_legendre(l, float(np.dot(x, y)))
            assert got == pytest.approx(expect, abs=1e-12)


def test_orthonormality_by_quadrature():
    L = 10
    x, w = np.polynomial.legendre.leggauss(2 * L + 2)
    n_phi = 4 * L + 1
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    theta = np.arccos(x)
    nodes = np.concatenate([sph_to_xyz(np.full(n_phi, t), phis) for t in theta])
    weights = np.repeat(w * 2 * math.pi / n_phi, n_phi)
    Y = real_sh_matrix(L, nodes)
    gram = (Y * weights[:, None]).T @ Y
    assert np.max(np.abs(gram - np.eye(n_coeffs(L)))) < 1e-10


def test_geodesic_distance():
    n = np.array([0.0, 0.0, 1.0])
    assert geodesic_distance(n, -n) == pytest.approx(math.pi, rel=1e-12)
    assert geodesic_distance(n, np.array([1.0, 0.0, 0.0])) == pytest.approx(math.pi / 2, rel=1e-12)


def test_assoc_legendre_stable_to_cubature_cap():
    from scipy.special import sph_harm_y_all

    L = 512
    ct = np.array([-1.0, -0.5, 0.0, 0.5, 0.9999, 1.0])
    table = norm_assoc_legendre(L, ct)
    # the table carries no Condon-Shortley phase: N P_l^m = (-1)^m Re Y_l^m(theta, 0)
    l, m = np.tril_indices(L + 1)
    ref = (-1.0) ** m[:, None] * sph_harm_y_all(L, L, np.arccos(ct), 0.0)[l, m].real
    assert np.max(np.abs(table - ref.T)) <= 1e-10
    # near the pole P_m^m ~ sin^m theta underflows; both sides flush to 0 together
    pole = np.flatnonzero(ct == 0.9999)[0]
    assert np.any(table[pole] == 0.0)
    assert np.array_equal(table[pole] == 0.0, ref[:, pole] == 0.0)
