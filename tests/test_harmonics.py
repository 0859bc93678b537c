import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from mexneedlets import multiplicity, real_sh_matrix, sphere_eigenvalue
from mexneedlets.harmonics import (geodesic_distance, legendre_orders, n_coeffs,
                                   norm_assoc_legendre, order_layout, sh_index, sph_to_xyz)


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


@pytest.mark.parametrize("theta", [1e-9, 1e-7, 1e-5, math.pi - 1e-7])
def test_geodesic_distance_is_exact_near_the_point_and_its_antipode(theta):
    # arccos of the dot product is off by 4e-13 to 1e-9 rad at these colatitudes
    n = np.array([0.0, 0.0, 1.0])
    x = sph_to_xyz(np.array(theta), np.array(0.0))
    assert abs(geodesic_distance(n, x) - theta) <= 4 * np.spacing(theta)
    assert abs(np.arccos(np.clip(np.dot(n, x), -1.0, 1.0)) - theta) > 4 * np.spacing(theta)


def test_assoc_legendre_stable_to_cubature_cap():
    from scipy.special import sph_harm_y_all

    L = 512
    ct = np.array([-1.0, -0.5, 0.0, 0.5, 0.9999, 1.0])
    table = norm_assoc_legendre(L, ct)
    # the table carries no Condon-Shortley phase: N P_l^m = (-1)^m Re Y_l^m(theta, 0)
    l, m = _pair_degrees_and_orders(L)
    ref = (-1.0) ** m[:, None] * sph_harm_y_all(L, L, np.arccos(ct), 0.0)[l, m].real
    assert np.max(np.abs(table - ref.T)) <= 1e-10
    # near the pole P_m^m ~ sin^m theta underflows; both sides flush to 0 together
    pole = np.flatnonzero(ct == 0.9999)[0]
    assert np.any(table[pole] == 0.0)
    assert np.array_equal(table[pole] == 0.0, ref[:, pole] == 0.0)


def _pair_degrees_and_orders(L):
    """Degree and order of every column of an ``order_layout(L)`` table."""
    starts, m, _, _ = order_layout(L)
    return m + np.arange(starts[-1]) - np.array(starts)[m], m


def _lm(l, m):
    return l * (l + 1) // 2 + m


def _degree_major_legendre(L, cos_theta):
    """The table as built before ``order_layout``: column _lm(l, m), degree by degree."""
    ct = np.atleast_1d(np.asarray(cos_theta, dtype=float))
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, 1.0))
    table = np.zeros((ct.shape[0], (L + 1) * (L + 2) // 2))
    table[:, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, L + 1):
        table[:, _lm(m, m)] = table[:, _lm(m - 1, m - 1)] * st * math.sqrt((2 * m + 1) / (2.0 * m))
    for m in range(0, L):
        table[:, _lm(m + 1, m)] = math.sqrt(2 * m + 3.0) * ct * table[:, _lm(m, m)]
    ct = ct[:, None]
    for l in range(2, L + 1):
        m = np.arange(l - 1)
        alm = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        blm = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        table[:, _lm(l, 0):_lm(l, l - 1)] = alm * (
            ct * table[:, _lm(l - 1, 0):_lm(l - 1, l - 1)] - blm * table[:, _lm(l - 2, 0):_lm(l - 2, l - 1)])
    return table


def _per_degree_real_sh_matrix(L, xyz):
    """The harmonic matrix as built before ``order_layout``: one block per degree."""
    ct = np.clip(xyz[:, 2], -1.0, 1.0)
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    plm = _degree_major_legendre(L, ct)
    mphi = np.outer(phi, np.arange(1, L + 1))
    cos_m, sin_m = np.cos(mphi), np.sin(mphi)
    out = np.zeros((xyz.shape[0], n_coeffs(L)))
    for l in range(L + 1):
        c = sh_index(l, 0)
        out[:, c] = plm[:, _lm(l, 0)]
        base = math.sqrt(2.0) * plm[:, _lm(l, 1):_lm(l, l) + 1]
        out[:, c + 1:c + l + 1] = base * cos_m[:, :l]
        out[:, c - l:c] = (base * sin_m[:, :l])[:, ::-1]
    return out


@pytest.mark.parametrize("L", list(range(41)) + [127, 512])
def test_order_major_tables_equal_the_degree_major_reference(L):
    rng = np.random.default_rng(L)
    ct = np.concatenate(([-1.0, 1.0, 0.9999, -0.9999], rng.uniform(-1.0, 1.0, 4)))
    table = norm_assoc_legendre(L, ct)
    assert table.flags.f_contiguous
    l, m = _pair_degrees_and_orders(L)
    assert np.array_equal(table, _degree_major_legendre(L, ct)[:, _lm(l, m)])

    xyz = rng.standard_normal((4, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    xyz = np.concatenate([xyz, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]],
                          sph_to_xyz(np.arccos([0.9999, -0.9999]), np.array([0.3, -2.0]))])
    assert np.array_equal(real_sh_matrix(L, xyz), _per_degree_real_sh_matrix(L, xyz))


@pytest.mark.parametrize("L", [1, 2, 16, 32, 69])
def test_order_recurrence_equals_the_table_order_by_order(L):
    rng = np.random.default_rng(L)
    # the poles, colatitudes 1e-9 and pi - 1e-9 (cos theta rounds to +-1 there) and the
    # cos theta next to +-1, where sin^m theta underflows and whole orders flush to 0
    ct = np.concatenate(([1.0, -1.0, math.cos(1e-9), math.cos(math.pi - 1e-9),
                          np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 0.0],
                         rng.uniform(-1.0, 1.0, 57)))
    table = norm_assoc_legendre(L, ct)
    starts = order_layout(L)[0]
    orders = [(m, q.copy()) for m, q in legendre_orders(L, ct)]
    assert [m for m, _ in orders] == list(range(L + 1))
    for m, q in orders:
        assert np.array_equal(q, table[:, starts[m]:starts[m + 1]].T)
    if L == 69:
        assert np.all(orders[L][1][:, 4:6] == 0.0) and np.all(orders[1][1][:, 4:6] != 0.0)


@pytest.mark.parametrize("L", [0, 1, 2, 7, 32])
def test_order_layout_lists_each_order_as_one_slice(L):
    starts, m, cos_index, sin_index = order_layout(L)
    assert len(starts) == L + 2 and starts[0] == 0 and starts[-1] == (L + 1) * (L + 2) // 2
    for order in range(L + 1):
        s = slice(starts[order], starts[order + 1])
        assert np.array_equal(m[s], np.full(L + 1 - order, order))
        l = np.arange(order, L + 1)
        assert np.array_equal(cos_index[s], [sh_index(d, order) for d in l])
        assert np.array_equal(sin_index[s], [sh_index(d, -order) for d in l])
    indices = np.concatenate([cos_index, sin_index[m > 0]])
    assert np.array_equal(np.sort(indices), np.arange(n_coeffs(L)))
    assert order_layout(L)[1] is m  # cached
    for a in (m, cos_index, sin_index):
        with pytest.raises(ValueError):
            a[0] = 1
