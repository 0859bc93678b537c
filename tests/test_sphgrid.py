import numpy as np
import pytest

from mexneedlets import build_partition, cubature_rule
from mexneedlets.harmonics import n_coeffs, real_sh_matrix

L = 8


def _check_adjointness(grid, seed):
    # <synthesis(c), v> = <c, adjoint(v)> for seeded random c, v
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((L + 1) ** 2)
    v = rng.standard_normal(grid.n_points)
    lhs = float(np.dot(grid.synthesis(c), v))
    assert float(np.dot(c, grid.adjoint(v, L))) == pytest.approx(lhs, rel=1e-12)


def test_adjointness_on_band_partition_with_short_rows():
    grid = build_partition(0, 2.0, 0.6).grid
    # polar caps and near-polar rows carry n <= 2L points
    assert np.any(grid.counts <= 2 * L)
    for seed in range(3):
        _check_adjointness(grid, seed)


def test_adjointness_on_cubature_grid():
    grid = cubature_rule(2 * L).grid
    for seed in range(3):
        _check_adjointness(grid, seed)



def _check_against_dense(grid, L, seed):
    # both transforms against the dense matrix of Y_{l,q} at the grid points
    rng = np.random.default_rng(seed)
    Y = real_sh_matrix(L, grid.points())
    c = rng.standard_normal(Y.shape[1])
    v = rng.standard_normal(grid.n_points)
    ref = Y @ c
    assert np.linalg.norm(grid.synthesis(c) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = Y.T @ v
    assert np.linalg.norm(grid.adjoint(v, L) - ref) <= 1e-12 * np.linalg.norm(ref)


def _every_row_length_grid(L):
    grid = build_partition(-2, 2.0, 1.0).grid
    n = grid.counts
    # polar caps, aliasing rings (orders m >= n), rings up to 2L and beyond
    assert np.any(n == 1) and np.any((n > 1) & (n <= L))
    assert np.any((n > L) & (n <= 2 * L)) and np.any(n > 2 * L)
    assert np.all(grid.phi0 > 0)
    return grid


def test_transforms_match_dense_harmonics_on_every_row_length():
    L = 12
    grid = _every_row_length_grid(L)
    for seed in range(2):
        _check_against_dense(grid, L, seed)


def test_transforms_match_dense_harmonics_on_cubature_grid():
    grid = cubature_rule(2 * L).grid
    for seed in range(2):
        _check_against_dense(grid, L, seed)


def _check_order_space(grid, L_in, L_out, seed, high_band=False):
    # normal(c, L_out) = adjoint(mu * synthesis(c), L_out) and
    # energy(c) = dot(mu, synthesis(c)^2), against the point path and
    # against the dense matrix of Y_{l,q} at the grid points
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n_coeffs(L_in))
    mu = grid.point_weights()
    Y = real_sh_matrix(max(L_in, L_out), grid.points())
    values = Y[:, : n_coeffs(L_in)] @ c
    normal = grid.normal(c, L_out)
    assert normal.shape == (n_coeffs(L_out),)
    for ref in (grid.adjoint(mu * grid.synthesis(c), L_out),
                Y[:, : n_coeffs(L_out)].T @ (mu * values)):
        assert np.linalg.norm(normal - ref) <= 1e-12 * np.linalg.norm(ref)
    if high_band:
        # the weighted sum reaches degrees above the input band (a rule
        # exact through degree L_in + L_out would leave them at rounding)
        high = slice(n_coeffs(L_in), None)
        assert np.linalg.norm(ref[high]) > 1e-3 * np.linalg.norm(ref)
        assert np.linalg.norm(normal[high] - ref[high]) <= 1e-12 * np.linalg.norm(ref[high])
    energy = grid.energy(c)
    assert energy == pytest.approx(float(np.dot(mu, grid.synthesis(c) ** 2)), rel=1e-12)
    assert energy == pytest.approx(float(np.dot(mu, values * values)), rel=1e-12)


@pytest.mark.parametrize("L_in, L_out", [(12, 12), (5, 12), (12, 7)])
def test_order_space_normal_on_every_row_length(L_in, L_out):
    grid = _every_row_length_grid(12)
    for seed in range(2):
        _check_order_space(grid, L_in, L_out, seed, high_band=L_out > L_in)


@pytest.mark.parametrize("degree, L_in, L_out", [(16, 12, 12), (16, 5, 12), (40, 16, 20), (5, 3, 8)])
def test_order_space_normal_on_cubature_grid(degree, L_in, L_out):
    # rings of n = degree + 1 points, both shorter and longer than L_in + L_out + 1
    grid = cubature_rule(degree).grid
    for seed in range(2):
        _check_order_space(grid, L_in, L_out, seed,
                           high_band=L_out > L_in and L_in + L_out > degree)


def test_order_space_needs_weights():
    grid = build_partition(0, 2.0, 0.6).grid
    bare = type(grid)(grid.theta, grid.phi0, grid.counts)
    with pytest.raises(ValueError):
        bare.energy(np.ones(n_coeffs(2)))
