import numpy as np
import pytest

from mexneedlets import build_partition, cubature_rule
from mexneedlets.harmonics import real_sh_matrix

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


def test_transforms_match_dense_harmonics_on_every_row_length():
    L = 12
    grid = build_partition(-2, 2.0, 1.0).grid
    n = grid.counts
    # polar caps, aliasing rings (orders m >= n), rings up to 2L and beyond
    assert np.any(n == 1) and np.any((n > 1) & (n <= L))
    assert np.any((n > L) & (n <= 2 * L)) and np.any(n > 2 * L)
    assert np.all(grid.phi0 > 0)
    for seed in range(2):
        _check_against_dense(grid, L, seed)


def test_transforms_match_dense_harmonics_on_cubature_grid():
    grid = cubature_rule(2 * L).grid
    for seed in range(2):
        _check_against_dense(grid, L, seed)
