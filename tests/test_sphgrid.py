import numpy as np
import pytest

from mexneedlets import build_partition, cubature_rule

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

