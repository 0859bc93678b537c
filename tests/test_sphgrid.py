import numpy as np
import pytest

from mexneedlets import build_partition, cubature_rule, sphgrid
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
    # every grid carries its quadrature weights from construction on
    grid = build_partition(0, 2.0, 0.6).grid
    with pytest.raises(TypeError, match="row_weight"):
        type(grid)(grid.theta, grid.phi0, grid.counts)


def _check_block(grid, L_in, L_out, k, seed):
    # each column of a k-column block gives the single-field energy and
    # normal; a block of one gives the vector result exactly
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((n_coeffs(L_in), k))
    energies, normals = grid.energy(block), grid.normal(block, L_out)
    assert energies.shape == (k,) and normals.shape == (n_coeffs(L_out), k)
    for i in range(k):
        c = block[:, i].copy()
        energy, normal = grid.energy(c), grid.normal(c, L_out)
        assert energies[i] == pytest.approx(energy, rel=1e-13)
        assert np.linalg.norm(normals[:, i] - normal) <= 1e-13 * np.linalg.norm(normal)
        one = block[:, i:i + 1]
        assert grid.energy(one).tolist() == [energy]
        assert np.array_equal(grid.normal(one, L_out), normal[:, None])


def _block_grids():
    return [("band partition", build_partition(0, 2.0, 0.6).grid, 8, 8),
            ("every row length", _every_row_length_grid(12), 12, 12),
            ("every row length, low input band", _every_row_length_grid(12), 5, 12),
            ("cubature, aliasing rows", cubature_rule(16).grid, 12, 12),
            ("cubature, low output band", cubature_rule(16).grid, 12, 7)]


@pytest.mark.parametrize("case", range(5))
def test_block_columns_match_single_fields(case):
    name, grid, L_in, L_out = _block_grids()[case]
    # rings of n <= L_in + L_out points alias orders onto each other
    assert np.any(grid.counts <= L_in + L_out), name
    assert len(grid._column_chunks(6, max(L_in, L_out))) == 1
    _check_block(grid, L_in, L_out, 6, seed=case)


@pytest.mark.parametrize("case", range(5))
def test_block_columns_split_into_chunks(case, monkeypatch):
    name, grid, L_in, L_out = _block_grids()[case]
    # a budget of two columns per pass: seven columns take four passes
    width = max(L_in, L_out) + 1
    monkeypatch.setattr(sphgrid, "_TARGET_CHUNK_FLOATS", 2 * 2 * grid.n_rows * width)
    chunks = grid._column_chunks(7, max(L_in, L_out))
    assert [(c.start, c.stop) for c in chunks] == [(0, 2), (2, 4), (4, 6), (6, 8)], name
    _check_block(grid, L_in, L_out, 7, seed=10 + case)


def _mixed_drop_block(grid, rng):
    """(points, 4) drop block: rows kept whole, dropped whole and kept in part in column 0,
    random points in column 1, every point in column 2, none in column 3."""
    kind = np.arange(grid.n_rows) % 3
    drop = np.zeros((grid.n_points, 4), dtype=bool)
    for row in range(grid.n_rows):
        points = slice(grid.offsets[row], grid.offsets[row + 1])
        if kind[row] == 1:
            drop[points, 0] = True
        elif kind[row] == 2:
            drop[points, 0] = rng.random(grid.counts[row]) < 0.5
    drop[:, 1] = rng.random(grid.n_points) < 0.5
    drop[:, 2] = True
    return drop


@pytest.mark.parametrize("case", range(5))
def test_masked_spectrum_matches_point_path(case):
    # per column, adjoint(d * synthesis(c), L_out) and dot(d, synthesis(c)^2) with d the
    # point weights on the dropped points, from the row spectra alone
    name, grid, L_in, L_out = _block_grids()[case]
    rng = np.random.default_rng(20 + case)
    drop = _mixed_drop_block(grid, rng)
    dropped = np.add.reduceat(drop[:, 0].astype(int), grid.offsets[:-1])
    partly = (dropped > 0) & (dropped < grid.counts)
    assert np.any(dropped == 0) and np.any(dropped == grid.counts), name
    # rows kept in part include rows on which orders alias
    assert np.any(partly & (grid.counts <= L_in + L_out)), name
    c = rng.standard_normal(n_coeffs(L_in))
    values, weights = grid.synthesis(c), grid.point_weights()
    forms, sums = grid.dropped(c, L_out, drop)
    assert forms.shape == (4,) and sums.shape == (n_coeffs(L_out), 4)
    for i in range(4):
        d = np.where(drop[:, i], weights, 0.0)
        got, form = sums[:, i], forms[i]
        if i == 3:
            assert not np.any(got) and form == 0.0
            continue
        ref = grid.adjoint(d * values, L_out)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), (name, i)
        assert form == pytest.approx(float(np.dot(d, values * values)), rel=1e-12), (name, i)


def _boundary_grid(L_in, L_out):
    # rows of n = 1, 2, L_in + L_out (the longest on which orders alias), L_in + L_out + 1
    # (the shortest on which none do) and one much longer, at uneven phases and weights
    n = L_in + L_out
    return sphgrid.BandGrid([0.4, 0.9, 1.3, 1.9, 2.5], [0.37, -1.1, 0.23, 2.9, 0.71],
                            [1, 2, n, n + 1, 4 * n + 3], [0.11, 0.07, 0.03, 0.02, 0.005])


@pytest.mark.parametrize("L_in, L_out", [(5, 12), (12, 7)])
def test_order_space_at_the_long_row_boundary(L_in, L_out):
    # normal, energy and the dropped sums against the point path and the dense
    # harmonics, on both sides of n = L_in + L_out
    grid = _boundary_grid(L_in, L_out)
    for seed in range(2):
        _check_order_space(grid, L_in, L_out, seed)
    rng = np.random.default_rng(L_in)
    mu = grid.point_weights()
    Y = real_sh_matrix(max(L_in, L_out), grid.points())
    Y_in, Y_out = Y[:, : n_coeffs(L_in)], Y[:, : n_coeffs(L_out)]
    block = rng.standard_normal((n_coeffs(L_in), 3))
    values = Y_in @ block
    normals, energies = grid.normal(block, L_out), grid.energy(block)
    for i in range(3):
        c = block[:, i].copy()
        for ref in (grid.adjoint(mu * grid.synthesis(c), L_out), Y_out.T @ (mu * values[:, i])):
            assert np.linalg.norm(normals[:, i] - ref) <= 1e-12 * np.linalg.norm(ref)
        assert energies[i] == pytest.approx(float(np.dot(mu, values[:, i] ** 2)), rel=1e-12)
    drop = _mixed_drop_block(grid, rng)
    # row n = L_in + L_out is kept in part, the long row dropped whole in column 0
    assert 0 < drop[grid.offsets[2]:grid.offsets[3], 0].sum() < L_in + L_out
    assert drop[grid.offsets[4]:, 0].all()
    forms, sums = grid.dropped(block[:, 0], L_out, drop)
    for i in range(3):
        d = np.where(drop[:, i], mu, 0.0)
        for ref in (grid.adjoint(d * grid.synthesis(block[:, 0]), L_out),
                    Y_out.T @ (d * values[:, 0])):
            assert np.linalg.norm(sums[:, i] - ref) <= 1e-12 * np.linalg.norm(ref), i
        assert forms[i] == pytest.approx(float(np.dot(d, values[:, 0] ** 2)), rel=1e-12), i
