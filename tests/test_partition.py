import math
import warnings

import numpy as np
import pytest

from mexneedlets import (FrameSpec, SpectralFilter, build_partition, greedy_ball_partition,
                         partition_to_json, rect_diameter)
from mexneedlets import partition as partition_module
from mexneedlets.errors import CellCountOverflowError
from mexneedlets.cubature import product_grid
from mexneedlets.partition import (MEASURE_CONDITION_DELTA0, PHI_FRACTION, THETA_FRACTION,
                                   _greedy_distance, _greedy_label_block, covering_radius,
                                   fibonacci_points)
from mexneedlets.harmonics import geodesic_distance, sph_to_xyz

A13 = 2.0 ** (1.0 / 3.0)
# np.arccos, np.arctan and np.tan differ from libm in the last bit, so a
# certified diameter may sit a few ulp away from the scalar reference
DIAMETER_ULPS = 4


# -- scalar reference: one cell and one band row at a time ----------------


def _ref_pair_distance(ta, tb, sep):
    dot = math.cos(ta) * math.cos(tb) + math.sin(ta) * math.sin(tb) * math.cos(sep)
    return math.acos(min(1.0, max(-1.0, dot)))


def _ref_rect_diameter(theta1, theta2, dphi):
    sep = min(dphi, math.pi)
    c = math.cos(sep)
    best = theta2 - theta1
    for ta in (theta1, theta2):
        for tb in (theta1, theta2):
            best = max(best, _ref_pair_distance(ta, tb, sep))
    if theta1 <= math.pi / 2 <= theta2:
        best = max(best, sep)
    for te in (theta1, theta2):
        beta = math.atan(c * math.tan(te))
        if beta <= 0.0:
            beta += math.pi
        if theta1 <= beta <= theta2:
            best = max(best, _ref_pair_distance(te, beta, sep))
    return best


def _ref_longitude_count(lo, hi, d):
    sin_star = math.sin(hi) if hi <= math.pi / 2 else (math.sin(lo) if lo >= math.pi / 2 else 1.0)
    width = math.sqrt(max(d * d - (hi - lo) ** 2, 0.25 * d * d))
    m = max(1, int(math.ceil(2.0 * math.pi * sin_star / width)))
    while _ref_rect_diameter(lo, hi, 2.0 * math.pi / m) > d:
        m += max(1, m // 16)
    while m > 1 and _ref_rect_diameter(lo, hi, 2.0 * math.pi / (m - 1)) <= d:
        m -= 1
    return m


def _ref_band_rows(d, rows):
    """Count, theta, row_weight and certified diameter of the given band rows, one at a time."""
    r_cap = d / 2.0
    n_bands = max(1, int(math.ceil((math.pi - 2.0 * r_cap) / (d / math.sqrt(2.0)))))
    h = (math.pi - 2.0 * r_cap) / n_bands
    out = []
    for i in rows:
        lo = r_cap + i * h
        hi = lo + h
        m = _ref_longitude_count(lo, hi, d)
        dphi = 2.0 * math.pi / m
        ct = math.cos(lo) + THETA_FRACTION * (math.cos(hi) - math.cos(lo))
        out.append((m, math.acos(min(1.0, max(-1.0, ct))),
                    dphi * (math.cos(lo) - math.cos(hi)), _ref_rect_diameter(lo, hi, dphi)))
    return (np.array(col) for col in zip(*out))


def _sweep():
    """(j, a, b) for every scale with 1e-3 <= b a^j < pi over a grid of a and b."""
    for a in (1.1, A13, 1.2599, math.sqrt(2.0), 2.0):
        for b in (0.1, 0.25, 0.4, 0.5, 0.6, 0.8, 0.9, 1.0):
            j_lo = int(math.floor(math.log(1e-3 / b) / math.log(a)))
            j_hi = int(math.ceil(math.log(math.pi / b) / math.log(a)))
            for j in range(j_lo, j_hi + 1):
                if 1e-3 <= b * a ** j < math.pi:
                    yield j, a, b


def test_band_rows_match_the_scalar_reference():
    """Every partition of the sweep; all rows up to 32 per partition, evenly spaced beyond."""
    n = 0
    for j, a, b in _sweep():
        part = build_partition(j, a, b)
        n_bands = part.grid.n_rows - 2  # the two polar caps are not band rows
        rows = np.unique(np.linspace(0, n_bands - 1, min(n_bands, 32)).round().astype(int))
        counts, theta, row_weight, diam = _ref_band_rows(part.target, rows)
        grid, band = part.grid, rows + 1
        assert np.array_equal(grid.counts[band], counts), (j, a, b)
        assert np.array_equal(grid.theta[band], theta), (j, a, b)
        assert np.array_equal(grid.row_weight[band], row_weight), (j, a, b)
        assert np.array_equal(grid.phi0[band], PHI_FRACTION * (2.0 * math.pi / counts)), (j, a, b)
        certified = part._row_diam[band]  # per row; diameter_bounds() repeats it per cell
        assert np.all(np.abs(certified - diam) <= DIAMETER_ULPS * np.spacing(diam)), (j, a, b)
        n += 1
    assert n == 1499


def test_rect_diameter_broadcasts_like_the_reference():
    rng = np.random.default_rng(5)
    t1 = rng.uniform(0.001, 3.0, 4000)
    t2 = np.minimum(t1 + rng.uniform(0.0005, 1.5, t1.size), math.pi - 1e-4)
    dphi = rng.uniform(0.001, 2.0 * math.pi, t1.size)
    got = rect_diameter(t1, t2, dphi)
    ref = np.array([_ref_rect_diameter(*cell) for cell in zip(t1, t2, dphi)])
    assert got.shape == t1.shape
    assert np.all(np.abs(got - ref) <= DIAMETER_ULPS * np.spacing(ref))
    # the equatorial candidate and sep = min(dphi, pi) are exercised
    assert np.any((t1 <= math.pi / 2) & (math.pi / 2 <= t2) & (dphi > math.pi))
    one = rect_diameter(t1[0], t2[0], dphi[0])
    assert type(one) is float and one == got[0]


def test_band_build_evaluates_rows_together(monkeypatch):
    calls = []
    rect = partition_module.rect_diameter
    def counted(*cell):
        calls.append(cell)
        return rect(*cell)

    monkeypatch.setattr(partition_module, "rect_diameter", counted)
    part = build_partition(-23, A13, 0.5)
    assert part.grid.n_rows == 1807
    assert len(calls) <= 64


def _frame_over(j_range):
    return FrameSpec.build(SpectralFilter("mexican", 1), 2.0, 0.5, 4, j_range=j_range)


@pytest.mark.parametrize("build, name", [
    (lambda: build_partition(math.nan, 2.0, 0.5), r"\bj\b"),
    (lambda: build_partition(math.inf, 2.0, 0.5), r"\bj\b"),
    (lambda: build_partition(-math.inf, 2.0, 0.5), r"\bj\b"),
    (lambda: build_partition(2000, 2.0, 0.5), r"\bj\b"),
    (lambda: _frame_over((0.5, 2.7)), "j_range"),
    (lambda: _frame_over((0, math.nan)), "j_range"),
])
def test_bad_scales_are_rejected(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def test_rect_diameter_against_boundary_sampling():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t1 = rng.uniform(0.05, 2.8)
        t2 = min(t1 + rng.uniform(0.02, 0.8), math.pi - 0.02)
        dphi = rng.uniform(0.05, 2 * math.pi)
        claimed = rect_diameter(t1, t2, dphi)
        # brute force over boundary points (the diameter is attained there)
        ts = np.linspace(t1, t2, 40)
        ps = np.linspace(0.0, dphi, 40)
        boundary = np.concatenate([
            sph_to_xyz(ts, np.full_like(ts, 0.0)),
            sph_to_xyz(ts, np.full_like(ts, dphi)),
            sph_to_xyz(np.full_like(ps, t1), ps),
            sph_to_xyz(np.full_like(ps, t2), ps),
        ])
        d = geodesic_distance(boundary[:, None, :], boundary[None, :, :])
        assert np.max(d) <= claimed + 1e-9
        assert np.max(d) >= claimed - 0.05 * claimed  # candidates are near-tight


def test_partition_axioms_across_grid():
    worst_c0 = math.inf
    for a in (A13, 2.0):
        for b in (0.25, 0.5, 1.0):
            j_lo = int(math.ceil(math.log(1.0001e-3 / b) / math.log(a)))
            j_hi = int(math.floor(math.log(2 * math.pi / b) / math.log(a)))
            for j in range(j_lo, j_hi + 1):
                part = build_partition(j, a, b)
                d = b * a ** j
                assert abs(part.sum_measure() - 4 * math.pi) < 1e-10 * 4 * math.pi
                assert part.max_diameter_bound() <= d * (1 + 1e-12)
                assert np.min(part.measures()) > 0
                if d < MEASURE_CONDITION_DELTA0:
                    worst_c0 = min(worst_c0, part.achieved_c0())
    assert worst_c0 >= 0.05


def test_whole_sphere_cell():
    part = build_partition(4, 2.0, 1.0)  # b a^j = 16 >= pi
    assert part.n_cells == 1
    assert part.sum_measure() == pytest.approx(4 * math.pi, rel=1e-14)
    assert part.max_diameter_bound() == pytest.approx(math.pi)
    assert part.locate(np.array([0.0, 1.0, 0.0])) == 0


def test_halfpi_partition_constant():
    # target diameter exactly pi/2
    part = build_partition(1, math.pi / 2, 1.0)
    assert part.target == pytest.approx(math.pi / 2, rel=1e-15)
    assert part.achieved_c0() >= 0.05
    assert abs(part.sum_measure() - 4 * math.pi) < 1e-10 * 4 * math.pi


def test_desk_scale_guard():
    with pytest.raises(CellCountOverflowError):
        build_partition(-40, A13, 0.5)
    with pytest.raises(ValueError):
        build_partition(0, 0.9, 0.5)
    with pytest.raises(ValueError):
        build_partition(0, 2.0, 1.5)


def test_non_finite_dilation_is_rejected():
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError):
            build_partition(0, a, 0.5)


def test_locate_returns_containing_cell():
    part = build_partition(0, 2.0, 0.6)
    for k in (0, 3, part.n_cells // 2, part.n_cells - 1):
        xyz, _ = part.grid.point(k)
        assert part.locate(xyz) == k


def test_locate_monte_carlo_multinomial():
    part = build_partition(0, 2.0, 0.9)
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((10000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    counts = np.zeros(part.n_cells)
    for x in pts:
        counts[part.locate(x)] += 1
    probs = part.measures() / (4 * math.pi)
    expected = probs * len(pts)
    sigma = np.sqrt(len(pts) * probs * (1 - probs))
    assert np.all(np.abs(counts - expected) <= 3.0 * sigma + 3.0)


def test_measures_match_cell_records():
    part = build_partition(-1, 2.0, 0.8)
    mu = part.measures()
    centers = part.center_points()
    for k in (0, 5, part.n_cells - 1):
        xyz, weight = part.grid.point(k)
        assert mu[k] == pytest.approx(weight, rel=1e-15)
        assert np.allclose(xyz, centers[k])
        assert part.locate(xyz) == k
    # the polar caps are represented by the poles
    assert np.allclose(part.grid.point(0)[0], [0.0, 0.0, 1.0])
    assert np.allclose(part.grid.point(part.n_cells - 1)[0], [0.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        part.grid.point(part.n_cells)


def test_greedy_partition_structure():
    t = math.pi / 4
    part = greedy_ball_partition(t, candidates=2000)
    assert 4 <= part.n_cells <= 30
    assert part.sum_measure() == pytest.approx(4 * math.pi, rel=1e-3)
    assert part.max_diameter_bound() <= 4 * t

    centers = part.centers
    # chosen balls are pairwise disjoint
    dist = geodesic_distance(centers[:, None, :], centers[None, :, :])
    np.fill_diagonal(dist, math.inf)
    assert np.min(dist) >= 2 * t
    # maximal on the candidate set: everything within one ball radius of
    # the union of chosen balls
    cand = fibonacci_points(2000)
    cover = geodesic_distance(cand[:, None, :], centers[None, :, :]).min(axis=1)
    assert np.max(cover) < 2 * t

    # inner ball inside own cell, cell inside doubled ball (checked on grid)
    labels = part.labels
    nodes = part.label_grid.points()
    d_all = geodesic_distance(nodes[:, None, :], centers[None, :, :])
    inner = d_all < t
    has_inner = inner.any(axis=1)
    assert np.all(labels[has_inner] == np.argmax(inner[has_inner], axis=1))
    assert np.all(d_all[np.arange(len(labels)), labels] < 2 * t + 1e-12)
    # cell measures dominate the inner cap area up to grid error
    cap_area = 2 * math.pi * (1 - math.cos(t))
    assert np.all(part.measures() >= cap_area * 0.97)


def test_greedy_label_grid_is_the_reference_grid_with_rows_reversed():
    # the label grid as it was built before ``product_grid``: descending colatitude
    grid_theta = partition_module.GREEDY_GRID_THETA
    x, w = np.polynomial.legendre.leggauss(grid_theta)
    n_phi = 2 * grid_theta
    grid = greedy_ball_partition(0.9, candidates=200).label_grid
    assert np.array_equal(grid.theta, np.arccos(x)[::-1])
    assert np.array_equal(grid.phi0, np.zeros(grid_theta))
    assert np.array_equal(grid.counts, np.full(grid_theta, n_phi))
    assert np.array_equal(grid.row_weight, (w * (2.0 * math.pi / n_phi))[::-1])


def test_greedy_label_blocks_fit_the_chunk_budget(monkeypatch):
    from mexneedlets.sphgrid import _TARGET_CHUNK_FLOATS
    real_rank = partition_module._greedy_rank
    sizes = []
    label_block_calls = []

    def recording(dist, t):
        sizes.append(dist.size)  # one (centers, points) block of a ring
        return real_rank(dist, t)

    monkeypatch.setattr(partition_module, "_greedy_rank", recording)
    monkeypatch.setattr(partition_module, "_greedy_label_block",
                        lambda *args: label_block_calls.append(args))
    part = greedy_ball_partition(0.3, candidates=2000)
    assert part.n_cells == 32 and len(sizes) > 1
    assert max(sizes) <= partition_module._RING_BLOCK_FLOATS <= _TARGET_CHUNK_FLOATS
    assert label_block_calls == []  # the all-centers block now serves only ``locate``


def test_greedy_locate_consistent_with_labels():
    part = greedy_ball_partition(0.9, candidates=500)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for x in pts:
        assert part.locate(x) == _greedy_label_block(part.centers, part.t, x[None, :])[0]


def test_partition_json_schema(tmp_path):
    part = build_partition(1, A13, 0.8)
    doc = partition_to_json(part, tmp_path / "p.json")
    assert set(doc) == {"j", "a", "b", "cells"}
    assert doc["j"] == 1 and len(doc["cells"]) == part.n_cells
    cell = doc["cells"][0]
    assert set(cell) == {"center", "measure", "diameter_bound"}
    total = sum(c["measure"] for c in doc["cells"])
    assert total == pytest.approx(4 * math.pi, rel=1e-12)


def test_greedy_partition_needs_a_candidate():
    with pytest.raises(ValueError, match="at least one candidate"):
        greedy_ball_partition(0.9, candidates=0)


class _Reached(Exception):
    pass


def _refuse_candidates(n):
    raise AssertionError("candidates generated before the parameters were checked")


@pytest.mark.parametrize("t, candidates, most", [
    (1e-3, 20001, "20001"), (0.01, 20001, "20001"), (0.01, 10 ** 6, "40000.3"),
    (0.014142253477512877, 10 ** 6, "20000")])
def test_greedy_center_bound_beyond_desk_scale_is_rejected_before_any_work(
        t, candidates, most, monkeypatch):
    monkeypatch.setattr(partition_module, "fibonacci_points", _refuse_candidates)
    with pytest.raises(ValueError, match=r"up to %s centers at t = %r from %d candidates, beyond "
                                         r"desk scale \(at most 20000\)" % (most, t, candidates)):
        greedy_ball_partition(t, candidates=candidates)


@pytest.mark.parametrize("t, candidates", [(1e-3, 20000), (0.014142253477512879, 10 ** 6),
                                           (math.pi / 4, 10 ** 6)])
def test_greedy_center_bound_admits_the_desk_scale_corners(t, candidates, monkeypatch):
    # min(candidates, 1 / sin^2(t/2)) <= 2 * 10^4: the build starts
    def reached(n):
        raise _Reached

    monkeypatch.setattr(partition_module, "fibonacci_points", reached)
    with pytest.raises(_Reached):
        greedy_ball_partition(t, candidates=candidates)


@pytest.mark.parametrize("t", [1e-160, 1e-300, 5e-324])
def test_greedy_radius_too_small_for_the_measure_condition_is_rejected(t, monkeypatch):
    monkeypatch.setattr(partition_module, "fibonacci_points", _refuse_candidates)
    with pytest.raises(ValueError, match=r"t = %r too small: min measure / \(4t\)\^2 overflows"
                                         % (t,)):
        greedy_ball_partition(t, candidates=3)


def test_greedy_candidates_beyond_desk_scale_are_rejected_before_any_work(monkeypatch):
    def refuse(n):
        raise AssertionError("candidates generated before the cap was checked")

    monkeypatch.setattr(partition_module, "fibonacci_points", refuse)
    with pytest.raises(ValueError, match=r"candidates = 1000001 beyond desk scale"):
        greedy_ball_partition(0.9, candidates=10 ** 6 + 1)


# -- greedy references: one candidate and one point at a time -------------


def _ref_greedy_centers(t, candidates):
    """Keep each candidate in turn unless it lies within 2t of a center kept before it."""
    chosen = []
    for p in fibonacci_points(candidates):
        if not chosen or np.min(geodesic_distance(np.array(chosen), p)) >= 2.0 * t:
            chosen.append(p)
    return np.array(chosen)


def _ref_greedy_label(centers, t, x):
    """The recursive cell of ``x``: first inner ball, else first doubled ball, else nearest."""
    dist = geodesic_distance(centers, x)
    for radius in (t, 2.0 * t):
        for k, d in enumerate(dist):
            if d < radius:
                return k
    return int(np.argmin(dist))


# the first two of three candidates lie exactly 2t apart: the second one is kept
_T_EDGE = float(geodesic_distance(fibonacci_points(3)[0], fibonacci_points(3)[1])) / 2.0


def _random_unit_vectors(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("t, candidates", [
    (math.pi / 4, 2000), (0.3, 2000), (0.9, 200), (0.9, 500), (0.05, 2000), (0.2, 2000),
    (1.7, 2000), (3.0, 50), (1e-10, 3), (1e-10, 50), (1e-3, 5), (0.01, 40), (1e-3, 300),
    (_T_EDGE, 3)])
def test_greedy_centers_and_labels_match_the_references(t, candidates, monkeypatch):
    # a coarse label grid: the centers do not depend on it
    monkeypatch.setattr(partition_module, "product_grid", lambda n_theta, n_phi: product_grid(8, 16))
    part = greedy_ball_partition(t, candidates=candidates)
    assert np.array_equal(part.centers, _ref_greedy_centers(t, candidates))
    nodes = part.label_grid.points()
    assert np.array_equal(part.labels, [_ref_greedy_label(part.centers, t, x) for x in nodes])
    assert np.array_equal(part.measures(), np.bincount(part.labels, part.label_grid.point_weights(),
                                                       minlength=part.n_cells))


@pytest.mark.parametrize("t, candidates", [(0.3, 2000), (0.9, 500), (0.05, 2000)])
def test_greedy_label_block_matches_the_reference_on_random_points(t, candidates):
    centers = _ref_greedy_centers(t, candidates)
    xyz = _random_unit_vectors(np.random.default_rng(11), 2000)
    labels = _greedy_label_block(centers, t, xyz)
    assert np.array_equal(labels, [_ref_greedy_label(centers, t, x) for x in xyz])


def test_greedy_label_block_falls_back_to_the_nearest_center():
    # two antipodal balls of radius 0.3 leave the equatorial belt uncovered
    t = 0.3
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    xyz = _random_unit_vectors(np.random.default_rng(12), 2000)
    dist = geodesic_distance(xyz[:, None, :], centers[None, :, :])
    uncovered = dist.min(axis=1) >= 2.0 * t
    assert uncovered.sum() > 1000 and (dist.min(axis=1) < t).any()
    labels = _greedy_label_block(centers, t, xyz)
    assert np.array_equal(labels, [_ref_greedy_label(centers, t, x) for x in xyz])
    assert np.array_equal(labels[uncovered], (xyz[uncovered, 2] < 0.0).astype(int))


def test_greedy_radius_below_self_distance_rounding_keeps_every_candidate():
    # at t = 1e-10 a candidate's rounded distance to itself exceeds 2t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = greedy_ball_partition(1e-10, candidates=3)
    assert part.n_cells == 3
    assert np.array_equal(part.centers, fibonacci_points(3))


def test_fibonacci_colatitudes_strictly_ascend():
    # the greedy selection window [theta_i, theta_i + 2t] relies on it
    for n in (1, 2, 3, 2000, 10 ** 6):
        assert np.all(np.diff(np.arccos(fibonacci_points(n)[:, 2])) > 0.0)


def test_greedy_windowed_selection_matches_the_reference(monkeypatch):
    monkeypatch.setattr(partition_module, "product_grid", lambda n_theta, n_phi: product_grid(4, 8))
    part = greedy_ball_partition(0.03, candidates=5000)
    assert np.array_equal(part.centers, _ref_greedy_centers(0.03, 5000))


_RING_LABEL_CENTERS = {
    "663-centers": (0.05, 663, lambda: _ref_greedy_centers(0.05, 2000)),
    # every candidate a center, none within 2t of most points: the reach doubles
    "300-sparse-centers": (1e-3, 300, lambda: fibonacci_points(300)),
    # two antipodal balls leave the equatorial belt uncovered
    "antipodal": (0.3, 2, lambda: np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])),
}


@pytest.mark.parametrize("case", sorted(_RING_LABEL_CENTERS))
def test_greedy_ring_labels_match_the_label_block(case):
    t, n_centers, make_centers = _RING_LABEL_CENTERS[case]
    centers = make_centers()
    assert len(centers) == n_centers
    grid = product_grid(32, 64)
    labels = partition_module._greedy_ring_labels(centers, t, grid)
    assert np.array_equal(labels, _greedy_label_block(centers, t, grid.points()))


def test_greedy_ring_labels_match_the_label_block_on_the_label_grid():
    # the full label grid: ring points as ``points()`` forms them
    part = greedy_ball_partition(0.3, candidates=2000)
    points = part.label_grid.points()
    step = 16384
    for start in range(0, len(points), step):
        block = _greedy_label_block(part.centers, part.t, points[start:start + step])
        assert np.array_equal(part.labels[start:start + step], block)


# -- the greedy witness's diameter bound ---------------------------------------


def _label_reach(part):
    """Per label-grid point, the distance to the center of its cell."""
    x, y, z = np.ascontiguousarray(part.label_grid.points().T)
    return _greedy_distance(x, y, z, part.centers[part.labels].T)


@pytest.mark.parametrize("t, candidates", [(0.05, 2000), (0.01, 2000), (0.01, 40)])
def test_greedy_diameter_bound_covers_every_cell(t, candidates):
    part = greedy_ball_partition(t, candidates=candidates)
    bound = part.diameter_bounds()
    assert part.max_diameter_bound() == min(2 * max(2 * t, part.cover_radius), math.pi)
    assert part.achieved_c0() == np.min(part.measures()) / part.max_diameter_bound() ** 2
    reach = _label_reach(part)
    far = np.zeros(part.n_cells)
    np.maximum.at(far, part.labels, reach)
    # every grid point of a cell lies within bound / 2 of its center, so the bound
    # is at least the distance between any two of the cell's grid points
    assert np.all(2.0 * far <= bound)
    # an actual pair of grid points in each of the 40 farthest-reaching cells: the
    # farthest from the center, and the cell's point farthest from that one
    points = part.label_grid.points()
    spans = []
    for k in np.argsort(far)[::-1][:40]:
        members = np.flatnonzero(part.labels == k)
        p = points[members[np.argmax(reach[members])]]
        spans.append(float(np.max(geodesic_distance(points[members], p))))
    assert max(spans) <= part.max_diameter_bound()
    assert max(spans) > 4.0 * t  # some cell reaches past B(y_k, 2t)


@pytest.mark.parametrize("t", [0.3, 0.05])
def test_covering_radius_is_the_farthest_nearest_center_distance(t):
    centers = greedy_ball_partition(t, candidates=2000).centers
    R = covering_radius(centers)
    grid = product_grid(128, 256)
    nearest = np.concatenate([geodesic_distance(xyz[:, None, :], centers[None, :, :]).min(axis=1)
                              for _, xyz in grid.block_iter()])
    spacing = 2.0 * math.pi / 256  # the largest grid step, in longitude at the equator
    assert nearest.max() <= R * (1 + 1e-12)
    assert R - nearest.max() <= spacing


def test_covering_radius_of_fewer_than_four_centers_is_pi():
    assert covering_radius(fibonacci_points(3)) == math.pi
    part = greedy_ball_partition(1e-10, candidates=3)
    assert part.cover_radius == math.pi and part.max_diameter_bound() == math.pi
    assert partition_to_json(part)["cover_radius"] == math.pi
    assert "cover_radius" not in partition_to_json(build_partition(2, A13, 1.0))
