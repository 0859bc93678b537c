import math

import numpy as np
import pytest

from mexneedlets import build_partition, greedy_ball_partition, partition_to_json, rect_diameter
from mexneedlets.errors import CellCountOverflowError
from mexneedlets.partition import MEASURE_CONDITION_DELTA0
from mexneedlets.harmonics import geodesic_distance, sph_to_xyz

A13 = 2.0 ** (1.0 / 3.0)


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
                assert part.min_measure() > 0
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
    part = greedy_ball_partition(t, candidates=2000, grid_theta=256)
    assert 4 <= part.n_cells <= 30
    assert part.sum_measure() == pytest.approx(4 * math.pi, rel=1e-3)
    assert part.max_diameter_bound() <= 4 * t

    centers = part.centers
    # chosen balls are pairwise disjoint
    dist = geodesic_distance(centers[:, None, :], centers[None, :, :])
    np.fill_diagonal(dist, math.inf)
    assert np.min(dist) >= 2 * t
    # maximality certificate on the candidate set: everything within one
    # ball radius of the union of chosen balls
    from mexneedlets.partition import fibonacci_points
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


def test_greedy_locate_consistent_with_labels():
    part = greedy_ball_partition(0.9, candidates=500, grid_theta=128)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    from mexneedlets.partition import _greedy_label_block
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
