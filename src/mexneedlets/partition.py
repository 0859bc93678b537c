"""Disjoint partitions of S^2 with certified diameters and exact areas.

The workhorse construction is deterministic: two polar caps of geodesic
radius d/2 plus latitude bands of height at most d/sqrt(2), each band cut
into equal-area longitude cells whose geodesic diameter is certified
closed-form to stay below the target d.  Cell areas are analytic, so the
partition identity sum(mu) = 4 pi holds to rounding.

A greedy maximal-ball construction (``GreedyPartition``) is kept as a
geometric witness: cells are recursive set differences of caps,
represented as label maps on a quadrature grid (no closed-form areas).
It has no sampling grid and never enters a frame.
"""

import json
import math
import warnings

import numpy as np

from .errors import CellCountOverflowError
from .harmonics import geodesic_distance
from .sphgrid import BandGrid

DESK_SCALE_MIN_DIAMETER = 1e-3
MEASURE_CONDITION_DELTA0 = math.pi / 2

# Representative points sit off-center inside each cell (fixed interior
# area fractions).  Any interior point is admissible; cell midpoints would
# superconverge and mask the generic first-order dependence of the
# sampling error on the fineness b that the frame bounds quantify.
THETA_FRACTION = 0.38
PHI_FRACTION = 0.31


def _pair_distance(ta, tb, sep):
    dot = math.cos(ta) * math.cos(tb) + math.sin(ta) * math.sin(tb) * math.cos(sep)
    return math.acos(min(1.0, max(-1.0, dot)))


def rect_diameter(theta1, theta2, dphi):
    """Exact geodesic diameter of the cell [theta1,theta2] x [0,dphi].

    The squared chord is smooth on the compact parameter square, so the
    maximum is attained at a corner, at the equatorial parallel pair, or
    at an edge-critical point tan(beta) = cos(sep) tan(theta_edge); all
    candidates are enumerated in closed form.
    """
    sep = min(dphi, math.pi)
    c = math.cos(sep)
    best = theta2 - theta1
    for ta in (theta1, theta2):
        for tb in (theta1, theta2):
            best = max(best, _pair_distance(ta, tb, sep))
    if theta1 <= math.pi / 2 <= theta2:
        best = max(best, sep)
    for te in (theta1, theta2):
        beta = math.atan(c * math.tan(te))
        if beta <= 0.0:
            beta += math.pi
        if theta1 <= beta <= theta2:
            best = max(best, _pair_distance(te, beta, sep))
    return best


class ScalePartition:
    """Latitude-band cover of S^2 for one scale; immutable after construction.

    ``grid`` holds the cell representatives weighted by the cell areas.
    The band edges ``theta_edges`` (each row's lower colatitude, then pi)
    and the certified per-row diameters are the row facts it does not carry.
    """

    def __init__(self, j, a, b, target, grid, theta_edges, row_diam):
        self.j = j
        self.a = a
        self.b = b
        self.target = target
        self.grid = grid
        self.n_cells = grid.n_points
        self._theta_edges = np.asarray(theta_edges, dtype=float)
        self._row_diam = np.asarray(row_diam, dtype=float)

    # -- bulk accessors --------------------------------------------------

    def measures(self):
        return self.grid.point_weights()

    def diameter_bounds(self):
        return np.repeat(self._row_diam, self.grid.counts)

    def center_points(self):
        return self.grid.points()

    def sum_measure(self):
        return float(np.dot(self.grid.row_weight, self.grid.counts))

    def max_diameter_bound(self):
        return float(np.max(self._row_diam))

    def min_measure(self):
        return float(np.min(self.grid.row_weight))

    def achieved_c0(self):
        """min_k mu(E_k) / target^2, the measured measure-condition constant."""
        return self.min_measure() / self.target ** 2

    # -- point location ----------------------------------------------------

    def locate(self, xyz):
        """Index of the unique cell containing ``xyz`` (half-open boundaries)."""
        xyz = np.asarray(xyz, dtype=float)
        theta = math.acos(min(1.0, max(-1.0, xyz[2])))
        phi = math.atan2(xyz[1], xyz[0]) % (2.0 * math.pi)
        row = int(np.searchsorted(self._theta_edges, theta, side="right")) - 1
        row = min(max(row, 0), self.grid.n_rows - 1)
        kphi = int(phi // self.grid.dphi[row]) % int(self.grid.counts[row])
        return int(self.grid.offsets[row] + kphi)


def build_partition(j, a, b):
    """Deterministic latitude-band partition with target diameter b a^j."""
    if not math.isfinite(a):
        raise ValueError("dilation a must be finite, got %r" % (a,))
    if a <= 1:
        raise ValueError("dilation a must be > 1")
    if not 0 < b <= 1:
        raise ValueError("fineness b must lie in (0, 1]")
    d = b * a ** j
    if d < DESK_SCALE_MIN_DIAMETER:
        raise CellCountOverflowError(
            "target diameter %.3g below desk-scale guard %g" % (d, DESK_SCALE_MIN_DIAMETER))
    # rows (theta_lo, theta_c, count, dphi, cell area, certified diameter);
    # a polar cap is one cell represented by its pole
    if d >= math.pi:
        rows = [(0.0, 0.0, 1, 2.0 * math.pi, 4.0 * math.pi, math.pi)]
    else:
        r_cap = d / 2.0
        n_bands = max(1, int(math.ceil((math.pi - 2.0 * r_cap) / (d / math.sqrt(2.0)))))
        h = (math.pi - 2.0 * r_cap) / n_bands
        cap_area = 2.0 * math.pi * (1.0 - math.cos(r_cap))
        rows = [(0.0, 0.0, 1, 2.0 * math.pi, cap_area, 2.0 * r_cap)]
        for i in range(n_bands):
            lo = r_cap + i * h
            hi = lo + h
            m = _longitude_count(lo, hi, d)
            dphi = 2.0 * math.pi / m
            ct = math.cos(lo) + THETA_FRACTION * (math.cos(hi) - math.cos(lo))
            rows.append((lo, math.acos(min(1.0, max(-1.0, ct))), m, dphi,
                         dphi * (math.cos(lo) - math.cos(hi)), rect_diameter(lo, hi, dphi)))
        rows.append((math.pi - r_cap, math.pi, 1, 2.0 * math.pi, cap_area, 2.0 * r_cap))
    theta_lo, theta_c, counts, dphi, area, diam = (np.array(col) for col in zip(*rows))
    grid = BandGrid(theta=theta_c, phi0=PHI_FRACTION * dphi, counts=counts, row_weight=area)
    return ScalePartition(j, a, b, d, grid, np.append(theta_lo, math.pi), diam)


def _longitude_count(lo, hi, d):
    """Smallest cell count whose certified rectangle diameter stays below d."""
    sin_star = math.sin(hi) if hi <= math.pi / 2 else (math.sin(lo) if lo >= math.pi / 2 else 1.0)
    width = math.sqrt(max(d * d - (hi - lo) ** 2, 0.25 * d * d))
    m = max(1, int(math.ceil(2.0 * math.pi * sin_star / width)))
    while rect_diameter(lo, hi, 2.0 * math.pi / m) > d:
        m += max(1, m // 16)
    while m > 1 and rect_diameter(lo, hi, 2.0 * math.pi / (m - 1)) <= d:
        m -= 1
    return m


# -- greedy maximal-ball construction ------------------------------------


def fibonacci_points(n):
    """Deterministic quasi-uniform unit vectors (golden-angle lattice)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = (i * (math.pi * (3.0 - math.sqrt(5.0)))) % (2.0 * math.pi)
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def greedy_ball_partition(t, candidates=2000, grid_theta=512):
    """Maximal disjoint geodesic balls B(y_k, t) turned into a partition.

    Follows the recursive construction: E_1 = B'_1 minus the other inner
    balls, then E_k = B'_k minus earlier cells and later inner balls, with
    B'_k = B(y_k, 2t).  Every point of an inner ball keeps its own label,
    every other point joins the first enlarged ball that reaches it, so
    B(y_k, t) <= E_k <= B(y_k, 2t).  Cells are label maps on a
    Gauss-Legendre x longitude grid; measures are grid-quadrature sums, so
    they total exactly 4 pi while individual cells carry grid error.
    """
    if not 0.0 < t < math.pi:
        raise ValueError("ball radius t must lie in (0, pi)")
    if candidates < 1:
        raise ValueError("need at least one candidate point")
    pts = fibonacci_points(candidates)
    chosen = []
    for p in pts:
        if not chosen or np.min(geodesic_distance(np.array(chosen), p)) >= 2.0 * t:
            chosen.append(p)
    centers = np.array(chosen)

    # maximality certificate on the candidate set: every candidate lies
    # within t of some chosen ball, i.e. within 2t of a chosen center
    cover = geodesic_distance(pts[:, None, :], centers[None, :, :]).min(axis=1)
    if np.max(cover) >= 2.0 * t:
        warnings.warn("candidate set exhausted without certifying maximality")

    x, w = np.polynomial.legendre.leggauss(grid_theta)
    n_phi = 2 * grid_theta
    theta = np.arccos(x)
    label_grid = BandGrid(
        theta=theta,
        phi0=np.zeros(grid_theta),
        counts=np.full(grid_theta, n_phi, dtype=np.int64),
        row_weight=w * (2.0 * math.pi / n_phi),
    )
    labels = np.empty(label_grid.n_points, dtype=np.int64)
    for sl, xyz in label_grid.block_iter():
        labels[sl] = _greedy_label_block(centers, t, xyz)
    measures = np.bincount(labels, weights=label_grid.point_weights(), minlength=len(centers))
    return GreedyPartition(t, centers, measures, label_grid, labels)


def _greedy_label_block(centers, t, xyz):
    dist = geodesic_distance(xyz[:, None, :], centers[None, :, :])
    n = dist.shape[0]
    labels = np.empty(n, dtype=np.int64)
    inner = dist < t
    has_inner = inner.any(axis=1)
    labels[has_inner] = np.argmax(inner[has_inner], axis=1)
    outer = dist < 2.0 * t
    rest = ~has_inner
    hit = outer[rest]
    found = hit.any(axis=1)
    rest_idx = np.flatnonzero(rest)
    labels[rest_idx[found]] = np.argmax(hit[found], axis=1)
    # uncovered grid points (possible only if maximality failed): nearest center
    labels[rest_idx[~found]] = np.argmin(dist[rest_idx[~found]], axis=1)
    return labels


class GreedyPartition:
    """Greedy maximal-ball cells: ball centers plus labels on a quadrature grid.

    A geometric witness only: it belongs to no scale (``j``, ``a``, ``b``
    are None), has no sampling grid, and ``FrameSpec`` rejects it.  Every
    cell lies in B(y_k, 2t), so each diameter is bounded by min(4t, pi).
    """

    j = a = b = None

    def __init__(self, t, centers, cell_measures, label_grid, labels):
        self.t = t
        self.centers = centers
        self.cell_measures = cell_measures
        self.label_grid = label_grid
        self.labels = labels
        self.n_cells = len(centers)
        self.target = min(4.0 * t, math.pi)

    def measures(self):
        return self.cell_measures.copy()

    def diameter_bounds(self):
        return np.full(self.n_cells, self.target)

    def center_points(self):
        return self.centers.copy()

    def sum_measure(self):
        return float(np.sum(self.cell_measures))

    def max_diameter_bound(self):
        return self.target

    def achieved_c0(self):
        """min_k mu(E_k) / target^2, the measured measure-condition constant."""
        return float(np.min(self.cell_measures)) / self.target ** 2

    def locate(self, xyz):
        """Label of ``xyz`` under the recursive cell construction."""
        xyz = np.asarray(xyz, dtype=float)
        return int(_greedy_label_block(self.centers, self.t, xyz[None, :])[0])


def partition_to_json(partition, path=None):
    """Serialize centers/measures/diameters; materializes every cell."""
    centers = partition.center_points()
    measures = partition.measures()
    diams = partition.diameter_bounds()
    doc = {
        "j": partition.j,
        "a": partition.a,
        "b": partition.b,
        "cells": [
            {"center": [float(c[0]), float(c[1]), float(c[2])],
             "measure": float(m), "diameter_bound": float(dd)}
            for c, m, dd in zip(centers, measures, diams)
        ],
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    return doc
