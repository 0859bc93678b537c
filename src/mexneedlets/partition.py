"""Disjoint partitions of S^2 with certified diameters and exact areas.

The workhorse construction is deterministic: two polar caps of geodesic
radius d/2 plus latitude bands of height at most d/sqrt(2), each band cut
into equal-area longitude cells whose geodesic diameter is certified
closed-form to stay below the target d.  Cell areas are analytic, so the
partition identity sum(mu) = 4 pi holds to rounding.

A greedy maximal-ball construction is kept as a geometric witness: cells
are recursive set differences of caps, represented as label maps on a
quadrature grid (no closed-form areas).  It has no sampling grid
(``grid`` is None) and never enters a frame.
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
    """Disjoint cover of S^2 for one scale; immutable after construction."""

    def __init__(self, j, a, b, target, rows=None, greedy=None):
        self.j = j
        self.a = a
        self.b = b
        self.target = target
        self._rows = rows
        self._greedy = greedy
        if rows is not None:
            self.kind = "bands"
            self._theta_edges = np.concatenate((rows["theta_lo"], [math.pi]))
            starts = np.concatenate(([0], np.cumsum(rows["count"])))
            self._row_start = starts
            self.n_cells = int(starts[-1])
            self.grid = BandGrid(
                theta=rows["theta_c"],
                phi0=PHI_FRACTION * rows["dphi"],
                dphi=rows["dphi"],
                counts=rows["count"],
                row_weight=rows["cell_area"],
            )
        else:
            self.kind = "greedy"
            self.n_cells = len(greedy["centers"])
            self.grid = None

    # -- bulk accessors --------------------------------------------------

    def measures(self):
        if self.kind == "bands":
            return np.repeat(self._rows["cell_area"], self._rows["count"])
        return self._greedy["measures"].copy()

    def diameter_bounds(self):
        if self.kind == "bands":
            return np.repeat(self._rows["diam"], self._rows["count"])
        return np.full(self.n_cells, self._greedy["diameter_bound"])

    def center_points(self):
        if self.kind == "bands":
            return self.grid.points()
        return self._greedy["centers"].copy()

    def sum_measure(self):
        if self.kind == "bands":
            return float(np.dot(self._rows["cell_area"], self._rows["count"]))
        return float(np.sum(self._greedy["measures"]))

    def max_diameter_bound(self):
        if self.kind == "bands":
            return float(np.max(self._rows["diam"]))
        return self._greedy["diameter_bound"]

    def min_measure(self):
        if self.kind == "bands":
            return float(np.min(self._rows["cell_area"]))
        return float(np.min(self._greedy["measures"]))

    def achieved_c0(self):
        """min_k mu(E_k) / target^2, the measured measure-condition constant."""
        return self.min_measure() / self.target ** 2

    # -- point location ----------------------------------------------------

    def locate(self, xyz):
        """Index of the unique cell containing ``xyz`` (half-open boundaries)."""
        xyz = np.asarray(xyz, dtype=float)
        if self.kind == "greedy":
            return _greedy_locate(self._greedy, xyz)
        theta = math.acos(min(1.0, max(-1.0, xyz[2])))
        phi = math.atan2(xyz[1], xyz[0]) % (2.0 * math.pi)
        row = int(np.searchsorted(self._theta_edges, theta, side="right")) - 1
        row = min(max(row, 0), len(self._rows["theta_lo"]) - 1)
        m = int(self._rows["count"][row])
        kphi = int(phi // self._rows["dphi"][row]) % m
        return int(self._row_start[row] + kphi)


def build_partition(j, a, b):
    """Deterministic latitude-band partition with target diameter b a^j."""
    if a <= 1:
        raise ValueError("dilation a must be > 1")
    if not 0 < b <= 1:
        raise ValueError("fineness b must lie in (0, 1]")
    d = b * a ** j
    if d < DESK_SCALE_MIN_DIAMETER:
        raise CellCountOverflowError(
            "target diameter %.3g below desk-scale guard %g" % (d, DESK_SCALE_MIN_DIAMETER))
    if d >= math.pi:
        rows = _rows_struct(1)
        _set_row(rows, 0, 0.0, math.pi, 1, 0.0, 4.0 * math.pi, math.pi, True)
        return ScalePartition(j, a, b, d, rows=rows)

    r_cap = d / 2.0
    n_bands = max(1, int(math.ceil((math.pi - 2.0 * r_cap) / (d / math.sqrt(2.0)))))
    h = (math.pi - 2.0 * r_cap) / n_bands
    rows = _rows_struct(n_bands + 2)
    cap_area = 2.0 * math.pi * (1.0 - math.cos(r_cap))
    _set_row(rows, 0, 0.0, r_cap, 1, 0.0, cap_area, 2.0 * r_cap, True)
    for i in range(n_bands):
        lo = r_cap + i * h
        hi = lo + h
        m = _longitude_count(lo, hi, d)
        dphi = 2.0 * math.pi / m
        area = dphi * (math.cos(lo) - math.cos(hi))
        _set_row(rows, i + 1, lo, hi, m, dphi, area, rect_diameter(lo, hi, dphi), False)
    _set_row(rows, n_bands + 1, math.pi - r_cap, math.pi, 1, 0.0, cap_area, 2.0 * r_cap, True)
    return ScalePartition(j, a, b, d, rows=rows)


def _rows_struct(n):
    return {
        "theta_lo": np.zeros(n), "theta_hi": np.zeros(n), "count": np.zeros(n, dtype=np.int64),
        "dphi": np.zeros(n), "cell_area": np.zeros(n), "diam": np.zeros(n),
        "theta_c": np.zeros(n), "is_cap": np.zeros(n, dtype=bool),
    }


def _set_row(rows, i, lo, hi, m, dphi, area, diam, is_cap):
    rows["theta_lo"][i] = lo
    rows["theta_hi"][i] = hi
    rows["count"][i] = m
    rows["dphi"][i] = dphi if dphi else 2.0 * math.pi
    rows["cell_area"][i] = area
    rows["diam"][i] = diam
    rows["is_cap"][i] = is_cap
    if is_cap:
        rows["theta_c"][i] = 0.0 if lo == 0.0 else math.pi
    else:
        ct = math.cos(lo) + THETA_FRACTION * (math.cos(hi) - math.cos(lo))
        rows["theta_c"][i] = math.acos(min(1.0, max(-1.0, ct)))


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
    grid = BandGrid(
        theta=theta,
        phi0=np.zeros(grid_theta),
        dphi=np.full(grid_theta, 2.0 * math.pi / n_phi),
        counts=np.full(grid_theta, n_phi, dtype=np.int64),
        row_weight=w * (2.0 * math.pi / n_phi),
    )
    labels = np.empty(grid.n_points, dtype=np.int64)
    for sl, xyz in grid.block_iter():
        labels[sl] = _greedy_label_block(centers, t, xyz)
    weights = grid.point_weights()
    measures = np.bincount(labels, weights=weights, minlength=len(centers))

    greedy = {
        "centers": centers,
        "t": t,
        "measures": measures,
        "diameter_bound": min(4.0 * t, math.pi),
        "grid": grid,
        "labels": labels,
    }
    return ScalePartition(j=None, a=None, b=None, target=min(4.0 * t, math.pi), greedy=greedy)


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


def _greedy_locate(greedy, xyz):
    return int(_greedy_label_block(greedy["centers"], greedy["t"], xyz[None, :])[0])


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
