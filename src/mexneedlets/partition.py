"""Disjoint partitions of S^2 with certified diameters and exact areas.

The workhorse construction is deterministic: two polar caps of geodesic
radius d/2 plus latitude bands of height at most d/sqrt(2), each band cut
into equal-area longitude cells whose geodesic diameter is certified
closed-form to stay below the target d.  Cell areas are analytic, so the
partition identity sum(mu) = 4 pi holds to rounding.

A greedy maximal-ball construction (``GreedyPartition``) is kept as a
geometric witness: cells are recursive set differences of caps,
represented as label maps on a quadrature grid (no closed-form areas).
It has no sampling grid and never enters a frame.  Candidates and grid
rows both ascend in colatitude, so each step reads only what lies within
its colatitude reach: a chosen center tests the candidates of its 2t
window, and a block of grid rows is ranked against the centers of its 2t
band.  The cost is about centers x window plus grid points x band
centers, never candidates x centers or grid points x centers.
"""

import json
import math
import sys

import numpy as np

from .cubature import product_grid
from .errors import CellCountOverflowError
from .harmonics import geodesic_distance
from .sphgrid import BandGrid

DESK_SCALE_MIN_DIAMETER = 1e-3
MEASURE_CONDITION_DELTA0 = math.pi / 2
GREEDY_GRID_THETA = 512  # greedy cells are labelled on product_grid(512, 1024)
_MAX_CANDIDATES = 10 ** 6  # 10^6 candidates at t = pi/4 take about 0.25 s and 100 MB
_MAX_CENTERS = 2 * 10 ** 4  # the largest greedy runs this admits take about 4 s on 2 vCPUs
_RING_BLOCK_FLOATS = 2 ** 15  # floats per (points, centers) array of a greedy label block
# rad: colatitude slack of the greedy windows, far above arccos rounding (about 3e-8 near 0 and pi)
_COLATITUDE_MARGIN = 1e-6

# Representative points sit off-center inside each cell (fixed interior
# area fractions).  Any interior point is admissible; cell midpoints would
# superconverge and mask the generic first-order dependence of the
# sampling error on the fineness b that the frame bounds quantify.
THETA_FRACTION = 0.38
PHI_FRACTION = 0.31


def rect_diameter(theta1, theta2, dphi):
    """Exact geodesic diameter of the cell [theta1,theta2] x [0,dphi].

    The squared chord is smooth on the compact parameter square, so the
    maximum is attained at a corner, at the equatorial parallel pair, or
    at an edge-critical point tan(beta) = cos(sep) tan(theta_edge); all
    candidates are enumerated in closed form.  Broadcasts over arrays of
    cells; scalar input returns a float.
    """
    theta1, theta2, dphi = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                                 for x in (theta1, theta2, dphi)))
    sep = np.minimum(dphi, math.pi)
    c = np.cos(sep)
    cos1, sin1, cos2, sin2 = np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)
    # the farthest pair has the smallest cosine: one arccos over all candidate pairs
    low = np.minimum(np.minimum(cos1 * cos1 + sin1 * sin1 * c, cos1 * cos2 + sin1 * sin2 * c),
                     cos2 * cos2 + sin2 * sin2 * c)
    for te, cos_e, sin_e in ((theta1, cos1, sin1), (theta2, cos2, sin2)):
        beta = np.arctan(c * np.tan(te))
        beta = np.where(beta <= 0.0, beta + math.pi, beta)
        inside = (theta1 <= beta) & (beta <= theta2)
        edge = cos_e * np.cos(beta) + sin_e * np.sin(beta) * c
        low = np.where(inside, np.minimum(low, edge), low)
    best = np.maximum(theta2 - theta1, np.arccos(np.clip(low, -1.0, 1.0)))
    straddles = (theta1 <= math.pi / 2) & (math.pi / 2 <= theta2)
    best = np.where(straddles, np.maximum(best, sep), best)
    return float(best) if best.ndim == 0 else best


class _CellSummaries:
    """Summaries of a partition's per-cell ``measures()`` and ``diameter_bounds()``."""

    def sum_measure(self):
        return float(np.sum(self.measures()))

    def max_diameter_bound(self):
        return float(np.max(self.diameter_bounds()))

    def achieved_c0(self):
        """min_k mu(E_k) / target^2, the measured measure-condition constant."""
        return float(np.min(self.measures())) / self.target ** 2


class ScalePartition(_CellSummaries):
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
    if not math.isfinite(j):
        raise ValueError("scale j must be finite, got %r" % (j,))
    if not math.isfinite(a):
        raise ValueError("dilation a must be finite, got %r" % (a,))
    if a <= 1:
        raise ValueError("dilation a must be > 1")
    if not 0 < b <= 1:
        raise ValueError("fineness b must lie in (0, 1]")
    try:
        d = b * a ** j
    except OverflowError:
        raise ValueError("target diameter b a^j overflows at scale j=%r" % (j,)) from None
    if d < DESK_SCALE_MIN_DIAMETER:
        raise CellCountOverflowError(
            "target diameter %.3g below desk-scale guard %g" % (d, DESK_SCALE_MIN_DIAMETER))
    # per row: theta_lo, theta_c, count, cell area, certified diameter;
    # a polar cap is one cell represented by its pole
    if d >= math.pi:
        theta_lo, theta_c, counts, area, diam = [0.0], [0.0], [1], [4.0 * math.pi], [math.pi]
    else:
        r_cap = d / 2.0
        n_bands = max(1, int(math.ceil((math.pi - 2.0 * r_cap) / (d / math.sqrt(2.0)))))
        h = (math.pi - 2.0 * r_cap) / n_bands
        cap_area = 2.0 * math.pi * (1.0 - math.cos(r_cap))
        lo = r_cap + np.arange(n_bands) * h
        hi = lo + h
        m, band_diam = _longitude_counts(lo, hi, d)
        cos_lo, cos_hi = np.cos(lo), np.cos(hi)
        ct = np.clip(cos_lo + THETA_FRACTION * (cos_hi - cos_lo), -1.0, 1.0)
        # math.acos, not np.arccos: the two differ in the last bit, and cells must not move
        theta_band = [math.acos(x) for x in ct.tolist()]
        theta_lo = np.concatenate([[0.0], lo, [math.pi - r_cap]])
        theta_c = np.concatenate([[0.0], theta_band, [math.pi]])
        counts = np.concatenate([[1], m, [1]])
        area = np.concatenate([[cap_area], (2.0 * math.pi / m) * (cos_lo - cos_hi), [cap_area]])
        diam = np.concatenate([[2.0 * r_cap], band_diam, [2.0 * r_cap]])
    phi0 = PHI_FRACTION * (2.0 * math.pi / np.asarray(counts))
    grid = BandGrid(theta=theta_c, phi0=phi0, counts=counts, row_weight=area)
    return ScalePartition(j, a, b, d, grid, np.append(theta_lo, math.pi), diam)


def _longitude_counts(lo, hi, d):
    """Per row, the smallest cell count whose certified rectangle diameter stays below d.

    Starts from a flat-cell guess, steps up by max(1, m // 16) while the
    diameter is too big, then down by one while one cell fewer still fits;
    each pass evaluates only the rows still moving.  Returns the counts
    and the certified diameters of the cells they give.
    """
    sin_star = np.where(hi <= math.pi / 2, np.sin(hi),
                        np.where(lo >= math.pi / 2, np.sin(lo), 1.0))
    width = np.sqrt(np.maximum(d * d - (hi - lo) ** 2, 0.25 * d * d))
    m = np.maximum(1, np.ceil(2.0 * math.pi * sin_star / width)).astype(np.int64)
    diam = rect_diameter(lo, hi, 2.0 * math.pi / m)
    rows = np.flatnonzero(diam > d)
    while rows.size:
        m[rows] += np.maximum(1, m[rows] // 16)
        diam[rows] = rect_diameter(lo[rows], hi[rows], 2.0 * math.pi / m[rows])
        rows = rows[diam[rows] > d]
    rows = np.flatnonzero(m > 1)
    while rows.size:
        fewer = rect_diameter(lo[rows], hi[rows], 2.0 * math.pi / (m[rows] - 1))
        fits = fewer <= d
        rows = rows[fits]
        m[rows] -= 1
        diam[rows] = fewer[fits]
        rows = rows[m[rows] > 1]
    return m, diam


# -- greedy maximal-ball construction ------------------------------------


def fibonacci_points(n):
    """Deterministic quasi-uniform unit vectors (golden-angle lattice)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = (i * (math.pi * (3.0 - math.sqrt(5.0)))) % (2.0 * math.pi)
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def greedy_ball_partition(t, candidates=2000):
    """Maximal disjoint geodesic balls B(y_k, t) turned into a partition.

    Follows the recursive construction: E_1 = B'_1 minus the other inner
    balls, then E_k = B'_k minus earlier cells and later inner balls, with
    B'_k = B(y_k, 2t).  Every point of an inner ball keeps its own label,
    every other point joins the first enlarged ball that reaches it, and a
    point that none reaches (the selection is maximal over the candidates
    only) joins its nearest center, so B(y_k, t) <= E_k <= B(y_k, max(2t, R))
    with R the centers' ``covering_radius``.  Cells are label maps on a
    Gauss-Legendre x longitude grid; measures are grid-quadrature sums, so
    they total exactly 4 pi while individual cells carry grid error.

    Cost: candidate colatitudes ascend with the index and the first open
    candidate is the next center, so a center tests only the candidates of
    its colatitude window [theta_k, theta_k + 2t], about centers x window
    distances in all.  Labels are formed ring block by ring block against
    the centers within colatitude 2t of the block (``_greedy_ring_labels``),
    about grid points x centers in that band.  At most
    min(candidates, 1 / sin^2(t/2)) centers fit, since their radius-t balls
    are disjoint; above 2 * 10^4 the call is refused before any work.
    """
    if not 0.0 < t < math.pi:
        raise ValueError("ball radius t must lie in (0, pi)")
    if (4.0 * t) ** 2 < 4.0 * math.pi / sys.float_info.max:
        raise ValueError("t = %r too small: min measure / (4t)^2 overflows a float" % (t,))
    if candidates < 1:
        raise ValueError("need at least one candidate point")
    if candidates > _MAX_CANDIDATES:
        raise ValueError("candidates = %d beyond desk scale (at most %d)"
                         % (candidates, _MAX_CANDIDATES))
    sin2 = math.sin(0.5 * t) ** 2  # a radius-t ball covers 4 pi sin^2(t/2)
    most = candidates if candidates * sin2 <= 1.0 else 1.0 / sin2
    if most > _MAX_CENTERS:
        raise ValueError("up to %.6g centers at t = %r from %d candidates, beyond desk scale "
                         "(at most %d)" % (most, t, candidates, _MAX_CENTERS))
    pts = fibonacci_points(candidates)
    x, y, z = np.ascontiguousarray(pts.T)
    theta = np.arccos(z)  # ascends with the index
    # the first open candidate is a center and closes every candidate within 2t of it;
    # the ones before it are closed already, the ones past its window lie farther than 2t
    open_ = np.ones(len(pts), dtype=bool)
    chosen = []
    i = 0
    while True:
        chosen.append(i)
        hi = int(np.searchsorted(theta, theta[i] + 2.0 * t + _COLATITUDE_MARGIN, side="right"))
        open_[i] = False  # its rounded self-distance may reach a tiny 2t
        open_[i:hi] &= _greedy_distance(x[i:hi], y[i:hi], z[i:hi], pts[i]) >= 2.0 * t
        i += int(np.argmax(open_[i:]))
        if not open_[i]:
            break
    centers = pts[chosen]

    label_grid = product_grid(GREEDY_GRID_THETA, 2 * GREEDY_GRID_THETA)
    labels = _greedy_ring_labels(centers, t, label_grid)
    measures = np.bincount(labels, weights=label_grid.point_weights(), minlength=len(centers))
    return GreedyPartition(t, centers, measures, label_grid, labels, covering_radius(centers))


def covering_radius(centers):
    """max over the sphere of the distance to the nearest center, pi for fewer than 4 centers.

    The farthest points from a set of centers are vertices of its spherical Voronoi
    diagram, each equidistant from the centers of the regions that meet there.
    """
    if len(centers) < 4:
        return math.pi
    from scipy.spatial import SphericalVoronoi  # imported here to keep the cli import light

    voronoi = SphericalVoronoi(centers)
    owner = np.repeat(np.arange(len(centers)), [len(r) for r in voronoi.regions])
    vertices = voronoi.vertices[np.concatenate(voronoi.regions)]
    return float(np.max(geodesic_distance(vertices, centers[owner])))


def _greedy_distance(x, y, z, c):
    """``geodesic_distance`` from points given as coordinate columns to c, summed in its order.

    c[0], c[1], c[2] are a center's coordinates or (centers, 1) columns of them.
    """
    dot = (x * c[0] + y * c[1]) + z * c[2]
    return np.arccos(np.clip(dot, -1.0, 1.0, out=dot), out=dot)


def _greedy_rank(dist, t):
    """-2 inside an inner ball, -1 inside a doubled ball, else the distance: argmin labels."""
    return np.where(dist < t, -2.0, np.where(dist < 2.0 * t, -1.0, dist))


def _greedy_label_block(centers, t, xyz):
    """Per point: the first inner ball, else the first doubled ball, else the nearest center."""
    return np.argmin(_greedy_rank(geodesic_distance(xyz[:, None, :], centers[None, :, :]), t),
                     axis=1)


def _greedy_ring_labels(centers, t, grid):
    """``_greedy_label_block(centers, t, grid.points())``, each ring block read against near centers.

    ``centers`` ascend in colatitude, as greedy centers do.  ``grid`` is a
    product grid: its rows ascend in colatitude and each holds the same n
    longitudes from 0, so a point's coordinates are the products
    sin(theta) cos(phi), sin(theta) sin(phi), cos(theta) that ``points()``
    forms, taken from one sine and cosine per row and per longitude.

    A center whose colatitude differs from a point's by more than ``reach``
    lies, as computed, more than reach - _COLATITUDE_MARGIN from it.  So a
    block of whole rows is ranked first against the centers within reach =
    2t + margin of its colatitudes: they hold every center within 2t of its
    points, and a point in none of their doubled balls is done once its
    nearest of them lies within reach - margin.  The other points are ranked
    again at twice the reach.  A band is a run of consecutive centers, so
    ties go to the first center as in ``_greedy_label_block``.
    """
    theta_c = np.arccos(np.clip(centers[:, 2], -1.0, 1.0))

    def band(lo, hi, reach):
        """First and end index of the centers within ``reach`` of colatitudes [lo, hi]."""
        return (int(np.searchsorted(theta_c, lo - reach, side="left")),
                int(np.searchsorted(theta_c, hi + reach, side="right")))

    theta, n = grid.theta, int(grid.counts[0])
    phi = grid.dphi[0] * np.arange(n)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    sin_theta, cos_theta = np.sin(theta), np.cos(theta)
    reach0 = 2.0 * t + _COLATITUDE_MARGIN
    labels = np.empty(grid.n_points, dtype=np.intp)
    start = 0
    while start < grid.n_rows:
        # whole rows while the block's (points, band centers) array fits the budget
        stop = start + 1
        while stop < grid.n_rows:
            first, end = band(theta[start], theta[stop], reach0)
            if (stop + 1 - start) * n * (end - first) > _RING_BLOCK_FLOATS:
                break
            stop += 1
        x = (sin_theta[start:stop, None] * cos_phi).ravel()
        y = (sin_theta[start:stop, None] * sin_phi).ravel()
        z = np.repeat(cos_theta[start:stop], n)
        block = labels[start * n:stop * n]
        pending = np.arange(len(x))
        reach = reach0
        while len(pending):
            first, end = band(theta[start], theta[stop - 1], reach)
            if end > first:
                k, best = _greedy_nearest_rank(centers[first:end], t,
                                               x[pending], y[pending], z[pending])
                done = (best <= reach - _COLATITUDE_MARGIN) | (end - first == len(centers))
                block[pending[done]] = first + k[done]
                pending = pending[~done]
            reach *= 2.0
        start = stop
    return labels


def _greedy_nearest_rank(centers, t, x, y, z):
    """Per point (x, y, z): argmin and min of ``_greedy_rank`` over ``centers``, blockwise."""
    k = np.empty(len(x), dtype=np.intp)
    best = np.empty(len(x))
    columns = centers.T[:, :, None]
    step = max(1, _RING_BLOCK_FLOATS // len(centers))
    for start in range(0, len(x), step):
        sl = slice(start, start + step)
        rank = _greedy_rank(_greedy_distance(x[sl], y[sl], z[sl], columns), t)  # (centers, points)
        k[sl] = np.argmin(rank, axis=0)
        best[sl] = np.min(rank, axis=0)
    return k, best


class GreedyPartition(_CellSummaries):
    """Greedy maximal-ball cells: ball centers plus labels on a quadrature grid.

    A geometric witness only: it belongs to no scale (``j``, ``a``, ``b``
    are None), has no sampling grid, and ``FrameSpec`` rejects it.  A point
    joins an inner or a doubled ball, within 2t of its center, or else its
    nearest center, within the centers' covering radius R: every cell lies in
    B(y_k, max(2t, R)), so each diameter is bounded by min(2 max(2t, R), pi).
    The paper's B(y_k, t) <= E_k <= B(y_k, 2t) holds exactly when R <= 2t.
    """

    j = a = b = None

    def __init__(self, t, centers, cell_measures, label_grid, labels, cover_radius):
        self.t = t
        self.centers = centers
        self.cell_measures = cell_measures
        self.label_grid = label_grid
        self.labels = labels
        self.n_cells = len(centers)
        self.cover_radius = cover_radius
        self.target = min(2.0 * max(2.0 * t, cover_radius), math.pi)

    def measures(self):
        return self.cell_measures.copy()

    def diameter_bounds(self):
        return np.full(self.n_cells, self.target)

    def center_points(self):
        return self.centers.copy()

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
    if isinstance(partition, GreedyPartition):
        doc["cover_radius"] = partition.cover_radius
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    return doc
