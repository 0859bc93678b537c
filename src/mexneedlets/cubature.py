"""Gauss-Legendre x equispaced-longitude product rules on S^2.

``product_grid`` builds every such rule: the cubature rules exact through a
degree, the greedy partition's label grid and, turned onto a cap's axis, the
exact off-cap rule of ``truncation``.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .sphgrid import BandGrid


@dataclass
class CubatureRule:
    degree: int
    grid: BandGrid

    @property
    def nodes(self):
        return self.grid.points()

    @property
    def weights(self):
        return self.grid.point_weights()

    @property
    def n_nodes(self):
        return self.grid.n_points


def product_grid(n_theta, n_phi, zone=1.0):
    """``BandGrid`` of n_theta Gauss nodes in cos(theta) on [-1, zone] times n_phi longitudes.

    Rows ascend in colatitude from phi = 0; a row weighs its Gauss weight
    times half the zone length times 2 pi / n_phi.  It integrates over the
    zone exactly cos(theta)^k e^{i q phi} for k < 2 n_theta and |q| < n_phi.
    Nodes are mid + half x, so zone = 1 keeps the Gauss nodes x bit for bit,
    and zone = -1 (an empty zone) weighs every node 0.
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)  # x ascends: reversed, colatitude ascends
    half = 0.5 * (zone + 1.0)
    t = 0.5 * (zone - 1.0) + half * x[::-1]  # contiguous: arccos takes a contiguous array's bits
    return BandGrid(np.arccos(t), np.zeros(n_theta), np.full(n_theta, n_phi, dtype=np.int64),
                    w[::-1] * half * (2.0 * math.pi / n_phi))


def cubature_rule(m):
    """Gauss-Legendre x uniform-longitude rule exact through degree ``m``.

    ceil((m+2)/2) Gauss nodes in cos(theta) handle the zonal part to
    degree m+1; m+1 equispaced longitudes kill every Fourier mode with
    0 < |q| <= m.  All weights are positive and sum to 4 pi.
    """
    if not (math.isfinite(m) and m >= 0 and int(m) == m):
        raise ValueError("cubature degree m must be a nonnegative integer, got %r" % (m,))
    if m > 512:
        raise ValueError("cubature degree above 512 is outside desk scale")
    return CubatureRule(degree=int(m), grid=product_grid((int(m) + 3) // 2, int(m) + 1))


def cubature_to_csv(rule, path):
    """Write nodes and weights as 'x,y,z,weight' rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "weight"])
        for p, w in zip(rule.nodes, rule.weights):
            writer.writerow([repr(float(p[0])), repr(float(p[1])),
                             repr(float(p[2])), repr(float(w))])
