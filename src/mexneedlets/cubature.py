"""Product cubature rules exact for spherical polynomials up to a given degree."""

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
    n_theta = (int(m) + 3) // 2  # ceil((m+2)/2)
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # colatitude ascending
    theta = np.arccos(x[order])
    n_phi = int(m) + 1
    grid = BandGrid(
        theta=theta,
        phi0=np.zeros(n_theta),
        counts=np.full(n_theta, n_phi, dtype=np.int64),
        row_weight=w[order] * (2.0 * math.pi / n_phi),
    )
    return CubatureRule(degree=int(m), grid=grid)


def cubature_to_csv(rule, path):
    """Write nodes and weights as 'x,y,z,weight' rows."""
    nodes = rule.nodes
    weights = rule.weights
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "weight"])
        for p, w in zip(nodes, weights):
            writer.writerow([repr(float(p[0])), repr(float(p[1])),
                             repr(float(p[2])), repr(float(w))])
