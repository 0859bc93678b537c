"""Synthesis and adjoint of harmonic expansions on colatitude-row grids.

Partition centers and product cubature grids share one structure: points
grouped in rows of constant colatitude with uniformly spaced longitudes.
Within a row the associated-Legendre part of Y_{l,q} is constant, so a
field evaluation folds into per-row Fourier coefficients followed by a
short cosine/sine series in the longitude.  That makes scales with
millions of cells tractable without fast transforms.
"""

import math

import numpy as np

from .harmonics import n_coeffs, norm_assoc_legendre, sph_to_xyz

_TARGET_CHUNK_FLOATS = 3_000_000


class BandGrid:
    """Points on S^2 in colatitude rows with uniform longitude spacing.

    theta, phi0, dphi, counts are per-row arrays; row ``i`` holds points
    (theta[i], phi0[i] + k*dphi[i]) for 0 <= k < counts[i].  An optional
    per-row quadrature weight applies to every point of the row.
    """

    def __init__(self, theta, phi0, dphi, counts, row_weight=None):
        self.theta = np.asarray(theta, dtype=float)
        self.phi0 = np.asarray(phi0, dtype=float)
        self.dphi = np.asarray(dphi, dtype=float)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.row_weight = None if row_weight is None else np.asarray(row_weight, dtype=float)
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        self.n_points = int(self.offsets[-1])
        self.n_rows = len(self.theta)
        self._plm_cache = {}

    # -- cached tables -------------------------------------------------

    def _plm(self, L):
        if L not in self._plm_cache:
            self._plm_cache[L] = norm_assoc_legendre(L, np.cos(self.theta))
        return self._plm_cache[L]

    # -- helpers ---------------------------------------------------------

    def point_weights(self):
        if self.row_weight is None:
            raise ValueError("grid carries no quadrature weights")
        return np.repeat(self.row_weight, self.counts)

    def _row_chunks(self, L):
        """Yield (row index array, point slice) groups of whole rows."""
        max_row = int(self.counts.max()) if self.n_rows else 0
        budget = max(_TARGET_CHUNK_FLOATS // (L + 2), max_row, 1024)
        start = 0
        while start < self.n_rows:
            stop = start
            total = 0
            while stop < self.n_rows and (total == 0 or total + self.counts[stop] <= budget):
                total += int(self.counts[stop])
                stop += 1
            rows = np.arange(start, stop)
            yield rows, slice(int(self.offsets[start]), int(self.offsets[stop]))
            start = stop

    def _chunk_phis(self, rows):
        cnt = self.counts[rows]
        rep = np.repeat(np.arange(len(rows)), cnt)
        local = np.arange(int(cnt.sum())) - np.repeat(np.concatenate(([0], np.cumsum(cnt)))[:-1], cnt)
        return rep, self.phi0[rows][rep] + self.dphi[rows][rep] * local

    def block_iter(self):
        """Yield (point slice, xyz block) without materializing all points."""
        for rows, sl in self._row_chunks(0):
            rep, phis = self._chunk_phis(rows)
            yield sl, sph_to_xyz(self.theta[rows][rep], phis)

    def point(self, k):
        """(xyz, weight) of point ``k``, at the longitude the transforms use."""
        if not 0 <= k < self.n_points:
            raise ValueError("point index out of range")
        row = int(np.searchsorted(self.offsets, k, side="right")) - 1
        phi = self.phi0[row] + self.dphi[row] * (k - self.offsets[row])
        weight = None if self.row_weight is None else float(self.row_weight[row])
        return sph_to_xyz(self.theta[row], phi), weight

    def points(self):
        out = np.empty((self.n_points, 3))
        for sl, xyz in self.block_iter():
            out[sl] = xyz
        return out

    # -- transforms ------------------------------------------------------

    def _fold(self, coeffs, L):
        """Per-row longitude-Fourier coefficients of the expansion."""
        plm = self._plm(L)
        A = np.zeros((self.n_rows, L + 1))
        B = np.zeros((self.n_rows, L + 1))
        root2 = math.sqrt(2.0)
        for m in range(L + 1):
            ls = np.arange(m, L + 1)
            base = ls * ls + ls
            plm_m = plm[:, base // 2 + m]  # columns _lm(l, m), l = m..L
            if m == 0:
                A[:, 0] = plm_m @ coeffs[base]
            else:
                A[:, m] = plm_m @ (root2 * coeffs[base + m])
                B[:, m] = plm_m @ (root2 * coeffs[base - m])
        return A, B

    def synthesis(self, coeffs):
        """Evaluate sum_{l,q} coeffs[l,q] Y_{l,q} at every grid point.

        The longitude factors cos(m phi), sin(m phi) are generated by a
        running complex power, so the sweep stays O(1) in memory per point.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        L = int(round(math.sqrt(coeffs.size))) - 1
        if n_coeffs(L) != coeffs.size:
            raise ValueError("coefficient vector length must be a perfect square")
        A, B = self._fold(coeffs, L)
        values = np.empty(self.n_points)
        for rows, sl in self._row_chunks(L):
            rep, phis = self._chunk_phis(rows)
            rid = rows[rep]
            z = np.exp(1j * phis)
            zpow = np.ones(phis.shape, dtype=complex)
            acc = A[rid, 0].copy()
            for m in range(1, L + 1):
                zpow *= z
                acc += A[rid, m] * zpow.real
                acc += B[rid, m] * zpow.imag
            values[sl] = acc
        return values

    def adjoint(self, values, L):
        """Return sum_k values[k] Y_{l,q}(x_k) as a coefficient vector."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_points,):
            raise ValueError("values must have one entry per grid point")
        alpha = np.zeros((self.n_rows, L + 1))
        beta = np.zeros((self.n_rows, L + 1))
        for rows, sl in self._row_chunks(L):
            rep, phis = self._chunk_phis(rows)
            v = values[sl]
            starts = (self.offsets[rows] - self.offsets[rows[0]]).astype(np.intp)
            z = np.exp(1j * phis)
            zpow = np.ones(phis.shape, dtype=complex)
            alpha[rows, 0] += np.add.reduceat(v, starts)
            for m in range(1, L + 1):
                zpow *= z
                alpha[rows, m] += np.add.reduceat(v * zpow.real, starts)
                beta[rows, m] += np.add.reduceat(v * zpow.imag, starts)
        plm = self._plm(L)
        out = np.zeros(n_coeffs(L))
        root2 = math.sqrt(2.0)
        for m in range(L + 1):
            ls = np.arange(m, L + 1)
            base = ls * ls + ls
            plm_m = plm[:, base // 2 + m]  # columns _lm(l, m), l = m..L
            if m == 0:
                out[base] = plm_m.T @ alpha[:, 0]
            else:
                out[base + m] = root2 * (plm_m.T @ alpha[:, m])
                out[base - m] = root2 * (plm_m.T @ beta[:, m])
        return out

