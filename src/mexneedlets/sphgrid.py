"""Synthesis and adjoint of harmonic expansions on colatitude-row grids.

Partition centers and product cubature grids share one structure: points
grouped in rows of constant colatitude, each row a full ring of n
equispaced longitudes.  Within a row the associated-Legendre part of
Y_{l,q} is constant, so a field evaluation folds into per-row Fourier
coefficients of orders m <= L, and the longitude series is one length-n
FFT per ring (the ring technique of Driscoll & Healy 1994 and libsharp).
On a ring of n points order m aliases onto bin m mod n, so every ring,
from a one-point polar cap to thousands of cells, takes the same path.
"""

import math

import numpy as np

from .harmonics import n_coeffs, norm_assoc_legendre, sph_to_xyz

_TARGET_CHUNK_FLOATS = 3_000_000


class BandGrid:
    """Points on S^2 in colatitude rows, each a full equispaced ring.

    theta, phi0, counts are per-row arrays; row ``i`` holds the n = counts[i]
    points (theta[i], phi0[i] + k*dphi[i]) for 0 <= k < n, dphi = 2 pi / n.
    An optional per-row quadrature weight applies to every point of the row.
    """

    def __init__(self, theta, phi0, counts, row_weight=None):
        self.theta = np.asarray(theta, dtype=float)
        self.phi0 = np.asarray(phi0, dtype=float)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.dphi = 2.0 * math.pi / self.counts
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

    def _rings(self, L):
        """Yield (rows, point indices, bins m mod n, e^{i m phi0}) per batch of length-n rows."""
        order = np.argsort(self.counts, kind="stable")
        lengths, first = np.unique(self.counts[order], return_index=True)
        edges = np.append(first, self.n_rows).tolist()
        budget = max(_TARGET_CHUNK_FLOATS // (L + 2), 1024)
        m = np.arange(L + 1)
        for n, lo, hi in zip(lengths.tolist(), edges[:-1], edges[1:]):
            step = max(1, budget // max(n, L + 1))
            for start in range(lo, hi, step):
                rows = order[start:min(start + step, hi)]
                yield (rows, self.offsets[rows][:, None] + np.arange(n), m % n,
                       np.exp(1j * np.outer(self.phi0[rows], m)))

    def block_iter(self):
        """Yield (point slice, xyz block) of whole rows without materializing all points."""
        budget = max(_TARGET_CHUNK_FLOATS // 2, int(self.counts.max(initial=0)))
        start = 0
        while start < self.n_rows:
            stop = start + 1
            while stop < self.n_rows and self.offsets[stop + 1] - self.offsets[start] <= budget:
                stop += 1
            rows = np.arange(start, stop)
            rep = np.repeat(rows, self.counts[rows])
            local = np.arange(self.offsets[start], self.offsets[stop]) - self.offsets[rep]
            yield (slice(int(self.offsets[start]), int(self.offsets[stop])),
                   sph_to_xyz(self.theta[rep], self.phi0[rep] + self.dphi[rep] * local))
            start = stop

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

        On a row of n points phi_k = phi0 + 2 pi k / n the longitude series
        sum_m A_m cos(m phi_k) + B_m sin(m phi_k) is Re sum_m C_m e^{2 pi i m k / n}
        with C_m = (A_m - i B_m) e^{i m phi0}.  Order m aliases onto bin
        m mod n, and one inverse FFT of length n evaluates the row.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        L = int(round(math.sqrt(coeffs.size))) - 1
        if n_coeffs(L) != coeffs.size:
            raise ValueError("coefficient vector length must be a perfect square")
        A, B = self._fold(coeffs, L)
        values = np.empty(self.n_points)
        for rows, idx, bins, phase in self._rings(L):
            D = np.zeros(idx.shape, dtype=complex)
            np.add.at(D, (slice(None), bins), (A[rows] - 1j * B[rows]) * phase)
            values[idx] = np.fft.ifft(D, axis=1, norm="forward").real
        return values

    def adjoint(self, values, L):
        """Return sum_k values[k] Y_{l,q}(x_k) as a coefficient vector.

        Per row, alpha_m + i beta_m = sum_k values_k e^{i m phi_k} is the
        conjugate of the forward FFT at bin m mod n, times e^{i m phi0}.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_points,):
            raise ValueError("values must have one entry per grid point")
        alpha = np.empty((self.n_rows, L + 1))
        beta = np.empty((self.n_rows, L + 1))
        for rows, idx, bins, phase in self._rings(L):
            z = np.fft.fft(values[idx], axis=1)[:, bins].conj() * phase
            alpha[rows] = z.real
            beta[rows] = z.imag
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

