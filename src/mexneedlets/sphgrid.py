"""Synthesis and adjoint of harmonic expansions on colatitude-row grids.

Partition centers and product cubature grids share one structure: points
grouped in rows of constant colatitude, each row a full ring of n
equispaced longitudes.  Within a row the associated-Legendre part of
Y_{l,q} is constant, so a field evaluation folds into per-row Fourier
coefficients of orders m <= L, and the longitude series is one length-n
FFT per ring (the ring technique of Driscoll & Healy 1994 and libsharp).
On a ring of n points order m aliases onto bin m mod n, so every ring,
from a one-point polar cap to thousands of cells, takes the same path.

The weighted normal operator adjoint(mu * synthesis(c)) needs no point
values: on a ring of n points sum_k e^{i (m -+ m') phi_k} is
n e^{i (m -+ m') phi0} where n divides m -+ m' and 0 elsewhere (the
Parseval/aliasing identity behind the ring technique), so output order m
reads the input orders in bins m mod n and -m mod n.  On a long row,
n > L_in + L_out, each of those bins holds one order and the phases cancel:
the row's spectrum is its fold scaled by n mu / 2 (doubled at m = 0), real
products taken for every row at once.  Only the short rows,
n <= L_in + L_out, are then overwritten, binned together with complex
phases.  ``normal`` back-projects the result with ``adjoint``'s Legendre
loop; ``energy`` needs only the sum of fold times spectrum.

Both take a coefficient vector or an (n_coeffs, k) block of k fields.  A
vector is a block of one.  The folds of a block are (rows, k, orders)
arrays that the scaling and the binning take whole, so k fields cost
little more than one.  Columns are taken in chunks whose order arrays stay
within the chunk budget.

A grid may carry a degree weight per row, folded into its Legendre tables,
so that rows sampled for different filter multipliers w_j(l) share one
grid: the short rows of every scale of a partition frame do.

A weight d_k per point, as when a mask drops some of a row's points, needs
no point values either.  For row values v_k = Re sum_m' C_m' e^{2 pi i m' k / n}
and D(q) = sum_k d_k e^{2 pi i q k / n},

    sum_k d_k v_k e^{i m phi_k}
        = 1/2 e^{i m phi0} sum_m' [C_m' D(m + m') + conj(C_m') D(m - m')].

D is n mu at multiples of n and 0 elsewhere on a row of constant weight mu
(the aliasing case above) and 0 on a row of zero weight; on any other row
one FFT of d gives it at every bin.  ``dropped`` takes a (points, k)
block of dropped points this way, for any mask, and returns the forms and
sums beside ``energy`` and ``normal``.
"""

import math

import numpy as np

from .harmonics import (band_of_length, degree_of_index, n_coeffs, norm_assoc_legendre,
                        order_layout, sph_to_xyz)

_TARGET_CHUNK_FLOATS = 3_000_000


class BandGrid:
    """Points on S^2 in colatitude rows, each a full equispaced ring.

    theta, phi0, counts are per-row arrays; row ``i`` holds the n = counts[i]
    points (theta[i], phi0[i] + k*dphi[i]) for 0 <= k < n, dphi = 2 pi / n.
    The per-row quadrature weight applies to every point of the row.  Optional
    ``degree_weights`` of shape (rows, L + 1) scale row i's Legendre table by
    degree_weights[i, l] at every order, so the transforms of c read
    sum_{l,q} degree_weights[i, l] c_{l,q} Y_{l,q} on row i; tables reach degree L.
    """

    def __init__(self, theta, phi0, counts, row_weight, degree_weights=None):
        self.theta = np.asarray(theta, dtype=float)
        self.phi0 = np.asarray(phi0, dtype=float)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.dphi = 2.0 * math.pi / self.counts
        self.row_weight = np.asarray(row_weight, dtype=float)
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        self.n_points = int(self.offsets[-1])
        self.n_rows = len(self.theta)
        self.degree_weights = degree_weights
        self._plm_cache = {}

    # -- cached tables -------------------------------------------------

    def _plm(self, L):
        if L not in self._plm_cache:
            plm = norm_assoc_legendre(L, np.cos(self.theta))
            if self.degree_weights is not None:
                plm *= self.degree_weights[:, degree_of_index(L)[order_layout(L)[2]]]
            self._plm_cache[L] = plm
        return self._plm_cache[L]

    # -- helpers ---------------------------------------------------------

    def point_weights(self):
        return np.repeat(self.row_weight, self.counts)

    def _by_length(self, rows, floats_per_point, min_width=1):
        """Yield (n, indices into ``rows``) per batch of length-n rows, stably sorted by length,
        of at most _TARGET_CHUNK_FLOATS // (floats_per_point * max(n, min_width)) rows."""
        order = np.argsort(self.counts[rows], kind="stable")
        lengths, first = np.unique(self.counts[rows][order], return_index=True)
        edges = np.append(first, len(order)).tolist()
        for n, lo, hi in zip(lengths.tolist(), edges[:-1], edges[1:]):
            step = max(1, _TARGET_CHUNK_FLOATS // (floats_per_point * max(n, min_width)))
            for start in range(lo, hi, step):
                yield n, order[start:min(start + step, hi)]

    def _rings(self, L):
        """Yield (rows, point indices, bins m mod n, e^{i m phi0}) per batch of length-n rows."""
        m = np.arange(L + 1)
        for n, rows in self._by_length(np.arange(self.n_rows), L + 2, L + 1):
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
        return sph_to_xyz(self.theta[row], phi), float(self.row_weight[row])

    def points(self):
        out = np.empty((self.n_points, 3))
        for sl, xyz in self.block_iter():
            out[sl] = xyz
        return out

    # -- transforms ------------------------------------------------------

    def _fold(self, coeffs, L):
        """Per-row longitude-Fourier coefficients (A, B) of a vector or of each column of a block.

        A, B are (rows, orders) for a vector and (rows, k, orders) for k columns.
        """
        plm = self._plm(L)
        starts, _, cos_index, sin_index = order_layout(L)
        root2 = math.sqrt(2.0)
        cos_c = coeffs[cos_index]
        cos_c[starts[1]:] *= root2
        sin_c = root2 * coeffs[sin_index]  # its m = 0 entries go unused
        A = np.zeros((self.n_rows,) + coeffs.shape[1:] + (L + 1,))
        B = np.zeros_like(A)
        for m in range(L + 1):
            s = slice(starts[m], starts[m + 1])
            plm_m = plm[:, s]
            A[..., m] = plm_m @ cos_c[s]
            if m:
                B[..., m] = plm_m @ sin_c[s]
        return A, B

    def synthesis(self, coeffs):
        """Evaluate sum_{l,q} coeffs[l,q] Y_{l,q} at every grid point.

        On a row of n points phi_k = phi0 + 2 pi k / n the longitude series
        sum_m A_m cos(m phi_k) + B_m sin(m phi_k) is Re sum_m C_m e^{2 pi i m k / n}
        with C_m = (A_m - i B_m) e^{i m phi0}.  Order m aliases onto bin
        m mod n, and one inverse FFT of length n evaluates the row.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        L = band_of_length(len(coeffs))
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
        return self._back_project(alpha, beta, L)

    def _back_project(self, alpha, beta, L):
        """Coefficients of row spectra (alpha, beta) of orders m <= L: the transpose of ``_fold``."""
        plm = self._plm(L)
        starts, _, cos_index, sin_index = order_layout(L)
        root2 = math.sqrt(2.0)
        cos_c = np.empty((starts[-1],) + alpha.shape[1:-1])
        sin_c = np.empty_like(cos_c)
        for m in range(L + 1):
            s = slice(starts[m], starts[m + 1])
            plm_m = plm[:, s]
            if m == 0:
                cos_c[s] = plm_m.T @ alpha[..., 0]
            else:
                cos_c[s] = root2 * (plm_m.T @ alpha[..., m])
                sin_c[s] = root2 * (plm_m.T @ beta[..., m])
        out = np.empty((n_coeffs(L),) + alpha.shape[1:-1])
        out[cos_index] = cos_c
        out[sin_index[starts[1]:]] = sin_c[starts[1]:]
        return out

    # -- weighted normal operator in Fourier-order space ------------------

    def _weighted_spectrum(self, A, B, L):
        """Row spectra (alpha, beta), orders m <= L, of adjoint(point_weights() * values).

        ``values`` is a field with row folds A, B of shape (rows, columns, L_in + 1),
        never formed.  On a row of n points with weight mu, sum_k mu v_k e^{i m phi_k} is
        Z_m = (n mu / 2) e^{i m phi0} (conj(bin[m mod n]) + bin[-m mod n]), where bin[r]
        sums C_m' = (A_m' - i B_m') e^{i m' phi0} over the orders m' = r mod n.  On a long
        row, n > L_in + L, each bin that Z reads holds one order and the phase cancels:
        (alpha_m, beta_m) = (n mu / 2)(A_m, B_m), alpha doubled at m = 0 and both 0 above
        L_in.  Every row gets that real scaling; the short rows are then binned together.
        """
        L_in, top = A.shape[-1] - 1, min(A.shape[-1], L + 1)
        scale = (0.5 * self.counts * self.row_weight)[:, None, None]
        alpha = np.zeros(A.shape[:-1] + (L + 1,))
        beta = np.zeros_like(alpha)
        alpha[..., :top], beta[..., :top] = scale * A[..., :top], scale * B[..., :top]
        alpha[..., 0] *= 2.0
        rows = np.flatnonzero(self.counts <= L_in + L)
        phase = np.exp(1j * np.outer(self.phi0[rows], np.arange(max(L_in, L) + 1)))[:, None]
        C = (A[rows] - 1j * B[rows]) * phase[..., : L_in + 1]
        n = self.counts[rows][:, None, None]
        pairs = (L_in + L) * np.arange(C.shape[0] * C.shape[1]).reshape(C.shape[:2] + (1,))
        index, size = (pairs + np.arange(L_in + 1) % n).ravel(), pairs.size * (L_in + L)
        bins = np.bincount(index, C.real.ravel(), size).astype(complex)
        bins.imag = np.bincount(index, C.imag.ravel(), size)
        m = np.arange(L + 1)
        Z = bins[pairs + m % n].conj() + bins[pairs + -m % n]
        Z *= scale[rows] * phase[..., : L + 1]
        alpha[rows], beta[rows] = Z.real, Z.imag
        return alpha, beta

    def _column_chunks(self, k, L):
        """Slices of k columns whose complex (rows, columns, L + 1) arrays fit the chunk budget."""
        step = max(1, _TARGET_CHUNK_FLOATS // (2 * self.n_rows * (L + 1)))
        return [slice(start, start + step) for start in range(0, k, step)]

    def _spectra(self, coeffs, L):
        """Yield (A, B, alpha, beta) per chunk of columns c of a vector or block.

        A, B are the row folds of c and (alpha, beta) the row spectra, orders
        m <= L, of adjoint(point_weights() * synthesis(c)); a vector is a block
        of one column.
        """
        block = np.asarray(coeffs, dtype=float).reshape(len(coeffs), -1)
        L_in = band_of_length(len(block))
        for cols in self._column_chunks(block.shape[1], max(L_in, L)):
            A, B = self._fold(block[:, cols], L_in)
            yield (A, B) + self._weighted_spectrum(A, B, L)

    def normal(self, coeffs, L):
        """adjoint(point_weights() * synthesis(c), L) per column c, without point values or FFTs.

        A vector gives a vector; an (n_coeffs, k) block gives an (n_coeffs(L), k) block.
        """
        out = np.concatenate([self._back_project(alpha, beta, L)
                              for _, _, alpha, beta in self._spectra(coeffs, L)], axis=1)
        return out[:, 0] if np.ndim(coeffs) == 1 else out

    def energy(self, coeffs):
        """dot(point_weights(), synthesis(c) ** 2) per column c, without point values or FFTs.

        A vector gives a float; an (n_coeffs, k) block gives k values.
        """
        L = band_of_length(len(coeffs))
        out = np.concatenate([_column_sums(A * alpha) + _column_sums(B * beta)
                              for A, B, alpha, beta in self._spectra(coeffs, L)])
        return float(out[0]) if np.ndim(coeffs) == 1 else out

    def dropped(self, coeffs, L, drop):
        """Form and sum of a field over the points that each column of a (points, k) block drops.

        With v = synthesis(c) and mu = point_weights() zeroed on the points a column keeps,
        returns k forms dot(mu, v ** 2) and an (n_coeffs(L), k) block of adjoint(mu * v, L),
        without point values: a row dropped whole takes ``_weighted_spectrum``'s spectrum, a
        row kept in part D(q) from one FFT of its dropped points.  Each column is
        back-projected from its own copy, so it gets the bits of a block of that column alone.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        L_in = band_of_length(len(coeffs))
        A, B = self._fold(coeffs, L_in)
        top = max(L, L_in)  # the forms read orders up to L_in
        n_dropped = np.add.reduceat(drop, self.offsets[:-1], axis=0, dtype=np.int64)
        whole = n_dropped == self.counts[:, None]
        alpha, beta = self._weighted_spectrum(A[:, None], B[:, None], top)
        alpha, beta = alpha * whole[..., None], beta * whole[..., None]
        rows, cols = np.nonzero((n_dropped > 0) & ~whole)
        # D(q) for q = -L_in..top + L_in, one FFT per batch of (row, column) pairs of length n
        q = np.arange(-L_in, top + L_in + 1)
        D = np.empty((len(rows), len(q)), dtype=complex)
        for n, pairs in self._by_length(rows, 2):
            points = self.offsets[rows[pairs]][:, None] + np.arange(n)
            D[pairs] = np.fft.ifft(drop[points, cols[pairs, None]], axis=1,
                                   norm="forward")[:, q % n]
        # Z_m = 1/2 mu e^{i m phi0} sum_m' [C_m' D(m + m') + conj(C_m') D(m - m')]
        m_out, m_in = np.arange(top + 1)[:, None], np.arange(L_in + 1)
        plus, minus = m_out + m_in + L_in, m_out - m_in + L_in
        phase = np.exp(1j * np.outer(self.phi0[rows], np.arange(top + 1)))
        C = ((A[rows] - 1j * B[rows]) * phase[:, : L_in + 1])[:, None, :]
        step = max(1, _TARGET_CHUNK_FLOATS // (2 * plus.size))
        for start in range(0, len(rows), step):
            p = slice(start, start + step)
            Z = (np.sum(D[p][:, plus] * C[p], axis=-1)
                 + np.sum(D[p][:, minus] * C[p].conj(), axis=-1))
            Z *= (0.5 * self.row_weight[rows[p]])[:, None] * phase[p]
            alpha[rows[p], cols[p]], beta[rows[p], cols[p]] = Z.real, Z.imag
        forms = (_column_sums(A[:, None] * alpha[..., : L_in + 1])
                 + _column_sums(B[:, None] * beta[..., : L_in + 1]))
        sums = np.stack([self._back_project(alpha[:, i].copy(), beta[:, i].copy(), L)
                         for i in range(drop.shape[1])], axis=1)
        return forms, sums


def _column_sums(products):
    """Sum over rows and orders of (rows, k, orders) products, one value per column."""
    return products.transpose(1, 0, 2).reshape(products.shape[1], -1).sum(axis=1)
