"""Sphere eigendata, associated Legendre tables and real spherical harmonics.

The real orthonormal basis Y_{l,q} (0 <= l, -l <= q <= l) is normalized
against the raw area measure on S^2, so that

    integral_{S^2} Y_{l,q} Y_{l',q'} dmu = delta_{ll'} delta_{qq'}

and the addition theorem reads

    sum_q Y_{l,q}(x) Y_{l,q}(y) = (2l+1)/(4 pi) P_l(x . y).

Coefficient vectors are flat arrays of length (L+1)^2 with layout
index = l^2 + l + q.
"""

import functools
import math

import numpy as np


def sphere_eigenvalue(l):
    """Laplace-Beltrami eigenvalue l(l+1) on S^2."""
    if l < 0 or int(l) != l:
        raise ValueError("degree l must be a nonnegative integer")
    return float(l * (l + 1))


def multiplicity(l):
    """Dimension 2l+1 of the degree-l spherical harmonic space."""
    if l < 0 or int(l) != l:
        raise ValueError("degree l must be a nonnegative integer")
    return 2 * l + 1


def n_coeffs(L):
    return (L + 1) * (L + 1)


def band_of_length(n):
    """Band limit L of a coefficient layout with n = (L+1)^2 entries."""
    L = int(round(math.sqrt(n))) - 1
    if n_coeffs(L) != n:
        raise ValueError("coefficient vector length must be (L+1)^2, got %d" % n)
    return L


def sh_index(l, q):
    """Flat index of the (l, q) coefficient."""
    if abs(q) > l:
        raise ValueError("order |q| must not exceed degree l")
    return l * l + l + q


def degree_of_index(L):
    """Array mapping flat coefficient index -> degree l."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


@functools.lru_cache(maxsize=16)
def order_layout(L):
    """The pairs (l, m), l = m..L, order by order for m = 0..L: the Legendre table column order.

    Returns the start of each order (L + 2 ints: pair (l, m) sits at starts[m] + l - m)
    and read-only arrays of each pair's order m and coefficient indices of Y_{l,m} and Y_{l,-m}.
    """
    counts = np.arange(L + 1, 0, -1)
    starts = np.concatenate(([0], np.cumsum(counts)))
    m = np.repeat(np.arange(L + 1), counts)
    l = m + np.arange(starts[-1]) - starts[m]
    base = l * l + l
    pairs = np.stack((m, base + m, base - m))
    pairs.flags.writeable = False
    return (tuple(starts.tolist()), *pairs)


@functools.lru_cache(maxsize=16)
def _recurrence_factors(L):
    """Seeds and three-term factors of the normalized Legendre recurrence at band L.

    Returns (seed, first, alpha, beta).  The order-m seed is
    N_{m,m} P_m^m = N_{m-1,m-1} P_{m-1}^{m-1} sin(theta) seed[m], the first step
    N_{m+1,m} P_{m+1}^m = first[m] cos(theta) N_{m,m} P_m^m, and for l >= m + 2
    N_{l,m} P_l^m = alpha (cos(theta) N_{l-1,m} P_{l-1}^m - beta N_{l-2,m} P_{l-2}^m),
    with alpha and beta of (l, m) at its ``order_layout(L)`` column (0 where l < m + 2).
    """
    starts, m = order_layout(L)[:2]
    l = m + np.arange(starts[-1]) - np.asarray(starts)[m]
    step = l >= m + 2
    lf, mf = l[step], m[step]
    alpha, beta = np.zeros(starts[-1]), np.zeros(starts[-1])
    alpha[step] = np.sqrt((4.0 * lf * lf - 1.0) / (lf * lf - mf * mf))
    beta[step] = np.sqrt(((lf - 1.0) ** 2 - mf * mf) / (4.0 * (lf - 1.0) ** 2 - 1.0))
    orders = np.arange(1, L + 1)
    seed = np.concatenate(([0.0], np.sqrt((2 * orders + 1) / (2.0 * orders))))
    first = np.sqrt(2 * np.arange(L + 1) + 3.0)
    for factors in (seed, first, alpha, beta):
        factors.flags.writeable = False
    return seed, first, alpha, beta


def norm_assoc_legendre(L, cos_theta):
    """Table of 4pi-normalized associated Legendre values.

    Returns a column-major array of shape (npts, (L+1)(L+2)/2), one column
    per pair (l, m) in ``order_layout(L)`` order; the values are
    N_{l,m} P_l^m(cos theta) such that the real harmonics below are
    orthonormal.  Standard increasing-degree recurrence; at L = 512 (the
    cubature cap) it matches scipy's sph_harm_y to 1.1e-11 absolute, the
    worst error sitting at the poles.  Near the poles the seed
    P_m^m ~ sin^m theta underflows, so whole orders flush to 0 (from m = 175
    at cos theta = 0.9999, m = 381 at 0.99); scipy returns 0 there too.
    """
    starts = np.array(order_layout(L)[0])
    seed, first, alpha, beta = _recurrence_factors(L)
    ct = np.atleast_1d(np.asarray(cos_theta, dtype=float))
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, 1.0))
    table = np.zeros((ct.shape[0], starts[-1]), order="F")
    table[:, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, L + 1):
        table[:, starts[m]] = table[:, starts[m - 1]] * st * seed[m]
    for m in range(0, L):
        table[:, starts[m] + 1] = first[m] * ct * table[:, starts[m]]
    ct = ct[:, None]
    for l in range(2, L + 1):
        at = starts[:l - 1] + l - np.arange(l - 1)  # column (l, m) of every order m <= l - 2
        table[:, at] = alpha[at] * (ct * table[:, at - 1] - beta[at] * table[:, at - 2])
    return table


def legendre_orders(L, cos_theta):
    """Yield (m, Q_m) for m = 0..L, Q_m[l - m] = N_{l,m} P_l^m(cos theta) for l = m..L.

    Q_m is ``norm_assoc_legendre(L, cos_theta)[:, starts[m]:starts[m + 1]].T``,
    bit for bit: the same seeds and factors in the same order of operations,
    run order by order over every point at once.  No whole table is formed: one
    (L + 1, npts) buffer holds each order in turn, so Q_m is overwritten when
    the next order is taken, and the caller may scale it in place.  Where a table
    has few points the degree-vectorized ``norm_assoc_legendre`` is faster.
    """
    seed, first, alpha, beta = _recurrence_factors(L)
    starts = order_layout(L)[0]
    ct = np.atleast_1d(np.asarray(cos_theta, dtype=float))
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, 1.0))
    pmm = np.full(ct.shape, math.sqrt(1.0 / (4.0 * math.pi)))
    buffer = np.empty((L + 1, ct.size))
    tmp = np.empty(ct.size)
    for m in range(L + 1):
        if m:
            pmm *= st
            pmm *= seed[m]
        q = buffer[: L - m + 1]
        q[0] = pmm
        if m < L:
            np.multiply(first[m], ct, out=q[1])
            q[1] *= pmm
        for k in range(2, L - m + 1):
            at = starts[m] + k
            np.multiply(ct, q[k - 1], out=q[k])
            np.multiply(beta[at], q[k - 2], out=tmp)
            q[k] -= tmp
            q[k] *= alpha[at]
        yield m, q


def real_sh_matrix(L, xyz):
    """Matrix of Y_{l,q}(x_i): shape (npts, (L+1)^2) for unit vectors xyz."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    ct = np.clip(xyz[:, 2], -1.0, 1.0)
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    starts, m, cos_index, sin_index = order_layout(L)
    mphi = np.outer(phi, np.arange(L + 1))
    scaled = np.where(m, math.sqrt(2.0), 1.0) * norm_assoc_legendre(L, ct)
    out = np.empty((xyz.shape[0], n_coeffs(L)))
    out[:, cos_index] = scaled * np.cos(mphi)[:, m]
    s = starts[1]  # orders m >= 1 have a sine part
    out[:, sin_index[s:]] = scaled[:, s:] * np.sin(mphi)[:, m[s:]]
    return out


def sph_to_xyz(theta, phi):
    """Unit vectors from colatitude/longitude arrays."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def geodesic_distance(x, y):
    """Great-circle distance between unit vectors (broadcasting on the left).

    atan2(|x cross y|, x . y) is accurate to rounding at every distance; arccos of
    the dot product is off by up to 1e-9 rad within 1e-7 rad of y or its antipode.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1), np.sum(x * y, axis=-1))
