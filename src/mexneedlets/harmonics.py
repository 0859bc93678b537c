"""Sphere eigendata, associated Legendre tables and real spherical harmonics.

The real orthonormal basis Y_{l,q} (0 <= l, -l <= q <= l) is normalized
against the raw area measure on S^2, so that

    integral_{S^2} Y_{l,q} Y_{l',q'} dmu = delta_{ll'} delta_{qq'}

and the addition theorem reads

    sum_q Y_{l,q}(x) Y_{l,q}(y) = (2l+1)/(4 pi) P_l(x . y).

Coefficient vectors are flat arrays of length (L+1)^2 with layout
index = l^2 + l + q.
"""

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


def sh_index(l, q):
    """Flat index of the (l, q) coefficient."""
    if abs(q) > l:
        raise ValueError("order |q| must not exceed degree l")
    return l * l + l + q


def degree_of_index(L):
    """Array mapping flat coefficient index -> degree l."""
    ls = np.empty(n_coeffs(L), dtype=int)
    for l in range(L + 1):
        ls[l * l : (l + 1) * (l + 1)] = l
    return ls


def _lm(l, m):
    # packed index over 0 <= m <= l
    return l * (l + 1) // 2 + m


def norm_assoc_legendre(L, cos_theta):
    """Table of 4pi-normalized associated Legendre values.

    Returns shape (npts, (L+1)(L+2)/2) with column _lm(l, m); the values
    are N_{l,m} P_l^m(cos theta) such that the real harmonics below are
    orthonormal.  Standard increasing-degree recurrence; at L = 512 (the
    cubature cap) it matches scipy's sph_harm_y to 1.1e-11 absolute, the
    worst error sitting at the poles.  Near the poles the seed
    P_m^m ~ sin^m theta underflows, so whole orders flush to 0 (from m = 175
    at cos theta = 0.9999, m = 381 at 0.99); scipy returns 0 there too.
    """
    ct = np.atleast_1d(np.asarray(cos_theta, dtype=float))
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, 1.0))
    npts = ct.shape[0]
    table = np.zeros((npts, (L + 1) * (L + 2) // 2))
    table[:, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, L + 1):
        table[:, _lm(m, m)] = table[:, _lm(m - 1, m - 1)] * st * math.sqrt((2 * m + 1) / (2.0 * m))
    for m in range(0, L):
        table[:, _lm(m + 1, m)] = math.sqrt(2 * m + 3.0) * ct * table[:, _lm(m, m)]
    ct = ct[:, None]
    for l in range(2, L + 1):
        m = np.arange(l - 1)  # every order m <= l - 2 in one step
        alm = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        blm = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        table[:, _lm(l, 0):_lm(l, l - 1)] = alm * (
            ct * table[:, _lm(l - 1, 0):_lm(l - 1, l - 1)] - blm * table[:, _lm(l - 2, 0):_lm(l - 2, l - 1)])
    return table


def real_sh_matrix(L, xyz):
    """Matrix of Y_{l,q}(x_i): shape (npts, (L+1)^2) for unit vectors xyz."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    ct = np.clip(xyz[:, 2], -1.0, 1.0)
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    plm = norm_assoc_legendre(L, ct)
    mphi = np.outer(phi, np.arange(1, L + 1))
    cos_m, sin_m = np.cos(mphi), np.sin(mphi)  # column m - 1 holds order m
    out = np.zeros((xyz.shape[0], n_coeffs(L)))
    sqrt2 = math.sqrt(2.0)
    for l in range(L + 1):
        c = sh_index(l, 0)
        out[:, c] = plm[:, _lm(l, 0)]
        base = sqrt2 * plm[:, _lm(l, 1):_lm(l, l) + 1]
        out[:, c + 1:c + l + 1] = base * cos_m[:, :l]
        out[:, c - l:c] = (base * sin_m[:, :l])[:, ::-1]  # q = -l..-1
    return out


def sph_to_xyz(theta, phi):
    """Unit vectors from colatitude/longitude arrays."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def geodesic_distance(x, y):
    """Great-circle distance between unit vectors (broadcasting on the left)."""
    dot = np.clip(np.sum(np.asarray(x) * np.asarray(y), axis=-1), -1.0, 1.0)
    return np.arccos(dot)
