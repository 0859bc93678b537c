"""Rotation-invariant kernels of the spectral filters on S^2.

Two evaluation routes for 4 pi h_t(cos theta):

* an eigenfunction series sum_l (2l+1) w_l(t) P_l(cos theta) with a
  certified truncation degree (fast for large t), and
* a closed-form Gaussian-type approximation for the mexican r=1 filter
  (accurate for small t).

``convention`` selects the band weight w_l(t): "laplacian" applies the
filter to the eigenvalue (weight at t^2 l(l+1) for mexican filters,
t sqrt(l(l+1)) for cutoff filters on their own axis), "degree" applies
the filter's sqrt-eigenvalue profile at t*l.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import SeriesOverflowError, UnsupportedFilterError

_MAX_SERIES_DEGREE = 10 ** 6
_MAX_THETA_POINTS = 10 ** 6  # a profile holds several arrays of this length
DEFAULT_T_CROSS = 0.2
MAX_DIFF_TOL = 1e-10  # series tail of series_gaussian_max_diff


def band_weight(filt, t, ls, convention="laplacian"):
    """Weight applied to the degree-l eigenspace at scale t."""
    ls = np.asarray(ls, dtype=float)
    if convention == "laplacian":
        return filt.multiplier(t, ls * (ls + 1.0))
    if convention == "degree":
        return filt.nu_profile(t * ls)
    raise ValueError("convention must be 'laplacian' or 'degree'")


def _upper_gamma_int(n, z):
    """Upper incomplete gamma Gamma(n, z) for integer n >= 1 (closed form)."""
    total = 0.0
    term = 1.0
    for k in range(n):
        if k > 0:
            term *= z / k
        total += term
    return math.factorial(n - 1) * math.exp(-z) * total


def _check_scale(t):
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("scale t must be positive and finite, got %r" % (t,))


def _too_many_terms(t):
    return SeriesOverflowError("series needs degree > %d at t = %r" % (_MAX_SERIES_DEGREE, t))


def series_cut_degree(filt, t, tol, convention="laplacian"):
    """Smallest degree L with a certified tail bound below tol.

    Uses |P_l| <= 1.  For cutoff filters the series terminates exactly at
    the support edge.  For mexican filters the tail past the peak of the
    summand is dominated by an incomplete-gamma integral.  A t at which
    the series cannot be evaluated in floating point raises
    SeriesOverflowError.
    """
    _check_scale(t)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    t2 = t * t
    if not 0.0 < t2 < math.inf:
        raise SeriesOverflowError("t^2 is out of floating-point range at t = %r" % (t,))
    if not filt.is_mexican:
        edge = filt.support[1] / t
        if convention == "laplacian":
            edge = (-1.0 + math.sqrt(1.0 + 4.0 * (edge * edge))) / 2.0
        if edge > _MAX_SERIES_DEGREE:
            raise _too_many_terms(t)
        return int(math.ceil(edge))
    r = filt.r
    # beyond u = r+1 the summand decreases; start there
    if convention == "laplacian":
        peak = (-1.0 + math.sqrt(1.0 + 4.0 * (r + 1.0) / t2)) / 2.0

        def tail(L_):
            return _upper_gamma_int(r + 1, t2 * L_ * (L_ + 1.0)) / t2
    else:
        peak = math.sqrt(r + 1.0) / t

        def tail(L_):
            u = t * L_
            return 1.5 * _upper_gamma_int(r + 1, u * u) / t2
    if peak > _MAX_SERIES_DEGREE:
        raise _too_many_terms(t)
    L = max(2, int(math.ceil(peak)) + 1)
    while not tail(L) < tol:  # a nan tail (t^2 L^2 overflows) never certifies
        L += max(2, L // 8)
        if L > _MAX_SERIES_DEGREE:
            raise _too_many_terms(t)
    return L


def kernel_series(filt, t, cos_theta, tol=1e-8, convention="laplacian"):
    """4 pi h_t(cos theta) by the eigenfunction series, tail below tol."""
    scalar = np.isscalar(cos_theta)
    x = np.atleast_1d(np.asarray(cos_theta, dtype=float))
    if np.any(np.abs(x) > 1 + 1e-12):
        raise ValueError("cos_theta must lie in [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    L = series_cut_degree(filt, t, tol, convention)
    weights = band_weight(filt, t, np.arange(L + 1), convention) * (2.0 * np.arange(L + 1) + 1.0)
    total = np.full(x.shape, weights[0])
    p_prev = np.ones(x.shape)
    p_cur = x.copy()
    for l in range(1, L + 1):
        total += weights[l] * p_cur
        p_prev, p_cur = p_cur, ((2 * l + 1) * x * p_cur - l * p_prev) / (l + 1)
    return float(total[0]) if scalar else total


def kernel_gaussian_approx(t, theta, filt=None):
    """Small-t closed form for the mexican r=1 kernel 4 pi h_t(cos theta)."""
    if filt is not None and not (filt.is_mexican and filt.r == 1):
        raise UnsupportedFilterError("Gaussian approximation only covers mexican r=1")
    _check_scale(t)
    scalar = np.isscalar(theta)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    t2 = t * t
    t4 = t2 * t2
    t6 = t4 * t2
    t8 = t4 * t4
    with np.errstate(all="ignore"):  # checked below
        quarter_ratio = th * th / (4.0 * t2)
        p = (1.0 + t2 / 3.0 + t4 / 15.0 + 4.0 * t6 / 315.0 + t8 / 315.0
             + (th * th / 4.0) * (1.0 / 3.0 + 2.0 * t2 / 15.0 + 4.0 * t4 / 105.0
                                  + 4.0 * t6 / 315.0))
        q = (1.0 / 3.0 + 2.0 * t2 / 15.0 + 4.0 * t4 / 105.0 + 4.0 * t6 / 315.0
             + (th * th / 4.0) * (2.0 / 15.0 + 8.0 * t2 / 105.0 + 4.0 * t4 / 105.0))
        out = np.exp(-quarter_ratio) / t2 * ((1.0 - quarter_ratio) * p - t2 * q)
    if not np.all(np.isfinite(out)):
        raise ValueError("Gaussian approximation leaves the floating-point range at t = %r"
                         % (t,))
    return float(out[0]) if scalar else out


@dataclass
class KernelProfile:
    t: float
    thetas: np.ndarray
    values: np.ndarray
    method: str
    filter_name: str
    convention: str

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "value", "method", "t", "filter"])
            for th, v in zip(self.thetas, self.values):
                writer.writerow([repr(float(th)), repr(float(v)), self.method,
                                 repr(self.t), self.filter_name])


def kernel_profile(filt, t, n_theta, method="auto", tol=1e-8, convention="laplacian"):
    """Profile of 4 pi h_t over a uniform theta grid on [-pi, pi]."""
    if n_theta < 2:
        raise ValueError("need at least two grid points")
    if n_theta > _MAX_THETA_POINTS:
        raise ValueError("n_theta = %d beyond desk scale (at most %d)"
                         % (n_theta, _MAX_THETA_POINTS))
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    thetas = np.linspace(-math.pi, math.pi, int(n_theta))
    if method == "auto":
        method = ("gaussian" if (filt.is_mexican and filt.r == 1 and convention == "laplacian"
                                 and t < DEFAULT_T_CROSS) else "series")
    if method == "gaussian":
        values = kernel_gaussian_approx(t, thetas, filt)
    elif method == "series":
        values = kernel_series(filt, t, np.cos(thetas), tol=tol, convention=convention)
    else:
        raise ValueError("method must be 'series', 'gaussian' or 'auto'")
    return KernelProfile(t=t, thetas=thetas, values=values, method=method,
                         filter_name=filt.name, convention=convention)


def series_gaussian_max_diff(t, n_theta=10001):
    """max over a theta grid of |series - Gaussian approximation| (mexican r=1)."""
    from .filters import SpectralFilter

    thetas = np.linspace(-math.pi, math.pi, int(n_theta))
    series = kernel_series(SpectralFilter("mexican", 1), t, np.cos(thetas), tol=MAX_DIFF_TOL)
    approx = kernel_gaussian_approx(t, thetas)
    return float(np.max(np.abs(series - approx)))
