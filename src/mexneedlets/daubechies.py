"""Dyadic filter sums and the frame-bound constants they generate.

The central object is the ladder sum

    g(x) = sum_{j in Z} |f(sigma^j x)|^2,     sigma = a^p,

taken on the filter's own argument axis with p its dilation exponent
(p = 2 for mexican filters on the eigenvalue axis, p = 1 for cutoff
filters on the sqrt-eigenvalue axis).  g is sigma-periodic in log x and
its extrema A <= g <= B are the frame-bound constants; their log-average
over one period is c / ln(sigma) with c the Calderon constant.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .filters import calderon_constant

_TAIL_REL = 1e-18
_MAX_TERMS = 20000


def _ladder_step(filt, a):
    if not math.isfinite(a):
        raise ValueError("dilation a must be finite")
    if a <= 1:
        raise ValueError("dilation a must be > 1")
    return a ** filt.dilation_exponent


def daubechies_sum(filt, a, lam):
    """Full two-sided ladder sum g(lam) = sum_j |f(sigma^j lam)|^2.

    Each tail is extended until two consecutive terms fall below
    ``_TAIL_REL`` relative to the running sum; beyond its single interior
    peak the mexican summand decreases monotonically in both directions,
    so this certifies the truncation.  Cutoff filters terminate exactly.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    sigma = _ladder_step(filt, a)
    x_peak = _peak_rung(lam, sigma)
    total = float(filt(x_peak)) ** 2
    for direction in (sigma, 1.0 / sigma):
        x = x_peak
        small = 0
        for _ in range(_MAX_TERMS):
            x *= direction
            term = float(filt(x)) ** 2
            total += term
            if term <= _TAIL_REL * total:
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
        else:
            raise RuntimeError("ladder sum failed to converge")
    return total


def _peak_rung(lam, sigma):
    # start at the rung nearest the summand's peak (argument ~ 1); the
    # summand is unimodal along the ladder, so the consecutive-small stop
    # is valid walking outward from there
    return lam * sigma ** (-round(math.log(lam) / math.log(sigma)))


def _ladder_sums(filt, a, lams):
    """``daubechies_sum`` at every lam at once, bit-identical to one call per lam.

    All ladders are walked together, each until its own two-consecutive-
    small stop, adding the same terms in the same order as the scalar walk.
    """
    sigma = _ladder_step(filt, a)
    x_peak = np.array([_peak_rung(lam, sigma) for lam in lams])
    # float_power is libm pow, like the scalar walk's float ** 2
    total = np.float_power(filt(x_peak), 2)
    for direction in (sigma, 1.0 / sigma):
        x = x_peak.copy()
        small = np.zeros(x.shape, dtype=int)
        live = np.arange(x.size)
        for _ in range(_MAX_TERMS):
            x[live] *= direction
            term = np.float_power(filt(x[live]), 2)
            total[live] += term
            small[live] = np.where(term <= _TAIL_REL * total[live], small[live] + 1, 0)
            live = live[small[live] < 2]
            if live.size == 0:
                break
        else:
            raise RuntimeError("ladder sum failed to converge")
    return total


def truncated_daubechies_sum(filt, a, lam, M, N):
    """Window sum g_{M,N}(lam) = sum_{j=-M}^{N} |f(sigma^j lam)|^2."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if M < 0 or N < 0:
        raise ValueError("M and N must be nonnegative")
    sigma = _ladder_step(filt, a)
    js = np.arange(-int(M), int(N) + 1)
    vals = filt(lam * sigma ** js.astype(float))
    return float(np.sum(np.square(vals)))


def eigen_daubechies_sum(filt, a, lam):
    """Full ladder sum expressed on the eigenvalue axis: sum_j multiplier(a^j, lam)^2."""
    if filt.dilation_exponent == 2:
        return daubechies_sum(filt, a, lam)
    return daubechies_sum(filt, a, math.sqrt(lam))


@dataclass(frozen=True)
class DaubechiesBounds:
    """Extrema of the ladder sum over one multiplicative period."""

    a: float
    A: float
    B: float
    ratio: float
    reference_level: float


def daubechies_bounds(filt, a, grid_points=256):
    """Lower/upper bound constants A, B of the ladder sum.

    Scans a log-uniform grid of lam in [1, a^2) -- at least one full
    period in either dilation convention -- then refines each extremum by
    bounded 1-d optimization.  Periodicity extends the bounds to all
    lam > 0.
    """
    if grid_points < 64:
        raise ValueError("grid_points must be at least 64")
    sigma = _ladder_step(filt, a)
    period = 2.0 * math.log(a)

    def g_of_u(u):
        return daubechies_sum(filt, a, math.exp(u))

    us = np.linspace(0.0, period, int(grid_points), endpoint=False)
    gs = _ladder_sums(filt, a, [math.exp(u) for u in us])
    h = period / grid_points

    def refine(i, sign):
        center = us[i]
        res = minimize_scalar(
            lambda u: sign * g_of_u(u),
            bounds=(center - h, center + h),
            method="bounded",
            options={"xatol": 1e-12 * max(period, 1.0)},
        )
        return sign * res.fun

    A = min(float(np.min(gs)), refine(int(np.argmin(gs)), 1.0))
    B = max(float(np.max(gs)), refine(int(np.argmax(gs)), -1.0))
    reference = calderon_constant(filt) / math.log(sigma)
    return DaubechiesBounds(a=a, A=A, B=B, ratio=B / A, reference_level=reference)
