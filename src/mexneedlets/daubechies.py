"""Dyadic filter sums and the frame-bound constants they generate.

The central object is the ladder sum

    g(x) = sum_{j in Z} |f(sigma^j x)|^2,     sigma = a^p,

taken on the filter's own argument axis with p its dilation exponent
(p = 2 for mexican filters on the eigenvalue axis, p = 1 for cutoff
filters on the sqrt-eigenvalue axis).  g is sigma-periodic in log x and
its extrema A <= g <= B are the frame-bound constants; their log-average
over one period is c / ln(sigma) with c the Calderon constant (a closed
form for the mexican and normalized cutoff filters).  ``daubechies_bounds``
scans one period and refines both extrema together by parabolic steps
(``_parabolic_maxima``), each step one batched ladder call.

Every ladder sum, full or one-sided, goes through one walk, ``_ladder_walk``.
Full sums (``_ladder_sums``) walk both ways from the rung nearest the peak,
bit for bit a walk of one rung at a time (the tests keep that walk as their
reference); the tails of ``needlets`` and ``frame`` walk one way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .filters import calderon_constant
from .sphgrid import _TARGET_CHUNK_FLOATS

_TAIL_REL = 1e-18
_MAX_TERMS = 20000  # rungs per direction
_BLOCK_SPAN = 1e6
_WALK_CHUNK_CELLS = _TARGET_CHUNK_FLOATS // 8  # a block holds about eight work arrays at once
_MAX_GRID_POINTS = 10 ** 5  # 10^6 takes seconds and hundreds of MB
_PARABOLIC_STEPS = 5  # four reach the extremum to rounding in every tested case


def _ladder_step(filt, a):
    if not math.isfinite(a):
        raise ValueError("dilation a must be finite")
    if a <= 1:
        raise ValueError("dilation a must be > 1")
    return a ** filt.dilation_exponent


def daubechies_sum(filt, a, lam):
    """Full two-sided ladder sum g(lam) = sum_j |f(sigma^j lam)|^2 (see ``_ladder_sums``)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return float(_ladder_sums(filt, a, [lam])[0])


def _peak_rung(lam, sigma):
    # start at the rung nearest the summand's peak (argument ~ 1); the
    # summand is unimodal along the ladder, so the consecutive-small stop
    # is valid walking outward from there
    return lam * sigma ** (-round(math.log(lam) / math.log(sigma)))


def _span_rungs(sigma):
    """Rungs spanning a factor ``_BLOCK_SPAN`` along a ladder of step sigma (at least 2)."""
    return max(2, math.ceil(math.log(_BLOCK_SPAN) / math.log(sigma)))


def _ladder_walk(filt, a, x, total, direction):
    """Running totals carried outward from the rungs ``x``: the one walk along a ladder.

    Per entry, adds |f(x sigma^{+-k})|^2 for k = 1, 2, ... (the sign of
    ``direction``) to ``total`` until this term and the previous one are
    both below ``_TAIL_REL`` relative to the running sum; beyond its single
    interior peak the mexican summand decreases monotonically, so this
    certifies the truncation, and cutoff filters terminate exactly.  A walk
    past ``_MAX_TERMS`` rungs raises ``ValueError``.

    Rungs are taken in blocks spanning a factor ``_BLOCK_SPAN`` in x (fewer
    where a block would pass ``_WALK_CHUNK_CELLS``), one filter call per block
    for every ladder still walking.  ``cumprod`` from the current rung
    gives the rungs and ``cumsum`` seeded with the running total gives the
    sums, so each ladder takes the same products and the same left-to-right
    additions as a walk one rung at a time, whatever the block size and the
    other ladders of the call.  The block span bounds how far a block runs
    past the stop, which keeps s^r of the mexican filter from overflowing.
    """
    sigma = _ladder_step(filt, a)
    step = sigma if direction > 0 else 1.0 / sigma
    x, total = np.array(x, dtype=float), np.array(total, dtype=float)
    small = np.zeros(x.shape, dtype=bool)  # was the last term taken below the tail level
    live = np.arange(x.size)
    taken = 0
    while live.size:
        if taken == _MAX_TERMS:
            raise ValueError("ladder sum at dilation a = %r does not converge within %d rungs"
                             % (a, _MAX_TERMS))
        width = min(_span_rungs(sigma), _MAX_TERMS - taken,
                    max(2, _WALK_CHUNK_CELLS // live.size))
        steps = np.full((live.size, width + 1), step)
        steps[:, 0] = x[live]
        rungs = np.cumprod(steps, axis=1)[:, 1:]
        # float_power is libm pow, like float ** 2 in a walk of one rung at a time
        terms = np.float_power(filt(rungs), 2)
        sums = np.column_stack((total[live], terms)).cumsum(axis=1)[:, 1:]
        tiny = terms <= _TAIL_REL * sums
        stop = tiny & np.column_stack((small[live], tiny[:, :-1]))
        done = stop.any(axis=1)
        last = np.where(done, stop.argmax(axis=1), width - 1)
        total[live] = sums[np.arange(live.size), last]
        x[live] = rungs[:, -1]
        small[live] = tiny[:, -1]
        live = live[~done]
        taken += width
    return total


def _ladder_sums(filt, a, lams):
    """Ladder sums g(lam) at every lam of ``lams``: both walks from the rung nearest the peak."""
    sigma = _ladder_step(filt, a)
    x_peak = np.array([_peak_rung(lam, sigma) for lam in lams])
    upward = _ladder_walk(filt, a, x_peak, np.float_power(filt(x_peak), 2), 1)
    return _ladder_walk(filt, a, x_peak, upward, -1)


def truncated_daubechies_sum(filt, a, lam, M, N):
    """Window sum g_{M,N}(lam) = sum_{j=-M}^{N} |f(sigma^j lam)|^2, per entry of an array lam."""
    if np.any(np.asarray(lam) <= 0):
        raise ValueError("lam must be positive")
    if M < 0 or N < 0:
        raise ValueError("M and N must be nonnegative")
    sigma = _ladder_step(filt, a)
    js = np.arange(-int(M), int(N) + 1)
    vals = filt(np.multiply.outer(lam, sigma ** js.astype(float)))
    sums = np.sum(np.square(vals), axis=-1)
    return float(sums) if np.ndim(lam) == 0 else sums


def filter_axis(filt, lam):
    """Eigenvalue(s) lam on the filter's own argument axis: lam, or sqrt(lam) for cutoff filters."""
    return lam if filt.dilation_exponent == 2 else np.sqrt(lam)


def eigen_daubechies_sum(filt, a, lam):
    """Full ladder sum expressed on the eigenvalue axis: sum_j multiplier(a^j, lam)^2."""
    return daubechies_sum(filt, a, filter_axis(filt, lam))


@dataclass(frozen=True)
class DaubechiesBounds:
    """Extrema of the ladder sum over one multiplicative period."""

    a: float
    A: float
    B: float
    ratio: float
    reference_level: float


def _parabolic_maxima(f, lo, mid, hi, f_lo, f_mid, f_hi, tol):
    """Largest sample of f per bracket lo < mid < hi, after successive parabolic steps.

    Every bracket starts with f(mid) >= f(lo), f(hi).  A step takes the
    vertex of each bracket's parabola through its three points, clipped to
    the bracket, and evaluates all vertices in one call ``f(x)`` on an
    array; a vertex that beats its mid becomes the new mid, the old mid
    becoming the bracket's edge on the far side, and any other vertex becomes
    the edge on its own side.  A bracket stops moving once its vertex lies
    within ``tol`` of its mid; the steps end when every bracket has stopped,
    or after ``_PARABOLIC_STEPS``.  The mid only ever rises, so its final
    value is the largest sample of f taken in the bracket, the start's
    included.
    """
    lo, mid, hi, f_lo, f_mid, f_hi = (np.array(v, dtype=float)
                                      for v in (lo, mid, hi, f_lo, f_mid, f_hi))
    for _ in range(_PARABOLIC_STEPS):
        left, right = (mid - lo) * (f_mid - f_hi), (mid - hi) * (f_mid - f_lo)
        with np.errstate(invalid="ignore", divide="ignore"):
            vertex = mid - 0.5 * ((mid - lo) * left - (mid - hi) * right) / (left - right)
        vertex = np.clip(np.where(np.isfinite(vertex), vertex, mid), lo, hi)
        moving = np.abs(vertex - mid) > tol
        if not moving.any():
            break
        f_vertex = f(vertex)
        better = moving & (f_vertex > f_mid)
        # the vertex's own side moves in to a losing vertex; the far side to the
        # old mid when the vertex wins
        edge, f_edge = np.where(better, mid, vertex), np.where(better, f_mid, f_vertex)
        to_lo, to_hi = moving & ((vertex < mid) != better), moving & ((vertex < mid) == better)
        lo, f_lo = np.where(to_lo, edge, lo), np.where(to_lo, f_edge, f_lo)
        hi, f_hi = np.where(to_hi, edge, hi), np.where(to_hi, f_edge, f_hi)
        mid, f_mid = np.where(better, vertex, mid), np.where(better, f_vertex, f_mid)
    return f_mid


def daubechies_bounds(filt, a, grid_points=256):
    """Lower/upper bound constants A, B of the ladder sum.

    Scans a log-uniform grid of lam in [1, a^2) -- at least one full
    period in either dilation convention -- then refines the grid's minimum
    and maximum together, from each one's two grid neighbours, by parabolic
    steps in u = log lam (``_parabolic_maxima``, one ``_ladder_sums`` call
    per step for both).  A and B are the least and largest samples taken.
    Periodicity extends the bounds to all lam > 0.
    """
    if grid_points < 64:
        raise ValueError("grid_points must be at least 64")
    if grid_points > _MAX_GRID_POINTS:
        raise ValueError("grid_points = %d beyond desk scale (at most %d)"
                         % (grid_points, _MAX_GRID_POINTS))
    sigma = _ladder_step(filt, a)
    period = 2.0 * math.log(a)
    n = int(grid_points)
    us = np.linspace(0.0, period, n, endpoint=False)
    gs = _ladder_sums(filt, a, [math.exp(u) for u in us])
    h = period / grid_points
    # maximize -g near the grid's minimum and g near its maximum
    i = np.array([np.argmin(gs), np.argmax(gs)])
    sign = np.array([-1.0, 1.0])
    best = _parabolic_maxima(lambda u: sign * _ladder_sums(filt, a, np.exp(u)),
                             us[i] - h, us[i], us[i] + h,
                             sign * gs[(i - 1) % n], sign * gs[i], sign * gs[(i + 1) % n],
                             tol=1e-12 * max(period, 1.0))
    A, B = float(-best[0]), float(best[1])
    reference = calderon_constant(filt) / math.log(sigma)
    return DaubechiesBounds(a=a, A=A, B=B, ratio=B / A, reference_level=reference)
