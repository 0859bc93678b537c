"""Cutoff-function needlet frames via cubature, and hybrid tail estimates.

The normalized cutoff satisfies sum_j g(2^j s)^2 = 1 exactly, and its
dyadic band projections keep degree below a per-scale cut l(j), so every
analysis energy integral is a spherical polynomial handled exactly by a
degree-2l(j) cubature rule.  The resulting frame is tight to rounding,
the reference point against which the mexican frames' nearly-tight
ratios are compared.  Analysis, elements and the summation operator are
the ``frame`` module's, through ``NeedletFrame.terms()``; fields with
content above the largest cut degree raise ``BandLimitError``.

The hybrid estimates quantify what happens when the mexican filter (not
compactly supported) is combined with the same cubature sampling: tail
sums epsilon_3 / epsilon_4 and the scale-crossing index with its
logarithmic bracket.  Every tail sum (epsilon_3 over all grid points,
epsilon_4 over all degrees, and the lhs of ``tail_bound_lhs_rhs``) is a
one-sided ladder walk of ``daubechies`` from the first scale past its
threshold, which an array bisection finds with the threshold's strict >.
"""

import math
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .cubature import cubature_rule
from .daubechies import _ladder_walk
from .filters import SpectralFilter
from .frame import analyze, frame_element, rayleigh_quotient
from .kernels import _MAX_SERIES_DEGREE

SPHERE_DIM = 2  # n of S^n in the hybrid estimates; the library works on S^2
_CROSSING_TOL = 1e-10
_TAIL_GRID_POINTS = 1000  # log grid of s over one period for eps3
_MEXICAN = SpectralFilter("mexican", r=1)


@dataclass
class NeedletScale:
    j: int
    l_cut: int
    weights: np.ndarray  # g(2^j l) for l = 0..l_cut
    rule: object


@dataclass
class NeedletFrame:
    filter: object
    scales: list = dataclass_field(default_factory=list)
    # band -> frame._RowStack, built on first use
    _stacks: dict = dataclass_field(default_factory=dict, repr=False, compare=False)

    @property
    def L_max(self):
        """Largest cut degree: the band limit of S F."""
        return max(s.l_cut for s in self.scales)

    def terms(self):
        """[(j, cubature grid with cubature weights, g(2^j l) for l <= l_cut)]."""
        return [(s.j, s.rule.grid, s.weights) for s in self.scales]

    def coverage_limit(self):
        """Largest L with the full partition of unity inside the scale range."""
        mass = np.zeros(self.L_max + 1)
        for s in self.scales:
            mass[: s.l_cut + 1] += s.weights ** 2
        L = 0
        for l in range(1, self.L_max + 1):
            if abs(mass[l] - 1.0) < 1e-12:
                L = l
            else:
                break
        return L


def build_needlet_frame(g, j_min, j_max):
    """Needlet frame for scales j_min..j_max with cut degrees l(j).

    l(j) = ceil(2^{-j} s_hi) - 1 is the largest degree l with 2^j l below
    the support edge s_hi of g, and each scale carries a cubature rule of
    degree 2 l(j), exact for the squared band projections.
    """
    if g.kind != "normalized_cutoff":
        raise ValueError("needlet frame requires the normalized cutoff filter")
    for name, value in (("j_min", j_min), ("j_max", j_max)):
        if not float(value).is_integer():
            raise ValueError("%s must be an integer, got %r" % (name, value))
    if j_max < j_min:
        raise ValueError("empty scale range")
    hi = g.support[1]
    scales = []
    for j in range(int(j_min), int(j_max) + 1):
        t = 2.0 ** j
        l_cut = int(math.ceil(hi / t)) - 1
        if l_cut < 1:
            continue  # scale carries no degree >= 1
        if l_cut > 256:  # its cubature rule, of degree 2 l_cut, must stay within degree 512
            raise ValueError("cut degree %d beyond desk scale at j=%d" % (l_cut, j))
        ls = np.arange(l_cut + 1)
        weights = g(t * ls.astype(float))
        weights[0] = 0.0
        scales.append(NeedletScale(j=j, l_cut=l_cut, weights=weights,
                                   rule=cubature_rule(2 * l_cut)))
    if not scales:
        raise ValueError("j = %d..%d: no degree >= 1; needlet scales need j <= 0" % (j_min, j_max))
    return NeedletFrame(filter=g, scales=scales)


# phi_{j,i} = lambda_i^{1/2} sum_l g(2^j l) Y_l(x_i) Y_l is frame.py's element
# with cubature nodes and weights in place of cell centers and measures, and
# the tightness sum |<F, phi>|^2 / ||F||^2 (1 to rounding on the covered
# spectrum) is frame.py's Rayleigh quotient.
needlet_analyze = analyze
needlet_frame_element = frame_element
tightness_ratio = rayleigh_quotient


# -- hybrid-frame tail estimates -------------------------------------------


def tail_bound_lhs_rhs(M, b, a):
    """Scale-tail sum of the mexican r=1 filter against its integral bound.

    lhs = sum over scales with b a^{2j} > M a^2 of |f(b a^{2j})|^2 (the
    scales with a^{2(j-1)} > M/b), rhs = a^2/(a^2-1) e^{-2M} (M/2 + 1/4);
    requires M > 1/2 so the integrand t e^{-2t} is decreasing on the summed
    range.
    """
    _require_finite(M=M, b=b, a=a)
    if M <= 0.5:
        raise ValueError("tail bound requires M > 1/2")
    if b <= 0 or a <= 1:
        raise ValueError("need b > 0 and a > 1")
    lhs = float(_tails_above(a, np.array([b]), lambda j: M * a * a)[0])
    rhs = a * a / (a * a - 1.0) * math.exp(-2.0 * M) * (M / 2.0 + 0.25)
    return lhs, rhs


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def crossing_bracket(N, r, l, a):
    """Logarithmic bracket [p, q] for the scale-crossing index."""
    _require_finite(N=N, r=r, l=l, a=a)
    if N < 1 or r < 1 or l < 1 or a <= 1:
        raise ValueError("need N >= 1, r >= 1, l >= 1, a > 1")
    p = 0.5 * math.log(N / (l * (l + SPHERE_DIM - 1.0))) / math.log(a)
    q = 0.5 * math.log(r * N / l) / math.log(a)
    return p, q


def crossing_index(N, r, l, a):
    """Root m of a^{2m} l(l+1) = N + r max(-m, 0), by bisection.

    The left side increases in m and the right side does not, so the
    root is unique; the returned value satisfies the defining equation
    to within ``_CROSSING_TOL``.
    """
    p, q = crossing_bracket(N, r, l, a)
    lam = l * (l + 1.0)

    def resid(m):
        return a ** (2.0 * m) * lam - (N + r * max(-m, 0.0))

    lo, hi = min(p, q) - 1.0, max(p, q) + 1.0
    while resid(lo) > 0:
        lo -= 5.0
    while resid(hi) < 0:
        hi += 5.0
    while hi - lo > _CROSSING_TOL:
        mid = 0.5 * (lo + hi)
        if resid(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hybrid_rate(a):
    """Linear growth rate r = max(1, 2(n+2) ln a) of the hybrid cut rule."""
    if not math.isfinite(a):
        raise ValueError("dilation a must be finite")
    if a <= 1:
        raise ValueError("need a > 1")
    return max(1.0, 2.0 * (SPHERE_DIM + 2) * math.log(a))


def hybrid_cut_degree(j, N, a):
    """Per-scale cut degree: least integer above sqrt(N + r (j-1)_-) / a^{j-1}."""
    if not math.isfinite(N):
        raise ValueError("N must be finite, got %r" % (N,))
    if N < 1 or a <= 1:
        raise ValueError("need N >= 1 and a > 1")
    r = hybrid_rate(a)
    jm = max(1 - j, 0)
    x = math.sqrt(N + r * jm) / a ** (j - 1)
    return int(math.floor(x)) + 1


def _powers(a, n):
    """a ** n per entry of the integer array n by Python's pow (numpy's may differ by 1 ulp)."""
    exponents, where = np.unique(n, return_inverse=True)
    return np.array([a ** int(e) for e in exponents])[where]


def _tails_above(a, s, threshold):
    """sum |f(a^{2j} s)|^2 over the scales j with a^{2j} s > threshold(j), per entry of s.

    ``threshold`` is nonincreasing in j and constant from j = 1 on, so these
    are all scales from the first one on: one upward ladder walk per entry.
    """
    j = np.floor(np.log(threshold(1) / s) / (2.0 * math.log(a))).astype(int)
    # bisection for the first scale: two rungs below the constant part's
    # crossing lie below the threshold, and past it and past j = 1 above
    lo, hi = j - 2, np.maximum(j + 2, 1)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        above = _powers(a, 2 * mid) * s > threshold(mid)
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    x = _powers(a, 2 * hi) * s
    return _ladder_walk(_MEXICAN, a, x, np.float_power(_MEXICAN(x), 2), 1)


def hybrid_tail_diagnostics(N, a, l_max):
    """Numerical tail sums of the hybrid construction for one N.

    eps3 = max_s sum over a^{2j} > N a^2 / s of |f(a^{2j} s)|^2 (mexican
    r=1), the max over a log grid of ``_TAIL_GRID_POINTS`` points spanning
    one period (the sum is periodic under s -> a^2 s), all in one walk.
    eps4 sums, weighted by multiplicity, the tails over a^{2j} lambda_l >
    N a^2 + r a^2 (j-1)_- of all degrees 1..l_max in one walk.  Decay ratios
    against e^{-N} N and e^{-N} N^{n+3} are reported, not asserted.  N is
    rejected once e^{-N} or either tail falls below the smallest normal
    float (N >= 709; at a = 2^(1/3) the tails from N of about 220 on).
    """
    if not math.isfinite(N):
        raise ValueError("N must be finite, got %r" % (N,))
    if N <= 1:
        raise ValueError("need N > 1")
    if math.exp(-N) < sys.float_info.min:  # the ratios divide by e^{-N}
        raise ValueError("N = %r too large: e^{-N} is below the smallest normal float" % (N,))
    if l_max < 1:
        raise ValueError("need l_max >= 1, got %r" % (l_max,))
    if l_max > _MAX_SERIES_DEGREE:  # every degree up to l_max is walked at once
        raise ValueError("l_max = %r beyond desk scale (at most %d)" % (l_max, _MAX_SERIES_DEGREE))
    r = hybrid_rate(a)
    s = np.exp(np.linspace(0.0, 2.0 * math.log(a), _TAIL_GRID_POINTS, endpoint=False))
    eps3 = float(np.max(_tails_above(a, s, lambda j: N * a * a)))
    ls = np.arange(1, int(l_max) + 1)
    tails = _tails_above(a, ls * (ls + SPHERE_DIM - 1.0),
                         lambda j: N * a * a + r * a * a * np.maximum(1 - j, 0))
    eps4 = float(sum((2 * ls + 1) * tails, 0.0))  # left to right, degree by degree
    if min(eps3, eps4) < sys.float_info.min:  # an underflowed tail says nothing of its decay
        raise ValueError("N = %r too large: a tail sum is below the smallest normal float "
                         "(eps3 = %g, eps4 = %g)" % (N, eps3, eps4))
    return {
        "N": N,
        "a": a,
        "l_max": int(l_max),
        "eps3": eps3,
        "eps4": eps4,
        "eps3_ratio": eps3 / (math.exp(-N) * N),
        "eps4_ratio": eps4 / (math.exp(-N) * N ** (SPHERE_DIM + 3)),
    }
