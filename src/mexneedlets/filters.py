"""Spectral filters that generate the wavelet frames.

Three families are supported:

* ``mexican(r)`` -- f(s) = s^r e^{-s}, acting on Laplace-Beltrami
  eigenvalues through f(t^2 lambda).  Rapidly decaying, positive away
  from 0, not compactly supported.
* ``cutoff_bump`` -- a smooth bump supported exactly on [1/2, 2],
  acting on the sqrt-eigenvalue (degree-like) axis through g(t nu).
* ``normalized_cutoff`` -- the same bump rescaled so that
  sum_j g(2^j s)^2 = 1 for every s > 0 (an exact partition of unity
  over dyadic dilations).

Mexican filters live on the eigenvalue axis and dilate in steps of a^2;
cutoff filters live on the sqrt-eigenvalue axis and dilate in steps of a.
``dilation_exponent`` records which convention applies, and
``multiplier(t, lam)`` evaluates the filter as a spectral multiplier of
the eigenvalue ``lam`` at scale ``t`` in either convention.
"""

import math

import numpy as np

from .errors import CalderonDivergenceError

BUMP_SUPPORT = (0.5, 2.0)
_BUMP_CENTER = 1.25
_BUMP_RADIUS_SQ = 9.0 / 16.0
_CALDERON_NODES = 64  # Gauss-Legendre nodes for the raw bump: 5.6e-15 from quad, 48 give 5.7e-12


def _bump(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    lo, hi = BUMP_SUPPORT
    inside = (s > lo) & (s < hi)
    gap = _BUMP_RADIUS_SQ - (s[inside] - _BUMP_CENTER) ** 2
    out[inside] = np.exp(-1.0 / gap)
    return out


def _dyadic_square_sum(s):
    """D(s) = sum_j bump(2^j s)^2, a smooth positive ln2-periodic function."""
    s = np.asarray(s, dtype=float)
    lo, hi = BUMP_SUPPORT
    # lowest dyadic translate that can land in the support; the support is
    # two octaves wide so at most three translates contribute
    jmin = np.ceil(np.log2(lo / s) - 1e-12).astype(int)
    total = np.zeros(s.shape)
    for step in range(3):
        total += _bump(np.ldexp(s, jmin + step)) ** 2
    return total


class SpectralFilter:
    """One member of the filter family; immutable and stateless."""

    def __init__(self, kind, r=None):
        if kind == "mexican":
            if r is None or int(r) != r or r < 1:
                raise ValueError("mexican filter needs a positive integer order r")
            self.r = int(r)
            self.vanishing_order = self.r
            self.support = (0.0, math.inf)
            self.dilation_exponent = 2
        elif kind in ("cutoff_bump", "normalized_cutoff"):
            self.r = None
            self.vanishing_order = 1
            self.support = BUMP_SUPPORT
            self.dilation_exponent = 1
        else:
            raise ValueError("unknown filter kind %r" % (kind,))
        self.kind = kind

    @property
    def is_mexican(self):
        return self.kind == "mexican"

    @property
    def name(self):
        if self.is_mexican:
            return "mexican:r=%d" % self.r
        return {"cutoff_bump": "cutoff", "normalized_cutoff": "normalized_cutoff"}[self.kind]

    def __repr__(self):
        return "SpectralFilter(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, SpectralFilter) and (self.kind, self.r) == (other.kind, other.r)

    def __hash__(self):
        return hash((self.kind, self.r))

    def __call__(self, s):
        """Evaluate the filter on its own argument axis (total function)."""
        scalar = np.isscalar(s)
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("filter argument must be nonnegative")
        if self.kind == "mexican":
            with np.errstate(under="ignore"):
                out = s ** self.r * np.exp(-s)
        elif self.kind == "cutoff_bump":
            out = _bump(s)
        else:
            out = np.zeros(s.shape)
            pos = s > 0
            sq = _dyadic_square_sum(s[pos])
            out[pos] = _bump(s[pos]) / np.sqrt(sq)
        return float(out) if scalar else out

    def nu_profile(self, u):
        """The filter as a function of nu = sqrt(eigenvalue)."""
        if self.is_mexican:
            u = np.asarray(u, dtype=float) if not np.isscalar(u) else u
            return self(np.square(u))
        return self(u)

    def multiplier(self, t, lam):
        """Spectral multiplier applied to eigenvalue ``lam`` at scale ``t``.

        Mexican filters act through f(t^2 lam); cutoff filters act on the
        sqrt-eigenvalue axis through g(t sqrt(lam)).
        """
        if t <= 0:
            raise ValueError("scale t must be positive")
        if self.is_mexican:
            return self(t * t * np.asarray(lam, dtype=float))
        return self(t * np.sqrt(np.asarray(lam, dtype=float)))

    def f0_sup(self):
        """sup |f0| where f(s) = s^l f0(s) with l the vanishing order."""
        if self.is_mexican:
            return 1.0  # f0(s) = e^{-s}
        lo, hi = self.support
        s = np.linspace(lo, hi, 20001)[1:-1]
        return float(np.max(self(s) / s ** self.vanishing_order))


def parse_filter(spec):
    """Parse a config-style filter name: 'mexican:r=1', 'cutoff', 'normalized_cutoff'."""
    text = spec.strip().lower()
    if text in ("cutoff", "cutoff_bump"):
        return SpectralFilter("cutoff_bump")
    if text == "normalized_cutoff":
        return SpectralFilter("normalized_cutoff")
    if text == "mexican":
        return SpectralFilter("mexican", r=1)
    if text.startswith("mexican:"):
        arg = text.split(":", 1)[1]
        if not arg.startswith("r="):
            raise ValueError("mexican filter takes r=<int>, got %r" % (spec,))
        return SpectralFilter("mexican", r=int(arg[2:]))
    raise ValueError("unknown filter %r" % (spec,))


def calderon_constant(filt):
    """Calderon constant c = int_0^inf |f(t)|^2 dt/t on the filter's own axis.

    Closed forms where the family has one: for mexican r,
    c = int_0^inf s^{2r-1} e^{-2s} ds = (2r-1)! / 4^r; for the normalized
    cutoff, sum_j g(2^j t)^2 = 1 folds the integral onto one octave, so
    c = int_1^2 dt/t = ln 2.  The raw cutoff bump, smooth with compact support,
    is integrated by a fixed Gauss-Legendre rule in u = log t over its support.  Raises
    :class:`CalderonDivergenceError` when the filter does not vanish at 0,
    in which case the integral diverges logarithmically.
    """
    if filt.vanishing_order == 0:
        raise CalderonDivergenceError("integral diverges at 0 for vanishing order 0")
    if filt.is_mexican:
        return math.factorial(2 * filt.r - 1) / 4 ** filt.r
    if filt.kind == "normalized_cutoff":
        return math.log(2.0)
    lo, hi = math.log(filt.support[0]), math.log(filt.support[1])
    x, w = np.polynomial.legendre.leggauss(_CALDERON_NODES)  # numpy.polynomial loads here
    half = 0.5 * (hi - lo)
    return half * float(np.dot(w, filt(np.exp(lo + half * (x + 1.0))) ** 2))
