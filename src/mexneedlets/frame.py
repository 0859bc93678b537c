"""Frame construction, analysis coefficients and the summation operator.

The frame element for scale j and point k is, in spectral form,

    phi_{j,k}[l,q] = mu_{j,k}^{1/2} w_j(l) Y_{l,q}(x_{j,k}),   l <= L_j,

with w_j(l) the filter multiplier of degree l at scale j.  With this
normalization the summation operator is
S F = sum_{j,k} <F, phi_{j,k}> phi_{j,k}, and all inner products are exact
spectral dot products in the band-limited space (no quadrature).

Every frame reaches this module through ``terms()``: per scale j, a
``BandGrid`` whose point weights are the mu_{j,k}, and the degree weights
w_j(0..L_j).  A ``FrameSpec`` samples cell centers with cell measures
(L_j = L_max); a cutoff-needlet frame samples cubature nodes with
cubature weights (L_j = l_cut(j)).  At scale j a field is read only
through degrees l <= min(L_j, field band), and S F carries degrees up to L_j.

``quadratic_form`` and ``apply_summation`` never form the values G_j(x_k) of
an unmasked scale: the grid sums mu_k G_j(x_k)^2 and
sum_k mu_k G_j(x_k) Y(x_k) over whole rings in Fourier-order space
(``BandGrid.energy`` and ``BandGrid.normal``: on a ring of n points order m
meets order m' only where n divides m - m' or m + m', grouped by
n_eff = min(n, L_in + L_out + 1)).  A mask selects single points, so a scale
listed in ``masks`` goes through point values (``synthesis`` then ``adjoint``),
as do ``analyze`` and the elements.
"""

import math
from dataclasses import dataclass

import numpy as np

from .daubechies import eigen_daubechies_sum
from .errors import BandLimitError
from .fields import HarmonicField, require_nonzero
from .harmonics import degree_of_index, n_coeffs, real_sh_matrix, sphere_eigenvalue
from .partition import ScalePartition, build_partition

ADEQUACY_EPS = 1e-6


def default_scale_window(filt, a, L_max):
    """Smallest scale window [j_lo, j_hi] capturing the ladder sums.

    Chosen so that the windowed ladder sum retains a (1 - ADEQUACY_EPS)
    fraction of the full sum at every eigenvalue carried by the band
    limit; the low-j edge is driven by lambda_{L_max}, the high-j edge by
    lambda_1.
    """
    lam_hi = sphere_eigenvalue(L_max)
    lam_lo = sphere_eigenvalue(1)

    def tail_edge(lam, direction):
        g = eigen_daubechies_sum(filt, a, lam)
        budget = 0.5 * ADEQUACY_EPS * g
        floor = 1e-25 * g
        j_peak = int(round(-math.log(lam) / (2.0 * math.log(a))))
        js, terms = [], []
        j = j_peak
        while True:
            w = float(filt.multiplier(a ** j, lam))
            js.append(j)
            terms.append(w * w)
            j += direction
            if terms[-1] < floor and len(terms) > 2:
                break
            if abs(j) > 20000:
                raise RuntimeError("scale window search failed")
        # drop scales from the far end inward while the dropped mass fits
        dropped = 0.0
        for idx in range(len(terms) - 1, -1, -1):
            if dropped + terms[idx] > budget:
                return js[idx]
            dropped += terms[idx]
        return j_peak

    j_lo = tail_edge(lam_hi, -1)
    j_hi = tail_edge(lam_lo, +1)
    return j_lo, j_hi


class FrameSpec:
    """Filter + dilation + fineness + per-scale partitions + band limit."""

    def __init__(self, filt, a, b, L_max, partitions):
        self.filter = filt
        self.a = a
        self.b = b
        self.L_max = L_max
        self.partitions = dict(sorted(partitions.items()))
        self.j_min = min(self.partitions)
        self.j_max = max(self.partitions)
        if not all(isinstance(part, ScalePartition) for part in self.partitions.values()):
            raise ValueError("frames need band partitions; greedy partitions are a witness only")
        self._weights = {}

    @classmethod
    def build(cls, filt, a, b, L_max, j_range=None):
        if a <= 1:
            raise ValueError("dilation a must be > 1")
        if L_max < 1:
            raise ValueError("band limit must be at least 1")
        if j_range is None:
            j_range = default_scale_window(filt, a, L_max)
        if not all(float(j).is_integer() for j in j_range):
            raise ValueError("j_range entries must be integers, got %r" % (tuple(j_range),))
        j_lo, j_hi = int(j_range[0]), int(j_range[1])
        if j_hi < j_lo:
            raise ValueError("empty scale range")
        partitions = {j: build_partition(j, a, b) for j in range(j_lo, j_hi + 1)}
        return cls(filt, a, b, L_max, partitions)

    @property
    def scales(self):
        return list(self.partitions)

    def weight_vector(self, j):
        """Multiplier w_j(l) for l = 0..L_max (w_j(0) = 0)."""
        if j not in self._weights:
            ls = np.arange(self.L_max + 1, dtype=float)
            w = self.filter.multiplier(self.a ** j, ls * (ls + 1.0))
            w[0] = 0.0
            self._weights[j] = w
        return self._weights[j]

    def terms(self):
        """[(j, cell-center grid with cell measures, w_j)] for every scale."""
        return [(j, self.partitions[j].grid, self.weight_vector(j)) for j in self.scales]

    def coverage_limit(self):
        return self.L_max

    def n_cells(self, j):
        return self.partitions[j].n_cells

    def band_adequacy_residual(self):
        """max_j |w_j(lambda_{L_max+1})|: response just beyond the band limit."""
        lam = sphere_eigenvalue(self.L_max + 1)
        return max(abs(float(self.filter.multiplier(self.a ** j, lam))) for j in self.scales)

    def total_cells(self):
        return sum(self.n_cells(j) for j in self.scales)


def _band_limit(frame):
    """Largest degree any scale of the frame carries."""
    return max(len(w) for _, _, w in frame.terms()) - 1


def _check_field(frame, field):
    # constants are allowed everywhere: the frame annihilates them exactly
    L = _band_limit(frame)
    if field.L_max > L:
        if np.any(field.coeffs[n_coeffs(L):] != 0.0):
            raise BandLimitError("field carries degrees beyond the frame band limit")
        return HarmonicField(field.coeffs[: n_coeffs(L)].copy())
    return field


def _weighted(w, field):
    """Coefficients w(l) c_{l,q} for l <= min(L_j, field band)."""
    L = min(len(w) - 1, field.L_max)
    return w[degree_of_index(L)] * field.coeffs[: n_coeffs(L)]


def _scale_terms(frame, field, scales=None):
    """Yield (j, grid, w_j, w_j(l) c_{l,q}) per selected scale."""
    field = _check_field(frame, field)
    use = None if scales is None else set(scales)
    for j, grid, w in frame.terms():
        if use is None or j in use:
            yield j, grid, w, _weighted(w, field)


def _masked_weights(grid, masks, j):
    """mu_{j,k} zeroed outside the mask of scale j, or None if j carries no mask."""
    if masks is None or j not in masks:
        return None
    return np.where(masks[j], grid.point_weights(), 0.0)


def analyze(frame, field):
    """All coefficients <F, phi_{j,k}> = mu_{j,k}^{1/2} [w_j(M) F](x_{j,k}), per scale."""
    return {j: np.sqrt(grid.point_weights()) * grid.synthesis(c)
            for j, grid, _, c in _scale_terms(frame, field)}


def frame_element(frame, j, k):
    """phi_{j,k} as a band-limited field."""
    for scale, grid, w in frame.terms():
        if scale == j:
            L = len(w) - 1
            xyz, weight = grid.point(k)
            ymat = real_sh_matrix(L, xyz[None, :])[0]
            return HarmonicField(math.sqrt(weight) * w[degree_of_index(L)] * ymat)
    raise ValueError("no such scale in the frame")


def quadratic_form(frame, field, scales=None, masks=None):
    """<S F, F> = sum_{j,k} mu_k G_j(x_k)^2 over the selected index set."""
    total = 0.0
    for j, grid, _, c in _scale_terms(frame, field, scales):
        mu = _masked_weights(grid, masks, j)
        if mu is None:
            total += grid.energy(c)
        else:
            values = grid.synthesis(c)
            total += float(np.dot(mu, values * values))
    return total


def apply_summation(frame, field, scales=None, masks=None):
    """S F (or a restricted S_I F) in spectral form; always mean-zero."""
    out = np.zeros(n_coeffs(_band_limit(frame)))
    for j, grid, w, c in _scale_terms(frame, field, scales):
        L = len(w) - 1
        mu = _masked_weights(grid, masks, j)
        if mu is None:
            Sc = grid.normal(c, L)
        else:
            Sc = grid.adjoint(mu * grid.synthesis(c), L)
        out[: n_coeffs(L)] += w[degree_of_index(L)] * Sc
    return HarmonicField(out)


def rayleigh_quotient(frame, field):
    """<S F, F> / <F, F> for a nonzero mean-zero field."""
    require_nonzero(field)
    if not field.mean_zero:
        raise ValueError("Rayleigh quotient is defined on mean-zero fields")
    return quadratic_form(frame, field) / field.norm() ** 2


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    ratio: float
    trials: int
    seed: int


def empirical_frame_bounds(frame, trials, seed=0):
    """Extremes of the Rayleigh quotient over seeded random unit fields.

    Fields are drawn at the frame's ``coverage_limit()``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    L = frame.coverage_limit()
    if L < 1:
        raise ValueError("frame covers no degree completely")
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, -math.inf
    for _ in range(trials):
        field = HarmonicField.random_mean_zero(L, rng)
        q = rayleigh_quotient(frame, field)
        lo = min(lo, q)
        hi = max(hi, q)
    return FrameBounds(lower=lo, upper=hi, ratio=hi / lo if lo > 0 else math.inf,
                       trials=trials, seed=seed)
