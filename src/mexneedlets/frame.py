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

``quadratic_form`` and ``apply_summation`` evaluate S on the whole frame and
never form the values G_j(x_k): on a ring of n points order m meets order m'
only where n divides m - m' or m + m' (``sphgrid``), so a ring longer than
L_in + L_out couples no two orders.  Both frame kinds take one path: on first
use at a band L the frame sums its rows once (``_RowStack``), each scale's
weights cut or zero-padded to degrees 0..L.  The rows of n > 2 min(L, L_j)
points of all scales add up to one Gram block H_m per order m, built from the
order slices of Legendre tables over the stacked long rows, and S F reads
H_m u_m off the order-m cosine and sine coefficients u_m.  The other rows, all
scales' together, form one short ``BandGrid`` whose tables carry each row's
w_j(l), and its ``BandGrid.energy`` and ``BandGrid.normal`` bin their orders
modulo n.  Every row of a cutoff-needlet frame is long (n = 2 L_j + 1), so its
S is the blocks alone.  Forms read the stack at the field's band and S F at the
frame band, so a frame keeps at most those two.  The stack pays for itself at
once: for the needlet frame of scales -6..0 at its coverage band 69 (254
rows), the first form, stack included, took about 10 ms against 11-17 ms scale
by scale, and later forms about 0.6 ms against 2.5 ms (2-vCPU host).
S over a window of scales is S of a sub-frame, a ``FrameSpec`` over those
scales' partitions.  Point values enter only ``analyze`` and the elements
here; S over a subset of a scale's points is the spatial sweep's, in
``truncation``.

S takes a coefficient block of k fields as readily as one field (the
blocks' and the grids' batch axis), so ``empirical_frame_bounds`` sends all its seeded
trial fields through the frame together.
"""

import math
from dataclasses import dataclass

import numpy as np

from .daubechies import (_ladder_step, _ladder_walk, _span_rungs, eigen_daubechies_sum,
                         filter_axis)
from .errors import BandLimitError
from .fields import HarmonicField, require_nonzero
from . import sphgrid
from .harmonics import (band_of_length, degree_of_index, legendre_orders, n_coeffs,
                        norm_assoc_legendre, order_layout, real_sh_matrix, sphere_eigenvalue)
from .partition import ScalePartition, build_partition

ADEQUACY_EPS = 1e-6
_EDGE_PROBES = 16  # candidate edges walked together per search round
_TABLE_ROWS = 512  # fewer long rows than this take one whole Legendre table per chunk


def default_scale_window(filt, a, L_max):
    """Smallest scale window [j_lo, j_hi] capturing the ladder sums.

    Chosen so that the windowed ladder sum retains a (1 - ADEQUACY_EPS)
    fraction of the full sum at every eigenvalue carried by the band
    limit; the low-j edge is driven by lambda_{L_max}, the high-j edge by
    lambda_1.  Each edge is the scale nearest the summand's peak whose
    one-sided tail beyond it fits half the budget.  Tails shrink away from
    the peak, so each edge is bracketed by doubling its distance and then
    narrowed by rounds of ``_EDGE_PROBES`` candidates, one walk per round.
    """
    sigma = _ladder_step(filt, a)

    def edge(lam, direction):
        budget = 0.5 * ADEQUACY_EPS * eigen_daubechies_sum(filt, a, lam)
        j_peak = round(-math.log(lam) / (2.0 * math.log(a)))

        def fits(ks):
            js = j_peak + direction * ks
            return _ladder_walk(filt, a, filter_axis(filt, lam) * sigma ** js, np.zeros(js.size),
                                direction) <= budget

        # no tail beyond rung j_peak + direction * lo fits (lo = -1: no rung yet); each
        # round walks hi and up to _EDGE_PROBES candidates below it, and doubles hi if none fits
        lo, hi = -1, _span_rungs(sigma)
        while hi - lo > 1:
            ks = np.append(np.arange(lo + 1, hi, -(-(hi - lo - 1) // _EDGE_PROBES)), hi)
            ok = fits(ks)
            lo, hi = int(ks[~ok].max(initial=lo)), (int(ks[ok].min()) if ok.any() else 2 * hi)
        return j_peak + direction * hi

    return edge(sphere_eigenvalue(L_max), -1), edge(sphere_eigenvalue(1), 1)


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
        self._stacks = {}  # band -> _RowStack

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


def _check_field(frame, field):
    # constants are allowed everywhere: the frame annihilates them exactly
    L = frame.L_max  # the largest degree any scale of the frame carries
    if field.L_max > L:
        if np.any(field.coeffs[n_coeffs(L):] != 0.0):
            raise BandLimitError("field carries degrees beyond the frame band limit")
        return HarmonicField(field.coeffs[: n_coeffs(L)].copy())
    return field


def _weighted(w, coeffs):
    """w(l) c_{l,q} for l <= min(L_j, band) of a coefficient vector or of each block column."""
    L = min(len(w) - 1, band_of_length(len(coeffs)))
    return (w[degree_of_index(L)] * coeffs[: n_coeffs(L)].T).T


def analyze(frame, field):
    """All coefficients <F, phi_{j,k}> = mu_{j,k}^{1/2} [w_j(M) F](x_{j,k}), per scale."""
    coeffs = _check_field(frame, field).coeffs
    return {j: np.sqrt(grid.point_weights()) * grid.synthesis(_weighted(w, coeffs))
            for j, grid, w in frame.terms()}


def frame_element(frame, j, k):
    """phi_{j,k} as a band-limited field."""
    for scale, grid, w in frame.terms():
        if scale == j:
            L = len(w) - 1
            xyz, weight = grid.point(k)
            ymat = real_sh_matrix(L, xyz[None, :])[0]
            return HarmonicField(math.sqrt(weight) * w[degree_of_index(L)] * ymat)
    raise ValueError("no such scale in the frame")


class _RowStack:
    """A frame's rows of every scale summed once at band L: per-order blocks and one short grid.

    Row weights w_j are cut or zero-padded to degrees 0..L.  A row of scale j and n points
    then meets fields of band at most min(L, L_j) on both sides, L_j = len(w_j) - 1, so for
    n > 2 min(L, L_j) its order m meets no other order, and the long rows of all scales
    add up to one block per order, H_m = sum_rows n mu diag(w_j) p_m p_m^T diag(w_j), with
    p_m the row's values N_{l,m} P_l^m(cos theta) at degrees l = m..L.  Every row of a
    cutoff-needlet frame is long (n = 2 L_j + 1), so its S is the blocks alone.  The long
    rows of every scale are stacked and taken in chunks within the work budget; per order m
    a chunk's (L - m + 1, rows) table (``_order_tables``) is scaled in place by
    w_j(l) sqrt(n mu) and enters H_m as one product with its transpose.  The cosine and
    the sine coefficients u of order m take H_m u, and a form is c . S c.  The short rows
    of every scale form one ``BandGrid`` whose tables carry each row's w_j(l).
    """

    def __init__(self, frame, L):
        self.L = L
        short, cos_theta, root, scale = [], [], [], []
        for i, (_, grid, w) in enumerate(frame.terms()):
            is_long = grid.counts > 2 * min(L, len(w) - 1)
            fitted = np.zeros(L + 1)
            fitted[: min(len(w), L + 1)] = w[: L + 1]
            short.append((grid, ~is_long, fitted))
            cos_theta.append(np.cos(grid.theta[is_long]))
            root.append(np.sqrt(grid.counts[is_long] * grid.row_weight[is_long]))
            scale.append(np.full(np.count_nonzero(is_long), i))
        cos_theta, root, scale = (np.concatenate(v) for v in (cos_theta, root, scale))
        degree_weights = np.stack([w for _, _, w in short], axis=1)  # (L + 1, scales)
        step = max(1, sphgrid._TARGET_CHUNK_FLOATS // (L + 1))  # long rows per order table
        self.blocks = [np.zeros((L - m + 1, L - m + 1)) for m in range(L + 1)]
        for lo in range(0, len(cos_theta), step):
            chunk = slice(lo, lo + step)
            weight = degree_weights[:, scale[chunk]]  # w_j(l) sqrt(n mu) of each row
            weight *= root[chunk]
            for m, q in _order_tables(L, cos_theta[chunk]):
                q *= weight[m:]
                self.blocks[m] += q @ q.T

        def stacked(name):
            return np.concatenate([getattr(grid, name)[keep] for grid, keep, _ in short])

        self.short = None
        if any(keep.any() for _, keep, _ in short):
            self.short = sphgrid.BandGrid(
                stacked("theta"), stacked("phi0"), stacked("counts"), stacked("row_weight"),
                degree_weights=np.concatenate([np.broadcast_to(w, (keep.sum(), L + 1))
                                               for _, keep, w in short]))

    def _long(self, coeffs):
        """The long rows' part of S c at degrees <= L, from the blocks H_m."""
        L_in = band_of_length(len(coeffs))
        starts_in, _, cos_in, sin_in = order_layout(L_in)
        starts, _, cos_out, sin_out = order_layout(self.L)
        out = np.zeros((n_coeffs(self.L),) + coeffs.shape[1:])
        for m in range(L_in + 1):
            s_in, s_out = slice(starts_in[m], starts_in[m + 1]), slice(starts[m], starts[m + 1])
            H = self.blocks[m][:, : L_in - m + 1]
            out[cos_out[s_out]] = H @ coeffs[cos_in[s_in]]
            if m:
                out[sin_out[s_out]] = H @ coeffs[sin_in[s_in]]
        return out

    def forms(self, coeffs):
        """``_forms`` of coefficients at band L: c . H c from ``_long``, plus the short grid."""
        total = np.sum(coeffs * self._long(coeffs), axis=0)
        if self.short is not None:
            total += self.short.energy(coeffs)
        return float(total) if coeffs.ndim == 1 else total

    def summed(self, coeffs):
        """``_summed``: H_m u_m per order and part, plus the short grid's ``normal``."""
        out = self._long(coeffs)
        if self.short is not None:
            out += self.short.normal(coeffs, self.L)
        return out


def _order_tables(L, cos_theta):
    """``legendre_orders(L, cos_theta)``, or the same bits as order slices of one whole table.

    Below ``_TABLE_ROWS`` rows the degree-vectorized ``norm_assoc_legendre`` is faster, and
    its table is taken whenever it fits the work budget.
    """
    starts = order_layout(L)[0]
    if len(cos_theta) < _TABLE_ROWS and len(cos_theta) * starts[-1] <= sphgrid._TARGET_CHUNK_FLOATS:
        table = norm_assoc_legendre(L, cos_theta)
        return ((m, table[:, starts[m]:starts[m + 1]].T) for m in range(L + 1))
    return legendre_orders(L, cos_theta)


def _row_stack(frame, L):
    """The frame's ``_RowStack`` at band L, built on first use and kept."""
    stack = frame._stacks.get(L)
    if stack is None:
        stack = frame._stacks[L] = _RowStack(frame, L)
    return stack


def _forms(frame, coeffs):
    """<S F, F> of a coefficient vector, or of each column of a block, within the frame band.

    Reads the stack at the field's band: degrees above it meet zero coefficients.
    """
    return _row_stack(frame, band_of_length(len(coeffs))).forms(coeffs)


def quadratic_form(frame, field):
    """<S F, F> = sum_{j,k} mu_k G_j(x_k)^2 over every scale and point of the frame."""
    return float(_forms(frame, _check_field(frame, field).coeffs))


def _summed(frame, coeffs):
    """S F of a coefficient vector, or of each column of a block, at the frame band."""
    return _row_stack(frame, frame.L_max).summed(coeffs)


def apply_summation(frame, field):
    """S F in spectral form; always mean-zero."""
    return HarmonicField(_summed(frame, _check_field(frame, field).coeffs))


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

    Fields are drawn at the frame's ``coverage_limit()`` and go through each
    scale as one coefficient block.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    L = frame.coverage_limit()
    if L < 1:
        raise ValueError("frame covers no degree completely")
    rng = np.random.default_rng(seed)
    fields = [HarmonicField.random_mean_zero(L, rng) for _ in range(trials)]
    forms = _forms(frame, np.stack([f.coeffs for f in fields], axis=1))
    quotients = forms / np.array([f.norm() ** 2 for f in fields])
    lo, hi = float(quotients.min()), float(quotients.max())
    return FrameBounds(lower=lo, upper=hi, ratio=hi / lo if lo > 0 else math.inf,
                       trials=trials, seed=seed)
