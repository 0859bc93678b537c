"""Frequency and spatial truncation of the summation operator.

Frequency side: how many scales [-M, N] suffice to reproduce S F, with
the computable bound

    (c'_L / a^{4Ml} + C'_J / a^{4NJ}) ||F|| + 2 B_a ||(I - P_[0,L]) F||,

c'_L = L^{2l} ||f0||_inf^2 / (a^{4l} - 1) and
C'_J = M_J^2 / [(a^{4J} - 1) lambda_1^2J], lambda_1 = 2 on the sphere.
The remaining Riemann-sum term is proportional to b with a
non-constructive constant; a fitted estimate is reported, never asserted.

Spatial side: cells whose representative point sits far from a geodesic
cap contribute little when the field lives on the cap; the structural
factor [mu(Gamma) sum_j a^{-2j} c_j^{2-2I}]^{1/2} ||chi F|| tracks the
proven envelope with its constant reported as a measured ratio.
"""

import math
from dataclasses import dataclass

import numpy as np

from .daubechies import (_ladder_sums, _parabolic_maxima, filter_axis,
                         truncated_daubechies_sum)
from .fields import evaluate_field
from .frame import FrameSpec, _check_field, _weighted, apply_summation
from .harmonics import degree_of_index, geodesic_distance, n_coeffs
from .cubature import cubature_rule, product_grid
from .sphgrid import _TARGET_CHUNK_FLOATS, BandGrid

SPHERE_LAMBDA_1 = 2.0
# rad: rows whose distance interval clears a reach by less than this are decided point by point
_ROW_MARGIN = 1e-12


def moment_constant(filt, J):
    """M_J = max_{s>0} |s^J f(s)|, or inf where it passes the float range.

    Mexican r: s^{J+r} e^{-s} peaks at s = k = J + r, so M_J = (k / e)^k.
    Cutoff filters: the grid argmax of J log s + log |f(s)| on the support,
    refined by parabolic steps (``_parabolic_maxima``) on the same log.
    """
    if J < 1 or int(J) != J:
        raise ValueError("moment order J must be a positive integer")
    if filt.is_mexican:
        k = J + filt.r
        try:
            return (k / math.e) ** k
        except OverflowError:
            return math.inf
    grid = np.linspace(filt.support[0], filt.support[1], 4001)[1:-1]

    def log_moment(s):
        with np.errstate(divide="ignore"):  # log 0 = -inf where f vanishes
            return J * np.log(s) + np.log(np.abs(filt(s)))

    logs = log_moment(grid)
    i = int(np.argmax(logs))
    left, right = max(i - 1, 0), min(i + 1, len(grid) - 1)
    best = _parabolic_maxima(log_moment, grid[[left]], grid[[i]], grid[[right]],
                             logs[[left]], logs[[i]], logs[[right]], tol=1e-12 * grid[right])
    try:
        return math.exp(float(best[0]))
    except OverflowError:
        return math.inf


@dataclass
class FrequencyBoundReport:
    M: int
    N: int
    L: float
    l: int
    J: int
    c_prime_L: float
    C_prime_J: float
    M_J: float
    B_a: float
    tail_norm: float
    F_norm: float
    bound_without_C0b: float
    measured_error: float = None


def frequency_bound(spec, J, L, M, N, tail_norm, F_norm, *, bounds):
    """Computable part of the frequency truncation bound (no C0 b term); B_a = bounds.B."""
    for name, value in (("J", J), ("L", L), ("M", M), ("N", N),
                        ("tail_norm", tail_norm), ("F_norm", F_norm)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    if J < 1 or int(J) != J:
        raise ValueError("decay order J must be a positive integer")
    if L <= 0:
        raise ValueError("projection level L must be positive")
    if M < 0 or N < 0:
        raise ValueError("window sizes M, N must be nonnegative")
    if tail_norm < 0 or F_norm < 0:
        raise ValueError("norms tail_norm, F_norm must be nonnegative")
    a = spec.a
    l = spec.filter.vanishing_order  # the l of c'_L
    f0_sup = spec.filter.f0_sup()
    c_prime = (L ** (2 * l)) * f0_sup ** 2 / (a ** (4 * l) - 1.0)
    m_j = moment_constant(spec.filter, J)
    if math.isinf(m_j):
        raise OverflowError("M_J passes the float range at J = %d" % J)
    c_prime_j = m_j ** 2 / ((a ** (4 * J) - 1.0) * SPHERE_LAMBDA_1 ** (2 * J))
    bound = (c_prime / a ** (4 * M * l) + c_prime_j / a ** (4 * N * J)) * F_norm \
        + 2.0 * bounds.B * tail_norm
    return FrequencyBoundReport(M=int(M), N=int(N), L=float(L), l=int(l), J=int(J),
                                c_prime_L=c_prime, C_prime_J=c_prime_j, M_J=m_j,
                                B_a=bounds.B, tail_norm=tail_norm, F_norm=F_norm,
                                bound_without_C0b=bound)


def spectral_tail_norm(field, L):
    """||(I - P_[0,L]) F||: root energy at eigenvalues above L."""
    degrees = degree_of_index(field.L_max)
    lam = degrees * (degrees + 1.0)
    mask = lam > L
    return float(np.sqrt(np.sum(field.coeffs[mask] ** 2)))


def measured_truncation_error(spec, field, M, N):
    """||S F - S_{[-M,N]} F|| computed spectrally (exact in the band limit)."""
    if -M < spec.j_min or N > spec.j_max:
        raise ValueError("window [-M, N] exceeds the scale range of the frame")
    complement = [j for j in spec.scales if j < -M or j > N]
    if not complement:
        return 0.0
    # S of the dropped scales is S of their sub-frame: the same grids in the same order
    dropped = FrameSpec(spec.filter, spec.a, spec.b, spec.L_max,
                        {j: spec.partitions[j] for j in complement})
    return apply_summation(dropped, field).norm()


def window_margin(spec, M, N):
    """max_l relative ladder mass outside [-M, N] over the carried spectrum."""
    ls = np.arange(1, spec.L_max + 1)
    x = filter_axis(spec.filter, ls * (ls + 1.0))
    g = _ladder_sums(spec.filter, spec.a, x)
    g_win = truncated_daubechies_sum(spec.filter, spec.a, x, M, N)
    return float(np.max((g - g_win) / g, initial=0.0))


def fit_riemann_constant(spec, fields, L, M, N, J=1, *, bounds):
    """Estimate of the non-constructive Riemann constant from calibration runs.

    C0_est = max_F (measured - bound_without_C0b) / (b ||F||), clamped at 0,
    with the bounds taken at projection level L.  Reported for context
    only; no inequality is asserted with it.
    """
    worst = 0.0
    for field in fields:
        field = _check_field(spec, field)
        measured = measured_truncation_error(spec, field, M, N)
        rep = frequency_bound(spec, J, L, M, N, spectral_tail_norm(field, L), field.norm(),
                              bounds=bounds)
        gap = (measured - rep.bound_without_C0b) / (spec.b * field.norm())
        worst = max(worst, gap)
    return max(worst, 0.0)


# -- spatial analysis ------------------------------------------------------


@dataclass(frozen=True)
class GeodesicCap:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        norm = np.linalg.norm(center) if center.shape == (3,) else math.nan
        if not (math.isfinite(self.radius) and math.isfinite(norm) and norm > 0.0):
            raise ValueError("cap needs a finite radius and a finite nonzero 3-vector center")
        if not 0.0 <= self.radius <= math.pi:
            raise ValueError("cap radius must lie in [0, pi], got %r" % (self.radius,))
        object.__setattr__(self, "center", center / norm)

    @property
    def area(self):
        return 2.0 * math.pi * (1.0 - math.cos(self.radius))

    def distance(self, xyz):
        """Geodesic distance from points to the cap (0 inside)."""
        d = geodesic_distance(np.atleast_2d(xyz), self.center)
        return np.maximum(d - self.radius, 0.0)


def spatial_index_set(spec, cap, c):
    """Per-scale masks of the cells kept near the cap, {(j,k): d(x_{j,k}, Gamma) <= (c + 1) a^j}.

    (cells,) masks for a scalar c; for k values, (cells, k) blocks whose
    column i is the mask of c[i].  Every point of a row at colatitude theta lies
    between |theta - theta_c| and min(theta + theta_c, 2 pi - theta - theta_c)
    of the cap's center; a row whose interval is kept, or dropped, by more than
    _ROW_MARGIN for every c is set whole, and only the other rows take a
    distance pass over their points.
    """
    cs = np.asarray(c, dtype=float)
    if np.any(cs <= 0):
        raise ValueError("c must be positive")
    theta_c = math.atan2(math.hypot(cap.center[0], cap.center[1]), cap.center[2])
    masks = {}
    for j in spec.scales:
        reach = (cs + 1.0) * spec.a ** j
        grid = spec.partitions[j].grid
        near = np.abs(grid.theta - theta_c) - cap.radius
        far = np.minimum(grid.theta + theta_c, 2.0 * math.pi - grid.theta - theta_c) - cap.radius
        kept = np.less_equal.outer(far, reach - _ROW_MARGIN)
        open_ = ~kept & np.less_equal.outer(near, reach + _ROW_MARGIN)
        mask = np.repeat(kept, grid.counts, axis=0)
        rows = np.flatnonzero(open_.reshape(grid.n_rows, -1).any(axis=1))
        sub = BandGrid(grid.theta[rows], grid.phi0[rows], grid.counts[rows], grid.row_weight[rows])
        points = np.repeat(grid.offsets[rows] - sub.offsets[:-1], sub.counts)
        points += np.arange(sub.n_points)
        for sl, xyz in sub.block_iter():
            mask[points[sl]] = np.less_equal.outer(cap.distance(xyz), reach)
        masks[j] = mask
    return masks


def _off_cap_energy(field, cap):
    """||(1-chi) F||^2 by a product rule centred on the cap.

    With t = <x, center>, the complement of the cap is t in [-1, cos r].
    ``product_grid(L+1, 2L+1, cos r)``, turned so that its pole is the
    center, integrates F^2 (degree 2L) exactly: the longitude sum keeps
    only the zonal part, a polynomial of degree 2L in t.  Weights are
    positive, nothing is subtracted, and the field is evaluated in blocks
    of points whose harmonic matrices stay within the chunk budget.
    """
    L = field.L_max
    grid = product_grid(L + 1, 2 * L + 1, math.cos(cap.radius))
    c = cap.center
    e1 = np.cross(c, [1.0, 0.0, 0.0] if abs(c[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    xyz = grid.points() @ np.array([e1, np.cross(c, e1), c])
    step = max(1, _TARGET_CHUNK_FLOATS // n_coeffs(L))
    values = np.concatenate([evaluate_field(field, xyz[start:start + step])
                             for start in range(0, len(xyz), step)])
    return float(np.dot(grid.point_weights(), values ** 2))


def cap_energy_split(spec, field, cap):
    """(||chi F||^2, ||(1-chi) F||^2) for the field on the frame's band.

    The off-cap energy is exact for band-limited F (to rounding), by the
    cap-centred product rule of ``_off_cap_energy``; it is 0.0 when the
    cap is the whole sphere.  The on-cap energy sums the degree-2 L_max
    Gauss x uniform cubature over the nodes inside the cap.  The cap
    indicator is not a polynomial, so that sum is an approximation (it
    misses caps thinner than the rule's row spacing); it is kept as it is
    so that outputs pinned on it (the structural factor) do not move.
    """
    field = _check_field(spec, field)
    rule = cubature_rule(min(2 * spec.L_max, 512))
    values = rule.grid.synthesis(field.coeffs)
    inside = cap.distance(rule.nodes) == 0.0
    w = rule.weights
    on_cap = float(np.sum(w[inside] * values[inside] ** 2))
    return on_cap, _off_cap_energy(field, cap)


@dataclass
class SpatialTruncationReport:
    M: int
    N: int
    cap_area: float
    I_decay: float
    measured: float
    structural_factor: float
    leakage: float
    measured_to_structural: float
    kept_cells: int
    dropped_cells: int
    dropped_quadratic_form: float


def _dropped_sums(spec, coeffs, masks):
    """(<S_D F, F>, S_D F) per column of the (cells, k) kept masks, D the cells a column drops.

    Returns k forms and a (k, n_coeffs) array whose rows are the sums: per scale, the
    ``BandGrid.dropped`` sums of w_j F over the cells a column drops, without point values.
    """
    L = spec.L_max
    forms = np.zeros(next(iter(masks.values())).shape[1])
    sums = np.zeros((len(forms), n_coeffs(L)))
    for j, grid, w in spec.terms():
        scale_forms, scale_sums = grid.dropped(_weighted(w, coeffs), L, ~masks[j])
        forms += scale_forms
        sums += w[degree_of_index(L)] * scale_sums.T
    return forms, sums


def spatial_truncation_report(spec, field, cap, cs, I_decay, *, b_emp):
    """Measured spatial truncation error against its structural envelope, one report per c in cs.

    ``measured`` is ||S F - S_kept F|| and ``dropped_quadratic_form`` is
    <(S F - S_kept F), F>, both over the cells dropped by ``spatial_index_set``
    at c.  The field check, cap energies and distances run once per sweep,
    and ``_dropped_sums`` takes every column of the kept-mask blocks from one
    ``BandGrid.dropped`` call per scale, without point values; the cap rule
    of ``cap_energy_split`` is the sweep's only synthesis.
    ``structural_factor`` is [mu(Gamma) sum_j a^{-2j} c^{2-2I}]^{1/2} ||chi F||
    with the approximate on-cap energy of ``cap_energy_split``; it shrinks
    as c grows only for I > 1, so ``I_decay`` must exceed 1.  ``leakage``
    is b_emp ||(1-chi) F||, exact in the off-cap energy, with b_emp an upper
    frame bound (the CLI passes a 20-trial empirical one).
    """
    if not I_decay > 1.0:
        raise ValueError("decay order I must be > 1, got %r" % (I_decay,))
    chi_sq, leak_sq = cap_energy_split(spec, field, cap)  # checks the field against the band
    masks = spatial_index_set(spec, cap, cs)
    forms, sums = _dropped_sums(spec, field.coeffs, masks)
    kept = sum(masks[j].sum(axis=0) for j in spec.scales)
    reports = []
    for c, form, summed, kept_c in zip(cs, forms, sums, kept):
        measured = float(np.linalg.norm(summed))
        structural = math.sqrt(chi_sq) * math.sqrt(cap.area * sum(
            spec.a ** (-2 * j) * c ** (2.0 - 2.0 * I_decay) for j in spec.scales))
        reports.append(SpatialTruncationReport(
            M=-spec.j_min, N=spec.j_max, cap_area=cap.area, I_decay=I_decay,
            measured=measured, structural_factor=structural, leakage=b_emp * math.sqrt(leak_sq),
            measured_to_structural=measured / structural if structural > 0 else math.inf,
            kept_cells=int(kept_c), dropped_cells=spec.total_cells() - int(kept_c),
            dropped_quadratic_form=float(form)))
    return reports
