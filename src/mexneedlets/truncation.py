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
from scipy.optimize import minimize_scalar

from .daubechies import eigen_daubechies_sum, truncated_daubechies_sum
from .fields import evaluate_field
from .frame import _check_field, apply_summation, quadratic_form
from .harmonics import degree_of_index, geodesic_distance, n_coeffs, sphere_eigenvalue
from .cubature import cubature_rule

SPHERE_LAMBDA_1 = 2.0
_CHUNK_FLOATS = 3_000_000  # bound on the harmonic matrix built per block of nodes


def moment_constant(filt, J):
    """M_J = max_{r>0} |r^J f(r)| by log-grid bracketing plus refinement."""
    if J < 1 or int(J) != J:
        raise ValueError("moment order J must be a positive integer")
    lo, hi = filt.support
    if math.isinf(hi):
        grid = np.exp(np.linspace(math.log(1e-6), math.log(1e4), 4001))
    else:
        grid = np.linspace(lo, hi, 4001)[1:-1]
    vals = grid ** J * np.abs(filt(grid))
    i = int(np.argmax(vals))
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(lambda s: -(s ** J) * abs(filt(s)), bounds=(left, right),
                          method="bounded", options={"xatol": 1e-12 * right})
    return max(float(vals[i]), float(-res.fun))


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


def frequency_bound(spec, l, J, L, M, N, tail_norm, F_norm, *, bounds):
    """Computable part of the frequency truncation bound (no C0 b term); B_a = bounds.B."""
    for name, value in (("J", J), ("L", L), ("M", M), ("N", N),
                        ("tail_norm", tail_norm), ("F_norm", F_norm)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    if J < 1 or int(J) != J:
        raise ValueError("decay order J must be a positive integer")
    if L <= 0:
        raise ValueError("projection level L must be positive")
    if l < 1 or l != spec.filter.vanishing_order:
        raise ValueError("l must match the filter vanishing order (>= 1)")
    if M < 0 or N < 0:
        raise ValueError("window sizes M, N must be nonnegative")
    if tail_norm < 0 or F_norm < 0:
        raise ValueError("norms tail_norm, F_norm must be nonnegative")
    a = spec.a
    f0_sup = spec.filter.f0_sup()
    c_prime = (L ** (2 * l)) * f0_sup ** 2 / (a ** (4 * l) - 1.0)
    m_j = moment_constant(spec.filter, J)
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
    return apply_summation(spec, field, scales=complement).norm()


def window_margin(spec, M, N):
    """max_l relative ladder mass outside [-M, N] over the carried spectrum."""
    worst = 0.0
    for l in range(1, spec.L_max + 1):
        lam = sphere_eigenvalue(l)
        x = lam if spec.filter.dilation_exponent == 2 else math.sqrt(lam)
        g = eigen_daubechies_sum(spec.filter, spec.a, lam)
        g_win = truncated_daubechies_sum(spec.filter, spec.a, x, M, N)
        worst = max(worst, (g - g_win) / g)
    return worst


def fit_riemann_constant(spec, fields, M, N, J=1, *, bounds):
    """Estimate of the non-constructive Riemann constant from calibration runs.

    C0_est = max_F (measured - bound_without_C0b) / (b ||F||), clamped at 0.
    Reported for context only; no inequality is asserted with it.
    """
    worst = 0.0
    level = sphere_eigenvalue(spec.L_max)
    for field in fields:
        field = _check_field(spec, field)
        measured = measured_truncation_error(spec, field, M, N)
        rep = frequency_bound(spec, spec.filter.vanishing_order, J, level, M, N,
                              spectral_tail_norm(field, level), field.norm(),
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
        object.__setattr__(self, "center", center / norm)

    @property
    def area(self):
        return 2.0 * math.pi * (1.0 - math.cos(self.radius))

    def distance(self, xyz):
        """Geodesic distance from points to the cap (0 inside)."""
        d = geodesic_distance(np.atleast_2d(xyz), self.center)
        return np.maximum(d - self.radius, 0.0)


def spatial_index_set(spec, cap, c_by_scale):
    """Cells kept near the cap: {(j,k): d(x_{j,k}, Gamma) <= (c_j + 1) a^j}.

    Returns a per-scale boolean mask dict usable with the restricted
    summation operator.
    """
    masks = {}
    for j in spec.scales:
        c_j = c_by_scale[j] if not np.isscalar(c_by_scale) else float(c_by_scale)
        if c_j <= 0:
            raise ValueError("c_j must be positive")
        reach = (c_j + 1.0) * spec.a ** j
        grid = spec.partitions[j].grid
        mask = np.empty(grid.n_points, dtype=bool)
        for sl, xyz in grid.block_iter():
            mask[sl] = cap.distance(xyz) <= reach
        masks[j] = mask
    return masks


def complement_masks(spec, masks):
    return {j: ~masks[j] for j in masks}


def _off_cap_energy(field, cap):
    """||(1-chi) F||^2 by a product rule centred on the cap.

    With t = <x, center>, the complement of the cap is t in [-1, cos r].
    L+1 Gauss-Legendre nodes in t on that interval times 2L+1 equispaced
    longitudes about the center integrate F^2 (degree 2L) exactly: the
    longitude sum keeps only the zonal part, a polynomial of degree 2L in
    t.  Weights are positive and nothing is subtracted.
    """
    L = field.L_max
    radius = min(max(cap.radius, 0.0), math.pi)
    half = 0.5 * (math.cos(radius) + 1.0)  # exactly 0 when the cap is the sphere
    x, w = np.polynomial.legendre.leggauss(L + 1)
    t = half * (x + 1.0) - 1.0
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, 1.0))
    n_phi = 2 * L + 1
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    c = cap.center
    e1 = np.cross(c, [1.0, 0.0, 0.0] if abs(c[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2  # (n_phi, 3)
    row_weight = half * w * (2.0 * math.pi / n_phi)
    rows_per_chunk = max(1, _CHUNK_FLOATS // (n_phi * n_coeffs(L)))
    energy = 0.0
    for start in range(0, L + 1, rows_per_chunk):
        rows = slice(start, start + rows_per_chunk)
        xyz = s[rows, None, None] * ring + t[rows, None, None] * c
        values = evaluate_field(field, xyz.reshape(-1, 3)).reshape(-1, n_phi)
        energy += float(np.dot(row_weight[rows], np.sum(values ** 2, axis=1)))
    return energy


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


def spatial_truncation_report(spec, field, cap, c_by_scale, I_decay, *, b_emp):
    """Measured spatial truncation error against its structural envelope.

    ``measured`` is ||S F - S_kept F|| and ``dropped_quadratic_form`` is
    <(S F - S_kept F), F>, both over the cells dropped by
    ``spatial_index_set``.  ``structural_factor`` is
    [mu(Gamma) sum_j a^{-2j} c_j^{2-2I}]^{1/2} ||chi F|| with the
    approximate on-cap energy of ``cap_energy_split``.  ``leakage`` is
    b_emp ||(1-chi) F||, exact in the off-cap energy, with b_emp an upper
    frame bound (the CLI passes a 20-trial empirical one).
    """
    field = _check_field(spec, field)
    masks = spatial_index_set(spec, cap, c_by_scale)
    dropped = complement_masks(spec, masks)
    measured = apply_summation(spec, field, masks=dropped).norm()
    dropped_form = quadratic_form(spec, field, masks=dropped)
    chi_sq, leak_sq = cap_energy_split(spec, field, cap)
    structural_sum = 0.0
    for j in spec.scales:
        c_j = c_by_scale[j] if not np.isscalar(c_by_scale) else float(c_by_scale)
        structural_sum += spec.a ** (-2 * j) * c_j ** (2.0 - 2.0 * I_decay)
    structural = math.sqrt(cap.area * structural_sum) * math.sqrt(chi_sq)
    leakage = b_emp * math.sqrt(leak_sq)
    kept = int(sum(int(np.sum(masks[j])) for j in spec.scales))
    total = spec.total_cells()
    return SpatialTruncationReport(
        M=-spec.j_min, N=spec.j_max, cap_area=cap.area, I_decay=I_decay,
        measured=measured, structural_factor=structural, leakage=leakage,
        measured_to_structural=measured / structural if structural > 0 else math.inf,
        kept_cells=kept, dropped_cells=total - kept, dropped_quadratic_form=dropped_form)
