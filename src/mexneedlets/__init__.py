"""Nearly tight wavelet frames on the sphere from spectral filters.

Build frames phi_{j,k} = mu(E_{j,k})^{1/2} K_{a^j}(x_{j,k}, .) out of
filters of the Laplace-Beltrami operator, evaluate their kernels two
independent ways, and verify frame bounds, truncation estimates and the
tight cutoff-needlet comparison at desk scale.
"""

from .filters import SpectralFilter, calderon_constant, parse_filter
from .daubechies import (DaubechiesBounds, daubechies_bounds, daubechies_sum,
                         eigen_daubechies_sum, truncated_daubechies_sum)
from .harmonics import multiplicity, real_sh_matrix, sh_index, sphere_eigenvalue
from .fields import HarmonicField, evaluate_field
from .cubature import CubatureRule, cubature_rule, cubature_to_csv
from .partition import (GreedyPartition, ScalePartition, build_partition,
                        greedy_ball_partition, partition_to_json, rect_diameter)
from .kernels import (KernelProfile, kernel_gaussian_approx, kernel_profile,
                      kernel_series, series_gaussian_max_diff)
from .frame import (FrameBounds, FrameSpec, analyze, apply_summation, default_scale_window,
                    empirical_frame_bounds, frame_element, quadratic_form, rayleigh_quotient)
from .truncation import (FrequencyBoundReport, GeodesicCap, SpatialTruncationReport,
                         fit_riemann_constant, frequency_bound, measured_truncation_error,
                         moment_constant, spatial_index_set, spatial_truncation_report,
                         spectral_tail_norm, window_margin)
from .needlets import (NeedletFrame, build_needlet_frame, crossing_bracket,
                       crossing_index, hybrid_cut_degree, hybrid_rate, hybrid_tail_diagnostics,
                       needlet_analyze, needlet_frame_element, tightness_ratio,
                       tail_bound_lhs_rhs)
from . import errors

__version__ = "0.1.0"
