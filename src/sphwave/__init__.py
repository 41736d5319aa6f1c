"""Directional spherical wavelets with steerable angular selectivity."""

from .sphfn import (CoefficientTable, ColatGrid, SphericalGridSpec,
                    SphericalSignal, analyze_signal, coef_index,
                    default_grid_spec, grid_phis, make_colat_grid,
                    synthesize_signal)
from .profiles import (FAMILIES, FAMILY_ORDER, WaveletSpec,
                       angular_coefficient, angular_window, default_k_cut,
                       dog_window, evaluate_wavelet, omega_profile,
                       poisson_kernel, upsilon_profile, wavelet_norm_sq)
from .admissibility import (AdmissibilityReport, admissibility_integral,
                            admissibility_report, analytic_upper_bound,
                            wavelet_coefficient, wavelet_coefficient_table)
from .so3 import (Rotation, ScaleSequence, SO3Grid, make_rotation,
                  make_scale_sequence, make_so3_grid)
from .transform import (FrameConvergenceError, FrameOperatorConfig,
                        TransformCoefficients, adjoint_transform,
                        forward_transform, frame_apply, frame_matrix,
                        reconstruct, rotate_coefficients, uniform_specs)
from .multiselect import (SelectivityMap, SelectivitySet, adaptive_analysis,
                          refine_tau, select_tau, selectivity_scan)
from .fileio import (FileFormatError, read_coefficients,
                     read_selectivity_rows, read_signal, write_coefficients,
                     write_selectivity_csv, write_signal)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable", "ColatGrid", "SphericalGridSpec", "SphericalSignal",
    "analyze_signal", "coef_index", "default_grid_spec", "grid_phis",
    "make_colat_grid", "synthesize_signal",
    "FAMILIES", "FAMILY_ORDER", "WaveletSpec",
    "angular_coefficient", "angular_window", "dog_window",
    "evaluate_wavelet", "omega_profile", "poisson_kernel", "upsilon_profile",
    "wavelet_norm_sq",
    "AdmissibilityReport", "admissibility_integral", "admissibility_report",
    "analytic_upper_bound", "default_k_cut",
    "wavelet_coefficient", "wavelet_coefficient_table",
    "Rotation", "ScaleSequence", "SO3Grid", "make_rotation",
    "make_scale_sequence", "make_so3_grid",
    "FrameConvergenceError", "FrameOperatorConfig", "TransformCoefficients",
    "adjoint_transform", "forward_transform", "frame_apply",
    "frame_matrix", "reconstruct", "rotate_coefficients", "uniform_specs",
    "SelectivityMap", "SelectivitySet", "adaptive_analysis", "refine_tau",
    "select_tau", "selectivity_scan",
    "FileFormatError", "read_coefficients",
    "read_selectivity_rows", "read_signal", "write_coefficients",
    "write_selectivity_csv", "write_signal",
]
