"""Grid discretization of the operator pieces and decay experiments."""

from .cutoffs import bump_profile, phi0, phi_radial
from .grid import Grid
from .operators import (ComposedOperator, FourierMultiplier,
                        SparseKernelOperator, discretize_tj, discretize_uj,
                        pjk_multiplier, qj_multiplier)
from .norms import DecayFit, decay_slope, largest_singular_value, operator_norm
from .experiments import (DecayRow, decay_table, dual_principal_check,
                          fit_decay_rows, knapp_exponent_table, knapp_integral,
                          q_resolved, p_shell_resolved)

__all__ = [
    "Grid", "SparseKernelOperator", "FourierMultiplier", "ComposedOperator",
    "discretize_tj", "discretize_uj", "qj_multiplier", "pjk_multiplier",
    "operator_norm", "largest_singular_value", "decay_slope", "DecayFit",
    "DecayRow", "decay_table", "fit_decay_rows", "knapp_integral",
    "knapp_exponent_table", "dual_principal_check", "q_resolved",
    "p_shell_resolved", "phi0", "phi_radial", "bump_profile",
]
