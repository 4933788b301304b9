"""qbound: phase-space information metrics and estimation-error bounds for one qubit."""

from types import ModuleType as _ModuleType

from .bounds import (
    SweepRow,
    ab_coefficients,
    audit_derivation,
    bound_Cmax,
    bounds_sweep,
    metric_report,
    theorem_general,
)
from .derivatives import (
    R_MAX,
    R_MIN,
    coeff_h3r,
    coeff_k,
    coeff_k_tilde,
    deviation_h,
    new_log_derivative,
    rld,
    sld,
)
from .measurement import (
    EstimationContext,
    OutcomeDistribution,
    PovmFamily,
    ValidationReport,
    estimator_moments,
    gaussian_sharp_family,
    load_tabulated_csv,
    outcome_distribution,
    sample_outcomes,
    tabulated_family,
    tapered_sharp_family,
    validate_povm,
)
from .metrics import (
    MONOTONE_SPECS,
    husimi_classical_metric,
    measurement_fisher,
    monotone_metric,
    new_metric,
    rld_metric,
    sld_metric,
)
from .phasespace import husimi, husimi_partial, inverse_weyl, sw_kernel, weyl_map
from .quadrature import QuadSpec, QuadratureError, integrate_1d, sphere_integrate
from .qubit import (
    DomainError,
    ParamIndex,
    QubitState,
    d_rho,
    density_matrix,
    eig2,
    pauli_decomposition,
)

__version__ = "0.1.0"

# every public name bound above; the layer modules themselves are not exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
