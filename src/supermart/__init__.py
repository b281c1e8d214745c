"""supermart: a lab for supercritical branching martingale convergence rates.

Build a finite-type model, extract its Perron eigentriple, evaluate the
moment criteria that predict how fast the natural martingale converges, then
simulate paths (Galton-Watson, multitype CSBP, or the size-biased spine
process) and check the predictions against ensemble statistics.
"""

from .errors import ModelValidationError, NumericalError, SpectralError, SupermartError
from .model import (
    AtomList,
    GWModel,
    Model,
    StablePowerLaw,
    model_from_json,
    model_to_json,
    gw_from_json,
    gw_to_json,
)
from .spectral import (
    CtCurve,
    Eigentriple,
    assumption2_report,
    c_of_t,
    principal_eigentriple,
    semigroup_apply,
    spectral_gap,
)
from .criteria import (
    CriteriaReport,
    Predictions,
    evaluate_criteria,
    gw_predictions,
    llogl,
    log_moment,
    lower_bound_b,
    p_moment,
    conjugate,
)
from .sim import (
    Ensemble,
    SimConfig,
    SpineConfig,
    SpineResult,
    auto_epsilon,
    simulate_csbp,
    simulate_gw,
    simulate_spine,
    tilted_generator,
)
from .functionals import (
    FunctionalCurve,
    a_functional,
    a_tilde_functional,
    c_functionals,
    lemma_A_residual,
    lemma_C_residual,
    window_average,
)
from .rates import (
    RateFit,
    as_rate_check,
    fit_exponential,
    fit_power,
    lp_curve,
    poly_rate_check,
    window_law_check,
)

__version__ = "0.1.0"
