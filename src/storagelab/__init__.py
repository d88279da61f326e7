"""storagelab: Levy-driven storage processes, their long-run regimes, and rates.

A library and CLI for simulating content processes driven by subordinator
input with state-dependent release, classifying transience / null recurrence
/ positive recurrence, certifying drift conditions with predicted
convergence rates and stationary-tail envelopes, and validating those
predictions by Monte Carlo.
"""

__version__ = "0.1.0"

from .classifier import RegimeReport, classify
from .ergodicity_lab import (
    DecayCurve,
    TailEstimate,
    compare_rates,
    estimate_tail,
    estimate_tv_decay,
    estimate_wp_decay,
    laplace_check,
    w1_cdf_area,
    wasserstein_1d,
)
from .levy_input import (
    CompoundPoisson,
    DeterministicJumps,
    Exponential,
    GammaSub,
    ParetoJumps,
    StableSub,
    TabulatedTail,
    TemperedStableSub,
)
from .lyapunov import (
    DriftCertificate,
    PowerModulus,
    RateFunction,
    build_certificate,
    check_irreducibility_sufficient,
    check_wasserstein_contraction,
    generator_apply,
    tail_lower,
    tail_lower_log,
    tail_upper,
    tail_upper_exponential,
    tv_lower_rate,
)
from .numerics import (
    FitResult,
    fit_loglog,
    integrate_semiinfinite,
    invert_monotone,
)
from .presets import load_preset, preset_names, preset_row
from .release_rate import (
    Affine,
    Constant,
    Custom,
    Plateau,
    Power,
    PowerSmoothed,
    check_regularity,
    modulus_R,
)
from .scenario import Scenario
from .simulator import event_ensemble, grid_ensemble
