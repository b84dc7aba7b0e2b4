"""Inference for misspecified linear minimum-distance models.

Pseudo-true parameters, population J-statistics, norm-bound identified sets,
posteriors under rotation-invariant misspecification priors, J-scaled
confidence intervals with exact average coverage, and the Monte Carlo engines
that verify those properties.
"""

from misspec.errors import (
    DegenerateLimitError,
    DomainError,
    ImproperPriorError,
    InputError,
    JustIdentifiedError,
    MisspecError,
    ModelValidationError,
    NumericalError,
    ResampleRequiredError,
)
from misspec.inference import (
    InferenceConfig,
    InferenceReport,
    Interval,
    LocalExperiment,
    analyze,
    confidence_interval,
    finite_sample_ci,
    identified_set_membership,
    identified_set_projection,
    local_ci,
    pivotal_t_stat,
)
from misspec.model import (
    EtaDecomposition,
    ModelInstance,
    PseudoTrueResult,
    decompose_eta,
    implied_eta,
    objective,
    pseudo_true,
    sigma_v,
)
from misspec.montecarlo import (
    CoverageResult,
    SweepTrace,
    run_concentration,
    run_contamination,
    run_coverage,
    run_pivotality,
    run_tails,
)
from misspec.posteriors import (
    ClosedFormPosterior,
    ThetaPrior,
    bayes_action_quadratic,
    closed_form_posterior,
    mass_outside_ball,
    normal_posterior,
    tv_distance,
)
from misspec.priors import (
    NormalRadial,
    PowerLawRadial,
    ScaledPrior,
    StudentTRadial,
    density,
    parse_radial,
    sample_eta,
    tail_ratio,
)
from misspec.scenarios import (
    IVDgpParams,
    IVScenario,
    LogitScenario,
    iv_population_model,
    iv_sample,
    logit_inverse_link,
    logit_link,
    logit_population_model,
)
from misspec.special import StudentT, log_gamma, reg_inc_beta, t_cdf, t_quantile

__version__ = "0.1.0"
