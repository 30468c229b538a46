"""Empirical stable tail dependence estimation with finite-sample checks.

The package bundles:

* seeded samplers for three closed-form tail dependence models,
* exact rank-based tail estimators and their order-statistic identity,
* deviation bounds over low-mass set families with their Monte Carlo
  verification machinery (coverage, relative Rademacher averages,
  pair-separation complexity),
* rate experiments for the tail estimator and for classification on
  rare feature regions, and
* a batch CLI that writes reproducible CSV reports plus manifests.
"""

from .classify import (
    AxisClassifier,
    ClassifierFamily,
    ExplicitRegion,
    LabeledGenerator,
    LabeledSample,
    QuantileRegion,
    axis_threshold_family,
    empirical_conditional_risk,
    erm,
    rate_experiment_classification,
    risk_decomposition_check,
    true_conditional_risk,
)
from .concentration import (
    BoundParams,
    PairSeparationEstimate,
    RademacherEstimate,
    RectClassSpec,
    bound_comparison,
    classical_vc_bound,
    low_mass_vc_bound,
    pair_separation_complexity,
    relative_rademacher,
    simplified_vc_bound,
    sup_empirical_deviation,
    union_mass,
)
from .empirical import (
    build_ranks,
    empirical_stdf,
    empirical_stdf_lattice,
    empirical_stdf_via_order_stats,
    empirical_tilde_F,
    jitter_columns,
    lattice_index,
    standardize,
)
from .errors import (
    ConfigurationError,
    DataError,
    PreconditionError,
    TailvcError,
    TiesError,
)
from .harness import (
    DeviationReport,
    ExperimentConfig,
    calibrate_constant,
    check_order_stat_event,
    coverage_against_bound,
    deviation_decomposition,
    fit_loglog_slope,
    lattice_rounding_sup,
    run_rate_experiment,
    stdf_deviation_bound,
    sup_stdf_deviation,
    sup_tail_process_deviation,
)
from .models import (
    StdfModel,
    bias_term,
    comonotone,
    eval_stdf,
    independence,
    logistic,
    parse_model,
    pre_limit_tail,
    sup_bias,
    tail_union_prob,
)
from .rng import substream
from .samplers import (
    GeneratorSpec,
    MarginSpec,
    Sample,
    apply_margins,
    draw_copula_sample,
    draw_sample,
    draw_tail_uniforms,
    parse_margin,
)

__version__ = "0.1.0"
