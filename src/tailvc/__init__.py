"""Empirical stable tail dependence estimation with finite-sample checks.

The package bundles:

* seeded samplers for three closed-form tail dependence models,
* an exact tail estimator that reads only each column's tail,
* deviation bounds over low-mass set families with their Monte Carlo
  verification machinery (coverage, relative Rademacher averages,
  pair-separation complexity),
* rate experiments for the tail estimator and for classification on
  rare feature regions, and
* a batch CLI that writes reproducible CSV reports plus manifests.

``import tailvc`` loads no submodule: each exported name is imported from
its module on first use (PEP 562), so a process pays only for the modules
it reaches.
"""

import importlib

__version__ = "0.1.0"  # also the manifest's "version"; a test holds pyproject.toml to it

# each exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "classify": (
        "AxisClassifier", "ClassifierFamily", "ExplicitRegion", "LabeledGenerator",
        "LabeledSample", "QuantileRegion", "axis_threshold_family",
        "empirical_conditional_risk", "erm", "rate_experiment_classification",
        "risk_decomposition_check", "true_conditional_risk",
    ),
    "concentration": (
        "BoundParams", "PairSeparationEstimate", "RademacherEstimate", "RectClassSpec",
        "bound_comparison", "classical_vc_bound", "low_mass_vc_bound",
        "pair_separation_complexity", "relative_rademacher", "simplified_vc_bound",
        "sup_empirical_deviation", "union_mass",
    ),
    "empirical": (
        "build_ranks", "empirical_stdf_lattice", "jitter_columns", "lattice_index",
    ),
    "errors": (
        "ConfigurationError", "DataError", "PreconditionError", "TailvcError",
        "TiesError",
    ),
    "harness": (
        "DeviationReport", "ExperimentConfig", "calibrate_constant",
        "check_order_stat_event", "coverage_against_bound", "deviation_decomposition",
        "fit_loglog_slope", "run_rate_experiment", "stdf_deviation_bound",
        "sup_stdf_deviation",
    ),
    "models": (
        "StdfModel", "comonotone", "eval_stdf", "independence", "logistic",
        "parse_model", "pre_limit_tail", "sup_bias", "tail_union_prob",
    ),
    "rng": ("substream",),
    "samplers": (
        "GeneratorSpec", "MarginSpec", "Sample", "apply_margins", "draw_copula_sample",
        "draw_sample", "draw_tail_uniforms", "parse_margin",
    ),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # read from the module on every access, never cached here, so a name
    # rebound in its module is the one ``tailvc.<name>`` returns
    module = _MODULE_OF.get(name)
    if module is None:
        # also the answer ``from . import <submodule>`` needs to import it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
