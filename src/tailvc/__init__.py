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

Each name is imported from the module that defines it
(``from tailvc.empirical import build_ranks``); ``import tailvc`` loads no
submodule, so a process pays only for the modules it imports.
"""

__version__ = "0.1.0"  # also the manifest's "version"; a test holds pyproject.toml to it
