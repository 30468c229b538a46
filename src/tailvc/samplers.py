"""Seeded generators of multivariate samples with known tail dependence.

Every generator draws a base sample X with uniform margins from one of
the closed-form models and then pushes each column through a strictly
increasing margin transform.  Ranks, and therefore every rank statistic
downstream, are invariant under those transforms.

The logistic (Gumbel-family) generator uses the shared positive-stable
frailty construction: with S positive alpha-stable (alpha = 1/theta,
Laplace transform exp(-s^alpha)) and E_j iid unit exponentials,

    X_j = exp(-(E_j / S) ** (1/theta))

has uniform margins and the logistic copula with parameter theta.  The
construction is validated against the finite-level tail law by Monte
Carlo in the test suite rather than trusted blindly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DataError, PreconditionError
from .models import StdfModel
from .rng import substream


@dataclass(frozen=True)
class MarginSpec:
    """Strictly increasing margin transform with its survival inverse.

    ``transform`` maps a uniform value u in [0, 1] to the observed scale;
    ``survival`` maps an observed value x back to U = 1 - F(x).  Both are
    required so samples can be generated and margin-standardized exactly.
    """

    transform: Callable[[np.ndarray], np.ndarray]
    survival: Callable[[np.ndarray], np.ndarray]


def _pareto_margin(a: float) -> MarginSpec:
    if a <= 0:
        raise ConfigurationError(f"pareto margin index must be > 0, got {a}")
    return MarginSpec(
        transform=lambda u: (1.0 - u) ** (-1.0 / a),
        survival=lambda x: x ** (-a),
    )


_PARETO_RE = re.compile(r"^pareto\((?P<a>[^)]+)\)$")

_BUILTIN_MARGINS = {
    "uniform": MarginSpec(lambda u: u, lambda x: 1.0 - x),
    "exponential": MarginSpec(lambda u: -np.log1p(-u), lambda x: np.exp(-x)),
}


def parse_margin(tag) -> MarginSpec:
    """Resolve a margin tag: uniform | exponential | pareto(a) | MarginSpec."""
    if isinstance(tag, MarginSpec):
        return tag
    if not isinstance(tag, str):
        raise ConfigurationError(f"margin tag must be a string, got {tag!r}")
    tag = tag.strip()
    if tag in _BUILTIN_MARGINS:
        return _BUILTIN_MARGINS[tag]
    m = _PARETO_RE.match(tag)
    if m:
        try:
            a = float(m.group("a"))
        except ValueError:
            raise ConfigurationError(f"cannot parse pareto index in {tag!r}")
        return _pareto_margin(a)
    raise ConfigurationError(f"unsupported margin tag {tag!r}")


def parse_margins(tags, d: int) -> tuple:
    """One MarginSpec per column: one tag for every column, else one per column.

    ``tags`` is a single tag or MarginSpec, or a sequence of them.
    """
    if isinstance(tags, (str, MarginSpec)):
        tags = (tags,)
    specs = tuple(parse_margin(t) for t in tags)
    if len(specs) == 1:
        specs *= d
    if len(specs) != d:
        raise ConfigurationError(f"{len(specs)} margin tags for dimension {d}")
    return specs


@dataclass(frozen=True)
class GeneratorSpec:
    """Full recipe for one synthetic sample; equal specs give bit-equal data."""

    model: StdfModel
    n: int
    d: int
    seed: int
    margins: tuple = ("uniform",)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {self.n}")
        if self.d < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.d}")
        if self.model.d != self.d:
            raise ConfigurationError(
                f"model dimension {self.model.d} does not match spec dimension {self.d}"
            )
        object.__setattr__(self, "margins", parse_margins(self.margins, self.d))


@dataclass(frozen=True)
class Sample:
    """An n x d matrix of observations."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ConfigurationError("sample values must be a 2-d matrix")
        if not np.all(np.isfinite(values)):
            raise DataError("sample contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def draw_copula_sample(model: StdfModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows from the model copula (uniform margins, upper-tail dependence)."""
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    d = model.d
    if model.variant == "independence":
        return rng.random((n, d))
    if model.variant == "comonotone":
        u = rng.random(n)
        return np.tile(u[:, None], (1, d))
    theta = model.theta
    if theta == 1.0:
        return rng.random((n, d))
    s = _positive_stable(1.0 / theta, n, rng)
    # exp(-((e / s) ** (1 / theta))), in place on the exponentials; the
    # division goes column by column, as a length-d inner loop is slow
    e = rng.exponential(size=(n, d))
    for j in range(d):
        np.divide(e[:, j], s, out=e[:, j])
    e **= 1.0 / theta
    e = np.negative(e, out=e)
    return np.exp(e, out=e)


def draw_tail_uniforms(model: StdfModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the margin-standardized exceedance coordinates U = 1 - X.

    Small values of U correspond to large values of X, so the low corner
    of this sample carries the model's tail dependence.
    """
    x = draw_copula_sample(model, n, rng)
    return np.subtract(1.0, x, out=x)


def _positive_stable(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positive alpha-stable draws with Laplace transform exp(-s^alpha).

    Chambers-Mallows-Stuck form for 0 < alpha < 1:
        S = (sin(alpha V) / sin(V)^(1/alpha))
            * (sin((1 - alpha) V) / W)^((1 - alpha)/alpha)
    with V uniform on (0, pi) and W unit exponential.
    """
    if not 0 < alpha < 1:
        raise PreconditionError(f"stable index must lie in (0, 1), got {alpha}")
    v = rng.uniform(0.0, math.pi, size=n)
    w = rng.exponential(size=n)
    # the formula's operations, each written over an array it no longer
    # needs: a fresh n-row temporary costs its page faults
    sin_av = alpha * v
    np.sin(sin_av, out=sin_av)
    # at theta = 2, 1 - alpha == alpha: the same operand gives the same bits
    sin_rest = sin_av
    if 1.0 - alpha != alpha:
        sin_rest = (1.0 - alpha) * v
        np.sin(sin_rest, out=sin_rest)
    rest = np.divide(sin_rest, w, out=w)
    rest **= (1.0 - alpha) / alpha
    s = np.sin(v, out=v)
    s **= 1.0 / alpha
    s = np.divide(sin_av, s, out=s)
    s *= rest
    return s


def draw_sample(spec: GeneratorSpec) -> Sample:
    """Draw the spec's sample: its model copula, then its margins."""
    rng = substream(spec.seed, "sample")
    return _margins_in_place(draw_copula_sample(spec.model, spec.n, rng), spec.margins)


def apply_margins(sample: Sample, transforms) -> Sample:
    """Apply per-coordinate strictly increasing transforms; ranks unchanged."""
    specs = parse_margins(transforms, sample.d)
    return _margins_in_place(sample.values.copy(), specs)


def _margins_in_place(values: np.ndarray, specs) -> Sample:
    """Each column of ``values`` through its margin, written back in place."""
    for j, m in enumerate(specs):
        values[:, j] = m.transform(values[:, j])
    return Sample(values)
