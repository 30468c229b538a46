"""Deviation bounds and Monte Carlo estimators over low-mass set families.

The set family is the d-parameter collection of lower-orthant unions

    A(x) = {z in [0,1]^d : z_j < (k/n) x_j for some j},   0 <= x_j <= T,

whose shattering capacity is d and whose union carries total mass
p <= d T k/n under uniform margins.  This module evaluates

* the mass-aware deviation bound  C (sqrt(p) sqrt(V/n log(1/delta)) +
  (1/n) log(1/delta)) and its simplified form under delta >= exp(-n p),
* the classical renormalized VC bound carrying the extra log n factor,
* the exact supremum of |empirical - true| set mass over the family,
* the relative Rademacher average, renormalized by n p, and
* the pair-separation complexity: how often some set in the family
  contains exactly one of two independent draws (always at most 2 p).

The multiplicative constants in the bounds are existential; callers
calibrate them on pilot runs and freeze them, so `C` is an explicit
parameter everywhere (default 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import ConfigurationError, PreconditionError, TailvcError
from .gridscan import (
    SupEstimate,
    declared_axis,
    scan_is_exact,
    sup_count_vs_mass,
    sup_count_vs_mass_grid,
    sup_signed_count,
)
from .models import StdfModel, parse_model, tail_union_prob, tail_union_prob_axes
from .rng import substream
from .samplers import draw_tail_uniforms


@dataclass(frozen=True)
class RectClassSpec:
    """Scaled orthant-union family on [0,1]^d; shattering dimension = d."""

    d: int
    k: int
    n: int
    T: float

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.d}")
        if not 1 <= self.k <= self.n:
            raise ConfigurationError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not self.T > 0:
            raise ConfigurationError(f"region parameter T must be > 0, got {self.T}")

    @property
    def scale(self) -> float:
        return self.k / self.n

    @property
    def box_edge(self) -> float:
        """Per-coordinate threshold ceiling (k/n) T of the union region."""
        return self.scale * self.T

    @property
    def vc_dimension(self) -> int:
        return self.d


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the deviation bounds; V is the class dimension."""

    n: int
    V: int
    p: float
    delta: float
    C: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.V < 1:
            raise ConfigurationError(f"V must be >= 1, got {self.V}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"union mass must lie in [0, 1], got {self.p}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 <= self.C < math.inf:
            raise ConfigurationError(f"C must be finite and >= 0, got {self.C}")


@dataclass(frozen=True)
class RademacherEstimate:
    mean: float
    trials: int
    stderr: float
    n: int
    p: float
    values: tuple = ()


@dataclass(frozen=True)
class PairSeparationEstimate:
    value: float
    stderr: float
    pairs: int
    p: float


def _resolve_model(model, d: int) -> StdfModel:
    if isinstance(model, StdfModel):
        if model.d != d:
            raise ConfigurationError(
                f"model dimension {model.d} does not match class dimension {d}"
            )
        return model
    return parse_model(str(model), d)


def union_mass(cls: RectClassSpec, model) -> float:
    """Exact mass p of the union region under the given uniform-margin law."""
    model = _resolve_model(model, cls.d)
    a = cls.box_edge
    if a > 1.0 + 1e-12:
        raise PreconditionError(
            f"(k/n) T = {a:g} exceeds 1; the union region leaves the unit cube"
        )
    p = float(tail_union_prob(model, np.full(cls.d, min(a, 1.0))))
    # subadditivity guarantees p <= d (k/n) T; anything above is a model fault
    if p > cls.d * a + 1e-12:
        raise TailvcError(
            f"union mass p = {p!r} exceeds its subadditivity cap "
            f"d (k/n) T = {cls.d * a!r}"
        )
    return p


def low_mass_vc_bound(params: BoundParams) -> float:
    """Mass-aware deviation bound with an explicit constant."""
    log_term = math.log(1.0 / params.delta)
    return params.C * (
        math.sqrt(params.p) * math.sqrt(params.V / params.n * log_term)
        + log_term / params.n
    )


def simplified_vc_bound(params: BoundParams) -> float:
    """Single-term form, valid when delta >= exp(-n p)."""
    if params.delta < math.exp(-params.n * params.p):
        raise PreconditionError(
            f"simplified bound needs delta >= exp(-n p) = "
            f"{math.exp(-params.n * params.p):.3g}, got delta = {params.delta}"
        )
    log_term = math.log(1.0 / params.delta)
    return params.C * math.sqrt(params.p) * math.sqrt(params.V / params.n * log_term)


def classical_vc_bound(params: BoundParams) -> float:
    """Renormalized classical VC bound via the shattering-number estimate.

    2 sqrt(p) sqrt((V log(2 e n / V) + log(4/delta)) / n); carries an
    extra sqrt(log n) relative to low_mass_vc_bound as n grows.
    """
    if params.n < params.V:
        raise PreconditionError(
            f"classical bound needs n >= V, got n={params.n}, V={params.V}"
        )
    inner = (
        params.V * math.log(2.0 * math.e * params.n / params.V)
        + math.log(4.0 / params.delta)
    ) / params.n
    return 2.0 * math.sqrt(params.p) * math.sqrt(inner)


def bound_comparison(
    n_grid, V: int, p: float, delta: float, C: float = 1.0
) -> list[dict]:
    """Side-by-side bounds across n at fixed (p, V, delta, C).

    The ratio classical/low-mass grows like sqrt(log n); emitting the
    table makes the extra logarithmic factor visible.
    """
    rows = []
    for n in n_grid:
        params = BoundParams(n=int(n), V=V, p=p, delta=delta, C=C)
        low = low_mass_vc_bound(params)
        classical = classical_vc_bound(params)
        rows.append(
            {
                "n": int(n),
                "low_mass_bound": low,
                "classical_bound": classical,
                "ratio": classical / low,
            }
        )
    return rows


def sup_empirical_deviation(
    u: np.ndarray,
    cls: RectClassSpec,
    model,
    grid_resolution: int | None = None,
) -> SupEstimate:
    """Supremum over the family of |true set mass - empirical set mass|.

    Exact for d <= 2 by scanning the cells where the count is constant
    against the monotone continuous mass at cell corners.  For d >= 3 an
    explicit grid resolution must be declared; the result then carries a
    reported discretization bound.
    """
    model = _resolve_model(model, cls.d)
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != cls.d:
        raise PreconditionError(f"sample must be an n x {cls.d} matrix")
    edge = cls.box_edge
    if edge > 1.0 + 1e-12:
        raise PreconditionError(f"(k/n) T = {edge:g} exceeds 1")
    mass_fn, tmax = partial(tail_union_prob_axes, model), np.full(cls.d, edge)
    if scan_is_exact(cls.d, grid_resolution):
        return SupEstimate(value=sup_count_vs_mass(u, tmax, mass_fn))
    return sup_count_vs_mass_grid(u, tmax, mass_fn, grid_resolution)


def relative_rademacher(
    model,
    cls: RectClassSpec,
    trials: int,
    seed: int,
    grid_resolution: int | None = None,
) -> RademacherEstimate:
    """Monte Carlo mean of sup_A |sum_i sigma_i 1{Z_i in A}| / (n p).

    Each trial draws a fresh sample from the model law and fresh
    independent signs.  The inner supremum is exact for d <= 2, scanned
    on the data's own breakpoints; d >= 3 must declare a grid resolution
    and gets a grid scan instead.
    """
    if trials < 2:
        raise ConfigurationError(f"need at least 2 trials, got {trials}")
    model = _resolve_model(model, cls.d)
    p = union_mass(cls, model)
    if p <= 0:
        raise PreconditionError("union mass is zero; renormalization undefined")
    edge = cls.box_edge
    axes = (None if scan_is_exact(cls.d, grid_resolution)
            else [declared_axis(edge, grid_resolution)] * cls.d)
    values = np.empty(trials)
    for t in range(trials):
        rng = substream(seed, "rademacher", t)
        z = draw_tail_uniforms(model, cls.n, rng)
        signs = rng.integers(0, 2, size=cls.n) * 2 - 1
        values[t] = sup_signed_count(
            z, signs, np.full(cls.d, edge), axes=axes
        ) / (cls.n * p)
    return RademacherEstimate(
        mean=float(values.mean()),
        trials=trials,
        stderr=float(values.std(ddof=1) / math.sqrt(trials)),
        n=cls.n,
        p=p,
        values=tuple(float(v) for v in values),
    )


def pair_separation_complexity(
    model,
    cls: RectClassSpec,
    pairs: int,
    seed: int,
    coupled: bool = False,
) -> PairSeparationEstimate:
    """Estimate of q: the chance some set in the family splits a pair.

    A set A(x) contains Z but not Z' exactly when some coordinate j has
    Z_j < min(Z'_j, (k/n) T), so the supremum over the family is decided
    coordinatewise without enumeration.  ``coupled=True`` draws Z' = Z
    (degenerate coupling hook; the estimate is then exactly 0).
    """
    if pairs < 2:
        raise ConfigurationError(f"need at least 2 pairs, got {pairs}")
    model = _resolve_model(model, cls.d)
    p = union_mass(cls, model)
    edge = cls.box_edge
    rng = substream(seed, "pair-separation")
    z = draw_tail_uniforms(model, pairs, rng)
    z2 = z if coupled else draw_tail_uniforms(model, pairs, rng)
    # the pair is split on coordinate j either way round; OR over the columns
    split = reduce(np.logical_or, (
        ((a < b) & (a < edge)) | ((b < a) & (b < edge)) for a, b in zip(z.T, z2.T)
    ))
    q_hat = float(split.mean())
    stderr = math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / pairs)
    return PairSeparationEstimate(value=q_hat, stderr=stderr, pairs=pairs, p=p)
