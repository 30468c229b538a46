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

Both Monte Carlo estimators read their draws a block of rows at a time
(``samplers.draw_copula_blocks``) and keep only the rows inside the box
[0, (k/n) T)^d on some axis, about n p of the n: a row at or above the
edge on every axis is in no set, and changes neither estimate.

The multiplicative constants in the bounds are existential; callers
calibrate them on pilot runs and freeze them, so `C` is an explicit
parameter everywhere (default 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .models import StdfModel, tail_union_prob, tail_union_prob_axes
from .rng import map_trials, substream
from .samplers import ROW_BLOCK, draw_copula_blocks


@dataclass(frozen=True)
class RectClassSpec:
    """Scaled orthant-union family on [0,1]^d under the law ``model``, whose d
    it takes; its union mass ``p`` is computed and checked once, here."""

    model: StdfModel
    k: int
    n: int
    T: float
    p: float = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ConfigurationError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not self.T > 0:
            raise ConfigurationError(f"region parameter T must be > 0, got {self.T}")
        a = self.box_edge
        if a > 1.0 + 1e-12:
            raise PreconditionError(
                f"(k/n) T = {a:g} exceeds 1; the union region leaves the unit cube"
            )
        p = float(tail_union_prob(self.model, np.full(self.d, min(a, 1.0))))
        # subadditivity guarantees p <= d (k/n) T; anything above is a model fault
        if p > self.d * a + 1e-12:
            raise TailvcError(
                f"union mass p = {p!r} exceeds its subadditivity cap "
                f"d (k/n) T = {self.d * a!r}"
            )
        if p <= 0:
            raise PreconditionError("union mass is zero; renormalization undefined")
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.model.d

    @property
    def scale(self) -> float:
        return self.k / self.n

    @property
    def box_edge(self) -> float:
        """Per-coordinate threshold ceiling (k/n) T of the union region."""
        return self.scale * self.T


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
    values: tuple = ()


@dataclass(frozen=True)
class PairSeparationEstimate:
    value: float
    stderr: float
    pairs: int


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
    grid_resolution: int | None = None,
) -> SupEstimate:
    """Supremum over the family of |true set mass - empirical set mass|.

    Exact for d <= 2 by scanning the cells where the count is constant
    against the monotone continuous mass at cell corners.  For d >= 3 an
    explicit grid resolution must be declared; the result then carries a
    reported discretization bound.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != cls.d:
        raise PreconditionError(f"sample must be an n x {cls.d} matrix")
    mass_fn, tmax = partial(tail_union_prob_axes, cls.model), np.full(cls.d, cls.box_edge)
    if scan_is_exact(cls.d, grid_resolution):
        return SupEstimate(value=sup_count_vs_mass(u, tmax, mass_fn))
    return sup_count_vs_mass_grid(u, tmax, mass_fn, grid_resolution)


def relative_rademacher(
    cls: RectClassSpec,
    trials: int,
    seed: int,
    grid_resolution: int | None = None,
    workers: int = 1,
) -> RademacherEstimate:
    """Monte Carlo mean of sup_A |sum_i sigma_i 1{Z_i in A}| / (n p).

    Each trial draws a fresh sample from the class's law and fresh
    independent signs, from its own stream ``substream(seed,
    "rademacher", t)``, so at most ``workers`` processes run the trials
    (``rng.map_trials``) with the same values.  The inner supremum is
    exact for d <= 2, scanned on the data's own breakpoints; d >= 3 must
    declare a grid resolution and gets a grid scan instead, whose value,
    the largest over boxes with corners on that grid, is a lower bound on
    the supremum, with no slack reported.
    """
    if trials < 2:
        raise ConfigurationError(f"need at least 2 trials, got {trials}")
    axes = (None if scan_is_exact(cls.d, grid_resolution)
            else [declared_axis(cls.box_edge, grid_resolution)] * cls.d)
    jobs = [(cls, seed, t, axes) for t in range(trials)]
    values = np.array(map_trials(_rademacher_trial, jobs, workers)) / (cls.n * cls.p)
    return RademacherEstimate(
        mean=float(values.mean()),
        trials=trials,
        stderr=float(values.std(ddof=1) / math.sqrt(trials)),
        values=tuple(float(v) for v in values),
    )


def _rademacher_trial(cls: RectClassSpec, seed: int, t: int, axes) -> float:
    """Trial t's sup_A |sum_i sigma_i 1{Z_i in A}|, from the rows the box reaches.

    A row at or above the edge on every axis is in no set, so it adds its
    sign to the total and to every node's dominated sum alike, and
    ``sup_signed_count``'s total - min and max - total do not see it; nor
    does it add a breakpoint.  So the trial keeps the other rows of its
    draw, a block at a time, and their signs only.
    """
    rng = substream(seed, "rademacher", t)
    rows, z = _near_rows(cls.model, cls.n, cls.box_edge, rng)
    signs = np.empty(rows.size, dtype=np.int64)
    for lo in range(0, cls.n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, cls.n)
        a, b = np.searchsorted(rows, (lo, hi))
        signs[a:b] = rng.integers(0, 2, size=hi - lo)[rows[a:b] - lo]
    signs *= 2
    signs -= 1
    return sup_signed_count(z, signs, np.full(cls.d, cls.box_edge), axes=axes)


def _near_rows(model, n: int, edge: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``draw_tail_uniforms(model, n, rng)`` some set can hold.

    Returns their ascending indices and values, drawn a block at a time
    with the full draw's bits.  A row is dropped when it is finite and at
    or above ``edge`` on every axis; a row holding NaN is kept, so a check
    downstream sees it.
    """
    rows, kept, lo = [], [], 0
    for x in draw_copula_blocks(model, n, rng, ROW_BLOCK):
        z = np.subtract(1.0, x, out=x)
        far = reduce(np.logical_and, ((c >= edge) & (c < math.inf) for c in z.T))
        keep = np.flatnonzero(~far)
        rows.append(keep + lo)
        kept.append(z[keep])
        lo += len(z)
    return np.concatenate(rows), np.concatenate(kept)


def pair_separation_complexity(
    cls: RectClassSpec,
    pairs: int,
    seed: int,
) -> PairSeparationEstimate:
    """Estimate of q: the chance some set in the family splits a pair.

    A set A(x) contains Z but not Z' exactly when some coordinate j has
    Z_j < min(Z'_j, (k/n) T), so the supremum over the family is decided
    coordinatewise without enumeration.  Z' is read a block at a time
    against the kept rows of Z (``_pair_splits``).
    """
    if pairs < 2:
        raise ConfigurationError(f"need at least 2 pairs, got {pairs}")
    edge = cls.box_edge
    rng = substream(seed, "pair-separation")
    rows, z = _near_rows(cls.model, pairs, edge, rng)
    splits, lo = 0, 0
    for x in draw_copula_blocks(cls.model, pairs, rng, ROW_BLOCK):
        a, b = np.searchsorted(rows, (lo, lo + len(x)))
        split = _pair_splits(z[a:b], rows[a:b] - lo, np.subtract(1.0, x, out=x), edge)
        splits += int(np.count_nonzero(split))
        lo += len(x)
    q_hat = splits / pairs
    stderr = math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / pairs)
    return PairSeparationEstimate(value=q_hat, stderr=stderr, pairs=pairs)


def _pair_splits(near: np.ndarray, rows: np.ndarray, z2: np.ndarray,
                 edge: float) -> np.ndarray:
    """Which pairs of a block of Z' some set splits.

    ``near`` holds Z's kept rows, at positions ``rows`` of the block; every
    other Z is at or above the edge on every axis, so its pair is split
    exactly when Z' has a coordinate below the edge.
    """
    split = reduce(np.logical_or, (v < edge for v in z2.T))
    # the pair is split on coordinate j either way round; OR over the columns
    split[rows] = reduce(np.logical_or, (
        ((u < v) & (u < edge)) | ((v < u) & (v < edge))
        for u, v in zip(near.T, z2[rows].T)
    ))
    return split
