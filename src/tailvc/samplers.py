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

Two forms of the draw serve callers that need only part of it, each with
the full draw's bits: ``draw_copula_tail`` computes only the rows that
can reach some column's largest values, and ``draw_copula_blocks`` hands
the draw over a block of rows at a time, so its caller keeps what it
needs of each block.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator

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
        # min and max pass NaN and +-inf on, and allocate no n x d mask
        if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
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
    alpha = 1.0 / theta
    # S before the exponentials are drawn: V, W and S's temporaries are
    # never held beside the n x d matrix.  standard_exponential gives the
    # values of exponential(scale=1.0), which multiplies each by 1.0, in
    # half its time
    v = rng.uniform(0.0, math.pi, size=n)
    s = _stable_frailty(alpha, v, rng.standard_exponential(n))
    return _logistic_copula(alpha, rng.standard_exponential((n, d)), s)


# Rows per block of ``draw_copula_blocks``: 256 KiB of float64 at d = 2.
ROW_BLOCK = 1 << 14


def draw_copula_blocks(model: StdfModel, n: int, rng: np.random.Generator,
                       rows: int = ROW_BLOCK) -> Iterator[np.ndarray]:
    """``draw_copula_sample(model, n, rng)`` as successive blocks of ``rows``
    rows, with its bits, so a caller holds one block of the draw at a time.

    Independence, comonotone and logistic theta = 1 take a row's random
    words in row order, so each block is that model's draw of its rows.
    The logistic frailty draw takes V and W for every row before any E, so
    S is formed whole, as the full draw forms it, and each block draws
    its rows of E and meets them with its rows of S; both steps are
    elementwise, so each block has the full draw's bits.  Each block is
    drawn from ``rng`` when the caller reads it.
    """
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    if model.variant != "logistic" or model.theta == 1.0:
        for lo in range(0, n, rows):
            yield draw_copula_sample(model, min(rows, n - lo), rng)
        return
    alpha = 1.0 / model.theta
    s = _stable_frailty(alpha, rng.uniform(0.0, math.pi, size=n),
                        rng.standard_exponential(n))
    for lo in range(0, n, rows):
        e = rng.standard_exponential((min(rows, n - lo), model.d))
        yield _logistic_copula(alpha, e, s[lo:lo + rows])


def draw_tail_uniforms(model: StdfModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the margin-standardized exceedance coordinates U = 1 - X.

    Small values of U correspond to large values of X, so the low corner
    of this sample carries the model's tail dependence.
    """
    x = draw_copula_sample(model, n, rng)
    return np.subtract(1.0, x, out=x)


def draw_copula_tail(model: StdfModel, n: int, m: int,
                     rng: np.random.Generator) -> tuple[np.ndarray | None, np.ndarray]:
    """The rows of ``draw_copula_sample(model, n, rng)`` that can reach some
    column's m largest values, with their values bit for bit.

    Returns (rows, x): ascending row indices and the c x d matrix of their
    values, so every column's m largest values of the whole draw, and the
    rows holding them, are among these rows.  ``rows`` is None when x is
    the whole draw: for every model but the logistic one at theta > 1,
    and when m >= n.

    The logistic tail draw takes the same random words in the same order
    as the full draw (V, W, then the n x d exponentials E) and computes x
    only on the rows it keeps.  Larger x_j is smaller q_j = E_j / S, and by
    the Chambers-Mallows-Stuck identity S = S1(V) W^(-beta), beta =
    (1 - alpha) / alpha, with S1 = A^beta for Zolotarev's function A,
    strictly increasing on (0, pi).  So q_j is bracketed from V's bucket in
    a table of S1 (``_s1_reciprocals``) with no sine, and a row is kept
    when its lower bound in some column is at most that column's m-th
    smallest upper bound.  The kept rows' x comes from the helpers of the
    full draw, elementwise on arrays, so it has the full draw's bits.
    """
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    if m < 1:
        raise PreconditionError(f"the tail must hold at least one value, got m = {m}")
    if model.variant != "logistic" or model.theta == 1.0 or m >= n:
        return None, draw_copula_sample(model, n, rng)
    alpha = 1.0 / model.theta
    v = rng.uniform(0.0, math.pi, size=n)
    w = rng.standard_exponential(n)
    rows, e = _tail_candidates(alpha, v, w, m, model.d, rng)
    return rows, _logistic_copula(alpha, e, _stable_frailty(alpha, v[rows], w[rows]))


# The tail draw's table of S1 has _S1_BUCKETS buckets of V over [0, pi);
# its bound pass draws the exponentials _TAIL_CHUNK rows at a time.
_S1_BUCKETS = 1 << 14
_TAIL_CHUNK = 1 << 14
# 1 / S1's upper bound in the first and last buckets, which V -> 0, V -> pi
# and a 0/0 frailty fall in: finite, so a zero E or W gives 0, not 0 * inf.
# It exceeds 1 / S1 there (S1 -> alpha (1 - alpha)^beta as V -> 0), and
# E W^beta stays below 1e100 for theta <= 50, above the models' limit of 40.
_EDGE_RECIPROCAL = 1e200


@functools.lru_cache(maxsize=4)
def _s1_reciprocals(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on 1 / S1(V) per bucket of V: (lower, upper) factors.

    S1(v) = sin(alpha v) sin((1 - alpha) v)^beta / sin(v)^(1/alpha) is
    taken at the bucket edges b pi / B.  Bucket b = floor(V B / pi) reads
    the edges b - 1 and b + 2, one bucket wider on each side than V's own,
    so a rounded bucket index still brackets V.  A relative slack of
    1e-9 (1 + beta)^2 covers the rounding of the table and of the full
    draw's S, both within about (1 + beta)^2 * 100 ulp.  The first and
    last buckets, and index B (V B / pi rounded up), bound nothing: they
    always pass.  The arrays are read-only, as the cache shares them.
    """
    buckets = _S1_BUCKETS
    beta = (1.0 - alpha) / alpha
    slack = 1e-9 * (1.0 + beta) ** 2
    edges = np.arange(1, buckets) * (math.pi / buckets)
    s1 = np.empty(buckets + 1)
    # S1 rises from alpha (1 - alpha)^beta at V -> 0 to inf at V -> pi
    s1[0], s1[buckets] = alpha * (1.0 - alpha) ** beta, np.inf
    s1[1:buckets] = (np.sin(alpha * edges) * np.sin((1.0 - alpha) * edges) ** beta
                     / np.sin(edges) ** (1.0 / alpha))
    b = np.arange(buckets + 1)
    s1_low = s1[np.maximum(b - 1, 0)] * (1.0 - slack)
    s1_high = s1[np.minimum(b + 2, buckets)] * (1.0 + slack)
    lower, upper = np.zeros(buckets + 1), np.full(buckets + 1, _EDGE_RECIPROCAL)
    inner = slice(1, buckets - 1)
    lower[inner] = 1.0 / s1_high[inner]
    upper[inner] = 1.0 / s1_low[inner]
    lower.flags.writeable = upper.flags.writeable = False
    return lower, upper


def _tail_candidates(alpha: float, v: np.ndarray, w: np.ndarray, m: int, d: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The rows that can hold some column's m smallest q_j = E_j / S, and their E.

    Draws E = ``rng.standard_exponential((n, d))`` a chunk of rows at a time
    (the same values: the generator fills row by row), so only a chunk of
    E is held.  q_j lies in [E_j W^beta lower, E_j W^beta upper] with the
    bucket factors of ``_s1_reciprocals``.  tau_j, the m-th smallest upper
    bound in column j, is at least the m-th smallest q_j, so the rows
    with a lower bound above tau_j in every column are not needed.  tau
    over the chunks read so far only falls as chunks are added, so each
    chunk keeps the rows that pass the tau of the chunks before it, and
    the final tau sorts them out.  A row a chunk drops has every upper
    bound above tau as well, so only the kept rows' upper bounds are
    formed to lower tau.
    """
    n = v.size
    beta = (1.0 - alpha) / alpha
    lower, upper = _s1_reciprocals(alpha)
    scale = _S1_BUCKETS / math.pi
    chunk = max(_TAIL_CHUNK, m)
    best = [np.empty(0)] * d  # per column, the m smallest upper bounds so far
    tau = [np.inf] * d
    kept_rows, kept_e, kept_low = [], [], []
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        e = rng.standard_exponential((hi - lo, d))
        bucket = (v[lo:hi] * scale).astype(np.intp)
        wb = w[lo:hi] ** beta
        low_factor = wb * lower[bucket]
        low = np.empty_like(e)
        for j in range(d):
            np.multiply(e[:, j], low_factor, out=low[:, j])
        keep = np.flatnonzero(_any_at_most(low, tau))
        e = e[keep]
        # upper bounds only for the kept rows: elsewhere high >= low > tau
        high_factor = wb[keep] * upper[bucket[keep]]
        for j in range(d):
            high = e[:, j] * high_factor
            pool = np.concatenate((best[j], high[high <= tau[j]]))
            if pool.size >= m:
                pool = np.partition(pool, m - 1)[:m]
                tau[j] = pool[m - 1]
            best[j] = pool
        kept_rows.append(keep + lo)
        kept_e.append(e)
        kept_low.append(low[keep])
    low = np.concatenate(kept_low)
    keep = np.flatnonzero(_any_at_most(low, tau))
    return np.concatenate(kept_rows)[keep], np.concatenate(kept_e)[keep]


def _any_at_most(a: np.ndarray, bound) -> np.ndarray:
    """Rows of ``a`` with a[:, j] <= bound[j] for some j, one column at a time."""
    return functools.reduce(np.logical_or, (a[:, j] <= t for j, t in enumerate(bound)))


def _stable_frailty(alpha: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Positive alpha-stable draws with Laplace transform exp(-s^alpha).

    Chambers-Mallows-Stuck form for 0 < alpha < 1:
        S = (sin(alpha V) / sin(V)^(1/alpha))
            * (sin((1 - alpha) V) / W)^((1 - alpha)/alpha)
    with V uniform on (0, pi) and W unit exponential, given as the arrays
    ``v`` and ``w``, which are overwritten.  Elementwise on arrays only: a
    numpy scalar takes another ``pow`` kernel, with other bits.
    """
    if not 0 < alpha < 1:
        raise PreconditionError(f"stable index must lie in (0, 1), got {alpha}")
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


def _logistic_copula(alpha: float, e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(-((e / s) ** alpha)), in place on the exponentials ``e``.

    The division goes column by column, as a length-d inner loop is slow.
    Elementwise on arrays, as ``_stable_frailty``.
    """
    for j in range(e.shape[1]):
        np.divide(e[:, j], s, out=e[:, j])
    e **= alpha
    e = np.negative(e, out=e)
    return np.exp(e, out=e)


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
