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

One kernel, ``draw_copula_blocks``, switches on the model and hands the
draw over a block of rows at a time, so its caller keeps what it needs
of each block; ``draw_copula_sample`` is its one-block read.
``draw_copula_tail`` computes only the rows that can reach some column's
largest values, from the same random words (``_logistic_words``).  Each
has the full draw's bits.
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


def _pareto_margin(a: float) -> Callable[[np.ndarray], np.ndarray]:
    if not 0 < a < math.inf:  # NaN fails too
        raise ConfigurationError(f"pareto margin index must be finite and > 0, got {a}")
    return lambda u: (1.0 - u) ** (-1.0 / a)


_PARETO_RE = re.compile(r"^pareto\((?P<a>[^)]+)\)$")

_BUILTIN_MARGINS = {
    "uniform": lambda u: u,
    "exponential": lambda u: -np.log1p(-u),
}


def parse_margin(tag: str) -> Callable[[np.ndarray], np.ndarray]:
    """The transform of a margin tag, uniform | exponential | pareto(a): a
    strictly increasing map of u in [0, 1] to the observed scale."""
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
    """One transform per column: one tag for every column, else one per column.

    ``tags`` is a single tag or a sequence of them.
    """
    if isinstance(tags, str):
        tags = (tags,)
    margins = tuple(parse_margin(t) for t in tags)
    if len(margins) == 1:
        margins *= d
    if len(margins) != d:
        raise ConfigurationError(f"{len(margins)} margin tags for dimension {d}")
    return margins


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
    """Draw n rows from the model copula (uniform margins, upper-tail dependence):
    ``draw_copula_blocks`` read as one block."""
    return next(draw_copula_blocks(model, n, rng, max(n, 1)))


# Rows per block of ``draw_copula_blocks``: 256 KiB of float64 at d = 2.
ROW_BLOCK = 1 << 14
# The most float64 values one numpy array can hold: its byte count is an intp.
_MOST_VALUES = np.iinfo(np.intp).max // 8


def check_sample_size(n, d: int) -> None:
    """Refuse n rows at dimension d before any word is drawn: n < 1 as a
    usage error, and n d float64 values that no numpy array can hold as a
    precondition error."""
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    if n * d > _MOST_VALUES:
        raise PreconditionError(
            f"a sample of n = {n:g} rows at d = {d} holds more float64 values "
            f"than a numpy array can ({_MOST_VALUES:,})")


def draw_copula_blocks(model: StdfModel, n: int, rng: np.random.Generator,
                       rows: int = ROW_BLOCK) -> Iterator[np.ndarray]:
    """The model's copula draw of n rows, ``rows`` rows at a time, each block
    drawn from ``rng`` when the caller reads it, so a caller holds one block.

    Any ``rows`` gives the bits of one n-row block, ``draw_copula_sample``,
    and leaves ``rng`` where it does: the uniform draws take a row's words
    in row order, and the logistic frailty draw forms S whole from V and W
    before any E (``_logistic_words``), then meets each block of E with its
    rows of S, elementwise.
    """
    check_sample_size(n, model.d)
    d, alpha = model.d, _frailty_index(model)
    if alpha is None:
        # comonotone takes one uniform a row, the others one a value
        width = 1 if model.variant == "comonotone" else d
        for lo in range(0, n, rows):
            u = rng.random((min(rows, n - lo), width))
            yield u if width == d else np.tile(u, (1, d))
        return
    v, w, blocks = _logistic_words(n, d, rng, rows)
    s = _stable_frailty(alpha, v, w)
    del v, w  # S is V's array; W goes before any E is drawn
    for lo, e in zip(range(0, n, rows), blocks):
        yield _logistic_copula(alpha, e, s[lo:lo + rows])


def _frailty_index(model: StdfModel) -> float | None:
    """alpha = 1 / theta of a logistic model at theta > 1, drawn through its
    positive-stable frailty; None for a model drawn as uniforms."""
    return 1.0 / model.theta if model.variant == "logistic" and model.theta != 1.0 else None


def _logistic_words(n: int, d: int, rng: np.random.Generator, rows: int):
    """(V, W, E blocks): the logistic draw's random words in its order.  V
    uniform on (0, pi) and W unit exponential, n each, are drawn now; the
    n x d unit exponentials E come ``rows`` rows at a time as the caller
    reads them (the same values: the generator fills row by row), from
    standard_exponential, exponential(scale=1.0)'s values in half its time."""
    v = rng.uniform(0.0, math.pi, size=n)
    w = rng.standard_exponential(n)
    return v, w, (rng.standard_exponential((min(rows, n - lo), d))
                  for lo in range(0, n, rows))


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

    The logistic tail draw reads the full draw's random words
    (``_logistic_words``) and computes x only on the rows it keeps.
    Larger x_j is smaller q_j = E_j / S, and by the Chambers-Mallows-Stuck
    identity S = S1(V) W^(-beta), beta = (1 - alpha) / alpha, with S1 =
    A^beta for Zolotarev's function A, strictly increasing on (0, pi).  So
    q_j is bracketed from V's bucket in a table of S1 (``_s1_reciprocals``)
    with no sine, and a row is kept when its one lower bound, the least
    over its columns, is at most max_j tau_j, tau_j column j's m-th
    smallest upper bound.  The kept rows' x comes from the helpers of the
    full draw, elementwise on arrays, so it has the full draw's bits.
    """
    check_sample_size(n, model.d)
    if m < 1:
        raise PreconditionError(f"the tail must hold at least one value, got m = {m}")
    alpha = _frailty_index(model)
    if alpha is None or m >= n:
        return None, draw_copula_sample(model, n, rng)
    v, w, blocks = _logistic_words(n, model.d, rng, max(ROW_BLOCK, m))
    rows, e = _tail_candidates(alpha, v, w, m, model.d, blocks)
    return rows, _logistic_copula(alpha, e, _stable_frailty(alpha, v[rows], w[rows]))


# The tail draw's table of S1 has _S1_BUCKETS buckets of V over [0, pi).
_S1_BUCKETS = 1 << 14
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
                     blocks) -> tuple[np.ndarray, np.ndarray]:
    """The rows that can hold some column's m smallest q_j = E_j / S, and their E.

    Reads E from ``blocks``, the exponentials of ``_logistic_words`` a
    block of rows at a time, so only a block of E is held.  q_j lies in
    [E_j f lower, E_j f upper], f = W^beta, with the bucket factors of
    ``_s1_reciprocals``.  tau_j, the m-th smallest upper bound in column
    j, is at least the m-th smallest q_j, so a row whose one bound
    min_j E_j f lower is above max_j tau_j is not needed.  tau over the
    blocks read so far only falls as blocks are added, so each block
    keeps the rows that pass the tau of the blocks before it, and the
    final tau sorts them out.  A row a block drops has every upper bound
    above every tau_j, so only the kept rows' upper bounds lower tau.
    """
    beta = (1.0 - alpha) / alpha
    lower, upper = _s1_reciprocals(alpha)
    scale = _S1_BUCKETS / math.pi
    best = [np.empty(0)] * d  # per column, the m smallest upper bounds so far
    tau = [np.inf] * d
    kept = []  # per block: the kept rows, their E and their bounds
    lo = 0
    for e in blocks:
        hi = lo + len(e)
        bucket = (v[lo:hi] * scale).astype(np.intp)
        wb = w[lo:hi] ** beta
        # the rounded product is monotone in E_j, so this is min_j of E_j f
        # lower; folded column by column, as a length-d reduction is slow
        low = functools.reduce(np.minimum, e.T) * (wb * lower[bucket])
        keep = np.flatnonzero(low <= max(tau))
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
        kept.append((keep + lo, e, low[keep]))
        lo = hi
    rows, e, low = (np.concatenate(parts) for parts in zip(*kept))
    keep = low <= max(tau)
    return rows[keep], e[keep]


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


def draw_sample(model: StdfModel, n: int, seed: int, margins="uniform") -> Sample:
    """n rows of the model copula from ``substream(seed, "sample")``, then
    ``margins`` (``parse_margins``, read before the draw); equal inputs give
    bit-equal data."""
    transforms = parse_margins(margins, model.d)
    rng = substream(seed, "sample")
    return _margins_in_place(draw_copula_sample(model, n, rng), transforms)


def apply_margins(sample: Sample, transforms) -> Sample:
    """Apply per-coordinate strictly increasing transforms; ranks unchanged."""
    return _margins_in_place(sample.values.copy(), parse_margins(transforms, sample.d))


def _margins_in_place(values: np.ndarray, transforms) -> Sample:
    """Each column of ``values`` through its margin, written back in place."""
    for j, f in enumerate(transforms):
        values[:, j] = f(values[:, j])
    return Sample(values)
