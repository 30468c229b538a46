"""The tie-checked column tails of a sample and the empirical tail
dependence function on its lattice.

The central estimator counts, for a point x and a tail budget k, the rows
exceeding per-column upper order statistics:

    l_n(x) = (1/k) * #{i : rank(X_i^j) >= n - floor(k x_j) + 1 for some j}

A coordinate with floor(k x_j) = 0 would need rank >= n + 1, which no row
attains, so the zero case needs no special handling: its disjunct is
simply false and l_n(0) = 0.

Over [0, T]^d the estimator therefore depends only on the floor(k T)
largest values of each column, and the lattice kernel reads nothing else.

l_n is computed one way: ``column_tails`` selects each column's
floor(k T) + 1 largest values in O(n) and orders only those,
``tail_depths`` keeps the rows of the column tails with their depths, and
the ``gridscan`` dominance walker counts them at each node.
``check_lattice_scan`` holds every lattice scan's preconditions, the
CLI's ``estimate`` and every scan of ``harness``.
No full-sample rank is formed.  A tie among the values read is rejected
rather than broken, because a tied value has no single rank for the
count to compare; a tie below them changes no count.  All evaluators are
pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError, TiesError
from .gridscan import count_strips, scan_is_exact, sorted_distinct
from .models import StdfModel
from .samplers import Sample


@dataclass(frozen=True)
class ColumnTails:
    """Each column's m largest values of an n-row sample, and their rows.

    ``rows[j]`` and ``values[j]`` run largest first, in the order of the
    last m entries of ``np.argsort(x[:, j], kind="stable")`` reversed: NaN
    ranks above every number, and NaNs rank among themselves by row
    index.  Built by ``column_tails``; ``tail_depths`` and the
    order-statistic event read it up to depth m.
    """

    n: int
    rows: tuple
    values: tuple

    @property
    def d(self) -> int:
        return len(self.rows)

    def top_rows(self, j: int, m: int) -> np.ndarray:
        """Rows of the m largest values of column j, largest first."""
        if m > self.rows[j].size:
            raise PreconditionError(
                f"column tail holds {self.rows[j].size} rows, {m} were asked for")
        return self.rows[j][:m]

    def nth_largest(self, m: int) -> np.ndarray:
        """The m-th largest value of each column (NaN above every number)."""
        return np.array([v[m - 1] for v in self.values])


def column_tails(x, m: int, rows=None, n: int | None = None) -> ColumnTails:
    """Each column's m largest values of a sample, checked for ties among them.

    ``x`` is c x d.  Without ``rows`` it is the whole sample.  With
    ``rows``, ascending row indices of a sample of ``n`` rows (c by
    default), x holds those rows, and they must include every row holding
    one of a column's m largest values, as ``samplers.draw_copula_tail``'s
    rows do.  Per column: an O(c)
    selection against the m-th largest value, then a sort of the selected
    rows only.  A tie among a column's m largest values raises TiesError
    with the first such column and the first two rows holding its
    smallest tied value; ties below them are not looked for.  NaN never
    ties; -0.0 ties 0.0.
    """
    x = _values_of(x)
    c, d = x.shape
    n = c if n is None else n
    top = min(m, c)
    tops, values = [], []
    for j in range(d):
        col = x[:, j]
        if top < c:
            thr = np.partition(col, c - top)[c - top]
            # NaN sorts last, so NaNs are the top of the column: a NaN
            # threshold selects every row
            sel = np.flatnonzero(~(col < thr))
        else:
            sel = np.arange(c)
        order = sel[np.argsort(col[sel], kind="stable")[::-1][:top]]
        vals = col[order]
        tied = np.flatnonzero(vals[1:] == vals[:-1])
        if tied.size:
            held = np.flatnonzero(col == vals[tied[-1]])[:2]
            raise TiesError(column=j, rows=held if rows is None else rows[held])
        tops.append(order if rows is None else rows[order])
        values.append(vals)
    return ColumnTails(n=n, rows=tuple(tops), values=tuple(values))


def _values_of(sample) -> np.ndarray:
    values = sample.values if isinstance(sample, Sample) else np.asarray(sample, float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise PreconditionError("expected an n x d matrix")
    return values


def build_ranks(sample, m: int) -> ColumnTails:
    """``column_tails(sample, m)``, under the name the benchmark tracer wraps.

    A function of its own, not an alias, so that wrapping it by name
    leaves the ``column_tails`` calls unwrapped.
    """
    return column_tails(sample, m)


def jitter_columns(values, seed: int) -> np.ndarray:
    """Break within-column ties with deterministic sub-gap noise.

    Preprocessing hook for real data; synthetic generators never need it.
    Noise amplitude stays below a quarter of the smallest nonzero gap in
    each column, so the relative order of distinct values is untouched
    and only tied values get a random (seeded) order.
    """
    values = np.array(_values_of(values), copy=True)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                       spawn_key=(0x6A17,)))
    for j in range(values.shape[1]):
        col = values[:, j]
        distinct = np.unique(col)
        if distinct.size == col.size:
            continue
        if distinct.size > 1:
            gap = np.diff(distinct).min()
        else:
            gap = max(abs(distinct[0]), 1.0) * 1e-6
        col += rng.uniform(-0.25, 0.25, size=col.size) * gap
        values[:, j] = col
    return values


def lattice_index(k: int, x) -> np.ndarray:
    """floor(k * x) with a snap-up guard against floating-point dust.

    Lattice points are often produced as m / k, and k * (m / k) can land
    one ulp below m; values within relative 1e-9 of the next integer are
    treated as that integer.
    """
    kx = np.asarray(k * np.asarray(x, dtype=float))
    if not np.all((kx >= 0) & (kx < np.inf)):  # NaN fails both
        raise PreconditionError("evaluation point must be finite and >= 0")
    m = np.floor(kx)
    up = np.ceil(kx)
    snap = (up - kx) <= 1e-9 * np.maximum(1.0, np.abs(kx))
    return np.where(snap, up, m).astype(np.int64)


def check_lattice_scan(sample, k: int, model: StdfModel | None, T: float,
                       grid) -> bool:
    """The preconditions of a lattice scan of ``sample``, then ``scan_is_exact``.

    ``sample`` is a ColumnTails or raw values.  Raw values are checked
    before their tails are built: the depth a scan reads, floor(k T) + 1,
    needs a valid k and T, so a bad k or T is reported before a tie.
    ``grid`` is the declared grid (a resolution or a lattice stride) or
    None; ``model`` is None when no l is compared (the CLI surface).
    """
    n, d = ((sample.n, sample.d) if isinstance(sample, ColumnTails)
            else _values_of(sample).shape)
    if model is not None and model.d != d:
        raise ConfigurationError(
            f"model dimension {model.d} does not match sample dimension {d}"
        )
    if not 0 < T < np.inf:
        raise PreconditionError(f"T must be finite and > 0, got {T}")
    if k * T > n:
        raise PreconditionError(f"k T = {k * T:g} exceeds n = {n}")
    if not 1 <= k <= n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {n}], got {k}")
    return scan_is_exact(d, grid)


def tail_depths(tails: ColumnTails, mmax) -> np.ndarray:
    """Per-column depths of the rows in some column's top mmax_j.

    Returns an int64 U x d matrix, one row per member of the union of the
    column tails (U rows, in row order).  Entry [i, j] is the row's depth
    in column j, 1 for the largest value, and mmax_j + 1 when the row is
    outside column j's top mmax_j.  A row counts at a lattice vector m
    (0 <= m <= mmax) iff depth_j <= m_j for some j, so the rows outside
    the union never count and the count at m is U - #{rows with depth > m}.
    It reads no ranks, and costs O(U log U) beyond the tails.
    """
    n, d = tails.n, tails.d
    mmax = np.asarray(mmax, dtype=np.int64)
    if mmax.shape != (d,):
        raise PreconditionError(f"mmax must have shape ({d},)")
    if np.any(mmax < 0) or np.any(mmax > n):
        raise PreconditionError(f"mmax entries must lie in [0, n] = [0, {n}]")
    tops = [tails.top_rows(j, int(m)) for j, m in enumerate(mmax)]
    union = sorted_distinct(np.concatenate(tops))
    depths = np.empty((union.size, d), dtype=np.int64)
    for j, top in enumerate(tops):
        depths[:, j] = mmax[j] + 1
        depths[np.searchsorted(union, top), j] = np.arange(1, top.size + 1)
    return depths


def stdf_lattice_counts(tails: ColumnTails, mmax, stride: int = 1) -> np.ndarray:
    """Exceedance counts on the lattice 0, stride, ... <= mmax_j per axis.

    Returns an int64 tensor C with C[i_1, ..., i_d] = the count behind
    l_n(m/k) at m_j = i_j * stride.  Only the U tail rows of
    ``tail_depths`` are read: the count at m is U less the tail rows
    dominating m, the dominance walker's ``count_strips`` over those rows,
    each strip written into C, so no float grid is held beside it.  The
    cost is that of ``tail_depths`` plus O(U + nodes) for the lattice.
    """
    if stride < 1:
        raise PreconditionError(f"lattice stride must be >= 1, got {stride}")
    depths = tail_depths(tails, mmax).astype(float)
    levels = [np.arange(0, int(m) + 1, stride, dtype=float) for m in mmax]
    counts = np.empty(tuple(a.size for a in levels), dtype=np.int64)
    for lo, hi, strip in count_strips(depths, levels, 1):
        counts[lo:hi] = strip
    return counts


def empirical_stdf_lattice(tails: ColumnTails, k: int, mmax,
                           stride: int = 1) -> np.ndarray:
    """l_n on the lattice (m_1/k, ..., m_d/k), m_j = 0, stride, ... <= mmax_j."""
    if not 1 <= k <= tails.n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {tails.n}], got {k}")
    return stdf_lattice_counts(tails, mmax, stride) / k
