"""Rank and order-statistic machinery and the two empirical tail functionals.

The central estimator counts, for a point x and a tail budget k, the rows
exceeding per-column upper order statistics:

    l_n(x) = (1/k) * #{i : rank(X_i^j) >= n - floor(k x_j) + 1 for some j}

A coordinate with floor(k x_j) = 0 would need rank >= n + 1, which no row
attains, so the zero case needs no special handling: its disjunct is
simply false and l_n(0) = 0.

Over [0, T]^d the estimator therefore depends only on the floor(k T)
largest values of each column, and the lattice kernel reads nothing else:
per column it selects the top rows in O(n) and orders only those.

Everything here is exact integer counting on ranks; ties are rejected
rather than broken, because the downstream identity checks require exact
rank arithmetic.  All evaluators are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, TiesError
from .gridscan import dominance_weight_grid
from .samplers import Sample, parse_margins


@dataclass(frozen=True)
class TailOrder:
    """A tie-checked sample whose per-column tail order is read on demand.

    ``sorted_cols[j]`` is column j sorted ascending.  ``top_rows`` gives
    the same rows in the same order as the last m entries of
    ``np.argsort(values[:, j], kind="stable")`` reversed, which is the
    order ``build_ranks`` assigns: NaN ranks above every number, and NaNs
    rank among themselves by row index.
    """

    values: np.ndarray
    sorted_cols: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def order_stats(self) -> np.ndarray:
        """n x d ascending columns: a transposed view of ``sorted_cols``."""
        return self.sorted_cols.T

    def top_rows(self, j: int, m: int) -> np.ndarray:
        """Rows of the m largest values of column j, largest first.

        O(n) selection against the m-th largest value, then a sort of the
        selected rows only.
        """
        col, ordered = self.values[:, j], self.sorted_cols[j]
        # NaNs sort last, so they are the top of the column
        nan_rows = (
            np.flatnonzero(np.isnan(col)) if np.isnan(ordered[-1])
            else np.empty(0, dtype=np.intp)
        )
        if m <= nan_rows.size:
            return nan_rows[::-1][:m]
        # without ties exactly m - #NaN numbers reach the m-th largest value
        rows = np.flatnonzero(col >= ordered[self.n - m])
        rows = rows[np.argsort(col[rows])[::-1]]
        return np.concatenate((nan_rows[::-1], rows))


@dataclass(frozen=True)
class RankState(TailOrder):
    """A ``TailOrder`` that also holds every row's within-column rank.

    ``ranks[i, j]`` is r when X_i^j is the r-th smallest in column j;
    ranks within each column are a permutation of 1..n.
    """

    ranks: np.ndarray


def _values_of(sample) -> np.ndarray:
    values = sample.values if isinstance(sample, Sample) else np.asarray(sample, float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise PreconditionError("expected an n x d matrix")
    return values


def build_ranks(sample) -> RankState:
    """Sort each column and assign ranks 1..n; raise TiesError on ties."""
    values = _values_of(sample)
    n, d = values.shape
    ranks = np.empty((n, d), dtype=np.int64)
    sorted_cols = np.empty((d, n), dtype=values.dtype)
    for j in range(d):
        order = np.argsort(values[:, j], kind="stable")
        col_sorted = sorted_cols[j]
        col_sorted[:] = values[order, j]
        dup = np.nonzero(col_sorted[1:] == col_sorted[:-1])[0]
        if dup.size:
            i = dup[0]
            raise TiesError(column=j, rows=sorted((order[i], order[i + 1])))
        ranks[order, j] = np.arange(1, n + 1)
    return RankState(values=values, sorted_cols=sorted_cols, ranks=ranks)


def tail_order(sample) -> TailOrder:
    """Check every column for ties and keep it sorted for tail selection.

    The ties contract is that of ``build_ranks``: each column is checked in
    full, and a tie raises the same TiesError (column and rows).
    """
    values = _values_of(sample)
    sorted_cols = np.empty(values.shape[::-1], dtype=values.dtype)
    for j in range(values.shape[1]):
        # sorted in place: a fresh n-row copy per column costs its page faults
        col_sorted = sorted_cols[j]
        col_sorted[:] = values[:, j]
        col_sorted.sort()
        if np.any(col_sorted[1:] == col_sorted[:-1]):
            build_ranks(values)  # raises build_ranks' TiesError for this column
    return TailOrder(values=values, sorted_cols=sorted_cols)


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
    if np.any(kx < 0):
        raise PreconditionError("evaluation point must be >= 0")
    m = np.floor(kx)
    up = np.ceil(kx)
    snap = (up - kx) <= 1e-9 * np.maximum(1.0, np.abs(kx))
    return np.where(snap, up, m).astype(np.int64)


def exceedance_count(ranks: RankState, m) -> int | np.ndarray:
    """#rows with rank >= n - m_j + 1 in some column, exact integer.

    ``m`` is an integer lattice vector (d,) or a batch (P, d); each entry
    must satisfy 0 <= m_j <= n.
    """
    m = np.asarray(m, dtype=np.int64)
    single = m.ndim == 1
    m2 = m[None, :] if single else m
    n = ranks.n
    if m2.shape[-1] != ranks.d:
        raise PreconditionError(f"lattice vector has wrong dimension {m2.shape[-1]}")
    if np.any(m2 < 0) or np.any(m2 > n):
        raise PreconditionError(
            f"lattice indices must lie in [0, n] = [0, {n}]; got range "
            f"[{m2.min()}, {m2.max()}]"
        )
    counts = np.empty(m2.shape[0], dtype=np.int64)
    # chunked so P x n x d never exceeds ~32M entries
    chunk = max(1, int(32_000_000 // max(1, n * ranks.d)))
    thresholds = n - m2 + 1
    for lo in range(0, m2.shape[0], chunk):
        hi = min(lo + chunk, m2.shape[0])
        hit = ranks.ranks[None, :, :] >= thresholds[lo:hi, None, :]
        counts[lo:hi] = hit.any(axis=2).sum(axis=1)
    return int(counts[0]) if single else counts


def empirical_stdf(ranks: RankState, k: int, x) -> float | np.ndarray:
    """Empirical dependence function l_n(x); multiple of 1/k, exact count."""
    if not 1 <= k <= ranks.n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {ranks.n}], got {k}")
    m = lattice_index(k, x)
    return exceedance_count(ranks, m) / k


def tail_depths(ranks: TailOrder, mmax) -> np.ndarray:
    """Per-column depths of the rows in some column's top mmax_j.

    Returns an int64 U x d matrix, one row per member of the union of the
    column tails (U rows, in row order).  Entry [i, j] is the row's depth
    in column j, 1 for the largest value, and mmax_j + 1 when the row is
    outside column j's top mmax_j.  A row counts at a lattice vector m
    (0 <= m <= mmax) iff depth_j <= m_j for some j, so the rows outside
    the union never count and the count at m is U - #{rows with depth > m}.
    ``ranks`` is any ``TailOrder``, a ``RankState`` included.  Cost: O(n)
    selection per column plus the ordering of the selected rows.
    """
    n, d = ranks.n, ranks.d
    mmax = np.asarray(mmax, dtype=np.int64)
    if mmax.shape != (d,):
        raise PreconditionError(f"mmax must have shape ({d},)")
    if np.any(mmax < 0) or np.any(mmax > n):
        raise PreconditionError(f"mmax entries must lie in [0, n] = [0, {n}]")
    tops = [ranks.top_rows(j, int(m)) for j, m in enumerate(mmax)]
    union = np.unique(np.concatenate(tops))
    depths = np.empty((union.size, d), dtype=np.int64)
    for j, top in enumerate(tops):
        depths[:, j] = mmax[j] + 1
        depths[np.searchsorted(union, top), j] = np.arange(1, top.size + 1)
    return depths


def stdf_lattice_counts(ranks: TailOrder, mmax, stride: int = 1) -> np.ndarray:
    """Exceedance counts on the lattice 0, stride, ... <= mmax_j per axis.

    Returns an int64 tensor C with C[i_1, ..., i_d] = the count behind
    l_n(m/k) at m_j = i_j * stride.  Only the U tail rows of
    ``tail_depths`` are read: the count at m is U less the tail rows
    dominating m, one ``dominance_weight_grid`` over those rows.  The cost
    is that of ``tail_depths`` plus O(U + nodes) for the lattice.
    """
    if stride < 1:
        raise PreconditionError(f"lattice stride must be >= 1, got {stride}")
    depths = tail_depths(ranks, mmax).astype(float)
    levels = [np.arange(0, int(m) + 1, stride, dtype=float) for m in mmax]
    grid = dominance_weight_grid(depths, np.ones(depths.shape[0]), levels, strict=True)
    return np.subtract(depths.shape[0], grid, out=grid).astype(np.int64)


def empirical_stdf_lattice(ranks: TailOrder, k: int, mmax,
                           stride: int = 1) -> np.ndarray:
    """l_n on the lattice (m_1/k, ..., m_d/k), m_j = 0, stride, ... <= mmax_j."""
    if not 1 <= k <= ranks.n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {ranks.n}], got {k}")
    return stdf_lattice_counts(ranks, mmax, stride) / k


def tail_event_count(u, thresholds) -> int:
    """#rows with U_i^j <= t_j in some column (closed comparison)."""
    u = np.asarray(u, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    return int(np.any(u <= thresholds[None, :], axis=1).sum())


def empirical_tilde_F(u, x) -> float:
    """Fraction of rows with at least one coordinate below its threshold."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise PreconditionError("pseudo-uniform sample must be an n x d matrix")
    x = np.asarray(x, dtype=float)
    if x.shape != (u.shape[1],):
        raise PreconditionError(f"threshold vector must have shape ({u.shape[1]},)")
    if np.any(x < 0) or np.any(x > 1):
        raise PreconditionError("thresholds must lie in [0, 1]")
    return tail_event_count(u, x) / u.shape[0]


def standardize(sample, margins) -> np.ndarray:
    """Entrywise U_i^j = 1 - F_j(X_i^j) using the known true margins."""
    values = _values_of(sample)
    specs = parse_margins(margins, values.shape[1])
    u = np.column_stack([m.survival(values[:, j]) for j, m in enumerate(specs)])
    if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
        raise PreconditionError("standardized values left [0, 1]; wrong margins?")
    return np.clip(u, 0.0, 1.0)


def order_stat_thresholds(u, m) -> np.ndarray:
    """Per-column m_j-th smallest value of u, with threshold 0 for m_j = 0."""
    u = np.asarray(u, dtype=float)
    m = np.asarray(m, dtype=np.int64)
    n, d = u.shape
    if m.shape != (d,):
        raise PreconditionError(f"lattice vector must have shape ({d},)")
    if np.any(m < 0) or np.any(m > n):
        raise PreconditionError(f"order-statistic indices must lie in [0, {n}]")
    out = np.zeros(d)
    for j in range(d):
        if m[j] >= 1:
            out[j] = np.partition(u[:, j], m[j] - 1)[m[j] - 1]
    return out


def empirical_stdf_via_order_stats(ranks: RankState, u, k: int, x) -> float:
    """(n/k) * F_n-tilde at the vector of floor(k x_j)-th smallest U values.

    With u the exact margin-standardization of the ranked sample this
    equals empirical_stdf(ranks, k, x) row for row, because the counted
    event is rank-determined; the equality is integer-exact and is the
    backbone identity of the estimator.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (ranks.n, ranks.d):
        raise PreconditionError("pseudo-uniform sample does not match rank state")
    if not 1 <= k <= ranks.n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {ranks.n}], got {k}")
    m = lattice_index(k, x)
    if np.any(m > ranks.n):
        raise PreconditionError("floor(k x) exceeds n")
    thr = order_stat_thresholds(u, m)
    return (ranks.n / k) * (tail_event_count(u, thr) / ranks.n)
