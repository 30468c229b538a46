"""The rank-based l_n and the order-statistic identity: the oracles the
tail kernel is tested against.

    l_n(x) = (1/k) * #{i : rank(X_i^j) >= n - floor(k x_j) + 1 for some j}

read here off full-sample ranks, one stable argsort per column, and again
as (n/k) F~_n at the floor(k x_j)-th smallest margin-standardized values.
``tailvc`` computes l_n one way only, from the rows of each column's tail
(``column_tails`` -> ``tail_depths`` -> the ``gridscan`` dominance
walker); these definitions say what that path must equal, and no library
code reads them.  Each takes the sample's raw values: an n x d matrix, a
``Sample`` or one column.
"""

import numpy as np

from tailvc.empirical import _values_of, lattice_index
from tailvc.errors import PreconditionError
from tailvc.samplers import parse_margins


def ranks(x) -> np.ndarray:
    """n x d ranks, 1..n per column, from one stable argsort per column:
    NaN ranks above every number, and NaNs rank among themselves by row
    index, the order of ``ColumnTails.top_rows``."""
    x = _values_of(x)
    n, d = x.shape
    out = np.empty((n, d), dtype=np.int64)
    for j in range(d):
        out[np.argsort(x[:, j], kind="stable"), j] = np.arange(1, n + 1)
    return out


def exceedance_count(x, m) -> int | np.ndarray:
    """#rows with rank >= n - m_j + 1 in some column, exact integer.

    ``m`` is an integer lattice vector (d,) or a batch (P, d); each entry
    must satisfy 0 <= m_j <= n.
    """
    m = np.asarray(m, dtype=np.int64)
    single = m.ndim == 1
    m2 = m[None, :] if single else m
    n, d = _values_of(x).shape
    if m2.shape[-1] != d:
        raise PreconditionError(f"lattice vector has wrong dimension {m2.shape[-1]}")
    if np.any(m2 < 0) or np.any(m2 > n):
        raise PreconditionError(
            f"lattice indices must lie in [0, n] = [0, {n}]; got range "
            f"[{m2.min()}, {m2.max()}]"
        )
    counts = np.empty(m2.shape[0], dtype=np.int64)
    # chunked so P x n x d never exceeds ~32M entries
    chunk = max(1, int(32_000_000 // max(1, n * d)))
    thresholds = n - m2 + 1
    rank_matrix = ranks(x)
    for lo in range(0, m2.shape[0], chunk):
        hi = min(lo + chunk, m2.shape[0])
        hit = rank_matrix[None, :, :] >= thresholds[lo:hi, None, :]
        counts[lo:hi] = hit.any(axis=2).sum(axis=1)
    return int(counts[0]) if single else counts


def empirical_stdf(sample, k: int, x) -> float | np.ndarray:
    """Empirical dependence function l_n(x); multiple of 1/k, exact count."""
    n = _values_of(sample).shape[0]
    if not 1 <= k <= n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {n}], got {k}")
    m = lattice_index(k, x)
    return exceedance_count(sample, m) / k


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


def empirical_stdf_via_order_stats(sample, u, k: int, x) -> float:
    """(n/k) * F_n-tilde at the vector of floor(k x_j)-th smallest U values.

    With u the exact margin-standardization of the sample this equals
    empirical_stdf(sample, k, x) row for row, because the counted event
    is rank-determined; the equality is integer-exact and is the backbone
    identity of the estimator.
    """
    u = np.asarray(u, dtype=float)
    n, d = _values_of(sample).shape
    if u.shape != (n, d):
        raise PreconditionError("pseudo-uniform sample does not match the sample")
    if not 1 <= k <= n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {n}], got {k}")
    m = lattice_index(k, x)
    if np.any(m > n):
        raise PreconditionError("floor(k x) exceeds n")
    thr = order_stat_thresholds(u, m)
    return (n / k) * (tail_event_count(u, thr) / n)

