"""Exact cell scans for set-indexed empirical statistics.

The sets of interest are lower-orthant unions

    A(t) = {z : z_1 < t_1 or ... or z_d < t_d},   t in [0, tmax]^d.

Over such a family, an empirical count is piecewise constant with
breakpoints at the data coordinates, while the comparison measure is
continuous and componentwise monotone.  The supremum of their absolute
difference over the whole continuum is therefore attained by comparing
each cell's count against the measure at the cell's two extreme corners.
This module is the one place where counts meet such a reference, and
``scan_is_exact`` the one place that decides between that exact scan,
which serves d <= 2, and a declared grid, which d >= 3 requires and
which holds at most 256^3 nodes.

Whether the threshold comparison is strict or closed changes the count
only on the measure-zero set of thresholds sitting exactly on data
points; the supremum over cell closures is identical for the two
conventions, so a single scan serves both.

One walker streams the dominance grid in strips of axis-0 rows, from the
top down, and every scan reduces a strip before the next is built: with
m breakpoints per axis and S rows per strip, memory is O(n + S m^(d-1))
in place of the m^d dense grid, and the strips hold the dense grid's
values bit for bit.  It is the one dominance kernel: every survivor
count on a lattice, kept whole (``dominance_weight_grid``) or reduced a
strip at a time, comes out of it.  ``count_strips`` turns each strip
into counts, and one reducer, ``cell_corner_max``, meets them with the
reference at both cell corners, for ``sup_count_vs_mass``, for the
lattice scan ``lattice_corner_max`` and for the decomposition check.
``max_count_gap`` reads the nodes only, and the d >= 3 signed scan the
grid's extremes.

The d <= 2 signed scan (``sup_signed_count``) needs only the largest
and smallest node of the grid, so it never builds a strip: it splits
axis 1 into blocks of about sqrt(m) columns and reads each block's
extremes off the few distinct profiles its points allow, in integer
arithmetic, in O(n + m^1.5) time and, with one row per axis-1 bucket
below the top, O(n + m) memory.

The lattice scan reads the reference, l at the cell corners, from a
``CornerGrid``, which evaluates it a strip of rows or a batch of small
windows at a time, so no scan holds the (m_top + 2)^d grid.  For d = 2
it first tries ``pruned_corner_max``.  l is nondecreasing, so over each
block's corner window it lies between its values at the window's two
extreme corners, which a d = 2 ``CornerGrid`` reads once, when it is built.
The scan bounds every block from those and from the counts at the
block's two extreme nodes (two small dominance grids of the walker),
skips each block whose bound cannot beat the best node value found, and
evaluates the rest exactly from the depth permutations and l on their
windows.  When most blocks survive the bound (a deviation flat at its
maximum, as for independence and comonotone), the strip walk runs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigurationError, PreconditionError

# Working set of one strip: 32 rows of float64 at m = 4001 breakpoints
# per axis, small enough to stay in cache.  At that m, strips of 8 to 64
# rows timed within 15% of each other.
_STRIP_BYTES = 1 << 20

# Rows of up to _NARROW_ROW nodes add down a strip in one reversed cumsum (0.5-0.6
# ms a full strip at any width); a row loop took 1.3 ms at 101 nodes, 0.4 at 401.
_NARROW_ROW = 256

# The pruned corner scan cuts the lattice nodes into square blocks of
# _PRUNE_BLOCK nodes a side, and gives up for the strip walk when at
# least _PRUNE_CUT of the blocks survive the first bound pass.
_PRUNE_BLOCK = 8
_PRUNE_CUT = 0.3

# The pruned scan widens l at a block window's corners by this relative slack:
# l is monotone, but its evaluation may round a few ulp (2^-52 each) apart.
_MONOTONE_SLACK = 2.0**-40


@dataclass(frozen=True)
class SupEstimate:
    """A supremum value plus the reported discretization slack.

    ``discretization_bound`` is 0 for the exact scans; grid fallbacks
    report the gap within which the true supremum is guaranteed to lie:
    value <= sup <= value + discretization_bound.
    """

    value: float
    discretization_bound: float = 0.0


def suffix_sums(grid: np.ndarray, start: int = 0) -> np.ndarray:
    """Reverse cumulative sums along every axis from ``start`` on, in place;
    returns ``grid``.

    Accumulating into the reversed view adds in the same order as a
    copying scan, so the sums are bit-identical, without a temporary grid
    per axis.
    """
    for ax in range(start, grid.ndim):
        rev = np.flip(grid, ax)
        np.cumsum(rev, axis=ax, out=rev)
    return grid


def candidate_axes(points: np.ndarray, tmax: np.ndarray) -> list[np.ndarray]:
    """Per-coordinate sorted breakpoints in (0, tmax_j), with 0 and tmax added."""
    axes = []
    for j in range(points.shape[1]):
        col = points[:, j]
        inside = col[(col > 0.0) & (col < tmax[j])]
        axes.append(sorted_distinct(np.concatenate(([0.0], inside, [tmax[j]]))))
    return axes


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for NaN-free ``a``, by a sort: np.unique's first call
    loads ``numpy.ma``, which the signed scan and ``estimate`` would load
    for nothing else."""
    a = np.sort(a)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


def _check_points(points, min_rows: int = 0) -> np.ndarray:
    """The data as a float n x d matrix, n >= min_rows, d >= 1, all finite."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < min_rows or points.shape[1] < 1:
        need = f"n >= {min_rows} and d >= 1" if min_rows else "d >= 1"
        raise PreconditionError(f"points must be an n x d matrix with {need}, "
                                f"got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise PreconditionError("points must be finite")
    return points


def _check_box(tmax, d: int) -> np.ndarray:
    """The threshold box as a length-d array; it must be finite and >= 0."""
    tmax = np.broadcast_to(np.asarray(tmax, dtype=float), (d,))
    if not np.all(np.isfinite(tmax)) or np.any(tmax < 0):
        raise PreconditionError(
            f"threshold box must be finite and nonnegative, got {tmax.tolist()}"
        )
    return tmax


def strip_rows(row_nodes: int) -> int:
    """Axis-0 rows per strip when a row holds ``row_nodes`` float64 nodes."""
    return max(1, _STRIP_BYTES // (8 * max(row_nodes, 1)))


# The most nodes a declared grid may have: 256^3, the largest grid that
# ``models.sup_bias`` scans.
_GRID_NODE_BUDGET = 1 << 24


def scan_is_exact(d: int, grid) -> bool:
    """True iff no grid is declared; the exact scan serves only d <= 2.

    ``grid`` is the declared grid's nodes per axis, r, or None.  A grid of
    more than ``_GRID_NODE_BUDGET`` nodes is refused: a scan visits all r^d
    of them, and the d >= 3 walker holds r^(d - 1) in each strip row.
    """
    if grid is None:
        if d >= 3:
            raise ConfigurationError(
                f"d = {d} >= 3 requires a declared grid; the exact scan serves d <= 2"
            )
        return True
    nodes = int(grid) ** d
    if nodes > _GRID_NODE_BUDGET:
        raise ConfigurationError(
            f"a grid of {grid} nodes per axis at d = {d} has {nodes:,} nodes, "
            f"above the budget of {_GRID_NODE_BUDGET:,} (256^3)"
        )
    return False


def declared_axis(edge: float, resolution: int) -> np.ndarray:
    """The declared grid on [0, edge]: ``resolution`` evenly spaced nodes.

    A grid scan needs both ends of the box, so fewer than two nodes is a
    configuration error.
    """
    if resolution < 2:
        raise ConfigurationError(f"grid resolution must be >= 2, got {resolution}")
    return np.linspace(0.0, edge, resolution)


def _dominance_strips(
    points: np.ndarray,
    weights: np.ndarray,
    axes: list[np.ndarray],
    strict: bool,
):
    """Yield ``(lo, hi, block)`` with block = dominance grid rows lo..hi-1.

    Strips come from the top of axis 0 down.  Each strip's histogram is
    filled with the strip's points in their original order, the carried
    axis-0 suffix row is added to its last row, each row then adds the
    row above it, from the top of the strip down (one reversed cumsum
    for narrow rows, a row loop for wide ones), and ``suffix_sums`` runs
    along the other axes: the same additions in the same order as
    ``suffix_sums`` on the dense histogram, so every node is
    bit-identical to it.  ``block`` is reused, so it is valid only
    until the next strip is requested; the caller may overwrite it.
    """
    side = "left" if strict else "right"
    shape = tuple(len(a) for a in axes)
    buckets = []
    alive = np.ones(points.shape[0], dtype=bool)
    for j, a in enumerate(axes):
        b = np.searchsorted(a, points[:, j], side=side) - 1
        alive &= b >= 0
        buckets.append(b)
    order = np.argsort(buckets[0][alive], kind="stable")
    buckets = [b[alive][order] for b in buckets]
    weights = weights[alive][order]
    width = math.prod(shape[1:])
    rows = strip_rows(width)
    buf = np.empty((min(rows, shape[0]),) + shape[1:])
    carry = None
    for hi in range(shape[0], 0, -rows):
        lo = max(hi - rows, 0)
        block = buf[: hi - lo]
        block.fill(0.0)
        start, stop = np.searchsorted(buckets[0], (lo, hi))
        idx = [buckets[0][start:stop] - lo] + [b[start:stop] for b in buckets[1:]]
        np.add.at(block, tuple(idx), weights[start:stop])
        if carry is not None:
            block[-1] += carry
        if width <= _NARROW_ROW:
            rev = block[::-1]
            np.cumsum(rev, axis=0, out=rev)
        else:
            for i in range(block.shape[0] - 2, -1, -1):
                block[i] += block[i + 1]
        carry = block[0].copy()
        yield lo, hi, suffix_sums(block, start=1)


def dominance_weight_grid(
    points: np.ndarray,
    weights: np.ndarray,
    axes: list[np.ndarray],
    strict: bool,
) -> np.ndarray:
    """Total weight of points dominating each candidate grid node.

    Entry [i_1, ..., i_d] is the summed weight of rows with
    z_j > axes[j][i_j] (strict=True) or z_j >= axes[j][i_j] for all j.
    Holds the whole float grid, for the block corners of
    ``pruned_corner_max``; ``empirical.stdf_lattice_counts`` writes its
    ``count_strips`` into int64 counts, and the scans below reduce them
    strip by strip.
    """
    grid = np.empty(tuple(len(a) for a in axes))
    for lo, hi, block in _dominance_strips(points, weights, axes, strict):
        grid[lo:hi] = block
    return grid


@dataclass(frozen=True)
class CornerGrid:
    """l at the corners of a lattice's cells, served a strip or a window at a time.

    Every axis has the m_top + 2 nodes 0..m_top + 1: the cell corners
    of the levels 0..m_top and the box edge.  ``evaluate(idx)`` returns
    l on the product grid of the node index arrays ``idx``, one per axis;
    index arrays of shape (P, L_j) give P product grids, stacked.  No
    scan holds the whole grid.  For d = 2 it also holds the pruned scan's
    summary, computed once, when it is built: the nodes 0..m_top of each
    axis fall in blocks of _PRUNE_BLOCK nodes, lows[i]..ends[i] (the last
    ends at m_top and may overlap its neighbour); block (p, q) reads l on
    nodes lows..ends + 1 of both axes, and ``l_min``, ``l_end`` and ``l_up``,
    l at (lows, lows), (ends, ends) and (ends + 1, ends + 1), are all the
    bound pass reads of it.  A NaN there raises, as in the strip walk.
    Under _PRUNE_BLOCK lattice nodes a side, or at d != 2, all five are None.
    """

    m_top: int
    d: int
    evaluate: Callable[[list[np.ndarray]], np.ndarray]
    lows: np.ndarray | None = field(init=False, default=None)
    ends: np.ndarray | None = field(init=False, default=None)
    l_min: np.ndarray | None = field(init=False, default=None)
    l_end: np.ndarray | None = field(init=False, default=None)
    l_up: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        if self.d != 2 or self.m_top + 1 < _PRUNE_BLOCK:
            return
        side = _PRUNE_BLOCK
        ends = np.minimum(np.arange(side - 1, self.m_top + side, side), self.m_top)
        lows = ends - (side - 1)
        corners = [self.evaluate([at, at]) for at in (lows, ends, ends + 1)]
        if any(np.isnan(c).any() for c in corners):
            raise PreconditionError("the comparison is NaN at some grid node")
        for name, value in zip(("lows", "ends", "l_min", "l_end", "l_up"),
                               (lows, ends, *corners)):
            object.__setattr__(self, name, value)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The grid's axis-0 rows lo..hi-1."""
        nodes = np.arange(self.m_top + 2)
        return self.evaluate([np.arange(lo, hi)] + [nodes] * (self.d - 1))


def _node_gap(count_k, l_lo, l_hi) -> np.ndarray:
    """max(|c/k - l_lo|, |c/k - l_hi|): a node's gap at its two cell corners."""
    low, high = np.subtract(count_k, l_lo), np.subtract(count_k, l_hi)
    return np.maximum(np.abs(low, out=low), np.abs(high, out=high), out=low)


def pruned_corner_max(depths: np.ndarray, k: int, corners: CornerGrid) -> float | None:
    """The lattice corner scan of a d = 2 sample, by prune and verify.

    The scan is max over the nodes (i, j), 0 <= i, j <= m_top, of
    |c/k - l[i, j]| and |c/k - l[i+1, j+1]|, with
    c = #{rows with depth_0 <= i or depth_1 <= j} and ``l`` the corner
    grid ``corners``, which must hold the block summary.  ``depths`` is
    ``tail_depths``' U x 2 integer matrix at m_top on both axes, so each
    column's depths 1..m_top belong to distinct rows.

    The grid must be nonnegative and nondecreasing along both axes within
    s = _MONOTONE_SLACK: on every block [a..A] x [b..B], l on its corner
    window a..A+1 x b..B+1 lies in [l[a, b] (1 - s), l[A+1, B+1] (1 + s)].
    c is nondecreasing in both indices and rounded subtraction is
    monotone in each argument, so every node of the block is at most
    max(c(A, B)/k - l[a, b] (1 - s), l[A+1, B+1] (1 + s) - c(a, b)/k).
    The best value starts at the exact value of every block's high node;
    a block whose bound does not exceed it cannot raise the maximum.  The
    others are evaluated exactly, in descending bound order, in chunks,
    and the best value rises after each chunk; l is read on each chunk's
    windows only.  Inside a block, a node's survivors (c = U - survivors)
    are the high node's plus the tail rows of the block's row band and
    column band that lie beyond the node, at most 2 (B - 1) rows, read off
    the depth permutations.  Every node's value is the one the strip walk
    computes, so the maximum is bit-identical to it.

    Returns None when at least _PRUNE_CUT of the blocks survive the first
    pass; the strip walk is then the cheaper exact scan.
    """
    lows, ends, side = corners.lows, corners.ends, _PRUNE_BLOCK
    m_top, nb, u = corners.m_top, ends.size, depths.shape[0]
    points, ones = depths.astype(float), np.ones(u)
    # nb x nb arrays, each freed once read: only surv_hi and the bound stay
    surv_hi = dominance_weight_grid(points, ones, [ends.astype(float)] * 2, strict=True)
    count_hi = (u - surv_hi) / k
    count_lo = dominance_weight_grid(points, ones, [lows.astype(float)] * 2, strict=True)
    count_lo = np.divide(np.subtract(u, count_lo, out=count_lo), k, out=count_lo)
    bound = np.multiply(corners.l_up, 1.0 + _MONOTONE_SLACK)
    np.subtract(bound, count_lo, out=count_lo)
    np.multiply(corners.l_min, 1.0 - _MONOTONE_SLACK, out=bound)
    np.maximum(np.subtract(count_hi, bound, out=bound), count_lo, out=bound)
    del count_lo
    bound = bound.ravel()
    best = _checked_max(_node_gap(count_hi, corners.l_end, corners.l_up))
    del count_hi
    alive = np.flatnonzero(bound > best)
    if alive.size >= _PRUNE_CUT * bound.size:
        return None

    # band[j][v]: the depth on the other axis of the row at depth v on axis j
    band = [np.zeros(m_top + 1, dtype=np.int64) for _ in range(2)]
    for j in range(2):
        own = depths[:, j] <= m_top
        band[j][depths[own, j]] = depths[own, 1 - j]
    offs = np.arange(side)
    window = np.arange(side + 1)  # a block's corner window, from its low node
    alive = alive[np.argsort(bound[alive], kind="stable")[::-1]]
    chunk = 256  # blocks per batch; 128 to 512 timed alike at k = 800
    for lo in range(0, alive.size, chunk):
        part = alive[lo:lo + chunk]
        part = part[bound[part] > best]
        if part.size == 0:
            break
        p, q = np.divmod(part, nb)
        a, b = lows[p], lows[q]
        cols = b[:, None] + offs
        # survivors at node (a + t, b + s): the high node's; the column-band
        # rows deeper than b + s on axis 1 and beyond the block on axis 0;
        # the row-band rows deeper than a + t on axis 0 and b + s on axis 1
        beyond = band[1][b[:, None] + offs[1:]] > ends[p, None]
        row = np.zeros((part.size, side), dtype=np.int64)
        np.cumsum(beyond[:, ::-1], axis=1, out=row[:, -2::-1])
        row += surv_hi[p, q].astype(np.int64)[:, None]
        surv = np.empty((part.size, side, side), dtype=np.int64)
        surv[:, -1] = row
        for t in range(side - 2, -1, -1):
            row += band[0][a + t + 1][:, None] > cols
            surv[:, t] = row
        count = np.subtract(u, surv, out=surv) / k
        l_near = corners.evaluate([a[:, None] + window, b[:, None] + window])
        gap = _node_gap(count, l_near[:, :-1, :-1], l_near[:, 1:, 1:])
        best = max(best, _checked_max(gap))
    return best


def _strip_mass(mass_axes_fn, axes: list[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """The comparison measure on rows lo..hi-1 of the product grid of ``axes``."""
    strip_axes = [axes[0][lo:hi]] + list(axes[1:])
    mass = np.asarray(mass_axes_fn(strip_axes), dtype=float)
    if mass.shape != tuple(len(a) for a in strip_axes):
        raise PreconditionError("mass grid shape does not match candidate grid")
    return mass


def _checked_max(gap: np.ndarray) -> float:
    """The largest of the gaps (>= 0), 0 for none; NaN (a NaN reference) raises."""
    value = float(gap.max(initial=0.0))
    if math.isnan(value):
        raise PreconditionError("the comparison is NaN at some grid node")
    return value


def cell_corner_max(values: np.ndarray, ref: np.ndarray, scratch: np.ndarray) -> float:
    """max over the nodes i of |values[i] - ref[i]| and |values[i] - ref[i+1]|.

    ref[i] is node i's lower cell corner and ref[i+1], where ``ref`` has
    it, the upper one.  Along each axis ``ref`` has one node more than
    ``values`` (a lattice's corner grid) or as many (a set-mass grid that
    ends at the box).  The gaps are formed in place, the lower-corner
    ones in ``scratch`` (``values``' shape, sharing no memory with
    ``ref``) and the upper-corner ones in ``values``, which is overwritten.
    """
    low = tuple(slice(0, s) for s in values.shape)
    best = _checked_max(np.abs(np.subtract(values, ref[low], out=scratch), out=scratch))
    up = tuple(slice(0, min(s, r - 1)) for s, r in zip(values.shape, ref.shape))
    upper, ref_up = values[up], ref[tuple(slice(1, 1 + sl.stop) for sl in up)]
    gap = np.abs(np.subtract(upper, ref_up, out=upper), out=upper)
    return max(best, _checked_max(gap))


def count_strips(points: np.ndarray, axes: list[np.ndarray], scale: float):
    """Yield ``(lo, hi, counts)``: (n - #{rows > node}) / scale on rows lo..hi-1.

    That is the number of rows with some coordinate at or below the node,
    formed in place in the walker's block: valid until the next strip.
    """
    n = points.shape[0]
    for lo, hi, block in _dominance_strips(points, np.ones(n), axes, strict=True):
        yield lo, hi, np.divide(np.subtract(n, block, out=block), scale, out=block)


def _corner_scan(points: np.ndarray, axes: list[np.ndarray], scale: float,
                 ref_rows) -> float:
    """``cell_corner_max`` of every count strip against ``ref_rows(lo, hi + 1)``.

    That is the reference's rows lo..hi (or up to its end): the strip's
    own rows and the next row up, the upper corners of its last row.
    """
    best, scratch = 0.0, None
    for lo, hi, counts in count_strips(points, axes, scale):
        if scratch is None:  # the first strip is the largest
            scratch = np.empty_like(counts)
        best = max(best, cell_corner_max(counts, ref_rows(lo, hi + 1), scratch[: hi - lo]))
    return best


def lattice_corner_max(depths: np.ndarray, k: int, corners: CornerGrid) -> float:
    """The exact lattice corner scan of a d <= 2 sample's U tail rows.

    max over the lattice nodes m of |c(m)/k - l| at the cell corners m and
    m + 1, c(m) = #{tail rows with depth_j <= m_j for some j}.  ``depths``
    is ``tail_depths``' U x d matrix at m_top on every axis (U may be 0)
    and ``corners`` the (m_top + 2)^d grid of l.  ``pruned_corner_max``
    runs first when the grid has a summary; otherwise, or when it declines,
    the count strips at the levels 0..m_top meet rows lo..hi of
    ``corners``, read a strip at a time.  Both give one float.
    """
    if corners.lows is not None:
        value = pruned_corner_max(depths, k, corners)
        if value is not None:
            return value
    levels = np.arange(corners.m_top + 1, dtype=float)
    return _corner_scan(depths.astype(float), [levels] * depths.shape[1], k,
                        corners.rows)


def sup_count_vs_mass(points: np.ndarray, tmax, mass_axes_fn) -> float:
    """Exact sup over t in [0, tmax]^d of |count_n(A(t)) - mass(A(t))|.

    ``points`` is the n x d data matrix, ``mass_axes_fn(axes)`` must
    return the continuous measure of A(t) on the product grid of the
    per-coordinate threshold arrays; it is called once per strip of
    axis-0 thresholds.  The count is the fraction of rows with some
    coordinate below its threshold.  ``points`` must be finite, n >= 1.
    """
    points = _check_points(points, min_rows=1)  # the count divides by n
    tmax = _check_box(tmax, points.shape[1])
    axes = candidate_axes(points, tmax)
    return _corner_scan(points, axes, points.shape[0],
                        lambda lo, hi: _strip_mass(mass_axes_fn, axes, lo, hi))


def max_count_gap(points: np.ndarray, axes: list[np.ndarray], scale: float,
                  ref_axes_fn, ref_axes: list[np.ndarray] | None = None) -> float:
    """max over the nodes t of ``axes`` of |(n - #{rows > t}) / scale - ref|.

    ``ref_axes_fn`` gives the comparison on the product grid of
    ``ref_axes`` (default: ``axes``) and is called once per strip of
    axis-0 nodes; ``ref_axes`` lets the count be read at snapped nodes
    while the comparison is evaluated at the declared ones.  ``points``
    must be finite; n = 0 rows count 0 everywhere.
    """
    points = _check_points(points)
    ref_axes = axes if ref_axes is None else ref_axes
    best = 0.0
    for lo, hi, gap in count_strips(points, axes, scale):
        gap -= _strip_mass(ref_axes_fn, ref_axes, lo, hi)
        best = max(best, _checked_max(np.abs(gap, out=gap)))
    return best


def sup_count_vs_mass_grid(points: np.ndarray, tmax, mass_axes_fn,
                           resolution: int) -> SupEstimate:
    """Grid fallback for d >= 3: regular scan plus an explicit error bound.

    The reported slack adds the measure's variation across one grid step
    (at most one per axis for uniform margins) and the worst per-axis
    count mass strictly inside any step.  ``points`` must be finite, n >= 1.
    """
    points = _check_points(points, min_rows=1)  # the count divides by n
    n = points.shape[0]
    tmax = _check_box(tmax, points.shape[1])
    axes = [declared_axis(t, resolution) for t in tmax]
    value = max_count_gap(points, axes, n, mass_axes_fn)
    slack = 0.0
    for j, a in enumerate(axes):
        step = a[1] - a[0] if len(a) > 1 else 0.0
        inside = np.histogram(points[:, j], bins=a)[0]
        slack += step + (inside.max() / n if inside.size else 0.0)
    return SupEstimate(value=value, discretization_bound=float(slack))


def _integer_signs(signs, n: int) -> np.ndarray:
    """The sign vector as int64; it must have shape (n,) and integer values."""
    signs = np.asarray(signs)
    if signs.shape != (n,):
        raise PreconditionError(
            f"signs must have shape ({n},), got {signs.shape}"
        )
    if signs.dtype.kind in "biu":
        return signs.astype(np.int64, copy=False)
    # floats are accepted when they are integers that int64 holds exactly
    if signs.dtype.kind == "f" and np.all(
        (np.abs(signs) <= 2.0**53) & (np.trunc(signs) == signs)
    ):
        return signs.astype(np.int64)
    raise PreconditionError("signs must be integer-valued")


def _signed_dominance_range(
    points: np.ndarray, signs: np.ndarray, axes: list[np.ndarray]
) -> tuple[int, int]:
    """(min, max) over the nodes of a d <= 2 grid of the signed dominance sum.

    Node [i0, i1] sums the signs of the rows with z_j >= axes[j][i_j] on
    every axis (d = 1 has one node on a second axis).  Rows in the top
    bucket of every axis count at every node and fold into a constant.
    Axis 1 is cut into blocks of B = ceil(sqrt(m1)) columns, swept from
    the right.  At a node in block c the sum is the rows right of the
    block, a suffix sum over axis 0 of their per-bucket histogram, plus
    the rows inside it, whose profile along the block changes only at
    the K_c distinct axis-0 buckets of those rows.  The extremes of the
    K_c + 1 profiles give every axis-0 row's extremes in the block, in
    O(n + m0 nb + sum_c K_c B) integer work.  Rows in the top axis-1
    bucket count at every axis-1 node, so they start in the histogram of
    rows to the right and are no block's rows.  Memory is then
    O(n + m0 + m1) when each lower axis-1 bucket holds one row (K_c <= B);
    repeated coordinates can stack rows in one bucket, up to O(n + m0 B).
    """
    d = points.shape[1]
    # one comparison per column: a reduction along the short axis 1 is slower
    folded = reduce(np.logical_and, (points[:, j] >= a[-1] for j, a in enumerate(axes)))
    const = int(signs.sum(where=folded))
    rest, signs = points[~folded], signs[~folded]
    buckets = [np.searchsorted(a, rest[:, j], side="right") - 1
               for j, a in enumerate(axes)]
    if d == 1:
        buckets.append(np.zeros_like(buckets[0]))
    alive = (buckets[0] >= 0) & (buckets[1] >= 0)
    order = np.argsort(buckets[1][alive], kind="stable")
    b0, b1, signs = (x[alive][order] for x in (*buckets, signs))
    m0, m1 = len(axes[0]), len(axes[1]) if d == 2 else 1

    width = math.isqrt(m1 - 1) + 1
    nblocks = -(-m1 // width)
    # rows in the top axis-1 bucket count at every axis-1 node: they start
    # in ``beyond``, so the last block's profiles hold only its other rows
    top = np.searchsorted(b1, m1 - 1)
    edges = np.minimum(np.searchsorted(b1, np.arange(nblocks + 1) * width), top)
    rows = np.arange(m0)
    beyond = np.zeros(m0, dtype=np.int64)  # rows right of block c, by b0
    np.add.at(beyond, b0[top:], signs[top:])
    lows = np.empty(nblocks, dtype=np.int64)
    highs = np.empty(nblocks, dtype=np.int64)
    for c in reversed(range(nblocks)):
        sl = slice(edges[c], edges[c + 1])
        levels = sorted_distinct(b0[sl])
        state = np.searchsorted(levels, b0[sl])
        # profile q: the block's rows with b0 >= levels[q]; the last is empty
        profiles = np.zeros((len(levels) + 1, min(width, m1 - c * width)),
                            dtype=np.int64)
        np.add.at(profiles, (state, b1[sl] - c * width), signs[sl])
        suffix_sums(profiles)
        at_row = np.searchsorted(levels, rows)
        right = np.cumsum(beyond[::-1])[::-1]
        lows[c] = (right + profiles.min(axis=1)[at_row]).min()
        highs[c] = (right + profiles.max(axis=1)[at_row]).max()
        np.add.at(beyond, b0[sl], signs[sl])
    return const + int(lows.min()), const + int(highs.max())


def sup_signed_count(
    points: np.ndarray,
    signs: np.ndarray,
    tmax,
    axes: list[np.ndarray] | None = None,
) -> float:
    """sup over t in [0, tmax]^d of |sum_i sign_i 1{Z_i in A(t)}|.

    Exact when ``axes`` is omitted (the scan runs on the data's own
    breakpoints); passing explicit axes evaluates on that grid instead,
    which is the declared fallback for higher dimensions.  ``signs``
    must be integer-valued, as the sums are exact in int64; ``points``
    must be finite.  d <= 2 runs the column-block kernel, d >= 3 the
    strip walker.
    """
    points = _check_points(points)
    signs = _integer_signs(signs, points.shape[0])
    tmax = _check_box(tmax, points.shape[1])
    if axes is None:
        axes = candidate_axes(points, tmax)
    # class comparison is strict (<); membership = 1 - {z >= t everywhere},
    # so the largest |total - dominated| is total - min or max - total
    total = int(signs.sum())
    if points.shape[1] <= 2:
        low, high = _signed_dominance_range(points, signs, axes)
    else:
        low, high = math.inf, -math.inf
        for _, _, dominated in _dominance_strips(points, signs, axes, strict=False):
            low, high = min(low, dominated.min()), max(high, dominated.max())
    return float(max(total - low, high - total))
