"""Exact cell scans for set-indexed empirical statistics.

The sets of interest are lower-orthant unions

    A(t) = {z : z_1 < t_1 or ... or z_d < t_d},   t in [0, tmax]^d.

Over such a family, an empirical count is piecewise constant with
breakpoints at the data coordinates, while the comparison measure is
continuous and componentwise monotone.  The supremum of their absolute
difference over the whole continuum is therefore attained by comparing
each cell's count against the measure at the cell's two extreme corners,
which this module enumerates exactly.

Whether the threshold comparison is strict or closed changes the count
only on the measure-zero set of thresholds sitting exactly on data
points; the supremum over cell closures is identical for the two
conventions, so a single scan serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError


@dataclass(frozen=True)
class SupEstimate:
    """A supremum value plus the reported discretization slack.

    ``discretization_bound`` is 0 for the exact scans; grid fallbacks
    report the gap within which the true supremum is guaranteed to lie:
    value <= sup <= value + discretization_bound.
    """

    value: float
    discretization_bound: float = 0.0


def suffix_sums(grid: np.ndarray) -> np.ndarray:
    """Reverse cumulative sums along every axis, in place; returns ``grid``.

    Accumulating into the reversed view adds in the same order as a
    copying scan, so the sums are bit-identical, without a temporary grid
    per axis.
    """
    for ax in range(grid.ndim):
        rev = np.flip(grid, ax)
        np.cumsum(rev, axis=ax, out=rev)
    return grid


def candidate_axes(points: np.ndarray, tmax: np.ndarray) -> list[np.ndarray]:
    """Per-coordinate sorted breakpoints in (0, tmax_j), with 0 and tmax added."""
    axes = []
    for j in range(points.shape[1]):
        col = points[:, j]
        inside = col[(col > 0.0) & (col < tmax[j])]
        axes.append(np.unique(np.concatenate(([0.0], inside, [tmax[j]]))))
    return axes


def dominance_weight_grid(
    points: np.ndarray,
    weights: np.ndarray,
    axes: list[np.ndarray],
    strict: bool,
) -> np.ndarray:
    """Total weight of points dominating each candidate grid node.

    Entry [i_1, ..., i_d] is the summed weight of rows with
    z_j > axes[j][i_j] (strict=True) or z_j >= axes[j][i_j] for all j.
    """
    side = "left" if strict else "right"
    shape = tuple(len(a) for a in axes)
    hist = np.zeros(shape, dtype=float)
    buckets = []
    alive = np.ones(points.shape[0], dtype=bool)
    for j, a in enumerate(axes):
        b = np.searchsorted(a, points[:, j], side=side) - 1
        alive &= b >= 0
        buckets.append(b)
    if alive.any():
        idx = tuple(b[alive] for b in buckets)
        np.add.at(hist, idx, weights[alive])
    return suffix_sums(hist)


def _pairwise_cell_max(count_frac: np.ndarray, mass: np.ndarray) -> float:
    """Max over cells of |count - mass| at lower and upper corners."""
    dev = np.abs(count_frac - mass)
    best = float(dev.max())
    d = count_frac.ndim
    lower = count_frac[(slice(None, -1),) * d]
    upper = mass[(slice(1, None),) * d]
    if lower.size:
        best = max(best, float(np.abs(lower - upper).max()))
    return best


def sup_count_vs_mass(
    points: np.ndarray,
    tmax,
    mass_axes_fn,
) -> float:
    """Exact sup over t in [0, tmax]^d of |count_n(A(t)) - mass(A(t))|.

    ``points`` is the n x d data matrix, ``mass_axes_fn(axes)`` must
    return the continuous measure of A(t) on the product grid of the
    per-coordinate threshold arrays.  The count is the fraction of rows
    with some coordinate below its threshold.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    tmax = np.broadcast_to(np.asarray(tmax, dtype=float), (points.shape[1],))
    if np.any(tmax < 0):
        raise PreconditionError("threshold box must be nonnegative")
    axes = candidate_axes(points, tmax)
    ones = np.ones(n)
    dominated = dominance_weight_grid(points, ones, axes, strict=True)
    count_frac = (n - dominated) / n  # rows with some coordinate <= node
    mass = np.asarray(mass_axes_fn(axes), dtype=float)
    if mass.shape != count_frac.shape:
        raise PreconditionError("mass grid shape does not match candidate grid")
    return _pairwise_cell_max(count_frac, mass)


def sup_count_vs_mass_grid(
    points: np.ndarray,
    tmax,
    mass_axes_fn,
    resolution: int,
) -> SupEstimate:
    """Grid fallback for d >= 3: regular scan plus an explicit error bound.

    The reported slack adds the measure's variation across one grid step
    (at most one per axis for uniform margins) and the worst per-axis
    count mass strictly inside any step.
    """
    if resolution < 2:
        raise ConfigurationError(f"grid resolution must be >= 2, got {resolution}")
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    tmax = np.broadcast_to(np.asarray(tmax, dtype=float), (points.shape[1],))
    axes = [np.linspace(0.0, tmax[j], resolution) for j in range(points.shape[1])]
    dominated = dominance_weight_grid(points, np.ones(n), axes, strict=True)
    count_frac = (n - dominated) / n
    mass = np.asarray(mass_axes_fn(axes), dtype=float)
    value = float(np.abs(count_frac - mass).max())
    slack = 0.0
    for j, a in enumerate(axes):
        step = a[1] - a[0] if len(a) > 1 else 0.0
        inside = np.histogram(points[:, j], bins=a)[0]
        slack += step + (inside.max() / n if inside.size else 0.0)
    return SupEstimate(value=value, discretization_bound=float(slack))


def sup_signed_count(
    points: np.ndarray,
    signs: np.ndarray,
    tmax,
    axes: list[np.ndarray] | None = None,
) -> float:
    """sup over t in [0, tmax]^d of |sum_i sign_i 1{Z_i in A(t)}|.

    Exact when ``axes`` is omitted (the scan runs on the data's own
    breakpoints); passing explicit axes evaluates on that grid instead,
    which is the declared fallback for higher dimensions.
    """
    points = np.asarray(points, dtype=float)
    signs = np.asarray(signs, dtype=float)
    tmax = np.broadcast_to(np.asarray(tmax, dtype=float), (points.shape[1],))
    if axes is None:
        axes = candidate_axes(points, tmax)
    # class comparison is strict (<); membership = 1 - {z >= t everywhere}
    dominated = dominance_weight_grid(points, signs, axes, strict=False)
    inside = signs.sum() - dominated
    return float(np.abs(inside).max())
