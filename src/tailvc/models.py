"""Closed-form tail dependence models used as ground truth.

Three families with known dependence function l and known finite-level
tail law:

* ``independence``   l(x) = x_1 + ... + x_d
* ``comonotone``     l(x) = max_j x_j, with the finite-level tail law equal
  to the limit for every admissible level (zero discrepancy by construction)
* ``logistic``       l(x) = (sum_j x_j^theta)^(1/theta), theta >= 1,
  interpolating independence (theta = 1) and comonotonicity (theta -> inf)

Conventions.  A model describes a d-vector X with uniform margins whose
*upper* tail carries the dependence; the margin-standardized exceedance
coordinates are U = 1 - X.  The tail union functional is

    tail_union_prob(y) = P(U^1 <= y_1 or ... or U^d <= y_d)
                       = 1 - C(1 - y_1, ..., 1 - y_d),

with C the model copula, and the dependence function is the limit of
t^-1 * tail_union_prob(t x) as t -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigurationError, PreconditionError

VARIANTS = ("independence", "comonotone", "logistic")

_SUP_BIAS_GRID = 256

# The largest logistic theta a model may take.  Above about 50 the
# frailty draw's sin(V) ** theta underflows and its other power overflows,
# so S is inf or NaN and x is exactly 1.0 or NaN; ten seeded 1e6-row
# d = 2 draws at each of theta = 10, 20, 30 and 40 held neither.
_LOGISTIC_THETA_MAX = 40.0


@dataclass(frozen=True)
class StdfModel:
    """Tagged tail dependence model, evaluable at any nonnegative point."""

    variant: str
    d: int
    theta: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown model variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.d < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.d}")
        if self.variant == "logistic":
            if self.theta is not None and self.theta > _LOGISTIC_THETA_MAX:
                raise ConfigurationError(
                    f"logistic dependence parameter must be <= {_LOGISTIC_THETA_MAX:g}, "
                    f"got {self.theta:g}: the frailty draw overflows above it"
                )
            if self.theta is None or not np.isfinite(self.theta) or self.theta < 1:
                raise ConfigurationError(
                    f"logistic dependence parameter must be >= 1, got {self.theta}"
                )
        elif self.theta is not None:
            raise ConfigurationError(
                f"{self.variant} model takes no dependence parameter"
            )


def independence(d: int) -> StdfModel:
    return StdfModel("independence", d)


def comonotone(d: int) -> StdfModel:
    return StdfModel("comonotone", d)


def logistic(theta: float, d: int) -> StdfModel:
    return StdfModel("logistic", d, float(theta))


def parse_model(tag: str, d: int) -> StdfModel:
    """Parse ``independence`` / ``comonotone`` / ``logistic(theta)``."""
    tag = tag.strip()
    if tag == "independence" or tag == "uniform":
        return independence(d)
    if tag == "comonotone":
        return comonotone(d)
    if tag.startswith("logistic(") and tag.endswith(")"):
        try:
            theta = float(tag[len("logistic(") : -1])
        except ValueError:
            raise ConfigurationError(f"cannot parse dependence parameter in {tag!r}")
        return logistic(theta, d)
    raise ConfigurationError(f"unknown model tag {tag!r}")


def _check_point(model: StdfModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.d:
        raise PreconditionError(
            f"point has {x.shape[-1]} coordinates, model dimension is {model.d}"
        )
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise PreconditionError("evaluation point must be finite and >= 0")
    return x


def eval_stdf(model: StdfModel, x) -> float | np.ndarray:
    """Evaluate the dependence function l at x (last axis = coordinates)."""
    x = _check_point(model, x)
    if model.variant == "independence":
        out = x.sum(axis=-1)
    elif model.variant == "comonotone":
        out = x.max(axis=-1)
    else:
        th = model.theta
        out = _theta_norm((x ** th).sum(axis=-1), [x[..., j] for j in range(model.d)], th)
    return float(out) if out.ndim == 0 else out


def _plus_zero(out: np.ndarray, d: int) -> np.ndarray:
    """``out + 0.0`` (-0.0 becomes +0.0, every other value stays), in place.

    ``out`` is a reduction over d axes; for d = 1 it is the caller's own
    array, so that one is copied instead.
    """
    return out + 0.0 if d == 1 else np.add(out, 0.0, out=out)


def eval_stdf_axes(model: StdfModel, axes: list[np.ndarray]) -> np.ndarray:
    """Evaluate l on the product grid of per-coordinate value arrays.

    Returns a tensor of shape (len(axes[0]), ..., len(axes[d-1])) without
    materializing the stacked coordinate grid.  Axes of shape (P, L_j),
    one shared P, give P product grids at once, shape (P, L_0, ...,
    L_{d-1}); l is elementwise, so each equals its own single-grid call.
    """
    if len(axes) != model.d:
        raise PreconditionError(f"expected {model.d} axes, got {len(axes)}")
    shaped = [np.asarray(a, dtype=float) for a in axes]
    shaped = [
        a.reshape(a.shape[:-1] + (1,) * j + (-1,) + (1,) * (model.d - 1 - j))
        for j, a in enumerate(shaped)
    ]
    for a in shaped:
        if np.any(a < 0):
            raise PreconditionError("grid values must be >= 0")
    if model.variant == "independence":
        return _plus_zero(reduce(np.add, shaped), model.d)
    if model.variant == "comonotone":
        return _plus_zero(reduce(np.maximum, shaped), model.d)
    th = model.theta
    return _theta_norm(reduce(np.add, [a**th for a in shaped]), shaped, th)


def tail_union_prob(model: StdfModel, y) -> float | np.ndarray:
    """P(U^1 <= y_1 or ... or U^d <= y_d) for U = 1 - X, exact: 1 - C(1 - y)."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or np.any(y > 1):
        raise PreconditionError("tail thresholds must lie in [0, 1]")
    if y.shape[-1] != model.d:
        raise PreconditionError(
            f"point has {y.shape[-1]} coordinates, model dimension is {model.d}"
        )
    if model.variant == "comonotone":
        # all coordinates share one uniform; avoids the 1 - (1 - y) round trip
        out = y.max(axis=-1)
        return float(out) if np.ndim(out) == 0 else out
    u = 1.0 - y
    if model.variant == "independence":
        c = u.prod(axis=-1)
    else:
        with np.errstate(divide="ignore"):
            q = -np.log(u)
        s = (q ** model.theta).sum(axis=-1)
        c = np.exp(-_theta_norm(s, [q[..., j] for j in range(model.d)], model.theta))
    return 1.0 - (float(c) if np.ndim(c) == 0 else c)


def tail_union_prob_axes(model: StdfModel, axes: list[np.ndarray]) -> np.ndarray:
    """tail_union_prob on the product grid of per-coordinate thresholds."""
    if len(axes) != model.d:
        raise PreconditionError(f"expected {model.d} axes, got {len(axes)}")
    raw = []
    for j, a in enumerate(axes):
        a = np.asarray(a, dtype=float)
        if np.any(a < 0) or np.any(a > 1):
            raise PreconditionError("tail thresholds must lie in [0, 1]")
        raw.append(a.reshape((-1,) + (1,) * (model.d - 1 - j)))
    if model.variant == "comonotone":
        return _plus_zero(reduce(np.maximum, raw), model.d)
    shaped = [1.0 - a for a in raw]
    if model.variant == "independence":
        c = reduce(np.multiply, shaped)
    else:
        with np.errstate(divide="ignore"):
            q = [-np.log(a) for a in shaped]
        s = reduce(np.add, [qj ** model.theta for qj in q])
        c = np.exp(-_theta_norm(s, q, model.theta))
    return 1.0 - c


def _theta_norm(s, q: list, th: float):
    """(sum_j q_j^th)^(1/th) from the caller's own sum ``s`` of q_j^th.

    Where s fell below the normal range, q^th lost its digits; those
    entries alone are formed again as max q (sum_j (q_j / max q)^th)^(1/th).
    ``q`` holds the d coordinates, each broadcastable to s's shape.
    """
    out, tiny = np.asarray(s ** (1.0 / th)), np.finfo(float).tiny
    low = s < tiny
    if np.any(low):
        qs = np.stack([np.broadcast_to(qj, out.shape)[low] for qj in q], axis=-1)
        top = np.maximum(qs.max(axis=-1, keepdims=True), tiny)
        out[low] = top[:, 0] * ((qs / top) ** th).sum(axis=-1) ** (1.0 / th)
    return out


def pre_limit_tail(model: StdfModel, t: float, x) -> float | np.ndarray:
    """Exact finite-level tail value t^-1 * P(union of {U^j <= t x_j}).

    Requires t * x_j <= 1 for every coordinate.  For the comonotone model
    this equals max_j x_j for every admissible t (no discrepancy from the
    limit); for the other models it converges to l(x) as t -> 0.
    """
    if not (0 < t <= 1):
        raise PreconditionError(f"level t must lie in (0, 1], got {t}")
    x = _check_point(model, x)
    if np.any(t * x > 1.0 + 1e-12):
        raise PreconditionError(
            f"t * x exceeds 1 (t={t}, max x={x.max()}); tail law undefined there"
        )
    return tail_union_prob(model, np.minimum(t * x, 1.0)) / t


def sup_bias_method(model: StdfModel) -> str:
    """How ``sup_bias`` gets its value for this model.

    "exact" for the closed forms (comonotone, independence); "grid-max"
    for the logistic family, whose value is the largest node of a grid
    that contains the corner, not a proven supremum.
    """
    return "grid-max" if model.variant == "logistic" else "exact"


def sup_bias(model: StdfModel, t: float, radius: float) -> float:
    """sup over [0, radius]^d of |pre_limit_tail(t, .) - l(.)|.

    Comonotone is exactly zero.  Independence is monotone in every
    coordinate, so the supremum sits at the upper corner and is analytic.
    The logistic family is scanned on a grid of _SUP_BIAS_GRID nodes per
    axis that always contains the corner; the scan is a bound reporter,
    not a proof.  It is scanned in slabs of ``gridscan.strip_rows`` axis-0
    rows with a running maximum, so it holds one slab; time grows as 256^d,
    so d >= 4 (4.3e9 nodes) is a ConfigurationError.
    """
    if radius < 0:
        raise PreconditionError(f"radius must be >= 0, got {radius}")
    if t * radius > 1.0 + 1e-12:
        raise PreconditionError(
            f"t * radius = {t * radius:g} exceeds 1; finite-level law undefined"
        )
    if model.variant == "comonotone":
        return 0.0
    if model.variant == "independence":
        return float(model.d * radius - (1.0 - (1.0 - t * radius) ** model.d) / t)
    if model.d > 3:
        raise ConfigurationError(
            f"the logistic bias grid has {_SUP_BIAS_GRID}^{model.d} = "
            f"{_SUP_BIAS_GRID ** model.d:,} nodes, too slow to scan; it serves d <= 3"
        )
    from .gridscan import strip_rows  # here: simulate and classify never load it
    axis = np.linspace(0.0, radius, _SUP_BIAS_GRID)
    t_axis, others = t * axis, model.d - 1
    rows = strip_rows(_SUP_BIAS_GRID ** others)
    best = 0.0
    for lo in range(0, _SUP_BIAS_GRID, rows):
        slab = slice(lo, lo + rows)
        gap = tail_union_prob_axes(model, [t_axis[slab]] + [t_axis] * others) / t
        gap -= eval_stdf_axes(model, [axis[slab]] + [axis] * others)
        best = max(best, float(np.abs(gap, out=gap).max()))
    return best
