"""Conditional classification risk on rare feature regions.

The risk of a labeler g given that the feature norm is extreme,

    L_alpha(g) = (1/alpha) P(Y != g(X), ||X|| > t_alpha),

is estimated by its order-statistic counterpart: count the mistakes among
the rows whose norm strictly exceeds the floor(n alpha)-th largest norm,
divided by n alpha.  With alpha the fraction of data involved, the
deviation of the empirical version concentrates at rate 1/sqrt(n alpha),
which the rate experiment here reproduces.

For synthetic generators with independent uniform features, sup-norm
regions, and axis-aligned labelers, all the true quantities reduce to
areas of axis-aligned boxes and are computed in closed form; any other
combination falls back to a large reference sample with a reported
standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigurationError, DataError, PreconditionError
from .models import StdfModel
from .rng import SlopeFit, fit_loglog_slope, map_trials, median, substream
from .samplers import check_sample_size, draw_copula_sample

# linf folds the d columns with elementwise maxima: the same maxima as
# max(axis=1), NaN rows included, without a reduction along a length-d
# axis (only a NaN's payload bits may differ: max(axis=1) resets them).
# l1 and l2 keep sum(axis=1), whose bits follow numpy's summation order.
_NORMS = {
    "l2": lambda x: np.sqrt((x**2).sum(axis=1)),
    "l1": lambda x: np.abs(x).sum(axis=1),
    "linf": lambda x: reduce(np.maximum, np.abs(x).T),
}

_AXIS_THRESHOLD_SPAN = (0.05, 0.95)


def feature_norm(x: np.ndarray, norm: str) -> np.ndarray:
    if norm not in _NORMS:
        raise ConfigurationError(f"unknown norm tag {norm!r}; expected {set(_NORMS)}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise PreconditionError(
            f"expected an n x d matrix with d >= 1, got shape {x.shape}"
        )
    return _NORMS[norm](x)


@dataclass(frozen=True)
class LabeledSample:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if f.ndim != 2 or y.shape != (f.shape[0],):
            raise ConfigurationError("features must be n x d with n labels")
        if not np.all((y == 1) | (y == -1)):
            raise ConfigurationError("labels must be -1 or +1")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y.astype(np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class AxisClassifier:
    """Threshold labeler: sign * (+1 if x_coord >= threshold else -1)."""

    coord: int
    threshold: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ConfigurationError(f"sign must be -1 or +1, got {self.sign}")
        if self.coord < 0:
            raise ConfigurationError(f"coordinate must be >= 0, got {self.coord}")
        if not np.isfinite(self.threshold):
            raise ConfigurationError(f"threshold must be finite, got {self.threshold}")

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _axis_votes(np.asarray(x, dtype=float), (self,))[0]


def _axis_votes(x: np.ndarray, members) -> np.ndarray:
    """(members x rows) labels: sign * (+1 if x_coord >= threshold else -1)."""
    coords = np.array([g.coord for g in members], dtype=np.intp)
    thresholds = np.array([g.threshold for g in members], dtype=float)
    signs = np.array([g.sign for g in members], dtype=np.int64)[:, None]
    return np.where(x[:, coords].T >= thresholds[:, None], signs, -signs)


@dataclass(frozen=True)
class ClassifierFamily:
    """Finite list of deterministic labelers."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("classifier family must be nonempty")
        object.__setattr__(self, "members", tuple(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def serialize(self) -> str:
        lines = [f"{g.coord},{g.threshold!r},{g.sign}" for g in self.members]
        return "\n".join(lines) + "\n"


def axis_threshold_family(d: int, per_axis: int) -> ClassifierFamily:
    """per_axis positive-orientation thresholds on each of the d axes,
    evenly spaced over _AXIS_THRESHOLD_SPAN."""
    thresholds = np.linspace(*_AXIS_THRESHOLD_SPAN, per_axis)
    members = [
        AxisClassifier(coord=j, threshold=float(c)) for j in range(d) for c in thresholds
    ]
    return ClassifierFamily(members=tuple(members))


@dataclass(frozen=True)
class QuantileRegion:
    """{x : ||x|| > t_alpha} with t_alpha the (1 - alpha) norm quantile."""

    alpha: float
    norm: str = "l2"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.norm not in _NORMS:
            raise ConfigurationError(f"unknown norm tag {self.norm!r}")


@dataclass(frozen=True)
class ExplicitRegion:
    """A fixed rare region with analytically known mass q."""

    norm: str
    threshold: float
    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ConfigurationError(f"region mass must lie in (0, 1], got {self.q}")
        if self.norm not in _NORMS:
            raise ConfigurationError(f"unknown norm tag {self.norm!r}")

    def contains(self, x: np.ndarray) -> np.ndarray:
        return feature_norm(x, self.norm) > self.threshold


@dataclass(frozen=True)
class LabeledGenerator:
    """Feature copula plus an axis rule with label flip noise.

    Labels follow rule.predict(X) and are flipped independently with
    probability noise, so the conditional risk of any axis labeler is a
    two-term area formula whenever the feature model is independence and
    the norm is the sup norm.
    """

    feature_model: StdfModel
    rule: AxisClassifier
    noise: float

    def __post_init__(self):
        if not 0.0 <= self.noise <= 0.5:
            raise ConfigurationError(f"noise must lie in [0, 0.5], got {self.noise}")

    @property
    def d(self) -> int:
        return self.feature_model.d

    def sample(self, n: int, rng: np.random.Generator) -> LabeledSample:
        x = draw_copula_sample(self.feature_model, n, rng)
        y = self.rule.predict(x)
        flip = rng.random(n) < self.noise
        y = np.where(flip, -y, y)
        return LabeledSample(features=x, labels=y)


def tail_count(n: int, alpha: float) -> int:
    """floor(n alpha), the rows the quantile region keeps, refused below 1."""
    m = int(math.floor(n * alpha))
    if m < 1:
        raise PreconditionError(f"floor(n alpha) = {m} < 1; no tail rows at n={n}, "
                                f"alpha={alpha}")
    return m


def _tail_rows(data: LabeledSample, region) -> tuple[np.ndarray, float]:
    """Rows of ``data`` in the rare region, and the risk denominator.

    Quantile form: the rows whose norm strictly exceeds the floor(n alpha)-th
    largest norm, over n alpha; norm ties are rejected.  Explicit form: the
    rows inside the region, over n q.
    """
    if isinstance(region, ExplicitRegion):
        return np.flatnonzero(region.contains(data.features)), data.n * region.q
    if not isinstance(region, QuantileRegion):
        raise ConfigurationError(f"unsupported region {region!r}")
    n = data.n
    m = tail_count(n, region.alpha)
    norms = feature_norm(data.features, region.norm)
    ordered = np.sort(norms)
    # ties as np.unique counts them: equal neighbours, or two NaNs (sorted last)
    if np.any(ordered[1:] == ordered[:-1]) or (n > 1 and np.isnan(ordered[-2])):
        raise DataError("norm ties at the empirical threshold; jitter the data")
    thr = ordered[n - m]  # m-th largest
    return np.flatnonzero(norms > thr), n * region.alpha


def _mistake_counts(data: LabeledSample, members, rows: np.ndarray) -> np.ndarray:
    """Exact number of mistakes of each member among ``rows``."""
    votes = _axis_votes(data.features[rows], members)
    return np.count_nonzero(votes != data.labels[rows], axis=1)


def _family_empirical_risks(data: LabeledSample, members, region) -> np.ndarray:
    """empirical_conditional_risk of every member, from one tail selection."""
    rows, denom = _tail_rows(data, region)
    return _mistake_counts(data, members, rows) / denom


def empirical_conditional_risk(data: LabeledSample, g: AxisClassifier, region) -> float:
    """Mistake fraction on the empirically-thresholded rare region.

    Quantile form: (1/(n alpha)) #{Y_i != g(X_i), ||X_i|| > ||X||_(floor(n alpha))}
    with descending norm order statistics and a strict comparison, so the
    threshold row itself never counts.  Norm ties are rejected.
    Explicit form: (1/q) times the mistake fraction inside the region.
    """
    return float(_family_empirical_risks(data, (g,), region)[0])


@dataclass(frozen=True)
class RiskValue:
    value: float
    stderr: float
    method: str  # "analytic" | "reference"


def _plus_box(g: AxisClassifier) -> tuple[int, float, bool]:
    # (+1 region) = {x_coord >= thr} when sign=+1, else {x_coord < thr}
    return g.coord, g.threshold, g.sign == 1


def _disagreement_boxes(g: AxisClassifier, rule: AxisClassifier, d: int) -> list:
    """The region {g != rule} as disjoint axis-aligned boxes in [0,1]^d."""
    boxes = []
    cg, tg, up_g = _plus_box(g)
    cr, tr, up_r = _plus_box(rule)

    def interval(thr, plus_side):
        return (thr, 1.0) if plus_side else (0.0, thr)

    # g=+1, rule=-1 and g=-1, rule=+1
    for side in (True, False):
        ig = interval(tg, up_g if side else not up_g)
        ir = interval(tr, (not up_r) if side else up_r)
        box = [(0.0, 1.0)] * d
        if cg == cr:
            lo = max(ig[0], ir[0])
            hi = min(ig[1], ir[1])
            if hi <= lo:
                continue
            box[cg] = (lo, hi)
        else:
            box[cg] = ig
            box[cr] = ir
        if all(hi > lo for lo, hi in box):
            boxes.append(tuple(box))
    return boxes


def _box_mass(box, cube_edge: float | None = None) -> float:
    """Uniform mass of a box, optionally intersected with [0, cube_edge]^d."""
    mass = 1.0
    for lo, hi in box:
        if cube_edge is not None:
            lo, hi = min(lo, cube_edge), min(hi, cube_edge)
        mass *= max(hi - lo, 0.0)
    return mass


def _analytic_applicable(generator: LabeledGenerator, norm: str) -> bool:
    return generator.feature_model.variant == "independence" and norm == "linf"


def sup_norm_tail_quantile(alpha: float, d: int) -> float:
    """(1 - alpha) quantile of the sup norm of d independent uniforms."""
    return (1.0 - alpha) ** (1.0 / d)


def _analytic_joint_mistake(generator: LabeledGenerator, g: AxisClassifier,
                            threshold: float) -> float:
    """P(Y != g(X), ||X||_inf > threshold) in closed form."""
    d = generator.d
    eta = generator.noise
    tail = 1.0 - threshold**d
    boxes = _disagreement_boxes(g, generator.rule, d)
    dis_tail = sum(
        _box_mass(b) - _box_mass(b, cube_edge=threshold) for b in boxes
    )
    return eta * tail + (1.0 - 2.0 * eta) * dis_tail


def _family_true_risks(
    generator: LabeledGenerator,
    members,
    region,
    reference_draws: int = 10_000_000,
    reference_seed: int = 20_600_101,
) -> list[RiskValue]:
    """true_conditional_risk of every member, from at most one reference draw.

    The reference sample, its norms and its threshold depend only on the
    generator and the region, so they are computed once and every member
    is evaluated against them.
    """
    if isinstance(region, ExplicitRegion):
        alpha_like = region.q
        threshold = region.threshold
    elif isinstance(region, QuantileRegion):
        alpha_like = region.alpha
        threshold = None
    else:
        raise ConfigurationError(f"unsupported region {region!r}")
    norm = region.norm
    if _analytic_applicable(generator, norm):
        if threshold is None:
            threshold = sup_norm_tail_quantile(region.alpha, generator.d)
        return [
            RiskValue(
                value=_analytic_joint_mistake(generator, g, threshold) / alpha_like,
                stderr=0.0,
                method="analytic",
            )
            for g in members
        ]

    rng = substream(reference_seed, "reference-risk")
    data = generator.sample(reference_draws, rng)
    norms = feature_norm(data.features, norm)
    if threshold is None:
        threshold = float(np.quantile(norms, 1.0 - alpha_like))
    tail = np.flatnonzero(norms > threshold)
    risks = []
    for g in members:  # one member at a time: no members x draws matrix
        # an exact count over the draws: bit-identical to the hit-mask mean
        p_hat = float(_mistake_counts(data, (g,), tail)[0] / reference_draws)
        stderr = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / reference_draws) / alpha_like
        risks.append(RiskValue(value=p_hat / alpha_like, stderr=stderr, method="reference"))
    return risks


def true_conditional_risk(
    generator: LabeledGenerator,
    g: AxisClassifier,
    region,
    reference_draws: int = 10_000_000,
    reference_seed: int = 20_600_101,
) -> RiskValue:
    """(1/alpha) P(Y != g(X), ||X|| > t_alpha), analytic when possible.

    Falls back to a single large reference sample with a reported
    standard error when no closed form applies.
    """
    return _family_true_risks(generator, (g,), region, reference_draws, reference_seed)[0]


def erm(data: LabeledSample, family: ClassifierFamily, region) -> int:
    """Index of the empirical-risk minimizer; ties break to the lowest index."""
    return int(np.argmin(_family_empirical_risks(data, family.members, region)))


@dataclass(frozen=True)
class ClassificationTrialRecord:
    n: int
    alpha: float
    trial: int
    sup_deviation: float


@dataclass(frozen=True)
class ClassificationReport:
    records: list
    medians: dict
    slope: SlopeFit


def _rate_trial(data: LabeledSample, members, region: QuantileRegion,
                truths: np.ndarray, t: int) -> ClassificationTrialRecord:
    """Trial t on its sample: the family's largest risk deviation."""
    n, alpha = data.n, region.alpha
    dev = float(np.abs(_family_empirical_risks(data, members, region) - truths).max())
    return ClassificationTrialRecord(n=n, alpha=alpha, trial=t, sup_deviation=dev)


def rate_experiment_classification(
    generator: LabeledGenerator,
    family: ClassifierFamily,
    schedule: list,
    trials: int,
    seed: int,
    norm: str = "linf",
) -> ClassificationReport:
    """sup over the family of |empirical - true| risk across (n, alpha).

    ``schedule`` is a list of (n, alpha) pairs; the slope is fitted to the
    medians against n * alpha.  Trial t at (n, alpha) draws from
    ``substream(seed, "class-rate", round(n alpha), t)``; the trials run in
    turn, in one process (``rng.map_trials`` at one worker).  A point with
    no rows or an empty tail is refused before any draw, the reference
    sample of a truth with no closed form included.
    """
    if not schedule:
        raise ConfigurationError("schedule must be nonempty")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    regions = [QuantileRegion(alpha=alpha, norm=norm) for _, alpha in schedule]
    for n, alpha in schedule:  # every point, before the truths and any draw
        check_sample_size(n, generator.d)
        tail_count(n, alpha)
    truths_of = {region: np.array([r.value for r in _family_true_risks(
        generator, family.members, region)]) for region in dict.fromkeys(regions)}
    # each sample is drawn as the runner reaches its job, while the last
    # is still held, as a plain loop holds it: a sample freed before the
    # next draw lets malloc trim the heap, and the draw faults it back in
    jobs = ((generator.sample(n, substream(seed, "class-rate", int(round(n * alpha)), t)),
             family.members, region, truths_of[region], t)
            for (n, alpha), region in zip(schedule, regions) for t in range(trials))
    records = map_trials(_rate_trial, jobs, 1)
    medians = {point: median([r.sup_deviation for r in
                              records[i * trials:(i + 1) * trials]])
               for i, point in enumerate(schedule)}
    if len(schedule) >= 2:
        xs = [n * alpha for n, alpha in schedule]
        ys = [medians[(n, alpha)] for n, alpha in schedule]
        slope = fit_loglog_slope(xs, ys)
    else:
        slope = SlopeFit(float("nan"), float("nan"), float("nan"))
    return ClassificationReport(records=records, medians=medians, slope=slope)


@dataclass(frozen=True)
class DecompositionCheck:
    holds: bool
    lhs: float
    rhs: float
    joint_term: float
    marginal_term: float


def require_analytic_oracle(generator: LabeledGenerator, norm: str) -> None:
    """Refuse, before any draw, a decomposition check with no analytic oracle."""
    if not _analytic_applicable(generator, norm):
        raise ConfigurationError(
            "decomposition check needs the analytic oracle "
            "(independence features, sup norm, axis labelers)"
        )


def risk_decomposition_check(
    data: LabeledSample,
    family: ClassifierFamily,
    region: QuantileRegion,
    generator: LabeledGenerator,
) -> DecompositionCheck:
    """Verify the conditional-risk deviation split on one sample.

    sup_g |empirical - true| is compared against (1/alpha) times the sum
    of the sup joint deviation at the true quantile, the marginal tail
    deviation, and 1/n.  The slack term is exactly 1/n when n * alpha is
    an integer; configure the check that way.
    """
    require_analytic_oracle(generator, region.norm)
    members = family.members
    n = data.n
    alpha = region.alpha
    t_alpha = sup_norm_tail_quantile(alpha, generator.d)

    emp = _family_empirical_risks(data, members, region)
    true = np.array([r.value for r in _family_true_risks(generator, members, region)])
    lhs = float(np.abs(emp - true).max())
    # the tail at the true quantile t_alpha, a region of mass alpha
    tail_rows, _ = _tail_rows(data, ExplicitRegion(region.norm, t_alpha, alpha))
    emp_joint = _mistake_counts(data, members, tail_rows) / n
    true_joint = np.array([_analytic_joint_mistake(generator, g, t_alpha) for g in members])
    joint = float(np.abs(emp_joint - true_joint).max())
    marginal = abs(tail_rows.size / n - alpha)
    rhs = (joint + marginal + 1.0 / n) / alpha
    return DecompositionCheck(
        holds=bool(lhs <= rhs + 1e-12),
        lhs=lhs,
        rhs=rhs,
        joint_term=joint,
        marginal_term=marginal,
    )

