"""Rate and coverage experiments for the empirical dependence function.

The headline statistic is the exact supremum over [0, T]^d of
|l_n(x) - l(x)|.  The estimator is constant on the lattice cells
[m_j/k, (m_j+1)/k), and l is continuous and componentwise nondecreasing,
so on each cell the supremum of their gap is attained at one of the two
extreme corners.  This module supplies the tail rows, off one tail
state (``empirical.ColumnTails``: each column's floor(k T) + 1 largest
values, from a trial's tail draw or from raw values), and l's corner
grid, a ``gridscan.CornerGrid`` kept per (model, k, T, d) that
evaluates l a strip or a window at a time and is never held whole.
``gridscan.lattice_corner_max`` covers every cell, making the supremum
exact for d <= 2.  For d >= 3 a declared grid is scanned
instead and an explicit slack is reported.  The decomposition check
reads the same count strips, corner grid rows and cell-corner reducer,
one strip at a time, and never builds the lattice.
The rate experiment keys every trial by (k, trial) and runs them through
``rng.map_trials``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import (
    ColumnTails,
    build_ranks,
    check_lattice_scan,
    column_tails,
    lattice_index,
    tail_depths,
)
from .errors import ConfigurationError, PreconditionError, TiesError
from . import gridscan
from .gridscan import SupEstimate, declared_axis, max_count_gap, scan_is_exact
from .models import (
    StdfModel,
    eval_stdf_axes,
    sup_bias,
    tail_union_prob_axes,
)
from .rng import SlopeFit, fit_loglog_slope, map_trials, substream
from .samplers import draw_copula_tail


def stdf_deviation_bound(
    k: int, d: int, T: float, delta: float, C: float = 1.0, bias: float = 0.0
) -> float:
    """High-probability envelope C d sqrt((T/k) log((d+3)/delta)) + bias.

    The bias argument is the supremum discrepancy between the finite-level
    tail law at t = k/n and its limit, taken over [0, 2T]^d; it is exactly
    zero for the comonotone model.
    """
    if k < 1 or d < 1 or not (math.isfinite(T) and math.isfinite(C)):
        raise PreconditionError(
            f"need k >= 1, d >= 1 and finite T and C, got k={k}, d={d}, T={T}, C={C}")
    t_required = 3.5 * (math.log(d) / k + 1.0)
    if T < t_required - 1e-12:
        raise PreconditionError(
            f"T >= 7/2((log d)/k + 1) violated: T={T}, required >= {t_required:g}"
        )
    if delta < math.exp(-k):
        raise PreconditionError(
            f"delta >= exp(-k) violated: delta={delta}, required >= {math.exp(-k):.3g}"
        )
    if not 0 < delta < 1:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    if not 0 <= bias < math.inf:
        raise PreconditionError(f"bias must be finite and >= 0, got {bias}")
    return C * d * math.sqrt(T / k * math.log((d + 3) / delta)) + bias


# The last corner grid with its key (model, k, T, d): every trial of one
# k reads the same grid, and a new key drops it before the next grid is
# prepared, so a process holds at most one.
_corner_grid: tuple | None = None


def _corner_model_grids(model: StdfModel, k: int, T: float,
                        d: int) -> gridscan.CornerGrid:
    """l at every corner of the lattice cells, served as a ``gridscan.CornerGrid``.

    Cell m covers [m/k, (m+1)/k) on each axis, m = 0..m_top with
    m_top = ``lattice_index(k, T)``, so its lower corner is node m and its
    upper corner node m + 1 of the axis 0, 1/k, ..., m_top/k, T.  The axis
    is clipped to T: when ``lattice_index`` snaps floor(k T) up, m_top/k
    lies just above T.  l is evaluated on demand, a strip or a window at
    a time; it depends on no sample, so the grid and its blocks (d = 2),
    prepared once, are kept for the next call with the same key.  l is
    elementwise, so every value served equals the whole grid's, bit for
    bit.  The entry is returned from a local: another thread may replace
    the module's entry with its own key's meanwhile.
    """
    global _corner_grid
    key = (model, k, T, d)
    entry = _corner_grid
    if entry is None or entry[0] != key:
        _corner_grid = None
        m_top = int(lattice_index(k, T))
        axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)

        def evaluate(idx):  # eval_stdf_axes is looked up by name, never kept
            return eval_stdf_axes(model, [axis[i] for i in idx])

        entry = (key, gridscan.corner_grid(m_top, d, evaluate))
        _corner_grid = entry
    return entry[1]


def sup_stdf_deviation(
    sample,
    k: int,
    model: StdfModel,
    T: float,
    grid_resolution: int | None = None,
) -> SupEstimate:
    """sup over [0,T]^d of |l_n(x) - l(x)|, exact for d <= 2.

    ``sample`` is a ColumnTails at least floor(k T) deep, or raw values,
    whose floor(k T) + 1 largest values per column ``build_ranks`` takes.
    Only the floor(k T) largest values of each column are read, never
    the ranks.
    The exact path is one ``gridscan.lattice_corner_max`` call against
    the kept corner grid and never holds a (floor(k T) + 1)^d grid of
    its own.
    """
    exact = check_lattice_scan(sample, k, model, T, grid_resolution)
    # only the column tails can count: l_n(m/k) = (U - #{tail rows with
    # depth > m}) / k on the lattice, none above floor(k T)
    m_top = int(lattice_index(k, T))
    tails = (sample if isinstance(sample, ColumnTails)
             else build_ranks(sample, m_top + 1))
    d = tails.d
    depths = tail_depths(tails, [m_top] * d)
    if exact:
        corners = _corner_model_grids(model, k, T, d)
        return SupEstimate(gridscan.lattice_corner_max(depths, k, corners))

    # declared-grid scan; the estimator is still evaluated exactly at the
    # snapped lattice points under each grid node
    axis = declared_axis(T, grid_resolution)
    levels = lattice_index(k, axis)
    value = max_count_gap(
        depths.astype(float), [levels.astype(float)] * d, k,
        lambda axes: eval_stdf_axes(model, axes), ref_axes=[axis] * d,
    )
    h = T / (grid_resolution - 1)
    slack = d * (2.0 * h + 1.0 / k)
    return SupEstimate(value=value, discretization_bound=slack)


def _order_stat_index(n: int, k: int, T: float) -> int:
    m = int(lattice_index(k, T))
    if m < 1:
        raise PreconditionError(f"floor(k T) = {m} < 1; order statistic undefined")
    if m > n:
        raise PreconditionError(f"floor(k T) = {m} exceeds n = {n}")
    return m


def _event_holds(thr: np.ndarray, n: int, k: int, T: float) -> bool:
    return bool(np.all(n / k * thr <= 2.0 * T))


def check_order_stat_event(u, k: int, T: float) -> bool:
    """True iff every coordinate satisfies (n/k) U_(floor(kT)) <= 2T."""
    u = np.asarray(u, dtype=float)
    n, _ = u.shape
    m = _order_stat_index(n, k, T)
    thr = np.partition(u, m - 1, axis=0)[m - 1]
    return _event_holds(thr, n, k, T)


def _order_stat_event(tails: ColumnTails, k: int, T: float) -> bool:
    """check_order_stat_event(1.0 - x, k, T) from x's column tails.

    ``tails`` is x's ColumnTails, at least floor(k T) deep.
    fl(1 - x) is non-increasing in x, so the m-th smallest of 1 - x is
    1 - (the m-th largest x).  NaN sorts last on both sides and breaks
    that mirror, so x must be NaN-free, as every copula sample is.
    """
    n = tails.n
    m = _order_stat_index(n, k, T)
    return _event_holds(1.0 - tails.nth_largest(m), n, k, T)


@dataclass(frozen=True)
class DecompositionTerms:
    """The three exact components dominating the headline supremum.

    substitution: empirical vs true tail mass at the empirical thresholds
    bias: true tail mass vs the limit at the rescaled thresholds
    rounding: limit at rescaled thresholds vs limit at the argument
    """

    total: float
    substitution: float
    bias: float
    rounding: float

    @property
    def upper(self) -> float:
        return self.substitution + self.bias + self.rounding


def deviation_decomposition(x, k: int, T: float, model: StdfModel) -> DecompositionTerms:
    """Compute the exact proof-shaped split of sup |l_n - l| on one sample.

    Expects a NaN-free sample with uniform margins (so U = 1 - X is
    exact).  The total never exceeds substitution + bias + rounding; the
    test suite asserts this trial by trial.
    """
    check_lattice_scan(x, k, model, T, None)
    m_top = int(lattice_index(k, T))
    tails = column_tails(x, m_top + 1)
    n, d = tails.n, tails.d
    if any(np.isnan(top[0]) for top in tails.values):  # NaN tops its column
        raise PreconditionError("the sample must not contain NaN")

    # the m-th smallest U of each column, m = 0..m_top: fl(1 - x) is
    # non-increasing in x, so these are 1 - the m_top largest x, in order
    thr_axes = [np.concatenate(([0.0], 1.0 - top[:m_top])) for top in tails.values]
    # l_n on the lattice, one strip of axis-0 levels at a time; the model
    # terms are elementwise, so each strip's rows equal the dense grid's
    corners = _corner_model_grids(model, k, T, d)
    levels = [np.arange(m_top + 1, dtype=float)] * d
    depths = tail_depths(tails, [m_top] * d)
    substitution = bias = rounding = 0.0
    for lo, hi, counts in gridscan.count_strips(depths.astype(float), levels, k):
        rows = [thr_axes[0][lo:hi]] + thr_axes[1:]
        tail = tail_union_prob_axes(model, rows) * (n / k)
        l_at_thr = eval_stdf_axes(model, [n / k * a for a in rows])
        gap = np.abs(np.subtract(counts, tail, out=counts), out=counts)
        substitution = max(substitution, float(gap.max()))
        gap = np.abs(np.subtract(tail, l_at_thr, out=counts), out=counts)
        bias = max(bias, float(gap.max()))
        rounding = max(rounding, gridscan.cell_corner_max(
            l_at_thr, corners.rows(lo, hi + 1), scratch=tail))
    total = gridscan.lattice_corner_max(depths, k, corners)
    return DecompositionTerms(
        total=total, substitution=substitution, bias=bias, rounding=rounding
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one rate experiment; everything needed to reproduce it."""

    model: StdfModel
    n: int
    d: int
    k_schedule: tuple
    T: float
    delta: float
    trials: int
    seed: int
    grid_resolution: int | None = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "k_schedule", tuple(int(k) for k in self.k_schedule))
        ks = self.k_schedule
        if not ks:
            raise ConfigurationError("k schedule must be nonempty")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigurationError(f"k schedule must be strictly increasing: {ks}")
        if ks[0] < 1:
            raise ConfigurationError(f"k values must be >= 1: {ks}")
        if ks[-1] > self.n / 10:
            raise ConfigurationError(
                f"max k = {ks[-1]} exceeds n/10 = {self.n / 10:g}; "
                "the tail budget must stay small relative to n"
            )
        if not 0 < self.T < math.inf:
            raise ConfigurationError(f"T must be finite and > 0, got {self.T}")
        if any(k * self.T > self.n for k in ks):
            raise ConfigurationError(f"k T exceeds n for some k in {ks}")
        if self.model.d != self.d:
            raise ConfigurationError(
                f"model dimension {self.model.d} does not match config dimension {self.d}"
            )
        if not 0 < self.delta < 1:
            raise ConfigurationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if not scan_is_exact(self.d, self.grid_resolution):
            declared_axis(self.T, self.grid_resolution)  # rejects fewer than 2 nodes
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class TrialRecord:
    k: int
    trial: int
    sup_deviation: float
    order_stat_event: bool | None
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class KSummary:
    k: int
    trials_ok: int
    median: float
    upper_quantile: float
    bias_T: float
    bias_2T: float


@dataclass(frozen=True)
class DeviationReport:
    config: ExperimentConfig
    trials: list
    summaries: list
    slope: SlopeFit


def _one_trial(model: StdfModel, n: int, d: int, k: int, T: float,
               seed: int, trial: int, grid_resolution) -> TrialRecord:
    """One keyed trial, reading only each column's floor(k T) + 1 largest values.

    Only a tie among those values fails the trial: they are all that the
    deviation and the event read, the (floor(k T) + 1)-th because a tie
    with it would leave the floor(k T)-th without a single rank.
    """
    rng = substream(seed, "rate", k, trial)
    m_top = int(lattice_index(k, T))
    rows, x = draw_copula_tail(model, n, m_top + 1, rng)
    try:
        tails = column_tails(x, m_top + 1, rows, n)
    except TiesError as exc:  # abort this trial but report it
        return TrialRecord(k, trial, float("nan"), None, ok=False, note=str(exc))
    dev = sup_stdf_deviation(tails, k, model, T, grid_resolution)
    event = _order_stat_event(tails, k, T) if m_top >= 1 else None
    return TrialRecord(k, trial, dev.value, event, ok=True)


def _ok_deviations(records, k: int) -> np.ndarray:
    """The sup deviations of the successful trials at ``k``."""
    return np.array([r.sup_deviation for r in records if r.k == k and r.ok])


def _envelope_bias(summ: KSummary) -> float:
    """The bias added to the envelope: over [0, 2T]^d where finite, else [0, T]^d."""
    return summ.bias_2T if math.isfinite(summ.bias_2T) else summ.bias_T


def run_rate_experiment(config: ExperimentConfig) -> DeviationReport:
    """Measure the sup deviation across the k schedule and fit its rate.

    Every trial draws a fresh sample, so trials are independent across
    and within k values.  Trials that hit ties are recorded as failed
    rather than silently dropped.  The biases come first, so a model
    ``sup_bias`` cannot serve stops the run before any draw.
    """
    biases = {}  # k -> (bias over [0, T]^d, over [0, 2T]^d or nan)
    for k in config.k_schedule:
        t_level = k / config.n
        bias_T = sup_bias(config.model, t_level, config.T)
        try:
            bias_2T = sup_bias(config.model, t_level, 2.0 * config.T)
        except PreconditionError:
            bias_2T = float("nan")
        biases[k] = bias_T, bias_2T
    jobs = [(config.model, config.n, config.d, k, config.T, config.seed, t,
             config.grid_resolution)
            for k in config.k_schedule for t in range(config.trials)]
    # in (k, trial) order: the k schedule is strictly increasing
    records = map_trials(_one_trial, jobs, config.workers)

    summaries = []
    for k in config.k_schedule:
        devs = _ok_deviations(records, k)
        med = upper = math.nan
        if devs.size:
            med, upper = float(np.median(devs)), float(np.quantile(devs, 1 - config.delta))
        summaries.append(KSummary(k, int(devs.size), med, upper, *biases[k]))
    medians = [s.median for s in summaries]

    if len(config.k_schedule) >= 2 and all(m > 0 for m in medians):
        slope = fit_loglog_slope(config.k_schedule, medians)
    else:
        slope = SlopeFit(float("nan"), float("nan"), float("nan"))
    return DeviationReport(
        config=config, trials=records, summaries=summaries, slope=slope
    )


def calibrate_constant(report: DeviationReport) -> float:
    """Smallest frozen C making the envelope hold on >= 1 - delta of trials.

    Per trial, the implied constant is (deviation - bias) / (d sqrt((T/k)
    log((d+3)/delta))); the calibrated C is the largest per-k empirical
    (1 - delta) quantile of those.  Run this on a pilot report with an
    independent master seed, then freeze the result.
    """
    cfg = report.config
    out = 0.0
    for summ in report.summaries:
        devs = _ok_deviations(report.trials, summ.k)
        if devs.size == 0:
            raise PreconditionError(f"no successful trials at k = {summ.k}")
        bias = _envelope_bias(summ)
        unit = cfg.d * math.sqrt(
            cfg.T / summ.k * math.log((cfg.d + 3) / cfg.delta)
        )
        implied = np.maximum(devs - bias, 0.0) / unit
        out = max(out, float(np.quantile(implied, 1.0 - cfg.delta)))
    return out


def coverage_against_bound(report: DeviationReport, C: float) -> dict:
    """Fraction of trials with deviation below the frozen-C envelope, per k."""
    cfg = report.config
    coverage = {}
    for summ in report.summaries:
        bound = stdf_deviation_bound(summ.k, cfg.d, cfg.T, cfg.delta, C,
                                     _envelope_bias(summ))
        devs = _ok_deviations(report.trials, summ.k)
        # calibrated bounds can sit exactly on a deviation; tolerate one ulp
        tol = 1e-12 * max(1.0, bound)
        coverage[summ.k] = (
            float(np.mean(devs <= bound + tol)) if devs.size else float("nan")
        )
    return coverage
