"""Rate and coverage experiments for the empirical dependence function.

The headline statistic is the exact supremum over [0, T]^d of
|l_n(x) - l(x)|.  The estimator is constant on the lattice cells
[m_j/k, (m_j+1)/k), and l is continuous and componentwise nondecreasing,
so on each cell the supremum of their gap is attained at one of the two
extreme corners.  This module supplies the tail rows and l's corner
grid, a ``gridscan.CornerGrid`` kept per (model, k, T, d): held whole
when it is small, evaluated a strip or a window at a time when it is
not.  ``gridscan.lattice_corner_max`` covers every cell, making the
supremum exact for d <= 2.  For d >= 3 a declared grid is scanned
instead and an explicit slack is reported.  The decomposition check
reads the same count strips, corner grid rows and cell-corner reducer,
one strip at a time, and never builds the lattice.
``_check_lattice_scan`` holds every lattice scan's preconditions, the
CLI's ``estimate`` included.

Experiments are trial-parallel: every (k, trial) pair derives its own
random stream from the master seed, so results are identical whatever
the worker count or completion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import (
    TailOrder,
    build_ranks,
    lattice_index,
    tail_depths,
    tail_order,
)
from .errors import ConfigurationError, PreconditionError, TiesError
from .concentration import RectClassSpec, sup_empirical_deviation
from . import gridscan
from .gridscan import SupEstimate, declared_axis, max_count_gap, scan_is_exact
from .models import (
    StdfModel,
    eval_stdf_axes,
    sup_bias,
    tail_union_prob_axes,
)
from .rng import substream
from .samplers import draw_copula_sample


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


def lattice_rounding_sup(k: int, T: float, d: int) -> float:
    """sup over [0,T]^d of sum_j |floor(k x_j)/k - x_j|, exactly d * max gap."""
    if k < 1 or not (math.isfinite(T) and T > 0) or d < 1:
        raise PreconditionError("need k >= 1, finite T > 0, d >= 1")
    gap = 1.0 / k if math.floor(k * T) >= 1 else T
    return d * gap


# A corner grid of at most this many bytes is held whole, so each trial's
# strip walk reads it instead of evaluating l again.  Above it (for d = 2,
# floor(k T) > 722) l is evaluated on demand, and only the blocks' summaries
# are kept.  The converge benchmark holds the grids of k <= 200 at T = 2.
_CORNER_CACHE_BYTES = 4 << 20

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
    lies just above T.  The grid depends on no sample, so it is kept for
    the next call with the same key, with its blocks (d = 2), prepared
    once: held whole, read-only, within _CORNER_CACHE_BYTES, and evaluated
    on demand, a strip or a window at a time, above it.  l is elementwise,
    so every value served equals the whole grid's, bit for bit.
    """
    global _corner_grid
    key = (model, k, T, d)
    if _corner_grid is None or _corner_grid[0] != key:
        _corner_grid = None
        m_top = int(lattice_index(k, T))
        axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)

        def evaluate(idx):  # eval_stdf_axes is looked up by name, never kept
            return eval_stdf_axes(model, [axis[i] for i in idx])

        if 8 * axis.size ** d > _CORNER_CACHE_BYTES:
            corners = gridscan.corner_grid(m_top, d, evaluate)
        else:
            # filled in strips of axis-0 rows, with no full-size temporary
            live = gridscan.CornerGrid(m_top, d, evaluate)
            grid = np.empty((axis.size,) * d)
            rows = gridscan.strip_rows(axis.size ** (d - 1))
            for lo in range(0, axis.size, rows):
                grid[lo:lo + rows] = live.rows(lo, min(lo + rows, axis.size))
            grid.flags.writeable = False
            corners = gridscan.corner_grid(m_top, d, held=grid)
        _corner_grid = (key, corners)
    return _corner_grid[1]


def _check_lattice_scan(state: TailOrder, k: int, model: StdfModel | None,
                        T: float, grid) -> bool:
    """The preconditions of a lattice scan of ``state``, then ``scan_is_exact``.

    ``grid`` is the declared grid (a resolution or a lattice stride) or
    None; ``model`` is None when no l is compared (the CLI surface).
    """
    n, d = state.n, state.d
    if model is not None and model.d != d:
        raise ConfigurationError(
            f"model dimension {model.d} does not match sample dimension {d}"
        )
    if not 0 < T < math.inf:
        raise PreconditionError(f"T must be finite and > 0, got {T}")
    if k * T > n:
        raise PreconditionError(f"k T = {k * T:g} exceeds n = {n}")
    if not 1 <= k <= n:
        raise PreconditionError(f"k must lie in [1, n] = [1, {n}], got {k}")
    return scan_is_exact(d, grid)


def sup_stdf_deviation(
    sample,
    k: int,
    model: StdfModel,
    T: float,
    grid_resolution: int | None = None,
) -> SupEstimate:
    """sup over [0,T]^d of |l_n(x) - l(x)|, exact for d <= 2.

    ``sample`` is a TailOrder or raw values, which get one through
    ``build_ranks``.  Both paths read only the floor(k T) largest values
    of each column, never the ranks.
    The exact path is one ``gridscan.lattice_corner_max`` call against
    the kept corner grid and never holds a (floor(k T) + 1)^d grid of
    its own.
    """
    state = sample if isinstance(sample, TailOrder) else build_ranks(sample)
    d, exact = state.d, _check_lattice_scan(state, k, model, T, grid_resolution)

    # only the column tails can count: l_n(m/k) = (U - #{tail rows with
    # depth > m}) / k on the lattice, none above floor(k T)
    m_top = int(lattice_index(k, T))
    depths = tail_depths(state, [m_top] * d)
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


def _order_stat_event(order_stats: np.ndarray, k: int, T: float) -> bool:
    """check_order_stat_event(1.0 - x, k, T) from x's ascending order statistics.

    ``order_stats`` is n x d with each column of x sorted ascending.
    fl(1 - x) is non-increasing in x, so the m-th smallest of 1 - x is
    1 - (the m-th largest x).  NaN sorts last on both sides and breaks
    that mirror, so x must be NaN-free, as every copula sample is.
    """
    n = order_stats.shape[0]
    m = _order_stat_index(n, k, T)
    return _event_holds(1.0 - order_stats[n - m], n, k, T)


def sup_tail_process_deviation(u, k: int, T: float, model) -> SupEstimate:
    """(n/k) sup over [0,T]^d of the raw set-mass deviation at scale k/n.

    Shares the exact cell scan with sup_empirical_deviation; this is the
    scaled uniform deviation of the tail empirical process.
    """
    u = np.asarray(u, dtype=float)
    n, d = u.shape
    cls = RectClassSpec(d=d, k=k, n=n, T=T)
    raw = sup_empirical_deviation(u, cls, model)
    return SupEstimate(
        value=n / k * raw.value,
        discretization_bound=n / k * raw.discretization_bound,
    )


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
    state = tail_order(x)
    n, d = state.n, state.d
    if n and np.isnan(state.sorted_cols[:, -1]).any():  # NaN sorts last
        raise PreconditionError("the sample must not contain NaN")
    _check_lattice_scan(state, k, model, T, None)
    m_top = int(lattice_index(k, T))

    # the m-th smallest U of each column, m = 0..m_top: fl(1 - x) is
    # non-increasing in x, so these are 1 - the m_top largest x, in order
    thr_axes = [np.concatenate(([0.0], 1.0 - col[::-1][:m_top]))
                for col in state.sorted_cols]
    # l_n on the lattice, one strip of axis-0 levels at a time; the model
    # terms are elementwise, so each strip's rows equal the dense grid's
    corners = _corner_model_grids(model, k, T, d)
    levels = [np.arange(m_top + 1, dtype=float)] * d
    depths = tail_depths(state, [m_top] * d)
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
class SlopeFit:
    slope: float
    stderr: float
    intercept: float


@dataclass(frozen=True)
class DeviationReport:
    config: ExperimentConfig
    trials: list
    summaries: list
    slope: SlopeFit


def fit_loglog_slope(xs, ys) -> SlopeFit:
    """Least-squares slope of log y against log x with its standard error."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise PreconditionError("slope fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise PreconditionError("slope fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    denom = np.sum((lx - lx.mean()) ** 2)
    if xs.size > 2:
        sigma2 = float(resid @ resid) / (xs.size - 2)
        stderr = math.sqrt(sigma2 / denom)
    else:
        stderr = float("nan")
    return SlopeFit(slope=float(slope), stderr=stderr, intercept=float(intercept))


def _one_trial(model: StdfModel, n: int, d: int, k: int, T: float,
               seed: int, trial: int, grid_resolution) -> TrialRecord:
    rng = substream(seed, "rate", k, trial)
    x = draw_copula_sample(model, n, rng)
    try:
        state = tail_order(x)
    except TiesError as exc:  # abort this trial but report it
        return TrialRecord(k, trial, float("nan"), None, ok=False, note=str(exc))
    dev = sup_stdf_deviation(state, k, model, T, grid_resolution)
    event = (
        _order_stat_event(state.order_stats, k, T)
        if int(lattice_index(k, T)) >= 1
        else None
    )
    return TrialRecord(k, trial, dev.value, event, ok=True)


def _one_trial_star(args):
    return _one_trial(*args)


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
    rather than silently dropped.
    """
    jobs = [
        (config.model, config.n, config.d, k, config.T, config.seed, t,
         config.grid_resolution)
        for k in config.k_schedule
        for t in range(config.trials)
    ]
    if config.workers > 1:
        # imported here: a serial run, and every other subcommand, never
        # pays for loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_one_trial_star, jobs, chunksize=4))
    else:
        records = [_one_trial_star(j) for j in jobs]
    records.sort(key=lambda r: (r.k, r.trial))

    summaries = []
    medians = []
    for k in config.k_schedule:
        devs = _ok_deviations(records, k)
        t_level = k / config.n
        bias_T = sup_bias(config.model, t_level, config.T)
        try:
            bias_2T = sup_bias(config.model, t_level, 2.0 * config.T)
        except PreconditionError:
            bias_2T = float("nan")
        med = float(np.median(devs)) if devs.size else float("nan")
        upper = (
            float(np.quantile(devs, 1.0 - config.delta)) if devs.size else float("nan")
        )
        summaries.append(
            KSummary(
                k=k,
                trials_ok=int(devs.size),
                median=med,
                upper_quantile=upper,
                bias_T=bias_T,
                bias_2T=bias_2T,
            )
        )
        medians.append(med)

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
