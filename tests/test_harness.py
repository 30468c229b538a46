"""Deviation experiments: exact suprema, bounds, events, decomposition."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_oracles import empirical_stdf, ranks as rank_matrix
from tailvc import gridscan
from tailvc.concentration import RectClassSpec, sup_empirical_deviation
from tailvc.empirical import (
    build_ranks,
    column_tails,
    empirical_stdf_lattice,
    lattice_index,
)
from tailvc.errors import ConfigurationError, PreconditionError, TiesError
from tailvc.gridscan import cell_corner_max
from tailvc.harness import (
    ExperimentConfig,
    _corner_model_grids,
    _one_trial,
    _order_stat_event,
    calibrate_constant,
    check_order_stat_event,
    coverage_against_bound,
    deviation_decomposition,
    run_rate_experiment,
    stdf_deviation_bound,
    sup_stdf_deviation,
)
from tailvc.models import (
    comonotone,
    eval_stdf,
    eval_stdf_axes,
    independence,
    logistic,
    parse_model,
    tail_union_prob_axes,
)
from tailvc.rng import fit_loglog_slope, median, quantile, substream
from tailvc.samplers import draw_copula_sample
from test_gridscan import indexed


@pytest.fixture(autouse=True)
def no_corner_grid(monkeypatch):
    """Each test starts with no corner grid kept: the cache would otherwise
    carry an earlier test's grid, and its summary, into this one."""
    import tailvc.harness as hmod

    monkeypatch.setattr(hmod, "_corner_grid", None)


class TestDeviationBound:
    def test_reference_value(self):
        assert stdf_deviation_bound(100, 2, 4.0, 0.05) == pytest.approx(
            0.8583864105157389, rel=1e-12
        )

    def test_region_guard_message(self):
        with pytest.raises(PreconditionError) as err:
            stdf_deviation_bound(100, 1, 3.0, 0.05)
        assert "T=3.0" in str(err.value)
        assert "required >= 3.5" in str(err.value)

    def test_delta_guard(self):
        with pytest.raises(PreconditionError):
            stdf_deviation_bound(5, 2, 4.0, 1e-3)  # exp(-5) ~ 6.7e-3 > delta

    def test_delta_near_one_leaves_log_floor(self):
        d, T, k = 2, 4.0, 100
        got = stdf_deviation_bound(k, d, T, 1 - 1e-9, C=1.0, bias=0.0)
        assert got == pytest.approx(d * math.sqrt(T / k * math.log(d + 3)), rel=1e-6)

    def test_bias_adds_linearly(self):
        base = stdf_deviation_bound(100, 2, 4.0, 0.05)
        assert stdf_deviation_bound(100, 2, 4.0, 0.05, bias=0.25) == pytest.approx(
            base + 0.25
        )

    @pytest.mark.parametrize("k,d,T,C,bias,delta,match", [
        (0, 2, 4.0, 1.0, 0.0, 0.05, "need k >= 1, d >= 1"),
        (100, 0, 4.0, 1.0, 0.0, 0.05, "need k >= 1, d >= 1"),
        (100, 2, math.nan, 1.0, 0.0, 0.05, "finite T and C"),
        (100, 2, math.inf, 1.0, 0.0, 0.05, "finite T and C"),
        (100, 2, 4.0, math.nan, 0.0, 0.05, "finite T and C"),
        (100, 2, 4.0, math.inf, 0.0, 0.05, "finite T and C"),
        (100, 2, 4.0, 1.0, math.nan, 0.05, "bias must be finite and >= 0"),
        (100, 2, 4.0, 1.0, math.inf, 0.05, "bias must be finite and >= 0"),
        (100, 2, 8.0, -1.0, 0.0, 0.05, r"^C must be finite and >= 0, got -1.0$"),
        # the domain of delta is checked before delta >= exp(-k)
        (100, 2, 8.0, 1.0, 0.0, -0.5, r"^delta must lie in \(0, 1\), got -0.5$"),
        (100, 2, 8.0, 1.0, 0.0, 0.0, r"^delta must lie in \(0, 1\), got 0.0$"),
    ], ids=["k0", "d0", "T-nan", "T-inf", "C-nan", "C-inf", "bias-nan", "bias-inf",
            "C-negative", "delta-negative", "delta-zero"])
    def test_input_outside_the_domain_is_a_precondition_error(self, k, d, T, C,
                                                              bias, delta, match):
        with pytest.raises(PreconditionError, match=match):
            stdf_deviation_bound(k, d, T, delta, C=C, bias=bias)


def lattice_rounding_sup(k: int, T: float, d: int) -> float:
    """sup over [0,T]^d of sum_j |floor(k x_j)/k - x_j|, exactly d * max gap."""
    if k < 1 or not (math.isfinite(T) and T > 0) or d < 1:
        raise PreconditionError("need k >= 1, finite T > 0, d >= 1")
    gap = 1.0 / k if math.floor(k * T) >= 1 else T
    return d * gap


class TestLatticeRounding:
    def test_interior_cells_give_one_over_k(self):
        assert lattice_rounding_sup(50, 2.0, 2) == pytest.approx(2 / 50)
        assert lattice_rounding_sup(50, 2.0, 2) <= 2 / 50 + 1e-15

    def test_degenerate_region(self):
        assert lattice_rounding_sup(3, 0.2, 2) == pytest.approx(0.4)

    @pytest.mark.parametrize("k,T,d", [(0, 2.0, 2), (10, 0.0, 2), (10, -1.0, 2),
                                       (10, math.nan, 2), (10, math.inf, 2),
                                       (10, 2.0, 0)])
    def test_out_of_range_is_a_precondition_error(self, k, T, d):
        with pytest.raises(PreconditionError, match="finite T > 0"):
            lattice_rounding_sup(k, T, d)


class TestSupStdfDeviation:
    def test_comonotone_at_most_one_over_k(self):
        s = draw_copula_sample(comonotone(2), 5000, substream(4, "com"))
        dev = sup_stdf_deviation(s, 50, comonotone(2), 2.0)
        assert dev.value <= 1 / 50 + 1e-12
        assert dev.value == pytest.approx(1 / 50, abs=1e-12)

    def test_degenerate_cell_returns_corner_value(self):
        # k T < 1: the only cell carries count 0, so the gap peaks at l(T 1)
        m = logistic(2.0, 2)
        s = draw_copula_sample(m, 200, substream(5, "deg"))
        T = 0.09
        dev = sup_stdf_deviation(s, 10, m, T)
        assert dev.value == pytest.approx(eval_stdf(m, [T, T]), rel=1e-12)

    def test_matches_dense_grid_independence(self):
        m = independence(2)
        s = draw_copula_sample(m, 200, substream(6, "dense"))
        exact = sup_stdf_deviation(s, 10, m, 2.0).value
        g = np.linspace(0, 2.0, 2001)
        n, k = s.shape[0], 10
        # hit[j][a, i]: row i is in column j's top floor(k g[a]) ranks
        hit = [rank_matrix(s)[:, j] >= n - lattice_index(k, g)[:, None] + 1
               for j in range(2)]
        brute = 0.0
        for block in np.array_split(np.arange(g.size), 20):  # grid rows
            pts = np.stack(np.meshgrid(g[block], g, indexing="ij"), axis=-1)
            counts = np.count_nonzero(hit[0][block, None, :] | hit[1][None], axis=2)
            if block[0] == 0:  # the blocked count is l_n's own exact count
                spot = pts[::7, ::97].reshape(-1, 2)
                np.testing.assert_array_equal(
                    counts[::7, ::97].ravel() / k, empirical_stdf(s, k, spot)
                )
            brute = max(brute, np.abs(counts / k - eval_stdf(m, pts)).max())
        assert exact >= brute - 1e-12
        assert abs(exact - brute) <= 2e-3

    @pytest.mark.parametrize("tag,d", [("independence", 1), ("logistic(2)", 2),
                                        ("comonotone", 2), ("independence", 2)])
    def test_raw_values_match_rank_state(self, tag, d):
        m = parse_model(tag, d)
        x = draw_copula_sample(m, 3000, substream(10, "raw", tag, d))
        for k, T in ((40, 2.0), (7, 0.09), (300, 10.0)):
            from_tails = sup_stdf_deviation(tails(x, k, T), k, m, T)
            assert sup_stdf_deviation(x, k, m, T) == from_tails
            assert sup_stdf_deviation(column_tails(x, 3000), k, m, T) == from_tails

    @pytest.mark.parametrize("tag,d", [("independence", 3), ("logistic(2)", 2)])
    def test_declared_grid_streams_in_strips(self, monkeypatch, tag, d):
        import tailvc.gridscan as gridscan

        m = parse_model(tag, d)
        x = draw_copula_sample(m, 400, substream(12, "strip", tag, d))
        k, T, res = 10, 1.5, 9
        whole = sup_stdf_deviation(tails(x, k, T), k, m, T, grid_resolution=res)
        monkeypatch.setattr(gridscan, "_STRIP_BYTES", 8)  # one axis-0 node per strip
        assert sup_stdf_deviation(tails(x, k, T), k, m, T, grid_resolution=res) == whole
        axis = np.linspace(0.0, T, res)
        pts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        brute = np.abs(empirical_stdf(x, k, pts) - eval_stdf(m, pts)).max()
        assert whole.value == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("res", [0, 1, -3])
    def test_declared_resolution_below_two_is_rejected(self, res):
        m = independence(2)
        s = draw_copula_sample(m, 500, substream(9, "res"))
        with pytest.raises(ConfigurationError,
                           match=f"grid resolution must be >= 2, got {res}"):
            sup_stdf_deviation(s, 10, m, 1.5, grid_resolution=res)
        with pytest.raises(ConfigurationError,
                           match=f"grid resolution must be >= 2, got {res}"):
            ExperimentConfig(model=m, n=500, k_schedule=(10,), T=1.5,
                             delta=0.05, trials=2, seed=1, grid_resolution=res)

    @pytest.mark.parametrize("k,T", [(50, 2.0), (7, 0.09), (3, 0.3333333333)])
    def test_exact_scan_evaluates_one_model_grid(self, monkeypatch, k, T):
        import tailvc.harness as hmod

        calls = []

        def spy(model, axes):
            calls.append([np.asarray(a) for a in axes])
            return eval_stdf_axes(model, axes)

        monkeypatch.setattr(hmod, "eval_stdf_axes", spy)
        m = logistic(2.0, 2)
        x = tails(draw_copula_sample(m, 2000, substream(15, "spy", k)), k, T)
        sup_stdf_deviation(x, k, m, T)
        # l is served in strips and windows of the one clipped corner axis
        m_top = int(lattice_index(k, T))
        axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)
        assert axis[-1] == T and axis.size == m_top + 2
        for j in range(2):
            seen = np.concatenate([c[j].ravel() for c in calls])
            assert seen.min() >= 0.0 and seen.max() <= T
            assert np.array_equal(np.unique(seen), np.unique(axis))

    def test_one_corner_grid_per_k_across_trials(self, monkeypatch):
        import tailvc.harness as hmod

        prepared, held = [], []

        def spy(m_top, d, evaluate):
            prepared.append(m_top + 2)
            held.append(hmod._corner_grid)
            return built(m_top, d, evaluate)

        built = gridscan.CornerGrid
        monkeypatch.setattr(gridscan, "CornerGrid", spy)
        cfg = ExperimentConfig(model=logistic(2.0, 2), n=2000,
                               k_schedule=(20, 40, 80), T=2.0, delta=0.05,
                               trials=3, seed=4)
        run_rate_experiment(cfg)
        assert prepared == [42, 82, 162]  # one summary pass per k
        assert held == [None] * 3  # the old grid is dropped before the next

    def test_decomposition_reads_the_same_corner_grid(self, monkeypatch):
        import tailvc.harness as hmod

        prepared, shapes = [], []

        def spy(m_top, d, evaluate):
            prepared.append(m_top + 2)
            return built(m_top, d, evaluate)

        def spy_l(model, axes):
            shapes.append(tuple(np.shape(a) for a in axes))
            return eval_stdf_axes(model, axes)

        built = gridscan.CornerGrid
        monkeypatch.setattr(gridscan, "CornerGrid", spy)
        monkeypatch.setattr(hmod, "eval_stdf_axes", spy_l)
        m, k, T = logistic(2.0, 2), 30, 2.0
        x = draw_copula_sample(m, 3000, substream(17, "share"))
        sup_stdf_deviation(tails(x, k, T), k, m, T)
        shapes.clear()
        deviation_decomposition(x, k, T, m)
        assert prepared == [62]  # one summary pass for both calls
        # plus the decomposition's own l at the thresholds, in one strip
        assert shapes.count(((61,), (61,))) == 1

    def test_cache_returns_its_own_key_under_a_concurrent_store(self, monkeypatch):
        # another thread may store its key's grid between this call's store
        # and its return; the old entry's finaliser, which runs during the
        # store, stands in for that thread here
        import tailvc.harness as hmod

        m, T = logistic(2.0, 2), 2.0
        other_key = (m, 20, T)
        other = _corner_model_grids(*other_key)

        class Finaliser:
            def __del__(self):
                hmod._corner_grid = (other_key, other)

        def spy(m_top, d, evaluate):
            hmod._corner_grid = (other_key, Finaliser())
            return built(m_top, d, evaluate)

        built = gridscan.CornerGrid
        monkeypatch.setattr(gridscan, "CornerGrid", spy)
        got = _corner_model_grids(m, 50, T)
        assert hmod._corner_grid[1] is other  # the store was replaced
        assert got is not other and got.m_top == int(lattice_index(50, T)) == 100

    def test_threads_at_different_k_get_their_own_grids(self):
        m, T = logistic(2.0, 2), 2.0
        wrong = []

        def work(k):
            for _ in range(40):
                grid = _corner_model_grids(m, k, T)
                if grid.m_top != 2 * k:
                    wrong.append((k, grid.m_top))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in (4, 8, 12, 16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_cache_keeps_no_function_object(self, monkeypatch):
        # the benchmark tracer rebinds harness.eval_stdf_axes: a kept grid
        # must look it up by name at every call
        import tailvc.harness as hmod

        m, k, T = comonotone(2), 50, 2.0
        x = tails(draw_copula_sample(m, 5000, substream(4, "com")), k, T)
        want = sup_stdf_deviation(x, k, m, T)
        entry, calls = hmod._corner_grid, []

        def spy(model, axes):
            calls.append(model)
            return eval_stdf_axes(model, axes)

        monkeypatch.setattr(hmod, "eval_stdf_axes", spy)
        assert sup_stdf_deviation(x, k, m, T) == want
        assert hmod._corner_grid is entry  # the grid was kept, not prepared again
        assert calls and all(c is m for c in calls)

    def test_one_grid_matches_two_grid_scan(self):
        # the former scan: l on the lower corners arange(M + 1) / k and, as a
        # second grid, on the upper corners min(arange(1, M + 2) / k, T)
        m, T = logistic(2.0, 2), 2.0
        x = tails(draw_copula_sample(m, 20_000, substream(16, "two-grid")), 800, T)
        for k in (50, 100, 200, 400, 800):
            m_top = int(lattice_index(k, T))
            counts = empirical_stdf_lattice(x, k, [m_top] * 2)
            l_lo = eval_stdf_axes(m, [np.arange(m_top + 1) / k] * 2)
            l_hi = eval_stdf_axes(m, [np.minimum(np.arange(1, m_top + 2) / k, T)] * 2)
            lower = np.abs(counts - l_lo).max()
            upper = np.abs(counts - l_hi).max()
            old = float(np.maximum(lower, upper))
            assert sup_stdf_deviation(x, k, m, T).value == old

    def test_budget_guard(self):
        s = draw_copula_sample(independence(2), 100, substream(7, "kt"))
        with pytest.raises(PreconditionError):
            sup_stdf_deviation(s, 60, independence(2), 2.0)  # k T = 120 > n

    def test_dimension_three_grid_policy(self):
        m = independence(3)
        s = draw_copula_sample(m, 500, substream(8, "d3"))
        with pytest.raises(ConfigurationError):
            sup_stdf_deviation(s, 10, m, 1.5)
        est = sup_stdf_deviation(s, 10, m, 1.5, grid_resolution=16)
        assert est.discretization_bound > 0
        exact_like = sup_stdf_deviation(s, 10, m, 1.5, grid_resolution=46)
        assert est.value <= exact_like.value + est.discretization_bound + 1e-12


def tails(x, k, T):
    """x's column tails as deep as a scan at (k, T) reads them: floor(k T) + 1."""
    return column_tails(x, int(lattice_index(k, T)) + 1)


def dense_sup_stdf_deviation(state, k, model, T):
    """The former exact scan: dense lattice counts against a dense corner grid."""
    m_top = int(lattice_index(k, T))
    counts = empirical_stdf_lattice(state, k, [m_top] * state.d)
    axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)
    corners = eval_stdf_axes(model, [axis] * state.d)
    return cell_corner_max(counts, corners, scratch=np.empty_like(counts))


def dense_corner_sup(depths, k, corners):
    """The dense corner scan straight from a U x 2 depth matrix."""
    m_top = corners.shape[0] - 2
    hist = np.zeros((m_top + 1,) * 2)
    np.add.at(hist, (depths[:, 0] - 1, depths[:, 1] - 1), 1.0)
    survivors = np.flip(np.flip(hist, 0).cumsum(0), 0)
    survivors = np.flip(np.flip(survivors, 1).cumsum(1), 1)
    counts = (depths.shape[0] - survivors) / k
    return cell_corner_max(counts, corners, scratch=np.empty_like(counts))


def synthetic_depths(m_top, rng):
    """A tail_depths-shaped matrix: each column ranks m_top of the U rows.

    The second column's depths follow the first's up to Gaussian noise,
    so the counts are neither independent nor comonotone.
    """
    extra = int(rng.integers(0, m_top + 1))
    u = m_top + extra
    depths = np.full((u, 2), m_top + 1, dtype=np.int64)
    depths[:m_top, 0] = rng.permutation(m_top) + 1
    # the rows outside column 0's tail must sit in column 1's
    rows = np.concatenate((np.arange(m_top, u),
                           rng.permutation(m_top)[: m_top - extra]))
    near = depths[rows, 0].astype(float) + rng.normal(0, m_top / 8, rows.size)
    near[: extra] = rng.uniform(0, m_top, extra)
    depths[rows, 1] = np.argsort(np.argsort(near, kind="stable")) + 1
    return depths[rng.permutation(u)]


def monotone_grid(m_top, k, rng):
    """A random corner grid, nondecreasing along both axes, near l's scale."""
    steps = rng.exponential(1.0, (m_top + 2,) * 2)
    grid = steps.cumsum(0).cumsum(1)
    return grid * (2.0 * m_top / k / grid[-1, -1])


def dipped_grid(m_top, k, rng):
    """A random nondecreasing corner grid with flats (most steps are 0), and
    about one positive node in ten moved one ulp down or up: monotone only to
    within an ulp, as an evaluation of l may be, and still nonnegative."""
    steps = rng.exponential(1.0, (m_top + 2,) * 2) * (rng.random((m_top + 2,) * 2) < 0.2)
    grid = steps.cumsum(0).cumsum(1) * (2.0 * m_top / k / (m_top + 2) ** 2)
    moved = (rng.random(grid.shape) < 0.1) & (grid > 0)
    toward = np.where(rng.random(grid.shape) < 0.5, -np.inf, np.inf)
    return np.where(moved, np.nextafter(grid, toward), grid)


def set_strip_rows(monkeypatch, rows, m, d):
    """Strips of ``rows`` axis-0 rows for a lattice of m nodes per axis."""
    import tailvc.gridscan as gridscan

    monkeypatch.setattr(gridscan, "_STRIP_BYTES", 8 * m ** (d - 1) * rows)


class TestStripScan:
    CASES = [(k, 2.0) for k in (50, 100, 200, 400, 800)] + [
        (7, 0.09), (3, 0.3333333333)]

    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(2)"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_bit_identical_to_dense_scan(self, monkeypatch, tag, d):
        import tailvc.harness as hmod

        m = parse_model(tag, d)
        x = draw_copula_sample(m, 20_000, substream(18, "strips", tag, d))
        states = (tails(x, 800, 2.0), x)  # the deepest tails the cases read, and raw
        for k, T in self.CASES:
            old = dense_sup_stdf_deviation(states[0], k, m, T)
            assert dense_sup_stdf_deviation(tails(x, k, T), k, m, T) == old
            rows = int(lattice_index(k, T)) + 1
            for strip in (1, 2, rows - 1, rows, rows + 1):
                set_strip_rows(monkeypatch, strip, rows, d)
                monkeypatch.setattr(hmod, "_corner_grid", None)  # refill in strips
                for state in states:
                    got = sup_stdf_deviation(state, k, m, T)
                    assert got.value == old, (k, T, strip, type(state).__name__)
                    assert got.discretization_bound == 0.0

    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(2)"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_corner_grid_filled_in_one_row_strips(self, monkeypatch, tag, d):
        m, k, T = parse_model(tag, d), 50, 2.0
        axis = np.minimum(np.append(np.arange(101) / k, T), T)
        whole = eval_stdf_axes(m, [axis] * d)
        set_strip_rows(monkeypatch, 1, axis.size, d)
        grid = _corner_model_grids(m, k, T).rows(0, axis.size)
        assert grid.shape == whole.shape
        assert grid.tobytes() == whole.tobytes()

    def test_exact_scan_memory_is_linear_in_the_tail(self):
        # the dense scan held three 1601 x 1601 grids here, about 40 MiB
        m, k, T = logistic(2.0, 2), 800, 2.0
        x = tails(draw_copula_sample(m, 20_000, substream(19, "mem")), k, T)
        _corner_model_grids(m, k, T)
        tracemalloc.start()
        try:
            sup_stdf_deviation(x, k, m, T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_corner_grid_fill_holds_no_full_temporary(self):
        # a full 1602 x 1602 temporary alone is about 19.6 MiB
        tracemalloc.start()
        try:
            _corner_model_grids(logistic(2.0, 2), 800, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("k,T", [(0, 2.0), (20_001, 0.5)])
    def test_k_outside_one_to_n_is_rejected(self, k, T):
        m = logistic(2.0, 2)
        x = draw_copula_sample(m, 20_000, substream(19, "k-guard"))
        with pytest.raises(PreconditionError, match=r"k must lie in \[1, n\]"):
            sup_stdf_deviation(x, k, m, T)


class TestPrunedScan:
    """The prune-and-verify corner scan against the dense scan."""

    @pytest.mark.parametrize("m_top", [7, 8, 9, 63, 64, 65, 401])
    def test_synthetic_depths_match_dense_scan(self, monkeypatch, m_top):
        import tailvc.gridscan as gridscan

        monkeypatch.setattr(gridscan, "_PRUNE_CUT", 2.0)  # never fall back
        rng = np.random.default_rng(m_top)
        k = max(m_top // 2, 1)
        axis = np.minimum(np.append(np.arange(m_top + 1) / k, 2.0), 2.0)
        for trial in range(4):
            depths = synthetic_depths(m_top, rng)
            grids = [monotone_grid(m_top, k, rng),
                     eval_stdf_axes(logistic(2.0, 2), [axis] * 2),
                     np.full((m_top + 2,) * 2, 0.5),
                     # the bound holds within the slack of a monotone grid
                     dipped_grid(m_top, k, rng)]
            for corners in grids:
                got = gridscan.pruned_corner_max(
                    depths, k, gridscan.CornerGrid(m_top, 2, indexed(corners)))
                assert got == dense_corner_sup(depths, k, corners), (trial,)

    @pytest.mark.parametrize("m_top,cut", [(0, False), (1, False), (6, False),
                                           (7, True)])
    def test_lattice_narrower_than_a_block_is_not_cut(self, m_top, cut):
        grid = gridscan.CornerGrid(m_top, 2, indexed(np.zeros((m_top + 2,) * 2)))
        summary = [grid.lows, grid.ends, grid.l_min, grid.l_end, grid.l_up]
        assert [a is not None for a in summary] == [cut] * 5

    def test_block_bound_equal_to_best_is_skipped(self, monkeypatch):
        # on a zero grid every block's bound is its high node's exact value,
        # so the block holding the maximum has bound == best and no block
        # needs evaluating
        import tailvc.gridscan as gridscan

        gaps = []

        def spy(*args):
            gaps.append(args[0].shape)
            return node_gap(*args)

        node_gap = gridscan._node_gap
        monkeypatch.setattr(gridscan, "_node_gap", spy)
        monkeypatch.setattr(gridscan, "_PRUNE_CUT", 2.0)
        m_top, k = 64, 32
        depths = synthetic_depths(m_top, np.random.default_rng(5))
        corners = np.zeros((m_top + 2,) * 2)
        got = gridscan.pruned_corner_max(depths, k, gridscan.CornerGrid(
            m_top, 2, indexed(corners)))
        assert got == dense_corner_sup(depths, k, corners) == depths.shape[0] / k
        assert len(gaps) == 1  # the high nodes only

    def test_dip_below_a_block_corner_is_not_pruned_away(self, monkeypatch):
        # a flat grid at L = 0.3 with node (63, 3), which no block summary
        # reads, one ulp lower; every row has depth_0 <= m_top, so nodes
        # (63, j) count all U = 63 rows, and at k = 84 their gap is
        # 0.75 - L = 0.45 (exact, as is 0.75 - (L - ulp)).  Block (7, 0)'s
        # high node (63, 7) reads exactly 0.45, the best of every high node:
        # an unwidened bound would equal it and skip the block that holds
        # the maximum, 0.45 + ulp at the dip
        monkeypatch.setattr(gridscan, "_PRUNE_CUT", 2.0)
        m_top, k = 63, 84
        depths = np.column_stack((np.arange(1, m_top + 1),
                                  np.random.default_rng(6).permutation(m_top) + 1))
        corners = np.full((m_top + 2,) * 2, 0.3)
        corners[63, 3] = np.nextafter(0.3, 0.0)
        want = dense_corner_sup(depths, k, corners)
        assert want == 0.75 - corners[63, 3] > 0.75 - 0.3
        got = gridscan.pruned_corner_max(depths, k, gridscan.CornerGrid(
            m_top, 2, indexed(corners)))
        assert got == want
        # a NaN there instead is refused by the block's exact pass, not skipped
        corners[63, 3] = np.nan
        with pytest.raises(PreconditionError, match="NaN"):
            gridscan.pruned_corner_max(depths, k, gridscan.CornerGrid(
                m_top, 2, indexed(corners)))

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("strip", [None, 1, 16])
    def test_one_ulp_dip_takes_the_strip_walk(self, monkeypatch, axis, strip):
        # node (r, c) one ulp below its neighbour on ``axis`` only (l's
        # level lines put the other neighbour lower); with strips of 1 or
        # 16 rows, r = 160 is a strip's first row.  The widened block bound
        # covers such a grid, so the dipped grid has blocks: the strip walk
        # serves it when pruning declines, the pruned scan otherwise, and
        # both equal the dense scan
        import tailvc.harness as hmod

        m, k, T = logistic(2.0, 2), 200, 2.0
        r, c = 160, (170 if axis == 0 else 37)
        m_top = int(lattice_index(k, T))
        if strip is not None:
            set_strip_rows(monkeypatch, strip, m_top + 2, 2)
        below = [[r - 1], [c]] if axis == 0 else [[r], [c - 1]]
        dip = np.nextafter(eval_stdf_axes(m, [np.divide(i, k) for i in below])[0, 0],
                           -np.inf)

        def dipped(model, axes):
            # l is served in strips of rows and in stacks of block windows:
            # dip node (r, c) wherever it is served
            grid = eval_stdf_axes(model, axes)
            at = ((np.expand_dims(axes[0], -1) == r / k)
                  & (np.expand_dims(axes[1], -2) == c / k))
            grid[np.broadcast_to(at, grid.shape)] = dip
            return grid

        calls = {"pruned": 0, "walk": 0}

        def count(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(hmod, "eval_stdf_axes", dipped)
        monkeypatch.setattr(hmod, "_corner_grid", None)
        monkeypatch.setattr(gridscan, "pruned_corner_max",
                            count("pruned", gridscan.pruned_corner_max))
        monkeypatch.setattr(gridscan, "_corner_scan",
                            count("walk", gridscan._corner_scan))
        x = tails(draw_copula_sample(m, 20_000, substream(23, "dip")), k, T)
        counts = empirical_stdf_lattice(x, k, [m_top] * 2)
        for cut, walks in ((0.0, 1), (2.0, 0)):  # pruning declines, then never
            monkeypatch.setattr(gridscan, "_PRUNE_CUT", cut)
            calls.update(pruned=0, walk=0)
            got = sup_stdf_deviation(x, k, m, T).value
            assert calls == {"pruned": 1, "walk": walks}
            corners = _corner_model_grids(m, k, T)
            near = corners.evaluate([np.array([r - 1, r]), np.array([c - 1, c])])
            neighbour = near[0, 1] if axis == 0 else near[1, 0]
            other = near[1, 0] if axis == 0 else near[0, 1]
            assert other <= near[1, 1] < neighbour and corners.lows is not None
            whole = corners.rows(0, m_top + 2)
            want = cell_corner_max(counts.copy(), whole, scratch=np.empty_like(counts))
            assert got == want, cut

    @pytest.mark.parametrize("tag,n,k,pruned", [
        ("comonotone", 20_000, 800, False),
        ("independence", 200_000, 800, False),
        ("logistic(2)", 20_000, 800, True),
    ])
    def test_path_taken(self, monkeypatch, tag, n, k, pruned):
        # the fast path must not rot silently: logistic(2) at k = 800 is
        # pruned, while high-survival models fall back to the strip walk
        import tailvc.gridscan as gridscan

        results, walks = [], []

        def spy_pruned(*args):
            results.append(prune(*args))
            return results[-1]

        def spy_walk(*args):
            walks.append(1)
            return walk(*args)

        prune, walk = gridscan.pruned_corner_max, gridscan._corner_scan
        monkeypatch.setattr(gridscan, "pruned_corner_max", spy_pruned)
        monkeypatch.setattr(gridscan, "_corner_scan", spy_walk)
        m, T = parse_model(tag, 2), 2.0
        x = tails(draw_copula_sample(m, n, substream(24, "path", tag)), k, T)
        got = sup_stdf_deviation(x, k, m, T).value
        assert len(results) == 1
        assert (results[0] is not None) == pruned
        assert len(walks) == (0 if pruned else 1)
        assert got == dense_sup_stdf_deviation(x, k, m, T)


@pytest.fixture
def rebound_l(monkeypatch):
    """``harness.eval_stdf_axes`` rebound to a pass-through, as the benchmark
    tracer rebinds it, before any grid is cached (``no_corner_grid``): every
    grid the test prepares serves l through the rebound name, and the test's
    values must not move."""
    import tailvc.harness as hmod

    real = hmod.eval_stdf_axes
    monkeypatch.setattr(hmod, "eval_stdf_axes", lambda model, axes: real(model, axes))


def rebinding_moves_no_bit(monkeypatch, x, m, k, T, strips=(None, 1, 3)):
    """The sup deviation (in ``strips``: the default strips, one-row and
    3-row ones; pruning declining and never declining) equals the dense
    scan, the decomposition terms equal the dense terms, and both keep
    their bits with ``harness.eval_stdf_axes`` rebound to a pass-through,
    through which every scan serves l."""
    import tailvc.harness as hmod

    state, d, whole, served = tails(x, k, T), x.shape[1], gridscan._STRIP_BYTES, []

    def scans():
        sups, terms, calls = [], [], []
        for strip in strips:
            if strip is None:
                monkeypatch.setattr(gridscan, "_STRIP_BYTES", whole)
            else:
                set_strip_rows(monkeypatch, strip, int(lattice_index(k, T)) + 2, d)
            for cut in (0.0, 2.0):
                monkeypatch.setattr(gridscan, "_PRUNE_CUT", cut)
                monkeypatch.setattr(hmod, "_corner_grid", None)
                sups.append(sup_stdf_deviation(state, k, m, T).value.hex())
                calls.append(len(served))
            monkeypatch.setattr(hmod, "_corner_grid", None)
            got = deviation_decomposition(x, k, T, m)
            terms.append([v.hex() for v in (got.substitution, got.bias, got.rounding)])
            calls.append(len(served))
        return sups, terms, np.diff([0] + calls)

    sups, terms, _ = scans()
    assert set(sups) == {dense_sup_stdf_deviation(state, k, m, T).hex()}
    assert all(t == [v.hex() for v in dense_decomposition(x, k, T, m)] for t in terms)
    real = hmod.eval_stdf_axes

    def pass_through(model, axes):
        served.append(1)
        return real(model, axes)

    monkeypatch.setattr(hmod, "eval_stdf_axes", pass_through)
    rebound_sups, rebound_terms, calls = scans()
    assert (rebound_sups, rebound_terms) == (sups, terms)
    assert (calls > 0).all()


class TestReboundL:
    """The strip walk, the pruned scan and the decomposition give the same
    bits with ``harness.eval_stdf_axes`` rebound to a pass-through, and
    each of them serves l through that name."""

    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(2)",
                                     "logistic(5)"])
    @pytest.mark.parametrize("d,k,T", [(1, 200, 2.0), (1, 7, 0.09), (2, 50, 2.0),
                                       (2, 400, 2.0), (2, 7, 0.09),
                                       (2, 3, 0.3333333333)])
    def test_rebinding_moves_no_bit(self, monkeypatch, tag, d, k, T):
        # k T = 0.63 < 1 leaves one lattice cell and no tail rows; k T =
        # 0.9999999999 snaps up to the lattice node 1
        m = parse_model(tag, d)
        x = draw_copula_sample(m, 20_000, substream(28, "rebound", tag, d, k))
        rebinding_moves_no_bit(monkeypatch, x, m, k, T)

    def test_on_the_sample_where_pruning_declines(self, monkeypatch):
        # TestPrunedScan.test_path_taken's n = 2e5 independence sample
        m = independence(2)
        x = draw_copula_sample(m, 200_000, substream(24, "path", "independence"))
        rebinding_moves_no_bit(monkeypatch, x, m, 800, 2.0, strips=(None, 1))

    def test_thresholds_where_one_minus_x_collides(self, monkeypatch):
        rebinding_moves_no_bit(monkeypatch, colliding_sample(), independence(2), 150, 2.0)


def held_bytes(obj, seen=None) -> int:
    """The bytes of the arrays ``obj`` holds: through containers, dataclass
    fields and closures, counting each buffer once, at its owner."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        base = obj.base
        return held_bytes(base, seen) if isinstance(base, np.ndarray) else obj.nbytes
    if isinstance(obj, (tuple, list)):
        parts = obj
    elif isinstance(obj, dict):
        parts = list(obj.values())
    elif callable(obj) and hasattr(obj, "__closure__"):
        parts = [cell.cell_contents for cell in obj.__closure__ or ()]
    elif hasattr(obj, "__dataclass_fields__"):
        parts = list(vars(obj).values())
    else:
        return 0
    return sum(held_bytes(part, seen) for part in parts)


class TestCornerGridOnDemand:
    """l served a strip or a window at a time, against l on the whole grid."""

    @pytest.mark.parametrize("tag", ["logistic(1.2)", "logistic(2)", "logistic(5)",
                                     "independence", "comonotone"])
    @pytest.mark.parametrize("m_top", [7, 9, 65, 401])
    def test_served_l_is_the_whole_grid_bit_for_bit(self, rebound_l, tag, m_top):
        # theta != 2 runs the real pow on gathered arrays, where a vector
        # kernel and a scalar one could round apart
        m, k, T = parse_model(tag, 2), 2 * m_top + 1, 0.5  # T between two levels
        assert int(lattice_index(k, T)) == m_top
        axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)
        whole = eval_stdf_axes(m, [axis] * 2)
        corners = _corner_model_grids(m, k, T)
        for rows in (1, 3, m_top + 2):  # the strips of the walk and the decomposition
            for lo in range(0, m_top + 2, rows):
                hi = min(lo + rows, m_top + 2)
                assert corners.rows(lo, hi).tobytes() == whole[lo:hi].tobytes()
        # every block's corner window, alone and in the pruned scan's chunks
        p, q = (a.ravel() for a in np.meshgrid(corners.lows, corners.lows, indexing="ij"))
        window = np.arange(gridscan._PRUNE_BLOCK + 1)
        rows, cols = p[:, None] + window, q[:, None] + window
        want = whole[rows[:, :, None], cols[:, None, :]]
        for chunk in (1, 256):
            for lo in range(0, p.size, chunk):
                got = corners.evaluate([rows[lo:lo + chunk], cols[lo:lo + chunk]])
                assert got.tobytes() == want[lo:lo + chunk].tobytes()
        assert np.array_equal(corners.l_min, whole[np.ix_(corners.lows, corners.lows)])
        assert np.array_equal(corners.l_end, whole[np.ix_(corners.ends, corners.ends)])
        assert np.array_equal(corners.l_up, whole[np.ix_(corners.ends + 1, corners.ends + 1)])
        # the widened corners bracket each window's true extremes
        shape, slack = (corners.lows.size,) * 2, gridscan._MONOTONE_SLACK
        assert (corners.l_min * (1 - slack) <= want.min(axis=(1, 2)).reshape(shape)).all()
        assert (want.max(axis=(1, 2)).reshape(shape) <= corners.l_up * (1 + slack)).all()

    @pytest.mark.parametrize("m_top", [7, 64, 401])
    def test_summary_reads_three_nodes_a_block(self, m_top):
        served = []

        def counted(idx):
            grid = read(idx)
            served.append(grid.size)
            return grid

        read = indexed(np.zeros((m_top + 2,) * 2))
        grid = gridscan.CornerGrid(m_top, 2, counted)
        assert 0 < sum(served) <= 3 * grid.lows.size ** 2

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 200), T=st.floats(0.01, 3.0))
    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(1.01)",
                                     "logistic(1.2)", "logistic(2)", "logistic(5)",
                                     "logistic(40)"])
    def test_l_is_nondecreasing_within_the_slack(self, tag, k, T):
        # the pruned scan's precondition, on the dense corner grid: every
        # node dominating (i, j) is at least l[i, j] (1 - s), every node it
        # dominates at most l[i, j] (1 + s)
        m_top = int(lattice_index(k, T))
        axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)
        grid = eval_stdf_axes(parse_model(tag, 2), [axis] * 2)
        above = np.minimum.accumulate(np.minimum.accumulate(grid[::-1, ::-1], 0), 1)
        below = np.maximum.accumulate(np.maximum.accumulate(grid, 0), 1)
        slack = gridscan._MONOTONE_SLACK
        assert (above[::-1, ::-1] >= grid * (1 - slack)).all()
        assert (below <= grid * (1 + slack)).all()

    @pytest.mark.parametrize("k", [50, 200, 800])
    def test_cache_holds_no_grid(self, monkeypatch, k):
        # at k = 800 the whole 1602 x 1602 grid is 20.5 MB, the blocks'
        # summaries 1.0 MB; at k = 50 the grid is 83 kB, the summaries 5 kB
        import tailvc.harness as hmod

        m, T = logistic(2.0, 2), 2.0
        x = tails(draw_copula_sample(m, 20_000, substream(19, "mem")), k, T)
        value = sup_stdf_deviation(x, k, m, T).value
        assert value == dense_sup_stdf_deviation(x, k, m, T)
        assert hmod._corner_grid is not None
        whole = 8 * (int(lattice_index(k, T)) + 2) ** 2
        assert held_bytes(hmod._corner_grid) < min(whole / 4, 2 * 2**20)

    def test_nan_in_a_blocked_grid_is_rejected(self):
        # a NaN at a block corner the summary reads must not prune its block
        # away: lows 0, 8, 9, ends 7, 15, 16 and ends + 1 at m_top = 16
        for where in ((0, 0), (8, 9), (15, 16), (17, 17)):
            corners = np.zeros((18, 18))
            corners[where] = np.nan
            with pytest.raises(PreconditionError, match="NaN"):
                gridscan.CornerGrid(16, 2, indexed(corners))


class TestOrderStatEvent:
    def test_direct_true_case(self):
        n, k, T = 1000, 10, 2.0
        u = np.linspace(1e-4, 1.0, n)[:, None] * np.ones((1, 2))
        u = u * 0.5 * (k / n) * 2 * T / u[int(k * T) - 1, 0]  # U_(kT) at half cap
        u = np.clip(u, 0, 1)
        assert check_order_stat_event(u, k, T) is True

    def test_direct_false_case(self):
        n, k, T = 1000, 10, 2.0
        m = int(k * T)
        u = np.linspace(1e-4, 1.0, n)[:, None] * np.ones((1, 2))
        u = u * 3 * T * (k / n) / u[m - 1, 0]
        u = np.clip(u, 0, 1)
        assert check_order_stat_event(u, k, T) is False

    def test_index_guards(self):
        u = np.random.default_rng(0).random((50, 2))
        with pytest.raises(PreconditionError):
            check_order_stat_event(u, 1, 0.5)  # floor(k T) = 0
        with pytest.raises(PreconditionError):
            check_order_stat_event(u, 60, 1.0)  # floor(k T) = 60 > n

    def test_frequency_near_one(self):
        k, T, n = 100, 3.52, 10_000
        hits = 0
        for t in range(100):
            x = draw_copula_sample(comonotone(2), n, substream(9, "evt", t))
            hits += check_order_stat_event(1.0 - x, k, T)
        assert hits == 100

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_order_stats_event_matches_direct(self, data):
        n = data.draw(st.integers(1, 30))
        d = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # wide values, so the event is true in some draws and false in others
        x = rng.uniform(-2.0, 1.0, size=(n, d)) * data.draw(
            st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
        for special in data.draw(st.lists(
                st.sampled_from([np.inf, -np.inf, 1.0, 0.0]), max_size=3)):
            x[rng.integers(n), rng.integers(d)] = special
        if any(np.unique(col).size != n for col in x.T):
            return  # the whole column's tails reject ties
        k = data.draw(st.integers(1, n))
        m = data.draw(st.integers(1, n))
        T = m / k
        direct = check_order_stat_event(1.0 - x, k, T)
        assert _order_stat_event(column_tails(x, n), k, T) == direct
        assert _order_stat_event(build_ranks(x, n), k, T) == direct
        assert _order_stat_event(tails(x, k, T), k, T) == direct

    def test_order_stats_event_keeps_preconditions(self):
        x = np.random.default_rng(3).uniform(size=(10, 2))
        for k, T in ((10, 0.05), (2, 6.0)):  # floor(kT) = 0 and 12 > n
            with pytest.raises(PreconditionError) as direct:
                check_order_stat_event(1.0 - x, k, T)
            with pytest.raises(PreconditionError) as read:
                _order_stat_event(column_tails(x, 10), k, T)
            assert str(read.value) == str(direct.value)
            with pytest.raises(PreconditionError) as read:
                _order_stat_event(column_tails(x, 1), k, T)
            assert str(read.value) == str(direct.value)

    def test_declared_grid_trial_ranks_no_rows(self, monkeypatch):
        import tailvc.harness as hmod

        model, n, k, T = logistic(2.0, 2), 2000, 20, 2.0
        x = draw_copula_sample(model, n, substream(18, "rate", k, 0))
        expected = sup_stdf_deviation(x, k, model, T, grid_resolution=9)

        def no_ranks(sample, m):
            raise AssertionError("a declared-grid trial ranked every row")

        monkeypatch.setattr(hmod, "build_ranks", no_ranks)
        record = _one_trial(model, n, k, T, 18, 0, 9)
        assert record.ok
        assert record.sup_deviation == expected.value

    @pytest.mark.parametrize("grid_resolution", [None, 9])
    def test_trial_event_matches_direct(self, grid_resolution):
        model, n, k, T = logistic(2.0, 2), 2000, 20, 2.0
        for trial in range(5):
            record = _one_trial(model, n, k, T, 17, trial, grid_resolution)
            x = draw_copula_sample(model, n, substream(17, "rate", k, trial))
            assert record.order_stat_event == check_order_stat_event(1.0 - x, k, T)


class TestTailProcessDeviation:
    def test_one_dim_comonotone_reduces_to_ks_on_interval(self):
        n, k, T = 5000, 50, 2.0
        m = comonotone(1)
        u = 1.0 - draw_copula_sample(m, n, substream(3, "ks"))
        cls = RectClassSpec(model=m, k=k, n=n, T=T)
        stat = n / k * sup_empirical_deviation(u, cls).value
        q = k / n * T
        us = np.sort(u[:, 0])
        uu = us[us <= q]
        i = np.arange(1, uu.size + 1)
        direct = (
            n
            / k
            * max(
                np.max(np.abs(i / n - uu)) if uu.size else 0.0,
                np.max(np.abs((i - 1) / n - uu)) if uu.size else 0.0,
                abs(uu.size / n - q),
            )
        )
        assert stat == pytest.approx(direct, abs=1e-12)

    def test_full_budget_edge_is_finite(self):
        # k = n with T <= 1 keeps the scaled box inside the cube
        n = 500
        m = independence(2)
        u = 1.0 - draw_copula_sample(m, n, substream(4, "edge"))
        cls = RectClassSpec(model=m, k=n, n=n, T=0.9)
        stat = sup_empirical_deviation(u, cls)  # the n/k scale is 1 here
        assert np.isfinite(stat.value)

    def test_rate_on_zero_discrepancy_model(self):
        # the scaled tail process is stochastic even under comonotone rows
        # and its median shrinks like k^(-1/2)
        m = comonotone(2)
        n, T = 10_000, 2.0
        ks = (50, 100, 200, 400, 800)
        meds = []
        for k in ks:
            cls = RectClassSpec(model=m, k=k, n=n, T=T)
            vals = [
                n / k * sup_empirical_deviation(
                    1.0 - draw_copula_sample(m, n, substream(77, "tp", k, t)), cls
                ).value
                for t in range(100)
            ]
            meds.append(float(np.median(vals)))
        fit = fit_loglog_slope(ks, meds)
        assert -0.65 <= fit.slope <= -0.35


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        ks = np.array([10, 20, 40, 80])
        ys = 3.0 * ks ** (-0.5)
        fit = fit_loglog_slope(ks, ys)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_needs_two_positive_points(self):
        with pytest.raises(PreconditionError):
            fit_loglog_slope([10], [1.0])
        with pytest.raises(PreconditionError):
            fit_loglog_slope([10, 20], [0.0, 1.0])


# finite doubles with ties: 1 to 64 values drawn from a pool of 1 to 64; + 0.0
# turns -0.0 into 0.0, which numpy's partition may order either way against 0.0
TRIAL_VALUES = st.lists(
    st.floats(-1e300, 1e300).map(lambda v: v + 0.0), min_size=1, max_size=64,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=64))


class TestTrialSummaries:
    """``rng.median`` and ``rng.quantile`` against numpy's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(values=TRIAL_VALUES)
    def test_bit_for_bit_with_numpy(self, values):
        assert np.float64(median(values)).tobytes() == np.median(values).tobytes()
        for q in (0.5, 0.9, 0.95):
            got = np.float64(quantile(values, q)).tobytes()
            assert got == np.quantile(values, q).tobytes(), q

    def test_nan_anywhere_gives_nan(self):
        values = [1.0, math.nan, 2.0, 3.0]
        assert math.isnan(median(values))
        assert math.isnan(quantile(values, 0.5))


class TestRateExperiment:
    def test_config_guards(self):
        m = comonotone(2)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(model=m, n=1000, k_schedule=(200,), T=1.0,
                             delta=0.05, trials=2, seed=0)  # k > n/10
        with pytest.raises(ConfigurationError):
            ExperimentConfig(model=m, n=1000, k_schedule=(10, 10), T=1.0,
                             delta=0.05, trials=2, seed=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(model=m, n=1000, k_schedule=(10,), T=200.0,
                             delta=0.05, trials=2, seed=0)  # k T > n

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_t_must_be_finite_and_positive(self, T):
        with pytest.raises(ConfigurationError, match="T must be finite and > 0"):
            ExperimentConfig(model=comonotone(2), n=1000, k_schedule=(10,),
                             T=T, delta=0.05, trials=2, seed=0)

    def test_deterministic_across_worker_counts(self):
        m = independence(2)
        base = ExperimentConfig(model=m, n=2000, k_schedule=(20, 40), T=1.5,
                                delta=0.05, trials=4, seed=99)
        serial = run_rate_experiment(base)
        from dataclasses import replace

        parallel = run_rate_experiment(replace(base, workers=2))
        assert [r.sup_deviation for r in serial.trials] == [
            r.sup_deviation for r in parallel.trials
        ]

    def test_doubling_trials_stable_medians(self):
        # deviations are multiples of 1/k, so median jitter follows the
        # lattice; a bootstrap standard error captures that honestly
        m = independence(2)

        def run(trials, seed):
            cfg = ExperimentConfig(model=m, n=4000, k_schedule=(20, 40),
                                   T=1.5, delta=0.05, trials=trials, seed=seed)
            rep = run_rate_experiment(cfg)
            return {
                s.k: np.array(
                    [r.sup_deviation for r in rep.trials if r.k == s.k]
                )
                for s in rep.summaries
            }

        a = run(40, 5)
        b = run(80, 5)
        boot_rng = np.random.default_rng(1)
        for k in (20, 40):
            boots = np.median(
                boot_rng.choice(a[k], size=(1000, a[k].size), replace=True), axis=1
            )
            se = boots.std(ddof=1)
            assert abs(np.median(a[k]) - np.median(b[k])) <= 3 * se + 1e-12

    def test_bias_gap_shrinks_with_level(self):
        # at fixed k, the total error of the biased model approaches the
        # zero-discrepancy curve as k/n drops
        m = independence(2)
        k, T = 50, 2.0
        gaps = {}
        for n in (5000, 50_000):
            cfg = ExperimentConfig(model=m, n=n, k_schedule=(k,), T=T,
                                   delta=0.05, trials=30, seed=31)
            rep = run_rate_experiment(cfg)
            gaps[n] = rep.summaries[0].median
        from tailvc.models import sup_bias

        bias_small = sup_bias(m, k / 5000, T)
        bias_large = sup_bias(m, k / 50_000, T)
        drop = gaps[5000] - gaps[50_000]
        assert drop > 0.2 * (bias_small - bias_large)

    def test_tied_trials_reported_not_dropped(self, monkeypatch):
        import tailvc.samplers as smod

        tied = np.array([[0.5, 0.1], [0.5, 0.2], [0.7, 0.3], [0.8, 0.4]] * 20)

        def fake_draw(model, n, rng):
            return tied[:n]

        # the independence tail draw is the full draw: patched where it is defined
        monkeypatch.setattr(smod, "draw_copula_sample", fake_draw)
        cfg = ExperimentConfig(model=independence(2), n=80, k_schedule=(4,),
                               T=1.0, delta=0.05, trials=3, seed=1)
        rep = run_rate_experiment(cfg)
        assert len(rep.trials) == 3
        assert all(not r.ok for r in rep.trials)
        assert all("ties" in r.note for r in rep.trials)
        assert rep.summaries[0].trials_ok == 0

    def test_calibration_and_coverage_roundtrip(self):
        m = comonotone(2)
        pilot = run_rate_experiment(
            ExperimentConfig(model=m, n=20_000, k_schedule=(100,), T=4.0,
                             delta=0.05, trials=50, seed=111)
        )
        c_star = calibrate_constant(pilot)
        fresh = run_rate_experiment(
            ExperimentConfig(model=m, n=20_000, k_schedule=(100,), T=4.0,
                             delta=0.05, trials=50, seed=222)
        )
        cov = coverage_against_bound(fresh, c_star)
        assert cov[100] >= 0.95


class TestDecomposition:
    def test_total_below_term_sum_per_trial(self):
        for tag in ("independence", "comonotone", "logistic(2)"):
            model = parse_model(tag, 2)
            for t in range(5):
                x = draw_copula_sample(model, 1000, substream(13, "dec", t))
                terms = deviation_decomposition(x, 20, 2.0, model)
                assert terms.total <= terms.upper + 1e-12
                assert terms.total == sup_stdf_deviation(x, 20, model, 2.0).value

    def test_rounding_term_within_lattice_cap(self):
        model = independence(2)
        x = draw_copula_sample(model, 1000, substream(14, "cap"))
        k, T = 20, 2.0
        terms = deviation_decomposition(x, k, T, model)
        # the limit is 1-Lipschitz per coordinate, so the rounding piece is
        # dominated by the lattice gap plus the threshold displacement
        assert terms.rounding >= 0
        assert lattice_rounding_sup(k, T, 2) == pytest.approx(2 / k)

    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(2)",
                                     "logistic(5)"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k,T", [(40, 2.0), (7, 0.09)])
    def test_bit_identical_to_dense_terms(self, monkeypatch, tag, d, k, T):
        # k T = 0.63 < 1 leaves one lattice cell and no tail rows
        import tailvc.harness as hmod

        m = parse_model(tag, d)
        x = draw_copula_sample(m, 3000, substream(25, "dense-dec", tag, d, k))
        want = [v.hex() for v in dense_decomposition(x, k, T, m)]
        lattice = int(lattice_index(k, T)) + 1
        for strip in (None, 1, 3):
            if strip is not None:
                set_strip_rows(monkeypatch, strip, lattice, d)
                monkeypatch.setattr(hmod, "_corner_grid", None)
            terms = deviation_decomposition(x, k, T, m)
            got = [terms.substitution, terms.bias, terms.rounding]
            assert [v.hex() for v in got] == want, strip
            assert terms.total == sup_stdf_deviation(x, k, m, T).value

    def test_memory_is_linear_in_the_tail(self):
        # the dense terms held (floor(kT) + 1)^2 grids here: 99.7 MiB peak
        m, k, T = logistic(2.0, 2), 800, 2.0
        x = draw_copula_sample(m, 20_000, substream(19, "mem"))
        _corner_model_grids(m, k, T)
        tracemalloc.start()
        try:
            deviation_decomposition(x, k, T, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_thresholds_where_one_minus_x_collides(self):
        x = colliding_sample()
        n, k, T = x.shape[0], 150, 2.0
        state = column_tails(x, n)
        for j in range(2):
            u_sorted = np.sort(1.0 - x[:, j])
            assert np.unique(u_sorted).size < n
            assert np.array_equal(1.0 - state.values[j], u_sorted)
        m = independence(2)
        terms = deviation_decomposition(x, k, T, m)
        got = [terms.substitution, terms.bias, terms.rounding]
        assert [v.hex() for v in got] == [
            v.hex() for v in dense_decomposition(x, k, T, m)]

    def test_nan_is_rejected(self):
        m = logistic(2.0, 2)
        x = draw_copula_sample(m, 1000, substream(26, "dec-nan"))
        x[3, 1] = np.nan
        with pytest.raises(PreconditionError, match="must not contain NaN"):
            deviation_decomposition(x, 20, 2.0, m)

    @pytest.mark.parametrize("k", [0, 1001])
    def test_k_outside_one_to_n_is_rejected(self, k):
        m = logistic(2.0, 2)
        x = draw_copula_sample(m, 1000, substream(26, "dec-k"))
        with pytest.raises(PreconditionError, match=r"k must lie in \[1, n\]"):
            deviation_decomposition(x, k, 0.5, m)

    def test_d3_is_rejected_before_any_work(self, monkeypatch):
        import tailvc.harness as hmod

        def fail(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(hmod, "tail_depths", fail)
        monkeypatch.setattr(hmod, "_corner_model_grids", fail)
        m = independence(3)
        x = draw_copula_sample(m, 500, substream(26, "dec-d3"))
        with pytest.raises(ConfigurationError, match="d = 3 >= 3 requires"):
            deviation_decomposition(x, 10, 2.0, m)


def colliding_sample():
    """300 rows whose 1 - x collide: below 0.5 distinct x can round to one
    1 - x, adjacent doubles at 0.3 collide in pairs, and every x under
    2^-54 gives 1 - x = 1.0."""
    rng = np.random.default_rng(27)
    col = np.concatenate((0.3 + np.arange(100) * np.spacing(0.3),
                          1e-300 * np.arange(1, 51), rng.random(150)))
    return np.column_stack((rng.permutation(col), rng.permutation(col)))


def dense_decomposition(x, k, T, model):
    """The former decomposition terms, from dense lattice and model grids."""
    state = tails(x, k, T)
    n, d = state.n, state.d
    u = 1.0 - x
    m_top = int(lattice_index(k, T))
    counts = empirical_stdf_lattice(state, k, [m_top] * d)
    thr_axes = [np.concatenate(([0.0], np.sort(u[:, j])[:m_top])) for j in range(d)]
    tail_grid = tail_union_prob_axes(model, thr_axes) * (n / k)
    substitution = float(np.abs(counts - tail_grid).max())
    l_at_thr = eval_stdf_axes(model, [n / k * a for a in thr_axes])
    bias = float(np.abs(tail_grid - l_at_thr).max())
    axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)
    corners = eval_stdf_axes(model, [axis] * d)
    lower = np.abs(l_at_thr - corners[(slice(None, -1),) * d]).max()
    upper = np.abs(l_at_thr - corners[(slice(1, None),) * d]).max()
    return substitution, bias, float(np.maximum(lower, upper))


class TestTrialTiesContract:
    """A converge trial, and ``sup_stdf_deviation`` and the decomposition on
    raw values, fail only on a tie among a column's floor(k T) + 1 largest
    values, the only values they read."""

    N, K, T = 2000, 20, 2.0  # floor(k T) = 40

    def trial(self, monkeypatch, x):
        import tailvc.samplers as smod

        # the independence tail draw is the full draw
        monkeypatch.setattr(smod, "draw_copula_sample", lambda model, n, rng: x.copy())
        return _one_trial(independence(2), self.N, self.K, self.T, 5, 0, None)

    def tied(self, column, depths):
        """A sample with the values at two depths of ``column`` made equal
        (depth 1 is the largest), and the same sample without that tie."""
        x = draw_copula_sample(independence(2), self.N, substream(33, "ties"))
        order = np.argsort(x[:, column])[::-1]
        a, b = (order[i - 1] for i in depths)
        tied = x.copy()
        tied[a, column] = x[b, column]
        return tied, x

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("depths", [(41, 42), (1000, 1999), (1999, 2000)],
                             ids=["boundary", "body", "bottom"])
    def test_tie_outside_the_tail_changes_nothing(self, monkeypatch, column, depths):
        tied, untied = self.tied(column, depths)
        with pytest.raises(TiesError):
            column_tails(tied, self.N)  # the whole column holds the tie
        record = self.trial(monkeypatch, tied)
        assert record.ok
        assert record == self.trial(monkeypatch, untied)
        m = independence(2)
        assert (sup_stdf_deviation(tied, self.K, m, self.T)
                == sup_stdf_deviation(untied, self.K, m, self.T))
        assert (deviation_decomposition(tied, self.K, self.T, m)
                == deviation_decomposition(untied, self.K, self.T, m))

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("depths", [(1, 2), (40, 41)], ids=["top", "last-read"])
    def test_tie_inside_the_tail_fails_with_the_note(self, monkeypatch, column, depths):
        tied, _ = self.tied(column, depths)
        record = self.trial(monkeypatch, tied)
        with pytest.raises(TiesError) as read:
            column_tails(tied, 41)
        assert not record.ok
        assert record.note == str(read.value)
        m = independence(2)
        for scan in (lambda: sup_stdf_deviation(tied, self.K, m, self.T),
                     lambda: deviation_decomposition(tied, self.K, self.T, m)):
            with pytest.raises(TiesError) as raw:
                scan()
            assert str(raw.value) == str(read.value)
        assert (record.k, record.trial, record.order_stat_event) == (self.K, 0, None)
        assert math.isnan(record.sup_deviation)
