"""Rank machinery, the tail estimator, and its order-statistic identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from rank_oracles import (
    empirical_stdf,
    empirical_stdf_via_order_stats,
    empirical_tilde_F,
    exceedance_count,
    order_stat_thresholds,
    ranks,
    standardize,
    tail_event_count,
)
from tailvc.empirical import (
    ColumnTails,
    build_ranks,
    column_tails,
    empirical_stdf_lattice,
    lattice_index,
    stdf_lattice_counts,
    tail_depths,
)
from tailvc.errors import PreconditionError, TiesError
from tailvc.gridscan import dominance_weight_grid
from tailvc.models import comonotone, independence, parse_model
from tailvc.rng import substream
from tailvc.samplers import (
    Sample,
    apply_margins,
    draw_copula_sample,
    draw_sample,
)


def antimonotone_sample():
    # rows (1,5), (2,4), (3,3), (4,2), (5,1)
    return np.array([[1, 5], [2, 4], [3, 3], [4, 2], [5, 1]], dtype=float)


@st.composite
def tie_cases(draw):
    """A sample whose cells come from a few tie groups, +-0.0, NaN, +-inf
    and free floats, so a column may tie in several places or not at all."""
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 3))
    groups = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3))
    cell = st.one_of(
        st.sampled_from(groups + [0.0, -0.0, np.nan, np.inf, -np.inf]),
        st.floats(allow_nan=False),
    )
    return np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)),
                    dtype=float).reshape(n, d)


def first_stable_tie(x):
    """(column, rows) of the first equal neighbours in a column's stable
    argsort order, in the first column that has any; None without ties."""
    for j, col in enumerate(x.T):
        order = np.argsort(col, kind="stable")
        for a, b in zip(order, order[1:]):
            if col[a] == col[b]:  # NaN never equals NaN
                return j, sorted((int(a), int(b)))
    return None


class TestBuildRanks:
    @settings(max_examples=500, deadline=None)
    @given(tie_cases())
    def test_ties_raise_the_first_stable_argsort_pair(self, x):
        # at depth n the whole column is read, and checked
        n = x.shape[0]
        tie = first_stable_tie(x)
        if tie is None:
            tails = build_ranks(x, max(n, 1))
            for j, col in enumerate(x.T):
                assert np.array_equal(tails.values[j], np.sort(col)[::-1],
                                      equal_nan=True)
            return
        with pytest.raises(TiesError) as err:
            build_ranks(x, n)
        assert (err.value.column, err.value.rows) == tie
        assert str(err.value) == f"ties detected in column {tie[0]} at rows {tie[1]}"

    def test_three_element_column(self):
        x = np.array([[3.0], [1.0], [2.0]])
        r = build_ranks(x, 3)
        assert ranks(x)[:, 0].tolist() == [3, 1, 2]
        assert r.values[0].tolist() == [3.0, 2.0, 1.0]
        assert r.rows[0].tolist() == [0, 2, 1]

    def test_sorted_column_identity_permutation(self):
        assert ranks(np.arange(10, dtype=float))[:, 0].tolist() == list(range(1, 11))

    def test_duplicate_raises_with_location(self):
        values = np.array([[1.0, 0.5], [2.0, 0.7], [1.0, 0.9]])
        with pytest.raises(TiesError) as err:
            build_ranks(values, 3)
        assert err.value.column == 0
        assert err.value.rows == [0, 2]

    def test_jitter_breaks_ties_and_preserves_distinct_order(self):
        from tailvc.empirical import jitter_columns

        values = np.array([[1.0, 5.0], [1.0, 2.0], [3.0, 2.0], [7.0, 2.0]])
        out = jitter_columns(values, seed=4)
        tails = build_ranks(out, 4)  # no TiesError anymore
        assert tails.n == 4
        # distinct values keep their relative order in both columns
        assert out[3, 0] > out[2, 0] > max(out[0, 0], out[1, 0])
        assert out[0, 1] > max(out[1, 1], out[2, 1], out[3, 1])
        # deterministic under the same seed
        again = jitter_columns(values, seed=4)
        assert np.array_equal(out, again)


    @pytest.mark.parametrize("bad,j", [(np.nan, 0), (np.inf, 1), (-np.inf, 0)])
    def test_jitter_refuses_a_non_finite_value_naming_its_column(self, bad, j):
        from tailvc.empirical import jitter_columns

        values = np.array([[1.0, 2.0], [1.0, 3.0], [5.0, 4.0], [5.0, 6.0]])
        values[2, j] = bad
        with pytest.raises(PreconditionError) as err:
            jitter_columns(values, 1)
        assert str(err.value) == (f"column {j} holds a non-finite value; "
                                  "jitter needs finite data")

    @pytest.mark.parametrize("seed", [0, 3, 2 ** 40])
    def test_jitter_keeps_the_bytes_of_its_hand_built_stream(self, seed):
        from tailvc.empirical import jitter_columns

        # ties in groups, a constant column and an all-distinct one
        values = np.column_stack([np.arange(40) // 4, np.full(40, 2.5),
                                  np.arange(40) * 0.5]).astype(float)
        want = values.copy()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(0x6A17,)))
        for j in range(want.shape[1]):
            distinct = np.unique(want[:, j])
            if distinct.size == want.shape[0]:
                continue
            gap = (np.diff(distinct).min() if distinct.size > 1
                   else max(abs(distinct[0]), 1.0) * 1e-6)
            want[:, j] += rng.uniform(-0.25, 0.25, size=want.shape[0]) * gap
        assert jitter_columns(values, seed).tobytes() == want.tobytes()


class TestEmpiricalStdf:
    def test_zero_point_is_zero(self):
        assert empirical_stdf(antimonotone_sample(), 2, [0.0, 0.0]) == 0.0

    def test_comonotone_unit_point_attains_lower_bound(self):
        s = draw_sample(comonotone(2), 40, 3)
        assert empirical_stdf(s, 10, [1.0, 1.0]) == 1.0

    def test_antimonotone_hand_count(self):
        # thresholds are the 4th smallest per column; 4 rows exceed in union
        assert empirical_stdf(antimonotone_sample(), 2, [1.0, 1.0]) == 2.0

    def test_lattice_domain_guard(self):
        r = antimonotone_sample()
        with pytest.raises(PreconditionError):
            empirical_stdf(r, 2, [3.0, 0.0])  # floor(k x) = 6 > n = 5
        with pytest.raises(PreconditionError):
            empirical_stdf(r, 0, [1.0, 1.0])

    def test_value_is_multiple_of_one_over_k(self):
        rng = substream(4, "mult")
        x = draw_copula_sample(independence(2), 30, rng)
        for k in (1, 3, 7, 21):
            v = empirical_stdf(x, k, [0.7, 1.3])
            assert round(v * k) == pytest.approx(v * k, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [np.nan, np.inf, -1.0, [1.0, np.nan]])
    def test_lattice_index_rejects_points_outside_zero_to_inf(self, x):
        with pytest.raises(PreconditionError, match="must be finite and >= 0"):
            lattice_index(10, x)

    def test_lattice_index_snaps_float_dust(self):
        k = 7
        for m in range(0, 30):
            assert int(lattice_index(k, m / k)) == m


class TestTildeF:
    def test_empty_and_full_events(self):
        u = np.array([[0.1, 0.9], [0.5, 0.2], [0.8, 0.8]])
        assert empirical_tilde_F(u, np.zeros(2)) == 0.0
        assert empirical_tilde_F(u, np.ones(2)) == 1.0

    def test_hand_count(self):
        u = np.array([[0.1, 0.9], [0.5, 0.2], [0.8, 0.8]])
        assert empirical_tilde_F(u, np.array([0.4, 0.3])) == pytest.approx(2 / 3)

    def test_domain_guard(self):
        u = np.array([[0.1, 0.9]])
        with pytest.raises(PreconditionError):
            empirical_tilde_F(u, np.array([1.2, 0.5]))


class TestStandardize:
    def test_uniform_is_one_minus_x(self):
        s = draw_sample(independence(2), 50, 5)
        u = standardize(s, "uniform")
        assert np.allclose(u, 1.0 - s.values)

    def test_exponential_inverse_transform(self):
        base = draw_sample(independence(1), 50, 6)
        s = apply_margins(base, "exponential")
        u = standardize(s, "exponential")
        assert np.allclose(u, 1.0 - base.values, atol=1e-12)

    def test_pareto_margin_uniformity(self):
        base = draw_sample(independence(2), 20_000, 7, ("pareto(2)",))
        u = standardize(base, "pareto(2)")
        for j in range(2):
            assert kstest(u[:, j], "uniform").pvalue > 0.01

    def test_margin_spec_is_one_tag_for_every_column(self):
        base = draw_sample(independence(2), 50, 8)
        s = apply_margins(base, "exponential")
        u = standardize(s, "exponential")
        assert np.array_equal(u, standardize(s, ("exponential", "exponential")))


class TestOrderStatIdentity:
    def test_antimonotone_case(self):
        values = antimonotone_sample()
        # margins on {1..5}/6 scale keep things in [0, 1] for standardization
        u = 1.0 - values / 6.0
        assert empirical_stdf_via_order_stats(values, u, 2, [1.0, 1.0]) == 2.0

    def test_zero_point(self):
        values = antimonotone_sample()
        u = 1.0 - values / 6.0
        assert empirical_stdf_via_order_stats(values, u, 2, [0.0, 0.0]) == 0.0

    def test_exact_equality_randomized(self):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 51))
            tag = str(rng.choice(["independence", "comonotone", "logistic(1.7)"]))
            model = parse_model(tag, d)
            x = draw_copula_sample(model, n, rng)
            margins = tuple(
                str(rng.choice(["uniform", "exponential", "pareto(2)"]))
                for _ in range(d)
            )
            s = apply_margins(Sample(x), margins)
            u = standardize(s, margins)
            k = int(rng.integers(1, n + 1))
            mvec = rng.integers(0, n + 1, size=d)
            lhs = exceedance_count(s, mvec)
            rhs = tail_event_count(u, order_stat_thresholds(u, mvec))
            assert lhs == rhs


class TestStructuralInvariants:
    def test_sandwich_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 60))
            x = rng.random((n, d))
            k = int(rng.integers(1, n + 1))
            pt = rng.uniform(0, n / k, d)
            m = lattice_index(k, pt)
            if np.any(m > n):
                continue
            val = empirical_stdf(x, k, pt)
            assert val * k >= m.max() - 1e-9
            assert val * k <= m.sum() + 1e-9

    def test_margin_invariance(self):
        rng = np.random.default_rng(78)
        x = rng.random((60, 2))
        k, pts = 8, rng.uniform(0, 3, (20, 2))
        base = [empirical_stdf(x, k, p) for p in pts]
        for margin in ("exponential", "pareto(2)", "pareto(0.5)"):
            x1 = apply_margins(Sample(x), margin)
            after = [empirical_stdf(x1, k, p) for p in pts]
            assert after == base

    def test_componentwise_monotone_and_lattice_constant(self):
        rng = np.random.default_rng(79)
        x = rng.random((50, 2))
        k = 10
        grid = np.linspace(0, 4.9, 30)
        vals = np.array([[empirical_stdf(x, k, [a, b]) for b in grid] for a in grid])
        assert np.all(np.diff(vals, axis=0) >= 0)
        assert np.all(np.diff(vals, axis=1) >= 0)
        # constant within a lattice cell
        assert empirical_stdf(x, k, [0.51, 0.73]) == empirical_stdf(
            x, k, [0.59, 0.79]
        )

    def test_lattice_evaluator_matches_pointwise(self):
        rng = np.random.default_rng(80)
        for d in (1, 2, 3):
            n = 40
            x = rng.random((n, d))
            k = 6
            mmax = [5] * d
            grid = empirical_stdf_lattice(build_ranks(x, 6), k, mmax)
            for idx in np.ndindex(grid.shape):
                assert grid[idx] == empirical_stdf(
                    x, k, np.asarray(idx, dtype=float) / k
                )


@st.composite
def tail_kernel_cases(draw):
    """A sample without ties, NaN and +-inf allowed, and a lattice corner.

    Columns after the first may copy or negate column 0 (comonotone and
    countermonotone).  NaN may repeat: the rank contract orders NaNs above
    every number and among themselves by row index.
    """
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 3))
    cols = []
    for j in range(d):
        kind = draw(st.sampled_from(["perm", "comonotone", "countermonotone"]))
        if j == 0 or kind == "perm":
            col = np.array(draw(st.permutations(range(n))), dtype=float)
            rows = draw(st.permutations(range(n)))
            n_nan = draw(st.integers(0, n))
            col[rows[:n_nan]] = np.nan
            rest = rows[n_nan:]
            if rest and draw(st.booleans()):
                col[rest[0]] = np.inf
            if len(rest) > 1 and draw(st.booleans()):
                col[rest[1]] = -np.inf
        else:
            col = cols[0] if kind == "comonotone" else -cols[0]
        cols.append(col)
    mmax = [
        draw(st.one_of(st.just(0), st.just(n), st.integers(0, n))) for _ in range(d)
    ]
    return np.column_stack(cols), mmax


def tail_sources(x, mmax):
    """x's column tails at the depth a lattice up to mmax reads, and whole."""
    return column_tails(x, max(mmax) + 1), column_tails(x, x.shape[0])


class TestTailKernel:
    @settings(max_examples=300, deadline=None)
    @given(tail_kernel_cases())
    def test_matches_exceedance_oracle_at_every_lattice_vector(self, case):
        x, mmax = case
        lattice = np.indices([m + 1 for m in mmax]).reshape(len(mmax), -1).T
        oracle = exceedance_count(x, lattice).reshape([m + 1 for m in mmax])
        for source in tail_sources(x, mmax):
            counts = stdf_lattice_counts(source, mmax)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, oracle)

    @settings(max_examples=200, deadline=None)
    @given(tail_kernel_cases(), st.integers(1, 5))
    def test_strided_counts_match_exceedance_oracle(self, case, stride):
        x, mmax = case
        axes = [np.arange(0, m + 1, stride) for m in mmax]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        oracle = exceedance_count(x, nodes.reshape(-1, len(mmax)))
        for source in tail_sources(x, mmax):
            counts = stdf_lattice_counts(source, mmax, stride)
            assert counts.dtype == np.int64
            assert counts.shape == tuple(a.size for a in axes)
            assert np.array_equal(counts.ravel(), oracle)

    @settings(max_examples=100, deadline=None)
    @given(tail_kernel_cases())
    def test_rank_state_is_the_column_tails(self, case):
        x, mmax = case
        n = x.shape[0]
        for m in (max(mmax) + 1, n):
            tails = build_ranks(x, m)
            assert isinstance(tails, ColumnTails)
            same = column_tails(x, m)
            for j in range(x.shape[1]):
                assert np.array_equal(tails.rows[j], same.rows[j])
                for got, want in ((tails.values[j], same.values[j]),
                                  (tails.values[j], np.sort(x[:, j])[::-1][:m])):
                    # bit for bit, but a NaN only as NaN: np.sort writes the
                    # default NaN where the stable argsort keeps the row's
                    # own (a -NaN here)
                    nan = np.isnan(got)
                    assert np.array_equal(nan, np.isnan(want))
                    assert np.array_equal(got[~nan].view(np.int64),
                                          want[~nan].view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(tail_kernel_cases(), st.data())
    def test_tail_rows_count_on_any_level_grid(self, case, data):
        # the declared-grid and strided consumers: the count at a node is
        # U - #{tail rows dominating it}, on sorted levels from 0 to mmax
        x, mmax = case
        levels = [
            np.array(sorted({0, m} | set(data.draw(
                st.lists(st.integers(0, m), max_size=4), label=f"levels{j}"))))
            for j, m in enumerate(mmax)
        ]
        nodes = np.stack(np.meshgrid(*levels, indexing="ij"), axis=-1)
        oracle = exceedance_count(x, nodes.reshape(-1, len(mmax)))
        for source in tail_sources(x, mmax):
            depths = tail_depths(source, mmax)
            assert depths.dtype == np.int64
            assert np.all((depths >= 1) & (depths <= np.add(mmax, 1)))
            dominating = dominance_weight_grid(
                depths.astype(float), np.ones(depths.shape[0]),
                [a.astype(float) for a in levels], strict=True,
            )
            counts = depths.shape[0] - dominating
            assert np.array_equal(counts.ravel(), oracle)

    @settings(max_examples=100, deadline=None)
    @given(tail_kernel_cases())
    def test_tail_rows_match_stable_argsort(self, case):
        x, _ = case
        whole = column_tails(x, x.shape[0])
        for j in range(x.shape[1]):
            order = np.argsort(x[:, j], kind="stable")[::-1]
            for m in range(x.shape[0] + 1):
                assert whole.top_rows(j, m).tolist() == order[:m].tolist()
                assert build_ranks(x, max(m, 1)).top_rows(j, m).tolist() == (
                    order[:m].tolist())

    @pytest.mark.parametrize("depths", [(30, 31), (5, 6), (1, 2)],
                             ids=["body", "tail-boundary", "top"])
    def test_tie_raises_the_rank_error(self, depths):
        # column 1 ties its depth-a and depth-b values; the lattice reads
        # depths 1..5, so "body" ties below the tail the kernel reads
        rng = np.random.default_rng(81)
        x = rng.random((60, 2))
        order = np.argsort(x[:, 1])[::-1]
        a, b = (order[i - 1] for i in depths)
        x[a, 1] = x[b, 1]
        with pytest.raises(TiesError) as expected:
            build_ranks(x, 60)
        with pytest.raises(TiesError) as got:
            column_tails(x, 60)
        assert got.value.column == expected.value.column == 1
        assert got.value.rows == expected.value.rows == sorted((a, b))
        assert str(got.value) == str(expected.value)
        # the tail state checks only the m largest values of each column
        for m in (5, 6, 60):
            if depths[1] > m:
                stable = np.argsort(x[:, 1], kind="stable")[::-1]
                assert column_tails(x, m).rows[1].tolist() == stable[:m].tolist()
                continue
            with pytest.raises(TiesError) as tail:
                column_tails(x, m)
            assert str(tail.value) == str(expected.value)


def first_tail_tie(x, m):
    """(column, rows) for the first column with equal neighbours among its
    m largest values in stable order: the first two rows holding the
    smallest such value; None without one."""
    for j, col in enumerate(x.T):
        top = col[np.argsort(col, kind="stable")[::-1][:m]]
        tied = [a for a, b in zip(top, top[1:]) if a == b]  # NaN never equals NaN
        if tied:
            return j, np.flatnonzero(col == min(tied))[:2].tolist()
    return None


class TestColumnTails:
    @settings(max_examples=500, deadline=None)
    @given(tie_cases(), st.data())
    def test_top_rows_and_ties_among_them(self, x, data):
        n = x.shape[0]
        m = data.draw(st.integers(1, max(n, 1)))
        tie = first_tail_tie(x, m)
        # any rows that hold every top value of every column (NaN sorts last)
        need = set()
        for col in (x.T if n else ()):
            need.update(np.flatnonzero(~(col < np.sort(col)[max(n - m, 0)])).tolist())
        extra = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
        rows = np.array(sorted(need | extra), dtype=np.intp)
        for got in (lambda: column_tails(x, m),
                    lambda: column_tails(x[rows], m, rows, n)):
            if tie is not None:
                with pytest.raises(TiesError) as err:
                    got()
                assert (err.value.column, err.value.rows) == tie
                continue
            tails = got()
            assert (tails.n, tails.d) == (n, x.shape[1])
            for j, col in enumerate(x.T):
                order = np.argsort(col, kind="stable")[::-1][:m]
                assert tails.top_rows(j, min(m, n)).tolist() == order.tolist()
                assert np.array_equal(tails.values[j], col[order], equal_nan=True)

    def test_the_whole_column_is_checked_at_depth_n(self):
        rng = np.random.default_rng(84)
        for _ in range(50):
            x = rng.integers(0, 40, size=(30, 2)).astype(float)
            column, rows = first_stable_tie(x)
            with pytest.raises(TiesError) as tail:
                column_tails(x, 30)
            assert str(tail.value) == f"ties detected in column {column} at rows {rows}"

    def test_depth_beyond_the_tail_is_refused(self):
        tails = column_tails(np.random.default_rng(85).random((10, 2)), 3)
        assert tails.top_rows(0, 3).size == 3
        with pytest.raises(PreconditionError, match="holds 3 rows, 4 were asked"):
            tails.top_rows(0, 4)

    def test_shape_and_range_guards(self):
        x = column_tails(np.random.default_rng(82).random((10, 2)), 10)
        with pytest.raises(PreconditionError):
            stdf_lattice_counts(x, [3])
        with pytest.raises(PreconditionError):
            stdf_lattice_counts(x, [11, 0])
        with pytest.raises(PreconditionError):
            stdf_lattice_counts(x, [-1, 0])

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_is_a_precondition_error(self, stride):
        x = column_tails(np.random.default_rng(83).random((10, 2)), 10)
        with pytest.raises(PreconditionError, match="stride must be >= 1"):
            stdf_lattice_counts(x, [3, 3], stride)
        with pytest.raises(PreconditionError, match="stride must be >= 1"):
            empirical_stdf_lattice(x, 5, [3, 3], stride)
