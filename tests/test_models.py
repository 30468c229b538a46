"""Closed-form model oracles: values, norm structure, finite-level laws."""

import numpy as np
import pytest

from tailvc import (
    ConfigurationError,
    PreconditionError,
    bias_term,
    comonotone,
    eval_stdf,
    independence,
    logistic,
    parse_model,
    pre_limit_tail,
    sup_bias,
    tail_union_prob,
)
from tailvc.models import eval_stdf_axes, tail_union_prob_axes
from tailvc.rng import substream

RTOL = 1e-12


def random_models(rng, d):
    yield independence(d)
    yield comonotone(d)
    yield logistic(float(rng.uniform(1.0, 6.0)), d)


class TestEvalStdf:
    def test_logistic_theta_one_is_sum(self):
        m = logistic(1.0, 3)
        x = [0.2, 1.7, 0.4]
        assert eval_stdf(m, x) == pytest.approx(sum(x), rel=RTOL)

    def test_logistic_two_unit_point(self):
        assert eval_stdf(logistic(2.0, 2), [1, 1]) == pytest.approx(
            np.sqrt(2), rel=RTOL
        )

    def test_comonotone_is_max(self):
        assert eval_stdf(comonotone(3), [0.3, 0.7, 0.2]) == 0.7

    def test_negative_coordinate_rejected(self):
        with pytest.raises(PreconditionError):
            eval_stdf(independence(2), [-0.1, 0.5])

    def test_theta_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            logistic(0.8, 2)

    def test_parse_model_tags(self):
        assert parse_model("logistic(2.5)", 2).theta == 2.5
        assert parse_model("comonotone", 3).variant == "comonotone"
        with pytest.raises(ConfigurationError):
            parse_model("gaussian", 2)


class TestPreLimit:
    def test_comonotone_exact_no_discrepancy(self):
        m = comonotone(2)
        for t in (0.5, 0.1, 0.01, 1 / 3):
            assert pre_limit_tail(m, t, [1, 2]) == 2.0
            assert bias_term(m, t, [1, 2]) == 0.0

    def test_independence_half(self):
        # 1 - (1 - 0.5)^2 = 0.75, divided by t = 0.5
        assert pre_limit_tail(independence(2), 0.5, [1, 1]) == pytest.approx(1.5)
        assert bias_term(independence(2), 0.5, [1, 1]) == pytest.approx(0.5)

    def test_independence_small_t_bias(self):
        # exact remainder is t * x1 * x2
        b = bias_term(independence(2), 0.001, [1, 1])
        assert b <= 1e-3 + 1e-12
        assert b == pytest.approx(0.001, rel=1e-9)

    def test_logistic_near_limit_and_monte_carlo(self):
        # discrepancy from the limit is O(t): ~3e-3 at t = 0.01, below 1e-3
        # by t = 0.001
        m = logistic(2.0, 2)
        analytic = pre_limit_tail(m, 0.01, [1, 1])
        assert abs(analytic - np.sqrt(2)) < 5e-3
        assert abs(pre_limit_tail(m, 0.001, [1, 1]) - np.sqrt(2)) < 1e-3
        # frequency oracle for the same probability
        from tailvc import draw_copula_sample

        rng = substream(2024, "prelimit-mc")
        u = 1.0 - draw_copula_sample(m, 10_000_000, rng)
        hit = np.mean((u[:, 0] <= 0.01) | (u[:, 1] <= 0.01))
        stderr = np.sqrt(hit * (1 - hit) / u.shape[0])
        assert abs(hit / 0.01 - analytic) < 4 * stderr / 0.01

    def test_domain_guard(self):
        with pytest.raises(PreconditionError):
            pre_limit_tail(independence(2), 0.5, [1, 3])


class TestNormStructure:
    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            for m in random_models(rng, d):
                for _ in range(50):
                    x = rng.uniform(0, 5, d)
                    s = float(rng.uniform(0, 4))
                    lhs = eval_stdf(m, s * x)
                    rhs = s * eval_stdf(m, x)
                    assert lhs == pytest.approx(rhs, rel=RTOL, abs=1e-12)

    def test_sandwich(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3):
            for m in random_models(rng, d):
                x = rng.uniform(0, 5, (200, d))
                val = eval_stdf(m, x)
                assert np.all(val >= x.max(axis=1) * (1 - RTOL) - 1e-12)
                assert np.all(val <= x.sum(axis=1) * (1 + RTOL) + 1e-12)

    def test_l1_lipschitz(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 3):
            for m in random_models(rng, d):
                x = rng.uniform(0, 4, (100, d))
                y = rng.uniform(0, 4, (100, d))
                gap = np.abs(eval_stdf(m, x) - eval_stdf(m, y))
                assert np.all(gap <= np.abs(x - y).sum(axis=1) + 1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 3):
            for m in random_models(rng, d):
                x = rng.uniform(0, 4, (100, d))
                y = rng.uniform(0, 4, (100, d))
                lhs = eval_stdf(m, x + y)
                rhs = eval_stdf(m, x) + eval_stdf(m, y)
                assert np.all(lhs <= rhs + 1e-12)

    def test_grid_evaluator_matches_pointwise(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            for m in random_models(rng, d):
                axes = [np.sort(rng.uniform(0, 3, 5)) for _ in range(d)]
                grid = eval_stdf_axes(m, axes)
                mesh = np.meshgrid(*axes, indexing="ij")
                pts = np.stack([g.ravel() for g in mesh], axis=-1)
                assert np.allclose(
                    grid.ravel(), eval_stdf(m, pts), rtol=RTOL, atol=0
                )


class TestTailUnion:
    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 3):
            for m in random_models(rng, d):
                axes = [np.sort(rng.uniform(0, 0.3, 4)) for _ in range(d)]
                grid = tail_union_prob_axes(m, axes)
                mesh = np.meshgrid(*axes, indexing="ij")
                pts = np.stack([g.ravel() for g in mesh], axis=-1)
                vals = np.array([tail_union_prob(m, p) for p in pts])
                assert np.allclose(grid.ravel(), vals, rtol=1e-12, atol=1e-15)

    def test_one_dimensional_margin_is_identity(self):
        # any model has uniform margins, so the union of one event is its level
        for m in (independence(1), comonotone(1), logistic(3.0, 1)):
            for y in (0.0, 0.05, 0.4, 1.0):
                assert tail_union_prob(m, [y]) == pytest.approx(y, abs=1e-12)

    def test_convergence_to_limit_on_t_grid(self):
        # discrepancy from the limit shrinks monotonically as the level drops
        x_grid = np.array([[0.5, 1.5], [1.0, 1.0], [2.0, 0.3]])
        for m in (independence(2), logistic(2.0, 2), comonotone(2)):
            errs = []
            for t in (0.25, 0.1, 0.04, 0.01, 0.001):
                errs.append(max(bias_term(m, t, x) for x in x_grid))
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
            assert errs[-1] < 1e-2


class TestZeroSign:
    """The additive and max grids return +0.0 where every input is -0.0."""

    @pytest.mark.parametrize("fn,variant", [(eval_stdf_axes, "independence"),
                                            (eval_stdf_axes, "comonotone"),
                                            (tail_union_prob_axes, "comonotone")])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_negative_zero_gives_positive_zero(self, fn, variant, d):
        m = parse_model(variant, d)
        axes = [np.array([-0.0, 0.25, -0.0, 0.5]) for _ in range(d)]
        for a in axes:
            a.flags.writeable = False  # the caller's arrays are never written
        grid = fn(m, axes)
        assert grid.shape == (4,) * d
        zero = grid == 0.0
        assert zero.any() and not np.signbit(grid[zero]).any()
        assert not any(np.shares_memory(grid, a) for a in axes)
        assert all(np.array_equal(a, [-0.0, 0.25, -0.0, 0.5]) and np.signbit(a[0])
                   for a in axes)


class TestSupBias:
    def test_comonotone_zero(self):
        assert sup_bias(comonotone(2), 0.01, 3.0) == 0.0

    def test_independence_corner_formula_matches_scan(self):
        m = independence(2)
        t, r = 0.02, 2.5
        closed = sup_bias(m, t, r)
        axis = np.linspace(0, r, 400)
        grid_l = eval_stdf_axes(m, [axis] * 2)
        grid_pre = tail_union_prob_axes(m, [t * axis] * 2) / t
        assert closed >= np.abs(grid_pre - grid_l).max() - 1e-12
        assert closed == pytest.approx(t * r * r, rel=1e-9)

    def test_logistic_bias_small_at_small_t(self):
        assert sup_bias(logistic(2.0, 2), 1e-4, 2.0) < 1e-3
