"""Closed-form model oracles: values, norm structure, finite-level laws."""

import hashlib

import numpy as np
import pytest

from tailvc import gridscan, models
from tailvc.errors import ConfigurationError, PreconditionError
from tailvc.models import (
    comonotone,
    eval_stdf,
    eval_stdf_axes,
    independence,
    logistic,
    parse_model,
    pre_limit_tail,
    sup_bias,
    tail_union_prob,
    tail_union_prob_axes,
)
from tailvc.rng import substream
from traced_memory import traced_peak

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
            assert abs(pre_limit_tail(m, t, [1, 2]) - eval_stdf(m, [1, 2])) == 0.0

    def test_independence_half(self):
        # 1 - (1 - 0.5)^2 = 0.75, divided by t = 0.5
        m = independence(2)
        assert pre_limit_tail(m, 0.5, [1, 1]) == pytest.approx(1.5)
        bias = abs(pre_limit_tail(m, 0.5, [1, 1]) - eval_stdf(m, [1, 1]))
        assert bias == pytest.approx(0.5)

    def test_independence_small_t_bias(self):
        # exact remainder is t * x1 * x2
        m = independence(2)
        b = abs(pre_limit_tail(m, 0.001, [1, 1]) - eval_stdf(m, [1, 1]))
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
        from tailvc.samplers import draw_copula_sample

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

    def test_small_coordinates_keep_their_digits(self):
        # logistic theta up to 40 on coordinates log-uniform down to 1e-12:
        # at theta = 40, x^theta leaves the normal range below about 2e-8
        rng = np.random.default_rng(14)
        assert eval_stdf(logistic(40.0, 2), [1e-9, 1e-9]) == pytest.approx(
            2.0 ** (1 / 40) * 1e-9, rel=RTOL)
        for d in (1, 2, 3):
            for theta in rng.uniform(1.0, 40.0, 40):
                m = logistic(theta, d)
                axes = [np.sort(10.0 ** rng.uniform(-12, 0, 4)) for _ in range(d)]
                mesh = np.meshgrid(*axes, indexing="ij")
                pts = np.stack([g.ravel() for g in mesh], axis=-1)
                vals = eval_stdf(m, pts)
                assert np.allclose(eval_stdf_axes(m, axes).ravel(), vals,
                                   rtol=RTOL, atol=0)
                c = 10.0 ** rng.uniform(-3, 3)
                assert np.allclose(eval_stdf(m, c * pts), c * vals, rtol=RTOL, atol=0)

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
    @staticmethod
    def assert_grid_matches_pointwise(m, axes):
        grid = tail_union_prob_axes(m, axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        vals = np.array([tail_union_prob(m, p) for p in pts])
        assert np.allclose(grid.ravel(), vals, rtol=1e-12, atol=1e-15)

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 3):
            for m in random_models(rng, d):
                axes = [np.sort(rng.uniform(0, 0.3, 4)) for _ in range(d)]
                self.assert_grid_matches_pointwise(m, axes)
        # logistic theta up to 40 on thresholds log-uniform down to 1e-12:
        # at theta = 40, q^theta leaves the normal range below about 2e-8
        for d in (1, 2, 3):
            for theta in rng.uniform(1.0, 40.0, 40):
                for _ in range(3):
                    axes = [np.sort(10.0 ** rng.uniform(-12, np.log10(0.3), 4))
                            for _ in range(d)]
                    self.assert_grid_matches_pointwise(logistic(theta, d), axes)

    def test_one_dimensional_margin_is_identity(self):
        # any model has uniform margins, so the union of one event is its level
        for m in (independence(1), comonotone(1), logistic(3.0, 1)):
            for y in (0.0, 0.05, 0.4, 1.0):
                assert tail_union_prob(m, [y]) == pytest.approx(y, abs=1e-12)

    @pytest.mark.parametrize("variant", ["independence", "comonotone", "logistic(2)"])
    @pytest.mark.parametrize("y", [[0.1, 0.2], [[0.1, 0.2]], [0.1, 0.2, 0.3, 0.4]])
    def test_coordinate_count_must_match_the_model(self, variant, y):
        with pytest.raises(PreconditionError) as err:
            tail_union_prob(parse_model(variant, 3), y)
        assert str(err.value) == (f"point has {np.shape(y)[-1]} coordinates, "
                                  "model dimension is 3")

    def test_convergence_to_limit_on_t_grid(self):
        # discrepancy from the limit shrinks monotonically as the level drops
        x_grid = np.array([[0.5, 1.5], [1.0, 1.0], [2.0, 0.3]])
        for m in (independence(2), logistic(2.0, 2), comonotone(2)):
            errs = []
            for t in (0.25, 0.1, 0.04, 0.01, 0.001):
                errs.append(max(abs(pre_limit_tail(m, t, x) - eval_stdf(m, x))
                                for x in x_grid))
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
            assert errs[-1] < 1e-2


# tail_union_prob at y = (0.04, ..., 0.04) and y_j = 0.25 * 0.6^j, one call
# per point: float.hex of each value, by model tag and d
TAIL_UNION_BITS = {
    "logistic(1.3)": {
        1: ("0x1.47ae147ae1480p-5", "0x1.0000000000000p-2"),
        2: ("0x1.134b02dbc7560p-4", "0x1.4964fc4648f0ap-2"),
        3: ("0x1.735c5f0dcee78p-4", "0x1.690bb4643aa06p-2"),
        8: ("0x1.76c444029f538p-3", "0x1.85fab5aaafb1cp-2"),
        9: ("0x1.9687fa42fa9e8p-3", "0x1.8679887d2c51ep-2"),
    },
    "logistic(2)": {
        1: ("0x1.47ae147ae1480p-5", "0x1.0000000000000p-2"),
        2: ("0x1.cb8a3ec082180p-5", "0x1.2020743ab800ap-2"),
        3: ("0x1.179bfe8e60718p-4", "0x1.29c60e5fb6506p-2"),
        8: ("0x1.bea69aa1c9f28p-4", "0x1.2eb71f20bcf34p-2"),
        9: ("0x1.d81f10667f918p-4", "0x1.2ebbc941c7ffap-2"),
    },
    "logistic(5)": {
        1: ("0x1.47ae147ae1480p-5", "0x1.0000000000000p-2"),
        2: ("0x1.7745eab47c840p-5", "0x1.027b5dcfe61a6p-2"),
        3: ("0x1.962ca709420e0p-5", "0x1.02a4215d611aep-2"),
        8: ("0x1.eb837badbca60p-5", "0x1.02a73c06f7706p-2"),
        9: ("0x1.f6dcc3a0990b0p-5", "0x1.02a73c0770260p-2"),
    },
    "independence": {
        1: ("0x1.47ae147ae1480p-5", "0x1.0000000000000p-2"),
        2: ("0x1.41205bc01a370p-4", "0x1.7333333333334p-2"),
        3: ("0x1.d81f10667f910p-4", "0x1.adf3b645a1cacp-2"),
        8: ("0x1.1d4c0cda5b5e2p-2", "0x1.f4b75a6ee4234p-2"),
        9: ("0x1.3ad85e42433bap-2", "0x1.f6e9dbff95e18p-2"),
    },
    "comonotone": {
        d: ("0x1.47ae147ae147bp-5", "0x1.0000000000000p-2") for d in (1, 2, 3, 8, 9)
    },
}
# SHA-256 of the same points passed as one (2, d) batch per (tag, d), in
# table order; at logistic(5), d = 9 the batch rounds apart from the
# one-point calls
TAIL_UNION_BATCH_SHA256 = (
    "275ef1637b85608fefaf1682872ff48d9fb32e0c77c32a186e1f28168c4329e2")


class TestTailUnionBits:
    """tail_union_prob's exact bits: a change to the order of its operations
    shows here."""

    @staticmethod
    def points(d):
        return np.array([np.full(d, 0.04), 0.25 * 0.6 ** np.arange(d)])

    @pytest.mark.parametrize("tag", list(TAIL_UNION_BITS))
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    def test_one_point_bits(self, tag, d):
        m = parse_model(tag, d)
        got = tuple(tail_union_prob(m, y).hex() for y in self.points(d))
        assert got == TAIL_UNION_BITS[tag][d]

    def test_batch_bits(self):
        h = hashlib.sha256()
        for tag, by_d in TAIL_UNION_BITS.items():
            for d in by_d:
                batch = tail_union_prob(parse_model(tag, d), self.points(d))
                h.update(batch.astype("<f8").tobytes())
        assert h.hexdigest() == TAIL_UNION_BATCH_SHA256


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

    def test_logistic_bias_on_a_box_where_l_underflows(self):
        # the grid's l nodes lie below 4e-9, where x^40 underflows; the
        # bias there is the rounding of 1 - C(1 - y), about 3e-15
        assert sup_bias(logistic(40.0, 2), 0.05, 1e-6) < 1e-12

    def test_logistic_bias_scales_with_t_where_the_norm_underflows(self):
        # the bias is about c t as t -> 0; at theta = 40 the grid's
        # thresholds t x fall below 2e-8, where q^theta underflows
        ratios = [sup_bias(logistic(40.0, 2), t, 2.0) / t for t in (1e-3, 1e-5, 1e-6)]
        assert max(ratios) <= 1.01 * min(ratios)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("theta", [1.2, 2.0, 5.0])
    @pytest.mark.parametrize("t", [0.005, 0.3])
    def test_logistic_slabs_match_the_whole_grid(self, monkeypatch, d, theta, t):
        # 33 nodes an axis in slabs of 5 axis-0 rows: 7 slabs, the last of 3
        grid, radius, m = 33, 2.0, logistic(theta, d)
        monkeypatch.setattr(models, "_SUP_BIAS_GRID", grid)
        monkeypatch.setattr(gridscan, "_STRIP_BYTES", 8 * 5 * grid ** (d - 1))
        slabs = []
        monkeypatch.setattr(models, "eval_stdf_axes",
                            lambda model, axes: slabs.append(len(axes[0]))
                            or eval_stdf_axes(model, axes))
        axis = np.linspace(0.0, radius, grid)
        grid_l = eval_stdf_axes(m, [axis] * d)
        grid_pre = tail_union_prob_axes(m, [t * axis] * d) / t
        whole = float(np.abs(grid_pre - grid_l).max())
        assert sup_bias(m, t, radius).hex() == whole.hex()
        assert slabs == [5] * 6 + [3]

    def test_logistic_d3_holds_one_slab(self):
        sup_bias(logistic(2.0, 3), 0.005, 2.0)
        peak, value = traced_peak(sup_bias, logistic(2.0, 3), 0.005, 2.0)
        assert value > 0
        assert peak < 16 << 20
