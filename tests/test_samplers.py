"""Generators: determinism, dependence structure, margins."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstest

from tailvc import samplers
from tailvc.empirical import column_tails
from tailvc.errors import ConfigurationError, PreconditionError
from tailvc.models import comonotone, independence, logistic, parse_model
from tailvc.rng import substream
from tailvc.samplers import (
    Sample,
    apply_margins,
    draw_copula_blocks,
    draw_copula_sample,
    draw_copula_tail,
    draw_sample,
    draw_tail_uniforms,
    parse_margin,
)
from traced_memory import traced_peak


class TestDeterminism:
    def test_identical_spec_bit_identical(self):
        for model in (independence(2), comonotone(2), logistic(2.0, 2)):
            a = draw_sample(model, 500, 31).values
            b = draw_sample(model, 500, 31).values
            assert a.tobytes() == b.tobytes()

    def test_margined_sample_bits(self):
        # the exact bits of a sample with a margin of each kind
        s = draw_sample(logistic(2.5, 3), 2000, 11, ("uniform", "pareto(2)", "exponential"))
        values = s.values.astype("<f8")
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "473e837aa61c9f4d383fefa8049f8879c01d1d841980f1ded1123a34339e82b2")

    def test_different_seed_differs(self):
        a = draw_sample(independence(2), 100, 1).values
        b = draw_sample(independence(2), 100, 2).values
        assert not np.array_equal(a, b)


class TestIndependence:
    def test_single_value_in_unit_interval(self):
        s = draw_sample(independence(1), 1, 5)
        assert s.values.shape == (1, 1)
        assert 0.0 <= s.values[0, 0] <= 1.0

    def test_coordinates_uncorrelated(self):
        s = draw_sample(independence(2), 10_000, 6)
        corr = np.corrcoef(s.values[:, 0], s.values[:, 1])[0, 1]
        assert abs(corr) < 0.05


class TestComonotone:
    def test_rows_constant_across_coordinates(self):
        s = draw_sample(comonotone(3), 5, 7)
        assert np.all(s.values == s.values[:, [0]])

    def test_ranks_agree_across_coordinates(self):
        s = draw_sample(comonotone(2), 50, 8, ("uniform", "exponential"))
        r0 = np.argsort(np.argsort(s.values[:, 0]))
        r1 = np.argsort(np.argsort(s.values[:, 1]))
        assert np.array_equal(r0, r1)

    def test_tail_frequency_matches_max(self):
        # P(U1 <= t x1 or U2 <= t x2) / t -> max(x) holds at every level
        rng = substream(123, "comono-freq")
        u = 1.0 - draw_copula_sample(comonotone(2), 1_000_000, rng)
        t, x = 0.01, (1.0, 2.0)
        hit = np.mean((u[:, 0] <= t * x[0]) | (u[:, 1] <= t * x[1]))
        stderr = np.sqrt(hit * (1 - hit) / u.shape[0])
        assert abs(hit / t - 2.0) < 4 * stderr / t


class TestLogistic:
    def test_theta_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_sample(logistic(0.99, 2), 10, 1)

    def test_theta_one_matches_independence(self):
        a = draw_copula_sample(logistic(1.0, 2), 10_000, substream(1, "l1"))
        b = draw_copula_sample(independence(2), 10_000, substream(2, "l1"))
        # dependence shows in the pairwise maximum; same law at theta = 1
        assert ks_2samp(a.max(axis=1), b.max(axis=1)).pvalue > 0.01

    @pytest.mark.parametrize("theta", [1.5, 3.0])
    def test_uniform_margins(self, theta):
        x = draw_copula_sample(logistic(theta, 2), 100_000, substream(0, "kscheck"))
        for j in (0, 1):
            assert kstest(x[:, j], "uniform").pvalue > 0.01

    def test_tail_frequency_matches_limit(self):
        # theta = 3 diagonal: the scaled tail frequency approaches 2^(1/3)
        rng = substream(99, "mc")
        u = 1.0 - draw_copula_sample(logistic(3.0, 2), 2_000_000, rng)
        t = 0.005
        hit = np.mean((u[:, 0] <= t) | (u[:, 1] <= t))
        stderr = np.sqrt(hit * (1 - hit) / u.shape[0])
        assert abs(hit / t - 2 ** (1 / 3)) < 4 * stderr / t


def three_sine_logistic_draw(model, n, rng):
    """The logistic draw as first written: three sine passes, no in-place steps."""
    theta, alpha = model.theta, 1.0 / model.theta
    v = rng.uniform(0.0, math.pi, size=n)
    w = rng.exponential(size=n)
    sin_v = np.sin(v)
    s = (
        np.sin(alpha * v) / sin_v ** (1.0 / alpha)
    ) * (np.sin((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    e = rng.exponential(size=(n, model.d))
    return np.exp(-((e / s[:, None]) ** (1.0 / theta)))


class TestPositiveStableBits:
    @pytest.mark.parametrize("seed", range(5))
    def test_logistic_two_matches_three_sine_draw(self, seed):
        # at theta = 2 one sine pass serves both sin(alpha V) and
        # sin((1 - alpha) V)
        m = logistic(2.0, 2)
        got = draw_copula_sample(m, 20_000, substream(seed, "sines"))
        old = three_sine_logistic_draw(m, 20_000, substream(seed, "sines"))
        assert got.tobytes() == old.tobytes()

    @pytest.mark.parametrize("theta", [1.2, 1.5, 3.0, 5.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_other_thetas_match_three_sine_draw(self, theta, d):
        m = logistic(theta, d)
        for seed in range(5):
            key = (seed, "sines", str(theta))
            got = draw_copula_sample(m, 5_000, substream(*key))
            old = three_sine_logistic_draw(m, 5_000, substream(*key))
            assert got.tobytes() == old.tobytes()


class TestCopulaBlocks:
    """``draw_copula_blocks`` gives ``draw_copula_sample``'s bits, and leaves
    the stream where the full draw leaves it, at any block size."""

    TAGS = ["independence", "comonotone", "logistic(1)", "logistic(1.2)",
            "logistic(2)", "logistic(5)", "logistic(40)"]

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3_001])
    def test_blocks_are_the_full_draw(self, tag, d, n):
        model = parse_model(tag, d)
        key = (5, "blocks", tag, d, n)
        want = substream(*key)
        full = draw_copula_sample(model, n, want)
        for rows in sorted({1, 7, max(n - 1, 1), n, n + 5}):
            rng = substream(*key)
            blocks = list(draw_copula_blocks(model, n, rng, rows))
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert np.concatenate(blocks).tobytes() == full.tobytes()
            assert rng.bit_generator.state == want.bit_generator.state

    def test_default_block(self):
        model, n = logistic(2.0, 2), samplers.ROW_BLOCK + 3
        blocks = list(draw_copula_blocks(model, n, substream(6, "default")))
        assert [len(b) for b in blocks] == [samplers.ROW_BLOCK, 3]
        full = draw_copula_sample(model, n, substream(6, "default"))
        assert np.concatenate(blocks).tobytes() == full.tobytes()

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            next(draw_copula_blocks(independence(2), 0, substream(1, "none")))


class TestTailDraw:
    """``draw_copula_tail`` keeps every row that can reach a column's m largest
    values, with the full draw's bits."""

    N = 50_000
    THETAS = [1.2, 2.0, 5.0, 20.0]

    @staticmethod
    def draws(model, n, m, key):
        return (draw_copula_sample(model, n, substream(*key)),
                draw_copula_tail(model, n, m, substream(*key)))

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("m", [0, 1, 1000, N - 2, N - 1])
    def test_top_rows_and_values_are_the_full_draws(self, theta, m):
        # m = floor(kT): a trial reads each column's m + 1 largest values
        model = logistic(theta, 2)
        for seed in range(3):
            key = (seed, "tail", str(theta), m)
            full, (rows, x) = self.draws(model, self.N, m + 1, key)
            if rows is None:
                assert m + 1 >= self.N
                assert x.tobytes() == full.tobytes()
            else:
                assert x.tobytes() == full[rows].tobytes()
            tails = column_tails(x, m + 1, rows, self.N)
            for j in range(2):
                top = np.argsort(full[:, j], kind="stable")[::-1][:m + 1]
                assert tails.rows[j].tolist() == top.tolist()
                assert tails.values[j].tobytes() == full[top, j].tobytes()

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("d", [1, 3])
    def test_other_dimensions(self, theta, d):
        model = logistic(theta, d)
        full, (rows, x) = self.draws(model, 20_000, 41, (9, "tail-d", str(theta), d))
        assert x.tobytes() == full[rows].tobytes()
        for j in range(d):
            top = np.argsort(full[:, j], kind="stable")[::-1][:41]
            assert np.isin(top, rows).all()

    @pytest.mark.parametrize("theta", THETAS)
    def test_rows_in_the_first_and_last_bucket_always_pass(self, theta):
        n, buckets = 200_000, samplers._S1_BUCKETS
        key = (4, "tail-edges", str(theta))
        v = substream(*key).uniform(0.0, math.pi, size=n)  # the draw's first words
        bucket = (v * (buckets / math.pi)).astype(np.intp)
        first, last = np.flatnonzero(bucket == 0), np.flatnonzero(bucket >= buckets - 1)
        assert first.size and last.size
        full, (rows, x) = self.draws(logistic(theta, 2), n, 2, key)
        assert np.isin(first, rows).all() and np.isin(last, rows).all()
        assert x.tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(1)"])
    def test_other_models_take_the_full_draw(self, tag):
        full, (rows, x) = self.draws(parse_model(tag, 2), 5_000, 11,
                                     (2, "tail-full", tag))
        assert rows is None
        assert x.tobytes() == full.tobytes()

    @pytest.mark.parametrize("tag", TestCopulaBlocks.TAGS)
    @pytest.mark.parametrize("m", [1, 1000, 39_999, 40_000, 40_005])
    def test_the_stream_ends_where_the_full_draw_leaves_it(self, tag, m):
        # n spans three blocks of the tail draw's exponentials at m < n
        model, n = parse_model(tag, 2), 40_000
        want, rng = substream(8, "tail-end", tag, m), substream(8, "tail-end", tag, m)
        draw_copula_sample(model, n, want)
        draw_copula_tail(model, n, m, rng)
        assert rng.bit_generator.state == want.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(1.0, 40.0, exclude_min=True), d=st.sampled_from([1, 2, 3]),
           n=st.integers(2, 40_000), where=st.sampled_from(["one", "mid", "last", "all"]),
           mid=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    def test_kept_rows_hold_every_columns_top_rows(self, theta, d, n, where, mid, seed):
        # m at 1, within (1, n - 1), n - 1, and n or above (the whole draw)
        m = {"one": 1, "mid": 1 + int(mid * (n - 2)), "last": n - 1,
             "all": n + int(mid * 3)}[where]
        model = logistic(theta, d)
        want, rng = substream(seed, "tail-prop"), substream(seed, "tail-prop")
        full = draw_copula_sample(model, n, want)
        rows, x = draw_copula_tail(model, n, m, rng)
        assert rng.bit_generator.state == want.bit_generator.state
        if rows is None:
            assert m >= n and x.tobytes() == full.tobytes()
            return
        assert x.tobytes() == full[rows].tobytes()
        for j in range(d):
            top = np.argsort(full[:, j], kind="stable")[::-1][:m]
            assert np.isin(top, rows).all()

    def test_no_model_takes_a_theta_the_draw_overflows_at(self):
        # the frailty draw overflows above theta = 50 (CHANGES.md, the note
        # on draw_copula_sample above theta 50); the model stops at 40
        with pytest.raises(ConfigurationError) as err:
            logistic(60.0, 2)
        assert str(err.value) == ("logistic dependence parameter must be <= 40, "
                                  "got 60: the frailty draw overflows above it")

    def test_a_tail_needs_a_value(self):
        with pytest.raises(PreconditionError, match="at least one value"):
            draw_copula_tail(logistic(2.0, 2), 100, 0, substream(1, "none"))

    @pytest.mark.parametrize("theta", [1.01, 1.2, 2.0, 5.0, 20.0, 50.0])
    def test_s1_table_is_nonincreasing_in_reciprocal_within_its_slack(self, theta):
        buckets = samplers._S1_BUCKETS
        lower, upper = samplers._s1_reciprocals(1.0 / theta)
        inner = slice(1, buckets - 1)
        for table in (lower[inner], upper[inner]):
            assert np.all(table >= 0) and np.all(np.isfinite(table))
            assert np.all(table[1:] <= table[:-1] * (1.0 + 1e-9))
        assert np.all(lower <= upper)
        assert not lower.flags.writeable and not upper.flags.writeable

    @pytest.mark.parametrize("theta", [
        1.01, 1.2, 2.0, 5.0, 20.0,
        # S overflows on a few of the 1e6 draws at theta = 50 (CHANGES.md, the
        # note on draw_copula_sample above theta 50)
        pytest.param(50.0, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ])
    def test_buckets_bracket_the_full_draws_frailty(self, theta):
        # q = E / S at E = 1 lies in [W^beta lower, W^beta upper] of V's bucket
        alpha, n = 1.0 / theta, 1_000_000
        rng = substream(6, "bracket", str(theta))
        v, w = rng.uniform(0.0, math.pi, size=n), rng.exponential(size=n)
        q = 1.0 / samplers._stable_frailty(alpha, v.copy(), w.copy())
        bucket = (v * (samplers._S1_BUCKETS / math.pi)).astype(np.intp)
        lower, upper = samplers._s1_reciprocals(alpha)
        wb = w ** ((1.0 - alpha) / alpha)
        assert np.all(wb * lower[bucket] <= q)
        assert np.all(q <= wb * upper[bucket])


class TestMargins:
    def test_identity_margin_returns_input(self):
        s = draw_sample(independence(2), 50, 9)
        out = apply_margins(s, "uniform")
        assert np.array_equal(out.values, s.values)

    def test_exponential_preserves_ranks(self):
        s = draw_sample(independence(2), 100, 10)
        out = apply_margins(s, "exponential")
        for j in range(2):
            assert np.array_equal(
                np.argsort(out.values[:, j]), np.argsort(s.values[:, j])
            )

    def test_pareto_preserves_argsort_on_fixed_sample(self):
        values = np.array(
            [[0.1, 0.9], [0.5, 0.2], [0.8, 0.7], [0.3, 0.4], [0.6, 0.05]]
        )
        out = apply_margins(Sample(values), "pareto(2)")
        for j in range(2):
            assert np.array_equal(
                np.argsort(out.values[:, j]), np.argsort(values[:, j])
            )

    def test_unknown_margin_rejected(self):
        s = draw_sample(independence(2), 10, 11)
        with pytest.raises(ConfigurationError):
            apply_margins(s, "cauchy")

    @pytest.mark.parametrize("a", ["inf", "nan", "0", "-1"])
    def test_pareto_index_must_be_finite_and_positive(self, a):
        with pytest.raises(ConfigurationError) as err:
            parse_margin(f"pareto({a})")
        assert str(err.value) == f"pareto margin index must be finite and > 0, got {float(a)}"

    def test_margins_apply_per_coordinate(self):
        s = draw_sample(independence(2), 200, 12, ("exponential", "pareto(3)"))
        assert np.all(s.values[:, 0] >= 0)
        assert np.all(s.values[:, 1] >= 1)


def column_stack_margins(values, margins):
    """The margins as one column list joined by ``np.column_stack``."""
    return np.column_stack([parse_margin(m).transform(values[:, j])
                            for j, m in enumerate(margins)])


class TestInPlaceBits:
    """The sampling paths that write over their own arrays give the bits of
    the expressions that built a new array."""

    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(1)",
                                     "logistic(1.2)", "logistic(2)", "logistic(5)"])
    def test_tail_uniforms(self, tag):
        model = parse_model(tag, 2)
        got = draw_tail_uniforms(model, 5_000, substream(3, "tail"))
        want = 1.0 - draw_copula_sample(model, 5_000, substream(3, "tail"))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("margins", [("uniform", "uniform"),
                                         ("exponential", "pareto(2)"),
                                         ("pareto(0.5)", "exponential")])
    def test_draw_sample(self, margins):
        model = logistic(2.0, 2)
        copula = draw_copula_sample(model, 5_000, substream(4, "sample"))
        via_apply = apply_margins(Sample(copula), margins).values
        got = draw_sample(model, 5_000, 4, margins).values
        assert got.tobytes() == via_apply.tobytes()
        assert via_apply.tobytes() == column_stack_margins(copula, margins).tobytes()

    def test_apply_margins_leaves_its_input(self):
        s = draw_sample(logistic(2.0, 2), 1_000, 5)
        before = s.values.copy()
        out = apply_margins(s, ("exponential", "pareto(2)"))
        assert s.values.tobytes() == before.tobytes()
        assert not np.shares_memory(out.values, s.values)


class TestSampleMemory:
    """Each draw holds its sample once: n = 200,000 rows, d = 2."""

    N = 200_000

    @pytest.mark.parametrize("tag", ["independence", "comonotone", "logistic(2)"])
    def test_tail_uniforms_add_nothing_to_the_draw(self, tag):
        model = parse_model(tag, 2)
        traced_peak(draw_tail_uniforms, model, 10, substream(1, "warm"))
        copula, _ = traced_peak(draw_copula_sample, model, self.N, substream(1, "m"))
        tail, _ = traced_peak(draw_tail_uniforms, model, self.N, substream(1, "m"))
        assert tail <= copula + (64 << 10)

    # the draw's peak in units of 8 N bytes: the uniforms; comonotone's column
    # and its d copies; S beside E, or V, W and sin(V / 2) at theta = 2, as W
    # goes before E is drawn
    @pytest.mark.parametrize("tag,d,words", [("independence", 2, 2), ("comonotone", 3, 4),
                                            ("logistic(2)", 2, 3), ("logistic(2)", 3, 4)])
    def test_a_draw_holds_only_its_words(self, tag, d, words):
        model = parse_model(tag, d)
        traced_peak(draw_copula_sample, model, 10, substream(1, "warm"))
        peak, _ = traced_peak(draw_copula_sample, model, self.N, substream(1, "m"))
        assert peak <= words * 8 * self.N + (64 << 10)

    def test_margins_add_one_column_to_the_draw(self):
        margins = ("uniform", "pareto(2)")
        model = logistic(2.0, 2)
        traced_peak(draw_sample, model, 10, 6, margins)
        copula, _ = traced_peak(draw_copula_sample, model, self.N, substream(6, "sample"))
        sample, _ = traced_peak(draw_sample, model, self.N, 6, margins)
        assert sample < copula + 8 * self.N + (256 << 10)


class TestDrawSampleInputs:
    def test_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            draw_sample(independence(2), 0, 1)
        with pytest.raises(ConfigurationError):
            draw_sample(independence(0), 10, 1)

    def test_margin_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            draw_sample(independence(3), 10, 1, margins=("uniform", "exponential"))

    @pytest.mark.parametrize("margins,message", [
        ("cauchy", "unsupported margin tag 'cauchy'"),
        (("uniform", "exponential"), "2 margin tags for dimension 3"),
        ("uniform", None),
    ], ids=["bad-tag", "bad-count", "good"])
    def test_margins_are_read_before_any_draw(self, monkeypatch, margins, message):
        draws = []
        kernel = samplers.draw_copula_blocks

        def counted(*args, **kwargs):
            draws.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(samplers, "draw_copula_blocks", counted)
        if message is None:
            draw_sample(independence(3), 10, 1, margins)
            assert len(draws) == 1  # the counter sees the draw it guards
            return
        with pytest.raises(ConfigurationError) as err:
            draw_sample(independence(3), 10, 1, margins)
        assert str(err.value) == message
        assert draws == []
