"""Set-family machinery: masses, bounds, complexity estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailvc import concentration
from tailvc.concentration import (
    BoundParams,
    RectClassSpec,
    bound_comparison,
    classical_vc_bound,
    low_mass_vc_bound,
    pair_separation_complexity,
    relative_rademacher,
    simplified_vc_bound,
    sup_empirical_deviation,
    union_mass,
)
from tailvc.errors import ConfigurationError, PreconditionError, TailvcError
from tailvc.gridscan import declared_axis, sup_signed_count
from tailvc.models import parse_model
from tailvc.rng import substream
from tailvc.samplers import draw_tail_uniforms
from traced_memory import traced_peak


class TestUnionMass:
    def test_comonotone_is_box_edge(self):
        cls = RectClassSpec(d=3, k=50, n=1000, T=2.0)
        assert union_mass(cls, "comonotone") == pytest.approx(0.1, abs=1e-15)

    def test_independence_two_dims(self):
        cls = RectClassSpec(d=2, k=100, n=2000, T=2.0)  # edge 0.1
        assert union_mass(cls, "independence") == pytest.approx(0.19)

    def test_logistic_between_single_and_sum(self):
        cls = RectClassSpec(d=2, k=100, n=2000, T=2.0)
        p = union_mass(cls, "logistic(2)")
        assert 0.1 <= p <= 0.2
        # frequency cross-check
        model = parse_model("logistic(2)", 2)
        z = draw_tail_uniforms(model, 1_000_000, substream(3, "mass-mc"))
        freq = np.mean(np.any(z < 0.1, axis=1))
        stderr = math.sqrt(freq * (1 - freq) / z.shape[0])
        assert abs(freq - p) < 4 * stderr

    def test_subadditive_cap(self):
        for tag in ("independence", "comonotone", "logistic(4)"):
            cls = RectClassSpec(d=2, k=10, n=1000, T=3.0)
            assert union_mass(cls, tag) <= cls.d * cls.T * cls.scale + 1e-12

    def test_cap_violation_is_an_internal_error(self, monkeypatch):
        # a model returning more mass than subadditivity allows is a fault;
        # the check must survive python -O, so it is not an assert
        import tailvc.concentration as conc

        monkeypatch.setattr(conc, "tail_union_prob", lambda model, t: 0.5)
        cls = RectClassSpec(d=2, k=10, n=1000, T=2.0)  # cap d (k/n) T = 0.04
        with pytest.raises(TailvcError) as err:
            union_mass(cls, "independence")
        assert type(err.value) is TailvcError
        assert err.value.exit_code == 5
        assert "exceeds its subadditivity cap" in str(err.value)

    def test_edge_above_one_rejected(self):
        cls = RectClassSpec(d=2, k=600, n=1000, T=2.0)
        with pytest.raises(PreconditionError):
            union_mass(cls, "independence")


class TestBounds:
    def test_reference_values(self):
        params = BoundParams(n=10_000, V=2, p=0.01, delta=0.05)
        assert low_mass_vc_bound(params) == pytest.approx(
            0.0027473200580362157, rel=1e-12
        )
        assert simplified_vc_bound(params) == pytest.approx(
            0.0024477468306808164, rel=1e-12
        )
        assert classical_vc_bound(params) == pytest.approx(
            0.00996046331826512, rel=1e-12
        )

    def test_zero_mass_degenerates_to_second_term(self):
        params = BoundParams(n=100, V=3, p=0.0, delta=0.1)
        assert low_mass_vc_bound(params) == pytest.approx(
            math.log(10) / 100, rel=1e-12
        )

    def test_delta_near_one_vanishes(self):
        params = BoundParams(n=100, V=3, p=0.2, delta=1 - 1e-12)
        assert low_mass_vc_bound(params) < 1e-6

    @pytest.mark.parametrize("C", [math.nan, math.inf, -0.5])
    def test_constant_must_be_finite_and_nonnegative(self, C):
        with pytest.raises(ConfigurationError, match="C must be finite and >= 0"):
            BoundParams(n=100, V=2, p=0.01, delta=0.05, C=C)

    def test_simplified_guard(self):
        # delta below exp(-n p) is out of regime
        with pytest.raises(PreconditionError):
            simplified_vc_bound(BoundParams(n=100, V=2, p=0.001, delta=0.05))

    def test_simplified_at_regime_boundary(self):
        n, p, V = 400, 0.05, 2
        delta = math.exp(-n * p)
        params = BoundParams(n=n, V=V, p=p, delta=delta)
        assert simplified_vc_bound(params) == pytest.approx(
            p * math.sqrt(V), rel=1e-12
        )

    def test_classical_needs_n_at_least_v(self):
        with pytest.raises(PreconditionError):
            classical_vc_bound(BoundParams(n=2, V=3, p=0.5, delta=0.1))

    def test_classical_substitution_small_case(self):
        p, delta = 0.3, 0.2
        got = classical_vc_bound(BoundParams(n=3, V=1, p=p, delta=delta))
        want = 2 * math.sqrt(p) * math.sqrt(
            (math.log(6 * math.e) + math.log(4 / delta)) / 3
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_simplified_below_full_in_regime(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(10, 10_000))
            p = float(rng.uniform(0.01, 1.0))
            delta = float(rng.uniform(max(math.exp(-n * p), 1e-12), 0.999))
            params = BoundParams(n=n, V=int(rng.integers(1, 6)), p=p, delta=delta)
            assert simplified_vc_bound(params) <= low_mass_vc_bound(params) + 1e-15

    def test_comparison_ratio_grows_like_sqrt_log_n(self):
        rows = bound_comparison([100, 1000, 10_000, 100_000], V=2, p=0.01, delta=0.05)
        ratios = [r["ratio"] for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        # sqrt(log n)-normalized growth settles once n is large
        scaled = [r["ratio"] / math.sqrt(math.log(r["n"])) for r in rows]
        assert scaled[-1] / scaled[-2] < 1.10


class TestSupEmpiricalDeviation:
    def test_all_points_outside_union(self):
        cls = RectClassSpec(d=2, k=10, n=100, T=2.0)
        z = np.full((100, 2), 0.9) + np.arange(100)[:, None] * 1e-4
        dev = sup_empirical_deviation(z, cls, "independence")
        assert dev.value == pytest.approx(union_mass(cls, "independence"), abs=1e-15)
        assert dev.discretization_bound == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_rejected(self, bad):
        cls = RectClassSpec(d=2, k=2, n=5, T=1.0)  # edge 0.4
        z = np.array([[0.1, 0.2], [0.3, 0.05], [0.5, 0.5]])
        assert sup_empirical_deviation(z, cls, "independence").value == (
            0.5216666666666666)
        z[2, 0] = bad
        with pytest.raises(PreconditionError, match="points must be finite"):
            sup_empirical_deviation(z, cls, "independence")

    def test_single_point_candidate_scan(self):
        z = np.array([[0.1]])
        cls = RectClassSpec(d=1, k=1, n=1, T=0.3)
        dev = sup_empirical_deviation(z, cls, "independence")
        by_hand = max(abs(0.0 - 0.1), abs(1.0 - 0.1), abs(1.0 - 0.3))
        assert dev.value == by_hand

    def test_matches_dense_grid_comonotone(self):
        # documented cross-check: dense scan with breakpoint enrichment
        cls = RectClassSpec(d=2, k=50, n=1000, T=2.0)
        model = parse_model("comonotone", 2)
        z = draw_tail_uniforms(model, 1000, substream(11, "dense"))
        exact = sup_empirical_deviation(z, cls, model).value
        s = cls.scale
        bp = z[:, 0][z[:, 0] <= s * cls.T]
        g = np.unique(
            np.concatenate(
                [np.linspace(0, s * cls.T, 2001), bp, np.minimum(bp + 1e-9, s * cls.T)]
            )
        )
        cnt = np.any(z[None, :, :] <= g[:, None, None], axis=2).mean(axis=1)
        brute = np.abs(cnt - g).max()  # diagonal thresholds dominate here
        assert exact >= brute - 1e-12
        assert exact <= brute + 1e-9

    def test_dimension_three_needs_grid(self):
        cls = RectClassSpec(d=3, k=10, n=100, T=1.0)
        z = draw_tail_uniforms(parse_model("independence", 3), 100,
                               substream(1, "d3"))
        with pytest.raises(ConfigurationError):
            sup_empirical_deviation(z, cls, "independence")
        est = sup_empirical_deviation(z, cls, "independence", grid_resolution=12)
        assert est.discretization_bound > 0


class TestRelativeRademacher:
    def test_needs_two_trials(self):
        cls = RectClassSpec(d=2, k=10, n=100, T=1.0)
        with pytest.raises(ConfigurationError):
            relative_rademacher("independence", cls, 1, 0)

    def test_single_observation_normalizes_to_one(self):
        cls = RectClassSpec(d=2, k=1, n=1, T=0.3)
        est = relative_rademacher("independence", cls, 3000, 11)
        assert est.mean == pytest.approx(1.0, abs=5 * est.stderr + 1e-9)

    def test_values_recorded_per_trial(self):
        cls = RectClassSpec(d=2, k=10, n=200, T=1.0)
        est = relative_rademacher("independence", cls, 5, 3)
        assert len(est.values) == 5
        assert est.mean == pytest.approx(np.mean(est.values))

    def test_dimension_three_needs_grid(self):
        cls = RectClassSpec(d=3, k=10, n=100, T=1.0)
        with pytest.raises(ConfigurationError):
            relative_rademacher("independence", cls, 5, 0)
        est = relative_rademacher("independence", cls, 5, 0, grid_resolution=8)
        assert est.trials == 5

    def test_scaling_band_small(self):
        # sqrt(n p)-normalized mean stays in a tight band across a decade
        vals = []
        for n in (1000, 10_000):
            cls = RectClassSpec(d=2, k=n // 100, n=n, T=2.0)
            est = relative_rademacher("independence", cls, 60, 123)
            vals.append(est.mean * math.sqrt(n * est.p))
        assert max(vals) / min(vals) < 2.0

    def test_trials_hold_one_sample_at_a_time(self):
        # z (n x 2 floats) and the int64 signs of one trial: 4.8 MB at this n;
        # a trial's arrays must be gone before the next one draws
        n = 200_000
        cls = RectClassSpec(d=2, k=2000, n=n, T=2.0)
        relative_rademacher("uniform", RectClassSpec(d=2, k=2, n=200, T=2.0), 2, 1)
        peak, est = traced_peak(relative_rademacher, "uniform", cls, 4, 1)
        assert est.trials == 4
        assert peak < 2 * (n * 2 * 8 + n * 8)


class TestPairSeparation:
    def test_tiny_region_rarely_splits(self):
        cls = RectClassSpec(d=2, k=1, n=100_000, T=1.0)  # edge 1e-5
        est = pair_separation_complexity("independence", cls, 20_000, 6)
        assert est.value <= 3 * est.p

    def test_upper_bound_twice_mass(self):
        for tag in ("independence", "comonotone", "logistic(2)"):
            for d in (1, 2):
                cls = RectClassSpec(d=d, k=100, n=10_000, T=2.0)
                est = pair_separation_complexity(tag, cls, 50_000, 17)
                assert est.value <= 2 * est.p + 3 * est.stderr

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_split_mask_matches_the_row_reductions(self, monkeypatch, d):
        # 5000 pairs are one block of the draw, so one mask holds every pair
        masks = []
        real = concentration._pair_splits
        monkeypatch.setattr(concentration, "_pair_splits",
                            lambda *a: masks.append(real(*a)) or masks[-1])
        cls = RectClassSpec(d=d, k=100, n=1000, T=2.0)
        est = pair_separation_complexity("logistic(2)", cls, 5000, 21)
        model = parse_model("logistic(2)", d)
        rng = substream(21, "pair-separation")
        z = draw_tail_uniforms(model, 5000, rng)
        z2 = draw_tail_uniforms(model, 5000, rng)
        edge = cls.box_edge
        want = np.any((z < z2) & (z < edge), axis=1) | np.any(
            (z2 < z) & (z2 < edge), axis=1)
        assert len(masks) == 1
        assert masks[0].dtype == bool and masks[0].tolist() == want.tolist()
        assert 0 < want.sum() < want.size
        assert est.value == float(want.mean())

    def test_matches_closed_form(self):
        # splitting happens exactly when either draw lands in the union
        cls = RectClassSpec(d=2, k=100, n=2000, T=2.0)
        est = pair_separation_complexity("independence", cls, 200_000, 8)
        q_exact = 2 * est.p - est.p**2
        assert est.value == pytest.approx(q_exact, abs=4 * est.stderr)


class TestDeviationCoverage:
    def test_calibrated_bound_covers_fresh_trials(self):
        # calibrate the constant on a pilot seed, freeze it, then check that
        # at least 1 - delta of 500 fresh trials sit under the bound
        cls = RectClassSpec(d=2, k=40, n=2000, T=2.0)
        model = parse_model("independence", 2)
        p = union_mass(cls, model)
        delta = 0.05
        params = BoundParams(n=cls.n, V=cls.d, p=p, delta=delta)
        unit = low_mass_vc_bound(params)  # C = 1 reference shape

        def sup_devs(seed, trials):
            out = []
            for t in range(trials):
                z = draw_tail_uniforms(model, cls.n, substream(seed, "cov", t))
                out.append(sup_empirical_deviation(z, cls, model).value)
            return np.array(out)

        # freeze the constant at the 1 - delta/2 pilot quantile: calibrating
        # at exactly 1 - delta would leave fresh coverage straddling the
        # target, since the pilot quantile is itself a noisy estimate
        pilot = sup_devs(1301, 1000)
        c_star = float(np.quantile(pilot / unit, 1 - delta / 2))
        fresh = sup_devs(1302, 500)
        coverage = float(np.mean(fresh <= c_star * unit * (1 + 1e-12)))
        assert coverage >= 1 - delta


def far_rows(z, edge):
    """Rows finite and at or above ``edge`` on every axis: in no set of the box."""
    return np.all((z >= edge) & np.isfinite(z), axis=1)


def whole_trial(model, cls, seed, t, axes):
    """A rademacher trial on its whole draw and every sign, as it was written
    before the trials kept only the rows the box reaches."""
    rng = substream(seed, "rademacher", t)
    z = draw_tail_uniforms(model, cls.n, rng)
    signs = rng.integers(0, 2, size=cls.n) * 2 - 1
    return sup_signed_count(z, signs, np.full(cls.d, cls.box_edge), axes=axes)


class TestKeptRows:
    """Dropping the rows at or above the edge on every axis moves no number."""

    EDGE = 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 3),
        # coordinates on a few levels: ties, points on the edge (0.5) and above
        cells=st.lists(st.tuples(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5,
                                                           0.75, 1.0]),
                                          min_size=3, max_size=3),
                                 st.sampled_from([-1, 1])),
                       max_size=25),
        declared=st.one_of(st.none(), st.integers(2, 9)),
        balance=st.booleans(),
    )
    def test_sup_signed_count_on_the_kept_rows(self, d, cells, declared, balance):
        if d == 3 and declared is None:
            declared = 5  # d >= 3 scans a declared grid only
        if balance:  # signs that sum to zero
            cells = [(c, (-1) ** i) for i, (c, _) in enumerate(cells[:len(cells) & ~1])]
        z = np.array([c[:d] for c, _ in cells], dtype=float).reshape(-1, d)
        signs = np.array([s for _, s in cells], dtype=np.int64)
        box = np.full(d, self.EDGE)
        axes = None if declared is None else [declared_axis(self.EDGE, declared)] * d
        kept = ~far_rows(z, self.EDGE)
        whole = sup_signed_count(z, signs, box, axes=axes)
        assert sup_signed_count(z[kept], signs[kept], box, axes=axes) == whole

    def test_no_row_kept(self):
        z = np.array([[0.5, 0.9], [0.7, 0.5], [1.0, 1.0]])
        signs = np.array([1, 1, -1])
        assert not (~far_rows(z, 0.5)).any()
        box = np.full(2, 0.5)
        assert sup_signed_count(z, signs, box) == 0.0
        assert sup_signed_count(z[:0], signs[:0], box) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 3),
        pairs=st.lists(st.tuples(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=3,
                     max_size=3),
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=3,
                     max_size=3)), max_size=30),
    )
    def test_kept_row_pair_splits(self, d, pairs):
        z = np.array([a[:d] for a, _ in pairs], dtype=float).reshape(-1, d)
        z2 = np.array([b[:d] for _, b in pairs], dtype=float).reshape(-1, d)
        edge = self.EDGE
        # the formula on every pair
        want = np.any((z < z2) & (z < edge), axis=1) | np.any(
            (z2 < z) & (z2 < edge), axis=1)
        rows = np.flatnonzero(~far_rows(z, edge))
        got = concentration._pair_splits(z[rows], rows, z2, edge)
        assert got.tolist() == want.tolist()

    MODELS = ["independence", "comonotone", "logistic(1)", "logistic(2)",
              "logistic(5)"]

    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("tag", MODELS)
    def test_trial_is_the_whole_draws(self, monkeypatch, tag, block):
        n = 600
        if block is not None:
            monkeypatch.setattr(concentration, "ROW_BLOCK", block)
        for d, k, T, declared in ((1, 6, 2.0, None), (2, 6, 2.0, None),
                                  (2, 30, 2.0, 6), (3, 6, 3.0, 5)):
            model = parse_model(tag, d)
            cls = RectClassSpec(d=d, k=k, n=n, T=T)
            axes = None if declared is None else [declared_axis(cls.box_edge,
                                                                declared)] * d
            for t in range(3):
                got = concentration._rademacher_trial(model, cls, 4, t, axes)
                assert got == whole_trial(model, cls, 4, t, axes)

    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("tag", MODELS)
    def test_pair_estimate_is_the_whole_draws(self, monkeypatch, tag, block):
        if block is not None:
            monkeypatch.setattr(concentration, "ROW_BLOCK", block)
        for d in (1, 2, 3):
            cls = RectClassSpec(d=d, k=40, n=1000, T=2.0)
            est = pair_separation_complexity(tag, cls, 700, 12)
            rng = substream(12, "pair-separation")
            model = parse_model(tag, d)
            z, z2 = (draw_tail_uniforms(model, 700, rng) for _ in range(2))
            edge = cls.box_edge
            want = np.any((z < z2) & (z < edge), axis=1) | np.any(
                (z2 < z) & (z2 < edge), axis=1)
            assert est.value == float(want.mean())

    def test_a_nan_in_the_draw_fails_as_before(self, monkeypatch):
        # a NaN row is never dropped, so the scan's finiteness check sees it
        real = concentration.draw_copula_blocks

        def with_nan(*args):
            for i, x in enumerate(real(*args)):
                if i == 0:
                    x[0, 0] = np.nan
                yield x

        monkeypatch.setattr(concentration, "draw_copula_blocks", with_nan)
        cls = RectClassSpec(d=2, k=10, n=500, T=2.0)
        with pytest.raises(PreconditionError, match="points must be finite"):
            relative_rademacher("uniform", cls, 2, 1)

    def test_traced_peaks(self):
        # the benchmark's rademacher-dense sizes; the whole draws traced 5.5
        # and 3.5 MiB
        cls = RectClassSpec(d=2, k=2000, n=200_000, T=2.0)
        small = RectClassSpec(d=2, k=20, n=2000, T=2.0)
        relative_rademacher("uniform", small, 2, 1)
        pair_separation_complexity("uniform", small, 100, 1)
        peak, _ = traced_peak(relative_rademacher, "uniform", cls, 2, 1)
        assert peak < 2 << 20
        peak, _ = traced_peak(pair_separation_complexity, "uniform", cls, 100_000, 1)
        assert peak < 2 << 20
