"""Conditional risk on rare regions: estimators, oracles, decomposition."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draw_guard import forbid_draws

import tailvc.classify as classify_mod
from tailvc.classify import (
    AxisClassifier,
    ClassifierFamily,
    ExplicitRegion,
    LabeledGenerator,
    LabeledSample,
    QuantileRegion,
    _family_empirical_risks,
    _family_true_risks,
    axis_threshold_family,
    empirical_conditional_risk,
    erm,
    feature_norm,
    rate_experiment_classification,
    risk_decomposition_check,
    sup_norm_tail_quantile,
    true_conditional_risk,
)
from tailvc.errors import ConfigurationError, DataError, PreconditionError
from tailvc.models import independence
from tailvc.rng import substream


def parse_members(text):
    """The members ``ClassifierFamily.serialize`` wrote: one
    ``coord,threshold,sign`` line each."""
    rows = (line.split(",") for line in text.splitlines())
    return tuple(AxisClassifier(int(coord), float(thr), int(sign))
                 for coord, thr, sign in rows)


def toy_generator(noise=0.1, d=2):
    return LabeledGenerator(
        feature_model=independence(d),
        rule=AxisClassifier(coord=0, threshold=0.5),
        noise=noise,
    )


def fixed_sample(n=10, d=2, seed=0, labeler=None, force_labels=None):
    rng = substream(seed, "fixed")
    x = rng.random((n, d))
    if force_labels is not None:
        y = force_labels
    else:
        y = (labeler or AxisClassifier(0, 0.5)).predict(x)
    return LabeledSample(features=x, labels=y)


class TestEmpiricalRisk:
    def test_always_correct_is_zero(self):
        g = AxisClassifier(0, 0.5)
        data = fixed_sample(n=50, labeler=g)
        region = QuantileRegion(alpha=0.2, norm="linf")
        assert empirical_conditional_risk(data, g, region) == 0.0

    def test_always_wrong_strict_threshold_count(self):
        g = AxisClassifier(0, 0.5)
        data = fixed_sample(n=10, labeler=g)
        flipped = LabeledSample(features=data.features, labels=-data.labels)
        region = QuantileRegion(alpha=0.3, norm="linf")
        # floor(10 * 0.3) = 3 tail rows, the threshold row itself excluded
        assert empirical_conditional_risk(flipped, g, region) == pytest.approx(
            2 / 3
        )

    def test_whole_space_region_reduces_to_error_rate(self):
        g = AxisClassifier(0, 0.5)
        data = fixed_sample(n=40, labeler=g)
        flipped = LabeledSample(features=data.features, labels=-data.labels)
        region = ExplicitRegion(norm="linf", threshold=0.0, q=1.0)
        assert empirical_conditional_risk(flipped, g, region) == 1.0

    def test_norm_tie_rejected(self):
        x = np.array([[0.5, 0.1], [0.5, 0.2], [0.9, 0.3], [0.3, 0.25]])
        data = LabeledSample(features=x, labels=np.array([1, 1, -1, -1]))
        with pytest.raises(DataError):
            empirical_conditional_risk(
                data, AxisClassifier(0, 0.5), QuantileRegion(alpha=0.5, norm="linf")
            )

    def test_empty_tail_rejected(self):
        data = fixed_sample(n=5)
        with pytest.raises(PreconditionError):
            empirical_conditional_risk(
                data, AxisClassifier(0, 0.5), QuantileRegion(alpha=0.1, norm="l2")
            )

    def test_value_in_unit_interval(self):
        rng = substream(1, "unit")
        for t in range(20):
            data = toy_generator().sample(50, substream(2, "u", t))
            g = AxisClassifier(int(rng.integers(0, 2)), float(rng.uniform(0, 1)))
            v = empirical_conditional_risk(
                data, g, QuantileRegion(alpha=0.25, norm="l2")
            )
            assert 0.0 <= v <= 1.0


class TestTrueRisk:
    def test_bayes_rule_of_noiseless_generator(self):
        gen = toy_generator(noise=0.0)
        res = true_conditional_risk(
            gen, gen.rule, QuantileRegion(alpha=0.2, norm="linf")
        )
        assert res.method == "analytic"
        assert res.value == 0.0

    def test_fair_coin_labels_give_half(self):
        gen = toy_generator(noise=0.5)
        for g in (AxisClassifier(0, 0.3), AxisClassifier(1, 0.8)):
            res = true_conditional_risk(
                gen, g, QuantileRegion(alpha=0.3, norm="linf")
            )
            assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_true_rule_risk_equals_noise(self):
        gen = toy_generator(noise=0.1)
        res = true_conditional_risk(
            gen, gen.rule, QuantileRegion(alpha=0.2, norm="linf")
        )
        assert res.value == pytest.approx(0.1, abs=1e-12)

    def test_reference_path_agrees_with_independent_estimate(self):
        gen = toy_generator(noise=0.1)
        g = AxisClassifier(1, 0.7)
        assert (
            true_conditional_risk(gen, g, QuantileRegion(alpha=0.2, norm="linf"))
            .method
            == "analytic"
        )
        region_l2 = QuantileRegion(alpha=0.2, norm="l2")
        ref = true_conditional_risk(
            gen, g, region_l2, reference_draws=400_000, reference_seed=5
        )
        assert ref.method == "reference"
        assert ref.stderr > 0
        # independent estimate with its own seed and true-quantile plug-in
        data = gen.sample(1_000_000, substream(1234, "l2-check"))
        norms = feature_norm(data.features, "l2")
        t = np.quantile(norms, 0.8)
        emp = ((data.labels != g.predict(data.features)) & (norms > t)).mean() / 0.2
        indep_se = np.sqrt(emp * 0.2 * (1 - emp * 0.2) / 1_000_000) / 0.2
        assert abs(ref.value - emp) < 4 * (ref.stderr + indep_se)

    def test_montecarlo_validates_analytic_joint(self):
        gen = toy_generator(noise=0.15)
        g = AxisClassifier(1, 0.6)
        region = QuantileRegion(alpha=0.25, norm="linf")
        analytic = true_conditional_risk(gen, g, region).value
        rng = substream(77, "mc-risk")
        data = gen.sample(400_000, rng)
        t_alpha = sup_norm_tail_quantile(0.25, 2)
        tail = feature_norm(data.features, "linf") > t_alpha
        emp = ((data.labels != g.predict(data.features)) & tail).mean() / 0.25
        assert emp == pytest.approx(analytic, abs=0.01)


class TestErm:
    def test_perfect_member_wins(self):
        gen = toy_generator(noise=0.0)
        data = gen.sample(500, substream(3, "erm"))
        family = ClassifierFamily(
            members=(AxisClassifier(1, 0.9), gen.rule, AxisClassifier(0, 0.05)),
        )
        region = QuantileRegion(alpha=0.2, norm="linf")
        assert erm(data, family, region) == 1

    def test_tie_breaks_to_lowest_index(self):
        g = AxisClassifier(0, 0.5)
        family = ClassifierFamily(members=(g, AxisClassifier(0, 0.5)))
        data = toy_generator().sample(100, substream(4, "tie"))
        region = QuantileRegion(alpha=0.2, norm="linf")
        assert erm(data, family, region) == 0

    def test_matches_exhaustive_argmin(self):
        gen = toy_generator(noise=0.2)
        data = gen.sample(400, substream(5, "argmin"))
        family = axis_threshold_family(2, 10)
        region = QuantileRegion(alpha=0.25, norm="linf")
        risks = [
            empirical_conditional_risk(data, g, region) for g in family.members
        ]
        assert erm(data, family, region) == int(np.argmin(risks))

    def test_serialization_roundtrip(self):
        family = axis_threshold_family(2, 3)
        text = family.serialize()
        assert parse_members(text) == family.members


class TestRateExperiment:
    def test_single_member_family_matches_direct(self):
        gen = toy_generator(noise=0.1)
        g = AxisClassifier(0, 0.5)
        family = ClassifierFamily(members=(g,))
        schedule = [(1000, 0.1)]
        rep = rate_experiment_classification(gen, family, schedule, 5, seed=6)
        region = QuantileRegion(alpha=0.1, norm="linf")
        truth = true_conditional_risk(gen, g, region).value
        data = gen.sample(1000, substream(6, "class-rate", 100, 0))
        direct = abs(empirical_conditional_risk(data, g, region) - truth)
        assert rep.records[0].sup_deviation == pytest.approx(direct, abs=1e-12)

    def test_low_budget_points_keep_their_records(self):
        # n alpha = 4 < 10: every trial is still run and recorded
        gen = toy_generator()
        family = axis_threshold_family(2, 2)
        rep = rate_experiment_classification(
            gen, family, [(40, 0.1)], trials=2, seed=7
        )
        assert [(r.n, r.alpha, r.trial) for r in rep.records] == [(40, 0.1, 0), (40, 0.1, 1)]
        assert all(math.isfinite(r.sup_deviation) for r in rep.records)

    @pytest.mark.parametrize("schedule,trials,message", [
        ([(400, 0.1)], 0, "trials must be >= 1, got 0"),
        ([(400, 0.1)], -1, "trials must be >= 1, got -1"),
        ([(400, 0.1), (400, 0.0)], 2, "alpha must lie in (0, 1), got 0.0"),
        ([(400, 0.1), (400, math.nan)], 2, "alpha must lie in (0, 1), got nan"),
    ])
    def test_refuses_before_any_draw(self, monkeypatch, schedule, trials, message):
        def fail(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(LabeledGenerator, "sample", fail)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rate_experiment_classification(
                toy_generator(), axis_threshold_family(2, 2), schedule, trials, seed=7)

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("schedule,error,message", [
        ([(1000, 0.1), (5, 0.1)], PreconditionError,
         "floor(n alpha) = 0 < 1; no tail rows at n=5, alpha=0.1"),
        ([(1000, 0.1), (0, 0.1)], ConfigurationError, "sample size must be >= 1, got 0"),
    ], ids=["empty-tail", "no-rows"])
    def test_refuses_every_point_before_any_draw(self, monkeypatch, norm, schedule,
                                                 error, message):
        # l2 has no analytic truth: its reference sample is a draw too
        drawn = forbid_draws(monkeypatch)
        with pytest.raises(error, match=re.escape(message)):
            rate_experiment_classification(
                toy_generator(), axis_threshold_family(2, 2), schedule, 3, seed=1,
                norm=norm)
        assert drawn == []

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_threshold_must_be_finite(self, threshold):
        with pytest.raises(ConfigurationError, match="threshold must be finite"):
            AxisClassifier(coord=0, threshold=threshold)
        with pytest.raises(ConfigurationError, match="threshold must be finite"):
            parse_members(f"0,{threshold!r},1\n")

    def test_naive_scaling_drifts_when_alpha_shrinks(self):
        # with alpha_n = n^(-0.6), sqrt(n)-normalized deviations blow up
        # while sqrt(n alpha)-normalized ones stay flat
        gen = toy_generator(noise=0.1)
        family = axis_threshold_family(2, 10)
        naive, proper = [], []
        for n in (1000, 8000, 64_000):
            alpha = n ** (-0.6)
            schedule = [(n, alpha)]
            rep = rate_experiment_classification(
                gen, family, schedule, trials=30, seed=8
            )
            med = rep.medians[(n, alpha)]
            naive.append(med * np.sqrt(n))
            proper.append(med * np.sqrt(n * alpha))
        assert naive[0] < naive[1] < naive[2]
        assert max(proper) / min(proper) < 2.5


class TestDecomposition:
    def test_holds_on_seeded_trials(self):
        gen = toy_generator(noise=0.1)
        family = ClassifierFamily(
            members=(AxisClassifier(0, 0.5), AxisClassifier(1, 0.7))
        )
        region = QuantileRegion(alpha=0.1, norm="linf")
        for t in range(10):
            data = gen.sample(1000, substream(9, "dec", t))
            check = risk_decomposition_check(data, family, region, gen)
            assert check.holds

    def test_requires_analytic_oracle(self):
        gen = toy_generator()
        family = ClassifierFamily(members=(AxisClassifier(0, 0.5),))
        region = QuantileRegion(alpha=0.1, norm="l2")
        data = gen.sample(100, substream(10, "no-oracle"))
        with pytest.raises(ConfigurationError):
            risk_decomposition_check(data, family, region, gen)


class TestRegretAndRegionQ:
    def test_erm_regret_below_twice_sup_deviation(self):
        gen = toy_generator(noise=0.15)
        family = axis_threshold_family(2, 10)
        region = QuantileRegion(alpha=0.2, norm="linf")
        truths = np.array(
            [true_conditional_risk(gen, g, region).value for g in family.members]
        )
        for t in range(10):
            data = gen.sample(1000, substream(11, "regret", t))
            emps = np.array(
                [empirical_conditional_risk(data, g, region) for g in family.members]
            )
            chosen = erm(data, family, region)
            regret = truths[chosen] - truths.min()
            sup_dev = np.abs(emps - truths).max()
            assert regret <= 2 * sup_dev + 1e-12

    def test_fixed_region_scaling_band(self):
        # sqrt(q n)-normalized sup deviation stays within a factor-2 band
        gen = toy_generator(noise=0.1)
        family = axis_threshold_family(2, 10)
        t0 = 0.9
        q = 1.0 - t0**2
        region = ExplicitRegion(norm="linf", threshold=t0, q=q)
        truths = np.array(
            [true_conditional_risk(gen, g, region).value for g in family.members]
        )
        meds = []
        for n in (1000, 10_000, 100_000):
            vals = []
            for t in range(40):
                data = gen.sample(n, substream(12, "regionq", n, t))
                emps = np.array(
                    [
                        empirical_conditional_risk(data, g, region)
                        for g in family.members
                    ]
                )
                vals.append(np.abs(emps - truths).max())
            meds.append(np.median(vals) * np.sqrt(q * n))
        assert max(meds) / min(meds) < 2.0


def oracle_risk(data, g, region):
    """The per-member estimator as written before the family kernel."""
    x = np.asarray(data.features, dtype=float)
    predicted = g.sign * np.where(x[:, g.coord] >= g.threshold, 1, -1)
    mistakes = data.labels != predicted
    if isinstance(region, ExplicitRegion):
        inside = feature_norm(data.features, region.norm) > region.threshold
        return float((mistakes & inside).sum() / (data.n * region.q))
    n = data.n
    m = int(math.floor(n * region.alpha))
    if m < 1:
        raise PreconditionError(
            f"floor(n alpha) = {m} < 1; no tail rows at n={n}, alpha={region.alpha}"
        )
    norms = feature_norm(data.features, region.norm)
    if np.unique(norms).size != n:
        raise DataError("norm ties at the empirical threshold; jitter the data")
    thr = np.partition(norms, n - m)[n - m]
    sel = norms > thr
    return float((mistakes & sel).sum() / (n * region.alpha))


@st.composite
def family_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    y = rng.choice([-1, 1], size=n)
    data = LabeledSample(features=x, labels=y)
    size = draw(st.integers(1, 8))
    members = []
    for _ in range(size):
        coord = draw(st.integers(0, d - 1))
        # thresholds on a data value exercise the >= side of the rule
        on_row = draw(st.booleans())
        thr = float(x[draw(st.integers(0, n - 1)), coord]) if on_row else draw(
            st.floats(-1.0, 1.0))
        members.append(AxisClassifier(coord, thr, draw(st.sampled_from([-1, 1]))))
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    if draw(st.booleans()):
        region = QuantileRegion(alpha=draw(st.floats(0.01, 0.99)), norm=norm)
    else:
        region = ExplicitRegion(norm=norm, threshold=draw(st.floats(0.0, 2.0)),
                                q=draw(st.floats(0.01, 1.0)))
    return data, tuple(members), region


class TestFamilyKernel:
    @settings(max_examples=300, deadline=None)
    @given(family_cases())
    def test_matches_per_member_oracle(self, case):
        data, members, region = case
        family = ClassifierFamily(members=members)
        try:
            expected = [oracle_risk(data, g, region) for g in members]
        except (DataError, PreconditionError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _family_empirical_risks(data, members, region)
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                erm(data, family, region)
            return
        family_risks = _family_empirical_risks(data, members, region)
        assert family_risks.tolist() == expected  # equal floats, not approx
        assert [empirical_conditional_risk(data, g, region) for g in members] == expected
        assert erm(data, family, region) == int(np.argmin(expected))

    def test_predict_matches_the_axis_rule(self):
        x = np.array([[0.2, 0.7], [0.5, 0.1], [0.9, 0.5]])
        for g in (AxisClassifier(0, 0.5), AxisClassifier(1, 0.5, sign=-1)):
            expected = g.sign * np.where(x[:, g.coord] >= g.threshold, 1, -1)
            assert g.predict(x).tolist() == expected.tolist()
            assert g.predict(x).dtype == expected.dtype

    def test_threshold_row_never_counts(self):
        # every member errs on every row; only the 2 rows strictly above the
        # 3rd largest norm count, so each risk is 2 / (n alpha)
        x = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0], [0.5, 0.0],
                      [0.6, 0.0], [0.7, 0.0], [0.8, 0.0], [0.9, 0.0], [0.95, 0.0]])
        members = (AxisClassifier(0, 0.0), AxisClassifier(0, 2.0, sign=-1))
        data = LabeledSample(features=x, labels=-np.ones(10, dtype=np.int64))
        region = QuantileRegion(alpha=0.3, norm="l2")
        risks = _family_empirical_risks(data, members, region)
        assert risks.tolist() == [2 / 3, 2 / 3]
        assert risks.tolist() == [oracle_risk(data, g, region) for g in members]

    def test_norm_ties_raise_the_same_error(self):
        x = np.array([[0.5, 0.1], [0.5, 0.2], [0.9, 0.3], [0.3, 0.25]])
        data = LabeledSample(features=x, labels=np.array([1, 1, -1, -1]))
        region = QuantileRegion(alpha=0.5, norm="linf")
        family = axis_threshold_family(2, 3)
        message = "norm ties at the empirical threshold; jitter the data"
        with pytest.raises(DataError, match=message):
            _family_empirical_risks(data, family.members, region)
        with pytest.raises(DataError, match=message):
            erm(data, family, region)

    def test_empty_tail_raises_the_same_error(self):
        data = fixed_sample(n=5)
        family = axis_threshold_family(2, 3)
        region = QuantileRegion(alpha=0.1, norm="linf")
        message = r"floor\(n alpha\) = 0 < 1; no tail rows at n=5, alpha=0.1"
        with pytest.raises(PreconditionError, match=message):
            _family_empirical_risks(data, family.members, region)
        with pytest.raises(PreconditionError, match=message):
            erm(data, family, region)

    def test_erm_ties_break_to_lowest_index(self):
        gen = toy_generator(noise=0.0)
        data = gen.sample(500, substream(13, "erm-ties"))
        # two copies of the Bayes rule behind a worse member; both have risk 0
        family = ClassifierFamily(
            members=(AxisClassifier(1, 0.9), gen.rule, AxisClassifier(0, 0.5)),
        )
        region = QuantileRegion(alpha=0.2, norm="linf")
        risks = [oracle_risk(data, g, region) for g in family.members]
        assert risks[1] == risks[2] == 0.0 < risks[0]
        assert erm(data, family, region) == 1

    def test_one_norm_per_sample_in_the_rate_experiment(self, monkeypatch):
        calls = []
        original = classify_mod.feature_norm

        def counting(x, norm):
            calls.append(len(x))
            return original(x, norm)

        monkeypatch.setattr(classify_mod, "feature_norm", counting)
        family = axis_threshold_family(2, 5)
        schedule = [(200, 0.1), (400, 0.1), (400, 0.05)]
        rate_experiment_classification(toy_generator(), family, schedule, 3, seed=14)
        assert calls == [n for n, _ in schedule for _ in range(3)]

    def test_decomposition_check_matches_per_member_terms(self):
        gen = toy_generator(noise=0.1)
        family = axis_threshold_family(2, 4)
        region = QuantileRegion(alpha=0.1, norm="linf")
        data = gen.sample(1000, substream(15, "dec-family"))
        t_alpha = sup_norm_tail_quantile(0.1, 2)
        tail = feature_norm(data.features, "linf") > t_alpha
        lhs = joint = 0.0
        for g in family.members:
            truth = true_conditional_risk(gen, g, region).value
            lhs = max(lhs, abs(oracle_risk(data, g, region) - truth))
            emp_joint = float(((data.labels != g.predict(data.features)) & tail).mean())
            true_joint = classify_mod._analytic_joint_mistake(gen, g, t_alpha)
            joint = max(joint, abs(emp_joint - true_joint))
        check = risk_decomposition_check(data, family, region, gen)
        assert check.lhs == lhs
        assert check.joint_term == joint
        assert check.marginal_term == abs(float(tail.mean()) - 0.1)


class TestFamilyTruths:
    @pytest.mark.parametrize("region", [
        QuantileRegion(alpha=0.2, norm="l2"),
        ExplicitRegion(norm="l1", threshold=1.2, q=0.3),
        QuantileRegion(alpha=0.2, norm="linf"),
    ], ids=["quantile-l2", "explicit-l1", "analytic-linf"])
    def test_one_reference_draw_per_region(self, monkeypatch, region):
        gen = toy_generator(noise=0.1)
        family = axis_threshold_family(2, 3)
        members = family.members + (AxisClassifier(1, 0.4, sign=-1),)
        draws = 20_000
        expected = [
            true_conditional_risk(gen, g, region, reference_draws=draws)
            for g in members
        ]
        sizes = []
        original = LabeledGenerator.sample

        def counting(self, n, rng):
            sizes.append(n)
            return original(self, n, rng)

        monkeypatch.setattr(LabeledGenerator, "sample", counting)
        got = _family_true_risks(gen, members, region, reference_draws=draws)
        assert got == expected  # value, stderr and method all equal
        analytic = region.norm == "linf"
        if not analytic:  # the per-member hit-mask mean, drawn independently
            data = original(gen, draws, substream(20_600_101, "reference-risk"))
            norms = feature_norm(data.features, region.norm)
            if isinstance(region, ExplicitRegion):
                alpha, threshold = region.q, region.threshold
            else:
                alpha = region.alpha
                threshold = float(np.quantile(norms, 1.0 - alpha))
            tail = norms > threshold
            for g, risk in zip(members, got):
                hit = (data.labels != g.predict(data.features)) & tail
                assert risk.value == float(hit.mean()) / alpha
        assert sizes == ([] if analytic else [draws])
        assert {r.method for r in got} == {"analytic" if analytic else "reference"}

    def test_rate_experiment_computes_truths_once_per_region(self, monkeypatch):
        regions = []
        original = classify_mod._family_true_risks

        def counting(generator, members, region):
            regions.append(region)
            return original(generator, members, region, reference_draws=20_000)

        monkeypatch.setattr(classify_mod, "_family_true_risks", counting)
        family = axis_threshold_family(2, 2)
        schedule = [(400, 0.1), (800, 0.1), (800, 0.05)]
        rate_experiment_classification(toy_generator(), family, schedule, 1,
                                       seed=16, norm="l2")
        assert regions == [QuantileRegion(0.1, "l2"), QuantileRegion(0.05, "l2")]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def norm_matrices(draw):
    d = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(0, 40))
    cell = st.one_of(
        st.sampled_from([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf]),
        st.floats(allow_nan=False),
    )
    values = draw(st.lists(cell, min_size=n * d, max_size=n * d))
    return np.array(values, dtype=float).reshape(n, d)


class TestSupNorm:
    @settings(max_examples=300, deadline=None)
    @given(norm_matrices())
    def test_linf_matches_the_row_max_bit_for_bit(self, x):
        assert np.array_equal(_bits(feature_norm(x, "linf")),
                              _bits(np.abs(x).max(axis=1)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_linf_matches_the_row_max_on_long_columns(self, d):
        # long enough for numpy's vectorised loops, specials at random cells
        rng = np.random.default_rng(d)
        x = rng.standard_normal((4099, d))
        specials = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf])
        cells = rng.integers(0, x.size, size=400)
        x.flat[cells] = specials[rng.integers(0, specials.size, size=cells.size)]
        assert np.array_equal(_bits(feature_norm(x, "linf")),
                              _bits(np.abs(x).max(axis=1)))

    def test_nan_payloads_stay_nan_on_the_same_rows(self):
        # max(axis=1) returns numpy's default NaN, the elementwise maximum the
        # NaN it met first: the payload bits may differ, never the NaN rows
        payload = np.array([0x7FF0000000000001, 0x7FF8DEAD00000001],
                           dtype=np.int64).view(float)
        x = np.array([[payload[0], 1.0], [0.5, payload[1]], [0.25, 0.75],
                      [payload[0], payload[1]]])
        got = feature_norm(x, "linf")
        assert np.array_equal(got, np.abs(x).max(axis=1), equal_nan=True)
        assert np.isnan(got).tolist() == [True, True, False, True]

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (4, 0), (0, 0), ()])
    def test_non_matrix_input_is_a_precondition_error(self, norm, shape):
        message = f"expected an n x d matrix with d >= 1, got shape {shape}"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            feature_norm(np.ones(shape), norm)

    def test_region_paths_reject_a_zero_column_sample(self):
        data = LabeledSample(features=np.ones((5, 0)), labels=np.ones(5))
        region = QuantileRegion(alpha=0.5, norm="linf")
        with pytest.raises(PreconditionError, match=re.escape("got shape (5, 0)")):
            _family_empirical_risks(data, (AxisClassifier(0, 0.5),), region)
        with pytest.raises(PreconditionError, match=re.escape("got shape (3,)")):
            ExplicitRegion("l2", 0.5, 0.1).contains(np.ones(3))
        assert PreconditionError.exit_code == 4


def old_tail_rows(data, region):
    """The tail selection as written before the single sort."""
    n = data.n
    m = int(math.floor(n * region.alpha))
    if m < 1:
        raise PreconditionError(
            f"floor(n alpha) = {m} < 1; no tail rows at n={n}, alpha={region.alpha}"
        )
    norms = feature_norm(data.features, region.norm)
    if np.unique(norms).size != n:
        raise DataError("norm ties at the empirical threshold; jitter the data")
    thr = np.partition(norms, n - m)[n - m]
    return np.flatnonzero(norms > thr), n * region.alpha


@st.composite
def tail_cases(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    for _ in range(draw(st.integers(0, 2))):  # norm ties: a copy or a mirror
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x[dst] = x[src] * draw(st.sampled_from([1.0, -1.0]))
    for row in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        x[row, draw(st.integers(0, d - 1))] = math.nan
    y = rng.choice([-1, 1], size=n)
    region = QuantileRegion(alpha=draw(st.floats(0.01, 0.99)),
                            norm=draw(st.sampled_from(["l1", "l2", "linf"])))
    return LabeledSample(features=x, labels=y), region


class TestTailRows:
    @settings(max_examples=400, deadline=None)
    @given(tail_cases())
    def test_matches_unique_and_partition(self, case):
        data, region = case
        try:
            rows, denom = old_tail_rows(data, region)
        except (DataError, PreconditionError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                classify_mod._tail_rows(data, region)
            return
        got_rows, got_denom = classify_mod._tail_rows(data, region)
        assert got_rows.tolist() == rows.tolist()
        assert got_denom == denom

    @pytest.mark.parametrize("nan_rows, tied", [
        ([3], False), ([3, 7], True), ([0, 1, 2], True), ([9], False),
    ])
    def test_nan_norms_tie_as_np_unique_counts(self, nan_rows, tied):
        x = np.linspace(0.05, 0.95, 10)[:, None] * np.array([[1.0, 0.5]])
        x[nan_rows, 1] = math.nan
        data = LabeledSample(features=x, labels=np.ones(10))
        region = QuantileRegion(alpha=0.3, norm="linf")
        if tied:
            with pytest.raises(DataError, match="norm ties"):
                classify_mod._tail_rows(data, region)
            return
        rows, denom = classify_mod._tail_rows(data, region)
        expected, _ = old_tail_rows(data, region)
        assert rows.tolist() == expected.tolist()
        assert denom == 10 * 0.3


class TestLabels:
    @pytest.mark.parametrize("labels, ok", [
        ([1, -1, 1], True),
        ([1.0, -1.0, -1.0], True),
        ([True, True, True], True),
        ([1, 0, -1], False),
        ([1, 2, -1], False),
        ([1.0, -1.0, 0.5], False),
        ([1.0, -1.0, math.nan], False),
        (["1", "-1", "1"], False),
    ])
    def test_plus_minus_one_only(self, labels, ok):
        y = np.array(labels)
        assert bool(np.all(np.isin(y, (-1, 1)))) is ok  # the former check
        if ok:
            assert LabeledSample(np.zeros((3, 2)), y).labels.tolist() == [
                int(v) for v in y]
        else:
            with pytest.raises(ConfigurationError, match="labels must be -1 or \\+1"):
                LabeledSample(np.zeros((3, 2)), y)
