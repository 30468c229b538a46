"""Acceptance suite: ten numbered checks at their stated tolerances.

Every check pins its master seed and prints one pass/fail line; the
experiment-shaped checks drive the CLI and read back the emitted CSVs
and manifests, the exact-identity suites exercise the library directly.

Check 3 runs the rate experiment on the zero-bias (comonotone) model.
Under comonotone rows the column ranks coincide, so the rank estimator is
deterministic: the count at x is max(floor(k x1), floor(k x2)) / k while
l(x) = max(x1, x2), and the corner scan over [0, T]^2 returns exactly 1/k
in every trial whenever floor(k T) >= 1.  The check therefore asserts that
exact law (every per-trial deviation equals 1/k, the fitted log-log slope
equals -1) together with the paper's O(k^(-1/2)) upper rate, slope <= -0.35.
The paper bounds the deviation from above only, so no lower edge on the
slope is asserted here.  The stochastic k^(-1/2) band is checked where the
statistic is stochastic: check 8 below and
test_harness.py::TestTailProcessDeviation::test_rate_on_zero_discrepancy_model.
"""

import time

import numpy as np

from csv_text import read_csv
from rank_oracles import exceedance_count, standardize
from tailvc.cli import main
from tailvc.models import parse_model
from tailvc.reportio import read_manifest
from tailvc.samplers import Sample, apply_margins, draw_copula_sample


def _criterion(num, name, ok, detail):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _cli(args):
    code = main([str(a) for a in args])
    assert code == 0, f"CLI exited {code} for {args}"


def _random_instance(rng, margins_pool):
    d = int(rng.integers(1, 4))
    n = int(rng.integers(1, 51))
    tag = str(rng.choice(["independence", "comonotone", "logistic(1.7)"]))
    model = parse_model(tag, d)
    x = draw_copula_sample(model, n, rng)
    margins = tuple(str(rng.choice(margins_pool)) for _ in range(d))
    sample = apply_margins(Sample(x), margins)
    return sample, margins, n, d


def test_01_rank_identity_exhaustive():
    """10^4 randomized instances: the two tail counts agree exactly."""
    rng = np.random.default_rng(101)
    margins_pool = ["uniform", "exponential", "pareto(2)"]
    started = time.time()
    checks = 0
    mismatches = 0
    for _ in range(10_000):
        sample, margins, n, d = _random_instance(rng, margins_pool)
        u = standardize(sample, margins)
        sorted_u = np.sort(u, axis=0)
        batch = rng.integers(0, n + 1, size=(16, d))
        batch[0] = 0
        batch[1] = n
        lhs = exceedance_count(sample, batch)
        thr = np.where(
            batch > 0,
            sorted_u[np.maximum(batch - 1, 0), np.arange(d)[None, :]],
            0.0,
        )
        rhs = np.any(u[None, :, :] <= thr[:, None, :], axis=2).sum(axis=1)
        mismatches += int(np.sum(lhs != rhs))
        checks += batch.shape[0]
    elapsed = time.time() - started
    _criterion(
        1,
        "rank identity, exact integer counts",
        mismatches == 0 and elapsed < 60,
        f"{checks} checks over 10000 instances, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_02_sandwich_and_margin_invariance():
    """10^3 randomized instances: exact envelope and rank-only dependence."""
    rng = np.random.default_rng(202)
    started = time.time()
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 51))
        x = rng.random((n, d))
        k = int(rng.integers(1, n + 1))
        batch = rng.integers(0, n + 1, size=(8, d))
        counts = exceedance_count(x, batch)
        if np.any(counts < batch.max(axis=1)) or np.any(
            counts > batch.sum(axis=1)
        ):
            violations += 1
        for margin in ("exponential", "pareto(2)", "pareto(0.5)"):
            x2 = apply_margins(Sample(x), margin)
            if np.any(exceedance_count(x2, batch) != counts):
                violations += 1
    elapsed = time.time() - started
    _criterion(
        2,
        "count envelope and margin invariance",
        violations == 0 and elapsed < 60,
        f"1000 instances x 3 transforms, {violations} violations, {elapsed:.1f}s",
    )


def test_03_rate_slope_zero_bias_model(tmp_path):
    """Comonotone rows: every sup deviation is exactly 1/k, the slope is -1."""
    ks = (50, 100, 200, 400, 800)
    out = tmp_path / "rate"
    _cli(["converge", "--model", "comonotone", "--n", 200_000, "--d", 2,
          "--k-schedule", "50,100,200,400,800", "--T", 2.0, "--delta", "0.05",
          "--trials", 50, "--seed", 30_001, "--out", out])
    _, rows = read_csv(out / "trials.csv")
    failed = sum(1 for r in rows if r[6] == "trial_failed")
    devs = [(int(r[2]), float(r[7])) for r in rows
            if r[6] == "sup_stdf_deviation"]
    worst = max(abs(v - 1.0 / k) for k, v in devs)
    _, summary = read_csv(out / "summary.csv")
    trials_ok = {int(r[0]): int(r[1]) for r in summary}
    slope = read_manifest(out / "converge_manifest.json")["results"]["slope"][
        "slope"
    ]
    _criterion(
        3,
        "sup deviation exactly 1/k per trial, slope -1 <= -0.35, comonotone",
        failed == 0
        and trials_ok == {k: 50 for k in ks}
        and len(devs) == 50 * len(ks)
        and worst <= 1e-12
        and abs(slope + 1.0) <= 1e-9
        and slope <= -0.35,
        f"{len(devs)} deviations, max |dev - 1/k| = {worst:.1e}, "
        f"{failed} failed trials, fitted slope {slope:.12f}",
    )


def test_04_bound_coverage_with_frozen_constant(tmp_path):
    """Calibrate the constant on one seed, freeze it, cover on another."""
    pilot, fresh = tmp_path / "pilot", tmp_path / "fresh"
    base = ["converge", "--model", "comonotone", "--n", 20_000, "--d", 2,
            "--k-schedule", "100", "--T", 4.0, "--delta", "0.05",
            "--trials", 500]
    _cli(base + ["--seed", 40_001, "--out", pilot])
    c_star = read_manifest(pilot / "converge_manifest.json")["results"][
        "calibrated_C"
    ]
    _cli(base + ["--seed", 40_002, "--frozen-c", c_star, "--out", fresh])
    coverage = read_manifest(fresh / "converge_manifest.json")["results"][
        "coverage"
    ]["100"]
    _criterion(
        4,
        "envelope coverage >= 95% of 500 trials at frozen C",
        coverage >= 0.95,
        f"C* = {c_star:.5f}, coverage = {coverage:.3f}",
    )


def test_05_order_stat_event_frequency(tmp_path):
    """All 1000 trials satisfy the order-statistic cap at k=100, T=3.52."""
    out = tmp_path / "evt"
    _cli(["converge", "--model", "comonotone", "--n", 10_000, "--d", 2,
          "--k-schedule", "100", "--T", 3.52, "--delta", "0.05",
          "--trials", 1000, "--seed", 50_001, "--out", out])
    _, rows = read_csv(out / "trials.csv")
    events = [int(r[7]) for r in rows if r[6] == "order_stat_event"]
    _criterion(
        5,
        "order-statistic event holds in every trial",
        len(events) == 1000 and all(v == 1 for v in events),
        f"{sum(events)}/{len(events)} trials",
    )


def test_06_relative_rademacher_scaling(tmp_path):
    """sqrt(np)-normalized relative Rademacher mean is flat across decades."""
    scaled = {}
    for n, k in ((1000, 10), (10_000, 100), (100_000, 1000)):
        out = tmp_path / f"rad{n}"
        _cli(["rademacher", "--model", "uniform", "--n", n, "--d", 2,
              "--k", k, "--T", 2.0, "--statistic", "rademacher",
              "--trials", 200, "--seed", 60_001, "--out", out])
        res = read_manifest(out / "rademacher_manifest.json")["results"]
        scaled[n] = res["relative_rademacher"]["mean"] * np.sqrt(n * res["p"])
    ratio = max(scaled.values()) / min(scaled.values())
    _criterion(
        6,
        "relative Rademacher sqrt(np) band across n in {1e3,1e4,1e5}",
        ratio <= 2.0,
        f"scaled means {['%.3f' % scaled[n] for n in sorted(scaled)]}, "
        f"max/min = {ratio:.3f}",
    )


def test_07_pair_separation_below_twice_mass(tmp_path):
    """Monte Carlo q stays below 2p within noise on every model and d."""
    failures = []
    details = []
    for tag in ("independence", "comonotone", "logistic(2)"):
        for d in (1, 2):
            out = tmp_path / f"q-{tag}-{d}"
            _cli(["rademacher", "--model", tag, "--n", 10_000, "--d", d,
                  "--k", 100, "--T", 2.0, "--statistic", "separation",
                  "--pairs", 100_000, "--seed", 70_001, "--out", out])
            res = read_manifest(out / "rademacher_manifest.json")["results"]
            q = res["pair_separation"]["q"]
            se = res["pair_separation"]["stderr"]
            p = res["p"]
            if q > 2 * p + 3 * se:
                failures.append((tag, d))
            details.append(f"{tag}/d={d}: q={q:.4f} 2p={2 * p:.4f}")
    _criterion(
        7,
        "pair-separation complexity <= 2p + 3 stderr (10^5 pairs)",
        not failures,
        "; ".join(details),
    )


def test_08_classification_rate_slope(tmp_path):
    """Sup risk deviation over a 20-member family decays like 1/sqrt(n a)."""
    out = tmp_path / "class"
    _cli(["classify", "--mode", "rate", "--alpha", "0.1",
          "--n-alpha-grid", "100,400,1600,6400", "--trials", 50,
          "--family-size", 20, "--seed", 80_001, "--out", out])
    slope = read_manifest(out / "classify_manifest.json")["results"]["slope"][
        "slope"
    ]
    _criterion(
        8,
        "classification deviation slope in [-0.65, -0.35]",
        -0.65 <= slope <= -0.35,
        f"fitted slope {slope:.4f} over n*alpha in {{100,...,6400}}",
    )


def test_09_risk_decomposition_inequality(tmp_path):
    """The conditional-risk deviation split holds on 100/100 seeded trials."""
    out = tmp_path / "dec"
    _cli(["classify", "--mode", "decomposition", "--n", 1000, "--alpha", "0.1",
          "--trials", 100, "--seed", 90_001, "--out", out])
    res = read_manifest(out / "classify_manifest.json")["results"]
    _criterion(
        9,
        "risk decomposition inequality on all seeded trials",
        res["decomposition_holds"] == 100 and res["trials"] == 100,
        f"{res['decomposition_holds']}/100 trials",
    )


def test_10_bound_comparison_monotone_ratio(tmp_path):
    """classical/low-mass bound ratio grows with n in the emitted table."""
    out = tmp_path / "cmp"
    _cli(["bound", "--kind", "vc-compare", "--n-grid", "100,1000,10000,100000",
          "--V", 2, "--p", "0.01", "--delta", "0.05", "--out", out])
    _, rows = read_csv(out / "bound.csv")
    ratios = [float(r[3]) for r in rows]
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    _criterion(
        10,
        "extra-logarithm visibility: bound ratio monotone in n",
        monotone and len(ratios) == 4,
        f"ratios {['%.3f' % r for r in ratios]}",
    )
