"""Batch command-line front end.

Subcommands: simulate, estimate, converge, bound, rademacher, classify.
Global flags: --config PATH (JSON), --seed U64, --workers N, --out DIR.
Flag values win over config-file values; the environment variable
TAILVC_OUT supplies the default output directory.  Every run writes a
manifest next to its outputs; re-running with ``--config manifest.json``
reproduces the data files byte for byte.

Exit codes: 0 success, 2 usage/configuration, 3 data, 4 precondition,
5 internal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import classify as cls_mod
from . import concentration as conc
from . import harness
from .empirical import build_ranks, empirical_stdf_lattice, jitter_columns, lattice_index
from .errors import (
    ConfigurationError,
    PreconditionError,
    TailvcError,
    EXIT_INTERNAL,
    EXIT_OK,
)
from .gridscan import dominance_weight_grid
from .models import parse_model
from .reportio import (
    read_sample_csv,
    write_csv,
    write_manifest,
    write_sample_csv,
)
from .rng import substream
from .samplers import GeneratorSpec, draw_sample


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    # a manifest is accepted as a config source
    if "config" in raw and isinstance(raw["config"], dict):
        return raw["config"]
    return raw


def _resolve(args, config: dict, name: str, default=None, required=False):
    """Flag wins, then config file, then default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        value = config.get(name, config.get(name.replace("-", "_"), default))
    if required and value is None:
        raise ConfigurationError(f"missing required option --{name}")
    return value


def _usable_cpus() -> int:
    """CPUs this process may run on, which a container can set below the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _out_dir(args, config: dict) -> Path:
    out = _resolve(args, config, "out")
    if out is None:
        out = os.environ.get("TAILVC_OUT", "tailvc-out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_seed(args, config: dict) -> int:
    seed = _resolve(args, config, "seed")
    if seed is None:
        raise ConfigurationError(
            "missing --seed: seeds are mandatory and never auto-generated"
        )
    return int(seed)


def _int_list(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"cannot parse integer list from {text!r}")


def _float_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"cannot parse number list from {text!r}")


# ----------------------------------------------------------------- simulate


def cmd_simulate(args, config: dict) -> int:
    started = time.time()
    out = _out_dir(args, config)
    seed = _require_seed(args, config)
    n = int(_resolve(args, config, "n", required=True))
    d = int(_resolve(args, config, "d", required=True))
    model_tag = str(_resolve(args, config, "model", required=True))
    margins = _resolve(args, config, "margins", "uniform")
    if isinstance(margins, str):
        margins = tuple(m.strip() for m in margins.split(","))
    model = parse_model(model_tag, d)
    spec = GeneratorSpec(model=model, n=n, d=d, seed=seed, margins=margins)
    sample = draw_sample(spec)
    sample_path = out / "sample.csv"
    write_sample_csv(sample, sample_path)
    write_manifest(
        out / "simulate_manifest.json",
        "simulate",
        {
            "model": model.tag(),
            "n": n,
            "d": d,
            "margins": list(spec.margin_tags()),
            "seed": seed,
            "out": str(out),
        },
        seed,
        inputs=[],
        outputs=[sample_path],
        started=started,
    )
    print(sample_path)
    return EXIT_OK


# ----------------------------------------------------------------- estimate


def cmd_estimate(args, config: dict) -> int:
    started = time.time()
    out = _out_dir(args, config)
    data_path = _resolve(args, config, "data", required=True)
    k = int(_resolve(args, config, "k", required=True))
    T = float(_resolve(args, config, "T", required=True))
    stride = _resolve(args, config, "grid-stride")
    jitter_seed = _resolve(args, config, "jitter-seed")
    sample = read_sample_csv(data_path)
    values = sample.values
    if jitter_seed is not None:
        values = jitter_columns(values, int(jitter_seed))
    ranks = build_ranks(values)
    if k * T > ranks.n:
        raise PreconditionError(f"k T = {k * T:g} exceeds n = {ranks.n}")
    m_top = int(lattice_index(k, T))
    if ranks.d >= 3 and stride is None:
        raise ConfigurationError(
            f"d = {ranks.d} >= 3 requires --grid-stride (lattice steps per axis)"
        )
    stride = 1 if stride is None else int(stride)
    if stride < 1:
        raise ConfigurationError(f"grid stride must be >= 1, got {stride}")
    axes = [np.arange(0, m_top + 1, stride) for _ in range(ranks.d)]
    if stride == 1 and ranks.d <= 2:
        sub = empirical_stdf_lattice(ranks, k, [m_top] * ranks.d)
    else:
        # evaluate only the strided sub-lattice; the full lattice may not fit
        depth = (ranks.n - ranks.ranks + 1).astype(float)
        survivors = dominance_weight_grid(
            depth, np.ones(ranks.n), [a.astype(float) for a in axes], strict=True
        )
        sub = (ranks.n - survivors) / k
    mesh = np.meshgrid(*axes, indexing="ij")
    surface = np.column_stack([g.ravel() / k for g in mesh] + [np.ravel(sub)])
    surface_path = out / "surface.csv"
    header = [f"x{j + 1}" for j in range(ranks.d)] + ["l_n"]
    write_csv(surface_path, header, surface)
    write_manifest(
        out / "estimate_manifest.json",
        "estimate",
        {"data": str(data_path), "k": k, "T": T, "grid-stride": stride,
         "jitter-seed": jitter_seed, "out": str(out)},
        seed=None,
        inputs=[data_path],
        outputs=[surface_path],
        started=started,
    )
    print(surface_path)
    return EXIT_OK


# ----------------------------------------------------------------- converge


def cmd_converge(args, config: dict) -> int:
    started = time.time()
    out = _out_dir(args, config)
    seed = _require_seed(args, config)
    n = int(_resolve(args, config, "n", required=True))
    d = int(_resolve(args, config, "d", required=True))
    model = parse_model(str(_resolve(args, config, "model", required=True)), d)
    ks = _int_list(_resolve(args, config, "k-schedule", required=True))
    T = float(_resolve(args, config, "T", required=True))
    delta = float(_resolve(args, config, "delta", 0.05))
    trials = int(_resolve(args, config, "trials", required=True))
    workers = _resolve(args, config, "workers")
    workers = int(workers) if workers is not None else _usable_cpus()
    grid_res = _resolve(args, config, "grid-resolution")
    frozen_c = _resolve(args, config, "frozen-c")

    exp = harness.ExperimentConfig(
        model=model, n=n, d=d, k_schedule=tuple(ks), T=T, delta=delta,
        trials=trials, seed=seed,
        grid_resolution=None if grid_res is None else int(grid_res),
        workers=workers,
    )
    report = harness.run_rate_experiment(exp)

    trial_rows = []
    for r in report.trials:
        trial_rows.append([r.trial, n, r.k, d, T, delta, "sup_stdf_deviation",
                           r.sup_deviation])
        if r.order_stat_event is not None:
            trial_rows.append([r.trial, n, r.k, d, T, delta, "order_stat_event",
                               r.order_stat_event])
        if not r.ok:
            trial_rows.append([r.trial, n, r.k, d, T, delta, "trial_failed", 1])
    trials_path = out / "trials.csv"
    write_csv(
        trials_path,
        ["trial_id", "n", "k", "d", "T", "delta", "statistic_name", "value"],
        trial_rows,
    )
    summary_path = out / "summary.csv"
    write_csv(
        summary_path,
        ["k", "trials_ok", "median", "upper_quantile", "bias_T", "bias_2T"],
        [[s.k, s.trials_ok, s.median, s.upper_quantile, s.bias_T, s.bias_2T]
         for s in report.summaries],
    )
    results = {"slope": report.slope}
    try:
        results["calibrated_C"] = harness.calibrate_constant(report)
    except (PreconditionError, ConfigurationError) as exc:
        results["calibrated_C"] = None
        results["calibration_note"] = str(exc)
    if frozen_c is not None:
        results["frozen_C"] = float(frozen_c)
        results["coverage"] = harness.coverage_against_bound(report, float(frozen_c))
    write_manifest(
        out / "converge_manifest.json",
        "converge",
        {
            "model": model.tag(), "n": n, "d": d,
            "k-schedule": ks, "T": T, "delta": delta, "trials": trials,
            "seed": seed, "workers": workers,
            "grid-resolution": grid_res,
            "frozen-c": frozen_c, "out": str(out),
        },
        seed,
        inputs=[],
        outputs=[trials_path, summary_path],
        started=started,
        results=results,
    )
    print(summary_path)
    return EXIT_OK


# ----------------------------------------------------------------- bound


def cmd_bound(args, config: dict) -> int:
    started = time.time()
    out = _out_dir(args, config)
    kind = str(_resolve(args, config, "kind", required=True))
    delta = float(_resolve(args, config, "delta", required=True))
    C = float(_resolve(args, config, "C", 1.0))
    bound_path = out / "bound.csv"
    cfg: dict = {"kind": kind, "delta": delta, "C": C, "out": str(out)}

    if kind == "stdf":
        k = int(_resolve(args, config, "k", required=True))
        d = int(_resolve(args, config, "d", required=True))
        T = float(_resolve(args, config, "T", required=True))
        bias = float(_resolve(args, config, "bias", 0.0))
        value = harness.stdf_deviation_bound(k, d, T, delta, C, bias)
        cfg.update({"k": k, "d": d, "T": T, "bias": bias})
        write_csv(bound_path, ["kind", "value"], [[kind, value]])
    elif kind in ("vc", "vc-simple", "vc-classical"):
        n = int(_resolve(args, config, "n", required=True))
        V = int(_resolve(args, config, "V", required=True))
        p = float(_resolve(args, config, "p", required=True))
        params = conc.BoundParams(n=n, V=V, p=p, delta=delta, C=C)
        fn = {
            "vc": conc.low_mass_vc_bound,
            "vc-simple": conc.simplified_vc_bound,
            "vc-classical": conc.classical_vc_bound,
        }[kind]
        value = fn(params)
        cfg.update({"n": n, "V": V, "p": p})
        write_csv(bound_path, ["kind", "value"], [[kind, value]])
    elif kind == "vc-compare":
        n_grid = _int_list(_resolve(args, config, "n-grid", required=True))
        V = int(_resolve(args, config, "V", required=True))
        p = float(_resolve(args, config, "p", required=True))
        rows = conc.bound_comparison(n_grid, V=V, p=p, delta=delta, C=C)
        cfg.update({"n-grid": n_grid, "V": V, "p": p})
        write_csv(
            bound_path,
            ["n", "low_mass_bound", "classical_bound", "ratio"],
            [[r["n"], r["low_mass_bound"], r["classical_bound"], r["ratio"]]
             for r in rows],
        )
    else:
        raise ConfigurationError(
            f"unknown bound kind {kind!r}; expected stdf | vc | vc-simple | "
            "vc-classical | vc-compare"
        )
    write_manifest(
        out / "bound_manifest.json", "bound", cfg, seed=None,
        inputs=[], outputs=[bound_path], started=started,
    )
    print(bound_path)
    return EXIT_OK


# ----------------------------------------------------------------- rademacher


def cmd_rademacher(args, config: dict) -> int:
    started = time.time()
    out = _out_dir(args, config)
    seed = _require_seed(args, config)
    n = int(_resolve(args, config, "n", required=True))
    d = int(_resolve(args, config, "d", required=True))
    k = int(_resolve(args, config, "k", required=True))
    T = float(_resolve(args, config, "T", required=True))
    model_tag = str(_resolve(args, config, "model", "uniform"))
    statistic = str(_resolve(args, config, "statistic", "rademacher"))
    if statistic not in ("rademacher", "separation", "both"):
        raise ConfigurationError(
            f"unknown statistic {statistic!r}; expected rademacher | separation | both"
        )
    unused = {"rademacher": ("pairs",), "separation": ("trials", "grid-resolution")}
    for name in unused.get(statistic, ()):
        if _resolve(args, config, name) is not None:
            raise ConfigurationError(
                f"--{name} has no effect with --statistic {statistic}"
            )
    trials = pairs = None
    if statistic != "separation":
        trials = int(_resolve(args, config, "trials", 100))
    if statistic != "rademacher":
        pairs = int(_resolve(args, config, "pairs", 100_000))
    grid_res = _resolve(args, config, "grid-resolution")
    if d >= 3 and grid_res is None and statistic != "separation":
        raise ConfigurationError(
            f"d = {d} >= 3 requires --grid-resolution for the set scan"
        )
    model = parse_model(model_tag, d)
    spec = conc.RectClassSpec(d=d, k=k, n=n, T=T)
    rows = []
    results: dict = {"p": conc.union_mass(spec, model)}

    if statistic in ("rademacher", "both"):
        est = conc.relative_rademacher(
            model, spec, trials, seed,
            grid_resolution=None if grid_res is None else int(grid_res),
        )
        for t, v in enumerate(est.values):
            rows.append([t, n, k, d, T, "", "relative_rademacher_sup", v])
        rows.append(["", n, k, d, T, "", "relative_rademacher_mean", est.mean])
        rows.append(["", n, k, d, T, "", "relative_rademacher_stderr", est.stderr])
        results["relative_rademacher"] = {
            "mean": est.mean, "stderr": est.stderr, "trials": est.trials,
        }
    if statistic in ("separation", "both"):
        est_q = conc.pair_separation_complexity(model, spec, pairs, seed)
        rows.append(["", n, k, d, T, "", "pair_separation_q", est_q.value])
        rows.append(["", n, k, d, T, "", "pair_separation_stderr", est_q.stderr])
        results["pair_separation"] = {
            "q": est_q.value, "stderr": est_q.stderr, "pairs": est_q.pairs,
        }
    rows.append(["", n, k, d, T, "", "union_mass", results["p"]])
    trials_path = out / "rademacher.csv"
    write_csv(
        trials_path,
        ["trial_id", "n", "k", "d", "T", "delta", "statistic_name", "value"],
        rows,
    )
    write_manifest(
        out / "rademacher_manifest.json",
        "rademacher",
        {"model": model.tag(), "n": n, "d": d, "k": k, "T": T,
         "statistic": statistic, "trials": trials, "pairs": pairs,
         "grid-resolution": grid_res, "seed": seed, "out": str(out)},
        seed,
        inputs=[],
        outputs=[trials_path],
        started=started,
        results=results,
    )
    print(trials_path)
    return EXIT_OK


# ----------------------------------------------------------------- classify


def cmd_classify(args, config: dict) -> int:
    started = time.time()
    out = _out_dir(args, config)
    seed = _require_seed(args, config)
    mode = str(_resolve(args, config, "mode", "rate"))
    d = int(_resolve(args, config, "d", 2))
    alpha = float(_resolve(args, config, "alpha", 0.1))
    noise = float(_resolve(args, config, "noise", 0.1))
    norm = str(_resolve(args, config, "norm", "linf"))
    rule_threshold = float(_resolve(args, config, "rule-threshold", 0.5))
    trials = int(_resolve(args, config, "trials", 50))

    generator = cls_mod.LabeledGenerator(
        feature_model=parse_model("independence", d),
        rule=cls_mod.AxisClassifier(coord=0, threshold=rule_threshold),
        noise=noise,
    )
    rows = []
    results: dict = {}
    manifest_cfg = {
        "mode": mode, "d": d, "alpha": alpha, "noise": noise, "norm": norm,
        "rule-threshold": rule_threshold, "trials": trials, "seed": seed,
        "out": str(out),
    }

    if mode == "rate":
        family_size = int(_resolve(args, config, "family-size", 20))
        na_grid = _float_list(
            _resolve(args, config, "n-alpha-grid", "100,400,1600,6400")
        )
        manifest_cfg.update({"family-size": family_size, "n-alpha-grid": na_grid})
        per_axis = max(1, family_size // d)
        family = cls_mod.axis_threshold_family(d, per_axis)
        schedule = [(int(round(na / alpha)), alpha) for na in na_grid]
        report = cls_mod.rate_experiment_classification(
            generator, family, schedule, trials, seed, norm=norm
        )
        for r in report.records:
            rows.append([r.trial, r.n, r.alpha, d, norm, "sup_risk_deviation",
                         r.sup_deviation])
        results["slope"] = report.slope
        results["medians"] = {str(k): v for k, v in report.medians.items()}
        results["family_size"] = report.family_size
        family_path = out / "family.txt"
        family_path.write_text(family.serialize(), encoding="utf-8")
        summary_path = out / "classify_summary.csv"
        write_csv(
            summary_path,
            ["n", "alpha", "n_alpha", "median_sup_deviation"],
            [[n, a, n * a, report.medians[(n, a)]] for n, a in schedule],
        )
        outputs = [summary_path, family_path]
    elif mode == "decomposition":
        n = int(_resolve(args, config, "n", 1000))
        manifest_cfg["n"] = n
        family = cls_mod.ClassifierFamily(
            members=(
                cls_mod.AxisClassifier(coord=0, threshold=rule_threshold),
                cls_mod.AxisClassifier(coord=1 % d, threshold=0.7),
            ),
            vc_dim=d,
        )
        region = cls_mod.QuantileRegion(alpha=alpha, norm=norm)
        holds = 0
        for t in range(trials):
            data = generator.sample(n, substream(seed, "decomposition", t))
            check = cls_mod.risk_decomposition_check(data, family, region, generator)
            holds += int(check.holds)
            rows.append([t, n, alpha, d, norm, "decomposition_holds",
                         int(check.holds)])
            rows.append([t, n, alpha, d, norm, "lhs", check.lhs])
            rows.append([t, n, alpha, d, norm, "rhs", check.rhs])
        results["decomposition_holds"] = holds
        results["trials"] = trials
        outputs = []
    else:
        raise ConfigurationError(
            f"unknown mode {mode!r}; expected rate | decomposition"
        )

    trials_path = out / "classify_trials.csv"
    write_csv(
        trials_path,
        ["trial_id", "n", "alpha", "d", "norm", "statistic_name", "value"],
        rows,
    )
    outputs.append(trials_path)
    write_manifest(
        out / "classify_manifest.json",
        "classify",
        manifest_cfg,
        seed,
        inputs=[],
        outputs=outputs,
        started=started,
        results=results,
    )
    print(trials_path)
    return EXIT_OK


# ----------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailvc",
        description="Tail dependence estimation and concentration experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file (flags win)")
        sp.add_argument("--seed", type=int, help="64-bit master seed")
        sp.add_argument("--workers", type=int, help="worker process cap")
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("simulate", help="draw a synthetic sample to CSV")
    add_common(sp)
    sp.add_argument("--model")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--margins")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("estimate", help="tabulate the empirical surface")
    add_common(sp)
    sp.add_argument("--data")
    sp.add_argument("--k", type=int)
    sp.add_argument("--T", type=float)
    sp.add_argument("--grid-stride", type=int)
    sp.add_argument("--jitter-seed", type=int,
                    help="break ties in real data with seeded sub-gap noise")
    sp.set_defaults(fn=cmd_estimate)

    sp = sub.add_parser("converge", help="sup-deviation rate experiment")
    add_common(sp)
    sp.add_argument("--model")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--k-schedule")
    sp.add_argument("--T", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--grid-resolution", type=int)
    sp.add_argument("--frozen-c", type=float,
                    help="frozen constant for coverage evaluation")
    sp.set_defaults(fn=cmd_converge)

    sp = sub.add_parser("bound", help="evaluate a deviation bound")
    add_common(sp)
    sp.add_argument("--kind")
    sp.add_argument("--k", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--T", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--C", type=float)
    sp.add_argument("--bias", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--V", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--n-grid")
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("rademacher", help="relative complexity estimates")
    add_common(sp)
    sp.add_argument("--model")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--T", type=float)
    sp.add_argument("--statistic")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--pairs", type=int)
    sp.add_argument("--grid-resolution", type=int)
    sp.set_defaults(fn=cmd_rademacher)

    sp = sub.add_parser("classify", help="rare-region classification experiments")
    add_common(sp)
    sp.add_argument("--mode")
    sp.add_argument("--d", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--noise", type=float)
    sp.add_argument("--norm")
    sp.add_argument("--rule-threshold", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--family-size", type=int)
    sp.add_argument("--n-alpha-grid")
    sp.set_defaults(fn=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.fn(args, config)
    except TailvcError as exc:
        print(f"tailvc {args.subcommand}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # internal
        print(f"tailvc {args.subcommand}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
