"""Batch command-line front end.

Subcommands: simulate, estimate, converge, bound, rademacher, classify.
Each subcommand declares its options once, in ``_SPECS``; the parser, the
``--config PATH`` (JSON) resolution and the manifest ``config`` block are
all generated from that table.  Flag values win over config-file values,
which win over defaults; the environment variable TAILVC_OUT supplies the
default output directory.  An option given where it does not apply, or a
config-file key that is not an option of the subcommand, is a usage error,
and so is a config-file value of true or false, or a fraction for an
integer option, which would otherwise be read as 1, 0 or truncated.  A
list option needs at least one value.
``cmd_<name>(options, out)`` writes its data files and returns
``(outputs, results)``; ``main`` alone creates ``out`` (and removes it if
the command fails and leaves it empty), writes the manifest and prints
the last output.  Re-running with ``--config manifest.json``
reproduces the data files byte for byte.  No command checks a scan
precondition of its own: its grid option is the declared grid of the
library call, and ``gridscan.scan_is_exact`` decides whether d needs one.

Only the standard library and ``errors`` are imported here.  Each
``cmd_<name>`` imports what it runs at the top of its body, so ``--help``
and a usage error load no numpy, and a subcommand loads only its own
modules.  A function-local ``from .x import f`` reads ``x.f`` at call time,
so a wrapper bound to the module name still runs.

Exit codes: 0 success, 2 usage/configuration (also an unreadable config
file or an ``--out`` that cannot be a directory), 3 data (also an
unreadable ``--data`` file), 4 precondition (also a ``MemoryError``, and
a sample size whose n d values no numpy array can hold), 5 internal.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .errors import (
    ConfigurationError,
    DataError,
    PreconditionError,
    TailvcError,
    EXIT_INTERNAL,
    EXIT_OK,
)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    from .reportio import read_manifest

    try:
        raw = read_manifest(path)  # any JSON file, not only a manifest
    except DataError as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigurationError(f"config file {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    # a manifest is accepted as a config source
    if "config" in raw and isinstance(raw["config"], dict):
        return raw["config"]
    return raw


def _usable_cpus() -> int:
    """CPUs this process may run on, which a container can set below the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _default_out() -> str:
    return os.environ.get("TAILVC_OUT", "tailvc-out")


def _split(text) -> list:
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    items = [item for item in items if str(item).strip()]
    if not items:
        raise ConfigurationError("needs at least one value")
    return items


def _int(value) -> int:
    """int() that truncates nothing: a config file's 1000.7 is refused, as
    the flag's '1000.7' is."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _int_list(text) -> list[int]:
    return [_int(v) for v in _split(text)]


def _positive_floats(text) -> list[float]:
    values = [float(v) for v in _split(text)]
    if not all(0 < v < math.inf for v in values):
        raise ConfigurationError(f"values must be finite and > 0, got {values}")
    return values


def _workers(value) -> int:
    workers = _int(value)
    if workers < 1:
        raise ConfigurationError(f"needs at least one worker, got {workers}")
    return workers


def _seed(text) -> int:
    seed = _int(text)
    if seed < 0:  # numpy's SeedSequence takes no negative entropy
        raise ConfigurationError(f"a seed must be >= 0, got {seed}")
    return seed


def _margins(text) -> list[str]:
    return [str(m).strip() for m in _split(text)]


# ----------------------------------------------------------------- options


class Opt(NamedTuple):
    """One option of one subcommand, declared once.

    ``default`` may be a function, called when the value is resolved.
    ``when`` = (selector, values) makes the option apply only while the
    option ``selector``, declared earlier in the same table, is one of
    ``values``; elsewhere giving it is a usage error and it resolves to None.
    """

    name: str
    conv: object = str
    default: object = None
    required: bool = False
    help: str | None = None
    when: tuple | None = None
    choices: tuple | None = None


_SEED = Opt("seed", _seed, required=True, help="64-bit master seed")
_OUT = Opt("out", default=_default_out,
           help="output directory (default: $TAILVC_OUT, else ./tailvc-out)")
_WORKERS = Opt("workers", _workers, 1, help="worker process cap")
_VC_KINDS = ("vc", "vc-simple", "vc-classical")
_STDF = ("kind", ("stdf",))
_SCAN = ("statistic", ("rademacher", "both"))
_RATE = ("mode", ("rate",))

_SPECS = {
    "simulate": (
        _SEED, _OUT,
        Opt("model", required=True),
        Opt("n", _int, required=True),
        Opt("d", _int, required=True),
        Opt("margins", _margins, "uniform"),
    ),
    "estimate": (
        _OUT,
        Opt("data", required=True),
        Opt("k", _int, required=True),
        Opt("T", float, required=True),
        Opt("grid-stride", _int),
        Opt("jitter-seed", _seed,
            help="break ties in real data with seeded sub-gap noise"),
    ),
    "converge": (
        _SEED,
        _WORKERS._replace(default=_usable_cpus),
        _OUT,
        Opt("model", required=True),
        Opt("n", _int, required=True),
        Opt("d", _int, required=True),
        Opt("k-schedule", _int_list, required=True),
        Opt("T", float, required=True),
        Opt("delta", float, 0.05),
        Opt("trials", _int, required=True),
        Opt("grid-resolution", _int),
        Opt("frozen-c", float, help="frozen constant for coverage evaluation"),
    ),
    "bound": (
        _OUT,
        Opt("kind", required=True, choices=("stdf",) + _VC_KINDS + ("vc-compare",)),
        Opt("delta", float, required=True),
        Opt("C", float, 1.0),
        Opt("k", _int, required=True, when=_STDF),
        Opt("d", _int, required=True, when=_STDF),
        Opt("T", float, required=True, when=_STDF),
        Opt("bias", float, 0.0, when=_STDF),
        Opt("n", _int, required=True, when=("kind", _VC_KINDS)),
        Opt("V", _int, required=True, when=("kind", _VC_KINDS + ("vc-compare",))),
        Opt("p", float, required=True, when=("kind", _VC_KINDS + ("vc-compare",))),
        Opt("n-grid", _int_list, required=True, when=("kind", ("vc-compare",))),
    ),
    "rademacher": (
        _SEED, _WORKERS, _OUT,
        Opt("model", default="uniform"),
        Opt("n", _int, required=True),
        Opt("d", _int, required=True),
        Opt("k", _int, required=True),
        Opt("T", float, required=True),
        Opt("statistic", default="rademacher",
            choices=("rademacher", "separation", "both")),
        Opt("trials", _int, 100, when=_SCAN),
        Opt("pairs", _int, 100_000, when=("statistic", ("separation", "both"))),
        Opt("grid-resolution", _int, when=_SCAN),
    ),
    "classify": (
        # serial: no pooled classify run has yet been measured to pay
        _SEED, _WORKERS._replace(choices=(1,), help="must be 1: classify runs serially"),
        _OUT,
        Opt("mode", default="rate", choices=("rate", "decomposition")),
        Opt("d", _int, 2),
        Opt("alpha", float, 0.1),
        Opt("noise", float, 0.1),
        Opt("norm", default="linf"),
        Opt("rule-threshold", float, 0.5),
        Opt("trials", _int, 50),
        Opt("family-size", _int, 20, when=_RATE),
        Opt("n-alpha-grid", _positive_floats, "100,400,1600,6400", when=_RATE),
        Opt("n", _int, 1000, when=("mode", ("decomposition",))),
    ),
}


def _options(subcommand: str, args, config: dict) -> dict:
    """Every option of ``subcommand``: flag, then config file, then default.

    The result is the manifest's ``config`` block, with the options that do
    not apply recorded as None.
    """
    specs = _SPECS[subcommand]
    names = {opt.name for opt in specs}
    config = {key.replace("_", "-"): value for key, value in config.items()}
    for key in config:
        if key not in names:
            raise ConfigurationError(
                f"config file key {key!r} is not an option of {subcommand}"
            )
    resolved: dict = {}
    for opt in specs:
        value = getattr(args, opt.name.replace("-", "_"))
        if value is None:
            value = config.get(opt.name)
        if opt.when is not None and resolved[opt.when[0]] not in opt.when[1]:
            if value is not None:
                raise ConfigurationError(
                    f"--{opt.name} does not apply with --{opt.when[0]} "
                    f"{resolved[opt.when[0]]}"
                )
            resolved[opt.name] = None
            continue
        if value is None:
            if opt.required:
                raise ConfigurationError(f"missing required option --{opt.name}")
            value = opt.default() if callable(opt.default) else opt.default
        if value is not None:
            try:
                # a config file's true/false: int() and float() would read 1 and 0
                if bool in map(type, value if isinstance(value, list) else [value]):
                    raise ValueError(value)
                value = opt.conv(value)
            except (TypeError, ValueError):
                raise ConfigurationError(f"--{opt.name}: cannot read {value!r}")
            except ConfigurationError as exc:  # readable, but out of range
                raise ConfigurationError(f"--{opt.name}: {exc}")
        if opt.choices is not None and value not in opt.choices:
            raise ConfigurationError(
                f"--{opt.name} must be {' | '.join(map(str, opt.choices))}, "
                f"got {value!r}"
            )
        resolved[opt.name] = value
    return resolved


# ----------------------------------------------------------------- simulate


def cmd_simulate(o: dict, out: Path) -> tuple[list, dict]:
    from .models import parse_model
    from .reportio import write_sample_csv
    from .samplers import draw_sample

    model = parse_model(o["model"], o["d"])
    sample = draw_sample(model, o["n"], o["seed"], o["margins"])
    sample_path = out / "sample.csv"
    write_sample_csv(sample, sample_path)
    return [sample_path], {}


# ----------------------------------------------------------------- estimate


def cmd_estimate(o: dict, out: Path) -> tuple[list, dict]:
    import numpy as np

    from .empirical import (build_ranks, check_lattice_scan, jitter_columns,
                            lattice_index, stdf_lattice_counts)
    from .reportio import LevelTable, read_sample_csv, write_csv

    k, T, stride = o["k"], o["T"], o["grid-stride"]
    if stride is not None and stride < 1:
        raise ConfigurationError(f"grid stride must be >= 1, got {stride}")
    values = read_sample_csv(o["data"]).values
    if o["jitter-seed"] is not None:
        values = jitter_columns(values, o["jitter-seed"])
    check_lattice_scan(values, k, None, T, None, stride=stride)  # no model to compare
    d, m_top, stride = values.shape[1], int(lattice_index(k, T)), stride or 1
    # only the strided sub-lattice is evaluated; the full one may not fit
    counts = stdf_lattice_counts(build_ranks(values, m_top + 1), [m_top] * d, stride)
    flat = counts.reshape(-1)

    def codes(lo, hi):
        # codes of rows lo..hi-1 of (x_1, ..., x_d, l_n) over the lattice in
        # C order: x_j's is the row's index along lattice axis j, and l_n's
        # the row's count c, whose level c / k is ``empirical_stdf_lattice``'s
        return [*np.unravel_index(np.arange(lo, hi), counts.shape), flat[lo:hi]]

    levels = [np.arange(0, m_top + 1, stride) / k] * d + [np.arange(flat.max() + 1) / k]
    surface_path = out / "surface.csv"
    header = [f"x{j + 1}" for j in range(d)] + ["l_n"]
    write_csv(surface_path, header, LevelTable(counts.size, levels, codes))
    return [surface_path], {}


# ----------------------------------------------------------------- converge


def cmd_converge(o: dict, out: Path) -> tuple[list, dict]:
    from . import harness
    from .models import parse_model, sup_bias_method
    from .reportio import write_csv

    n, d, T, delta, frozen_c = o["n"], o["d"], o["T"], o["delta"], o["frozen-c"]

    exp = harness.ExperimentConfig(
        model=parse_model(o["model"], d), n=n,
        k_schedule=tuple(o["k-schedule"]), T=T, delta=delta,
        trials=o["trials"], seed=o["seed"],
        grid_resolution=o["grid-resolution"], workers=o["workers"],
    )
    if frozen_c is not None:
        # coverage compares every k with the bound: check it before the trials
        for k in exp.k_schedule:
            harness.stdf_deviation_bound(k, d, T, delta, frozen_c)
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
    results = {"slope": report.slope, "bias_method": sup_bias_method(exp.model)}
    if not all(r.ok for r in report.trials):
        results["failed_trials"] = [{"k": r.k, "trial": r.trial, "note": r.note}
                                    for r in report.trials if not r.ok]
    if exp.grid_resolution is not None:
        results["discretization_bound"] = {
            k: harness.grid_slack(d, k, T, exp.grid_resolution) for k in exp.k_schedule}
    try:
        results["calibrated_C"] = harness.calibrate_constant(report)
    except (PreconditionError, ConfigurationError) as exc:
        results["calibrated_C"] = None
        results["calibration_note"] = str(exc)
    if frozen_c is not None:
        results["frozen_C"] = frozen_c
        results["coverage"] = harness.coverage_against_bound(report, frozen_c)
    return [trials_path, summary_path], results


# ----------------------------------------------------------------- bound


def cmd_bound(o: dict, out: Path) -> tuple[list, dict]:
    from . import concentration as conc
    from . import harness
    from .reportio import write_csv

    kind, delta, C = o["kind"], o["delta"], o["C"]
    bound_path = out / "bound.csv"

    if kind == "stdf":
        value = harness.stdf_deviation_bound(o["k"], o["d"], o["T"], delta, C,
                                             o["bias"])
        write_csv(bound_path, ["kind", "value"], [[kind, value]])
    elif kind == "vc-compare":
        rows = conc.bound_comparison(o["n-grid"], V=o["V"], p=o["p"], delta=delta,
                                     C=C)
        write_csv(
            bound_path,
            ["n", "low_mass_bound", "classical_bound", "ratio"],
            [[r["n"], r["low_mass_bound"], r["classical_bound"], r["ratio"]]
             for r in rows],
        )
    else:
        params = conc.BoundParams(n=o["n"], V=o["V"], p=o["p"], delta=delta, C=C)
        fn = {
            "vc": conc.low_mass_vc_bound,
            "vc-simple": conc.simplified_vc_bound,
            "vc-classical": conc.classical_vc_bound,
        }[kind]
        write_csv(bound_path, ["kind", "value"], [[kind, fn(params)]])
    return [bound_path], {}


# ----------------------------------------------------------------- rademacher


def cmd_rademacher(o: dict, out: Path) -> tuple[list, dict]:
    from . import concentration as conc
    from .models import parse_model
    from .reportio import write_csv

    seed, n, d, k, T = o["seed"], o["n"], o["d"], o["k"], o["T"]
    statistic, grid_res = o["statistic"], o["grid-resolution"]
    spec = conc.RectClassSpec(model=parse_model(o["model"], d), k=k, n=n, T=T)
    rows = []
    results: dict = {"p": spec.p}

    if statistic in ("rademacher", "both"):
        est = conc.relative_rademacher(
            spec, o["trials"], seed, grid_resolution=grid_res, workers=o["workers"],
        )
        for t, v in enumerate(est.values):
            rows.append([t, n, k, d, T, "", "relative_rademacher_sup", v])
        rows.append(["", n, k, d, T, "", "relative_rademacher_mean", est.mean])
        rows.append(["", n, k, d, T, "", "relative_rademacher_stderr", est.stderr])
        results["relative_rademacher"] = {
            "mean": est.mean, "stderr": est.stderr, "trials": o["trials"],
        }
    if statistic in ("separation", "both"):
        est_q = conc.pair_separation_complexity(spec, o["pairs"], seed)
        rows.append(["", n, k, d, T, "", "pair_separation_q", est_q.value])
        rows.append(["", n, k, d, T, "", "pair_separation_stderr", est_q.stderr])
        results["pair_separation"] = {
            "q": est_q.value, "stderr": est_q.stderr, "pairs": o["pairs"],
        }
    rows.append(["", n, k, d, T, "", "union_mass", spec.p])
    trials_path = out / "rademacher.csv"
    write_csv(
        trials_path,
        ["trial_id", "n", "k", "d", "T", "delta", "statistic_name", "value"],
        rows,
    )
    return [trials_path], results


# ----------------------------------------------------------------- classify


def cmd_classify(o: dict, out: Path) -> tuple[list, dict]:
    from . import classify as cls_mod
    from .models import parse_model
    from .reportio import write_csv
    from .rng import map_trials, substream
    from .samplers import check_sample_size

    seed, d, alpha, norm, trials = o["seed"], o["d"], o["alpha"], o["norm"], o["trials"]

    generator = cls_mod.LabeledGenerator(
        feature_model=parse_model("independence", d),
        rule=cls_mod.AxisClassifier(coord=0, threshold=o["rule-threshold"]),
        noise=o["noise"],
    )
    region = cls_mod.QuantileRegion(alpha=alpha, norm=norm)
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    rows = []
    results: dict = {}

    if o["mode"] == "rate":
        if o["family-size"] < d:
            raise ConfigurationError(f"--family-size must be >= --d = {d}, one "
                                     f"threshold per axis; got {o['family-size']}")
        family = cls_mod.axis_threshold_family(d, o["family-size"] // d)
        schedule = []
        for na in o["n-alpha-grid"]:
            n = na / alpha  # inf past the largest float, which no round() takes
            schedule.append((int(round(n)) if math.isfinite(n) else n, alpha))
        report = cls_mod.rate_experiment_classification(
            generator, family, schedule, trials, seed, norm=norm
        )
        for r in report.records:
            rows.append([r.trial, r.n, r.alpha, d, norm, "sup_risk_deviation",
                         r.sup_deviation])
        results["slope"] = report.slope
        results["medians"] = {str(k): v for k, v in report.medians.items()}
        results["family_size"] = len(family)
        family_path = out / "family.txt"
        family_path.write_text(family.serialize(), encoding="utf-8")
        summary_path = out / "classify_summary.csv"
        write_csv(
            summary_path,
            ["n", "alpha", "n_alpha", "median_sup_deviation"],
            [[n, a, n * a, report.medians[(n, a)]] for n, a in schedule],
        )
        outputs = [summary_path, family_path]
    else:
        n = o["n"]
        family = cls_mod.ClassifierFamily(
            members=(generator.rule, cls_mod.AxisClassifier(coord=1 % d, threshold=0.7)))
        cls_mod.require_analytic_oracle(generator, norm)
        check_sample_size(n, d)
        cls_mod.tail_count(n, alpha)
        # each sample drawn as the runner reaches its job, as in the rate mode
        checks = map_trials(cls_mod.risk_decomposition_check, (
            (generator.sample(n, substream(seed, "decomposition", t)), family, region,
             generator) for t in range(trials)), 1)
        for t, check in enumerate(checks):
            rows.append([t, n, alpha, d, norm, "decomposition_holds",
                         int(check.holds)])
            rows.append([t, n, alpha, d, norm, "lhs", check.lhs])
            rows.append([t, n, alpha, d, norm, "rhs", check.rhs])
        results["decomposition_holds"] = sum(check.holds for check in checks)
        results["trials"] = trials
        outputs = []

    trials_path = out / "classify_trials.csv"
    write_csv(
        trials_path,
        ["trial_id", "n", "alpha", "d", "norm", "statistic_name", "value"],
        rows,
    )
    outputs.append(trials_path)
    return outputs, results


# ----------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailvc",
        description="Tail dependence estimation and concentration experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in (
        ("simulate", "draw a synthetic sample to CSV"),
        ("estimate", "tabulate the empirical surface"),
        ("converge", "sup-deviation rate experiment"),
        ("bound", "evaluate a deviation bound"),
        ("rademacher", "relative complexity estimates"),
        ("classify", "rare-region classification experiments"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config file or manifest (flags win)")
        for opt in _SPECS[name]:
            sp.add_argument(f"--{opt.name}", help=opt.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    try:
        started = time.time()
        o = _options(name, args, _load_config(args.config))
        out = Path(o["out"])
        made = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"--out {out}: cannot create the directory: {exc.strerror or exc}"
            )
        try:
            # looked up at call time, so a wrapper bound to the module name runs
            outputs, results = globals()[f"cmd_{name}"](o, out)
        except BaseException:
            for path in made:  # a failed command leaves no empty directory of ours
                try:
                    path.rmdir()  # refused while the directory holds anything
                except OSError:
                    break
            raise
        from .reportio import write_manifest

        write_manifest(
            out / f"{name}_manifest.json", name, o, o.get("seed"),
            inputs=[o["data"]] if "data" in o else [], outputs=outputs,
            started=started, results=results,
        )
        print(outputs[-1])
        return EXIT_OK
    except TailvcError as exc:
        print(f"tailvc {name}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # numpy's message names the allocation
        print(f"tailvc {name}: does not fit in memory: {exc}", file=sys.stderr)
        return PreconditionError.exit_code
    except Exception as exc:  # internal
        print(f"tailvc {name}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
