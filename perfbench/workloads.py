"""The four benchmark workloads, their expected outputs and output checks.

Each workload is a list of tailvc command lines.  Every stochastic command
takes the benchmark's seed as ``--seed``; ``converge``, ``rademacher`` and
``classify`` always run with ``--workers 1`` (see README.md for why).
``full`` is the measured size; ``tiny`` exists for the smoke tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# why each workload exists: BENCHMARK.json and README.md
SIZES = {
    "converge-logistic": {
        "full": {"n": 200_000, "ks": (50, 100, 200, 400, 800), "trials": 4},
        "tiny": {"n": 2_000, "ks": (10, 20), "trials": 2},
    },
    "rademacher-dense": {
        "full": {"n": 200_000, "k": 2000, "trials": 4, "pairs": 100_000},
        "tiny": {"n": 2_000, "k": 50, "trials": 2, "pairs": 1_000},
    },
    "simulate-estimate": {
        "full": {"n": 200_000, "k": 250},
        "tiny": {"n": 2_000, "k": 20},
    },
    "classify-rate": {
        "full": {"grid": (100, 400, 1600, 6400), "trials": 20, "family": 20},
        "tiny": {"grid": (10, 20), "trials": 2, "family": 4},
    },
}

T = 2.0
D = 2
ALPHA = 0.1


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def commands(workload: str, seed: int, out: Path, size: str = "full") -> list[Command]:
    """The tailvc command lines of one repeat, writing into ``out``."""
    p = SIZES[workload][size]
    common = ("--seed", str(seed), "--out", str(out))
    if workload == "converge-logistic":
        return [Command(
            ("converge", "--model", "logistic(2)", "--n", str(p["n"]), "--d", str(D),
             "--k-schedule", _csv_list(p["ks"]), "--T", str(T), "--delta", "0.05",
             "--trials", str(p["trials"]), "--workers", "1") + common,
            ("trials.csv", "summary.csv"),
        )]
    if workload == "rademacher-dense":
        return [Command(
            ("rademacher", "--model", "uniform", "--n", str(p["n"]), "--d", str(D),
             "--k", str(p["k"]), "--T", str(T), "--statistic", "both",
             "--trials", str(p["trials"]), "--pairs", str(p["pairs"]),
             "--workers", "1") + common,
            ("rademacher.csv",),
        )]
    if workload == "simulate-estimate":
        return [
            Command(
                ("simulate", "--model", "logistic(2)", "--n", str(p["n"]), "--d", str(D),
                 "--margins", "uniform,pareto(2)") + common,
                ("sample.csv",),
            ),
            Command(
                ("estimate", "--data", str(out / "sample.csv"), "--k", str(p["k"]),
                 "--T", str(T), "--out", str(out)),
                ("surface.csv",),
            ),
        ]
    if workload == "classify-rate":
        return [Command(
            ("classify", "--mode", "rate", "--alpha", str(ALPHA),
             "--n-alpha-grid", _csv_list(p["grid"]), "--trials", str(p["trials"]),
             "--family-size", str(p["family"]), "--workers", "1") + common,
            ("classify_trials.csv", "classify_summary.csv", "family.txt"),
        )]
    raise KeyError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ output checks


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]} != {header}")
    return rows[1:]


def _numbers(path: Path, header: list[str]) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n").split(",")
    if first != header:
        raise ValueError(f"header {first} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _expect(cond: bool, what: str):
    if not cond:
        raise ValueError(what)


def _finite_nonneg(values, what: str):
    vals = [float(v) for v in values]
    _expect(all(math.isfinite(v) and v >= 0 for v in vals), f"{what} not finite >= 0")
    return vals


LONG = ["trial_id", "n", "k", "d", "T", "delta", "statistic_name", "value"]


def _by_stat(rows) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for row in rows:
        out.setdefault(row[6], []).append(row[7])
    return out


def _check_trials(path, p):
    stats = _by_stat(_rows(path, LONG))
    _expect(set(stats) == {"sup_stdf_deviation", "order_stat_event"},
            f"statistics {sorted(stats)}")
    sup = _finite_nonneg(stats["sup_stdf_deviation"], "sup_stdf_deviation")
    _expect(len(sup) == len(p["ks"]) * p["trials"], f"{len(sup)} sup rows")
    _expect(set(stats["order_stat_event"]) <= {"0", "1"}, "order_stat_event not 0/1")


def _check_summary(path, p):
    rows = _rows(path, ["k", "trials_ok", "median", "upper_quantile", "bias_T", "bias_2T"])
    _expect([int(r[0]) for r in rows] == list(p["ks"]), "k column")
    _expect(all(int(r[1]) == p["trials"] for r in rows), "trials_ok column")
    _finite_nonneg([r[2] for r in rows], "median")


def _check_rademacher(path, p):
    stats = _by_stat(_rows(path, LONG))
    sups = _finite_nonneg(stats.get("relative_rademacher_sup", []), "rademacher sup")
    _expect(len(sups) == p["trials"] and min(sups) > 0, f"{len(sups)} positive sups")
    mass = float(stats["union_mass"][0])
    _expect(0 < mass <= 1, f"union mass {mass}")
    q = float(stats["pair_separation_q"][0])
    _expect(0 <= q <= 1, f"pair separation {q}")


def _check_classify_trials(path, p):
    rows = _rows(path, ["trial_id", "n", "alpha", "d", "norm", "statistic_name", "value"])
    _expect(len(rows) == len(p["grid"]) * p["trials"], f"{len(rows)} trial rows")
    _expect({r[5] for r in rows} == {"sup_risk_deviation"}, "statistic names")
    _finite_nonneg([r[6] for r in rows], "sup_risk_deviation")


def _check_classify_summary(path, p):
    rows = _rows(path, ["n", "alpha", "n_alpha", "median_sup_deviation"])
    _expect(len(rows) == len(p["grid"]), f"{len(rows)} summary rows")
    _finite_nonneg([r[3] for r in rows], "median_sup_deviation")


def _check_family(path, p):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    _expect(len(lines) == (p["family"] // D) * D, f"{len(lines)} family members")
    _expect(all(len(ln.split(",")) == 3 for ln in lines), "member is not coord,thr,sign")


def _check_sample(path, p):
    x = _numbers(path, [f"x{j + 1}" for j in range(D)])
    _expect(x.shape == (p["n"], D), f"sample shape {x.shape}")
    _expect(bool(np.isfinite(x).all()), "non-finite sample value")


def _check_surface(path, p):
    s = _numbers(path, [f"x{j + 1}" for j in range(D)] + ["l_n"])
    m = math.floor(p["k"] * T)
    _expect(s.shape == ((m + 1) ** D, D + 1), f"surface shape {s.shape}")
    x, ln = s[:, :D], s[:, D]
    # at lattice points the rank estimator lies in [max_j x_j, sum_j x_j]
    tol = 1e-9
    _expect(bool(np.all(ln >= x.max(axis=1) - tol)), "l_n below max_j x_j")
    _expect(bool(np.all(ln <= x.sum(axis=1) + tol)), "l_n above sum_j x_j")


CHECKS = {
    "trials.csv": _check_trials,
    "summary.csv": _check_summary,
    "rademacher.csv": _check_rademacher,
    "classify_trials.csv": _check_classify_trials,
    "classify_summary.csv": _check_classify_summary,
    "family.txt": _check_family,
    "sample.csv": _check_sample,
    "surface.csv": _check_surface,
}


def check_output(workload: str, size: str, path: Path) -> str | None:
    """Problem found in one data file, or None when it passes."""
    try:
        CHECKS[path.name](path, SIZES[workload][size])
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"{path.name}: {exc}"
    return None
