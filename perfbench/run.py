"""tailvc benchmark: end-to-end CLI metrics, or a per-layer trace.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from anywhere; tailvc is always imported from the ``src`` directory of
the checkout this file sits in.  One workload at a time, one child process
at a time.

--trace 0  times ``python3 -m tailvc.cli ...`` child processes: the median
           wall and CPU time of a repeat, the peak RSS of every child, and
           the set-up time of ``tailvc <subcommand> --help``.
--trace 1  runs ``tailvc.cli.main(argv)`` in a child process under the
           outside-in tracer, alternating with untraced runs of the same
           call, and reports per-layer self times, counters and the
           tracing overhead.

Every data file is hashed: repeats must agree byte for byte, traced and
untraced runs must agree, and at the reference seed the hashes must equal
``reference.json``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when the gate passed, and 2 when there is no tailvc source tree
to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"

SETUP_ROUNDS = 5  # at least this many timed --help rounds; set-up time is their median
MIN_REPEATS = 3  # end-to-end repeats even when --seconds is shorter
START_NO_REPEAT_AFTER_S = 120.0
CHILD_DEADLINE_S = 170.0  # every child is killed by then; the contract is 180 s

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

WORKERS_REASON = (
    "every run uses --workers 1: on two shared vCPUs converge with 10 trials per k "
    "spread 3.96-5.59 s over three runs at --workers 2 against 7.92-8.52 s at one "
    "worker, so a parallel wall clock is not steady; rademacher and classify ignore "
    "--workers today, and pinning it fixes their load once they honour it"
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_per_sample"):
        return "ratio"
    return "count"


# ----------------------------------------------------------------- children


@dataclass
class Proc:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # single-threaded BLAS, like --workers 1: a steady load on shared CPUs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("TAILVC_OUT", None)
    return env


def run_child(argv: list[str], env: dict, timeout: float, stderr_path: Path) -> Proc:
    """Run one child to completion; time it and read its rusage via wait4.

    The child is killed when ``timeout`` passes or this process is
    interrupted; either way it is reaped before this function returns.
    """
    guard = threading.Lock()
    exited = False

    def kill():
        with guard:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(timeout, kill)
    timer.start()
    finished = False
    try:
        # wait without reaping, so the pid cannot be reused before the timer stops
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        finished = True
    finally:
        with guard:
            exited = True
        timer.cancel()
        if not finished:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        exit=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


# ----------------------------------------------------------------- one workload


class Bench:
    """One workload at one seed: runs children, applies the gate, keeps the tally."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path,
                 check_reference: bool = True):
        self.workload, self.seed, self.size, self.workdir = workload, seed, size, workdir
        self.started = time.monotonic()
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_hashes: dict[str, str] = {}
        self.reference, self.reference_note = (
            gate.reference_hashes(workload, seed, np.__version__)
            if check_reference and size == "full"
            else (None, f"no reference at size {size}")
        )
        self._run_ids = 0

    def _child(self, argv: list[str]) -> Proc:
        timeout = max(1.0, self.started + CHILD_DEADLINE_S - time.monotonic())
        return run_child(argv, self.env, timeout, self.workdir / "stderr.log")

    def _tally(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def _fail_traced(self, problems: list[str]):
        """Count a failure found after the traced runs were tallied, once."""
        if problems:
            self.failed = min(self.failed + 1, self.attempted)
            self.problems.extend(f"trace: {p}" for p in problems)

    def setup_round(self) -> float:
        """Summed ``--help`` wall time of each subcommand of the workload."""
        total = 0.0
        for sub in dict.fromkeys(c.subcommand for c in self.commands(self.workdir)):
            proc = self._child([sys.executable, "-m", "tailvc.cli", sub, "--help"])
            self._tally(f"{sub} --help", [] if proc.exit == 0 else
                        [f"exit {proc.exit}: {proc.stderr.strip()}"])
            total += proc.wall_s
        return total

    def commands(self, out: Path) -> list[workloads.Command]:
        return workloads.commands(self.workload, self.seed, out, self.size)

    def repeat(self, index: int, trace: int | None = None) -> list[tuple[Proc, dict]]:
        """Run the workload's commands once into a fresh directory and gate them.

        ``trace`` None runs ``python3 -m tailvc.cli``; 0 or 1 runs
        ``traced_cli.py`` with the tracer off or on, and pairs each Proc
        with the record that script wrote.
        """
        out = self.workdir / f"rep{index}"
        out.mkdir()
        results = []
        try:
            for cmd in self.commands(out):
                record = {}
                if trace is None:
                    proc = self._child([sys.executable, "-m", "tailvc.cli", *cmd.argv])
                else:
                    self._run_ids += 1
                    result_json = self.workdir / "record.json"
                    proc = self._child([
                        sys.executable, str(HERE / "traced_cli.py"), "--trace", str(trace),
                        "--run-id", str(self._run_ids), str(result_json), "--", *cmd.argv,
                    ])
                    if result_json.is_file():
                        record = json.loads(result_json.read_text(encoding="utf-8"))
                        result_json.unlink()
                problems = self._gate(cmd, out, index, proc)
                if trace is not None and proc.exit == 0 and not record:
                    problems.append("traced_cli.py wrote no record")
                self._tally(" ".join(cmd.argv[:1]) + f" (repeat {index})", problems)
                results.append((proc, record))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return results

    def _gate(self, cmd: workloads.Command, out: Path, index: int, proc: Proc) -> list[str]:
        problems = []
        if proc.exit != 0:
            problems.append(f"exit {proc.exit}: {proc.stderr.strip()}")
        for name in cmd.outputs:
            path = out / name
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            digest = gate.sha256(path)
            first = self.first_hashes.setdefault(name, digest)
            if first == digest and index == 0:
                # later repeats must hash equal, so checking one suffices
                problem = workloads.check_output(self.workload, self.size, path)
                if problem:
                    problems.append(problem)
            if digest != first:
                problems.append(f"{name} differs from the first repeat")
            if self.reference is not None and digest != self.reference.get(name):
                problems.append(f"{name} differs from the {self.reference_note}")
        return problems

    def _loop(self, seconds: float, minimum: int, body):
        """Call body(i) until ``seconds`` would be exceeded, at least ``minimum`` times."""
        start = time.monotonic()
        last = 0.0
        i = 0
        while i < minimum or time.monotonic() - start + last <= seconds:
            if time.monotonic() - self.started > START_NO_REPEAT_AFTER_S:
                break
            began = time.monotonic()
            body(i)
            last = time.monotonic() - began
            i += 1

    def end_to_end(self, seconds: float) -> dict[str, float]:
        self.setup_round()  # warms the bytecode cache; not timed
        setups, walls, cpus, rss = [], [], [], []

        def body(i):
            # set-up rounds are spread over the run, not bunched at its start
            setups.append(self.setup_round())
            procs = [p for p, _ in self.repeat(i)]
            walls.append(sum(p.wall_s for p in procs))
            cpus.append(sum(p.cpu_s for p in procs))
            rss.append(max(p.rss_mb for p in procs))

        self._loop(seconds, MIN_REPEATS, body)
        while len(setups) < SETUP_ROUNDS:
            setups.append(self.setup_round())
        return {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(rss),
            "setup_s": statistics.median(setups),
        }

    def trace(self, seconds: float) -> dict[str, float]:
        """Alternate untraced and traced in-process runs; report per-layer metrics."""
        layers, traced_walls, untraced_walls, self_sums = [], [], [], []

        def body(pair):
            for mode in ((0, 1) if pair % 2 == 0 else (1, 0)):
                results = self.repeat(2 * pair + mode, trace=mode)
                records = [r for _, r in results if r]
                if len(records) != len(results):
                    return
                wall = sum(r["wall_s"] for r in records)
                if not mode:
                    untraced_walls.append(wall)
                    continue
                traced_walls.append(wall)
                summary = tracer.summarize([(r["spans"], r["counters"]) for r in records])
                layers.append(summary)
                self_sums.append(sum(v for k, v in summary.items() if k.endswith(".self_s")))

        # two pairs at least, so that counters are always compared across repeats
        self._loop(seconds, 2, body)
        if not layers or not untraced_walls:
            self._fail_traced(["no complete traced and untraced run"])
            return {}
        out = dict(layers[0])
        problems = []
        for name in out:
            if name.endswith(".self_s"):
                out[name] = statistics.median(s[name] for s in layers)
            elif any(s[name] != out[name] for s in layers):
                problems.append(f"{name} differs between traced repeats")
        overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
        for wall, self_sum in zip(traced_walls, self_sums):
            if abs(wall - self_sum) > abs(overhead) + 1e-3:
                problems.append(f"self times sum to {self_sum:.4f} s, traced wall is "
                                f"{wall:.4f} s, overhead {overhead:.4f} s")
        self._fail_traced(problems)
        out.update({
            "trace.traced_wall_s": statistics.median(traced_walls),
            "trace.untraced_wall_s": statistics.median(untraced_walls),
            "trace.overhead_s": overhead,
            "trace.self_sum_s": statistics.median(self_sums),
            "trace.repeats": len(traced_walls),
        })
        return out


def _remove(workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORKDIR.rmdir()  # succeeds only when no other run still uses it
    except OSError:
        pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Result object of one workload: correct, attempted, failed, metrics, problems."""
    workdir = WORKDIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(workload, seed, size, workdir)
    try:
        values = bench.trace(seconds) if trace else bench.end_to_end(seconds)
    finally:
        _remove(workdir)
    unit = per_layer_unit if trace else E2E_UNITS.__getitem__
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()},
        "problems": bench.problems,
        "reference": bench.reference_note if bench.reference is not None
        else f"not checked: {bench.reference_note}",
    }


# ----------------------------------------------------------------- provenance


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # never search above the checkout
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tailvc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "tailvc_commit": _git_commit(),
        "tailvc_src_sha256": _source_digest(),
        "workers": 1,
        "workers_reason": WORKERS_REASON,
    }


# ----------------------------------------------------------------- entry point


def record_reference() -> int:
    """Write reference.json: data-file hashes of each workload at the reference seed."""
    hashes = {}
    for workload in workloads.SIZES:
        workdir = WORKDIR / f"reference-{os.getpid()}"
        workdir.mkdir(parents=True)
        bench = Bench(workload, gate.DEFAULT_SEED, "full", workdir, check_reference=False)
        try:
            bench.repeat(0)
        finally:
            _remove(workdir)
        if bench.failed:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        hashes[workload] = dict(sorted(bench.first_hashes.items()))
    ref = {"seed": gate.DEFAULT_SEED, "numpy": np.__version__,
           "python": platform.python_version(), "workloads": hashes}
    gate.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    print(gate.REFERENCE)
    return 0


def _print_result(workload: str, result: dict, trace: bool):
    for name, m in result["metrics"].items():
        if not trace or m["value"]:
            print(f"{workload:<18} {name:<46} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"{workload:<18} {'failed_frac':<46} {frac:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    print(f"{workload:<18} reference hashes: {result['reference']}")
    for problem in result["problems"]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.SIZES, "all"])
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json at the reference seed and exit")
    args = parser.parse_args(argv)

    if not (SRC / "tailvc" / "cli.py").is_file():
        print(f"perfbench: no tailvc source tree at {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    print("machine " + json.dumps(machine_block()))
    names = list(workloads.SIZES) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_result(name, results[name], bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
