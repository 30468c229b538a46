"""Deterministic derivation of per-task random streams.

Every stochastic routine takes a 64-bit master seed and derives child
generators through ``substream(master, *path)``, where the path mixes a
string label with integer indices (k value, trial number, ...).  The
derivation uses ``numpy.random.SeedSequence`` spawn keys, so

* identical (master, path) pairs give bit-identical streams on every
  platform and in every process, and
* distinct paths give independent streams, which makes trial-parallel
  execution agree with serial execution regardless of scheduling order.

String labels are folded to integers with CRC-32 (stable across runs,
unlike the built-in ``hash``).

The trial runner ``map_trials`` and the rate fit ``fit_loglog_slope`` serve
both the converge and the classify experiments; here a classify run
reaches them without loading the estimator modules.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError


def _key_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path integers must be >= 0, got {part}")
        return int(part)
    raise TypeError(f"unsupported stream path component: {part!r}")


def substream(master_seed: int, *path) -> np.random.Generator:
    """Return the generator for the derived stream (master_seed, *path)."""
    key = tuple(_key_part(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(ss)


def map_trials(trial, jobs, workers: int = 1) -> list:
    """``[trial(*job) for job in jobs]``, run by at most ``workers`` processes.

    ``jobs`` holds argument tuples.  Each job derives its own stream from
    the master seed and its key (``substream(seed, label, ..., t)``), so
    the results are the same, in job order, whatever the worker count or
    completion order.  One worker takes the jobs in turn from any
    iterable, so a generator may draw each job's sample as it is reached.
    With ``workers > 1``, ``jobs`` is a list, ``trial`` a module-level
    function, and the jobs must pickle.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) < 2:
        return [trial(*job) for job in jobs]
    # imported here: a serial run, and every other subcommand, never pays
    # for loading multiprocessing
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(min(workers, len(jobs))) as pool:
        return list(pool.map(trial, *zip(*jobs), chunksize=4))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    intercept: float


def fit_loglog_slope(xs, ys) -> SlopeFit:
    """Least-squares slope of log y against log x with its standard error."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise PreconditionError("slope fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise PreconditionError("slope fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    denom = np.sum((lx - lx.mean()) ** 2)
    if xs.size > 2:
        sigma2 = float(resid @ resid) / (xs.size - 2)
        stderr = math.sqrt(sigma2 / denom)
    else:
        stderr = float("nan")
    return SlopeFit(slope=float(slope), stderr=stderr, intercept=float(intercept))
