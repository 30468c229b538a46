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
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigurationError


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
