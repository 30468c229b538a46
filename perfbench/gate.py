"""Correctness gate: data-file hashes, repeat agreement and the reference.

Manifests are never hashed: they carry ``duration_seconds``.  The recorded
reference hashes hold only for the numpy version stored next to them,
because numpy ``Generator`` streams may change between numpy versions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def reference_hashes(workload: str, seed: int, numpy_version: str,
                     path: Path = REFERENCE) -> tuple[dict[str, str] | None, str]:
    """Reference hashes that apply to this run, or None with the reason."""
    if seed != DEFAULT_SEED:
        return None, f"seed {seed} is not the reference seed {DEFAULT_SEED}"
    ref = load_reference(path)
    if ref["numpy"] != numpy_version:
        return None, f"numpy {numpy_version} differs from the reference's {ref['numpy']}"
    return ref["workloads"][workload], f"reference at seed {seed}, numpy {numpy_version}"
