"""CSV and manifest I/O.

All floats are written with ``repr``, the shortest representation that
round-trips exactly, so re-running a configuration reproduces output
files byte for byte.  Float tables and samples are written column by
column: each distinct float (bit pattern, so ``-0.0`` stays apart from
``0.0``) is formatted once with ``repr`` and indexed back out, so the
output is the ``repr`` bytes.  Sample CSVs are UTF-8, comma-separated,
'.' decimal point, one observation per line; a single header line is
auto-detected on read by a non-numeric first token.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, is_dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .errors import DataError
from .samplers import Sample

TOOL_VERSION = "0.1.0"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(column: np.ndarray) -> list[str]:
    """``repr`` of every float in ``column``, one ``repr`` call per distinct value."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


_BLOCK_LINES = 1 << 16


def _write_lines(path, header: list[str], body) -> None:
    """Write the header line, then ``body`` in blocks of _BLOCK_LINES lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(body)
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        while block := list(islice(lines, _BLOCK_LINES)):
            f.write("\n".join(block) + "\n")


def _float_table_lines(table: np.ndarray):
    return map(",".join, zip(*(_format_column(col) for col in table.T)))


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows``; a 2-d float array is formatted column-wise."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        body = _float_table_lines(rows)
    else:
        body = (",".join(_fmt(v) for v in row) for row in rows)
    _write_lines(path, header, body)


def read_text(path) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read is a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    text = read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty CSV")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def write_sample_csv(sample: Sample, path) -> None:
    header = [f"x{j + 1}" for j in range(sample.d)]
    _write_lines(path, header, _float_table_lines(sample.values))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _check_line(path, i: int, line: str) -> None:
    """Raise the DataError naming line ``i`` if a field is not a finite float."""
    fields = line.split(",")
    try:
        row = [float(f) for f in fields]
    except ValueError as exc:
        raise DataError(f"{path}: line {i}: {exc}")
    for f, v in zip(fields, row):
        if not math.isfinite(v):
            raise DataError(f"{path}: line {i}: non-finite value {f!r}")


def read_sample_csv(path) -> Sample:
    """Read a sample CSV; the first malformed line, in file order, is reported.

    Line numbers count non-blank lines, the header included.  A line is
    malformed when its field count differs from the first data line's, a
    field is not a float, or a field is not finite.
    """
    text = read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty sample file")
    first_token = lines[0].split(",")[0].strip()
    start = 0 if _is_number(first_token) else 1
    body = lines[start:]
    if not body:
        raise DataError(f"{path}: no data rows")
    commas = np.fromiter(map(str.count, body, repeat(",")), dtype=np.int64,
                         count=len(body))
    ragged = np.flatnonzero(commas != commas[0])
    end = int(ragged[0]) if ragged.size else len(body)
    width = int(commas[0]) + 1
    try:
        values = np.fromiter(map(float, ",".join(body[:end]).split(",")),
                             dtype=np.float64, count=end * width).reshape(end, width)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        # the one-pass parse cannot say which line failed
        for i, line in enumerate(body[:end], start=start + 1):
            _check_line(path, i, line)
    if end < len(body):
        i = start + end + 1
        raise DataError(
            f"{path}: line {i} has {commas[end] + 1} fields, expected {width}"
        )
    return Sample(values, provenance=str(path))


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_manifest(
    path,
    subcommand: str,
    config: dict,
    seed: int,
    inputs: list,
    outputs: list,
    started: float,
    results: dict | None = None,
) -> None:
    """Write the reproducibility manifest shipped next to every output."""
    manifest = {
        "tool": "tailvc",
        "version": TOOL_VERSION,
        "subcommand": subcommand,
        "seed": int(seed) if seed is not None else None,
        "config": _jsonable(config),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "duration_seconds": round(time.time() - started, 3),
        "results": _jsonable(results or {}),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def read_manifest(path) -> dict:
    """The JSON value in ``path``; unreadable or malformed JSON is a DataError."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}")
