"""CSV and manifest I/O.

All floats are written with ``repr``, the shortest representation that
round-trips exactly, so re-running a configuration reproduces output
files byte for byte.  CSVs are written and read in blocks of
``_BLOCK_LINES`` lines, in file order, so the text of a whole file or
column is never held at once.  A float table is formatted block by
block, column by column in row order; a column whose block repeats a
value (bit pattern, so ``-0.0`` stays apart from ``0.0``), such as a
lattice axis, formats each distinct value once and indexes it back.  A
table given as ``FloatBlocks`` is also formed a block at a time.
Sample CSVs are UTF-8, comma-separated, '.' decimal point, one
observation per line; a single header line is auto-detected on read by
a non-numeric first token.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import DataError
from .samplers import Sample

TOOL_VERSION = "0.1.0"

_BLOCK_LINES = 1 << 16


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(column: np.ndarray) -> list[str]:
    """``repr`` of every float in ``column``, in row order.

    When a value repeats, each distinct one is formatted once and indexed
    back; otherwise each is formatted where it stands.
    """
    values = np.ascontiguousarray(column, dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if len(distinct) == len(values):
        return list(map(repr, values.tolist()))
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


@dataclass(frozen=True)
class FloatBlocks:
    """A float table of ``rows`` rows, formed a block at a time.

    ``block(lo, hi)`` returns rows lo..hi-1 as a 2-d float array, so a
    table that is a function of its row index is never held whole.
    """

    rows: int
    block: Callable[[int, int], np.ndarray]

    def __len__(self) -> int:
        return self.rows


def _float_table_blocks(table: np.ndarray | FloatBlocks):
    """The text of ``table``, _BLOCK_LINES rows at a time."""
    for lo in range(0, len(table), _BLOCK_LINES):
        hi = min(lo + _BLOCK_LINES, len(table))
        block = table[lo:hi] if isinstance(table, np.ndarray) else table.block(lo, hi)
        width = block.shape[1]
        # field, separator, field, ... in row order: one join per block
        parts = [","] * (2 * block.size)
        for j, column in enumerate(block.T):
            parts[2 * j::2 * width] = _format_column(column)
        parts[2 * width - 1::2 * width] = ["\n"] * len(block)
        yield "".join(parts)


def _row_blocks(rows):
    """The text of the row lists ``rows``, _BLOCK_LINES rows at a time."""
    lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
    while text := "".join(islice(lines, _BLOCK_LINES)):
        yield text


def _write_blocks(path, header: list[str], blocks) -> None:
    """Write the header line, then each block of text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for text in blocks:
            f.write(text)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows``; a float table (a 2-d float array or
    ``FloatBlocks``) is formatted column-wise."""
    if isinstance(rows, FloatBlocks) or (
            isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f"):
        blocks = _float_table_blocks(rows)
    else:
        blocks = _row_blocks(rows)
    _write_blocks(path, header, blocks)


@contextmanager
def _reading(path):
    """Turn a failure to read ``path`` as UTF-8 text into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")


def _line_blocks(path):
    """The non-blank lines of ``path``, in file order, a block at a time.

    A block is cut from _BLOCK_LINES physical lines.  Lines are those of
    ``str.splitlines``, and a line is blank when it is all whitespace.
    """
    with _reading(path), open(path, encoding="utf-8") as f:
        while text := "".join(islice(f, _BLOCK_LINES)):
            lines = [ln for ln in text.splitlines() if ln.strip()]
            del text  # not held while the caller parses the block
            yield lines


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = chain.from_iterable(_line_blocks(path))
    header = next(lines, None)
    if header is None:
        raise DataError(f"{path}: empty CSV")
    return header.split(","), [ln.split(",") for ln in lines]


def write_sample_csv(sample: Sample, path) -> None:
    header = [f"x{j + 1}" for j in range(sample.d)]
    _write_blocks(path, header, _float_table_blocks(sample.values))


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
    field is not a float, or a field is not finite.  The file is decoded
    block by block, so a malformed line is reported before bytes in a
    later block that are not UTF-8.  Each block of lines is parsed in one
    ``float()`` pass; only a block that fails is rescanned line by line to
    name the line.
    """
    blocks, width, seen = [], None, 0  # seen: non-blank lines read
    for lines in _line_blocks(path):
        body = lines
        if seen == 0 and lines and not _is_number(lines[0].split(",")[0].strip()):
            body = lines[1:]  # the header
        first = seen + len(lines) - len(body) + 1  # line number of body[0]
        seen += len(lines)
        if not body:
            continue
        if width is None:
            width = body[0].count(",") + 1
        commas = np.fromiter(map(str.count, body, repeat(",")), dtype=np.int64,
                             count=len(body))
        ragged = np.flatnonzero(commas != width - 1)
        end = int(ragged[0]) if ragged.size else len(body)
        try:
            block = np.fromiter(map(float, ",".join(body[:end]).split(",")),
                                dtype=np.float64, count=end * width)
            ok = np.isfinite(block).all()
        except ValueError:
            ok = False
        if not ok:
            # the one-pass parse cannot say which line failed
            for i, line in enumerate(body[:end], start=first):
                _check_line(path, i, line)
        if end < len(body):
            raise DataError(f"{path}: line {first + end} has {commas[end] + 1} "
                            f"fields, expected {width}")
        blocks.append(block.reshape(end, width))
    if seen == 0:
        raise DataError(f"{path}: empty sample file")
    if width is None:
        raise DataError(f"{path}: no data rows")
    return Sample(np.concatenate(blocks), provenance=str(path))


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
    with _reading(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}")
