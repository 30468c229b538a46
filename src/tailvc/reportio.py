"""CSV and manifest I/O.

All floats are written with ``repr``, the shortest representation that
round-trips exactly, so re-running a configuration reproduces output
files byte for byte.  CSVs are written and read in blocks bounded by
``_BLOCK_VALUES`` values, in file order, so neither the text of a whole
file nor a block that grows with the table's width is ever held.  A
float array is formatted value by value, column by column in row order.
A ``LevelTable`` (``estimate``'s surface) is written from its levels and
codes: each level is formatted once, and every block indexes that text
with the codes of its rows.  Sample CSVs are UTF-8, comma-separated, '.'
decimal point, one observation per line; a single header line is
auto-detected on read by a non-numeric first token.  A sample block
made only of the characters ``repr`` writes is parsed in C by
``np.loadtxt``; any other block, and any block that parse rejects, is
parsed by ``float()``, which decides what is accepted and every message.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError
from .samplers import Sample

# values per CSV block: a written block holds max(1, _BLOCK_VALUES // width)
# rows, and a read block the text of _BLOCK_VALUES // 4 values at repr's
# longest (24 characters, as in -2.2250738585072014e-308) and their
# separators; a read holds a few copies of a block's text beside the sample
_BLOCK_VALUES = 1 << 14

# the characters of a sample CSV body as repr and the writer make it; only
# text made of these reaches the C parser, where it agrees with float()
_REPR_BYTES = b"0123456789.eE+-,\n"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class LevelTable:
    """A table of ``rows`` rows whose column j takes only the values
    ``levels[j]``, formed a block at a time.

    ``codes(lo, hi)`` returns, for rows lo..hi-1, one integer array per
    column indexing its levels, so a table that is a function of its row
    index is never held whole.
    """

    rows: int
    levels: list
    codes: Callable[[int, int], list]

    def __len__(self) -> int:
        return self.rows


def _lines(columns: list, rows: int) -> str:
    """The text of ``rows`` rows given as one list of field texts per column."""
    width = len(columns)
    # field, separator, field, ... in row order: one join per block
    parts = [","] * (2 * width * rows)
    for j, text in enumerate(columns):
        parts[2 * j::2 * width] = text
    parts[2 * width - 1::2 * width] = ["\n"] * rows
    return "".join(parts)


def _float_blocks(table: np.ndarray, step: int):
    """The text of the 2-d float array ``table``, ``step`` rows at a time."""
    for lo in range(0, len(table), step):
        columns = table[lo:lo + step].T.tolist()
        yield _lines([list(map(repr, column)) for column in columns], len(columns[0]))


def _level_blocks(table: LevelTable, step: int):
    """The text of ``table``, ``step`` rows at a time."""
    text = [np.array(list(map(_fmt, levels)), dtype=object) for levels in table.levels]
    for lo in range(0, len(table), step):
        hi = min(lo + step, len(table))
        yield _lines([t[c].tolist() for t, c in zip(text, table.codes(lo, hi))], hi - lo)


def _row_blocks(rows, step: int):
    """The text of the row lists ``rows``, ``step`` rows at a time."""
    lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
    while text := "".join(islice(lines, step)):
        yield text


def _write_blocks(path, header: list[str], rows) -> None:
    """Write the header line, then ``rows`` a block of at most _BLOCK_VALUES
    values (and at least one row) at a time; a 2-d float array or a
    ``LevelTable`` is formatted column-wise."""
    step = max(1, _BLOCK_VALUES // len(header))
    if isinstance(rows, LevelTable):
        blocks = _level_blocks(rows, step)
    elif isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        blocks = _float_blocks(rows, step)
    else:
        blocks = _row_blocks(rows, step)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for text in blocks:
            f.write(text)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows``: row lists, a 2-d float array or a
    ``LevelTable``."""
    _write_blocks(path, header, rows)


def write_sample_csv(sample: Sample, path) -> None:
    _write_blocks(path, [f"x{j + 1}" for j in range(sample.d)], sample.values)


@contextmanager
def _reading(path):
    """Turn a failure to read ``path`` as UTF-8 text into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")


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


def _parse_repr_block(text: str, width: int) -> np.ndarray | None:
    """The rows of ``text`` parsed in C, or None where ``float()`` must decide.

    Only text made of ``_REPR_BYTES`` is parsed.  On such text
    ``np.loadtxt`` and ``float()`` accept the same fields with the same
    bits; on other text they differ (``np.loadtxt`` strips the ``'\\x1f'``
    of ``'0.0\\x1f'``, which ``float()`` rejects, and ``float()`` reads
    ``'1_0'``, which ``np.loadtxt`` rejects).  A block ``np.loadtxt``
    rejects, of another width, or holding a non-finite value is left to
    ``float()``, which names the line.  Blank lines are skipped, so there
    is one row per non-blank line.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if data.translate(None, _REPR_BYTES) or data.isspace():
        return None  # other characters, or only line breaks (np.loadtxt would warn)
    try:
        # a line at a time off the bytes, not a list of every line
        block = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, ndmin=2,
                           encoding="ascii")
    except ValueError:
        return None
    if block.shape[1] != width or not np.isfinite(block).all():
        return None
    return block


def _line_bound(path) -> int:
    """An upper bound on the data rows of ``path``: one more than its line
    breaks under universal newlines (\\n, \\r and \\r\\n), counted on
    the bytes.  A \\r\\n split between two chunks counts twice."""
    lines = 1
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            lines += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == 10))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
    return lines


class _RowArray:
    """Float rows written into one array as they are parsed.

    The array is sized from ``bound`` when the first block gives its
    width, grown in place if a block does not fit (a line break that
    ``str.splitlines`` knows and the bound does not), and cut to the rows
    written in place at the end, so the rows are held once.
    """

    def __init__(self, bound: int):
        self.bound, self.values, self.filled = bound, None, 0

    def add(self, block: np.ndarray) -> None:
        end = self.filled + len(block)
        if self.values is None:
            self.values = np.empty((max(self.bound, end), block.shape[1]))
        elif end > len(self.values):
            self.values.resize((max(end, 2 * len(self.values)), block.shape[1]),
                               refcheck=False)
        self.values[self.filled:end] = block
        self.filled = end

    def result(self) -> np.ndarray:
        self.values.resize((self.filled, self.values.shape[1]), refcheck=False)
        return self.values


def read_sample_csv(path) -> Sample:
    """Read a sample CSV; the first malformed line, in file order, is reported.

    Line numbers count non-blank lines, the header included.  A line is
    malformed when its field count differs from the first data line's, a
    field is not a float, or a field is not finite.  The file is decoded
    block by block, so a malformed line is reported before bytes in a
    later block that are not UTF-8.  The file is read a line at a time up
    to the first data line, which sets the width, and then in blocks of
    25 * _BLOCK_VALUES // 4 characters and the rest of the line they end in.
    A block is parsed in C where ``_parse_repr_block`` can; any other
    block of lines is parsed in one ``float()`` pass, and only a block
    that fails is rescanned line by line to name the line.  Each block is
    written into one array sized from the file's line count, so the
    sample is held once.
    """
    width, seen = None, 0  # seen: non-blank lines read
    chars = 25 * _BLOCK_VALUES // 4
    with _reading(path), open(path, encoding="utf-8") as f:
        rows = _RowArray(_line_bound(path))
        while text := f.readline() if width is None else f.read(chars) + f.readline():
            if width is not None and (block := _parse_repr_block(text, width)) is not None:
                rows.add(block)
                seen += len(block)
                continue
            lines = [ln for ln in text.splitlines() if ln.strip()]
            del text  # not held while the block is parsed
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
            rows.add(block.reshape(end, width))
    if seen == 0:
        raise DataError(f"{path}: empty sample file")
    if width is None:
        raise DataError(f"{path}: no data rows")
    return Sample(rows.result())


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
        "version": __version__,
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
