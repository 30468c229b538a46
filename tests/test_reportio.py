"""CSV and manifest round trips."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csv_text import read_csv
from traced_memory import traced_peak
from tailvc import __version__, reportio
from tailvc.errors import DataError
from tailvc.models import independence, logistic
from tailvc.reportio import (
    LevelTable,
    read_manifest,
    read_sample_csv,
    write_csv,
    write_manifest,
    write_sample_csv,
)
from tailvc.samplers import Sample, draw_sample


class TestSampleCsv:
    def test_roundtrip_exact(self, tmp_path):
        s = draw_sample(independence(3), 37, 5)
        path = tmp_path / "s.csv"
        write_sample_csv(s, path)
        back = read_sample_csv(path)
        assert np.array_equal(back.values, s.values)

    def test_header_autodetect(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n0.25,0.5\n1.0,2.0\n")
        back = read_sample_csv(path)
        assert back.values.tolist() == [[0.25, 0.5], [1.0, 2.0]]

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "nh.csv"
        path.write_text("0.25,0.5\n1.0,2.0\n")
        assert read_sample_csv(path).values.shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(DataError):
            read_sample_csv(path)

    def test_non_numeric_data_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("x1,x2\n0.1,oops\n")
        with pytest.raises(DataError):
            read_sample_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("0.1,0.2\n0.3\n", "line 2 has 1 fields, expected 2"),
        ("x1,x2\n0.1,0.2\n0.3,0.4,0.5\n", "line 3 has 3 fields, expected 2"),
        ("x1,x2\n0.1,oops\n", "line 2: could not convert string to float: 'oops'"),
        ("x1,x2\n0.1,0.2\n0.1,\n", "line 3: could not convert string to float: ''"),
        ("\nx1,x2\n\n0.1,0.2\n   \n0.3,bad\n",
         "line 3: could not convert string to float: 'bad'"),
        ("0.1,0.2\n\n0.3\n0.4,zz\n", "line 2 has 1 fields, expected 2"),
        ("0.1,0.2\n0.4,zz\n\n0.3\n",
         "line 2: could not convert string to float: 'zz'"),
        ("x1,x2\n", "no data rows"),
        ("\n  \n", "empty sample file"),
    ], ids=["ragged-short", "ragged-long", "non-numeric", "empty-field",
            "blank-lines-skipped", "ragged-first", "non-numeric-first",
            "header-only", "blank-file"])
    def test_error_contract(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            read_sample_csv(path)
        assert str(err.value) == f"{path}: {message}"
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("text,message", [
        ("x1,x2\n0.1,0.2\n0.3,inf\n", "line 3: non-finite value 'inf'"),
        ("nan,0.2\n0.3,0.4\n", "line 1: non-finite value 'nan'"),
        ("x1,x2\n\n0.1,-inf\n0.3\n", "line 2: non-finite value '-inf'"),
        ("x1,x2\n0.1,0.2\n0.3\n0.1,nan\n", "line 3 has 1 fields, expected 2"),
        ("x1,x2\n0.1,nan\n0.3,oops\n", "line 2: non-finite value 'nan'"),
        ("x1,x2\n0.1,oops\n0.3,nan\n",
         "line 2: could not convert string to float: 'oops'"),
    ], ids=["inf", "nan-headerless", "before-ragged", "after-ragged",
            "before-non-numeric", "after-non-numeric"])
    def test_non_finite_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "nf.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            read_sample_csv(path)
        assert str(err.value) == f"{path}: {message}"
        assert err.value.exit_code == 3

    def test_faults_are_reported_in_block_order(self, tmp_path, monkeypatch):
        # a bad line in block 1 comes before bytes in a later block that are
        # not UTF-8; the blocks are 6,400 characters, and the bad bytes lie
        # 16 KB in, past the text decoder's read-ahead for block 1
        monkeypatch.setattr(reportio, "_BLOCK_VALUES", 256)
        good, not_utf8 = b"0.5,0.5\n" * 2046, b"0.5,\xff\n"
        path = tmp_path / "two.csv"
        path.write_bytes(b"x1,x2\n0.1,oops\n" + good + not_utf8)
        with pytest.raises(DataError) as err:
            read_sample_csv(path)
        assert str(err.value) == f"{path}: line 2: could not convert string to float: 'oops'"
        path.write_bytes(b"x1,x2\n0.1,0.2\n" + good + not_utf8)
        with pytest.raises(DataError) as err:
            read_sample_csv(path)
        assert str(err.value).startswith(f"{path}: not UTF-8 text:")
        assert err.value.exit_code == 3

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 4)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             1e-05, 1e16]),
        ),
    ))
    def test_roundtrip_bit_exact(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "s.csv"
        write_sample_csv(Sample(values), path)
        back = read_sample_csv(path).values
        assert back.shape == values.shape
        assert np.array_equal(back.view(np.int64), values.view(np.int64))

    def test_byte_identical_rewrites(self, tmp_path):
        s = draw_sample(independence(2), 20, 9)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sample_csv(s, a)
        write_sample_csv(s, b)
        assert a.read_bytes() == b.read_bytes()


def oracle_read_sample(path):
    """read_sample_csv's contract, one line at a time over the whole text."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty sample file")
    try:
        float(lines[0].split(",")[0].strip())
        start = 0
    except ValueError:
        start = 1
    rows, width = [], None
    for i, line in enumerate(lines[start:], start=start + 1):
        fields = line.split(",")
        width = width or len(fields)
        if len(fields) != width:
            raise DataError(f"{path}: line {i} has {len(fields)} fields, expected {width}")
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}")
        for f, v in zip(fields, row):
            if not math.isfinite(v):
                raise DataError(f"{path}: line {i}: non-finite value {f!r}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


# Line ends include the non-newline breaks of str.splitlines; padding
# includes the whitespace that is no line break (\x1f and U+00A0).
PADS = st.sampled_from(["", " ", "\t", "\x1f", " \t", "\xa0"])
ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\u2028"])
NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# fields where float() and np.loadtxt could disagree: whitespace only one of
# them strips, underscores, non-ASCII digits, hex, spelled-out infinity,
# bare signs and points, comment and quote characters, NUL, overflow
DISAGREE = ["0.0\x1f", "1_0", "\u0661", "0x1p3", "Infinity", "+.5", "5.", "0.5#1",
            '"0.5"', "0.5\x00", "1e999"]
# any field the C parser may see: made only of the characters repr writes
REPR_CHARS = st.text(alphabet="0123456789.eE+-", max_size=8)
BAD = st.one_of(st.sampled_from(["oops", "", "1.0.0", "inf", "-inf", "nan", *DISAGREE]),
                REPR_CHARS)


@st.composite
def csv_line(draw, tokens, n):
    return ",".join(draw(PADS) + draw(tokens) + draw(PADS) for _ in range(n))


@st.composite
def sample_texts(draw):
    """Sample CSV text, clean or with blank, ragged and malformed lines."""
    width = draw(st.integers(1, 3))
    good = csv_line(NUMBERS, width)
    if draw(st.booleans()):
        ragged = st.sampled_from([w for w in (width - 1, width + 1) if w > 0])
        malformed = csv_line(BAD, width) | csv_line(st.one_of(NUMBERS, BAD), width)
        line = st.one_of(good, good, good, PADS, ragged.flatmap(
            lambda n: csv_line(NUMBERS, n)), malformed)
    else:
        line = good
    lines = draw(st.lists(line, max_size=24))
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"x{j + 1}" for j in range(width)))
    return "".join(ln + draw(ENDS) for ln in lines)


def same_as_oracle(path):
    """Assert that read_sample_csv gives the oracle's bits or its message."""
    try:
        expected = oracle_read_sample(path)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            read_sample_csv(path)
        assert str(err.value) == str(exc)
        assert err.value.exit_code == 3
        return
    got = read_sample_csv(path).values
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestSampleCsvAgainstOracle:
    @pytest.mark.parametrize("token", DISAGREE)
    @pytest.mark.parametrize("where", ["first-line", "later-block"])
    def test_parsers_disagree(self, tmp_path, monkeypatch, token, where):
        # blocks of 50 characters: a later block is one the C parser may take
        monkeypatch.setattr(reportio, "_BLOCK_VALUES", 2)
        good = ["0.25,0.5", "-0.0,1e-05"] * 8
        at = 0 if where == "first-line" else 11
        lines = good[:at] + [f"0.75,{token}", f"{token},0.125"] + good[at:]
        path = tmp_path / "d.csv"
        path.write_bytes(("x1,x2\n" + "\n".join(lines) + "\n").encode("utf-8"))
        same_as_oracle(path)

    def test_a_later_block_of_another_width_is_ragged(self, tmp_path, monkeypatch):
        # every line of the second block has 3 fields: clean text, the wrong width
        monkeypatch.setattr(reportio, "_BLOCK_VALUES", 1)
        path = tmp_path / "w.csv"
        path.write_text("x1,x2\n0.1,0.2\n" + "0.3,0.4,0.5\n" * 3 + "0.6,0.7\n")
        with pytest.raises(DataError) as err:
            read_sample_csv(path)
        assert str(err.value) == f"{path}: line 3 has 3 fields, expected 2"
        same_as_oracle(path)

    def test_line_breaks_the_byte_count_misses(self, tmp_path):
        # the array is sized from \n and \r, and grows for the other breaks
        path = tmp_path / "f.csv"
        path.write_text("x1,x2\n0.5,0.25\n"
                        + "".join(f"0.{i},0.{i}5\x0c" for i in range(1, 8)))
        assert read_sample_csv(path).values.shape == (8, 2)
        same_as_oracle(path)

    def test_clean_lines_after_the_first_are_parsed_in_c(self, tmp_path, monkeypatch):
        # the first data line sets the width; every block after it is clean
        monkeypatch.setattr(reportio, "_BLOCK_VALUES", 256)
        loadtxt, parsed = np.loadtxt, []

        def spy(*args, **kwargs):
            parsed.append(loadtxt(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", spy)
        values = np.random.default_rng(3).random((2000, 2))
        path = tmp_path / "c.csv"
        write_sample_csv(Sample(values), path)
        back = read_sample_csv(path).values
        assert np.array_equal(back.view(np.int64), values.view(np.int64))
        assert len(parsed) > 1
        assert sum(map(len, parsed)) == 2000 - 1

    @settings(max_examples=300, deadline=None)
    @given(text=sample_texts(), block=st.integers(1, 4))
    def test_same_bits_or_same_error(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("oracle") / "s.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reportio, "_BLOCK_VALUES", block)
            same_as_oracle(path)


class TestBlockMemory:
    """Memory follows the block, not the file or its width: 16 blocks peak
    as 2 do, and 32 columns as 2 do at the same number of values."""

    BLOCK = 8192  # values

    def peaks(self, tmp_path, blocks, width=2):
        rows = blocks * self.BLOCK // width
        sample = Sample(np.random.default_rng(blocks).random((rows, width)))
        path = tmp_path / f"s{blocks}x{width}.csv"
        written, _ = traced_peak(write_sample_csv, sample, path)
        read, back = traced_peak(read_sample_csv, path)
        # the parsed array grows with the file, and is held once; the work
        # beside it must not grow
        return written, read - back.values.nbytes

    def test_peak_follows_the_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reportio, "_BLOCK_VALUES", self.BLOCK)
        self.peaks(tmp_path, 1)  # first-call allocations stay out of the figures
        write2, read2 = self.peaks(tmp_path, 2)
        write16, read16 = self.peaks(tmp_path, 16)
        assert write16 < 1.5 * write2
        assert read16 < 1.5 * read2

    def test_peak_follows_values_not_width(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reportio, "_BLOCK_VALUES", self.BLOCK)
        self.peaks(tmp_path, 1)  # first-call allocations stay out of the figures
        for narrow, wide in zip(self.peaks(tmp_path, 8, 2), self.peaks(tmp_path, 8, 32)):
            assert max(narrow, wide) < 1.5 * min(narrow, wide)


class TestReadHoldsTheSampleOnce:
    """A read's traced peak stays within 1.3 times the array it returns."""

    def check(self, sample, path):
        write_sample_csv(sample, path)
        read_sample_csv(path)  # first-call allocations stay out of the figure
        peak, back = traced_peak(read_sample_csv, path)
        assert back.values.tobytes() == sample.values.tobytes()
        assert peak <= 1.3 * sample.values.nbytes

    def test_benchmark_seed_one_sample(self, tmp_path):
        # the 200,000 x 2 sample of the benchmark's simulate-estimate at seed 1
        sample = draw_sample(logistic(2.0, 2), 200_000, 1, ("uniform", "pareto(2)"))
        self.check(sample, tmp_path / "s1.csv")

    def test_wide_sample(self, tmp_path):
        sample = Sample(np.random.default_rng(32).random((65_536, 32)))
        self.check(sample, tmp_path / "wide.csv")


_ROWS_OF_3 = reportio._BLOCK_VALUES // 3  # rows per written block of 3 columns


class TestGenericCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "0.5"], ["2", "0.25"]]

    def test_bool_encoding(self, tmp_path):
        path = tmp_path / "b.csv"
        write_csv(path, ["flag"], [[True], [False]])
        _, rows = read_csv(path)
        assert [r[0] for r in rows] == ["1", "0"]

    def test_float_array_matches_row_list_bytes(self, tmp_path):
        values = [0.0, -0.0, 1e-05, 0.0001, 0.1, 1e+16, 5e-324, 0.1, -0.0, 1e-05,
                  2.5, 1 / 3]
        table = np.array(values).reshape(-1, 3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["p", "q", "r"], table)
        write_csv(b, ["p", "q", "r"], table.tolist())
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == (
            "p,q,r\n0.0,-0.0,1e-05\n0.0001,0.1,1e+16\n"
            "5e-324,0.1,-0.0\n1e-05,2.5,0.3333333333333333\n"
        )

    def test_repeated_values_are_formatted_once_across_blocks(self, tmp_path,
                                                               monkeypatch):
        # 100 blocks of 10 rows, each column taking the same 5 levels
        monkeypatch.setattr(reportio, "_BLOCK_VALUES", 20)
        calls = []
        monkeypatch.setattr(reportio, "repr", lambda v: calls.append(v) or repr(v),
                            raising=False)
        levels = [np.arange(5) / 8, -np.arange(5) / 8]
        table = LevelTable(1000, levels, lambda lo, hi: [np.arange(lo, hi) % 5] * 2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["p", "q"], table)
        assert len(calls) == 10
        write_csv(b, ["p", "q"], [[i % 5 / 8, -(i % 5) / 8] for i in range(1000)])
        assert a.read_bytes() == b.read_bytes()

    # block edges of a 3-column table
    @pytest.mark.parametrize("rows", [0, 1, _ROWS_OF_3, _ROWS_OF_3 + 1, 2 * _ROWS_OF_3 + 1])
    def test_level_table_matches_row_list_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        levels = [np.array([0.0, -0.0, 1e-05, 1 / 3]), np.arange(7) / 3,
                  np.array([5e-324, 1e+16, 2.5])]
        codes = [rng.integers(0, len(level), rows) for level in levels]
        table = LevelTable(rows, levels, lambda lo, hi: [c[lo:hi] for c in codes])
        body = [[level[c[i]] for level, c in zip(levels, codes)] for i in range(rows)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["p", "q", "r"], table)
        write_csv(b, ["p", "q", "r"], body)
        assert a.read_bytes() == b.read_bytes()

    def test_negative_zero_level_keeps_its_sign(self, tmp_path):
        path = tmp_path / "z.csv"
        codes = np.array([1, 0, 1])
        write_csv(path, ["z"], LevelTable(3, [np.array([0.0, -0.0])],
                                          lambda lo, hi: [codes[lo:hi]]))
        assert path.read_text() == "z\n-0.0\n0.0\n-0.0\n"

    def test_empty_float_array_writes_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["a", "b"], np.empty((0, 2)))
        assert path.read_text() == "a,b\n"

    # block edges of a 3-column table, and counts across many blocks
    @pytest.mark.parametrize("rows", [0, 1, _ROWS_OF_3, _ROWS_OF_3 + 1, 2 * _ROWS_OF_3 + 1,
                                      1 << 16, (1 << 16) + 1, (1 << 17) + 1])
    def test_block_writes_keep_the_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        table = rng.random((rows, 3))
        table[::3] = np.round(table[::3], 3)  # short and repeated values
        table[::7, 1] = -0.0
        expected = "\n".join(
            ["a,b,c", *(",".join(map(repr, row)) for row in table.tolist())]
        ) + "\n"
        for body in (table, table.tolist()):
            path = tmp_path / "t.csv"
            write_csv(path, ["a", "b", "c"], body)
            assert path.read_bytes() == expected.encode("utf-8")
        sample_path = tmp_path / "s.csv"
        write_sample_csv(Sample(table), sample_path)
        assert sample_path.read_bytes() == expected.replace(
            "a,b,c", "x1,x2,x3", 1).encode("utf-8")


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(
            path,
            "simulate",
            {"n": 10, "model": "independence"},
            seed=7,
            inputs=[],
            outputs=[tmp_path / "s.csv"],
            started=0.0,
            results={"note": 1},
        )
        m = read_manifest(path)
        assert m["subcommand"] == "simulate"
        assert m["seed"] == 7
        assert m["config"]["n"] == 10

    def test_version_is_pyproject_version(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        path = tmp_path / "m.json"
        write_manifest(path, "simulate", {}, seed=1, inputs=[], outputs=[], started=0.0)
        assert read_manifest(path)["version"] == __version__ == project["version"]

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            read_manifest(path)
