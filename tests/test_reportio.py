"""CSV and manifest round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailvc import DataError, GeneratorSpec, Sample, draw_sample, independence
from tailvc.reportio import (
    _BLOCK_LINES,
    read_csv,
    read_manifest,
    read_sample_csv,
    write_csv,
    write_manifest,
    write_sample_csv,
)


class TestSampleCsv:
    def test_roundtrip_exact(self, tmp_path):
        s = draw_sample(GeneratorSpec(model=independence(3), n=37, d=3, seed=5))
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
        s = draw_sample(GeneratorSpec(model=independence(2), n=20, d=2, seed=9))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sample_csv(s, a)
        write_sample_csv(s, b)
        assert a.read_bytes() == b.read_bytes()


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

    def test_empty_float_array_writes_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["a", "b"], np.empty((0, 2)))
        assert path.read_text() == "a,b\n"

    @pytest.mark.parametrize("rows", [0, 1, _BLOCK_LINES, _BLOCK_LINES + 1,
                                      2 * _BLOCK_LINES + 1])
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

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            read_manifest(path)
