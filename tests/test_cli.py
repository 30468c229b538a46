"""Command-line surface: smoke runs, determinism, exit codes, manifests."""

import hashlib
import json

import numpy as np
import pytest

from csv_text import read_csv
from rank_oracles import exceedance_count
from tailvc.cli import _SPECS, main
from tailvc.empirical import build_ranks, lattice_index
from tailvc.reportio import read_manifest, read_sample_csv


def run(args):
    return main([str(a) for a in args])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_distinct_sample(path, n=50):
    """A two-column CSV with no ties: i and 7 i mod n, a permutation of 0..n-1."""
    path.write_text("x1,x2\n" + "".join(f"{i},{7 * i % n}\n" for i in range(n)))


class TestSimulate:
    def test_smoke_and_line_count(self, tmp_path):
        out = tmp_path / "o"
        code = run(["simulate", "--model", "independence", "--n", 100, "--d", 2,
                    "--seed", 1, "--out", out])
        assert code == 0
        lines = (out / "sample.csv").read_text().strip().splitlines()
        assert len(lines) == 101  # header + 100 observations

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--model", "logistic(2)", "--n", 50, "--d", 2,
                        "--seed", 42, "--out", out]) == 0
        assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--model", "independence", "--n", 10, "--d", 2,
                    "--out", tmp_path])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_model_is_usage_error(self, tmp_path):
        code = run(["simulate", "--model", "weibull", "--n", 10, "--d", 2,
                    "--seed", 1, "--out", tmp_path])
        assert code == 2

    def test_manifest_replay_reproduces_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--model", "comonotone", "--n", 30, "--d", 3,
                    "--seed", 7, "--out", a]) == 0
        manifest = a / "simulate_manifest.json"
        assert run(["simulate", "--config", manifest, "--out", b]) == 0
        assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAILVC_OUT", str(tmp_path / "envout"))
        assert run(["simulate", "--model", "independence", "--n", 5, "--d", 1,
                    "--seed", 3]) == 0
        assert (tmp_path / "envout" / "sample.csv").exists()


class TestEstimate:
    def test_comonotone_surface_is_lattice_max(self, tmp_path):
        sim, est = tmp_path / "sim", tmp_path / "est"
        run(["simulate", "--model", "comonotone", "--n", 200, "--d", 2,
             "--seed", 11, "--out", sim])
        code = run(["estimate", "--data", sim / "sample.csv", "--k", 10,
                    "--T", 2.0, "--out", est])
        assert code == 0
        header, rows = read_csv(est / "surface.csv")
        assert header == ["x1", "x2", "l_n"]
        k = 10
        for row in rows:
            x1, x2, ln = map(float, row)
            assert ln == pytest.approx(
                max(np.floor(k * x1), np.floor(k * x2)) / k, abs=1e-12
            )

    def test_origin_row_zero_and_monotone_axes(self, tmp_path):
        sim, est = tmp_path / "sim", tmp_path / "est"
        run(["simulate", "--model", "independence", "--n", 300, "--d", 2,
             "--seed", 12, "--out", sim])
        run(["estimate", "--data", sim / "sample.csv", "--k", 15, "--T", 1.5,
             "--out", est])
        _, rows = read_csv(est / "surface.csv")
        vals = {}
        for row in rows:
            x1, x2, ln = map(float, row)
            vals[(round(x1 * 15), round(x2 * 15))] = ln
        assert vals[(0, 0)] == 0.0
        side = max(m for m, _ in vals) + 1
        for m1 in range(side - 1):
            for m2 in range(side):
                assert vals[(m1, m2)] <= vals[(m1 + 1, m2)] + 1e-12
                assert vals[(m2, m1)] <= vals[(m2, m1 + 1)] + 1e-12

    @pytest.mark.parametrize("model,d,k,T,stride", [
        ("logistic(2)", 2, 15, 2.0, None),
        ("logistic(2)", 2, 15, 2.0, 2),
        ("independence", 3, 10, 2.0, 3),
    ], ids=["d2-full-lattice", "d2-strided", "d3-strided"])
    def test_surface_matches_cell_by_cell_reference(self, tmp_path, model, d, k, T,
                                                    stride):
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert run(["simulate", "--model", model, "--n", 300, "--d", d,
                    "--seed", 13, "--out", sim]) == 0
        args = ["estimate", "--data", sim / "sample.csv", "--k", k, "--T", T,
                "--out", est]
        if stride is not None:
            args += ["--grid-stride", stride]
        assert run(args) == 0
        # reference: one row per lattice cell in C order, each value repr'd
        values = read_sample_csv(sim / "sample.csv").values
        axis = np.arange(0, int(lattice_index(k, T)) + 1, stride or 1)
        mesh = np.meshgrid(*[axis] * d, indexing="ij")
        lines = [",".join([f"x{j + 1}" for j in range(d)] + ["l_n"])]
        for idx in np.ndindex(mesh[0].shape):
            m = [mesh[j][idx] for j in range(d)]
            point = [mj / k for mj in m] + [exceedance_count(values, m) / k]
            lines.append(",".join(repr(float(v)) for v in point))
        expected = "\n".join(lines) + "\n"
        assert (est / "surface.csv").read_text() == expected

    @pytest.mark.parametrize("d,extra", [(2, []), (2, ["--grid-stride", 7]),
                                         (2, ["--jitter-seed", 3]), (1, [])],
                             ids=["d2", "d2-stride-7", "d2-jitter-3", "d1"])
    def test_surface_blocks_match_the_whole_surface(self, tmp_path, monkeypatch, d,
                                                    extra):
        # the surface is formed a block at a time; the former (P, d + 1)
        # array, written whole, gives the same bytes across many blocks
        import tailvc.reportio as reportio
        from tailvc.empirical import empirical_stdf_lattice, jitter_columns

        monkeypatch.setattr(reportio, "_BLOCK_VALUES", 3 * 97)  # 97 rows at d = 2
        sim, est, k, T = tmp_path / "sim", tmp_path / "est", 100, 2.0
        assert run(["simulate", "--model", "logistic(2)", "--n", 3000, "--d", d,
                    "--seed", 14, "--out", sim]) == 0
        assert run(["estimate", "--data", sim / "sample.csv", "--k", k, "--T", T,
                    "--out", est] + extra) == 0
        values = read_sample_csv(sim / "sample.csv").values
        if "--jitter-seed" in extra:
            values = jitter_columns(values, 3)
        stride, m_top = (7 if "--grid-stride" in extra else 1), int(lattice_index(k, T))
        sub = empirical_stdf_lattice(build_ranks(values, m_top + 1), k, [m_top] * d,
                                     stride)
        axis = np.arange(0, m_top + 1, stride) / k
        surface = np.empty(sub.shape + (d + 1,))
        for j in range(d):
            surface[..., j] = axis.reshape([-1 if i == j else 1 for i in range(d)])
        surface[..., d] = sub
        header = [f"x{j + 1}" for j in range(d)] + ["l_n"]
        reportio.write_csv(tmp_path / "whole.csv", header, surface.reshape(-1, d + 1))
        assert (est / "surface.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_surface_is_never_held_whole(self, tmp_path, monkeypatch):
        # 1001^2 lattice nodes: the int64 counts are 8 MB; the former
        # (P, 3) surface array was 24 MB, held beside an 8 MB l_n grid
        import tracemalloc

        import tailvc.reportio as reportio

        monkeypatch.setattr(reportio, "_BLOCK_VALUES", 3 * 4096)  # 4096 rows
        sim, est, k, T = tmp_path / "sim", tmp_path / "est", 500, 2.0
        assert run(["simulate", "--model", "logistic(2)", "--n", 20_000, "--d", 2,
                    "--seed", 15, "--out", sim]) == 0
        tracemalloc.start()
        try:
            assert run(["estimate", "--data", sim / "sample.csv", "--k", k,
                        "--T", T, "--out", est]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (int(lattice_index(k, T)) + 1) ** 2

    def test_non_finite_sample_names_the_line(self, tmp_path, capsys):
        data = tmp_path / "nf.csv"
        data.write_text("x1,x2\n1.0,2.0\n3.0,inf\n2.0,4.0\n")
        code = run(["estimate", "--data", data, "--k", 1, "--T", 1.0,
                    "--out", tmp_path / "e"])
        assert code == 3
        assert f"{data}: line 3: non-finite value 'inf'" in capsys.readouterr().err

    def test_ties_are_data_errors(self, tmp_path, capsys):
        # k T = 2 reads each column's 3 largest values: column 0's tie is among them
        data = tmp_path / "tied.csv"
        data.write_text("x1,x2\n1.0,2.0\n1.0,3.0\n2.0,4.0\n")
        code = run(["estimate", "--data", data, "--k", 1, "--T", 2.0,
                    "--out", tmp_path / "e"])
        assert code == 3
        assert "column 0" in capsys.readouterr().err

    def test_a_tie_below_the_values_read_changes_no_byte(self, tmp_path):
        # k T = 10 reads each column's 11 largest values; the tie is column
        # 0's two smallest, 1 and 1
        data, tied = tmp_path / "s.csv", tmp_path / "tied.csv"
        write_distinct_sample(data)
        tied.write_text(data.read_text().replace("x1,x2\n0,", "x1,x2\n1,", 1))
        for path in (data, tied):
            assert run(["estimate", "--data", path, "--k", 5, "--T", 2.0,
                        "--out", tmp_path / path.stem]) == 0
        assert ((tmp_path / "tied" / "surface.csv").read_bytes()
                == (tmp_path / "s" / "surface.csv").read_bytes())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k,T,message", [
        (5, "0", "T must be finite and > 0, got 0.0"),
        (5, "-1", "T must be finite and > 0, got -1.0"),
        (5, "inf", "T must be finite and > 0, got inf"),
        (5, "nan", "T must be finite and > 0, got nan"),
        (0, "1.0", "k must lie in [1, n] = [1, 50], got 0"),
        (51, "0.5", "k must lie in [1, n] = [1, 50], got 51"),
        (51, "1.0", "k T = 51 exceeds n = 50"),
        (30, "2.0", "k T = 60 exceeds n = 50"),
    ])
    def test_k_and_t_outside_the_sample_are_precondition_errors(
            self, tmp_path, capsys, k, T, message):
        data = tmp_path / "s.csv"
        write_distinct_sample(data)
        out = tmp_path / "e"
        assert run(["estimate", "--data", data, "--k", k, "--T", T,
                    "--out", out]) == 4
        assert capsys.readouterr().err == f"tailvc estimate: {message}\n"
        assert not (out / "surface.csv").exists()

    @pytest.mark.parametrize("k,T,message", [
        (5, "inf", "T must be finite and > 0, got inf"),
        (0, "1.0", "k must lie in [1, n] = [1, 50], got 0"),
        (30, "2.0", "k T = 60 exceeds n = 50"),
    ])
    def test_a_bad_k_or_t_is_reported_before_a_tie(self, tmp_path, capsys, k, T,
                                                   message):
        # the tie check reads floor(k T) + 1 values per column, so k and T
        # are checked first; column 0 ties its two largest values here
        data = tmp_path / "tied.csv"
        write_distinct_sample(data)
        data.write_text(data.read_text().replace("x1,x2\n0,", "x1,x2\n49,", 1))
        assert run(["estimate", "--data", data, "--k", k, "--T", T,
                    "--out", tmp_path / "e"]) == 4
        assert capsys.readouterr().err == f"tailvc estimate: {message}\n"
        assert run(["estimate", "--data", data, "--k", 5, "--T", 2.0,
                    "--out", tmp_path / "e"]) == 3
        assert "ties detected in column 0 at rows [0, 49]" in capsys.readouterr().err

    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one_is_usage_error_before_the_data_is_read(
            self, tmp_path, capsys, stride):
        # no data file exists: the stride is checked before it is read
        out = tmp_path / "e"
        code = run(["estimate", "--data", tmp_path / "missing.csv", "--k", 5,
                    "--T", 2.0, "--grid-stride", stride, "--out", out])
        assert code == 2
        assert f"grid stride must be >= 1, got {stride}" in capsys.readouterr().err
        assert not (out / "surface.csv").exists()

    @pytest.mark.parametrize("stride", [None, 2], ids=["stride-1", "strided"])
    def test_k_zero_is_precondition_error_on_both_paths(self, tmp_path, capsys,
                                                        stride):
        data = tmp_path / "s.csv"
        write_distinct_sample(data)
        out = tmp_path / "e"
        args = ["estimate", "--data", data, "--k", 0, "--T", 1.0, "--out", out]
        if stride is not None:
            args += ["--grid-stride", stride]
        assert run(args) == 4
        assert "k must lie in [1, n]" in capsys.readouterr().err
        assert not (out / "surface.csv").exists()


class TestDataFileBytes:
    """SHA-256 of seeded ``simulate`` and ``estimate`` data files, recorded
    before the CSV blocks were bounded by values; the samples span several
    written and read blocks, and so does the d = 2 surface.  The d = 3 and
    jittered surfaces were recorded while ``estimate`` still sorted every
    column in full."""

    SAMPLE = {
        1: "6ab236680e104fdeefd30939dc0b1b8ef952b9413fb51f98219b15c576d9de34",
        2: "90f8771139b0b50b62cf360affe91bebf620e79158b06bbcef04fda6cc524197",
    }
    SURFACE = {
        (1, None): "41c1a7fde73b3fab8e53918cd73c114dde4e988c30f0c1c7ce50510535623b02",
        (1, 3): "fc2878e27c13ee7b49b2809f6f7610f850509167926a911901ef50819a53a7ad",
        (2, None): "e511ed45b586f19f690d700c725f0c1c6aa7b91d4e5c42c9bb65cde203096ced",
        (2, 3): "8ef899a77c1ec335dfd13242e005f377788abd21189f7fb40cf8f0ed299fe1c3",
    }

    # d = 3 needs a declared grid; k = 20 keeps its lattice at 41^3 nodes
    D3_SURFACE = {
        1: "36d6cbd1cdf742244409306e86cca79aefe1eeed3a540a562dcb34ca51f6373b",
        3: "2103dc77f9b01040da0bfa7fedab902c67ef1311a4adb5a2d9a9e5c83e1ad012",
    }
    # a --jitter-seed run on columns that tie in groups of 4 and of 10 rows
    JITTERED_SURFACE = "7e570863e439f09cada11cc37da9bf817620087d4b96fc38681c2fa609ba5bcb"

    @pytest.mark.parametrize("d", [1, 2])
    def test_sample_and_surface_hashes(self, tmp_path, d):
        sim = tmp_path / "sim"
        margins = "pareto(2)" if d == 1 else "uniform,pareto(2)"
        assert run(["simulate", "--model", "logistic(2)", "--n", 20_000, "--d", d,
                    "--margins", margins, "--seed", 5, "--out", sim]) == 0
        assert sha256(sim / "sample.csv") == self.SAMPLE[d]
        for stride in (None, 3):
            est = tmp_path / f"est{stride}"
            extra = [] if stride is None else ["--grid-stride", stride]
            assert run(["estimate", "--data", sim / "sample.csv", "--k", 100,
                        "--T", 2.0, "--out", est] + extra) == 0
            assert sha256(est / "surface.csv") == self.SURFACE[d, stride]

    def test_d3_surface_hashes(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--model", "logistic(2)", "--n", 20_000, "--d", 3,
                    "--seed", 5, "--out", sim]) == 0
        for stride, want in self.D3_SURFACE.items():
            est = tmp_path / f"est{stride}"
            assert run(["estimate", "--data", sim / "sample.csv", "--k", 20,
                        "--T", 2.0, "--grid-stride", stride, "--out", est]) == 0
            assert sha256(est / "surface.csv") == want

    def test_jittered_tied_surface_hash(self, tmp_path):
        data, est = tmp_path / "tied.csv", tmp_path / "est"
        data.write_text("x1,x2\n" + "".join(
            f"{i * 7919 % 2000 // 4},{i * 31 % 2000 // 10}\n" for i in range(2000)))
        assert run(["estimate", "--data", data, "--k", 100, "--T", 2.0,
                    "--jitter-seed", 3, "--out", est]) == 0
        assert sha256(est / "surface.csv") == self.JITTERED_SURFACE


class TestConvergeBytes:
    """SHA-256 of seeded ``converge`` data files, recorded before a trial drew
    only its column tails: d = 3 on the declared grid, and d = 2 exact."""

    RUNS = {
        "d3-grid": (["--model", "logistic(2)", "--d", 3, "--k-schedule", "20,40",
                     "--grid-resolution", 9],
                    "6b328d63044f4d1de3573bb2fecd7cb57bad028d4b21fb21c353e3c707866543",
                    "fb78eccb1d58e4c66b2598292c42eef5d3c365346d761f7f86eeb3b7bbc4d44f"),
        "d2-exact": (["--model", "logistic(1.2)", "--d", 2, "--k-schedule", "20,80"],
                     "10103ebd95ffba0fe4a5f556bba30b6c24d3bec57321d70aaf4c97fc23f76b2d",
                     "b708bc7a9b850675eec8bb8b24df4168d1775c1748615f7e964729f876ea4152"),
    }

    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_trials_and_summary_hashes(self, tmp_path, case):
        args, trials, summary = self.RUNS[case]
        assert run(["converge", "--n", 20_000, "--T", 2.0, "--trials", 3, "--seed", 7,
                    "--workers", 1, "--out", tmp_path] + args) == 0
        for name, want in (("trials.csv", trials), ("summary.csv", summary)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want


class TestRademacherBytes:
    """SHA-256 of seeded ``rademacher --statistic both`` files, recorded while
    each trial still held its whole draw and every sign."""

    RUNS = {
        "uniform-d2": (["--model", "uniform", "--d", 2],
                       "64defa7c79edae6bda5a64d07e8baeae0f23219b7d4f82c45a68c36c8f2f7456"),
        "uniform-d1": (["--model", "uniform", "--d", 1],
                       "d30f448ea83c27ee1db9fec1aab2945e58079538295efbd5a645c66d1885737f"),
        "uniform-d3-grid": (["--model", "uniform", "--d", 3, "--grid-resolution", 9],
                            "bfbbe3aa06f0aa029e68184a332335d7919c2067deaad89e298053a922dd9293"),
        "logistic-d2": (["--model", "logistic(2)", "--d", 2],
                        "219a8c59d8a8c71dd2f3cfa9db607a13df4346834b00b8385143b277dc896a83"),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_rademacher_hash(self, tmp_path, case, workers):
        args, want = self.RUNS[case]
        assert run(["rademacher", "--n", 20_000, "--k", 200, "--T", 2.0,
                    "--statistic", "both", "--trials", 3, "--pairs", 5000,
                    "--seed", 7, "--workers", workers, "--out", tmp_path] + args) == 0
        got = hashlib.sha256((tmp_path / "rademacher.csv").read_bytes()).hexdigest()
        assert got == want


class TestConverge:
    def test_tiny_smoke_emits_reports(self, tmp_path):
        import time

        out = tmp_path / "c"
        started = time.time()
        code = run(["converge", "--model", "independence", "--n", 2000, "--d", 2,
                    "--k-schedule", "20,40", "--T", 1.5, "--delta", "0.05",
                    "--trials", 5, "--seed", 21, "--workers", 1, "--out", out])
        assert code == 0
        assert time.time() - started < 10
        header, rows = read_csv(out / "trials.csv")
        assert header == ["trial_id", "n", "k", "d", "T", "delta",
                          "statistic_name", "value"]
        stats = {r[6] for r in rows}
        assert "sup_stdf_deviation" in stats
        assert "order_stat_event" in stats
        _, summary = read_csv(out / "summary.csv")
        assert len(summary) == 2
        manifest = read_manifest(out / "converge_manifest.json")
        assert "slope" in manifest["results"]

    def test_replay_reproduces_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["converge", "--model", "comonotone", "--n", 2000, "--d", 2,
                "--k-schedule", "20,40", "--T", 1.5, "--delta", "0.05",
                "--trials", 3, "--seed", 5]
        assert run(args + ["--out", a]) == 0
        assert run(["converge", "--config", a / "converge_manifest.json",
                    "--out", b]) == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_cli_import_loads_no_process_pool(self):
        # only --workers > 1 needs the pool; --help probes and serial runs
        # should not pay for importing multiprocessing
        import os
        import subprocess
        import sys
        from pathlib import Path

        import tailvc

        src = str(Path(tailvc.__file__).resolve().parents[1])
        code = ("import sys, tailvc.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_k_8000_runs_in_one_gib_of_address_space(self, tmp_path):
        # l on the whole 16002^2 corner grid would be 2.05 GB; the scan keeps
        # per-block summaries only, so the run fits under the cap
        import os
        import resource
        import subprocess
        import sys
        from pathlib import Path

        import tailvc

        def cap():  # in the child, before it runs Python
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        # one BLAS thread: each thread's buffers take address space of their own
        env = dict(os.environ, PYTHONPATH=str(Path(tailvc.__file__).resolve().parents[1]),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        args = ["converge", "--model", "logistic(2)", "--n", 80000, "--d", 2,
                "--k-schedule", 8000, "--T", 2.0, "--trials", 1, "--seed", 1,
                "--workers", 1, "--out", tmp_path]
        done = subprocess.run([sys.executable, "-m", "tailvc.cli"] + [str(a) for a in args],
                              env=env, preexec_fn=cap, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        _, rows = read_csv(tmp_path / "summary.csv")
        assert [r[:2] for r in rows] == [["8000", "1"]]

    @pytest.mark.parametrize("tag,method", [("logistic(2)", "grid-max"),
                                            ("independence", "exact"),
                                            ("comonotone", "exact")])
    def test_manifest_names_the_bias_method(self, tmp_path, tag, method):
        assert run(["converge", "--model", tag, "--n", 2000, "--d", 2,
                    "--k-schedule", "20,40", "--T", 2.0, "--trials", 2,
                    "--seed", 6, "--workers", 1, "--out", tmp_path]) == 0
        manifest = read_manifest(tmp_path / "converge_manifest.json")
        assert manifest["results"]["bias_method"] == method

    @pytest.mark.parametrize("affinity,cpu_count,expected",
                             [({0}, 64, 1), (None, 2, 2)],
                             ids=["affinity", "no-affinity-api"])
    def test_default_workers_are_usable_cpus(self, tmp_path, monkeypatch,
                                             affinity, cpu_count, expected):
        # a container may pin the process to fewer CPUs than the host has
        import os

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        out = tmp_path / "c"
        assert run(["converge", "--model", "independence", "--n", 1000, "--d", 2,
                    "--k-schedule", "20", "--T", 1.5, "--trials", 2,
                    "--seed", 3, "--out", out]) == 0
        manifest = read_manifest(out / "converge_manifest.json")
        assert manifest["config"]["workers"] == expected

    @pytest.mark.parametrize("res", [0, 1, -3])
    def test_grid_resolution_below_two_is_usage_error(self, tmp_path, capsys, res):
        code = run(["converge", "--model", "independence", "--n", 3000, "--d", 2,
                    "--k-schedule", "10,20", "--T", 2.0, "--trials", 2,
                    "--seed", 1, "--workers", 1, "--grid-resolution", res,
                    "--out", tmp_path])
        assert code == 2
        assert f"grid resolution must be >= 2, got {res}" in capsys.readouterr().err
        assert not (tmp_path / "trials.csv").exists()

    def test_frozen_c_precondition_fails_before_trials(self, tmp_path, capsys):
        # T = 2 < 7/2((log 2)/k + 1): the coverage bound is undefined at every k
        code = run(["converge", "--model", "comonotone", "--n", 5000, "--d", 2,
                    "--k-schedule", "50,100", "--T", 2.0, "--trials", 3,
                    "--seed", 1, "--frozen-c", 1.0, "--out", tmp_path])
        assert code == 4
        assert "T >= 7/2((log d)/k + 1) violated: T=2.0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", ["nan", "inf", "0", "-1"])
    def test_t_outside_zero_to_inf_fails_before_any_draw(self, tmp_path, capsys,
                                                         monkeypatch, T):
        import tailvc.harness as hmod

        def fail(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(hmod, "draw_copula_tail", fail)
        code = run(["converge", "--model", "independence", "--n", 1000, "--d", 2,
                    "--k-schedule", "10", "--T", T, "--trials", 2, "--seed", 1,
                    "--workers", 1, "--out", tmp_path])
        assert code == 2
        assert "T must be finite and > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", ["logistic(2)", "independence", "comonotone"])
    def test_d4_runs_unless_the_bias_needs_a_grid(self, tmp_path, capsys,
                                                  monkeypatch, model):
        # the logistic bias grid would be 256^4 nodes, too slow to scan; the closed
        # forms of the other two models need no grid and still run at d = 4
        import tailvc.harness as hmod

        draws, draw = [], hmod.draw_copula_tail
        monkeypatch.setattr(hmod, "draw_copula_tail",
                            lambda *args: draws.append(args) or draw(*args))
        code = run(["converge", "--model", model, "--n", 2000, "--d", 4,
                    "--k-schedule", "10,20", "--T", 2, "--trials", 2,
                    "--grid-resolution", 5, "--seed", 1, "--workers", 1,
                    "--out", tmp_path])
        if model.startswith("logistic"):
            assert code == 2
            assert ("the logistic bias grid has 256^4 = 4,294,967,296 nodes"
                    in capsys.readouterr().err)
            assert draws == []
        else:
            assert code == 0
            assert len(draws) == 4

    def test_budget_violation_surfaces_verbatim(self, tmp_path, capsys):
        code = run(["converge", "--model", "independence", "--n", 1000, "--d", 2,
                    "--k-schedule", "100", "--T", 15.0, "--delta", "0.05",
                    "--trials", 2, "--seed", 1, "--out", tmp_path])
        assert code == 2
        assert "k T exceeds n" in capsys.readouterr().err


class TestBound:
    def test_stdf_reference_value(self, tmp_path):
        out = tmp_path / "b"
        code = run(["bound", "--kind", "stdf", "--k", 100, "--d", 2, "--T", 4.0,
                    "--delta", "0.05", "--out", out])
        assert code == 0
        _, rows = read_csv(out / "bound.csv")
        assert float(rows[0][1]) == pytest.approx(0.8583864105157389, rel=1e-12)

    def test_stdf_guard_exit_code_and_message(self, tmp_path, capsys):
        code = run(["bound", "--kind", "stdf", "--k", 100, "--d", 1, "--T", 3.0,
                    "--delta", "0.05", "--out", tmp_path])
        assert code == 4
        err = capsys.readouterr().err
        assert "T=3.0" in err and "required >= 3.5" in err

    def test_vc_kinds(self, tmp_path):
        for kind, expected in (
            ("vc", 0.0027473200580362157),
            ("vc-simple", 0.0024477468306808164),
            ("vc-classical", 0.00996046331826512),
        ):
            out = tmp_path / kind
            assert run(["bound", "--kind", kind, "--n", 10_000, "--V", 2,
                        "--p", "0.01", "--delta", "0.05", "--out", out]) == 0
            _, rows = read_csv(out / "bound.csv")
            assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)

    def test_compare_table(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(["bound", "--kind", "vc-compare", "--n-grid",
                    "100,1000,10000,100000", "--V", 2, "--p", "0.01",
                    "--delta", "0.05", "--out", out]) == 0
        _, rows = read_csv(out / "bound.csv")
        ratios = [float(r[3]) for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    STDF = {"k": 100, "d": 2, "T": 4.0, "C": 1.0, "bias": 0.0}

    @pytest.mark.parametrize("flag,value,message", [
        ("k", 0, "need k >= 1, d >= 1"),
        ("d", 0, "need k >= 1, d >= 1"),
        ("T", "nan", "finite T and C"),
        ("T", "inf", "finite T and C"),
        ("C", "nan", "finite T and C"),
        ("bias", "nan", "bias must be finite and >= 0"),
        ("bias", "inf", "bias must be finite and >= 0"),
    ], ids=["k0", "d0", "T-nan", "T-inf", "C-nan", "bias-nan", "bias-inf"])
    def test_stdf_input_outside_the_domain_writes_nothing(self, tmp_path, capsys,
                                                          flag, value, message):
        args = ["bound", "--kind", "stdf", "--delta", "0.05", "--out", tmp_path]
        for name, v in dict(self.STDF, **{flag: value}).items():
            args += [f"--{name}", v]
        assert run(args) == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bound.csv").exists()

    @pytest.mark.parametrize("kind", ["vc", "vc-compare"])
    @pytest.mark.parametrize("C", ["nan", "inf", "-1"])
    def test_vc_constant_outside_the_domain_is_usage_error(self, tmp_path, capsys,
                                                          kind, C):
        sizes = (["--n", 10_000] if kind == "vc"
                 else ["--n-grid", "100,1000"])
        code = run(["bound", "--kind", kind, *sizes, "--V", 2, "--p", "0.01",
                    "--delta", "0.05", "--C", C, "--out", tmp_path])
        assert code == 2
        assert "C must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "bound.csv").exists()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        assert run(["bound", "--kind", "hoeffding", "--delta", "0.05",
                    "--out", tmp_path]) == 2


class TestRademacher:
    def test_smoke_rows(self, tmp_path):
        out = tmp_path / "r"
        code = run(["rademacher", "--model", "uniform", "--n", 500, "--d", 2,
                    "--k", 10, "--T", 2.0, "--statistic", "both", "--trials", 5,
                    "--pairs", 2000, "--seed", 3, "--out", out])
        assert code == 0
        _, rows = read_csv(out / "rademacher.csv")
        stats = {r[6] for r in rows}
        assert {"relative_rademacher_mean", "pair_separation_q",
                "union_mass"} <= stats

    def test_dimension_three_demands_grid(self, tmp_path, capsys):
        code = run(["rademacher", "--model", "uniform", "--n", 100, "--d", 3,
                    "--k", 10, "--T", 1.0, "--trials", 3, "--seed", 1,
                    "--out", tmp_path])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    BASE = ["rademacher", "--model", "uniform", "--n", 500, "--d", 2, "--k", 10,
            "--T", 2.0, "--seed", 3]

    @pytest.mark.parametrize("statistic,option,value", [
        ("separation", "grid-resolution", 8),
        ("separation", "trials", 5),
        ("rademacher", "pairs", 2000),
    ])
    def test_ignored_flag_is_usage_error(self, tmp_path, capsys, statistic,
                                         option, value):
        code = run(self.BASE + ["--statistic", statistic, f"--{option}", value,
                                "--out", tmp_path])
        assert code == 2
        assert f"--{option}" in capsys.readouterr().err
        assert not (tmp_path / "rademacher.csv").exists()

    @pytest.mark.parametrize("statistic,option,value", [
        ("separation", "grid-resolution", 8),
        ("separation", "trials", 5),
        ("rademacher", "pairs", 2000),
    ])
    def test_ignored_config_option_is_usage_error(self, tmp_path, capsys,
                                                  statistic, option, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"statistic": statistic, option: value}))
        code = run(self.BASE + ["--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        assert f"--{option}" in capsys.readouterr().err

    def test_both_accepts_every_option(self, tmp_path):
        out = tmp_path / "b"
        assert run(self.BASE + ["--statistic", "both", "--trials", 3,
                                "--pairs", 2000, "--grid-resolution", 8,
                                "--out", out]) == 0
        config = read_manifest(out / "rademacher_manifest.json")["config"]
        assert (config["trials"], config["pairs"], config["grid-resolution"]) == (
            3, 2000, 8)

    def test_separation_needs_no_grid_in_three_dims(self, tmp_path):
        assert run(["rademacher", "--model", "uniform", "--n", 500, "--d", 3,
                    "--k", 10, "--T", 2.0, "--statistic", "separation",
                    "--pairs", 2000, "--seed", 3, "--out", tmp_path]) == 0

    def test_separation_manifest_replays(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(self.BASE + ["--statistic", "separation", "--pairs", 2000,
                                "--out", a]) == 0
        manifest = a / "rademacher_manifest.json"
        assert read_manifest(manifest)["config"]["trials"] is None
        assert run(["rademacher", "--config", manifest, "--out", b]) == 0
        assert (a / "rademacher.csv").read_bytes() == (
            b / "rademacher.csv").read_bytes()


class TestClassify:
    def test_rate_smoke(self, tmp_path):
        out = tmp_path / "cl"
        code = run(["classify", "--mode", "rate", "--alpha", "0.1",
                    "--n-alpha-grid", "50,100", "--trials", 4, "--seed", 9,
                    "--out", out])
        assert code == 0
        manifest = read_manifest(out / "classify_manifest.json")
        assert "slope" in manifest["results"]
        _, rows = read_csv(out / "classify_summary.csv")
        assert len(rows) == 2

    def test_decomposition_smoke(self, tmp_path):
        out = tmp_path / "dc"
        code = run(["classify", "--mode", "decomposition", "--n", 500,
                    "--alpha", "0.1", "--trials", 5, "--seed", 10, "--out", out])
        assert code == 0
        manifest = read_manifest(out / "classify_manifest.json")
        assert manifest["results"]["decomposition_holds"] == 5

    def test_unknown_mode_usage_error(self, tmp_path):
        assert run(["classify", "--mode", "cluster", "--seed", 1,
                    "--out", tmp_path]) == 2

    def test_rate_replay_reproduces_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["classify", "--mode", "rate", "--alpha", "0.1",
                    "--n-alpha-grid", "50,100", "--trials", 3,
                    "--family-size", 4, "--seed", 13, "--out", a]) == 0
        assert run(["classify", "--config", a / "classify_manifest.json",
                    "--out", b]) == 0
        for name in ("classify_trials.csv", "classify_summary.csv", "family.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestWorkerCounts:
    # small runs of each command that takes --workers above 1, and the data
    # files each writes
    CASES = {
        # each worker process keeps its own corner model grid per k
        "converge": (
            ["converge", "--model", "logistic(2)", "--n", 3000, "--d", 2,
             "--k-schedule", "20,40,80", "--T", 2.0, "--trials", 5, "--seed", 8],
            ["trials.csv", "summary.csv"]),
        "rademacher-both-d2": (
            ["rademacher", "--model", "logistic(2)", "--n", 400, "--d", 2, "--k", 10,
             "--T", 2.0, "--statistic", "both", "--trials", 6, "--pairs", 2000,
             "--seed", 3], ["rademacher.csv"]),
        "rademacher-d3-grid": (
            ["rademacher", "--model", "logistic(2)", "--n", 300, "--d", 3, "--k", 10,
             "--T", 2.0, "--trials", 5, "--grid-resolution", 6, "--seed", 4],
            ["rademacher.csv"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_worker_counts_write_identical_bytes(self, tmp_path, case):
        # every trial keys its own stream, so the pool's order cannot show
        args, names = self.CASES[case]
        outs = [tmp_path / "w1", tmp_path / "w2"]
        for workers, out in zip((1, 2), outs):
            assert run(args + ["--workers", workers, "--out", out]) == 0
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        manifest = f"{args[0]}_manifest.json"
        assert (read_manifest(outs[0] / manifest)["results"]
                == read_manifest(outs[1] / manifest)["results"])


class TestConfigPrecedence:
    def test_flags_win_over_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "independence", "n": 10, "d": 2,
                                   "seed": 1}))
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--n", 25, "--out", out]) == 0
        lines = (out / "sample.csv").read_text().strip().splitlines()
        assert len(lines) == 26


# one small valid command line per subcommand and mode; "{data}" is a sample
SIMULATE = ["simulate", "--model", "logistic(2)", "--n", 60, "--d", 2, "--seed", 4,
            "--margins", "uniform,exponential"]
ESTIMATE = ["estimate", "--data", "{data}", "--k", 5, "--T", 2.0]
CONVERGE = ["converge", "--model", "independence", "--n", 1000, "--d", 2,
            "--k-schedule", "20", "--T", 1.5, "--trials", 2, "--seed", 3,
            "--workers", 1]
BOUND_STDF = ["bound", "--kind", "stdf", "--k", 100, "--d", 2, "--T", 4.0,
              "--delta", "0.05"]
VC_ARGS = ["--n", 10_000, "--V", 2, "--p", "0.01", "--delta", "0.05"]
BOUND_VC = ["bound", "--kind", "vc"] + VC_ARGS
BOUND_CMP = ["bound", "--kind", "vc-compare", "--n-grid", "100,1000", "--V", 2,
             "--p", "0.01", "--delta", "0.05"]
RADEMACHER = ["rademacher", "--model", "uniform", "--n", 500, "--d", 2, "--k", 10,
              "--T", 2.0, "--seed", 3]
CLASSIFY_RATE = ["classify", "--mode", "rate", "--alpha", "0.1",
                 "--n-alpha-grid", "50,100", "--trials", 2, "--family-size", 4,
                 "--seed", 9]
CLASSIFY_DEC = ["classify", "--mode", "decomposition", "--n", 300, "--alpha", "0.1",
                "--trials", 2, "--seed", 10]
BASE = {"simulate": SIMULATE, "estimate": ESTIMATE, "converge": CONVERGE,
        "bound": BOUND_VC, "rademacher": RADEMACHER, "classify": CLASSIFY_RATE}


def fill(args, tmp_path):
    data = tmp_path / "data.csv"
    if not data.exists():
        write_distinct_sample(data)
    return [str(a).format(data=data) for a in args]


def run_status(args):
    """Exit code of a run, counting an argparse rejection as its SystemExit code."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


class TestNoIgnoredOption:
    CASES = {
        "estimate-seed": (ESTIMATE + ["--seed", 5], "--seed"),
        "simulate-workers": (SIMULATE + ["--workers", 1], "--workers"),
        "estimate-workers": (ESTIMATE + ["--workers", 1], "--workers"),
        "bound-workers": (BOUND_VC + ["--workers", 1], "--workers"),
        "rademacher-workers-0": (RADEMACHER + ["--workers", 0], "--workers:"),
        "classify-workers-2": (CLASSIFY_RATE + ["--workers", 2], "--workers"),
        "classify-workers-0": (CLASSIFY_RATE + ["--workers", 0], "--workers:"),
        "bound-stdf-n-grid": (BOUND_STDF + ["--n-grid", "1,2"], "--n-grid"),
        "bound-vc-k": (BOUND_VC + ["--k", 100], "--k"),
        "bound-vc-compare-bias": (BOUND_CMP + ["--bias", 0.1], "--bias"),
        "classify-rate-n": (CLASSIFY_RATE + ["--n", 500], "--n"),
        "classify-decomposition-family-size": (
            CLASSIFY_DEC + ["--family-size", 4], "--family-size"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flag_is_usage_error(self, tmp_path, capsys, case):
        args, option = self.CASES[case]
        out = tmp_path / "o"
        assert run_status(fill(args, tmp_path) + ["--out", str(out)]) == 2
        assert f"{option} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", sorted(BASE))
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sede": 1}))
        out = tmp_path / "o"
        args = fill(BASE[subcommand], tmp_path) + ["--config", str(cfg),
                                                  "--out", str(out)]
        assert run_status(args) == 2
        assert "'sede'" in capsys.readouterr().err
        assert not out.exists()

    # usage errors found by a command body, after ``main`` created --out
    IN_BODY = {
        "simulate-bogus-model": (["simulate", "--model", "bogus", "--n", 10, "--d", 2,
                                  "--seed", 1], "unknown model tag 'bogus'"),
        "estimate-stride-zero": (ESTIMATE + ["--grid-stride", 0],
                                 "grid stride must be >= 1, got 0"),
        "classify-family-below-d": (CLASSIFY_RATE + ["--family-size", 1],  # last wins
                                    "--family-size must be >= --d = 2"),
    }

    @pytest.mark.parametrize("case", sorted(IN_BODY))
    def test_usage_error_in_a_command_body_leaves_no_out(self, tmp_path, capsys, case):
        args, message = self.IN_BODY[case]
        out = tmp_path / "new" / "o"  # main creates both levels
        assert run(fill(args, tmp_path) + ["--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_failed_command_keeps_an_out_it_did_not_create(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert run(["simulate", "--model", "bogus", "--n", 10, "--d", 2, "--seed", 1,
                    "--out", out]) == 2
        assert out.is_dir()


class TestManifestReplay:
    CASES = {
        "simulate": SIMULATE,
        "estimate-stride-1": ESTIMATE,
        "estimate-strided": ESTIMATE + ["--grid-stride", 3],
        "converge": CONVERGE,
        "bound-stdf": BOUND_STDF + ["--bias", 0.01],
        "bound-vc": BOUND_VC,
        "bound-vc-simple": ["bound", "--kind", "vc-simple"] + VC_ARGS,
        "bound-vc-classical": ["bound", "--kind", "vc-classical"] + VC_ARGS,
        "bound-vc-compare": BOUND_CMP,
        "rademacher-rademacher": RADEMACHER + ["--trials", 2],
        "rademacher-separation": RADEMACHER + ["--statistic", "separation",
                                               "--pairs", 2000],
        "rademacher-both": RADEMACHER + ["--statistic", "both", "--trials", 2,
                                         "--pairs", 2000],
        "classify-rate": CLASSIFY_RATE,
        "classify-decomposition": CLASSIFY_DEC,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_replay_is_byte_identical(self, tmp_path, case):
        args = fill(self.CASES[case], tmp_path)
        subcommand = args[0]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        manifest = a / f"{subcommand}_manifest.json"
        config = read_manifest(manifest)["config"]
        assert set(config) == {opt.name for opt in _SPECS[subcommand]}
        assert run([subcommand, "--config", manifest, "--out", b]) == 0
        data = sorted(p.name for p in a.iterdir() if p != manifest)
        assert data and data == sorted(
            p.name for p in b.iterdir() if p.name != manifest.name)
        for name in data:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestUnusablePaths:
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("flag,code", [("--data", 3), ("--config", 2)])
    def test_unreadable_input_names_the_path(self, tmp_path, capsys, flag, code,
                                             kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"x1,x2\n0.5,\xff\n")
        args = fill(ESTIMATE, tmp_path) + ["--out", str(tmp_path / "e")]
        if flag == "--data":
            args[args.index("--data") + 1] = path
        else:
            args += ["--config", path]
        assert run(args) == code
        assert f"{path}: " in capsys.readouterr().err

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(BOUND_VC + ["--out", out]) == 2
        assert f"--out {out}: cannot create" in capsys.readouterr().err


class TestRefusedBeforeAnyDraw:
    SEEDS = {
        "simulate": (SIMULATE, "--seed"),
        "converge": (CONVERGE, "--seed"),
        "rademacher": (RADEMACHER, "--seed"),
        "classify-rate": (CLASSIFY_RATE, "--seed"),
        "classify-decomposition": (CLASSIFY_DEC, "--seed"),
        "estimate": (ESTIMATE, "--jitter-seed"),
    }

    @staticmethod
    def refused(tmp_path, capsys, monkeypatch, args, flag, value, via) -> str:
        """Run ``args`` with ``flag`` given ``value`` on the command line or
        in a config file; it must exit 2 before any read, draw or output.
        Returns stderr."""
        def fail(*args, **kwargs):
            raise AssertionError("data was read or drawn")

        # the defining modules: each command imports these names at call time
        for name in ("tailvc.reportio.read_sample_csv", "tailvc.samplers.draw_sample"):
            monkeypatch.setattr(name, fail)
        args = fill(args, tmp_path)
        if flag in args:  # drop the valid value
            del args[args.index(flag):args.index(flag) + 2]
        if via == "flag":
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            args += [flag, text]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            args += ["--config", str(cfg)]
        out = tmp_path / "o"
        assert run(args + ["--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(SEEDS))
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                          case, via):
        args, flag = self.SEEDS[case]
        err = self.refused(tmp_path, capsys, monkeypatch, args, flag, -1, via)
        assert f"{flag}: a seed must be >= 0, got -1" in err

    # a value the option cannot take whole: int() would truncate a config
    # file's 1000.7 and read its true as 1, and a list needs one value
    UNREADABLE = {
        "simulate-n-fraction": (SIMULATE, "--n", 1000.7, "cannot read"),
        "simulate-n-true": (SIMULATE, "--n", True, "cannot read"),
        "simulate-seed-fraction": (SIMULATE, "--seed", 3.9, "cannot read"),
        "converge-t-false": (CONVERGE, "--T", False, "cannot read"),
        "converge-k-schedule-fraction": (CONVERGE, "--k-schedule", [20, 40.5],
                                         "cannot read"),
        "converge-k-schedule-true": (CONVERGE, "--k-schedule", [True],
                                     "cannot read"),
        "converge-k-schedule-empty": (CONVERGE, "--k-schedule", ",",
                                      "needs at least one value"),
        "estimate-k-fraction": (ESTIMATE, "--k", 5.5, "cannot read"),
        "bound-n-grid-fraction": (BOUND_CMP, "--n-grid", [100, 1000.5],
                                  "cannot read"),
        "bound-n-grid-empty": (BOUND_CMP, "--n-grid", "", "needs at least one value"),
        "bound-n-grid-comma": (BOUND_CMP, "--n-grid", ",", "needs at least one value"),
        "classify-grid-empty": (CLASSIFY_RATE, "--n-alpha-grid", "",
                                "needs at least one value"),
        "classify-grid-true": (CLASSIFY_RATE, "--n-alpha-grid", [True, 100],
                               "cannot read"),
        "rademacher-workers-true": (RADEMACHER, "--workers", True, "cannot read"),
    }

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_value_it_cannot_take_whole_is_usage_error(self, tmp_path, capsys,
                                                       monkeypatch, case, via):
        args, flag, value, message = self.UNREADABLE[case]
        err = self.refused(tmp_path, capsys, monkeypatch, args, flag, value, via)
        assert f"{flag}: {message}" in err

    @staticmethod
    def counted_draws(monkeypatch) -> list:
        """Every call of a copula draw, through each module that binds one."""
        import importlib

        calls = []

        def counted(draw):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return draw(*args, **kwargs)
            return wrapper

        # every module that binds a draw's name, read at call time
        for owner, name in (("samplers", "draw_copula_sample"),
                            ("samplers", "draw_copula_tail"),
                            ("samplers", "draw_copula_blocks"),
                            ("harness", "draw_copula_tail"),
                            ("concentration", "draw_copula_blocks"),
                            ("classify", "draw_copula_sample")):
            module = importlib.import_module(f"tailvc.{owner}")
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        return calls

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("case", ["converge", "rademacher", "classify-rate",
                                      "classify-decomposition"])
    def test_zero_workers_is_refused_before_any_draw(self, tmp_path, capsys,
                                                     monkeypatch, case, via):
        calls = self.counted_draws(monkeypatch)
        args, _ = self.SEEDS[case]
        err = self.refused(tmp_path, capsys, monkeypatch, args, "--workers", 0, via)
        assert "--workers: needs at least one worker, got 0" in err
        assert calls == []

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("case", ["simulate", "converge", "rademacher"])
    def test_logistic_theta_above_40_is_refused_before_any_draw(
            self, tmp_path, capsys, monkeypatch, case, via):
        # the frailty draw overflows above theta = 50; the tag stops at 40
        calls = self.counted_draws(monkeypatch)
        args, _ = self.SEEDS[case]
        err = self.refused(tmp_path, capsys, monkeypatch, args, "--model",
                           "logistic(41)", via)
        assert "logistic dependence parameter must be <= 40, got 41" in err
        assert calls == []

    CLASSIFY = {
        "alpha-zero": (CLASSIFY_RATE, ["--alpha", "0"], "alpha must lie in (0, 1)"),
        "alpha-nan": (CLASSIFY_RATE, ["--alpha", "nan"], "alpha must lie in (0, 1)"),
        "decomposition-alpha-nan": (CLASSIFY_DEC, ["--alpha", "nan"],
                                    "alpha must lie in (0, 1)"),
        "grid-nan": (CLASSIFY_RATE, ["--n-alpha-grid", "nan"],
                     "--n-alpha-grid: values must be finite and > 0"),
        "grid-inf": (CLASSIFY_RATE, ["--n-alpha-grid", "50,inf"],
                     "--n-alpha-grid: values must be finite and > 0"),
        "grid-negative": (CLASSIFY_RATE, ["--n-alpha-grid", "-5"],
                          "--n-alpha-grid: values must be finite and > 0"),
        "rate-trials-zero": (CLASSIFY_RATE, ["--trials", 0],
                             "trials must be >= 1, got 0"),
        "decomposition-trials-zero": (CLASSIFY_DEC, ["--trials", 0],
                                      "--trials must be >= 1, got 0"),
        "family-below-d": (CLASSIFY_RATE, ["--family-size", 1, "--d", 2],
                           "--family-size must be >= --d = 2"),
        "threshold-nan": (CLASSIFY_RATE, ["--rule-threshold", "nan"],
                          "threshold must be finite, got nan"),
        "decomposition-threshold-inf": (CLASSIFY_DEC, ["--rule-threshold", "inf"],
                                        "threshold must be finite, got inf"),
    }

    @pytest.mark.parametrize("case", sorted(CLASSIFY))
    def test_classify_input_it_cannot_serve(self, tmp_path, capsys, monkeypatch,
                                            case):
        def fail(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr("tailvc.classify.LabeledGenerator.sample", fail)
        monkeypatch.setattr("tailvc.classify.draw_copula_sample", fail)
        base, extra, message = self.CLASSIFY[case]
        args = list(base)
        for flag in extra[::2]:  # the case's value replaces the valid one
            if flag in args:
                del args[args.index(flag):args.index(flag) + 2]
        out = tmp_path / "o"
        assert run(args + extra + ["--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
