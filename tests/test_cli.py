"""Command-line surface: smoke runs, determinism, exit codes, manifests."""

import json

import numpy as np
import pytest

from csv_text import read_csv
from draw_guard import forbid_draws
from rank_oracles import exceedance_count
from tailvc.cli import main
from tailvc.empirical import build_ranks, lattice_index
from tailvc.reportio import read_manifest, read_sample_csv


def run(args):
    return main([str(a) for a in args])


def run_in_one_gib(args):
    """``python -m tailvc.cli ARGS`` in a child capped at 1 GiB of address
    space, so a run that outgrows it fails there instead of taking the host."""
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
    return subprocess.run([sys.executable, "-m", "tailvc.cli"] + [str(a) for a in args],
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=300)


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

    def test_stride_one_at_d2_is_the_run_without_it(self, tmp_path, monkeypatch):
        # the exact d = 2 scan declares no grid, so the node budget a d >= 3
        # lattice answers to does not refuse --grid-stride 1 on 21^2 nodes
        import tailvc.gridscan as gridscan

        monkeypatch.setattr(gridscan, "_GRID_NODE_BUDGET", 21 ** 2 - 1)
        sim = tmp_path / "sim"
        assert run(["simulate", "--model", "logistic(2)", "--n", 300, "--d", 2,
                    "--seed", 15, "--out", sim]) == 0
        surfaces = []
        for extra in ([], ["--grid-stride", 1]):
            est = tmp_path / f"est{len(extra)}"
            assert run(["estimate", "--data", sim / "sample.csv", "--k", 10, "--T", 2.0,
                        "--out", est] + extra) == 0
            surfaces.append((est / "surface.csv").read_bytes())
        assert surfaces[0] == surfaces[1]


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
        done = run_in_one_gib(["converge", "--model", "logistic(2)", "--n", 80000,
                               "--d", 2, "--k-schedule", 8000, "--T", 2.0, "--trials", 1,
                               "--seed", 1, "--workers", 1, "--out", tmp_path])
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

    @pytest.mark.parametrize("d,grid", [(3, 9), (2, 6), (2, None)])
    def test_manifest_reports_the_grid_slack_per_k(self, tmp_path, d, grid):
        # the slack sup_stdf_deviation forms for each trial at k, per k
        from tailvc.harness import sup_stdf_deviation
        from tailvc.models import logistic

        argv = ["converge", "--model", "logistic(2)", "--n", 2000, "--d", d,
                "--k-schedule", "20,40", "--T", 2.0, "--trials", 2, "--seed", 6,
                "--workers", 1, "--out", tmp_path]
        assert run(argv + ([] if grid is None else ["--grid-resolution", grid])) == 0
        results = read_manifest(tmp_path / "converge_manifest.json")["results"]
        if grid is None:
            assert "discretization_bound" not in results
            return
        x, model = np.random.default_rng(6).random((2000, d)), logistic(2.0, d)
        assert results["discretization_bound"] == {
            str(k): sup_stdf_deviation(x, k, model, 2.0, grid).discretization_bound
            for k in (20, 40)}

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
        drawn = forbid_draws(monkeypatch)
        code = run(["converge", "--model", "independence", "--n", 1000, "--d", 2,
                    "--k-schedule", "10", "--T", T, "--trials", 2, "--seed", 1,
                    "--workers", 1, "--out", tmp_path])
        assert code == 2
        assert "T must be finite and > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [] and drawn == []

    @pytest.mark.parametrize("model", ["independence", "comonotone"])
    def test_d4_runs_unless_the_bias_needs_a_grid(self, tmp_path, monkeypatch, model):
        # the closed forms of these models need no bias grid and still run at
        # d = 4; the logistic one, whose grid would be 256^4 nodes, is refused
        # (golden row converge-logistic-d4-bias-grid)
        import tailvc.harness as hmod

        draws, draw = [], hmod.draw_copula_tail
        monkeypatch.setattr(hmod, "draw_copula_tail",
                            lambda *args: draws.append(args) or draw(*args))
        assert run(["converge", "--model", model, "--n", 2000, "--d", 4,
                    "--k-schedule", "10,20", "--T", 2, "--trials", 2,
                    "--grid-resolution", 5, "--seed", 1, "--workers", 1,
                    "--out", tmp_path]) == 0
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

    def test_grid_over_the_node_budget_exits_2_before_any_draw(self, tmp_path):
        # 2^30 nodes: the d >= 3 walker's strip row alone would be 4 GiB
        done = run_in_one_gib(["rademacher", "--n", 1000, "--d", 30, "--k", 10, "--T", 1,
                               "--trials", 2, "--grid-resolution", 2, "--seed", 1,
                               "--out", tmp_path / "o"])
        assert done.returncode == 2, done.stderr
        assert done.stderr == ("tailvc rademacher: a grid of 2 nodes per axis at d = 30 "
                               "has 1,073,741,824 nodes, above the budget of 16,777,216 "
                               "(256^3)\n")
        assert not (tmp_path / "o").exists()

    def test_dimension_three_demands_grid(self, tmp_path, capsys):
        code = run(["rademacher", "--model", "uniform", "--n", 100, "--d", 3,
                    "--k", 10, "--T", 1.0, "--trials", 3, "--seed", 1,
                    "--out", tmp_path])
        assert code == 2
        assert "grid" in capsys.readouterr().err


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


class TestConfigPrecedence:
    def test_flags_win_over_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "independence", "n": 10, "d": 2,
                                   "seed": 1}))
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--n", 25, "--out", out]) == 0
        lines = (out / "sample.csv").read_text().strip().splitlines()
        assert len(lines) == 26


def fill(args, tmp_path):
    data = tmp_path / "data.csv"
    if not data.exists():
        write_distinct_sample(data)
    return [str(a).format(data=data) for a in args]


# small valid command lines; "{data}" is a sample
ESTIMATE = ["estimate", "--data", "{data}", "--k", 5, "--T", 2.0]
BOUND_VC = ["bound", "--kind", "vc", "--n", 10_000, "--V", 2, "--p", "0.01",
            "--delta", "0.05"]


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

    def test_failed_command_keeps_an_out_it_did_not_create(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert run(["simulate", "--model", "bogus", "--n", 10, "--d", 2, "--seed", 1,
                    "--out", out]) == 2
        assert out.is_dir()


class TestMemoryError:
    # numpy's _ArrayMemoryError is a MemoryError; the first draw of any
    # stream raises one with its message, so nothing is allocated
    MESSAGE = ("Unable to allocate 1.46 TiB for an array with shape (100000000000, 2) "
               "and data type float64")
    CASES = {
        "simulate": ["simulate", "--model", "logistic(2)", "--n", 60, "--d", 2,
                     "--seed", 4],
        "converge": ["converge", "--model", "independence", "--n", 1000, "--d", 2,
                     "--k-schedule", "20", "--T", 1.5, "--trials", 2, "--seed", 3,
                     "--workers", 1],
        "rademacher": ["rademacher", "--model", "uniform", "--n", 500, "--d", 2,
                       "--k", 10, "--T", 2.0, "--trials", 2, "--seed", 3],
        "classify-decomposition": ["classify", "--mode", "decomposition", "--n", 300,
                                   "--alpha", "0.1", "--trials", 2, "--seed", 10],
        # column 1 ties in pairs, so the jitter draws
        "estimate-jitter-seed": ESTIMATE + ["--jitter-seed", 3],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_memory_error_exits_4_and_names_the_allocation(self, tmp_path, capsys,
                                                           monkeypatch, case):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2\n" + "".join(f"{i},{i // 2}\n" for i in range(50)))
        drawn = forbid_draws(monkeypatch, MemoryError(self.MESSAGE), reads=False)
        out = tmp_path / "o"
        args = [str(a).format(data=data) for a in self.CASES[case]]
        assert run(args + ["--out", str(out)]) == 4
        command = case.split("-")[0]
        assert capsys.readouterr().err == (f"tailvc {command}: does not fit in memory: "
                                           f"{self.MESSAGE}\n")
        assert len(drawn) == 1
        assert not out.exists()
