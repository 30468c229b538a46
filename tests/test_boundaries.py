"""Module boundaries: only ``gridscan`` reads ``gridscan``'s private names,
every function the benchmark tracer wraps exists, the tracer can rebind
every alias of them, one function owns the d >= 3 scan rule, and no
production path reads a ``TailOrder``'s ranks."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tailvc
from tailvc import cli, concentration, gridscan, harness
from tailvc.empirical import TailOrder, tail_order
from tailvc.errors import EXIT_USAGE, ConfigurationError
from tailvc.models import independence, logistic
from tailvc.reportio import write_sample_csv
from tailvc.rng import substream
from tailvc.samplers import Sample, draw_copula_sample

PACKAGE = Path(tailvc.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def private_gridscan_reads(source: str) -> list[str]:
    """Every underscore-prefixed ``gridscan`` name the source imports or reads.

    Covers ``from .gridscan import _x`` (relative or absolute), and
    attribute reads ``g._x`` where ``g`` is bound to the module by
    ``from . import gridscan [as g]`` or ``import tailvc.gridscan as g``,
    and ``tailvc.gridscan._x``.
    """
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "gridscan":
                found += [a.name for a in node.names if a.name.startswith("_")]
            elif module in ("", "tailvc"):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "gridscan"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "tailvc.gridscan" and a.asname}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            found.append(node.attr)
        elif (isinstance(owner, ast.Attribute) and owner.attr == "gridscan"
              and isinstance(owner.value, ast.Name) and owner.value.id == "tailvc"):
            found.append(node.attr)
    return found


@pytest.mark.parametrize("source,names", [
    ("from .gridscan import _dominance_strips, suffix_sums", ["_dominance_strips"]),
    ("from tailvc.gridscan import _STRIP_BYTES as b", ["_STRIP_BYTES"]),
    ("from . import gridscan\nx = gridscan._STRIP_BYTES", ["_STRIP_BYTES"]),
    ("from . import gridscan as g\ng._cell_corner_max(a, b)", ["_cell_corner_max"]),
    ("import tailvc.gridscan as g\ng._corner_scan", ["_corner_scan"]),
    ("import tailvc.gridscan\ntailvc.gridscan._check_points(z)", ["_check_points"]),
    ("from . import gridscan\ngridscan.count_strips(p, a, 1.0)", []),
    ("from . import models\nmodels._check_point(m, x)", []),
])
def test_detector(source, names):
    assert private_gridscan_reads(source) == names


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "gridscan.py"))
def test_no_module_reads_gridscan_privates(path):
    source = (PACKAGE / path).read_text(encoding="utf-8")
    assert private_gridscan_reads(source) == []


def traced_layers() -> dict[str, list[str]]:
    """``LAYERS`` of the benchmark tracer, loaded from its file, unregistered."""
    spec = importlib.util.spec_from_file_location("_tailvc_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("name", [f"{mod}.{fn}" for mod, fns in traced_layers().items()
                                  for fn in fns])
def test_every_traced_name_resolves(name):
    # the tracer raises on a missing name, so deleting one breaks every
    # traced benchmark run; fail here first
    module, *path = name.split(".")
    obj = importlib.import_module(f"tailvc.{module}")
    for part in path:
        obj = getattr(obj, part)
    assert inspect.isfunction(obj)


def test_tracer_installs_and_restores_on_a_fresh_interpreter():
    # install raises when a dict or closure outside the package's module
    # namespaces holds a traced function (a table of commands, say); this
    # process's test modules hold their own, so a fresh interpreter runs it
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('_tailvc_bench_tracer',"
        " sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "t.restore()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", code, str(TRACER)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------- the d >= 3 scan policy

D3_MESSAGE = "d = 3 >= 3 requires a declared grid; the exact scan serves d <= 2"


def raisers_of(source: str, fragment: str) -> list[str]:
    """The innermost function around each ``raise`` whose message holds ``fragment``.

    A raise outside any function is reported as ``<module>``.
    """
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and isinstance(c.value, str)
                and fragment in c.value for c in ast.walk(node)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source,names", [
    ('def f(d):\n    raise E(f"d = {d} >= 3 requires x")', ["f"]),
    ('def f():\n    def g():\n        raise E(">= 3 requires")\n    return g', ["g"]),
    ('raise E(">= 3 requires")\ndef f():\n    x = ">= 3 requires"', ["<module>"]),
    ('def f():\n    raise E("d >= 2 requires")', []),
])
def test_raiser_detector(source, names):
    assert raisers_of(source, ">= 3 requires") == names


def test_the_d3_rule_is_raised_in_one_function():
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in raisers_of(path.read_text(encoding="utf-8"), ">= 3 requires")]
    assert found == ["gridscan.scan_is_exact"]


def _cli(*args):
    return lambda a: cli.main([str(v).format(data=a.data) for v in args]
                              + ["--out", str(a.out)])


# each d = 3 entry point called without a grid, on the inputs of ``d3_inputs``
D3_CALLS = {
    "sup_stdf_deviation": lambda a: harness.sup_stdf_deviation(a.x, 10, a.model, 2.0),
    "deviation_decomposition": lambda a: harness.deviation_decomposition(
        a.x, 10, 2.0, a.model),
    "ExperimentConfig": lambda a: harness.ExperimentConfig(
        model=a.model, n=400, d=3, k_schedule=(10,), T=2.0, delta=0.05, trials=2,
        seed=1),
    "sup_empirical_deviation": lambda a: concentration.sup_empirical_deviation(
        1.0 - a.x, a.cls, a.model),
    "relative_rademacher": lambda a: concentration.relative_rademacher(
        a.model, a.cls, 5, 1),
    "cli-estimate": _cli("estimate", "--data", "{data}", "--k", 5, "--T", 2.0),
    "cli-converge": _cli("converge", "--model", "independence", "--n", 400, "--d", 3,
                         "--k-schedule", 10, "--T", 2.0, "--trials", 2, "--seed", 1,
                         "--workers", 1),
    "cli-rademacher": _cli("rademacher", "--n", 400, "--d", 3, "--k", 10, "--T", 2.0,
                           "--trials", 2, "--seed", 1),
    "cli-rademacher-both": _cli("rademacher", "--statistic", "both", "--n", 400,
                                "--d", 3, "--k", 10, "--T", 2.0, "--trials", 2,
                                "--seed", 1),
}


@pytest.fixture
def d3_inputs(tmp_path):
    model = independence(3)
    data = tmp_path / "d3.csv"
    # three permutations of 0..49: no ties
    data.write_text("x1,x2,x3\n" + "".join(f"{i},{7 * i % 50},{11 * i % 50}\n"
                                           for i in range(50)))
    return SimpleNamespace(
        model=model, x=draw_copula_sample(model, 400, substream(5, "d3-owner")),
        cls=concentration.RectClassSpec(d=3, k=10, n=400, T=2.0), data=data,
        out=tmp_path / "o")


@pytest.mark.parametrize("entry", sorted(D3_CALLS))
def test_every_d3_entry_point_refuses_before_any_work(d3_inputs, capsys,
                                                      monkeypatch, entry):
    def fail(*args, **kwargs):
        raise AssertionError("a sample was drawn or a scan started")

    # every sampler alias and every scan kernel the entry points can reach
    for module, names in (
        (harness, ["draw_copula_sample", "tail_depths", "_corner_model_grids",
                   "max_count_gap"]),
        (concentration, ["draw_tail_uniforms", "sup_count_vs_mass",
                         "sup_count_vs_mass_grid", "sup_signed_count"]),
        (cli, ["draw_sample", "stdf_lattice_counts"]),
        (gridscan, ["_dominance_strips", "_signed_dominance_range"]),
    ):
        for name in names:
            monkeypatch.setattr(module, name, fail)
    if entry.startswith("cli-"):
        assert D3_CALLS[entry](d3_inputs) == EXIT_USAGE
        subcommand = entry.split("-")[1]
        assert capsys.readouterr().err == f"tailvc {subcommand}: {D3_MESSAGE}\n"
        assert not any(d3_inputs.out.iterdir())
    else:
        with pytest.raises(ConfigurationError) as err:
            D3_CALLS[entry](d3_inputs)
        assert str(err.value) == D3_MESSAGE
        assert err.value.exit_code == EXIT_USAGE


def production_outputs(x, root):
    """The bytes and values of every production path that orders a sample:
    ``estimate`` plain, strided and jittered, a tiny ``converge``, and
    ``sup_stdf_deviation`` and ``deviation_decomposition`` on raw values."""
    model, data = logistic(2.0, 2), root / "sample.csv"
    root.mkdir()
    write_sample_csv(Sample(x), data)
    runs = {
        "estimate": ["estimate", "--data", data, "--k", 20, "--T", 2.0],
        "estimate-strided": ["estimate", "--data", data, "--k", 20, "--T", 2.0,
                             "--grid-stride", 3],
        "estimate-jittered": ["estimate", "--data", data, "--k", 20, "--T", 2.0,
                              "--jitter-seed", 4],
        "converge": ["converge", "--model", "logistic(2)", "--n", 1000, "--d", 2,
                     "--k-schedule", "10,20", "--T", 1.5, "--trials", 2,
                     "--seed", 6, "--workers", 1],
        "converge-grid": ["converge", "--model", "logistic(2)", "--n", 1000,
                          "--d", 2, "--k-schedule", "20", "--T", 1.5, "--trials", 2,
                          "--seed", 6, "--workers", 1, "--grid-resolution", 9],
    }
    outputs = {}
    for name, args in runs.items():
        out = root / name
        assert cli.main([str(a) for a in args] + ["--out", str(out)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    outputs["sup_stdf_deviation"] = harness.sup_stdf_deviation(x, 20, model, 2.0)
    outputs["deviation_decomposition"] = harness.deviation_decomposition(
        x, 20, 2.0, model)
    return outputs


def test_no_production_path_reads_ranks(tmp_path, monkeypatch):
    x = draw_copula_sample(logistic(2.0, 2), 2000, substream(31, "no-ranks"))
    expected = production_outputs(x, tmp_path / "plain")

    def refuse(self):
        raise AssertionError("a production path read TailOrder.ranks")

    monkeypatch.setattr(TailOrder, "ranks", property(refuse))
    with pytest.raises(AssertionError, match="read TailOrder.ranks"):
        tail_order(x).ranks
    assert production_outputs(x, tmp_path / "patched") == expected
