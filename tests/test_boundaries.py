"""Module boundaries: no module reads another module's private names or
imports a library name from the package root, every function the
benchmark tracer wraps exists, the tracer can rebind every alias of them
and sees a command's calls, ``--help`` loads no numpy and a command only
its own modules, one function owns the d >= 3 scan rule, no production
path reads ranks off the tail state, and every public name has a reader."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tailvc
from draw_guard import forbid_draws
from tailvc import cli, concentration, empirical, gridscan, harness
from tailvc.empirical import ColumnTails, column_tails
from tailvc.errors import EXIT_USAGE, ConfigurationError
from tailvc.models import independence
from tailvc.rng import substream
from tailvc.samplers import draw_copula_sample

PACKAGE = Path(tailvc.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def private_reads(source: str, own: str) -> list[str]:
    """Every ``module._name`` the source imports or reads from a ``tailvc``
    module other than ``own``.

    Covers ``from .m import _x`` (relative or absolute), and attribute
    reads ``g._x`` where ``g`` is bound to the module by
    ``from . import m [as g]`` or ``import tailvc.m as g``, and
    ``tailvc.m._x``. Dunder names are not private.
    """
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("", "tailvc"):
                aliases |= {a.asname or a.name: a.name for a in node.names
                            if a.name in MODULES}
            elif module.split(".")[-1] in MODULES:
                found += [f"{module.split('.')[-1]}.{a.name}" for a in node.names
                          if private(a.name)]
        elif isinstance(node, ast.Import):
            aliases |= {a.asname: a.name.split(".")[1] for a in node.names
                        if a.asname and a.name.startswith("tailvc.")}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and private(node.attr)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            found.append(f"{aliases[owner.id]}.{node.attr}")
        elif (isinstance(owner, ast.Attribute) and owner.attr in MODULES
              and isinstance(owner.value, ast.Name) and owner.value.id == "tailvc"):
            found.append(f"{owner.attr}.{node.attr}")
    return [name for name in found if name.split(".")[0] != own]


@pytest.mark.parametrize("source,names", [
    ("from .gridscan import _dominance_strips, suffix_sums",
     ["gridscan._dominance_strips"]),
    ("from tailvc.gridscan import _STRIP_BYTES as b", ["gridscan._STRIP_BYTES"]),
    ("from . import gridscan\nx = gridscan._STRIP_BYTES", ["gridscan._STRIP_BYTES"]),
    ("from . import gridscan as g\ng._cell_corner_max(a, b)",
     ["gridscan._cell_corner_max"]),
    ("import tailvc.gridscan as g\ng._corner_scan", ["gridscan._corner_scan"]),
    ("import tailvc.gridscan\ntailvc.gridscan._check_points(z)",
     ["gridscan._check_points"]),
    ("from . import gridscan\ngridscan.count_strips(p, a, 1.0)", []),
    ("from . import models\nmodels._check_point(m, x)", ["models._check_point"]),
    ("from . import harness\nharness._check_lattice_scan(s)",
     ["harness._check_lattice_scan"]),
    ("from .cli import _options\n_options(n, a, c)", []),  # its own module
    ("from . import models\nx = models.__name__", []),
])
def test_detector(source, names):
    assert private_reads(source, own="cli") == names


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_another_modules_privates(path):
    source = (PACKAGE / path).read_text(encoding="utf-8")
    assert private_reads(source, own=Path(path).stem) == []


def root_imports(source: str) -> list[str]:
    """Every name the source imports from the package root that is not a
    submodule or ``__version__``: ``from tailvc import x``, and ``from . import
    x`` inside the package."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module, node.level) in (("tailvc", 0), (None, 1))
            for a in node.names if a.name not in (*MODULES, "__version__")]


@pytest.mark.parametrize("source,names", [
    ("from tailvc import build_ranks, gridscan", ["build_ranks"]),
    ("from . import __version__, harness", []),
    ("from . import TailvcError as E", ["TailvcError"]),
    ("def f():\n    from tailvc import draw_sample", ["draw_sample"]),
    ("from tailvc.empirical import build_ranks\nimport tailvc", []),
    ("from .models import parse_model", []),
])
def test_root_import_detector(source, names):
    assert root_imports(source) == names


def test_no_file_imports_a_library_name_from_the_package_root():
    # each name has one import path: its defining module
    found = {str(path.relative_to(ROOT)): names
             for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))
             if (names := root_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


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


def traced_in_fresh_interpreter(body: str, *args) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter after loading the tracer as ``tracer``.

    ``sys.argv[1]`` is the tracer's path and ``sys.argv[2:]`` are ``args``.
    """
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('_tailvc_bench_tracer',"
        " sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
    ) + body
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code, str(TRACER), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_tracer_installs_and_restores_on_a_fresh_interpreter():
    # install raises when a dict or closure outside the package's module
    # namespaces holds a traced function (a table of commands, say); this
    # process's test modules hold their own, so a fresh interpreter runs it
    result = traced_in_fresh_interpreter("t = tracer.Tracer()\nt.install()\nt.restore()\n")
    assert result.returncode == 0, result.stderr


def test_tracer_sees_the_calls_of_a_command(tmp_path):
    # cli holds no alias of a traced function: each command imports its names
    # when it runs, so it reads the tracer's wrapper from the defining module
    data = tmp_path / "x.csv"
    data.write_text("x1,x2\n" + "".join(f"{i},{7 * i % 50}\n" for i in range(50)))
    result = traced_in_fresh_interpreter(
        "import collections, json\n"
        "from tailvc import cli\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "code = cli.main(sys.argv[2:])\n"
        "t.restore()\n"
        "print(json.dumps([code, collections.Counter(s[0] for s in t.spans)]))\n",
        "estimate", "--data", data, "--k", 5, "--T", 2.0, "--out", tmp_path / "o")
    assert result.returncode == 0, result.stderr
    code, calls = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert calls == {"cli.main": 1, "cli.cmd_estimate": 1, "reportio.read_sample_csv": 1,
                     "empirical.build_ranks": 1, "empirical.stdf_lattice_counts": 1,
                     "reportio.write_csv": 1, "reportio.write_manifest": 1}


# ------------------------------------------------------------------ start-up

SUBCOMMANDS = ("simulate", "estimate", "converge", "bound", "rademacher", "classify")


def fresh_run(args, cwd) -> tuple[subprocess.CompletedProcess, set[str]]:
    """``python -X importtime -m tailvc.cli ARGS``, and every module it imported."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tailvc.cli", *map(str, args)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    return done, imported


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_loads_no_numpy(sub, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as parsed:
        cli.build_parser().parse_args([sub, "--help"])
    assert parsed.value.code == 0
    done, imported = fresh_run([sub, "--help"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == capsys.readouterr().out
    assert {m for m in imported if m.split(".")[0] in ("numpy", "tailvc")} == {
        "tailvc", "tailvc.errors"}


# a serial run, --workers 1 by default, never loads the process pool
POOL = "concurrent.futures.process"


@pytest.mark.parametrize("args,skipped", [
    (["rademacher", "--n", 400, "--d", 2, "--k", 10, "--T", 2.0, "--trials", 2,
      "--seed", 1], {"tailvc.classify", "tailvc.harness", "tailvc.empirical", POOL,
                     "numpy.ma"}),
    (["simulate", "--model", "independence", "--n", 50, "--d", 2, "--seed", 1],
     {"tailvc.classify", "tailvc.concentration", "tailvc.gridscan"}),
    (["classify", "--n-alpha-grid", "50,100", "--trials", 2, "--family-size", 4,
      "--seed", 1], {"tailvc.concentration", "tailvc.harness", "tailvc.empirical",
                     "tailvc.gridscan", POOL, "numpy.ma"}),
    (["classify", "--mode", "decomposition", "--n", 300, "--trials", 2, "--seed", 1],
     {"tailvc.concentration", "tailvc.harness", "tailvc.empirical", "tailvc.gridscan",
      POOL}),
    (["estimate", "--data", "x.csv", "--k", 5, "--T", 2.0],
     {"tailvc.harness", "tailvc.classify", "tailvc.concentration", POOL, "numpy.ma"}),
    (["estimate", "--data", "x.csv", "--k", 5, "--T", 2.0, "--jitter-seed", 3],
     {"tailvc.harness", "tailvc.classify", "tailvc.concentration", POOL, "numpy.ma"}),
    (["converge", "--model", "logistic(2)", "--n", 2000, "--d", 2, "--k-schedule", "20,40",
      "--T", 2.0, "--trials", 2, "--workers", 1, "--seed", 1],
     {"tailvc.classify", "tailvc.concentration", POOL, "numpy.ma"}),
], ids=["rademacher", "simulate", "classify-rate", "classify-decomposition", "estimate",
        "estimate-jitter", "converge"])
def test_a_command_imports_only_its_modules(args, skipped, tmp_path):
    (tmp_path / "x.csv").write_text("x1,x2\n" + "".join(f"{i},{7 * i % 50}\n"
                                                        for i in range(50)))
    done, imported = fresh_run(args + ["--out", tmp_path / "o"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert {"numpy", "tailvc.reportio"} <= imported  # the run did its work
    assert imported & skipped == set()


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


@pytest.mark.parametrize("fragment, raiser", [
    ("the union region leaves the unit cube", "concentration.__post_init__"),
    ("union mass is zero", "concentration.__post_init__"),
    ("floor(n alpha) = ", "classify.tail_count"),
])
def test_each_low_mass_rule_is_raised_in_one_function(fragment, raiser):
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in raisers_of(path.read_text(encoding="utf-8"), fragment)]
    assert found == [raiser]


def _cli(*args):
    return lambda a: cli.main([str(v).format(data=a.data) for v in args]
                              + ["--out", str(a.out)])


# each d = 3 entry point called without a grid, on the inputs of ``d3_inputs``
D3_CALLS = {
    "sup_stdf_deviation": lambda a: harness.sup_stdf_deviation(a.x, 10, a.model, 2.0),
    "deviation_decomposition": lambda a: harness.deviation_decomposition(
        a.x, 10, 2.0, a.model),
    "ExperimentConfig": lambda a: harness.ExperimentConfig(
        model=a.model, n=400, k_schedule=(10,), T=2.0, delta=0.05, trials=2,
        seed=1),
    "sup_empirical_deviation": lambda a: concentration.sup_empirical_deviation(
        1.0 - a.x, a.cls),
    "relative_rademacher": lambda a: concentration.relative_rademacher(a.cls, 5, 1),
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
        cls=concentration.RectClassSpec(model=model, k=10, n=400, T=2.0), data=data,
        out=tmp_path / "o")


@pytest.mark.parametrize("entry", sorted(D3_CALLS))
def test_every_d3_entry_point_refuses_before_any_work(d3_inputs, capsys,
                                                      monkeypatch, entry):
    def fail(*args, **kwargs):
        raise AssertionError("a scan started")

    # no draw and no scan kernel the entry points can reach; estimate reads
    # its sample to learn d
    drawn = forbid_draws(monkeypatch, reads=False)
    for module, names in (
        (harness, ["tail_depths", "_corner_model_grids", "max_count_gap"]),
        (concentration, ["sup_count_vs_mass", "sup_count_vs_mass_grid",
                         "sup_signed_count"]),
        (empirical, ["stdf_lattice_counts"]),
        (gridscan, ["_dominance_strips", "_signed_dominance_range"]),
    ):
        for name in names:
            monkeypatch.setattr(module, name, fail)
    if entry.startswith("cli-"):
        assert D3_CALLS[entry](d3_inputs) == EXIT_USAGE
        subcommand = entry.split("-")[1]
        assert capsys.readouterr().err == f"tailvc {subcommand}: {D3_MESSAGE}\n"
        assert not d3_inputs.out.exists()
    else:
        with pytest.raises(ConfigurationError) as err:
            D3_CALLS[entry](d3_inputs)
        assert str(err.value) == D3_MESSAGE
        assert err.value.exit_code == EXIT_USAGE
    assert drawn == []



# each declared-grid entry point given a grid over the node budget: 257 nodes
# per axis at d = 3, the lattice at stride 1 up to floor(kT) = 300, and 2 at d = 30
BUDGET_MESSAGE = ("a grid of {r} nodes per axis at d = {d} has {nodes:,} nodes, "
                  "above the budget of 16,777,216 (256^3)")
BUDGET_CALLS = {
    "sup_stdf_deviation": (257, 3, lambda a: harness.sup_stdf_deviation(
        a.x, 10, a.model, 2.0, grid_resolution=257)),
    "ExperimentConfig": (257, 3, lambda a: harness.ExperimentConfig(
        model=a.model, n=400, k_schedule=(10,), T=2.0, delta=0.05, trials=2,
        seed=1, grid_resolution=257)),
    "sup_empirical_deviation": (257, 3, lambda a: concentration.sup_empirical_deviation(
        1.0 - a.x, a.cls, grid_resolution=257)),
    "relative_rademacher": (257, 3, lambda a: concentration.relative_rademacher(
        a.cls, 5, 1, grid_resolution=257)),
    "relative_rademacher-d30": (2, 30, lambda a: concentration.relative_rademacher(
        concentration.RectClassSpec(model=independence(30), k=10, n=1000, T=1.0), 2, 1,
        grid_resolution=2)),
    "estimate-stride": (301, 3, lambda a: empirical.check_lattice_scan(
        a.x, 150, None, 2.0, None, stride=1)),
}


@pytest.mark.parametrize("entry", sorted(BUDGET_CALLS))
def test_every_declared_grid_over_the_node_budget_is_refused_before_any_work(
        d3_inputs, monkeypatch, entry):
    def fail(*args, **kwargs):
        raise AssertionError("a scan started")

    drawn = forbid_draws(monkeypatch)
    for module, names in ((harness, ["max_count_gap", "declared_axis"]),
                          (concentration, ["sup_count_vs_mass_grid", "declared_axis"]),
                          (gridscan, ["_dominance_strips"])):
        for name in names:
            monkeypatch.setattr(module, name, fail)
    r, d, call = BUDGET_CALLS[entry]
    with pytest.raises(ConfigurationError) as err:
        call(d3_inputs)
    assert str(err.value) == BUDGET_MESSAGE.format(r=r, d=d, nodes=r ** d)
    assert err.value.exit_code == EXIT_USAGE
    assert drawn == []


def test_no_production_path_reads_ranks():
    # the rank-based l_n lives in tests/rank_oracles.py: the rank state has
    # no ranks to read, and no library module reaches the oracles
    assert not hasattr(ColumnTails, "ranks")
    assert not hasattr(column_tails([[0.5, 2.0], [1.5, 1.0]], 2), "ranks")
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if "rank_oracles" in p.read_text(encoding="utf-8")] == []


def readme_section(heading: str) -> str:
    """The text of README's ``## heading`` section."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def backticked_names(text: str) -> set[str]:
    return set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", text))))


def library_references() -> set[str]:
    """Every name a ``tailvc`` module other than ``__init__`` reads, imports
    or annotates with, outside the definition of that name itself."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None) for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
            found |= names - {getattr(stmt, "name", None)}  # a def's own name
    return found


def public_names(source: str) -> set[str]:
    """The public names a module defines at top level: its classes,
    functions and assigned names that do not start with ``_``."""
    found = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found |= {node.id for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)}
    return {name for name in found if not name.startswith("_")}


def test_public_names_detector():
    source = ("import numpy as np\nfrom .errors import DataError\nA, _B = 1, 2\n"
              "C: int = 3\n_D = 4\ndef f(): pass\nclass G:\n    h = 5\n"
              "def _i(): pass\n")
    assert public_names(source) == {"A", "C", "f", "G"}


def dispatched_commands() -> set[str]:
    """The ``cmd_<subcommand>`` functions ``cli.main`` looks up by name."""
    if 'globals()[f"cmd_{name}"]' not in inspect.getsource(cli.main):
        return set()
    return {f"cmd_{sub}" for sub in SUBCOMMANDS}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_reader(module):
    # a public name is read elsewhere in the library, wrapped by the
    # benchmark tracer, listed in README with the paper object or test it
    # serves, or a subcommand that ``main`` dispatches by name
    listed = readme_section("Library layout").split(
        "Public names that no subcommand reaches", 1)[1].split("\n\n", 2)[1]
    traced = {fn.split(".")[0] for fns in traced_layers().values() for fn in fns}
    names = public_names((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert names  # the detector sees the module's definitions
    unread = (names - library_references() - traced - backticked_names(listed)
              - dispatched_commands())
    assert sorted(unread) == []


def test_readme_names_exist_in_their_modules():
    # "Public names, by module": each ``- `module`: `name`, ...`` entry (and
    # a `` `module`: `` inside one) lists names that module defines
    layout = readme_section("Library layout").split("Public names, by module", 1)[1]
    layout = layout.split("Public names that no subcommand reaches", 1)[0]
    listed = {}
    for module, names in re.findall(r"`(\w+)`: (.*?)(?=`\w+`: |\Z)", layout, re.S):
        listed[module] = backticked_names(names)
    assert "build_ranks" in listed["empirical"] and set(listed) <= set(MODULES)
    missing = {f"{module}.{name}" for module, names in listed.items() for name in names
               if not hasattr(importlib.import_module(f"tailvc.{module}"), name)}
    assert sorted(missing) == []
