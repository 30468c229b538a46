"""Module boundaries: only ``gridscan`` reads ``gridscan``'s private names,
every function the benchmark tracer wraps exists, and the tracer can
rebind every alias of them."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailvc

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
