"""The benchmark's command lines, run at their tiny size through ``cli.main``.

``perfbench/workloads.py`` states each workload's tailvc command lines and
the checks of their outputs.  Running them here, in-process, makes a CLI
change that breaks a benchmark command line fail with the rest of the
suite.  The module is read from ``perfbench/``; nothing there is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tailvc.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # its dataclass looks its module up by name
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", list(workloads.SIZES))
def test_tiny_commands_run_and_pass_the_output_checks(workload, tmp_path):
    for command in workloads.commands(workload, 1, tmp_path, "tiny"):
        assert main(list(command.argv)) == 0, command.argv
        for name in command.outputs:
            assert workloads.check_output(workload, "tiny", tmp_path / name) is None
