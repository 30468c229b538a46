"""Run ``tailvc.cli.main(argv)`` in this process, traced or not.

    python3 perfbench/traced_cli.py --trace 0|1 [--run-id N] RESULT_JSON -- ARGV...

ARGV is a tailvc command line without the program name.  The tailvc
package is imported from the ``src`` directory next to this benchmark,
never from an installed copy.  When the call returns, RESULT_JSON receives
the wall time of the ``main`` call as seen from outside the tracer and,
when traced, every span and counter.  The exit code of this process is
the exit code of ``main``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result_json")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    sys.path.insert(0, str(SRC))
    import tailvc.cli

    if not Path(tailvc.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tailvc imported from {tailvc.cli.__file__}, not {SRC}")
    spans_tracer = tracer.Tracer(run_id=args.run_id) if args.trace else None
    if spans_tracer is not None:
        spans_tracer.install()
    start = time.perf_counter()
    code = tailvc.cli.main(cli_argv)
    wall = time.perf_counter() - start
    record = {"wall_s": wall, "spans": [], "counters": {}}
    if spans_tracer is not None:
        spans_tracer.restore()
        record["spans"] = spans_tracer.spans
        record["counters"] = dict(spans_tracer.counters)
    Path(args.result_json).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
