"""Golden runs: every row of ``golden_runs.json`` is one small seeded command
line, run in-process through ``cli.main``.

Each way of running a row is one test.  A success row records the exit
code, the SHA-256 of every data file, and one SHA-256 of the manifest's
``config`` and ``results`` blocks (``out`` and ``workers`` dropped,
``data`` read back as ``{data}``).  The row runs at each worker count it
lists, and the first run is replayed through ``--config <manifest>``;
every run must match the row, and the manifest's config must hold every
option of the subcommand.

A refusal row sets the options in ``set`` on the command line and, in a
second test, in a config file.  It records the exit code and the last line
of stderr (one string, or one per way in).  It runs under the draw guard
(``draw_guard.forbid_draws``) and must leave no ``--out`` behind.

Inputs: ``args`` may name ``{data}``, the sample ``data`` names: the
``sample.csv`` of the simulate row of that id, or a file below.  ``config``
is a config file the run reads.

A row that fails prints the row as the run now reads it, as one JSON line.
To record a deliberate change, paste that line over the row and name the
row and the reason in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from draw_guard import forbid_draws
from tailvc.cli import _SPECS, main

TABLE = Path(__file__).with_name("golden_runs.json")
ROWS = json.loads(TABLE.read_text(encoding="utf-8"))

# samples not drawn by a simulate row
SAMPLES = {
    # no ties: i and 7 i mod 50, a permutation of 0..49
    "distinct": "x1,x2\n" + "".join(f"{i},{7 * i % 50}\n" for i in range(50)),
    # columns that tie in groups of 4 and of 10 rows
    "tied": "x1,x2\n" + "".join(f"{i * 7919 % 2000 // 4},{i * 31 % 2000 // 10}\n"
                                for i in range(2000)),
}
INPUTS = ("id", "args", "data", "config", "workers", "set")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """The path of each row's ``data``, made once."""
    made = {}

    def path_of(name):
        if name not in made:
            where = tmp_path_factory.mktemp(name)
            if name in SAMPLES:
                made[name] = where / "data.csv"
                made[name].write_text(SAMPLES[name])
            else:
                row = next(r for r in ROWS if r["id"] == name)
                assert main(list(map(str, row["args"])) + ["--out", str(where)]) == 0
                made[name] = where / "sample.csv"
        return made[name]

    return path_of


def fill(value, data):
    if isinstance(value, str):
        return value.replace("{data}", str(data))
    if isinstance(value, dict):
        return {key: fill(v, data) for key, v in value.items()}
    return value


def text(value) -> str:
    """A value as a flag spells it: a list as comma-separated values."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def run(args, capsys) -> tuple[int, str]:
    """Exit code and stderr, counting an argparse rejection's SystemExit code;
    argparse's usage text is cut to its last line, the error."""
    capsys.readouterr()
    try:
        code = main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err.splitlines()[-1]
    return code, capsys.readouterr().err.removesuffix("\n")


def manifest_digest(path, data) -> str:
    """SHA-256 of the manifest's config and results, free of paths and workers."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    config = {key: value for key, value in manifest["config"].items()
              if key not in ("out", "workers")}
    if "data" in config:
        config["data"] = config["data"].replace(str(data), "{data}")
    block = json.dumps({"config": config, "results": manifest["results"]},
                       sort_keys=True)
    return hashlib.sha256(block.encode()).hexdigest()


def outcome(args, out, data, capsys) -> dict:
    """What a run reports: its exit code, then stderr, or the data files'
    hashes and the manifest's digest."""
    code, err = run(list(args) + ["--out", out], capsys)
    if code != 0:
        return {"exit": code, "stderr": err}
    manifest = out / f"{args[0]}_manifest.json"
    files = {p.name: sha256(p) for p in sorted(out.iterdir()) if p != manifest}
    return {"exit": 0, "files": files, "manifest": manifest_digest(manifest, data)}


def ways(row) -> list:
    """The ways a row is run: a refusal by flag and by config file; a success
    at each worker count it lists, then replayed from the first run's
    manifest."""
    if "set" in row:
        return ["flag", "config"]
    return ([f"workers{w}" for w in row.get("workers", [])] or ["run"]) + ["replay"]


def expected(row, way) -> dict:
    """What the row records for one way of running it."""
    if "set" not in row:
        return {key: row[key] for key in ("exit", "files", "manifest")}
    return {key: row[key][way] if isinstance(row[key], dict) else row[key]
            for key in ("exit", "stderr")}


@pytest.fixture(scope="module")
def observe(tmp_path_factory):
    """The outcome of a row run one way, and the directory its ``--out``
    names; each way of each row runs once per module."""
    seen = {}

    def observe(row, way, data, capsys):
        if (row["id"], way) in seen:
            return seen[row["id"], way]
        where = tmp_path_factory.mktemp(row["id"])
        args = [fill(a, data) for a in row["args"]]
        if "config" in row:
            cfg = where / "row-config.json"
            cfg.write_text(json.dumps(fill(row["config"], data)))
            args += ["--config", cfg]
        if way == "replay":
            first = observe(row, ways(row)[0], data, capsys)[1]
            args = [args[0], "--config", first / f"{args[0]}_manifest.json"]
        elif way.startswith("workers"):
            args += ["--workers", way.removeprefix("workers")]
        elif way == "flag":
            for name, value in row["set"].items():
                args += [f"--{name}", text(value)]
        elif way == "config":
            cfg = where / "config.json"
            cfg.write_text(json.dumps(row["set"]))
            args += ["--config", cfg]
        out = where / way / "o"
        seen[row["id"], way] = outcome(args, out, data, capsys), out
        return seen[row["id"], way]

    return observe


def now(row, observe, data, capsys) -> str:
    """The row as the run now reads it, as one JSON line: a success row with
    the outcome of every way if all agree, else the first that differs; a
    refusal row with one exit code and one stderr line if both ways agree,
    else one per way."""
    seen = {way: observe(row, way, data, capsys)[0] for way in ways(row)}
    if "set" in row:
        read = {}
        for key in ("exit", "stderr"):
            flag, config = seen["flag"].get(key), seen["config"].get(key)
            read[key] = flag if flag == config else {"flag": flag, "config": config}
    else:
        outcomes = list(seen.values())
        read = next((o for o in outcomes if o != outcomes[0]), outcomes[0])
    return json.dumps(dict({key: row[key] for key in INPUTS if key in row}, **read))


CASES = [pytest.param(row, way, id=f"{row['id']}-{way}")
         for row in ROWS for way in ways(row)]


@pytest.mark.parametrize("row, way", CASES)
def test_golden_run(row, way, samples, observe, capsys, monkeypatch):
    data = samples(row["data"]) if "data" in row else None
    if "set" in row:
        drawn = forbid_draws(monkeypatch)
    seen, out = observe(row, way, data, capsys)
    assert seen == expected(row, way), now(row, observe, data, capsys)
    if "set" in row:
        assert drawn == []
        assert not out.parent.exists()
    elif way == "replay":
        command = row["args"][0]
        first = observe(row, ways(row)[0], data, capsys)[1]
        manifest = json.loads((first / f"{command}_manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["config"]) == {opt.name for opt in _SPECS[command]}


def test_row_ids_are_unique_and_every_row_is_whole():
    assert len({row["id"] for row in ROWS}) == len(ROWS)
    for row in ROWS:
        # a refusal's config file holds its ``set`` alone
        wanted = {"exit", "stderr"} if "set" in row else {"exit", "files", "manifest"}
        assert set(INPUTS[:2]) | wanted <= set(row) <= set(INPUTS) | wanted, row["id"]
        assert not {"set", "config"} <= set(row), row["id"]
