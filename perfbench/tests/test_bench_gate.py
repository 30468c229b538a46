"""The correctness gate trips on a one-byte change, a wrong reference or bad data."""

import json

import pytest

import gate
import run
import workloads


def proc(exit_code=0):
    return run.Proc(exit=exit_code, wall_s=1.0, cpu_s=1.0, rss_mb=1.0, stderr="boom")


@pytest.fixture
def bench(tmp_path):
    return run.Bench("classify-rate", 5, "tiny", tmp_path)


def write_outputs(out):
    """Valid tiny classify-rate outputs, written by hand."""
    p = workloads.SIZES["classify-rate"]["tiny"]
    rows = ["trial_id,n,alpha,d,norm,statistic_name,value"]
    for na in p["grid"]:
        rows += [f"{t},{int(na / 0.1)},0.1,2,linf,sup_risk_deviation,0.25"
                 for t in range(p["trials"])]
    (out / "classify_trials.csv").write_text("\n".join(rows) + "\n")
    (out / "classify_summary.csv").write_text(
        "n,alpha,n_alpha,median_sup_deviation\n"
        + "".join(f"{int(na / 0.1)},0.1,{na},0.25\n" for na in p["grid"]))
    (out / "family.txt").write_text("0,0.05,1\n0,0.95,1\n1,0.05,1\n1,0.95,1\n")


def command(bench, out):
    return bench.commands(out)[0]


def test_one_byte_change_trips_the_repeat_check(bench, tmp_path):
    out = tmp_path / "rep"
    out.mkdir()
    write_outputs(out)
    assert bench._gate(command(bench, out), out, 0, proc()) == []
    path = out / "family.txt"
    data = bytearray(path.read_bytes())
    data[0] ^= 1
    path.write_bytes(bytes(data))
    problems = bench._gate(command(bench, out), out, 1, proc())
    assert problems == ["family.txt differs from the first repeat"]


def test_reference_mismatch_trips(bench, tmp_path):
    out = tmp_path / "rep"
    out.mkdir()
    write_outputs(out)
    bench.reference = {name: gate.sha256(out / name) for name in command(bench, out).outputs}
    bench.reference_note = "reference"
    assert bench._gate(command(bench, out), out, 0, proc()) == []
    bench.reference["classify_summary.csv"] = "0" * 64
    assert bench._gate(command(bench, out), out, 1, proc()) == [
        "classify_summary.csv differs from the reference"]


def test_exit_code_and_missing_file_trip(bench, tmp_path):
    out = tmp_path / "rep"
    out.mkdir()
    problems = bench._gate(command(bench, out), out, 0, proc(exit_code=4))
    assert problems[0] == "exit 4: boom"
    assert {"classify_trials.csv missing", "family.txt missing"} <= set(problems)


def test_bad_data_trips_the_output_check(bench, tmp_path):
    out = tmp_path / "rep"
    out.mkdir()
    write_outputs(out)
    (out / "family.txt").write_text("0,0.05,1\n")
    assert bench._gate(command(bench, out), out, 0, proc()) == [
        "family.txt: 1 family members"]


def test_surface_outside_the_rank_sandwich_is_rejected(tmp_path):
    k = workloads.SIZES["simulate-estimate"]["tiny"]["k"]
    m = int(k * workloads.T)
    lines = ["x1,x2,l_n"]
    for i in range(m + 1):
        for j in range(m + 1):
            lines.append(f"{i / k!r},{j / k!r},{max(i, j) / k!r}")
    path = tmp_path / "surface.csv"
    path.write_text("\n".join(lines) + "\n")
    assert workloads.check_output("simulate-estimate", "tiny", path) is None
    lines[-1] = f"{m / k!r},{m / k!r},{3 * m / k!r}"
    path.write_text("\n".join(lines) + "\n")
    assert "above" in workloads.check_output("simulate-estimate", "tiny", path)


def test_reference_applies_only_at_its_seed_and_numpy(tmp_path):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"seed": gate.DEFAULT_SEED, "numpy": "9.9",
                               "workloads": {"w": {"f": "h"}}}))
    hashes, _ = gate.reference_hashes("w", gate.DEFAULT_SEED, "9.9", ref)
    assert hashes == {"f": "h"}
    hashes, why = gate.reference_hashes("w", gate.DEFAULT_SEED + 1, "9.9", ref)
    assert hashes is None and "seed" in why
    hashes, why = gate.reference_hashes("w", gate.DEFAULT_SEED, "1.0", ref)
    assert hashes is None and "numpy" in why


def test_reference_covers_every_output():
    ref = gate.load_reference()
    for name in workloads.SIZES:
        outputs = {f for c in workloads.commands(name, 1, gate.REFERENCE.parent) for f in c.outputs}
        assert set(ref["workloads"][name]) == outputs
