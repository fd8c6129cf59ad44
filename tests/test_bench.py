"""bench/run_bench.py's BENCH writer on canned perfbench lines, and bench/commands.py's pins."""

import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from entcov import cli
from entcov.ensembles import ensemble_spec_from_dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import commands  # noqa: E402
import run_bench  # noqa: E402

INFO = json.dumps({"workload": "scan", "seed": 2026, "trace": 0, "raw": {"wall_s": 0.0291}})
RESULT = json.dumps({"correct": True, "attempted": 1300, "failed": 0, "metrics": {
    "setup_s": {"value": 0.289, "unit": "s"}, "wall_s": {"value": 0.0289, "unit": "s"},
    "states_per_s": {"value": 35400.0, "unit": "1/s"},
    "peak_rss_mb": {"value": 39.6, "unit": "MiB"}}})


INFEASIBLE = "error: no rank-4 sample hit purity 0.99 +- 0.005 in 1000000 attempts; " \
    "the window is infeasible\n"


def test_the_bench_file_keeps_each_line_with_the_run_context(tmp_path):
    records = {"version": {"exit_code": 0, "stdout_bytes": 13}}
    record = run_bench.bench_record({"scan": (INFO, RESULT)}, "94abe37", False, "SkylakeX", records)
    assert record["commit"] == "94abe37" and record["uncommitted_changes"] is False
    assert record["blas_kernel"] == "SkylakeX"
    assert record["workloads"]["scan"] == {"info": json.loads(INFO), "result": json.loads(RESULT)}
    assert record["commands"] == records
    path = tmp_path / "BENCH_1.json"
    run_bench.write_bench(path, record)
    assert json.loads(path.read_text(encoding="utf-8")) == record
    assert run_bench.bench_record({}, "", True, "unknown", {})["commit"] == "unknown"


@pytest.mark.parametrize("result", ["[1, 2]", json.dumps({"correct": True, "failed": 0}), "{"])
def test_a_malformed_result_line_is_refused(result):
    with pytest.raises(ValueError):
        run_bench.bench_record({"scan": (INFO, result)}, "94abe37", False, "SkylakeX", {})


def test_a_command_run_keeps_its_exit_time_memory_and_output(monkeypatch, tmp_path):
    # Output over several blocks, hashed from the start of its file.
    out = b"index,purity,concurrence,g\n0,0.46,0.1,1.2\n" * (3 * commands.BLOCK // 40)
    sha = hashlib.sha256(out).hexdigest()
    monkeypatch.setitem(commands.COMMANDS, "slice_10k",
                        commands.COMMANDS["slice_10k"]._replace(sha256=sha))
    with open(tmp_path / "out", "w+b") as stdout:
        stdout.write(out)
        record = commands.command_record("slice_10k", 0, 0.81234, 47206, stdout, "")
    assert record == {
        "argv": ["purity-slice", "--purity", "0.46", "--count", "10000", "--seed", "2026"],
        "exit_code": 0, "wall_s": 0.8123, "peak_rss_mb": 46.1, "stdout_bytes": len(out),
        "stdout_sha256": sha,
    }


@pytest.mark.parametrize(
    "code, stdout, stderr",
    [(0, b"", INFEASIBLE), (1, b"", INFEASIBLE), (2, b"", "runtime error: other\n"),
     (2, b"0,0.46\n", INFEASIBLE)],
    ids=["exit-0", "exit-1", "other-message", "partial-output"],
)
def test_an_infeasible_exit_that_ends_otherwise_is_refused(code, stdout, stderr):
    with pytest.raises(ValueError, match="^infeasible_exit: exit"):
        commands.command_record("infeasible_exit", code, 1.7, 41984, io.BytesIO(stdout), stderr)


@pytest.mark.parametrize("off_pin", [(), ("scan_100k", "slice_10k")], ids=["pinned", "two-off"])
def test_a_command_off_its_pin_is_recorded_and_the_file_still_written(monkeypatch, tmp_path,
                                                                       off_pin):
    # No real run: canned workload lines, and commands that end on or off their pins.
    def run_command(name):
        if name in off_pin:
            raise ValueError(f"{name}: exit 0, stdout sha256 30ef2a62")
        return {"exit_code": 0}

    monkeypatch.setattr(run_bench, "run_workload", lambda workload: (INFO, RESULT))
    monkeypatch.setattr(run_bench, "run_command", run_command)
    monkeypatch.setattr(run_bench, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends ROOT / "src"
    assert run_bench.main(["--pr", "7"]) == (1 if off_pin else 0)
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert record["workloads"] == {w: {"info": json.loads(INFO), "result": json.loads(RESULT)}
                                   for w in run_bench.WORKLOADS}
    assert record["commands"] == {
        name: {"mismatch": f"{name}: exit 0, stdout sha256 30ef2a62"} if name in off_pin
        else {"exit_code": 0} for name in commands.COMMANDS}


def test_every_command_pins_a_digest_and_its_spec_files_load():
    for name, pinned in commands.COMMANDS.items():
        assert re.fullmatch("[0-9a-f]{64}", pinned.sha256), name
        if pinned.argv[0] == "ensemble":
            ensemble_spec_from_dict(json.loads((commands.ROOT / pinned.argv[1]).read_text()))


def test_a_wrong_digest_is_refused_with_the_command_name():
    with pytest.raises(ValueError, match="^version: exit 0, stdout sha256 "):
        commands.command_record("version", 0, 0.25, 30720, io.BytesIO(b"entcov 0.0.0\n"), "")


def test_the_analyze_command_reads_the_committed_singlet(capsys, monkeypatch):
    monkeypatch.chdir(commands.ROOT)  # the pinned digest is that of the in-process report
    assert cli.main(commands.COMMANDS["analyze_singlet"].argv) == 0
    out = io.BytesIO(capsys.readouterr().out.encode())
    record = commands.command_record("analyze_singlet", 0, 0.3, 40960, out, "")
    assert record["peak_rss_mb"] == 40.0


def test_the_version_command_measures_start_up_alone(capsys):
    with pytest.raises(SystemExit, match="^0$"):
        cli.main(commands.COMMANDS["version"].argv)
    out = io.BytesIO(capsys.readouterr().out.encode())
    assert commands.command_record("version", 0, 0.25, 30720, out, "")["stdout_bytes"] == 13
