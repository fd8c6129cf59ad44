"""bench/run_bench.py's BENCH file writer, on canned perfbench lines (no benchmark runs)."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from entcov.jsonio import dumps
from entcov.states import canonical, density_matrix_to_dict

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "run_bench.py"
_spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
run_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_bench)

INFO = json.dumps({"workload": "scan", "seed": 2026, "trace": 0, "raw": {"wall_s": 0.0291}})
RESULT = json.dumps({"correct": True, "attempted": 1300, "failed": 0, "metrics": {
    "setup_s": {"value": 0.289, "unit": "s"}, "wall_s": {"value": 0.0289, "unit": "s"},
    "states_per_s": {"value": 35400.0, "unit": "1/s"},
    "peak_rss_mb": {"value": 39.6, "unit": "MiB"}}})


INFEASIBLE = "error: no rank-4 sample hit purity 0.99 +- 0.005 in 1000000 attempts; " \
    "the window is infeasible\n"


def test_the_bench_file_keeps_each_line_with_the_run_context(tmp_path):
    commands = {"infeasible_exit": run_bench.command_record(
        "infeasible_exit", 2, 1.76543, 41984, b"", INFEASIBLE)}
    record = run_bench.bench_record({"scan": (INFO, RESULT)}, "94abe37", False, "SkylakeX", commands)
    assert record["commit"] == "94abe37" and record["uncommitted_changes"] is False
    assert record["blas_kernel"] == "SkylakeX"
    assert record["workloads"]["scan"] == {"info": json.loads(INFO), "result": json.loads(RESULT)}
    assert record["commands"] == commands
    path = tmp_path / "BENCH_1.json"
    run_bench.write_bench(path, record)
    assert json.loads(path.read_text(encoding="utf-8")) == record
    assert run_bench.bench_record({}, "", True, "unknown", {})["commit"] == "unknown"


@pytest.mark.parametrize("result", ["[1, 2]", json.dumps({"correct": True, "failed": 0}), "{"])
def test_a_malformed_result_line_is_refused(result):
    with pytest.raises(ValueError):
        run_bench.bench_record({"scan": (INFO, result)}, "94abe37", False, "SkylakeX", {})


def test_a_command_run_keeps_its_exit_time_memory_and_output():
    out = b"index,purity,concurrence,g\n0,0.46,0.1,1.2\n"
    record = run_bench.command_record("slice_10k", 0, 0.81234, 47206, out, "")
    assert record == {
        "argv": ["purity-slice", "--purity", "0.46", "--count", "10000", "--seed", "2026"],
        "exit_code": 0, "wall_s": 0.8123, "peak_rss_mb": 46.1, "stdout_bytes": len(out),
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
    }
    infeasible = run_bench.command_record("infeasible_exit", 2, 1.76543, 41984, b"", INFEASIBLE)
    assert infeasible["exit_code"] == 2 and infeasible["peak_rss_mb"] == 41.0
    assert infeasible["stdout_sha256"] == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize(
    "code, stdout, stderr",
    [(0, b"", INFEASIBLE), (1, b"", INFEASIBLE), (2, b"", "runtime error: other\n"),
     (2, b"0,0.46\n", INFEASIBLE)],
    ids=["exit-0", "exit-1", "other-message", "partial-output"],
)
def test_an_infeasible_exit_that_ends_otherwise_is_refused(code, stdout, stderr):
    with pytest.raises(ValueError, match="^infeasible_exit: exit"):
        run_bench.command_record("infeasible_exit", code, 1.7, 41984, stdout, stderr)


def test_the_json_ensemble_command_runs_the_ci_ginibre_spec():
    argv, code, message = run_bench.COMMANDS["ensemble_json_10k"]
    assert argv[0] == "ensemble" and argv[2:] == ["--format", "json"] and (code, message) == (0, "")
    spec = json.loads((run_bench.ROOT / argv[1]).read_text(encoding="utf-8"))
    assert spec == {"kind": "ginibre", "count": 10000, "seed": 2026, "rank": 3}
    out = b'[{"index": 0, "re": [], "im": []}]\n'
    record = run_bench.command_record("ensemble_json_10k", 0, 0.40123, 52224, out, "")
    assert record["argv"] == argv and record["stdout_bytes"] == len(out)
    assert record["wall_s"] == 0.4012 and record["peak_rss_mb"] == 51.0


def test_the_scan_command_runs_the_ci_scan():
    assert run_bench.COMMANDS["scan_100k"] == (
        ["scan-bounds", "--count", "100000", "--seed", "2026"], 0, "")


def test_the_analyze_command_reads_the_committed_singlet():
    argv, code, message = run_bench.COMMANDS["analyze_singlet"]
    assert argv[0] == "analyze" and (code, message) == (0, "")
    data = json.loads((run_bench.ROOT / argv[1]).read_text(encoding="utf-8"))
    assert dumps(data) == dumps(density_matrix_to_dict(canonical("singlet")))
    out = b'{\n  "g": 2.9999999999999987\n}\n'
    record = run_bench.command_record("analyze_singlet", 0, 0.30123, 40960, out, "")
    assert record["argv"] == argv and record["peak_rss_mb"] == 40.0


def test_the_version_command_measures_start_up_alone():
    assert run_bench.COMMANDS["version"] == (["--version"], 0, "")
    record = run_bench.command_record("version", 0, 0.25, 30720, b"entcov 0.1.0\n", "")
    assert record["exit_code"] == 0 and record["stdout_bytes"] == 13
