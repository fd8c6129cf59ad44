"""bench/run_bench.py's BENCH file writer, on canned perfbench lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "run_bench.py"
_spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
run_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_bench)

INFO = json.dumps({"workload": "scan", "seed": 2026, "trace": 0, "raw": {"wall_s": 0.0291}})
RESULT = json.dumps({"correct": True, "attempted": 1300, "failed": 0, "metrics": {
    "setup_s": {"value": 0.289, "unit": "s"}, "wall_s": {"value": 0.0289, "unit": "s"},
    "states_per_s": {"value": 35400.0, "unit": "1/s"},
    "peak_rss_mb": {"value": 39.6, "unit": "MiB"}}})


def test_the_bench_file_keeps_each_line_with_the_run_context(tmp_path):
    record = run_bench.bench_record({"scan": (INFO, RESULT)}, "94abe37", False, "SkylakeX")
    assert record["commit"] == "94abe37" and record["uncommitted_changes"] is False
    assert record["blas_kernel"] == "SkylakeX"
    assert record["workloads"]["scan"] == {"info": json.loads(INFO), "result": json.loads(RESULT)}
    path = tmp_path / "BENCH_1.json"
    run_bench.write_bench(path, record)
    assert json.loads(path.read_text(encoding="utf-8")) == record
    assert run_bench.bench_record({}, "", True, "unknown")["commit"] == "unknown"


@pytest.mark.parametrize("result", ["[1, 2]", json.dumps({"correct": True, "failed": 0}), "{"])
def test_a_malformed_result_line_is_refused(result):
    with pytest.raises(ValueError):
        run_bench.bench_record({"scan": (INFO, result)}, "94abe37", False, "SkylakeX")
