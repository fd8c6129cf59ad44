"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Every metric named in BENCHMARK.json is printed, with its unit, by a
   short untraced and traced run of every workload, and nothing else is.
2. The output checks cannot pass vacuously: a corrupted CSV row, a wrong
   stored digest, a flipped flag and a wrong shot count are each caught.

Exits 0 when every test passes.  The short runs take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workload  # sets the BLAS thread count and puts src on sys.path first
import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def result_of(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(workload.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metrics_printed_with_units() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = result_of(w["name"], trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in out["metrics"].items()}
            assert printed == expected, (w["name"], trace, set(printed) ^ set(expected))
            for name, m in out["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)


def corrupt_row(text: str, row: int, column: int) -> str:
    """Shift one numeric field of one data row by 1e-6."""
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = format(float(fields[column]) + 1e-6, ".17g")
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def test_scan_check_catches_corruption() -> None:
    scan = workload.Scan(workload.DEFAULT_SEED)
    result = scan.run(0)
    assert scan.check(0, result) == []
    code, text, err = result
    sampled = check.sample_indices(scan.seed, 0, workload.SCAN_COUNT)
    unsampled = next(i for i in range(workload.SCAN_COUNT) if i not in sampled)

    # a sampled row is recomputed through the scalar API, at any seed
    bad = corrupt_row(text, sampled[0], 2)
    assert check.check_scan(bad, scan.seed, 0, scan.program_seed(0), workload.SCAN_COUNT,
                            workload.SCAN_RANKS)
    # any other row is caught by the stored digest at the default seed
    assert scan.check(0, (code, corrupt_row(text, unsampled, 1), err))
    # a violates flag that disagrees with its row's values
    lines = text.split("\n")
    row = lines[1 + unsampled]
    lines[1 + unsampled] = row[:-1] + ("0" if row[-1] == "1" else "1")
    assert check.check_scan("\n".join(lines), scan.seed, 0, scan.program_seed(0),
                            workload.SCAN_COUNT, workload.SCAN_RANKS)
    # a wrong stored digest fails the unmodified text
    stored = check.DIGESTS["scan"]
    check.DIGESTS["scan"] = "0" * 64
    try:
        assert scan.check(0, result)
    finally:
        check.DIGESTS["scan"] = stored


def test_slice_check_catches_corruption() -> None:
    sl = workload.Slice(workload.DEFAULT_SEED)
    result = sl.run(0)
    assert sl.check(0, result) == []
    code, text, err = result
    sampled = check.sample_indices(sl.seed, 0, workload.SLICE_COUNT)
    bad = corrupt_row(text, sampled[0], 0)
    assert check.check_slice(bad, err, sl.seed, 0, sl.program_seed(0), workload.SLICE_COUNT,
                             workload.SLICE_PURITY, workload.SLICE_WINDOW)
    unsampled = next(i for i in range(workload.SLICE_COUNT) if i not in sampled)
    assert sl.check(0, (code, corrupt_row(text, unsampled, 1), err))


def test_certify_check_catches_wrong_count() -> None:
    cert = workload.Certify(0)
    assert cert.check(0, [13, 24]) == []
    assert cert.check(0, [14, 24]) and cert.check(0, [13, 13]) and cert.check(0, [24, 13])


def main() -> int:
    if not __debug__:
        print("the self-tests use assert; run them without -O")
        return 2
    tests = [test_scan_check_catches_corruption, test_slice_check_catches_corruption,
             test_certify_check_catches_wrong_count, test_metrics_printed_with_units]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
