"""Run the entcov benchmark on every workload and write BENCH_<pr>.json.

    python3 bench/run_bench.py --pr 30

Each workload (scan, slice, certify) runs untraced for 40 s at seed 2026
in its own subprocess, ``perfbench/run.py --trace 0``, so BENCH files of
different changes compare like with like.  The file keeps each run's info
line (which carries the Python, numpy and BLAS versions) and result line
as perfbench printed them, with the git commit (and whether the tree held
changes to tracked files) and the OpenBLAS kernel
(``entcov.linalg._blas_kernel``): the pinned eigh bits, and so the digests
behind ``correct``, belong to one kernel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "slice", "certify")
SEED = 2026
SECONDS = 40


def run_workload(workload: str) -> tuple[str, str]:
    """perfbench's info line and result line for one untraced run of a workload."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    return lines[-2], lines[-1]


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def bench_record(lines: dict[str, tuple[str, str]], commit: str, dirty: bool, kernel: str) -> dict:
    """The BENCH document of the (info line, result line) pair of each workload.

    A line that is not a JSON object, or a result line without its
    ``correct``, ``failed`` and ``metrics`` fields, raises ValueError.
    """
    workloads = {}
    for workload, (info_line, result_line) in lines.items():
        info, result = json.loads(info_line), json.loads(result_line)
        if not isinstance(info, dict) or not isinstance(result, dict):
            raise ValueError(f"{workload}: perfbench lines must be JSON objects")
        missing = {"correct", "failed", "metrics"} - set(result)
        if missing:
            raise ValueError(f"{workload}: result line lacks {sorted(missing)}")
        workloads[workload] = {"info": info, "result": result}
    return {
        "commit": commit or "unknown",
        "uncommitted_changes": dirty,
        "blas_kernel": kernel,
        "workloads": workloads,
    }


def write_bench(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entcov benchmark trajectory file")
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from entcov.linalg import _blas_kernel

    lines = {workload: run_workload(workload) for workload in WORKLOADS}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = bench_record(lines, git("rev-parse", "HEAD"), dirty, _blas_kernel())
    write_bench(ROOT / f"BENCH_{args.pr}.json", record)
    return 0 if all(w["result"]["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
