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

Then each entcov command of COMMANDS runs once in its own process with one
BLAS thread, from the repository root (spec files are given relative to
it); the file keeps its exit code, wall time, peak RSS (from the child's
own ``wait4`` usage) and the size and sha256 of its standard output.
A command that exits with another code, or without its expected message,
fails the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "slice", "certify")
SEED = 2026
SECONDS = 40
# name: (entcov argv, expected exit code, expected end of standard error).
COMMANDS = {
    "slice_10k": (["purity-slice", "--purity", "0.46", "--count", "10000", "--seed", str(SEED)],
                  0, ""),
    "infeasible_exit": (["purity-slice", "--purity", "0.99", "--count", "1"],
                        2, " in 1000000 attempts; the window is infeasible\n"),
    # 10^4 rank-3 Ginibre states at seed 2026 as JSON: CI's ginibre-json digest.
    "ensemble_json_10k": (["ensemble", "bench/ginibre_rank3_10k.json", "--format", "json"],
                          0, ""),
    # 10^5 Ginibre states of ranks 1-4 at seed 2026: CI's scan digest.
    "scan_100k": (["scan-bounds", "--count", "100000", "--seed", str(SEED)], 0, ""),
    # The exact report of one state file: G and L3 from one moment table.
    "analyze_singlet": (["analyze", "bench/singlet.json"], 0, ""),
    # Start-up alone: the imports and the parser, no command.
    "version": (["--version"], 0, ""),
}


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


def run_command(name: str) -> dict:
    """The record of one run of COMMANDS[name] as ``python -m entcov``, with one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "entcov", *COMMANDS[name][0]],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # the usage of this child alone
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return command_record(name, proc.returncode, wall, usage.ru_maxrss, out.read(),
                              err.read().decode("utf-8", "replace"))


def command_record(name: str, code: int, wall_s: float, maxrss_kib: int, stdout: bytes,
                   stderr: str) -> dict:
    """The BENCH entry of one run of COMMANDS[name]; ValueError if it did not end as expected.

    maxrss_kib is the child's ``ru_maxrss``, which Linux gives in KiB.
    """
    argv, expected_code, message = COMMANDS[name]
    if code != expected_code or not stderr.endswith(message) or (code != 0 and stdout):
        raise ValueError(f"{name}: exit {code} with stderr {stderr.strip()!r}, expected "
                         f"exit {expected_code} ending {message.strip()!r}")
    return {
        "argv": argv, "exit_code": code, "wall_s": round(wall_s, 4),
        "peak_rss_mb": round(maxrss_kib / 1024, 2), "stdout_bytes": len(stdout),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
    }


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def bench_record(lines: dict[str, tuple[str, str]], commit: str, dirty: bool, kernel: str,
                 commands: dict[str, dict]) -> dict:
    """The BENCH document of the (info line, result line) pair of each workload.

    commands holds the ``command_record`` of each command run.

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
        "commands": commands,
    }


def write_bench(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entcov benchmark trajectory file")
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    args = parser.parse_args(argv)

    lines = {workload: run_workload(workload) for workload in WORKLOADS}
    commands = {name: run_command(name) for name in COMMANDS}
    # numpy only now: a child's ru_maxrss starts from the peak RSS of the
    # process it is forked from, and with numpy this script's peak is above
    # the whole peak of a small command such as --version.
    sys.path.insert(0, str(ROOT / "src"))
    from entcov.linalg import _blas_kernel

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = bench_record(lines, git("rev-parse", "HEAD"), dirty, _blas_kernel(), commands)
    write_bench(ROOT / f"BENCH_{args.pr}.json", record)
    return 0 if all(w["result"]["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
