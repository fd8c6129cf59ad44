"""The pinned entcov command runs: argv, exit rule and stdout sha256, in one table.

    python3 bench/commands.py

runs each command once (the ``any_kernel`` ones again under OpenBLAS's Haswell
kernels where /proc/cpuinfo lists avx2 and fma), prints one JSON record per
run and exits 1 if a run did not end as pinned.  The other digests hold on
one kernel (``SkylakeX``).  No numpy here: a child's peak RSS starts from ours.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import BinaryIO, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BLOCK = 1 << 16


class Command(NamedTuple):
    argv: list[str]  # of ``python -m entcov``, run from ROOT
    sha256: str  # of the standard output
    code: int = 0
    message: str = ""  # the expected end of standard error
    any_kernel: bool = False  # the bytes hold on every BLAS kernel


# The sweeps write the text of 79 to 782 chunks (Tier-1 pins 64 and 172
# states), so their digests hold every per-state path that a stack replaced.
COMMANDS = {
    # Fixed-purity attempts in stacked rounds on one live generator per index.
    "slice_10k": Command(["purity-slice", "--purity", "0.46", "--count", "10000", "--seed", "2026"],
                         "dd044a118c57e6fd9230f2ab74bc8184e59973e92f55f88cc17eb37f79a75809"),
    # The real 10^6 attempt cap, which Tier-1 lowers: exit 2 and no output.
    "infeasible_exit": Command(["purity-slice", "--purity", "0.99", "--count", "1"],
                               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                               2, " in 1000000 attempts; the window is infeasible\n"),
    # JSON states carry no concurrence, so no eigh bits.
    "ensemble_json_10k": Command(["ensemble", "bench/ginibre_rank3_10k.json", "--format", "json"],
                                 "bb4e531e34f7861a776736498a5951f8517d4fb850f7c80710825eb72ab91ad0",
                                 any_kernel=True),
    "scan_100k": Command(["scan-bounds", "--count", "100000", "--seed", "2026"],
                         "bd5573cb057842127b34412ac7dd4c433a7f1743f323f8fd8d930de43e79b9e5"),
    # Nine terms: numpy's 8-way weight sum.
    "separable_10k": Command(["ensemble", "bench/separable_9terms_10k.json"],
                             "5807a96f3c7f1b4e82515b02b305df814fcec37998f856033757ac715f0a2741"),
    "haar_100k": Command(["ensemble", "bench/haar_100k.json"],
                         "3c156d39a1485e521a6a95b903e92d0ae9eecf6b8c111945da285408fad38992"),
    "fixed_purity_json_10k": Command(
        ["ensemble", "bench/fixed_purity_10k.json", "--format", "json"],
        "1a805520df5ba187bb6b8349c6c34c9f76419836d2d129afd833bdde77e7ae8c", any_kernel=True),
    # The exact report of one state file: G and L3 from one moment table.
    "analyze_singlet": Command(["analyze", "bench/singlet.json"],
                               "737a32910554932411c880195b81080321fb9c052c5a8fc4e6d4b2d404ac32fc"),
    # Start-up alone: the imports and the parser, no command.
    "version": Command(["--version"],
                       "3654c743b0c4f0b72b303cfec201c30e58e085ddb8020e4dc23ef1416d3c4ebc"),
}


def digest(stream: BinaryIO) -> tuple[int, str]:
    """The size and sha256 of a binary file from its start, read in blocks."""
    stream.seek(0)
    sha = hashlib.sha256()
    for block in iter(lambda: stream.read(BLOCK), b""):
        sha.update(block)
    return stream.tell(), sha.hexdigest()


def run_command(name: str, coretype: str = "") -> dict:
    """The record of one run of COMMANDS[name], with one BLAS thread and any given coretype."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "entcov", *COMMANDS[name].argv],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # the usage of this child alone
        wall = time.perf_counter() - start
        err.seek(0)
        return command_record(name, os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, out,
                              err.read().decode("utf-8", "replace"))


def command_record(name: str, code: int, wall_s: float, maxrss_kib: int, stdout: BinaryIO,
                   stderr: str) -> dict:
    """The BENCH entry of one run of COMMANDS[name]; ValueError if it did not end as pinned.

    maxrss_kib is the child's ``ru_maxrss``, which Linux gives in KiB.
    """
    pinned = COMMANDS[name]
    size, sha = digest(stdout)
    if (code, sha) != (pinned.code, pinned.sha256) or not stderr.endswith(pinned.message):
        raise ValueError(f"{name}: exit {code}, stdout sha256 {sha}, stderr {stderr.strip()!r}; "
                         f"expected exit {pinned.code}, sha256 {pinned.sha256}, stderr ending "
                         f"{pinned.message.strip()!r}")
    return {
        "argv": pinned.argv, "exit_code": code, "wall_s": round(wall_s, 4),
        "peak_rss_mb": round(maxrss_kib / 1024, 2), "stdout_bytes": size, "stdout_sha256": sha,
    }


def main() -> int:
    cpuinfo = Path("/proc/cpuinfo")
    flags = set(cpuinfo.read_text(encoding="utf-8").split()) if cpuinfo.exists() else set()
    haswell = {"avx2", "fma"} <= flags  # forcing a kernel the CPU lacks is unsafe
    if not haswell:
        print("Haswell runs skipped: /proc/cpuinfo lists no avx2 or no fma", file=sys.stderr)
    runs = [(name, "") for name in COMMANDS] + [
        (name, "Haswell") for name, pinned in COMMANDS.items() if pinned.any_kernel and haswell]
    failed = 0
    for name, coretype in runs:
        try:
            print(json.dumps({"command": name, "coretype": coretype or None,
                              **run_command(name, coretype)}), flush=True)
        except ValueError as exc:
            failed += 1
            print(f"MISMATCH {exc}" + (f" under {coretype}" if coretype else ""), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
