"""One benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload scan --seed 2026 --seconds 40 --trace 0
    python3 perfbench/workload.py --workload scan --probe

``run.py`` starts this script; it prints one JSON object as its last line
of standard output.  The loop is closed and single-threaded: one caller
issues an operation, waits for it to return, checks its output and runs
reference work outside the timed region, and issues the next.  With ``--probe`` the script only
imports entcov, builds the CLI parser and makes one warm-up call, which is
what ``setup_s`` times from outside.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is single-threaded by design, and the
# variables must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import entcov  # noqa: E402

if Path(entcov.__file__).resolve().parent != SRC / "entcov":
    raise SystemExit(f"imported entcov from {entcov.__file__}, not from {SRC}")

from entcov import cli, sampler  # noqa: E402
from entcov.states import canonical, rho_u  # noqa: E402

import check  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 2026
# Operation k of a run uses program seed `seed + SEED_STRIDE * k`, so runs
# with nearby seeds share no inputs for their first thousands of operations.
SEED_STRIDE = 7919

SCAN_COUNT = 1024
SCAN_RANKS = [1, 2, 3, 4]
SLICE_COUNT = 128
SLICE_PURITY = 0.46
SLICE_WINDOW = 0.005
# The pinned searches: 3 sigma, search seed 2026, and 10 trials of which
# all 10 must certify, where the program's default is 95 of 100.  A search
# then takes about 1 s instead of about 10 s, so a run times many of them.
CERTIFY_SIGMA = 3.0
CERTIFY_SEED = 2026
CERTIFY_TRIALS = 10
CERTIFY_REQUIRED = 10
CERTIFY_STATES = (("singlet", canonical("singlet"), 13), ("rho_u(0.4)", rho_u(0.4, 0.0), 24))
# The traced run replays a fixed number of operations, so its counts
# repeat exactly for a given seed.
TRACE_OPS = {"scan": 8, "slice": 16, "certify": 4}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Scan:
    """``scan-bounds`` over Ginibre states with ranks cycling 1,2,3,4."""

    count = SCAN_COUNT

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        run_cli(["scan-bounds", "--count", "4", "--seed", "0"])

    def program_seed(self, k: int) -> int:
        return self.seed + SEED_STRIDE * k

    def run(self, k: int):
        ranks = ",".join(map(str, SCAN_RANKS))
        return run_cli(["scan-bounds", "--count", str(SCAN_COUNT), "--rank", ranks,
                        "--seed", str(self.program_seed(k)), "--output", "-"])

    def check(self, k: int, result) -> list[str]:
        code, out, _ = result
        if code != 0:
            return [f"exit code {code}"]
        problems = check.check_scan(out, self.seed, k, self.program_seed(k), SCAN_COUNT, SCAN_RANKS)
        if k == 0 and self.seed == DEFAULT_SEED:
            problems += check.check_digest("scan", out)
        return problems

    def states(self, result) -> int:
        return self.count if result[0] == 0 else 0

    def digest(self, result) -> str:
        return check.sha256(f"{result[0]}\n{result[1]}")


class Slice(Scan):
    """``purity-slice`` by rejection sampling of rank-4 Ginibre states."""

    count = SLICE_COUNT

    def warm_up(self) -> None:
        run_cli(["purity-slice", "--purity", str(SLICE_PURITY), "--count", "2", "--seed", "0"])

    def run(self, k: int):
        return run_cli(["purity-slice", "--purity", str(SLICE_PURITY),
                        "--window", str(SLICE_WINDOW), "--count", str(SLICE_COUNT),
                        "--seed", str(self.program_seed(k)), "--output", "-"])

    def check(self, k: int, result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"exit code {code}"]
        problems = check.check_slice(out, err, self.seed, k, self.program_seed(k),
                                     SLICE_COUNT, SLICE_PURITY, SLICE_WINDOW)
        if k == 0 and self.seed == DEFAULT_SEED:
            problems += check.check_digest("slice", out)
        return problems


class Certify:
    """The pinned ``shots_for_verdict`` searches: one operation searches both states.

    The inputs are pinned: a search's cost depends on the bisection path its
    seed takes, so varying the search seed would measure the seed rather
    than the code.  The workload seed only chooses which state of the pair
    is searched first.
    """

    def __init__(self, seed: int):
        self.order = CERTIFY_STATES[seed % 2:] + CERTIFY_STATES[:seed % 2]

    def warm_up(self) -> None:
        sampler.estimate_g(sampler.simulate_record(CERTIFY_STATES[0][1], CERTIFY_STATES[0][2], 0))

    def run(self, k: int):
        return [sampler.shots_for_verdict(rho, CERTIFY_SIGMA, CERTIFY_SEED,
                                          trials=CERTIFY_TRIALS, required=CERTIFY_REQUIRED)
                for _, rho, _ in self.order]

    def check(self, k: int, result) -> list[str]:
        return [problem for (label, _, pinned), shots in zip(self.order, result)
                for problem in check.check_shots(label, shots, pinned)]

    def states(self, result) -> int:
        return len(self.order)

    def digest(self, result) -> str:
        return str(result)


WORKLOADS = {"scan": Scan, "slice": Slice, "certify": Certify}


def timed(workload, k: int):
    """Run operation k; return (seconds, result or None, error text)."""
    start = time.perf_counter()
    try:
        result = workload.run(k)
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - start, None, f"raised {exc!r}"
    return time.perf_counter() - start, result, ""


def measure(workload, seconds: float) -> dict:
    """Closed loop for ``seconds``; every output checked.

    After each operation, reference work runs for a tenth of the
    operation's time, so that the run's timings can be put at the
    reference speed (see reference.py).
    """
    op_s: list[float] = []
    op_states: list[int] = []  # states emitted by each operation, 0 if it failed
    unit_s: list[float] = []
    failed = 0
    problems: list[str] = []
    reference_mib = reference.load()
    reference.sample(reference.SHARE)  # warm-up, not recorded
    begin = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - begin < seconds:
        dt, result, error = timed(workload, k)
        op_s.append(dt)
        found = [error] if error else workload.check(k, result)
        if found:
            failed += 1
            problems += [f"op {k}: {p}" for p in found]
        op_states.append(0 if found else workload.states(result))
        unit_s += reference.sample(reference.SHARE * dt)
        k += 1
    return {"attempted": k, "failed": failed, "problems": problems[:20], "op_s": op_s,
            "op_states": op_states, "unit_s": unit_s, "reference_mib": reference_mib}


def measure_traced(workload, n_ops: int) -> dict:
    """The first ``n_ops`` operations untraced, then again traced.

    The untraced pass checks every output; the traced pass must reproduce
    its results exactly.  Their wall-time ratio gives the tracing overhead.
    """
    failed = 0
    problems: list[str] = []
    digests, untraced_s = [], 0.0
    for k in range(n_ops):
        dt, result, error = timed(workload, k)
        untraced_s += dt
        found = [error] if error else workload.check(k, result)
        digests.append(None if found else workload.digest(result))
        if found:
            failed += 1
            problems += [f"op {k}: {p}" for p in found]

    tracer = tracing.Tracer()
    tracer.install()
    traced_s = 0.0
    try:
        for k in range(n_ops):
            tracer.active = True
            try:
                dt, result, error = timed(workload, k)
            finally:
                tracer.active = False
            traced_s += dt
            if error or workload.digest(result) != digests[k]:
                failed += 1
                problems.append(f"traced op {k}: {error or 'output differs from the untraced run'}")
    finally:
        tracer.uninstall()
    per_layer = tracing.layer_metrics(tracer.spans)
    per_layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return {"attempted": 2 * n_ops, "failed": failed, "problems": problems[:20],
            "per_layer": per_layer}


def runtime_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                         "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, warm up and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    cli.build_parser()
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.probe:
        return 0
    if args.trace:
        out = measure_traced(workload, TRACE_OPS[args.workload])
    else:
        out = measure(workload, args.seconds)
    # The reference's inputs are resident from the start of the timed loop
    # and are not the program's memory.
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                          - out.get("reference_mib", 0.0))
    out["runtime"] = runtime_info()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
