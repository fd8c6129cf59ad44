"""entcov benchmark: one workload per invocation, every metric with its unit.

    python3 perfbench/run.py --workload scan --seed 7 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen):
  scan     scan-bounds over Ginibre states, ranks cycling 1,2,3,4
  slice    purity-slice --purity 0.46 --window 0.005 (rejection sampling)
  certify  the pinned shots_for_verdict searches (singlet 13, rho_u(0.4) 24, 10 trials)

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  The line before it records the machine, the runtime
and the sample count behind each timing.  Every timing is reported at a
fixed reference speed, measured by reference work interleaved with it (see
reference.py); the line before the result also holds the raw timings.
The program is run from the
``src`` directory next to this one, in fresh processes: a few set-up
probes, then one process for the workload so that its peak memory is its
own.  Exits non-zero without a result if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "slice", "certify")
SETUP_PROBES = 7
PROBE_REFERENCE_S = 0.1  # reference work before each set-up probe
DEADLINE_S = 175.0  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed string-hash seed: with a random one, the median certify time
    # of 10 s runs ranged over 20% between processes, with a fixed one 8%.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entcov benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "entcov" / "__init__.py").is_file():
        return fail(f"no entcov package under {ROOT / 'src'}")

    begin = time.perf_counter()
    setup_s, unit_s = [], []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            unit_s += reference.sample(PROBE_REFERENCE_S)
            start = time.perf_counter()
            probe = run_child(["--workload", args.workload, "--probe"], timeout=60)
            setup_s.append(time.perf_counter() - start)
            if probe.returncode != 0:
                return fail(f"set-up probe exited {probe.returncode}: {probe.stderr.strip()}")
        proc = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=DEADLINE_S - (time.perf_counter() - begin),
        )
    except subprocess.TimeoutExpired:
        return fail("the benchmark did not finish in time")
    if proc.returncode != 0:
        return fail(f"workload exited {proc.returncode}: {proc.stderr.strip()}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return fail(f"workload printed no result: {proc.stdout[-500:]!r}")
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_info(), "runtime": out["runtime"]}
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in out["per_layer"].items()}
    else:
        op_s = out["op_s"]
        rates = [n / dt for n, dt in zip(out["op_states"], op_s)]
        raw = {"setup_s": statistics.median(setup_s), "wall_s": statistics.median(op_s),
               "states_per_s": statistics.median(rates)}
        setup_scale, run_scale = reference.scale(unit_s), reference.scale(out["unit_s"])
        info["samples"] = {"setup_s": len(setup_s), "wall_s": len(op_s),
                           "states_per_s": len(rates), "states": sum(out["op_states"]),
                           "reference_units": len(unit_s) + len(out["unit_s"])}
        info["raw"] = raw
        info["scale"] = {"setup": setup_scale, "run": run_scale}
        # The tail is recorded but not bounded: on a shared 2-vCPU machine
        # its run-to-run spread came close to the largest allowed bound.
        info["wall_s_p90"] = (statistics.quantiles(op_s, n=10, method="inclusive")[8]
                              if len(op_s) > 1 else op_s[0]) * run_scale
        metrics = {
            "setup_s": {"value": raw["setup_s"] * setup_scale, "unit": "s"},
            "wall_s": {"value": raw["wall_s"] * run_scale, "unit": "s"},
            "states_per_s": {"value": raw["states_per_s"] / run_scale, "unit": "1/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us_p50", "us"), ("_us_p99", "us"), ("_ratio", "ratio"),
                         ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
