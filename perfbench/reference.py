"""Reference work that tracks the host's speed, independent of entcov.

The benchmark's machine is a shared virtual machine whose speed drifts by
tens of percent over minutes, for every process alike.  Each run therefore
interleaves its timed operations with units of this fixed work, which uses
only numpy and plain Python, in about equal parts of the kinds entcov's
time goes to: small numpy calls (4x4 Hermitian eigensolves and products,
multinomial draws), interpreted code over a MiB of Python objects
(lookups, float formatting), and passes over an array larger than a
core's cache.  A timing multiplied by ``NOMINAL_UNIT_S`` and divided by
the run's median unit time is the timing at a fixed reference speed: the
drift common to both cancels, and a change to entcov does not touch the
reference.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

# The median unit time on the machine described in README.md; timings are
# reported at this speed.
NOMINAL_UNIT_S = 0.005
# Reference work after each operation, as a share of the operation's time.
SHARE = 0.1

_RNG = np.random.default_rng(20061)
_M = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_H = _M @ _M.conj().T
_P = np.full(4, 0.25)
_DATA: dict = {}  # the larger inputs, allocated by load()


def rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def load() -> float:
    """Allocate the reference's larger inputs; return the resident MiB they added."""
    before = rss_mib()
    _DATA["array"] = _RNG.standard_normal(1 << 18)  # 2 MiB
    _DATA["keys"] = list(range(10000))
    _DATA["names"] = {key: str(key) for key in _DATA["keys"]}
    return rss_mib() - before


def unit() -> float:
    """Run one unit of reference work (about 5 ms) and return its time."""
    if not _DATA:
        load()
    array, names = _DATA["array"], _DATA["names"]
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(10):
        w, v = np.linalg.eigh(_H)
        acc += float(np.trace(v @ np.diag(w) @ v.conj().T).real)
        acc += float(rng.multinomial(17, _P, size=50).mean())
    for key in _DATA["keys"]:
        acc += len(names[key])
    ",".join(format(acc * i, ".17g") for i in range(200))
    for _ in range(8):
        acc += float(array @ array) + float(array.sum())
    return time.perf_counter() - start


def sample(seconds: float) -> list[float]:
    """Run units for at least ``seconds`` (at least one); return their times."""
    times = [unit()]
    while sum(times) < seconds:
        times.append(unit())
    return times


def scale(unit_s: list[float]) -> float:
    """Factor that converts a timing measured alongside ``unit_s`` to the reference speed."""
    return NOMINAL_UNIT_S / statistics.median(unit_s)
