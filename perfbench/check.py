"""Output checks for the benchmark's workloads.

Each check returns a list of problems, empty when the output is right.
Sampled CSV rows are recomputed through entcov's scalar API (the state
generator, ``concurrence_mixed`` and G by both forms), independently of
the CLI pipeline that printed them.  At the default seed the exact CSV
text of the first operation is also compared with a stored digest, and
the certification searches are compared with their pinned shot counts.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from entcov.concurrence import concurrence_mixed
from entcov.ensembles import fixed_purity, ginibre
from entcov.gmeasure import g_from_covariances, g_hilbert_schmidt
from entcov.observables import correlation_data
from entcov.states import purity

FORM_TOL = 1e-10  # the two G forms must agree this closely
BAND_TOL = 1e-9  # the CLI's tolerance for flagging a band violation
CURVE_POINTS = 200
ROWS_PER_OP = 2  # rows of every operation recomputed through the scalar API

SCAN_HEADER = "kind,concurrence,g,purity,rank,violates"
SLICE_HEADER = "concurrence,g,purity"

# sha256 of the first operation's CSV text at the default seed, recorded
# from the parent commit of the benchmark (see workload.py for the argv).
DIGESTS = {
    "scan": "482ebf8e4dc2d1cff0f95cfcd4e36903de0afaece0342d50388c15139f18bc9a",
    "slice": "4036d17850ddc2040d4e15b08875640e802a4683219ef11d62e3b12b8fe1641e",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sample_indices(seed: int, k: int, count: int) -> list[int]:
    """Row indices of operation ``k`` to recompute; a function of the seed."""
    return random.Random(f"{seed}/{k}").sample(range(count), min(ROWS_PER_OP, count))


def _csv_lines(text: str, header: str, n_rows: int) -> tuple[list[str], list[str]]:
    if not text.endswith("\n"):
        return [], ["output does not end with a newline"]
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return [], [f"bad header {lines[0]!r}"]
    if len(lines) != 1 + n_rows:
        return [], [f"expected {n_rows} rows, got {len(lines) - 1}"]
    return lines[1:], []


def _recompute(rho) -> tuple[float, float, float, list[str]]:
    """(C, G, purity) of one state, with G checked across both forms."""
    c = concurrence_mixed(rho)
    g = g_from_covariances(correlation_data(rho))
    g_hs = g_hilbert_schmidt(rho)
    problems = []
    if abs(g - g_hs) > FORM_TOL:
        problems.append(f"G forms disagree: {g!r} vs {g_hs!r}")
    return c, g, purity(rho), problems


def _compare(where: str, printed: list[str], expected: tuple[float, ...]) -> list[str]:
    got = tuple(float(x) for x in printed)
    if got != expected:
        return [f"{where}: printed {printed}, scalar API gives {list(expected)}"]
    return []


def band_violated(c: float, g: float) -> bool:
    return g < c * c * (2.0 + c * c) - BAND_TOL or g > 1.0 + 2.0 * c * c + BAND_TOL


def check_scan(
    text: str, seed: int, k: int, program_seed: int, count: int, ranks: list[int],
) -> list[str]:
    """Check one ``scan-bounds`` CSV: every row's shape, ranges and flag,
    the two bound curves, and a recomputed sample of rows."""
    lines, problems = _csv_lines(text, SCAN_HEADER, count + 2 * CURVE_POINTS)
    if problems:
        return problems
    rows = [line.split(",") for line in lines]
    for i, f in enumerate(rows[:count]):
        if len(f) != 6 or f[0] != "sample" or f[4] != str(ranks[i % len(ranks)]):
            problems.append(f"row {i}: malformed sample row {lines[i]!r}")
            continue
        c, g, p = float(f[1]), float(f[2]), float(f[3])
        if not (0.0 <= c <= 1.0 and 0.0 <= g <= 3.0 and 0.25 <= p <= 1.0):
            problems.append(f"row {i}: value out of range {lines[i]!r}")
        if f[5] != str(int(band_violated(c, g))):
            problems.append(f"row {i}: violates flag {f[5]} is wrong")
    curve_c = np.linspace(0.0, 1.0, CURVE_POINTS)
    for kind, offset, edge in (
        ("lower_bound", count, lambda c: c * c * (2.0 + c * c)),
        ("upper_bound", count + CURVE_POINTS, lambda c: 1.0 + 2.0 * c * c),
    ):
        for j, f in enumerate(rows[offset : offset + CURVE_POINTS]):
            c = float(curve_c[j])
            shape_ok = len(f) == 6 and f[0] == kind and f[3:] == ["", "", "0"]
            if not shape_ok or (float(f[1]), float(f[2])) != (c, edge(c)):
                problems.append(f"{kind} point {j}: bad row {','.join(f)!r}")
    if problems:
        return problems
    for i in sample_indices(seed, k, count):
        rank = ranks[i % len(ranks)]
        c, g, p, problems = _recompute(ginibre(program_seed, i, rank))
        problems += _compare(f"row {i}", rows[i][1:4], (c, g, p))
        if problems:
            return problems
    return []


def check_slice(
    text: str, summary: str, seed: int, k: int, program_seed: int,
    count: int, target: float, window: float,
) -> list[str]:
    """Check one ``purity-slice`` CSV and its per-bin summary, and recompute
    a sample of rows through ``fixed_purity``."""
    lines, problems = _csv_lines(text, SLICE_HEADER, count)
    if problems:
        return problems
    rows = [line.split(",") for line in lines]
    for i, f in enumerate(rows):
        if len(f) != 3:
            problems.append(f"row {i}: malformed row {lines[i]!r}")
            continue
        c, g, p = (float(x) for x in f)
        if not (0.0 <= c <= 1.0 and 0.0 <= g <= 3.0) or abs(p - target) > window:
            problems.append(f"row {i}: value out of range {lines[i]!r}")
    binned = sum(int(word[2:]) for word in summary.split() if word.startswith("n="))
    if binned != count:
        problems.append(f"bin summary counts {binned} states, expected {count}")
    if problems:
        return problems
    for i in sample_indices(seed, k, count):
        c, g, p, problems = _recompute(fixed_purity(program_seed, i, target, window))
        problems += _compare(f"row {i}", rows[i], (c, g, p))
        if problems:
            return problems
    return []


def check_digest(workload: str, text: str) -> list[str]:
    digest = sha256(text)
    if digest != DIGESTS[workload]:
        return [f"{workload} CSV digest {digest} differs from the stored {DIGESTS[workload]}"]
    return []


def check_shots(label: str, shots, pinned: int) -> list[str]:
    if shots != pinned:
        return [f"shots_for_verdict({label}) gave {shots!r}, pinned value is {pinned}"]
    return []
