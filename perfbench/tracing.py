"""Span tracing of entcov's public functions, installed from outside the package.

While installed, every module attribute bound to a traced function is
replaced by a wrapper that records a span (function, start, end, parent
span, success) in memory.  Spans are recorded only while ``active`` is set,
so the benchmark's own output checks never appear in them.  Per-layer
counts, self ("busy") times and per-call percentiles are computed from the
spans after the run; the program itself is not modified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import entcov  # noqa: F401  (loads every package module)
import entcov.cli  # noqa: F401
import entcov.jsonio  # noqa: F401
from entcov.states import DensityMatrix

# (module, attribute, layer); the span name is "<module>.<attribute>".
TARGETS = (
    ("_rng", "rng_at", "rng.rng_at"),
    ("ensembles", "ginibre", "ensembles.gen"),
    ("ensembles", "fixed_purity", "ensembles.gen"),
    ("ensembles", "haar_pure", "ensembles.gen"),
    ("states", "purity", "states.purity"),
    ("linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("linalg", "sqrt_psd", "linalg.sqrt_psd"),
    ("observables", "correlation_data", "observables.moments"),
    ("observables", "pauli_moments", "observables.moments"),
    ("gmeasure", "g_from_covariances", "gmeasure.g"),
    ("gmeasure", "g_hilbert_schmidt", "gmeasure.g"),
    ("concurrence", "concurrence_mixed", "concurrence.conc"),
    ("sampler", "outcome_probabilities", "sampler.probs"),
    ("sampler", "simulate_record", "sampler.simulate"),
    ("sampler", "estimate_g", "sampler.estimate"),
    ("sampler", "shots_for_verdict", "sampler.search"),
    ("jsonio", "format_float", "jsonio.format"),
    ("jsonio", "dumps", "jsonio.format"),
    ("cli", "main", "cli"),
)
VALIDATE = "states.validate"  # DensityMatrix construction (its __post_init__)

LAYER_OF = {f"{module}.{attr}": layer for module, attr, layer in TARGETS}
LAYER_OF[VALIDATE] = VALIDATE
GENERATORS = ("ensembles.ginibre", "ensembles.haar_pure", "ensembles.fixed_purity")


class Tracer:
    """Records spans around entcov's public functions while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, ok)
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                spans[idx] = (name, start, clock(), parent, ok)
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "entcov" or n.startswith("entcov.")]
        for module, attr, _ in TARGETS:
            original = getattr(sys.modules[f"entcov.{module}"], attr)
            wrapper = self._wrap(f"{module}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        original = DensityMatrix.__dict__["__post_init__"]
        self._undo.append((DensityMatrix, "__post_init__", original))
        DensityMatrix.__post_init__ = self._wrap(VALIDATE, original)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts, busy (self) seconds and per-call microseconds."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    gen_ok = gen_failed = attempts = 0
    for i, (name, start, end, parent, ok) in enumerate(spans):
        layer = LAYER_OF[name]
        calls[layer] += 1
        busy[layer] += (end - start) - child_time[i]
        durations[layer].append(end - start)
        if name in GENERATORS:
            gen_ok += ok
            gen_failed += not ok
            # a ginibre or Haar state costs one draw; fixed_purity's draws
            # are counted through the purity tests it makes below
            attempts += name != "ensembles.fixed_purity"
        elif (name == "states.purity" and parent >= 0
              and spans[parent][0] == "ensembles.fixed_purity"):
            attempts += 1

    def us(layer: str, q: float) -> float:
        return percentile(durations[layer], q) * 1e6

    searches = calls["sampler.search"]
    return {
        "rng.rng_at.calls": calls["rng.rng_at"],
        "rng.rng_at.busy_s": busy["rng.rng_at"],
        "ensembles.states": gen_ok,
        "ensembles.gen.busy_s": busy["ensembles.gen"],
        "ensembles.gen_us_p50": us("ensembles.gen", 50),
        "ensembles.gen_us_p99": us("ensembles.gen", 99),
        "ensembles.attempts": attempts,
        "ensembles.accept_ratio": gen_ok / attempts if attempts else 0.0,
        "ensembles.errors": gen_failed,
        "states.validate.calls": calls[VALIDATE],
        "states.validate.busy_s": busy[VALIDATE],
        "states.purity.calls": calls["states.purity"],
        "states.purity.busy_s": busy["states.purity"],
        "linalg.eig_hermitian.calls": calls["linalg.eig_hermitian"],
        "linalg.sqrt_psd.busy_s": busy["linalg.sqrt_psd"],
        "observables.moments.calls": calls["observables.moments"],
        "observables.moments.busy_s": busy["observables.moments"],
        "gmeasure.g.calls": calls["gmeasure.g"],
        "gmeasure.g.busy_s": busy["gmeasure.g"],
        "concurrence.conc.calls": calls["concurrence.conc"],
        "concurrence.conc.busy_s": busy["concurrence.conc"],
        "concurrence.conc_us_p99": us("concurrence.conc", 99),
        "sampler.probs.calls": calls["sampler.probs"],
        "sampler.probs.calls_per_search": calls["sampler.probs"] / searches if searches else 0.0,
        "sampler.probs.busy_s": busy["sampler.probs"],
        "sampler.simulate.calls": calls["sampler.simulate"],
        "sampler.simulate.busy_s": busy["sampler.simulate"],
        "sampler.estimate.calls": calls["sampler.estimate"],
        "sampler.estimate.busy_s": busy["sampler.estimate"],
        "sampler.estimate_us_p50": us("sampler.estimate", 50),
        "jsonio.format.calls": calls["jsonio.format"],
        "jsonio.format.busy_s": busy["jsonio.format"],
        "cli.self_s": busy["cli"],
    }
