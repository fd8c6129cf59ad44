"""Deterministic seeded random-state generation.

Pure states are drawn from the Haar measure, mixed states from the Ginibre
construction X X^dag / Tr(X X^dag) (the Hilbert-Schmidt induced measure),
with the rank of X as a knob to explore the region near both concurrence
bounds.  Every generator is a pure function of (seed, index, params);
indices can be evaluated in parallel and in any order with byte-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import (
    STREAM_FIXED_PURITY,
    STREAM_GINIBRE,
    STREAM_HAAR,
    STREAM_SEPARABLE,
    STREAM_UNITARY,
    rng_at,
)
from .jsonio import _integer, _json_floats, _json_int
from .states import DensityMatrix, PureState, from_pure, purity, rho_u

MAX_REJECTION_ATTEMPTS = 10**6

ENSEMBLE_KINDS = ("haar_pure", "ginibre", "fixed_purity", "separable_mixture", "rho_u_sweep")

# Bounds (minimum[, maximum]) of a Ginibre rank and of every integer field of EnsembleSpec.
_RANKS = (1, 4)
_INT_FIELDS = {"count": (1,), "seed": (0,), "rank": _RANKS, "mixture_terms": (1,)}


def _complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_pure(seed: int, index: int) -> PureState:
    """Haar-random pure two-qubit state: normalized complex normal amplitudes."""
    z = _complex_normals(rng_at(seed, STREAM_HAAR, index), 4)
    return PureState(z / np.linalg.norm(z))


def _ginibre_matrix(rng: np.random.Generator, rank: int) -> np.ndarray:
    x = _complex_normals(rng, (4, rank))
    m = x @ x.conj().T
    return m / np.real(np.trace(m))


def ginibre(seed: int, index: int, rank: int) -> DensityMatrix:
    """Random mixed state of rank at most ``rank`` under the induced measure."""
    rank = _integer("rank", rank, *_RANKS)
    return DensityMatrix(_ginibre_matrix(rng_at(seed, STREAM_GINIBRE, index), rank))


def _check_purity(target: float | None, window: float | None) -> None:
    """Reject a purity target outside [0.25, 1] and a window that is not positive and finite."""
    if target is not None and not 0.25 <= target <= 1.0:
        raise ValueError(f"purity_target must lie in [0.25, 1], got {target}")
    if window is not None and not 0.0 < window < math.inf:
        raise ValueError(f"purity_window must be positive and finite, got {window}")


def fixed_purity(
    seed: int,
    index: int,
    target: float,
    window: float,
    max_attempts: int = MAX_REJECTION_ATTEMPTS,
) -> DensityMatrix:
    """Rank-4 Ginibre state rejection-sampled into purity [target-window, target+window].

    Raises RuntimeError once ``max_attempts`` rejections signal an infeasible
    window (e.g. a near-pure target, which rank-4 sampling essentially never
    hits).
    """
    _check_purity(target, window)
    max_attempts = _integer("max_attempts", max_attempts, 1)
    rng = rng_at(seed, STREAM_FIXED_PURITY, index)
    for _ in range(max_attempts):
        rho = DensityMatrix(_ginibre_matrix(rng, 4))
        if abs(purity(rho) - target) <= window:
            return rho
    raise RuntimeError(
        f"no rank-4 sample hit purity {target} +- {window} in {max_attempts} attempts; "
        "the window is infeasible"
    )


def separable_mixture(seed: int, index: int, terms: int) -> DensityMatrix:
    """Convex mixture of ``terms`` random product states with flat Dirichlet weights."""
    terms = _integer("terms", terms, 1)
    rng = rng_at(seed, STREAM_SEPARABLE, index)
    weights = rng.standard_exponential(terms)
    weights /= weights.sum()
    m = np.zeros((4, 4), dtype=complex)
    for w in weights:
        a = _complex_normals(rng, 2)
        a /= np.linalg.norm(a)
        b = _complex_normals(rng, 2)
        b /= np.linalg.norm(b)
        m += w * np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
    return DensityMatrix(m)


def _haar_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    # Gram-Schmidt on Ginibre columns; normalizing with real norms fixes the
    # QR phase ambiguity, which is what makes the result Haar.
    z = _complex_normals(rng, (2, 2))
    q0 = z[:, 0] / np.linalg.norm(z[:, 0])
    v = z[:, 1] - (q0.conj() @ z[:, 1]) * q0
    q1 = v / np.linalg.norm(v)
    return np.column_stack([q0, q1])


def random_local_unitary(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent Haar-random 2x2 unitaries."""
    rng = rng_at(seed, STREAM_UNITARY, index)
    return _haar_unitary_2x2(rng), _haar_unitary_2x2(rng)


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a reproducible batch of random states.

    kind selects the generator; rank applies to ginibre, purity_target and
    purity_window to fixed_purity, mixture_terms to separable_mixture.  A
    rho_u_sweep walks gamma uniformly over [0, 1/2] at theta = 0.  Every
    given field is checked, whatever the kind: by the integer rule count and
    mixture_terms >= 1, seed >= 0, rank in 1..4 (numpy integers are stored as
    int); purity_target in [0.25, 1] and purity_window positive and finite.
    """

    kind: str
    count: int
    seed: int
    rank: int | None = None
    purity_target: float | None = None
    purity_window: float | None = None
    mixture_terms: int | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "fixed_purity":
            if self.purity_target is None or self.purity_window is None:
                raise ValueError("fixed_purity needs purity_target and purity_window")
        needed = {"ginibre": "rank", "separable_mixture": "mixture_terms"}.get(self.kind)
        for name, bounds in _INT_FIELDS.items():
            value = getattr(self, name)
            if value is not None or name in ("count", "seed", needed):
                object.__setattr__(self, name, _integer(name, value, *bounds))
        _check_purity(self.purity_target, self.purity_window)


def generate(spec: EnsembleSpec):
    """Yield (index, DensityMatrix) for every index of the spec, in order."""
    for i in range(spec.count):
        if spec.kind == "haar_pure":
            yield i, from_pure(haar_pure(spec.seed, i))
        elif spec.kind == "ginibre":
            yield i, ginibre(spec.seed, i, spec.rank)
        elif spec.kind == "fixed_purity":
            yield i, fixed_purity(spec.seed, i, spec.purity_target, spec.purity_window)
        elif spec.kind == "separable_mixture":
            yield i, separable_mixture(spec.seed, i, spec.mixture_terms)
        else:  # rho_u_sweep
            gamma = 0.5 * i / (spec.count - 1) if spec.count > 1 else 0.0
            yield i, rho_u(gamma, 0.0)


def ensemble_spec_to_dict(spec: EnsembleSpec) -> dict:
    out = {"kind": spec.kind, "count": spec.count, "seed": spec.seed}
    for field in ("rank", "purity_target", "purity_window", "mixture_terms"):
        value = getattr(spec, field)
        if value is not None:
            out[field] = value
    return out


def ensemble_spec_from_dict(data: dict) -> EnsembleSpec:
    if not isinstance(data, dict):
        raise ValueError("ensemble spec JSON must be an object")
    required = {"kind", "count", "seed"}
    allowed = required | {"rank", "purity_target", "purity_window", "mixture_terms"}
    if not required <= set(data) or not set(data) <= allowed:
        raise ValueError(f"ensemble spec fields must include {sorted(required)}")
    purity = {}
    for name in ("purity_target", "purity_window"):
        value = data.get(name)
        if value is not None:
            value = _json_floats(name, value)
            if value.ndim:
                raise ValueError(f"{name} must be a number, got {data[name]!r}")
            value = float(value)
        purity[name] = value
    ints = {
        name: _json_int(name, data[name], *bounds)
        for name, bounds in _INT_FIELDS.items()
        if name in required or data.get(name) is not None
    }
    return EnsembleSpec(kind=str(data["kind"]), **ints, **purity)
