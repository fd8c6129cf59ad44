"""Deterministic seeded random-state generation.

Pure states are drawn from the Haar measure, mixed states from the Ginibre
construction X X^dag / Tr(X X^dag) (the Hilbert-Schmidt induced measure),
with the rank of X as a knob to explore the region near both concurrence
bounds.  Every generator is a pure function of (seed, index, params);
indices can be evaluated in parallel and in any order with byte-identical
results.  Each index draws from its own stream; sweeps draw CHUNK indices
at a time through one re-keyed generator (``_rng._streams``) and form each
chunk as one (n, 4, 4) stack (``_chunks``, ``_stack``).
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
    _keys,
    _rekeyed,
    _streams,
    rng_at,
)
from .jsonio import _integer, _json_floats, _json_int, _real
from .linalg import _dagger, _trace
from .states import DensityMatrix, PureState, _purity, _validated, rho_u

MAX_REJECTION_ATTEMPTS = 10**6
# fixed_purity draws its attempts this many at a time (the last block is cut to the cap).
REJECTION_BLOCK = 32
# States per stack in the sweeps; outputs do not depend on it.  Larger stacks
# gained no speed and raised peak memory (1024: +2.3 MiB on a 1024-state scan).
CHUNK = 128

ENSEMBLE_KINDS = ("haar_pure", "ginibre", "fixed_purity", "separable_mixture", "rho_u_sweep")

# Bounds (minimum[, maximum]) of a Ginibre rank and of every integer field of EnsembleSpec.
_RANKS = (1, 4)
_INT_FIELDS = {"count": (1,), "seed": (0,), "rank": _RANKS, "mixture_terms": (1,)}


class InfeasibleWindowError(RuntimeError):
    """No rank-4 attempt hit a fixed_purity window within MAX_REJECTION_ATTEMPTS."""


def _complex_normals(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex normals of the given shape: all real parts, then all imaginary parts, in one draw."""
    x = rng.standard_normal((2, *shape))
    z = np.empty(shape, dtype=complex)  # filled part by part: cheaper than x[0] + 1j * x[1]
    z.real = x[0]
    z.imag = x[1]
    return z


def _haar_amps(rng: np.random.Generator) -> np.ndarray:
    z = _complex_normals(rng, (4,))
    return z / np.linalg.norm(z)


def haar_pure(seed: int, index: int) -> PureState:
    """Haar-random pure two-qubit state: normalized complex normal amplitudes."""
    return PureState(_haar_amps(rng_at(seed, STREAM_HAAR, index)))


def _haar_stack(seed: int, indices) -> np.ndarray:
    """The (n, 4, 4) stack of Haar pure-state projectors of the indices."""
    amps = [_haar_amps(rng) for rng in _streams(seed, STREAM_HAAR, indices)]
    a = np.array(amps, dtype=complex).reshape(-1, 4)  # (0, 4) for no index
    return a[:, :, None] * a.conj()[:, None, :]


def _induced(z: np.ndarray) -> np.ndarray:
    """z z^dagger / Tr(z z^dagger) of a complex 4 x r matrix, or of each of a stack."""
    m = z @ _dagger(z)
    m /= _trace(m.real)[..., None, None]
    return m


def _ginibre_stack(seed: int, indices, ranks) -> np.ndarray:
    """The (n, 4, 4) stack of Ginibre states of the indices, index k of rank ranks[k].

    Each index draws its 4 x rank normals from its own stream as ``ginibre``
    does; each rank group is then formed as one stack.
    """
    streams = _streams(seed, STREAM_GINIBRE, indices)
    draws = [_complex_normals(rng, (4, rank)) for rng, rank in zip(streams, ranks)]
    out = np.empty((len(draws), 4, 4), dtype=complex)
    for rank in set(ranks):
        group = [k for k, r in enumerate(ranks) if r == rank]
        out[group] = _induced(np.stack([draws[k] for k in group]))
    return out


def ginibre(seed: int, index: int, rank: int) -> DensityMatrix:
    """Random mixed state of rank at most ``rank`` under the induced measure."""
    rank = _integer("rank", rank, *_RANKS)
    rng = rng_at(seed, STREAM_GINIBRE, index)
    return DensityMatrix(_induced(_complex_normals(rng, (4, rank))))


def _check_purity(target, window) -> tuple[float | None, float | None]:
    """(target, window) as plain floats, each None if not given.

    Booleans and non-numbers are rejected, as are a target outside [0.25, 1]
    and a window that is not positive and finite.
    """
    if target is not None:
        target = _real("purity_target", target)
        if not 0.25 <= target <= 1.0:
            raise ValueError(f"purity_target must lie in [0.25, 1], got {target}")
    if window is not None:
        window = _real("purity_window", window)
        if not 0.0 < window < math.inf:
            raise ValueError(f"purity_window must be positive and finite, got {window}")
    return target, window


def _fixed_purity_matrix(
    rng: np.random.Generator, target: float, window: float, start: int
) -> np.ndarray:
    # Attempts start, start + 1, ... are drawn REJECTION_BLOCK at a time as
    # (real, imaginary) pairs, the order in which one attempt at a time would
    # draw them, so the accepted matrix does not depend on the block size;
    # draws past the hit are never read, and nothing else reads this index's stream.
    for at in range(start, MAX_REJECTION_ATTEMPTS, REJECTION_BLOCK):
        x = rng.standard_normal((min(REJECTION_BLOCK, MAX_REJECTION_ATTEMPTS - at), 2, 4, 4))
        mats = _induced(x[:, 0] + 1j * x[:, 1])
        hits = np.flatnonzero(np.abs(_purity(mats) - target) <= window)
        last = hits[0] if hits.size else len(mats) - 1
        _validated(mats[: last + 1])
        if hits.size:
            return mats[last].copy()  # not a view that keeps the whole block alive
    raise InfeasibleWindowError(
        f"no rank-4 sample hit purity {target} +- {window} in {MAX_REJECTION_ATTEMPTS} "
        "attempts; the window is infeasible"
    )


def _fixed_purity_stack(keys: np.ndarray, target: float, window: float) -> np.ndarray:
    """The (n, 4, 4) fixed_purity matrices of n indices, as _fixed_purity_matrix draws each.

    keys are the indices' (n, 2) stream keys ``_keys(seed,
    STREAM_FIXED_PURITY, indices)``, which a sweep derives once per chunk.
    Every index draws its first block of attempts from its own stream, and
    all first blocks are formed, scored and validated (up to each index's
    hit) as one stack.  An index with no hit there continues alone from its
    saved stream state, so the attempt cap holds per index and an
    infeasible window raises at the first index that misses, after its own
    MAX_REJECTION_ATTEMPTS attempts.
    """
    block = min(REJECTION_BLOCK, MAX_REJECTION_ATTEMPTS)
    x = np.empty((block, 2, 4, 4))
    z = np.empty((len(keys), block, 4, 4), dtype=complex)
    saved = []
    for k, rng in enumerate(_rekeyed(keys)):
        rng.standard_normal(out=x)
        saved.append(rng.bit_generator.state)
        z[k].real = x[:, 0]  # filled part by part, as _complex_normals fills
        z[k].imag = x[:, 1]
    mats = _induced(z)
    del z  # freed before scoring, to keep the peak memory of a group down
    hit = np.abs(_purity(mats) - target) <= window
    first = hit.argmax(axis=1)  # an index's first hit, or 0 if it has none
    missed = ~hit.any(axis=1)
    last = np.where(missed, block - 1, first)
    _validated(mats[np.arange(block) <= last[:, None]])
    out = mats[np.arange(len(keys)), first]
    for k in np.flatnonzero(missed).tolist():
        rng.bit_generator.state = saved[k]
        out[k] = _fixed_purity_matrix(rng, target, window, block)
    return out


def fixed_purity(seed: int, index: int, target: float, window: float) -> DensityMatrix:
    """Rank-4 Ginibre state rejection-sampled into purity [target-window, target+window].

    Every attempt up to and including the accepted one is validated.
    Raises InfeasibleWindowError, a RuntimeError, once MAX_REJECTION_ATTEMPTS
    rejections signal an infeasible window (e.g. a near-pure target, which
    rank-4 sampling essentially never hits).
    """
    target, window = _check_purity(target, window)
    keys = _keys(seed, STREAM_FIXED_PURITY, [(index,)])
    return DensityMatrix(_fixed_purity_stack(keys, target, window)[0])


def _separable_matrix(rng: np.random.Generator, terms: int) -> np.ndarray:
    weights = rng.standard_exponential(terms)
    weights /= weights.sum()
    m = np.zeros((4, 4), dtype=complex)
    for w in weights:
        a = _complex_normals(rng, (2,))
        a /= np.linalg.norm(a)
        b = _complex_normals(rng, (2,))
        b /= np.linalg.norm(b)
        m += w * np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
    return m


def separable_mixture(seed: int, index: int, terms: int) -> DensityMatrix:
    """Convex mixture of ``terms`` random product states with flat Dirichlet weights."""
    terms = _integer("terms", terms, 1)
    return DensityMatrix(_separable_matrix(rng_at(seed, STREAM_SEPARABLE, index), terms))


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
    int); purity_target in [0.25, 1] and purity_window positive and finite,
    both real numbers and never booleans (numpy floats are stored as float).
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
        target, window = _check_purity(self.purity_target, self.purity_window)
        object.__setattr__(self, "purity_target", target)
        object.__setattr__(self, "purity_window", window)


def _chunks(count: int, stack):
    """Yield (indices, stack(indices)) for the indices 0..count-1, CHUNK at a time.

    stack maps an integer index array to the raw (n, 4, 4) matrices of those
    indices; the matrices do not depend on CHUNK.
    """
    for start in range(0, count, CHUNK):
        indices = np.arange(start, min(start + CHUNK, count))
        yield indices, stack(indices)


def _stack(spec: EnsembleSpec, indices) -> np.ndarray:
    """The spec's raw (n, 4, 4) matrices at an integer index array, not validated."""
    if len(indices) == 0:
        return np.empty((0, 4, 4), dtype=complex)
    if spec.kind == "haar_pure":
        return _haar_stack(spec.seed, indices)
    if spec.kind == "ginibre":
        return _ginibre_stack(spec.seed, indices, [spec.rank] * len(indices))
    if spec.kind == "fixed_purity":
        # The keys are derived once per chunk.  First blocks are scored 16
        # indices at a time: groups of 32, or a whole chunk, were no faster and
        # raised the slice benchmark's peak memory about two and six times as
        # much as 16 does (+0.9 MiB).
        keys = _keys(spec.seed, STREAM_FIXED_PURITY, indices)
        group, target, window = 16, spec.purity_target, spec.purity_window
        parts = [keys[k : k + group] for k in range(0, len(keys), group)]
        return np.concatenate([_fixed_purity_stack(g, target, window) for g in parts])
    if spec.kind == "separable_mixture":
        streams = _streams(spec.seed, STREAM_SEPARABLE, indices)
        return np.stack([_separable_matrix(rng, spec.mixture_terms) for rng in streams])
    last = max(spec.count - 1, 1)  # rho_u_sweep
    return np.stack([rho_u(0.5 * i / last, 0.0).mat for i in indices.tolist()])


def generate(spec: EnsembleSpec):
    """Yield (index, DensityMatrix) for every index of the spec, in order, one at a time."""
    for i in range(spec.count):
        yield i, DensityMatrix(_stack(spec, np.array([i]))[0])


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
