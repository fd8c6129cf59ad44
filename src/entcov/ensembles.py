"""Deterministic seeded random-state generation.

Pure states are drawn from the Haar measure, mixed states from the Ginibre
construction X X^dag / Tr(X X^dag) (the Hilbert-Schmidt induced measure),
with the rank of X as a knob to explore the region near both concurrence
bounds, separable states as mixtures of random product states.  Every
generator is a pure function of (seed, index, params), so indices can be
evaluated in parallel and in any order with byte-identical results.  Each
index draws from its own stream; sweeps draw CHUNK indices at a time, through
one re-keyed generator (``_rng._rekeyed``) or, for fixed purity, one live
generator per index, into one (n, 4, 4) stack (``_chunks``, ``_stack``),
whose fixed-purity and separable kernels also form the one-index
``fixed_purity`` and ``separable_mixture``.  The other scalar calls share
their stacks' formation: ``_haar_amps``, ``_induced``, ``_unitaries``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from ._rng import (
    STREAM_FIXED_PURITY,
    STREAM_GINIBRE,
    STREAM_HAAR,
    STREAM_SEPARABLE,
    STREAM_UNITARY,
    _MAX_INDEX,
    _generator,
    _keys,
    _rekeyed,
    rng_at,
)
from .jsonio import _integer, _json_integral, _real
from .linalg import _dagger, _trace, tensor
from .states import DensityMatrix, PureState, _projectors, _purity, _rho_u_stack

MAX_REJECTION_ATTEMPTS = 10**6
# Fixed-purity indices draw attempts in stacked rounds of _ROUND, at most _ROUNDS, then
# alone REJECTION_BLOCK at a time; the last round or block is cut to the cap.
REJECTION_BLOCK = 32
_ROUND, _ROUNDS = 16, 4
# An attempt whose Gram score lies this close to its window's edge is decided
# by the exact rule (``_purity_hits`` gives the bound that makes this safe).
_SCORE_MARGIN = 1e-12
# States per stack in the sweeps; outputs do not depend on it.  Larger stacks
# gained no speed and raised peak memory (1024: +2.3 MiB on a 1024-state scan).
CHUNK = 128

ENSEMBLE_KINDS = ("haar_pure", "ginibre", "fixed_purity", "separable_mixture", "rho_u_sweep")

# The most product states one separable mixture may hold: an index's weights,
# normals and products are formed at once, about 20 MiB at this bound.
MAX_MIXTURE_TERMS = 2**16

# Bounds (minimum[, maximum]) of a Ginibre rank and of every integer field of
# EnsembleSpec.  A count is at most the number of indices a stream can address.
_RANKS = (1, 4)
_INT_FIELDS = {
    "count": (1, _MAX_INDEX + 1), "seed": (0,), "rank": _RANKS,
    "mixture_terms": (1, MAX_MIXTURE_TERMS),
}


class InfeasibleWindowError(RuntimeError):
    """No rank-4 attempt hit a fixed_purity window within MAX_REJECTION_ATTEMPTS."""


def _normals(keys: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The (n, *shape) normals of n stream keys, each row drawn in place from its own stream."""
    return _drawn(_rekeyed(keys), (len(keys), *shape))


def _drawn(streams, shape: tuple[int, ...]) -> np.ndarray:
    """Normals of the given shape, row k drawn in place by the k-th generator of streams."""
    x = np.empty(shape)
    for rng, row in zip(streams, x):
        rng.standard_normal(out=row)  # the draw of standard_normal(shape[1:])
    return x


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + 1j * im, filled part by part: cheaper than the sum."""
    z = np.empty(re.shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


def _unit(z: np.ndarray) -> np.ndarray:
    """z / np.linalg.norm(z) along the last axis, bit for bit, for a vector or a stack.

    Dot products of the strided .real and .imag views, (..., 1, n) @ (..., n, 1); copies differ.
    """
    re, im = z.real, z.imag
    norm = np.sqrt(re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None])
    return z / norm[..., 0]


def _haar_amps(x: np.ndarray) -> np.ndarray:
    """The unit amplitudes of (..., 2, 4) normals: real parts, then imaginary parts."""
    return _unit(_complex(x[..., 0, :], x[..., 1, :]))


def haar_pure(seed: int, index: int) -> PureState:
    """Haar-random pure two-qubit state: normalized complex normal amplitudes."""
    return PureState(_haar_amps(rng_at(seed, STREAM_HAAR, index).standard_normal((2, 4))))


def _haar_amp_stack(seed: int, indices) -> np.ndarray:
    """The (n, 4) amplitudes of haar_pure(seed, k) for k in the indices."""
    return _haar_amps(_normals(_keys(seed, STREAM_HAAR, indices), (2, 4)))


def _gram(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z z^dagger, its real trace) of a complex 4 x r matrix, or of each of a stack."""
    g = z @ _dagger(z)
    return g, _trace(g.real)


def _induced(z: np.ndarray) -> np.ndarray:
    """z z^dagger / Tr(z z^dagger) of a complex 4 x r matrix, or of each of a stack."""
    g, t = _gram(z)
    g /= t[..., None, None]
    return g


def _rank_cycle(indices, ranks) -> np.ndarray:
    """The rank ranks[k % len(ranks)] of each index k of an integer array."""
    return np.asarray(ranks)[indices % len(ranks)]


def _ginibre_stack(seed: int, indices, ranks) -> np.ndarray:
    """The (n, 4, 4) stack of Ginibre states of the indices, index k of rank ranks[k % len(ranks)].

    k is the index value, not its position among the indices.  The indices
    are grouped by rank first; each index draws its (2, 4, rank) normals from
    its own stream, as ``ginibre`` does, into its row of its rank's buffer,
    and each rank present is then filled in as one complex stack
    (``_complex``) and formed as one stack.
    """
    rank_of = _rank_cycle(indices, ranks)
    present = sorted(set(rank_of.tolist()))
    groups = [np.flatnonzero(rank_of == rank) for rank in present]
    draws = [np.empty((len(group), 2, 4, rank)) for rank, group in zip(present, groups)]
    # The streams are independent, so they may be visited in rank order.
    streams = _rekeyed(_keys(seed, STREAM_GINIBRE, indices[np.argsort(rank_of, kind="stable")]))
    for rng, row in zip(streams, itertools.chain.from_iterable(draws)):
        rng.standard_normal(out=row)  # the draw of standard_normal((2, 4, rank))
    out = np.empty((len(indices), 4, 4), dtype=complex)
    for group, x in zip(groups, draws):
        out[group] = _induced(_complex(x[:, 0], x[:, 1]))
    return out


def ginibre(seed: int, index: int, rank: int) -> DensityMatrix:
    """Random mixed state of rank at most ``rank`` under the induced measure."""
    rank = _integer("rank", rank, *_RANKS)
    x = rng_at(seed, STREAM_GINIBRE, index).standard_normal((2, 4, rank))
    return DensityMatrix(_induced(_complex(x[0], x[1])))


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


def _purity_hits(g: np.ndarray, t: np.ndarray, target: float, window: float) -> np.ndarray:
    """Which attempts m = g / t of a Gram stack pass abs(_purity(m) - target) <= window.

    g is an (..., 4, 4) stack of Gram matrices z z^dagger and t their real
    traces (``_gram``).  That exact rule is the one acceptance rule; this
    scores each attempt without forming m, by the Frobenius form
    f = sum |g_ij|^2 / t^2 = Tr(m m^dagger), clamped into [1/4, 1] as
    ``_purity`` clamps, and lets the exact rule decide, on that attempt's
    m alone, every attempt with | |f - target| - window | <= _SCORE_MARGIN.

    Bound: the rounding errors of either form are relative to sums of
    products of entry moduli, which Cauchy-Schwarz bounds by t^2 (by 1 for
    m), so to first order f and _purity(m) each lie within 64u (u = 2**-53,
    so about 7.1e-15) of Tr(rho^2) for the exact Gram state rho of the drawn
    normals: the Gram product (r <= 4 terms per entry), the trace, then the
    32 squares of f, or the division and the 4 x 4 product of _purity.  The
    clamp and the subtraction of the target widen the gap between the two by
    at most the rounding of one subtraction, so it stays below 2e-14, under a
    fiftieth of the margin (the largest gap over 1.3e6 attempts of ranks 1-4
    was 6.7e-16), and every attempt the score decides gets the exact rule's
    answer.
    """
    v = g.view(np.float64).reshape(*g.shape[:-2], 1, 32)  # real and imaginary parts
    f = (v @ v.swapaxes(-1, -2))[..., 0, 0] / (t * t)
    off = np.abs(np.minimum(np.maximum(f, 0.25), 1.0) - target)
    hits = off <= window
    for k in zip(*np.nonzero(np.abs(off - window) <= _SCORE_MARGIN)):
        hits[k] = abs(_purity(g[k] / t[k]) - target) <= window
    return hits


def _fixed_purity_matrix(rng, start: int, target: float, window: float) -> np.ndarray:
    """The fixed_purity matrix of a live stream whose first ``start`` attempts all missed."""
    for at in range(start, MAX_REJECTION_ATTEMPTS, REJECTION_BLOCK):
        x = rng.standard_normal((min(REJECTION_BLOCK, MAX_REJECTION_ATTEMPTS - at), 2, 4, 4))
        g, t = _gram(_complex(x[:, 0], x[:, 1]))
        hits = np.flatnonzero(_purity_hits(g, t, target, window))
        if hits.size:
            return g[hits[0]] / t[hits[0]]
    raise InfeasibleWindowError(
        f"no rank-4 sample hit purity {target} +- {window} in {MAX_REJECTION_ATTEMPTS} "
        "attempts; the window is infeasible"
    )


def _fixed_purity_stack(keys: np.ndarray, target: float, window: float) -> np.ndarray:
    """The (n, 4, 4) fixed_purity matrices of n indices, as one attempt at a time would draw them.

    keys are the indices' (n, 2) stream keys ``_keys(seed,
    STREAM_FIXED_PURITY, indices)``, which a sweep derives once per chunk.
    Each index gets one live generator on its key, and every index still
    missing draws its next _ROUND attempts into one (n, _ROUND, 2, 4, 4)
    stack of normals, formed and scored (``_purity_hits``) as one stack.
    After _ROUNDS rounds, an index still missing continues alone on its
    generator (``_fixed_purity_matrix``), in index order: the cap holds per
    index, and an infeasible window raises at the first index, after its
    own MAX_REJECTION_ATTEMPTS attempts.  A generator's draws do not depend
    on how they are cut into calls, so neither do the accepted matrices;
    no attempt is drawn twice.  Only the attempt an index accepts is
    normalised, as ``_induced`` normalises it, and each returned matrix is
    validated once by its emitter (``DensityMatrix``, or a sweep's
    ``states._validated_spectrum``).
    """
    rngs = [_generator(key) for key in keys]
    out = np.empty((len(keys), 4, 4), dtype=complex)
    live, at, stop = np.arange(len(keys)), 0, min(_ROUNDS * _ROUND, MAX_REJECTION_ATTEMPTS)
    while live.size and at < stop:
        size = min(_ROUND, stop - at)
        x = _drawn([rngs[k] for k in live.tolist()], (live.size, size, 2, 4, 4))
        z = _complex(x[:, :, 0], x[:, :, 1])
        del x  # each stack is freed once used: a round's peak stays near three complex stacks
        g, t = _gram(z)
        del z
        hit = _purity_hits(g, t, target, window)
        rows = np.flatnonzero(hit.any(axis=1))
        first = hit[rows].argmax(axis=1)
        out[live[rows]] = g[rows, first] / t[rows, first][:, None, None]
        live, at = np.delete(live, rows), at + size
    for k in live.tolist():
        out[k] = _fixed_purity_matrix(rngs[k], at, target, window)
    return out


def fixed_purity(seed: int, index: int, target: float, window: float) -> DensityMatrix:
    """Rank-4 Ginibre state rejection-sampled into purity [target-window, target+window].

    Attempts are only scored; the accepted state is validated once, as the
    returned DensityMatrix.
    Raises InfeasibleWindowError, a RuntimeError, once MAX_REJECTION_ATTEMPTS
    rejections signal an infeasible window (e.g. a near-pure target, which
    rank-4 sampling essentially never hits).
    """
    target, window = _check_purity(target, window)
    keys = _keys(seed, STREAM_FIXED_PURITY, [(index,)])
    return DensityMatrix(_fixed_purity_stack(keys, target, window)[0])


def _separable_stack(seed: int, indices, terms: int) -> np.ndarray:
    """The (n, 4, 4) mixtures of ``terms`` random product states of the indices.

    Each index draws from its own stream, straight into its rows: its weights,
    then each term's (2, 2) normals of A and then of B, real parts first.
    The rest is formed as stacks, the norms by ``_unit``, and the weighted
    products are added in term order.
    """
    group = max(1, 2**13 // terms)  # product states formed at once; 2**13 take about 4 MiB
    if len(indices) > group:
        parts = [indices[k : k + group] for k in range(0, len(indices), group)]
        return np.concatenate([_separable_stack(seed, part, terms) for part in parts])
    w, x = np.empty((len(indices), terms)), np.empty((len(indices), terms, 2, 2, 2))
    for rng, w_row, x_row in zip(_rekeyed(_keys(seed, STREAM_SEPARABLE, indices)), w, x):
        rng.standard_exponential(out=w_row)
        rng.standard_normal(out=x_row)
    w /= w.sum(axis=-1, keepdims=True)
    p = _projectors(_unit(_complex(x[..., 0, :], x[..., 1, :])))
    products = tensor(p[:, :, 0], p[:, :, 1])
    out = np.zeros_like(products[:, 0])
    for j in range(terms):
        out += w[:, j, None, None] * products[:, j]
    return out


def separable_mixture(seed: int, index: int, terms: int) -> DensityMatrix:
    """Convex mixture of ``terms`` random product states with flat Dirichlet weights.

    terms is an integer in 1..MAX_MIXTURE_TERMS.
    """
    terms = _integer("terms", terms, *_INT_FIELDS["mixture_terms"])
    return DensityMatrix(_separable_stack(seed, [(index,)], terms)[0])


def _unitaries(x: np.ndarray) -> np.ndarray:
    """Haar unitaries (u_a, u_b), (..., 2, 2, 2), of (..., 2, 2, 2, 2) normals, real parts first.

    Gram-Schmidt on Ginibre columns; normalizing with real norms fixes the
    QR phase ambiguity, which is what makes the result Haar.
    """
    z = _complex(x[..., 0, :, :], x[..., 1, :, :])
    q0 = _unit(z[..., :, 0])
    v = z[..., :, 1] - (q0.conj()[..., None, :] @ z[..., :, 1, None])[..., 0] * q0
    return np.stack([q0, _unit(v)], axis=-1)


def random_local_unitary(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent Haar-random 2x2 unitaries."""
    u_a, u_b = _unitaries(rng_at(seed, STREAM_UNITARY, index).standard_normal((2, 2, 2, 2)))
    return u_a, u_b


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a reproducible batch of random states.

    kind selects the generator; rank applies to ginibre, purity_target and
    purity_window to fixed_purity, mixture_terms to separable_mixture.  A
    rho_u_sweep walks gamma uniformly over [0, 1/2] at theta = 0.  Every
    given field is checked, whatever the kind: by the integer rule count in
    1..2**64 (the indices a stream can address), mixture_terms in
    1..MAX_MIXTURE_TERMS, seed >= 0, rank in 1..4 (numpy integers are stored as int);
    purity_target in [0.25, 1] and purity_window positive and finite, both
    real numbers and never booleans (numpy floats are stored as float).
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

    stack maps an integer index array to the raw (n, 4, 4) matrices, or the
    (n, 4) pure-state amplitudes, of those indices; they do not depend on CHUNK.
    """
    for start in range(0, count, CHUNK):
        indices = np.arange(start, min(start + CHUNK, count))
        yield indices, stack(indices)


def _stack(spec: EnsembleSpec, indices) -> np.ndarray:
    """The spec's raw (n, 4, 4) matrices at an integer index array, not validated."""
    if len(indices) == 0:
        return np.empty((0, 4, 4), dtype=complex)
    if spec.kind == "haar_pure":
        return _projectors(_haar_amp_stack(spec.seed, indices))
    if spec.kind == "ginibre":
        return _ginibre_stack(spec.seed, indices, (spec.rank,))
    if spec.kind == "fixed_purity":
        # The keys are derived once per chunk, and 32 indices draw their rounds
        # together (a 512-attempt first round).  Groups of 16 made the slice
        # benchmark 8% slower (0.0136-0.0141 s against 0.0126-0.0130 s, three
        # 20 s runs each) for 0.1-0.2 MiB less peak memory.
        keys = _keys(spec.seed, STREAM_FIXED_PURITY, indices)
        group, target, window = 32, spec.purity_target, spec.purity_window
        parts = [keys[k : k + group] for k in range(0, len(keys), group)]
        return np.concatenate([_fixed_purity_stack(g, target, window) for g in parts])
    if spec.kind == "separable_mixture":
        return _separable_stack(spec.seed, indices, spec.mixture_terms)
    return _rho_u_stack(0.5 * indices / max(spec.count - 1, 1))  # rho_u_sweep


def generate(spec: EnsembleSpec):
    """Yield (index, DensityMatrix) for every index of the spec, in order, one at a time."""
    for i in range(spec.count):
        yield i, DensityMatrix(_stack(spec, np.array([i]))[0])


def ensemble_spec_to_dict(spec: EnsembleSpec) -> dict:
    return {name: value for name, value in asdict(spec).items() if value is not None}


def ensemble_spec_from_dict(data: dict) -> EnsembleSpec:
    """The spec of a parsed JSON object, where an integral float such as 4.0 is an int."""
    if not isinstance(data, dict):
        raise ValueError("ensemble spec JSON must be an object")
    required = {f.name for f in fields(EnsembleSpec) if f.default is MISSING}
    if not required <= set(data) or not set(data) <= {f.name for f in fields(EnsembleSpec)}:
        raise ValueError(f"ensemble spec fields must include {sorted(required)}")
    ints = {name: _json_integral(data[name]) for name in _INT_FIELDS if name in data}
    return EnsembleSpec(**{**data, **ints})
