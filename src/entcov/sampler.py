"""Finite-shot simulation of the 9-setting local coincidence protocol.

For each pair of Pauli axes (i, j) both sides project onto the +-1
eigenbasis; the joint outcome table n(a, b) is all that is recorded.
Singles marginals are read off each setting's own coincidence table
rather than measured separately, so nine settings suffice; this
correlates the marginal and joint estimates within a setting, an effect
the bias study quantifies.  The plug-in estimator is kept without bias
correction; detectors are ideal (no inefficiency, dark counts or
accidentals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import (
    STREAM_BOOTSTRAP,
    STREAM_SETTING,
    STREAM_TRIAL,
    _keys,
    _rekeyed,
    derive_seed,
    rng_at,
)
from .gmeasure import certifies, g_from_covariances
from .jsonio import _integer, _json_floats, _json_int, _real
from .observables import correlation_data, pauli_moments
from .states import DensityMatrix

# Fixed outcome order (+ +), (+ -), (- +), (- -); all tables use it.
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_AB = np.array([a * b for a, b in OUTCOMES], dtype=float)
_A = np.array([a for a, _ in OUTCOMES], dtype=float)
_B = np.array([b for _, b in OUTCOMES], dtype=float)
# The (4, 3) matrix [_AB, _A, _B] in integers: the three per-setting sums of
# whole-number counts in one exact product, which stays off BLAS.
_SUMS = np.stack([_AB, _A, _B], axis=1).astype(np.int64)
# The nine settings (i, j) in row order, as 1-based stream index parts.
_SETTINGS = np.array([(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])

COUNT_SUM_TOL = 1e-6
BOOTSTRAP_REPLICATES = 200
MAX_SHOTS = 2**22
# The most shots per setting of a record: float counts that sum to at most
# 2**53 are whole numbers whose every partial sum is exact.
MAX_RECORD_SHOTS = 2**53


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-setting coincidence counts of one simulated (or real) run.

    counts has shape (3, 3, 4): axes i, j (0-based Pauli axes minus one) and
    the fixed outcome order above.  Exact-frequency synthetic records may
    carry non-integer counts; every table still sums to shots_per_setting,
    at most MAX_RECORD_SHOTS.
    """

    shots_per_setting: int
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        for name, bounds in (("shots_per_setting", (1, MAX_RECORD_SHOTS)), ("seed", (0,))):
            object.__setattr__(self, name, _integer(name, getattr(self, name), *bounds))
        c = np.asarray(self.counts, dtype=float)
        if c.shape != (3, 3, 4):
            raise ValueError(f"counts must have shape (3, 3, 4), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("counts must be finite")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        sums = c.sum(axis=2)
        if np.max(np.abs(sums - self.shots_per_setting)) > COUNT_SUM_TOL:
            raise ValueError("every setting's counts must sum to shots_per_setting")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class GEstimate:
    """Plug-in estimate of G from one record, with a bootstrap standard error."""

    g_hat: float
    cov_hat: np.ndarray
    stderr: float
    shots_per_setting: int


def outcome_probabilities(rho: DensityMatrix) -> np.ndarray:
    """The (3, 3, 4) table of joint probabilities p[i-1, j-1] of every setting (i, j).

    p(a, b) = (t00 + a t_i0 + b t_0j + ab t_ij) / 4 from one Pauli moment
    table.  t00 = Tr(rho) rather than a literal 1 keeps the exact zeros of
    Bell and product states exact, so the multinomial draws stay unchanged.
    Negative entries, which a state within MATRIX_TOL of PSD may give, are
    clamped to 0 and each setting is renormalised to sum to 1.
    """
    t = pauli_moments(rho.mat)
    probs = (t[0, 0] + _A * t[1:, 0, None, None] + _B * t[0, 1:, None] + _AB * t[1:, 1:, None]) / 4
    probs = np.where(probs < 0, 0.0, probs)
    return probs / probs.sum(axis=-1, keepdims=True)


def _simulate(p: np.ndarray, shots: int, seed: int, keys: np.ndarray) -> MeasurementRecord:
    """The record of ``shots`` draws per setting from the outcome table p.

    keys are the settings' stream keys ``_keys(seed, STREAM_SETTING,
    _SETTINGS)``, which a caller simulating one seed at many shot counts
    derives once.
    """
    counts = np.zeros((3, 3, 4))
    for setting, rng in zip(np.ndindex(3, 3), _rekeyed(keys)):
        counts[setting] = rng.multinomial(shots, p[setting])
    return MeasurementRecord(shots_per_setting=shots, counts=counts, seed=seed)


def simulate_record(rho: DensityMatrix, shots: int, seed: int) -> MeasurementRecord:
    """Draw ``shots`` outcomes per setting; per-setting streams allow the nine
    settings to be simulated in parallel without changing the result."""
    shots = _integer("shots", shots, 1, MAX_RECORD_SHOTS)
    p = outcome_probabilities(rho)
    return _simulate(p, shots, seed, _keys(seed, STREAM_SETTING, _SETTINGS))


def _covariances(s_ab, s_a, s_b, totals) -> np.ndarray:
    """Plug-in covariance E[ab] - E[a] E[b] of each setting from its sums of ab, a and b."""
    return s_ab / totals - (s_a / totals) * (s_b / totals)


def _covariances_from_counts(counts: np.ndarray) -> np.ndarray:
    """Plug-in covariance of each setting from its own table and marginals.

    Three matrix-vector sums: a record's counts may be fractional, and one
    product would add them in another order, moving the last bit.
    """
    return _covariances(counts @ _AB, counts @ _A, counts @ _B, counts.sum(axis=-1))


def _bootstrap_covariances(boot: np.ndarray) -> np.ndarray:
    """The covariances of integer counts, their sums taken in one integer product.

    The integer sums are exact, and so are the float sums of
    ``_covariances_from_counts`` while each table's total, the record's
    shots, is at most MAX_RECORD_SHOTS = 2**53, which MeasurementRecord
    enforces; the two then agree bit for bit.
    """
    sums = boot.reshape(-1, 4) @ _SUMS
    return _covariances(*sums.T.reshape(3, *boot.shape[:-1]), boot.sum(axis=-1))


def estimate_g(rec: MeasurementRecord) -> GEstimate:
    """Plug-in G with a bootstrap standard error.

    Each of the BOOTSTRAP_REPLICATES replicates redraws every setting's
    table multinomially at the empirical frequencies; stderr is the
    standard deviation of the replicate G values.  The one draw consumes
    the stream replicate by replicate, setting by setting.
    """
    cov_hat = _covariances_from_counts(rec.counts)
    g_hat = float(np.sum(cov_hat**2))

    freqs = rec.counts / rec.counts.sum(axis=-1, keepdims=True)
    rng = rng_at(rec.seed, STREAM_BOOTSTRAP)
    boot = rng.multinomial(rec.shots_per_setting, freqs, size=(BOOTSTRAP_REPLICATES, 3, 3))
    replicates = np.sum(_bootstrap_covariances(boot) ** 2, axis=(1, 2))
    stderr = float(np.std(replicates, ddof=1))
    return GEstimate(
        g_hat=g_hat,
        cov_hat=cov_hat,
        stderr=stderr,
        shots_per_setting=rec.shots_per_setting,
    )


def shots_for_verdict(
    rho: DensityMatrix,
    confidence_sigma: float,
    seed: int,
    trials: int = 100,
    required: int = 95,
) -> int:
    """Smallest shots-per-setting that certifies entanglement reliably.

    Success at a given shot count means g_hat - confidence_sigma * stderr > 1
    in at least ``required`` of ``trials`` seeded runs.  The count is located
    on a doubling grid up to MAX_SHOTS and then refined by bisection.  Each
    vote stops as soon as it is decided, once ``required`` hits are reached
    or can no longer be reached; every trial has its own seed, so stopping
    early never changes the result.  seed >= 0, trials >= 1 and
    1 <= required <= trials follow the integer rule, and confidence_sigma
    must be a finite real number >= 0 (not a boolean); anything else raises
    ValueError before a trial runs.  States with G <= 1, which
    ``gmeasure.certifies`` rejects, cannot be certified and are rejected too.
    """
    trials = _integer("trials", trials, 1)
    required = _integer("required", required, 1, trials)
    sigma = _real("confidence_sigma", confidence_sigma)
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise ValueError(f"confidence_sigma must be finite and >= 0, got {confidence_sigma!r}")
    g = g_from_covariances(correlation_data(rho))
    if not certifies(g):
        raise ValueError(f"state has G = {g:.6g} <= 1 and cannot be certified")

    p = outcome_probabilities(rho)
    trial_seeds = [derive_seed(seed, STREAM_TRIAL, t) for t in range(trials)]
    trial_keys = [_keys(t_seed, STREAM_SETTING, _SETTINGS) for t_seed in trial_seeds]

    def succeeds(shots: int) -> bool:
        hits = misses = 0
        for t_seed, keys in zip(trial_seeds, trial_keys):
            est = estimate_g(_simulate(p, shots, t_seed, keys))
            if est.g_hat - sigma * est.stderr > 1.0:
                hits += 1
            else:
                misses += 1
            if hits >= required or misses > trials - required:
                break
        return hits >= required

    shots = 1
    while not succeeds(shots):
        shots *= 2
        if shots > MAX_SHOTS:
            raise RuntimeError(f"no shot count up to {MAX_SHOTS} certifies this state")
    if shots == 1:
        return 1
    lo, hi = shots // 2, shots  # lo fails, hi succeeds
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def record_to_dict(rec: MeasurementRecord) -> dict:
    """JSON form {"shots": N, "seed": s, "counts": {"11": [...], ..., "33": [...]}}."""
    counts = {}
    for i in range(3):
        for j in range(3):
            row = []
            for value in rec.counts[i, j]:
                value = float(value)
                row.append(int(value) if value.is_integer() else value)
            counts[f"{i + 1}{j + 1}"] = row
    return {"shots": rec.shots_per_setting, "seed": rec.seed, "counts": counts}


def record_from_dict(data: dict) -> MeasurementRecord:
    if not isinstance(data, dict) or set(data) != {"shots", "seed", "counts"}:
        raise ValueError('record JSON must have exactly the fields "shots", "seed", "counts"')
    keys = {f"{i}{j}" for i in range(1, 4) for j in range(1, 4)}
    if not isinstance(data["counts"], dict) or set(data["counts"]) != keys:
        raise ValueError('record "counts" must have exactly the keys "11".."33"')
    counts = np.zeros((3, 3, 4))
    for key, row in data["counts"].items():
        arr = _json_floats(f'counts["{key}"]', row)
        if arr.shape != (4,):
            raise ValueError(f'counts["{key}"] must have 4 entries')
        counts[int(key[0]) - 1, int(key[1]) - 1] = arr
    return MeasurementRecord(
        shots_per_setting=_json_int("shots", data["shots"], 1),
        counts=counts,
        seed=_json_int("seed", data["seed"], 0),
    )


def estimate_to_dict(est: GEstimate) -> dict:
    return {
        "g_hat": est.g_hat,
        "cov_hat": est.cov_hat.tolist(),
        "stderr": est.stderr,
        "shots_per_setting": est.shots_per_setting,
    }
