"""Reference helpers shared by several test modules."""

import numpy as np

from entcov._rng import STREAM_UNITARY, _keys
from entcov.ensembles import _normals, _unitaries
from entcov.gmeasure import g_from_covariances
from entcov.observables import correlation_data
from entcov.sampler import MeasurementRecord, outcome_probabilities


def g_of(rho) -> float:
    """G of a state through the covariance form."""
    return g_from_covariances(correlation_data(rho))


def cpu_flags() -> set:
    """The flags /proc/cpuinfo lists, or none where it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return {flag for line in fh if line.startswith("flags")
                    for flag in line.partition(":")[2].split()}
    except OSError:
        return set()


def complex_normals(rng, shape) -> np.ndarray:
    """Complex normals of the given shape: every real part drawn first, then every imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary_stack(seed, indices) -> np.ndarray:
    """The (n, 2, 2, 2) pairs u_a, u_b of random_local_unitary(seed, k) for k in the indices."""
    return _unitaries(_normals(_keys(seed, STREAM_UNITARY, indices), (2, 2, 2, 2)))


def state_fields(rng) -> dict:
    """The Philox state of a generator, each field as Python values."""
    state = rng.bit_generator.state
    return {
        "counter": state["state"]["counter"].tolist(),
        "key": state["state"]["key"].tolist(),
        "buffer": state["buffer"].tolist(),
        **{name: state[name] for name in ("buffer_pos", "has_uint32", "uinteger")},
    }


def exact_record(rho, shots, seed=0):
    """Synthetic record whose counts are exactly shots * p(a, b)."""
    return MeasurementRecord(
        shots_per_setting=shots, counts=shots * outcome_probabilities(rho), seed=seed
    )
