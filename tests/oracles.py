"""Reference helpers shared by several test modules."""

import numpy as np

from entcov.gmeasure import g_from_covariances
from entcov.observables import correlation_data
from entcov.sampler import MeasurementRecord, outcome_probabilities


def g_of(rho) -> float:
    """G of a state through the covariance form."""
    return g_from_covariances(correlation_data(rho))


def complex_normals(rng, shape) -> np.ndarray:
    """Complex normals of the given shape: every real part drawn first, then every imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def exact_record(rho, shots, seed=0):
    """Synthetic record whose counts are exactly shots * p(a, b)."""
    return MeasurementRecord(
        shots_per_setting=shots, counts=shots * outcome_probabilities(rho), seed=seed
    )
