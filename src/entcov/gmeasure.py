"""The covariance measure G, the three-setting uncertainty sum L3, verdicts,
and inversion of G to a concurrence interval.

G is the sum of the nine squared Pauli covariances between the two qubits.
It equals 4 Tr{(rho - rhoA (x) rhoB)^2}, is invariant under local unitaries
and under partial transposition, and G > 1 certifies entanglement.  The
band C^2 (2 + C^2) <= G <= 1 + 2 C^2 relating G to the concurrence of
mixed states is conjectural and carries no proof; Monte Carlo here supports
the upper edge across all ranks, but the lower edge is violated by a small
fraction of rank-2 and rank-3 states (see README), so interval statements
derived from it hold only for states inside the band.

L3 sums the variances of sigma_i(A) + sigma_i(B) over the three Pauli
settings.  The polarization settings map to Pauli axes as 0/90 -> sigma3,
45/135 -> sigma1, R/L -> sigma2; any consistent assignment gives the same
sum.  Separable mixtures satisfy L3 >= 4, but unlike G the violation is not
invariant under local unitaries.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import _trace, partial_trace
from .observables import CorrelationData, _covariances, correlation_data, pauli_moments
from .states import DensityMatrix

logger = logging.getLogger(__name__)

G_MAX = 3.0
FORM_TOL = 1e-10
CERT_MARGIN = 1e-9

VERDICT_CERTIFIED = "entangled_certified"
VERDICT_NOT_CERTIFIED = "not_certified"


def certifies(g: float) -> bool:
    """The verdict rule: G > 1 certifies entanglement, beyond CERT_MARGIN of rounding."""
    return g > 1.0 + CERT_MARGIN


@dataclass(frozen=True)
class GReport:
    """Everything the measure says about one state."""

    g: float
    g_hs: float
    l3: float
    verdict: str
    conc_interval: tuple[float, float]

    def __post_init__(self):
        if abs(self.g - self.g_hs) > FORM_TOL:
            raise ValueError(
                f"covariance and Hilbert-Schmidt forms disagree: {self.g} vs {self.g_hs}"
            )
        c_min, c_max = self.conc_interval
        if not 0.0 <= c_min <= c_max <= 1.0:
            raise ValueError(f"invalid concurrence interval {self.conc_interval}")
        expected = VERDICT_CERTIFIED if certifies(self.g) else VERDICT_NOT_CERTIFIED
        if self.verdict != expected:
            raise ValueError(f"verdict {self.verdict!r} inconsistent with g = {self.g}")


def _clamp_g(g):
    """G (a float or an array) clamped into [0, 3], except values far beyond 3."""
    far = g > G_MAX + CERT_MARGIN
    if np.any(far):
        # A value this far out signals an invalid input, not a rounding issue;
        # pass it through rather than truncating silently.
        logger.debug("G = %.17g exceeds 3 beyond tolerance; returning unclamped", np.max(g))
    return np.where(far, g, np.minimum(np.maximum(g, 0.0), G_MAX))


def _g(cov: np.ndarray):
    """Sum of the nine squared covariances of a 3x3 table, or of each table of a stack."""
    return _clamp_g(np.sum(cov**2, axis=(-2, -1)))


def _g_from_moments(t: np.ndarray):
    """G straight from a Pauli moment table or a stack of them."""
    return _g(_covariances(t))


def g_from_covariances(cd: CorrelationData) -> float:
    """Sum of the nine squared covariances."""
    return float(_g(cd.cov))


def g_hilbert_schmidt(rho: DensityMatrix) -> float:
    """G as 4 Tr{(rho - rhoA (x) rhoB)^2}; equals the covariance form."""
    rho_a = partial_trace(rho.mat, "A")
    rho_b = partial_trace(rho.mat, "B")
    diff = rho.mat - np.kron(rho_a, rho_b)
    return float(_clamp_g(4.0 * float(_trace((diff @ diff).real))))


def l3(rho: DensityMatrix) -> float:
    """Sum of the variances of sigma_i(A) + sigma_i(B) over the three settings.

    Separable mixtures give at least 4; the singlet reaches 0 and the
    sigma1-flipped singlet reaches the maximum 8.

    With O = sigma_i (x) 1 + 1 (x) sigma_i, O^2 = 2 + 2 sigma_i (x) sigma_i, so
    each setting's variance is 2 (t00 + t_ii) - (t_i0 + t_0i)^2 in the Pauli
    moment table, clamped at zero like ``variance``; settings sum in the
    order i = 3, 1, 2.  t00 = Tr(rho) rather than a literal 1 keeps the
    singlet's L3 an exact 0.
    """
    return _l3_from_moments(pauli_moments(rho.mat))


def _l3_from_moments(t: np.ndarray) -> float:
    """L3 of the one state whose 4x4 Pauli moment table is t, as ``l3`` computes it."""
    return float(
        sum(max(2.0 * (t[0, 0] + t[i, i]) - (t[i, 0] + t[0, i]) ** 2, 0.0) for i in (3, 1, 2))
    )


def concurrence_interval(g: float) -> tuple[float, float]:
    """Concurrence range compatible with a measured G.

    Inverts the mixed-state band: the upper concurrence comes from
    C^2 (2 + C^2) = G and the lower one from 1 + 2 C^2 = G (zero when
    G <= 1, where nothing is certified).  c_min is reliable (the upper
    edge holds empirically everywhere); c_max inverts the conjectural
    lower edge and can undershoot the true concurrence for the rank-2 and
    rank-3 states that fall below it.
    """
    if not -CERT_MARGIN <= g <= G_MAX + CERT_MARGIN:
        raise ValueError(f"G must lie in [0, 3], got {g}")
    g = min(max(g, 0.0), G_MAX)
    c_max = min(np.sqrt(np.sqrt(1.0 + g) - 1.0), 1.0)
    c_min = np.sqrt((g - 1.0) / 2.0) if g > 1.0 else 0.0
    return float(min(c_min, c_max)), float(c_max)


def analyze(rho: DensityMatrix) -> GReport:
    """Compute both G forms, L3, the verdict and the concurrence interval."""
    g = g_from_covariances(correlation_data(rho))
    g_hs = g_hilbert_schmidt(rho)
    return GReport(
        g=g,
        g_hs=g_hs,
        l3=l3(rho),
        verdict=VERDICT_CERTIFIED if certifies(g) else VERDICT_NOT_CERTIFIED,
        conc_interval=concurrence_interval(g),
    )


def greport_to_dict(report: GReport) -> dict:
    """JSON form with the fixed field names g, g_hs, l3, verdict, c_min, c_max."""
    c_min, c_max = report.conc_interval
    return {
        "g": report.g,
        "g_hs": report.g_hs,
        "l3": report.l3,
        "verdict": report.verdict,
        "c_min": c_min,
        "c_max": c_max,
    }


def pure_state_floor(c: float) -> float:
    """The pure-state curve C^2 (2 + C^2): G of every pure state at concurrence c.

    For mixed states it is only the band's conjectured lower edge, which some
    rank-2 and rank-3 states fall below.
    """
    return c * c * (2.0 + c * c)


def mixed_state_ceiling(c: float) -> float:
    """The upper bound 1 + 2 C^2 of G at concurrence c."""
    return 1.0 + 2.0 * c * c


def bounds_violated(c: float, g: float) -> bool:
    """True when (c, g) falls outside the mixed-state band beyond CERT_MARGIN."""
    return g < pure_state_floor(c) - CERT_MARGIN or g > mixed_state_ceiling(c) + CERT_MARGIN
