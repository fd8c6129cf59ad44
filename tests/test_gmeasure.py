import numpy as np
import pytest

from entcov.concurrence import concurrence_mixed
from entcov.ensembles import ginibre, random_local_unitary, separable_mixture
from entcov.gmeasure import (
    GReport,
    analyze,
    bounds_violated,
    concurrence_interval,
    g_from_covariances,
    g_hilbert_schmidt,
    greport_to_dict,
    l3,
    mixed_state_ceiling,
    pure_state_floor,
)
from entcov.linalg import PAULIS, SIGMA0, SIGMA1, partial_transpose, tensor
from entcov.observables import (
    correlation_data_from_moments,
    pauli_moments,
    variance,
)
from entcov.states import PureState, apply_local_unitary, canonical, from_pure, rho_u

from oracles import g_of


def test_g_product_state_vanishes():
    amps = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex) / 2.0  # |+>|+>
    assert g_of(from_pure(PureState(amps))) == 0.0


def test_g_singlet_is_three():
    assert abs(g_of(canonical("singlet")) - 3.0) < 1e-12


def test_g_rho_u_family():
    for gamma in (0.0, 0.1, 0.25, 0.5):
        for theta in (0.0, 1.0, 2.5):
            expected = 1.0 + 8.0 * gamma * gamma
            assert abs(g_of(rho_u(gamma, theta)) - expected) < 1e-12


def test_g_hilbert_schmidt_examples():
    assert g_hilbert_schmidt(canonical("maximally_mixed")) == 0.0
    assert abs(g_hilbert_schmidt(canonical("phi_plus")) - 3.0) < 1e-12


def test_form_equivalence_over_random_states():
    for k in range(1000):
        rho = ginibre(51, k, k % 4 + 1)
        assert abs(g_of(rho) - g_hilbert_schmidt(rho)) < 1e-10


def test_l3_singlet_zero():
    # exactly 0, as the README's analyze example prints it
    assert l3(canonical("singlet")) == 0.0


def test_l3_phi_minus_maximal():
    assert abs(l3(canonical("phi_minus")) - 8.0) < 1e-12


def test_l3_product_state_at_threshold():
    assert l3(canonical("product00")) == 4.0


def test_l3_not_invariant_but_g_is():
    singlet = canonical("singlet")
    flipped = apply_local_unitary(singlet, SIGMA1, SIGMA0)
    assert l3(singlet) < 4.0 - 1e-9
    assert l3(flipped) >= 4.0 - 1e-9
    assert abs(l3(flipped) - 8.0) < 1e-12
    assert abs(g_of(singlet) - g_of(flipped)) < 1e-10


def test_l3_separable_floor():
    for k in range(1000):
        rho = separable_mixture(53, k, k % 8 + 1)
        assert l3(rho) >= 4.0 - 1e-9


def test_l3_matches_variance_route():
    # the moment-table closed form against the general-observable variances
    for k in range(500):
        rho = ginibre(57, k, k % 4 + 1)
        reference = sum(
            variance(rho, tensor(PAULIS[i], SIGMA0) + tensor(SIGMA0, PAULIS[i]))
            for i in (3, 1, 2)
        )
        assert abs(l3(rho) - reference) < 1e-12


def test_concurrence_interval_paper_example():
    c_min, c_max = concurrence_interval(2.5)
    assert abs(c_min - 0.86603) < 5e-5
    assert abs(c_max - 0.93315) < 5e-5
    assert round(c_min, 2) == 0.87
    assert round(c_max, 2) == 0.93


def test_concurrence_interval_endpoints():
    assert concurrence_interval(3.0) == (1.0, 1.0)
    assert concurrence_interval(0.0) == (0.0, 0.0)


def test_concurrence_interval_below_threshold_certifies_nothing():
    c_min, c_max = concurrence_interval(0.8)
    assert c_min == 0.0
    assert 0.0 < c_max < 1.0


def test_concurrence_interval_clamps_and_rejects():
    assert concurrence_interval(3.0 + 5e-10) == (1.0, 1.0)
    assert concurrence_interval(-5e-10) == (0.0, 0.0)
    for g in (-0.01, 3.01, 10.0):
        with pytest.raises(ValueError):
            concurrence_interval(g)


def test_concurrence_interval_ordering():
    for g in np.linspace(0.0, 3.0, 301):
        c_min, c_max = concurrence_interval(float(g))
        assert 0.0 <= c_min <= c_max <= 1.0


def test_analyze_bell_state():
    rep = analyze(rho_u(0.5, 0.0))
    assert abs(rep.g - 3.0) < 1e-10
    assert rep.verdict == "entangled_certified"
    assert abs(rep.conc_interval[0] - 1.0) < 1e-9
    assert abs(rep.conc_interval[1] - 1.0) < 1e-9


def test_analyze_maximally_mixed():
    rep = analyze(canonical("maximally_mixed"))
    assert rep.g == 0.0
    assert rep.verdict == "not_certified"
    assert rep.conc_interval == (0.0, 0.0)


def test_analyze_rho_u_03():
    rep = analyze(rho_u(0.3, 1.7))
    assert abs(rep.g - 1.72) < 1e-12
    assert rep.verdict == "entangled_certified"
    assert abs(rep.conc_interval[0] - np.sqrt(0.36)) < 1e-12
    assert abs(rep.conc_interval[1] - np.sqrt(np.sqrt(2.72) - 1.0)) < 1e-12
    assert abs(rep.conc_interval[0] - 0.6) < 5e-4
    assert abs(rep.conc_interval[1] - 0.806) < 5e-4


def test_greport_json_fields():
    out = greport_to_dict(analyze(canonical("singlet")))
    assert list(out) == ["g", "g_hs", "l3", "verdict", "c_min", "c_max"]


def test_greport_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        GReport(g=2.0, g_hs=1.0, l3=0.0, verdict="entangled_certified", conc_interval=(0.5, 0.9))
    with pytest.raises(ValueError):
        GReport(g=2.0, g_hs=2.0, l3=0.0, verdict="not_certified", conc_interval=(0.5, 0.9))
    with pytest.raises(ValueError):
        GReport(g=0.5, g_hs=0.5, l3=4.0, verdict="not_certified", conc_interval=(0.9, 0.5))


def test_greport_forms_agree_to_1e_10():
    # FORM_TOL is 1e-10: the two forms of G may differ by 5e-11, not by 2e-10.
    fields = dict(g=0.5, l3=4.0, verdict="not_certified", conc_interval=(0.0, 0.5))
    GReport(g_hs=0.5 + 5e-11, **fields)
    with pytest.raises(ValueError, match="^covariance and Hilbert-Schmidt forms disagree: 0.5 vs "):
        GReport(g_hs=0.5 + 2e-10, **fields)


def test_local_unitary_invariance_of_g():
    for k in range(500):
        rho = ginibre(61, k, k % 4 + 1)
        u_a, u_b = random_local_unitary(67, k)
        rotated = apply_local_unitary(rho, u_a, u_b)
        assert abs(g_of(rotated) - g_of(rho)) < 1e-9


def test_partial_transpose_invariance_of_g():
    for k in range(500):
        rho = ginibre(71, k, k % 4 + 1)
        g_pt = g_from_covariances(
            correlation_data_from_moments(pauli_moments(partial_transpose(rho.mat, "B")))
        )
        assert abs(g_pt - g_of(rho)) < 1e-9


def test_separable_mixtures_stay_below_unity():
    for k in range(1000):
        rho = separable_mixture(73, k, k % 8 + 1)
        assert g_of(rho) <= 1.0 + 1e-9


def test_g_far_beyond_three_passes_through_unclamped():
    # correlation data this large cannot come from a physical state; the
    # value is not silently truncated to 3
    from entcov.observables import CorrelationData

    cd = CorrelationData(
        cov=2.0 * np.eye(3),
        blochA=np.zeros(3),
        blochB=np.zeros(3),
        corrT=2.0 * np.eye(3),
    )
    assert g_from_covariances(cd) == 12.0


def test_bounds_helpers():
    assert pure_state_floor(1.0) == 3.0
    assert pure_state_floor(0.0) == 0.0
    assert mixed_state_ceiling(0.0) == 1.0
    assert mixed_state_ceiling(1.0) == 3.0
    assert not bounds_violated(0.5, pure_state_floor(0.5))
    assert bounds_violated(0.5, pure_state_floor(0.5) - 1e-6)
    assert bounds_violated(0.0, 1.1)


def test_mixed_states_respect_bounds_at_ranks_1_3_4():
    for k in range(2000):
        rho = ginibre(79, k, (1, 3, 4)[k % 3])
        c = concurrence_mixed(rho)
        g = g_of(rho)
        assert not bounds_violated(c, g)


def test_rank2_states_can_violate_the_conjectured_lower_bound():
    # The band C^2(2+C^2) <= G <= 1+2C^2 is conjectural, and the lower edge
    # genuinely fails for some rank-2 states (verified independently in exact
    # rational arithmetic; see README).  Pin one seeded witness so the
    # behaviour is tracked rather than silently absorbed.
    rho = ginibre(79, 216, 2)
    c = concurrence_mixed(rho)
    g = g_of(rho)
    assert g < pure_state_floor(c) - 0.03
    assert g <= mixed_state_ceiling(c) + 1e-9  # the upper edge still holds


def test_upper_bound_holds_across_ranks():
    for k in range(2000):
        rho = ginibre(83, k, k % 4 + 1)
        c = concurrence_mixed(rho)
        assert g_of(rho) <= mixed_state_ceiling(c) + 1e-9
