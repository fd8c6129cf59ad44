import math

import numpy as np
import pytest

from entcov.concurrence import concurrence_mixed, concurrence_pure
from entcov.ensembles import (
    EnsembleSpec,
    ensemble_spec_from_dict,
    ensemble_spec_to_dict,
    fixed_purity,
    generate,
    ginibre,
    haar_pure,
    random_local_unitary,
    separable_mixture,
)
from entcov.gmeasure import g_from_covariances, l3
from entcov.jsonio import dumps, loads
from entcov.observables import correlation_data
from entcov.states import apply_local_unitary, canonical, from_pure, purity


def test_haar_pure_determinism():
    a = haar_pure(42, 7)
    b = haar_pure(42, 7)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.amps, haar_pure(42, 8).amps)
    assert not np.array_equal(a.amps, haar_pure(43, 7).amps)


def test_generation_order_does_not_matter():
    forward = [haar_pure(9, i).amps for i in range(5)]
    backward = [haar_pure(9, i).amps for i in reversed(range(5))]
    for i in range(5):
        assert np.array_equal(forward[i], backward[4 - i])


def test_haar_pure_master_relation():
    for k in range(500):
        p = haar_pure(101, k)
        c = concurrence_pure(p)
        g = g_from_covariances(correlation_data(from_pure(p)))
        assert abs(g - c * c * (2.0 + c * c)) < 1e-9


def test_haar_mean_concurrence():
    # Haar average of C is 3*pi/16 = 0.589; confirmed by this generator at
    # build time, asserted with a generous Monte Carlo margin.
    total = 0.0
    n = 100_000
    for k in range(n):
        total += concurrence_pure(haar_pure(314159, k))
    assert abs(total / n - 0.589) < 0.02


def test_ginibre_rank1_is_pure():
    for k in range(100):
        assert abs(purity(ginibre(55, k, 1)) - 1.0) < 1e-10


def test_ginibre_rank_bound_and_validity():
    for rank in (1, 2, 3, 4):
        for k in range(100):
            rho = ginibre(66, k, rank)
            w = np.linalg.eigvalsh(rho.mat)
            assert np.sum(w > 1e-10) <= rank
            assert abs(w.sum() - 1.0) < 1e-10
            assert 0.25 <= purity(rho) <= 1.0


def test_ginibre_determinism():
    assert np.array_equal(ginibre(5, 3, 2).mat, ginibre(5, 3, 2).mat)
    assert not np.array_equal(ginibre(5, 3, 2).mat, ginibre(5, 4, 2).mat)


def test_ginibre_rejects_bad_rank():
    with pytest.raises(ValueError):
        ginibre(1, 0, 5)


def test_ginibre_rank4_respects_band():
    # the conjectured band holds at rank 4 (rank 2 is the known exception)
    from entcov.gmeasure import bounds_violated

    for k in range(2000):
        rho = ginibre(2029, k, 4)
        assert not bounds_violated(concurrence_mixed(rho), g_from_covariances(correlation_data(rho)))


def test_fixed_purity_lands_in_window():
    for target, window in ((0.46, 0.005), (0.5, 0.005)):
        for k in range(50):
            rho = fixed_purity(88, k, target, window)
            assert abs(purity(rho) - target) <= window


def test_fixed_purity_determinism():
    a = fixed_purity(12, 0, 0.46, 0.005)
    b = fixed_purity(12, 0, 0.46, 0.005)
    assert np.array_equal(a.mat, b.mat)


def test_fixed_purity_infeasible_window_errors():
    with pytest.raises(RuntimeError):
        fixed_purity(1, 0, 1.0, 1e-12, max_attempts=2000)


def test_fixed_purity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fixed_purity(1, 0, 0.2, 0.01)
    with pytest.raises(ValueError):
        fixed_purity(1, 0, 0.5, 0.0)


def test_separable_mixture_single_term_is_product():
    for k in range(100):
        rho = separable_mixture(21, k, 1)
        assert abs(purity(rho) - 1.0) < 1e-10
        assert g_from_covariances(correlation_data(rho)) < 1e-12


def test_separable_mixture_zero_concurrence():
    for k in range(300):
        rho = separable_mixture(23, k, k % 8 + 1)
        assert concurrence_mixed(rho) < 1e-9


def test_separable_mixture_l3_floor_and_g_cap():
    for k in range(300):
        rho = separable_mixture(25, k, k % 8 + 1)
        assert l3(rho) >= 4.0 - 1e-9
        assert g_from_covariances(correlation_data(rho)) <= 1.0 + 1e-9


def test_random_local_unitary_contract():
    for k in range(200):
        u_a, u_b = random_local_unitary(31, k)
        for u in (u_a, u_b):
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
    again_a, again_b = random_local_unitary(31, 0)
    first_a, first_b = random_local_unitary(31, 0)
    assert np.array_equal(again_a, first_a) and np.array_equal(again_b, first_b)


def test_random_local_unitary_preserves_g_of_singlet():
    singlet = canonical("singlet")
    for k in range(200):
        u_a, u_b = random_local_unitary(37, k)
        g = g_from_covariances(correlation_data(apply_local_unitary(singlet, u_a, u_b)))
        assert abs(g - 3.0) < 1e-9


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(kind="bogus", count=10, seed=1)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="haar_pure", count=0, seed=1)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="ginibre", count=10, seed=1)  # missing rank
    with pytest.raises(ValueError):
        EnsembleSpec(kind="fixed_purity", count=10, seed=1, purity_target=0.1, purity_window=0.01)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="separable_mixture", count=10, seed=1, mixture_terms=0)


def test_ensemble_spec_checks_purity_fields_of_every_kind():
    with pytest.raises(ValueError, match="purity_window must be positive"):
        EnsembleSpec("haar_pure", 1, 0, purity_window=-1.0)
    with pytest.raises(ValueError, match="purity_window must be positive"):
        EnsembleSpec("haar_pure", 1, 0, purity_target=1.0, purity_window=0.0)
    with pytest.raises(ValueError, match="purity_target must lie in"):
        EnsembleSpec("haar_pure", 1, 0, purity_target=1.5, purity_window=0.01)


@pytest.mark.parametrize("window", [math.inf, math.nan])
def test_purity_window_must_be_finite(window):
    with pytest.raises(ValueError, match="^purity_window must be positive and finite"):
        fixed_purity(1, 0, 0.5, window)
    with pytest.raises(ValueError, match="^purity_window must be positive and finite"):
        EnsembleSpec("fixed_purity", 1, 0, purity_target=0.5, purity_window=window)


def test_purity_target_must_be_finite():
    with pytest.raises(ValueError, match="^purity_target must lie in"):
        fixed_purity(1, 0, math.nan, 0.01)


def test_ensemble_spec_stores_numpy_integers_as_int():
    spec = EnsembleSpec("ginibre", np.int64(4), np.uint32(1), rank=np.int8(2))
    assert all(type(v) is int for v in (spec.count, spec.seed, spec.rank))
    assert ensemble_spec_from_dict(loads(dumps(ensemble_spec_to_dict(spec)))) == spec


def test_ensemble_spec_json_round_trip():
    spec = EnsembleSpec(kind="fixed_purity", count=5, seed=9, purity_target=0.46, purity_window=0.01)
    back = ensemble_spec_from_dict(loads(dumps(ensemble_spec_to_dict(spec))))
    assert back == spec
    with pytest.raises(ValueError):
        ensemble_spec_from_dict({"kind": "haar_pure"})


@pytest.mark.parametrize(
    "field, value",
    [
        ("count", 2.7),
        ("count", True),
        ("count", "4"),
        ("seed", True),
        ("seed", 3.99),
        ("rank", 3.9),
        ("rank", True),
        ("mixture_terms", 2.5),
        ("mixture_terms", True),
    ],
)
def test_ensemble_spec_from_dict_rejects_non_integers(field, value):
    if field == "mixture_terms":
        data = {"kind": "separable_mixture", "count": 4, "seed": 1, "mixture_terms": 3}
    else:
        data = {"kind": "ginibre", "count": 4, "seed": 1, "rank": 3}
    data[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ensemble_spec_from_dict(data)


@pytest.mark.parametrize("field", ["purity_target", "purity_window"])
@pytest.mark.parametrize("value", ["0.5", True, [0.5]])
def test_ensemble_spec_from_dict_rejects_non_numeric_purity(field, value):
    data = {"kind": "fixed_purity", "count": 2, "seed": 1,
            "purity_target": 0.5, "purity_window": 0.02}
    data[field] = value
    with pytest.raises(ValueError, match=f"^{field} must "):
        ensemble_spec_from_dict(data)


def test_ensemble_spec_from_dict_accepts_integer_purity():
    data = {"kind": "fixed_purity", "count": 2, "seed": 1, "purity_target": 1, "purity_window": 0.02}
    spec = ensemble_spec_from_dict(data)
    assert type(spec.purity_target) is float and spec.purity_target == 1.0


def test_ensemble_spec_from_dict_accepts_integral_floats():
    spec = ensemble_spec_from_dict({"kind": "ginibre", "count": 4.0, "seed": 1.0, "rank": 3.0})
    assert spec == EnsembleSpec(kind="ginibre", count=4, seed=1, rank=3)
    assert all(type(v) is int for v in (spec.count, spec.seed, spec.rank))


def test_generate_all_kinds_yield_valid_states():
    specs = [
        EnsembleSpec(kind="haar_pure", count=5, seed=3),
        EnsembleSpec(kind="ginibre", count=5, seed=3, rank=2),
        EnsembleSpec(kind="fixed_purity", count=3, seed=3, purity_target=0.5, purity_window=0.02),
        EnsembleSpec(kind="separable_mixture", count=5, seed=3, mixture_terms=3),
        EnsembleSpec(kind="rho_u_sweep", count=6, seed=3),
    ]
    for spec in specs:
        out = list(generate(spec))
        assert [idx for idx, _ in out] == list(range(spec.count))
        # DensityMatrix construction validates; reaching here means all passed


def test_rho_u_sweep_covers_gamma_range():
    spec = EnsembleSpec(kind="rho_u_sweep", count=11, seed=0)
    states = [rho for _, rho in generate(spec)]
    gs = [g_from_covariances(correlation_data(r)) for r in states]
    assert abs(gs[0] - 1.0) < 1e-12   # gamma = 0
    assert abs(gs[-1] - 3.0) < 1e-12  # gamma = 1/2
