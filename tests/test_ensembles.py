import functools
import math
import tracemalloc

import numpy as np
import pytest

from entcov import ensembles
from entcov._rng import (
    STREAM_FIXED_PURITY,
    STREAM_GINIBRE,
    STREAM_HAAR,
    STREAM_SEPARABLE,
    STREAM_UNITARY,
    _generator,
    _keys,
    rng_at,
)
from entcov.concurrence import _concurrence_pure, concurrence_mixed
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
from entcov.gmeasure import _g_from_moments, g_from_covariances, l3
from entcov.jsonio import dumps, loads
from entcov.observables import correlation_data, pauli_moments
from entcov.states import (
    DensityMatrix,
    _projectors,
    _purity,
    _validated_spectrum,
    apply_local_unitary,
    canonical,
    purity,
    rho_u,
)

from oracles import complex_normals, state_fields, unitary_stack


def test_haar_pure_determinism():
    a = haar_pure(42, 7)
    b = haar_pure(42, 7)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.amps, haar_pure(42, 8).amps)
    assert not np.array_equal(a.amps, haar_pure(43, 7).amps)


def test_stacks_of_no_index_are_empty():
    no_index = np.arange(0)
    stacks = [
        ensembles._separable_stack(1, no_index, 3),
        ensembles._ginibre_stack(1, no_index, (1,)),
        ensembles._fixed_purity_stack(_keys(1, STREAM_FIXED_PURITY, no_index), 0.46, 0.005),
    ]
    stacks += [ensembles._stack(spec, no_index) for spec in CHUNK_SPECS]
    assert {spec.kind for spec in CHUNK_SPECS} == set(ensembles.ENSEMBLE_KINDS)
    for mats in stacks:
        assert mats.shape == (0, 4, 4) and mats.dtype == complex
    pairs = unitary_stack(1, no_index)
    assert pairs.shape == (0, 2, 2, 2) and pairs.dtype == complex


def test_generation_order_does_not_matter():
    forward = [haar_pure(9, i).amps for i in range(5)]
    backward = [haar_pure(9, i).amps for i in reversed(range(5))]
    for i in range(5):
        assert np.array_equal(forward[i], backward[4 - i])


def test_haar_pure_master_relation():
    # haar_pure(101, k) for k < 500, a chunk at a time
    for _, amps in ensembles._chunks(500, functools.partial(ensembles._haar_amp_stack, 101)):
        c = _concurrence_pure(amps)
        g = _g_from_moments(pauli_moments(_validated_spectrum(_projectors(amps))[0]))
        assert np.all(np.abs(g - c * c * (2.0 + c * c)) < 1e-9)


def test_haar_mean_concurrence():
    # Haar average of C is 3*pi/16 = 0.589; confirmed by this generator at
    # build time, asserted with a generous Monte Carlo margin.
    total = 0.0
    n = 100_000
    # haar_pure(314159, k) for k < n, a chunk at a time
    for _, amps in ensembles._chunks(n, functools.partial(ensembles._haar_amp_stack, 314159)):
        total += float(np.sum(_concurrence_pure(amps)))
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


def test_fixed_purity_infeasible_window_errors(monkeypatch):
    monkeypatch.setattr(ensembles, "MAX_REJECTION_ATTEMPTS", 2000)
    with pytest.raises(RuntimeError, match=" in 2000 attempts; the window is infeasible$"):
        fixed_purity(1, 0, 1.0, 1e-12)


def one_attempt_fixed_purity(seed, index, target, window):
    """fixed_purity as it was before block draws: one attempt and one DensityMatrix at a time.

    Returns the accepted state and the number of attempts it took.
    """
    rng = rng_at(seed, STREAM_FIXED_PURITY, index)
    for attempt in range(1, ensembles.MAX_REJECTION_ATTEMPTS + 1):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = x @ x.conj().T
        rho = DensityMatrix(m / np.real(np.trace(m)))
        p = min(max(float(np.real(np.trace(rho.mat @ rho.mat))), 0.25), 1.0)
        if abs(p - target) <= window:
            return rho, attempt
    raise RuntimeError(
        f"no rank-4 sample hit purity {target} +- {window} in {ensembles.MAX_REJECTION_ATTEMPTS} "
        "attempts; the window is infeasible"
    )


# At this seed the first hits of indices 0..199 at 0.46 +- 0.005 include
# attempts 1, 31, 32, 33, 34, 50 and 51, on both sides of every cap below.
ORACLE_SEED = 20260905


def test_block_drawn_fixed_purity_matches_the_one_attempt_loop():
    attempts = set()
    for k in range(200):
        expected, n = one_attempt_fixed_purity(ORACLE_SEED, k, 0.46, 0.005)
        attempts.add(n)
        assert np.array_equal(fixed_purity(ORACLE_SEED, k, 0.46, 0.005).mat, expected.mat)
    assert {1, 31, 32, 33, 34, 50, 51} <= attempts


@pytest.mark.parametrize("cap", [1, 31, 32, 33, 50])
def test_block_drawn_fixed_purity_keeps_the_attempt_cap_exact(monkeypatch, cap):
    monkeypatch.setattr(ensembles, "MAX_REJECTION_ATTEMPTS", cap)
    infeasible = f" in {cap} attempts; the window is infeasible$"
    hits = {}
    for k in range(200):
        try:
            expected, _ = one_attempt_fixed_purity(ORACLE_SEED, k, 0.46, 0.005)
        except RuntimeError:
            with pytest.raises(RuntimeError, match=infeasible):
                fixed_purity(ORACLE_SEED, k, 0.46, 0.005)
        else:
            assert np.array_equal(fixed_purity(ORACLE_SEED, k, 0.46, 0.005).mat, expected.mat)
            hits[k] = expected.mat
    assert 0 < len(hits) < 200
    # Many indices per stack: every index the oracle fills, then all 200.
    spec = EnsembleSpec("fixed_purity", 200, ORACLE_SEED, purity_target=0.46, purity_window=0.005)
    filled = np.array(sorted(hits))
    for k, m in zip(filled.tolist(), ensembles._stack(spec, filled)):
        assert np.array_equal(m, hits[k]), k
    with pytest.raises(RuntimeError, match=infeasible):
        ensembles._stack(spec, np.arange(200))


@pytest.mark.parametrize("seed", [ORACLE_SEED, 2026])
def test_one_stack_of_fixed_purity_matches_the_one_attempt_loop(seed):
    # N_CHUNKED indices in one call: full groups of first blocks and a part.
    spec = EnsembleSpec("fixed_purity", N_CHUNKED, seed, purity_target=0.46, purity_window=0.005)
    mats = ensembles._stack(spec, np.arange(N_CHUNKED))
    for k, m in enumerate(mats):
        assert np.array_equal(m, oracle_matrix(spec, k)), k


def test_infeasible_window_continues_only_the_first_index(monkeypatch):
    monkeypatch.setattr(ensembles, "MAX_REJECTION_ATTEMPTS", 500)
    continued, one_matrix = [], ensembles._fixed_purity_matrix

    def counting(rng, start, target, window):
        continued.append((rng, start))
        return one_matrix(rng, start, target, window)

    monkeypatch.setattr(ensembles, "_fixed_purity_matrix", counting)
    spec = EnsembleSpec("fixed_purity", ensembles.CHUNK, 1, purity_target=1.0, purity_window=1e-12)
    with pytest.raises(ensembles.InfeasibleWindowError, match=" in 500 attempts; the window is"):
        list(ensembles._chunks(spec.count, functools.partial(ensembles._stack, spec)))
    # One lone continuation, on index 0's stream, from the end of its stacked
    # rounds to the cap.
    [(rng, start)] = continued
    assert start == ensembles._ROUNDS * ensembles._ROUND
    first = _generator(_keys(1, STREAM_FIXED_PURITY, [(0,)])[0])
    first.standard_normal((500, 2, 4, 4))
    assert state_fields(rng) == state_fields(first)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_the_gram_score_hits_what_the_exact_rule_hits_at_the_window_edge(rank):
    # Each window is exactly |_purity(m_k) - target| of one attempt k, which
    # the exact rule just accepts.  The Frobenius score differs from _purity
    # in the last bits for about half the attempts, so without the exact
    # rule near the edge some of these attempts would be missed.
    x = np.random.default_rng(rank).standard_normal((4, 32, 2, 4, rank))
    z = ensembles._complex(x[:, :, 0], x[:, :, 1])
    g, t = ensembles._gram(z)
    exact = _purity(ensembles._induced(z))
    for target in (0.3, 0.46, 0.6, 0.8, 1.0):
        for window in np.unique(np.abs(exact - target)).tolist():
            hits = ensembles._purity_hits(g, t, target, window)
            assert np.array_equal(hits, np.abs(exact - target) <= window), (target, window)


def test_fixed_purity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fixed_purity(1, 0, 0.2, 0.01)
    with pytest.raises(ValueError):
        fixed_purity(1, 0, 0.5, 0.0)
    with pytest.raises(ValueError, match="^purity_target must be a real number, got True$"):
        fixed_purity(1, 0, True, 0.01)  # not run at target 1
    with pytest.raises(ValueError, match="^purity_window must be a real number, got True$"):
        fixed_purity(1, 0, 0.5, True)


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
    for purity in ({}, {"purity_target": 0.46}, {"purity_window": 0.005}):
        with pytest.raises(ValueError, match="^fixed_purity needs purity_target and purity_window$"):
            EnsembleSpec("fixed_purity", 10, 1, **purity)


def test_mixture_terms_are_bounded_at_every_entry_point():
    top = ensembles.MAX_MIXTURE_TERMS
    assert top == 2**16
    assert EnsembleSpec("separable_mixture", 1, 1, mixture_terms=top).mixture_terms == top
    assert purity(separable_mixture(1, 0, top)) >= 0.25
    for field, call in [
        ("mixture_terms", lambda: EnsembleSpec("separable_mixture", 1, 1, mixture_terms=top + 1)),
        ("mixture_terms", lambda: EnsembleSpec("haar_pure", 1, 1, mixture_terms=top + 1)),
        ("terms", lambda: separable_mixture(1, 0, top + 1)),
    ]:
        rule = f"^{field} must be an integer >= 1 and <= 65536, got 65537$"
        with pytest.raises(ValueError, match=rule):
            call()


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
    for data in ([], "haar_pure", None):
        with pytest.raises(ValueError, match="^ensemble spec JSON must be an object$"):
            ensemble_spec_from_dict(data)


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


@pytest.mark.parametrize("field", ["purity_target", "purity_window"])
@pytest.mark.parametrize("value", [True, np.True_, "0.5", [0.5], 0.5j])
def test_ensemble_spec_rejects_non_real_purity(field, value):
    fields = {"purity_target": 0.5, "purity_window": 0.02, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
        EnsembleSpec("fixed_purity", 2, 1, **fields)


def test_ensemble_spec_stores_numpy_floats_as_float():
    spec = EnsembleSpec("fixed_purity", 2, 1, purity_target=np.float32(0.46),
                        purity_window=np.float64(0.02))
    assert type(spec.purity_target) is float and spec.purity_target == float(np.float32(0.46))
    assert type(spec.purity_window) is float and spec.purity_window == 0.02
    assert ensemble_spec_from_dict(loads(dumps(ensemble_spec_to_dict(spec)))) == spec


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


def oracle_matrix(spec, index, rank=None):
    """Index ``index`` of the spec as it was generated one state at a time from rng_at.

    rank overrides spec.rank, for the rank cycle of scan-bounds.
    """
    if spec.kind == "haar_pure":
        z = complex_normals(rng_at(spec.seed, STREAM_HAAR, index), 4)
        a = z / np.linalg.norm(z)
        return np.outer(a, a.conj())
    if spec.kind == "ginibre":
        x = complex_normals(rng_at(spec.seed, STREAM_GINIBRE, index), (4, rank or spec.rank))
        m = x @ x.conj().T
        return m / np.real(np.trace(m))
    if spec.kind == "fixed_purity":
        return one_attempt_fixed_purity(spec.seed, index, spec.purity_target, spec.purity_window)[0].mat
    if spec.kind == "separable_mixture":
        rng = rng_at(spec.seed, STREAM_SEPARABLE, index)
        weights = rng.standard_exponential(spec.mixture_terms)
        weights /= weights.sum()
        m = np.zeros((4, 4), dtype=complex)
        for w in weights:
            a = complex_normals(rng, 2)
            a /= np.linalg.norm(a)
            b = complex_normals(rng, 2)
            b /= np.linalg.norm(b)
            m += w * np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        return m
    return rho_u(0.5 * index / (spec.count - 1) if spec.count > 1 else 0.0, 0.0).mat


def oracle_unitaries(seed, index):
    """random_local_unitary(seed, index) as it was formed, one 2x2 unitary at a time from rng_at.

    Gram-Schmidt on the columns of a complex normal matrix, for u_a and then u_b.
    """
    rng = rng_at(seed, STREAM_UNITARY, index)
    pair = []
    for _ in range(2):
        z = complex_normals(rng, (2, 2))
        q0 = z[:, 0] / np.linalg.norm(z[:, 0])
        v = z[:, 1] - (q0.conj() @ z[:, 1]) * q0
        pair.append(np.column_stack([q0, v / np.linalg.norm(v)]))
    return pair


# Counts above the default chunk and not divisible by any chunk tested.
N_CHUNKED = ensembles.CHUNK + 44
CHUNK_SPECS = [
    EnsembleSpec("haar_pure", N_CHUNKED, 4),
    *(EnsembleSpec("ginibre", N_CHUNKED, 5 + rank, rank=rank) for rank in (1, 2, 3, 4)),
    EnsembleSpec("fixed_purity", N_CHUNKED, 6, purity_target=0.46, purity_window=0.005),
    # numpy sums the weights in other orders from 8 terms and past 128 terms.
    *(EnsembleSpec("separable_mixture", N_CHUNKED, 7, mixture_terms=t) for t in (1, 3, 8, 9)),
    EnsembleSpec("separable_mixture", 9, 7, mixture_terms=130),
    EnsembleSpec("rho_u_sweep", N_CHUNKED, 0),
    EnsembleSpec("rho_u_sweep", 1, 0),
]


def chunked(count, stack, chunk, monkeypatch):
    """The indices and matrices of the chunk loop at the given CHUNK, each concatenated."""
    monkeypatch.setattr(ensembles, "CHUNK", chunk)
    chunks = list(ensembles._chunks(count, stack))
    assert [len(idx) for idx, _ in chunks[:-1]] == [chunk] * (len(chunks) - 1)
    indices = np.concatenate([idx for idx, _ in chunks])
    mats = np.concatenate([mats for _, mats in chunks])
    assert np.array_equal(indices, np.arange(count)) and len(mats) == count
    return mats


@pytest.mark.parametrize("chunk", [1, 7, ensembles.CHUNK])
# The id names a Ginibre spec's rank and a separable spec's term count.
@pytest.mark.parametrize("spec", CHUNK_SPECS, ids=lambda s: f"{s.kind}-{s.rank or s.mixture_terms}")
def test_chunked_matrices_equal_the_per_index_oracle(spec, chunk, monkeypatch):
    mats = chunked(spec.count, functools.partial(ensembles._stack, spec), chunk, monkeypatch)
    for k, m in enumerate(mats):
        assert np.array_equal(m, oracle_matrix(spec, k)), k


@pytest.mark.parametrize("chunk", [1, 7, ensembles.CHUNK])
@pytest.mark.parametrize("ranks", [(1, 2, 3, 4), (1, 3, 4), (2,)])
def test_scan_rank_cycle_equals_the_per_index_oracle(ranks, chunk, monkeypatch):
    spec = EnsembleSpec("ginibre", N_CHUNKED, 2026, rank=1)
    stack = functools.partial(ensembles._ginibre_stack, 2026, ranks=ranks)
    mats = chunked(N_CHUNKED, stack, chunk, monkeypatch)
    for k, m in enumerate(mats):
        assert np.array_equal(m, oracle_matrix(spec, k, ranks[k % len(ranks)])), k


@pytest.mark.parametrize("chunk", [1, 7, ensembles.CHUNK])
def test_unitary_stack_equals_the_per_index_oracle(chunk, monkeypatch):
    pairs = chunked(N_CHUNKED, functools.partial(unitary_stack, 8), chunk, monkeypatch)
    for k, pair in enumerate(pairs):
        assert np.array_equal(pair, oracle_unitaries(8, k)), k


@pytest.mark.parametrize("index", [0, 5, 2**64 - 1])
def test_random_local_unitary_equals_the_oracle(index):
    assert np.array_equal(random_local_unitary(31, index), oracle_unitaries(31, index))


def test_the_rank_cycle_follows_the_index_value():
    # Unsorted, non-contiguous indices; one stack, and one index at a time as at CHUNK 1.
    cycle, indices = (1, 3, 4), np.array([131, 5, 7, 130])
    expected = [ginibre(2026, k, cycle[k % 3]).mat for k in indices.tolist()]
    assert np.array_equal(ensembles._ginibre_stack(2026, indices, cycle), expected)
    for k, m in zip(indices, expected):
        assert np.array_equal(ensembles._ginibre_stack(2026, np.array([k]), cycle)[0], m), k


def test_a_separable_stack_forms_a_bounded_number_of_products(monkeypatch):
    # 2049 terms: 2**13 product states hold 3 indices, so 7 indices form in 3 groups.
    terms, indices = 2**11 + 1, np.array([9, 2, 40, 3, 2**64 - 1, 0, 17], dtype=np.uint64)
    formed, tensor = [], ensembles.tensor

    def counting(a, b):
        formed.append(a.shape[0] * a.shape[1])
        return tensor(a, b)

    monkeypatch.setattr(ensembles, "tensor", counting)
    mats = ensembles._separable_stack(2026, indices, terms)
    assert formed == [3 * terms, 3 * terms, terms]
    for k, m in zip(indices.tolist(), mats):
        assert np.array_equal(m, separable_mixture(2026, k, terms).mat), k


def test_generate_draws_one_index_at_a_time(monkeypatch):
    spec = EnsembleSpec("fixed_purity", 50, 3, purity_target=0.46, purity_window=0.005)
    expected = fixed_purity(3, 0, 0.46, 0.005)
    calls, kernel = [], ensembles._fixed_purity_stack

    def counting(keys, *args):
        calls.append(keys.tolist())
        return kernel(keys, *args)

    monkeypatch.setattr(ensembles, "_fixed_purity_stack", counting)
    index, rho = next(generate(spec))
    assert index == 0 and calls == [_keys(3, STREAM_FIXED_PURITY, [(0,)]).tolist()]
    assert np.array_equal(rho.mat, expected.mat)


def drawn_attempts(first_hit):
    """The attempts an index draws when its first hit is attempt first_hit (up to its round or block)."""
    stacked, up = ensembles._ROUNDS * ensembles._ROUND, lambda n, size: -(-n // size) * size
    if first_hit <= stacked:
        return up(first_hit, ensembles._ROUND)
    return stacked + up(first_hit - stacked, ensembles.REJECTION_BLOCK)


def test_a_sweep_derives_the_fixed_purity_keys_once_per_chunk(monkeypatch):
    # The keys once per chunk, one live generator per index, and each index
    # draws up to its first hit rounded up to its round or block: no attempt
    # is drawn twice.
    spec = EnsembleSpec("fixed_purity", 300, 3, purity_target=0.46, purity_window=0.005)
    streams, keys, built, generator = [], ensembles._keys, [], ensembles._generator

    def counting(seed, stream, indices):
        streams.append(stream)
        return keys(seed, stream, indices)

    def building(key):
        built.append((key, generator(key)))
        return built[-1][1]

    monkeypatch.setattr(ensembles, "_keys", counting)
    monkeypatch.setattr(ensembles, "_generator", building)
    chunks = list(ensembles._chunks(spec.count, functools.partial(ensembles._stack, spec)))
    assert [len(idx) for idx, _ in chunks] == [128, 128, 44]
    assert streams == [STREAM_FIXED_PURITY] * 3
    assert np.array_equal([key for key, _ in built], keys(3, STREAM_FIXED_PURITY, np.arange(300)))
    alone = 0
    for k, (key, rng) in enumerate(built):
        _, first_hit = one_attempt_fixed_purity(3, k, 0.46, 0.005)
        alone += first_hit > ensembles._ROUNDS * ensembles._ROUND
        reference = generator(key)
        reference.standard_normal((drawn_attempts(first_hit), 2, 4, 4))
        assert state_fields(rng) == state_fields(reference), k
    assert alone > 0  # some indices continue alone after their rounds


def test_a_fixed_purity_group_holds_about_three_complex_stacks_at_its_peak():
    # A group's first round, a (32, 16, 4, 4) complex stack of attempts, is
    # 131072 B; its 32 live generators are counted apart.  The normals are
    # freed before the Gram product; holding them through it raises the peak
    # to about four stacks.
    keys = _keys(2026, STREAM_FIXED_PURITY, np.arange(32))
    ensembles._fixed_purity_stack(keys, 0.46, 0.005)  # warm-up
    tracemalloc.start()
    try:
        rngs = [_generator(key) for key in keys]
        generators = tracemalloc.get_traced_memory()[0]
        del rngs
        tracemalloc.reset_peak()
        ensembles._fixed_purity_stack(keys, 0.46, 0.005)
        peak = tracemalloc.get_traced_memory()[1] - generators
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 131072, peak / 131072


def test_generate_raises_at_the_failing_index(monkeypatch):
    # At ORACLE_SEED indices 0..3 hit within 33 attempts and index 4 needs 48.
    monkeypatch.setattr(ensembles, "MAX_REJECTION_ATTEMPTS", 33)
    spec = EnsembleSpec("fixed_purity", 200, ORACLE_SEED, purity_target=0.46, purity_window=0.005)
    yielded = []
    with pytest.raises(RuntimeError, match=" in 33 attempts; the window is infeasible$"):
        for index, rho in generate(spec):
            yielded.append(index)
            assert np.array_equal(rho.mat, fixed_purity(ORACLE_SEED, index, 0.46, 0.005).mat)
    assert yielded == [0, 1, 2, 3]
