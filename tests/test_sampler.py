import numpy as np
import pytest

from entcov import sampler
from entcov._rng import STREAM_BOOTSTRAP, STREAM_SETTING, STREAM_TRIAL, _keys, derive_seed, rng_at
from entcov.ensembles import ginibre, separable_mixture
from entcov.gmeasure import g_from_covariances
from entcov.jsonio import dumps, loads
from entcov.linalg import PAULIS, SIGMA0
from entcov.observables import correlation_data
from entcov.sampler import (
    BOOTSTRAP_REPLICATES,
    MAX_RECORD_SHOTS,
    OUTCOMES,
    MeasurementRecord,
    estimate_g,
    outcome_probabilities,
    record_from_dict,
    record_to_dict,
    shots_for_verdict,
    simulate_record,
)
from entcov.states import canonical, rho_u


def exact_record(rho, shots, seed=0):
    """Synthetic record whose counts are exactly shots * p(a, b)."""
    return MeasurementRecord(
        shots_per_setting=shots, counts=shots * outcome_probabilities(rho), seed=seed
    )


def test_outcome_probabilities_singlet():
    p = outcome_probabilities(canonical("singlet"))[2, 2]
    assert np.max(np.abs(p - np.array([0.0, 0.5, 0.5, 0.0]))) < 1e-12


def test_outcome_probabilities_maximally_mixed():
    table = outcome_probabilities(canonical("maximally_mixed"))
    assert table.shape == (3, 3, 4)
    assert np.max(np.abs(table - 0.25)) < 1e-12


def test_outcome_probabilities_eigenstate():
    p = outcome_probabilities(canonical("product00"))[2, 2]
    assert np.max(np.abs(p - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-12


def projector_probabilities(rho, i, j):
    """Tr(rho P_a (x) P_b) with P_a = (1 + a sigma_i) / 2, in the fixed outcome order."""
    projectors = [
        np.kron((SIGMA0 + a * PAULIS[i]) / 2, (SIGMA0 + b * PAULIS[j]) / 2) for a, b in OUTCOMES
    ]
    return np.array([np.real(np.trace(rho.mat @ proj)) for proj in projectors])


def test_outcome_probabilities_match_projector_trace():
    names = ("singlet", "phi_plus", "phi_minus", "psi_plus", "product00", "maximally_mixed")
    states = [canonical(name) for name in names] + [rho_u(0.4), rho_u(0.1)]
    states += [ginibre(41, k, k % 4 + 1) for k in range(200)]
    for rho in states:
        table = outcome_probabilities(rho)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                diff = table[i - 1, j - 1] - projector_probabilities(rho, i, j)
                assert np.max(np.abs(diff)) < 1e-15


def test_outcome_probabilities_named_states_exact():
    # Bit-exact, not within a tolerance: a zero that turns into 5.55e-17 makes
    # rng.multinomial consume extra draws and moves every pinned shot count.
    def correlated_table(diag):
        table = np.full((3, 3, 4), 0.25)
        for k, probs in enumerate(diag):
            table[k, k] = probs
        return table

    same, opposite = [0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]
    product00 = np.full((3, 3, 4), 0.25)
    product00[2, :2] = [0.5, 0.5, 0.0, 0.0]
    product00[:2, 2] = [0.5, 0.0, 0.5, 0.0]
    product00[2, 2] = [1.0, 0.0, 0.0, 0.0]
    expected = {
        "singlet": (canonical("singlet"), correlated_table([opposite] * 3)),
        "phi_plus": (canonical("phi_plus"), correlated_table([same, opposite, same])),
        "product00": (canonical("product00"), product00),
    }
    for gamma in (0.4, 0.1):
        p, q = (1 + 2 * gamma) / 4, (1 - 2 * gamma) / 4
        table = correlated_table([[p, q, q, p], [q, p, p, q], same])
        expected[f"rho_u({gamma})"] = (rho_u(gamma), table)
    for name, (rho, table) in expected.items():
        assert np.array_equal(outcome_probabilities(rho), table), name
    # the expected tables carry the rounding of (1 - 0.8) / 4, not 0.05
    assert expected["rho_u(0.4)"][1][0, 0, 1] == 0.04999999999999999


def test_simulate_record_deterministic_state():
    rec = simulate_record(canonical("product00"), 500, 11)
    assert rec.counts[2, 2, 0] == 500  # setting (3,3): every shot lands in (+,+)
    assert np.all(rec.counts.sum(axis=2) == 500)


def test_simulate_record_repeatable_under_seed():
    a = simulate_record(canonical("singlet"), 1000, 99)
    b = simulate_record(canonical("singlet"), 1000, 99)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_record(canonical("singlet"), 1000, 100)
    assert not np.array_equal(a.counts, c.counts)


def test_settings_draw_from_independent_streams():
    # each setting's table equals a direct draw from its own stream, so the
    # nine settings can be simulated on any workers in any order
    from entcov._rng import STREAM_SETTING, rng_at

    rho = rho_u(0.3, 0.7)
    rec = simulate_record(rho, 400, 31)
    table = outcome_probabilities(rho)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rng = rng_at(31, STREAM_SETTING, i, j)
            direct = rng.multinomial(400, table[i - 1, j - 1])
            assert np.array_equal(rec.counts[i - 1, j - 1], direct)


def test_keys_derived_once_draw_the_records_of_simulate_record():
    # a search derives each trial's setting keys once and simulates with them
    # at every shot count; each record equals the one simulate_record draws
    for rho in (canonical("singlet"), rho_u(0.4), ginibre(17, 3, 2)):
        p = outcome_probabilities(rho)
        for seed in (0, 31, derive_seed(2026, STREAM_TRIAL, 5)):
            keys = _keys(seed, STREAM_SETTING, sampler._SETTINGS)
            for shots in (1, 7, 24, 799):
                rec = sampler._simulate(p, shots, seed, keys)
                direct = simulate_record(rho, shots, seed)
                assert np.array_equal(rec.counts, direct.counts) and rec.seed == direct.seed


def test_empirical_correlations_converge():
    # anticorrelated settings are exact (p(+,+) = p(-,-) = 0); null settings
    # fluctuate within the binomial scale sqrt((1 - t^2)/N)
    shots = 1_000_000
    rec = simulate_record(canonical("singlet"), shots, 2718)
    ab = np.array([1.0, -1.0, -1.0, 1.0])
    for i in range(3):
        for j in range(3):
            t_hat = float(rec.counts[i, j] @ ab) / shots
            if i == j:
                assert t_hat == -1.0
            else:
                assert abs(t_hat) < 4.0 / np.sqrt(shots)


def test_estimate_on_exact_frequencies_singlet():
    est = estimate_g(exact_record(canonical("singlet"), 4))
    assert abs(est.g_hat - 3.0) < 1e-12
    assert np.max(np.abs(est.cov_hat - np.diag([-1.0, -1.0, -1.0]))) < 1e-12


def test_estimate_on_exact_frequencies_rho_u():
    rho = rho_u(0.25, 0.0)
    est = estimate_g(exact_record(rho, 8))
    assert abs(est.g_hat - g_from_covariances(correlation_data(rho))) < 1e-12
    assert abs(est.g_hat - 1.5) < 1e-12


def test_estimate_on_exact_frequencies_random_states():
    # fractional counts shots * p make the plug-in estimate reproduce the
    # exact covariance formula for any state
    for k in range(20):
        rho = ginibre(909, k, k % 4 + 1)
        est = estimate_g(exact_record(rho, 1))
        assert abs(est.g_hat - g_from_covariances(correlation_data(rho))) < 1e-9


def test_estimate_g_hat_is_sum_of_squared_covariances():
    rec = simulate_record(canonical("singlet"), 200, 5)
    est = estimate_g(rec)
    assert est.g_hat == float(np.sum(est.cov_hat**2))


def test_estimate_is_deterministic():
    rec = simulate_record(rho_u(0.3, 0.5), 2000, 13)
    a = estimate_g(rec)
    b = estimate_g(rec)
    assert a.g_hat == b.g_hat and a.stderr == b.stderr


def matvec_covariances(counts):
    """Each setting's covariance from three matrix-vector products of its counts."""
    ab = np.array([x * y for x, y in OUTCOMES], dtype=float)
    a = np.array([x for x, _ in OUTCOMES], dtype=float)
    b = np.array([y for _, y in OUTCOMES], dtype=float)
    n = counts.sum(axis=-1)
    return counts @ ab / n - (counts @ a / n) * (counts @ b / n)


def test_estimate_of_fractional_counts_sums_them_by_matvec():
    # exact-frequency (and JSON) records may carry fractional counts, which
    # one (4, 3) product would sum in another order and round differently
    for k in range(20):
        rec = exact_record(ginibre(606, k, k % 4 + 1), 7 + k, seed=k)
        cov = matvec_covariances(rec.counts)
        est = estimate_g(rec)
        assert np.array_equal(est.cov_hat, cov)
        assert est.g_hat == float(np.sum(cov**2))


def looped_bootstrap_stderr(rec):
    """The bootstrap as one multinomial call per replicate and setting, in r/i/j order."""
    freqs = rec.counts / rec.counts.sum(axis=2, keepdims=True)
    rng = rng_at(rec.seed, STREAM_BOOTSTRAP)
    replicates = np.empty(BOOTSTRAP_REPLICATES)
    boot_counts = np.empty((3, 3, 4))
    for r in range(BOOTSTRAP_REPLICATES):
        for i in range(3):
            for j in range(3):
                boot_counts[i, j] = rng.multinomial(rec.shots_per_setting, freqs[i, j])
        replicates[r] = np.sum(matvec_covariances(boot_counts) ** 2)
    return float(np.std(replicates, ddof=1))


def test_one_call_bootstrap_draws_the_looped_values():
    # one multinomial call of shape (replicates, 3, 3) consumes the stream in
    # the same r/i/j order as a call per replicate and setting, so stderr is
    # unchanged to the last bit
    states = [canonical("singlet"), rho_u(0.4)] + [ginibre(5, rank, rank) for rank in (1, 2, 3, 4)]
    records = [exact_record(ginibre(5, 9, 3), 6, seed=21)]
    for k, rho in enumerate(states):
        records += [simulate_record(rho, shots, 100 + k) for shots in (1, 7, 50, 799)]
    for rec in records:
        assert estimate_g(rec).stderr == looped_bootstrap_stderr(rec)


def test_estimator_bias_shrinks_for_zero_g_state():
    # the zero-G state exposes the pure plug-in bias, which decays like 1/N
    mm = canonical("maximally_mixed")

    def mean_ghat(shots, runs=50):
        total = 0.0
        for t in range(runs):
            seed = derive_seed(424242, STREAM_TRIAL, shots, t)
            total += estimate_g(simulate_record(mm, shots, seed)).g_hat
        return total / runs

    coarse = mean_ghat(1000)
    fine = mean_ghat(10000)
    assert 0.0 < fine < coarse
    assert coarse < 0.02  # ~9/N at N = 1e3, with Monte Carlo headroom


def test_shots_for_verdict_singlet_regression():
    assert shots_for_verdict(canonical("singlet"), 3.0, seed=2026) == 17


def test_shots_for_verdict_monotone_near_threshold():
    n_strong = shots_for_verdict(rho_u(0.4, 0.0), 3.0, seed=2026)
    n_weak = shots_for_verdict(rho_u(0.1, 0.0), 3.0, seed=2026)
    assert n_strong == 32
    assert n_weak == 799
    assert n_weak > n_strong > shots_for_verdict(canonical("singlet"), 3.0, seed=2026)


def test_shots_for_verdict_rejects_uncertifiable_states():
    with pytest.raises(ValueError):
        shots_for_verdict(canonical("maximally_mixed"), 3.0, seed=1)
    with pytest.raises(ValueError):
        shots_for_verdict(separable_mixture(7, 0, 3), 3.0, seed=1)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"trials": 0, "required": 0}, "trials"),  # an empty vote needs no trial
        ({"trials": 100, "required": 0}, "required"),
        ({"trials": 100, "required": 101}, "required"),  # a vote no run can win
        ({"confidence_sigma": float("nan")}, "confidence_sigma"),
        ({"confidence_sigma": float("inf")}, "confidence_sigma"),
        ({"confidence_sigma": -1.0}, "confidence_sigma"),
    ],
)
def test_shots_for_verdict_rejects_impossible_votes_at_once(kwargs, field):
    kwargs = {"confidence_sigma": 3.0, **kwargs}
    with pytest.raises(ValueError, match=f"^{field} must be "):
        shots_for_verdict(canonical("singlet"), seed=2026, **kwargs)


@pytest.mark.parametrize("sigma", [True, np.True_, "3", None])
def test_shots_for_verdict_rejects_non_real_sigma(sigma):
    with pytest.raises(ValueError, match="^confidence_sigma must be a real number, got "):
        shots_for_verdict(canonical("singlet"), sigma, seed=2026)


def test_unreachable_sigma_stops_each_vote_once_decided(monkeypatch):
    """A vote of 10 needing 8 is lost after its third miss, so the 23 grid
    points 1, 2, ..., 2**22 cost 3 estimates each, not 10."""
    calls = []

    def counted(rec):
        calls.append(rec.shots_per_setting)
        return estimate_g(rec)

    monkeypatch.setattr(sampler, "estimate_g", counted)
    with pytest.raises(RuntimeError, match="^no shot count up to 4194304 certifies"):
        shots_for_verdict(canonical("singlet"), 1e9, 1, trials=10, required=8)
    assert calls == [2**k for k in range(23) for _ in range(3)]


def test_search_derives_each_trials_setting_keys_once(monkeypatch):
    streams = []

    def counted(seed, stream, indices):
        streams.append(stream)
        return _keys(seed, stream, indices)

    monkeypatch.setattr(sampler, "_keys", counted)
    assert shots_for_verdict(canonical("singlet"), 3.0, 2026, trials=10, required=10) == 13
    assert streams.count(STREAM_SETTING) == 10


def test_record_json_round_trip():
    rec = simulate_record(canonical("singlet"), 250, 17)
    data = loads(dumps(record_to_dict(rec)))
    back = record_from_dict(data)
    assert back.shots_per_setting == rec.shots_per_setting
    assert back.seed == rec.seed
    assert np.array_equal(back.counts, rec.counts)
    assert set(data["counts"]) == {f"{i}{j}" for i in range(1, 4) for j in range(1, 4)}


def test_record_json_rejects_malformed():
    rec = record_to_dict(simulate_record(canonical("singlet"), 10, 1))
    bad = dict(rec)
    del bad["seed"]
    with pytest.raises(ValueError):
        record_from_dict(bad)
    bad = {"shots": 10, "seed": 1, "counts": {"11": [10, 0, 0, 0]}}
    with pytest.raises(ValueError):
        record_from_dict(bad)
    bad = dict(rec, counts=dict(rec["counts"], **{"23": [10, 0, 0]}))
    with pytest.raises(ValueError, match=r'^counts\["23"\] must have 4 entries$'):
        record_from_dict(bad)


@pytest.mark.parametrize(
    "field, value", [("shots", 10.5), ("shots", True), ("seed", 3.99), ("seed", True), ("seed", "3")]
)
def test_record_from_dict_rejects_non_integers(field, value):
    data = record_to_dict(simulate_record(canonical("singlet"), 10, 1))
    data[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        record_from_dict(data)


def test_record_from_dict_accepts_integral_floats():
    data = record_to_dict(simulate_record(canonical("singlet"), 10, 1))
    data.update(shots=10.0, seed=1.0)
    back = record_from_dict(data)
    assert type(back.shots_per_setting) is int and back.shots_per_setting == 10
    assert type(back.seed) is int and back.seed == 1


@pytest.mark.parametrize("value", [True, "1", None])
def test_record_from_dict_rejects_non_numeric_counts(value):
    data = record_to_dict(simulate_record(canonical("singlet"), 10, 1))
    data["counts"]["11"] = [value, 0, 0, 0]
    with pytest.raises(ValueError, match=r'^counts\["11"\] must hold only numbers'):
        record_from_dict(data)


@pytest.mark.parametrize(
    "shots, message",
    [
        (2.5, "got 2.5"),
        (True, "got True"),
        (5.0, "got 5.0"),
        (0, "got 0"),
        (2**53 + 1, "got 9007199254740993"),
        (2**60 + 12345, "got 1152921504606859321"),
    ],
)
def test_simulate_record_rejects_bad_shots(shots, message, monkeypatch):
    monkeypatch.setattr(sampler, "_simulate", None)  # the shots are checked before any draw
    expected = f"^shots must be an integer >= 1 and <= 9007199254740992, {message}$"
    with pytest.raises(ValueError, match=expected):
        simulate_record(rho_u(0.4), shots, 3)


def test_a_record_at_the_shot_bound_sums_exactly():
    assert MAX_RECORD_SHOTS == 2**53
    rec = simulate_record(rho_u(0.4), MAX_RECORD_SHOTS, 3)
    assert rec.shots_per_setting == MAX_RECORD_SHOTS
    assert np.all(rec.counts.sum(axis=2) == MAX_RECORD_SHOTS)
    assert estimate_g(rec).shots_per_setting == MAX_RECORD_SHOTS
    counts = np.tile([2.0**53, 2.0, 0.0, 0.0], (3, 3, 1))
    with pytest.raises(
        ValueError,
        match="^shots_per_setting must be an integer >= 1 and <= 9007199254740992, "
        "got 9007199254740994$",
    ):
        MeasurementRecord(shots_per_setting=2**53 + 2, counts=counts, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [("shots_per_setting", 2.5), ("shots_per_setting", True), ("seed", -1), ("seed", 1.0)],
)
def test_record_rejects_bad_shots_and_seed(field, value):
    fields = {"shots_per_setting": 1, "counts": np.tile([1.0, 0, 0, 0], (3, 3, 1)), "seed": 0}
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        MeasurementRecord(**fields)


def test_record_stores_numpy_integers_as_int():
    rec = MeasurementRecord(
        shots_per_setting=np.int64(1), counts=np.tile([1, 0, 0, 0], (3, 3, 1)), seed=np.uint32(3)
    )
    assert type(rec.shots_per_setting) is int and type(rec.seed) is int
    assert record_from_dict(loads(dumps(record_to_dict(rec)))).seed == 3


def test_record_validation():
    good = np.zeros((3, 3, 4))
    good[:, :, 0] = 5
    MeasurementRecord(shots_per_setting=5, counts=good, seed=0)
    with pytest.raises(ValueError):
        MeasurementRecord(shots_per_setting=6, counts=good, seed=0)
    bad = good.copy()
    bad[0, 0] = [6, -1, 0, 0]
    with pytest.raises(ValueError):
        MeasurementRecord(shots_per_setting=5, counts=bad, seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_record_rejects_non_finite_counts(value):
    counts = np.zeros((3, 3, 4))
    counts[:, :, 0] = 5
    counts[0, 0] = [value, 5, 0, 0]
    with pytest.raises(ValueError, match="^counts must be finite$"):
        MeasurementRecord(shots_per_setting=5, counts=counts, seed=0)
