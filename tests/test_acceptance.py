"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 4 sweeps the mixed-state band C^2 (2 + C^2) <= G <= 1 + 2 C^2 and
asserts it as far as it holds.  The upper edge is clean everywhere.  The lower
edge is a conjecture: it fails for some rank-2 and rank-3 states, so the test
pins the violation counts and the worst case of its seeded sweep instead of
asserting none.  A 50-digit mpmath recomputation of the counterexamples shows
that they are real and not floating-point artifacts.  The companion test 04s
checks restricted sweeps that are clean.  These sweeps and those of criteria
01, 02 and 07-10 generate and measure their states in stacks, through the
chunk loop and the kernels the CLI sweeps use, criterion 07's local
unitaries through the package's stack of them; only criterion 09's
pure-state invariants are formed one state at a time.
"""

import functools

import numpy as np
import pytest

from entcov.cli import bin_spreads
from entcov.concurrence import (
    _concurrence_from_spectrum,
    _concurrence_pure,
    concurrence_mixed,
    g_pure_from_invariants,
    pure_invariants,
)
from entcov.ensembles import (
    EnsembleSpec,
    _chunks,
    _complex,
    _ginibre_stack,
    _haar_amp_stack,
    _separable_stack,
    _stack,
    ginibre,
)
from entcov.gmeasure import (
    _g_from_moments,
    _g_hs,
    _l3_from_moments,
    concurrence_interval,
    g_hilbert_schmidt,
    l3,
    mixed_state_ceiling,
    pure_state_floor,
)
from entcov.linalg import PAULIS, SIGMA0, SIGMA1, partial_transpose, tensor
from entcov.observables import pauli_moments
from entcov.sampler import estimate_g, simulate_record
from entcov.states import (
    PureState,
    _projectors,
    _purity,
    _validated_spectrum,
    apply_local_unitary,
    canonical,
    rho_u,
)
from entcov._rng import STREAM_GINIBRE, STREAM_TRIAL, derive_seed, rng_at

from oracles import exact_record, g_of, unitary_stack


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}: {detail}")
    return ok


def _haar_chunks(seed, count):
    """(amplitudes, from_pure projectors) of haar_pure(seed, k) for k < count, chunk-wise."""
    for _, amps in _chunks(count, functools.partial(_haar_amp_stack, seed)):
        yield amps, _validated_spectrum(_projectors(amps))[0]


def test_criterion_01_pure_master_relation():
    worst = 0.0
    for amps, mats in _haar_chunks(20260801, 10_000):
        c, g = _concurrence_pure(amps), _g_of_stack(mats)
        worst = max(worst, float(np.max(np.abs(g - c * c * (2.0 + c * c)))))
    ok = worst <= 1e-9
    assert report(1, ok, f"pure-state relation G = C^2(2+C^2), max |dev| = {worst:.3e} (tol 1e-9)")


def test_criterion_02_form_equivalence():
    worst = 0.0
    # ginibre(20260802, k, k % 4 + 1) for k < 10^4, a chunk at a time
    for _, mats in _ginibre_stacks(20260802, 10_000, (1, 2, 3, 4)):
        mats = _validated_spectrum(mats)[0]
        worst = max(worst, float(np.max(np.abs(_g_of_stack(mats) - _g_hs(mats)))))
    ok = worst <= 1e-10
    assert report(2, ok, f"covariance vs Hilbert-Schmidt form, max |dev| = {worst:.3e} (tol 1e-10)")


def test_criterion_03_rho_u_family():
    worst_g = worst_c = 0.0
    for gamma in np.arange(0.0, 0.5001, 0.05):
        gamma = float(gamma)
        for theta in (0.0, 1.0, 2.5):
            rho = rho_u(gamma, theta)
            worst_g = max(worst_g, abs(g_of(rho) - (1.0 + 8.0 * gamma * gamma)))
            worst_c = max(worst_c, abs(concurrence_mixed(rho) - 2.0 * gamma))
    ok = worst_g <= 1e-10 and worst_c <= 1e-10
    assert report(
        3, ok, f"rho_u family: max |G-(1+8g^2)| = {worst_g:.3e}, max |C-2g| = {worst_c:.3e} (tol 1e-10)"
    )


def _band_violation(c, g):
    lo_gap = pure_state_floor(c) - g
    hi_gap = g - mixed_state_ceiling(c)
    return np.maximum(lo_gap, hi_gap)


def _ginibre_stacks(seed, count, ranks):
    """(indices, stack) of the Ginibre states of indices k < count cycling ranks, chunk-wise."""
    return _chunks(count, functools.partial(_ginibre_stack, seed, ranks=ranks))


def _separable_stacks(seed, count):
    """(indices, stack) of separable_mixture(seed, k, k % 8 + 1) for k < count, chunk-wise."""

    def stack(idx):
        out = np.empty((len(idx), 4, 4), dtype=complex)
        for terms in range(1, 9):
            group = idx % 8 + 1 == terms
            out[group] = _separable_stack(seed, idx[group], terms)
        return out

    return _chunks(count, stack)


def _g_of_stack(mats):
    """G of each matrix of a stack; partial transposes, which are not states, included."""
    return _g_from_moments(pauli_moments(mats))


def _c_and_g(mats):
    """(C, G) of each matrix of a stack, validated as DensityMatrix validates one state."""
    mats, w, v = _validated_spectrum(mats)
    return _concurrence_from_spectrum(mats, w, v), _g_of_stack(mats)


def _criterion_04_sweep():
    for rank in (2, 3, 4):
        yield rank, _ginibre_stacks(20260804 + rank, 30_000, (rank,))
    yield "separable", _separable_stacks(20260808, 15_000)


def test_criterion_04_mixed_state_band_as_stated():
    # >= 1e5 mixed states of ranks 2-4 plus separable mixtures, band checked at
    # 1e-9.  The upper edge has no violations.  The lower edge is violated by
    # 186 rank-2 and 2 rank-3 states of this sweep (counterexamples recomputed
    # at 50 digits below).  Violating gaps are >= 2.3e-4, and the other
    # Ginibre gaps are <= -9.3e-5 (separable states have C = 0, so gap = -G
    # <= 0), so the counts cannot move with last-ulp changes.
    total = upper = 0
    lower = {2: 0, 3: 0, 4: 0, "separable": 0}
    worst, worst_case = 0.0, None
    for kind, stacks in _criterion_04_sweep():
        for idx, mats in stacks:
            c, g = _c_and_g(mats)
            total += len(idx)
            upper += int(np.count_nonzero(g - mixed_state_ceiling(c) > 1e-9))
            gap = pure_state_floor(c) - g
            lower[kind] += int(np.count_nonzero(gap > 1e-9))
            k = int(np.argmax(gap))  # the first largest gap, as a state-by-state scan finds it
            if gap[k] > 1e-9 and gap[k] > worst:
                worst, worst_case = float(gap[k]), (kind, int(idx[k]))
    ok = (
        total == 105_000
        and upper == 0
        and lower == {2: 186, 3: 2, 4: 0, "separable": 0}
        and worst_case == (2, 21849)
        and abs(worst - 0.04765) <= 1e-5
    )
    assert report(
        4,
        ok,
        f"band sweep over {total} states (ranks 2-4 + separable): upper edge "
        f"{upper} violations; lower edge violations by rank 2/3/4/separable = "
        f"{lower[2]}/{lower[3]}/{lower[4]}/{lower['separable']}, worst gap "
        f"{worst:.5f} at {worst_case} (expected 0; 186/2/0/0, worst 0.04765 at "
        "(2, 21849)): the lower edge G >= C^2(2+C^2) is conjectural and fails for "
        "some rank-2 and rank-3 states",
    )


def _mp_ginibre_c_g(seed, index, rank, mp):
    """C and G of ginibre(seed, index, rank) at the working precision of ``mp``.

    The state is rebuilt from its float64 factor X as rho = X X^dag / Tr, which
    is exactly PSD and of exact rank.  C is Wootters' (PRL 80, 2245 (1998)):
    l1 - l2 - ... with l_k the singular values of tau = V^T (sigma2 x sigma2) V,
    V = X / sqrt(Tr X X^dag), the rank x rank matrix of his proof.  G is the
    sum of the nine squared covariances.  The Pauli products have entries
    0, +-1, +-i, so they convert to mpmath exactly.
    """
    x = _complex(*rng_at(seed, STREAM_GINIBRE, index).standard_normal((2, 4, rank)))
    m = x @ x.conj().T
    assert np.array_equal(m / np.real(np.trace(m)), ginibre(seed, index, rank).mat)

    def pauli_product(p, q):
        return mp.matrix(np.kron(PAULIS[p], PAULIS[q]).tolist())

    v = mp.matrix([[mp.mpc(float(z.real), float(z.imag)) for z in row] for row in x])
    norm = mp.re(sum((v * v.H)[i, i] for i in range(4)))
    rho = v * v.H / norm
    tau = v.T * pauli_product(2, 2) * v / norm
    lam = sorted(mp.svd_c(tau, compute_uv=False), reverse=True)
    c = max(mp.mpf(0), lam[0] - mp.fsum(lam[1:]))

    def moment(p, q):
        t = rho * pauli_product(p, q)
        return mp.re(mp.fsum(t[i, i] for i in range(4)))

    g = mp.fsum(
        (moment(i, j) - moment(i, 0) * moment(0, j)) ** 2 for i in (1, 2, 3) for j in (1, 2, 3)
    )
    return c, g


def test_criterion_04_counterexamples_at_50_digits():
    # The lower-edge counterexamples are real: the two worst rank-2 / rank-3
    # cases of criterion 04 and the README witness, recomputed at 50 digits,
    # fall below the pure-state curve, and entcov's float64 C and both G forms
    # agree with the 50-digit values to 1e-10.
    mpmath = pytest.importorskip("mpmath")
    cases = [
        # seed, index, rank, quoted C, G and curve C^2(2+C^2), half a unit of
        # the quotes' last digit
        (20260806, 21849, 2, 0.458530229395, 0.417051233233, 0.464704992957, 5e-13),
        (20260807, 28338, 3, 0.154340000664, 0.0470785063444, 0.0482091038283, 5e-13),
        (79, 216, 2, 0.402458, 0.317047, 0.350180, 5e-7),
    ]
    worst_dev = 0.0
    ok = True
    with mpmath.workdps(50):
        for seed, index, rank, c_quoted, g_quoted, curve_quoted, tol in cases:
            c, g = _mp_ginibre_c_g(seed, index, rank, mpmath.mp)
            curve = c * c * (2 + c * c)
            ok = ok and curve > g
            ok = ok and max(abs(c - c_quoted), abs(g - g_quoted), abs(curve - curve_quoted)) <= tol
            rho = ginibre(seed, index, rank)
            for value, exact in (
                (concurrence_mixed(rho), c),
                (g_of(rho), g),
                (g_hilbert_schmidt(rho), g),
            ):
                worst_dev = max(worst_dev, float(abs(value - exact)))
    ok = ok and worst_dev <= 1e-10
    assert report(
        4,
        ok,
        f"(high precision) lower-edge counterexamples (2, 21849), (3, 28338) and the "
        f"README witness ginibre(79, 216, 2) fall below C^2(2+C^2) at 50 digits; "
        f"entcov's C and G match to {worst_dev:.1e} (tol 1e-10)",
    )


def test_criterion_04s_band_where_it_holds():
    # Supplementary: at these seeds the full band is clean over ranks 1, 3 and
    # 4 and separable mixtures, and the upper edge alone is clean over rank 2.
    # Excluding rank 2 does not clean every sweep: criterion 04's rank-3 seed
    # has two lower-edge violations.
    violations = 0
    total = 0
    sweeps = [_ginibre_stacks(20260814 + rank, 30_000, (rank,)) for rank in (1, 3, 4)]
    for stacks in sweeps + [_separable_stacks(20260818, 15_000)]:
        for idx, mats in stacks:
            c, g = _c_and_g(mats)
            total += len(idx)
            violations += int(np.count_nonzero(_band_violation(c, g) > 1e-9))
    upper_violations = 0
    for _, mats in _ginibre_stacks(20260819, 30_000, (2,)):
        c, g = _c_and_g(mats)
        upper_violations += int(np.count_nonzero(g > mixed_state_ceiling(c) + 1e-9))
    ok = violations == 0 and upper_violations == 0
    assert report(
        4,
        ok,
        f"(supplementary) band clean over {total} rank-1/3/4 + separable states; "
        f"upper edge clean over 30000 rank-2 states",
    )


def test_criterion_05_interval_example():
    c_min, c_max = concurrence_interval(2.5)
    ok = (
        abs(c_min - 0.86603) <= 5e-5
        and abs(c_max - 0.93315) <= 5e-5
        and round(c_min, 2) == 0.87
        and round(c_max, 2) == 0.93
    )
    assert report(
        5, ok, f"interval at G=2.5: ({c_min:.5f}, {c_max:.5f}) vs (0.86603, 0.93315) tol 5e-5"
    )


def test_criterion_06_lur_behaviour():
    singlet = canonical("singlet")
    flipped = apply_local_unitary(singlet, SIGMA1, SIGMA0)
    l3_singlet = l3(singlet)
    l3_flipped = l3(flipped)
    floor_ok = True
    min_l3 = np.inf
    for _, mats in _separable_stacks(20260806, 10_000):
        # Per state: numpy's stacked square moves the last bit of a few L3 values.
        for t in pauli_moments(_validated_spectrum(mats)[0]):
            value = _l3_from_moments(t)
            min_l3 = min(min_l3, value)
            if value < 4.0 - 1e-9:
                floor_ok = False
    ok = l3_singlet <= 1e-9 and abs(l3_flipped - 8.0) <= 1e-9 and floor_ok
    assert report(
        6,
        ok,
        f"L3(singlet) = {l3_singlet:.2e}, L3(flipped) = {l3_flipped:.12f}, "
        f"min L3 over 1e4 separable mixtures = {min_l3:.6f} (floor 4)",
    )


def _criterion_07_states(idx):
    """from_pure(haar_pure(20260807, k)) where 5 divides k, else Ginibre, ranks cycling 1-4."""
    pure = idx % 5 == 0
    out = np.empty((len(idx), 4, 4), dtype=complex)
    out[pure] = _projectors(_haar_amp_stack(20260807, idx[pure]))
    out[~pure] = _ginibre_stack(20260807, idx[~pure], (1, 2, 3, 4))
    return out


def test_criterion_07_invariance_suite():
    worst_g = worst_c = 0.0
    for idx, mats in _chunks(10_000, _criterion_07_states):
        u = tensor(*unitary_stack(20260817, idx).swapaxes(0, 1))  # kron(u_a, u_b) of each k
        c, g = _c_and_g(mats)
        c_rotated, g_rotated = _c_and_g(u @ mats @ u.conj().transpose(0, 2, 1))
        worst_g = max(worst_g, float(np.max(np.abs(g_rotated - g))))
        worst_c = max(worst_c, float(np.max(np.abs(c_rotated - c))))
    worst_pt = 0.0
    for _, mats in _ginibre_stacks(20260827, 10_000, (1, 2, 3, 4)):
        g_pt = _g_of_stack(partial_transpose(mats, "B"))
        g = _g_of_stack(_validated_spectrum(mats)[0])
        worst_pt = max(worst_pt, float(np.max(np.abs(g_pt - g))))
    # the LUR witness pair: detection flips across the threshold, G does not move
    singlet = canonical("singlet")
    flipped = apply_local_unitary(singlet, SIGMA1, SIGMA0)
    witness_ok = l3(singlet) < 4.0 <= l3(flipped) and abs(g_of(singlet) - g_of(flipped)) <= 1e-9
    ok = worst_g <= 1e-9 and worst_c <= 1e-9 and worst_pt <= 1e-9 and witness_ok
    assert report(
        7,
        ok,
        f"local-unitary invariance: max |dG| = {worst_g:.3e}, max |dC| = {worst_c:.3e}; "
        f"partial-transpose invariance: max |dG| = {worst_pt:.3e}; L3 witness crosses 4",
    )


def test_criterion_08_detection_threshold():
    max_sep_g = 0.0
    for _, mats in _separable_stacks(20260828, 10_000):
        max_sep_g = max(max_sep_g, float(np.max(_g_of_stack(_validated_spectrum(mats)[0]))))
    implication_ok = True
    certified = 0
    for _, mats in _ginibre_stacks(20260838, 10_000, (2, 3, 4)):
        c, g = _c_and_g(mats)
        hits = g > 1.0 + 1e-9
        certified += int(np.count_nonzero(hits))
        implication_ok = implication_ok and bool(np.all(c[hits] > 0.0))
    ok = max_sep_g <= 1.0 + 1e-9 and implication_ok
    assert report(
        8,
        ok,
        f"max G over 1e4 separable mixtures = {max_sep_g:.9f} (cap 1); "
        f"all {certified} certified states (G > 1) have C > 0",
    )


def test_criterion_09_pure_invariant_algebra():
    worst_alpha = worst_beta = worst_c2 = worst_g = 0.0
    for amps, mats in _haar_chunks(20260809, 10_000):
        cs, gs = _concurrence_pure(amps), _g_of_stack(mats)
        # pure_invariants stays per state: its complex einsum and scalar abs
        # have not been shown to give the same bits on stacks.
        for a, c, g in zip(amps, cs, gs):
            inv = pure_invariants(PureState(a))
            worst_alpha = max(worst_alpha, abs(inv.i_alpha - 1.0))
            worst_beta = max(worst_beta, abs(inv.i_beta - (inv.i1**2 - inv.i2) / 2.0))
            worst_c2 = max(worst_c2, abs(4.0 * inv.i_beta - c**2))
            worst_g = max(worst_g, abs(g_pure_from_invariants(inv) - g))
    ok = worst_alpha <= 1e-10 and worst_beta <= 1e-12 and worst_c2 <= 1e-10 and worst_g <= 1e-10
    assert report(
        9,
        ok,
        f"pure invariants: |i_alpha-1| <= {worst_alpha:.2e}, "
        f"|i_beta-(i1^2-i2)/2| <= {worst_beta:.2e}, |4 i_beta - C^2| <= {worst_c2:.2e}, "
        f"|G(invariants) - G(cov)| <= {worst_g:.2e}",
    )


def test_criterion_10_area_not_a_line():
    spec = EnsembleSpec("fixed_purity", 5000, 20260810, purity_target=0.46, purity_window=0.005)
    cs, gs = [], []
    for _, mats in _chunks(spec.count, functools.partial(_stack, spec)):
        c, g = _c_and_g(mats)
        cs.append(c)
        gs.append(g)
    mixed_max = max(s for *_, s in bin_spreads(np.concatenate(cs), np.concatenate(gs)))

    cs, gs = [], []
    for amps, mats in _haar_chunks(20260820, 5000):
        assert np.all(np.abs(_purity(mats) - 1.0) <= 1e-6)
        cs.append(_concurrence_pure(amps))
        gs.append(_g_of_stack(mats))
    pure_max = max(s for *_, s in bin_spreads(np.concatenate(cs), np.concatenate(gs)))

    ok = mixed_max > 0.05 and pure_max <= 1e-6
    assert report(
        10,
        ok,
        f"G-spread above the pure curve per 0.05-wide C bin: purity 0.46 slice max = "
        f"{mixed_max:.3f} (> 0.05: area), pure slice max = {pure_max:.2e} (<= 1e-6: line)",
    )


def test_criterion_11_estimator_consistency():
    worst_exact = 0.0
    states = [canonical("singlet"), canonical("maximally_mixed"), rho_u(0.3, 0.9)]
    states += [ginibre(20260811, k, k % 4 + 1) for k in range(20)]
    for rho in states:
        est = estimate_g(exact_record(rho, 1))
        worst_exact = max(worst_exact, abs(est.g_hat - g_of(rho)))

    singlet = canonical("singlet")

    def mean_ghat(shots, runs=100):
        values = np.empty(runs)
        for t in range(runs):
            seed = derive_seed(424242, STREAM_TRIAL, shots, t)
            values[t] = estimate_g(simulate_record(singlet, shots, seed)).g_hat
        return values.mean(), values.std(ddof=1) / np.sqrt(runs)

    mean_hi, se_hi = mean_ghat(100_000)
    mean_lo, _ = mean_ghat(1_000)
    bias_hi = abs(mean_hi - 3.0)
    bias_lo = abs(mean_lo - 3.0)
    ok = worst_exact <= 1e-9 and bias_hi <= 3.0 * se_hi and bias_lo > bias_hi
    assert report(
        11,
        ok,
        f"exact-frequency records reproduce G to {worst_exact:.2e}; singlet at 1e5 shots: "
        f"|mean-3| = {bias_hi:.2e} <= 3 se = {3*se_hi:.2e}; bias decays "
        f"{bias_lo:.2e} (1e3 shots) -> {bias_hi:.2e} (1e5 shots)",
    )
