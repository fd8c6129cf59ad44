"""The stacked (N, 4, 4) kernels against the per-state code they replaced.

The reference functions below are the scalar implementations as they stood
before the kernels took stacks; every kernel must reproduce them bit for
bit (``np.array_equal``) on every matrix of a stack, whatever the stack's
size and mix of states, and so must the public scalar functions, which
are now the kernels' one-matrix case.
"""

import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entcov
from entcov import cli, gmeasure, linalg, observables, sampler
from entcov.concurrence import (
    _concurrence_from_spectrum,
    _concurrence_pure,
    concurrence_mixed,
    concurrence_pure,
    g_pure_from_invariants,
    pure_invariants,
)
from entcov.ensembles import (
    EnsembleSpec,
    _ginibre_stack,
    _haar_amp_stack,
    _stack,
    ginibre,
    haar_pure,
    separable_mixture,
)
from entcov.gmeasure import (
    CERT_MARGIN,
    _clamp_g,
    _g_from_moments,
    _g_hs,
    analyze,
    bounds_violated,
    g_from_covariances,
    g_hilbert_schmidt,
    l3,
    mixed_state_ceiling,
    pure_state_floor,
)
from entcov.jsonio import format_float
from entcov.linalg import (
    MATRIX_TOL,
    PAULIS,
    SIGMA2,
    _blas_kernel,
    _trace,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    sqrt_psd,
    tensor,
)
from entcov.observables import (
    PAIR_OBS,
    CorrelationData,
    correlation_data,
    covariance,
    expectation,
    pauli_moments,
    variance,
)
from entcov.sampler import outcome_probabilities, shots_for_verdict
from entcov.states import (
    DensityMatrix,
    PureState,
    _purity,
    _validated_spectrum,
    canonical,
    density_matrix_to_dict,
    from_pure,
    purity,
    rho_u,
)

from oracles import complex_normals, cpu_flags

YY = np.kron(SIGMA2, SIGMA2)
NAMED = ("singlet", "phi_plus", "phi_minus", "psi_plus", "product00", "maximally_mixed",
         "classically_correlated")


def ref_validate(m) -> None:
    """The DensityMatrix checks, one matrix at a time."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > MATRIX_TOL:
        raise ValueError(f"not Hermitian: defect {defect:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > MATRIX_TOL:
        raise ValueError(f"trace must be 1, got {tr.real:.12g}{tr.imag:+.3e}j")
    wmin = float(np.linalg.eigh(m / 2 + m.conj().T / 2)[0][0])
    if wmin < -MATRIX_TOL:
        raise ValueError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")


def ref_purity(m) -> float:
    return min(max(float(np.real(np.trace(m @ m))), 0.25), 1.0)


def ref_moments(m) -> np.ndarray:
    return np.real(np.einsum("mnij,ji->mn", PAIR_OBS, m))


def ref_g(m) -> float:
    t = ref_moments(m)
    cov = t[1:, 1:] - np.outer(t[1:, 0], t[0, 1:])
    return min(max(float(np.sum(cov**2)), 0.0), 3.0)


def ref_eigh(m):
    w, v = np.linalg.eigh(m / 2 + m.conj().T / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def ref_concurrence(m) -> float:
    rho_tilde = YY @ m.conj() @ YY
    w, v = ref_eigh(m)
    w = np.maximum(w, 0.0)
    w[w < 1e-13 * w[0]] = 0.0
    s = (v * np.sqrt(w)) @ v.conj().T
    w, _ = ref_eigh(s @ rho_tilde @ s)
    w = np.maximum(w, 0.0)
    w[w < 1e-12] = 0.0
    lam = np.sqrt(w)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


seeds, indices = st.integers(0, 2**32 - 1), st.integers(0, 10**6)
one_state = st.one_of(
    st.builds(lambda s, i, r: ginibre(s, i, r).mat, seeds, indices, st.integers(1, 4)),
    st.builds(lambda s, i: from_pure(haar_pure(s, i)).mat, seeds, indices),
    st.builds(lambda s, i, n: separable_mixture(s, i, n).mat, seeds, indices, st.integers(1, 6)),
    st.builds(lambda name: canonical(name).mat, st.sampled_from(NAMED)),
    st.builds(lambda g: rho_u(g, 0.0).mat, st.floats(0.0, 0.5)),
)
stacks = st.lists(one_state, min_size=1, max_size=64).map(np.stack)
few = settings(max_examples=40, deadline=None, database=None)


@few
@given(stacks)
@example(np.stack([rho_u(2.2250738585e-313, 0.0).mat]))  # a subnormal gamma
def test_stack_kernels_equal_the_scalar_reference(mats):
    valid, w, v = _validated_spectrum(mats)
    assert np.array_equal(valid, mats)
    p, t, c = _purity(mats), pauli_moments(mats), _concurrence_from_spectrum(valid, w, v)
    g = _g_from_moments(t)
    for k, m in enumerate(mats):
        ref_validate(m)
        rho = DensityMatrix(m)
        assert np.array_equal(rho.mat, m)
        assert np.array_equal(p[k], ref_purity(m)) and purity(rho) == p[k]
        assert np.array_equal(t[k], ref_moments(m))
        assert np.array_equal(pauli_moments(m), t[k])
        assert np.array_equal(g[k], ref_g(m))
        assert g_from_covariances(correlation_data(rho)) == g[k]
        assert same_bits(c[k], ref_concurrence(m)) and same_bits(concurrence_mixed(rho), c[k])


# Every generator, one seeded sweep each, and the named states.
ORACLE_SPECS = [
    EnsembleSpec("haar_pure", 10**4, 2026),
    *(EnsembleSpec("ginibre", 10**4 // 4, 2026 + rank, rank=rank) for rank in (1, 2, 3, 4)),
    EnsembleSpec("fixed_purity", 10**4, 2026, purity_target=0.46, purity_window=0.005),
    EnsembleSpec("separable_mixture", 10**4, 2026, mixture_terms=3),
    EnsembleSpec("rho_u_sweep", 10**4, 2026),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.kind + f"-{s.rank}" * bool(s.rank))
def test_the_concurrence_kernel_is_the_spin_flip_product_bit_for_bit(spec):
    # ref_concurrence flips spins by the matrix products YY @ m* @ YY; the
    # kernel by reversing m* and signing its entries.  Every bit must agree,
    # the sign of a zero concurrence included.
    mats = _stack(spec, np.arange(spec.count))
    c = _concurrence_from_spectrum(*_validated_spectrum(mats))
    assert same_bits(c, [ref_concurrence(m) for m in mats])
    named = np.stack([canonical(name).mat for name in NAMED])
    c = _concurrence_from_spectrum(*_validated_spectrum(named))
    assert same_bits(c, [ref_concurrence(m) for m in named])


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.kind + f"-{s.rank}" * bool(s.rank))
def test_the_concurrence_from_the_validated_spectrum_is_concurrence_mixed_bit_for_bit(spec):
    # The sweep's concurrence reuses its validation's eigendecomposition
    # instead of sqrt_psd's; every bit must agree with the checked kernels'
    # value and with the one-state call.
    spec = dataclasses.replace(spec, count=512)
    m, w, v = _validated_spectrum(_stack(spec, np.arange(spec.count)))
    c = _concurrence_from_spectrum(m, w, v)
    assert same_bits(c, checked_concurrence(m))
    assert same_bits(c, [concurrence_mixed(DensityMatrix(x)) for x in m])


def checked_concurrence(mats):
    """The concurrence of a stack through the checked kernels sqrt_psd and eig_hermitian."""
    flipped = YY @ mats.conj() @ YY
    s = sqrt_psd(mats)
    w = np.maximum(eig_hermitian(s @ flipped @ s)[0], 0.0)
    w[w < 1e-12] = 0.0
    lam = np.sqrt(w)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def corrupt(m: np.ndarray, how: str) -> np.ndarray:
    m = m.copy()
    if how == "nan":
        m[0, 1] = np.nan
    elif how == "inf":
        m[2, 2] = np.inf
    elif how == "hermitian":
        m[0, 1] += 1e-6
    elif how == "trace":
        m *= 1.01
    else:  # Hermitian and unit trace, but the (1, 1) entry is at most -1
        m += np.diag([2.0, -2.0, 0.0, 0.0])
    return m


def message(fn, m) -> str:
    with pytest.raises(ValueError) as info:
        fn(m)
    return str(info.value)


BAD = ("nan", "inf", "hermitian", "trace", "psd")


def bad_stacks(mats, data):
    """(k, how, single, several): mats with matrix k corrupted, and a copy that may also
    corrupt a later matrix, which the validation must not report first."""
    n = len(mats)
    k = data.draw(st.integers(0, n - 1), label="bad index")
    how = data.draw(st.sampled_from(BAD), label="corruption")
    single = mats.copy()
    single[k] = corrupt(mats[k], how)
    several = single.copy()
    if k < n - 1 and data.draw(st.booleans(), label="second bad matrix"):
        later = data.draw(st.integers(k + 1, n - 1), label="later index")
        several[later] = corrupt(mats[later], data.draw(st.sampled_from(BAD), label="later how"))
    return k, how, single, several


@few
@given(stacks, st.data())
def test_a_bad_matrix_raises_its_own_scalar_message(mats, data):
    k, how, single, several = bad_stacks(mats, data)
    assert message(DensityMatrix, single[k]) == message(ref_validate, single[k])
    # the linear-algebra kernels run each check over the whole stack in turn
    kernels = {"hermitian": (pauli_moments, eig_hermitian, sqrt_psd), "psd": (sqrt_psd,)}
    for kernel in kernels.get(how, ()):
        scalar = message(kernel, single[k])
        with pytest.raises(ValueError, match=f"^{re.escape(scalar)}$"):
            kernel(single)


@few
@given(stacks, st.data())
def test_the_sweep_route_refuses_a_bad_matrix_with_its_scalar_message(mats, data):
    # The sweeps validate on the eigendecomposition their concurrence reuses;
    # every refusal is DensityMatrix's, with its message, and reports the
    # first failing matrix across all the checks.
    k, _, single, several = bad_stacks(mats, data)
    expected = message(DensityMatrix, single[k])
    for bad in (single, several):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            _validated_spectrum(bad)
    m, w, v = _validated_spectrum(mats)
    assert same_bits(m, mats)
    w_ref, v_ref = eig_hermitian(mats)
    assert same_bits(w, w_ref) and same_bits(v, v_ref)


def near_edge(rng, delta: float, rank: int) -> np.ndarray:
    """A trace-1 Hermitian matrix of the given rank, min eigenvalue -MATRIX_TOL * (1 + delta)."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w = np.zeros(4)
    w[0] = -MATRIX_TOL * (1 + delta)
    w[1:rank] = rng.random(rank - 1)
    w[1:rank] *= (1 - w[0]) / w[1:rank].sum()
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


def at_edge(rng, wmin: float, pos: int) -> np.ndarray:
    """A trace-1 Hermitian matrix whose eigh spectrum has exactly wmin as its least eigenvalue.

    wmin sits on the diagonal at pos (0 or 3), decoupled from a 3x3 PSD
    block: the tridiagonal reduction leaves it alone, so eigh returns it
    unrounded and the rule's >= is decided at its boundary.
    """
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = z @ z.conj().T
    b *= (1 - wmin) / np.trace(b).real
    rest = [i for i in range(4) if i != pos]
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_(rest, rest)] = (b + b.conj().T) / 2
    m[pos, pos] = wmin
    return m


def outcome(fn, m) -> str:
    try:
        fn(m)
    except (ValueError, np.linalg.LinAlgError) as e:
        return f"{type(e).__name__}: {e}"
    return "accepted"


def overflowing() -> tuple[np.ndarray, ...]:
    """Hermitian, unit trace and finite, with entries near 1e308, where m + m^dagger would
    overflow."""
    big = np.diag([0.25] * 4).astype(complex)
    big[0, 1] = big[1, 0] = 1e308
    imaginary = np.diag([0.25] * 4).astype(complex)
    imaginary[3, 2], imaginary[2, 3] = 1e308j, -1e308j
    split = np.diag([1.5e308, -1.5e308, 1.0, 0.0]).astype(complex)
    return big, imaginary, split


OVERFLOWING = overflowing()


def edge_family():
    """The near-edge, at-edge and overflowing matrices, each group as a list, and their stack.

    wmins are the least eigenvalues of the at-edge matrices: exactly at the
    edge, one ulp inside it and one ulp past it.
    """
    rng = np.random.default_rng(20261020)
    deltas = [sign * d for d in (1e-2, 1e-4, 1e-6, 1e-8) for sign in (1, -1)]
    wmins = [-MATRIX_TOL, np.nextafter(-MATRIX_TOL, 0.0), np.nextafter(-MATRIX_TOL, -1.0)] * 4
    edge = [at_edge(rng, wmin, pos) for wmin in wmins for pos in (0, 3)]
    near = [near_edge(rng, d, rank) for _ in range(4) for d in deltas for rank in (2, 3, 4)]
    return wmins, near, edge, np.stack(near + edge + list(OVERFLOWING))


def test_the_psd_decision_at_the_tolerance_edge_is_the_eigh_rule():
    wmins, near, edge, mats = edge_family()
    expected = [outcome(ref_validate, m) for m in mats]
    assert [w == "accepted" for w in expected[len(near):len(near) + len(edge)]] == [
        wmin >= -MATRIX_TOL for wmin in wmins for _ in (0, 3)]
    assert 0 < expected[:len(near)].count("accepted") < len(near)  # both sides are reached
    for m, want in zip(mats, expected):
        assert outcome(_validated_spectrum, m[None]) == want
        assert outcome(DensityMatrix, m) == want
    first_bad = next(w for w in expected if w != "accepted")
    assert outcome(_validated_spectrum, mats) == first_bad
    kept = [k for k, w in enumerate(expected) if w == "accepted"]
    m, w, v = _validated_spectrum(mats[kept])
    assert same_bits(m, mats[kept])


def test_the_sweep_route_decides_the_tolerance_edge_as_density_matrix_does():
    _, _, _, mats = edge_family()
    expected = [outcome(DensityMatrix, m) for m in mats]
    for m, want in zip(mats, expected):
        assert outcome(_validated_spectrum, m[None]) == want
    kept = [k for k, w in enumerate(expected) if w == "accepted"]
    m, w, v = _validated_spectrum(mats[kept])
    # every accepted edge state keeps concurrence_mixed's bits
    c = _concurrence_from_spectrum(m, w, v)
    assert same_bits(c, [concurrence_mixed(DensityMatrix(x)) for x in mats[kept]])


def test_an_overflowing_hermitian_part_goes_to_the_eigh_rule():
    for m, wmin in zip(OVERFLOWING, ("-1.000e+308", "-1.000e+308", "-1.500e+308")):
        expected = f"ValueError: not positive semidefinite: min eigenvalue {wmin}"
        assert outcome(_validated_spectrum, m[None]) == outcome(ref_validate, m) == expected
        with pytest.raises(ValueError, match=re.escape(expected.removeprefix("ValueError: "))):
            DensityMatrix(m)


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def same_bits(a, b) -> bool:
    """Equal in every bit of the real and imaginary parts, so that +0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    a_re, a_im, b_re, b_im = (
        np.ascontiguousarray(part).view(np.uint64) for part in (a.real, a.imag, b.real, b.imag)
    )
    return np.array_equal(a_re, b_re) and np.array_equal(a_im, b_im)


def assert_numpys_trace(m):
    """_trace equals numpy's trace of a complex stack, and its real part on the real parts.

    numpy sums a real trace in another order, so the reference of a real
    matrix is the real part of numpy's trace of it as a complex matrix, the
    value that _trace(m.real) replaced in _induced and _purity.
    """
    m = np.asarray(m)
    expected = np.trace(m.astype(complex), axis1=-2, axis2=-1)
    if np.iscomplexobj(m):
        assert same_bits(_trace(m), expected)
    assert same_bits(_trace(m.real), expected.real)


def test_the_trace_kernel_is_numpys_complex_trace_bit_for_bit():
    rng = np.random.default_rng(20261019)
    assert_numpys_trace(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert_numpys_trace(rng.standard_normal((4, 4)))
    assert_numpys_trace(_ginibre_stack(20261019, np.arange(128), (1, 2, 3, 4)))
    for rank in (1, 2, 3, 4):
        z = rng.standard_normal((64, 4, rank)) + 1j * rng.standard_normal((64, 4, rank))
        assert_numpys_trace(z @ z.conj().swapaxes(-1, -2))
    assert_numpys_trace(np.empty((0, 4, 4), dtype=complex))
    assert _trace(np.empty((0, 4, 4), dtype=complex)).shape == (0,)


def test_the_trace_kernel_right_after_a_complex_product():
    rng = np.random.default_rng(20261020)
    z = rng.standard_normal((16, 32, 4, 4)) + 1j * rng.standard_normal((16, 32, 4, 4))
    m = z @ z.conj().swapaxes(-1, -2)
    assert same_bits(_trace(m), np.trace(m, axis1=-2, axis2=-1))
    m = z @ z
    assert same_bits(_trace(m.real), np.trace(m, axis1=-2, axis2=-1).real)


def test_the_trace_kernel_keeps_the_sign_of_zero():
    zeros = []
    for re_signs, im_signs in itertools.product(itertools.product((0.0, -0.0), repeat=4), repeat=2):
        m = np.ones((4, 4), dtype=complex)
        m.real[np.diag_indices(4)] = re_signs
        m.imag[np.diag_indices(4)] = im_signs
        zeros.append(m)
    mats = np.stack(zeros)
    assert_numpys_trace(mats)
    for m in mats:
        assert_numpys_trace(m)
    assert same_bits(_trace(mats[-1]), 0j)  # numpy's sum of -0.0s is +0.0


def ref_partial_trace(m, keep: str) -> np.ndarray:
    r = m.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r) if keep == "A" else np.einsum("ikil->kl", r)


def ref_partial_transpose(m, sub: str) -> np.ndarray:
    r = m.reshape(2, 2, 2, 2)
    return (r.transpose(2, 1, 0, 3) if sub == "A" else r.transpose(0, 3, 2, 1)).reshape(4, 4)


def ref_g_hs(m) -> float:
    d = m - np.kron(ref_partial_trace(m, "A"), ref_partial_trace(m, "B"))
    return float(_clamp_g(4.0 * float(_trace((d @ d).real))))


def ref_concurrence_pure(a) -> float:
    return 2.0 * abs(a[0] * a[3] - a[1] * a[2])


def assert_stack_is_per_matrix(stack, per_matrix, batch_ndim=1):
    """stack equals np.stack of per_matrix over every index of its leading batch_ndim axes."""
    for k in np.ndindex(stack.shape[:batch_ndim]):
        assert same_bits(stack[k], per_matrix(k)), k


@pytest.mark.parametrize("shape", [(500,), (3, 7), (0,), (1,)])
def test_the_partial_operations_on_a_stack_are_the_one_matrix_calls(shape):
    rng = np.random.default_rng(20261021)
    mats = complex_normals(rng, (*shape, 4, 4))
    for sub in ("A", "B"):
        for op, ref, n in ((partial_trace, ref_partial_trace, 2),
                           (partial_transpose, ref_partial_transpose, 4)):
            out = op(mats, sub)
            assert out.shape == (*shape, n, n)
            assert_stack_is_per_matrix(out, lambda k: op(mats[k], sub), len(shape))
            assert_stack_is_per_matrix(out, lambda k: ref(mats[k], sub), len(shape))
    a, b = complex_normals(rng, (*shape, 2, 2)), complex_normals(rng, (*shape, 2, 2))
    out = tensor(a, b)
    assert out.shape == (*shape, 4, 4)
    assert_stack_is_per_matrix(out, lambda k: tensor(a[k], b[k]), len(shape))
    assert_stack_is_per_matrix(out, lambda k: np.kron(a[k], b[k]), len(shape))


def test_tensor_of_the_pauli_pairs_is_the_kronecker_product():
    pairs = list(itertools.product(range(4), repeat=2))
    a = np.stack([PAULIS[i] for i, _ in pairs])
    b = np.stack([PAULIS[j] for _, j in pairs])
    out = tensor(a, b)
    for k, (i, j) in enumerate(pairs):
        assert same_bits(out[k], np.kron(PAULIS[i], PAULIS[j]))
        assert same_bits(tensor(PAULIS[i], PAULIS[j]), np.kron(PAULIS[i], PAULIS[j]))
    # the tables built from tensor at import keep their bytes
    table = np.stack([np.stack([np.kron(p, q) for q in PAULIS]) for p in PAULIS])
    assert PAIR_OBS.tobytes() == table.tobytes()


def test_the_hilbert_schmidt_kernel_on_a_stack_is_the_one_matrix_call():
    mats = _ginibre_stack(20261021, np.arange(2000), (1, 2, 3, 4))
    g = _g_hs(mats)
    assert g.shape == (2000,)
    for k, m in enumerate(mats):
        assert same_bits(g[k], ref_g_hs(m))
        assert same_bits(g[k], g_hilbert_schmidt(DensityMatrix(m)))


def test_the_pure_concurrence_kernel_on_a_stack_is_the_one_matrix_call():
    amps = _haar_amp_stack(20261021, np.arange(5000))
    c = _concurrence_pure(amps)
    assert c.shape == (5000,)
    for k, a in enumerate(amps):
        assert same_bits(c[k], ref_concurrence_pure(a))
        assert same_bits(c[k], concurrence_pure(PureState(a)))
    assert same_bits(_concurrence_pure(amps.reshape(50, 100, 4)), c.reshape(50, 100))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_a_non_finite_matrix_in_a_stack_raises_the_one_matrix_message(bad):
    rng = np.random.default_rng(20261022)
    mats = complex_normals(rng, (9, 4, 4))
    halves = complex_normals(rng, (9, 2, 2))
    mats[5, 1, 2] = halves[5, 0, 1] = bad
    calls = [
        (lambda m: partial_trace(m, "A"), mats),
        (lambda m: partial_trace(m, "B"), mats),
        (lambda m: partial_transpose(m, "A"), mats),
        (lambda m: partial_transpose(m, "B"), mats),
        (lambda m: tensor(m, halves[0]), halves),
        (lambda m: tensor(halves[0], m), halves),
        (_g_hs, mats),
    ]
    for op, stack in calls:
        expected = message(op, stack[5])
        assert expected == "matrix entries must be finite"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            op(stack)


SCALAR_MEASURES = {
    "concurrence_pure": lambda p, rho: concurrence_pure(p),
    "concurrence_mixed": lambda p, rho: concurrence_mixed(rho),
    "purity": lambda p, rho: purity(rho),
    "g_hilbert_schmidt": lambda p, rho: g_hilbert_schmidt(rho),
    "g_from_covariances": lambda p, rho: g_from_covariances(correlation_data(rho)),
    "l3": lambda p, rho: l3(rho),
    "expectation": lambda p, rho: expectation(rho, PAIR_OBS[3, 3]),
    "variance": lambda p, rho: variance(rho, PAIR_OBS[1, 2]),
    "covariance": lambda p, rho: covariance(rho, 2, 3),
    "g_pure_from_invariants": lambda p, rho: g_pure_from_invariants(pure_invariants(p)),
}


@pytest.mark.parametrize("name", sorted(SCALAR_MEASURES))
def test_every_public_scalar_measure_returns_a_python_float(name):
    p = haar_pure(20261021, 3)
    for rho in (from_pure(p), ginibre(20261021, 3, 2), canonical("singlet")):
        assert type(SCALAR_MEASURES[name](p, rho)) is float


def test_the_scalar_measures_of_a_constructed_state_check_nothing_again(monkeypatch, eigh_calls):
    # Construction decided every rule; the measures of a DensityMatrix run
    # the unchecked kernels, and the concurrence decomposes twice: the
    # state for its square root, then the spin-flip product.
    states = [canonical(name) for name in NAMED]
    states += [ginibre(20261022, k, rank) for k in range(4) for rank in (1, 2, 3, 4)]
    states.append(DensityMatrix(at_edge(np.random.default_rng(20261022), -MATRIX_TOL, 0)))
    checked, herm_defect = [], linalg.herm_defect
    monkeypatch.setattr(linalg, "herm_defect", lambda m: checked.append(m) or herm_defect(m))
    for rho in states:
        eigh_calls.clear()
        concurrence_mixed(rho)
        assert eigh_calls == [(4, 4), (4, 4)]
        l3(rho), correlation_data(rho), analyze(rho), outcome_probabilities(rho)
    assert checked == []


def test_the_packages_own_g_reads_one_moment_table_and_builds_no_correlation_data(
        tmp_path, capsys, monkeypatch):
    # analyze, shots_for_verdict and sample read G (and analyze L3) off one
    # Pauli moment table; a CorrelationData is built only where one is asked
    # for.  The route through correlation_data stays the reference.
    states = [canonical(name) for name in NAMED]
    states += [ginibre(20261024, k, rank) for k in range(4) for rank in (1, 2, 3, 4)]
    reference = [(g_from_covariances(correlation_data(rho)), l3(rho)) for rho in states]
    tables, built = [], []
    moments, post_init = observables._moments, CorrelationData.__post_init__
    for module in (observables, gmeasure, sampler, cli):
        monkeypatch.setattr(module, "_moments", lambda m: tables.append(m) or moments(m))
    monkeypatch.setattr(CorrelationData, "__post_init__",
                        lambda cd: built.append(cd) or post_init(cd))
    for rho, (g, l3_value) in zip(states, reference):
        tables.clear()
        report = analyze(rho)
        assert len(tables) == 1
        assert same_bits(report.g, g) and same_bits(report.l3, l3_value)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(density_matrix_to_dict(rho)))
        assert cli.main(["sample", str(path), "--shots", "100"]) == 0
        assert same_bits(json.loads(capsys.readouterr().out)["g_exact"], g)
    assert shots_for_verdict(canonical("singlet"), 3.0, 2026, trials=10, required=10) == 13
    assert built == []


# Run in a child under OpenBLAS's Haswell kernels: 512 Ginibre states, ranks 1-4,
# printing the kernel and how many scalar concurrences differ in any bit
# from the stacked kernel's.
HASWELL_CHILD = """
import numpy as np
from entcov.concurrence import _concurrence_from_spectrum, concurrence_mixed
from entcov.ensembles import _ginibre_stack
from entcov.linalg import _blas_kernel
from entcov.states import DensityMatrix, _validated_spectrum

m, w, v = _validated_spectrum(_ginibre_stack(20261023, np.arange(512), (1, 2, 3, 4)))
stacked = _concurrence_from_spectrum(m, w, v)
scalar = np.array([concurrence_mixed(DensityMatrix(x)) for x in m])
print(_blas_kernel(), np.count_nonzero(stacked.view(np.uint64) != scalar.view(np.uint64)))
"""


def test_the_scalar_concurrence_is_the_stacked_kernel_under_haswell():
    # The pinned concurrence bits belong to one BLAS kernel; the identity of
    # the scalar and the stacked route must hold under another kernel too.
    # Forcing a kernel is safe only on a CPU that has its instructions.
    if not {"avx2", "fma"} <= cpu_flags():
        pytest.skip("/proc/cpuinfo lists no avx2 or no fma, which the Haswell kernels need")
    if _blas_kernel() == "unknown":
        pytest.skip("numpy bundles no OpenBLAS whose kernel can be chosen")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(Path(entcov.__file__).parents[1]), os.environ.get("PYTHONPATH"))
               if p)}
    proc = subprocess.run([sys.executable, "-c", HASWELL_CHILD], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Haswell", "0"]


# Values whose text is easy to get wrong: both zeros, subnormals, the ends of
# the float range, values that need all 17 digits, and 17-digit ties: an odd
# 16-digit integer over 4 is exactly 18 significant digits ending in 5.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -1e-310,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1 + 0.2, 1 / 3, 2 / 3, 1.0000000000000002, 0.99999999999999989, 123456789012345678.0,
    9007199254740991 / 4, 9007199254740989 / 4, -9007199254740987 / 4, 1e-5, 1e17, 2.5, -7.0,
]


def test_format_float_on_an_array_is_the_scalar_rule_value_by_value():
    rng = np.random.default_rng(20261019)
    spread = rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200)
    values = np.concatenate([EDGE_FLOATS, spread])
    assert format_float((values,), "{}") == "\n".join(format_float(x) for x in values.tolist())
    assert format_float((values[:2],), "{}") == "0\n0"
    # Several columns: integer and boolean ones in decimal, literal text (a
    # % included) kept as written.
    ints = rng.integers(-(2**63), 2**63 - 1, len(values), endpoint=True)
    flags = rng.random(len(values)) < 0.5
    columns = (values, ints, values[::-1], flags)
    expected = [f"a%,{format_float(x)},{i},{format_float(y)},{int(f)},"
                for x, i, y, f in zip(values.tolist(), ints.tolist(), values[::-1].tolist(), flags)]
    assert format_float(columns, "a%,{},{},{},{},") == "\n".join(expected)
    assert format_float((np.arange(2**64 - 2, 2**64, dtype=np.uint64),), "{}") == (
        f"{2**64 - 2}\n{2**64 - 1}")
    assert format_float((np.empty(0), np.empty(0, dtype=int)), "{},{}") == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_format_float_on_an_array_raises_the_scalar_message_of_the_first_non_finite(bad):
    values = np.array([1.5, -0.0, bad, np.inf if np.isnan(bad) else np.nan, 2.0])
    with pytest.raises(ValueError) as scalar:
        format_float(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        format_float((values,), "{}")
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        format_float((np.arange(5), np.ones(5), values, values[::-1]), "{},{},{},{}")


def test_bounds_violated_on_arrays_is_the_scalar_rule_pair_by_pair():
    # One ulp either side of each band edge, where the decision flips.
    c = np.linspace(0.0, 1.0, 101)
    low, high = pure_state_floor(c) - CERT_MARGIN, mixed_state_ceiling(c) + CERT_MARGIN
    down, up = -np.inf, np.inf
    cases = [(np.nextafter(low, down), True), (low, False), (np.nextafter(low, up), False),
             (np.nextafter(high, down), False), (high, False), (np.nextafter(high, up), True)]
    for g, outside in cases:
        flags = bounds_violated(c, g)
        assert flags.dtype == bool
        assert flags.tolist() == [bounds_violated(x, y) for x, y in zip(c.tolist(), g.tolist())]
        assert flags.tolist() == [outside] * len(c)
