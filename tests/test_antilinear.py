import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roofext import (
    ConfigError,
    NotIsometry,
    NotSymmetric,
    ShapeMismatch,
    UnsupportedOrder,
    bell_state,
    check_symmetric,
    concurrence_2qubit,
    eof_2qubit,
    flat_optimal_decomposition,
    lambda_spectrum,
    maximally_mixed,
    product_pure,
    pure_projector,
    random_density,
    random_unitary,
    roof_values,
    spectrum,
    spin_flip,
    takagi,
    theta_expectation,
    theta_from_kraus_pair,
    transport_theta,
    werner_state,
    wootters_conjugation,
)
from roofext.antilinear import _zero_diagonal_rotation, real_hadamard
from roofext.solver import flatness_check, theta_form_objective, verify_roof_point

complex_2x2 = arrays(
    np.complex128,
    (2, 2),
    elements=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)


@given(Y=complex_2x2)
def test_spin_flip_identity(Y):
    F = spin_flip()
    lhs = F @ Y.T @ F @ Y
    rhs = -np.linalg.det(Y) * np.eye(2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_spin_flip_squares_to_minus_one():
    F = spin_flip()
    np.testing.assert_allclose(F @ F, -np.eye(2), atol=0)
    W = wootters_conjugation()
    np.testing.assert_allclose(W @ W.conj(), np.eye(4), atol=0)
    np.testing.assert_allclose(W, np.kron(F, F), atol=0)


def test_check_symmetric():
    with pytest.raises(NotSymmetric):
        check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        check_symmetric(np.zeros((2, 3)))
    A = np.array([[1.0, 2.0], [2.0, 3.0]]) + 1e-10 * np.array([[0, 1], [-1, 0]])
    out = check_symmetric(A)  # tiny asymmetry gets symmetrized away
    np.testing.assert_allclose(out, out.T, atol=0)


def test_theta_from_kraus_pair_partial_trace():
    a1 = np.zeros((2, 4), dtype=complex)
    a2 = np.zeros((2, 4), dtype=complex)
    a1[0, 0] = a1[1, 1] = 1.0
    a2[0, 2] = a2[1, 3] = 1.0
    M = theta_from_kraus_pair(a1, a2)
    np.testing.assert_allclose(M, wootters_conjugation() / 2.0, atol=1e-15)
    # 2-homogeneity in the pair: scaling both by 1/sqrt(2) quarters nothing,
    # it halves the matrix
    Ms = theta_from_kraus_pair(a1 / np.sqrt(2.0), a2 / np.sqrt(2.0))
    np.testing.assert_allclose(Ms, wootters_conjugation() / 4.0, atol=1e-15)
    with pytest.raises(ShapeMismatch):
        theta_from_kraus_pair(a1, a2[:, :2])


def test_lambda_spectrum_anchors():
    theta = wootters_conjugation() / 2.0
    lam = lambda_spectrum(theta, pure_projector(bell_state("phi+")))
    np.testing.assert_allclose(lam, [0.5, 0.0, 0.0, 0.0], atol=1e-12)
    lam = lambda_spectrum(theta, pure_projector(product_pure([1, 0], [0.6, 0.8])))
    np.testing.assert_allclose(lam, 0.0, atol=1e-12)
    for p in (0.0, 0.4, 0.9):
        lam = lambda_spectrum(theta, werner_state(p))
        expect = [(1 + 3 * p) / 8.0] + [(1 - p) / 8.0] * 3
        np.testing.assert_allclose(lam, expect, atol=1e-12)


def test_roof_values_werner():
    theta = wootters_conjugation() / 2.0
    convex, concave = roof_values(theta, werner_state(0.9))
    assert abs(convex - 0.425) < 1e-12  # C/2 for p = 0.9
    assert concave > convex
    convex, _ = roof_values(theta, maximally_mixed(4))
    assert convex == 0.0


def test_transport_invariance(rng):
    for d in (2, 3, 4):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = (A + A.T) / 2.0
        omega = random_density(d, seed=rng)
        U = random_unitary(d, seed=rng)
        lam = lambda_spectrum(A, omega)
        lam2 = lambda_spectrum(transport_theta(A, U), U @ omega @ U.conj().T)
        np.testing.assert_allclose(lam, lam2, atol=1e-9)
        # transported matrix stays symmetric
        At = transport_theta(A, U)
        np.testing.assert_allclose(At, At.T, atol=1e-12)


def test_transport_theta_rejects_a_non_unitary():
    with pytest.raises(NotIsometry, match="U\\^dag U"):
        transport_theta(np.eye(2), 2.0 * np.eye(2))


def test_theta_expectation_is_two_homogeneous(rng):
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    A = (A + A.T) / 2.0
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    v1 = theta_expectation(A, z)
    v2 = theta_expectation(A, 2.0 * z)
    assert abs(v2 - 4.0 * v1) < 1e-10 * max(1.0, abs(v1))


# --- Takagi -----------------------------------------------------------------

def _random_symmetric(seed, d):
    g = np.random.default_rng(seed)
    A = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    return (A + A.T) / 2.0


@pytest.mark.parametrize("seed,d", [(0, 2), (1, 3), (2, 4), (3, 5), (4, 8)])
def test_takagi_reconstructs(seed, d):
    B = _random_symmetric(seed, d)
    tak = takagi(B)
    np.testing.assert_allclose(tak.reconstruct(), B, atol=1e-8)
    np.testing.assert_allclose(tak.lambdas, np.linalg.svd(B, compute_uv=False), atol=1e-10)
    np.testing.assert_allclose(tak.basis.conj().T @ tak.basis, np.eye(d), atol=1e-10)


@st.composite
def nearly_pure_cases(draw):
    """(A, omega): omega = (1 - eps)|u><u| + eps|v><v|, eps in [3e-10, 1e-8], just above RANK_TOL."""
    d = draw(st.integers(2, 8))
    eps = 10.0 ** draw(st.floats(np.log10(3e-10), -8.0))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    U = random_unitary(d, seed=g)
    omega = (1.0 - eps) * pure_projector(U[:, 0]) + eps * pure_projector(U[:, 1])
    return (A + A.T) / 2.0, omega


@st.composite
def nearly_singular_cases(draw):
    """(A, omega): one singular value of A in [1e-14, 1e-6], omega of full rank."""
    d = draw(st.integers(2, 8))
    s = 10.0 ** draw(st.floats(-14.0, -6.0))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = random_unitary(d, seed=g)
    sv = g.uniform(0.5, 2.0, size=d)
    sv[-1] = s
    return U @ np.diag(sv) @ U.T, random_density(d, seed=g)


@given(case=st.one_of(nearly_pure_cases(), nearly_singular_cases()))
def test_takagi_degenerate_clusters(case):
    for B in (np.eye(4, dtype=complex), np.diag([2.0, 2.0, 1.0]).astype(complex), np.zeros((3, 3))):
        tak = takagi(B)
        np.testing.assert_allclose(tak.reconstruct(), B, atol=1e-10)
    # repeated singular value with complex coupling
    g = np.random.default_rng(9)
    Q, _ = np.linalg.qr(g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))
    B = Q @ np.diag([1.5, 1.5, 1.5, 0.2]) @ Q.T
    tak = takagi(B)
    np.testing.assert_allclose(tak.reconstruct(), B, atol=1e-8)
    # B = R A R^T zero-padded to a power of two, unitarily equivalent to the
    # form the flat decomposition builds: tiny singular values merge with the
    # exact null block
    A, omega = case
    d = A.shape[0]
    n = 1 << (d - 1).bit_length()
    sp = spectrum(omega)
    R = sp.factor @ sp.vectors.conj().T
    B = np.zeros((n, n), dtype=complex)
    B[:d, :d] = R @ A @ R.T
    tak = takagi(B)
    assert np.max(np.abs(tak.reconstruct() - B)) <= 1e-12
    assert np.max(np.abs(tak.basis.conj().T @ tak.basis - np.eye(n))) <= 1e-12


def test_takagi_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        takagi(np.array([[0.0, 1.0], [-1.0, 0.0]]))


# --- flat optimal decompositions ---------------------------------------------

@pytest.mark.parametrize("mode", ["convex", "concave"])
@pytest.mark.parametrize("seed,d,rank", [(0, 2, 2), (1, 3, 2), (2, 3, 3), (3, 4, 3), (4, 4, 4)])
def test_flat_decomposition_contract(mode, seed, d, rank):
    g = np.random.default_rng(seed)
    A = _random_symmetric(seed + 100, d)
    omega = random_density(d, rank=rank, seed=g)
    dec = flat_optimal_decomposition(A, omega, mode=mode)
    assert dec.reconstruction_error(omega) < 1e-8
    obj = theta_form_objective(A)
    flat, spread, _ = flatness_check(obj, dec, tol=1e-8)
    assert flat, f"member values spread {spread}"
    avg = verify_roof_point(obj, dec)
    convex, concave = roof_values(A, omega)
    target = convex if mode == "convex" else concave
    assert abs(avg - target) < 1e-8


@given(
    case=st.one_of(nearly_pure_cases(), nearly_singular_cases()),
    mode=st.sampled_from(["convex", "concave"]),
)
def test_flat_decomposition_near_rank_threshold(case, mode):
    # A member of weight p has its value fixed only to about 1e-16 / p in
    # double precision, so on members of weight ~1e-10 the unweighted spread
    # can reach 1e-6; p times each member's deviation is what stays small.
    A, omega = case
    dec = flat_optimal_decomposition(A, omega, mode=mode)
    obj = theta_form_objective(A)
    roof = roof_values(A, omega)[mode == "concave"]
    vals = obj.batch(np.stack(dec.states, axis=1))
    assert dec.reconstruction_error(omega) <= 1e-8
    assert abs(verify_roof_point(obj, dec) - roof) <= 1e-8
    assert np.max(np.asarray(dec.weights) * np.abs(vals - roof)) <= 1e-12


def test_flat_decomposition_rank_one():
    rho = pure_projector(bell_state("phi+"))
    dec = flat_optimal_decomposition(wootters_conjugation(), rho, mode="convex")
    assert len(dec.weights) == 1
    assert dec.reconstruction_error(rho) < 1e-12


def test_flat_decomposition_zero_roof():
    # separable region: all members must sit at (near) zero concurrence
    theta = wootters_conjugation() / 2.0
    omega = maximally_mixed(4)
    dec = flat_optimal_decomposition(theta, omega, mode="convex")
    assert dec.reconstruction_error(omega) < 1e-8
    vals = [abs(theta_expectation(theta, np.asarray(s))) for s in dec.states]
    assert max(vals) < 1e-8


def test_flat_decomposition_bad_mode():
    with pytest.raises(ConfigError):
        flat_optimal_decomposition(wootters_conjugation(), maximally_mixed(4), mode="upper")


def test_flat_decomposition_has_no_light_outliers():
    # rank-2 and rank-3 two-qubit states: a Givens zeroing frame can leave
    # members of weight ~1e-12 here, with values up to 5e-6 off the roof
    theta = wootters_conjugation() / 2.0
    obj = theta_form_objective(theta)
    g = np.random.default_rng(3)
    for i in range(2000):
        omega = random_density(4, rank=int(g.integers(2, 4)), seed=g)
        dec = flat_optimal_decomposition(theta, omega, mode="convex")
        assert dec.reconstruction_error(omega) <= 1e-8
        flat, spread, _ = flatness_check(obj, dec, tol=1e-8)
        assert flat, f"state {i}: spread {spread:.3e} over weights >= {min(dec.weights):.3e}"


def _counting_linalg(monkeypatch):
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_closed_form_lapack_budget(monkeypatch):
    # one eigensolve of the state; then one SVD for the spectrum, or the
    # Takagi eigensolve and polar SVD plus one eigensolve for the rotation
    calls = _counting_linalg(monkeypatch)
    g = np.random.default_rng(4)
    theta2q = wootters_conjugation() / 2.0
    for d, rank in ((4, 2), (4, 4), (3, 3), (5, 4), (8, 8)):
        A = _random_symmetric(d, d)
        omega = random_density(d, rank=rank, seed=g)
        budgets = [
            (lambda: roof_values(A, omega), 2),
            (lambda: flat_optimal_decomposition(A, omega, mode="convex"), 4),
            (lambda: flat_optimal_decomposition(A, omega, mode="concave"), 4),
        ]
        if d == 4:
            budgets += [
                (lambda: concurrence_2qubit(omega), 2),
                (lambda: eof_2qubit(omega), 2),
                (lambda: flat_optimal_decomposition(theta2q, omega), 4),
            ]
        for call, budget in budgets:
            calls.clear()
            call()
            assert len(calls) <= budget, calls


def _traceless_cases(n, g):
    G = g.normal(size=(n, n))
    yield (G + G.T) / 2.0  # random
    yield np.diag(np.linspace(1.0, 2.0, n))  # positive diagonal, traced out below
    Q, _ = np.linalg.qr(g.normal(size=(n, n)))
    yield (Q * np.repeat([3.0, -1.0], max(1, n // 2))[:n]) @ Q.T  # degenerate spectrum
    yield np.zeros((n, n))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_zero_diagonal_rotation(n):
    g = np.random.default_rng(n)
    for M in _traceless_cases(n, g):
        M = M - (np.trace(M) / n) * np.eye(n)
        V = _zero_diagonal_rotation(M)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-14
        bound = 1e-14 * max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(np.diag(V.T @ M @ V))) <= bound


def _sylvester(n):
    H = np.ones((1, 1), dtype=int)
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_real_hadamard_matches_sylvester_doubling(n):
    H = real_hadamard(n)
    assert H.dtype == _sylvester(n).dtype
    assert np.array_equal(H, _sylvester(n))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_real_hadamard_is_hadamard(n):
    H = real_hadamard(n)
    assert H.shape == (n, n)
    assert np.all(np.abs(H) == 1)
    assert np.array_equal(H @ H.T, n * np.eye(n, dtype=int))


@pytest.mark.parametrize("n", [0, 3, 6])
def test_real_hadamard_rejects_other_orders(n):
    with pytest.raises(UnsupportedOrder):
        real_hadamard(n)
