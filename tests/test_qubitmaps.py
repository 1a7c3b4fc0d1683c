import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roofext import (
    DegeneratePencil,
    NotPSD,
    NotStandardForm,
    NotTracePreserving,
    OutOfRange,
    amplitude_damping,
    apply_map,
    axial_beta_max,
    axial_critical_beta_sq,
    axial_map,
    axial_tangle,
    bloch_to_qubit,
    concurrence_general_two_kraus,
    concurrence_sq,
    dephased_amplitude_damping,
    dephasing_map,
    depolarizing_map,
    det_T_form,
    diagonal_channel,
    four_vector,
    identity_map,
    kraus_map,
    length_two_decomposition,
    map_concurrence,
    pure_projector,
    random_density,
    random_pure,
    subtraction_weight,
    theta_from_kraus_pair,
    two_kraus_seminorm,
)
from roofext.qubitmaps import affine_map, axial_concurrence_weight

PAULI_VEC = arrays(np.float64, (4,), elements=st.floats(min_value=-2.0, max_value=2.0))

HH3 = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)


def _hermitian(x):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return (x[0] * np.eye(2) + x[1] * sx + x[2] * sy + x[3] * sz) / 2.0


@given(x=PAULI_VEC)
def test_four_vector_round_trip(x):
    X = _hermitian(x)
    np.testing.assert_allclose(four_vector(X), x, atol=1e-12)


def test_axial_map_matches_kraus_damping():
    p = 0.3
    k0 = np.diag([1.0, np.sqrt(1.0 - p)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    T_kraus = kraus_map([k0, k1])
    T_axial = amplitude_damping(p)
    np.testing.assert_allclose(T_kraus.bloch, T_axial.bloch, atol=1e-12)
    rho = bloch_to_qubit([0.3, -0.2, 0.4])
    np.testing.assert_allclose(apply_map(T_kraus, rho), apply_map(T_axial, rho), atol=1e-12)


def test_kraus_map_requires_trace_preservation():
    with pytest.raises(NotTracePreserving):
        kraus_map([np.eye(2) * 0.9])


def test_axial_map_range_checks():
    with pytest.raises(OutOfRange):
        axial_map(1.2, 0.0, 0.5)
    bmax = axial_beta_max(0.7, 0.6)
    with pytest.raises(OutOfRange):
        axial_map(0.7, bmax * 1.01, 0.6)
    # the boundary itself is fine
    axial_map(0.7, bmax, 0.6)


def test_affine_map_positivity_sampling():
    bad = np.eye(4)
    bad[3, 3] = 1.1  # stretches the Bloch ball outside itself
    with pytest.raises(NotPSD):
        affine_map(bad)


def test_affine_map_exact_positivity():
    transpose = affine_map(np.diag([1.0, 1.0, -1.0, 1.0]))  # positive, not CP
    sw = subtraction_weight(transpose)
    assert sw.w_lo == sw.w_hi == 1.0
    with pytest.raises(NotPSD):
        affine_map(np.diag([1.0, 1.3, 1.3, 1.3]))


def _random_kraus_ops(rng, n_ops):
    G = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    Q, _ = np.linalg.qr(G)
    return [Q[2 * i : 2 * i + 2] for i in range(n_ops)]


def _min_eig(T, w):
    return np.linalg.eigvalsh(det_T_form(T).matrix(w))[0]


def test_exact_weight_three_kraus_endpoints():
    g = np.random.default_rng(3)
    for _ in range(50):
        T = kraus_map(_random_kraus_ops(g, 3))
        sw = subtraction_weight(T)
        assert 0.0 < sw.w_lo < sw.w_hi < 1.0
        assert _min_eig(T, sw.w_lo) >= -1e-12 and _min_eig(T, sw.w_hi) >= -1e-12
        assert _min_eig(T, sw.w_lo - 1e-6) < 0.0 and _min_eig(T, sw.w_hi + 1e-6) < 0.0


def test_exact_weight_two_kraus_matches_spectrum_route():
    g = np.random.default_rng(4)
    for _ in range(50):
        A, B = _random_kraus_ops(g, 2)
        T = kraus_map([A, B])
        rho = random_density(2, seed=g)
        via_theta = concurrence_general_two_kraus(theta_from_kraus_pair(A, B), rho)
        assert abs(np.sqrt(concurrence_sq(T, rho)) - via_theta) < 1e-10


def test_exact_weight_axial_grid():
    grid = np.linspace(0.1, 0.9, 9)
    for a in grid:
        for gam in grid:
            for f in grid:
                b = f * axial_beta_max(a, gam)
                w = subtraction_weight(axial_map(a, b, gam)).w
                assert abs(w - axial_concurrence_weight(a, b, gam)) <= 1e-12


def _counted(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapped


def test_exact_weight_eigensolve_budget(monkeypatch):
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _counted(getattr(np.linalg, name), calls))
    g = np.random.default_rng(5)
    for n_ops in (1, 2, 3, 4):
        ops = _random_kraus_ops(g, n_ops)
        calls.clear()
        T = kraus_map(ops)
        assert calls == []
        subtraction_weight(T)
        assert len(calls) <= 8
    for T in (dephased_amplitude_damping(0.4), depolarizing_map(0.5), identity_map()):
        calls.clear()
        subtraction_weight(T)
        assert len(calls) <= 8


@pytest.mark.parametrize("seed", range(6))
def test_det_form_identity(seed):
    g = np.random.default_rng(seed)
    a, gam = g.uniform(0.05, 0.95, size=2)
    b = g.uniform(0.0, 1.0) * axial_beta_max(a, gam)
    T = axial_map(a, b, gam)
    pencil = det_T_form(T)
    x = g.normal(size=4)
    X = _hermitian(x)
    assert abs(x @ pencil.q_t @ x - np.linalg.det(apply_map(T, X)).real) < 1e-12
    assert abs(x @ pencil.q_det @ x - np.linalg.det(X).real) < 1e-12


def test_subtraction_weight_dephased_damping():
    for g in np.linspace(0.1, 0.9, 9):
        sw = subtraction_weight(dephased_amplitude_damping(g))
        assert abs(sw.w_lo - g) <= 1e-12  # degenerate interval {gamma}
        assert abs(sw.w_hi - g) <= 1e-12


def test_subtraction_weight_identity_map():
    sw = subtraction_weight(identity_map())
    assert abs(sw.w_lo - 1.0) < 1e-9 and abs(sw.w_hi - 1.0) < 1e-9
    rho = random_density(2, rank=2, seed=3)
    assert concurrence_sq(identity_map(), rho, sw) == 0.0


def test_subtraction_weight_depolarizing():
    for q in (0.2, 0.5, 0.8):
        sw = subtraction_weight(depolarizing_map(q))
        assert abs(sw.w_lo - q * q) < 1e-8


def test_subtraction_interval_endpoints_order():
    T = axial_map(0.3, 0.5 * axial_beta_max(0.3, 0.8), 0.8)
    sw = subtraction_weight(T)
    assert 0.0 <= sw.w_lo <= sw.w_hi <= 1.0
    assert sw.w == sw.w_lo  # the reported weight is the lower endpoint


def test_axial_closed_form_weights():
    a, g = 0.3, 0.8
    bc2 = axial_critical_beta_sq(a, g)
    assert abs(bc2 - (np.sqrt(a * g) - np.sqrt((1 - a) * (1 - g))) ** 2) < 1e-15
    # below the critical coupling the pencil endpoint sticks at beta_c
    b_small = 0.5 * np.sqrt(bc2)
    sw = subtraction_weight(axial_map(a, b_small, g))
    assert abs(sw.w - bc2) < 1e-8
    # above it the endpoint follows beta^2
    b_big = np.sqrt(bc2) * 1.5
    sw = subtraction_weight(axial_map(a, b_big, g))
    assert abs(sw.w - b_big**2) < 1e-8


def test_concurrence_sq_anchor():
    T = dephased_amplitude_damping(0.5)
    assert abs(concurrence_sq(T, HH3) - 0.375) < 1e-12


def test_axial_tangle_identity(rng):
    for _ in range(10):
        a, g = rng.uniform(0.05, 0.95, size=2)
        b = rng.uniform(0.0, 1.0) * axial_beta_max(a, g)
        rho = random_density(2, seed=rng)
        T = axial_map(a, b, g)
        m = a + g - 1.0
        w_tau = max(b * b, m * m)
        direct = 4.0 * (np.linalg.det(apply_map(T, rho)).real - w_tau * np.linalg.det(rho).real)
        assert abs(axial_tangle(a, b, g, rho) - max(0.0, direct)) < 1e-12


def test_tangle_dominates_concurrence_sq(rng):
    for _ in range(50):
        a, g = rng.uniform(0.05, 0.95, size=2)
        b = rng.uniform(0.0, 0.999) * axial_beta_max(a, g)
        rho = random_density(2, seed=rng)
        tau = axial_tangle(a, b, g, rho)
        csq = concurrence_sq(axial_map(a, b, g), rho)
        assert tau >= csq - 1e-9


def _standard_pair(r0=0.6, r1=0.8, phases=(0.0, 0.3, 1.1, -0.4)):
    a0 = r0 * np.exp(1j * phases[0])
    a1 = r1 * np.exp(1j * phases[1])
    b10 = np.sqrt(1 - r0 * r0) * np.exp(1j * phases[2])
    b01 = np.sqrt(1 - r1 * r1) * np.exp(1j * phases[3])
    return np.diag([a0, a1]), np.array([[0, b01], [b10, 0]], dtype=complex)


def test_two_kraus_seminorm_matches_concurrence():
    A, B = _standard_pair()
    T = kraus_map([A, B])
    rho = random_density(2, rank=2, seed=5)
    semi = two_kraus_seminorm(A, B, rho)
    assert abs(semi - np.sqrt(concurrence_sq(T, rho))) < 1e-10
    # pure input: the seminorm equals 2 sqrt(det T(pi))
    psi = random_pure(2, seed=6)
    pi = pure_projector(psi)
    assert abs(
        two_kraus_seminorm(A, B, pi) - 2.0 * np.sqrt(np.linalg.det(apply_map(T, pi)).real)
    ) < 1e-12


def test_two_kraus_seminorm_rejects_nonstandard():
    A = np.array([[0.6, 0.1], [0.0, 0.8]], dtype=complex)
    B = np.array([[0.0, 0.6], [0.8, 0.0]], dtype=complex)
    with pytest.raises(NotStandardForm):
        two_kraus_seminorm(A, B, HH3)


@given(x=PAULI_VEC, y=PAULI_VEC)
def test_two_kraus_seminorm_is_a_seminorm(x, y):
    A, B = _standard_pair()
    X, Y = _hermitian(x), _hermitian(y)
    sX = two_kraus_seminorm(A, B, X)
    assert abs(two_kraus_seminorm(A, B, 2.0 * X) - 2.0 * sX) < 1e-10
    assert two_kraus_seminorm(A, B, X + Y) <= sX + two_kraus_seminorm(A, B, Y) + 1e-10


def test_concurrence_general_two_kraus():
    A, B = _standard_pair(0.55, 0.7, (0.2, -0.9, 0.4, 2.0))
    T = kraus_map([A, B])
    theta = theta_from_kraus_pair(A, B)
    rho = random_density(2, rank=2, seed=8)
    assert abs(
        concurrence_general_two_kraus(theta, rho) - np.sqrt(concurrence_sq(T, rho))
    ) < 1e-10


def test_length_two_decomposition_contract():
    T = axial_map(0.35, 0.4 * axial_beta_max(0.35, 0.8), 0.8)
    rho = random_density(2, rank=2, seed=11)
    with pytest.warns(DegeneratePencil):
        dec = length_two_decomposition(T, rho)
    assert len(dec.weights) == 2
    assert dec.reconstruction_error(rho) < 1e-10
    avg = sum(
        p * 2.0 * np.sqrt(max(0.0, np.linalg.det(apply_map(T, pure_projector(s))).real))
        for p, s in zip(dec.weights, dec.states)
    )
    assert abs(avg - np.sqrt(concurrence_sq(T, rho))) < 1e-8
    # members are pure states on the Bloch sphere
    for s in dec.states:
        assert abs(np.linalg.norm(np.asarray(s)) - 1.0) < 1e-10


def test_length_two_decomposition_two_kraus_is_optimal():
    # the pencil null space is two-dimensional here; its trace-free direction
    # is the optimal cut, the other null directions overshoot the roof
    g = np.random.default_rng(7)
    for _ in range(60):
        T = kraus_map(_random_kraus_ops(g, 2))
        rho = random_density(2, seed=g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePencil)
            dec = length_two_decomposition(T, rho)
        assert dec.reconstruction_error(rho) < 1e-10
        avg = sum(
            p * 2.0 * np.sqrt(max(0.0, np.linalg.det(apply_map(T, pure_projector(s))).real))
            for p, s in zip(dec.weights, dec.states)
        )
        assert abs(avg - map_concurrence(T, rho).value) < 1e-8


def test_length_two_decomposition_pure_passthrough():
    T = dephased_amplitude_damping(0.4)
    psi = random_pure(2, seed=4)
    dec = length_two_decomposition(T, pure_projector(psi))
    assert len(dec.weights) == 1


def test_dephasing_and_diagonal_channel():
    rho = bloch_to_qubit([0.5, 0.1, -0.3])
    out = apply_map(diagonal_channel(), rho)
    np.testing.assert_allclose(out, np.diag(np.diag(rho)), atol=1e-14)
    out = apply_map(dephasing_map(0.25), rho)
    assert abs(out[0, 1] - 0.25 * rho[0, 1]) < 1e-14
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-14)
