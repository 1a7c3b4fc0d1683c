import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roofext import (
    DegeneratePencil,
    DimMismatch,
    EmptyInterval,
    NotPSD,
    NotStandardForm,
    NotTracePreserving,
    OutOfRange,
    QubitStochasticMap,
    amplitude_damping,
    apply_map,
    axial_beta_max,
    axial_critical_beta_sq,
    axial_map,
    axial_tangle,
    bloch_to_qubit,
    channel_entanglement,
    channel_tangle,
    concurrence_general_two_kraus,
    concurrence_sq,
    dephased_amplitude_damping,
    dephasing_map,
    depolarizing_map,
    det_T_form,
    diagonal_channel,
    ed_qubit_flat_pair,
    four_vector,
    identity_map,
    kraus_map,
    length_two_decomposition,
    map_concurrence,
    pure_projector,
    qubit_to_bloch,
    random_density,
    random_pure,
    subtraction_weight,
    tangle_weight,
    theta_from_kraus_pair,
    two_kraus_seminorm,
)
import roofext
from roofext import qubitmaps, states
from roofext.qubitmaps import affine_map, axial_concurrence_weight, axial_tangle_weight
from roofext.verify import _hermitian_from_vec, _rand_kraus_channel, _rand_kraus_ops

PAULI_VEC = arrays(np.float64, (4,), elements=st.floats(min_value=-2.0, max_value=2.0))

HH3 = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)


@given(x=PAULI_VEC)
def test_four_vector_round_trip(x):
    X = _hermitian_from_vec(x)
    np.testing.assert_allclose(four_vector(X), x, atol=1e-12)


def test_four_vector_is_the_one_bloch_conversion():
    assert roofext.four_vector is qubitmaps.four_vector is states.four_vector
    g = np.random.default_rng(12)
    paulis = (states.SIGMA_X, states.SIGMA_Y, states.SIGMA_Z)
    for _ in range(20):
        rho = random_density(2, seed=g)
        x = np.array([np.trace(P @ rho).real for P in paulis])
        np.testing.assert_allclose(qubit_to_bloch(rho), x, rtol=0.0, atol=1e-15)
    with pytest.raises(DimMismatch):
        qubit_to_bloch(np.eye(3) / 3.0)


def test_axial_map_matches_kraus_damping():
    p = 0.3
    k0 = np.diag([1.0, np.sqrt(1.0 - p)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    T_kraus = kraus_map([k0, k1])
    T_axial = amplitude_damping(p)
    np.testing.assert_allclose(T_kraus.bloch, T_axial.bloch, atol=1e-12)
    rho = bloch_to_qubit([0.3, -0.2, 0.4])
    np.testing.assert_allclose(apply_map(T_kraus, rho), apply_map(T_axial, rho), atol=1e-12)


@pytest.mark.parametrize("p", [2.0, -0.1, float("nan")])
def test_amplitude_damping_rejects_p_before_the_sqrt_warns(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="damping probability"):
            amplitude_damping(p)


def test_affine_map_rejects_a_prebuilt_infinite_matrix_without_warning():
    # inf * eye(4) warns while it is built (inf * 0); affine_map itself does not
    m = np.eye(4)
    m[1, 1] = m[2, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="2 non-finite entries"):
            affine_map(m)


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


@pytest.mark.parametrize("alpha,gamma", [(2.0, 0.5), (0.5, -0.1), (float("nan"), 0.5)])
def test_axial_closed_forms_reject_out_of_range(alpha, gamma):
    msg = "axial alpha, gamma must lie in \\[0,1\\]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: axial_beta_max(alpha, gamma),
            lambda: axial_critical_beta_sq(alpha, gamma),
            lambda: axial_concurrence_weight(alpha, 0.0, gamma),
            lambda: axial_tangle_weight(alpha, 0.0, gamma),
            lambda: axial_map(alpha, 0.0, gamma),
        ):
            with pytest.raises(OutOfRange, match=msg):
                call()


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


def _min_eig(T, w):
    q_t, q_det = det_T_form(T)
    return np.linalg.eigvalsh(q_t - w * q_det)[0]


def test_exact_weight_three_kraus_endpoints():
    g = np.random.default_rng(3)
    for _ in range(50):
        T = _rand_kraus_channel(g, 3)
        sw = subtraction_weight(T)
        assert 0.0 < sw.w_lo < sw.w_hi < 1.0
        assert _min_eig(T, sw.w_lo) >= -1e-12 and _min_eig(T, sw.w_hi) >= -1e-12
        assert _min_eig(T, sw.w_lo - 1e-6) < 0.0 and _min_eig(T, sw.w_hi + 1e-6) < 0.0


def test_exact_weight_two_kraus_matches_spectrum_route():
    g = np.random.default_rng(4)
    for _ in range(50):
        A, B = _rand_kraus_ops(g, 2)
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
        ops = _rand_kraus_ops(g, n_ops)
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
    q_t, q_det = det_T_form(T)
    x = g.normal(size=4)
    X = _hermitian_from_vec(x)
    assert abs(x @ q_t @ x - np.linalg.det(apply_map(T, X)).real) < 1e-12
    assert abs(x @ q_det @ x - np.linalg.det(X).real) < 1e-12


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
    X, Y = _hermitian_from_vec(x), _hermitian_from_vec(y)
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
        T = _rand_kraus_channel(g, 2)
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


def _null_direction_families(g):
    for n_ops in (2, 3, 4):
        for _ in range(40):
            yield f"kraus{n_ops}", _rand_kraus_channel(g, n_ops)
    for _ in range(40):
        a, gam = g.uniform(0.02, 0.98, size=2)
        b = axial_beta_max(a, gam) * g.choice([-1.0, 1.0]) * g.choice([g.uniform(), 1.0])
        yield "axial", axial_map(a, b, gam)
    for _ in range(120):
        m = np.eye(4)
        m[1:] = g.normal(size=(3, 4)) * g.uniform(0.1, 0.5)
        yield "affine", QubitStochasticMap(kind="affine", bloch=m)


def test_one_dimensional_pencil_null_space_is_never_timelike():
    # length_two_decomposition cuts along nu without a fallback: a timelike nu
    # (nu_0^2 > |nu_spatial|^2) would put the cut point inside the Bloch sphere
    one_dim = {}
    for family, T in _null_direction_families(np.random.default_rng(0)):
        try:
            vals, vecs = T.weight.pencil_eigh
        except EmptyInterval:
            continue
        if np.sum(vals <= 1e-8 * T.det_form[1]) == 1:
            nu = vecs[:, 0]
            assert nu[0] ** 2 <= nu[1:] @ nu[1:] + 1e-9, (family, T.bloch)
            one_dim[family] = one_dim.get(family, 0) + 1
    assert set(one_dim) == {"kraus3", "kraus4", "axial", "affine"}, one_dim


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


def test_tangle_weight_closed_forms():
    grid = np.linspace(0.0, 1.0, 9)
    for a in grid:
        for gam in grid:
            for f in np.linspace(-1.0, 1.0, 9):
                b = f * axial_beta_max(a, gam)
                assert abs(tangle_weight(axial_map(a, b, gam)) - axial_tangle_weight(a, b, gam)) <= 1e-15
    g = np.random.default_rng(9)
    for n_ops in (1, 2, 3, 4):
        T = _rand_kraus_channel(g, n_ops)
        spatial = det_T_form(T)[0][1:, 1:]
        assert abs(tangle_weight(T) + 4.0 * np.linalg.eigvalsh(spatial)[0]) <= 1e-12


def test_chord_eigensolve_budget(monkeypatch):
    # members come from the chord in closed form: no eigensolve per member
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _counted(getattr(np.linalg, name), calls))
    g = np.random.default_rng(6)
    rho = random_density(2, rank=2, seed=g)
    calls.clear()
    ed_qubit_flat_pair(rho)
    assert len(calls) <= 1  # the state's own eigensolve
    maps = [_rand_kraus_channel(g, n_ops) for n_ops in (1, 2, 3, 4)]
    maps += [dephased_amplitude_damping(0.4), depolarizing_map(0.5)]
    for T in maps:
        calls.clear()
        channel_tangle(T, rho)
        assert len(calls) <= 2  # the state and L^T L
        calls.clear()
        subtraction_weight(T)
        weight_calls = len(calls)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePencil)
            length_two_decomposition(T, rho)
        assert len(calls) <= weight_calls + 1  # the state's; the weight's solve gives the cut


# ---------------------------------------------------------------------------
# The pencil solve against a per-candidate reference


def _reference_weight(T, psd_tol=1e-9):
    """(w_lo, w_hi) by one eigvalsh per candidate, tested lazily from each end."""
    q_t, q_det = det_T_form(T)
    scale = max(1.0, float(np.max(np.abs(q_t))))
    min_eig = {}

    def lam(w):
        if w not in min_eig:
            min_eig[w] = float(np.linalg.eigvalsh(q_t - w * q_det)[0])
        return min_eig[w]

    roots = np.linalg.eigvals(np.linalg.solve(q_det, q_t))
    roots = np.sort(roots[np.abs(roots.imag) <= 1e-6].real)
    cands = {0.0, 1.0}
    for c in np.split(roots, np.flatnonzero(np.diff(roots) > 1e-6) + 1):
        mean = min(1.0, max(0.0, float(c.mean()))) if c.size > 1 else None
        if mean is not None and abs(lam(mean)) <= 1e-12 * scale:
            cands.add(mean)
        else:
            cands.update(float(w) for w in c if 0.0 < w < 1.0)
    cands = sorted(cands)

    def first_psd(ws):
        return next((w for w in ws if lam(w) >= -psd_tol * scale), None)

    w_lo = first_psd(cands)
    if w_lo is None:
        w_best = max(min_eig, key=min_eig.get)
        raise EmptyInterval(
            f"pencil is never PSD on [0,1]; best minimum eigenvalue {min_eig[w_best]:.3e} at w={w_best:.6f}"
        )
    return w_lo, first_psd(reversed(cands))


def _pencil_families():
    for p in np.linspace(0.0, 1.0, 11):
        yield from (amplitude_damping(p), dephased_amplitude_damping(p), depolarizing_map(p),
                    depolarizing_map(-p / 3.0), dephasing_map(p))
    yield from (identity_map(), diagonal_channel())
    grid = np.linspace(0.0, 1.0, 9)
    for a in grid:
        for gam in grid:
            bmax = axial_beta_max(a, gam)
            yield from (axial_map(a, bmax, gam), axial_map(a, -bmax, gam), axial_map(a, 0.5 * bmax, gam))
    g = np.random.default_rng(12)
    for n_ops in (1, 2, 3, 4):
        for _ in range(25):
            yield _rand_kraus_channel(g, n_ops)
    yield affine_map(np.diag([1.0, 1.0, -1.0, 1.0]))


def test_subtraction_weight_matches_reference():
    for T in _pencil_families():
        sw = subtraction_weight(T)
        assert (sw.w_lo, sw.w_hi) == _reference_weight(T)


def test_subtraction_weight_reference_on_random_affine():
    g = np.random.default_rng(13)
    empty = 0
    for _ in range(120):
        m = np.eye(4)
        m[1:] = g.normal(size=(3, 4)) * g.uniform(0.1, 1.0)
        T = QubitStochasticMap(kind="affine", bloch=m)
        try:
            expected = _reference_weight(T)
        except EmptyInterval as exc:
            empty += 1
            with pytest.raises(EmptyInterval) as got:
                subtraction_weight(T)
            assert str(got.value) == str(exc)
        else:
            sw = subtraction_weight(T)
            assert (sw.w_lo, sw.w_hi) == expected
    assert 0 < empty < 120  # both branches are exercised


def test_subtraction_weight_is_one_stacked_solve(monkeypatch):
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, _counted(getattr(np.linalg, name), calls))
    g = np.random.default_rng(14)
    maps = [_rand_kraus_channel(g, n_ops) for n_ops in (1, 2, 3, 4)]
    maps += [identity_map(), dephased_amplitude_damping(0.4), depolarizing_map(0.5),
             axial_map(0.3, axial_beta_max(0.3, 0.8), 0.8)]
    for T in maps:
        calls.clear()
        subtraction_weight(T)
        assert sorted(calls) == ["eigh", "eigvals"]
        calls.clear()
        subtraction_weight(T)  # the map's record holds the weight
        assert calls == []
    # affine_map's positivity check is the map's one solve
    T = affine_map(_rand_kraus_channel(g, 3).bloch)
    calls.clear()
    subtraction_weight(T)
    assert calls == []


def test_length_two_decomposition_forms_the_pencil_once(monkeypatch):
    forms, calls = [], []
    monkeypatch.setattr(qubitmaps, "_det_form", _counted(qubitmaps._det_form, forms))
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _counted(getattr(np.linalg, name), calls))
    g = np.random.default_rng(15)
    rho = random_density(2, rank=2, seed=g)
    pure = pure_projector(random_pure(2, seed=g))  # channel_entanglement runs no solver here
    for T in (_rand_kraus_channel(g, 3), axial_map(0.3, 0.4, 0.8)):
        forms.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePencil)
            length_two_decomposition(T, rho)
            sp = states.spectrum(rho)
            calls.clear()
            length_two_decomposition(T, rho)
            assert calls == ["eigh"]  # the state's spectrum; the cut reads the weight's eigh
            calls.clear()
            length_two_decomposition(T, sp)
            assert calls == []
        map_concurrence(T, rho)
        channel_entanglement(T, pure)
        subtraction_weight(T)
        assert len(forms) == 1


def test_kraus_map_bloch_matches_per_operator_sum():
    g = np.random.default_rng(16)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    for n_ops in (1, 2, 3, 4):
        for _ in range(10):
            ops = _rand_kraus_ops(g, n_ops)
            expected = np.array([
                [sum(np.trace(sk @ E @ sn @ E.conj().T) for E in ops).real / 2.0 for sn in paulis]
                for sk in paulis
            ])
            assert np.max(np.abs(kraus_map(ops).bloch - expected)) <= 1e-15


def test_subtracted_det_matches_determinants():
    g = np.random.default_rng(17)
    maps = [_rand_kraus_channel(g, n_ops) for n_ops in (1, 2, 3, 4)]
    maps += [axial_map(0.3, 0.5, 0.8), depolarizing_map(0.6), identity_map()]
    for T in maps:
        for w in (0.0, subtraction_weight(T).w, tangle_weight(T), 1.0):
            for _ in range(5):
                for rho in (random_density(2, seed=g), pure_projector(random_pure(2, seed=g))):
                    direct = 4.0 * (np.linalg.det(apply_map(T, rho)).real - w * np.linalg.det(rho).real)
                    assert abs(qubitmaps._subtracted_det(T, rho, w) - max(0.0, direct)) <= 1e-14
