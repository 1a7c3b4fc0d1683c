import numpy as np
import pytest

from roofext import (
    ConfigError,
    SolverConfig,
    bell_state,
    det_output_objective,
    diag_entropy_objective,
    diagonal_channel,
    flatness_check,
    maximize_roof,
    maximally_mixed,
    minimize_roof,
    output_entropy_objective,
    pure_projector,
    random_density,
    sqrt_det_output_objective,
    theta_form_objective,
    verify_roof_point,
    werner_state,
    wootters_conjugation,
)
from roofext.diagonal import diag_entropy, ed_qubit
from roofext.measures import partial_trace_kraus, von_neumann_entropy
from roofext.qubitmaps import apply_map, dephased_amplitude_damping
from roofext.solver import stiefel_retract

LIGHT = SolverConfig(members=6, restarts=6, max_iters=600, seed=0)


def test_stiefel_retract_is_isometry(rng):
    G = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    V = stiefel_retract(G)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)


def test_bell_sqrt_det_roof():
    # sqrt-det of the marginal: 1/2 on a Bell state, for any decomposition
    a1, a2 = partial_trace_kraus()
    obj = sqrt_det_output_objective(kraus=(a1, a2))
    rho = pure_projector(bell_state("phi+"))
    res = minimize_roof(obj, rho, SolverConfig(members=2, restarts=2, max_iters=200, seed=0))
    assert abs(res.value - 0.5) < 1e-8


def test_werner_roof_value():
    theta = wootters_conjugation() / 2.0
    res = minimize_roof(theta_form_objective(theta), werner_state(0.5), LIGHT)
    assert abs(res.value - 0.125) < 2e-3
    assert res.decomposition.reconstruction_error(werner_state(0.5)) < 1e-8


def test_separable_roof_is_zero():
    theta = wootters_conjugation() / 2.0
    res = minimize_roof(theta_form_objective(theta), maximally_mixed(4), LIGHT)
    assert res.value < 1e-6


def test_concave_roof_maximally_mixed():
    res = maximize_roof(theta_form_objective(wootters_conjugation()), maximally_mixed(4), LIGHT)
    assert abs(res.value - 1.0) < 2e-3


def test_diag_entropy_roofs(rng):
    omega = random_density(2, rank=2, seed=rng)
    cfg = SolverConfig(members=4, restarts=4, max_iters=500, seed=1)
    lo = minimize_roof(diag_entropy_objective(), omega, cfg)
    hi = maximize_roof(diag_entropy_objective(), omega, cfg)
    assert abs(lo.value - ed_qubit(omega)) < 2e-3
    assert abs(hi.value - diag_entropy(omega)) < 2e-3
    assert lo.value <= hi.value


def test_minimize_is_below_random_point(rng):
    theta = wootters_conjugation() / 2.0
    obj = theta_form_objective(theta)
    rho = random_density(4, rank=3, seed=rng)
    res = minimize_roof(obj, rho, LIGHT)
    spectral = verify_roof_point(obj, _spectral(rho))
    assert res.value <= spectral + 1e-8


def _spectral(rho):
    from roofext import PureDecomposition, spectral_decomposition

    vals, vecs = spectral_decomposition(rho)
    keep = vals > 1e-12
    return PureDecomposition(
        tuple(float(v) for v in vals[keep]), tuple(vecs[:, i] for i in np.flatnonzero(keep))
    )


def test_output_entropy_on_pure_state():
    # pure input: every decomposition is trivial, the roof is S(T(pi))
    T = dephased_amplitude_damping(0.35)
    psi = np.array([0.8, 0.6], dtype=complex)
    rho = pure_projector(psi)
    obj = output_entropy_objective(bloch=T.bloch)
    res = minimize_roof(obj, rho, SolverConfig(members=2, restarts=2, max_iters=200, seed=0))
    assert abs(res.value - von_neumann_entropy(apply_map(T, rho))) < 1e-6


def test_det_and_sqrt_det_agree_on_pure(rng):
    T = dephased_amplitude_damping(0.2)
    rho = pure_projector(np.array([0.6, 0.8j], dtype=complex))
    cfg = SolverConfig(members=2, restarts=2, max_iters=200, seed=0)
    v_det = minimize_roof(det_output_objective(bloch=T.bloch), rho, cfg).value
    v_sqrt = minimize_roof(sqrt_det_output_objective(bloch=T.bloch), rho, cfg).value
    assert abs(v_det - v_sqrt**2) < 1e-8


def test_flatness_check_on_diagonal_channel(rng):
    from roofext.diagonal import ed_qubit_flat_pair

    omega = random_density(2, rank=2, seed=rng)
    dec = ed_qubit_flat_pair(omega)
    flat, spread, vals = flatness_check(diag_entropy_objective(), dec, tol=1e-8)
    assert flat and len(vals) == 2


def test_member_count_validation(rng):
    rho = random_density(4, rank=3, seed=rng)
    with pytest.raises(ConfigError):
        minimize_roof(
            theta_form_objective(wootters_conjugation()),
            rho,
            SolverConfig(members=2),  # fewer members than rank
        )


def test_solver_is_deterministic():
    theta = wootters_conjugation() / 2.0
    rho = werner_state(0.7)
    cfg = SolverConfig(members=6, restarts=3, max_iters=300, seed=42)
    v1 = minimize_roof(theta_form_objective(theta), rho, cfg).value
    v2 = minimize_roof(theta_form_objective(theta), rho, cfg).value
    assert v1 == v2


def test_diagonal_channel_objective_matches_bloch(rng):
    # diag-entropy objective equals entropy-out of the diagonal channel
    omega = random_density(2, rank=2, seed=rng)
    dec = _spectral(omega)
    T = diagonal_channel()
    v1 = verify_roof_point(diag_entropy_objective(), dec)
    v2 = verify_roof_point(output_entropy_objective(bloch=T.bloch), dec)
    assert abs(v1 - v2) < 1e-10


def test_stop_reason_armijo_is_not_converged():
    # with tol = 0 neither the gradient test nor the stall count can fire, so
    # the descent ends when backtracking finds no decrease at the noise floor
    cfg = SolverConfig(members=4, restarts=2, max_iters=400, tol=0.0, seed=0)
    res = minimize_roof(diag_entropy_objective(), random_density(2, seed=3), cfg)
    assert res.stop_reason == "armijo"
    assert res.converged is False


def test_stop_reason_gradient_is_converged():
    omega = random_density(2, seed=3)
    cfg = SolverConfig(members=4, restarts=2, max_iters=400, tol=1e-6, seed=0)
    res = minimize_roof(diag_entropy_objective(), omega, cfg)
    assert res.stop_reason == "gradient"
    assert res.converged is True
    assert abs(res.value - ed_qubit(omega)) < 1e-8
