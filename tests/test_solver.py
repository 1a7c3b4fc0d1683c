import warnings

import numpy as np
import pytest

from roofext import (
    ConfigError,
    PureDecomposition,
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
    spectrum,
    sqrt_det_output_objective,
    theta_form_objective,
    verify_roof_point,
    werner_state,
    wootters_conjugation,
)
from roofext import solver
from roofext.diagonal import diag_entropy, ed_qubit
from roofext.measures import partial_trace_kraus, von_neumann_entropy
from roofext.qubitmaps import apply_map, dephased_amplitude_damping
from roofext.solver import _descend, _roof_closures, stiefel_retract

LIGHT = SolverConfig(members=6, restarts=6, max_iters=600, seed=0)


def test_stiefel_retract_is_isometry(rng):
    G = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    V = stiefel_retract(G)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)


def test_stiefel_retract_stack_matches_slices(rng):
    G = rng.normal(size=(5, 7, 3)) + 1j * rng.normal(size=(5, 7, 3))
    stacked = stiefel_retract(G)
    for i in range(5):
        np.testing.assert_array_equal(stacked[i], stiefel_retract(G[i]))


def _qr_retract(V):
    """The retraction as np.linalg.qr gives it: Q with its columns signed by diag(R)."""
    Q, R = np.linalg.qr(V)
    return Q * np.where(np.diagonal(R, axis1=-2, axis2=-1).real < 0.0, -1.0, 1.0)[..., None, :]


def test_stiefel_retract_is_numpy_qr_bit_for_bit(rng):
    shapes = [(0, 6, 3), (1, 6, 3), (64, 8, 4), (7, 3)]
    shapes += [(3, L, r) for r in range(1, 5) for L in range(r, 17)]
    for shape in shapes:
        G = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        G_in = G.copy()
        V = stiefel_retract(G)
        assert np.array_equal(G, G_in), "the LAPACK kernels overwrite their input; V is copied first"
        assert V.shape == shape and np.array_equal(V, _qr_retract(G)), shape


def test_stiefel_retract_of_nan_is_nan_without_warning():
    G = np.full((2, 4, 2), np.nan + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = stiefel_retract(G)
    assert np.isnan(V).all()
    assert np.isnan(_qr_retract(G)).all()


def _closures(objective, omega):
    sp = spectrum(omega)
    return _roof_closures(objective, sp.factor[:, : sp.rank]), sp.rank


def _random_stack(rng, n, L, r):
    return stiefel_retract(rng.normal(size=(n, L, r)) + 1j * rng.normal(size=(n, L, r)))


def _serial_descend(value_fn, grad_fn, V, cfg):
    """(F, iterations, reason) of one restart, by the loop the stacked descent replaced."""
    value, grad = (lambda W: value_fn(W[None])[0]), (lambda W: grad_fn(W[None])[0])
    F, step, stall = value(V), 1.0, 0
    for it in range(1, cfg.max_iters + 1):
        G = grad(V)
        P = G - V @ ((V.conj().T @ G + G.conj().T @ V) / 2.0)
        g2 = float(np.sum(np.abs(P) ** 2))
        scale = max(1.0, abs(F))
        if g2 <= (cfg.tol * scale) ** 2:
            return F, it, "gradient"
        s = step
        for _ in range(45):
            Vn = stiefel_retract(V - s * P)
            Fn = value(Vn)
            if Fn <= F - 1e-4 * s * g2:
                break
            s /= 2.0
        else:
            return F, it, "armijo"
        stall = stall + 1 if F - Fn <= cfg.tol * scale else 0
        V, F, step = Vn, Fn, min(s * 2.0, 4.0)
        if stall >= cfg.stall_iters:
            return F, it, "stall"
    return F, cfg.max_iters, "max_iters"


DESCENT_CFG = SolverConfig(max_iters=300, stall_iters=30)
DESCENT_CASES = pytest.mark.parametrize(
    "objective, dim, rank, members",
    [
        (theta_form_objective(wootters_conjugation() / 2.0), 4, 3, 6),
        (sqrt_det_output_objective(kraus=partial_trace_kraus()), 4, 2, 4),
        (diag_entropy_objective(), 2, 2, 4),
    ],
    ids=["theta-form", "sqrt-det-kraus", "diag-entropy"],
)


@DESCENT_CASES
def test_restart_does_not_depend_on_its_stack(rng, objective, dim, rank, members):
    (value_fn, grad_fn), r = _closures(objective, random_density(dim, rank=rank, seed=rng))
    V0 = _random_stack(rng, 6, members, r)
    _, F, its, reasons, _, _ = _descend(value_fn, grad_fn, V0, DESCENT_CFG)
    for i in range(6):
        _, Fi, its_i, reasons_i, _, _ = _descend(value_fn, grad_fn, V0[i : i + 1], DESCENT_CFG)
        assert abs(Fi[0] - F[i]) <= 1e-10
        assert (its_i[0], reasons_i[0]) == (its[i], reasons[i])
        F_ref, its_ref, reason_ref = _serial_descend(value_fn, grad_fn, V0[i], DESCENT_CFG)
        assert abs(F_ref - F[i]) <= 1e-10
        assert (its_ref, reason_ref) == (its[i], reasons[i])


@DESCENT_CASES
@pytest.mark.parametrize("batches", [(2, 4, 8, 16, 15), (1,) * 45])
def test_trial_partition_does_not_change_the_descent(rng, monkeypatch, objective, dim, rank, members, batches):
    # each restart takes its first passing trial, whichever batch holds it
    (value_fn, grad_fn), r = _closures(objective, random_density(dim, rank=rank, seed=rng))
    V0 = _random_stack(rng, 6, members, r)
    V, F, its, reasons, _, _ = _descend(value_fn, grad_fn, V0, DESCENT_CFG)
    monkeypatch.setattr(solver, "_TRIAL_BATCHES", batches)
    V_b, F_b, its_b, reasons_b, _, _ = _descend(value_fn, grad_fn, V0, DESCENT_CFG)
    assert np.array_equal(V_b, V) and np.array_equal(F_b, F)
    assert np.array_equal(its_b, its) and list(reasons_b) == list(reasons)


def test_converged_restart_leaves_the_stack_early(rng):
    (value_fn, grad_fn), r = _closures(diag_entropy_objective(), random_density(2, seed=3))
    cfg = SolverConfig(max_iters=400, tol=1e-6)
    V, _, _, reasons, _, _ = _descend(value_fn, grad_fn, _random_stack(rng, 4, 4, r), cfg)
    V_opt = V[list(reasons).index("gradient")]
    others = _random_stack(rng, 3, 4, r)
    _, F, its, reasons, n_values, n_grads = _descend(
        value_fn, grad_fn, np.concatenate([V_opt[None], others]), cfg
    )
    assert (reasons[0], its[0]) == ("gradient", 1)
    for i in range(3):
        _, Fi, its_i, reasons_i, _, _ = _descend(value_fn, grad_fn, others[i : i + 1], cfg)
        assert its[i + 1] == its_i[0] > 1
        assert reasons[i + 1] == reasons_i[0]
        assert abs(F[i + 1] - Fi[0]) <= 1e-10
    assert n_grads == its.sum()
    assert n_values > n_grads


def test_result_reports_every_restart(rng):
    theta = wootters_conjugation() / 2.0
    rho = random_density(4, rank=2, seed=rng)
    cfg = SolverConfig(members=4, restarts=5, max_iters=200, seed=3)
    lo = minimize_roof(theta_form_objective(theta), rho, cfg)
    hi = maximize_roof(theta_form_objective(theta), rho, cfg)
    for res, best in ((lo, min), (hi, max)):
        assert len(res.restart_values) == len(res.restart_reasons) == 5
        assert res.value == best(res.restart_values)
        assert res.stop_reason == res.restart_reasons[res.restart_values.index(res.value)]
        assert res.grad_evals == res.iterations < res.value_evals  # one gradient per iteration
    assert lo.value <= hi.value


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
    sp = spectrum(rho)
    return PureDecomposition.from_columns(sp.factor[:, : sp.rank])


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


@pytest.mark.parametrize(
    "field,value",
    [
        ("tol", -1.0),
        ("tol", float("nan")),
        ("restarts", 0),
        ("restarts", -2),
        ("max_iters", 0),
        ("stall_iters", 0),
    ],
)
def test_solver_config_rejects_misleading_values(field, value):
    # a negative tol used to be squared into a positive one: every restart
    # then stopped on "gradient" after one step and reported converged
    with pytest.raises(ConfigError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_accepts_its_edges():
    SolverConfig(tol=0.0, restarts=1, max_iters=1, stall_iters=1)


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


def test_gradient_stop_reports_a_small_projected_gradient():
    cfg = SolverConfig(members=4, restarts=2, max_iters=400, tol=1e-6, seed=0)
    for run in (minimize_roof, maximize_roof):
        res = run(diag_entropy_objective(), random_density(2, seed=3), cfg)
        assert res.stop_reason == "gradient"
        assert 0.0 <= res.grad_norm <= cfg.tol * max(1.0, abs(res.value))


def test_early_stop_reports_its_projected_gradient():
    cfg = SolverConfig(members=4, restarts=2, max_iters=3, seed=0)
    res = minimize_roof(diag_entropy_objective(), random_density(2, seed=3), cfg)
    assert res.stop_reason == "max_iters"
    assert res.grad_norm > cfg.tol * max(1.0, abs(res.value))


def test_armijo_search_is_at_most_five_retractions(monkeypatch):
    # each iteration's 45 backtracking trials run as the stacked batches of
    # _TRIAL_BATCHES; a restart that stops on armijo searches through all of them
    log = []
    retract, projected = solver.stiefel_retract, solver._projected
    monkeypatch.setattr(solver, "stiefel_retract", lambda V: log.append("R") or retract(V))
    monkeypatch.setattr(solver, "_projected", lambda V, G: log.append("P") or projected(V, G))
    cfg = SolverConfig(members=4, restarts=2, max_iters=400, tol=0.0, seed=0)
    res = minimize_roof(diag_entropy_objective(), random_density(2, seed=3), cfg)
    assert "armijo" in res.restart_reasons
    # one "P" per lockstep iteration, then one for the final gradient norm
    per_iteration = [chunk.count("R") for chunk in "".join(log).split("P")[1:-1]]
    assert max(per_iteration) == len(solver._TRIAL_BATCHES) == 4
