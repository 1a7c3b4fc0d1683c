"""Exact objective gradients against central differences, the S_mu output forms, and kinks."""

import dataclasses

import numpy as np
import pytest

from roofext import (
    RoofObjective,
    SolverConfig,
    det_output_objective,
    diag_entropy_objective,
    maximize_roof,
    minimize_roof,
    output_entropy_objective,
    random_density,
    spectrum,
    sqrt_det_output_objective,
    theta_form_objective,
    wootters_conjugation,
)
from roofext import diagonal, solver
from roofext.diagonal import ed_qubit, h0_min_entropy_experiment
from roofext.measures import partial_trace_kraus
from roofext.qubitmaps import axial_map
from roofext.solver import _output_forms, _output_stats, _roof_closures, stiefel_retract
from roofext.verify import _rand_kraus_channel, _rand_kraus_ops

MAKERS = [sqrt_det_output_objective, det_output_objective, output_entropy_objective]


def _square_root(omega):
    sp = spectrum(omega)
    return sp.factor[:, : sp.rank]


def _assert_gradient_matches(objective, K, V):
    """The exact stacked gradient equals central differences of objective.batch."""
    _, exact = _roof_closures(objective, K)
    _, central = _roof_closures(dataclasses.replace(objective, grad=None), K)
    G, G_fd = exact(V), central(V)
    assert G.shape == V.shape and np.all(np.isfinite(G))
    err = np.max(np.abs(G - G_fd))
    assert err <= 1e-8 * max(1.0, np.max(np.abs(G))), err


def _check_roof_gradient(objective, omega, members, seed):
    rng = np.random.default_rng(seed)
    K = _square_root(omega)
    shape = (3, members, K.shape[1])
    V = stiefel_retract(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    _assert_gradient_matches(objective, K, V)


@pytest.mark.parametrize("d", range(2, 9))
def test_theta_form_gradient(d):
    rng = np.random.default_rng(100 + d)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    _check_roof_gradient(theta_form_objective(A + A.T), random_density(d, seed=rng), 2 * d, d)


def test_theta_form_gradient_uses_the_symmetric_part():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # not symmetric
    _check_roof_gradient(theta_form_objective(A), random_density(3, seed=rng), 6, 7)


@pytest.mark.parametrize("d", range(2, 9))
def test_diag_entropy_gradient(d):
    rng = np.random.default_rng(200 + d)
    _check_roof_gradient(diag_entropy_objective(), random_density(d, seed=rng), 2 * d, d)


@pytest.mark.parametrize("maker", MAKERS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("source", ["kraus d_in=2", "kraus d_in=4", "bloch"])
def test_output_objective_gradient(maker, source):
    rng = np.random.default_rng(300)
    if source == "kraus d_in=2":
        objective, d = maker(kraus=_rand_kraus_ops(rng, 3)), 2
    elif source == "kraus d_in=4":
        objective, d = maker(kraus=partial_trace_kraus()), 4
    else:
        objective, d = maker(bloch=axial_map(0.6, 0.2, 0.7).bloch), 2
    _check_roof_gradient(objective, random_density(d, seed=rng), 2 * d, 301)


@pytest.mark.parametrize("d", [3, 4])
def test_h0_entropy_gradient(monkeypatch, d):
    seen = []

    def spy(objective, K):
        seen.append((objective, K))
        return _roof_closures(objective, K)

    monkeypatch.setattr(diagonal, "_roof_closures", spy)
    h0_min_entropy_experiment(d, SolverConfig(restarts=2, max_iters=5))
    (objective, N), = seen
    assert objective.name == "diag-entropy" and objective.grad is not None
    rng = np.random.default_rng(400 + d)
    a = rng.normal(size=(3, 1, d - 1)) + 1j * rng.normal(size=(3, 1, d - 1))
    _assert_gradient_matches(objective, N, a / np.linalg.norm(a, axis=2, keepdims=True))
    assert np.all(np.isfinite(objective.grad(np.eye(d, dtype=complex)[:, :1])))  # zero amplitudes


def test_maximize_negates_the_gradient(monkeypatch):
    seen = []
    minimize = solver.minimize_roof

    def spy(objective, omega, config=None):
        seen.append(objective)
        return minimize(objective, omega, config)

    monkeypatch.setattr(solver, "minimize_roof", spy)
    omega = random_density(2, seed=5)
    maximize_roof(diag_entropy_objective(), omega, SolverConfig(members=4, restarts=2, max_iters=5))
    (neg,) = seen
    Z = np.random.default_rng(5).normal(size=(2, 6)) + 0j
    np.testing.assert_array_equal(neg.grad(Z), -diag_entropy_objective().grad(Z))
    _check_roof_gradient(neg, omega, 4, 5)


def _kraus_loop_stats(ops, Z):
    """p and det of sum_E E z z^H E^H, one Kraus operator at a time (the reference)."""
    t00 = t11 = 0.0
    t01 = 0.0 + 0.0j
    for E in ops:
        W = E @ Z
        t00 = t00 + np.abs(W[0]) ** 2
        t11 = t11 + np.abs(W[1]) ** 2
        t01 = t01 + W[0] * W[1].conj()
    return t00 + t11, t00 * t11 - np.abs(t01) ** 2


@pytest.mark.parametrize("ops", ["random", "partial-trace"])
def test_output_forms_match_kraus_loop(ops):
    rng = np.random.default_rng(11)
    kraus = _rand_kraus_ops(rng, 4) if ops == "random" else partial_trace_kraus()
    d = kraus[0].shape[1]
    Z = 3.0 * (rng.normal(size=(d, 50)) + 1j * rng.normal(size=(d, 50)))
    p, det = _output_stats(_output_forms(kraus=kraus), Z)
    p_ref, det_ref = _kraus_loop_stats(kraus, Z)
    scale = np.max(p_ref)
    assert np.max(np.abs(p - p_ref)) <= 1e-14 * scale
    assert np.max(np.abs(det - det_ref)) <= 1e-14 * scale**2


def test_output_forms_of_a_kraus_map_match_its_bloch_matrix():
    T = _rand_kraus_channel(np.random.default_rng(12), 3)
    S_kraus, S_bloch = _output_forms(kraus=T.kraus), _output_forms(bloch=T.bloch)
    np.testing.assert_allclose(S_kraus, S_bloch, atol=1e-14)


def test_kink_columns_give_finite_gradients():
    theta = theta_form_objective(wootters_conjugation() / 2.0)
    product = np.zeros((4, 1), dtype=complex)
    product[0] = 1.0  # |00>: the form and the marginal determinant both vanish
    zero = np.zeros((4, 1), dtype=complex)
    for Z in (product, zero):
        np.testing.assert_array_equal(theta.grad(Z), 0.0)
    pt = partial_trace_kraus()
    np.testing.assert_array_equal(sqrt_det_output_objective(kraus=pt).grad(product), 0.0)
    for maker in MAKERS:
        for Z in (product, zero):
            assert np.all(np.isfinite(maker(kraus=pt).grad(Z)))
    # a pure qubit output of a unitary channel, and the maximally mixed output of
    # the completely depolarizing map (s = 0)
    psi = np.array([[0.6], [0.8j]])
    depolarize = np.diag([1.0, 0.0, 0.0, 0.0])
    for maker in MAKERS:
        for objective in (maker(kraus=(np.eye(2),)), maker(bloch=depolarize)):
            for Z in (psi, np.zeros((2, 1))):
                assert np.all(np.isfinite(objective.grad(Z)))
    basis = np.eye(3, dtype=complex)[:, :1]  # zero amplitudes in the logs
    assert np.all(np.isfinite(diag_entropy_objective().grad(basis)))
    assert np.all(np.isfinite(diag_entropy_objective().grad(np.zeros((3, 1)))))


def test_custom_objective_solves_by_finite_differences():
    custom = RoofObjective("custom-diag-entropy", diag_entropy_objective().batch)
    assert custom.grad is None
    omega = random_density(2, seed=3)
    cfg = SolverConfig(members=4, restarts=2, max_iters=400, tol=1e-6, seed=0)
    res = minimize_roof(custom, omega, cfg)
    assert res.objective == "custom-diag-entropy"
    assert abs(res.value - ed_qubit(omega)) < 1e-8
