"""Each benchmark check passes the program's answer and rejects a deliberately wrong one.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import roofext as rx  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def drop_member(dec, k=0):
    """The decomposition without member k, weights renormalized."""
    w = [p for i, p in enumerate(dec.weights) if i != k]
    s = [x for i, x in enumerate(dec.states) if i != k]
    return types.SimpleNamespace(weights=tuple(np.array(w) / sum(w)), states=tuple(s))


def test_concurrence_and_eof(rng):
    rho = workloads.wishart(rng, 4, 2)
    c = rx.concurrence_2qubit(rho).value
    e = rx.eof_2qubit(rho).value
    assert checks.check_concurrence(c, rho) == []
    assert checks.check_eof(e, rho) == []
    assert checks.check_concurrence(c + 1e-7, rho)
    assert checks.check_eof(e - 1e-7, rho)
    assert checks.check_concurrence(float("nan"), rho)


def test_roof_values(rng):
    A, omega = workloads.random_symmetric(rng, 5), workloads.wishart(rng, 5, 5)
    convex, concave = rx.roof_values(A, omega)
    assert checks.check_roof_values((convex, concave), A, omega) == []
    assert checks.check_roof_values((convex, concave * (1 + 1e-8)), A, omega)
    assert checks.check_roof_values((convex + 1e-8, concave), A, omega)


@pytest.mark.parametrize("mode", ["convex", "concave"])
def test_flat_decomposition(rng, mode):
    A, omega = workloads.random_symmetric(rng, 3), workloads.wishart(rng, 3, 3)
    dec = rx.flat_optimal_decomposition(A, omega, mode=mode)
    assert checks.check_flat(dec, A, omega, mode) == []
    assert checks.check_flat(drop_member(dec), A, omega, mode)
    other = "concave" if mode == "convex" else "convex"
    assert checks.check_flat(dec, A, omega, other)  # averages to the other roof
    w = np.array(dec.weights)
    w[0], w[1] = w[0] + 1e-6, w[1] - 1e-6
    assert checks.check_flat(types.SimpleNamespace(weights=tuple(w), states=dec.states), A, omega, mode)


def test_two_qubit_flat_decomposition(rng):
    rho = workloads.wishart(rng, 4, 3)
    dec = rx.flat_optimal_decomposition(workloads.THETA_2Q, rho, mode="convex")
    assert checks.check_flat(dec, workloads.THETA_2Q, rho, "convex") == []
    spectral = types.SimpleNamespace(
        weights=tuple(np.linalg.eigvalsh(rho)[::-1][:3]),
        states=tuple(np.linalg.eigh(rho)[1][:, ::-1][:, :3].T),
    )
    assert checks.check_flat(spectral, workloads.THETA_2Q, rho, "convex")  # not flat


def test_ed_qubit_and_pair(rng):
    omega = workloads.wishart(rng, 2, 2)
    value = rx.ed_qubit(omega)
    pair = rx.ed_qubit_flat_pair(omega)
    assert checks.check_ed_qubit(value, omega) == []
    assert checks.check_ed_pair(pair, omega) == []
    assert checks.check_ed_qubit(value + 1e-9, omega)
    assert checks.check_ed_pair(drop_member(pair), omega)
    vals, vecs = np.linalg.eigh(omega)
    spectral = types.SimpleNamespace(weights=tuple(vals), states=(vecs[:, 0], vecs[:, 1]))
    assert checks.check_ed_pair(spectral, omega)


def test_kraus_map(rng):
    ops = workloads.random_kraus(rng, 3)
    T = rx.kraus_map(ops)
    assert checks.check_kraus_map(T, ops) == []
    bad = dataclasses.replace(T, bloch=T.bloch + 1e-8)
    assert checks.check_kraus_map(bad, ops)


def test_subtraction_weight_pencil(rng):
    params = workloads.random_axial(rng, -1.0)
    T = rx.axial_map(*params)
    sw = rx.subtraction_weight(T)
    assert checks.check_subtraction_weight(sw, T.bloch, axial=params) == []
    assert checks.check_subtraction_weight(sw, T.bloch) == []
    lo, hi = sw.w_lo, sw.w_hi
    # w_lo too high: the pencil is still PSD just below it
    up = dataclasses.replace(sw, w_lo=lo + 1e-3, w=lo + 1e-3)
    assert checks.check_subtraction_weight(up, T.bloch)
    # w_lo too low: the pencil is not PSD there
    down = dataclasses.replace(sw, w_lo=lo - 1e-3, w=lo - 1e-3)
    assert checks.check_subtraction_weight(down, T.bloch)
    # w_hi beyond the interval (or beyond 1)
    assert checks.check_subtraction_weight(dataclasses.replace(sw, w_hi=hi + 1e-2), T.bloch)
    # an axial weight off its closed form by more than 1e-8
    off = dataclasses.replace(sw, w_lo=lo + 1e-7, w=lo + 1e-7)
    assert checks.check_subtraction_weight(off, T.bloch, axial=params)


def test_length_two_and_map_concurrence(rng):
    ops = workloads.random_kraus(rng, 3)
    omega = workloads.wishart(rng, 2, 2)
    T = rx.kraus_map(ops)
    sw = rx.subtraction_weight(T)
    report = rx.map_concurrence(T, omega)
    dec = rx.length_two_decomposition(T, omega)
    assert checks.check_length_two(dec, omega) == []
    assert checks.check_map_concurrence(report, T.bloch, dec, sw) == []
    assert checks.check_length_two(drop_member(dec), omega)
    assert checks.check_map_concurrence(dataclasses.replace(report, value=report.value + 1e-7), T.bloch, dec, sw)
    assert checks.check_map_concurrence(dataclasses.replace(report, extras={}), T.bloch, dec, sw)
    vals, vecs = np.linalg.eigh(omega)  # a decomposition that does not attain the roof
    spectral = types.SimpleNamespace(weights=tuple(vals), states=(vecs[:, 0], vecs[:, 1]))
    assert checks.check_length_two(spectral, omega) == []
    assert checks.check_map_concurrence(report, T.bloch, spectral, sw)


def test_two_kraus_concurrence(rng):
    ops = workloads.random_kraus(rng, 2)
    omega = workloads.wishart(rng, 2, 2)
    T = rx.kraus_map(ops)
    sw = rx.subtraction_weight(T)
    report = rx.map_concurrence(T, omega)
    assert checks.check_two_kraus_concurrence(report, ops, omega, sw) == []
    bad = dataclasses.replace(report, value=report.value * (1 + 1e-8))
    assert checks.check_two_kraus_concurrence(bad, ops, omega, sw)


def test_axial_tangle(rng):
    params = workloads.random_axial(rng, 1.0)
    omega = workloads.wishart(rng, 2, 2)
    tau = rx.axial_tangle(*params, omega)
    c = rx.map_concurrence(rx.axial_map(*params), omega).value
    assert checks.check_axial_tangle(tau, params, omega, c) == []
    assert checks.check_axial_tangle(tau + 1e-9, params, omega, c)
    assert checks.check_axial_tangle(tau, params, omega, np.sqrt(tau) + 1e-3)  # tau < C^2


def test_solver_brackets():
    assert checks.check_solver("x", 0.5 + 1e-4, 0.5) == []
    assert checks.check_solver("x", 0.5 - 1e-9, 0.5)  # a minimum below the closed form
    assert checks.check_solver("x", 0.5 + 3e-3, 0.5)  # too far above it
    assert checks.check_solver("x", 0.5 - 1e-4, 0.5, mode="max") == []
    assert checks.check_solver("x", 0.5 + 1e-9, 0.5, mode="max")
    assert checks.check_solver("x", 0.5 - 3e-3, 0.5, mode="max")
    assert checks.check_solver("x", float("nan"), 0.5)


def test_solver_average(rng):
    omega = workloads.wishart(rng, 2, 2)
    cfg = rx.SolverConfig(members=4, restarts=2, max_iters=200, stall_iters=30, seed=1)
    res = rx.minimize_roof(rx.diag_entropy_objective(), omega, cfg)
    member = lambda s: float(np.sum(checks.eta(np.abs(s) ** 2)))  # noqa: E731
    assert checks.check_solver_average("diag", res.value, res.decomposition, member) == []
    assert checks.check_solver_average("diag", res.value + 1e-8, res.decomposition, member)
    assert checks.check_solver_average("diag", res.value, drop_member(res.decomposition), member)


def test_h0():
    value, psi = rx.h0_min_entropy_experiment(3, rx.SolverConfig(restarts=4, max_iters=200, seed=0))
    entropy = lambda s: float(np.sum(checks.eta(np.abs(s) ** 2)))  # noqa: E731
    assert checks.check_h0(3, value, psi) == []
    assert checks.check_h0(3, value + 1e-6, psi)  # not the entropy of the returned state
    uniform_ish = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)  # zero sum, entropy 0.87 > ln 2
    assert checks.check_h0(3, entropy(uniform_ish), uniform_ish)
    shifted = psi + np.array([1e-6, 0.0, 0.0])
    shifted /= np.linalg.norm(shifted)  # amplitudes no longer sum to zero
    assert checks.check_h0(3, entropy(shifted), shifted)


def test_runner_counts_raised_ops_and_failed_checks():
    def boom(o):
        raise rx.RoofextError("boom")

    case = workloads.Case(
        "demo",
        [workloads.Step("a", lambda o: 1.0), workloads.Step("b", boom), workloads.Step("c", lambda o: 2.0)],
        lambda o: [],
    )
    out = run.Outcome()
    run.run_case(case, out, run.plain)
    assert (out.attempted, out.failed, out.check_errors) == (3, 2, [])
    wrong = workloads.Case("demo", [workloads.Step("a", lambda o: 1.0)], lambda o: checks.check_solver("a", o["a"], 2.0))
    out = run.Outcome()
    run.run_case(wrong, out, run.plain)
    assert (out.attempted, out.failed, len(out.check_errors)) == (1, 0, 1)
