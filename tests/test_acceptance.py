"""Acceptance gate: ten criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the ACCEPTANCE-nn lines.
Tolerances are pinned here and must not be loosened.
"""

import io
import subprocess
import sys

import numpy as np
import pytest

import roofext as rx
from roofext import verify
from roofext.diagonal import diag_entropy, ed_qubit, ed_qubit_flat_pair
from roofext.measures import partial_trace_kraus
from roofext.qubitmaps import (
    SubtractionWeight,
    axial_concurrence_weight,
    axial_tangle_weight,
)
from roofext.solver import flatness_check, theta_form_objective, verify_roof_point

LOG2 = float(np.log(2.0))


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE-{num:02d} {status}" + (f"  [{detail}]" if detail else "")
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def fifty_states():
    g = np.random.default_rng(20250825)
    return [rx.random_density(4, rank=1 + i % 4, seed=g) for i in range(50)]


def test_acceptance_01_wootters_anchors():
    bell = rx.pure_projector(rx.bell_state("phi+"))
    dev_c = abs(rx.concurrence_2qubit(bell).value - 1.0)
    dev_e = abs(rx.eof_2qubit(bell).value - LOG2)
    prod = rx.pure_projector(rx.product_pure([0.6, 0.8j], [1.0, 1.0] / np.sqrt(2.0)))
    dev_p = max(rx.concurrence_2qubit(prod).value, rx.eof_2qubit(prod).value)
    ok = dev_c <= 1e-10 and dev_e <= 1e-10 and dev_p <= 1e-10
    _report(1, ok, f"bell C dev {dev_c:.2e}, eof dev {dev_e:.2e}, product {dev_p:.2e}")


def test_acceptance_02_closed_form_vs_solver(fifty_states):
    a1, a2 = partial_trace_kraus()
    obj = rx.sqrt_det_output_objective(kraus=(a1, a2))
    worst_gap = 0.0
    worst_under = 0.0
    for i, rho in enumerate(fifty_states):
        closed = rx.concurrence_2qubit(rho).value
        rank = rx.spectrum(rho).rank
        cfg = rx.SolverConfig(
            members=max(4, 2 * rank), restarts=4, max_iters=500, stall_iters=30, seed=i
        )
        numeric = 2.0 * rx.minimize_roof(obj, rho, cfg).value
        if numeric < 0.02:
            # near-zero roofs sit on the sqrt-det kink where descent is slow;
            # escalate effort whenever the solver itself lands in that regime
            cfg = rx.SolverConfig(members=16, restarts=8, max_iters=3000, stall_iters=150, seed=i)
            numeric = min(numeric, 2.0 * rx.minimize_roof(obj, rho, cfg).value)
        worst_gap = max(worst_gap, abs(closed - numeric))
        worst_under = max(worst_under, closed - numeric)
    ok = worst_gap <= 2e-3 and worst_under <= 1e-10
    _report(2, ok, f"max |closed-solver| {worst_gap:.2e}, max closed-solver {worst_under:.2e}")


def test_acceptance_03_flat_decomposition_contract(fifty_states):
    theta = rx.wootters_conjugation() / 2.0
    obj = theta_form_objective(theta)
    worst_rec = worst_spread = worst_avg = 0.0
    for rho in fifty_states:
        dec = rx.flat_optimal_decomposition(theta, rho, mode="convex")
        worst_rec = max(worst_rec, dec.reconstruction_error(rho))
        _, spread, _ = flatness_check(obj, dec, tol=1e-8)
        worst_spread = max(worst_spread, spread)
        avg = verify_roof_point(obj, dec)
        closed = rx.concurrence_2qubit(rho).value
        worst_avg = max(worst_avg, abs(2.0 * avg - closed))
    ok = worst_rec <= 1e-8 and worst_spread <= 1e-8 and worst_avg <= 1e-8
    _report(3, ok, f"rec {worst_rec:.2e}, spread {worst_spread:.2e}, avg dev {worst_avg:.2e}")


BLOCH_GRID = [
    (-0.6, 0.1, -0.4),
    (-0.3, 0.0, 0.5),
    (0.0, 0.2, 0.3),
    (0.5, -0.1, 0.0),
    (0.2, 0.4, -0.3),
    (0.0, 0.0, 0.0),
    (0.7, 0.0, 0.1),
    (0.1, -0.5, 0.2),
    (-0.2, -0.2, 0.6),
]


def test_acceptance_04_diagonal_channel_grid():
    obj = rx.diag_entropy_objective()
    worst_min = worst_max = 0.0
    for i, x in enumerate(BLOCH_GRID):
        omega = rx.bloch_to_qubit(x)
        cfg = rx.SolverConfig(members=4, restarts=4, max_iters=500, stall_iters=30, seed=i)
        lo = rx.minimize_roof(obj, omega, cfg).value
        hi = rx.maximize_roof(obj, omega, cfg).value
        worst_min = max(worst_min, abs(lo - ed_qubit(omega)))
        worst_max = max(worst_max, abs(hi - diag_entropy(omega)))
    ok = worst_min <= 2e-3 and worst_max <= 2e-3
    _report(4, ok, f"min dev {worst_min:.2e}, max dev {worst_max:.2e}")


def test_acceptance_05_subtraction_weight_family():
    worst_w = 0.0
    worst_cert = np.inf
    g = np.random.default_rng(31415)
    for gamma in np.linspace(0.1, 0.9, 9):
        T = rx.dephased_amplitude_damping(gamma)
        sw = rx.subtraction_weight(T)
        worst_w = max(worst_w, abs(sw.w - gamma))
        q_t, q_det = rx.det_T_form(T)
        M = q_t - sw.w * q_det
        xs = g.normal(size=(10_000, 4))
        xs[:, 0] = 1.0  # trace-one Hermitian samples
        vals = np.einsum("ij,jk,ik->i", xs, M, xs)
        worst_cert = min(worst_cert, float(vals.min()))
    ok = worst_w <= 1e-10 and worst_cert >= -1e-9
    _report(5, ok, f"max |w-gamma| {worst_w:.2e}, min certificate {worst_cert:.2e}")


def test_acceptance_06_axial_grid_cross_validation():
    grid = np.linspace(0.1, 0.9, 9)
    agree = total = 0
    for a in grid:
        for g in grid:
            bmax = rx.axial_beta_max(a, g)
            for f in grid:
                b = f * bmax
                closed = axial_concurrence_weight(a, b, g)
                pencil = rx.subtraction_weight(rx.axial_map(a, b, g)).w
                total += 1
                if abs(closed - pencil) <= 1e-8:
                    agree += 1
    frac = agree / total

    rng = np.random.default_rng(606)
    worst_tau = 0.0
    for i in range(30):
        a, g = rng.uniform(0.05, 0.95, size=2)
        b = rng.uniform(0.0, 0.999) * rx.axial_beta_max(a, g)
        T = rx.axial_map(a, b, g)
        rho = rx.random_density(2, rank=2, seed=rng)
        closed = rx.axial_tangle(a, b, g, rho)
        cfg = rx.SolverConfig(members=4, restarts=4, max_iters=500, stall_iters=30, seed=i)
        numeric = 4.0 * rx.minimize_roof(rx.det_output_objective(bloch=T.bloch), rho, cfg).value
        worst_tau = max(worst_tau, abs(closed - numeric))

    buf = io.StringIO()
    verify.run_suites(["subtraction"], trials=1, seed=0, stream=buf)
    prints_readings = "resolved reading:" in buf.getvalue()

    ok = frac >= 0.99 and worst_tau <= 5e-3 and prints_readings
    _report(
        6,
        ok,
        f"grid agreement {agree}/{total}, tangle dev {worst_tau:.2e}, "
        f"readings printed {prints_readings}",
    )


def test_acceptance_07_bound_inequalities():
    rng = np.random.default_rng(707)
    worst_tc = -np.inf
    for _ in range(1000):
        a, g = rng.uniform(0.02, 0.98, size=2)
        b = rng.uniform(0.0, 0.999) * rx.axial_beta_max(a, g)
        T = rx.axial_map(a, b, g)
        rho = rx.random_density(2, rank=2, seed=rng)
        wc = axial_concurrence_weight(a, b, g)
        csq = rx.concurrence_sq(T, rho, SubtractionWeight(wc, wc, wc))
        tau = rx.axial_tangle(a, b, g, rho)
        worst_tc = max(worst_tc, csq - tau)
    ineq1 = worst_tc <= 1e-9

    worst_e = -np.inf
    for i in range(100):
        a, g = rng.uniform(0.05, 0.95, size=2)
        b = rng.uniform(0.0, 0.98) * rx.axial_beta_max(a, g)
        T = rx.axial_map(a, b, g)
        rho = rx.random_density(2, rank=2, seed=rng)
        cfg = rx.SolverConfig(members=4, restarts=3, max_iters=400, stall_iters=30, seed=i)
        rep = rx.channel_entanglement(T, rho, cfg)
        worst_e = max(worst_e, rep.bounds[0] - rep.value)
    ineq2 = worst_e <= 5e-3

    gap_state = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    tau = rx.axial_tangle(1.0, 0.0, 0.5, gap_state)
    csq = rx.concurrence_sq(rx.dephased_amplitude_damping(0.5), gap_state)
    strict = tau > csq + 1e-6

    ok = ineq1 and ineq2 and strict
    _report(
        7,
        ok,
        f"max C^2-tau {worst_tc:.2e}, max xi(C)-E {worst_e:.2e}, "
        f"strict gap {tau - csq:.4f}",
    )


def test_acceptance_08_embedding_relation():
    spec = rx.qubit_split_embedding()
    obj = rx.diag_entropy_objective()
    rng = np.random.default_rng(808)
    worst = 0.0
    for i in range(20):
        omega = rx.random_density(2, rank=2, seed=rng)
        img = rx.embed_state(spec, omega)
        cfg3 = rx.SolverConfig(members=6, restarts=4, max_iters=500, stall_iters=30, seed=i)
        cfg2 = rx.SolverConfig(members=4, restarts=4, max_iters=500, stall_iters=30, seed=i)
        lhs = rx.minimize_roof(obj, img, cfg3).value
        rhs = rx.minimize_roof(obj, omega, cfg2).value + omega[1, 1].real * LOG2
        worst = max(worst, abs(lhs - rhs))
    relation_ok = worst <= 5e-3

    x1 = 2.0 * np.sqrt(2.0) / 3.0
    omega = rx.bloch_to_qubit([x1, 0.0, 0.13])
    dec = ed_qubit_flat_pair(omega)
    diags = sorted(
        (np.diag(rx.embed_state(spec, rx.pure_projector(s))).real for s in dec.states),
        key=lambda v: float(v[0]),
    )
    pair_dev = max(
        float(np.max(np.abs(diags[0] - np.array([1, 1, 1]) / 3.0))),
        float(np.max(np.abs(diags[1] - np.array([4, 1, 1]) / 6.0))),
    )
    pair_ok = pair_dev <= 1e-12

    ok = relation_ok and pair_ok
    _report(8, ok, f"relation dev {worst:.2e}, embedded pair dev {pair_dev:.2e}")


def test_acceptance_09_h0_experiment():
    v2, _ = rx.h0_min_entropy_experiment(2)
    exact2 = v2 == LOG2
    v3, _ = rx.h0_min_entropy_experiment(3, rx.SolverConfig(restarts=24, max_iters=800, seed=0))
    close3 = abs(v3 - LOG2) <= 1e-3
    v4, _ = rx.h0_min_entropy_experiment(4, rx.SolverConfig(restarts=24, max_iters=800, seed=0))
    probe4 = v4 >= LOG2 - 1e-3  # conjecture probe, logged
    ok = exact2 and close3 and probe4
    _report(
        9,
        ok,
        f"d=2 {v2:.12f}, d=3 {v3:.12f}, d=4 {v4:.12f} (log 2 = {LOG2:.12f})",
    )


def test_acceptance_10_verify_determinism():
    cmd = [
        sys.executable,
        "-m",
        "roofext.cli",
        "verify",
        "--suite",
        "all",
        "--trials",
        "50",
        "--seed",
        "7",
    ]
    r1 = subprocess.run(cmd, capture_output=True, timeout=600)
    r2 = subprocess.run(cmd, capture_output=True, timeout=600)
    identical = r1.stdout == r2.stdout
    clean = r1.returncode == 0 and r2.returncode == 0
    ok = identical and clean
    _report(10, ok, f"byte-identical {identical}, exit codes {r1.returncode}/{r2.returncode}")
