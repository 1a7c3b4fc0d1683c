"""Cross-module verification suites, also driving `roofext verify`.

A property is a generator over (rng, trials).  It yields each check as a pair
(ok, note), the note printed only when the check fails, and each note that
always prints as a plain str, in print order; `run_suites` tallies them.  The
SUITES table states each property's name, suite and heaviness once, and its
order fixes the seeds: each property draws its own random data from
SeedSequence(seed, spawn_key=(suite_index, property_index)), so results are
byte-identical for a fixed seed regardless of which suites run.  Properties
marked heavy call the numerical roof solver and run ceil(trials/10) cases.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import antilinear, diagonal, measures, qubitmaps, solver, states

SUITE_ORDER = ("wootters", "subtraction", "diagonal", "bounds")


def _fmt(x):
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# shared generators

def _rand_symmetric(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    A = (A + A.T) / 2.0
    return A / max(1.0, np.linalg.norm(A))


def _rand_axial(rng, margin=0.999):
    a = rng.uniform(0.02, 0.98)
    g = rng.uniform(0.02, 0.98)
    f = rng.uniform(0.0, margin)
    b = f * qubitmaps.axial_beta_max(a, g)
    if rng.uniform() < 0.5:
        b = -b
    return qubitmaps.axial_map(a, b, g)


def _rand_standard_two_kraus(rng):
    r0 = rng.uniform(0.05, 0.95)
    r1 = rng.uniform(0.05, 0.95)
    ph = rng.uniform(0.0, 2.0 * np.pi, size=4)
    a0 = r0 * np.exp(1j * ph[0])
    a1 = r1 * np.exp(1j * ph[1])
    b10 = np.sqrt(1.0 - r0 * r0) * np.exp(1j * ph[2])
    b01 = np.sqrt(1.0 - r1 * r1) * np.exp(1j * ph[3])
    A = np.diag([a0, a1])
    B = np.array([[0.0, b01], [b10, 0.0]], dtype=complex)
    return A, B


def _rand_kraus_ops(rng, n_ops):
    """n_ops 2 x 2 Kraus operators cut from a random 2 n_ops x 2 isometry."""
    G = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    Q, _ = np.linalg.qr(G)
    return [Q[2 * i : 2 * i + 2, :] for i in range(n_ops)]


def _rand_kraus_channel(rng, n_ops):
    return qubitmaps.kraus_map(_rand_kraus_ops(rng, n_ops))


def _light_config(rng, members=None, restarts=4):
    return solver.SolverConfig(
        members=members,
        restarts=restarts,
        max_iters=500,
        tol=1e-9,
        stall_iters=30,
        seed=int(rng.integers(2**31)),
    )


def _hermitian_from_vec(x):
    return (
        x[0] * states.SIGMA_0 + x[1] * states.SIGMA_X + x[2] * states.SIGMA_Y + x[3] * states.SIGMA_Z
    ) / 2.0


# ---------------------------------------------------------------------------
# wootters suite

def prop_flip_matrix_identity(rng, trials):
    F = antilinear.spin_flip()
    for t in range(trials):
        Y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = F @ Y.T @ F @ Y
        rhs = -np.linalg.det(Y) * np.eye(2)
        dev = float(np.max(np.abs(lhs - rhs)))
        tol = 1e-12 * max(1.0, abs(np.linalg.det(Y)))
        yield dev <= tol, f"trial {t}: flip identity deviation {_fmt(dev)}"


def prop_conjugation_fixed_points(rng, trials):
    W = antilinear.wootters_conjugation()
    e = np.eye(4)
    yield np.max(np.abs(W @ W.conj() - np.eye(4))) <= 1e-15, "W conj(W) != identity"
    yield np.max(np.abs(W @ e[:, 0] - e[:, 3])) <= 1e-15, "W|00> != |11>"
    yield np.max(np.abs(W @ e[:, 1] + e[:, 2])) <= 1e-15, "W|01> != -|10>"
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        psi = states.bell_state(kind)
        val = antilinear.theta_expectation(W, psi)
        yield abs(abs(val) - 1.0) <= 1e-12, f"|<{kind}, theta {kind}>| != 1: {_fmt(abs(val))}"


def prop_kraus_pair_symmetry(rng, trials):
    F = antilinear.spin_flip()
    for t in range(trials):
        d = 2 if t % 2 == 0 else 4
        G = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        V, _ = np.linalg.qr(G)
        A1, A2 = V[:2, :], V[2:, :]
        M = antilinear.theta_from_kraus_pair(A1, A2)
        manual = (A1.conj().T @ F @ A2.conj() - A2.conj().T @ F @ A1.conj()) / 2.0
        sym_dev = float(np.max(np.abs(M - M.T)))
        man_dev = float(np.max(np.abs(M - (manual + manual.T) / 2.0)))
        tp_dev = float(np.max(np.abs(A1.conj().T @ A1 + A2.conj().T @ A2 - np.eye(d))))
        ok = sym_dev <= 1e-14 and man_dev <= 1e-14 and tp_dev <= 1e-12
        yield ok, f"trial {t}: sym {_fmt(sym_dev)} manual {_fmt(man_dev)} tp {_fmt(tp_dev)}"


def prop_trace_pair_normalization(rng, trials):
    W = antilinear.wootters_conjugation()
    a1, a2 = measures.partial_trace_kraus()
    M = antilinear.theta_from_kraus_pair(a1, a2)
    dev_half = float(np.max(np.abs(M - W / 2.0)))
    Ms = antilinear.theta_from_kraus_pair(a1 / np.sqrt(2.0), a2 / np.sqrt(2.0))
    dev_quarter = float(np.max(np.abs(Ms - W / 4.0)))
    yield dev_half <= 1e-15, f"partial-trace pair theta != flip/2 (dev {_fmt(dev_half)})"
    yield dev_quarter <= 1e-15, f"subnormalized pair theta != flip/4 (dev {_fmt(dev_quarter)})"


def prop_theta_transport(rng, trials):
    for t in range(trials):
        d = (2, 3, 4)[t % 3]
        A = _rand_symmetric(rng, d)
        omega = states.random_density(d, seed=rng)
        U = states.random_unitary(d, seed=rng)
        lam1 = antilinear.lambda_spectrum(A, omega)
        lam2 = antilinear.lambda_spectrum(
            antilinear.transport_theta(A, U), U @ omega @ U.conj().T
        )
        dev = float(np.max(np.abs(lam1 - lam2)))
        yield dev <= 1e-9, f"trial {t}: transported spectrum deviates {_fmt(dev)}"


def prop_takagi_reconstruct(rng, trials):
    for t in range(trials):
        d = (2, 3, 4, 8)[t % 4]
        B = _rand_symmetric(rng, d) * rng.uniform(0.2, 3.0)
        tak = antilinear.takagi(B)
        rec = float(np.max(np.abs(tak.reconstruct() - (B + B.T) / 2.0)))
        svd = float(np.max(np.abs(tak.lambdas - np.linalg.svd(B, compute_uv=False))))
        orth = float(np.max(np.abs(tak.basis.conj().T @ tak.basis - np.eye(d))))
        ok = rec <= 1e-8 and svd <= 1e-10 and orth <= 1e-10
        yield ok, f"trial {t}: rec {_fmt(rec)} svd {_fmt(svd)} orth {_fmt(orth)}"
    # fixed degenerate and canonical cases (gauge-invariant checks only: basis
    # columns are fixed up to sign, and within a degenerate cluster up to a
    # real rotation)
    tak = antilinear.takagi(np.array([[2j]]))
    yield (
        abs(tak.lambdas[0] - 2.0) <= 1e-12 and abs(tak.basis[0, 0] ** 2 - 1j) <= 1e-12,
        "takagi([[2i]]) should give lambda 2 and u^2 = i",
    )
    tak = antilinear.takagi(np.diag([3.0, 1.0]))
    yield (
        np.allclose(tak.lambdas, [3.0, 1.0])
        and float(np.max(np.abs(tak.reconstruct() - np.diag([3.0, 1.0])))) <= 1e-12,
        "takagi(diag(3,1)) should reconstruct with lambdas (3,1)",
    )
    tak = antilinear.takagi(np.eye(4, dtype=complex))
    yield (
        float(np.max(np.abs(tak.reconstruct() - np.eye(4)))) <= 1e-10,
        "takagi(identity) fails on the fully degenerate cluster",
    )


def _flat_contract_check(rng, t, mode):
    d = (2, 3, 4)[t % 3]
    rank = 1 + (t % d)
    A = _rand_symmetric(rng, d)
    omega = states.random_density(d, rank=rank, seed=rng)
    dec = antilinear.flat_optimal_decomposition(A, omega, mode=mode)
    rec = dec.reconstruction_error(omega)
    obj = solver.theta_form_objective(A)
    avg = solver.verify_roof_point(obj, dec)
    _, spread, _ = solver.flatness_check(obj, dec, tol=1e-8)
    convex, concave = antilinear.roof_values(A, omega)
    target = convex if mode == "convex" else concave
    ok = rec <= 1e-8 and spread <= 1e-8 and abs(avg - target) <= 1e-8
    note = (
        f"trial {t} d={d} rank={rank}: rec {_fmt(rec)} spread {_fmt(spread)} "
        f"avg {_fmt(avg)} target {_fmt(target)}"
    )
    return ok, note


def prop_flat_convex_contract(rng, trials):
    for t in range(trials):
        yield _flat_contract_check(rng, t, "convex")


def prop_flat_concave_contract(rng, trials):
    for t in range(trials):
        yield _flat_contract_check(rng, t, "concave")


def prop_decomposition_sandwich(rng, trials):
    for t in range(trials):
        d = (2, 3, 4)[t % 3]
        A = _rand_symmetric(rng, d)
        omega = states.random_density(d, seed=rng)
        r = states.spectrum(omega).rank
        L = min(d * d, r + int(rng.integers(0, 3)))
        G = rng.normal(size=(L, r)) + 1j * rng.normal(size=(L, r))
        V = solver.stiefel_retract(G)
        dec = states.decomposition_from_isometry(omega, V)
        avg = solver.verify_roof_point(solver.theta_form_objective(A), dec)
        convex, concave = antilinear.roof_values(A, omega)
        ok = convex - 1e-10 <= avg <= concave + 1e-10
        yield ok, f"trial {t}: average {_fmt(avg)} outside [{_fmt(convex)}, {_fmt(concave)}]"


def prop_local_unitary_invariance(rng, trials):
    for t in range(trials):
        rho = states.random_density(4, seed=rng)
        U = states.random_unitary(2, seed=rng)
        V = states.random_unitary(2, seed=rng)
        UV = np.kron(U, V)
        c1 = measures.concurrence_2qubit(rho).value
        c2 = measures.concurrence_2qubit(UV @ rho @ UV.conj().T).value
        yield abs(c1 - c2) <= 1e-9, f"trial {t}: concurrence moved {_fmt(c1)} -> {_fmt(c2)}"


def prop_two_qubit_anchors(rng, trials):
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        c = measures.concurrence_2qubit(states.pure_projector(states.bell_state(kind))).value
        yield abs(c - 1.0) <= 1e-10, f"C({kind}) = {_fmt(c)} != 1"
    prod = states.pure_projector(states.product_pure([1.0, 0.0], [0.6, 0.8]))
    c = measures.concurrence_2qubit(prod).value
    yield abs(c) <= 1e-10, f"C(product) = {_fmt(c)} != 0"
    for p in np.linspace(0.0, 1.0, 11):
        c = measures.concurrence_2qubit(states.werner_state(p)).value
        target = max(0.0, (3.0 * p - 1.0) / 2.0)
        yield abs(c - target) <= 1e-10, f"Werner p={_fmt(p)}: {_fmt(c)} != {_fmt(target)}"
    convex, concave = antilinear.roof_values(
        antilinear.wootters_conjugation(), states.maximally_mixed(4)
    )
    yield abs(convex) <= 1e-10, f"convex roof at identity/4 is {_fmt(convex)}"
    yield abs(concave - 1.0) <= 1e-10, f"concave roof at identity/4 is {_fmt(concave)}"


def prop_wootters_solver_agreement(rng, trials):
    theta = antilinear.wootters_conjugation() / 2.0
    obj = solver.theta_form_objective(theta)
    for t in range(trials):
        rank = (1, 2, 2, 3)[t % 4]
        rho = states.random_density(4, rank=rank, seed=rng)
        closed = measures.concurrence_2qubit(rho).value
        cfg = _light_config(rng, members=max(4, 2 * rank))
        res = solver.minimize_roof(obj, rho, cfg)
        num = 2.0 * res.value
        ok = abs(closed - num) <= 2e-3 and closed <= num + 1e-10
        yield ok, f"trial {t} rank={rank}: closed {_fmt(closed)} solver {_fmt(num)}"


# ---------------------------------------------------------------------------
# subtraction suite

def prop_pencil_det_identity(rng, trials):
    for t in range(trials):
        pick = t % 3
        if pick == 0:
            T = _rand_axial(rng)
        elif pick == 1:
            T = _rand_kraus_channel(rng, n_ops=2 + t % 3)
        else:
            T = qubitmaps.affine_map(_rand_kraus_channel(rng, n_ops=2).bloch)
        q_t, q_det = qubitmaps.det_T_form(T)
        x = rng.normal(size=4) * 2.0
        X = _hermitian_from_vec(x)
        lhs_t = float(x @ q_t @ x)
        rhs_t = float(np.linalg.det(qubitmaps.apply_map(T, X)).real)
        lhs_d = float(x @ q_det @ x)
        rhs_d = float(np.linalg.det(X).real)
        scale = max(1.0, abs(rhs_t), abs(rhs_d))
        ok = abs(lhs_t - rhs_t) <= 1e-12 * scale and abs(lhs_d - rhs_d) <= 1e-12 * scale
        yield ok, f"trial {t}: det forms deviate {_fmt(lhs_t - rhs_t)}, {_fmt(lhs_d - rhs_d)}"


def prop_dephased_damping_weight(rng, trials):
    for g in np.linspace(0.1, 0.9, 9):
        sw = qubitmaps.subtraction_weight(qubitmaps.dephased_amplitude_damping(g))
        ok = abs(sw.w - g) <= 1e-10 and abs(sw.w_hi - g) <= 1e-10
        yield ok, f"gamma={_fmt(g)}: interval [{_fmt(sw.w_lo)}, {_fmt(sw.w_hi)}] != {{gamma}}"


def prop_axial_grid_resolution(rng, trials):
    yield (
        "resolved reading: concurrence weight w = max(beta^2, beta_c) with "
        "beta_c = (sqrt(alpha*gamma) - sqrt((1-alpha)*(1-gamma)))^2 (a beta^2-scale quantity, not squared again)"
    )
    yield (
        "resolved reading: tangle weight = max(beta^2, (alpha+gamma-1)^2); "
        "the x3^2 coefficient of the tangle form is (alpha+gamma-1)^2"
    )
    yield (
        "resolved reading: at alpha=1, beta=0 the tangle reduces to "
        "4*(gamma*(1-gamma)*rho_11 + gamma^2*|rho_01|^2)"
    )
    grid = np.linspace(0.1, 0.9, 9)
    total = 0
    agree = 0
    worst = 0.0
    for a in grid:
        for g in grid:
            bmax = qubitmaps.axial_beta_max(a, g)
            for f in grid:
                b = f * bmax
                closed = qubitmaps.axial_concurrence_weight(a, b, g)
                pencil = qubitmaps.subtraction_weight(qubitmaps.axial_map(a, b, g)).w
                dev = abs(closed - pencil)
                worst = max(worst, dev)
                total += 1
                if dev <= 1e-8:
                    agree += 1
    frac = agree / total
    yield f"grid agreement {agree}/{total} within 1e-08 (worst deviation {_fmt(worst)})"
    yield frac >= 0.99, f"FAIL: agreement fraction {_fmt(frac)} < 0.99"


def prop_psd_certificate(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        sw = qubitmaps.subtraction_weight(T)
        q_t, q_det = qubitmaps.det_T_form(T)
        M = q_t - sw.w * q_det
        xs = rng.normal(size=(1000, 4))
        xs[:, 0] = 1.0
        vals = np.einsum("ij,jk,ik->i", xs, M, xs)
        worst = float(vals.min())
        yield worst >= -1e-9, f"trial {t}: subtracted form dips to {_fmt(worst)} at w_lo"


def prop_cauchy_schwarz(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        sw = qubitmaps.subtraction_weight(T)
        q_t, q_det = qubitmaps.det_T_form(T)
        M = q_t - sw.w * q_det
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        qx = float(x @ M @ x)
        qy = float(y @ M @ y)
        bxy = float(x @ M @ y)
        ok = bxy * bxy <= qx * qy + 1e-10
        yield ok, f"trial {t}: B(x,y)^2 - q(x)q(y) = {_fmt(bxy * bxy - qx * qy)}"


def prop_seminorm_agreement(rng, trials):
    for t in range(trials):
        A, B = _rand_standard_two_kraus(rng)
        T = qubitmaps.kraus_map([A, B])
        rho = states.random_density(2, seed=rng)
        semi = qubitmaps.two_kraus_seminorm(A, B, rho)
        closed = float(np.sqrt(qubitmaps.concurrence_sq(T, rho)))
        X = _hermitian_from_vec(rng.normal(size=4))
        Y = _hermitian_from_vec(rng.normal(size=4))
        homog = abs(
            qubitmaps.two_kraus_seminorm(A, B, 2.0 * X)
            - 2.0 * qubitmaps.two_kraus_seminorm(A, B, X)
        )
        tri = (
            qubitmaps.two_kraus_seminorm(A, B, X + Y)
            - qubitmaps.two_kraus_seminorm(A, B, X)
            - qubitmaps.two_kraus_seminorm(A, B, Y)
        )
        ok = abs(semi - closed) <= 1e-8 and homog <= 1e-12 and tri <= 1e-10
        yield (
            ok,
            f"trial {t}: seminorm {_fmt(semi)} vs closed {_fmt(closed)}, "
            f"homogeneity {_fmt(homog)}, triangle excess {_fmt(tri)}",
        )


def prop_general_two_kraus_identity(rng, trials):
    for t in range(trials):
        A, B = _rand_standard_two_kraus(rng)
        T = qubitmaps.kraus_map([A, B])
        theta = antilinear.theta_from_kraus_pair(A, B)
        rho = states.random_density(2, rank=2, seed=rng)
        via_theta = qubitmaps.concurrence_general_two_kraus(theta, rho)
        via_pencil = float(np.sqrt(qubitmaps.concurrence_sq(T, rho)))
        dev = abs(via_theta - via_pencil)
        yield dev <= 1e-8, f"trial {t}: spectrum route {_fmt(via_theta)} vs pencil {_fmt(via_pencil)}"


def prop_length_two_average(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        rho = states.random_density(2, rank=2, seed=rng)
        dec = qubitmaps.length_two_decomposition(T, rho)
        rec = dec.reconstruction_error(rho)
        avg = sum(
            p * 2.0 * np.sqrt(max(0.0, np.linalg.det(qubitmaps.apply_map(T, np.outer(s, s.conj()))).real))
            for p, s in zip(dec.weights, dec.states)
        )
        closed = float(np.sqrt(qubitmaps.concurrence_sq(T, rho)))
        ok = rec <= 1e-10 and abs(avg - closed) <= 1e-8
        yield ok, f"trial {t}: rec {_fmt(rec)} average {_fmt(avg)} closed {_fmt(closed)}"


def prop_case_b_affine(rng, trials):
    for t in range(trials):
        a = rng.uniform(0.05, 0.95)
        g = rng.uniform(0.05, 0.95)
        # with a = cos^2 u, g = cos^2 v: |a+g-1| = |cos(u+v)| cos(u-v) <= cos(u-v) = beta_max
        m = abs(a + g - 1.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        # tangle affine in the state at the bifurcation |beta| = |alpha+gamma-1|
        r_lo = states.bloch_to_qubit(-0.99 * direction)
        r_hi = states.bloch_to_qubit(0.99 * direction)
        r_mid = states.bloch_to_qubit(0.0 * direction)
        taus = [qubitmaps.axial_tangle(a, m, g, r) for r in (r_lo, r_mid, r_hi)]
        dev_tau = abs(taus[1] - (taus[0] + taus[2]) / 2.0)
        # concurrence affine along diameters at beta = critical beta
        bc = np.sqrt(qubitmaps.axial_critical_beta_sq(a, g))
        T = qubitmaps.axial_map(a, bc, g)
        sw = qubitmaps.subtraction_weight(T)
        cs = [
            np.sqrt(qubitmaps.concurrence_sq(T, r, sw)) for r in (r_lo, r_mid, r_hi)
        ]
        dev_c = abs(cs[1] - (cs[0] + cs[2]) / 2.0)
        ok = dev_tau <= 1e-10 and dev_c <= 1e-8
        yield ok, f"trial {t}: tangle chord deviation {_fmt(dev_tau)}, concurrence {_fmt(dev_c)}"


def prop_identity_map_interval(rng, trials):
    yield (
        "resolved reading: the identity-map pencil is PSD only at w = 1 "
        "(the admissible interval degenerates to a point, not to [0, 1])"
    )
    sw = qubitmaps.subtraction_weight(qubitmaps.identity_map())
    rho = states.random_density(2, rank=2, seed=rng)
    csq = qubitmaps.concurrence_sq(qubitmaps.identity_map(), rho, sw)
    yield (
        abs(sw.w_lo - 1.0) <= 1e-9 and abs(sw.w_hi - 1.0) <= 1e-9,
        f"identity-map interval [{_fmt(sw.w_lo)}, {_fmt(sw.w_hi)}] != {{1}}",
    )
    yield abs(csq) <= 1e-12, f"identity-map concurrence_sq {_fmt(csq)} != 0 on mixed input"


def prop_tangle_solver(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng) if t % 2 == 0 else _rand_kraus_channel(rng, n_ops=2 + t % 3)
        rho = states.random_density(2, rank=2, seed=rng)
        closed = measures.channel_tangle(T, rho).value
        obj = solver.objective_for(T, "det-out")
        num = 4.0 * solver.minimize_roof(obj, rho, _light_config(rng, members=4)).value
        yield abs(closed - num) <= 5e-3, f"trial {t}: closed {_fmt(closed)} solver {_fmt(num)}"


# ---------------------------------------------------------------------------
# diagonal suite

def prop_flat_pair_contract(rng, trials):
    for t in range(trials):
        omega = states.random_density(2, rank=2, seed=rng)
        dec = diagonal.ed_qubit_flat_pair(omega)
        rec = dec.reconstruction_error(omega)
        vals = [
            measures.shannon_entropy(np.abs(np.asarray(s)) ** 2) for s in dec.states
        ]
        spread = max(vals) - min(vals)
        avg = sum(p * v for p, v in zip(dec.weights, vals))
        closed = diagonal.ed_qubit(omega)
        ok = rec <= 1e-10 and spread <= 1e-10 and abs(avg - closed) <= 1e-10
        yield ok, f"trial {t}: rec {_fmt(rec)} spread {_fmt(spread)} avg {_fmt(avg)} closed {_fmt(closed)}"


def prop_diag_concavity(rng, trials):
    for t in range(trials):
        d = (2, 3, 4)[t % 3]
        rho1 = states.random_density(d, seed=rng)
        rho2 = states.random_density(d, seed=rng)
        lam = rng.uniform()
        mix = lam * rho1 + (1.0 - lam) * rho2
        lhs = diagonal.diag_entropy(mix)
        rhs = lam * diagonal.diag_entropy(rho1) + (1.0 - lam) * diagonal.diag_entropy(rho2)
        yield lhs >= rhs - 1e-12, f"trial {t}: concavity violated by {_fmt(rhs - lhs)}"


def prop_ed_symmetry(rng, trials):
    for t in range(trials):
        omega = states.random_density(2, seed=rng)
        x = states.qubit_to_bloch(omega)
        base = diagonal.ed_qubit(omega)
        flipped = diagonal.ed_qubit(states.bloch_to_qubit([x[0], x[1], -x[2]]))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(phi), np.sin(phi)
        rotated = diagonal.ed_qubit(
            states.bloch_to_qubit([c * x[0] - s * x[1], s * x[0] + c * x[1], x[2]])
        )
        ok = abs(base - flipped) <= 1e-12 and abs(base - rotated) <= 1e-12
        yield ok, f"trial {t}: ed moved under symmetry: {_fmt(base)} vs {_fmt(flipped)}/{_fmt(rotated)}"


def prop_isotropic_construction(rng, trials):
    for t in range(trials):
        d = int(rng.integers(2, 6))
        F = rng.uniform(0.0, 1.0)
        iso = diagonal.isotropic_state(d, F)
        psi = np.ones(d) / np.sqrt(d)
        fid = float((psi @ iso.matrix @ psi).real)
        diag_dev = float(np.max(np.abs(np.diag(iso.matrix).real - 1.0 / d)))
        off = iso.matrix[0, 1].real
        ok = abs(fid - F) <= 1e-12 and diag_dev <= 1e-14 and abs(off - iso.x / d) <= 1e-14
        yield ok, f"trial {t} d={d}: fidelity {_fmt(fid)} != F={_fmt(F)}"
    iso = diagonal.isotropic_state(3, 1.0 / 3.0)
    yield (
        float(np.max(np.abs(iso.matrix - np.eye(3) / 3.0))) <= 1e-14,
        "F = 1/d does not give the maximally mixed state",
    )
    iso = diagonal.isotropic_state(3, 1.0)
    yield states.spectrum(iso.matrix).rank == 1, "F = 1 does not give a pure state"
    try:
        diagonal.isotropic_state(3, 1.2)
        yield False, "fidelity 1.2 accepted"
    except Exception:
        yield True, ""


def _rand_embedding(rng, d):
    blocks = tuple(int(rng.integers(1, 4)) for _ in range(d))
    amps = []
    for m in blocks:
        y = rng.normal(size=m) + 1j * rng.normal(size=m)
        amps.append(y / np.linalg.norm(y))
    return diagonal.EmbeddingSpec(blocks, tuple(amps))


def prop_embedding_diag_offset(rng, trials):
    for t in range(trials):
        d = (2, 3)[t % 2]
        spec = _rand_embedding(rng, d)
        omega = states.random_density(d, seed=rng)
        img = diagonal.embed_state(spec, omega)
        expected_diag = np.concatenate(
            [np.abs(y) ** 2 * omega[j, j].real for j, y in enumerate(spec.amplitudes)]
        )
        diag_dev = float(np.max(np.abs(np.diag(img).real - expected_diag)))
        lhs = diagonal.diag_entropy(img)
        rhs = diagonal.diag_entropy(omega) + diagonal.embedding_offset(spec, omega)
        ok = diag_dev <= 1e-12 and abs(lhs - rhs) <= 1e-10
        yield ok, f"trial {t}: diag dev {_fmt(diag_dev)}, entropy identity off {_fmt(lhs - rhs)}"


def prop_leaf_membership(rng, trials):
    for t in range(trials):
        d = (2, 3, 4)[t % 3]
        omega = states.random_density(d, seed=rng)
        dephased = np.diag(np.diag(omega))
        ok1 = diagonal.concave_leaf_membership(omega, omega)
        ok2 = diagonal.concave_leaf_membership(omega, dephased)
        diag = np.diag(omega).real
        perm = np.roll(diag, 1)
        distinct = float(np.max(np.abs(diag - perm))) > 1e-6
        rho_perm = np.diag(perm).astype(complex)
        ok3 = (not diagonal.concave_leaf_membership(omega, rho_perm)) if distinct else True
        yield ok1 and ok2 and ok3, f"trial {t}: leaf membership answers {ok1}/{ok2}/{ok3}"


def prop_optimal_pair_embedding(rng, trials):
    x1 = 2.0 * np.sqrt(2.0) / 3.0
    omega = states.bloch_to_qubit([x1, 0.0, 0.17])
    dec = diagonal.ed_qubit_flat_pair(omega)
    qs = sorted((np.abs(np.asarray(s)) ** 2 for s in dec.states), key=lambda q: float(q[0]))
    lo, hi = qs[0], qs[1]
    yield (
        float(np.max(np.abs(lo - np.array([1.0 / 3.0, 2.0 / 3.0])))) <= 1e-12,
        f"low member diag {lo} != (1/3, 2/3)",
    )
    yield (
        float(np.max(np.abs(hi - np.array([2.0 / 3.0, 1.0 / 3.0])))) <= 1e-12,
        f"high member diag {hi} != (2/3, 1/3)",
    )
    spec = diagonal.qubit_split_embedding()
    for q, target in ((lo, np.array([1.0, 1.0, 1.0]) / 3.0), (hi, np.array([4.0, 1.0, 1.0]) / 6.0)):
        img_diag = np.concatenate(
            [np.abs(y) ** 2 * q[j] for j, y in enumerate(spec.amplitudes)]
        )
        yield (
            float(np.max(np.abs(img_diag - target))) <= 1e-12,
            f"embedded diag {img_diag} != {target}",
        )
    val, psi = diagonal.h0_min_entropy_experiment(2)
    yield abs(val - np.log(2.0)) <= 1e-15, f"H0 value at d=2 is {_fmt(val)} != log 2"


def prop_ed_solver(rng, trials):
    obj = solver.diag_entropy_objective()
    for t in range(trials):
        omega = states.random_density(2, rank=2, seed=rng)
        closed = diagonal.ed_qubit(omega)
        res = solver.minimize_roof(obj, omega, _light_config(rng, members=4))
        top = solver.maximize_roof(obj, omega, _light_config(rng, members=4))
        smax = diagonal.diag_entropy(omega)
        ok = abs(closed - res.value) <= 2e-3 and abs(top.value - smax) <= 2e-3
        yield (
            ok,
            f"trial {t}: closed {_fmt(closed)} min-solver {_fmt(res.value)}, "
            f"max-solver {_fmt(top.value)} S(diag) {_fmt(smax)}",
        )


def prop_embedding_offset_solver(rng, trials):
    spec = diagonal.qubit_split_embedding()
    obj = solver.diag_entropy_objective()
    for t in range(trials):
        omega = states.random_density(2, rank=2, seed=rng)
        img = diagonal.embed_state(spec, omega)
        lhs = solver.minimize_roof(obj, img, _light_config(rng, members=6)).value
        rhs = (
            solver.minimize_roof(obj, omega, _light_config(rng, members=4)).value
            + diagonal.embedding_offset(spec, omega)
        )
        yield abs(lhs - rhs) <= 5e-3, f"trial {t}: embedded {_fmt(lhs)} vs shifted {_fmt(rhs)}"


def prop_isotropic_members_distinct(rng, trials):
    obj = solver.diag_entropy_objective()
    yield "soft probe: no two optimal members should share a diagonal (logged only)"
    for t in range(trials):
        F = rng.uniform(0.4, 0.95)
        iso = diagonal.isotropic_state(3, F)
        res = solver.minimize_roof(obj, iso.matrix, _light_config(rng, members=6))
        min_dist = np.inf
        ds = [np.abs(np.asarray(s)) ** 2 for s in res.decomposition.states]
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                min_dist = min(min_dist, float(np.max(np.abs(ds[i] - ds[j]))))
        if min_dist <= 1e-6:
            yield (
                f"soft check: F={_fmt(F)} found two members with matching diagonals "
                f"(distance {_fmt(min_dist)}) — logged, not failed"
            )
        yield True, ""  # a soft probe: every trial counts as a pass


def prop_h0_dims(rng, trials):
    cfg = solver.SolverConfig(restarts=8, max_iters=400, stall_iters=30, seed=int(rng.integers(2**31)))
    val2, _ = diagonal.h0_min_entropy_experiment(2, cfg)
    val3, _ = diagonal.h0_min_entropy_experiment(3, cfg)
    val4, _ = diagonal.h0_min_entropy_experiment(4, cfg)
    log2 = float(np.log(2.0))
    yield f"minimal output entropies: d=2 {_fmt(val2)}, d=3 {_fmt(val3)}, d=4 {_fmt(val4)} (log 2 = {_fmt(log2)})"
    yield abs(val2 - log2) <= 1e-15, f"d=2 value {_fmt(val2)}"
    yield abs(val3 - log2) <= 1e-3, f"d=3 value {_fmt(val3)} not within 1e-3 of log 2"
    yield val4 >= log2 - 1e-3, f"d=4 value {_fmt(val4)} sits below log 2 - 1e-3"


# ---------------------------------------------------------------------------
# bounds suite

def prop_xi_shape(rng, trials):
    log2 = float(np.log(2.0))
    yield abs(measures.xi(0.0)) <= 1e-15, "xi(0) != 0"
    yield abs(measures.xi(1.0) - log2) <= 1e-15, "xi(1) != log 2"
    yield (
        abs(measures.xi(0.6) - measures.shannon_entropy([0.1, 0.9])) <= 1e-12,
        "xi(0.6) != eta(0.1)+eta(0.9)",
    )
    grid = np.linspace(0.0, 1.0, 21)
    vals = [measures.xi(x) for x in grid]
    yield all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), "xi not monotone on [0,1]"
    for t in range(trials):
        x, y = rng.uniform(0.0, 1.0, size=2)
        mid = measures.xi((x + y) / 2.0)
        chord = (measures.xi(x) + measures.xi(y)) / 2.0
        yield mid <= chord + 1e-9, f"trial {t}: xi midpoint above chord by {_fmt(mid - chord)}"


def prop_tau_vs_csq(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        rho = states.random_density(2, seed=rng)
        a, b, g = T.params
        tau = qubitmaps.axial_tangle(a, b, g, rho)
        csq = qubitmaps.concurrence_sq(T, rho)
        yield tau >= csq - 1e-9, f"trial {t}: tau {_fmt(tau)} < C^2 {_fmt(csq)}"


def prop_eof_mixing(rng, trials):
    for t in range(trials):
        rho = states.random_density(4, seed=rng)
        p = rng.dirichlet(np.ones(4))
        sep = np.diag(p).astype(complex)
        lam = rng.uniform()
        mixed = lam * rho + (1.0 - lam) * sep
        lhs = measures.eof_2qubit(mixed).value
        rhs = lam * measures.eof_2qubit(rho).value
        yield lhs <= rhs + 1e-9, f"trial {t}: mixing raised EoF by {_fmt(lhs - rhs)}"


def prop_pure_state_consistency(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        psi = states.random_pure(2, seed=rng)
        pi = states.pure_projector(psi)
        a, b, g = T.params
        det4 = 4.0 * float(np.linalg.det(qubitmaps.apply_map(T, pi)).real)
        csq = qubitmaps.concurrence_sq(T, pi)
        tau = qubitmaps.axial_tangle(a, b, g, pi)
        ok = abs(csq - det4) <= 1e-10 and abs(tau - det4) <= 1e-10
        yield ok, f"trial {t}: pure values differ: C^2 {_fmt(csq)}, tau {_fmt(tau)}, 4detT {_fmt(det4)}"


def prop_flat_transfer(rng, trials):
    theta = antilinear.wootters_conjugation() / 2.0
    obj = solver.theta_form_objective(theta)
    for t in range(trials):
        rho = states.random_density(4, rank=2, seed=rng)
        dec = antilinear.flat_optimal_decomposition(theta, rho, mode="convex")
        _, spread, vals = solver.flatness_check(obj, dec, tol=1e-8)
        eof_closed = measures.eof_2qubit(rho).value
        avg_xi = sum(
            p * measures.xi(min(1.0, 2.0 * v)) for p, v in zip(dec.weights, vals)
        )
        ok = spread <= 1e-8 and abs(avg_xi - eof_closed) <= 5e-3
        yield ok, f"trial {t}: spread {_fmt(spread)}, xi-average {_fmt(avg_xi)} vs EoF {_fmt(eof_closed)}"


def prop_channel_bound(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        rho = states.random_density(2, rank=2, seed=rng)
        rep = measures.channel_entanglement(T, rho, _light_config(rng, members=4))
        lower = rep.bounds[0]
        upper = rep.bounds[1]
        ok = rep.value >= lower - 5e-3 and rep.value <= upper + 1e-9
        yield (
            ok,
            f"trial {t}: E {_fmt(rep.value)} outside [xi(C) - 5e-3, ensemble] = "
            f"[{_fmt(lower)}, {_fmt(upper)}]",
        )
    # diagonal channel: solver value must match the closed form
    rng2 = np.random.default_rng(12345)
    omega = states.random_density(2, rank=2, seed=rng2)
    T = qubitmaps.diagonal_channel()
    rep = measures.channel_entanglement(
        T, omega, solver.SolverConfig(members=4, restarts=6, max_iters=600, stall_iters=40, seed=7)
    )
    closed = diagonal.ed_qubit(omega)
    yield (
        abs(rep.value - closed) <= 2e-3 and rep.extras.get("flat", False),
        f"diagonal channel: solver {_fmt(rep.value)} vs closed {_fmt(closed)}",
    )


def prop_strict_gap(rng, trials):
    g = 0.5
    T = qubitmaps.dephased_amplitude_damping(g)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    csq = qubitmaps.concurrence_sq(T, rho)
    tau = qubitmaps.axial_tangle(1.0, 0.0, g, rho)
    detrho = float(np.linalg.det(rho).real)
    expected_gap = 4.0 * (g - g * g) * detrho
    yield abs(csq - 0.375) <= 1e-12, f"C^2 at the reference point is {_fmt(csq)} != 0.375"
    yield tau - csq > 1e-6, f"tangle gap not strict: tau {_fmt(tau)} vs C^2 {_fmt(csq)}"
    yield (
        abs((tau - csq) - expected_gap) <= 1e-12,
        f"gap {_fmt(tau - csq)} != 4 (w_C - w_tau) det rho = {_fmt(expected_gap)}",
    )


# ---------------------------------------------------------------------------
# registry and runner

SUITES = {
    "wootters": (
        ("flip-matrix-identity", prop_flip_matrix_identity, False),
        ("conjugation-fixed-points", prop_conjugation_fixed_points, False),
        ("kraus-pair-symmetry", prop_kraus_pair_symmetry, False),
        ("trace-pair-normalization", prop_trace_pair_normalization, False),
        ("theta-transport", prop_theta_transport, False),
        ("takagi-reconstruct", prop_takagi_reconstruct, False),
        ("flat-convex-contract", prop_flat_convex_contract, False),
        ("flat-concave-contract", prop_flat_concave_contract, False),
        ("decomposition-sandwich", prop_decomposition_sandwich, False),
        ("local-unitary-invariance", prop_local_unitary_invariance, False),
        ("two-qubit-anchors", prop_two_qubit_anchors, False),
        ("solver-agreement", prop_wootters_solver_agreement, True),
    ),
    "subtraction": (
        ("pencil-det-identity", prop_pencil_det_identity, False),
        ("dephased-damping-weight", prop_dephased_damping_weight, False),
        ("axial-grid-resolution", prop_axial_grid_resolution, False),
        ("psd-certificate", prop_psd_certificate, False),
        ("cauchy-schwarz", prop_cauchy_schwarz, False),
        ("seminorm-agreement", prop_seminorm_agreement, False),
        ("general-two-kraus-identity", prop_general_two_kraus_identity, False),
        ("length-two-average", prop_length_two_average, False),
        ("case-b-affine", prop_case_b_affine, False),
        ("identity-map-interval", prop_identity_map_interval, False),
        ("tangle-solver", prop_tangle_solver, True),
    ),
    "diagonal": (
        ("flat-pair-contract", prop_flat_pair_contract, False),
        ("diag-concavity", prop_diag_concavity, False),
        ("ed-symmetry", prop_ed_symmetry, False),
        ("isotropic-construction", prop_isotropic_construction, False),
        ("embedding-diag-offset", prop_embedding_diag_offset, False),
        ("leaf-membership", prop_leaf_membership, False),
        ("optimal-pair-embedding", prop_optimal_pair_embedding, False),
        ("ed-solver", prop_ed_solver, True),
        ("embedding-offset-solver", prop_embedding_offset_solver, True),
        ("isotropic-members-distinct", prop_isotropic_members_distinct, True),
        ("h0-dims", prop_h0_dims, True),
    ),
    "bounds": (
        ("xi-shape", prop_xi_shape, False),
        ("tau-vs-csq", prop_tau_vs_csq, False),
        ("eof-mixing", prop_eof_mixing, False),
        ("pure-state-consistency", prop_pure_state_consistency, False),
        ("flat-transfer", prop_flat_transfer, True),
        ("channel-bound", prop_channel_bound, True),
        ("strict-gap", prop_strict_gap, False),
    ),
}


def run_suites(suite_names, trials, seed, stream=None):
    """Run the named suites; returns 0 when everything passes, 1 otherwise."""
    stream = stream if stream is not None else sys.stdout
    if trials <= 0:
        print("no trials requested; nothing to verify", file=stream)
        return 0
    total_checks = 0
    total_failures = 0
    for sname in SUITE_ORDER:
        if sname not in suite_names:
            continue
        si = SUITE_ORDER.index(sname)
        for pi, (pname, prop, heavy) in enumerate(SUITES[sname]):
            n = max(1, math.ceil(trials / 10)) if heavy else trials
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(si, pi)))
            passed = failed = 0
            notes = []
            for item in prop(rng, n):
                if isinstance(item, str):
                    notes.append(item)
                elif item[0]:
                    passed += 1
                else:
                    failed += 1
                    if item[1]:
                        notes.append(item[1])
            status = "pass" if failed == 0 else "FAIL"
            print(f"[{sname}] {pname}: {status} {passed}/{passed + failed}", file=stream)
            for note in notes:
                print(f"  {note}", file=stream)
            total_checks += passed + failed
            total_failures += failed
    print(f"total: {total_checks} checks, {total_failures} failures", file=stream)
    return 1 if total_failures else 0
