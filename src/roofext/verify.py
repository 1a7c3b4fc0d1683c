"""Cross-module verification suites, also driving `roofext verify`.

A property is a generator over (rng, trials).  It yields each check as a pair
(ok, note), the note printed only when the check fails, and each note that
always prints as a plain str, in print order; `run_suites` tallies them.  A
check that holds a deviation to a tolerance is built by `_within(label,
name=(deviation, tolerance), ...)`: it passes when every deviation is at most
its tolerance, so a NaN deviation fails, and its note reads
"label: name <deviation> (tol <tolerance>), ...".  A one-sided bound enters
as a signed deviation (lhs >= rhs - tol is rhs - lhs within tol).  The
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
from .errors import OutOfRange

SUITE_ORDER = ("wootters", "subtraction", "diagonal", "bounds")


def _fmt(x):
    return f"{float(x):.12g}"


def _sup(x):
    """Largest entry modulus of an array."""
    return float(np.max(np.abs(x)))


def _within(label, **named):
    """(ok, note) of one check; each keyword is a (deviation, tolerance) pair."""
    ok = all(dev <= tol for dev, tol in named.values())  # NaN fails
    parts = (f"{name} {_fmt(dev)} (tol {_fmt(tol)})" for name, (dev, tol) in named.items())
    return ok, f"{label}: {', '.join(parts)}"


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


def _rand_subtracted_form(rng):
    """q_T - w q_det of a random axial map T at its subtraction weight w."""
    T = _rand_axial(rng)
    q_t, q_det = qubitmaps.det_T_form(T)
    return q_t - qubitmaps.subtraction_weight(T).w * q_det


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


def _light_config(rng, members):
    return solver.SolverConfig(
        members=members,
        restarts=4,
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
        tol = 1e-12 * max(1.0, abs(np.linalg.det(Y)))
        yield _within(f"trial {t}", flip_identity=(_sup(lhs - rhs), tol))


def prop_conjugation_fixed_points(rng, trials):
    W = antilinear.wootters_conjugation()
    e = np.eye(4)
    yield _within("W conj(W) = 1", dev=(_sup(W @ W.conj() - np.eye(4)), 1e-15))
    yield _within("W|00> = |11>", dev=(_sup(W @ e[:, 0] - e[:, 3]), 1e-15))
    yield _within("W|01> = -|10>", dev=(_sup(W @ e[:, 1] + e[:, 2]), 1e-15))
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        val = antilinear.theta_expectation(W, states.bell_state(kind))
        yield _within(f"|<{kind}, theta {kind}>| = 1", dev=(abs(abs(val) - 1.0), 1e-12))


def prop_kraus_pair_symmetry(rng, trials):
    F = antilinear.spin_flip()
    for t in range(trials):
        d = 2 if t % 2 == 0 else 4
        G = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        V, _ = np.linalg.qr(G)
        A1, A2 = V[:2, :], V[2:, :]
        M = antilinear.theta_from_kraus_pair(A1, A2)
        manual = (A1.conj().T @ F @ A2.conj() - A2.conj().T @ F @ A1.conj()) / 2.0
        yield _within(
            f"trial {t}",
            sym=(_sup(M - M.T), 1e-14),
            manual=(_sup(M - (manual + manual.T) / 2.0), 1e-14),
            tp=(_sup(A1.conj().T @ A1 + A2.conj().T @ A2 - np.eye(d)), 1e-12),
        )


def prop_trace_pair_normalization(rng, trials):
    W = antilinear.wootters_conjugation()
    a1, a2 = measures.partial_trace_kraus()
    M = antilinear.theta_from_kraus_pair(a1, a2)
    Ms = antilinear.theta_from_kraus_pair(a1 / np.sqrt(2.0), a2 / np.sqrt(2.0))
    yield _within("partial-trace pair theta = flip/2", dev=(_sup(M - W / 2.0), 1e-15))
    yield _within("subnormalized pair theta = flip/4", dev=(_sup(Ms - W / 4.0), 1e-15))


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
        yield _within(f"trial {t}", transported_spectrum=(_sup(lam1 - lam2), 1e-9))


def prop_takagi_reconstruct(rng, trials):
    for t in range(trials):
        d = (2, 3, 4, 8)[t % 4]
        B = _rand_symmetric(rng, d) * rng.uniform(0.2, 3.0)
        tak = antilinear.takagi(B)
        yield _within(
            f"trial {t}",
            rec=(_sup(tak.reconstruct() - (B + B.T) / 2.0), 1e-8),
            svd=(_sup(tak.lambdas - np.linalg.svd(B, compute_uv=False)), 1e-10),
            orth=(_sup(tak.basis.conj().T @ tak.basis - np.eye(d)), 1e-10),
        )
    # fixed degenerate and canonical cases (gauge-invariant checks only: basis
    # columns are fixed up to sign, and within a degenerate cluster up to a
    # real rotation)
    tak = antilinear.takagi(np.array([[2j]]))
    yield _within(
        "takagi([[2i]]) = 2 u u^T, u^2 = i",
        lam=(abs(tak.lambdas[0] - 2.0), 1e-12),
        u_sq=(abs(tak.basis[0, 0] ** 2 - 1j), 1e-12),
    )
    tak = antilinear.takagi(np.diag([3.0, 1.0]))
    yield _within(
        "takagi(diag(3,1))",
        lambdas=(_sup(tak.lambdas - [3.0, 1.0]), 1e-12),
        rec=(_sup(tak.reconstruct() - np.diag([3.0, 1.0])), 1e-12),
    )
    tak = antilinear.takagi(np.eye(4, dtype=complex))
    yield _within("takagi(identity)", rec=(_sup(tak.reconstruct() - np.eye(4)), 1e-10))


def _flat_contract_check(rng, t, mode):
    d = (2, 3, 4)[t % 3]
    rank = 1 + (t % d)
    A = _rand_symmetric(rng, d)
    omega = states.random_density(d, rank=rank, seed=rng)
    dec = antilinear.flat_optimal_decomposition(A, omega, mode=mode)
    obj = solver.theta_form_objective(A)
    avg = solver.verify_roof_point(obj, dec)
    _, spread, _ = solver.flatness_check(obj, dec, tol=1e-8)
    convex, concave = antilinear.roof_values(A, omega)
    target = convex if mode == "convex" else concave
    return _within(
        f"trial {t} d={d} rank={rank}",
        rec=(dec.reconstruction_error(omega), 1e-8),
        spread=(spread, 1e-8),
        roof=(abs(avg - target), 1e-8),
    )


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
        yield _within(f"trial {t}", below=(convex - avg, 1e-10), above=(avg - concave, 1e-10))


def prop_local_unitary_invariance(rng, trials):
    for t in range(trials):
        rho = states.random_density(4, seed=rng)
        U = states.random_unitary(2, seed=rng)
        V = states.random_unitary(2, seed=rng)
        UV = np.kron(U, V)
        c1 = measures.concurrence_2qubit(rho).value
        c2 = measures.concurrence_2qubit(UV @ rho @ UV.conj().T).value
        yield _within(f"trial {t}", concurrence_moved=(abs(c1 - c2), 1e-9))


def prop_two_qubit_anchors(rng, trials):
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        c = measures.concurrence_2qubit(states.pure_projector(states.bell_state(kind))).value
        yield _within(f"C({kind}) = 1", dev=(abs(c - 1.0), 1e-10))
    prod = states.pure_projector(states.product_pure([1.0, 0.0], [0.6, 0.8]))
    c = measures.concurrence_2qubit(prod).value
    yield _within("C(product) = 0", dev=(abs(c), 1e-10))
    for p in np.linspace(0.0, 1.0, 11):
        c = measures.concurrence_2qubit(states.werner_state(p)).value
        target = max(0.0, (3.0 * p - 1.0) / 2.0)
        yield _within(f"Werner p={_fmt(p)}", dev=(abs(c - target), 1e-10))
    convex, concave = antilinear.roof_values(
        antilinear.wootters_conjugation(), states.maximally_mixed(4)
    )
    yield _within("convex roof at identity/4 = 0", dev=(abs(convex), 1e-10))
    yield _within("concave roof at identity/4 = 1", dev=(abs(concave - 1.0), 1e-10))


def prop_wootters_solver_agreement(rng, trials):
    theta = antilinear.wootters_conjugation() / 2.0
    obj = solver.theta_form_objective(theta)
    for t in range(trials):
        rank = (1, 2, 2, 3)[t % 4]
        rho = states.random_density(4, rank=rank, seed=rng)
        closed = measures.concurrence_2qubit(rho).value
        cfg = _light_config(rng, members=max(4, 2 * rank))
        num = 2.0 * solver.minimize_roof(obj, rho, cfg).value
        yield _within(f"trial {t} rank={rank}", gap=(abs(closed - num), 2e-3), below=(closed - num, 1e-10))


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
        tol = 1e-12 * max(1.0, abs(rhs_t), abs(rhs_d))
        yield _within(f"trial {t}", det_T=(abs(lhs_t - rhs_t), tol), det=(abs(lhs_d - rhs_d), tol))


def prop_dephased_damping_weight(rng, trials):
    for g in np.linspace(0.1, 0.9, 9):
        sw = qubitmaps.subtraction_weight(qubitmaps.dephased_amplitude_damping(g))
        yield _within(f"gamma={_fmt(g)}", w=(abs(sw.w - g), 1e-10), w_hi=(abs(sw.w_hi - g), 1e-10))


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
    yield f"grid agreement {agree}/{total} within 1e-08 (worst deviation {_fmt(worst)})"
    yield _within("grid", disagreeing_fraction=(1.0 - agree / total, 0.01))


def prop_psd_certificate(rng, trials):
    for t in range(trials):
        M = _rand_subtracted_form(rng)
        xs = rng.normal(size=(1000, 4))
        xs[:, 0] = 1.0
        vals = np.einsum("ij,jk,ik->i", xs, M, xs)
        yield _within(f"trial {t}", dip_below_zero=(-float(vals.min()), 1e-9))


def prop_cauchy_schwarz(rng, trials):
    for t in range(trials):
        M = _rand_subtracted_form(rng)
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        bxy = float(x @ M @ y)
        excess = bxy * bxy - float(x @ M @ x) * float(y @ M @ y)
        yield _within(f"trial {t}", excess=(excess, 1e-10))


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
        yield _within(f"trial {t}", closed=(abs(semi - closed), 1e-8), homog=(homog, 1e-12), tri=(tri, 1e-10))


def prop_general_two_kraus_identity(rng, trials):
    for t in range(trials):
        A, B = _rand_standard_two_kraus(rng)
        T = qubitmaps.kraus_map([A, B])
        theta = antilinear.theta_from_kraus_pair(A, B)
        rho = states.random_density(2, rank=2, seed=rng)
        via_theta = qubitmaps.concurrence_general_two_kraus(theta, rho)
        via_pencil = float(np.sqrt(qubitmaps.concurrence_sq(T, rho)))
        yield _within(f"trial {t}", spectrum_vs_pencil=(abs(via_theta - via_pencil), 1e-8))


def prop_length_two_average(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        rho = states.random_density(2, rank=2, seed=rng)
        dec = qubitmaps.length_two_decomposition(T, rho)
        avg = sum(
            p * 2.0 * np.sqrt(max(0.0, np.linalg.det(qubitmaps.apply_map(T, np.outer(s, s.conj()))).real))
            for p, s in zip(dec.weights, dec.states)
        )
        closed = float(np.sqrt(qubitmaps.concurrence_sq(T, rho)))
        yield _within(f"trial {t}", rec=(dec.reconstruction_error(rho), 1e-10), avg=(abs(avg - closed), 1e-8))


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
        # concurrence affine along diameters at beta = critical beta
        bc = np.sqrt(qubitmaps.axial_critical_beta_sq(a, g))
        T = qubitmaps.axial_map(a, bc, g)
        sw = qubitmaps.subtraction_weight(T)
        cs = [
            np.sqrt(qubitmaps.concurrence_sq(T, r, sw)) for r in (r_lo, r_mid, r_hi)
        ]
        yield _within(
            f"trial {t}",
            tangle_chord=(abs(taus[1] - (taus[0] + taus[2]) / 2.0), 1e-10),
            concurrence_chord=(abs(cs[1] - (cs[0] + cs[2]) / 2.0), 1e-8),
        )


def prop_identity_map_interval(rng, trials):
    yield (
        "resolved reading: the identity-map pencil is PSD only at w = 1 "
        "(the admissible interval degenerates to a point, not to [0, 1])"
    )
    sw = qubitmaps.subtraction_weight(qubitmaps.identity_map())
    rho = states.random_density(2, rank=2, seed=rng)
    csq = qubitmaps.concurrence_sq(qubitmaps.identity_map(), rho, sw)
    yield _within("identity-map interval", w_lo=(abs(sw.w_lo - 1.0), 1e-9), w_hi=(abs(sw.w_hi - 1.0), 1e-9))
    yield _within("identity-map concurrence_sq on mixed input", dev=(abs(csq), 1e-12))


def prop_tangle_solver(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng) if t % 2 == 0 else _rand_kraus_channel(rng, n_ops=2 + t % 3)
        rho = states.random_density(2, rank=2, seed=rng)
        closed = measures.channel_tangle(T, rho).value
        obj = solver.objective_for(T, "det-out")
        num = 4.0 * solver.minimize_roof(obj, rho, _light_config(rng, members=4)).value
        yield _within(f"trial {t}", gap=(abs(closed - num), 5e-3))


# ---------------------------------------------------------------------------
# diagonal suite

def prop_flat_pair_contract(rng, trials):
    for t in range(trials):
        omega = states.random_density(2, rank=2, seed=rng)
        dec = diagonal.ed_qubit_flat_pair(omega)
        vals = [
            measures.shannon_entropy(np.abs(np.asarray(s)) ** 2) for s in dec.states
        ]
        avg = sum(p * v for p, v in zip(dec.weights, vals))
        yield _within(
            f"trial {t}",
            rec=(dec.reconstruction_error(omega), 1e-10),
            spread=(max(vals) - min(vals), 1e-10),
            avg=(abs(avg - diagonal.ed_qubit(omega)), 1e-10),
        )


def prop_diag_concavity(rng, trials):
    for t in range(trials):
        d = (2, 3, 4)[t % 3]
        rho1 = states.random_density(d, seed=rng)
        rho2 = states.random_density(d, seed=rng)
        lam = rng.uniform()
        mix = lam * rho1 + (1.0 - lam) * rho2
        lhs = diagonal.diag_entropy(mix)
        rhs = lam * diagonal.diag_entropy(rho1) + (1.0 - lam) * diagonal.diag_entropy(rho2)
        yield _within(f"trial {t}", concavity_violation=(rhs - lhs, 1e-12))


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
        yield _within(f"trial {t}", flip=(abs(base - flipped), 1e-12), rotate=(abs(base - rotated), 1e-12))


def prop_isotropic_construction(rng, trials):
    for t in range(trials):
        d = int(rng.integers(2, 6))
        F = rng.uniform(0.0, 1.0)
        iso = diagonal.isotropic_state(d, F)
        psi = np.ones(d) / np.sqrt(d)
        fid = float((psi @ iso.matrix @ psi).real)
        yield _within(
            f"trial {t} d={d}",
            fidelity=(abs(fid - F), 1e-12),
            diag=(_sup(np.diag(iso.matrix).real - 1.0 / d), 1e-14),
            off_diag=(abs(iso.matrix[0, 1].real - iso.x / d), 1e-14),
        )
    iso = diagonal.isotropic_state(3, 1.0 / 3.0)
    yield _within("F = 1/d gives identity/d", dev=(_sup(iso.matrix - np.eye(3) / 3.0), 1e-14))
    iso = diagonal.isotropic_state(3, 1.0)
    yield states.spectrum(iso.matrix).rank == 1, "F = 1 does not give a pure state"
    try:
        diagonal.isotropic_state(3, 1.2)
    except OutOfRange:
        yield True, ""
    else:
        yield False, "fidelity 1.2 accepted"


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
        lhs = diagonal.diag_entropy(img)
        rhs = diagonal.diag_entropy(omega) + diagonal.embedding_offset(spec, omega)
        diag_dev = _sup(np.diag(img).real - expected_diag)
        yield _within(f"trial {t}", diag=(diag_dev, 1e-12), entropy_identity=(abs(lhs - rhs), 1e-10))


def prop_leaf_membership(rng, trials):
    for t in range(trials):
        d = (2, 3, 4)[t % 3]
        omega = states.random_density(d, seed=rng)
        dephased = np.diag(np.diag(omega))
        ok1 = diagonal.concave_leaf_membership(omega, omega)
        ok2 = diagonal.concave_leaf_membership(omega, dephased)
        diag = np.diag(omega).real
        perm = np.roll(diag, 1)
        distinct = _sup(diag - perm) > 1e-6
        rho_perm = np.diag(perm).astype(complex)
        ok3 = (not diagonal.concave_leaf_membership(omega, rho_perm)) if distinct else True
        yield ok1 and ok2 and ok3, f"trial {t}: leaf membership answers {ok1}/{ok2}/{ok3}"


def prop_optimal_pair_embedding(rng, trials):
    x1 = 2.0 * np.sqrt(2.0) / 3.0
    omega = states.bloch_to_qubit([x1, 0.0, 0.17])
    dec = diagonal.ed_qubit_flat_pair(omega)
    qs = sorted((np.abs(np.asarray(s)) ** 2 for s in dec.states), key=lambda q: float(q[0]))
    lo, hi = qs[0], qs[1]
    yield _within("low member diag = (1/3, 2/3)", dev=(_sup(lo - [1.0 / 3.0, 2.0 / 3.0]), 1e-12))
    yield _within("high member diag = (2/3, 1/3)", dev=(_sup(hi - [2.0 / 3.0, 1.0 / 3.0]), 1e-12))
    spec = diagonal.qubit_split_embedding()
    for name, q, target in (
        ("low", lo, np.array([1.0, 1.0, 1.0]) / 3.0),
        ("high", hi, np.array([4.0, 1.0, 1.0]) / 6.0),
    ):
        img_diag = np.concatenate(
            [np.abs(y) ** 2 * q[j] for j, y in enumerate(spec.amplitudes)]
        )
        yield _within(f"embedded {name} member diag", dev=(_sup(img_diag - target), 1e-12))
    val, psi = diagonal.h0_min_entropy_experiment(2)
    yield _within("H0 value at d=2 = log 2", dev=(abs(val - np.log(2.0)), 1e-15))


def prop_ed_solver(rng, trials):
    obj = solver.diag_entropy_objective()
    for t in range(trials):
        omega = states.random_density(2, rank=2, seed=rng)
        closed = diagonal.ed_qubit(omega)
        res = solver.minimize_roof(obj, omega, _light_config(rng, members=4))
        top = solver.maximize_roof(obj, omega, _light_config(rng, members=4))
        smax = diagonal.diag_entropy(omega)
        yield _within(
            f"trial {t}", min_gap=(abs(closed - res.value), 2e-3), max_gap=(abs(top.value - smax), 2e-3)
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
        yield _within(f"trial {t}", embedded_vs_shifted=(abs(lhs - rhs), 5e-3))


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
                min_dist = min(min_dist, _sup(ds[i] - ds[j]))
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
    yield _within("d=2 value vs log 2", dev=(abs(val2 - log2), 1e-15))
    yield _within("d=3 value vs log 2", dev=(abs(val3 - log2), 1e-3))
    yield _within("d=4 value vs log 2", below=(log2 - val4, 1e-3))


# ---------------------------------------------------------------------------
# bounds suite

def prop_xi_shape(rng, trials):
    log2 = float(np.log(2.0))
    yield _within("xi(0) = 0", dev=(abs(measures.xi(0.0)), 1e-15))
    yield _within("xi(1) = log 2", dev=(abs(measures.xi(1.0) - log2), 1e-15))
    eta_sum = measures.shannon_entropy([0.1, 0.9])
    yield _within("xi(0.6) = eta(0.1)+eta(0.9)", dev=(abs(measures.xi(0.6) - eta_sum), 1e-12))
    vals = [measures.xi(x) for x in np.linspace(0.0, 1.0, 21)]
    yield _within("xi monotone on [0,1]", drop=(float(np.max(-np.diff(vals))), 1e-12))
    for t in range(trials):
        x, y = rng.uniform(0.0, 1.0, size=2)
        mid = measures.xi((x + y) / 2.0)
        chord = (measures.xi(x) + measures.xi(y)) / 2.0
        yield _within(f"trial {t}", midpoint_above_chord=(mid - chord, 1e-9))


def prop_tau_vs_csq(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        rho = states.random_density(2, seed=rng)
        a, b, g = T.params
        tau = qubitmaps.axial_tangle(a, b, g, rho)
        csq = qubitmaps.concurrence_sq(T, rho)
        yield _within(f"trial {t}", csq_above_tau=(csq - tau, 1e-9))


def prop_eof_mixing(rng, trials):
    for t in range(trials):
        rho = states.random_density(4, seed=rng)
        p = rng.dirichlet(np.ones(4))
        sep = np.diag(p).astype(complex)
        lam = rng.uniform()
        mixed = lam * rho + (1.0 - lam) * sep
        lhs = measures.eof_2qubit(mixed).value
        rhs = lam * measures.eof_2qubit(rho).value
        yield _within(f"trial {t}", eof_rise=(lhs - rhs, 1e-9))


def prop_pure_state_consistency(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        psi = states.random_pure(2, seed=rng)
        pi = states.pure_projector(psi)
        a, b, g = T.params
        det4 = 4.0 * float(np.linalg.det(qubitmaps.apply_map(T, pi)).real)
        csq = qubitmaps.concurrence_sq(T, pi)
        tau = qubitmaps.axial_tangle(a, b, g, pi)
        yield _within(f"trial {t} vs 4 det T", csq=(abs(csq - det4), 1e-10), tau=(abs(tau - det4), 1e-10))


def prop_flat_transfer(rng, trials):
    theta = antilinear.wootters_conjugation() / 2.0
    obj = solver.theta_form_objective(theta)
    for t in range(trials):
        rho = states.random_density(4, rank=2, seed=rng)
        dec = antilinear.flat_optimal_decomposition(theta, rho, mode="convex")
        _, spread, vals = solver.flatness_check(obj, dec, tol=1e-8)
        avg_xi = sum(
            p * measures.xi(min(1.0, 2.0 * v)) for p, v in zip(dec.weights, vals)
        )
        eof = measures.eof_2qubit(rho).value
        yield _within(f"trial {t}", spread=(spread, 1e-8), xi_avg_vs_eof=(abs(avg_xi - eof), 5e-3))


def prop_channel_bound(rng, trials):
    for t in range(trials):
        T = _rand_axial(rng)
        rho = states.random_density(2, rank=2, seed=rng)
        rep = measures.channel_entanglement(T, rho, _light_config(rng, members=4))
        lower, upper = rep.bounds[0], rep.bounds[1]
        yield _within(f"trial {t}", below=(lower - rep.value, 5e-3), above=(rep.value - upper, 1e-9))
    # diagonal channel: solver value must match the closed form
    rng2 = np.random.default_rng(12345)
    omega = states.random_density(2, rank=2, seed=rng2)
    T = qubitmaps.diagonal_channel()
    rep = measures.channel_entanglement(
        T, omega, solver.SolverConfig(members=4, restarts=6, max_iters=600, stall_iters=40, seed=7)
    )
    ok, note = _within("diagonal channel", gap=(abs(rep.value - diagonal.ed_qubit(omega)), 2e-3))
    flat = rep.extras.get("flat", False)
    yield ok and flat, f"{note}, flat {flat}"


def prop_strict_gap(rng, trials):
    g = 0.5
    T = qubitmaps.dephased_amplitude_damping(g)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    csq = qubitmaps.concurrence_sq(T, rho)
    tau = qubitmaps.axial_tangle(1.0, 0.0, g, rho)
    detrho = float(np.linalg.det(rho).real)
    expected_gap = 4.0 * (g - g * g) * detrho
    yield _within("C^2 at the reference point = 0.375", dev=(abs(csq - 0.375), 1e-12))
    yield tau - csq > 1e-6, f"tangle gap not strict: tau {_fmt(tau)} vs C^2 {_fmt(csq)}"
    yield _within("gap = 4 (w_C - w_tau) det rho", dev=(abs((tau - csq) - expected_gap), 1e-12))


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
