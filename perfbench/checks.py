"""Reference computations and output checks for the roofext benchmark.

Everything here uses numpy only and never imports roofext, so each check
compares the program's output with a computation made apart from it, or
with a property the method must have.  Every check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# sigma_y (x) sigma_y is real: the entries are products of +-i.
YY = np.kron(SIGMA_Y, SIGMA_Y).real
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    SIGMA_Y,
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# det X = x^T Q_DET x for X = (x0 1 + x . sigma) / 2.
Q_DET = np.diag([0.25, -0.25, -0.25, -0.25])

CLOSED_TOL = 1e-10  # closed-form value against its reference
FLAT_TOL = 1e-8  # reconstruction, flatness and average of a decomposition
MEMBER_TOL = 1e-12  # flatness counts members above this weight, as the program's contract does
PENCIL_TOL = 1e-9  # PSD floor of the pencil, relative to its scale
BELOW_STEP = 1e-6  # distance below w_lo at which the pencil must be indefinite
AXIAL_TOL = 1e-8  # pencil weight against the axial closed form
SOLVER_UNDER = 1e-10  # a minimum may lie below the closed form by at most this
SOLVER_GAP = 2e-3  # and above it by at most this (mirrored for a maximum)
SOLVER_AVG_TOL = 1e-9  # reported value against its decomposition's average
H0_TOL = 1e-3  # d = 3 minimum against ln 2


# ---------------------------------------------------------------------------
# Reference computations

def eta(x):
    """-x ln x, extended by 0 at x = 0 (elementwise)."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, -x * np.log(safe), 0.0)


def binary_entropy(p):
    return float(eta(p) + eta(1.0 - p))


def support_factor(omega, rel_tol=1e-12):
    """K with omega = K K^dag, one column per eigenvalue above rel_tol * max."""
    omega = np.asarray(omega, dtype=complex)
    vals, vecs = np.linalg.eigh((omega + omega.conj().T) / 2.0)
    keep = vals > rel_tol * max(float(vals[-1]), 1e-300)
    return vecs[:, keep] * np.sqrt(vals[keep])


def antilinear_spectrum(A, omega):
    """Descending lambdas of the anti-linear roof of |psi^T A psi| at omega.

    The lambda_k^2 are the nonzero eigenvalues of omega A omega^* A^*.  With
    omega = K K^dag they equal the eigenvalues of M M^dag, M = K^dag A K^*, so
    the lambdas are the singular values of M.  This route never takes the
    square root of rounding noise on the null space of omega.
    """
    K = support_factor(omega)
    lam = np.linalg.svd(K.conj().T @ np.asarray(A, dtype=complex) @ K.conj(), compute_uv=False)
    return np.sort(lam)[::-1]


def roof_pair(A, omega):
    """(convex roof, concave roof) of |psi^T A psi| from the spectrum."""
    lam = antilinear_spectrum(A, omega)
    return max(0.0, float(lam[0] - lam[1:].sum())), float(lam.sum())


def wootters_concurrence(rho):
    """Wootters concurrence max(0, l1 - l2 - l3 - l4).

    The l_k^2 are the eigenvalues of rho (sy x sy) rho^* (sy x sy), computed on
    the support of rho as in antilinear_spectrum.
    """
    lam = antilinear_spectrum(YY, rho)
    lam = np.concatenate([lam, np.zeros(4 - lam.size)])
    return max(0.0, float(lam[0] - lam[1:].sum()))


def xi(c):
    """Entanglement of formation of a two-qubit state of concurrence c."""
    y = float(np.sqrt(max(0.0, 1.0 - c * c)))
    return binary_entropy((1.0 - y) / 2.0)


def qubit_bloch(omega):
    """(x1, x2, x3) with omega = (1 + x . sigma) / 2."""
    return np.array([2.0 * omega[0, 1].real, -2.0 * omega[0, 1].imag, (omega[0, 0] - omega[1, 1]).real])


def ed_qubit_reference(omega):
    """Diagonal-channel roof of a qubit: h((1 + s)/2), s = sqrt(1 - x1^2 - x2^2)."""
    x = qubit_bloch(np.asarray(omega, dtype=complex))
    s = float(np.sqrt(max(0.0, 1.0 - x[0] ** 2 - x[1] ** 2)))
    return binary_entropy((1.0 + s) / 2.0)


def diag_entropy(omega):
    return float(np.sum(eta(np.clip(np.real(np.diag(omega)), 0.0, None))))


def four_vector(X):
    return np.array([np.trace(P @ X).real for P in PAULIS])


def kraus_bloch(ops):
    """4x4 real matrix of sum_k E_k X E_k^dag in Pauli coordinates."""
    L = np.empty((4, 4))
    for nu, P in enumerate(PAULIS):
        L[:, nu] = four_vector(sum(E @ P @ E.conj().T for E in ops)) / 2.0
    return L


def axial_bloch(alpha, beta, gamma):
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, beta, 0.0, 0.0],
            [0.0, 0.0, beta, 0.0],
            [alpha - gamma, 0.0, 0.0, alpha + gamma - 1.0],
        ]
    )


def axial_weight(alpha, beta, gamma):
    """Closed-form concurrence weight of an axial map."""
    crit = (np.sqrt(alpha * gamma) - np.sqrt((1.0 - alpha) * (1.0 - gamma))) ** 2
    return float(max(beta * beta, crit))


def axial_tangle_reference(alpha, beta, gamma, rho):
    m = alpha + gamma - 1.0
    w = beta * beta if abs(beta) >= abs(m) else m * m
    x = four_vector(np.asarray(rho, dtype=complex))
    y = axial_bloch(alpha, beta, gamma) @ x
    return max(0.0, 4.0 * (float(y @ Q_DET @ y) - w * float(x @ Q_DET @ x)))


def output_det(bloch, psi):
    """det T(|psi><psi|) through the map's Bloch matrix."""
    x = four_vector(np.outer(psi, np.conj(psi)))
    y = np.asarray(bloch, dtype=float) @ x
    return float(y @ Q_DET @ y)


def kraus_pair_theta(ops):
    """Symmetric M with |psi^dag M psi^*| = sqrt(det T(|psi><psi|)) for a two-Kraus channel."""
    flip = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    A1, A2 = (np.asarray(E, dtype=complex) for E in ops)
    M = (A1.conj().T @ flip @ A2.conj() - A2.conj().T @ flip @ A1.conj()) / 2.0
    return (M + M.T) / 2.0


def pencil_w_lo(bloch, rel_tol=1e-12):
    """Lower end of {w in [0,1] : Q_T - w Q_det PSD}, solved exactly.

    The ends of the interval are 0, 1 or real generalized eigenvalues of the
    pencil, i.e. eigenvalues of Q_det^-1 Q_T; the smallest candidate at
    which the pencil is PSD is w_lo.  (At a double eigenvalue, as for
    two-Kraus channels, this loses half the digits; use kraus_pair_theta.)
    """
    L = np.asarray(bloch, dtype=float)
    q_t = L.T @ Q_DET @ L
    q_t = (q_t + q_t.T) / 2.0
    scale = max(1.0, float(np.max(np.abs(q_t))))
    mu = np.linalg.eigvals(np.linalg.solve(Q_DET, q_t))
    real = mu.real[np.abs(mu.imag) <= 1e-9 * np.maximum(1.0, np.abs(mu))]
    candidates = sorted({0.0, 1.0, *(float(w) for w in real if 0.0 <= w <= 1.0)})
    for w in candidates:
        if np.linalg.eigvalsh(q_t - w * Q_DET)[0] >= -rel_tol * scale:
            return w
    return None


def map_concurrence_reference(bloch, rho, w_lo):
    """C_T(rho) = 2 sqrt(det T(rho) - w_lo det rho)."""
    x = four_vector(np.asarray(rho, dtype=complex))
    y = np.asarray(bloch, dtype=float) @ x
    return 2.0 * float(np.sqrt(max(0.0, float(y @ Q_DET @ y) - w_lo * float(x @ Q_DET @ x))))


def theta_value(A, psi):
    """|psi^dag A psi^*|, the member value of the anti-linear form."""
    c = np.conj(np.asarray(psi, dtype=complex))
    return abs(complex(c @ A @ c))


def average_state(weights, states):
    return sum(p * np.outer(s, np.conj(s)) for p, s in zip(weights, states))


# ---------------------------------------------------------------------------
# Checks: each returns a list of failure messages

def _close(name, got, want, tol):
    if not np.isfinite(got) or abs(got - want) > tol:
        return [f"{name}: got {got!r}, reference {want!r}, tolerance {tol:.0e}"]
    return []


def check_concurrence(value, rho):
    return _close("concurrence_2qubit", value, wootters_concurrence(rho), CLOSED_TOL)


def check_eof(value, rho):
    return _close("eof_2qubit", value, xi(wootters_concurrence(rho)), CLOSED_TOL)


def check_roof_values(values, A, omega):
    convex, concave = roof_pair(A, omega)
    return _close("roof_values convex", values[0], convex, CLOSED_TOL) + _close(
        "roof_values concave", values[1], concave, CLOSED_TOL
    )


def check_decomposition(name, dec, omega, member_value, roof):
    """Reconstructs omega, is flat over members of weight > MEMBER_TOL, averages to roof."""
    weights = np.asarray(dec.weights, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in dec.states]
    errs = []
    if len(states) != len(weights) or not states:
        return [f"{name}: {len(weights)} weights for {len(states)} members"]
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > FLAT_TOL:
        errs.append(f"{name}: weights {weights} are not a probability vector")
    rec = float(np.linalg.norm(average_state(weights, states) - omega))
    if not rec <= FLAT_TOL:
        errs.append(f"{name}: reconstruction error {rec:.3e} > {FLAT_TOL:.0e}")
    values = np.array([member_value(s) for s, p in zip(states, weights) if p > MEMBER_TOL])
    spread = float(values.max() - values.min()) if values.size else np.inf
    if not spread <= FLAT_TOL:
        errs.append(f"{name}: member values spread {spread:.3e} > {FLAT_TOL:.0e}")
    avg = float(sum(p * member_value(s) for p, s in zip(weights, states)))
    errs += _close(f"{name} average", avg, roof, FLAT_TOL)
    return errs


def check_flat(dec, A, omega, mode):
    convex, concave = roof_pair(A, omega)
    roof = convex if mode == "convex" else concave
    return check_decomposition(
        f"flat_optimal_decomposition {mode}", dec, omega, lambda s: theta_value(A, s), roof
    )


def check_ed_qubit(value, omega):
    return _close("ed_qubit", value, ed_qubit_reference(omega), CLOSED_TOL)


def check_ed_pair(dec, omega):
    omega = np.asarray(omega, dtype=complex)
    member = lambda s: float(np.sum(eta(np.abs(s) ** 2)))  # noqa: E731
    errs = check_decomposition("ed_qubit_flat_pair", dec, omega, member, ed_qubit_reference(omega))
    avg = float(sum(p * member(np.asarray(s)) for p, s in zip(dec.weights, dec.states)))
    if len(dec.weights) > 2:
        errs.append(f"ed_qubit_flat_pair: {len(dec.weights)} members, expected at most 2")
    if avg > diag_entropy(omega) + CLOSED_TOL:
        errs.append(f"ed_qubit_flat_pair: average {avg!r} above the diagonal entropy")
    return errs


def check_kraus_map(T, ops):
    want = kraus_bloch(ops)
    dev = float(np.max(np.abs(np.asarray(T.bloch) - want)))
    if not dev <= CLOSED_TOL:
        return [f"kraus_map: Bloch matrix deviates by {dev:.3e} from sum E X E^dag"]
    return []


def pencil_min_eig(bloch, w):
    L = np.asarray(bloch, dtype=float)
    q_t = L.T @ Q_DET @ L
    return float(np.linalg.eigvalsh((q_t + q_t.T) / 2.0 - w * Q_DET)[0]), float(np.max(np.abs(q_t)))


def check_subtraction_weight(sw, bloch, axial=None):
    """PSD at w_lo and w_hi, indefinite just below w_lo; closed form for axial maps."""
    errs = []
    if not (0.0 <= sw.w_lo <= sw.w_hi <= 1.0) or sw.w != sw.w_lo:
        errs.append(f"subtraction_weight: bad interval ({sw.w_lo!r}, {sw.w_hi!r}), w={sw.w!r}")
        return errs
    for w in (sw.w_lo, sw.w_hi):
        lam, scale = pencil_min_eig(bloch, w)
        if lam < -PENCIL_TOL * max(1.0, scale):
            errs.append(f"subtraction_weight: pencil min eigenvalue {lam:.3e} at w={w!r}")
    if sw.w_lo >= BELOW_STEP:
        lam, _ = pencil_min_eig(bloch, sw.w_lo - BELOW_STEP)
        if not lam < 0.0:
            errs.append(f"subtraction_weight: pencil still PSD ({lam:.3e}) below w_lo={sw.w_lo!r}")
    if axial is not None:
        errs += _close("subtraction_weight axial", sw.w_lo, axial_weight(*axial), AXIAL_TOL)
    return errs


def check_length_two(dec, omega):
    omega = np.asarray(omega, dtype=complex)
    errs = []
    if not 1 <= len(dec.weights) <= 2:
        errs.append(f"length_two_decomposition: {len(dec.weights)} members")
    rec = float(np.linalg.norm(average_state(dec.weights, dec.states) - omega))
    if not rec <= FLAT_TOL:
        errs.append(f"length_two_decomposition: reconstruction error {rec:.3e}")
    return errs


def check_map_concurrence(report, bloch, dec, sw):
    """C_T equals the length-two average of 2 sqrt(det T(psi)), and carries its interval."""
    avg = float(
        sum(p * 2.0 * np.sqrt(max(0.0, output_det(bloch, s))) for p, s in zip(dec.weights, dec.states))
    )
    return _close("map_concurrence vs length-two average", report.value, avg, FLAT_TOL) + _same_interval(report, sw)


def _same_interval(report, sw):
    if report.extras.get("w_lo") != sw.w_lo or report.extras.get("w_hi") != sw.w_hi:
        return [f"map_concurrence: extras {report.extras} differ from the weight interval"]
    return []


def check_two_kraus_concurrence(report, ops, omega, sw):
    """C_T of a two-Kraus channel is twice the convex roof of its Kraus-pair form."""
    want = 2.0 * roof_pair(kraus_pair_theta(ops), omega)[0]
    return _close("map_concurrence two-Kraus", report.value, want, CLOSED_TOL) + _same_interval(report, sw)


def check_axial_tangle(tau, axial, rho, concurrence):
    errs = _close("axial_tangle", tau, axial_tangle_reference(*axial, rho), CLOSED_TOL)
    if tau < concurrence * concurrence - PENCIL_TOL:
        errs.append(f"axial_tangle: tau {tau!r} below C^2 {concurrence * concurrence!r}")
    return errs


def check_solver(name, value, closed, mode="min"):
    """A minimum never below the closed form, and within SOLVER_GAP above it (mirrored for max)."""
    gap = value - closed if mode == "min" else closed - value
    if not (np.isfinite(value) and -SOLVER_UNDER <= gap <= SOLVER_GAP):
        return [f"{name}: solver {mode} {value!r} vs closed form {closed!r} (gap {gap:.3e})"]
    return []


def check_solver_average(name, value, dec, member_value):
    """The reported value equals the average over the returned decomposition."""
    avg = float(sum(p * member_value(np.asarray(s, dtype=complex)) for p, s in zip(dec.weights, dec.states)))
    return _close(f"{name} decomposition average", value, avg, SOLVER_AVG_TOL)


def check_h0(d, value, psi):
    psi = np.asarray(psi, dtype=complex)
    errs = []
    if abs(float(np.linalg.norm(psi)) - 1.0) > SOLVER_AVG_TOL or abs(complex(psi.sum())) > SOLVER_AVG_TOL:
        errs.append(f"h0_min_entropy_experiment d={d}: state is not a unit vector of zero amplitude sum")
    errs += _close(f"h0 d={d} state entropy", value, float(np.sum(eta(np.abs(psi) ** 2))), SOLVER_AVG_TOL)
    if value > LN2 + SOLVER_UNDER:
        errs.append(f"h0_min_entropy_experiment d={d}: {value!r} exceeds ln 2")
    if d == 3 and abs(value - LN2) > H0_TOL:
        errs.append(f"h0_min_entropy_experiment d=3: {value!r} not within {H0_TOL:.0e} of ln 2")
    return errs
