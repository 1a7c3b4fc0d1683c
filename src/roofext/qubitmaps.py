"""Stochastic (trace-preserving positive) one-qubit maps and the subtraction procedure.

The determinant of a Hermitian 2x2 matrix is a quadratic form in its Pauli
four-vector, and so is det T(X) for a linear qubit map T.  Subtracting the
right multiple of det X makes the difference a nonnegative quadratic form
whose square root is (half) the map concurrence:

    C_T(rho)^2 = 4 (det T(rho) - w det rho),   w = w_lo,

where [w_lo, w_hi] is the set of w making Q_T - w Q_det positive
semidefinite.  Q_det is invertible, so both endpoints are 0, 1 or real
eigenvalues of Q_det^-1 Q_T: one small eigenproblem gives the interval
exactly.  By the S-lemma the interval is nonempty exactly when the map is
positive, which is how affine maps are certified; Kraus maps are completely
positive by construction.  Optimal decompositions have length two: cut the
Bloch ball along the null direction of the pencil at w_lo.

Axial maps (diagonal Bloch action with a shift along z) admit closed forms
for both the concurrence weight and the tangle weight; these are checked
against the pencil everywhere in the test suite.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Optional

import numpy as np

from .antilinear import check_symmetric, lambda_spectrum
from .errors import (
    DegeneratePencil,
    DimMismatch,
    EmptyInterval,
    NotPSD,
    NotStandardForm,
    NotTracePreserving,
    OutOfRange,
    RoofextError,
    ShapeMismatch,
)
from .states import (
    PAULI_STACK,
    PureDecomposition,
    psd_sqrt,
    spectral_ensemble,
    state_rank,
    validate_density,
)

TP_TOL = 1e-10

Q_DET = np.diag([0.25, -0.25, -0.25, -0.25])
# Rounding splits a double generalized eigenvalue by about sqrt(eps) ~ 1e-8;
# roots closer than this are one cluster, imaginary parts below it are noise.
_SPLIT_GAP = 1e-6


def four_vector(X):
    """Pauli coordinates (Tr X, Tr sigma_1 X, Tr sigma_2 X, Tr sigma_3 X), real part."""
    X = np.asarray(X, dtype=complex)
    return np.real(np.einsum("kij,ji->k", PAULI_STACK, X))


def _from_four_vector(y):
    return np.einsum("k,kij->ij", np.asarray(y, dtype=complex), PAULI_STACK) / 2.0


@dataclasses.dataclass(frozen=True, eq=False)
class QubitStochasticMap:
    """Positive trace-preserving qubit map; always carries its Bloch 4x4 matrix."""

    kind: str  # "kraus" | "axial" | "affine"
    bloch: np.ndarray
    kraus: Optional[tuple] = None
    params: Optional[tuple] = None  # (alpha, beta, gamma) for axial kind


def apply_map(T, X):
    """Apply the map to any 2x2 matrix (linear; uses Kraus form when available)."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, 2):
        raise ShapeMismatch(f"expected a 2x2 matrix, got {X.shape}")
    if T.kraus is not None:
        out = np.zeros((2, 2), dtype=complex)
        for E in T.kraus:
            out += E @ X @ E.conj().T
        return out
    x = np.einsum("kij,ji->k", PAULI_STACK, X)  # complex coordinates, stays linear
    return _from_four_vector(T.bloch @ x)


def kraus_map(ops):
    ops = tuple(np.asarray(E, dtype=complex) for E in ops)
    if not ops or any(E.shape != (2, 2) for E in ops):
        raise ShapeMismatch("kraus_map needs a nonempty list of 2x2 matrices")
    tp = sum(E.conj().T @ E for E in ops)
    dev = float(np.max(np.abs(tp - np.eye(2))))
    if dev > TP_TOL:
        raise NotTracePreserving(f"sum E^dag E deviates from identity by {dev:.3e}")
    bloch = np.empty((4, 4))
    for nu in range(4):
        out = sum(E @ PAULI_STACK[nu] @ E.conj().T for E in ops)
        bloch[:, nu] = np.real(np.einsum("kij,ji->k", PAULI_STACK, out)) / 2.0
    return QubitStochasticMap(kind="kraus", bloch=bloch, kraus=ops)


def axial_beta_max(alpha, gamma):
    """Largest |beta| keeping the axial map positive."""
    return float(np.sqrt(alpha * gamma) + np.sqrt((1.0 - alpha) * (1.0 - gamma)))


def axial_critical_beta_sq(alpha, gamma):
    """beta^2 value at which the concurrence weight switches branches."""
    return float((np.sqrt(alpha * gamma) - np.sqrt((1.0 - alpha) * (1.0 - gamma))) ** 2)


def axial_map(alpha, beta, gamma):
    """Axial map: T(|0><0|) = diag(a, 1-a), T(|1><1|) = diag(1-g, g), off-diagonal * beta.

    Bloch action: (x1, x2) * beta, x3 -> (alpha - gamma) + (alpha + gamma - 1) x3.
    """
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    if not (0.0 <= alpha <= 1.0 and 0.0 <= gamma <= 1.0):
        raise OutOfRange(f"axial alpha, gamma must lie in [0,1], got {alpha}, {gamma}")
    bmax = axial_beta_max(alpha, gamma)
    if beta * beta > bmax * bmax + 1e-12:
        raise OutOfRange(f"|beta|={abs(beta):.6f} exceeds the positivity bound {bmax:.6f}")
    bloch = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, beta, 0.0, 0.0],
            [0.0, 0.0, beta, 0.0],
            [alpha - gamma, 0.0, 0.0, alpha + gamma - 1.0],
        ]
    )
    return QubitStochasticMap(kind="axial", bloch=bloch, params=(alpha, beta, gamma))


def affine_map(m):
    """Trace-preserving map from its Bloch 4x4 matrix; raises NotPSD unless it is positive."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ShapeMismatch(f"affine map needs a 4x4 real matrix, got {m.shape}")
    dev = float(np.max(np.abs(m[0] - np.array([1.0, 0.0, 0.0, 0.0]))))
    if dev > TP_TOL:
        raise NotTracePreserving(f"trace row deviates from (1,0,0,0) by {dev:.3e}")
    T = QubitStochasticMap(kind="affine", bloch=m.copy())
    try:
        subtraction_weight(T)
    except EmptyInterval as exc:
        raise NotPSD(f"map is not positive: {exc}") from None
    return T


def identity_map():
    return axial_map(1.0, 1.0, 1.0)


def diagonal_channel():
    """Kills off-diagonal entries in the computational basis."""
    return axial_map(1.0, 0.0, 1.0)


def dephasing_map(beta):
    """Shrinks off-diagonal entries by beta, keeps populations."""
    return axial_map(1.0, beta, 1.0)


def dephased_amplitude_damping(gamma):
    """Decay channel that also kills coherences: diag(x00 + (1-g) x11, g x11)."""
    return axial_map(1.0, 0.0, gamma)


def amplitude_damping(p):
    """Standard decay channel with excited-state survival 1-p (sits on the positivity edge)."""
    return axial_map(1.0, float(np.sqrt(1.0 - p)), 1.0 - p)


def depolarizing_map(q):
    """T(X) = q X + (1-q) Tr(X) 1/2."""
    return axial_map((1.0 + q) / 2.0, q, (1.0 + q) / 2.0)


# ---------------------------------------------------------------------------
# Determinant pencil and the subtraction weight

@dataclasses.dataclass(frozen=True, eq=False)
class QuadraticFormPencil:
    """Pair of real symmetric 4x4 forms: x^T q_t x = det T(X), x^T q_det x = det X."""

    q_t: np.ndarray
    q_det: np.ndarray

    def matrix(self, w):
        return self.q_t - w * self.q_det


def det_T_form(T):
    """Quadratic-form pencil of the map: exact on all of Hermitian 2x2 space."""
    L = np.asarray(T.bloch, dtype=float)
    q_t = L.T @ Q_DET @ L
    return QuadraticFormPencil(q_t=(q_t + q_t.T) / 2.0, q_det=Q_DET.copy())


@dataclasses.dataclass(frozen=True)
class SubtractionWeight:
    """Admissible interval [w_lo, w_hi] of the determinant subtraction, and the pick w = w_lo."""

    w_lo: float
    w_hi: float
    w: float


def subtraction_weight(T, psd_tol=1e-9):
    """Interval [w_lo, w_hi] of w in [0,1] with Q_T - w Q_det PSD, by one exact solve.

    Both endpoints are 0, 1 or real generalized eigenvalues of the pencil
    (eigenvalues of Q_det^-1 Q_T).  Each candidate is tested once with
    eigvalsh, from the bottom up for w_lo and from the top down for w_hi.  A
    touching point is a double root that rounding splits into a pair about
    1e-8 apart, real or complex; such a cluster counts as its mean when the
    pencil is singular there (minimum eigenvalue within 1e-12 * scale of 0).
    Raises EmptyInterval when no candidate is PSD within psd_tol * scale,
    which by the S-lemma means the map is not positive.
    """
    pencil = det_T_form(T)
    scale = max(1.0, float(np.max(np.abs(pencil.q_t))))
    min_eig = {}

    def lam(w):
        if w not in min_eig:
            min_eig[w] = float(np.linalg.eigvalsh(pencil.matrix(w))[0])
        return min_eig[w]

    roots = np.linalg.eigvals(np.linalg.solve(pencil.q_det, pencil.q_t))
    roots = np.sort(roots[np.abs(roots.imag) <= _SPLIT_GAP].real)
    cands = {0.0, 1.0}
    for c in np.split(roots, np.flatnonzero(np.diff(roots) > _SPLIT_GAP) + 1):
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
    w_hi = first_psd(reversed(cands))
    return SubtractionWeight(w_lo=w_lo, w_hi=w_hi, w=w_lo)


def concurrence_sq(T, rho, weight=None):
    """C_T(rho)^2 = 4 (det T(rho) - w_lo det rho), clamped at zero."""
    rho = validate_density(rho)
    if rho.shape[0] != 2:
        raise DimMismatch(f"subtraction procedure needs a qubit state, got dim {rho.shape[0]}")
    if weight is None:
        weight = subtraction_weight(T)
    val = 4.0 * (np.linalg.det(apply_map(T, rho)).real - weight.w * np.linalg.det(rho).real)
    return float(max(0.0, val))


# ---------------------------------------------------------------------------
# Closed forms for axial maps

def _axial_params(alpha, beta, gamma):
    a, b, g = float(alpha), float(beta), float(gamma)
    if not (0.0 <= a <= 1.0 and 0.0 <= g <= 1.0):
        raise OutOfRange(f"axial alpha, gamma must lie in [0,1], got {a}, {g}")
    return a, b, g


def axial_concurrence_weight(alpha, beta, gamma):
    """Closed-form subtraction weight: max(beta^2, critical beta^2)."""
    a, b, g = _axial_params(alpha, beta, gamma)
    return float(max(b * b, axial_critical_beta_sq(a, g)))


def axial_tangle_weight(alpha, beta, gamma):
    """Closed-form tangle weight: max(beta^2, (alpha + gamma - 1)^2)."""
    a, b, g = _axial_params(alpha, beta, gamma)
    m = a + g - 1.0
    return float(max(b * b, m * m))


def axial_tangle(alpha, beta, gamma, rho):
    """Tangle of an axial map: tau = 4 (det T(rho) - w det rho).

    The weight branch is picked by comparing |beta| with |alpha + gamma - 1|;
    at equality the two branches coincide and tau is affine on the Bloch
    ball.  Normalized so tau(pure) = 4 det T(pure) = C_T(pure)^2.
    """
    a, b, g = _axial_params(alpha, beta, gamma)
    rho = validate_density(rho)
    if rho.shape[0] != 2:
        raise DimMismatch(f"axial tangle needs a qubit state, got dim {rho.shape[0]}")
    m = a + g - 1.0
    w = b * b if abs(b) >= abs(m) else m * m
    T = axial_map(a, b, g)
    val = 4.0 * (np.linalg.det(apply_map(T, rho)).real - w * np.linalg.det(rho).real)
    return float(max(0.0, val))


# ---------------------------------------------------------------------------
# Two-Kraus channels in standard form

def _standard_form_entries(A, B):
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != (2, 2) or B.shape != (2, 2):
        raise ShapeMismatch("standard-form Kraus pair must be 2x2")
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    if max(abs(A[0, 1]), abs(A[1, 0])) > 1e-12 * scale:
        raise NotStandardForm("first Kraus operator must be diagonal")
    if max(abs(B[0, 0]), abs(B[1, 1])) > 1e-12 * scale:
        raise NotStandardForm("second Kraus operator must be antidiagonal")
    tp = A.conj().T @ A + B.conj().T @ B
    dev = float(np.max(np.abs(tp - np.eye(2))))
    if dev > TP_TOL:
        raise NotTracePreserving(f"A^dag A + B^dag B deviates from identity by {dev:.3e}")
    return A[0, 0], A[1, 1], B[0, 1], B[1, 0]


def two_kraus_seminorm(A, B, X):
    """Concurrence seminorm of a standard-form two-Kraus channel on Hermitian X.

    Value 2 |D + E| with D = |a0 b10| x00 - |a1 b01| x11 and
    E = z x10 - conj(z) x01, z^2 = conj(a0) a1 b01 conj(b10); E is purely
    imaginary on Hermitian X, so the modulus is branch-free in z.
    On states this equals sqrt(concurrence_sq) of the same channel.
    """
    a0, a1, b01, b10 = _standard_form_entries(A, B)
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, 2):
        raise ShapeMismatch(f"expected a 2x2 matrix, got {X.shape}")
    z = np.sqrt(np.conj(a0) * a1 * b01 * np.conj(b10) + 0j)
    D = abs(a0 * b10) * X[0, 0] - abs(a1 * b01) * X[1, 1]
    E = z * X[1, 0] - np.conj(z) * X[0, 1]
    return float(2.0 * abs(D + E))


def concurrence_general_two_kraus(theta, omega):
    """Concurrence 2(l1 - l2) from the anti-linear spectrum of a two-Kraus channel.

    Also evaluates the equivalent trace expression
    (l1 - l2)^2 = Tr(B conj(B)) - 2 det(omega) |det(theta)|,  B = sqrt(omega) theta sqrt(omega)^T,
    and insists the two agree: a failure signals a non-symmetric theta or a
    broken spectrum routine.
    """
    omega = validate_density(omega)
    if omega.shape[0] != 2:
        raise DimMismatch(f"two-Kraus concurrence needs a qubit state, got dim {omega.shape[0]}")
    A = check_symmetric(theta)
    lam = lambda_spectrum(A, omega)
    diff = float(lam[0] - lam[1])
    R = psd_sqrt(omega)
    Bm = R @ A @ R.T
    alt = float(np.trace(Bm @ Bm.conj()).real) - 2.0 * float(
        np.linalg.det(omega).real
    ) * abs(np.linalg.det(A))
    if abs(alt - diff * diff) > 1e-9 * max(1.0, diff * diff):
        raise RoofextError(
            f"trace identity violated: {alt:.3e} vs {diff * diff:.3e}"
        )
    return 2.0 * diff


# ---------------------------------------------------------------------------
# Optimal length-two decompositions

def _sphere_member(x3vec):
    rho = (np.eye(2, dtype=complex) + x3vec[0] * PAULI_STACK[1] + x3vec[1] * PAULI_STACK[2] + x3vec[2] * PAULI_STACK[3]) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, -1]


def length_two_decomposition(T, rho):
    """Optimal two-member decomposition for the map concurrence of a qubit state.

    Members are the intersections of the Bloch sphere with the line through
    rho along the null direction of the pencil at w_lo.  When the null space
    has dimension > 1 (two-Kraus channels, axial maps at a branch point) it
    warns DegeneratePencil and takes the null direction with zero trace
    component: along it the subtracted form is constant, so both members
    have the concurrence of rho.  Another null direction can give a
    decomposition whose average is above the roof.
    """
    rho = validate_density(rho)
    if rho.shape[0] != 2:
        raise DimMismatch(f"length-two decomposition needs a qubit state, got dim {rho.shape[0]}")
    if state_rank(rho) == 1:
        return spectral_ensemble(rho)
    sw = subtraction_weight(T)
    pencil = det_T_form(T)
    M = pencil.matrix(sw.w)
    vals, vecs = np.linalg.eigh(M)
    scale = max(1.0, float(np.max(np.abs(pencil.q_t))))
    null_dim = int(np.sum(vals <= 1e-8 * scale))
    nu = vecs[:, 0]
    if null_dim > 1:
        warnings.warn(
            f"pencil null space has dimension {null_dim}; using its trace-free direction",
            DegeneratePencil,
        )
        null = vecs[:, :null_dim]
        nu = null @ np.linalg.svd(null[:1])[2][-1]
    x_rho = four_vector(rho)
    if abs(nu[0]) > 1e-10:
        delta = nu / nu[0] - x_rho
    else:
        delta = nu.copy()
    d3 = delta[1:]
    r3 = x_rho[1:]
    if np.linalg.norm(d3) < 1e-12:
        # null direction parallel to rho itself; fall back to the next eigenvector
        warnings.warn(
            "null direction is parallel to the state; falling back to the next eigenvector",
            DegeneratePencil,
        )
        nu = vecs[:, 1]
        delta = nu / nu[0] - x_rho if abs(nu[0]) > 1e-10 else nu.copy()
        d3 = delta[1:]
    a = float(d3 @ d3)
    b = 2.0 * float(r3 @ d3)
    c = float(r3 @ r3) - 1.0
    disc = b * b - 4.0 * a * c
    sq = float(np.sqrt(max(disc, 0.0)))
    t_hi = (-b + sq) / (2.0 * a)
    t_lo = (-b - sq) / (2.0 * a)
    mu = -t_lo / (t_hi - t_lo)
    psi_hi = _sphere_member(r3 + t_hi * d3)
    psi_lo = _sphere_member(r3 + t_lo * d3)
    if mu < 1e-12:
        return PureDecomposition((1.0,), (psi_lo,))
    if mu > 1.0 - 1e-12:
        return PureDecomposition((1.0,), (psi_hi,))
    return PureDecomposition((float(mu), float(1.0 - mu)), (psi_hi, psi_lo))
