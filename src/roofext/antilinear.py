"""Anti-linear Hermitian operators and the closed-form roof machinery.

An anti-linear operator acts as ``theta psi = A conj(psi)``; it is Hermitian
(``<phi, theta psi> = <psi, theta phi>``) exactly when the representing matrix
A is complex symmetric.  For the pure-state function

    g(psi) = |<psi, theta psi>| = |conj(psi)^T A conj(psi)|

both roof extensions have closed forms in terms of the singular values of
``B = sqrt(omega) A sqrt(omega)^T``:

* convex roof:  max(0, l_1 - l_2 - ... - l_n)
* concave roof: l_1 + ... + l_n

and optimal decompositions can be made *flat* (all members sharing one g
value).  :func:`flat_optimal_decomposition` constructs such a decomposition
explicitly from a Takagi factorization of B plus a real orthogonal rotation
that zeroes the diagonal of a traceless symmetric matrix.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    ConfigError,
    DimMismatch,
    NotSymmetric,
    RoofextError,
    ShapeMismatch,
    UnsupportedOrder,
)
from .states import (
    WEIGHT_TOL,
    PureDecomposition,
    psd_sqrt,
    spectral_ensemble,
    state_rank,
    validate_density,
)

ZERO_TOL = 1e-12


def spin_flip():
    """Single-qubit flip matrix [[0,1],[-1,0]] (the time-reversal conjugation)."""
    return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def wootters_conjugation():
    """Two-qubit conjugation flip (x) flip; squares to the identity."""
    F = spin_flip()
    return np.kron(F, F)


def check_symmetric(A, tol=1e-8):
    """Validate the complex-symmetric representation of an anti-linear Hermitian op."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    dev = float(np.max(np.abs(A - A.T)))
    if dev > tol:
        raise NotSymmetric(f"|A - A^T| = {dev:.3e} > {tol:.1e}")
    return (A + A.T) / 2.0


def theta_expectation(theta, psi):
    """<psi, theta psi> = conj(psi)^T A conj(psi) (complex; g is its modulus)."""
    A = np.asarray(theta, dtype=complex)
    c = np.asarray(psi, dtype=complex).conj().reshape(-1)
    return complex(c @ A @ c)


def transport_theta(theta, unitary):
    """Representation of the same anti-linear operator after omega -> U omega U^dag.

    theta acts as psi -> A conj(psi); conjugating by U gives U A U^T (the
    conjugation transposes rather than daggers because of the anti-linearity).
    """
    U = np.asarray(unitary, dtype=complex)
    return U @ np.asarray(theta, dtype=complex) @ U.T


def theta_from_kraus_pair(a1, a2):
    """Anti-linear Hermitian matrix built from two Kraus operators of a qubit-output map.

    M = (A1^dag F conj(A2) - A2^dag F conj(A1)) / 2 with F the spin flip; M is
    complex symmetric by construction, and |<psi, M-op psi>| equals
    sqrt(det T(pi)) for two-Kraus trace-preserving maps.  For longer Kraus
    lists each pair only provides a lower-bound device; no optimality is
    claimed.
    """
    A1 = np.asarray(a1, dtype=complex)
    A2 = np.asarray(a2, dtype=complex)
    if A1.ndim != 2 or A1.shape != A2.shape or A1.shape[0] != 2:
        raise ShapeMismatch(
            f"need two 2 x d Kraus operators of equal shape, got {A1.shape} and {A2.shape}"
        )
    F = spin_flip()
    M = (A1.conj().T @ F @ A2.conj() - A2.conj().T @ F @ A1.conj()) / 2.0
    return (M + M.T) / 2.0


def lambda_spectrum(theta, omega):
    """Descending singular values of B = sqrt(omega) A sqrt(omega)^T."""
    A = check_symmetric(theta)
    omega = validate_density(omega)
    if A.shape[0] != omega.shape[0]:
        raise DimMismatch(f"operator dim {A.shape[0]} != state dim {omega.shape[0]}")
    R = psd_sqrt(omega)
    B = R @ A @ R.T
    return np.linalg.svd(B, compute_uv=False)


def roof_values(theta, omega):
    """(convex roof, concave roof) of g at omega; closed form via the spectrum."""
    lam = lambda_spectrum(theta, omega)
    convex = max(0.0, float(lam[0] - lam[1:].sum()))
    concave = float(lam.sum())
    return convex, concave


# ---------------------------------------------------------------------------
# Takagi factorization

@dataclasses.dataclass(frozen=True)
class TakagiFactorization:
    """B = sum_j lambdas_j * phi_j phi_j^T with orthonormal phi_j; lambdas descending."""

    lambdas: np.ndarray
    basis: np.ndarray

    def reconstruct(self):
        return (self.basis * self.lambdas) @ self.basis.T


def takagi(B):
    """Takagi factorization B = U diag(lambdas) U^T from one real symmetric eigensolve.

    With B = X + iY, M = [[X, Y], [Y, -X]] has eigenvalues +-lambda_j, and an
    eigenvector [x; y] for +lambda gives u = x + iy with B conj(u) = lambda u.
    Real-orthonormal eigenvectors of positive eigenvalues are complex
    orthonormal, degenerate or not.  Only near lambda = 0 do the +- pairs mix;
    the nearest unitary (polar factor) of the top n columns repairs that and
    completes the null block.
    """
    B = check_symmetric(B)
    n = B.shape[0]
    M = np.empty((2 * n, 2 * n))
    M[:n, :n] = B.real
    M[:n, n:] = M[n:, :n] = B.imag
    M[n:, n:] = -B.real
    vals, vecs = np.linalg.eigh(M)
    top = vecs[:, : n - 1 : -1]  # eigenvectors of the n largest eigenvalues, descending
    W, _, Zh = np.linalg.svd(top[:n] + 1j * top[n:])
    return TakagiFactorization(lambdas=np.maximum(vals[: n - 1 : -1], 0.0), basis=W @ Zh)


def real_hadamard(n):
    """Integer Hadamard matrix of power-of-two order (rows exactly orthogonal)."""
    if n < 1 or (n & (n - 1)) != 0:
        raise UnsupportedOrder(f"Hadamard order must be a power of two, got {n}")
    H = np.ones((1, 1), dtype=int)
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


# ---------------------------------------------------------------------------
# Flat optimal decompositions

def _polygon_phases(lams, tol=1e-10):
    """Unimodular phases c_j with sum_j c_j lams_j = 0 (needs l1 <= sum of rest).

    Greedy three-way partition of the descending values, then triangle angles.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    phases = np.ones(n, dtype=complex)
    if lams.sum() <= 1e-15:
        return phases
    sums = [0.0, 0.0, 0.0]
    groups = ([], [], [])
    for i in range(n):
        g = int(np.argmin(sums))
        sums[g] += lams[i]
        groups[g].append(i)
    order = np.argsort(sums)[::-1]
    s1, s2, s3 = (sums[k] for k in order)
    g2, g3 = groups[order[1]], groups[order[2]]
    if s3 <= 1e-15:
        for i in g2:
            phases[i] = -1.0
    else:
        cos_a2 = np.clip((s1 * s1 + s2 * s2 - s3 * s3) / (2.0 * s1 * s2), -1.0, 1.0)
        cos_a3 = np.clip((s1 * s1 + s3 * s3 - s2 * s2) / (2.0 * s1 * s3), -1.0, 1.0)
        a2 = float(np.arccos(cos_a2))
        a3 = float(np.arccos(cos_a3))
        for i in g2:
            phases[i] = np.exp(1j * (np.pi - a2))
        for i in g3:
            phases[i] = np.exp(1j * (np.pi + a3))
    closure = abs(complex(np.sum(phases * lams)))
    if closure > tol * max(1.0, float(lams[0])):
        raise RoofextError(f"phase polygon failed to close: residual {closure:.3e}")
    return phases


def _zero_diagonal_rotation(M):
    """Real orthogonal V with diag(V^T M V) ~ 0 for traceless symmetric M.

    Givens sweep: repeatedly rotate the extreme diagonal pair so the largest
    entry becomes zero, then freeze it; the final entry vanishes by trace.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    W = M.copy()
    V = np.eye(n)
    active = list(range(n))
    scale = max(1.0, float(np.max(np.abs(np.diag(W)))) if n else 1.0)
    eps = 1e-13 * scale
    for _ in range(n - 1):
        diag = np.array([W[i, i] for i in active])
        hi = int(np.argmax(diag))
        lo = int(np.argmin(diag))
        if diag[hi] <= eps and diag[lo] >= -eps:
            active.pop()
            continue
        a, b = active[hi], active[lo]
        Maa, Mbb, Mab = W[a, a], W[b, b], W[a, b]
        disc = Mab * Mab - Maa * Mbb
        if disc < 0.0:  # same-sign fp dust; freeze the smaller entry
            active.remove(a if abs(Maa) <= abs(Mbb) else b)
            continue
        sq = np.sqrt(disc)
        qq = -(Mab + sq) if Mab >= 0.0 else -(Mab - sq)
        t = Maa / qq if qq != 0.0 else 0.0
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        rot = np.array([[c, -s], [s, c]])
        V[:, [a, b]] = V[:, [a, b]] @ rot
        W[:, [a, b]] = W[:, [a, b]] @ rot
        W[[a, b], :] = rot.T @ W[[a, b], :]
        W[a, a] = 0.0
        active.remove(a)
    return V


def flat_optimal_decomposition(theta, omega, mode="convex"):
    """Optimal decomposition for g = |<psi, theta psi>| that is also flat.

    mode="convex" attains the convex roof, mode="concave" the concave roof.
    The decomposition has n members, n the smallest power of two >= dim
    (members of weight below WEIGHT_TOL are dropped), reconstructs omega, and all
    members share a single g value equal to the roof.
    """
    if mode not in ("convex", "concave"):
        raise ConfigError(f"mode must be 'convex' or 'concave', got {mode!r}")
    A = check_symmetric(theta)
    omega = validate_density(omega)
    d = omega.shape[0]
    if A.shape[0] != d:
        raise DimMismatch(f"operator dim {A.shape[0]} != state dim {d}")
    if state_rank(omega) == 1:
        return spectral_ensemble(omega)

    n = 1 << (d - 1).bit_length()
    R = psd_sqrt(omega)
    Bp = np.zeros((n, n), dtype=complex)
    Bp[:d, :d] = R @ A @ R.T
    Rp = np.zeros((n, n), dtype=complex)
    Rp[:d, :d] = R
    omega_p = np.zeros((n, n), dtype=complex)
    omega_p[:d, :d] = omega

    tak = takagi(Bp)
    lam = tak.lambdas

    if mode == "concave":
        G = float(lam.sum())
        targets = np.ones(n, dtype=complex)
    else:
        G = float(lam[0] - lam[1:].sum())
        targets = -np.ones(n, dtype=complex)
        targets[0] = 1.0

    if G <= ZERO_TOL:
        # roof value ~ 0: pick phases closing the polygon, then a Hadamard
        # frame makes every member value vanish identically (flat at zero).
        targets = _polygon_phases(lam) if mode == "convex" else np.ones(n, dtype=complex)
        Qp = tak.basis / np.sqrt(targets)[None, :]
        V = real_hadamard(n).astype(float) / np.sqrt(n)
    else:
        Qp = tak.basis / np.sqrt(targets)[None, :]
        D = (targets * lam).real
        H = Qp.conj().T @ omega_p @ Qp
        HR = (H.real + H.real.T) / 2.0
        M = np.diag(D) - G * HR
        M = (M + M.T) / 2.0
        M -= (np.trace(M) / n) * np.eye(n)
        V = _zero_diagonal_rotation(M)

    Z = Rp @ Qp @ V
    weights = np.sum(np.abs(Z) ** 2, axis=0)
    keep = np.flatnonzero(weights > WEIGHT_TOL)
    states = tuple(Z[:d, j] / np.sqrt(weights[j]) for j in keep)
    kept = weights[keep]
    kept = kept / kept.sum()
    return PureDecomposition(tuple(kept), states)
