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
    NotIsometry,
    NotSymmetric,
    OutOfRange,
    RoofextError,
    ShapeMismatch,
    UnsupportedOrder,
)
from .states import PureDecomposition, spectral_ensemble, spectrum

ZERO_TOL = 1e-12
SYMMETRY_TOL = 1e-8


def spin_flip():
    """Single-qubit flip matrix [[0,1],[-1,0]] (the time-reversal conjugation)."""
    return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def wootters_conjugation():
    """Two-qubit conjugation flip (x) flip; squares to the identity."""
    return np.array(
        [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
        dtype=complex,
    )


def check_symmetric(A):
    """Validate the complex-symmetric representation of an anti-linear Hermitian op."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    At = A.T
    dev = float(np.abs(A - At).max())
    if not dev <= SYMMETRY_TOL:  # NaN fails every check
        raise NotSymmetric(f"|A - A^T| = {dev:.3e} > {SYMMETRY_TOL:.1e}")
    return (A + At) / 2.0


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
    A = np.asarray(theta, dtype=complex)
    if not (np.isfinite(U).all() and np.isfinite(A).all()):
        raise OutOfRange("theta or unitary has non-finite entries")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))))
    if not dev <= 1e-10:
        raise NotIsometry(f"|U^dag U - 1| = {dev:.3e} > 1e-10")
    return U @ A @ U.T


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
    if not (np.isfinite(A1).all() and np.isfinite(A2).all()):
        raise OutOfRange("Kraus pair has non-finite entries")
    F = spin_flip()
    M = (A1.conj().T @ F @ A2.conj() - A2.conj().T @ F @ A1.conj()) / 2.0
    return (M + M.T) / 2.0


def _eigenbasis_form(A, omega):
    """The Spectrum of omega and B = K^dag A conj(K), K = V diag(sqrt q) its factor.

    A is the checked symmetric matrix of check_symmetric.  With
    omega = V diag(q) V^dag, sqrt(omega) A sqrt(omega)^T = V B V^T: B is
    that matrix in omega's eigenbasis, with the same singular values, and a
    Takagi vector u of B is the Takagi vector V u of it.
    """
    sp = spectrum(omega)
    if A.shape[0] != sp.dim:
        raise DimMismatch(f"operator dim {A.shape[0]} != state dim {sp.dim}")
    Kc = sp.factor.conj()
    return sp, Kc.T @ A @ Kc


def lambda_spectrum(theta, omega):
    """Descending singular values of B = sqrt(omega) A sqrt(omega)^T."""
    return np.linalg.svd(_eigenbasis_form(check_symmetric(theta), omega)[1], compute_uv=False)


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
    return _takagi(check_symmetric(B))


def _takagi(B):
    """takagi for a B already known to be complex symmetric."""
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
    """Sylvester Hadamard matrix of power-of-two order n, as integers.

    H_ij = (-1)^popcount(i & j), the entries of the recursion
    H_2n = [[H_n, H_n], [H_n, -H_n]]; rows are exactly orthogonal and every
    entry squares to 1.
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise UnsupportedOrder(f"Hadamard order must be a power of two, got {n}")
    i = np.arange(n)
    return np.where(np.bitwise_count(i[:, None] & i) & 1, -1, 1)


# ---------------------------------------------------------------------------
# Flat optimal decompositions

def _polygon_phases(lams):
    """Unimodular phases c_j with sum_j c_j lams_j = 0 (needs l1 <= sum of rest).

    For descending lams, a = l2 + l4 + ... and b = l3 + l5 + ... satisfy
    a - b <= l2 <= l1 <= a + b, so l1, a and b close a triangle; the phases
    of the two groups are its angles at the side l1.
    """
    lams = np.asarray(lams, dtype=float)
    phases = np.ones(lams.size, dtype=complex)
    l1, a, b = lams[0], lams[1::2].sum(), lams[2::2].sum()
    if lams.sum() <= 1e-15:
        return phases

    def angle(x, y):  # between the sides l1 and x, opposite y
        if x <= 1e-15:
            return 0.0
        return np.arccos(np.clip((l1 * l1 + x * x - y * y) / (2.0 * l1 * x), -1.0, 1.0))

    phases[1::2] = -np.exp(-1j * angle(a, b))
    phases[2::2] = -np.exp(1j * angle(b, a))
    closure = abs(complex(np.sum(phases * lams)))
    if closure > 1e-10 * max(1.0, float(lams[0])):
        raise RoofextError(f"phase polygon failed to close: residual {closure:.3e}")
    return phases


def _zero_diagonal_rotation(M):
    """Real orthogonal V with diag(V^T M V) = 0 for traceless symmetric M of order 2^k.

    V = O H / sqrt(n) with O the eigenvectors of M and H the Sylvester
    Hadamard matrix: V^T M V = H^T diag(mu) H / n has diagonal entries
    sum_i H_ij^2 mu_i / n = tr M / n = 0, since every H_ij^2 = 1.  So one
    eigensolve zeroes the whole diagonal, to rounding, in any order n that
    a Hadamard matrix exists for.
    """
    n = M.shape[0]
    return np.linalg.eigh(M)[1] @ (real_hadamard(n) / np.sqrt(n))


def flat_optimal_decomposition(theta, omega, mode="convex"):
    """Optimal decomposition for g = |<psi, theta psi>| that is also flat.

    mode="convex" attains the convex roof, mode="concave" the concave roof.
    The decomposition has n members, n the smallest power of two >= dim
    (members of weight below WEIGHT_TOL are dropped), reconstructs omega, and all
    members share a single g value equal to the roof.
    """
    if mode not in ("convex", "concave"):
        raise ConfigError(f"mode must be 'convex' or 'concave', got {mode!r}")
    sp, B = _eigenbasis_form(check_symmetric(theta), omega)
    if sp.rank == 1:
        return spectral_ensemble(sp)

    # B is the form in omega's eigenbasis, where omega is diag(q); a member
    # with coefficients c there is the state K c (see _eigenbasis_form).
    d = sp.dim
    n = 1 << (d - 1).bit_length()
    Bp = np.zeros((n, n), dtype=complex)
    Bp[:d, :d] = (B + B.T) / 2.0
    tak = _takagi(Bp)
    lam = tak.lambdas

    if mode == "concave":
        G = float(lam.sum())
        targets = np.ones(n, dtype=complex)
    else:
        G = float(lam[0] - lam[1:].sum())
        targets = -np.ones(n, dtype=complex)
        targets[0] = 1.0
        if G <= ZERO_TOL:
            targets = _polygon_phases(lam)  # sum_j c_j lam_j = 0
    Q = tak.basis[:d] / np.sqrt(targets)[None, :]

    if G <= ZERO_TOL:
        # roof value ~ 0: with the phases above, a Hadamard frame makes every
        # member value vanish identically (flat at zero).
        V = real_hadamard(n) / np.sqrt(n)
    else:
        # M = diag(targets * lam) - G Re(Q^dag diag(q) Q), made traceless;
        # eigh reads only its lower triangle, so it needs no symmetrizing.
        M = -G * ((Q.conj().T * sp.values) @ Q).real
        M.flat[:: n + 1] += (targets * lam).real
        M.flat[:: n + 1] -= M.trace() / n
        V = _zero_diagonal_rotation(M)

    return PureDecomposition.from_columns(sp.factor @ Q @ V)
