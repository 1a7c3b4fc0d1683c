"""States, ensembles, and basic linear algebra on finite-dimensional systems.

Conventions used throughout the package:

* density operators are plain complex numpy arrays (trace one, Hermitian, PSD);
  ``validate_density`` is the single entry point that checks and normalizes the
  dtype,
* pure states are unit-norm 1-d arrays,
* a pure decomposition is a list of (weight, state) pairs wrapped in
  :class:`PureDecomposition`,
* qubit Bloch components are ``x_k = Tr(sigma_k rho)``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    BadRank,
    DimMismatch,
    NotHermitian,
    NotIsometry,
    NotPSD,
    OutsideBall,
    TraceNotOne,
    ZeroState,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
RANK_TOL = 1e-10
WEIGHT_TOL = 1e-12
_TINY = np.finfo(float).tiny

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.stack(PAULIS)  # (4, 2, 2)


def eta(x):
    """-x ln x on the domain x >= 0, extended by 0 at x = 0.

    A scalar gives a float; an array gives the elementwise array.
    """
    if not isinstance(x, np.ndarray) and np.isscalar(x):  # isscalar alone costs ~1 us
        x = float(x)
        return -x * math.log(x) if x != 0.0 else 0.0
    # Adding the smallest normal float leaves every x above 1e-292 unchanged,
    # turns 0 into a finite log, and still gives NaN below the domain.
    return x * -np.log(x + _TINY)


def validate_density(matrix, herm_tol=HERM_TOL, trace_tol=TRACE_TOL, eig_floor=EIG_FLOOR):
    """Check that ``matrix`` is a density operator and return it as complex128.

    Raises NotHermitian / TraceNotOne / NotPSD with the measured deviation.
    """
    omega = np.asarray(matrix, dtype=complex)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {omega.shape}")
    herm_dev = float(np.max(np.abs(omega - omega.conj().T)))
    if herm_dev > herm_tol:
        raise NotHermitian(f"|omega - omega^dag| = {herm_dev:.3e} > {herm_tol:.1e}")
    trace_dev = abs(complex(np.trace(omega)) - 1.0)
    if trace_dev > trace_tol:
        raise TraceNotOne(f"|Tr omega - 1| = {trace_dev:.3e} > {trace_tol:.1e}")
    min_eig = float(np.linalg.eigvalsh((omega + omega.conj().T) / 2.0)[0])
    if min_eig < eig_floor:
        raise NotPSD(f"min eigenvalue {min_eig:.3e} < {eig_floor:.1e}")
    return omega


def validate_pure(vector, norm_tol=1e-12):
    """Check unit norm and return the state as a complex128 vector."""
    psi = np.asarray(vector, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if nrm < 1e-12:
        raise ZeroState("cannot normalize the zero vector")
    if abs(nrm - 1.0) > norm_tol:
        raise NotIsometry(f"|norm - 1| = {abs(nrm - 1.0):.3e} > {norm_tol:.1e}")
    return psi


def pure_projector(psi):
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def spectral_decomposition(omega):
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    vals, vecs = np.linalg.eigh(np.asarray(omega, dtype=complex))
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def state_rank(omega, tol=RANK_TOL):
    vals = np.linalg.eigvalsh(np.asarray(omega, dtype=complex))
    return int(np.sum(vals > tol))


def spectral_ensemble(omega):
    """Eigenvectors of eigenvalue > RANK_TOL, weighted by their renormalized eigenvalues."""
    vals, vecs = spectral_decomposition(omega)
    r = int(np.sum(vals > RANK_TOL))
    w = vals[:r] / vals[:r].sum()
    return PureDecomposition(tuple(float(x) for x in w), tuple(vecs[:, j] for j in range(r)))


def psd_sqrt(omega):
    """Positive square root R with R @ R = omega (negative fp dust clipped to 0)."""
    vals, vecs = np.linalg.eigh(np.asarray(omega, dtype=complex))
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


@dataclasses.dataclass(frozen=True)
class PureDecomposition:
    """Weighted pure-state ensemble ``omega = sum_j p_j |psi_j><psi_j|``.

    Invariants checked on construction: weights nonnegative and summing to one
    (1e-10), each member unit norm, and length at most dim^2 (Caratheodory).
    """

    weights: tuple
    states: tuple  # tuple of 1-d complex arrays

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        states = tuple(np.asarray(s, dtype=complex).reshape(-1) for s in self.states)
        if len(weights) != len(states) or not weights:
            raise DimMismatch("weights and states must be equally many and nonempty")
        dim = states[0].size
        if any(s.size != dim for s in states):
            raise DimMismatch("members live in different dimensions")
        if len(weights) > dim * dim:
            raise DimMismatch(f"length {len(weights)} exceeds dim^2 = {dim * dim}")
        if min(weights) < -1e-12:
            raise NotPSD(f"negative decomposition weight {min(weights):.3e}")
        total_dev = abs(sum(weights) - 1.0)
        if total_dev > 1e-10:
            raise TraceNotOne(f"|sum p - 1| = {total_dev:.3e} > 1e-10")
        for s in states:
            nrm = float(np.linalg.norm(s))
            if abs(nrm - 1.0) > 1e-10:
                raise NotIsometry(f"member norm deviation {abs(nrm - 1.0):.3e} > 1e-10")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)

    @property
    def dim(self):
        return self.states[0].size

    def __len__(self):
        return len(self.weights)

    def average_state(self):
        omega = np.zeros((self.dim, self.dim), dtype=complex)
        for p, psi in zip(self.weights, self.states):
            omega += p * np.outer(psi, psi.conj())
        return omega

    def reconstruction_error(self, omega):
        return float(np.linalg.norm(self.average_state() - np.asarray(omega, dtype=complex)))


def decomposition_from_isometry(omega, isometry):
    """Turn an L x r isometry acting on the spectral ensemble into a decomposition.

    With ``omega = sum_k q_k |e_k><e_k|`` (rank r) the members are
    ``|phi_j> = sum_k V_jk sqrt(q_k) |e_k>``; any isometry V (V^dag V = 1_r)
    yields a valid decomposition and all decompositions arise this way.
    """
    omega = validate_density(omega)
    V = np.asarray(isometry, dtype=complex)
    if V.ndim != 2:
        raise NotIsometry(f"expected a 2-d array, got shape {V.shape}")
    L, r = V.shape
    gram_dev = float(np.max(np.abs(V.conj().T @ V - np.eye(r))))
    if gram_dev > 1e-10:
        raise NotIsometry(f"|V^dag V - 1| = {gram_dev:.3e} > 1e-10")
    rank = state_rank(omega)
    if r != rank:
        raise DimMismatch(f"isometry has {r} columns but the state has rank {rank}")
    if L < r:
        raise NotIsometry(f"need at least rank many members, got L={L} < r={r}")
    vals, vecs = spectral_decomposition(omega)
    K = vecs[:, :rank] * np.sqrt(np.clip(vals[:rank], 0.0, None))
    members = K @ V.T  # column j = |phi_j>
    weights = np.sum(np.abs(members) ** 2, axis=0)
    keep = weights > WEIGHT_TOL
    kept_w = weights[keep]
    kept_states = [members[:, j] / np.sqrt(weights[j]) for j in range(L) if keep[j]]
    kept_w = kept_w / kept_w.sum()
    return PureDecomposition(tuple(kept_w), tuple(kept_states))


def random_pure(dim, seed=None):
    """Haar-random pure state (normalized complex Gaussian)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim, rank=None, seed=None):
    """Random density operator of exact rank ``rank`` (default: full rank).

    Wishart construction: G is dim x rank complex Gaussian, omega = G G^dag / tr.
    """
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise BadRank(f"rank must lie in 1..{dim}, got {rank}")
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    omega = G @ G.conj().T
    return omega / np.trace(omega).real


def random_unitary(dim, seed=None):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    phase = np.diag(R).copy()
    phase = phase / np.abs(phase)
    return Q * phase


def qubit_to_bloch(omega):
    """Bloch components (x1, x2, x3) with x_k = Tr(sigma_k omega)."""
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (2, 2):
        raise DimMismatch(f"need a 2x2 matrix, got {omega.shape}")
    return np.array([np.trace(P @ omega).real for P in PAULIS[1:]])


def bloch_to_qubit(x, ball_tol=1e-12):
    """Inverse of :func:`qubit_to_bloch`; raises OutsideBall for |x| > 1."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != 3:
        raise DimMismatch(f"Bloch vector needs 3 components, got {x.size}")
    r = float(np.linalg.norm(x))
    if r > 1.0 + ball_tol:
        raise OutsideBall(f"|x| = {r:.12f} > 1")
    return (SIGMA_0 + x[0] * SIGMA_X + x[1] * SIGMA_Y + x[2] * SIGMA_Z) / 2.0


# ---------------------------------------------------------------------------
# Stock states used all over the tests and the CLI examples.

def maximally_mixed(dim):
    return np.eye(dim, dtype=complex) / dim


def bell_state(kind="phi+"):
    """The four Bell states on two qubits (basis order |00>,|01>,|10>,|11>)."""
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": np.array([s, 0, 0, s]),
        "phi-": np.array([s, 0, 0, -s]),
        "psi+": np.array([0, s, s, 0]),
        "psi-": np.array([0, s, -s, 0]),
    }
    try:
        return table[kind].astype(complex)
    except KeyError:
        raise DimMismatch(f"unknown Bell state {kind!r}") from None


def product_pure(psi_a, psi_b):
    return np.kron(validate_pure(psi_a), validate_pure(psi_b))


def werner_state(p):
    """p * singlet + (1-p) * I/4 on two qubits."""
    singlet = pure_projector(bell_state("psi-"))
    return p * singlet + (1.0 - p) * maximally_mixed(4)
