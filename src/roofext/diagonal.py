"""Entanglement of basis-diagonal channels and related constructions.

The output entropy of the complete dephasing channel D(omega) = diag(omega)
has a closed-form convex roof for qubits, reached on a flat pair of pure
states that differ only in the sign of their z Bloch component.  The module
also provides isotropic (permutation-invariant) states, isometric embeddings
that shift the diagonal-channel entanglement by a state-independent-in-form
offset, and a numerical probe of the minimal output entropy on the
zero-sum-amplitude subspace H0.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, DimMismatch, NotIsometry, OutOfRange
from .solver import SolverConfig, _multistart, _roof_closures, diag_entropy_objective
from .states import (
    bloch_chord,
    eta,
    qubit_to_bloch,
    spectral_ensemble,
    spectrum,
    validate_density,
)


def diag_entropy(omega):
    """Shannon entropy of the diagonal of a state: the dephasing output entropy."""
    omega = validate_density(omega)
    d = np.real(np.diag(omega))
    return float(np.sum(eta(np.clip(d, 0.0, None))))


def ed_qubit(omega):
    """Closed-form diagonal-channel entanglement of a qubit state.

    With Bloch components (x1, x2, x3) and s = sqrt(1 - x1^2 - x2^2), this is
    the binary entropy of (1 + s)/2 — independent of x3.
    """
    x = qubit_to_bloch(validate_density(omega, dim=2))
    s = float(np.sqrt(max(0.0, 1.0 - x[0] ** 2 - x[1] ** 2)))
    p = (1.0 + s) / 2.0
    return eta(p) + eta(1.0 - p)


def ed_qubit_flat_pair(omega):
    """Flat optimal pair for the qubit diagonal channel.

    Members sit at Bloch (x1, x2, +-s), the chord along z; both have the same
    diagonal entropy (the diagonal is symmetric in the sign of x3), and the
    average equals ed_qubit.  A pure input yields a single-term decomposition.
    """
    sp = spectrum(omega, dim=2)
    if sp.rank == 1:
        return spectral_ensemble(sp)
    return bloch_chord(qubit_to_bloch(sp.matrix), (0.0, 0.0, 1.0))


def concave_leaf_membership(omega, rho):
    """True iff rho lies on the concave-roof leaf through omega: equal diagonals."""
    omega = validate_density(omega)
    rho = validate_density(rho)
    if omega.shape != rho.shape:
        raise DimMismatch(f"dims differ: {omega.shape[0]} vs {rho.shape[0]}")
    return bool(np.max(np.abs(np.diag(omega) - np.diag(rho))) <= 1e-10)


# ---------------------------------------------------------------------------
# Isotropic states

@dataclasses.dataclass(frozen=True, eq=False)
class IsotropicState:
    """Permutation-invariant state: diagonal 1/d, all off-diagonal entries x/d."""

    dim: int
    fidelity: float
    x: float
    matrix: np.ndarray


def isotropic_state(d, F):
    """Isotropic state of fidelity F = <psi|omega|psi>, psi the uniform vector.

    F = (1 + (d-1) x) / d, so x = (d F - 1)/(d - 1) in [-1/(d-1), 1].
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ConfigError(f"need integer dimension >= 2, got {d!r}")
    F = float(F)
    if not (0.0 <= F <= 1.0):
        raise OutOfRange(f"fidelity must lie in [0,1], got {F}")
    x = (d * F - 1.0) / (d - 1.0)
    omega = ((1.0 - x) * np.eye(d) + x * np.ones((d, d))) / d
    return IsotropicState(dim=int(d), fidelity=F, x=float(x), matrix=validate_density(omega))


# ---------------------------------------------------------------------------
# Isometric embeddings |j> -> sum_k y_jk |j,k>

@dataclasses.dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    """Block sizes m_j and per-row amplitudes y_j (each row normalized)."""

    blocks: tuple
    amplitudes: tuple

    def __post_init__(self):
        blocks = tuple(int(m) for m in self.blocks)
        amps = tuple(np.asarray(y, dtype=complex).reshape(-1) for y in self.amplitudes)
        if len(blocks) != len(amps) or not blocks:
            raise DimMismatch("need one amplitude row per block")
        if any(m < 1 for m in blocks):
            raise DimMismatch(f"block sizes must be positive, got {blocks}")
        for j, (m, y) in enumerate(zip(blocks, amps)):
            if y.size != m:
                raise DimMismatch(f"row {j} has {y.size} amplitudes for block size {m}")
            dev = abs(float(np.linalg.norm(y)) - 1.0)
            if not dev <= 1e-12:  # NaN fails every check
                raise NotIsometry(f"row {j} norm deviates from 1 by {dev:.3e}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def source_dim(self):
        return len(self.blocks)

    @property
    def target_dim(self):
        return int(sum(self.blocks))

    def isometry(self):
        V = np.zeros((self.target_dim, self.source_dim), dtype=complex)
        off = 0
        for j, (m, y) in enumerate(zip(self.blocks, self.amplitudes)):
            V[off : off + m, j] = y
            off += m
        return V


def embed_state(spec, omega):
    """V omega V^dag; the image diagonal is |y_jk|^2 <j|omega|j>."""
    omega = validate_density(omega, dim=spec.source_dim)
    V = spec.isometry()
    return V @ omega @ V.conj().T


def embedding_offset(spec, omega):
    """l(omega) = sum_j <j|omega|j> sum_k eta(|y_jk|^2).

    The diagonal-channel entanglement shifts by exactly this much under the
    embedding: E(V omega V^dag) = E(omega) + l(omega).
    """
    diag = np.real(np.diag(validate_density(omega, dim=spec.source_dim)))
    return float(
        sum(
            diag[j] * float(np.sum(eta(np.abs(y) ** 2)))
            for j, y in enumerate(spec.amplitudes)
        )
    )


def qubit_split_embedding():
    """The 2 -> 3 embedding keeping |0> and splitting |1> into two equal halves."""
    return EmbeddingSpec((1, 2), ([1.0], [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]))


def embed_qubit_pair(omega):
    """Two-qubit image of a qubit state under |j> -> |jj>; its EoF is ed_qubit(omega)."""
    return embed_state(EmbeddingSpec((2, 2), ([1.0, 0.0], [0.0, 1.0])), omega)


# ---------------------------------------------------------------------------
# Minimal output entropy on the zero-sum subspace

def _h0_basis(d):
    """Orthonormal columns spanning H0, the vectors whose amplitudes sum to zero."""
    return np.linalg.svd(np.ones((1, d)))[2][1:].conj().T


def h0_min_entropy_experiment(d, config=None):
    """Minimize diag_entropy over pure states with amplitudes summing to zero.

    The objective is solver.diag_entropy_objective as a one-member roof over
    a basis of H0; on unit members its value is diag_entropy.
    Returns (best value, best state).  Restart 0 starts from the two-point
    candidate (|0> - |1>)/sqrt(2) whose value is exactly log 2, so the result
    never exceeds log 2 by more than solver noise; remaining restarts are
    Haar-random on the subspace sphere.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ConfigError(f"need integer d >= 2, got {d!r}")
    cand = np.zeros(d, dtype=complex)
    cand[0] = 1.0 / np.sqrt(2.0)
    cand[1] = -1.0 / np.sqrt(2.0)
    if d == 2:
        return float(np.log(2.0)), cand
    cfg = config if config is not None else SolverConfig(restarts=64)
    N = _h0_basis(d)
    value_fn, grad_fn = _roof_closures(diag_entropy_objective(), N)
    # a point a of St(d-1, 1) is the one-member row a^T of a roof over N
    flip = lambda V: V.mT  # noqa: E731
    a0 = N.conj().T @ cand[:, None]
    V, F = _multistart(
        lambda V: value_fn(flip(V)), lambda V: flip(grad_fn(flip(V))), a0 / np.linalg.norm(a0), cfg
    )[:2]
    best = int(np.argmin(F))
    psi = (N @ V[best])[:, 0]
    k = int(np.argmax(np.abs(psi)))
    psi = psi * np.exp(-1j * np.angle(psi[k]))
    return float(F[best]), psi
