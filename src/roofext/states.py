"""States, ensembles, and basic linear algebra on finite-dimensional systems.

Conventions used throughout the package:

* density operators are plain complex numpy arrays (trace one, Hermitian, PSD);
  ``validate_density`` checks them and normalizes the dtype, and ``spectrum``
  makes the same checks and keeps the one eigendecomposition that every
  closed form reads (eigenvalues, eigenvectors, rank, and the factor K with
  K K^dag = omega),
* pure states are unit-norm 1-d arrays,
* a pure decomposition is a list of (weight, state) pairs wrapped in
  :class:`PureDecomposition`,
* qubit Bloch components are ``x_k = Tr(sigma_k rho)``.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (
    BadRank,
    DimMismatch,
    NotHermitian,
    NotIsometry,
    NotPSD,
    OutOfRange,
    OutsideBall,
    TraceNotOne,
    ZeroState,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
RANK_TOL = 1e-10
NORM_TOL = 1e-12
WEIGHT_TOL = 1e-12
_TINY = np.finfo(float).tiny

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_STACK = np.stack((SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z))  # (4, 2, 2)


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


def _validated(matrix, vectors):
    """The density checks around one eigh (vectors=True) or eigvalsh of (omega + omega^dag)/2.

    Returns omega as complex128, the ascending eigenvalues and the eigenvectors (or None).
    """
    omega = np.asarray(matrix, dtype=complex)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {omega.shape}")
    adj = omega.conj().T
    herm_dev = float(np.abs(omega - adj).max())
    if not herm_dev <= HERM_TOL:  # NaN fails every check
        raise NotHermitian(f"|omega - omega^dag| = {herm_dev:.3e} > {HERM_TOL:.1e}")
    trace_dev = abs(complex(omega.trace()) - 1.0)
    if not trace_dev <= TRACE_TOL:
        raise TraceNotOne(f"|Tr omega - 1| = {trace_dev:.3e} > {TRACE_TOL:.1e}")
    herm = (omega + adj) / 2.0
    vals, vecs = np.linalg.eigh(herm) if vectors else (np.linalg.eigvalsh(herm), None)
    min_eig = float(vals[0])
    if not min_eig >= EIG_FLOOR:
        raise NotPSD(f"min eigenvalue {min_eig:.3e} < {EIG_FLOOR:.1e}")
    return omega, vals, vecs


def _check_dim(omega, dim):
    if dim is not None and omega.shape[0] != dim:
        raise DimMismatch(f"expected a state of dim {dim}, got dim {omega.shape[0]}")


def validate_density(matrix, dim=None):
    """Check that ``matrix`` is a density operator (of dimension ``dim``, if given).

    Returns it as complex128.  Raises NotHermitian / TraceNotOne / NotPSD
    with the measured deviation, and DimMismatch after those checks.  A
    :class:`Spectrum` record is already validated: only its dimension is checked.
    """
    if isinstance(matrix, Spectrum):
        return spectrum(matrix, dim).matrix
    omega = _validated(matrix, False)[0]
    _check_dim(omega, dim)
    return omega


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """A validated density operator with everything its one eigensolve gives.

    ``matrix`` is omega as complex128; ``values`` (descending) and the
    matching ``vectors`` columns come from one eigh of (omega + omega^dag)/2;
    ``rank`` counts the values above RANK_TOL.  ``factor``, formed on first
    use, is K = vectors * sqrt(values): K K^dag = omega, and the positive
    square root is K vectors^dag.  Build the record with :func:`spectrum`.
    """

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    rank: int

    @property
    def dim(self):
        return self.matrix.shape[0]

    @functools.cached_property
    def factor(self):
        return self.vectors * np.sqrt(np.clip(self.values, 0.0, None))


def spectrum(omega, dim=None):
    """Validate omega as validate_density does and return its :class:`Spectrum`.

    A Spectrum passes through unchanged, so every function that validates
    its state through here (the closed forms, the flat and spectral
    decompositions, the solver) accepts a record in place of the matrix.
    """
    if not isinstance(omega, Spectrum):
        matrix, vals, vecs = _validated(omega, True)
        omega = Spectrum(matrix, vals[::-1], vecs[:, ::-1], int(np.count_nonzero(vals > RANK_TOL)))
    _check_dim(omega.matrix, dim)
    return omega


def validate_pure(vector):
    """Check unit norm and return the state as a complex128 vector."""
    psi = np.asarray(vector, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if nrm < 1e-12:
        raise ZeroState("cannot normalize the zero vector")
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NotIsometry(f"|norm - 1| = {abs(nrm - 1.0):.3e} > {NORM_TOL:.1e}")
    return psi


def pure_projector(psi):
    psi = validate_pure(psi)
    return np.outer(psi, psi.conj())


def spectral_ensemble(omega):
    """Eigenvectors of eigenvalue > RANK_TOL, weighted by their renormalized eigenvalues."""
    sp = spectrum(omega)
    r = sp.rank
    w = sp.values[:r] / sp.values[:r].sum()
    return PureDecomposition(tuple(float(x) for x in w), tuple(sp.vectors[:, j] for j in range(r)))


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
        w_min = float(np.min(weights))  # NaN if any weight is; NaN fails every check
        if not w_min >= -1e-12:
            raise NotPSD(f"negative decomposition weight {w_min:.3e}")
        total_dev = abs(sum(weights) - 1.0)
        if not total_dev <= 1e-10:
            raise TraceNotOne(f"|sum p - 1| = {total_dev:.3e} > 1e-10")
        norm_dev = float(np.abs(np.linalg.norm(np.array(states), axis=1) - 1.0).max())
        if not norm_dev <= 1e-10:
            raise NotIsometry(f"member norm deviation {norm_dev:.3e} > 1e-10")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)

    @classmethod
    def from_columns(cls, Z):
        """Members z_j / |z_j| with weights |z_j|^2 (renormalized) from the columns z_j of Z.

        Columns of weight at most WEIGHT_TOL are dropped; a NaN column is kept,
        so that the constructor's checks reject it.
        """
        weights = np.sum(np.abs(Z) ** 2, axis=0)
        keep = ~(weights <= WEIGHT_TOL)
        kept = weights[keep]
        return cls(tuple(kept / kept.sum()), tuple((Z[:, keep] / np.sqrt(kept)).T))

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
    sp = spectrum(omega)
    V = np.asarray(isometry, dtype=complex)
    if V.ndim != 2:
        raise NotIsometry(f"expected a 2-d array, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise NotIsometry("isometry has non-finite entries")
    r = V.shape[1]
    # rank(V^dag V) <= L, so this also rejects L < r
    gram_dev = float(np.max(np.abs(V.conj().T @ V - np.eye(r))))
    if not gram_dev <= 1e-10:
        raise NotIsometry(f"|V^dag V - 1| = {gram_dev:.3e} > 1e-10")
    if r != sp.rank:
        raise DimMismatch(f"isometry has {r} columns but the state has rank {sp.rank}")
    return PureDecomposition.from_columns(sp.factor[:, :r] @ V.T)


def _require_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DimMismatch(f"dimension must be an integer >= 1, got {dim!r}")


def random_pure(dim, seed=None):
    """Haar-random pure state (normalized complex Gaussian)."""
    _require_dim(dim)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim, rank=None, seed=None):
    """Random density operator of exact rank ``rank`` (default: full rank).

    Wishart construction: G is dim x rank complex Gaussian, omega = G G^dag / tr.
    """
    _require_dim(dim)
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise BadRank(f"rank must lie in 1..{dim}, got {rank}")
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    omega = G @ G.conj().T
    return omega / np.trace(omega).real


def random_unitary(dim, seed=None):
    _require_dim(dim)
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    phase = np.diag(R).copy()
    phase = phase / np.abs(phase)
    return Q * phase


def four_vector(X):
    """Pauli coordinates (Tr X, Tr sigma_1 X, Tr sigma_2 X, Tr sigma_3 X), real part."""
    X = np.asarray(X, dtype=complex)
    return np.real(np.einsum("kij,ji->k", PAULI_STACK, X))


def qubit_to_bloch(omega):
    """Bloch components (x1, x2, x3) with x_k = Tr(sigma_k omega)."""
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (2, 2):
        raise DimMismatch(f"need a 2x2 matrix, got {omega.shape}")
    return four_vector(omega)[1:]


def bloch_to_qubit(x):
    """Inverse of :func:`qubit_to_bloch`; raises OutsideBall for |x| > 1 + 1e-12."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != 3:
        raise DimMismatch(f"Bloch vector needs 3 components, got {x.size}")
    r = float(np.linalg.norm(x))
    if not r <= 1.0 + 1e-12:  # NaN fails every check
        raise OutsideBall(f"|x| = {r:.12f} > 1")
    return (SIGMA_0 + x[0] * SIGMA_X + x[1] * SIGMA_Y + x[2] * SIGMA_Z) / 2.0


def _sphere_state(y):
    """Pure state of Bloch vector y: (1 + y3, y1 + i y2), or (y1 - i y2, 1 - y3) if y3 < 0."""
    v = (1.0 + y[2], complex(y[0], y[1])) if y[2] >= 0.0 else (complex(y[0], -y[1]), 1.0 - y[2])
    return np.array(v, dtype=complex) / math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)


def bloch_chord(x, direction):
    """Pure decomposition of the qubit state with Bloch vector x, |x| < 1, along a line.

    The members are the points x + t d, t_hi > 0 > t_lo, where the line meets
    the Bloch sphere, weighted -t_lo and t_hi over t_hi - t_lo so that they
    average to x; a member of weight below WEIGHT_TOL is dropped.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    # |x + t d|^2 = 1: the larger root without cancellation, the other from the product
    a, b, c = float(d @ d), float(x @ d), float(x @ x) - 1.0
    q = -b - math.copysign(math.sqrt(max(b * b - a * c, 0.0)), b)
    t_hi, t_lo = sorted((q / a, c / q), reverse=True)
    mu = -t_lo / (t_hi - t_lo)
    hi, lo = _sphere_state(x + t_hi * d), _sphere_state(x + t_lo * d)
    if min(mu, 1.0 - mu) < WEIGHT_TOL:
        return PureDecomposition((1.0,), (hi if mu > 0.5 else lo,))
    return PureDecomposition((mu, 1.0 - mu), (hi, lo))


# ---------------------------------------------------------------------------
# Stock states used all over the tests and the CLI examples.

def maximally_mixed(dim):
    _require_dim(dim)
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
    """p * singlet + (1-p) * I/4 on two qubits; a state for -1/3 <= p <= 1."""
    if not -1.0 / 3.0 <= p <= 1.0:
        raise OutOfRange(f"Werner parameter must lie in [-1/3, 1], got {p}")
    singlet = pure_projector(bell_state("psi-"))
    return p * singlet + (1.0 - p) * maximally_mixed(4)
