"""Stochastic (trace-preserving positive) one-qubit maps and the subtraction procedure.

The determinant of a Hermitian 2x2 matrix is a quadratic form in its Pauli
four-vector, and so is det T(X) for a linear qubit map T.  Subtracting the
right multiple of det X makes the difference a nonnegative quadratic form
whose square root is (half) the map concurrence:

    C_T(rho)^2 = 4 (det T(rho) - w det rho),   w = w_lo,

where [w_lo, w_hi] is the set of w making Q_T - w Q_det positive
semidefinite.  Q_det is invertible, so both endpoints are 0, 1 or real
eigenvalues of Q_det^-1 Q_T: one generalized-eigenvalue solve gives the
candidates and one stacked eigh tests them all, which gives the interval
exactly.  By the S-lemma the interval is nonempty exactly when the map is
positive, which is how affine maps are certified; Kraus maps are completely
positive by construction.  Optimal decompositions have length two: cut the
Bloch ball along the null direction of the pencil at w_lo, read from the
eigenpairs that the same stacked eigh gave there.

The tangle of every map is the same form with w_tau = ||L||_2^2, L the 3x3
Bloch block: convex, 4 det T on pure states and affine along the top
eigenvector of L^T L, so the chord along it is optimal (the roof of a
quadratic form; Osborne, PRA 72, 022309, 2005).  states.bloch_chord builds both chords.

Axial maps (diagonal Bloch action with a shift along z) admit closed forms
for both the concurrence weight and the tangle weight; these are checked
against the pencil and tangle_weight in the test suite.
"""

from __future__ import annotations

import dataclasses
import warnings
from functools import cached_property, reduce
from operator import add
from typing import Optional

import numpy as np

from .antilinear import _eigenbasis_form, check_symmetric
from .errors import (
    DegeneratePencil,
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
    bloch_chord,
    four_vector,
    spectral_ensemble,
    spectrum,
    validate_density,
)

TP_TOL = 1e-10

Q_DET = np.diag([0.25, -0.25, -0.25, -0.25])
_Q_DET_INV = 1.0 / np.diag(Q_DET)  # Q_det is diagonal: Q_det^-1 Q_T scales rows
# Rounding splits a double generalized eigenvalue by about sqrt(eps) ~ 1e-8;
# roots closer than this are one cluster, imaginary parts below it are noise.
_SPLIT_GAP = 1e-6


@dataclasses.dataclass(frozen=True, eq=False)
class QubitStochasticMap:
    """Positive trace-preserving qubit map; always carries its Bloch 4x4 matrix.

    The determinant form, the subtraction weight and the tangle axis are
    formed on first use, once per map, as Spectrum.factor is per state.
    """

    kind: str  # "kraus" | "axial" | "affine"
    bloch: np.ndarray
    kraus: Optional[tuple] = None
    params: Optional[tuple] = None  # (alpha, beta, gamma) for axial kind

    @cached_property
    def det_form(self):
        """(q_t, scale) of _det_form."""
        return _det_form(self)

    @cached_property
    def weight(self):
        """The SubtractionWeight of the pencil q_t - w Q_det; raises EmptyInterval if none."""
        return _weight(*self.det_form)

    @cached_property
    def tangle_axis(self):
        """(w_tau, v) of _tangle_axis."""
        return _tangle_axis(self)


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
    return np.einsum("k,kij->ij", T.bloch @ x, PAULI_STACK) / 2.0


def kraus_map(ops):
    ops = tuple(np.asarray(E, dtype=complex) for E in ops)
    if not ops or any(E.shape != (2, 2) for E in ops):
        raise ShapeMismatch("kraus_map needs a nonempty list of 2x2 matrices")
    E = np.array(ops)
    Ed = E.conj().mT
    dev = float(np.max(np.abs((Ed @ E).sum(axis=0) - np.eye(2))))
    if not dev <= TP_TOL:
        raise NotTracePreserving(f"sum E^dag E deviates from identity by {dev:.3e}")
    out = (E[:, None] @ PAULI_STACK @ Ed[:, None]).sum(axis=0)  # out[nu] = T(sigma_nu)
    bloch = np.real(np.einsum("kij,nji->kn", PAULI_STACK, out)) / 2.0
    return QubitStochasticMap(kind="kraus", bloch=bloch, kraus=ops)


def _axial_params(alpha, gamma):
    """alpha and gamma as floats; raises OutOfRange unless both lie in [0, 1]."""
    a, g = float(alpha), float(gamma)
    if not (0.0 <= a <= 1.0 and 0.0 <= g <= 1.0):
        raise OutOfRange(f"axial alpha, gamma must lie in [0,1], got {a}, {g}")
    return a, g


def axial_beta_max(alpha, gamma):
    """Largest |beta| keeping the axial map positive."""
    a, g = _axial_params(alpha, gamma)
    return float(np.sqrt(a * g) + np.sqrt((1.0 - a) * (1.0 - g)))


def axial_critical_beta_sq(alpha, gamma):
    """beta^2 value at which the concurrence weight switches branches."""
    a, g = _axial_params(alpha, gamma)
    return float((np.sqrt(a * g) - np.sqrt((1.0 - a) * (1.0 - g))) ** 2)


def axial_map(alpha, beta, gamma):
    """Axial map: T(|0><0|) = diag(a, 1-a), T(|1><1|) = diag(1-g, g), off-diagonal * beta.

    Bloch action: (x1, x2) * beta, x3 -> (alpha - gamma) + (alpha + gamma - 1) x3.
    """
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    bmax = axial_beta_max(alpha, gamma)
    if not beta * beta <= bmax * bmax + 1e-12:
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
    if not np.isfinite(m).all():
        raise OutOfRange(f"affine map has {np.count_nonzero(~np.isfinite(m))} non-finite entries")
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
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"damping probability must lie in [0,1], got {p}")
    return axial_map(1.0, float(np.sqrt(1.0 - p)), 1.0 - p)


def depolarizing_map(q):
    """T(X) = q X + (1-q) Tr(X) 1/2."""
    return axial_map((1.0 + q) / 2.0, q, (1.0 + q) / 2.0)


# ---------------------------------------------------------------------------
# Determinant pencil and the subtraction weight

def _det_form(T):
    """Symmetric q_t with x^T q_t x = det T(X), and its scale max(1, max |q_t|)."""
    L = np.asarray(T.bloch, dtype=float)
    q_t = L.T @ Q_DET @ L
    q_t = (q_t + q_t.T) / 2.0
    return q_t, max(1.0, float(np.max(np.abs(q_t))))


def det_T_form(T):
    """The determinant pencil as the pair (q_t, q_det) of real symmetric 4x4 forms.

    x^T q_t x = det T(X) and x^T q_det x = det X on all of Hermitian 2x2
    space; the form at w is q_t - w * q_det.
    """
    return T.det_form[0].copy(), Q_DET.copy()


@dataclasses.dataclass(frozen=True)
class SubtractionWeight:
    """Admissible interval [w_lo, w_hi] of the determinant subtraction, and the pick w = w_lo."""

    w_lo: float
    w_hi: float
    w: float
    # (vals, vecs) of eigh(q_t - w Q_det), which length_two_decomposition reads
    pencil_eigh: Optional[tuple] = dataclasses.field(default=None, compare=False, repr=False)


def subtraction_weight(T):
    """Interval [w_lo, w_hi] of w in [0,1] with Q_T - w Q_det PSD, by one exact solve.

    Both endpoints are 0, 1 or real generalized eigenvalues of the pencil,
    the eigenvalues of Q_det^-1 Q_T (one eigvals; Q_det is diagonal, so the
    product is a row scaling).  A touching point is a double root that
    rounding splits into a pair about 1e-8 apart, real or complex; such a
    cluster counts as its mean when the pencil is singular there (minimum
    eigenvalue within 1e-12 * scale of 0), and as its roots in (0, 1)
    otherwise.  One stacked eigh gives the minimum eigenvalue at 0, 1,
    every cluster mean and every root in (0, 1); w_lo is the lowest and w_hi
    the highest candidate that is PSD within 1e-9 * scale.  Raises
    EmptyInterval when none is, which by the S-lemma means the map is not
    positive.  The result is the map's own ``weight``, solved once per map;
    it keeps the eigenpairs at w = w_lo for length_two_decomposition.
    """
    return T.weight


def _weight(q_t, scale):
    """subtraction_weight for the form q_t of _det_form."""
    roots = np.linalg.eigvals(q_t * _Q_DET_INV[:, None]).tolist()
    roots = sorted(r.real for r in roots if abs(r.imag) <= _SPLIT_GAP)
    clusters = []
    for r in roots:
        if clusters and r - clusters[-1][-1] <= _SPLIT_GAP:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    # left-to-right sums, as numpy's mean of <= 4 values (sum() may compensate)
    means = [min(1.0, max(0.0, reduce(add, c) / len(c))) if len(c) > 1 else None for c in clusters]
    ws = [0.0, 1.0] + [m for m in means if m is not None] + [r for r in roots if 0.0 < r < 1.0]
    vals, vecs = np.linalg.eigh(q_t - np.array(ws)[:, None, None] * Q_DET)
    lam = dict(zip(ws, vals[:, 0].tolist()))
    cands = {0.0, 1.0}
    for c, mean in zip(clusters, means):
        if mean is not None and abs(lam[mean]) <= 1e-12 * scale:
            cands.add(mean)
        else:
            cands.update(w for w in c if 0.0 < w < 1.0)
    cands = sorted(cands)
    psd = [w for w in cands if lam[w] >= -1e-9 * scale]
    if not psd:
        # every mean was tested, accepted or not; then the candidates bottom-up
        tried = dict.fromkeys([m for m in means if m is not None] + cands)
        w_best = max(tried, key=lam.get)
        raise EmptyInterval(
            f"pencil is never PSD on [0,1]; best minimum eigenvalue {lam[w_best]:.3e} at w={w_best:.6f}"
        )
    i = ws.index(psd[0])
    return SubtractionWeight(w_lo=psd[0], w_hi=psd[-1], w=psd[0], pencil_eigh=(vals[i], vecs[i]))


def _subtracted_det(T, rho, w):
    """4 (det T(rho) - w det rho), clamped at zero, for a qubit state or its Spectrum.

    On Pauli four-vectors 4 det X = x0^2 - |x|^2, and T acts as y = L x.
    """
    x = four_vector(validate_density(rho, dim=2))
    y = T.bloch @ x
    val = (y[0] * y[0] - y[1:] @ y[1:]) - w * (x[0] * x[0] - x[1:] @ x[1:])
    return float(max(0.0, val))


def concurrence_sq(T, rho, weight=None):
    """C_T(rho)^2 = 4 (det T(rho) - w_lo det rho), clamped at zero; weight defaults to T.weight."""
    return _subtracted_det(T, rho, (T.weight if weight is None else weight).w)


def _tangle_axis(T):
    """Top eigenpair (w_tau, v) of L^T L, L the 3x3 Bloch block of the map."""
    L = T.bloch[1:, 1:]
    vals, vecs = np.linalg.eigh(L.T @ L)
    return float(vals[-1]), vecs[:, -1]


def tangle_weight(T):
    """w_tau = ||L||_2^2 of tau_T = 4 (det T - w_tau det); -4 lambda_min of Q_T's spatial block."""
    return T.tangle_axis[0]


# ---------------------------------------------------------------------------
# Closed forms for axial maps

def axial_concurrence_weight(alpha, beta, gamma):
    """Closed-form subtraction weight: max(beta^2, critical beta^2)."""
    b = float(beta)
    return float(max(b * b, axial_critical_beta_sq(alpha, gamma)))


def axial_tangle_weight(alpha, beta, gamma):
    """Closed-form tangle weight: max(beta^2, (alpha + gamma - 1)^2)."""
    a, g = _axial_params(alpha, gamma)
    b, m = float(beta), a + g - 1.0
    return float(max(b * b, m * m))


def axial_tangle(alpha, beta, gamma, rho):
    """Tangle of an axial map: tau = 4 (det T(rho) - w det rho), w = axial_tangle_weight.

    tau is affine on the Bloch ball at |beta| = |alpha + gamma - 1|; tau(pure) = C_T(pure)^2.
    """
    w = axial_tangle_weight(alpha, beta, gamma)
    return _subtracted_det(axial_map(alpha, beta, gamma), rho, w)


# ---------------------------------------------------------------------------
# Two-Kraus channels in standard form

def _standard_form_entries(A, B):
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != (2, 2) or B.shape != (2, 2):
        raise ShapeMismatch("standard-form Kraus pair must be 2x2")
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    if not max(abs(A[0, 1]), abs(A[1, 0])) <= 1e-12 * scale:
        raise NotStandardForm("first Kraus operator must be diagonal")
    if not max(abs(B[0, 0]), abs(B[1, 1])) <= 1e-12 * scale:
        raise NotStandardForm("second Kraus operator must be antidiagonal")
    tp = A.conj().T @ A + B.conj().T @ B
    dev = float(np.max(np.abs(tp - np.eye(2))))
    if not dev <= TP_TOL:  # NaN fails every check
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
    sp = spectrum(omega, dim=2)
    A = check_symmetric(theta)
    Bm = _eigenbasis_form(A, sp)[1]
    lam = np.linalg.svd(Bm, compute_uv=False)
    diff = float(lam[0] - lam[1])
    alt = float(np.trace(Bm @ Bm.conj()).real) - 2.0 * float(
        np.linalg.det(sp.matrix).real
    ) * abs(np.linalg.det(A))
    if abs(alt - diff * diff) > 1e-9 * max(1.0, diff * diff):
        raise RoofextError(
            f"trace identity violated: {alt:.3e} vs {diff * diff:.3e}"
        )
    return 2.0 * diff


# ---------------------------------------------------------------------------
# Optimal length-two decompositions

def length_two_decomposition(T, rho):
    """Optimal two-member decomposition for the map concurrence of a qubit state.

    Members are the intersections of the Bloch sphere with the line through
    rho along the null direction of the pencil at w_lo, read from the
    eigenpairs that the weight's solve kept there; eigenvalues <= 1e-8 *
    scale count as null, and the state's spectrum is the only new
    eigensolve.  When the null space has dimension > 1 (two-Kraus channels,
    axial maps on their beta^2 branch) it warns DegeneratePencil and takes
    the null direction with zero trace component: along it the subtracted
    form is constant, so both members have the concurrence of rho.  Another
    null direction can give a decomposition whose average is above the roof.
    A one-dimensional null space is never timelike (nu^T Q_det nu > 0): the
    pencil would then stay PSD below w_lo, or at w_lo = 0 have a null space of
    dimension >= 3.  So the line through rho always meets the sphere twice.
    """
    sp = spectrum(rho, dim=2)
    if sp.rank == 1:
        return spectral_ensemble(sp)
    vals, vecs = T.weight.pencil_eigh
    null_dim = int(np.sum(vals <= 1e-8 * T.det_form[1]))
    nu = vecs[:, 0]
    if null_dim > 1:
        warnings.warn(
            f"pencil null space has dimension {null_dim}; using its trace-free direction",
            DegeneratePencil,
        )
        null = vecs[:, :null_dim]
        nu = null @ np.linalg.svd(null[:1])[2][-1]
    x_rho = four_vector(sp.matrix)
    # nu is never timelike, so nu / nu[0] is on or outside the Bloch sphere and d3 != 0
    d3 = (nu / nu[0] - x_rho if abs(nu[0]) > 1e-10 else nu)[1:]
    return bloch_chord(x_rho[1:], d3)
