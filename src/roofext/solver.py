"""Numerical roof optimization over pure-state decompositions.

Every length-L decomposition of omega (rank r) is K V^T for the fixed
"square root" K = eigvecs * sqrt(eigvals) (d x r) and an isometry V on the
complex Stiefel manifold St(L, r).  Roofs are optimized by projected
gradient descent on V with a QR retraction; gradients come from batched
central differences, exploiting that member k depends only on row k of V.

Objectives are supplied as batched functions w(Z) acting on subnormalized
member columns z (|z|^2 = weight) and returning the *weighted* member value
p * g(z / |z|) per column, so that sum_k w(z_k) is the decomposition average.
This module is the independent cross-check for the closed-form formulas
elsewhere in the package; it knows nothing about them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .states import (
    PureDecomposition,
    decomposition_from_isometry,
    eta,
    spectral_decomposition,
    state_rank,
    validate_density,
)

MEMBER_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    members: Optional[int] = None  # default: min(d^2, max(2 rank, 4))
    restarts: int = 32
    max_iters: int = 2000
    tol: float = 1e-10
    seed: int = 0
    fd_step: float = 1e-6
    stall_iters: int = 50


@dataclasses.dataclass(frozen=True)
class RoofObjective:
    """name plus batched weighted-member-value function (see module docstring)."""

    name: str
    batch: Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass(frozen=True)
class RoofResult:
    value: float
    decomposition: PureDecomposition
    objective: str
    mode: str
    iterations: int
    stop_reason: str  # of the best restart; see stiefel_descend

    @property
    def converged(self):
        return self.stop_reason == "gradient"


# ---------------------------------------------------------------------------
# Stiefel descent engine

def stiefel_retract(V):
    Q, R = np.linalg.qr(V)
    sg = np.sign(np.diag(R).real)
    sg[sg == 0] = 1.0
    return Q * sg[None, :]


def stiefel_descend(value_fn, grad_fn, V0, max_iters=2000, tol=1e-10, stall_iters=50):
    """Projected gradient descent with Armijo backtracking on St(L, r).

    Returns (V, F, iterations, stop reason).  The reason is "gradient" when
    the projected gradient met the tolerance, "armijo" when backtracking found
    no decrease, "stall" after stall_iters steps that each gained at most the
    tolerance, and "max_iters" when the iterations ran out.
    """
    V = np.asarray(V0, dtype=complex)
    F = float(value_fn(V))
    step = 1.0
    stall = 0
    reason = "max_iters"
    its = 0
    for its in range(1, max_iters + 1):
        G = grad_fn(V)
        sym = (V.conj().T @ G + G.conj().T @ V) / 2.0
        P = G - V @ sym
        g2 = float(np.sum(np.abs(P) ** 2))
        scale = max(1.0, abs(F))
        if g2 <= (tol * scale) ** 2:
            reason = "gradient"
            break
        accepted = False
        s = step
        for _ in range(45):
            Vn = stiefel_retract(V - s * P)
            Fn = float(value_fn(Vn))
            if Fn <= F - 1e-4 * s * g2:
                accepted = True
                break
            s /= 2.0
        if not accepted:
            # no decrease along the projected gradient: at the noise floor
            reason = "armijo"
            break
        if F - Fn <= tol * scale:
            stall += 1
        else:
            stall = 0
        V, F = Vn, Fn
        step = min(s * 2.0, 4.0)
        if stall >= stall_iters:
            reason = "stall"
            break
    return V, F, its, reason


def _roof_closures(objective, K, fd_step):
    d, r = K.shape

    def value_fn(V):
        return float(np.sum(objective.batch(K @ V.T)))

    def grad_fn(V):
        L = V.shape[0]
        Z = K @ V.T
        Zrep = np.repeat(Z, r, axis=1)  # column k*r + j is member k
        Kt = np.tile(K, (1, L))  # column k*r + j is K[:, j]
        h = fd_step
        wp = objective.batch(Zrep + h * Kt)
        wm = objective.batch(Zrep - h * Kt)
        wip = objective.batch(Zrep + 1j * h * Kt)
        wim = objective.batch(Zrep - 1j * h * Kt)
        Gre = (wp - wm).reshape(L, r) / (2.0 * h)
        Gim = (wip - wim).reshape(L, r) / (2.0 * h)
        return Gre + 1j * Gim

    return value_fn, grad_fn


def _initial_isometry(L, r, restart, seed_seq):
    if restart == 0:
        return np.eye(L, r, dtype=complex)
    rng = np.random.default_rng(seed_seq)
    G = rng.normal(size=(L, r)) + 1j * rng.normal(size=(L, r))
    return stiefel_retract(G)


def minimize_roof(objective, omega, config=None):
    """Best decomposition average of the objective over St(L, r), minimized."""
    cfg = config if config is not None else SolverConfig()
    omega = validate_density(omega)
    d = omega.shape[0]
    vals, vecs = spectral_decomposition(omega)
    r = state_rank(omega)
    K = vecs[:, :r] * np.sqrt(np.clip(vals[:r], 0.0, None))[None, :]
    L = cfg.members if cfg.members is not None else min(d * d, max(2 * r, 4))
    if L < r:
        raise ConfigError(f"members={L} is below the state rank {r}")
    if L > d * d:
        raise ConfigError(f"members={L} exceeds the Caratheodory bound {d * d}")
    value_fn, grad_fn = _roof_closures(objective, K, cfg.fd_step)
    n_restarts = max(cfg.restarts, 1)
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_restarts)
    best = None
    iters_total = 0
    for rst in range(n_restarts):
        V0 = _initial_isometry(L, r, rst, seeds[rst])
        V, F, its, reason = stiefel_descend(
            value_fn, grad_fn, V0, cfg.max_iters, cfg.tol, cfg.stall_iters
        )
        iters_total += its
        if best is None or F < best[1]:
            best = (V, F, reason)
    V, F, reason = best
    dec = decomposition_from_isometry(omega, V)
    return RoofResult(
        value=float(F),
        decomposition=dec,
        objective=objective.name,
        mode="min",
        iterations=iters_total,
        stop_reason=reason,
    )


def maximize_roof(objective, omega, config=None):
    neg = RoofObjective(objective.name, lambda Z: -objective.batch(Z))
    res = minimize_roof(neg, omega, config)
    return dataclasses.replace(res, value=-res.value, mode="max")


def verify_roof_point(objective, decomposition):
    """Decomposition average sum_k p_k g(psi_k), recomputed from scratch."""
    Z = np.stack(
        [np.sqrt(p) * np.asarray(s, complex) for p, s in zip(decomposition.weights, decomposition.states)],
        axis=1,
    )
    return float(np.sum(objective.batch(Z)))


def flatness_check(objective, decomposition, tol=1e-6):
    """(is_flat, spread, member values) over members with weight > 1e-12."""
    cols = [
        np.asarray(s, complex)
        for p, s in zip(decomposition.weights, decomposition.states)
        if p > MEMBER_TOL
    ]
    vals = objective.batch(np.stack(cols, axis=1))
    spread = float(np.max(vals) - np.min(vals)) if len(cols) > 1 else 0.0
    return spread <= tol, spread, np.asarray(vals, dtype=float)


# ---------------------------------------------------------------------------
# Batched objectives

def theta_form_objective(theta):
    """w(z) = |conj(z)^T A conj(z)|; the anti-linear-form member value."""
    A = np.asarray(theta, dtype=complex)

    def batch(Z):
        Zc = np.asarray(Z, dtype=complex).conj()
        return np.abs(np.einsum("ij,ik,jk->k", A, Zc, Zc))

    return RoofObjective("theta-form", batch)


def _output_stats_kraus(ops, Z):
    t00 = 0.0
    t11 = 0.0
    t01 = 0.0 + 0.0j
    for E in ops:
        W = E @ Z
        t00 = t00 + np.abs(W[0]) ** 2
        t11 = t11 + np.abs(W[1]) ** 2
        t01 = t01 + W[0] * W[1].conj()
    p = t00 + t11
    det = t00 * t11 - np.abs(t01) ** 2
    return p, det


def _bloch_cols(Z):
    z0, z1 = Z[0], Z[1]
    c = z0.conj() * z1
    return np.stack(
        [
            np.abs(z0) ** 2 + np.abs(z1) ** 2,
            2.0 * c.real,
            2.0 * c.imag,
            np.abs(z0) ** 2 - np.abs(z1) ** 2,
        ]
    )


def _output_stats_bloch(Lmat, Z):
    x = _bloch_cols(np.asarray(Z, dtype=complex))
    y = Lmat @ x
    p = y[0]
    det = (y[0] ** 2 - y[1] ** 2 - y[2] ** 2 - y[3] ** 2) / 4.0
    return p, det


def _stats_fn(kraus=None, bloch=None):
    if (kraus is None) == (bloch is None):
        raise ConfigError("pass exactly one of kraus= or bloch=")
    if kraus is not None:
        ops = tuple(np.asarray(E, dtype=complex) for E in kraus)
        return lambda Z: _output_stats_kraus(ops, Z)
    Lmat = np.asarray(bloch, dtype=float)
    return lambda Z: _output_stats_bloch(Lmat, Z)


def sqrt_det_output_objective(kraus=None, bloch=None):
    """w(z) = p * sqrt(det T(pi)); its convex roof is half the map concurrence."""
    stats = _stats_fn(kraus, bloch)

    def batch(Z):
        _, det = stats(Z)
        return np.sqrt(np.clip(det, 0.0, None))

    return RoofObjective("sqrt-det-output", batch)


def det_output_objective(kraus=None, bloch=None):
    """w(z) = p * det T(pi); its convex roof relates to the map tangle."""
    stats = _stats_fn(kraus, bloch)

    def batch(Z):
        p, det = stats(Z)
        return np.divide(det, p, out=np.zeros_like(det), where=p > MEMBER_TOL)

    return RoofObjective("det-output", batch)


def output_entropy_objective(kraus=None, bloch=None):
    """w(z) = p * S(T(pi)) for qubit-output maps (natural log)."""
    stats = _stats_fn(kraus, bloch)

    def batch(Z):
        p, det = stats(Z)
        s = np.sqrt(np.clip(p * p - 4.0 * det, 0.0, None))
        mu_hi = np.clip((p + s) / 2.0, 0.0, None)
        mu_lo = np.clip((p - s) / 2.0, 0.0, None)
        return eta(mu_hi) + eta(mu_lo) - eta(p)

    return RoofObjective("output-entropy", batch)


def diag_entropy_objective():
    """w(z) = p * sum_i eta(|psi_i|^2); basis-diagonal entropy member value."""

    def batch(Z):
        Za = np.abs(np.asarray(Z, dtype=complex)) ** 2
        p = Za.sum(axis=0)
        return eta(Za).sum(axis=0) - eta(p)

    return RoofObjective("diag-entropy", batch)
