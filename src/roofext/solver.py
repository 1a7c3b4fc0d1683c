"""Numerical roof optimization over pure-state decompositions.

Every length-L decomposition of omega (rank r) is K V^T for the fixed
"square root" K = eigvecs * sqrt(eigvals) (d x r) and an isometry V on the
complex Stiefel manifold St(L, r).  Roofs are optimized by projected
gradient descent on V with a QR retraction.  Every built-in objective has
an exact gradient, so one call per step gives the gradients of every
member; an objective without one gets batched central differences,
exploiting that member k depends only on row k of V.
The restarts of a solve descend in lockstep as one (R, L, r) stack: one
batch call gives the values of every running restart, one more their
gradients, and one stacked QR retracts them all, while each restart keeps
its own Armijo step, stall count and stop reason and leaves the stack when
it stops.

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
    _TINY,
    PAULI_STACK,
    WEIGHT_TOL,
    PureDecomposition,
    decomposition_from_isometry,
    eta,
    spectral_decomposition,
    state_rank,
    validate_density,
)


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
    """name plus batched weighted-member-value function (see module docstring).

    grad, if given, maps the (d, n) member columns Z to the (d, n) complex
    gradients dw/dRe z + i dw/dIm z = 2 dw/dconj(z), one column per member;
    it must be finite everywhere, kinks included.  Without it the solver
    takes central differences of batch with step SolverConfig.fd_step.
    """

    name: str
    batch: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclasses.dataclass(frozen=True)
class RoofResult:
    value: float
    decomposition: PureDecomposition
    objective: str
    mode: str
    iterations: int  # summed over restarts
    stop_reason: str  # of the best restart; see _descend
    restart_values: tuple  # final value of each restart, in restart order
    restart_reasons: tuple  # stop reason of each restart, in restart order
    value_evals: int  # objective values evaluated, summed over restarts
    grad_evals: int  # gradients evaluated, summed over restarts
    grad_norm: float  # projected-gradient norm of the best restart at its final point

    @property
    def converged(self):
        return self.stop_reason == "gradient"


# ---------------------------------------------------------------------------
# Stiefel descent engine

def stiefel_retract(V):
    """QR retraction of an (L, r) matrix, or of a stack (..., L, r), onto St(L, r)."""
    Q, R = np.linalg.qr(V)
    sg = np.sign(np.diagonal(R, axis1=-2, axis2=-1).real)
    sg[sg == 0] = 1.0
    return Q * sg[..., None, :]


def _projected(V, G):
    """Projection of Euclidean gradients G onto the tangent spaces of St(L, r) at V."""
    return G - V @ ((V.conj().mT @ G + G.conj().mT @ V) / 2.0)


def _descend(value_fn, grad_fn, V0, cfg):
    """Lockstep projected gradient descent with Armijo backtracking on St(L, r).

    V0 is an (R, L, r) stack of restarts; value_fn maps an (n, L, r) stack to
    its n values and grad_fn to its (n, L, r) Euclidean gradients.  Every
    restart keeps its own step, stall count and stop reason, and a restart
    that stops leaves the stack, so each follows the trajectory it would
    follow alone.  The reason is "gradient" when the projected gradient met
    the tolerance, "armijo" when 45 backtracking trials found no decrease,
    "stall" after stall_iters steps that each gained at most the tolerance,
    and "max_iters" when the iterations ran out.

    Returns per-restart (V, F, iterations, reasons) and the numbers of values
    and gradients evaluated, summed over restarts.
    """
    V = np.array(V0, dtype=complex)
    F = value_fn(V)
    R = V.shape[0]
    V_end, F_end = np.empty_like(V), np.empty_like(F)
    its = np.full(R, cfg.max_iters)
    reasons = np.full(R, "max_iters", dtype=object)
    rows = np.arange(R)  # the restart behind each row of the running stack
    step = np.ones(R)
    stall = np.zeros(R, dtype=int)
    n_values, n_grads = R, 0
    for it in range(1, cfg.max_iters + 1):
        P = _projected(V, grad_fn(V))
        n_grads += rows.size
        g2 = np.sum(np.abs(P) ** 2, axis=(1, 2))
        scale = np.maximum(1.0, np.abs(F))
        reason = np.where(g2 <= (cfg.tol * scale) ** 2, "gradient", "")
        Vn, Fn = V.copy(), F.copy()
        pend = np.flatnonzero(reason == "")
        for _ in range(45):
            if pend.size == 0:
                break
            Vt = stiefel_retract(V[pend] - step[pend, None, None] * P[pend])
            Ft = value_fn(Vt)
            n_values += pend.size
            ok = Ft <= F[pend] - 1e-4 * step[pend] * g2[pend]
            Vn[pend[ok]], Fn[pend[ok]] = Vt[ok], Ft[ok]
            pend = pend[~ok]
            step[pend] /= 2.0
        # no decrease along the projected gradient: at the noise floor
        reason[pend] = "armijo"
        stall = np.where(F - Fn <= cfg.tol * scale, stall + 1, 0)
        reason[(reason == "") & (stall >= cfg.stall_iters)] = "stall"
        V, F, step = Vn, Fn, np.minimum(step * 2.0, 4.0)
        end = reason != ""
        if end.any():
            done = rows[end]
            V_end[done], F_end[done], its[done] = V[end], F[end], it
            reasons[done] = reason[end].tolist()
            keep = ~end
            V, F, step, stall, rows = V[keep], F[keep], step[keep], stall[keep], rows[keep]
            if rows.size == 0:
                break
    V_end[rows], F_end[rows] = V, F
    return V_end, F_end, its, reasons, n_values, n_grads


def _multistart(value_fn, grad_fn, first, cfg):
    """_descend over cfg.restarts restarts of the SeedSequence(cfg.seed) spawn.

    Restart 0 starts at `first`; every other restart at a random point drawn
    from its own spawned seed.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(max(cfg.restarts, 1))
    rngs = [np.random.default_rng(s) for s in seeds[1:]]
    G = np.array([rng.normal(size=first.shape) + 1j * rng.normal(size=first.shape) for rng in rngs])
    V0 = np.concatenate([first[None], stiefel_retract(G.reshape(-1, *first.shape))])
    return _descend(value_fn, grad_fn, V0, cfg)


def _roof_closures(objective, K, fd_step):
    """Stacked value and gradient of sum_k w(K V[k]^T) over (n, L, r) stacks.

    Member k of a restart depends only on row k of its V, so dF/dV[k] is
    K^H applied to the gradient of member k: one objective.grad call covers
    every entry of every restart.  Without objective.grad, one batch call
    per finite-difference shift does.
    """
    d, r = K.shape

    def members(V):  # column i*L + k is member k of restart i
        return (K @ V.mT).transpose(1, 0, 2).reshape(d, -1)

    def value_fn(V):
        return objective.batch(members(V)).reshape(V.shape[:2]).sum(axis=1)

    if objective.grad is not None:
        Kh = K.conj().T

        def grad_fn(V):
            n, L = V.shape[:2]
            return (Kh @ objective.grad(members(V))).reshape(r, n, L).transpose(1, 2, 0)

        return value_fn, grad_fn

    def grad_fn(V):
        n, L = V.shape[:2]
        Zrep = np.repeat(members(V), r, axis=1)  # column (i*L + k)*r + j is member k of restart i
        Kt = np.tile(K, (1, n * L))  # column (i*L + k)*r + j is K[:, j]
        h = fd_step
        wp = objective.batch(Zrep + h * Kt)
        wm = objective.batch(Zrep - h * Kt)
        wip = objective.batch(Zrep + 1j * h * Kt)
        wim = objective.batch(Zrep - 1j * h * Kt)
        Gre = (wp - wm).reshape(n, L, r) / (2.0 * h)
        Gim = (wip - wim).reshape(n, L, r) / (2.0 * h)
        return Gre + 1j * Gim

    return value_fn, grad_fn


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
    V, F, its, reasons, n_values, n_grads = _multistart(
        value_fn, grad_fn, np.eye(L, r, dtype=complex), cfg
    )
    best = int(np.argmin(F))  # the first restart that reaches the minimum
    P = _projected(V[best], grad_fn(V[best][None])[0])
    return RoofResult(
        value=float(F[best]),
        decomposition=decomposition_from_isometry(omega, V[best]),
        objective=objective.name,
        mode="min",
        iterations=int(its.sum()),
        stop_reason=reasons[best],
        restart_values=tuple(F.tolist()),
        restart_reasons=tuple(reasons),
        value_evals=n_values,
        grad_evals=n_grads,
        grad_norm=float(np.linalg.norm(P)),
    )


def maximize_roof(objective, omega, config=None):
    grad = objective.grad
    neg = RoofObjective(
        objective.name, lambda Z: -objective.batch(Z), None if grad is None else lambda Z: -grad(Z)
    )
    res = minimize_roof(neg, omega, config)
    return dataclasses.replace(
        res, value=-res.value, mode="max", restart_values=tuple(-v for v in res.restart_values)
    )


def verify_roof_point(objective, decomposition):
    """Decomposition average sum_k p_k g(psi_k), recomputed from scratch."""
    Z = np.stack(
        [np.sqrt(p) * np.asarray(s, complex) for p, s in zip(decomposition.weights, decomposition.states)],
        axis=1,
    )
    return float(np.sum(objective.batch(Z)))


def flatness_check(objective, decomposition, tol=1e-6):
    """(is_flat, spread, member values) over members with weight > WEIGHT_TOL."""
    cols = [
        np.asarray(s, complex)
        for p, s in zip(decomposition.weights, decomposition.states)
        if p > WEIGHT_TOL
    ]
    vals = objective.batch(np.stack(cols, axis=1))
    spread = float(np.max(vals) - np.min(vals)) if len(cols) > 1 else 0.0
    return spread <= tol, spread, np.asarray(vals, dtype=float)


# ---------------------------------------------------------------------------
# Batched objectives

def theta_form_objective(theta):
    """w(z) = |conj(z)^T A conj(z)|; the anti-linear-form member value.

    Gradient: conj(f) / |f| (A + A^T) conj(z) with f the form, 0 where f = 0.
    """
    A = np.asarray(theta, dtype=complex)
    As = A + A.T

    def batch(Z):
        Zc = np.asarray(Z, dtype=complex).conj()
        return np.abs(np.einsum("ij,ik,jk->k", A, Zc, Zc))

    def grad(Z):
        Zc = np.asarray(Z, dtype=complex).conj()
        AZ = As @ Zc
        f = np.sum(Zc * AZ, axis=0) / 2.0
        a = np.abs(f)
        return np.divide(f.conj(), a, out=np.zeros_like(f), where=a > 0) * AZ

    return RoofObjective("theta-form", batch, grad)


def _output_forms(kraus=None, bloch=None):
    """The Hermitian forms S_mu, stacked (4, d, d), with z^H S_mu z = Tr sigma_mu T(z z^H).

    S_mu = sum_E E^H sigma_mu E for Kraus operators E (2 x d), and
    sum_nu L[mu, nu] sigma_nu for a 4 x 4 Bloch matrix L.
    """
    if (kraus is None) == (bloch is None):
        raise ConfigError("pass exactly one of kraus= or bloch=")
    if kraus is not None:
        E = np.asarray(kraus, dtype=complex)
        return np.einsum("kia,mij,kjb->mab", E.conj(), PAULI_STACK, E)
    return np.einsum("mn,nij->mij", np.asarray(bloch, dtype=float), PAULI_STACK)


def _output_stats(S, Z, grad=False):
    """p = Tr T(z z^H) and det T(z z^H) per column z; with grad, also dp and ddet.

    dp and ddet are the derivatives by conj(z).  The Pauli coordinates of
    T(z z^H) are y_mu = z^H S_mu z, with dy_mu/dconj(z) = S_mu z, so one
    stacked product gives p = y_0, det = (y_0^2 - |y|^2) / 4 and
    ddet = (y_0 S_0 z - sum_i y_i S_i z) / 2.
    """
    Z = np.asarray(Z, dtype=complex)
    W = S @ Z
    y = np.einsum("an,man->mn", Z.conj(), W).real
    p, det = y[0], (y[0] ** 2 - y[1] ** 2 - y[2] ** 2 - y[3] ** 2) / 4.0
    if not grad:
        return p, det
    return p, det, W[0], (y[0] * W[0] - np.einsum("mn,man->an", y[1:], W[1:])) / 2.0


def sqrt_det_output_objective(kraus=None, bloch=None):
    """w(z) = p * sqrt(det T(pi)); its convex roof is half the map concurrence.

    Gradient: ddet / sqrt(det), 0 where det <= 0.
    """
    S = _output_forms(kraus, bloch)

    def batch(Z):
        _, det = _output_stats(S, Z)
        return np.sqrt(np.clip(det, 0.0, None))

    def grad(Z):
        _, det, _, ddet = _output_stats(S, Z, grad=True)
        root = np.sqrt(np.clip(det, 0.0, None))
        return np.divide(ddet, root, out=np.zeros_like(ddet), where=root > 0)

    return RoofObjective("sqrt-det-output", batch, grad)


def det_output_objective(kraus=None, bloch=None):
    """w(z) = p * det T(pi); its convex roof relates to the map tangle.

    Gradient: 2 (p ddet - det dp) / p^2, 0 where p <= WEIGHT_TOL.
    """
    S = _output_forms(kraus, bloch)

    def batch(Z):
        p, det = _output_stats(S, Z)
        return np.divide(det, p, out=np.zeros_like(det), where=p > WEIGHT_TOL)

    def grad(Z):
        p, det, dp, ddet = _output_stats(S, Z, grad=True)
        g = 2.0 * (p * ddet - det * dp)
        return np.divide(g, p * p, out=np.zeros_like(g), where=p > WEIGHT_TOL)

    return RoofObjective("det-output", batch, grad)


def output_entropy_objective(kraus=None, bloch=None):
    """w(z) = p * S(T(pi)) for qubit-output maps (natural log).

    With output eigenvalues mu_+- = (p +- s) / 2 and logs l = log(x + tiny)
    as in states.eta, the gradient is
    2 (l_p - (l_+ + l_-) / 2) dp - 2 (arctanh(s/p) / s) (p dp - 2 ddet),
    where arctanh(s/p) = (l_+ - l_-) / 2 and arctanh(s/p) / s is 1/p at s = 0.
    """
    S = _output_forms(kraus, bloch)

    def eigs(p, det):
        s = np.sqrt(np.clip(p * p - 4.0 * det, 0.0, None))
        return s, np.clip((p + s) / 2.0, 0.0, None), np.clip((p - s) / 2.0, 0.0, None)

    def batch(Z):
        p, det = _output_stats(S, Z)
        _, mu_hi, mu_lo = eigs(p, det)
        return eta(mu_hi) + eta(mu_lo) - eta(p)

    def grad(Z):
        p, det, dp, ddet = _output_stats(S, Z, grad=True)
        s, mu_hi, mu_lo = eigs(p, det)
        l_hi, l_lo = np.log(mu_hi + _TINY), np.log(mu_lo + _TINY)
        c_p = np.log(p + _TINY) - (l_hi + l_lo) / 2.0
        c_s = np.divide(l_hi - l_lo, 2.0 * s, out=1.0 / (p + _TINY), where=s > 0)
        return 2.0 * (c_p * dp - c_s * (p * dp - 2.0 * ddet))

    return RoofObjective("output-entropy", batch, grad)


_MAP_OBJECTIVES = {
    "sqrt-det-out": sqrt_det_output_objective,
    "det-out": det_output_objective,
    "entropy-out": output_entropy_objective,
}


def objective_for(T, kind):
    """The qubit-output objective of a map T for kind sqrt-det-out, det-out or entropy-out.

    Built from T's Kraus operators when it has them, else from its Bloch matrix.
    """
    maker = _MAP_OBJECTIVES[kind]
    return maker(kraus=T.kraus) if T.kraus is not None else maker(bloch=T.bloch)


def diag_entropy_objective():
    """w(z) = p * sum_i eta(|psi_i|^2); basis-diagonal entropy member value.

    Gradient: 2 (log p - log |z_i|^2) z_i, logs guarded as in states.eta.
    """

    def batch(Z):
        Za = np.abs(np.asarray(Z, dtype=complex)) ** 2
        p = Za.sum(axis=0)
        return eta(Za).sum(axis=0) - eta(p)

    def grad(Z):
        Z = np.asarray(Z, dtype=complex)
        Za = np.abs(Z) ** 2
        return 2.0 * (np.log(Za.sum(axis=0) + _TINY) - np.log(Za + _TINY)) * Z

    return RoofObjective("diag-entropy", batch, grad)
