"""User-facing entanglement measures composed from the closed forms and the solver.

Conventions frozen here: the two-qubit concurrence uses the anti-linear
operator (flip (x) flip)/2, giving C(Bell) = 1 and C(product) = 0; the map
concurrence is C_T = 2 (sqrt det T)^roof; entropies are natural-log.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .antilinear import lambda_spectrum, wootters_conjugation
from .errors import DimMismatch, OutOfRange, RoofextError
from .qubitmaps import (
    QubitStochasticMap,
    apply_map,
    axial_tangle,
    concurrence_sq,
    subtraction_weight,
)
from .solver import SolverConfig, minimize_roof, objective_for, verify_roof_point
from .states import (
    PureDecomposition,
    eta,
    spectral_ensemble,
    validate_density,
)


# Rounding allowance for lower <= value <= upper in a reported bracket; a
# larger deviation is a fault and raises.
BRACKET_TOL = 1e-12


def shannon_entropy(p):
    return float(np.sum(eta(np.asarray(p, dtype=float))))


def von_neumann_entropy(rho):
    rho = np.asarray(rho, dtype=complex)
    vals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return shannon_entropy(np.clip(vals, 0.0, None))


def xi(x):
    """Binary-entropy profile of a concurrence value: eta((1-y)/2) + eta((1+y)/2), y = sqrt(1-x^2).

    Convex and increasing on [0,1] with xi(0) = 0 and xi(1) = log 2.
    """
    x = float(x)
    if abs(x) > 1.0 + 1e-12:
        raise OutOfRange(f"xi argument must lie in [-1,1], got {x}")
    x = min(1.0, max(-1.0, x))
    y = float(np.sqrt(1.0 - x * x))
    return shannon_entropy([(1.0 - y) / 2.0, (1.0 + y) / 2.0])


@dataclasses.dataclass(frozen=True)
class MeasureReport:
    quantity: str
    value: float
    method: str  # "closed_form" | "solver"
    decomposition: Optional[PureDecomposition] = None
    bounds: Optional[tuple] = None  # (lower, upper)
    extras: dict = dataclasses.field(default_factory=dict)


def partial_trace_kraus():
    """Kraus pair (<0| (x) 1, <1| (x) 1) implementing the two-qubit partial trace."""
    a1 = np.zeros((2, 4), dtype=complex)
    a1[0, 0] = a1[1, 1] = 1.0
    a2 = np.zeros((2, 4), dtype=complex)
    a2[0, 2] = a2[1, 3] = 1.0
    return a1, a2


def concurrence_2qubit(rho):
    """Two-qubit concurrence 2 max(0, l1 - l2 - l3 - l4) from the flip spectrum."""
    rho = validate_density(rho)
    if rho.shape[0] != 4:
        raise DimMismatch(f"two-qubit concurrence needs dim 4, got {rho.shape[0]}")
    theta = wootters_conjugation() / 2.0
    lam = lambda_spectrum(theta, rho)
    val = 2.0 * max(0.0, float(lam[0] - lam[1:].sum()))
    return MeasureReport(quantity="concurrence", value=val, method="closed_form")


def eof_2qubit(rho):
    """Entanglement of formation of a two-qubit state: xi of the concurrence."""
    c = concurrence_2qubit(rho)
    return MeasureReport(
        quantity="eof",
        value=xi(c.value),
        method="closed_form",
        extras={"concurrence": c.value},
    )


def map_concurrence(T, omega, weight=None):
    """C_T(omega) = sqrt of the subtracted determinant form (closed form)."""
    if weight is None:
        weight = subtraction_weight(T)
    val = float(np.sqrt(concurrence_sq(T, omega, weight)))
    return MeasureReport(
        quantity="concurrence",
        value=val,
        method="closed_form",
        extras={"w_lo": weight.w_lo, "w_hi": weight.w_hi},
    )


def channel_tangle(T, omega, config=None):
    """tau_T(omega): closed form for axial maps, roof-solver for anything else."""
    omega = validate_density(omega)
    if T.kind == "axial":
        a, b, g = T.params
        return MeasureReport(
            quantity="tangle", value=axial_tangle(a, b, g, omega), method="closed_form"
        )
    res = minimize_roof(objective_for(T, "det-out"), omega, config)
    return MeasureReport(
        quantity="tangle",
        value=4.0 * res.value,
        method="solver",
        decomposition=res.decomposition,
    )


def channel_entanglement(T, omega, config=None):
    """E_T(omega) = convex roof of the output entropy, with the xi(C_T) lower bound.

    Pure inputs are evaluated exactly; mixed inputs go to the solver.  The
    upper bound is the spectral-ensemble average; the report is flagged flat
    when the value sits on the lower bound (within 1e-3).  Value and upper
    bound are clamped at 0, and the bracket is widened to hold the value when
    it misses by at most BRACKET_TOL; a larger miss raises RoofextError.
    """
    omega = validate_density(omega)
    if omega.shape[0] != 2:
        raise DimMismatch(f"channel entanglement needs a qubit state, got dim {omega.shape[0]}")
    weight = subtraction_weight(T)
    c_t = float(np.sqrt(concurrence_sq(T, omega, weight)))
    lower = xi(c_t)
    objective = objective_for(T, "entropy-out")
    ensemble = spectral_ensemble(omega)
    if len(ensemble) == 1:
        value = von_neumann_entropy(apply_map(T, omega))
        dec = ensemble
        method = "closed_form"
        upper = value
    else:
        res = minimize_roof(objective, omega, config)
        value = res.value
        dec = res.decomposition
        method = "solver"
        upper = verify_roof_point(objective, ensemble)
    # a roof of a nonnegative objective: negative values are rounding dust
    value, upper = max(value, 0.0), max(upper, 0.0)
    deviation = max(lower - value, value - upper)
    if deviation > BRACKET_TOL:
        raise RoofextError(
            f"entropy-out {value:.6e} lies outside its bracket [{lower:.6e}, {upper:.6e}] "
            f"by {deviation:.3e} > {BRACKET_TOL:.0e}"
        )
    lower, upper = min(lower, value), max(upper, value)
    return MeasureReport(
        quantity="entropy-out",
        value=value,
        method=method,
        decomposition=dec,
        bounds=(lower, upper),
        extras={"flat": bool(abs(value - lower) < 1e-3), "concurrence": c_t},
    )


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """The four quantities of the bound chain and the two inequality verdicts."""

    concurrence_sq: float
    tangle: float
    xi_of_concurrence: float
    entanglement: float
    tangle_ok: bool
    entanglement_ok: bool


def bound_suite(T, omega, config=None, strict=True):
    """Check tau >= C^2 and E >= xi(C) for one map and state.

    With strict=True a violated inequality raises (the CLI maps that to the
    invariant-violation exit code); otherwise the verdicts are just reported.
    """
    omega = validate_density(omega)
    weight = subtraction_weight(T)
    c_sq = concurrence_sq(T, omega, weight)
    tau = channel_tangle(T, omega, config).value
    xi_c = xi(float(np.sqrt(c_sq)))
    ent = channel_entanglement(T, omega, config).value
    tangle_ok = bool(tau >= c_sq - 1e-9)
    entanglement_ok = bool(ent >= xi_c - 5e-3)
    if strict and not tangle_ok:
        raise RoofextError(
            f"invariant tangle >= concurrence^2 violated: tau={tau:.6e} < C^2={c_sq:.6e}"
        )
    if strict and not entanglement_ok:
        raise RoofextError(
            f"invariant entanglement >= xi(concurrence) violated: E={ent:.6e} < xi={xi_c:.6e}"
        )
    return BoundReport(
        concurrence_sq=float(c_sq),
        tangle=float(tau),
        xi_of_concurrence=float(xi_c),
        entanglement=float(ent),
        tangle_ok=tangle_ok,
        entanglement_ok=entanglement_ok,
    )
