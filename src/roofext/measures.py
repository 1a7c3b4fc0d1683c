"""User-facing entanglement measures composed from the closed forms and the solver.

Conventions frozen here: the two-qubit concurrence uses the anti-linear
operator (flip (x) flip)/2, giving C(Bell) = 1 and C(product) = 0; the map
concurrence C_T = 2 (sqrt det T)^roof and tangle (4 det T)^roof are closed
forms for every qubit map; entropies are natural-log.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .antilinear import lambda_spectrum, wootters_conjugation
from .errors import OutOfRange, RoofextError
from .qubitmaps import _subtracted_det, apply_map, concurrence_sq
from .solver import minimize_roof, objective_for, verify_roof_point
from .states import (
    PureDecomposition,
    bloch_chord,
    eta,
    qubit_to_bloch,
    spectral_ensemble,
    spectrum,
)


# Rounding allowance for lower <= value <= upper in a reported bracket; a
# larger deviation is a fault and raises.
BRACKET_TOL = 1e-12


def shannon_entropy(p):
    p = np.asarray(p, dtype=float)
    if p.size and not p.min() >= 0.0:  # NaN fails too, before the log can warn
        raise OutOfRange(f"entropy needs nonnegative probabilities, got min {p.min()}")
    h = float(np.sum(eta(p)))
    if not math.isfinite(h):  # an infinite probability
        raise OutOfRange(f"entropy of {p} is non-finite")
    return h


def von_neumann_entropy(rho):
    rho = np.asarray(rho, dtype=complex)
    vals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return shannon_entropy(np.clip(vals, 0.0, None))


def xi(x):
    """Binary-entropy profile of a concurrence value: eta((1-y)/2) + eta((1+y)/2), y = sqrt(1-x^2).

    Convex and increasing on [0,1] with xi(0) = 0 and xi(1) = log 2.
    """
    x = float(x)
    if not abs(x) <= 1.0 + 1e-12:
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
    lam = lambda_spectrum(wootters_conjugation() / 2.0, spectrum(rho, dim=4))
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


def map_concurrence(T, omega):
    """C_T(omega) = sqrt of the subtracted determinant form (closed form)."""
    val = float(np.sqrt(concurrence_sq(T, omega)))
    return MeasureReport(
        quantity="concurrence",
        value=val,
        method="closed_form",
        extras={"w_lo": T.weight.w_lo, "w_hi": T.weight.w_hi},
    )


def channel_tangle(T, omega):
    """tau_T(omega) = 4 (det T(omega) - tangle_weight(T) det omega), for every qubit map.

    The witness is the chord along the top eigenvector of L^T L (see qubitmaps):
    the form is affine along every vector of that eigenspace, all of R^3 when L = 0.
    """
    sp = spectrum(omega, dim=2)
    w, axis = T.tangle_axis
    dec = spectral_ensemble(sp) if sp.rank == 1 else bloch_chord(qubit_to_bloch(sp.matrix), axis)
    return MeasureReport(
        quantity="tangle", value=_subtracted_det(T, sp, w), method="closed_form", decomposition=dec
    )


def channel_entanglement(T, omega, config=None):
    """E_T(omega) = convex roof of the output entropy, with the xi(C_T) lower bound.

    Pure inputs are evaluated exactly; mixed inputs go to the solver.  The
    upper bound is the spectral-ensemble average; the report is flagged flat
    when the value sits on the lower bound (within 1e-3).  Value and upper
    bound are clamped at 0, and the bracket is widened to hold the value when
    it misses by at most BRACKET_TOL; a larger miss raises RoofextError.
    """
    sp = spectrum(omega, dim=2)
    omega = sp.matrix
    c_t = float(np.sqrt(concurrence_sq(T, sp)))
    lower = xi(c_t)
    objective = objective_for(T, "entropy-out")
    ensemble = spectral_ensemble(sp)
    if len(ensemble) == 1:
        value = von_neumann_entropy(apply_map(T, omega))
        dec = ensemble
        method = "closed_form"
        upper = value
    else:
        res = minimize_roof(objective, sp, config)
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
