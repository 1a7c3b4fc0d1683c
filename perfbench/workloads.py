"""Seeded inputs and operations of the three benchmark workloads.

A workload is a pool of blocks.  Every block holds the same kinds of cases
in the same order; only the seeded numbers differ from block to block.  A
case is a short sequence of operations on one input (each operation is one
call into a public roofext function and is timed on its own) plus a check
that runs afterwards, outside the timed interval.  The inputs are built
with numpy alone; roofext only sees them as arguments.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

import checks

WORKLOADS = ("closed-form", "channel", "solver")

# Blocks per pool.  A run walks the pool in order and starts again at block 0
# when it reaches the end, always finishing the block it is in.
POOL_BLOCKS = {"closed-form": 64, "channel": 32, "solver": 16}

# Acceptance-test solver settings (tests/test_acceptance.py, criteria 02, 04, 09).
LIGHT = dict(restarts=4, max_iters=500, stall_iters=30)
ESCALATED = dict(members=16, restarts=8, max_iters=3000, stall_iters=150)
ESCALATE_BELOW = 0.02  # concurrence below which acceptance 02 escalates
H0 = dict(restarts=24, max_iters=800)

# Strata of the two-qubit solver problems: entangled states sit well above
# the escalation threshold, separable ones (C = 0) always escalate, so every
# block runs exactly one escalated solve.
ENTANGLED_MIN_C = 0.1
# The escalated solve takes 2 to 6 s depending on the state, more than half
# of a block, and a 35 s run holds only four to six of them.  Drawn from
# --seed, they would make the run-to-run spread a property of the draw, and
# a run that ends one block earlier would skip a different amount of work.
# So every block solves the same separable state, the first of this fixed
# stream, with the same solver seed: each run repeats identical escalation
# work, and a change in its cost shows.
SEPARABLE_SEED = 20250825


@dataclasses.dataclass
class Step:
    name: str  # public function called, as "module.function"
    call: Callable[[dict], object]  # receives the results of earlier steps
    when: Optional[Callable[[dict], bool]] = None  # run only if this holds


@dataclasses.dataclass
class Case:
    kind: str
    steps: list
    check: Callable[[dict], list]  # failure messages for the step results
    gap: Optional[Callable[[dict], float]] = None  # solver minus closed form, for solves


# ---------------------------------------------------------------------------
# Seeded inputs (numpy only)

def wishart(rng, d, rank):
    G = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    omega = G @ G.conj().T
    return omega / np.trace(omega).real


def well_conditioned(rng, d):
    """A full-rank state whose eigenvalues are all at least 0.1 / d (see closed_form_block)."""
    return 0.9 * wishart(rng, d, d) + 0.1 * np.eye(d) / d


def random_symmetric(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    A = (G + G.T) / 2.0
    return A / max(1.0, float(np.linalg.norm(A)))


def random_kraus(rng, n_ops):
    """Kraus operators cut from a random 2n x 2 isometry (a trace-preserving channel)."""
    G = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    Q, _ = np.linalg.qr(G)
    return tuple(Q[2 * k : 2 * k + 2, :] for k in range(n_ops))


def random_axial(rng, sign):
    """(alpha, beta, gamma) with beta a seeded fraction of its positivity bound."""
    alpha, gamma = rng.uniform(0.05, 0.95, size=2)
    beta_max = np.sqrt(alpha * gamma) + np.sqrt((1.0 - alpha) * (1.0 - gamma))
    return float(alpha), float(sign * rng.uniform(0.05, 0.95) * beta_max), float(gamma)


def two_qubit_in_stratum(rng, rank, entangled):
    while True:
        rho = wishart(rng, 4, rank)
        c = checks.wootters_concurrence(rho)
        if (c >= ENTANGLED_MIN_C) if entangled else (c == 0.0):
            return rho


# ---------------------------------------------------------------------------
# closed-form: two-qubit concurrence/EoF, spectra and flat decompositions

THETA_2Q = -checks.YY / 2.0  # (flip (x) flip) / 2, the package's concurrence operator


def _two_qubit_case(rx, rng, rank):
    rho = wishart(rng, 4, rank)
    flat = rank in (1, 4)
    steps = [
        Step("measures.concurrence_2qubit", lambda o: rx.concurrence_2qubit(rho)),
        Step("measures.eof_2qubit", lambda o: rx.eof_2qubit(rho)),
    ]
    if flat:
        steps.append(Step("antilinear.flat_optimal_decomposition",
                          lambda o: rx.flat_optimal_decomposition(THETA_2Q, rho, mode="convex")))

    def check(o):
        errs = checks.check_concurrence(o["measures.concurrence_2qubit"].value, rho)
        errs += checks.check_eof(o["measures.eof_2qubit"].value, rho)
        if flat:
            errs += checks.check_flat(o["antilinear.flat_optimal_decomposition"], THETA_2Q, rho, "convex")
        return errs

    return Case(f"two-qubit rank {rank}", steps, check)


def _antilinear_case(rx, A, omega):
    return Case(
        f"antilinear d={omega.shape[0]}",
        [
            Step("antilinear.roof_values", lambda o: rx.roof_values(A, omega)),
            Step("antilinear.flat_optimal_decomposition",
                 lambda o: rx.flat_optimal_decomposition(A, omega, mode="convex")),
            Step("antilinear.flat_optimal_decomposition concave",
                 lambda o: rx.flat_optimal_decomposition(A, omega, mode="concave")),
        ],
        lambda o: checks.check_roof_values(o["antilinear.roof_values"], A, omega)
        + checks.check_flat(o["antilinear.flat_optimal_decomposition"], A, omega, "convex")
        + checks.check_flat(o["antilinear.flat_optimal_decomposition concave"], A, omega, "concave"),
    )


def _ed_case(rx, omega):
    return Case(
        "diagonal qubit",
        [
            Step("diagonal.ed_qubit", lambda o: rx.ed_qubit(omega)),
            Step("diagonal.ed_qubit_flat_pair", lambda o: rx.ed_qubit_flat_pair(omega)),
        ],
        lambda o: checks.check_ed_qubit(o["diagonal.ed_qubit"], omega)
        + checks.check_ed_pair(o["diagonal.ed_qubit_flat_pair"], omega),
    )


def closed_form_block(rx, rng):
    """49 ops; the 16 concurrence/EoF calls span the median, which keeps op_p50_ms steady.

    Flat decompositions run on pure states, full-rank two-qubit states and,
    for random operators, states with no eigenvalue below 0.1 / d.  Elsewhere
    the program fails now and then (FOUND line in CHANGES.md): about 1 in
    6,000 rank-2 and rank-3 two-qubit states gets a member of weight ~1e-11
    off the flat value, and 1 in 10,000 Wishart states in d = 7 raises
    DimMismatch.  A failure that depends on the seed cannot be kept.
    """
    cases = [_two_qubit_case(rx, rng, rank) for rank in (1, 2, 3, 4) * 2]
    cases += [_antilinear_case(rx, random_symmetric(rng, d), well_conditioned(rng, d)) for d in range(2, 9)]
    cases += [_ed_case(rx, wishart(rng, 2, rank)) for rank in (1, 2, 2, 2)]
    return cases


# ---------------------------------------------------------------------------
# channel: Kraus maps, the subtraction pencil, map concurrence, length-two

def _pencil_steps(rx, T, omega):
    return [
        Step("qubitmaps.subtraction_weight", lambda o: rx.subtraction_weight(T(o))),
        Step("measures.map_concurrence", lambda o: rx.map_concurrence(T(o), omega)),
        Step("qubitmaps.length_two_decomposition", lambda o: rx.length_two_decomposition(T(o), omega)),
    ]


def _pencil_checks(o, bloch, omega, axial=None):
    sw = o["qubitmaps.subtraction_weight"]
    dec = o["qubitmaps.length_two_decomposition"]
    return (
        checks.check_subtraction_weight(sw, bloch, axial)
        + checks.check_length_two(dec, omega)
        + checks.check_map_concurrence(o["measures.map_concurrence"], bloch, dec, sw)
    )


def _axial_case(rx, params, omega):
    T = rx.axial_map(*params)
    bloch = checks.axial_bloch(*params)

    def check(o):
        errs = _pencil_checks(o, bloch, omega, axial=params)
        c = o["measures.map_concurrence"].value
        return errs + checks.check_axial_tangle(o["qubitmaps.axial_tangle"], params, omega, c)

    steps = _pencil_steps(rx, lambda o: T, omega)
    steps.append(Step("qubitmaps.axial_tangle", lambda o: rx.axial_tangle(*params, omega)))
    return Case("axial", steps, check)


def _kraus_case(rx, ops, omega):
    """A Kraus channel; with two operators the length-two step is left out (see CHANGES.md)."""
    two = len(ops) == 2

    def check(o):
        T = o["qubitmaps.kraus_map"]
        errs = checks.check_kraus_map(T, ops)
        if two:
            sw = o["qubitmaps.subtraction_weight"]
            return errs + checks.check_subtraction_weight(sw, T.bloch) + checks.check_two_kraus_concurrence(
                o["measures.map_concurrence"], ops, omega, sw
            )
        return errs + _pencil_checks(o, T.bloch, omega)

    steps = [Step("qubitmaps.kraus_map", lambda o: rx.kraus_map(ops))]
    steps += _pencil_steps(rx, lambda o: o["qubitmaps.kraus_map"], omega)[: 2 if two else 3]
    return Case(f"kraus n={len(ops)}", steps, check)


def channel_block(rx, rng):
    return [
        _axial_case(rx, random_axial(rng, +1.0), wishart(rng, 2, 2)),
        _axial_case(rx, random_axial(rng, -1.0), wishart(rng, 2, 2)),
        _kraus_case(rx, random_kraus(rng, 2), wishart(rng, 2, 2)),
        _kraus_case(rx, random_kraus(rng, 3), wishart(rng, 2, 2)),
    ]


# ---------------------------------------------------------------------------
# solver: roof problems with a closed-form value

def _config(rx, rng, **kw):
    return rx.SolverConfig(seed=int(rng.integers(2**31)), **kw)


def _theta_min_case(rx, rng, rank):
    rho = two_qubit_in_stratum(rng, rank, entangled=True)
    return _theta_min(rx, f"theta-form rank {rank}", rho, _config(rx, rng, members=max(4, 2 * rank), **LIGHT))


def separable_case(rx):
    """The escalating case every solver block repeats (see SEPARABLE_SEED)."""
    rng = np.random.default_rng(SEPARABLE_SEED)
    rho = two_qubit_in_stratum(rng, 4, entangled=False)
    return _theta_min(rx, "theta-form rank 4 separable", rho, _config(rx, rng, members=8, **LIGHT))


def _solver_case(kind, steps, result, closed, member, scale=1.0, mode="min"):
    """A solve checked against its closed form and against its own decomposition.

    result(o) picks the RoofResult; closed() is the closed-form roof, on the
    scale of scale * result.value.  The case's gap is how far the solver
    lies from the closed form on the side it may lie (above for a minimum).
    """

    def gap(o):
        g = scale * result(o).value - closed()
        return g if mode == "min" else -g

    def check(o):
        res = result(o)
        return checks.check_solver(kind, scale * res.value, closed(), mode) + checks.check_solver_average(
            kind, res.value, res.decomposition, member
        )

    return Case(kind, steps, check, gap)


def _theta_min(rx, kind, rho, light):
    """Acceptance 02's policy: a light solve, escalated when it lands below ESCALATE_BELOW."""
    escalated = dataclasses.replace(light, **ESCALATED)
    solve = lambda cfg: lambda o: rx.minimize_roof(rx.theta_form_objective(THETA_2Q), rho, cfg)  # noqa: E731
    steps = [
        Step("solver.minimize_roof", solve(light)),
        Step("solver.minimize_roof escalated", solve(escalated),
             when=lambda o: 2.0 * o["solver.minimize_roof"].value < ESCALATE_BELOW),
    ]
    best = lambda o: min((o[s.name] for s in steps if s.name in o), key=lambda r: r.value)  # noqa: E731
    return _solver_case(kind, steps, best, lambda: checks.wootters_concurrence(rho),
                        lambda s: checks.theta_value(THETA_2Q, s), scale=2.0)


def _theta_max_case(rx, rng):
    A = random_symmetric(rng, 3)
    omega = wishart(rng, 3, 3)
    cfg = _config(rx, rng, **LIGHT)
    key = "solver.maximize_roof"
    return _solver_case(
        "theta-form max d=3",
        [Step(key, lambda o: rx.maximize_roof(rx.theta_form_objective(A), omega, cfg))],
        lambda o: o[key], lambda: checks.roof_pair(A, omega)[1], lambda s: checks.theta_value(A, s), mode="max",
    )


def _sqrt_det_case(rx, rng, kind, closed, bloch, objective_kw):
    """Half the map concurrence as a roof; closed(omega) is C_T(omega), computed in numpy."""
    omega = wishart(rng, 2, 2)
    cfg = _config(rx, rng, members=4, **LIGHT)
    key = "solver.minimize_roof"
    return _solver_case(
        f"sqrt-det {kind}",
        [Step(key, lambda o: rx.minimize_roof(rx.sqrt_det_output_objective(**objective_kw), omega, cfg))],
        lambda o: o[key], lambda: closed(omega),
        lambda s: np.sqrt(max(0.0, checks.output_det(bloch, s))), scale=2.0,
    )


def _diag_case(rx, rng):
    omega = wishart(rng, 2, 2)
    cfg = _config(rx, rng, members=4, **LIGHT)
    key = "solver.minimize_roof"
    return _solver_case(
        "diag-entropy qubit",
        [Step(key, lambda o: rx.minimize_roof(rx.diag_entropy_objective(), omega, cfg))],
        lambda o: o[key], lambda: checks.ed_qubit_reference(omega),
        lambda s: float(np.sum(checks.eta(np.abs(s) ** 2))),
    )


def _h0_case(rx, rng, d):
    cfg = _config(rx, rng, **H0)
    key = "diagonal.h0_min_entropy_experiment"
    return Case(
        f"h0 d={d}",
        [Step(key, lambda o: rx.h0_min_entropy_experiment(d, cfg))],
        lambda o: checks.check_h0(d, *o[key]),
        lambda o: o[key][0] - checks.LN2,
    )


def _kraus_solve_case(rx, rng, n_ops):
    """The closed form comes from the Kraus-pair form (two operators) or the exact pencil (three).

    map_concurrence is not the reference here: its bisection puts w_lo up to
    1.3e-10 below the exact end of the interval, so it can overstate the roof
    by ~1e-10, the tolerance a solver minimum is held to.
    """
    ops = random_kraus(rng, n_ops)
    bloch = checks.kraus_bloch(ops)
    if n_ops == 2:
        closed = lambda omega: 2.0 * checks.roof_pair(checks.kraus_pair_theta(ops), omega)[0]  # noqa: E731
    else:
        w_lo = checks.pencil_w_lo(bloch)
        closed = lambda omega: checks.map_concurrence_reference(bloch, omega, w_lo)  # noqa: E731
    return _sqrt_det_case(rx, rng, f"kraus n={n_ops}", closed, bloch, {"kraus": ops})


def _bloch_solve_case(rx, rng):
    params = random_axial(rng, 1.0 if rng.uniform() < 0.5 else -1.0)
    bloch = checks.axial_bloch(*params)
    w = checks.axial_weight(*params)
    closed = lambda omega: checks.map_concurrence_reference(bloch, omega, w)  # noqa: E731
    return _sqrt_det_case(rx, rng, "bloch axial", closed, bloch, {"bloch": bloch})


# Solves of 50-150 ms appear LIGHT_REPEATS times per block, each on its own
# seeded input, the others once.  A block holds 27 operations and takes 6-9 s,
# so a 35 s run samples 108-162 solves: with one of each, the median solve
# time moved by a quarter from one seed to the next.
LIGHT_REPEATS = 3


def solver_block(rx, rng):
    cases = [_theta_min_case(rx, rng, 1), _theta_min_case(rx, rng, 4), separable_case(rx)]
    for _ in range(LIGHT_REPEATS):
        cases += [
            _theta_min_case(rx, rng, 2),
            _theta_min_case(rx, rng, 3),
            _theta_max_case(rx, rng),
            _kraus_solve_case(rx, rng, 2),
            _kraus_solve_case(rx, rng, 3),
            _bloch_solve_case(rx, rng),
            _diag_case(rx, rng),
        ]
    cases += [_h0_case(rx, rng, d) for d in (3, 4)]
    return cases


BLOCK_BUILDERS = {"closed-form": closed_form_block, "channel": channel_block, "solver": solver_block}


def build(rx, workload, seed):
    """The workload's pool: POOL_BLOCKS[workload] blocks, each from its own seeded stream."""
    index = WORKLOADS.index(workload)
    return [
        BLOCK_BUILDERS[workload](rx, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, b))))
        for b in range(POOL_BLOCKS[workload])
    ]
