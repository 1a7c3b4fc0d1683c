"""Command-line interface.

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 dimension
mismatch, 4 invariant violation.  Data goes to stdout, logs to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import antilinear, diagonal, measures, qubitmaps, serialize, solver, states, verify
from .errors import DimMismatch, ParseError, RoofextError, ShapeMismatch

LN2 = float(np.log(2.0))
ENTROPIC_QUANTITIES = ("eof", "ed", "entropy-out")


def _load_state(path):
    rho = serialize.state_from_json(serialize.read_json_file(path))
    states.validate_density(rho)
    return rho


def _load_map(path):
    return serialize.map_from_json(serialize.read_json_file(path))


def _load_theta(path):
    data = serialize.read_json_file(path)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ParseError(f"{path}: expected an object with a 'matrix' entry")
    return antilinear.check_symmetric(serialize.json_to_complex_array(data["matrix"]))


def _default_theta(dim):
    if dim != 4:
        raise ParseError(
            "--theta is required unless the state is two-qubit "
            "(where the spin-flip conjugation over 2 is the default)"
        )
    return antilinear.wootters_conjugation() / 2.0


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8"), True
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _solver_config(args, members=None):
    return solver.SolverConfig(
        members=members,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )


def _add_solver_flags(sub, restarts=16, max_iters=1500):
    sub.add_argument("--members", type=int, default=None, help="decomposition length")
    sub.add_argument("--restarts", type=int, default=restarts)
    sub.add_argument("--max-iters", type=int, default=max_iters)
    sub.add_argument("--seed", type=int, default=0)


# ---------------------------------------------------------------------------
# subcommands

def cmd_measure(args):
    rho = _load_state(args.state)
    T = _load_map(args.map) if args.map else None
    q = args.quantity
    if q == "concurrence":
        rep = measures.map_concurrence(T, rho) if T is not None else measures.concurrence_2qubit(rho)
    elif q == "tangle":
        if T is not None:
            rep = measures.channel_tangle(T, rho, _tangle_config(args))
        else:
            base = measures.concurrence_2qubit(rho)
            rep = measures.MeasureReport(
                quantity="tangle",
                value=base.value**2,
                method="closed_form",
                extras={"concurrence": base.value},
            )
    elif q == "eof":
        if T is not None:
            raise ParseError("--map is not accepted for quantity eof; use entropy-out")
        rep = measures.eof_2qubit(rho)
    elif q == "ed":
        if T is not None:
            raise ParseError("--map is not accepted for quantity ed (the map is fixed)")
        rep = measures.MeasureReport(
            quantity="ed",
            value=diagonal.ed_qubit(rho),
            method="closed_form",
            decomposition=diagonal.ed_qubit_flat_pair(rho),
        )
    else:  # entropy-out
        if T is None:
            raise ParseError("quantity entropy-out requires --map")
        rep = measures.channel_entanglement(T, rho, _tangle_config(args))
    if args.base == "2" and q in ENTROPIC_QUANTITIES:
        bounds = None
        if rep.bounds is not None:
            bounds = (rep.bounds[0] / LN2, rep.bounds[1] / LN2)
        rep = dataclasses.replace(rep, value=rep.value / LN2, bounds=bounds)
    print(serialize.dumps(serialize.report_to_json(rep)))
    return 0


def _tangle_config(args):
    return solver.SolverConfig(restarts=args.restarts, seed=args.seed)


def cmd_solve(args):
    rho = _load_state(args.state)
    name = args.objective
    if name == "theta-form":
        theta = _load_theta(args.theta) if args.theta else _default_theta(rho.shape[0])
        if theta.shape[0] != rho.shape[0]:
            raise DimMismatch(
                f"conjugation is {theta.shape[0]}-dimensional, state is {rho.shape[0]}"
            )
        obj = solver.theta_form_objective(theta)
    elif name == "diag-entropy":
        obj = solver.diag_entropy_objective()
    else:
        if not args.map:
            raise ParseError(f"objective {name} requires --map")
        obj = solver.objective_for(_load_map(args.map), name)
        if rho.shape != (2, 2):
            raise DimMismatch("qubit-map objectives need a 2x2 state")
    cfg = _solver_config(args, members=args.members)
    run = solver.maximize_roof if args.mode == "max" else solver.minimize_roof
    res = run(obj, rho, cfg)
    payload = {
        "objective": res.objective,
        "mode": res.mode,
        "value": res.value,
        "iterations": res.iterations,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "restart_values": list(res.restart_values),
        "restart_reasons": list(res.restart_reasons),
        "value_evals": res.value_evals,
        "grad_evals": res.grad_evals,
        "grad_norm": res.grad_norm,
        "decomposition": serialize.decomposition_to_json(res.decomposition),
    }
    print(serialize.dumps(payload))
    return 0


def cmd_decompose(args):
    rho = _load_state(args.state)
    method = args.method
    if method in ("flat-convex", "flat-concave"):
        theta = _load_theta(args.theta) if args.theta else _default_theta(rho.shape[0])
        if theta.shape[0] != rho.shape[0]:
            raise DimMismatch(
                f"conjugation is {theta.shape[0]}-dimensional, state is {rho.shape[0]}"
            )
        dec = antilinear.flat_optimal_decomposition(
            theta, rho, mode=method.removeprefix("flat-")
        )
    elif method == "length-two":
        if not args.map:
            raise ParseError("method length-two requires --map")
        dec = qubitmaps.length_two_decomposition(_load_map(args.map), rho)
    elif method == "ed-pair":
        dec = diagonal.ed_qubit_flat_pair(rho)
    else:  # spectral
        dec = states.spectral_ensemble(rho)
    err = dec.reconstruction_error(rho)
    print(serialize.dumps(serialize.decomposition_to_json(dec)), flush=True)
    print(
        f"{method}: {len(dec.weights)} members, reconstruction error {err:.3e}",
        file=sys.stderr,
    )
    return 0


def cmd_sweep_axial(args):
    rho = _load_state(args.state)
    if rho.shape != (2, 2):
        raise DimMismatch("sweep-axial needs a single-qubit state")
    n = args.beta_steps
    if n < 1:
        raise ParseError("--beta-steps must be at least 1")
    a, g = args.alpha, args.gamma
    bmax = qubitmaps.axial_beta_max(a, g)
    m = a + g - 1.0
    betas = np.linspace(0.0, bmax, n)
    out, close_me = _open_out(args.out)
    try:
        print("beta,w,concurrence,tangle,affine", file=out)
        for b in betas:
            T = qubitmaps.axial_map(a, b, g)
            sw = qubitmaps.subtraction_weight(T)
            c = float(np.sqrt(qubitmaps.concurrence_sq(T, rho, sw)))
            tau = qubitmaps.axial_tangle(a, b, g, rho)
            affine = int(abs(abs(b) - abs(m)) < 1e-9)
            print(
                f"{b:.12g},{sw.w:.12g},{c:.12g},{tau:.12g},{affine}",
                file=out,
            )
    finally:
        if close_me:
            out.close()
    print(f"sweep-axial: wrote {n} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_sweep_isotropic(args):
    d = args.dim
    n = args.steps
    if n < 1:
        raise ParseError("--steps must be at least 1")
    fmin = 1.0 / d if args.fidelity_min is None else args.fidelity_min
    fmax = args.fidelity_max
    obj = solver.diag_entropy_objective()
    out, close_me = _open_out(args.out)
    try:
        print("fidelity,x,roof,diag_entropy", file=out)
        for i, F in enumerate(np.linspace(fmin, fmax, n)):
            iso = diagonal.isotropic_state(d, float(F))
            seed = int(np.random.SeedSequence(args.seed, spawn_key=(i,)).generate_state(1)[0])
            cfg = solver.SolverConfig(
                members=args.members or 2 * d,
                restarts=args.restarts,
                max_iters=args.max_iters,
                seed=seed,
            )
            val = solver.minimize_roof(obj, iso.matrix, cfg).value
            print(
                f"{F:.12g},{iso.x:.12g},{val:.12g},{diagonal.diag_entropy(iso.matrix):.12g}",
                file=out,
            )
    finally:
        if close_me:
            out.close()
    print(f"sweep-isotropic: wrote {n} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_h0(args):
    cfg = solver.SolverConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    val, psi = diagonal.h0_min_entropy_experiment(args.dim, cfg)
    payload = {
        "dim": args.dim,
        "value": val,
        "log2": LN2,
        "excess": val - LN2,
        "state": serialize.complex_array_to_json(psi),
    }
    print(serialize.dumps(payload))
    return 0


def cmd_verify(args):
    names = list(verify.SUITE_ORDER) if args.suite == "all" else [args.suite]
    return verify.run_suites(names, args.trials, args.seed, stream=sys.stdout)


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="roofext",
        description="Convex/concave roof extensions over quantum states: "
        "closed forms, flat decompositions, and a numerical cross-check solver.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="compute one entanglement quantity for a state")
    m.add_argument("--state", required=True, help="density-matrix JSON file")
    m.add_argument("--map", default=None, help="stochastic-map JSON file")
    m.add_argument(
        "--quantity",
        required=True,
        choices=["concurrence", "tangle", "eof", "ed", "entropy-out"],
    )
    m.add_argument("--base", choices=["e", "2"], default="e",
                   help="logarithm base for entropic quantities")
    m.add_argument("--restarts", type=int, default=16)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_measure)

    s = sub.add_parser("solve", help="run the roof solver on an objective")
    s.add_argument("--state", required=True)
    s.add_argument(
        "--objective",
        required=True,
        choices=["theta-form", "sqrt-det-out", "det-out", "entropy-out", "diag-entropy"],
    )
    s.add_argument("--mode", choices=["min", "max"], default="min")
    s.add_argument("--theta", default=None, help="complex symmetric matrix JSON")
    s.add_argument("--map", default=None)
    _add_solver_flags(s)
    s.set_defaults(func=cmd_solve)

    d = sub.add_parser("decompose", help="emit an optimal pure-state decomposition")
    d.add_argument("--state", required=True)
    d.add_argument(
        "--method",
        required=True,
        choices=["flat-convex", "flat-concave", "length-two", "ed-pair", "spectral"],
    )
    d.add_argument("--theta", default=None)
    d.add_argument("--map", default=None)
    d.set_defaults(func=cmd_decompose)

    sa = sub.add_parser("sweep-axial", help="closed-form sweep over the axial beta range")
    sa.add_argument("--alpha", type=float, required=True)
    sa.add_argument("--gamma", type=float, required=True)
    sa.add_argument("--beta-steps", type=int, required=True)
    sa.add_argument("--state", required=True)
    sa.add_argument("--out", required=True, help="CSV path, or - for stdout")
    sa.set_defaults(func=cmd_sweep_axial)

    si = sub.add_parser("sweep-isotropic", help="solver sweep over isotropic fidelities")
    si.add_argument("--dim", type=int, default=3)
    si.add_argument("--steps", type=int, default=9)
    si.add_argument("--fidelity-min", type=float, default=None)
    si.add_argument("--fidelity-max", type=float, default=1.0)
    si.add_argument("--out", required=True)
    _add_solver_flags(si, restarts=8, max_iters=600)
    si.set_defaults(func=cmd_sweep_isotropic)

    v = sub.add_parser("verify", help="run the cross-module property suites")
    v.add_argument(
        "--suite",
        choices=["wootters", "subtraction", "diagonal", "bounds", "all"],
        default="all",
    )
    v.add_argument("--trials", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("h0-experiment", help="minimal diagonal entropy on the zero-sum subspace")
    h.add_argument("--dim", type=int, default=3)
    h.add_argument("--restarts", type=int, default=64)
    h.add_argument("--max-iters", type=int, default=1500)
    h.add_argument("--seed", type=int, default=0)
    h.set_defaults(func=cmd_h0)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DimMismatch, ShapeMismatch) as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return 3
    except RoofextError as exc:
        print(f"invariant violation ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
