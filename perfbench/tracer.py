"""Per-layer tracing of roofext from outside the program.

While installed, a Tracer replaces every public function of the layer
modules (states, antilinear, qubitmaps, measures, solver, diagonal) at each
module binding that refers to it, and the numpy.linalg entry points the
package uses, with wrappers that record a span per call.  Spans nest: a
span's self time is its duration minus the time of the spans it caused.
Spans are kept in memory and written out when the benchmark ends.

Three wrappers do more than time a call:

* ``stiefel_descend`` (bound in both ``solver`` and ``diagonal``) also wraps
  the ``value_fn`` and ``grad_fn`` it receives, counts iterations, accepted
  Armijo steps against trial evaluations, and hands each restart's final
  value to the enclosing solve;
* ``minimize_roof`` and ``h0_min_entropy_experiment`` are solves: when one
  ends, its restarts that finished within RESTART_HIT_TOL of the best count
  as hits;
* objective factories return a RoofObjective whose ``batch`` counts the
  member columns it evaluates.

Calls made outside an operation span (input building, checks) pass through
untraced.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

import numpy as np

LAYERS = ("states", "antilinear", "qubitmaps", "measures", "solver", "diagonal")
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")
LINALG = EIGENSOLVERS + ("qr", "det")
SOLVES = ("solver.minimize_roof", "diagonal.h0_min_entropy_experiment")
OBJECTIVE_FACTORIES = (
    "theta_form_objective",
    "sqrt_det_output_objective",
    "det_output_objective",
    "output_entropy_objective",
    "diag_entropy_objective",
)
RESTART_HIT_TOL = 1e-6  # relative to max(1, |best|)


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "start", "child", "eig", "restarts")

    def __init__(self, name, span_id, parent_id, start):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child = 0.0
        self.eig = 0
        self.restarts = None


class Tracer:
    def __init__(self, rx):
        self.rx = rx
        self.modules = [rx] + [getattr(rx, name) for name in LAYERS]
        self.stack = []
        self.record_spans = True
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.next_id = 0
        self.ops = 0
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.incl_eig = {}
        self.counters = dict.fromkeys(
            ("iterations", "armijo_accepted", "armijo_trials", "objective_columns",
             "restarts", "restart_hits"), 0)
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else None
        self.next_id += 1
        frame = _Frame(name, self.next_id, parent.span_id if parent else 0, time.perf_counter())
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child
        self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        self.incl_eig[name] = self.incl_eig.get(name, 0) + frame.eig
        if self.stack:
            self.stack[-1].child += dur
        if self.record_spans:
            self.spans.append((frame.span_id, frame.parent_id, name, frame.start, end))

    def op(self, name, call, out):
        """Run one benchmark operation as a root span."""
        frame = self._enter("op:" + name)
        try:
            return call(out)
        finally:
            self._exit(frame)
            self.ops += 1

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            return result

        return wrapper

    # -- special wrappers -------------------------------------------------

    def _eigensolver(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            for f in tracer.stack:
                f.eig += 1
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _solve(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            frame.restarts = []
            try:
                return fn(*args, **kwargs)
            finally:
                finals = frame.restarts
                if finals:
                    best = min(finals)
                    tol = RESTART_HIT_TOL * max(1.0, abs(best))
                    tracer.counters["restarts"] += len(finals)
                    tracer.counters["restart_hits"] += sum(1 for f in finals if f <= best + tol)
                tracer._exit(frame)

        return wrapper

    def _descend(self, fn):
        tracer = self
        value_span = self._span("solver.value_fn", lambda f, V: f(V))
        grad_span = self._span("solver.grad_fn", lambda g, V: g(V))

        @functools.wraps(fn)
        def wrapper(value_fn, grad_fn, V0, *args, **kwargs):
            if not tracer.stack:
                return fn(value_fn, grad_fn, V0, *args, **kwargs)
            # events: the value_fn calls made since the latest grad_fn call
            state = {"grads": 0, "values": 0, "group": 0, "last_arg": None}

            def traced_value(V):
                state["values"] += 1
                state["group"] += 1
                state["last_arg"] = V
                return value_span(value_fn, V)

            def traced_grad(V):
                state["grads"] += 1
                state["group"] = 0
                return grad_span(grad_fn, V)

            frame = tracer._enter("solver.stiefel_descend")
            try:
                V, F, its, converged = fn(traced_value, traced_grad, V0, *args, **kwargs)
            finally:
                tracer._exit(frame)
            # Every grad_fn call after the first follows an accepted step; the
            # last iteration accepted iff the returned V is its last trial point.
            final_accepted = state["group"] > 0 and V is state["last_arg"]
            c = tracer.counters
            c["iterations"] += its
            c["armijo_trials"] += max(0, state["values"] - 1)
            c["armijo_accepted"] += max(0, state["grads"] - 1) + int(final_accepted)
            for f in reversed(tracer.stack):
                if f.restarts is not None:
                    f.restarts.append(float(F))
                    break
            return V, F, its, converged

        return wrapper

    def _objective_factory(self, fn):
        tracer = self
        RoofObjective = self.rx.RoofObjective

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            obj = fn(*args, **kwargs)
            batch = obj.batch

            def counted(Z):
                if tracer.stack:
                    tracer.counters["objective_columns"] += int(np.shape(Z)[1])
                return batch(Z)

            return RoofObjective(obj.name, counted)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _wrapper_for(self, layer, name, fn):
        qual = f"{layer}.{name}"
        if name == "stiefel_descend":
            return self._descend(fn)
        if name in OBJECTIVE_FACTORIES:
            return self._span(qual, self._objective_factory(fn))
        if qual in SOLVES:
            return self._solve(qual, fn)
        return self._span(qual, fn)

    def install(self):
        originals = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = getattr(self.rx, layer)
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    originals[id(fn)] = self._wrapper_for(layer, name, fn)
        for module in self.modules:
            for name, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)
        for name in LINALG:
            fn = getattr(np.linalg, name)
            wrap = self._eigensolver if name in EIGENSOLVERS else self._span
            self._patches.append((np.linalg, name, fn))
            setattr(np.linalg, name, wrap("linalg." + name, fn))

    def uninstall(self):
        for module, name, value in reversed(self._patches):
            setattr(module, name, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def per_op(self):
        """Per-layer metrics, each per operation (one solve per operation on `solver`)."""
        n = max(self.ops, 1)
        calls = lambda k: self.calls.get(k, 0) / n  # noqa: E731
        self_us = lambda k: self.self_s.get(k, 0.0) / n * 1e6  # noqa: E731
        incl_ms = lambda k: self.incl_s.get(k, 0.0) / n * 1e3  # noqa: E731
        eig = lambda k: self.incl_eig.get(k, 0) / n  # noqa: E731
        c = self.counters
        m = {
            "states.validate_density.calls": calls("states.validate_density"),
            "states.validate_density.self_us": self_us("states.validate_density"),
            "states.psd_sqrt.self_us": self_us("states.psd_sqrt"),
            "states.spectral_decomposition.calls": calls("states.spectral_decomposition"),
            "states.state_rank.calls": calls("states.state_rank"),
            "linalg.eigensolves": sum(calls("linalg." + k) for k in EIGENSOLVERS),
            "linalg.self_us": sum(self_us("linalg." + k) for k in LINALG),
            "antilinear.lambda_spectrum.self_us": self_us("antilinear.lambda_spectrum"),
            "antilinear.takagi.self_us": self_us("antilinear.takagi"),
            "antilinear.flat_optimal_decomposition.self_us": self_us("antilinear.flat_optimal_decomposition"),
            "measures.concurrence_2qubit.self_us": self_us("measures.concurrence_2qubit"),
            "measures.map_concurrence.self_us": self_us("measures.map_concurrence"),
            "qubitmaps.subtraction_weight.self_us": self_us("qubitmaps.subtraction_weight"),
            "qubitmaps.subtraction_weight.eigensolves": eig("qubitmaps.subtraction_weight"),
            "qubitmaps.kraus_map.self_us": self_us("qubitmaps.kraus_map"),
            "qubitmaps.kraus_map.eigensolves": eig("qubitmaps.kraus_map"),
            "qubitmaps.length_two_decomposition.self_us": self_us("qubitmaps.length_two_decomposition"),
            "solver.minimize_roof.ms": incl_ms("solver.minimize_roof"),
            "solver.stiefel_descend.calls": calls("solver.stiefel_descend"),
            "solver.iterations": c["iterations"] / n,
            "solver.value_fn.calls": calls("solver.value_fn"),
            "solver.value_fn.self_us": self_us("solver.value_fn"),
            "solver.grad_fn.calls": calls("solver.grad_fn"),
            "solver.grad_fn.self_us": self_us("solver.grad_fn"),
            "solver.objective.columns": c["objective_columns"] / n,
            "solver.stiefel_retract.calls": calls("solver.stiefel_retract"),
            "solver.stiefel_retract.self_us": self_us("solver.stiefel_retract"),
            "solver.armijo_accept_ratio": c["armijo_accepted"] / max(c["armijo_trials"], 1),
            "solver.armijo_trials": c["armijo_trials"] / n,
            "solver.restart_hit_ratio": c["restart_hits"] / max(c["restarts"], 1),
            "solver.restarts": c["restarts"] / n,
            "diagonal.h0_min_entropy_experiment.ms": incl_ms("diagonal.h0_min_entropy_experiment"),
            "diagonal.ed_qubit_flat_pair.self_us": self_us("diagonal.ed_qubit_flat_pair"),
        }
        return m

    def write(self, path_stem, extra):
        """Write the spans (gzipped JSON lines) and the raw counts (JSON)."""
        with gzip.open(f"{path_stem}.spans.jsonl.gz", "wt") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")
        counts = {
            "ops": self.ops,
            "calls": self.calls,
            "self_s": self.self_s,
            "inclusive_s": self.incl_s,
            "inclusive_eigensolves": self.incl_eig,
            "counters": self.counters,
        }
        counts.update(extra)
        with open(f"{path_stem}.counts.json", "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)

