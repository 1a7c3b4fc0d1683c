"""roofext benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` next to this directory; the benchmark
refuses to run (exit code 2, no result line) when that source tree is not
there.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
and the spans and raw counts are written under ``perfbench/out/``.

The loop is closed: one process calls one operation after another.  Each
operation is timed alone; its output is checked after the timer stops.
"""

from __future__ import annotations

import argparse
import array
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
# Warm-up blocks run (and checked) before timing starts; a solver block takes
# seconds, and its first-call costs are negligible next to that.
WARMUP_BLOCKS = {"closed-form": 1, "channel": 1, "solver": 0}
# Tail percentile per workload, printed on a `#` line and not gated: its
# ten-run spread reached 0.23 of the median, as the highest percentiles land
# in the host's slowest phase.  Each level is the highest of 99.9/99/95/90/80
# that leaves at least ten samples beyond it in every 35 s run when the
# benchmark was written (closed-form ~80,000 ops, channel ~10,000, solver
# 108-162), fixed so that a faster program is compared at the same level.
TAIL_PERCENTILE = {"closed-form": 99.9, "channel": 99.0, "solver": 80.0}
# Blocks a traced pass walks.  Every traced pass covers the same blocks, so
# per-operation counts do not depend on how many passes fit in the run.
TRACE_BLOCKS = {"closed-form": 16, "channel": 8, "solver": 1}


def import_roofext():
    if not (SRC / "roofext" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no roofext source tree at {SRC}; run from a repository checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import roofext

    return roofext


class Outcome:
    """Latencies and attempt/failure counts of the ops run so far, and failed checks."""

    def __init__(self):
        self.latencies = array.array("d")  # 8 bytes an op, so peak RSS barely grows with the op count
        self.block_ends = []  # len(latencies) at the end of each block
        self.attempted = 0
        self.failed = 0
        self.raised = []  # messages of ops that raised (counted in `failed`)
        self.check_errors = []  # messages of outputs that failed a check
        self.gaps = {}  # case kind -> largest solver-to-closed-form gap

    def merge(self, other):
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.raised += other.raised
        self.check_errors += other.check_errors
        for kind, gap in other.gaps.items():
            self.note_gap(kind, gap)

    def note_gap(self, kind, gap):
        self.gaps[kind] = max(gap, self.gaps.get(kind, float("-inf")))

    def gap_line(self):
        return ", ".join(f"{kind} {gap:.2e}" for kind, gap in sorted(self.gaps.items()))


def run_case(case, outcome, op_runner):
    """Run a case's operations (each timed alone), then its check (untimed)."""
    out = {}
    steps = case.steps
    for i, step in enumerate(steps):
        if step.when is not None and not step.when(out):
            continue
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            out[step.name] = op_runner(step, out)
        except Exception:  # an op that raises is a failed op; the rest of the case cannot run
            outcome.latencies.append(time.perf_counter() - t0)
            skipped = sum(1 for s in steps[i + 1 :] if s.when is None)
            outcome.attempted += skipped
            outcome.failed += 1 + skipped
            outcome.raised.append(f"{case.kind} / {step.name} raised:\n{traceback.format_exc()}")
            return
        outcome.latencies.append(time.perf_counter() - t0)
    outcome.check_errors += [f"{case.kind}: {message}" for message in case.check(out)]
    if case.gap is not None:
        outcome.note_gap(case.kind, case.gap(out))


def plain(step, out):
    return step.call(out)


def run_blocks(blocks, outcome, seconds=None, max_blocks=None, op_runner=plain):
    """Run whole blocks from block 0 on, cycling through the pool.

    Stops after `max_blocks` blocks, or at the end of the first block that
    finishes after `seconds` of wall time.
    """
    t_start = time.perf_counter()
    done = 0
    while True:
        for case in blocks[done % len(blocks)]:
            run_case(case, outcome, op_runner)
        outcome.block_ends.append(len(outcome.latencies))
        done += 1
        if max_blocks is not None and done >= max_blocks:
            return done
        if seconds is not None and time.perf_counter() - t_start >= seconds:
            return done


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import roofext and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(rx, args):
    blocks = workloads.build(rx, args.workload, args.seed)
    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    warm = Outcome()
    if WARMUP_BLOCKS[args.workload]:
        run_blocks(blocks, warm, max_blocks=WARMUP_BLOCKS[args.workload])
    outcome = Outcome()
    n_blocks = run_blocks(blocks, outcome, args.seconds)
    outcome.check_errors += warm.check_errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = np.frombuffer(outcome.latencies)
    level = TAIL_PERCENTILE[args.workload]
    tail = np.percentile(lat, level)
    # The host's speed swings by up to 1.5x in phases of seconds.  The median of
    # all ops jumps between the fast and slow phase as their mix changes; the
    # median within each block (all in one phase unless it is a solver block),
    # averaged over blocks, follows the mix smoothly, like ops_per_s.
    p50 = np.mean([np.median(b) for b in np.split(lat, outcome.block_ends[:-1])])
    print(f"# workload={args.workload} seed={args.seed} blocks={n_blocks} ops={lat.size} "
          f"setup probes (s)={[round(t, 4) for t in setup_samples]}")
    print(f"# tail: p{level:g} = {tail * 1e3:.4f} ms over {lat.size} op samples, {int(np.sum(lat > tail))} beyond it")
    if outcome.gaps:
        print(f"# largest solver-to-closed-form gap per case: {outcome.gap_line()}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric((outcome.attempted - outcome.failed) / lat.sum(), "1/s"),
        "op_p50_ms": metric(p50 * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return outcome, metrics


def per_layer(rx, args):
    """Alternate untraced and traced passes over the same blocks until the time is up."""
    blocks = workloads.build(rx, args.workload, args.seed)
    n = TRACE_BLOCKS[args.workload]
    spans = tracer.Tracer(rx)
    untraced, traced = Outcome(), Outcome()
    t_start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t_start < args.seconds:
        run_blocks(blocks, untraced, max_blocks=n)
        spans.record_spans = passes == 0
        spans.install()
        try:
            run_blocks(blocks, traced, max_blocks=n,
                       op_runner=lambda step, out: spans.op(step.name, step.call, out))
        finally:
            spans.uninstall()
        passes += 1
    rate = lambda o: (o.attempted - o.failed) / sum(o.latencies)  # noqa: E731
    r_plain, r_traced = rate(untraced), rate(traced)
    overhead_pct = 100.0 * (r_plain - r_traced) / r_plain
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    spans.write(str(stem), {"workload": args.workload, "seed": args.seed, "passes": passes,
                             "blocks_per_pass": n, "ops_per_s_untraced": r_plain,
                             "ops_per_s_traced": r_traced})
    print(f"# workload={args.workload} seed={args.seed} passes={passes} blocks/pass={n} "
          f"ops/s untraced={r_plain:.2f} traced={r_traced:.2f}; spans and counts in {stem}.*")
    if traced.gaps:
        print(f"# largest solver-to-closed-form gap per case: {traced.gap_line()}")
    units = {"calls": "count", "self_us": "us", "ms": "ms", "eigensolves": "count",
             "columns": "count", "iterations": "count", "armijo_trials": "count",
             "restarts": "count", "armijo_accept_ratio": "ratio", "restart_hit_ratio": "ratio"}
    metrics = {name: metric(value, units[name.rsplit(".", 1)[1]])
               for name, value in spans.per_op().items()}
    metrics["trace.overhead_pct"] = metric(overhead_pct, "%")
    untraced.merge(traced)
    return untraced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rx = import_roofext()
    if args.setup_probe:
        workloads.build(rx, args.workload, args.seed)
        return 0
    outcome, metrics = (per_layer if args.trace else end_to_end)(rx, args)
    for message in outcome.raised[:10] + outcome.check_errors[:20]:
        sys.stderr.write(f"perfbench: {message}\n")
    result = {
        "correct": not outcome.check_errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
