"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-walks --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file (or of ``--root``).  With ``--trace 0`` the result
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The
last line of stdout is the result object; the line before it is a JSON
record of the machine, the seed and the correctness details.  Traced runs
also write their spans under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# timed set-ups per run, setup_s is their median: at least SETUPS, and
# more while they have taken less than SETUP_SECONDS in all
SETUPS = 5
SETUP_SECONDS = 2.0
SETUPS_MAX = 50


def quantile(values, q):
    """Nearest-rank quantile."""
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def machine_info(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def set_up(workload, root, seed):
    # one untimed import first, so that reading the bytecode from disk and a
    # cold start of the process do not count as set-up
    workloads.load_program(root)
    times, state = [], None
    while len(times) < SETUPS or (sum(times) < SETUP_SECONDS and len(times) < SETUPS_MAX):
        t0 = time.perf_counter()
        state = workload.setup(root, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times), state


def untraced(workload, state, seconds):
    """Whole passes over the units until the next one would end past
    ``seconds``; at least one."""
    iterations, verdicts = [], []
    t0 = time.perf_counter()
    while True:
        state = workload.reload(state)
        it = workload.run(state)
        verdicts.append(workload.check(state, it))
        it.outputs = None  # so that memory does not grow with the iterations
        iterations.append(it)
        elapsed = time.perf_counter() - t0
        if elapsed + it.wall_s > seconds:
            return iterations, verdicts


def best_unit_s(iterations):
    """Each unit's time: its fastest pass.  The host is shared, and other
    tenants slow the core down by up to 2x, with fast and slow stretches
    that alternate within a second; the fastest of 10 to 20 passes spread
    over the run comes close to the time on a quiet core (see README.md)."""
    return [min(times) for times in zip(*(it.unit_s for it in iterations))]


def end_to_end(setup_s, iterations, verdict):
    best = best_unit_s(iterations)
    ops = [t * 1000 for t in best]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_p99_ms": (quantile(ops, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((verdict.attempted - verdict.failed) / verdict.attempted, "ratio"),
    }


def traced_pass(workload, state):
    """One pass with a fresh tracer installed."""
    tracer = tracing.Tracer()
    tracer.install(state.program)
    try:
        it = workload.run(state, mark=lambda request: setattr(tracer, "request", request))
    finally:
        tracer.uninstall()
    return tracer, it


def per_layer(workload, state, seconds, out_path):
    """Untraced and traced passes in turn on the same inputs, at least one
    of each, until the next pair would end past ``seconds``.  The layer
    metrics come from the fastest traced pass; the tracing overhead
    compares per-unit fastest times of both kinds, as ``wall_s`` does, and
    reads below zero when it is smaller than the host's noise."""
    plain, traced, verdicts = [], [], []
    tracer = None
    t0 = time.perf_counter()
    while True:
        state = workload.reload(state)
        it = workload.run(state)
        verdicts.append(workload.check(state, it))
        it.outputs = None
        plain.append(it)
        state = workload.reload(state)
        this, it = traced_pass(workload, state)
        verdicts.append(workload.check(state, it))
        it.outputs = None
        if tracer is None or it.wall_s < min(t.wall_s for t in traced):
            tracer = this
        traced.append(it)
        elapsed = time.perf_counter() - t0
        if elapsed + plain[-1].wall_s + traced[-1].wall_s > seconds:
            break
    layers = tracer.layer_totals()
    metrics = {}
    for name, _ in tracing.SPANS:
        calls, _, own = layers[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (own, "s")
    for name, _ in tracing.COUNTED:
        metrics[f"{name}.calls"] = (tracer.counts[name], "count")
    flips = layers["disk.flip"][0] + layers["annulus.flip"][0]
    metrics["faces.rebuilds_per_flip"] = (
        layers["faces.split_regions"][0] / flips if flips else 0.0, "ratio")
    _, graph_s, _ = layers["disk.flip_graph"]
    metrics["disk.flip_graph.nodes_per_s"] = (
        tracer.counts["disk.flip_graph.nodes"] / graph_s if graph_s else 0.0, "1/s")
    metrics["annulus.flip.unsupported"] = (
        tracer.errors["annulus.flip", "UnsupportedFlip"], "count")
    steps = tracer.counts["verify.random_walk.steps"]
    metrics["verify.random_walk.steps"] = (steps, "count")
    metrics["verify.random_walk.self_s"] = (layers["verify.random_walk"][2], "s")
    metrics["verify.random_walk.flips_per_step"] = (
        tracer.flips_under("verify.random_walk") / steps if steps else 0.0, "ratio")
    metrics["verify.cases"] = (sum(verdicts[0].info.get("cases", {}).values()), "count")
    traced_s, plain_s = sum(best_unit_s(traced)), sum(best_unit_s(plain))
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (len(tracer.starts), "count")
    tracer.write(out_path)
    if tracer.unhooked:
        print("perfbench: not traced, the program has no " + ", ".join(tracer.unhooked),
              file=sys.stderr)
    return metrics, verdicts, {"unhooked": tracer.unhooked}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run, not a measurement")
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout whose src/ is benchmarked")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, tiny=args.size == "tiny")
    try:
        setup_s, setups, state = set_up(workload, args.root, args.seed)
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        out = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        metrics, verdicts, extra = per_layer(workload, state, args.seconds, out)
    else:
        iterations, verdicts = untraced(workload, state, args.seconds)
        metrics = end_to_end(setup_s, iterations, verdicts[0])
        extra = {"op_samples": len(iterations[0].unit_s),
                 "pass_wall_s": [it.wall_s for it in iterations]}

    # Every pass makes the same operations, so a run's counts are those of
    # one pass and do not depend on how many passes fit in --seconds.
    # Passes that disagree make the run incorrect.
    checks = {json.dumps((v.attempted, v.failed, v.info), sort_keys=True): v
              for v in verdicts}
    first = verdicts[0]
    info = dict(machine_info(args),
                setups=setups,
                passes=len(verdicts),
                fail_ratio={"failed": first.failed, "attempted": first.attempted,
                            "value": first.failed / first.attempted},
                **extra,
                checks=[v.info for v in checks.values()])
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": all(v.correct for v in verdicts) and len(checks) == 1,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
