"""Closed-loop runner, metrics and report of the benchmark; see README.md."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

import pipeline
from minpower import exact as mp_exact
from minpower import greedy as mp_greedy
from minpower import instances as mp_instances
from minpower import lpbound as mp_lpbound
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The shared machine the bounds were set on ran the same work 15-60% slower
# in episodes lasting from one pass to several minutes.  A fixed arithmetic
# loop (the ruler) timed at every pass boundary slows down with it, so times
# are reported as if the ruler's fastest sample in the run had taken
# RULER_NOMINAL_S; over ten runs per workload that cut the spread of
# throughput from 0.16-0.32 to 0.08-0.23.  Unscaled figures are printed too.
RULER_ITERATIONS = 400_000
RULER_SAMPLES = 3  # at each pass boundary
RULER_NOMINAL_S = 0.032

# self-time layers, in report order; lpbound.master is lp_lower_bound's self time
SELF_LAYERS = {
    "instances.gen_s": "instances.gen",
    "graph.mst_s": "graph.mst",
    "greedy.solve_s": "greedy.solve",
    "greedy.select_s": "greedy.select",
    "stars.gain_s": "stars.gain",
    "stars.apply_s": "stars.apply",
    "greedy.certify_s": "greedy.certify",
    "exact.search_s": "exact.search",
    "lpbound.master_s": "lpbound.total",
    "lpbound.separation_s": "lpbound.separation",
    "stars.enumerate_s": "stars.enumerate",
}
# inclusive times: the whole call, children included
TOTAL_LAYERS = {"exact.incumbent_s": "exact.incumbent", "lpbound.total_s": "lpbound.total"}
COUNTERS = (
    "greedy.iterations",
    "greedy.select_calls",
    "exact.nodes",
    "lpbound.rounds",
    "lpbound.constraints",
    "stars.count",
)


@dataclass
class Pass:
    """One pass of a workload: its instances solved and checked in order."""

    records: list[pipeline.Record] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)  # per instance, generate through check
    failures: list[tuple[str, str]] = field(default_factory=list)
    failed: int = 0  # instances with at least one failure
    counters: Counter[str] = field(default_factory=Counter)
    wall: float = 0.0


def ruler_seconds() -> float:
    """Time of a fixed arithmetic loop that creates no object the garbage
    collector tracks: how fast the machine runs Python right now, independent
    of the program under test and of the heap it left behind."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(RULER_ITERATIONS):
        acc += (i % 7) * 0.5
    return perf_counter() - t0


def run_pass(workload: pipeline.Workload, tracer: Tracer | None = None) -> Pass:
    out = Pass()
    before = Counter(tracer.counters) if tracer else Counter()
    start = perf_counter()
    for spec in workload.instances:
        t0 = perf_counter()
        rec = pipeline.solve_instance(spec, workload.exact, workload.lp)
        bad = pipeline.check(rec)
        out.seconds.append(perf_counter() - t0)
        out.records.append(rec)
        out.failures.extend((rec.label, reason) for reason in bad)
        out.failed += bool(bad)
    out.wall = perf_counter() - start
    for rec in out.records:
        out.counters["greedy.iterations"] += len(rec.trace)
        out.counters["exact.nodes"] += rec.exact_nodes
        out.counters["lpbound.rounds"] += rec.lp_rounds
        out.counters["lpbound.constraints"] += rec.lp_constraints
    if tracer:
        for name in ("greedy.select_calls", "stars.count"):
            out.counters[name] = tracer.counters[name] - before[name]
    return out


def closed_loop(workload: pipeline.Workload, seconds: float) -> tuple[list[Pass], list[float]]:
    """Solve pass after pass; stop at the pass boundary nearest ``seconds``.

    Whole passes keep the instance mix of every run the same.  Returns the
    passes and the ruler samples taken at every pass boundary.
    """
    done: list[Pass] = []
    rulers = [ruler_seconds() for _ in range(RULER_SAMPLES)]
    elapsed = 0.0
    while not done or elapsed + elapsed / len(done) / 2 < seconds:
        done.append(run_pass(workload))
        rulers.extend(ruler_seconds() for _ in range(RULER_SAMPLES))
        elapsed += done[-1].wall
    return done, rulers


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry points where their callers look them up."""
    tracer.wrap(pipeline, "solve_instance", "instance", root=True)
    tracer.wrap(mp_instances, "gen_line", "instances.gen")
    tracer.wrap(mp_instances, "gen_random_geometric", "instances.gen")
    tracer.wrap(pipeline, "mst_baseline", "graph.mst")
    tracer.wrap(mp_greedy, "greedy_solve", "greedy.solve")
    tracer.wrap(mp_greedy, "certify", "greedy.certify")
    tracer.wrap(mp_greedy, "select_best_star", "greedy.select",
                lambda _: {"greedy.select_calls": 1})
    tracer.wrap(mp_greedy, "marginal_gain", "stars.gain")
    tracer.wrap(mp_greedy, "apply_star", "stars.apply")
    tracer.wrap(mp_exact, "exact_optimum", "exact.search")
    tracer.wrap(mp_exact, "greedy_solve", "exact.incumbent")
    tracer.wrap(mp_lpbound, "lp_lower_bound", "lpbound.total")
    tracer.wrap(mp_lpbound, "most_violated_cut", "lpbound.separation")
    tracer.wrap(mp_lpbound, "enumerate_stars", "stars.enumerate",
                lambda stars: {"stars.count": len(stars)})


def measure_setup(name: str, seed: int, samples: int) -> list[float]:
    """Seconds from spawning a fresh process until it has imported everything
    and solved its warm-up instance, i.e. until it could time an instance.

    The child prints its perf_counter() when ready; that clock is the
    system-wide monotonic clock, so the parent can subtract its own reading.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(child.stdout.split()[-1]) - t0)
    return times


def warm_up(workload: pipeline.Workload) -> None:
    rec = pipeline.solve_instance(workload.warmup, workload.exact, workload.lp)
    bad = pipeline.check(rec)
    if bad:
        raise RuntimeError(f"warm-up instance {rec.label} failed: {bad}")


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def best_times(passes: list[Pass]) -> list[float]:
    """Each instance's fastest wall time over the run's passes.

    The slow episodes only ever slow work down, so the fastest repeat is the
    least disturbed measurement of the same work.
    """
    return [min(ts) for ts in zip(*(p.seconds for p in passes))]


def wall_figures(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    best = best_times(passes)
    return {
        "setup_s": statistics.median(setup),
        "instances_per_s": len(best) / sum(best),
        "instance_s.p50": statistics.median(best),
    }


def end_to_end(wall: dict[str, float], scale: float) -> dict[str, dict[str, object]]:
    return {
        "setup_s": _metric(wall["setup_s"] * scale, "s"),
        "instances_per_s": _metric(wall["instances_per_s"] / scale, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain: list[Pass], traced: list[Pass], tracer: Tracer) -> dict[str, dict[str, object]]:
    count = sum(len(p.records) for p in traced)
    inclusive, own = tracer.times()
    metrics = {name: _metric(own.get(span, 0.0) / count, "s") for name, span in SELF_LAYERS.items()}
    metrics.update(
        {name: _metric(inclusive.get(span, 0.0) / count, "s") for name, span in TOTAL_LAYERS.items()}
    )
    totals = sum((p.counters for p in traced), Counter())
    metrics.update({name: _metric(totals[name] / count, "count") for name in COUNTERS})
    search = own.get("exact.search", 0.0)
    metrics["exact.nodes_per_s"] = _metric(totals["exact.nodes"] / search if search else 0.0, "1/s")
    # fastest repeats on both sides: the first pass of a run is often slower
    overhead = sum(best_times(traced)) / sum(best_times(plain)) - 1.0
    metrics["trace_overhead_frac"] = _metric(overhead, "frac")
    return metrics


def pass_line(index: int, p: Pass) -> str:
    counts = " ".join(f"{name}={p.counters[name]}" for name in COUNTERS if name in p.counters)
    return (f"pass {index} instances={len(p.records)} wall_s={p.wall:.3f} "
            f"digest={pipeline.digest(p.records)} {counts}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Certified-solve throughput benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm up once, then exit (one set-up sample)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = pipeline.WORKLOADS[args.workload]
    if args.setup_only:
        warm_up(workload)
        print(repr(perf_counter()))
        return 0

    print("env " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }, sort_keys=True))
    setup = [] if args.trace else measure_setup(workload.name, args.seed, SETUP_SAMPLES)
    warm_up(workload)
    if args.trace:
        passes, metrics = traced_run(workload, args.seconds, args.seed)
    else:
        passes, rulers = closed_loop(workload, args.seconds)
        scale = RULER_NOMINAL_S / min(rulers)  # > 1 when the machine runs faster than nominal
        wall = wall_figures(passes, setup)
        metrics = end_to_end(wall, scale)
        print("setup_samples_s " + " ".join(f"{t:.4f}" for t in setup))
        print(f"ruler fastest {min(rulers):.5f} s of {len(rulers)} samples "
              f"(nominal {RULER_NOMINAL_S} s), slowest {max(rulers):.5f} s")
        print("wall clock, unscaled: " + " ".join(f"{name} {value!r}" for name, value in wall.items()))
        # one instance's time, so the least steady figure: printed, not a metric
        print(f"instance_s.p50 {wall['instance_s.p50'] * scale!r} s, scaled "
              f"(median of {len(workload.instances)} instances' fastest times)")
    return report(passes, metrics)


def traced_run(workload: pipeline.Workload, seconds: float,
               seed: int) -> tuple[list[Pass], dict[str, dict[str, object]]]:
    # as many traced passes as untraced ones, so comparing the two halves
    # gives the tracing overhead
    plain, _ = closed_loop(workload, seconds / 2)
    tracer = Tracer()
    install_spans(tracer)
    try:
        traced = [run_pass(workload, tracer) for _ in plain]
    finally:
        tracer.unwrap()
    metrics = per_layer(plain, traced, tracer)

    path = HERE / "out" / f"spans-{workload.name}-{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    tracer.write(str(path))
    print(f"spans {len(tracer.spans)} written to {path.relative_to(HERE.parent)}")
    inclusive, _ = tracer.times()
    count = sum(len(p.records) for p in traced)
    shares = sorted(((metrics[name]["value"] * count / inclusive["instance"], name)
                     for name in SELF_LAYERS), reverse=True)
    print("self-time shares " + " ".join(f"{name}={share:.3f}" for share, name in shares))
    print(f"dominant layer {shares[0][1]}")
    return plain + traced, metrics


def report(passes: list[Pass], metrics: dict[str, dict[str, object]]) -> int:
    """Print the evidence lines, the metrics and the final JSON line."""
    for i, p in enumerate(passes, 1):
        print(pass_line(i, p))
    run_digest = hashlib.sha256(" ".join(pipeline.digest(p.records) for p in passes).encode())
    print(f"digest {run_digest.hexdigest()[:16]} over {len(passes)} passes")
    totals = sum((p.counters for p in passes), Counter())
    print("counters " + json.dumps(dict(sorted(totals.items()))))

    times = [t for p in passes for t in p.seconds]
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed for p in passes)
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}")
    print(f"failed_frac {failed / len(times)!r} frac ({failed} of {len(times)} instances)")
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 2 else math.inf
    above = sum(t > p90 for t in times)
    if above >= 10:
        print(f"instance_s.p90 {p90!r} s, wall clock ({above} of {len(times)} samples above)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1
