"""spikedho benchmark: run one seeded workload through the library in a
closed loop (one query at a time) and report end-to-end metrics, or, with
--trace 1, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one after another

The workload's query set is run in whole passes until --seconds have gone,
and at least until the workload's tail percentile has ten samples beyond
it.  Every query's result is checked.  Human-readable lines (run details,
per-query verdicts, every metric with its unit and sample count) come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record is written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: the run is a single process, and one thread keeps the
# eigensolve steady on a shared machine and comparable across core counts.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("fixtures", "general_alpha", "bounds_sweep")
SETUP_PROBES = 15
MIN_PASSES = 3

clock = time.perf_counter


def _prepare_environment():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "spikedho" / "__init__.py").is_file():
        sys.exit("perfbench: no spikedho sources under %s" % SRC)
    sys.path.insert(0, str(SRC))


def _setup_probe():
    """Time import of spikedho plus first-call lazy set-up in this fresh
    process and print the seconds."""
    t0 = clock()
    import workloads
    workloads.warm_up()
    print(repr(clock() - t0))


def measure_setup():
    """Median and samples of SETUP_PROBES fresh-process set-ups."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_pass(workload, queries, outcomes, latencies, tracer=None):
    """One closed-loop pass over the queries; returns its wall time."""
    start = clock()
    for qid, query in enumerate(queries):
        if tracer is not None:
            tracer.query_id = qid
        t0 = clock()
        verdict = workload.run(query)
        latencies.append(clock() - t0)
        outcomes.append((qid, verdict))
    return clock() - start


def slowest_repetitions(latencies, n_queries):
    """Each query's slowest latency across the passes; every pass issues
    the same queries in the same order.  A shared host switches between
    two speeds about 1.6x apart for seconds at a time, and the share of a
    run spent at each varies from run to run, so a per-query median or
    mean follows that share.  Nearly every query meets the slower speed in
    some pass, so its slowest repetition is the latency at that speed."""
    return [max(latencies[q::n_queries]) for q in range(n_queries)]


def percentile(samples, pct):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def measure(workload, queries, seconds, min_passes=MIN_PASSES):
    """Untraced passes until `seconds` are used up (a pass is not started
    when the median pass would overrun) and the minimum sample counts are
    met.  Returns (pass walls, query latencies, outcomes)."""
    walls, latencies, outcomes = [], [], []
    start = clock()
    while True:
        walls.append(run_pass(workload, queries, outcomes, latencies))
        enough = (len(walls) >= min_passes
                  and len(latencies) >= workload.min_queries)
        if enough and clock() - start + statistics.median(walls) > seconds:
            return walls, latencies, outcomes


def measure_traced(workload, queries, seconds):
    """Alternate untraced and traced passes until `seconds` are used up.
    Returns (untraced walls, traced walls, tracers, outcomes)."""
    from tracing import Tracer
    plain, traced, tracers, outcomes = [], [], [], []
    start = clock()
    while True:
        plain.append(run_pass(workload, queries, outcomes, []))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(workload, queries, outcomes, [], tracer))
        tracers.append(tracer)
        pair = statistics.median(plain) + statistics.median(traced)
        if clock() - start + pair > seconds:
            return plain, traced, tracers, outcomes


def summarize(outcomes):
    """attempted, failed, correct, and per-query verdict counts.

    attempted and failed count distinct queries, not repetitions: a query
    fails when any of its repetitions raised or failed its check.  The
    number of passes depends on the speed of the machine; these counts
    depend on the seed alone."""
    import workloads
    per_query = {}
    for qid, (status, detail) in outcomes:
        counts, details = per_query.setdefault(qid, (Counter(), set()))
        counts[status] += 1
        if detail:
            details.add(detail)
    failed = sum(1 for counts, _ in per_query.values()
                 if counts[workloads.RAISED] or counts[workloads.WRONG])
    correct = not any(counts[workloads.WRONG]
                      for counts, _ in per_query.values())
    return len(per_query), failed, correct, per_query


def run_details(args):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS),
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all of them, each in its own "
                             "process, when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _prepare_environment()
    if args.setup_probe:
        _setup_probe()
        return 0
    if args.workload is None:
        for name in WORKLOAD_NAMES:
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0

    import spikedho
    import workloads
    if Path(spikedho.__file__).resolve().parent != SRC / "spikedho":
        sys.exit("perfbench: imported spikedho from %s, not %s"
                 % (spikedho.__file__, SRC))
    workload = workloads.WORKLOADS[args.workload]
    details = run_details(args)
    print("perfbench " + " ".join("%s=%s" % kv for kv in details.items()))

    if not args.trace:
        setup_s, setup_samples = measure_setup()
    workloads.warm_up()
    queries = workload.queries(args.seed)

    # metric name -> (value, unit, sample count)
    metrics = {}
    if args.trace:
        plain, traced, tracers, outcomes = measure_traced(
            workload, queries, args.seconds)
        per_pass = [t.metrics() for t in tracers]
        for name, (_, unit) in per_pass[0].items():
            value = statistics.median(m[name][0] for m in per_pass)
            metrics[name] = (value, unit, len(per_pass))
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s",
            len(traced))
    else:
        walls, latencies, outcomes = measure(workload, queries, args.seconds)
        metrics["setup_s"] = (setup_s, "s", len(setup_samples))
        slowest = slowest_repetitions(latencies, len(queries))
        metrics["wall_s"] = (math.fsum(slowest), "s", len(walls))
        metrics["query_p50_ms"] = (1e3 * statistics.median(slowest), "ms",
                                   len(latencies))
        metrics["query_tail_ms"] = (
            1e3 * percentile(latencies, workload.tail_pct), "ms",
            len(latencies))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)

    attempted, failed, correct, per_query = summarize(outcomes)
    for qid, (counts, notes) in sorted(per_query.items()):
        verdict = " ".join("%s x%d" % kv for kv in sorted(counts.items()))
        print("query %d %r: %s%s" % (qid, queries[qid], verdict,
                                     "  " + "; ".join(sorted(notes))
                                     if notes else ""))
    failed_frac = failed / attempted
    if not args.trace:
        print("wall_s sums each query's slowest repetition; the median "
              "measured pass took %.6g s" % statistics.median(walls))
        print("query_tail_ms is the p%g latency" % workload.tail_pct)
    for name, (value, unit, n) in metrics.items():
        print("%-40s %.6g %s (n=%d)" % (name, value, unit, n))
    print("%-40s %.6g ratio (%d of %d)" % ("failed_frac", failed_frac,
                                           failed, attempted))

    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {
        "details": details,
        "setup_samples_s": None if args.trace else setup_samples,
        "tail_percentile": workload.tail_pct,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "computed_labels": ["model.table_bytes_computed",
                            "solver.eigvalsh.flops_computed"],
        "failed_frac": failed_frac,
        "pass_walls_s": plain if args.trace else walls,
        "traced_pass_walls_s": traced if args.trace else [],
        "latencies_ms": [] if args.trace else [1e3 * x for x in latencies],
        "verdicts": {str(q): {"query": list(queries[q]),
                              "counts": dict(c), "notes": sorted(n)}
                     for q, (c, n) in per_query.items()},
    }
    if args.trace:
        tracers[-1].write_spans(OUT_DIR / (stem + "-spans.csv.gz"))
    (OUT_DIR / (stem + ".json")).write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
