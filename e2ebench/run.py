"""End-to-end benchmark of the PipeDream reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sweep_grid --seed 1 --seconds 10 --trace 0

Runs one workload (see ``WORKLOADS``) built from ``--seed``: times its
set-up, runs one untimed warm-up repetition and checks its outputs, then
repeats the workload for ``--seconds`` and checks that every repetition
produced the same outputs.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics (``END_TO_END``);
with ``--trace 1`` untraced and traced repetitions alternate, the traced
outputs must equal the untraced ones, and the metrics are the per-layer
metrics of ``tracing.LAYER_METRICS`` plus the tracing overhead.  A
human-readable detail line (sample counts, failed checks) precedes it.
See ``e2ebench/NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys

# One BLAS thread: the host has two vCPUs, and a second OpenBLAS thread
# spins on the other one for no gain in wall time (train_pipeline takes
# as long either way), so it would only measure the other vCPU's load.
# Set before numpy is first imported; import timings in child
# interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    SRC, HostSpeed, geomean, import_seconds, peak_rss_mb, percentile,
)
from recovery_cycles import RecoveryCycles  # noqa: E402
from serve_mixed import ServeMixed  # noqa: E402
from sweep_grid import SweepGrid  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from train_pipeline import TrainPipeline  # noqa: E402

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_p99_ms": "ms",
    "plan_speedup_vs_dp_geomean": "x",
    "plan_speedup_vs_dp_min": "x",
}
SETUP_REPEATS = 3
MIN_REPS = 3

WORKLOADS = {w.name: w for w in (SweepGrid, ServeMixed, RecoveryCycles, TrainPipeline)}


def normalised_latencies(rep):
    """Each call's latency in seconds of the calibration host."""
    return [t * f for t, f in zip(rep.latencies, rep.call_speeds)]


def normalised_seconds(rep):
    """The repetition's time in calls, in seconds of the calibration host
    (``Rep.seconds`` is the sum of ``Rep.latencies`` on every workload)."""
    return sum(normalised_latencies(rep))


def measure(workload, seconds: float, trace: bool):
    """Set up, warm up, check and measure one workload.

    Returns ``(result, detail)``: the result object for the last output
    line and a dict of supporting numbers.  Every time is normalised to
    the calibration host's speed (``common.HostSpeed``); the detail line
    also gives the raw wall-clock throughput and the host's speed.
    """
    speed = HostSpeed(workload.references)
    try:
        return _measure(workload, seconds, trace, speed)
    finally:
        speed.close()


def _measure(workload, seconds, trace, speed):
    setup_seconds = import_seconds(workload.modules, speed)
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()
        mark = speed.mark()
        begin = perf_counter()
        workload.setup()
        took = perf_counter() - begin
        speed.sample()
        setups.append(took * speed.factor(mark))

    def timed(tracer=None):
        mark, first_call = speed.mark(), len(speed.calls)
        rep = workload.run(tracer, speed)
        speed.sample()
        rep.speed = speed.factor(mark)
        # Latency i belongs to the repetition's i-th op_scope call (train
        # times the first of its two calls).
        kinds = workload.call_references or [None] * len(rep.latencies)
        rep.call_speeds = [
            speed.factor(before, refs, end=before + 2)
            for before, refs in zip(speed.calls[first_call:], kinds)
        ]
        return rep

    warmup = timed()
    problems = workload.check(warmup)
    tracer = Tracer() if trace else None
    reps, traced = [], []
    differed = set()

    def keep(group, kind, rep):
        # Outputs are compared as they arrive and then dropped, and the
        # previous repetition's garbage is collected before the next one,
        # so the peak memory depends neither on the number of repetitions
        # nor on when the cyclic collector happens to run.
        if rep.outputs != warmup.outputs:
            differed.add(kind)
        rep.outputs = None
        group.append(rep)
        gc.collect()

    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(reps) < MIN_REPS:
        keep(reps, "untraced", timed())
        if tracer is not None:
            tracer.install()
            try:
                rep = timed(tracer)
            finally:
                tracer.uninstall()
            keep(traced, "traced", rep)
    for kind in sorted(differed):
        problems.append(f"a {kind} repetition produced different outputs "
                        "from the warm-up repetition")
    measured = [warmup] + reps + traced

    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "repetitions": len(reps),
        "work_per_repetition": warmup.work,
        "work_unit": workload.work_unit,
        "setup_import_s": setup_seconds,
        "setup_repeats_s": setups,
        "host_speed_median": statistics.median(rep.speed for rep in reps),
        "wall_ops_per_s": statistics.median(rep.work / rep.seconds for rep in reps),
        "problems": problems,
    }
    if trace:
        metrics = tracer.layer_metrics(len(traced))
        for name in traced[0].extra:
            metrics[name] = statistics.median(rep.extra[name] for rep in traced)
        untraced_s = statistics.median(normalised_seconds(rep) for rep in reps)
        traced_s = statistics.median(normalised_seconds(rep) for rep in traced)
        metrics["tracing.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl"
        tracer.write_spans(spans_file)
        detail["spans"] = len(tracer.spans)
        detail["spans_file"] = str(spans_file.relative_to(HERE.parent))
        units = LAYER_METRICS
    else:
        # Every repetition makes the same calls in the same order, so each
        # call's latency is its median over the repetitions and the
        # percentiles are over calls: one slow repetition moves none.
        latencies = [
            statistics.median(call)
            for call in zip(*(normalised_latencies(rep) for rep in reps))
        ]
        speedups = workload.plan_speedups(warmup)
        metrics = {
            "setup_s": setup_seconds + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": statistics.median(rep.work / normalised_seconds(rep)
                                           for rep in reps),
            "op_latency_p50_ms": 1e3 * percentile(latencies, 0.50),
            "op_latency_p99_ms": 1e3 * percentile(latencies, 0.99),
            "plan_speedup_vs_dp_geomean": geomean(speedups),
            "plan_speedup_vs_dp_min": min(speedups),
        }
        detail["latency_calls"] = len(latencies)
        detail["plans_scored"] = len(speedups)
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in measured),
        "failed": sum(rep.failed for rep in measured),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    try:
        result, detail = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
