"""Span tracing installed from outside the program.

``install`` wraps the public entry points of each layer (see ``FUNCTIONS``
and ``METHODS``) in place, in every loaded ``repro`` module that holds a
reference to them, and ``uninstall`` puts the originals back.  Each
wrapper records a span ``(id, name, start, end, parent id, op id)``:
the parent is the innermost open span of the same thread, and the op id
groups every span of one request, sweep call, recovery cycle or training
pass (server-thread spans of a request share the client's op id).  Spans
stay in memory until ``write_spans`` at the end of the run.

A layer's self time is its spans' durations minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# Counters recorded at the same boundaries as the spans
# ----------------------------------------------------------------------


def _schedule_ops(tracer, args, kwargs, schedule) -> None:
    tracer.count("schedule.ops_built",
                 sum(len(ops) for ops in schedule.worker_ops.values()))


def _simulate_name(args, kwargs) -> str:
    options = args[3] if len(args) > 3 else kwargs.get("options")
    faulted = options is not None and bool(options.faults)
    return "executor.faulted_simulate" if faulted else "executor.simulate"


def _simulate_committed(tracer, args, kwargs, result) -> None:
    if _simulate_name(args, kwargs) == "executor.simulate":
        # raw_records has one entry per committed op; ``records`` would
        # materialize OpRecord objects the untraced run never builds.
        tracer.count("executor.ops_committed", len(result.raw_records))


def _pipedream_cell(tracer, args, kwargs, result) -> None:
    tracer.sample("executor.idle_share", 1.0 - result.sim.average_utilization)
    tracer.sample("network.bytes_per_sample", result.bytes_per_sample)


_STRATEGY = "strategies"
_SCHEDULE = "schedule.build"

#: (module, function, span name, after-hook, span-name chooser)
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.core.schedule", "one_f_one_b_rr_schedule", _SCHEDULE, _schedule_ops, None),
    ("repro.core.schedule", "model_parallel_schedule", _SCHEDULE, _schedule_ops, None),
    ("repro.core.schedule", "gpipe_schedule", _SCHEDULE, _schedule_ops, None),
    ("repro.core.schedule", "data_parallel_schedule", _SCHEDULE, _schedule_ops, None),
    ("repro.core.schedule", "schedule_for_family", _SCHEDULE, None, None),
    ("repro.sim.executor", "simulate", "", _simulate_committed, _simulate_name),
    ("repro.sim.strategies", "simulate_data_parallel", _STRATEGY, None, None),
    ("repro.sim.strategies", "simulate_model_parallel", _STRATEGY, None, None),
    ("repro.sim.strategies", "simulate_gpipe", _STRATEGY, None, None),
    ("repro.sim.strategies", "simulate_partition", _STRATEGY, None, None),
    ("repro.sim.strategies", "simulate_pipedream", _STRATEGY, _pipedream_cell, None),
    ("repro.sim.sweep", "run_sweep", "sweep", None, None),
    ("repro.serve.service", "normalize_plan_request", "service.normalize", None, None),
)

#: (module, class, method, span name, outermost-call-only)
METHODS: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.core.partition", "PipeDreamOptimizer", "solve", "partition.solve", False),
    ("repro.runtime.elastic", "ElasticCoordinator", "run_with_recovery", "elastic.cycle", False),
    ("repro.runtime.elastic", "ElasticCoordinator", "replan", "elastic.replan", False),
    ("repro.serve.service", "PlannerService", "plan", "service.handler", False),
    ("repro.serve.service", "PlannerService", "simulate", "service.handler", False),
    ("repro.serve.client", "HTTPPlannerClient", "plan", "client.request", False),
    ("repro.serve.client", "HTTPPlannerClient", "simulate", "client.request", False),
    ("repro.nn.module", "Module", "__call__", "nn.forward", True),
    ("repro.autodiff.engine", "Tensor", "backward", "autodiff.backward", False),
    ("repro.optim.optimizer", "Optimizer", "step", "optim.step", False),
    ("repro.runtime.pipeline", "PipelineTrainer", "train_minibatches", "pipeline", False),
    ("repro.runtime.trainer", "SequentialTrainer", "train_epoch", "sequential", False),
)

#: Every per-layer metric: name -> unit.  Times are seconds per repetition.
LAYER_METRICS: Dict[str, str] = {
    "partition.solve_s": "s",
    "partition.solves": "count",
    "partition.eval_table_hit_rate": "ratio",
    "schedule.build_s": "s",
    "schedule.ops_built": "count",
    "executor.simulate_s": "s",
    "executor.ops_committed": "count",
    "executor.faulted_simulate_s": "s",
    "executor.faulted_calls": "count",
    "executor.idle_share": "ratio",
    "network.bytes_per_sample": "B",
    "strategies.self_s": "s",
    "sweep.self_s": "s",
    "elastic.replan_s": "s",
    "elastic.cycle_self_s": "s",
    "elastic.minibatches_lost": "minibatches",
    "service.normalize_s": "s",
    "service.handler_self_s": "s",
    "service.plan_cache_hit_rate": "ratio",
    "service.context_hit_rate": "ratio",
    "service.errors": "count",
    "server.http_overhead_s": "s",
    "nn.forward_s": "s",
    "autodiff.backward_s": "s",
    "optim.step_s": "s",
    "pipeline.self_s": "s",
    "pipeline.peak_stash_bytes": "B",
    "comm.bytes": "B",
    "comm.messages": "count",
    "train.sequential_samples_per_s": "1/s",
    "tracing.overhead_pct": "%",
}

# Span name -> per-layer self-time metric.
_SELF_TIME = {
    "partition.solve": "partition.solve_s",
    "schedule.build": "schedule.build_s",
    "executor.simulate": "executor.simulate_s",
    "executor.faulted_simulate": "executor.faulted_simulate_s",
    "strategies": "strategies.self_s",
    "sweep": "sweep.self_s",
    "elastic.cycle": "elastic.cycle_self_s",
    "service.normalize": "service.normalize_s",
    "service.handler": "service.handler_self_s",
    "nn.forward": "nn.forward_s",
    "autodiff.backward": "autodiff.backward_s",
    "optim.step": "optim.step_s",
    "pipeline": "pipeline.self_s",
}


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.op_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: (hits, misses) of the planner's evaluator-table cache while
        #: installed; the cache has no public entry point to wrap.
        self.eval_tables = [0, 0]

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self):
        """Group the spans of one call into the system under a new id."""
        self.op_id += 1
        yield

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
              name_of: Optional[Callable] = None) -> Callable:
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of is not None else name
            stack = self._stack()
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(span_name + ".errors")
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, span_name, start, end, parent, self.op_id))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _wrap_outermost(self, name: str, fn: Callable) -> Callable:
        """Span only the outermost call (e.g. a stage module, not the
        layers nested inside it)."""
        traced = self._wrap(name, fn)
        local = threading.local()

        @functools.wraps(fn)
        def outermost(*args, **kwargs):
            if getattr(local, "inside", False):
                return fn(*args, **kwargs)
            local.inside = True
            try:
                return traced(*args, **kwargs)
            finally:
                local.inside = False

        return outermost

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point of the already-imported modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._eval_tables_at_install = _eval_table_counters()
        replacements = {}
        for module_name, attr, name, after, name_of in FUNCTIONS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            replacements[id(original)] = (
                original, self._wrap(name, original, after, name_of))
        for module_name in [m for m in sys.modules if m.startswith("repro")]:
            namespace = vars(sys.modules[module_name])
            for key, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and value is hit[0]:
                    self._patch(sys.modules[module_name], key, hit[1])
        for module_name, cls_name, attr, name, outermost in METHODS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapper = (self._wrap_outermost(name, original) if outermost
                       else self._wrap(name, original))
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        now = _eval_table_counters()
        for i, before in enumerate(self._eval_tables_at_install):
            self.eval_tables[i] += now[i] - before

    # -- results -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus direct children's."""
        covered: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - covered.get(span_id, 0.0)
        return out

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (span count, total duration)."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for _, name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {name: (int(n), total) for name, (n, total) in out.items()}

    def layer_metrics(self, reps: int) -> Dict[str, float]:
        """Span-derived per-layer metrics, averaged per repetition."""
        metrics = {name: 0.0 for name in LAYER_METRICS}
        for span_name, seconds in self.self_times().items():
            metric = _SELF_TIME.get(span_name)
            if metric is not None:
                metrics[metric] = seconds / reps
        totals = self.totals()

        def spans(name):
            return totals.get(name, (0, 0.0))

        metrics["partition.solves"] = spans("partition.solve")[0] / reps
        metrics["executor.faulted_calls"] = spans("executor.faulted_simulate")[0] / reps
        # Client-observed time minus the time spent inside the service.
        metrics["server.http_overhead_s"] = (
            spans("client.request")[1] - spans("service.handler")[1]) / reps
        for metric, counter in (("service.errors", "service.handler.errors"),
                                ("schedule.ops_built", "schedule.ops_built"),
                                ("executor.ops_committed", "executor.ops_committed")):
            metrics[metric] = self.counts.get(counter, 0.0) / reps
        for name, values in self.samples.items():
            metrics[name] = sum(values) / len(values)
        hits, misses = self.eval_tables
        if hits + misses:
            metrics["partition.eval_table_hit_rate"] = hits / (hits + misses)
        return metrics

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start, end, parent, op."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def _eval_table_counters() -> Tuple[int, int]:
    """(hits, misses) of the planner's shared evaluator-table cache, or
    zeros when the planner is not loaded."""
    partition = sys.modules.get("repro.core.partition")
    if partition is None:
        return 0, 0
    stats = partition.eval_tables_stats()
    return stats["hits"], stats["misses"]
