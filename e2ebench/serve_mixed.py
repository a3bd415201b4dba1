"""serve_mixed: one closed-loop client replaying a seeded request trace
over HTTP against the planner server.

The planner's callers (CLI, elastic coordinator, job launchers) each wait
for a reply, so a closed loop with one client and one connection at a
time matches them.  Each repetition replays the whole trace against a
fresh ``PlannerService`` (swapped into the running server), so every
repetition sees the same plan-cache hits and misses.  Hits cost under a
millisecond, mostly HTTP and JSON; misses cost a warm-started solve.  So
the median latency follows the serve layers and the p99 the planner.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from common import PAPER_MODELS, Rep, Workload, op_scope

CLUSTERS = ("a", "b")
WORKER_COUNTS = (4, 8, 16)
SIMULATE_SHARE = 0.30
#: Capped requests per key, by endpoint, and the range caps are drawn
#: from: every cap binds nothing but creates a new cache key.
CAPPED_ENDPOINTS = ("plan", "plan", "plan", "simulate")
CAP_RANGE_BYTES = (20e9, 64e9)
#: ``simulate`` requests use the service's default minibatch count.
MINIBATCHES = 48


def build_trace(seed: int, models: Sequence[str],
                length: int) -> List[Tuple[str, Dict[str, Any]]]:
    """A seeded list of ``length`` (endpoint, request) pairs over the keys
    models x clusters a/b x 4/8/16 workers.

    The trace opens with every key once uncapped per endpoint, in a fixed
    order.  Then come ``CAPPED_ENDPOINTS`` requests per key with a seeded
    cap, in a fixed order but at seeded positions, mixed with uncapped
    repeats, Zipf-weighted over the keys in a seeded rank order, ~70%
    ``plan`` and ~30% ``simulate``.  So the cache misses, and the order in
    which they warm the solver contexts, are the same for every seed: the
    seed moves the hot keys, the caps and where the misses fall, not the
    amount of planning work.  The uncapped ``simulate`` keys whose plan
    quality is reported are the same for every seed too.
    """
    rng = random.Random(seed)
    keys = [(m, c, w) for m in models for c in CLUSTERS for w in WORKER_COUNTS]

    def request(key, cap=None) -> Dict[str, Any]:
        model, cluster, workers = key
        body = {"model": model, "cluster": cluster, "servers": 4,
                "num_workers": workers}
        if cap is not None:
            body["memory_limit_bytes"] = cap
        return body

    opening = [(endpoint, request(key))
               for key in keys for endpoint in ("plan", "simulate")]
    capped = [(endpoint, request(key, rng.uniform(*CAP_RANGE_BYTES)))
              for key in keys for endpoint in CAPPED_ENDPOINTS]
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    repeats = [
        ("simulate" if rng.random() < SIMULATE_SHARE else "plan", request(key))
        for key in rng.choices(ranked, weights,
                               k=length - len(opening) - len(capped))
    ]
    rest = len(capped) + len(repeats)
    capped_at = set(rng.sample(range(rest), len(capped)))
    capped_iter, repeats_iter = iter(capped), iter(repeats)
    return opening + [next(capped_iter) if i in capped_at else next(repeats_iter)
                      for i in range(rest)]


def _cache_hits(trace: Sequence[Tuple[str, Dict[str, Any]]]) -> List[bool]:
    """Whether each request of ``trace`` repeats an earlier (endpoint,
    cache key), so that a fresh service answers it from its cache."""
    from repro.serve.service import normalize_plan_request

    seen = set()
    hits = []
    for endpoint, body in trace:
        key = (endpoint, normalize_plan_request(body).key)
        hits.append(key in seen)
        seen.add(key)
    return hits


def _canonical(response: Dict[str, Any]) -> Dict[str, Any]:
    """The response without its wall-clock field."""
    return {k: v for k, v in response.items() if k != "solve_seconds"}


class ServeMixed(Workload):
    name = "serve_mixed"
    modules = ("repro.serve.server", "repro.serve.client",
               "repro.serve.service", "repro.profiler", "repro.sim")
    work_unit = "requests"
    #: Every request is an HTTP round trip with a thread per connection;
    #: a miss also plans (pure Python).  So hits are normalised by HTTP
    #: round trips alone and misses by those plus the Python kernel.
    references = ("python", "http")

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.trace = (build_trace(seed, ("alexnet", "s2vt"), 100) if tiny
                      else build_trace(seed, PAPER_MODELS, 1200))
        self.call_references = [
            ("http",) if hit else ("python", "http") for hit in _cache_hits(self.trace)
        ]
        self.server = None

    def setup(self) -> None:
        from repro.profiler import analytic_profile
        from repro.serve.client import HTTPPlannerClient
        from repro.serve.server import ServerThread
        from repro.serve.service import PlannerService

        for model in PAPER_MODELS:
            analytic_profile(model)
        self.server = ServerThread(PlannerService()).start()
        self.client = HTTPPlannerClient(self.server.url)
        if not self.client.healthy():
            raise RuntimeError("planner server did not answer its health check")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run(self, tracer=None, speed=None) -> Rep:
        from repro.serve.service import PlannerService, RequestError

        service = PlannerService()
        self.server.server.service = service
        rep = Rep(attempted=len(self.trace))
        responses = []
        for endpoint, body in self.trace:
            call = self.client.plan if endpoint == "plan" else self.client.simulate
            with op_scope(tracer, speed):
                begin = perf_counter()
                try:
                    response = call(body)
                except (RequestError, RuntimeError, OSError) as exc:
                    response = {"error": f"{type(exc).__name__}: {exc}"}
                    rep.failed += 1
                rep.latencies.append(perf_counter() - begin)
            responses.append(_canonical(response))
        rep.seconds = sum(rep.latencies)
        rep.work = len(self.trace)
        rep.outputs = responses
        rep.extra = _service_hit_rates(service)
        return rep

    def check(self, rep: Rep) -> List[str]:
        """Each distinct request's response equals a cold solve, bitwise
        (and, for ``simulate``, a direct simulation of the cold plan)."""
        from repro.core.partition import PipeDreamOptimizer
        from repro.serve.service import normalize_plan_request
        from repro.sim.strategies import simulate_pipedream

        problems = []
        seen = set()
        for (endpoint, body), response in zip(self.trace, rep.outputs):
            query = normalize_plan_request(body)
            if (endpoint, query.key) in seen:
                continue
            seen.add((endpoint, query.key))
            if "error" in response:
                problems.append(f"{endpoint} {body}: {response['error']}")
                continue

            def cold():
                return PipeDreamOptimizer(
                    query.profile, query.topology,
                    memory_limit_bytes=query.memory_limit_bytes)

            plan = cold().solve(query.num_workers)
            stages = [[s.start, s.stop, s.replicas] for s in plan.stages]
            if endpoint == "plan":
                expected = (stages, plan.slowest_stage_time, list(plan.memory_bytes))
                served = (response["stages"], response["slowest_stage_time"],
                          response["memory_bytes"])
            else:
                sim = simulate_pipedream(query.profile, query.topology,
                                         num_minibatches=MINIBATCHES,
                                         optimizer=cold())
                expected = (stages, sim.samples_per_second)
                served = (response["stages"], response["samples_per_second"])
            if served != expected:
                problems.append(f"{endpoint} {body}: served {served} != cold {expected}")
        return problems

    def plan_speedups(self, rep: Rep) -> List[float]:
        """Served ``simulate`` samples/s of every uncapped key over data
        parallelism on the same workers."""
        from repro.serve.service import normalize_plan_request
        from repro.sim.strategies import simulate_data_parallel

        ratios = {}
        for (endpoint, body), response in zip(self.trace, rep.outputs):
            if endpoint != "simulate" or "memory_limit_bytes" in body:
                continue
            query = normalize_plan_request(body)
            if query.key in ratios:
                continue
            dp = simulate_data_parallel(query.profile, query.topology,
                                        num_minibatches=MINIBATCHES)
            ratios[query.key] = response["samples_per_second"] / dp.samples_per_second
        return list(ratios.values())


def _service_hit_rates(service) -> Dict[str, float]:
    plan_cache = service.plan_cache.stats()
    hits = misses = 0
    for counters in service.contexts.stats()["contexts"].values():
        for name, value in counters.items():
            if name.endswith("_hits"):
                hits += value
            elif name.endswith("_misses"):
                misses += value
    return {
        "service.plan_cache_hit_rate": plan_cache["hit_rate"],
        "service.context_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }
