"""recovery_cycles: crash, detect, re-plan warm and resume, over and over.

``ElasticCoordinator.run_with_recovery`` on cluster A (16 workers) for
several models, each under ten seeded fault schedules: one crash at a
seeded time on a seeded worker, plus two stragglers and one bandwidth
window.  Ten schedules per model average out most of the seed's effect
on the amount of simulated work.
This is the only workload that runs the simulator's fault path and the
warm re-plan; the sweep runs neither.  One crash always leaves 12
packable survivors, so the recovery plans (and their quality) are the
same for every seed while the fault timelines are not.
"""

from __future__ import annotations

import random
import sys
import traceback
from time import perf_counter
from typing import Dict, List, NamedTuple, Tuple

from common import Rep, Workload, op_scope

MODELS = ("vgg16", "resnet50", "gnmt8", "awd-lm")
SERVERS = 4
MINIBATCHES = 32
SCHEDULES_PER_MODEL = 10


class CycleOutput(NamedTuple):
    """One recovery cycle's outputs, without the fields that carry host
    wall time (re-plan seconds and the minibatches lost to them)."""

    model: str
    fault_time: float
    detection_time: float
    surviving_workers: int
    plan_config: str
    minibatches_completed: int
    minibatches_resumed: int
    oracle_seconds: float
    old_stages: Tuple
    new_stages: Tuple
    faulted_seconds: float
    resumed_samples_per_second: float


class RecoveryCycles(Workload):
    name = "recovery_cycles"
    modules = ("repro.core.partition", "repro.core.topology", "repro.profiler",
               "repro.runtime.elastic", "repro.sim.faults", "repro.sim.strategies")
    work_unit = "recovery cycles"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        rng = random.Random(seed)
        self.models = MODELS[:1] if tiny else MODELS
        per_model = 1 if tiny else SCHEDULES_PER_MODEL
        self.fault_seeds = {
            model: [rng.randrange(2 ** 31) for _ in range(per_model)]
            for model in self.models
        }

    def setup(self) -> None:
        from repro.core.topology import cluster_a
        from repro.profiler import analytic_profile
        from repro.runtime.elastic import ElasticCoordinator
        from repro.sim.faults import FaultSchedule
        from repro.sim.strategies import simulate_partition

        self.topology = cluster_a(SERVERS)
        self.cycles = []
        for model in self.models:
            profile = analytic_profile(model)
            coordinator = ElasticCoordinator(profile, self.topology)
            plan = coordinator.optimizer.solve()
            oracle = simulate_partition(profile, self.topology, plan.stages,
                                        MINIBATCHES)
            horizon = max(oracle.sim.minibatch_done.values())
            for fault_seed in self.fault_seeds[model]:
                faults = FaultSchedule.generate(
                    fault_seed, self.topology.total_workers, horizon,
                    crashes=1, stragglers=2, degradations=1)
                self.cycles.append((model, coordinator, faults))

    def run(self, tracer=None, speed=None) -> Rep:
        rep = Rep(attempted=len(self.cycles))
        outputs = []
        replan = lost = 0.0
        for model, coordinator, faults in self.cycles:
            with op_scope(tracer, speed):
                begin = perf_counter()
                try:
                    report = coordinator.run_with_recovery(MINIBATCHES, faults)
                except Exception:  # noqa: BLE001 - counted and reported
                    traceback.print_exc(file=sys.stderr)
                    rep.failed += 1
                    outputs.append(None)
                    continue
                finally:
                    rep.latencies.append(perf_counter() - begin)
            m = report.metrics
            replan += m.replan_wall_seconds
            lost += m.minibatches_lost
            outputs.append(CycleOutput(
                model, m.fault_time, m.detection_time, m.surviving_workers,
                m.plan_config, m.minibatches_completed, m.minibatches_resumed,
                m.oracle_seconds, tuple(report.old_stages),
                tuple(report.new_stages), report.faulted.sim.total_time,
                report.resumed.samples_per_second,
            ))
        rep.seconds = sum(rep.latencies)
        rep.work = len(self.cycles) - rep.failed
        rep.outputs = outputs
        done = max(1, rep.work)
        rep.extra = {"elastic.replan_s": replan,
                     "elastic.minibatches_lost": lost / done}
        return rep

    def check(self, rep: Rep) -> List[str]:
        """Each warm re-plan equals a cold solve at the survivor count."""
        from repro.core.partition import PipeDreamOptimizer
        from repro.profiler import analytic_profile

        problems = []
        cold: Dict[tuple, tuple] = {}
        for out in filter(None, rep.outputs):
            key = (out.model, out.surviving_workers)
            if key not in cold:
                plan = PipeDreamOptimizer(
                    analytic_profile(out.model), self.topology).solve(key[1])
                cold[key] = tuple(plan.stages)
            if out.new_stages != cold[key]:
                problems.append(
                    f"{out.model}: warm re-plan at {key[1]} workers "
                    f"{out.new_stages} != cold solve {cold[key]}")
        return problems

    def plan_speedups(self, rep: Rep) -> List[float]:
        """Each distinct recovery plan's simulated samples/s over data
        parallelism on the surviving workers."""
        from repro.profiler import analytic_profile
        from repro.sim.strategies import simulate_data_parallel, simulate_partition

        ratios = {}
        for out in filter(None, rep.outputs):
            key = (out.model, out.surviving_workers, out.new_stages)
            if key in ratios:
                continue
            profile = analytic_profile(out.model)
            sub = self.topology.subset(out.surviving_workers)
            plan = simulate_partition(profile, sub, out.new_stages, MINIBATCHES)
            dp = simulate_data_parallel(profile, sub, MINIBATCHES)
            ratios[key] = plan.samples_per_second / dp.samples_per_second
        return list(ratios.values())
