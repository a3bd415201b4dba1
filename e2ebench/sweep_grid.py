"""sweep_grid: the Table 1 grid, simulated serially in one process.

The 7 paper models x clusters A and B (4 servers each) x 4/8/16 workers x
``dp``/``pipedream``/``gpipe``/``mp``, with the ``pipedream`` cells planned
three ways: uncapped, under a cap that binds nothing (1e18 B), and under a
seeded per-model cap that binds.  Each repetition first drops the profile
cache and the evaluator tables, because a fresh CLI sweep pays that cost.
The simulator event loop, schedule building and cold solves do most of
the work; no HTTP, plan cache, fault path or autodiff runs.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List

from common import PAPER_MODELS, Rep, Workload, op_scope

#: Per-model range (GB) the seeded binding caps are drawn from.  The low
#: end is 1.15x the smallest cap every cell of the grid can meet and the
#: high end 0.95x the largest uncapped footprint in the grid, so every
#: drawn cap is feasible and binds at least one cell.
BINDING_CAP_GB = {
    "vgg16": (2.95, 7.45),
    "resnet50": (1.95, 3.27),
    "alexnet": (0.52, 1.13),
    "gnmt16": (0.73, 2.90),
    "gnmt8": (0.63, 2.90),
    "awd-lm": (0.57, 1.42),
    "s2vt": (0.44, 0.77),
}
NON_BINDING_CAP = 1e18
WORKER_COUNTS = (4, 8, 16)
ALL_STRATEGIES = ("dp", "pipedream", "gpipe", "mp")


class SweepGrid(Workload):
    name = "sweep_grid"
    modules = ("repro.core.partition", "repro.core.topology",
               "repro.profiler", "repro.sim.sweep")
    work_unit = "sweep cells"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        rng = random.Random(seed)
        self.binding_caps = {
            model: rng.uniform(*BINDING_CAP_GB[model]) * 1e9
            for model in PAPER_MODELS
        }
        self.models = ("alexnet", "s2vt") if tiny else PAPER_MODELS

    def setup(self) -> None:
        from repro.core.topology import cluster_a, cluster_b

        clusters = (cluster_a(4),) if self.tiny else (cluster_a(4), cluster_b(4))
        # One run_sweep call per (cluster, model, planning variant): the
        # unit a CLI or service caller asks for, and the op whose latency
        # is reported.
        self.calls = [
            (cluster, model, variant, strategies, cap)
            for cluster in clusters
            for model in self.models
            for variant, strategies, cap in (
                ("uncapped", ALL_STRATEGIES, None),
                ("non_binding_cap", ("pipedream",), NON_BINDING_CAP),
                ("binding_cap", ("pipedream",), self.binding_caps[model]),
            )
        ]

    def run(self, tracer=None, speed=None) -> Rep:
        from repro import profiler
        from repro.core import partition
        from repro.sim import sweep

        rep = Rep()
        records = []
        profiler.clear_profile_cache()
        partition.clear_eval_tables()
        for cluster, model, variant, strategies, cap in self.calls:
            with op_scope(tracer, speed):
                begin = perf_counter()
                got = sweep.run_sweep(
                    [model], cluster, WORKER_COUNTS, strategies=strategies,
                    memory_limit_bytes=cap, on_error="skip",
                )
                rep.latencies.append(perf_counter() - begin)
            expected = len(strategies) * len(WORKER_COUNTS)
            rep.attempted += expected
            rep.failed += expected - len(got)
            records.extend((variant, cap, record) for record in got)
        rep.seconds = sum(rep.latencies)
        rep.work = len(records)
        rep.outputs = records
        return rep

    def check(self, rep: Rep) -> List[str]:
        """Every capped plan fits its cap on every stage."""
        problems = []
        for variant, cap, record in rep.outputs:
            if (cap is not None and record.strategy == "pipedream"
                    and max(record.stage_memory_bytes) > cap):
                problems.append(
                    f"{record.model} @ {record.workers} on {record.cluster} "
                    f"({variant}): plan {record.config} needs "
                    f"{max(record.stage_memory_bytes) / 1e9:.3f} GB > cap "
                    f"{cap / 1e9:.3f} GB")
        return problems

    def plan_speedups(self, rep: Rep) -> List[float]:
        """Table 1's metric: each pipedream cell's simulated samples/s over
        the same (cluster, model, workers) cell's data parallelism.

        Binding-cap cells are left out: data parallelism ignores the cap
        (it may not fit under it), so their ratio is not like for like,
        and the seeded caps would make the metric depend on the seed.
        """
        dp: Dict[tuple, float] = {
            (r.cluster, r.model, r.workers): r.samples_per_second
            for _, _, r in rep.outputs if r.strategy == "dp"
        }
        return [
            r.samples_per_second / dp[(r.cluster, r.model, r.workers)]
            for variant, _, r in rep.outputs
            if r.strategy == "pipedream" and variant != "binding_cap"
        ]
