"""The numpy planner equals its scalar oracle, bitwise, on random inputs.

:class:`repro.core.partition.PipeDreamOptimizer` runs the level DPs and
the suffix DP as numpy argmin reductions; ``tests/partition_oracle.py``
keeps the scalar loop nests they replaced (:class:`OraclePlanner`).  This
property draws random layer lists (recurrent and shardable kinds, ties in
compute and bytes), one- and two-level topologies with and without a
per-collective latency α, memory caps from none through a non-binding
1e18 to binding (some exactly at a span's kernel cost), and the solver
options (``recompute="auto"``, ``tp_degrees``, ``bucket_bytes``,
``allow_replication=False``), and checks:

- every DP phase — the level DP on each decomposition and, under a cap,
  the refined suffix DP — emits the same candidate plan in both planners,
  so a divergence cannot hide behind candidate scoring (a second property
  always draws a cap, so the refined pass always runs, and two fixed
  grids cover what random draws rarely reach: exact ties, and caps at a
  span's kernel cost where the depth ``ceil(m / m')`` decides);
- ``solve()`` returns the same stages, bottleneck and footprint from both
  planners, cold and warm-started through one shared
  :class:`~repro.core.partition.SolverContext` at the full and a subset
  worker count;
- the placement walk equals the closed-form evaluator oracle on random
  tp-free, bucket-free plans and on every tp-free solved plan.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    PipeDreamOptimizer,
    SolverContext,
    Stage,
    evaluate_partition_details,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import make_cluster
from repro.sim.memory import stage_memory_bytes
from tests.partition_oracle import OraclePlanner, oracle_evaluate_details

KINDS = ["conv", "fc", "attention", "lstm", "embedding", "pool", "other"]

layer_specs = st.lists(
    st.tuples(
        # Few distinct values so the DPs meet exact ties; byte counts
        # sized so transfers and syncs (bandwidths ~1e6 B/s) cost about
        # as much as compute.
        st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5]),
        st.sampled_from([0, 10, 1_000, 50_000, 400_000]),
        st.sampled_from([0, 100, 5_000, 200_000, 1_000_000]),
        st.sampled_from(KINDS),
    ),
    min_size=1,
    max_size=6,
)


def build_profile(spec):
    layers = [LayerProfile(f"l{i}", c, a, w, kind=k)
              for i, (c, a, w, k) in enumerate(spec)]
    return ModelProfile("prop", layers, batch_size=1)


@st.composite
def topologies(draw):
    gpus = draw(st.integers(1, 4))
    servers = draw(st.integers(1, 2))
    if gpus * servers == 1:
        gpus = 2
    latency = draw(st.sampled_from([0.0, 0.0, 0.05, 0.5, 2.0]))
    return make_cluster(
        "prop", gpus, servers,
        draw(st.sampled_from([5e5, 1e6, 4e6])),
        draw(st.sampled_from([2e5, 1e6])),
        intra_allreduce_efficiency=draw(st.sampled_from([1.0, 0.25])),
        intra_allreduce_latency=latency,
        inter_allreduce_latency=draw(st.sampled_from([0.0, latency, 1.0])),
    )


@st.composite
def thresholds(draw, profile):
    """A cap exactly at one span's kernel cost at some depth and replica
    count — the edge where a wrong depth or comparison flips a mask."""
    n = len(profile)
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start + 1, n))
    return float(max(1, stage_memory_bytes(
        profile, start, stop, draw(st.integers(1, 5)),
        draw(st.integers(1, 4)))))


@st.composite
def options(draw, profile, capped=False):
    model_bytes = sum(l.weight_bytes + l.activation_bytes
                      for l in profile.layers)
    binding = st.one_of(
        st.floats(0.05, 4.0).map(lambda s: max(1.0, s * model_bytes)),
        thresholds(profile),
    )
    cap = draw(st.one_of(
        *(() if capped else (st.none(),)), st.just(1e18), binding))
    kwargs = dict(memory_limit_bytes=cap,
                  allow_replication=draw(st.booleans()))
    if draw(st.booleans()):
        kwargs["recompute"] = "auto"
    menu = draw(st.sampled_from([None, (1, 2), (1, 2, 4)]))
    if menu is not None:
        kwargs["tp_degrees"] = menu
    elif draw(st.booleans()):
        kwargs["bucket_bytes"] = draw(st.sampled_from([1e3, 1e5, 1e7]))
    return kwargs


def solve(planner, profile, topology, kwargs, workers=None, context=None):
    try:
        result = planner(profile, topology, context=context,
                         **kwargs).solve(workers)
    except RuntimeError:
        return None
    return (tuple(result.stages), result.slowest_stage_time,
            result.memory_bytes, result.num_workers)


def phases(planner, profile, topology, kwargs):
    """The candidate plan of each DP phase (``None`` when infeasible)."""
    opt = planner(profile, topology, **kwargs)
    out = []
    for topo in opt._decompositions(topology):
        try:
            out.append(opt._solve_for(topo))
        except RuntimeError:
            out.append(None)
    if opt.memory_limit_bytes is not None:
        out.append(opt._solve_refined(topology))
    return out


def assert_evaluators_equal(profile, stages, topology):
    walk_eval = evaluate_partition_details(profile, stages, topology)
    closed_form = oracle_evaluate_details(profile, stages, topology)
    assert walk_eval == closed_form


@st.composite
def plans(draw, num_layers, total_workers):
    """A tp-free plan packed onto at most ``total_workers`` workers."""
    num_stages = draw(st.integers(1, min(num_layers, total_workers)))
    cuts = sorted(draw(st.lists(
        st.integers(1, num_layers - 1), min_size=num_stages - 1,
        max_size=num_stages - 1, unique=True))) if num_stages > 1 else []
    bounds = [0] + cuts + [num_layers]
    budget = total_workers - num_stages
    stages = []
    for start, stop in zip(bounds, bounds[1:]):
        replicas = draw(st.integers(1, 1 + budget))
        budget -= replicas - 1
        stages.append(Stage(start, stop, replicas,
                            recompute=draw(st.booleans())))
    return stages


class TestPlannerMatchesOracle:
    @given(spec=layer_specs, topology=topologies(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_bitwise_equal_cold_and_warm(self, spec, topology, data):
        profile = build_profile(spec)
        kwargs = data.draw(options(profile), label="options")
        total = topology.total_workers
        assert phases(PipeDreamOptimizer, profile, topology, kwargs) == \
            phases(OraclePlanner, profile, topology, kwargs)
        cold = solve(PipeDreamOptimizer, profile, topology, kwargs)
        assert cold == solve(OraclePlanner, profile, topology, kwargs)

        # Both planners through one context: each must match its cold
        # answer on the first (writing) and second (reading) pass, and at
        # a subset worker count that reuses suffix rows of the full one.
        subset = data.draw(st.integers(1, total), label="subset")
        try:
            topology.subset(subset)
        except ValueError:
            subset = total
        expected = {
            total: cold,
            subset: solve(PipeDreamOptimizer, profile, topology, kwargs,
                          workers=subset),
        }
        assert expected[subset] == solve(
            OraclePlanner, profile, topology, kwargs, workers=subset)
        context = SolverContext(profile)
        for _ in range(2):
            for workers in (total, subset):
                for planner in (PipeDreamOptimizer, OraclePlanner):
                    warm = solve(planner, profile, topology, kwargs,
                                 workers=workers, context=context)
                    assert warm == expected[workers], (planner, workers)

        if cold is not None:
            stages = list(cold[0])
            assert math.isfinite(cold[1])
            if "bucket_bytes" not in kwargs and all(
                s.tp_degree == 1 for s in stages
            ):
                assert_evaluators_equal(profile, stages, topology)

    @given(spec=layer_specs, topology=topologies(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_phases_bitwise_equal_under_caps(self, spec, topology, data):
        profile = build_profile(spec)
        kwargs = data.draw(options(profile, capped=True), label="options")
        assert phases(PipeDreamOptimizer, profile, topology, kwargs) == \
            phases(OraclePlanner, profile, topology, kwargs)

    def test_tie_grid(self):
        """Uniform layers with zero or equal bytes put many cells at an
        exact tie (e.g. ``tp_degree=2`` vs two replicas); the planners must
        break every one the same way.  Random draws rarely reach these."""
        for n, acts, weights, kinds, (gpus, servers), menu, alpha in (
            itertools.product(
                (1, 2, 3), (0, 1_000), (0, 200_000),
                (("attention",), ("conv", "pool")),
                ((2, 1), (4, 1), (2, 2)), (None, (1, 2, 4)), (0.0, 0.5),
            )
        ):
            profile = ModelProfile("ties", [
                LayerProfile(f"l{i}", 1.0, acts, weights,
                             kind=kinds[i % len(kinds)])
                for i in range(n)
            ], batch_size=1)
            topology = make_cluster("ties", gpus, servers, 1e6, 2e5,
                                    intra_allreduce_latency=alpha)
            kwargs = dict(memory_limit_bytes=1e18, tp_degrees=menu)
            assert phases(PipeDreamOptimizer, profile, topology, kwargs) == \
                phases(OraclePlanner, profile, topology, kwargs)
            assert solve(PipeDreamOptimizer, profile, topology, kwargs) == \
                solve(OraclePlanner, profile, topology, kwargs)

    def test_depth_threshold_grid(self):
        """Caps exactly at a span's kernel cost at depth 1–3 on clusters
        whose worker counts leave ``m % m'`` nonzero, where a wrong
        ``ceil(m / m')`` admits or rejects a cell the oracle does not."""
        for spec in (
            [(1.0, 50_000, 200_000, "conv"), (1.0, 400_000, 5_000, "fc"),
             (2.0, 10, 1_000_000, "lstm")],
            [(2.0, 400_000, 100, "attention"),
             (1.0, 1_000, 200_000, "embedding")],
        ):
            profile = build_profile(spec)
            n = len(profile)
            caps = sorted({
                float(stage_memory_bytes(profile, i, j, depth, replicas))
                for i in range(n) for j in range(i + 1, n + 1)
                for depth in (1, 2, 3) for replicas in (1, 2)
            })
            for gpus in (3, 5):
                topology = make_cluster("depth", gpus, 1, 1e6, 2e5)
                for cap, menu, recompute in itertools.product(
                    caps, (None, (1, 2)), (None, "auto")
                ):
                    kwargs = dict(memory_limit_bytes=cap, tp_degrees=menu,
                                  recompute=recompute)
                    assert phases(PipeDreamOptimizer, profile, topology,
                                  kwargs) == \
                        phases(OraclePlanner, profile, topology, kwargs)


class TestEvaluatorMatchesWalk:
    @given(spec=layer_specs, topology=topologies(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_plan(self, spec, topology, data):
        profile = build_profile(spec)
        stages = data.draw(plans(len(profile), topology.total_workers),
                           label="plan")
        assert_evaluators_equal(profile, stages, topology)
