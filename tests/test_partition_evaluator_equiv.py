"""The placement walk against the closed-form evaluator oracle.

:func:`evaluate_partition_details` prices every plan stage by stage
through the :mod:`repro.sim.network` placement and all_reduce model
(``_evaluate_details_walk``).  Its oracle,
:func:`tests.partition_oracle.closed_form_details`, prices all stages at
once with numpy integer arithmetic instead (contiguous-group ring sizes,
boundary crossing level).  Both evaluate the exact same float
expressions, so this file asserts *bitwise* equality — no approx — over
every paper model with straight and replicated plans, plus a hypothesis
fuzz over random profiles, topologies, and plans (tensor-parallel and
checkpointing stages included).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    PartitionEvaluation,
    PipeDreamOptimizer,
    Stage,
    evaluate_partition_details,
    evaluate_partition_on_topology,
)
from tests.partition_oracle import OraclePlanner, oracle_evaluate_details
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import cluster_a, cluster_b, cluster_c, make_cluster
from repro.profiler import analytic_profile
from repro.sim.strategies import balanced_straight_stages

PAPER_MODELS = ("vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8",
                "awd-lm", "s2vt", "mask-rcnn", "ssd")

TOPO_A = cluster_a(4)


def assert_evaluations_identical(profile, stages, topology):
    """Placement-walk and closed-form evaluations must match bitwise."""
    vec = evaluate_partition_details(profile, stages, topology)
    ref = oracle_evaluate_details(profile, stages, topology)
    assert isinstance(vec, PartitionEvaluation)
    assert vec == ref
    assert vec.bottleneck_stage == ref.bottleneck_stage
    # The scalar convenience wrapper agrees with the details object.
    assert evaluate_partition_on_topology(
        profile, stages, topology) == vec.bottleneck_time
    return vec


def replicated_plan(profile, total_workers):
    """A handcrafted two-stage plan with both stages replicated."""
    mid = max(1, len(profile) // 2)
    front = max(2, (3 * total_workers) // 4)
    back = total_workers - front
    if back < 1:
        front, back = total_workers - 1, 1
    return [Stage(0, mid, front), Stage(mid, len(profile), back)]


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_straight_plan_matches(model):
    profile = analytic_profile(model)
    stages = balanced_straight_stages(profile, 4)
    assert_evaluations_identical(profile, stages, TOPO_A)


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_replicated_plan_matches(model):
    profile = analytic_profile(model)
    assert_evaluations_identical(profile, replicated_plan(profile, 16),
                                 TOPO_A)


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_solved_plan_matches(model):
    """The optimizer's own chosen plan evaluates identically under both
    evaluators, and the scalar oracle planner chooses the same plan."""
    profile = analytic_profile(model)
    vec_plan = PipeDreamOptimizer(profile, TOPO_A).solve()
    ref_plan = OraclePlanner(profile, TOPO_A).solve()
    assert vec_plan.stages == ref_plan.stages
    assert vec_plan.slowest_stage_time == ref_plan.slowest_stage_time
    assert vec_plan.config_string == ref_plan.config_string
    assert_evaluations_identical(profile, vec_plan.stages, TOPO_A)


def test_pure_data_parallel_plan_matches():
    profile = analytic_profile("resnet50")
    stages = [Stage(0, len(profile), 16)]
    details = assert_evaluations_identical(profile, stages, TOPO_A)
    assert details.boundary_times == ()
    assert details.bottleneck_stage == 0


@pytest.mark.parametrize("topo", [
    cluster_a(4), cluster_b(2), cluster_c(4),
    make_cluster("flat8", 8, 1, 40.0, 40.0),
    make_cluster("alpha", 4, 2, 12e9, 1.25e9,
                 intra_allreduce_efficiency=0.1,
                 intra_allreduce_latency=5e-5,
                 inter_allreduce_latency=2e-4),
], ids=lambda t: t.name)
def test_topologies_match(topo):
    """Hierarchies with different depths, efficiencies and per-collective
    latencies all agree bitwise."""
    profile = analytic_profile("gnmt8")
    total = topo.total_workers
    stages = balanced_straight_stages(profile, min(4, total))
    assert_evaluations_identical(profile, stages, topo)
    if total >= 4:
        assert_evaluations_identical(profile, replicated_plan(profile, total),
                                     topo)


def test_bottleneck_stage_is_argmax():
    profile = analytic_profile("vgg16")
    details = evaluate_partition_details(
        profile, replicated_plan(profile, 16), TOPO_A)
    assert details.stage_times[details.bottleneck_stage] == max(
        details.stage_times)


# ----------------------------------------------------------------------
# Hypothesis fuzz: random profiles × random topologies × random plans.
# ----------------------------------------------------------------------

layer_specs = st.lists(
    st.tuples(
        st.floats(0.05, 10.0, allow_nan=False),  # compute time
        st.integers(0, 100_000),                 # activation bytes
        st.integers(0, 1_000_000),               # weight bytes
        st.sampled_from(["conv", "fc", "lstm", "embedding"]),
    ),
    min_size=2,
    max_size=7,
)


def build_profile(spec):
    layers = [LayerProfile(f"l{i}", c, a, w, kind=k)
              for i, (c, a, w, k) in enumerate(spec)]
    return ModelProfile("fuzz", layers, batch_size=1)


class TestEvaluatorFuzz:
    @given(
        spec=layer_specs,
        gpus=st.integers(2, 4),
        servers=st.integers(1, 3),
        intra=st.floats(1.0, 1000.0, allow_nan=False),
        inter=st.floats(0.5, 100.0, allow_nan=False),
        intra_eff=st.floats(0.05, 1.0, allow_nan=False),
        inter_eff=st.floats(0.05, 1.0, allow_nan=False),
        intra_alpha=st.sampled_from([0.0, 0.0, 1e-3, 0.5]),
        inter_alpha=st.sampled_from([0.0, 0.0, 2e-3, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_plan_matches(self, spec, gpus, servers, intra, inter,
                                 intra_eff, inter_eff, intra_alpha,
                                 inter_alpha, data):
        profile = build_profile(spec)
        topo = make_cluster("fuzz", gpus, servers, intra, inter,
                            intra_allreduce_efficiency=intra_eff,
                            inter_allreduce_efficiency=inter_eff,
                            intra_allreduce_latency=intra_alpha,
                            inter_allreduce_latency=inter_alpha)
        total = topo.total_workers
        num_layers = len(profile)
        num_stages = data.draw(
            st.integers(1, min(num_layers, total)), label="num_stages")
        cuts = sorted(data.draw(
            st.lists(st.integers(1, num_layers - 1), min_size=num_stages - 1,
                     max_size=num_stages - 1, unique=True),
            label="cuts")) if num_stages > 1 else []
        bounds = [0] + cuts + [num_layers]
        # Replicas x tp degree per stage, packed so the total never
        # exceeds the cluster (the evaluator's contract: contiguous
        # in-range groups).
        budget = total - num_stages
        stages = []
        for b, e in zip(bounds, bounds[1:]):
            t = data.draw(st.sampled_from([1, 1, 2, 3]), label="tp")
            if t - 1 > budget:
                t = 1
            r = data.draw(st.integers(1, 1 + (budget - (t - 1)) // t),
                          label="replicas")
            budget -= r * t - 1
            stages.append(Stage(b, e, r, tp_degree=t,
                                recompute=data.draw(st.booleans(),
                                                    label="recompute")))
        assert_evaluations_identical(profile, stages, topo)
