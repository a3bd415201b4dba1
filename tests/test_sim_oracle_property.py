"""The compiled heap loop against the op-level rescan oracle.

1. **Property** — for random hand-made profiles, stage splits (replicas
   and tensor-parallel degrees), minibatch counts, sync modes, 2BP
   splitting, NIC contention, gradient bucketing, stragglers and seeded
   fault schedules (crashes included), :func:`simulate` and
   ``tests/sim_oracle.py`` produce bitwise-identical results.
2. **Deadlock** — schedules that cannot run raise the same
   ``RuntimeError`` from both.  The one-stage case guards the compile
   step's dropped last-stage backward-after-forward dependency: only a
   backward placed *ahead* of its own forward could ever wait on it.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    Op,
    OpKind,
    Schedule,
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    split_backward_schedule,
)
from repro.core.topology import make_cluster
from repro.sim.executor import SimOptions, simulate
from repro.sim.faults import FaultSchedule
from tests.sim_oracle import oracle_simulate
from tests.test_sim_engine_equiv import assert_engines_identical

#: 4 servers x 4 workers: room for every generated plan.
TOPO = make_cluster("t16", 4, 4, 40.0, 8.0, intra_allreduce_latency=0.01,
                    inter_allreduce_latency=0.05)


@st.composite
def profiles(draw):
    n = draw(st.integers(2, 6))
    layers = [
        LayerProfile(
            f"l{i}",
            draw(st.floats(0.5, 10.0, allow_nan=False)),
            draw(st.integers(0, 400)),
            draw(st.integers(0, 600)),
            kind=draw(st.sampled_from(["conv", "fc", "lstm", "relu"])),
        )
        for i in range(n)
    ]
    return ModelProfile("fuzz", layers, batch_size=1)


@st.composite
def scenarios(draw):
    """``(schedule, profile, options)`` for one simulated run."""
    profile = draw(profiles())
    n = len(profile)
    minibatches = draw(st.integers(1, 9))
    mode = draw(st.sampled_from(["pipedream", "bsp", "gpipe"]))
    tp_stages = False
    if mode == "bsp":
        # Synchronous rounds: data parallelism, or a straight pipeline
        # running one minibatch at a time.
        if draw(st.booleans()):
            schedule = data_parallel_schedule(
                draw(st.integers(1, 6)), minibatches, num_layers=n)
        else:
            cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
            schedule = model_parallel_schedule(
                len(cuts) + 1, minibatches,
                layer_bounds=list(zip([0] + cuts, cuts + [n])))
        options = SimOptions(sync_mode="bsp")
    elif mode == "gpipe":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
        micro = draw(st.integers(1, 3))
        schedule = gpipe_schedule(
            len(cuts) + 1, draw(st.integers(1, 3)), micro,
            layer_bounds=list(zip([0] + cuts, cuts + [n])))
        options = SimOptions(sync_mode="gpipe", microbatches_per_batch=micro,
                             recompute_activations=draw(st.booleans()))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
        bounds = list(zip([0] + cuts, cuts + [n]))
        stages = [
            Stage(a, b, draw(st.integers(1, 3)),
                  tp_degree=draw(st.sampled_from([1, 1, 2])),
                  recompute=draw(st.booleans()))
            for a, b in bounds
        ]
        tp_stages = any(s.tp_degree > 1 for s in stages)
        depth = draw(st.one_of(st.none(), st.integers(1, 4)))
        schedule = one_f_one_b_rr_schedule(
            stages, minibatches, in_flight_per_replica=depth)
        options = SimOptions(sync_mode="pipedream")
    if draw(st.booleans()):
        schedule = split_backward_schedule(schedule)
    workers = schedule.num_workers
    speeds = draw(st.dictionaries(
        st.integers(0, workers - 1), st.floats(0.3, 3.0, allow_nan=False),
        max_size=2))
    bucket = None if tp_stages else draw(
        st.sampled_from([None, None, 150.0, 400.0]))
    options = dataclasses.replace(
        options, worker_speed=speeds or None,
        nic_contention=draw(st.booleans()), bucket_bytes=bucket)
    fault_seed = draw(st.one_of(st.none(), st.integers(0, 2 ** 16)))
    crashes = draw(st.integers(0, 1))
    return schedule, profile, options, fault_seed, crashes


class TestCompiledLoopMatchesOracle:
    @given(scenario=scenarios())
    @settings(max_examples=150, deadline=None)
    def test_property(self, scenario):
        schedule, profile, options, fault_seed, crashes = scenario
        clean = assert_engines_identical(schedule, profile, TOPO, options)
        if fault_seed is None or clean.total_time <= 0:
            return
        faults = FaultSchedule.generate(
            fault_seed, schedule.num_workers, clean.total_time,
            crashes=crashes, stragglers=2, degradations=1)
        assert_engines_identical(schedule, profile, TOPO,
                                 dataclasses.replace(options, faults=faults))


# ----------------------------------------------------------------------
# Schedules that cannot run
# ----------------------------------------------------------------------

PROFILE = ModelProfile(
    "toy", [LayerProfile(f"l{i}", 1.0, 100, 100) for i in range(2)],
    batch_size=1)
FLAT = make_cluster("t2", 2, 1, 10.0, 10.0)


def _cross_wait():
    """Stage 0 runs its first backward before any forward: it waits on
    stage 1's gradient, which waits on stage 0's activation."""
    return Schedule(
        [Stage(0, 1, 1), Stage(1, 2, 1)], 2,
        {0: [Op(OpKind.BACKWARD, 0, 0), Op(OpKind.FORWARD, 0, 0),
             Op(OpKind.FORWARD, 0, 1), Op(OpKind.BACKWARD, 0, 1)],
         1: [Op(OpKind.FORWARD, 1, 0), Op(OpKind.BACKWARD, 1, 0),
             Op(OpKind.FORWARD, 1, 1), Op(OpKind.BACKWARD, 1, 1)]},
        {0: [0], 1: [1]}, noam=2)


def _backward_first():
    """A one-stage schedule whose B0 precedes its own F0."""
    return Schedule(
        [Stage(0, 2, 1)], 1,
        {0: [Op(OpKind.BACKWARD, 0, 0), Op(OpKind.FORWARD, 0, 0),
             Op(OpKind.UPDATE, 0, 0)]},
        {0: [0]}, noam=1)


def _backward_first_mid_run():
    """Two replicas; one runs minibatch 0 cleanly, then puts B1 ahead of
    F1 — the stuck op is mid-list and the other replica finishes."""
    return Schedule(
        [Stage(0, 2, 2)], 2,
        {0: [Op(OpKind.FORWARD, 0, 0), Op(OpKind.BACKWARD, 0, 0),
             Op(OpKind.UPDATE, 0, 0), Op(OpKind.BACKWARD, 0, 1),
             Op(OpKind.FORWARD, 0, 1), Op(OpKind.UPDATE, 0, 1)],
         1: [Op(OpKind.FORWARD, 0, 1), Op(OpKind.BACKWARD, 0, 1),
             Op(OpKind.UPDATE, 0, 1)]},
        {0: [0, 1]}, noam=1)


DEADLOCKS = {
    "cross_wait_two_stage": (_cross_wait, "{0: B0@s0, 1: F0@s1}"),
    "backward_before_forward": (_backward_first, "{0: B0@s0}"),
    "backward_before_forward_mid_run": (_backward_first_mid_run,
                                        "{0: B1@s0}"),
}


@pytest.mark.parametrize("name", sorted(DEADLOCKS))
@pytest.mark.parametrize("engine", [oracle_simulate, simulate],
                         ids=["reference", "event"])
def test_deadlock_raises(name, engine):
    build, stuck = DEADLOCKS[name]
    with pytest.raises(RuntimeError) as info:
        engine(build(), PROFILE, FLAT)
    assert str(info.value) == f"simulation deadlocked; blocked ops: {stuck}"


def test_deadlock_raised_before_a_later_crash():
    """A crash after the stall does not mask the deadlock."""
    from repro.sim.faults import FaultEvent

    options = SimOptions(faults=FaultSchedule([FaultEvent("crash", 1e9, 0)]))
    for engine in (oracle_simulate, simulate):
        with pytest.raises(RuntimeError, match="deadlocked"):
            engine(_backward_first(), PROFILE, FLAT, options)


def test_bsp_commit_restamps_queued_heads():
    """A BSP round commit pushes every replica's free time forward; a
    replica whose next op was already queued must start no earlier.

    Builder schedules never reach this (every replica is a member of
    each round, so their next forwards wait on the commit instead of
    sitting queued); here worker 1 runs no updates, so its queued B0 is
    re-stamped by worker 0's U0.
    """
    sched = Schedule(
        [Stage(0, 2, 2)], 1,
        {0: [Op(OpKind.FORWARD, 0, 0), Op(OpKind.BACKWARD, 0, 0),
             Op(OpKind.UPDATE, 0, 0)],
         1: [Op(OpKind.FORWARD, 0, 0), Op(OpKind.BACKWARD, 0, 0)]},
        {0: [0, 1]}, noam=1)
    options = SimOptions(sync_mode="bsp", worker_speed={1: 0.2})
    sim = assert_engines_identical(sched, PROFILE, FLAT, options)
    update, = [r for r in sim.records if r.op.kind is OpKind.UPDATE]
    late, = [r for r in sim.records
             if r.worker == 1 and r.op.kind is OpKind.BACKWARD]
    assert late.start == update.end > update.start
