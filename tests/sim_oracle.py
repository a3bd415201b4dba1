"""The op-level rescan simulator: the differential oracle for
:func:`repro.sim.executor.simulate`.

:class:`ReferenceSim` is the simulator's original main loop, kept
verbatim: every iteration re-evaluates each worker's head :class:`Op`
and commits the globally earliest startable one (lowest worker rank on
ties), O(ops x workers).  It shares only the per-stage prices
(:func:`repro.sim.executor.price_stages`) with the compiled loop; the
readiness rules, commit arithmetic, transfers, update rounds and fault
handling are its own, so the compiled loop must reproduce its timeline
bitwise.

``oracle_simulate`` runs it; ``use_oracle`` routes the strategy drivers
(and everything built on them: sweeps, the elastic loop) through it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import repro.sim.strategies as strategies
from repro.core.profile import ModelProfile
from repro.core.schedule import Op, OpKind, Schedule
from repro.core.topology import Topology
from repro.sim.executor import SimOptions, SimResult, price_stages


class ReferenceSim:
    """The op-level rescan simulator: state and commit semantics.

    Bookkeeping uses *flattened* integer keys instead of tuples: a
    (stage, minibatch) pair maps to ``stage * B + minibatch`` (``B`` =
    number of minibatches).
    """

    __slots__ = (
        "schedule", "options", "stages", "last_stage", "B", "S",
        "fwd_time", "bwd_time", "bwd_w_time", "boundary_bytes",
        "sync_duration", "sync_stream", "sync_deferred",
        "placement", "workers", "ops_by_rank", "stage_workers_list",
        "replicas", "round_div", "round_expected", "gated_forward",
        "pipedream_gate", "is_bsp", "is_gpipe",
        "worker_free", "speed", "channel_free", "channel_busy",
        "nic_send_free", "nic_recv_free", "sync_free", "sync_busy",
        "arrivals_f", "arrivals_b", "fwd_end", "bwd_start", "update_done",
        "round_backwards", "minibatch_done", "records", "compute_time",
        "nk", "_bw_cache",
        "faults", "halt_time", "halted", "_lvl_cache",
        "bucket_durs", "bucket_fracs", "sync_exposed",
    )

    def __init__(
        self,
        schedule: Schedule,
        profile: ModelProfile,
        topology: Topology,
        options: SimOptions,
    ):
        self.schedule = schedule
        self.options = options
        stages = schedule.stages
        self.stages = stages
        self.last_stage = len(stages) - 1
        self.S = len(stages)
        self.B = max(1, schedule.num_minibatches)
        pricing = price_stages(schedule, profile, topology, options)
        self.placement = pricing.placement
        self.fwd_time = pricing.fwd_time
        self.bwd_time = pricing.bwd_time
        self.bwd_w_time = pricing.bwd_w_time
        self.boundary_bytes = pricing.boundary_bytes
        self.sync_duration = pricing.sync_duration
        self.sync_stream = pricing.sync_stream
        self.sync_deferred = pricing.sync_deferred
        self.bucket_durs = pricing.bucket_durs
        self.bucket_fracs = pricing.bucket_fracs

        # Commit-order tie-breaking follows the worker_ops iteration order.
        self.workers = list(schedule.worker_ops)
        self.ops_by_rank = [schedule.worker_ops[w] for w in self.workers]
        self.stage_workers_list = [schedule.stage_workers[s] for s in range(self.S)]
        self.replicas = [stage.replicas for stage in stages]

        # Synchronization round of minibatch b at stage s is b // round_div[s]
        # (see round semantics below); precomputed per stage.
        if options.sync_mode == "bsp":
            self.round_div = [1] * self.S
        elif options.sync_mode == "gpipe":
            self.round_div = [max(1, options.microbatches_per_batch)] * self.S
        else:
            self.round_div = [stage.replicas for stage in stages]
        self.gated_forward = options.sync_mode in ("bsp", "gpipe")
        self.pipedream_gate = options.sync_mode == "pipedream"
        self.is_bsp = options.sync_mode == "bsp"
        self.is_gpipe = options.sync_mode == "gpipe"

        # Per-round membership comes from the ops the schedule actually
        # emits, not from an assumed round-robin minibatch→replica
        # assignment.  A round-robin 1F1B schedule has one UPDATE per
        # minibatch in a round, but ``data_parallel_schedule`` runs every
        # minibatch on every replica — under ``sync_mode="pipedream"`` the
        # old ``min(per, B - rnd*per)`` closed those rounds after the first
        # sweep's worth of commits and then *re*-committed them on each
        # later arrival, making ``update_done`` (and the rnd-2 backward
        # gate reading it) depend on replica commit order.  Counting the
        # schedule's own UPDATEs gives every round its true membership for
        # any schedule shape.
        round_expected: Dict[int, int] = defaultdict(int)
        for ops in self.ops_by_rank:
            for op in ops:
                if op.kind is OpKind.UPDATE:
                    s = op.stage
                    round_expected[
                        s * self.B + op.minibatch // self.round_div[s]
                    ] += 1
        self.round_expected = dict(round_expected)

        self.worker_free = {w: 0.0 for w in self.workers}
        self.speed = {w: options.speed_of(w) for w in self.workers}
        self.channel_free: Dict[Tuple[int, int], float] = defaultdict(float)
        self.channel_busy: Dict[Tuple[int, int], float] = defaultdict(float)
        self.nic_send_free: Dict[int, float] = defaultdict(float)
        self.nic_recv_free: Dict[int, float] = defaultdict(float)
        self.sync_free = [0.0] * self.S
        self.sync_busy: Dict[int, float] = defaultdict(float)
        self.sync_exposed: Dict[int, float] = defaultdict(float)

        self.arrivals_f: Dict[int, float] = {}
        self.arrivals_b: Dict[int, float] = {}
        # fwd_end / bwd_start are keyed ``worker * nk + s * B + b``: a
        # worker's backward consumes *its own* forward's activations, and a
        # BSP round collects each member's own backward start.  A shared
        # (s, b) key would collide when a replicated stage runs the same
        # minibatch id on every worker (data-parallel schedules), making
        # results depend on replica commit order under stragglers.
        self.fwd_end: Dict[int, float] = {}
        self.bwd_start: Dict[int, float] = {}
        self.update_done: Dict[int, float] = {}
        self.round_backwards: Dict[int, List[Tuple[float, float]]] = {}
        self.minibatch_done: Dict[int, float] = {}
        self.records: List[Tuple[int, Op, float, float]] = []
        self.compute_time: Dict[int, float] = defaultdict(float)

        self.nk = self.S * self.B
        self._bw_cache: Dict[Tuple[int, int], float] = {}
        self._lvl_cache: Dict[Tuple[int, int], int] = {}

        # An empty schedule is normalized away so the empty case takes
        # the exact fault-free code paths — the bitwise no-op guarantee
        # is structural, not arithmetic.
        faults = options.faults
        if faults is not None and not faults:
            faults = None
        self.faults = faults
        self.halt_time = faults.halt_time if faults is not None else None
        self.halted = False

    # ------------------------------------------------------------------
    # Round semantics
    # ------------------------------------------------------------------
    # BSP: every worker processes (its shard of) every minibatch, so each
    # minibatch is one collective round.  GPipe: one round per batch of
    # microbatches.  PipeDream: replicas round-robin over minibatches, so a
    # round is one sweep across the stage's replicas.

    def _round_members(self, stage_index: int, rnd: int) -> int:
        """How many UPDATE ops make up this round (tail rounds are short).

        Read off the schedule itself (see ``round_expected`` in
        ``__init__``): one per replica-and-minibatch for data-parallel
        schedules, one per minibatch for round-robin 1F1B, one aggregated
        per batch for GPipe.
        """
        return self.round_expected.get(stage_index * self.B + rnd, 1)

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------
    def _ready(self, worker: int, op: Op) -> Optional[float]:
        """Earliest start for ``op``, or None if a dependency is unresolved."""
        t = self.worker_free[worker]
        kind = op.kind
        if kind is OpKind.UPDATE or kind is OpKind.BACKWARD_W:
            # UPDATE and the 2BP grad-weight op run right after their
            # backward on the same worker — no cross-worker dependency.
            return t
        s = op.stage
        sB = s * self.B
        b = op.minibatch
        if kind is OpKind.FORWARD:
            if s > 0:
                arrival = self.arrivals_f.get(sB + b)
                if arrival is None:
                    return None
                if arrival > t:
                    t = arrival
            if self.gated_forward:
                rnd = b // self.round_div[s]
                if rnd > 0:
                    gate = self.update_done.get(sB + rnd - 1)
                    if gate is None:
                        return None
                    if gate > t:
                        t = gate
            return t
        # BACKWARD
        if s == self.last_stage:
            end = self.fwd_end.get(worker * self.nk + sB + b)
            if end is None:
                return None
            if end > t:
                t = end
        else:
            arrival = self.arrivals_b.get(sB + b)
            if arrival is None:
                return None
            if arrival > t:
                t = arrival
        if self.pipedream_gate and self.replicas[s] > 1:
            rnd = b // self.round_div[s]
            if rnd >= 2:
                gate = self.update_done.get(sB + rnd - 2)
                if gate is None:
                    return None
                if gate > t:
                    t = gate
        return t

    # ------------------------------------------------------------------
    # Commit semantics
    # ------------------------------------------------------------------
    def execute(self, worker: int, op: Op, start: float) -> float:
        s = op.stage
        b = op.minibatch
        sB = s * self.B
        kind = op.kind
        if kind is OpKind.FORWARD:
            dur = self.fwd_time[s] / self.speed[worker]
            if self.faults is None:
                end = start + dur
            else:
                end = self.faults.compute_end(worker, start, dur)
                dur = end - start
            self.fwd_end[worker * self.nk + sB + b] = end
            self.compute_time[worker] += dur
            if s < self.last_stage:
                group = self.stage_workers_list[s + 1]
                dst = group[b % len(group)]
                self._send(worker, dst, self.boundary_bytes[s], end,
                           self.arrivals_f, sB + self.B + b)
            self.worker_free[worker] = end
        elif kind is OpKind.BACKWARD:
            dur = self.bwd_time[s] / self.speed[worker]
            if self.faults is None:
                end = start + dur
            else:
                end = self.faults.compute_end(worker, start, dur)
                dur = end - start
            self.bwd_start[worker * self.nk + sB + b] = start
            self.compute_time[worker] += dur
            if s > 0:
                group = self.stage_workers_list[s - 1]
                dst = group[b % len(group)]
                self._send(worker, dst, self.boundary_bytes[s - 1], end,
                           self.arrivals_b, sB - self.B + b)
            else:
                # Data-parallel replicas all run minibatch b: it is done
                # when the last of their backwards ends.
                done = self.minibatch_done.get(b)
                if done is None or end > done:
                    self.minibatch_done[b] = end
            self.worker_free[worker] = end
        elif kind is OpKind.BACKWARD_W:
            # 2BP grad-weight half: pure local compute — no sends.  It sits between the grad-input backward and
            # the round's UPDATE, so the update still starts at the
            # unsplit backward's end time while the upstream gradient
            # left one grad-weight duration earlier.
            dur = self.bwd_w_time[s] / self.speed[worker]
            if self.faults is None:
                end = start + dur
            else:
                end = self.faults.compute_end(worker, start, dur)
                dur = end - start
            self.compute_time[worker] += dur
            self.worker_free[worker] = end
        else:  # UPDATE
            end = self._execute_update(worker, op, start)
        self.records.append((worker, op, start, end))
        return end

    def _link_bandwidth(self, src: int, dst: int) -> float:
        cached = self._bw_cache.get((src, dst))
        if cached is None:
            cached = self.placement.link_bandwidth(src, dst)
            self._bw_cache[(src, dst)] = cached
        return cached

    def _link_level(self, src: int, dst: int) -> int:
        cached = self._lvl_cache.get((src, dst))
        if cached is None:
            cached = self.placement.link_level(src, dst)
            self._lvl_cache[(src, dst)] = cached
        return cached

    def _send(self, src: int, dst: int, num_bytes: float, ready: float,
              arrivals: Dict[int, float], key: int) -> None:
        if src == dst or num_bytes <= 0:
            arrivals[key] = ready
            return
        duration = num_bytes / self._link_bandwidth(src, dst)
        begin = max(ready, self.channel_free[(src, dst)])
        if self.options.nic_contention:
            begin = max(begin, self.nic_send_free[src], self.nic_recv_free[dst])
        if self.faults is not None:
            duration *= self.faults.bandwidth_factor(
                src, dst, begin, self._link_level(src, dst))
        if self.options.nic_contention:
            self.nic_send_free[src] = begin + duration
            self.nic_recv_free[dst] = begin + duration
        self.channel_free[(src, dst)] = begin + duration
        self.channel_busy[(src, dst)] += duration
        arrivals[key] = begin + duration

    def _execute_update(self, worker: int, op: Op, start: float) -> float:
        s = op.stage
        b = op.minibatch
        rnd = b // self.round_div[s]
        sBr = s * self.B + rnd
        is_bsp = self.is_bsp
        if self.is_gpipe or (not is_bsp and self.replicas[s] == 1):
            members = 1
        else:
            members = self.round_expected.get(sBr, 1)
        if members == 1 and not is_bsp:
            # Single-member round (straight 1F1B, GPipe): the general path
            # below specialized to one backward — sync starts when it ends.
            duration = self.sync_duration[s]
            sync_free = self.sync_free[s]
            done = (start if start >= sync_free else sync_free) + duration
            self.sync_free[s] = done
            self.sync_busy[s] += duration
            if duration > 0:
                self.sync_exposed[s] += done - start
            self.update_done[sBr] = done
            self.worker_free[worker] = start  # async commit; not blocked
            return start if duration == 0 else done
        bwd_start = self.bwd_start.get(worker * self.nk + s * self.B + b, start)
        backwards = self.round_backwards.get(sBr)
        if backwards is None:
            backwards = self.round_backwards[sBr] = []
        backwards.append((bwd_start, start))
        if len(backwards) < members:
            # Not the last replica of the round: update commits later, the
            # worker moves on (the round's completion is handled below).
            self.worker_free[worker] = start
            return start
        starts = [x[0] for x in backwards]
        ends = [x[1] for x in backwards]
        duration = self.sync_duration[s]
        last_end = max(ends)
        if self.bucket_durs is not None:
            # Bucketed wait-free backprop: each bucket's collective fires
            # once every member's backward has produced its last gradient
            # (the bucket's ready fraction, interpolated on each member's
            # own backward window) and the stage sync channel is free;
            # buckets serialize on the channel in firing order.  The
            # BPTT-deferred payload exists only after every backward ends,
            # so it runs strictly last.  Applies to BSP and pipedream
            # rounds alike — with no buckets (pure-deferred stage) both
            # legacy formulas reduce to this same expression.
            t = self.sync_free[s]
            fracs = self.bucket_fracs[s]
            for i, dur in enumerate(self.bucket_durs[s]):
                frac = fracs[i]
                ready = max(st + frac * (en - st) for st, en in backwards)
                if ready > t:
                    t = ready
                t += dur
            done = (t if t > last_end else last_end) + self.sync_deferred[s]
        elif is_bsp:
            # Wait-free backprop: streamable gradients overlap the backward
            # pass; BPTT-deferred gradients only start when it ends.
            sync_start = max(max(starts), self.sync_free[s])
            done = max(last_end, sync_start + self.sync_stream[s]) + self.sync_deferred[s]
        else:
            sync_start = max(last_end, self.sync_free[s])
            done = sync_start + duration
        self.sync_free[s] = done
        self.sync_busy[s] += duration
        if duration > 0:
            self.sync_exposed[s] += done - last_end
        self.update_done[sBr] = done
        if is_bsp:
            # Blocking: every replica of the stage resumes after commit.
            for w in self.stage_workers_list[s]:
                if self.worker_free[w] < done:
                    self.worker_free[w] = done
            return done
        self.worker_free[worker] = start  # async commit; worker not blocked
        return start if duration == 0 else done

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _deadlock(self, pointers: Dict[int, int]) -> RuntimeError:
        stuck = {
            w: self.schedule.worker_ops[w][pointers[w]]
            for w in self.schedule.worker_ops
            if pointers[w] < len(self.schedule.worker_ops[w])
        }
        return RuntimeError(f"simulation deadlocked; blocked ops: {stuck}")

    def run_reference(self) -> None:
        """Original O(total_ops × workers) loop: commit the globally
        earliest ready op, rescanning every worker's head op each time."""
        pointers = {w: 0 for w in self.workers}
        total_ops = sum(len(ops) for ops in self.ops_by_rank)
        committed = 0
        halt = self.halt_time
        while committed < total_ops:
            best_worker = None
            best_time = math.inf
            for rank, worker in enumerate(self.workers):
                ops = self.ops_by_rank[rank]
                idx = pointers[worker]
                if idx >= len(ops):
                    continue
                t = self._ready(worker, ops[idx])
                if t is not None and t < best_time:
                    best_time = t
                    best_worker = worker
            if best_worker is None:
                raise self._deadlock(pointers)
            if halt is not None and best_time >= halt:
                # A worker crashed: the globally earliest startable op is
                # already past the crash instant, so nothing else starts.
                self.halted = True
                return
            op = self.schedule.worker_ops[best_worker][pointers[best_worker]]
            self.execute(best_worker, op, best_time)
            pointers[best_worker] += 1
            committed += 1

    def result(self) -> SimResult:
        total_time = max((r[3] for r in self.records), default=0.0)
        return SimResult(
            raw_records=self.records,
            total_time=total_time,
            num_minibatches=self.schedule.num_minibatches,
            num_workers=self.schedule.num_workers,
            compute_time_per_worker=dict(self.compute_time),
            channel_busy=dict(self.channel_busy),
            sync_busy=dict(self.sync_busy),
            minibatch_done=self.minibatch_done,
            halted_at=self.halt_time if self.halted else None,
            sync_exposed=dict(self.sync_exposed),
        )


def oracle_simulate(
    schedule: Schedule,
    profile: ModelProfile,
    topology: Topology,
    options: Optional[SimOptions] = None,
) -> SimResult:
    """:func:`repro.sim.executor.simulate`, computed by the rescan loop."""
    core = ReferenceSim(schedule, profile, topology, options or SimOptions())
    core.run_reference()
    return core.result()


@contextmanager
def use_oracle():
    """Run the strategy drivers on :func:`oracle_simulate` inside the
    block (serial sweeps and the elastic loop included)."""
    original = strategies.simulate
    strategies.simulate = oracle_simulate
    try:
        yield
    finally:
        strategies.simulate = original
