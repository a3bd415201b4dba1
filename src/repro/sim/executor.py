"""Event-driven execution of a static schedule on a simulated cluster.

The executor walks every worker's op list in order, assigning each op the
earliest start compatible with (a) the worker being free, (b) its data
dependencies having *arrived* over the (contended, FIFO) point-to-point
channels, and (c) the weight-synchronization semantics of the strategy
being simulated:

- ``"pipedream"`` — updates are asynchronous: the stage's all_reduce (for
  replicated stages) occupies a per-stage sync resource but does not block
  the worker; a worker may run at most two rounds ahead of its stage's
  committed updates (a bounded-staleness buffer), which is what turns a
  sync bottleneck into the ``max(compute, comm)/m`` throughput of §3.1.
- ``"bsp"`` — wait-free backpropagation: the all_reduce overlaps the
  backward pass that produces it, and the *next forward* blocks until the
  round's update commits (data parallelism, §2.1).
- ``"gpipe"`` — pipeline flush: forwards of batch ``k+1`` wait for batch
  ``k``'s update; optional activation recomputation inflates backwards.

Compile, then run.  :func:`price_stages` prices every stage once (compute,
boundary transfers, weight sync); :func:`_compile` turns the schedule's
packed per-worker op codes (``minibatch << 2 | kind``) into per-rank
tables — durations, dependency / update-gate / output event-slot bases,
per-destination ``(channel, transfer seconds)`` pairs — and per-round
membership counts; :func:`_run` is the one heap loop over those arrays.
Every dependency resolves into a slot of one flat event-time array, and a
blocked worker parks on exactly that slot.  Fault injection is a time
transform at one site each — compute end (:meth:`FaultSchedule.compute_end`),
transfer duration (:meth:`FaultSchedule.bandwidth_factor`) and the crash
halt — so the fault-free and faulted runs are the same loop.  The loop is
differentially tested against an op-level rescan oracle kept in the test
suite.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partition import Stage, _eval_tables
from repro.core.profile import ModelProfile
from repro.core.schedule import B_CODE, F_CODE, U_CODE, Op, Schedule
from repro.core.topology import Topology
from repro.sim.faults import FaultSchedule
from repro.sim.memory import stage_deferred_weight_bytes
from repro.sim.network import (
    Placement, allreduce_time, tp_boundary_allreduce_times,
)


@dataclass(slots=True)
class SimOptions:
    """Execution semantics knobs (see module docstring)."""

    sync_mode: str = "pipedream"  # "pipedream" | "bsp" | "gpipe"
    recompute_activations: bool = False  # GPipe's memory/compute trade
    microbatches_per_batch: int = 1  # for gpipe round bookkeeping
    worker_speed: Optional[Dict[int, float]] = None  # straggler modelling
    #: When True, every worker has one half-duplex NIC per direction:
    #: concurrent transfers sharing a source (or a destination) serialize
    #: instead of using independent per-pair channels.  Models shared PCIe
    #: and single-port Ethernet more faithfully; off by default so the
    #: calibrated Figure 1 shapes stay put.
    nic_contention: bool = False
    #: Deterministic fault injection (crash / straggler / bandwidth
    #: degradation at simulated timestamps).  None or an empty schedule
    #: runs the fault-free arithmetic — the timeline is bitwise
    #: identical to a fault-free run.
    faults: Optional[FaultSchedule] = None
    #: Gradient-fusion granularity.  ``None`` (default) keeps the legacy
    #: single-payload sync model and every pre-bucketing timeline bitwise
    #: intact.  A positive value fuses each replicated stage's streamable
    #: gradients into buckets of at most this many bytes
    #: (:mod:`repro.comm.bucketing`) and replaces the round's one UPDATE
    #: collective with per-bucket collectives, each firing as soon as
    #: every round member's backward has produced the bucket's last
    #: gradient — wait-free backprop at bucket granularity.  The
    #: BPTT-deferred payload stays one post-backward collective.
    bucket_bytes: Optional[float] = None

    def __post_init__(self):
        if self.sync_mode not in ("pipedream", "bsp", "gpipe"):
            raise ValueError(f"unknown sync mode {self.sync_mode!r}")
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise TypeError("faults must be a FaultSchedule or None")
        if self.bucket_bytes is not None and self.bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")
        if self.worker_speed is not None:
            for worker, speed in self.worker_speed.items():
                if speed <= 0:
                    raise ValueError(f"worker {worker} speed must be positive")

    def speed_of(self, worker: int) -> float:
        if self.worker_speed is None:
            return 1.0
        return self.worker_speed.get(worker, 1.0)


@dataclass(frozen=True, slots=True)
class OpRecord:
    worker: int
    op: Op
    start: float
    end: float




class CommitLog(SequenceABC):
    """The committed ops of one run as ``(worker, op, start, end)`` rows.

    The loop logs only global op indices in commit order plus per-op
    start/end arrays; the rows (and their :class:`Op` objects) are built
    on first element access.  ``len`` is the number of committed ops.
    """

    __slots__ = ("_schedule", "_commits", "_start", "_end", "_rows")

    def __init__(self, schedule: Schedule, commits: List[int],
                 start: List[float], end: List[float]):
        self._schedule = schedule
        self._commits = commits
        self._start = start
        self._end = end
        self._rows: Optional[List[Tuple[int, Op, float, float]]] = None

    def _materialized(self) -> List[Tuple[int, Op, float, float]]:
        rows = self._rows
        if rows is None:
            ops: List[Op] = []
            owner: List[int] = []
            for worker, seq in self._schedule.worker_ops.items():
                ops.extend(seq)
                owner += [worker] * len(seq)
            start, end = self._start, self._end
            rows = self._rows = [
                (owner[i], ops[i], start[i], end[i]) for i in self._commits
            ]
            self._start = self._end = None
        return rows

    def __len__(self) -> int:
        return len(self._commits)

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self):
        return iter(self._materialized())

    def __eq__(self, other) -> bool:
        if isinstance(other, SequenceABC):
            return self._materialized() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


@dataclass
class SimResult:
    """Timeline and summary statistics of one simulated run.

    :attr:`raw_records` holds the timeline as ``(worker, op, start, end)``
    rows in commit order (built lazily from the loop's commit log);
    :attr:`records` materializes them into :class:`OpRecord` objects on
    first access.  Aggregate-only consumers (the sweeps and strategy
    drivers) never pay for either.
    """

    raw_records: Sequence[Tuple[int, Op, float, float]]
    total_time: float
    num_minibatches: int
    num_workers: int
    compute_time_per_worker: Dict[int, float]
    channel_busy: Dict[Tuple[int, int], float]
    sync_busy: Dict[int, float]
    minibatch_done: Dict[int, float]
    #: Simulated instant a worker crash stopped the run, or None if it
    #: ran to completion.  When set, the timeline holds only the ops that
    #: started strictly before this time.
    halted_at: Optional[float] = None
    #: Per-stage seconds of weight synchronization on the critical path:
    #: how far each round's commit ran past its last backward (or, for
    #: single-member commits, past the committing worker's backward).
    #: ``sync_busy[s] - sync_exposed[s]`` is the share hidden under
    #: compute by wait-free overlap.  Stages that never pay sync are
    #: absent.
    sync_exposed: Dict[int, float] = field(default_factory=dict)
    _records: Optional[List[OpRecord]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def records(self) -> List[OpRecord]:
        recs = self._records
        if recs is None:
            recs = self._records = [
                OpRecord(w, op, start, end)
                for (w, op, start, end) in self.raw_records
            ]
        return recs

    @property
    def throughput(self) -> float:
        """Minibatches per second over the whole run (startup included)."""
        return self.num_minibatches / self.total_time if self.total_time else math.inf

    @property
    def steady_state_throughput(self) -> float:
        """Minibatches/second over the second half (startup excluded)."""
        done = [self.minibatch_done[b] for b in sorted(self.minibatch_done)]
        if len(done) < 4:
            return self.throughput
        half = len(done) // 2
        span = done[-1] - done[half - 1]
        if span <= 0:
            return math.inf
        return (len(done) - half) / span

    @property
    def average_utilization(self) -> float:
        """Mean fraction of time workers spend computing."""
        if self.total_time <= 0:
            return 1.0
        fractions = [
            busy / self.total_time for busy in self.compute_time_per_worker.values()
        ]
        return sum(fractions) / len(fractions)

    @property
    def communication_overhead(self) -> float:
        """Fraction of worker time lost to stalls (Figure 1's metric)."""
        return 1.0 - self.average_utilization

    def worker_timeline(self, worker: int) -> List[OpRecord]:
        return [r for r in self.records if r.worker == worker]




def stage_compute_times(
    profile: ModelProfile, stages: Sequence[Stage], compute_scale: float = 1.0
) -> Tuple[List[float], List[float]]:
    """Per-stage forward and backward durations for one minibatch."""
    fwd, bwd = [], []
    for stage in stages:
        f = sum(layer.forward for layer in profile.layers[stage.start : stage.stop])
        total = profile.compute_time(stage.start, stage.stop)
        fwd.append(f / compute_scale)
        bwd.append((total - f) / compute_scale)
    return fwd, bwd


class StagePricing:
    """Per-stage prices of one (schedule, profile, topology, options).

    ``fwd_time`` / ``bwd_time`` / ``bwd_w_time``: one minibatch's forward,
    (grad-input) backward and 2BP grad-weight seconds at unit worker
    speed, tensor-parallel collectives and recompute folded in;
    ``boundary_bytes[s]``: activation bytes crossing the ``s -> s+1``
    boundary; ``sync_stream`` / ``sync_deferred`` / ``sync_duration``:
    a round's overlappable, post-backward and total all_reduce seconds;
    ``bucket_durs`` / ``bucket_fracs``: per-bucket collective seconds and
    ready fractions when gradients are bucketed (else None).
    """

    __slots__ = (
        "placement", "fwd_time", "bwd_time", "bwd_w_time", "boundary_bytes",
        "sync_duration", "sync_stream", "sync_deferred", "bucket_durs",
        "bucket_fracs",
    )


def price_stages(
    schedule: Schedule,
    profile: ModelProfile,
    topology: Topology,
    options: SimOptions,
) -> StagePricing:
    """Price every stage of ``schedule`` once (see :class:`StagePricing`)."""
    p = StagePricing()
    stages = schedule.stages
    placement = p.placement = Placement(topology)
    fwd_time, bwd_time = stage_compute_times(
        profile, stages, topology.compute_scale
    )
    # Tensor parallelism: a stage's shardable compute divides by its
    # tp_degree (the non-shardable remainder is replicated across the
    # tp group), *before* the 2BP split and recompute transforms — the
    # replayed forward and the grad-weight half operate on the sharded
    # durations.  The boundary-activation collectives are added after
    # those transforms (recompute rebuilds from the already-gathered
    # boundary stash, so it replays compute, not collectives).  Stages
    # at tp_degree == 1 take no branch, keeping the timeline bitwise
    # identical to the two-axis simulator.
    tp_active = any(stage.tp_degree > 1 for stage in stages)
    if tp_active:
        if options.bucket_bytes is not None:
            raise ValueError(
                "bucket_bytes cannot be combined with tensor-parallel "
                "stages: bucketing of sharded gradients is not modeled")
        tables = _eval_tables(profile)
        pst, psf = tables.prefix_shard_time, tables.prefix_shard_forward
        scale = topology.compute_scale
        for s, stage in enumerate(stages):
            t = stage.tp_degree
            if t > 1:
                forward = psf[stage.stop] - psf[stage.start]
                sf = forward / scale
                sb = (pst[stage.stop] - pst[stage.start] - forward) / scale
                fwd_time[s] = fwd_time[s] - sf + sf / t
                bwd_time[s] = bwd_time[s] - sb + sb / t
    # 2BP backward split (schedules with ``backward_split``): the
    # grad-weight half leaves the critical grad-input path *before*
    # recompute is applied — the replayed forward must precede
    # grad-input (it rebuilds the tape), while grad-weight work is
    # pure local math that checkpointing never touches.  The halves
    # conserve the unsplit duration exactly (w = b/2, i = b - w).
    if schedule.backward_split:
        bwd_w_time = [0.5 * b for b in bwd_time]
        bwd_time = [b - w for b, w in zip(bwd_time, bwd_w_time)]
    else:
        bwd_w_time = [0.0] * len(bwd_time)
    if options.recompute_activations:
        bwd_time = [b + f for f, b in zip(fwd_time, bwd_time)]
    elif any(stage.recompute for stage in stages):
        # Planner-chosen per-stage checkpointing: only flagged stages
        # replay their forward; the guard keeps recompute-free plans
        # on the untouched list.
        bwd_time = [
            b + f if stage.recompute else b
            for stage, f, b in zip(stages, fwd_time, bwd_time)
        ]
    if tp_active:
        # Intra-stage collectives, folded into the per-op durations so
        # they are priced through the same precomputed lists:
        # every forward ends with a ring all_reduce of the stage's
        # output-boundary activation over its tp group (allgather of
        # the column-parallel halves — priced on the *last* stage too,
        # so sharded compute is never free), and every backward (past
        # stage 0) runs the reduce-scatter on the input boundary.  The
        # r per-replica groups run concurrently; the stage-wide
        # duration is governed by the slowest group, the same rule the
        # analytic evaluator applies.  Charged per group over the
        # group's own worker ids — never the fused replicas x tp span.
        for s, stage in enumerate(stages):
            t = stage.tp_degree
            if t > 1:
                out_term, in_term = tp_boundary_allreduce_times(
                    placement, schedule.stage_workers[s], t,
                    profile.activation_bytes(stage.stop - 1),
                    (profile.activation_bytes(stage.start - 1)
                     if stage.start > 0 else 0),
                )
                fwd_time[s] = fwd_time[s] + out_term
                bwd_time[s] = bwd_time[s] + in_term
    p.fwd_time = fwd_time
    p.bwd_time = bwd_time
    p.bwd_w_time = bwd_w_time

    p.boundary_bytes = [
        profile.activation_bytes(stage.stop - 1) for stage in stages[:-1]
    ]
    stage_weight_bytes = [
        profile.weight_bytes(stage.start, stage.stop) for stage in stages
    ]

    # All_reduce duration per stage round (zero when unreplicated).  For
    # wait-free backprop the paper's overlap only applies to gradients
    # that are complete *during* the backward pass: conv/fc weight
    # gradients finish when their layer's backward runs, but
    # BPTT-accumulated kinds (LSTM, embedding) keep accumulating until
    # the backward pass ends and therefore cannot be overlapped — the
    # reason DP fares poorly on the paper's translation and
    # language-modelling workloads.
    sync_duration: List[float] = []
    sync_stream: List[float] = []
    sync_deferred: List[float] = []
    for s, stage in enumerate(stages):
        workers = schedule.stage_workers[s]
        # The same decomposition the planner's memory kernel prices:
        # deferred = BPTT-accumulated weights (RECURRENT_KINDS).
        deferred_bytes = stage_deferred_weight_bytes(
            profile, stage.start, stage.stop
        )
        if stage.tp_degree > 1:
            # Each of the t concurrent shard rings syncs its own slice:
            # the replicated (unshardable) weights plus a 1/t shard of
            # the shardable share.  ``workers`` holds one representative
            # per replica (tp-group leaders, strided tp_degree apart),
            # so allreduce_time charges exactly the levels the strided
            # ring crosses.  Deferred (BPTT) weights are unshardable by
            # construction and stay full.
            psw = tables.prefix_shard_weights
            shard_w = psw[stage.stop] - psw[stage.start]
            stream_bytes = ((stage_weight_bytes[s] - deferred_bytes)
                            - shard_w + shard_w / stage.tp_degree)
        else:
            stream_bytes = stage_weight_bytes[s] - deferred_bytes
        sync_stream.append(allreduce_time(placement, workers, stream_bytes))
        sync_deferred.append(allreduce_time(placement, workers, deferred_bytes))
        sync_duration.append(sync_stream[-1] + sync_deferred[-1])
    # Gradient bucketing: pre-price every bucket's collective per stage
    # (same fused spans as the analytic evaluator, from the one shared
    # bucket former).  The stream payload then costs the *sum* of its
    # bucket collectives — each paying the topology's per-collective
    # setup latency again — and the round commit walks them in firing
    # order instead of pricing one monolithic payload.  ``None`` skips
    # all of this and leaves every duration bitwise unchanged.
    bucket_durs: Optional[List[List[float]]] = None
    bucket_fracs: Optional[List[List[float]]] = None
    if options.bucket_bytes is not None:
        from repro.comm.bucketing import gradient_buckets

        bucket_durs = []
        bucket_fracs = []
        for s, stage in enumerate(stages):
            workers = schedule.stage_workers[s]
            buckets = gradient_buckets(
                profile, stage.start, stage.stop, options.bucket_bytes
            )
            durs = [
                allreduce_time(placement, workers, bk.payload_bytes)
                for bk in buckets
            ]
            bucket_durs.append(durs)
            bucket_fracs.append([bk.ready_fraction for bk in buckets])
            sync_stream[s] = sum(durs)
            sync_duration[s] = sync_stream[s] + sync_deferred[s]
    p.bucket_durs = bucket_durs
    p.bucket_fracs = bucket_fracs
    p.sync_duration = sync_duration
    p.sync_stream = sync_stream
    p.sync_deferred = sync_deferred

    return p


class _Program:
    """A schedule compiled for :func:`_run`.

    Ranks index workers in ``worker_ops`` order (the commit tie-break).
    Rank ``r`` runs ``codes[lo[r]:hi[r]]`` — the packed op codes
    ``minibatch << 2 | kind`` of its worker, all of one stage.  ``hi[r]``
    stops short of the full list at a last-stage backward whose own
    forward does not precede it on the worker: that op can never start,
    so the run deadlocks there (see :func:`_compile`).

    Event slots, one flat array: ``[0, nk)`` activation arrivals,
    ``[nk, 2nk)`` gradient arrivals, ``[2nk, 3nk)`` update commits, each
    keyed ``stage * B + minibatch`` (``stage * B + round`` for commits),
    with ``nk = stages * B``.  Per rank, a dependency slot is a base plus
    the op's minibatch (or round); a base of -1 means "none".
    """

    __slots__ = (
        "schedule", "pricing", "nslots", "codes", "workers", "lo", "hi",
        "stage", "fdur", "bdur", "wdur", "fdep", "bdep", "fgate", "bgate",
        "rdiv", "fout", "bout", "fsend", "bsend", "ubase", "usimple",
        "members", "groups", "ch_pair", "id_span", "is_bsp",
        "nic_contention",
    )


def _compile(schedule: Schedule, pricing: StagePricing,
             options: SimOptions) -> _Program:
    """Lay ``schedule`` out for :func:`_run` (see :class:`_Program`).

    The last stage's backward waits on its own forward having ended; on
    its worker that forward commits earlier (``worker_free`` only grows),
    so the wait never binds and is dropped.  Only a backward *ahead of*
    its forward would bind — forever — and truncating the rank there
    reproduces that deadlock.
    """
    stages = schedule.stages
    S = len(stages)
    last = S - 1
    B = max(1, schedule.num_minibatches)
    nk = S * B
    mode = options.sync_mode
    is_bsp = mode == "bsp"
    # Synchronization round of minibatch b at stage s is b // round_div[s]:
    # BSP syncs every minibatch (each worker runs its shard of every
    # one), GPipe once per batch of microbatches, PipeDream once per sweep
    # across the stage's round-robin replicas.
    if is_bsp:
        round_div = [1] * S
    elif mode == "gpipe":
        round_div = [max(1, options.microbatches_per_batch)] * S
    else:
        round_div = [stage.replicas for stage in stages]
    # Stages whose every commit is a single-member round.
    simple = [not is_bsp and (mode == "gpipe" or stage.replicas == 1)
              for stage in stages]

    prog = _Program()
    prog.schedule = schedule
    prog.pricing = pricing
    prog.nslots = 3 * nk
    prog.is_bsp = is_bsp
    prog.nic_contention = options.nic_contention
    worker_codes = schedule.worker_codes
    worker_stage = schedule.worker_stage
    workers = prog.workers = list(worker_codes)
    codes: List[int] = []
    lo: List[int] = []
    hi: List[int] = []
    for w in workers:
        lo.append(len(codes))
        codes += worker_codes[w]
        hi.append(len(codes))
    if codes and (min(codes) < 0 or max(codes) >> 2 >= B):
        raise ValueError(
            f"schedule minibatch ids must lie in [0, {B})")
    prog.codes, prog.lo, prog.hi = codes, lo, hi

    placement = pricing.placement
    channels: Dict[Tuple[int, int], int] = {}

    def link(src: int, dst: int, nbytes: float):
        if src == dst or nbytes <= 0:
            return None
        pair = (src, dst)
        ch = channels.get(pair)
        if ch is None:
            ch = channels[pair] = len(channels)
        return ch, nbytes / placement.link_bandwidth(src, dst)

    fwd, bwd, bwd_w = pricing.fwd_time, pricing.bwd_time, pricing.bwd_w_time
    boundary = pricing.boundary_bytes
    stage_workers = schedule.stage_workers
    prog.stage = []
    prog.fdur, prog.bdur, prog.wdur = [], [], []
    prog.fdep, prog.bdep, prog.fgate, prog.bgate = [], [], [], []
    prog.rdiv, prog.ubase, prog.usimple = [], [], []
    prog.fout, prog.bout, prog.fsend, prog.bsend = [], [], [], []
    gated_forward = mode != "pipedream"
    members: Counter = Counter()
    for r, w in enumerate(workers):
        s = worker_stage[w]
        if not 0 <= s < S:
            raise ValueError(f"worker {w} serves unknown stage {s}")
        speed = options.speed_of(w)
        sB = s * B
        prog.stage.append(s)
        prog.fdur.append(fwd[s] / speed)
        prog.bdur.append(bwd[s] / speed)
        prog.wdur.append(bwd_w[s] / speed)
        prog.fdep.append(sB if s > 0 else -1)
        prog.bdep.append(nk + sB if s < last else -1)
        prog.fgate.append(2 * nk + sB if gated_forward else -1)
        prog.bgate.append(
            2 * nk + sB
            if mode == "pipedream" and stages[s].replicas > 1 else -1)
        prog.rdiv.append(round_div[s])
        prog.ubase.append(2 * nk + sB)
        prog.usimple.append(simple[s])
        if s < last:
            prog.fout.append(sB + B)
            prog.fsend.append([link(w, dst, boundary[s])
                               for dst in stage_workers[s + 1]])
        else:
            prog.fout.append(-1)
            prog.fsend.append(None)
        if s > 0:
            prog.bout.append(nk + sB - B)
            prog.bsend.append([link(w, dst, boundary[s - 1])
                               for dst in stage_workers[s - 1]])
        else:
            prog.bout.append(-1)
            prog.bsend.append(None)
        if not simple[s]:
            # Round membership is read off the UPDATE ops the schedule
            # emits: one per minibatch for round-robin 1F1B, one per
            # replica and minibatch for data-parallel schedules.
            rd, base = round_div[s], 2 * nk + sB
            members.update(base + (c >> 2) // rd
                           for c in worker_codes[w] if c & 3 == U_CODE)
        if s == last and not schedule.forward_first:
            forwards = set()
            for j, c in enumerate(worker_codes[w]):
                if c & 3 == F_CODE:
                    forwards.add(c)
                elif c & 3 == B_CODE and c - B_CODE not in forwards:
                    hi[r] = lo[r] + j
                    break
    prog.members = members
    rank_of = {w: r for r, w in enumerate(workers)}
    prog.groups = [[rank_of[w] for w in stage_workers[s] if w in rank_of]
                   for s in range(S)]
    prog.ch_pair = list(channels)
    ids = [w for group in stage_workers.values() for w in group]
    prog.id_span = max(ids + workers, default=-1) + 1
    return prog


def _deadlock(prog: _Program, ptr: List[int]) -> RuntimeError:
    stuck = {}
    for r, w in enumerate(prog.workers):
        ops = prog.schedule.worker_ops[w]
        idx = ptr[r] - prog.lo[r]
        if idx < len(ops):
            stuck[w] = ops[idx]
    return RuntimeError(f"simulation deadlocked; blocked ops: {stuck}")


def _run(prog: _Program, faults: Optional[FaultSchedule]) -> SimResult:
    """The heap loop: commit the earliest-startable head op, repeatedly.

    Invariant: every rank with ops left is in the heap (head op ready
    when enqueued), parked on exactly one event slot's wait list (head
    op blocked on that event), or the fast-lane candidate ``nxt``.
    Dependencies resolve once and for good, so a queued ready time can
    only go stale when a BSP round commit pushes a whole stage group's
    ``worker_free`` forward; those commits dirty-mark the ranks they
    bumped, and a dirty pop re-clamps against ``worker_free``.  Ready
    times never decrease, so popping ``(time, rank)`` reproduces the
    rescan oracle's earliest-first, lowest-rank-on-ties commit order —
    and the timeline bitwise.

    Faults enter at three sites: a compute op's end
    (``faults.compute_end``), a transfer's duration
    (``faults.bandwidth_factor`` at its contended begin time) and the
    crash halt (nothing starts at or after ``faults.halt_time``; commit
    times are non-decreasing, so the faulted timeline is a prefix).
    """
    # Op kinds are the low two bits of a code: 0 forward, 1 backward,
    # 2 grad-weight, 3 update (``repro.core.schedule.KIND_CODES``).
    schedule = prog.schedule
    pricing = prog.pricing
    codes, workers, lo, hi = prog.codes, prog.workers, prog.lo, prog.hi
    rstage, rdiv, ubase, usimple = prog.stage, prog.rdiv, prog.ubase, prog.usimple
    fdur, bdur, wdur = prog.fdur, prog.bdur, prog.wdur
    fdep, bdep, fgate, bgate = prog.fdep, prog.bdep, prog.fgate, prog.bgate
    fout, bout, fsend, bsend = prog.fout, prog.bout, prog.fsend, prog.bsend
    members, groups, is_bsp = prog.members, prog.groups, prog.is_bsp
    sdur, sstream = pricing.sync_duration, pricing.sync_stream
    sdef = pricing.sync_deferred
    bdurs, bfracs = pricing.bucket_durs, pricing.bucket_fracs
    nranks = len(workers)
    nslots = prog.nslots

    ev: List[Optional[float]] = [None] * nslots
    waiters: List[Optional[List[int]]] = [None] * nslots
    ptr = list(lo)
    wf = [0.0] * nranks
    dirty = [False] * nranks
    compute: List[Optional[float]] = [None] * nranks
    compute_order: List[int] = []
    nchan = len(prog.ch_pair)
    ch_dst = [dst for _, dst in prog.ch_pair]
    ch_free = [0.0] * nchan
    ch_busy: List[Optional[float]] = [None] * nchan
    ch_order: List[int] = []
    nic = prog.nic_contention
    nic_send = [0.0] * prog.id_span
    nic_recv = [0.0] * prog.id_span
    sync_free = [0.0] * len(sdur)
    sync_busy: Dict[int, float] = {}
    sync_exposed: Dict[int, float] = {}
    round_backs: Dict[int, List[Tuple[float, float]]] = {}
    minibatch_done: Dict[int, float] = {}
    n = len(codes)
    start_of = [0.0] * n
    end_of = [0.0] * n
    commits: List[int] = []
    log = commits.append

    halt = compute_end = bw_factor = ch_level = None
    if faults is not None:
        halt = faults.halt_time
        compute_end = faults.compute_end
        bw_factor = faults.bandwidth_factor
        placement = pricing.placement
        ch_level = [placement.link_level(src, dst)
                    for src, dst in prog.ch_pair]

    def ready(r: int):
        """``(start, r)`` if rank ``r``'s head op can start, else park
        ``r`` on the first unresolved event and return None."""
        c = codes[ptr[r]]
        k = c & 3
        t = wf[r]
        if k >= 2:
            return (t, r)  # grad-weight and update follow their backward
        b = c >> 2
        if k == 0:
            base, gate, lag = fdep[r], fgate[r], 1
        else:
            base, gate, lag = bdep[r], bgate[r], 2
        if base >= 0:
            slot = base + b
            a = ev[slot]
            if a is None:
                parked = waiters[slot]
                if parked is None:
                    waiters[slot] = [r]
                else:
                    parked.append(r)
                return None
            if a > t:
                t = a
        if gate >= 0:
            # Forwards wait for the previous round's commit (BSP, GPipe);
            # pipedream backwards run at most two rounds ahead of it.
            rnd = b // rdiv[r]
            if rnd >= lag:
                slot = gate + rnd - lag
                a = ev[slot]
                if a is None:
                    parked = waiters[slot]
                    if parked is None:
                        waiters[slot] = [r]
                    else:
                        parked.append(r)
                    return None
                if a > t:
                    t = a
        return (t, r)

    heap: List[Tuple[float, int]] = []
    for r in range(nranks):
        if lo[r] < hi[r]:
            cand = ready(r)
            if cand is not None:
                heappush(heap, cand)

    nxt: Optional[Tuple[float, int]] = None
    halted = False
    while True:
        if nxt is not None:
            # Fast lane: the previous commit's freshest candidate already
            # precedes everything in the heap — skip push + pop.
            t, r = nxt
            nxt = None
        else:
            if not heap:
                break
            t, r = heappop(heap)
            if dirty[r]:
                dirty[r] = False
                current = wf[r]
                if current > t:
                    heappush(heap, (current, r))
                    continue
        if halt is not None and t >= halt:
            halted = True
            break
        i = ptr[r]
        c = codes[i]
        k = c & 3
        fired = -1
        if k == 3:
            # UPDATE: join the round; the last member commits it.
            s = rstage[r]
            b = c >> 2
            rd = rdiv[r]
            slot = ubase[r] + (b if rd == 1 else b // rd)
            if usimple[r] or (not is_bsp and members[slot] == 1):
                # Single-member round: sync starts when this backward
                # (the worker's free time) ends.
                duration = sdur[s]
                free = sync_free[s]
                done = (t if t >= free else free) + duration
                sync_free[s] = done
                sync_busy[s] = sync_busy.get(s, 0.0) + duration
                if duration > 0:
                    sync_exposed[s] = sync_exposed.get(s, 0.0) + (done - t)
                ev[slot] = done
                fired = slot
                wf[r] = t  # async commit; the worker is not blocked
                end = t if duration == 0 else done
            else:
                # The member's backward window: its latest backward of
                # this minibatch (it precedes the update on the worker).
                bcode = c - 2
                j = i - 1
                first = lo[r]
                while j >= first and codes[j] != bcode:
                    j -= 1
                backs = round_backs.get(slot)
                if backs is None:
                    backs = round_backs[slot] = []
                backs.append((start_of[j] if j >= first else t, t))
                if len(backs) < members[slot]:
                    # Not the last member: the round commits later.
                    wf[r] = t
                    end = t
                else:
                    starts = [x[0] for x in backs]
                    ends = [x[1] for x in backs]
                    duration = sdur[s]
                    last_end = max(ends)
                    if bdurs is not None:
                        # Bucketed wait-free backprop: each bucket's
                        # collective fires once every member's backward
                        # produced its last gradient (the bucket's ready
                        # fraction of each member's window) and the sync
                        # channel is free; buckets serialize in firing
                        # order, the BPTT-deferred payload runs last.
                        tb = sync_free[s]
                        fracs = bfracs[s]
                        for idx, dur in enumerate(bdurs[s]):
                            frac = fracs[idx]
                            at = max(st + frac * (en - st) for st, en in backs)
                            if at > tb:
                                tb = at
                            tb += dur
                        done = (tb if tb > last_end else last_end) + sdef[s]
                    elif is_bsp:
                        # Wait-free backprop: streamable gradients overlap
                        # the backward pass; BPTT-deferred ones start when
                        # it ends.
                        sync_start = max(max(starts), sync_free[s])
                        done = max(last_end, sync_start + sstream[s]) + sdef[s]
                    else:
                        sync_start = max(last_end, sync_free[s])
                        done = sync_start + duration
                    sync_free[s] = done
                    sync_busy[s] = sync_busy.get(s, 0.0) + duration
                    if duration > 0:
                        sync_exposed[s] = (sync_exposed.get(s, 0.0)
                                           + (done - last_end))
                    ev[slot] = done
                    fired = slot
                    if is_bsp:
                        # Blocking: every replica resumes after the commit.
                        for r2 in groups[s]:
                            if wf[r2] < done:
                                wf[r2] = done
                                if r2 != r:
                                    dirty[r2] = True
                        end = done
                    else:
                        wf[r] = t
                        end = t if duration == 0 else done
        else:
            if k == 0:
                dur = fdur[r]
            elif k == 1:
                dur = bdur[r]
            else:
                dur = wdur[r]
            if compute_end is None:
                end = t + dur
            else:
                end = compute_end(workers[r], t, dur)
                dur = end - t
            busy = compute[r]
            if busy is None:
                compute[r] = dur
                compute_order.append(r)
            else:
                compute[r] = busy + dur
            wf[r] = end
            if k == 0:
                base, table = fout[r], fsend[r]  # activation downstream
            elif k == 1:
                base, table = bout[r], bsend[r]  # gradient upstream
                if base < 0:
                    b = c >> 2
                    done = minibatch_done.get(b)
                    if done is None or end > done:
                        minibatch_done[b] = end
            else:
                base = -1  # 2BP grad-weight: local compute only
            if base >= 0:
                b = c >> 2
                fired = base + b
                hop = table[b % len(table)]
                if hop is None:
                    ev[fired] = end
                else:
                    ch, xfer = hop
                    free = ch_free[ch]
                    begin = end if end >= free else free
                    if nic:
                        src, dst = workers[r], ch_dst[ch]
                        begin = max(begin, nic_send[src], nic_recv[dst])
                    if bw_factor is not None:
                        xfer *= bw_factor(workers[r], ch_dst[ch], begin,
                                          ch_level[ch])
                    arrival = begin + xfer
                    if nic:
                        nic_send[src] = arrival
                        nic_recv[dst] = arrival
                    ch_free[ch] = arrival
                    busy = ch_busy[ch]
                    if busy is None:
                        ch_busy[ch] = xfer
                        ch_order.append(ch)
                    else:
                        ch_busy[ch] = busy + xfer
                    ev[fired] = arrival
        start_of[i] = t
        end_of[i] = end
        log(i)
        i += 1
        ptr[r] = i
        if i < hi[r]:
            own = (wf[r], r) if codes[i] & 3 >= 2 else ready(r)
        else:
            own = None
        if fired >= 0:
            woken = waiters[fired]
            if woken is not None:
                waiters[fired] = None
                # Keep `own` the minimum of this commit's fresh
                # candidates; the rest go to the heap.
                for other in woken:
                    cand = ready(other)
                    if cand is not None:
                        if own is None or cand < own:
                            if own is not None:
                                heappush(heap, own)
                            own = cand
                        else:
                            heappush(heap, cand)
        if own is not None:
            if not heap or own < heap[0]:
                nxt = own
            else:
                heappush(heap, own)

    if not halted and len(commits) < n:
        raise _deadlock(prog, ptr)
    return SimResult(
        raw_records=CommitLog(schedule, commits, start_of, end_of),
        total_time=max(end_of, default=0.0),
        num_minibatches=schedule.num_minibatches,
        num_workers=schedule.num_workers,
        compute_time_per_worker={workers[r]: compute[r]
                                 for r in compute_order},
        channel_busy={prog.ch_pair[ch]: ch_busy[ch] for ch in ch_order},
        sync_busy=sync_busy,
        minibatch_done=minibatch_done,
        halted_at=halt if halted else None,
        sync_exposed=sync_exposed,
    )


def simulate(
    schedule: Schedule,
    profile: ModelProfile,
    topology: Topology,
    options: Optional[SimOptions] = None,
) -> SimResult:
    """Execute ``schedule`` with the cluster's cost model; see module doc.

    An empty :class:`FaultSchedule` is the same as none: the run is the
    fault-free one, bitwise.
    """
    options = options or SimOptions()
    pricing = price_stages(schedule, profile, topology, options)
    program = _compile(schedule, pricing, options)
    return _run(program, options.faults or None)
