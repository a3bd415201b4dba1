"""The scalar partitioner: the differential oracle for
:class:`repro.core.partition.PipeDreamOptimizer`.

:class:`OraclePlanner` is the planner's original scalar code, kept as
loops over python floats: the level-by-level DP of §3.1 (its stage-time
recurrence ``T^k(i→j, m)``, the tp-level-1 cells and the back-pointer
walk), the placement-exact suffix DP with its per-cell stage times, and
the bound-only memory mode (``memory_refine=False``: phase-1 DPs under a
conservative whole-span bound, no refined pass).  It shares with the
library only the inputs both DPs read — prefix sums, the placement comm
tables, the suffix-row cache keys, the optimistic bound matrix — plus the
suffix back-pointer walk and the candidate scoring in
:meth:`PipeDreamOptimizer.solve`.  The recurrences themselves are its
own, so the numpy DPs must reproduce its plans bitwise.

Oracle solves keep their own namespace in a shared
:class:`~repro.core.partition.SolverContext`, so a warm oracle solve never
reads rows the numpy DP wrote (and vice versa).

:func:`closed_form_details` is the evaluator's oracle: the numpy closed
form (contiguous-group ring sizes, boundary crossing level) that the
library's placement walk must match bitwise on every unbucketed plan;
:func:`oracle_evaluate_details` wraps it like
:func:`~repro.core.partition.evaluate_partition_details`.

``use_oracle_planner`` routes :func:`repro.sim.sweep.run_sweep` (serial
and thread-pool modes) through both oracles.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.sim.sweep as sweep
from repro.core.partition import (
    PartitionEvaluation,
    PipeDreamOptimizer,
    Stage,
    _check_stages,
    _eval_tables,
    _evaluate_details_walk,
)
from repro.core.profile import ModelProfile
from repro.core.topology import Topology


class OraclePlanner(PipeDreamOptimizer):
    """:class:`PipeDreamOptimizer` with its scalar DPs.

    Takes every library option plus ``memory_refine``.  ``True`` (default)
    is the library's two-phase memory-faithful solve.  ``False`` is the
    bound-only mode: the level DPs prune spans with a conservative
    *upper* bound (the whole span at depth ``W``, no replication relief),
    so every plan it returns fits, and the refined pass never runs.
    """

    def __init__(self, *args, memory_refine: bool = True, **kwargs):
        if kwargs.get("recompute") == "auto" and not memory_refine:
            raise ValueError(
                "recompute='auto' requires memory_refine: the per-stage "
                "recompute decision lives in the depth-aware refined DP"
            )
        super().__init__(*args, **kwargs)
        self.memory_refine = memory_refine
        self._bucket_table_cache: Optional[List[List[int]]] = None
        self._cache_ns = self._cache_ns + (("oracle", memory_refine),)

    # ------------------------------------------------------------------
    # Range helpers only the scalar DPs read
    # ------------------------------------------------------------------
    def _time(self, i: int, j: int) -> float:
        """Sum of T_l for layers i..j inclusive."""
        pt = self._tables.prefix_time
        return pt[j + 1] - pt[i]

    def _backward_sum(self, i: int, j: int) -> float:
        """Backward-pass seconds of layers i..j inclusive (device-adjusted)."""
        pb = self._tables.prefix_backward
        return pb[j + 1] - pb[i]

    def _boundary_acts(self, j: int) -> float:
        """Input-boundary activation bytes of a stage starting at layer ``j``
        (what a recompute-on stage stashes per in-flight minibatch)."""
        pa = self._tables.prefix_acts
        return pa[j] - pa[j - 1] if j > 0 else 0.0

    def _shard_time(self, i: int, j: int) -> float:
        """Shardable compute seconds of layers i..j inclusive."""
        pst = self._tables.prefix_shard_time
        return pst[j + 1] - pst[i]

    def _shard_backward(self, i: int, j: int) -> float:
        psb = self._tables.prefix_shard_backward
        return psb[j + 1] - psb[i]

    def _bucket_count(self, i: int, j: int) -> int:
        """Streamable collectives per round for span i..j inclusive.

        With fusion off the stage all_reduces its streamable gradients as
        one payload; with ``bucket_bytes`` set it launches one collective
        per gradient bucket, each paying the level setup latency α again
        (the DP only reads this under ``α > 0``).
        """
        if self.bucket_bytes is None:
            return 1
        if self._bucket_table_cache is None:
            from repro.comm.bucketing import stream_bucket_count_table

            self._bucket_table_cache = stream_bucket_count_table(
                self._device_profile, self.bucket_bytes
            )
        return self._bucket_table_cache[i][j]

    # ------------------------------------------------------------------
    # Memory masks
    # ------------------------------------------------------------------
    def _memory_ok(self, i: int, j: int) -> bool:
        """Phase-1 feasibility of span i..j: the shared-kernel bound."""
        if self.memory_limit_bytes is None:
            return True
        return self._bound_matrix()[i][j] <= self.memory_limit_bytes

    def _bound_matrix(self) -> List[List[float]]:
        """The library's optimistic bound, or in bound-only mode a
        *conservative upper bound*: the whole span at depth ``W`` with no
        replication relief — at most ``W`` versions of everything can
        ever be in flight — so a bound-only solve never returns a plan
        whose simulated footprint overflows the limit."""
        if self.memory_refine:
            return super()._bound_matrix()
        if self._bound_cache is not None:
            return self._bound_cache
        W = max(1, self.topology.total_workers)
        ctx_key = ("bound", W)
        cached = self.context.bound_matrices.get(ctx_key)
        if cached is not None:
            self.context._bump("bound_hits")
            self._bound_cache = cached
            return cached
        n = self._n
        bound = [[math.inf] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                bound[i][j] = float(self._stage_memory_cost(
                    self._weights(i, j),
                    self._recurrent_weights(i, j),
                    self._activation_sum(i, j),
                    W, 1,
                ))
        self._bound_cache = bound
        self.context._bump("bound_misses")
        self.context.bound_matrices[ctx_key] = bound
        return bound

    # ------------------------------------------------------------------
    # The level-by-level DP
    # ------------------------------------------------------------------
    def _solve_for(self, topology: Topology) -> List[Stage]:
        """Scalar level-by-level DP; returns the stages."""
        n = self._n

        # A[k][(i, j, m)] -> (bottleneck_time, backpointer)
        # backpointer: None for a single stage covering i..j, else (s, m')
        # meaning sub-pipeline i..s on m - m' components plus stage s+1..j
        # on m' components.
        tables: List[Dict[Tuple[int, int, int], Tuple[float, Optional[Tuple[int, int]]]]] = []

        #: Level-1 cells where a tp degree beat the two-axis stage time
        #: (strict '<', degrees ascending); consulted during reconstruction.
        tp_choices: Dict[Tuple[int, int, int], int] = {}
        prev_capacity = 1  # m_{k-1}: components of the level below
        prev_workers = 1  # workers inside one level-(k-1) component
        for k, level in enumerate(topology.levels, start=1):
            mk, bandwidth = level.count, level.bandwidth
            table: Dict[Tuple[int, int, int], Tuple[float, Optional[Tuple[int, int]]]] = {}

            stage_cache: Dict[Tuple[int, int, int], float] = {}
            allreduce_bandwidth = level.allreduce_bandwidth
            allreduce_latency = level.allreduce_latency

            def stage_time(i: int, j: int, m: int) -> float:
                """T^k(i→j, m): single stage replicated over m components."""
                cached = stage_cache.get((i, j, m))
                if cached is not None:
                    return cached
                result = self._stage_time_uncached(
                    tables, k, prev_capacity, prev_workers,
                    allreduce_bandwidth, allreduce_latency, i, j, m,
                )
                if k == 1 and self._tp_enabled:
                    # The tp axis shards level-1 (leaf) stages only: upper
                    # levels replicate whatever the leaf chose.
                    for t in self._tp_options[1:]:
                        if m % t:
                            continue
                        tp_val = self._tp_stage_time_level1(
                            i, j, m, t,
                            allreduce_bandwidth, allreduce_latency,
                        )
                        if tp_val < result:
                            result = tp_val
                            tp_choices[(i, j, m)] = t
                stage_cache[(i, j, m)] = result
                return result

            for m in range(1, mk + 1):
                for j in range(n):
                    for i in range(j, -1, -1):
                        best = stage_time(i, j, m)
                        best_ptr: Optional[Tuple[int, int]] = None
                        for s in range(i, j):
                            boundary = 2.0 * self.profile.activation_bytes(s) / bandwidth
                            for m_prime in range(1, m):
                                left = table.get((i, s, m - m_prime))
                                if left is None:
                                    continue
                                right = stage_time(s + 1, j, m_prime)
                                candidate = max(left[0], boundary, right)
                                if candidate < best:
                                    best = candidate
                                    best_ptr = (s, m_prime)
                        if best < math.inf:
                            table[(i, j, m)] = (best, best_ptr)
            tables.append(table)
            prev_capacity = mk
            prev_workers *= mk

        top = len(topology.levels)
        final = tables[top - 1].get((0, n - 1, topology.levels[top - 1].count))
        if final is None:
            raise RuntimeError("no feasible partition found (memory limit too tight?)")

        return self._reconstruct(tables, topology, top, 0, n - 1,
                                 topology.levels[top - 1].count,
                                 tp_choices if self._tp_enabled else None)

    def _stage_time_uncached(
        self,
        tables: Sequence[Dict],
        k: int,
        prev_capacity: int,
        prev_workers: int,
        allreduce_bandwidth: float,
        allreduce_latency: float,
        i: int,
        j: int,
        m: int,
    ) -> float:
        """T^k(i→j, m) without memoization.

        The stage spans layers i..j, replicated over ``m`` level-(k-1)
        components (each holding ``prev_workers`` workers internally).  Its
        effective per-minibatch time is the max of

        - the amortized compute rate ``A^{k-1}(i→j, m_{k-1}) / m``, and
        - the level-k ring all_reduce share ``2 (m-1)/m |w| / B_k^ar``,
          amortized over the round of ``m * prev_workers`` minibatches that
          one synchronization covers (replicas synchronize once per
          round-robin sweep, §3.2/§4).

        With a per-collective setup latency α on the level, the stream
        share additionally pays ``α · N / round_size`` (``N`` collectives
        per round — one per gradient bucket, or 1 with fusion off) and the
        deferred share ``α / round_size``.
        """
        if k == 1:
            compute = self._time(i, j)
        else:
            entry = tables[k - 2].get((i, j, prev_capacity))
            if entry is None:
                return math.inf
            compute = entry[0]
        if m > 1 and not self.allow_replication:
            return math.inf
        if not self._memory_ok(i, j):
            return math.inf
        compute_term = compute / m
        if m == 1:
            return compute_term
        round_size = m * prev_workers
        weights = self._weights(i, j)
        deferred = self._recurrent_weights(i, j)
        ring = 2.0 * (m - 1) / m / allreduce_bandwidth
        overlappable = ring * (weights - deferred) / round_size
        non_overlappable = ring * deferred / round_size
        if allreduce_latency > 0.0:
            if weights - deferred > 0:
                overlappable = (
                    overlappable
                    + allreduce_latency * self._bucket_count(i, j) / round_size
                )
            if deferred > 0:
                non_overlappable = (
                    non_overlappable + allreduce_latency / round_size
                )
        return max(compute_term, overlappable) + non_overlappable

    def _tp_stage_time_level1(
        self, i: int, j: int, m: int, t: int,
        arbw: float, alpha: float,
    ) -> float:
        """T^1(i→j, m) with the ``m`` leaf workers split into ``m/t``
        replicas of ``t`` consecutive shards, priced with the level's own
        ring model."""
        r = m // t
        if r > 1 and not self.allow_replication:
            return math.inf
        if not self._memory_ok(i, j):
            return math.inf
        st = self._shard_time(i, j)
        stage_compute = self._time(i, j) - st + st / t
        ring_t = 2.0 * (t - 1) / t / arbw
        out_act = self.profile.activation_bytes(j)
        in_act = self._boundary_acts(i)
        out_term = out_act * ring_t
        in_term = in_act * ring_t
        if alpha > 0.0:
            if out_act > 0:
                out_term = out_term + alpha
            if in_act > 0:
                in_term = in_term + alpha
        stage_total = stage_compute + (out_term + in_term)
        if r == 1:
            return stage_total / r
        weights = self._weights(i, j)
        deferred = self._recurrent_weights(i, j)
        sw = self._shard_weights(i, j)
        stream = (weights - deferred) - sw + sw / t
        ring_r = 2.0 * (r - 1) / r / arbw
        overlappable = stream * ring_r / r
        non_overlappable = deferred * ring_r / r
        if alpha > 0.0:
            if stream > 0:
                overlappable = (
                    overlappable + alpha * self._bucket_count(i, j) / r
                )
            if deferred > 0:
                non_overlappable = non_overlappable + alpha / r
        return max(stage_total / r, overlappable) + non_overlappable

    def _reconstruct(
        self,
        tables: Sequence[Dict],
        topology: Topology,
        k: int,
        i: int,
        j: int,
        m: int,
        tp_choices: Optional[Dict[Tuple[int, int, int], int]] = None,
    ) -> List[Stage]:
        """Flatten the nested back-pointer structure into concrete stages.

        Level-1 cells consult ``tp_choices``: a leaf that chose degree
        ``t`` emits ``m/t`` replicas of tp width ``t`` (upper levels then
        multiply replicas only, preserving the shard width)."""
        if k == 0:
            return [Stage(i, j + 1, 1)]
        entry = tables[k - 1][(i, j, m)]
        _, ptr = entry
        if ptr is None:
            if k == 1:
                t = tp_choices.get((i, j, m), 1) if tp_choices else 1
                return [Stage(i, j + 1, m // t, tp_degree=t)]
            # Single level-k stage replicated over m components; expand its
            # internal level-(k-1) pipeline and multiply replica counts.
            prev_capacity = topology.levels[k - 2].count
            inner = self._reconstruct(tables, topology, k - 1, i, j,
                                      prev_capacity, tp_choices)
            return [replace(s, replicas=s.replicas * m) for s in inner]
        s, m_prime = ptr
        left = self._reconstruct(tables, topology, k, i, s, m - m_prime,
                                 tp_choices)
        if k == 1:
            t = tp_choices.get((s + 1, j, m_prime), 1) if tp_choices else 1
            right = [Stage(s + 1, j + 1, m_prime // t, tp_degree=t)]
        else:
            prev_capacity = topology.levels[k - 2].count
            inner = self._reconstruct(tables, topology, k - 1, s + 1, j,
                                      prev_capacity, tp_choices)
            right = [
                replace(st, replicas=st.replicas * m_prime) for st in inner
            ]
        return left + right

    # ------------------------------------------------------------------
    # The suffix DP
    # ------------------------------------------------------------------
    def _solve_refined(self, topology: Topology) -> Optional[List[Stage]]:
        if not self.memory_refine:
            return None
        return super()._solve_refined(topology)

    def _refined_stage_time(
        self, j: int, k: int, mp: int, m: int, coeff: float, lat: float,
        limit: float,
    ) -> float:
        """Leading-stage time for the suffix DP (inf when masked out).

        ``coeff`` is the placement-exact all_reduce seconds-per-byte of
        the group this (suffix ``m``, replicas ``mp``) stage occupies;
        ``lat`` the per-collective setup latency that group pays, charged
        once per stream bucket plus once for the deferred payload.  Under
        ``recompute="auto"`` the stage keeps stash-everything whenever it
        fits and checkpoints only when that busts the cap.
        """
        if mp > 1 and not self.allow_replication:
            return math.inf
        versions = -(-m // mp)  # exact 1F1B depth: ceil(m / m')
        cost = self._stage_memory_cost(
            self._weights(j, k), self._recurrent_weights(j, k),
            self._activation_sum(j, k), versions, mp,
        )
        stage_compute = self._time(j, k)
        if cost > limit:
            if not self._recompute_auto:
                return math.inf
            cost_on = self._stage_memory_cost(
                self._weights(j, k), self._recurrent_weights(j, k),
                self._activation_sum(j, k), versions, mp,
                recompute=True,
                boundary_activation_bytes=self._boundary_acts(j),
            )
            if cost_on > limit:
                return math.inf
            # Checkpointing re-runs the stage's forward during backward:
            # one extra forward = compute minus the backward share.
            stage_compute = stage_compute + (
                stage_compute - self._backward_sum(j, k)
            )
        compute_term = stage_compute / mp
        if mp == 1:
            return compute_term
        weights = self._weights(j, k)
        deferred = self._recurrent_weights(j, k)
        overlappable = (weights - deferred) * coeff / mp
        non_overlappable = deferred * coeff / mp
        if lat > 0.0:
            if weights - deferred > 0:
                overlappable = (
                    overlappable + lat * self._bucket_count(j, k) / mp
                )
            if deferred > 0:
                non_overlappable = non_overlappable + lat / mp
        return max(compute_term, overlappable) + non_overlappable

    def _refined_stage_time_tp(
        self, j: int, k: int, mp: int, t: int, m: int,
        dp_coeff: float, dp_lat: float, tp_coeff: float, tp_lat: float,
        limit: float,
    ) -> float:
        """Leading-stage time of a ``(replicas=mp/t, tp_degree=t)`` cell:
        sharded compute plus the two intra-stage boundary collectives on
        the slowest shard group, the sharded eager payload synced over the
        strided representative group, and the memory mask at the exact
        depth ``ceil(m/mp)`` with ``mp/t`` logical replicas."""
        r = mp // t
        if r > 1 and not self.allow_replication:
            return math.inf
        versions = -(-m // mp)  # exact 1F1B depth over physical workers
        shard_w = self._shard_weights(j, k)
        shard_a = self._shard_acts(j, k)
        cost = self._stage_memory_cost(
            self._weights(j, k), self._recurrent_weights(j, k),
            self._activation_sum(j, k), versions, r,
            tp_degree=t, shardable_weight_bytes=shard_w,
            shardable_activation_bytes=shard_a,
        )
        st = self._shard_time(j, k)
        stage_compute = self._time(j, k) - st + st / t
        if cost > limit:
            if not self._recompute_auto:
                return math.inf
            cost_on = self._stage_memory_cost(
                self._weights(j, k), self._recurrent_weights(j, k),
                self._activation_sum(j, k), versions, r,
                recompute=True,
                boundary_activation_bytes=self._boundary_acts(j),
                tp_degree=t, shardable_weight_bytes=shard_w,
                shardable_activation_bytes=shard_a,
            )
            if cost_on > limit:
                return math.inf
            # Checkpointing replays the *sharded* forward during backward.
            sb = self._shard_backward(j, k)
            sharded_backward = self._backward_sum(j, k) - sb + sb / t
            stage_compute = stage_compute + (stage_compute - sharded_backward)
        out_act = self.profile.activation_bytes(k)
        in_act = self._boundary_acts(j)
        out_term = out_act * tp_coeff + (tp_lat if out_act > 0 else 0.0)
        in_term = in_act * tp_coeff + (tp_lat if in_act > 0 else 0.0)
        stage_total = stage_compute + (out_term + in_term)
        compute_term = stage_total / r
        if r == 1:
            return compute_term
        weights = self._weights(j, k)
        deferred = self._recurrent_weights(j, k)
        stream = (weights - deferred) - shard_w + shard_w / t
        overlappable = stream * dp_coeff / r
        non_overlappable = deferred * dp_coeff / r
        if dp_lat > 0.0:
            if stream > 0:
                overlappable = overlappable + dp_lat / r
            if deferred > 0:
                non_overlappable = non_overlappable + dp_lat / r
        return max(compute_term, overlappable) + non_overlappable

    def _suffix_dp(
        self, topology: Topology, coeffs, link_bw, lats, tp_tables=None
    ) -> Optional[List[Stage]]:
        """Scalar suffix DP: ``R[m][j]`` is the bottleneck of layers
        ``j..n-1`` on exactly ``m`` workers, minimized over ``(k, m', t)``
        in lexicographic order with strict ``<``."""
        n = self._n
        W = topology.total_workers
        limit = self.memory_limit_bytes
        inf = math.inf
        # The base R[0][n] = 0 closes a plan that used every worker;
        # leftover workers (R[m][n], m > 0) stay infeasible.
        R = [[inf] * (n + 1) for _ in range(W + 1)]
        ptr_k = [[-1] * n for _ in range(W + 1)]
        ptr_mp = [[-1] * n for _ in range(W + 1)]
        ptr_tp = [[1] * n for _ in range(W + 1)] if tp_tables else None
        R[0][n] = 0.0
        row_cache = self.context.refined_rows
        row_keys = self._refined_row_keys(W, coeffs, link_bw, lats, tp_tables)
        for m in range(1, W + 1):
            hit = row_cache.get(row_keys[m])
            if hit is not None:
                R[m] = list(hit[0])
                ptr_k[m] = list(hit[1])
                ptr_mp[m] = list(hit[2])
                if ptr_tp is not None:
                    ptr_tp[m] = list(hit[3])
                self.context._bump("row_hits")
                continue
            for j in range(n - 1, -1, -1):
                best = inf
                best_k = -1
                best_mp = -1
                best_tp = 1
                for k in range(j, n):
                    act = self.profile.activation_bytes(k)
                    for mp in range(1, m + 1):
                        rest = R[m - mp][k + 1]
                        if k == n - 1:
                            boundary = 0.0
                        else:
                            # Next stage starts at worker W-m+mp; when
                            # mp == m there is no next worker and ``rest``
                            # is already inf, so the clamp is value-free.
                            boundary = (
                                2.0 * act / link_bw[min(W - m + mp, W - 1)]
                            )
                        stage_t = self._refined_stage_time(
                            j, k, mp, m, coeffs[m][mp], lats[m][mp], limit
                        )
                        candidate = max(stage_t, boundary, rest)
                        if candidate < best:
                            best = candidate
                            best_k = k
                            best_mp = mp
                            best_tp = 1
                        if tp_tables:
                            # (k, mp, t)-lexicographic tie-break: the
                            # two-axis cell above went first, so tp only
                            # wins a cell by being strictly better.
                            for t in self._tp_options[1:]:
                                if mp % t:
                                    continue
                                dp_c, dp_l, tp_c, tp_l = tp_tables[t]
                                stage_t = self._refined_stage_time_tp(
                                    j, k, mp, t, m, dp_c[m][mp], dp_l[m][mp],
                                    tp_c[m][mp], tp_l[m][mp], limit,
                                )
                                candidate = max(stage_t, boundary, rest)
                                if candidate < best:
                                    best = candidate
                                    best_k = k
                                    best_mp = mp
                                    best_tp = t
                R[m][j] = best
                ptr_k[m][j] = best_k
                ptr_mp[m][j] = best_mp
                if ptr_tp is not None:
                    ptr_tp[m][j] = best_tp
            if ptr_tp is not None:
                row_cache[row_keys[m]] = (
                    list(R[m]), list(ptr_k[m]), list(ptr_mp[m]),
                    list(ptr_tp[m]),
                )
            else:
                row_cache[row_keys[m]] = (
                    list(R[m]), list(ptr_k[m]), list(ptr_mp[m])
                )
            self.context._bump("row_misses")
        if not math.isfinite(R[W][0]):
            return None
        return self._reconstruct_refined(ptr_k, ptr_mp, W, ptr_tp)


def oracle_evaluate_details(
    profile: ModelProfile,
    stages: Sequence[Stage],
    topology: Topology,
    memory_limit_bytes: Optional[float] = None,
    bucket_bytes: Optional[float] = None,
) -> PartitionEvaluation:
    """:func:`repro.core.partition.evaluate_partition_details` priced by
    :func:`closed_form_details` — except bucketed pricing, which the
    closed form does not model and which goes through the library's
    placement walk."""
    from repro.sim.memory import pipeline_memory_footprint

    _check_stages(profile, stages)
    if bucket_bytes is None:
        result = closed_form_details(profile, stages, topology)
    else:
        result = _evaluate_details_walk(profile, stages, topology, bucket_bytes)
    return replace(
        result,
        memory_bytes=tuple(pipeline_memory_footprint(profile, stages)),
        memory_limit_bytes=memory_limit_bytes,
    )


def _contiguous_ring_sizes(levels, first, last):
    """Per level, the largest per-parent sibling group of the contiguous
    worker ranges ``[first, last]`` (numpy arrays): one parent -> the
    whole span; a parent strictly inside the range is full; otherwise the
    larger of the two edge fragments."""
    sizes = []
    per_component = 1
    for level in levels:
        count_k = level.count
        u_first = first // per_component
        u_last = last // per_component
        p_first = u_first // count_k
        p_last = u_last // count_k
        sizes.append(np.where(
            p_first == p_last,
            u_last - u_first + 1,
            np.where(
                p_last - p_first >= 2,
                count_k,
                np.maximum((p_first + 1) * count_k - u_first,
                           u_last - p_last * count_k + 1),
            ),
        ))
        per_component *= count_k
    return sizes


def _strided_ring_sizes(levels, members):
    """Per level, the largest per-parent sibling group of an arbitrary
    worker set, by counting the distinct level-k components under each
    level-(k+1) parent."""
    sizes = []
    per_component = 1
    for level in levels:
        units = np.unique(members // per_component)
        sizes.append(int(np.unique(units // level.count,
                                   return_counts=True)[1].max()))
        per_component *= level.count
    return sizes


def _ring_allreduce(levels, sizes, payload):
    """Hierarchical ring all_reduce seconds of ``payload`` bytes given the
    per-level ring sizes (arrays or ints), accumulated level by level in
    :func:`repro.sim.network.allreduce_time`'s float order."""
    total = np.zeros(np.shape(payload))
    for level, group in zip(levels, sizes):
        ring = 2.0 * (group - 1) / group
        total = total + ring * payload / level.allreduce_bandwidth
        alpha = level.allreduce_latency
        if alpha > 0.0:
            # Paid once per level a ring actually runs on, only when
            # there is a payload.
            lat = np.where(group > 1, alpha, 0.0)
            total = total + np.where(payload > 0, lat, 0.0)
    return total


def closed_form_details(
    profile: ModelProfile, stages: Sequence[Stage], topology: Topology
) -> PartitionEvaluation:
    """All stages at once, in numpy, from the prefix tables — independent
    of :class:`repro.sim.network.Placement`.

    Worker groups are contiguous ranges (stage-major packing), so the
    placement queries reduce to integer arithmetic: a contiguous group
    ``[first, last]`` spans ``last//W_k - first//W_k + 1`` level-k
    components (``W_k`` = workers per level-k component), and the boundary
    link between adjacent groups crosses the outermost level whose
    component ids differ between workers ``dst-1`` and ``dst``.  A
    tensor-parallel stage's shard groups are contiguous too; its strided
    data-parallel ring is sized by counting components.  The float
    expressions are those of the library's walk, term for term, so the
    two must match bitwise.
    """
    tables = _eval_tables(profile)
    levels = topology.levels
    scale = topology.compute_scale
    S = len(stages)

    def per_stage(values, dtype=np.int64):
        return np.fromiter(values, dtype=dtype, count=S)

    def span(prefix):
        p = np.asarray(prefix)
        return p[stops] - p[starts]

    starts = per_stage(s.start for s in stages)
    stops = per_stage(s.stop for s in stages)
    reps = per_stage(s.replicas for s in stages)
    tps = per_stage(s.tp_degree for s in stages)
    workers = reps * tps
    gfirst = np.cumsum(workers) - workers
    sharded = tps > 1

    compute = span(tables.prefix_time) / scale
    if sharded.any():
        st = span(tables.prefix_shard_time) / scale
        compute = np.where(sharded, compute - st + st / tps, compute)
    if any(s.recompute for s in stages):
        bwd = span(tables.prefix_backward) / scale
        if sharded.any():
            sb = span(tables.prefix_shard_backward) / scale
            bwd = np.where(sharded, bwd - sb + sb / tps, bwd)
        rec = per_stage((s.recompute for s in stages), dtype=bool)
        compute = np.where(rec, compute + (compute - bwd), compute)
    acts = np.asarray(tables.acts)
    stage_total = compute
    if sharded.any():
        # Per replica q, the t consecutive shards [first + q t, ...): the
        # stage waits on the slowest of the r concurrent groups.
        out_term = np.zeros(S)
        in_term = np.zeros(S)
        out_act = acts[stops - 1]
        in_act = np.where(starts > 0, acts[starts - 1], 0.0)
        for i in np.flatnonzero(sharded):
            t = int(tps[i])
            lo = gfirst[i] + t * np.arange(reps[i])
            sizes = _contiguous_ring_sizes(levels, lo, lo + t - 1)
            out_term[i] = _ring_allreduce(levels, sizes, out_act[i]).max()
            in_term[i] = _ring_allreduce(levels, sizes, in_act[i]).max()
        stage_total = compute + (out_term + in_term)
    cost = stage_total / reps
    exposed = np.zeros(S)
    hidden = np.zeros(S)
    if bool((reps > 1).any()):
        weights = span(tables.prefix_weights)
        deferred = span(tables.prefix_recurrent)
        payload = weights - deferred
        if sharded.any():
            shard_w = span(tables.prefix_shard_weights)
            payload = np.where(sharded, payload - shard_w + shard_w / tps,
                               payload)
        sizes = _contiguous_ring_sizes(levels, gfirst, gfirst + reps - 1)
        stream = _ring_allreduce(levels, sizes, payload)
        blocked = _ring_allreduce(levels, sizes, deferred)
        for i in np.flatnonzero(sharded & (reps > 1)):
            leaders = gfirst[i] + tps[i] * np.arange(reps[i])
            strided = _strided_ring_sizes(levels, leaders)
            stream[i] = _ring_allreduce(levels, strided, payload[i])
            blocked[i] = _ring_allreduce(levels, strided, deferred[i])
        cost = np.where(
            reps > 1, np.maximum(cost, stream / reps) + blocked / reps, cost
        )
        exposed = np.where(reps > 1, cost - stage_total / reps, 0.0)
        hidden = np.where(
            reps > 1, stream / reps + blocked / reps - exposed, 0.0
        )
    stage_times = tuple(cost.tolist())

    boundary_times: Tuple[float, ...] = ()
    worst = max(stage_times)
    if S > 1:
        dst = gfirst[1:]  # first worker of each next group
        src = dst - 1
        crossing = np.zeros(S - 1, dtype=np.int64)
        per_component = 1
        for k, level in enumerate(levels):
            crossing = np.where(
                src // per_component != dst // per_component, k, crossing
            )
            per_component *= level.count
        bw = np.asarray([level.bandwidth for level in levels])[crossing]
        boundary = 2.0 * acts[stops[:-1] - 1] / bw
        boundary_times = tuple(boundary.tolist())
        worst = max(worst, max(boundary_times))
    return PartitionEvaluation(
        worst, stage_times, boundary_times,
        sync_exposed=tuple(exposed.tolist()),
        sync_hidden=tuple(hidden.tolist()),
    )


@contextmanager
def use_oracle_planner():
    """Plan and price :func:`repro.sim.sweep.run_sweep` cells with the
    scalar oracle inside the block (in-process executors only)."""
    planner, details = sweep.PipeDreamOptimizer, sweep.evaluate_partition_details
    sweep.PipeDreamOptimizer = OraclePlanner
    sweep.evaluate_partition_details = oracle_evaluate_details
    try:
        yield
    finally:
        sweep.PipeDreamOptimizer = planner
        sweep.evaluate_partition_details = details
