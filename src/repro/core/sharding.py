"""Per-layer-kind tensor-parallel shardability registry.

The hybrid 3D planner treats a stage as ``replicas x tp_degree``: within
each replica, ``tp_degree`` consecutive physical workers hold a shard of
every *shardable* layer (Megatron-style intra-layer parallelism), while
non-shardable layers stay replicated inside the tp group.  This module is
the single source of truth for which operator families shard and along
which dimension:

- ``fc`` / ``linear`` shard the output-features dimension (column
  parallel); the matching row-parallel pair reduces partial sums on the
  way out, which is what the boundary-activation collective prices.
- ``conv`` shards output channels.
- ``attention`` shards heads.
- BPTT-accumulated kinds (``lstm``, ``embedding`` — the planner's
  ``RECURRENT_KINDS``) are deliberately *not* shardable: their recurrent
  state and gather-style lookups do not decompose along a single
  contract dimension, so a tp group replicates them.  Unknown kinds are
  conservatively unshardable.

The registry is intentionally disjoint from
:data:`repro.core.partition.RECURRENT_KINDS` (asserted by the test
suite); keeping the table here, without importing the planner, avoids an
import cycle since ``core/partition.py`` consumes this module.

Everything downstream — the shared memory kernel's shard divisor, the
planner's ``(replicas, tp_degree)`` cell pricing, the simulator's
intra-stage collectives — derives its shardable weight/activation/compute
splits from one digest-keyed layer-range table (the planner's
``_EvalTables``, which the range helpers below also read), so the four
consumers can never disagree on *what* shards, only on the degree they
plug in.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.profile import ModelProfile

#: Operator family -> the dimension a tp shard partitions.  Membership in
#: this mapping *is* the shardability predicate.
SHARDABLE_KINDS: Dict[str, str] = {
    "fc": "out_features",
    "linear": "out_features",
    "conv": "out_channels",
    "attention": "heads",
}


def is_shardable(kind: str) -> bool:
    """Whether layers of ``kind`` can be tensor-parallel sharded."""
    return kind in SHARDABLE_KINDS


def partition_dim(kind: str) -> Optional[str]:
    """Name of the dimension a shard of ``kind`` partitions (None if not
    shardable)."""
    return SHARDABLE_KINDS.get(kind)


def validate_tp_degrees(tp_degrees: Sequence[int]) -> Tuple[int, ...]:
    """Normalize a tp-degree menu: ints >= 1, deduplicated, ascending,
    with degree 1 always present (the planner must always be allowed to
    *not* shard a stage)."""
    degrees = set()
    for t in tp_degrees:
        if int(t) != t or int(t) < 1:
            raise ValueError(
                f"tp degrees must be positive integers, got {t!r}")
        degrees.add(int(t))
    degrees.add(1)
    return tuple(sorted(degrees))


def _tables(profile: ModelProfile):
    """The profile's shared layer-range table (digest-keyed; imported at
    call time because ``core/partition.py`` imports this module)."""
    from repro.core.partition import _eval_tables

    return _eval_tables(profile)


def shardable_weight_bytes(profile: ModelProfile, start: int, stop: int) -> int:
    """Weight bytes of the shardable layers in stage ``[start, stop)``."""
    psw = _tables(profile).prefix_shard_weights
    return psw[stop] - psw[start]


def shardable_activation_bytes(profile: ModelProfile, start: int, stop: int) -> int:
    """Activation-stash bytes of the shardable layers in ``[start, stop)``."""
    psa = _tables(profile).prefix_shard_acts
    return psa[stop] - psa[start]


def shardable_compute_time(profile: ModelProfile, start: int, stop: int) -> float:
    """Combined fwd+bwd seconds of the shardable layers in ``[start, stop)``."""
    pst = _tables(profile).prefix_shard_time
    return pst[stop] - pst[start]


def stage_layers_shardable(profile: ModelProfile, start: int, stop: int) -> bool:
    """True when *every* layer of the stage is shardable (memory then
    strictly decreases in tp_degree; the property suite leans on this)."""
    return all(l.kind in SHARDABLE_KINDS for l in profile.layers[start:stop])
