"""Sharded storage and scatter-gather execution.

The horizontal-scaling layer: :class:`ShardedGraphDatabase` partitions a
graph database across N shard databases behind the unchanged
:class:`~repro.db.database.GraphDatabase` interface (see
:mod:`repro.shard.store`), :mod:`repro.shard.placement` supplies the
pluggable placement policies, and the ``sharded`` and ``auto`` backends
(:mod:`repro.api.backends`) execute queries over it as per-shard pruning
cascades with cross-shard bound sharing and merge consumers
(:mod:`repro.engine.scatter`). Open one with::

    import repro

    with repro.connect(graphs, backend="sharded", shards=4) as session:
        result = session.execute(repro.Query(q).skyline())
        print(result.explain())   # includes the per-shard breakdown
"""

from repro.shard.placement import (
    HashPlacement,
    Placement,
    SizeBalancedPlacement,
    available_placements,
    get_placement,
    register_placement,
)
from repro.shard.store import ShardedGraphDatabase

__all__ = [
    "HashPlacement",
    "Placement",
    "SizeBalancedPlacement",
    "available_placements",
    "get_placement",
    "register_placement",
    "ShardedGraphDatabase",
]
