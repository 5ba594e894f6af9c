"""Decoupled storage tier: RAMCloud-like partitioned key-value store."""

from .kvstore import KVStoreError, LogStructuredStore
from .murmur import hash_node_id, hash_node_ids, murmur3_32
from .placement import (
    HeatTracker,
    Placement,
    PlacementDirectory,
    heat_by_server,
    pick_read_replica,
)
from .records import (
    AdjacencyRecord,
    graph_to_records,
    record_for_node,
    record_size,
)
from .server import StorageServer, StorageServerDown
from .tier import (
    HOME,
    UNCHANGED,
    Move,
    StorageTier,
    modulo_partitioner,
    murmur_partitioner,
)

__all__ = [
    "AdjacencyRecord",
    "HOME",
    "HeatTracker",
    "KVStoreError",
    "LogStructuredStore",
    "Move",
    "Placement",
    "PlacementDirectory",
    "StorageServer",
    "StorageServerDown",
    "StorageTier",
    "UNCHANGED",
    "graph_to_records",
    "hash_node_id",
    "hash_node_ids",
    "heat_by_server",
    "modulo_partitioner",
    "murmur3_32",
    "murmur_partitioner",
    "pick_read_replica",
    "record_for_node",
    "record_size",
]
