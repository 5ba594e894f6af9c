"""Decoupled storage tier: hash-partitioned records on simulated servers.

Servers are FIFO service pipelines whose timing comes from record sizes;
where a record lives is its MurmurHash3 home plus the placement
directory, and records move only through the tier's timed mover.
"""

from .murmur import hash_node_id, hash_node_ids, murmur3_32
from .placement import (
    HeatTracker,
    Placement,
    PlacementDirectory,
    heat_by_server,
    pick_read_replica,
)
from .records import AdjacencyRecord, record_for_node, record_size
from .server import StorageServer, StorageServerDown
from .tier import HOME, UNCHANGED, Move, StorageTier

__all__ = [
    "AdjacencyRecord",
    "HOME",
    "HeatTracker",
    "Move",
    "Placement",
    "PlacementDirectory",
    "StorageServer",
    "StorageServerDown",
    "StorageTier",
    "UNCHANGED",
    "hash_node_id",
    "hash_node_ids",
    "heat_by_server",
    "murmur3_32",
    "pick_read_replica",
    "record_for_node",
    "record_size",
]
