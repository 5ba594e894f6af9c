"""Calibrated cost models for the simulated cluster.

All times are in **seconds of simulated time**. The absolute values are
calibrated to the hardware the paper describes (§4.1): RAMCloud get/put in
the 5–10 µs range over 40 Gbps Infiniband with RDMA, and a 10 Gbps Ethernet
alternative roughly an order of magnitude slower on latency. The experiments
in the paper compare *relative* performance of routing strategies and
systems; these models reproduce the relative cost structure — per-request
overhead vs per-key service vs per-byte transfer vs local compute — rather
than any absolute number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point network between tiers.

    ``latency`` is one-way propagation + stack traversal; a request/response
    pair pays it twice. ``bandwidth`` throttles payload transfer.
    """

    name: str
    latency: float  # seconds, one-way
    bandwidth: float  # bytes per second

    def transfer_time(self, nbytes: int) -> float:
        """One-way time to move ``nbytes``."""
        return self.latency + nbytes / self.bandwidth


#: 40 Gbps Infiniband with RDMA — microsecond-scale one-way latency.
INFINIBAND = NetworkModel(name="infiniband", latency=1.5e-6, bandwidth=5.0e9)

#: 10 Gbps Ethernet — tens of microseconds per hop through the kernel stack.
ETHERNET = NetworkModel(name="ethernet", latency=30.0e-6, bandwidth=1.25e9)


@dataclass(frozen=True)
class StorageServiceModel:
    """Server-side cost of serving key-value requests (RAMCloud-like).

    Calibrated so a batched get costs ~1 µs/key end to end (RAMCloud's
    5-10 µs single-get latency, amortised by multiget pipelining), keeping
    the cache-hit vs storage-miss cost ratio in the regime the paper's
    Figure 9 break-even analysis implies.
    """

    per_request: float = 3.0e-6  # dispatch + hash-table entry
    per_key: float = 0.8e-6  # per key looked up in a multiget
    per_byte: float = 0.1e-9  # log read-out / serialization
    # Writes are costlier than reads on a log-structured store: the log
    # append is cheap but the hash-table update plus replication headroom
    # put a RAMCloud-style durable write at roughly 2x a read.
    write_per_request: float = 4.0e-6  # dispatch + replication initiation
    write_per_key: float = 1.6e-6  # log append + hash-table update per record
    write_per_byte: float = 0.2e-9  # log copy-in / checksumming

    def service_time(self, num_keys: int, nbytes: int) -> float:
        """Time the server's pipeline is occupied by one (multi)get."""
        return self.per_request + self.per_key * num_keys + self.per_byte * nbytes

    def write_time(self, num_keys: int, nbytes: int) -> float:
        """Time the server's pipeline is occupied by one (multi)put.

        Writes share the FIFO pipeline with reads, so update churn
        contends with query traffic — the effect the live-update
        benchmark measures.
        """
        return (
            self.write_per_request
            + self.write_per_key * num_keys
            + self.write_per_byte * nbytes
        )


@dataclass(frozen=True)
class ComputeModel:
    """Query-processor CPU costs."""

    per_node: float = 0.5e-6  # scan one adjacency record during traversal
    per_walk_step: float = 0.3e-6  # one step of a random walk
    per_dispatch: float = 0.2e-6  # router bookkeeping per routed query


@dataclass(frozen=True)
class CacheCostModel:
    """Cache lookup and maintenance costs (the paper's Fig 9 relies on
    these being non-zero: a tiny cache must cost more than it saves)."""

    lookup: float = 0.05e-6  # per node probed
    insert: float = 0.15e-6  # per record admitted (includes LRU upkeep)


@dataclass(frozen=True)
class CostModel:
    """Bundle of every cost knob used by a cluster simulation."""

    network: NetworkModel = INFINIBAND
    storage: StorageServiceModel = StorageServiceModel()
    compute: ComputeModel = ComputeModel()
    cache: CacheCostModel = CacheCostModel()

    def with_network(self, network: NetworkModel) -> "CostModel":
        """Same cost model over a different interconnect."""
        return replace(self, network=network)


#: Default deployment: Infiniband + RAMCloud-like storage (paper's gRouting).
DEFAULT_COSTS = CostModel()

#: The gRouting-E configuration (paper Fig 7): same system over Ethernet.
ETHERNET_COSTS = CostModel(network=ETHERNET)
