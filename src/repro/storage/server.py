"""A simulated storage server: log-structured store + FIFO service pipeline.

Requests occupy the server's pipeline for a service time derived from the
:class:`~repro.costs.StorageServiceModel`, so storage-tier contention —
central to the paper's Fig 8(c) storage-scaling experiment — emerges
naturally from queueing rather than being assumed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..costs import StorageServiceModel
from ..sim import Environment, Resource
from .kvstore import LogStructuredStore


class StorageServerDown(Exception):
    """Raised by requests against a failed server (failure injection)."""


class StorageServer:
    """One storage node in the storage tier."""

    def __init__(
        self,
        env: Environment,
        server_id: int,
        service_model: StorageServiceModel,
        pipeline_width: int = 1,
        segment_bytes: int = 1 << 20,
    ) -> None:
        self.env = env
        self.server_id = server_id
        self.service = service_model
        self.store = LogStructuredStore(segment_bytes=segment_bytes)
        self.pipeline = Resource(env, capacity=pipeline_width)
        self.alive = True
        # Counters for utilization / hotspot analysis. Reads and writes are
        # tracked separately so read-side experiments (Fig 8c) keep their
        # historical meaning under update churn.
        self.requests_served = 0
        self.keys_served = 0
        self.bytes_served = 0
        self.writes_served = 0
        self.records_written = 0
        self.bytes_written = 0
        #: Alive-flag transition log: ``(simulated time, now_alive)`` per
        #: fail/recover edge. Pure bookkeeping (no simulated effects) —
        #: feeds the downtime/recovery metrics in per-server reports.
        self.alive_transitions: List[Tuple[float, bool]] = []

    # -- untimed bulk loading (setup happens outside simulated time) -------
    def load(self, key: int, value: bytes) -> None:
        # repro: allow S301 — bulk loading runs before the simulation starts
        self.store.put(key, value)

    # -- failure injection ---------------------------------------------------
    def fail(self) -> None:
        """Mark the server down; subsequent requests raise."""
        if self.alive:
            self.alive = False
            self.alive_transitions.append((self.env.now, False))

    def recover(self) -> None:
        if not self.alive:
            self.alive = True
            self.alive_transitions.append((self.env.now, True))

    def downtime_windows(self) -> List[Tuple[float, Optional[float]]]:
        """``(down_at, up_at)`` per outage; ``up_at`` is None while down."""
        windows: List[Tuple[float, Optional[float]]] = []
        for at, now_alive in self.alive_transitions:
            if not now_alive:
                windows.append((at, None))
            elif windows and windows[-1][1] is None:
                windows[-1] = (windows[-1][0], at)
        return windows

    # -- timed operations ------------------------------------------------------
    def multiget_process(self, keys: Iterable[int]):
        """Simulation process serving a multiget; yields the value dict.

        The caller is responsible for network costs; this process models
        only server-side queueing and service time. Queries do not spawn
        it: the gather hot path drives the same pipeline ``Resource``
        through the metadata-only callback chain
        ``repro.core.operators.gather._ServerFetch`` (sizes and ownership
        from precomputed arrays, same queueing and failure injection).
        """
        keys = list(keys)
        request = self.pipeline.request()
        yield request
        try:
            if not self.alive:
                raise StorageServerDown(f"storage server {self.server_id} is down")
            values = self.store.multiget(keys)
            nbytes = sum(len(v) for v in values.values())
            yield self.env.timeout(self.service.service_time(len(keys), nbytes))
            self.requests_served += 1
            self.keys_served += len(keys)
            self.bytes_served += nbytes
        finally:
            self.pipeline.release(request)
        return values

    def multiput_process(self, entries, nbytes: int):
        """Simulation process serving a batched write (graph updates).

        ``entries`` is a sequence of ``(key, payload)`` pairs; ``payload``
        may be ``None`` in accounting mode (sweep experiments track sizes
        and ownership from precomputed arrays without materialising the
        store), in which case ``nbytes`` carries the encoded sizes. Writes
        occupy the same FIFO pipeline as reads, so update churn queues
        behind (and delays) query fetches, which is the contention the
        live-update experiments measure.
        """
        entries = list(entries)
        request = self.pipeline.request()
        yield request
        try:
            if not self.alive:
                raise StorageServerDown(f"storage server {self.server_id} is down")
            yield self.env.timeout(self.service.write_time(len(entries), nbytes))
            for key, payload in entries:
                if payload is not None:
                    self.store.put(key, payload)
            self.writes_served += 1
            self.records_written += len(entries)
            self.bytes_written += nbytes
        finally:
            self.pipeline.release(request)
        return len(entries)

    def utilization(self, elapsed: float) -> float:
        return self.pipeline.utilization(elapsed)
