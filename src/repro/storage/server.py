"""A simulated storage server: a FIFO service pipeline plus counters.

Requests occupy the server's pipeline for a service time derived from the
:class:`~repro.costs.StorageServiceModel`, so storage-tier contention —
central to the paper's Fig 8(c) storage-scaling experiment — emerges
naturally from queueing rather than being assumed. A server holds no
record bytes: record sizes drive every service time, and where a record
lives is the tier's concern (hash home plus placement directory).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..costs import StorageServiceModel
from ..sim import Environment, Resource


class StorageServerDown(Exception):
    """Raised by requests against a failed server (failure injection)."""


class StorageServer:
    """One storage node in the storage tier."""

    def __init__(
        self,
        env: Environment,
        server_id: int,
        service_model: StorageServiceModel,
    ) -> None:
        self.env = env
        self.server_id = server_id
        self.service = service_model
        self.pipeline = Resource(env, capacity=1)
        self.alive = True
        # Counters for utilization / hotspot analysis. Reads and writes are
        # tracked separately so read-side experiments (Fig 8c) keep their
        # historical meaning under update churn. Reads are counted by the
        # gather path (``repro.core.operators.gather._ServerFetch``).
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
    def multiput_process(self, num_records: int, nbytes: int):
        """Simulation process serving a batched write of ``num_records``
        records totalling ``nbytes`` encoded bytes.

        Writes occupy the same FIFO pipeline as reads, so update churn
        queues behind (and delays) query fetches, which is the contention
        the live-update experiments measure.
        """
        request = self.pipeline.request()
        yield request
        try:
            if not self.alive:
                raise StorageServerDown(f"storage server {self.server_id} is down")
            yield self.env.timeout(self.service.write_time(num_records, nbytes))
            self.writes_served += 1
            self.records_written += num_records
            self.bytes_written += nbytes
        finally:
            self.pipeline.release(request)
        return num_records

    def utilization(self, elapsed: float) -> float:
        return self.pipeline.utilization(elapsed)
