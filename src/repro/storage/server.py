"""A simulated storage server: a FIFO service pipeline plus counters.

Requests occupy the server's pipeline for a service time derived from the
:class:`~repro.costs.StorageServiceModel`, so storage-tier contention —
central to the paper's Fig 8(c) storage-scaling experiment — emerges
naturally from queueing rather than being assumed. A server holds no
record bytes: record sizes drive every service time, and where a record
lives is the tier's concern (hash home plus placement directory).

Every request is a :class:`RoundTrip` — a query's multiget and a record
mover leg's multiput alike: request transfer → pipeline grant (liveness
checked there) → service → response transfer, as one callback chain
with no generator or ``Process`` of its own. Reads and writes differ
only in wire sizes, service time and which counters they bump, all
fixed when the round trip is built.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..costs import NetworkModel, StorageServiceModel
from ..sim import Environment, Event, Resource

#: Wire framing of a multiget: request header + 8-byte key per key out,
#: response header + the records back.
_READ_HEADER_BYTES = 24
_PER_KEY_READ_BYTES = 8
_RESPONSE_HEADER_BYTES = 16
#: Wire framing of a multiput: request header + key and length prefix
#: per record + the records out, a bare ack back.
_WRITE_HEADER_BYTES = 24
_PER_RECORD_WRITE_BYTES = 12
_WRITE_ACK_BYTES = 16


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
        # historical meaning under update churn. Both are bumped by
        # :class:`RoundTrip` at the end of service.
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

    def utilization(self, elapsed: float) -> float:
        return self.pipeline.utilization(elapsed)


class RoundTrip(Event):
    """One batched request to one storage server, from send to reply.

    A read (multiget of ``num_keys`` records, ``nbytes`` in all) sends
    24 + 8·keys bytes and gets 16 + ``nbytes`` back; a write (multiput,
    ``write=True``) sends 24 + 12·records + ``nbytes`` and gets a 16-byte
    ack. In between the request queues on the server's FIFO pipeline —
    reads and writes in one arrival order — and holds it for the service
    model's ``service_time`` (reads) or ``write_time`` (writes).

    The round trip *is* its own completion event: it succeeds with
    ``None`` when the response has arrived, or fails with
    :class:`StorageServerDown` if the server is down when the pipeline
    grants it (the pipeline is released at once). The chain runs on
    kernel callbacks: request arrival → grant → service end (counters,
    release) → response arrival → completion, five events per request.
    """

    __slots__ = ("server", "network", "num_keys", "nbytes", "write",
                 "service_time", "request")

    def __init__(self, server: StorageServer, network: NetworkModel,
                 num_keys: int, nbytes: int, write: bool = False) -> None:
        env = server.env
        super().__init__(env)
        self.server = server
        self.network = network
        self.num_keys = num_keys
        self.nbytes = nbytes
        self.write = write
        if write:
            self.service_time = server.service.write_time(num_keys, nbytes)
            request_bytes = (_WRITE_HEADER_BYTES
                             + _PER_RECORD_WRITE_BYTES * num_keys + nbytes)
        else:
            self.service_time = server.service.service_time(num_keys, nbytes)
            request_bytes = _READ_HEADER_BYTES + _PER_KEY_READ_BYTES * num_keys
        arrival = env.timeout(network.transfer_time(request_bytes))
        arrival.callbacks.append(self._on_arrival)

    def _on_arrival(self, _event: Event) -> None:
        """Request reached the server: join the FIFO service pipeline."""
        request = self.server.pipeline.request()
        self.request = request
        request.callbacks.append(self._on_grant)

    def _on_grant(self, _event: Event) -> None:
        server = self.server
        if not server.alive:
            server.pipeline.release(self.request)
            self.fail(
                StorageServerDown(f"storage server {server.server_id} is down")
            )
            return
        service = self.env.timeout(self.service_time)
        service.callbacks.append(self._on_service_end)

    def _on_service_end(self, _event: Event) -> None:
        server = self.server
        if self.write:
            server.writes_served += 1
            server.records_written += self.num_keys
            server.bytes_written += self.nbytes
            response_bytes = _WRITE_ACK_BYTES
        else:
            server.requests_served += 1
            server.keys_served += self.num_keys
            server.bytes_served += self.nbytes
            response_bytes = _RESPONSE_HEADER_BYTES + self.nbytes
        server.pipeline.release(self.request)
        response = self.env.timeout(self.network.transfer_time(response_bytes))
        response.callbacks.append(self._on_response)

    def _on_response(self, _event: Event) -> None:
        self.succeed(None)
