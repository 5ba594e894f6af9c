"""The discrete-event simulation environment (clock + event queue).

The environment owns the simulated clock and a binary heap of pending
``(time, sequence, event)`` triples.  ``run()`` dispatches events in
``(time, sequence)`` order, which makes every simulation fully
deterministic for a fixed program: ties at the same instant resolve in
scheduling order.

The heap is sized to the traffic this repository actually generates:
the paper's cluster keeps a few dozen events pending and fewer than two
events share a timestamp (``tests/test_sanitize.py`` pins both), so
there is nothing for a bucketed or cohort-batched scheduler to amortise.

Hot-path design
---------------

``timeout()`` serves bare timeouts (no value) from a free list that
:meth:`~repro.sim.events.Process._resume` refills as processes consume
them, so the single most common event in every simulation costs no
allocation in steady state.  ``run()`` inlines the first iteration of
``Process._resume`` for single-waiter events — keep it,
``Process._resume`` and ``Event._run_callbacks`` in lockstep
(``tests/test_kernel_equivalence.py`` replays random programs through
``run()`` and through a plain ``step()`` loop and diffs the traces).

The environment also counts dispatched events (:attr:`events_processed`
per environment, :func:`total_events_processed` process-wide), which is
what benchmark artifacts report as ``events_per_second``.

Sanitizer mode
--------------

``Environment(sanitize=True)`` (or ``REPRO_SANITIZE=1``) arms the runtime
counterpart of ``python -m repro.analysis``: bare timeouts are *retired*
instead of recycled so any retained reference trips the POOLED guards
deterministically, module-level ``random``/``np.random`` calls raise
while the simulation runs (see :mod:`repro.analysis.sanitize`), and the
run loop tallies same-timestamp tie cohorts and queue depth
(:meth:`sanitize_report`).  Sanitize mode never changes simulated
results — only what misuse does.  ``tie_break="lifo"`` reverses
same-timestamp dispatch order for the tie-sensitivity audit
(:func:`repro.analysis.sanitize.audit_tie_sensitivity`).
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import (
    POOLED,
    PROCESSED,
    TRIGGERED,
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Timeout,
)

#: Process-wide count of dispatched events, across every Environment.
#: A one-element list so the inlined run loop can add to it without a
#: module-level rebind (and so imports see updates).
_TOTAL_EVENTS = [0]

_INF = float("inf")


def total_events_processed() -> int:
    """Events dispatched by every environment in this process so far."""
    return _TOTAL_EVENTS[0]


def _sanitize_from_env() -> bool:
    """Default sanitize switch, read from ``REPRO_SANITIZE``."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on")


class Environment:
    """Execution environment for a single simulation run."""

    __slots__ = (
        "_now", "_queue", "_sequence", "_active_process",
        "_timeout_pool", "_spare", "_events_processed", "_run_targets",
        "_sanitize", "_seq_step", "_tie_cohorts", "_tie_max",
        "_last_when", "_tie_run", "_max_depth", "_distinct_times",
    )

    #: Scheduler name, recorded by the perf ledger next to its numbers.
    kernel = "heap"

    def __init__(self, initial_time: float = 0.0, *,
                 sanitize: Optional[bool] = None,
                 tie_break: str = "fifo") -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self._timeout_pool: List[Timeout] = []
        # One-slot fast lane in front of the free list: the run loop
        # parks the timeout it just recycled here and ``timeout()``
        # takes it back without touching the list.  In the steady
        # yield-timeout cycle the same objects ping-pong through this
        # slot and the pool list never churns.
        self._spare: Optional[Timeout] = None
        self._events_processed = 0
        # Stack of events that active run(until=event) calls are waiting
        # on (outermost first): exempt from timeout recycling so each run
        # loop can observe its target's completion even if a process
        # consumes the same bare timeout.
        self._run_targets: List[Event] = []
        self._sanitize = _sanitize_from_env() if sanitize is None \
            else bool(sanitize)
        if tie_break == "fifo":
            self._seq_step = 1
        elif tie_break == "lifo":
            # Audit mode: later same-instant insertions get *smaller*
            # sequence keys, reversing dispatch order within every tie
            # cohort (audit_tie_sensitivity runs both orders and diffs).
            self._seq_step = -1
        else:
            raise SimulationError(
                f"tie_break must be 'fifo' or 'lifo', got {tie_break!r}")
        # Sanitize-mode tallies: same-timestamp dispatch cohorts (the
        # open one carries across run() calls), deepest queue, distinct
        # dispatch instants.
        self._tie_cohorts = 0
        self._tie_max = 1
        self._last_when = -_INF
        self._tie_run = 0
        self._max_depth = 0
        self._distinct_times = 0

    @property
    def sanitize(self) -> bool:
        """True when sanitizer mode is armed for this environment."""
        return self._sanitize

    def sanitize_report(self) -> Dict[str, Any]:
        """Sanitizer observations for this environment.

        ``reports`` lists non-fatal hazard observations (currently always
        empty: every armed trap — pooled-timeout reuse, non-Event yield,
        unseeded global RNG — fails fast with :class:`SimulationError`
        instead of reporting). The tie-cohort tallies quantify how much
        same-timestamp tie-breaking the run exercised: cohorts of two or
        more events resolve by insertion order. ``max_queue_depth``
        (most events pending at any dispatch) and ``distinct_times``
        (instants dispatched; ``events_processed / distinct_times`` is
        the mean cohort size) are the traffic shape the binary heap was
        chosen for. All four are tallied by ``run()`` under sanitize
        mode only.
        """
        return {
            "sanitize": self._sanitize,
            "reports": [],
            "tie_cohorts_multi": self._tie_cohorts,
            "max_tie_cohort": self._tie_max,
            "max_queue_depth": self._max_depth,
            "distinct_times": self._distinct_times,
        }

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def events_processed(self) -> int:
        """Events dispatched by this environment so far."""
        return self._events_processed

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` units from now.

        Bare timeouts (``value is None``) are recycled through a free
        list — see the :mod:`repro.sim.events` docstring for the
        single-waiter contract this implies.
        """
        if value is None:
            timeout = self._spare
            if timeout is not None:
                self._spare = None
            else:
                pool = self._timeout_pool
                if not pool:
                    return Timeout(self, delay, value)
                timeout = pool.pop()
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay!r}")
            timeout.delay = delay
            # No _value/_exception reset: a pooled bare Timeout has both
            # None by construction (pooling requires a None value, and a
            # Timeout is born TRIGGERED so fail() can never have touched
            # it).
            timeout._state = TRIGGERED
            sequence = self._sequence
            heappush(self._queue, (self._now + delay, sequence, timeout))
            self._sequence = sequence + self._seq_step
            return timeout
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any one of ``events`` triggers."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heappush(self._queue, (self._now + delay, self._sequence, event))
        self._sequence += self._seq_step

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return _INF
        return self._queue[0][0]

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        self._events_processed += 1
        _TOTAL_EVENTS[0] += 1
        event._run_callbacks()

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (re-raising its exception on failure).

        Events only ever enter the queue at ``now + delay`` with
        ``delay >= 0``, so unlike :meth:`step` the inlined loop skips the
        scheduled-in-the-past check.
        """
        # The dispatch block inlines the first iteration of
        # Process._resume for single-waiter events — the dominant shape
        # by far.  Keep it, Process._resume and Event._run_callbacks in
        # lockstep.
        queue = self._queue
        pop = heappop
        pool = self._timeout_pool
        targets = self._run_targets
        sanitize = self._sanitize
        count = 0
        target: Optional[Event] = None
        limit = _INF
        if isinstance(until, Event):
            target = until
        elif until is not None:
            limit = float(until)
            if limit < self._now:
                raise SimulationError("run(until=...) is in the past")
        if sanitize:
            # Lazy import: the analysis package only loads when sanitizing.
            from ..analysis.sanitize import install_rng_trap, uninstall_rng_trap
            last_when = self._last_when
            cohort = self._tie_run
            install_rng_trap()
        if target is not None:
            targets.append(target)
        try:
            while True:
                if target is None:
                    if not queue or queue[0][0] > limit:
                        break
                elif target._state == PROCESSED:
                    break
                elif not queue:
                    if target._state == POOLED:  # defensive: the
                        # _run_targets exemption should make this
                        # unreachable via the public API
                        raise SimulationError(
                            "run(until=...) target is a recycled bare "
                            "Timeout; bare timeouts are single-waiter "
                            "(see repro.sim.events docstring)"
                        )
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered (deadlock?)"
                    )
                when, _seq, event = pop(queue)
                self._now = when
                count += 1
                if sanitize:
                    if len(queue) >= self._max_depth:
                        self._max_depth = len(queue) + 1
                    if when == last_when:
                        cohort += 1
                        if cohort == 2:
                            self._tie_cohorts += 1
                        if cohort > self._tie_max:
                            self._tie_max = cohort
                    else:
                        last_when = when
                        cohort = 1
                        self._distinct_times += 1
                    if event._exception is not None \
                            and event._waiter is None \
                            and not event.callbacks \
                            and event not in targets:
                        # Unhandled failure: nothing will ever observe
                        # this exception — surface it instead of
                        # letting it rot on the event.
                        raise event._exception
                event._state = PROCESSED
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    self._active_process = waiter
                    try:
                        if event._exception is None:
                            result = waiter._send(event._value)
                        else:
                            result = waiter._generator.throw(event._exception)
                    except BaseException as exc:
                        waiter._finish(exc)
                    else:
                        if type(event) is Timeout and event._value is None \
                                and not event.callbacks \
                                and event not in targets:
                            # (run targets — this loop's and any outer
                            # run()'s — must stay PROCESSED so their
                            # loops can observe completion)
                            event._state = POOLED
                            if not sanitize:
                                if self._spare is None:
                                    self._spare = event
                                else:
                                    pool.append(event)
                        try:
                            rstate = result._state
                        except AttributeError:
                            waiter._yield_error(result)
                        waiter._target = result
                        if rstate == PROCESSED:
                            waiter._resume(result)
                        elif rstate == POOLED:
                            raise SimulationError(
                                "yielded a recycled bare Timeout; bare "
                                "timeouts are single-waiter (see "
                                "repro.sim.events docstring)"
                            )
                        else:
                            if result._waiter is None \
                                    and not result.callbacks:
                                result._waiter = waiter
                            else:
                                result.callbacks.append(waiter._resume_cb)
                            self._active_process = None
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
        finally:
            if target is not None:
                targets.pop()
            self._events_processed += count
            _TOTAL_EVENTS[0] += count
            if sanitize:
                self._last_when = last_when
                self._tie_run = cohort
                uninstall_rng_trap()
        if target is not None:
            return target.value
        if until is not None:
            self._now = limit
        return None


__all__ = [
    "Environment",
    "total_events_processed",
]
