"""Outside-in tracing: timing wrappers installed from ``perf/`` around
the program's public calls.

A span is (group, start, end, parent span, query id when one is in
scope). The parent is the enclosing span on the wrapper stack, so a
span's *self* time is its duration minus the part its child spans cover.
Generator entry points (``execute_query``, ``gather_nodes``, ...) run
interleaved inside the event loop, so one span covers each *resume*
(send -> next yield) and the resumes are summed per group.

Spans are aggregated in memory (calls, inclusive seconds, self seconds
per group); raw spans are kept only until :data:`RAW_QUERIES` queries
have completed and are written out by the caller as Chrome-trace JSON.
Names are patched where they are *looked up* and everything is restored
by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans are recorded until this many queries have completed.
RAW_QUERIES = 200

OPERATORS = ("aggregation", "walk", "reachability", "ppr", "k_reach", "sample")

RUN = "sim.run"
OPEN = "core.service.open"
DRIVE = "core.service.drive"
REPORT = "core.service.report"
SUBMIT = "core.router.submit"
ON_ACK = "core.router.on_ack"
CHOOSE = "core.routing.choose"
ON_FEEDBACK = "core.routing.on_feedback"
OFFER = "core.admission.offer"
PUMP = "core.admission.pump"
EXECUTE = "core.operators.execute"
GATHER = "core.operators.gather"
GET_MANY = "core.cache.get_many"
PUT_MANY = "core.cache.put_many"
INVALIDATE_MANY = "core.cache.invalidate_many"
MULTIPUT = "storage.multiput"
APPLY = "core.updates.apply"
APPLY_GRAPH_UPDATES = "core.assets.apply_graph_updates"
LANDMARK_INDEX = "core.assets.landmark_index"
EMBEDDING = "core.assets.embedding"
PLAN = "core.placement.plan"
AGGREGATE = "core.metrics.aggregate"


class Tracer:
    """Span stack + per-group aggregates + the patch list."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._next_span = 0
        self.reset()

    def reset(self, raw: bool = False) -> None:
        """Drop the aggregates (phase boundary: set-up -> traced rep)."""
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}
        #: Raw spans ``(group, start, duration, span, parent, query id)``,
        #: recorded while ``raw`` is on and fewer than RAW_QUERIES acked.
        self.raw: List[tuple] = []
        self._raw_on = raw
        self._acks = 0
        #: Keys probed through ``ProcessorCache.get_many``.
        self.keys_probed = 0
        #: Generator entry points: calls started per group (a call spans
        #: several resumes, which ``calls`` counts).
        self.started: Dict[str, int] = {}

    # -- span stack ---------------------------------------------------------
    def _begin(self, group: str, query_id: Optional[int]) -> list:
        stack = self._stack
        if query_id is None and stack:
            query_id = stack[-1][3]
        self._next_span += 1
        # A span is kept raw when it *began* inside the raw window, so the
        # root spans of the first queries survive ending after it closed.
        frame = [group, 0.0, 0.0, query_id, self._next_span, self._raw_on]
        stack.append(frame)
        depth = self._depth
        depth[group] = depth.get(group, 0) + 1
        frame[1] = perf_counter()
        return frame

    def _end(self, frame: list) -> None:
        end = perf_counter()
        group, start, children, query_id, span_id, raw = frame
        duration = end - start
        stack = self._stack
        stack.pop()
        self.calls[group] = self.calls.get(group, 0) + 1
        self.self_s[group] = self.self_s.get(group, 0.0) + duration - children
        depth = self._depth[group] - 1
        self._depth[group] = depth
        if depth == 0:
            # Inclusive time counts outermost spans of a group only, so a
            # strategy delegating to an arm is not counted twice.
            self.total[group] = self.total.get(group, 0.0) + duration
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[4]
        if raw:
            self.raw.append(
                (group, start, duration, span_id, parent_id, query_id))

    @contextmanager
    def span(self, group: str):
        """A span the benchmark opens by hand."""
        frame = self._begin(group, None)
        try:
            yield
        finally:
            self._end(frame)

    # -- wrappers -----------------------------------------------------------
    def _call(self, group: str, fn: Callable,
              query_arg: Optional[int] = None) -> Callable:
        begin, end = self._begin, self._end

        if query_arg is None:
            def wrapper(*args, **kwargs):
                frame = begin(group, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(frame)
        else:
            def wrapper(*args, **kwargs):
                frame = begin(group, args[query_arg].query_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(frame)
        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, group: str, generator, query_id: Optional[int]):
        """Run ``generator`` with one span per resume."""
        begin, end = self._begin, self._end
        send, throw = generator.send, generator.throw
        value = None
        error: Optional[BaseException] = None
        while True:
            frame = begin(group, query_id)
            try:
                if error is None:
                    yielded = send(value)
                else:
                    yielded = throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                end(frame)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded to the inner generator
                error = exc

    def _generator(self, group: str, fn: Callable) -> Callable:
        drive = self._drive

        def wrapper(*args, **kwargs):
            started = self.started
            started[group] = started.get(group, 0) + 1
            return drive(group, fn(*args, **kwargs), None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_call(self, owner: object, name: str, group: str,
                    query_arg: Optional[int] = None) -> None:
        self._patch(owner, name,
                    self._call(group, getattr(owner, name), query_arg))

    def _patch_generator(self, owner: object, name: str, group: str) -> None:
        self._patch(owner, name, self._generator(group, getattr(owner, name)))

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap the public calls of every layer (idempotent per tracer)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.core import (
            AdmissionController,
            GraphAssets,
            GraphService,
            LiveUpdateManager,
            PlacementManager,
            ProcessorCache,
            QuerySession,
            Router,
            default_registry,
        )
        from repro.core import processor as processor_module
        from repro.core import routing as routing_module
        from repro.core.operators import sampling, traversals, walks
        from repro.sim import Environment
        from repro.storage import StorageTier

        self._patch_call(Environment, "run", RUN)
        self._patch(GraphService, "open", classmethod(
            self._call(OPEN, GraphService.__dict__["open"].__func__)))
        self._patch_call(QuerySession, "stream", DRIVE)
        self._patch_call(QuerySession, "serve", DRIVE)
        self._patch_call(QuerySession, "report", REPORT)
        self._patch_call(Router, "submit", SUBMIT)
        self._patch(Router, "on_ack", self._on_ack(Router.on_ack))
        for strategy in (
            routing_module.RoutingStrategy,
            routing_module.NextReadyRouting,
            routing_module.HashRouting,
            routing_module.LandmarkRouting,
            routing_module.EmbedRouting,
            routing_module.AdaptiveRouting,
        ):
            # Each concrete strategy's own definitions; the base class
            # carries the no-op ``on_feedback`` static strategies inherit.
            if "choose" in strategy.__dict__ \
                    and strategy is not routing_module.RoutingStrategy:
                self._patch_call(strategy, "choose", CHOOSE, query_arg=1)
            if "on_feedback" in strategy.__dict__:
                self._patch_call(strategy, "on_feedback", ON_FEEDBACK)
        self._patch_call(AdmissionController, "offer", OFFER, query_arg=1)
        self._patch_call(AdmissionController, "pump", PUMP)

        # Names are patched where they are looked up: the processor loop
        # and the built-in executors import these by name.
        operator_name = default_registry.operator_name
        execute = processor_module.execute_query
        drive = self._drive

        def traced_execute(processor, query):
            return drive(f"{EXECUTE}.{operator_name(query)}",
                         execute(processor, query), query.query_id)
        traced_execute.__wrapped__ = execute
        self._patch(processor_module, "execute_query", traced_execute)
        for module in (traversals, walks, sampling):
            self._patch_generator(module, "gather_nodes", GATHER)

        self._patch(ProcessorCache, "get_many",
                    self._get_many(ProcessorCache.get_many))
        self._patch_call(ProcessorCache, "put_many", PUT_MANY)
        self._patch_call(ProcessorCache, "invalidate_many", INVALIDATE_MANY)
        self._patch_generator(StorageTier, "multiput_process", MULTIPUT)
        self._patch_call(LiveUpdateManager, "apply", APPLY)
        self._patch_generator(LiveUpdateManager, "apply_process", APPLY)
        self._patch_call(GraphAssets, "apply_graph_updates",
                         APPLY_GRAPH_UPDATES)
        self._patch_call(GraphAssets, "landmark_index", LANDMARK_INDEX)
        self._patch_call(GraphAssets, "embedding", EMBEDDING)
        self._patch_call(PlacementManager, "plan", PLAN)

    def _on_ack(self, fn: Callable) -> Callable:
        traced = self._call(ON_ACK, fn, query_arg=2)

        def on_ack(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                self._acks += 1
                if self._acks >= RAW_QUERIES:
                    self._raw_on = False
        on_ack.__wrapped__ = fn
        return on_ack

    def _get_many(self, fn: Callable) -> Callable:
        traced = self._call(GET_MANY, fn)

        def get_many(cache, keys):
            self.keys_probed += len(keys)
            return traced(cache, keys)
        get_many.__wrapped__ = fn
        return get_many

    def uninstall(self) -> None:
        """Restore every patched attribute, in reverse order."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading results ----------------------------------------------------
    def seconds(self, group: str) -> float:
        """Inclusive seconds of ``group`` (prefix match sums sub-groups,
        e.g. ``core.operators.execute`` over the per-operator groups)."""
        return _prefix_sum(self.total, group)

    def self_seconds(self, group: str) -> float:
        return _prefix_sum(self.self_s, group)

    def call_count(self, group: str) -> int:
        """Spans closed in ``group``: calls, or resumes of a generator."""
        return int(_prefix_sum(self.calls, group))

    def attributed_seconds(self) -> float:
        """Sum of every span's self time = wall covered by root spans."""
        return sum(self.self_s.values())

    def chrome_trace(self) -> Dict[str, object]:
        """The raw spans as Chrome-trace JSON (``chrome://tracing``)."""
        if not self.raw:
            return {"traceEvents": []}
        origin = min(span[1] for span in self.raw)
        events = []
        for group, start, duration, span_id, parent_id, query_id in self.raw:
            layer, _, name = group.rpartition(".")
            if group.startswith(EXECUTE + "."):
                layer, name = "core.operators", group[len("core.operators."):]
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent_id,
                         "query_id": query_id},
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def _prefix_sum(table: Dict[str, float], group: str) -> float:
    prefix = group + "."
    return sum(value for key, value in table.items()
               if key == group or key.startswith(prefix))

