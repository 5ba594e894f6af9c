"""First-class query-operator registry: the open operator set.

The paper hardwires three h-hop traversal types (§2.2) into its engine;
related systems treat the operator set as *open* — PHD-Store adapts its
engine per query pattern, and batched multi-source reachability work
(Fan et al.) needs queries our single-anchor API could not express. This
module makes every query type a registered :class:`QueryOperator` bundling

* an **executor** — the simulation process the engine runs per query;
* a **cost class** — ``point`` / ``walk`` / ``traversal`` (or a callable
  deriving one from the query's parameters), feeding the per-class
  metrics and adaptive routing's per-class arms;
* a **routing-key extractor** — the anchor node(s) routing strategies
  operate on; multi-anchor queries expose several and strategies
  aggregate them (plurality vote, distance mean, coordinate centroid);
* an optional **workload factory** — how the ``*_stream`` workload
  generators materialise this operator from a sampled node.

Registering an operator is the *complete* integration surface: engine
dispatch, router bookkeeping, query classification and workload
generation all resolve through registry lookups, so a new query type
needs zero edits under ``repro/core`` (see ``examples/custom_operator.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Optional,
    Tuple,
    Type,
    Union,
)

import numpy as np

from ..queries import QUERY_CLASSES, Query


class UnknownQueryTypeError(TypeError):
    """A query reached the engine without a registered operator."""


class UnknownOperatorError(ValueError):
    """An operator name (e.g. a workload ``mix`` entry) is not registered."""


#: Executor signature: a simulation process (generator) returning QueryStats.
Executor = Callable[[object, Query], object]
#: Workload factory signature: build one query of this operator around
#: ``node``. ``ball`` is the sampling pool (hotspot ball or eligible set)
#: targets/extra anchors are drawn from; ``rng`` the stream's generator.
WorkloadFactory = Callable[..., Query]


@dataclass(frozen=True)
class QueryOperator:
    """One pluggable query type: executor + cost class + routing keys.

    ``cost_class`` is either one of :data:`~repro.core.queries.QUERY_CLASSES`
    or a callable deriving the class from a query instance (e.g. 0/1-hop
    aggregations are ``point``, deeper ones ``traversal``).

    ``routing_keys`` maps a query to the tuple of anchor node ids routing
    strategies should consider; ``None`` means the default single anchor
    ``(query.node,)``.
    """

    name: str
    query_type: Type[Query]
    executor: Executor
    cost_class: Union[str, Callable[[Query], str]]
    routing_keys: Optional[Callable[[Query], Tuple[int, ...]]] = None
    workload_factory: Optional[WorkloadFactory] = None

    def classify(self, query: Query) -> str:
        """Cost class of ``query`` under this operator."""
        if callable(self.cost_class):
            return self.cost_class(query)
        return self.cost_class


class OperatorRegistry:
    """Name- and type-keyed registry of :class:`QueryOperator` entries."""

    def __init__(self) -> None:
        self._by_name: Dict[str, QueryOperator] = {}
        self._by_type: Dict[type, QueryOperator] = {}

    # -- registration --------------------------------------------------------
    def register(
        self, operator: QueryOperator, replace: bool = False
    ) -> QueryOperator:
        """Add an operator; refuses name/type collisions unless ``replace``."""
        if not operator.name:
            raise ValueError("operator name must be non-empty")
        if isinstance(operator.cost_class, str) and (
            operator.cost_class not in QUERY_CLASSES
        ):
            raise ValueError(
                f"cost_class {operator.cost_class!r} is not one of "
                f"{QUERY_CLASSES} (pass a callable for derived classes)"
            )
        if not isinstance(operator.query_type, type) or not issubclass(
            operator.query_type, Query
        ):
            raise ValueError("query_type must be a Query subclass")
        if not replace:
            if operator.name in self._by_name:
                raise ValueError(
                    f"operator name {operator.name!r} is already registered; "
                    "pass replace=True to override"
                )
            if operator.query_type in self._by_type:
                existing = self._by_type[operator.query_type].name
                raise ValueError(
                    f"query type {operator.query_type.__name__} is already "
                    f"registered as operator {existing!r}; pass replace=True "
                    "to override"
                )
        else:
            # Drop whatever previously owned this name or type, so the
            # registry never holds dangling cross-references.
            previous = self._by_name.pop(operator.name, None)
            if previous is not None:
                self._by_type.pop(previous.query_type, None)
            previous = self._by_type.pop(operator.query_type, None)
            if previous is not None:
                self._by_name.pop(previous.name, None)
        self._by_name[operator.name] = operator
        self._by_type[operator.query_type] = operator
        return operator

    def unregister(self, name: str) -> QueryOperator:
        """Remove and return the operator registered under ``name``."""
        operator = self._by_name.pop(name, None)
        if operator is None:
            raise UnknownOperatorError(
                f"no operator named {name!r}; registered: {self.describe()}"
            )
        self._by_type.pop(operator.query_type, None)
        return operator

    # -- lookups -------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Registered operator names, in registration order."""
        return tuple(self._by_name)

    def describe(self) -> str:
        """Human-readable ``name (QueryType)`` listing for error messages."""
        if not self._by_name:
            return "(none)"
        return ", ".join(
            f"{name} ({op.query_type.__name__})"
            for name, op in self._by_name.items()
        )

    def get(self, name: str) -> QueryOperator:
        operator = self._by_name.get(name)
        if operator is None:
            raise UnknownOperatorError(
                f"no operator named {name!r}; registered: {self.describe()}"
            )
        return operator

    def for_query_type(self, query_type: type) -> Optional[QueryOperator]:
        """Operator for a query type, honouring subclassing via the MRO."""
        operator = self._by_type.get(query_type)
        if operator is not None:
            return operator
        for base in query_type.__mro__[1:]:
            operator = self._by_type.get(base)
            if operator is not None:
                return operator
        return None

    def for_query(self, query: Query) -> QueryOperator:
        """Operator for a query instance; raises a registry-driven error.

        The error names every registered operator, so a typo'd or
        unregistered query type fails with the catalog in hand instead of
        an opaque ``TypeError``.
        """
        operator = self.for_query_type(type(query))
        if operator is None:
            raise UnknownQueryTypeError(
                f"no registered operator for query type "
                f"{type(query).__name__}; registered operators: "
                f"{self.describe()}. Register one via "
                "repro.core.operators.register(QueryOperator(...))"
            )
        return operator

    # -- per-query services ---------------------------------------------------
    def classify(self, query: Query) -> str:
        """Cost class of ``query`` (``point`` for unregistered types)."""
        operator = self.for_query_type(type(query))
        if operator is None:
            return "point"
        return operator.classify(query)

    def routing_keys(self, query: Query) -> Tuple[int, ...]:
        """Anchor node ids for routing; always non-empty.

        Unregistered types and operators without an extractor fall back to
        the single classic anchor ``(query.node,)``.
        """
        operator = self.for_query_type(type(query))
        if operator is None or operator.routing_keys is None:
            return (query.node,)
        keys = tuple(operator.routing_keys(query))
        return keys if keys else (query.node,)

    def operator_name(self, query: Query) -> str:
        """Registered name of a query's operator (type name if unknown)."""
        operator = self.for_query_type(type(query))
        return operator.name if operator is not None else type(query).__name__

    def execute(self, processor, query: Query):
        """Dispatch ``query`` to its registered executor."""
        return self.for_query(query).executor(processor, query)

    def make(
        self,
        kind: str,
        node: int,
        query_id: int,
        hops: int,
        ball: np.ndarray,
        rng: np.random.Generator,
    ) -> Query:
        """Build one ``kind`` query via its workload factory."""
        operator = self._by_name.get(kind)
        if operator is None or operator.workload_factory is None:
            with_factories = ", ".join(
                name for name, op in self._by_name.items()
                if op.workload_factory is not None
            ) or "(none)"
            raise UnknownOperatorError(
                f"unknown query kind: {kind!r}; operators with workload "
                f"factories: {with_factories}"
            )
        return operator.workload_factory(
            node=node, query_id=query_id, hops=hops, ball=ball, rng=rng,
        )


#: Process-wide registry the engine, router and workload generators consult.
default_registry = OperatorRegistry()


# -- module-level conveniences over the default registry ----------------------
def register(operator: QueryOperator, replace: bool = False) -> QueryOperator:
    """Register ``operator`` on the default registry."""
    return default_registry.register(operator, replace=replace)


def unregister(name: str) -> QueryOperator:
    """Remove ``name`` from the default registry."""
    return default_registry.unregister(name)


def registered_names() -> Tuple[str, ...]:
    return default_registry.names()


def routing_keys(query: Query) -> Tuple[int, ...]:
    """Anchor node ids of ``query`` per the default registry."""
    return default_registry.routing_keys(query)


def operator_name(query: Query) -> str:
    """Registered operator name of ``query`` per the default registry."""
    return default_registry.operator_name(query)


def execute_query(processor, query: Query):
    """Registry-dispatched engine entry point (was the isinstance chain)."""
    return default_registry.execute(processor, query)
