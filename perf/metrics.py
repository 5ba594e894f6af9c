"""Metric names, units and bounds of the perf ledger, and how each value
is computed from the program's public counters and the outside-in trace.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out; the
self-test fails when the two drift apart.

Two clocks are kept apart everywhere: ``sim`` values are what the
modelled cluster does (simulated time, exact and seed-deterministic);
``host`` values are what the simulator costs to run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import spans
from workloads import NUM_WINDOWS, SLO_LIMIT_S, WORKLOADS

CLASSES = ("point", "walk", "traversal")

#: The ledger's ten end-to-end metrics: (name, unit, better, clock,
#: workloads it applies to or None for all).
OPEN_LOOP = ("slo_open", "churn_failover")
LEDGER_END_TO_END: Tuple[Tuple[str, str, str, str, Optional[tuple]], ...] = (
    ("setup_s", "s", "lower", "host", None),
    ("host_ops_per_s", "ops/s", "higher", "host", None),
    ("peak_rss_mb", "MiB", "lower", "host", None),
    ("sim_mean_response_us", "us", "lower", "sim", None),
    ("sim_p99_response_us", "us", "lower", "sim", None),
    ("sim_throughput_qps", "q/s", "higher", "sim", None),
    ("sim_p99_sojourn_us", "us", "lower", "sim", OPEN_LOOP),
    ("sim_slo_miss_share", "ratio", "lower", "sim", OPEN_LOOP),
    ("sim_overload_slo_miss_share", "ratio", "lower", "sim", ("slo_open",)),
    ("sim_worst_window_p90_us", "us", "lower", "sim", ("churn_failover",)),
)

#: Regression bounds the driver enforces (``BENCHMARK.json`` end_to_end).
#: The driver needs every bounded metric on every workload, never zero,
#: with a seed-to-seed spread inside its bound. The tail and SLO metrics
#: cannot meet that (``churn_failover`` p99 moves 30-60 % between seeds)
#: and neither can ``peak_rss_mb`` (``churn_failover`` climbs all through
#: the server outage and peaks at 260-395 MiB by seed); those six ride
#: in ``per_layer`` there and are compared at a fixed seed by
#: ``compare.py`` instead — exactly, or within 5 % for the RSS.
BOUNDS: Dict[str, float] = {
    "setup_s": 0.25,
    "host_ops_per_s": 0.15,
    "sim_mean_response_us": 0.25,
    "sim_throughput_qps": 0.25,
}

_PER_LAYER: List[Tuple[str, str, str]] = [
    # sim
    ("sim.events", "count", "lower"),
    ("sim.events_per_op", "count", "lower"),
    ("sim.run_self_s", "s", "lower"),
    ("sim.events_per_host_s", "1/s", "higher"),
    ("sim.micro_events_per_s", "1/s", "higher"),
    # core.service
    ("core.service.open_s", "s", "lower"),
    ("core.service.drive_self_s", "s", "lower"),
    ("core.service.report_s", "s", "lower"),
    # core.router
    ("core.router.submit_s", "s", "lower"),
    ("core.router.submit_self_s", "s", "lower"),
    ("core.router.on_ack_self_s", "s", "lower"),
    ("core.router.submit_calls", "count", "lower"),
    ("core.router.stolen_share", "ratio", "lower"),
    ("core.router.queue_wait_sim_us_mean", "us", "lower"),
    # core.routing
    ("core.routing.choose_s", "s", "lower"),
    ("core.routing.choose_us_per_query", "us", "lower"),
    ("core.routing.on_feedback_s", "s", "lower"),
    ("core.routing.decision_sim_us_mean", "us", "lower"),
    ("core.routing.intended_hit_share", "ratio", "higher"),
    # core.admission
    ("core.admission.offer_s", "s", "lower"),
    ("core.admission.pump_s", "s", "lower"),
    ("core.admission.offered", "count", "higher"),
    ("core.admission.shed_share", "ratio", "lower"),
    ("core.admission.rejected_share", "ratio", "lower"),
    ("core.admission.overload_sim_s", "s", "lower"),
    # core.processor
    ("core.processor.busy_sim_share", "ratio", "higher"),
    ("core.processor.load_imbalance", "ratio", "lower"),
    ("core.processor.storage_retries", "count", "lower"),
    # core.operators
    ("core.operators.execute_s", "s", "lower"),
    ("core.operators.execute_self_s", "s", "lower"),
    ("core.operators.resumes", "count", "lower"),
    ("core.operators.gather_s", "s", "lower"),
    ("core.operators.gather_self_s", "s", "lower"),
    ("core.operators.gather_calls_per_query", "count", "lower"),
]
_PER_LAYER += [(f"core.operators.execute_s.{op}", "s", "lower")
               for op in spans.OPERATORS]
_PER_LAYER += [(f"core.operators.sim_mean_response_us.{op}", "us", "lower")
               for op in spans.OPERATORS]
_PER_LAYER += [
    # core.cache
    ("core.cache.get_many_s", "s", "lower"),
    ("core.cache.get_many_ns_per_key", "ns", "lower"),
    ("core.cache.put_many_s", "s", "lower"),
    ("core.cache.invalidate_many_s", "s", "lower"),
    ("core.cache.probes", "count", "lower"),
    ("core.cache.hit_rate", "ratio", "higher"),
    ("core.cache.evictions", "count", "lower"),
    # storage
    ("storage.requests", "count", "lower"),
    ("storage.keys_served", "count", "lower"),
    ("storage.bytes_served", "bytes", "lower"),
]
_PER_LAYER += [(f"storage.requests_per_query.{c}", "count", "lower")
               for c in CLASSES]
_PER_LAYER += [(f"storage.bytes_per_query.{c}", "bytes", "lower")
               for c in CLASSES]
_PER_LAYER += [
    ("storage.busy_sim_share", "ratio", "lower"),
    ("storage.request_imbalance", "ratio", "lower"),
    ("storage.multiput_s", "s", "lower"),
    ("storage.bytes_written", "bytes", "lower"),
    # core.updates
    ("core.updates.apply_s", "s", "lower"),
    ("core.updates.apply_ms_per_update", "ms", "lower"),
    ("core.updates.updates_applied", "count", "higher"),
    ("core.updates.records_written", "count", "lower"),
    ("core.updates.refreshes", "count", "lower"),
    # core.assets
    ("core.assets.csr_build_s", "s", "lower"),
    ("core.assets.record_sizes_s", "s", "lower"),
    ("core.assets.landmark_index_s", "s", "lower"),
    ("core.assets.embedding_s", "s", "lower"),
    ("core.assets.apply_graph_updates_s", "s", "lower"),
    ("core.assets.apply_graph_updates_ms_per_batch", "ms", "lower"),
    # core.placement
    ("core.placement.plan_s", "s", "lower"),
    ("core.placement.rounds", "count", "lower"),
    ("core.placement.replications", "count", "lower"),
    ("core.placement.migration_bytes", "bytes", "lower"),
    # core.topology
    ("core.topology.repair_rounds", "count", "lower"),
    ("core.topology.repair_bytes", "bytes", "lower"),
    ("core.topology.demand_repairs", "count", "lower"),
    ("core.topology.recovery_sim_ms", "ms", "lower"),
    ("core.topology.downtime_sim_ms", "ms", "lower"),
    # core.metrics, workloads, datasets, graph
    ("core.metrics.aggregate_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("datasets.load_s", "s", "lower"),
    ("graph.copy_s", "s", "lower"),
    # perf (tooling health, not a target)
    ("perf.trace_overhead_share", "ratio", "lower"),
    ("perf.attributed_share", "ratio", "higher"),
]
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_PER_LAYER)

#: Per-layer counts read off the trace rather than the program's own
#: counters; they are exact, so they ride in the deterministic block.
TRACE_COUNTS = (
    "core.router.submit_calls",
    "core.operators.resumes",
    "core.operators.gather_calls_per_query",
)


def units() -> Dict[str, str]:
    table = {name: unit for name, unit, _, _, _ in LEDGER_END_TO_END}
    table.update({name: unit for name, unit, _ in PER_LAYER})
    return table


def applies(metric: str, workload: str) -> bool:
    for name, _, _, _, only in LEDGER_END_TO_END:
        if name == metric:
            return only is None or workload in only
    return True


def manifest(run_seconds: int) -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    ledger = {name: (unit, better)
              for name, unit, better, _, _ in LEDGER_END_TO_END}
    demoted = [(name, unit, better)
               for name, (unit, better) in ledger.items()
               if name not in BOUNDS]
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": ledger[name][0],
             "better": ledger[name][1], "bound": bound}
            for name, bound in BOUNDS.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in tuple(demoted) + PER_LAYER
        ],
    }


# -- values -------------------------------------------------------------------
def sim_digest(report) -> str:
    """sha256 over every record's identity, placement, timing and answer."""
    digest = hashlib.sha256()
    for r in report.records:
        digest.update(
            f"{r.query_id},{r.processor},{r.started_at.hex()},"
            f"{r.finished_at.hex()},{r.stats.result!r};".encode()
        )
    return digest.hexdigest()


def slo_miss_share(report) -> float:
    """(shed + rejected + completed late) / offered."""
    offered = report.offered()
    if offered == 0:
        return 0.0
    late = sum(1 for r in report.records if r.sojourn_time > SLO_LIMIT_S)
    return (offered - len(report.records) + late) / offered


def aggregate(report, open_loop: bool) -> Dict[str, float]:
    """The ``core.metrics`` calls the benchmark makes, inside the rep
    clock: every simulated end-to-end metric plus the grouped views the
    per-layer block reads."""
    report.summary()
    windows = report.windows(NUM_WINDOWS)
    return {
        "sim_mean_response_us": report.mean_response_time() * 1e6,
        "sim_p99_response_us": report.percentile_response_time(99) * 1e6,
        "sim_throughput_qps": (
            report.goodput() if open_loop else report.throughput()),
        "sim_p99_sojourn_us": report.percentile_sojourn_time(99) * 1e6,
        "sim_slo_miss_share": slo_miss_share(report),
        "sim_worst_window_p90_us": max(
            (w.percentile_sojourn_time(90) for w in windows if w.records),
            default=0.0) * 1e6,
        "_per_operator": report.per_operator_stats(),
        "_per_tenant": report.per_tenant_stats(),
    }


def sim_layers(report, service, aggregated, ops: int) -> Dict[str, float]:
    """Exact per-layer values: counts and sim-clock numbers read from the
    program's public counters after the rep."""
    records = report.records
    n = max(1, len(records))
    servers = service.tier.servers
    caches = [p.cache.stats for p in service.processors]
    probes = sum(c.hits + c.misses for c in caches)
    admission = report.admission
    offered = report.offered()
    # Closed-loop reports carry no admission stats; a passthrough serve
    # (churn_failover) carries stats that shed and reject nothing.
    shed = admission.shed if admission is not None else 0
    rejected = admission.rejected if admission is not None else 0
    placement = service.placement.stats() if service.placement else {}
    topology = service.topology.snapshot() if service.topology else {}
    recoveries = report.recovery_times_s()
    events = service.env.events_processed
    out: Dict[str, float] = {
        "sim.events": events,
        "sim.events_per_op": events / max(1, ops),
        "core.router.stolen_share": report.stolen_count() / n,
        "core.router.queue_wait_sim_us_mean": sum(
            r.started_at - r.enqueued_at for r in records) / n * 1e6,
        "core.routing.decision_sim_us_mean": sum(
            r.decision_time for r in records) / n * 1e6,
        "core.routing.intended_hit_share": sum(
            1 for r in records if r.intended_processor == r.processor) / n,
        "core.admission.offered": offered if admission is not None else 0,
        "core.admission.shed_share": shed / max(1, offered),
        "core.admission.rejected_share": rejected / max(1, offered),
        "core.admission.overload_sim_s": report.time_in_overload(),
        "core.processor.busy_sim_share": _mean(
            service.processor_utilizations()),
        "core.processor.load_imbalance": report.load_imbalance(),
        "core.processor.storage_retries": sum(
            p.storage_retries for p in service.processors),
        "core.cache.probes": probes,
        "core.cache.hit_rate": (
            sum(c.hits for c in caches) / probes if probes else 0.0),
        "core.cache.evictions": sum(c.evictions for c in caches),
        "storage.requests": sum(s.requests_served for s in servers),
        "storage.keys_served": sum(s.keys_served for s in servers),
        "storage.bytes_served": sum(s.bytes_served for s in servers),
        "storage.busy_sim_share": _mean(service.storage_utilizations()),
        "storage.request_imbalance": report.storage_request_imbalance(),
        "storage.bytes_written": sum(s.bytes_written for s in servers),
        "core.updates.updates_applied": service.updates.updates_applied,
        "core.updates.records_written": service.updates.records_written,
        "core.updates.refreshes": service.updates.refreshes,
        "core.placement.rounds": placement.get("rounds", 0),
        "core.placement.replications": placement.get("replications", 0),
        "core.placement.migration_bytes": placement.get("migration_bytes", 0),
        "core.topology.repair_rounds": topology.get("repair_rounds", 0),
        "core.topology.repair_bytes": topology.get("repair_bytes", 0),
        "core.topology.demand_repairs": topology.get("demand_repairs", 0),
        "core.topology.recovery_sim_ms": (
            max(recoveries) * 1e3 if recoveries else 0.0),
        "core.topology.downtime_sim_ms": report.total_downtime_s() * 1e3,
    }
    per_operator = aggregated["_per_operator"]
    for op in spans.OPERATORS:
        out[f"core.operators.sim_mean_response_us.{op}"] = (
            per_operator[op]["mean_response_ms"] * 1e3
            if op in per_operator else 0.0)
    # Fan et al.'s visits and bytes shipped per site, per query class.
    for cls in CLASSES:
        group = [r.stats for r in records if r.query_class == cls]
        out[f"storage.requests_per_query.{cls}"] = (
            sum(s.storage_requests for s in group) / len(group)
            if group else 0.0)
        out[f"storage.bytes_per_query.{cls}"] = (
            sum(s.bytes_fetched for s in group) / len(group)
            if group else 0.0)
    return out


def host_layers(
    tracer,
    setup: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
    events: int,
    queries: int,
    updates: int,
    micro_events_per_s: float,
    copy_s: float,
) -> Dict[str, float]:
    """Host-clock per-layer values of one traced rep."""
    t, s, c = tracer.seconds, tracer.self_seconds, tracer.call_count
    apply_batches = c(spans.APPLY_GRAPH_UPDATES)
    out = {
        "sim.run_self_s": s(spans.RUN),
        "sim.events_per_host_s": events / untraced_wall,
        "sim.micro_events_per_s": micro_events_per_s,
        "core.service.open_s": t(spans.OPEN),
        "core.service.drive_self_s": s(spans.DRIVE),
        "core.service.report_s": t(spans.REPORT),
        "core.router.submit_s": t(spans.SUBMIT),
        "core.router.submit_self_s": s(spans.SUBMIT),
        "core.router.on_ack_self_s": s(spans.ON_ACK),
        "core.router.submit_calls": c(spans.SUBMIT),
        "core.routing.choose_s": t(spans.CHOOSE),
        "core.routing.choose_us_per_query": (
            t(spans.CHOOSE) / max(1, queries) * 1e6),
        "core.routing.on_feedback_s": t(spans.ON_FEEDBACK),
        "core.admission.offer_s": t(spans.OFFER),
        "core.admission.pump_s": t(spans.PUMP),
        "core.operators.execute_s": t(spans.EXECUTE),
        "core.operators.execute_self_s": s(spans.EXECUTE),
        "core.operators.resumes": c(spans.EXECUTE),
        "core.operators.gather_s": t(spans.GATHER),
        "core.operators.gather_self_s": s(spans.GATHER),
        "core.operators.gather_calls_per_query": (
            tracer.started.get(spans.GATHER, 0) / max(1, queries)),
        "core.cache.get_many_s": t(spans.GET_MANY),
        "core.cache.get_many_ns_per_key": (
            t(spans.GET_MANY) / max(1, tracer.keys_probed) * 1e9),
        "core.cache.put_many_s": t(spans.PUT_MANY),
        "core.cache.invalidate_many_s": t(spans.INVALIDATE_MANY),
        "storage.multiput_s": t(spans.MULTIPUT),
        "core.updates.apply_s": t(spans.APPLY),
        "core.updates.apply_ms_per_update": (
            t(spans.APPLY) / updates * 1e3 if updates else 0.0),
        "core.assets.csr_build_s": setup["core.assets.csr_build_s"],
        "core.assets.record_sizes_s": setup["core.assets.record_sizes_s"],
        "core.assets.landmark_index_s": setup["core.assets.landmark_index_s"],
        "core.assets.embedding_s": setup["core.assets.embedding_s"],
        "core.assets.apply_graph_updates_s": t(spans.APPLY_GRAPH_UPDATES),
        "core.assets.apply_graph_updates_ms_per_batch": (
            t(spans.APPLY_GRAPH_UPDATES) / apply_batches * 1e3
            if apply_batches else 0.0),
        "core.placement.plan_s": t(spans.PLAN),
        "core.metrics.aggregate_s": t(spans.AGGREGATE),
        "workloads.generate_s": setup["workloads.generate_s"],
        "datasets.load_s": setup["datasets.load_s"],
        "graph.copy_s": copy_s,
        "perf.trace_overhead_share": (
            (traced_wall - untraced_wall) / untraced_wall),
        "perf.attributed_share": tracer.attributed_seconds() / traced_wall,
    }
    for op in spans.OPERATORS:
        out[f"core.operators.execute_s.{op}"] = t(f"{spans.EXECUTE}.{op}")
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
