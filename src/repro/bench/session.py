"""Steady-state vs cold-start: what long-lived sessions buy (beyond §4).

The paper (and the one-shot harness reproducing it) measures every scheme
from cold caches, but the architecture exists to serve *continuous*
traffic — where steady state, not warm-up, is the operating regime.
This experiment serves the repeat-heavy mixed workload through one
:class:`~repro.core.service.GraphService` in two sessions (warm-up, then
steady state) and compares the steady session against a cold one-shot run
of the *same* queries. Warm caches — and, for ``adaptive``, arm state
persisted across the session boundary, so steady traffic starts committed
instead of re-auditioning — are the payoff. A windowed report of one
continuous serve shows the same thing inside a single run: the early
windows absorb the compulsory misses, the late ones show the sustained
regime.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..core import GraphService, run_workload
from .adaptive import SUBMIT_BATCH, mixed_workload
from .experiments import scheme_config
from .harness import emit, get_context

#: Schemes compared warm-vs-cold (adaptive is the headline: it carries
#: learned arm state, not just cache contents, across sessions).
SESSION_SCHEMES = ("hash", "embed", "adaptive")

#: Windows for the continuous-serve steady-state view.
NUM_WINDOWS = 6


def session_steady_state(
    dataset: str = "webgraph", scale: Optional[float] = None,
) -> Dict[str, object]:
    """Warm-session vs cold-run response on the repeat-heavy mixture."""
    ctx = get_context(dataset, scale=scale)
    full = mixed_workload(ctx)
    half = len(full) // 2
    warmup, steady = full[:half], full[half:]

    rows: List[List[object]] = []
    snapshot: Dict[str, object] = {}
    for routing in SESSION_SCHEMES:
        config = replace(scheme_config(routing), submit_batch=SUBMIT_BATCH)
        # Cold baseline: a fresh cluster runs only the steady segment, so
        # its mean carries the compulsory misses (and, for adaptive, the
        # audition) that a long-lived service pays exactly once.
        cold = run_workload(ctx.graph, steady, config, assets=ctx.assets)
        with GraphService.open(ctx.graph, config, assets=ctx.assets) as service:
            with service.session() as warm_session:
                warm_session.stream(warmup)
                warm_report = warm_session.report()
            with service.session() as steady_session:
                steady_session.stream(steady)
                steady_report = steady_session.report()
            if routing == "adaptive":
                snapshot = service.strategy.snapshot()
        rows.append([
            routing,
            round(cold.mean_response_time() * 1e6, 2),
            round(steady_report.mean_response_time() * 1e6, 2),
            round(
                cold.mean_response_time() / steady_report.mean_response_time(),
                3,
            ),
            round(cold.cache_hit_rate(), 3),
            round(warm_report.cache_hit_rate(), 3),
            round(steady_report.cache_hit_rate(), 3),
        ])

    # One continuous serve of the full stream, windowed: the session API's
    # answer to "measure steady state without a separate warm-up run".
    # (Reusing `full` is fine — ids only need uniqueness per router, and
    # this is a fresh service.)
    config = replace(scheme_config("adaptive"), submit_batch=SUBMIT_BATCH)
    continuous = run_workload(ctx.graph, full, config, assets=ctx.assets)
    window_stats = continuous.per_window_stats(NUM_WINDOWS)
    window_rows = [
        [
            w["window"],
            w["queries"],
            round(float(w["mean_response_ms"]) * 1e3, 2),
            round(float(w["cache_hit_rate"]), 3),
        ]
        for w in window_stats
    ]

    emit(
        "Session steady state vs cold start on the mixed workload "
        "(mean response in µs)",
        ["routing", "cold", "steady", "speedup",
         "cold hits", "warm-up hits", "steady hits"],
        rows,
        "session_steady_state",
    )
    emit(
        "One continuous adaptive serve, windowed "
        f"({NUM_WINDOWS} equal windows, response in µs)",
        ["window", "queries", "mean", "hit rate"],
        window_rows,
        "session_steady_state_windows",
    )
    return {
        "response": rows,
        "adaptive_snapshot": snapshot,
        "windows": window_stats,
        "continuous_queries": len(continuous.records),
    }
