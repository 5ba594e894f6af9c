"""Shared experiment harness: contexts, formatting, result artifacts.

Every benchmark regenerates one table or figure of the paper. They share
per-dataset :class:`ExperimentContext` objects (graph + assets + workload),
so landmark BFS and embeddings are computed once per process, and they all
report through the same plain-text table formatter, whose output is the
reproduction's analogue of the paper's figures.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..core.assets import GraphAssets
from ..core.queries import Query
from ..datasets import load_dataset
from ..graph.digraph import Graph
from ..sim import total_events_processed
from ..workloads import hotspot_stream

#: Environment knob: scale every benchmark graph (e.g. 0.25 for smoke runs).
SCALE_ENV = "REPRO_BENCH_SCALE"

RESULTS_DIR = Path(os.environ.get("REPRO_BENCH_RESULTS", "bench_results"))


def bench_scale(default: float = 1.0) -> float:
    """Graph scale for benchmarks, overridable via REPRO_BENCH_SCALE.

    Validated eagerly so a typo'd CI variable fails the job at startup
    with a clear message, not deep inside a dataset loader (or worse,
    silently benchmarking the wrong graph size).
    """
    raw = os.environ.get(SCALE_ENV)
    if raw is None:
        return default
    try:
        scale = float(raw)
    except ValueError:
        raise ValueError(
            f"{SCALE_ENV} must be a number (e.g. 0.05 or 1.0), "
            f"got {raw!r}"
        ) from None
    if not math.isfinite(scale) or scale <= 0:
        raise ValueError(
            f"{SCALE_ENV} must be a positive, finite graph scale, "
            f"got {raw!r}"
        )
    return scale


@dataclass
class ExperimentContext:
    """One dataset's shared state across all experiments in a process."""

    dataset: str
    scale: float
    seed: int
    graph: Graph
    assets: GraphAssets
    _workloads: Dict[tuple, List[Query]] = field(default_factory=dict)

    def workload(
        self,
        num_hotspots: int = 100,
        queries_per_hotspot: int = 10,
        radius: int = 2,
        hops: int = 2,
        seed: int = 7,
    ) -> List[Query]:
        """Memoized hotspot workload (paper default: 100 x 10, r=2, h=2)."""
        key = (num_hotspots, queries_per_hotspot, radius, hops, seed)
        if key not in self._workloads:
            self._workloads[key] = list(hotspot_stream(
                self.graph,
                num_hotspots=num_hotspots,
                queries_per_hotspot=queries_per_hotspot,
                radius=radius,
                hops=hops,
                seed=seed,
                csr=self.assets.csr_both,
            ))
        return self._workloads[key]


_CONTEXTS: Dict[tuple, ExperimentContext] = {}


def get_context(dataset: str = "webgraph", scale: Optional[float] = None,
                seed: int = 1) -> ExperimentContext:
    """Process-wide memoized context for a dataset."""
    if scale is None:
        scale = bench_scale()
    key = (dataset, scale, seed)
    if key not in _CONTEXTS:
        graph = load_dataset(dataset, scale=scale, seed=seed)
        _CONTEXTS[key] = ExperimentContext(
            dataset=dataset, scale=scale, seed=seed,
            graph=graph, assets=GraphAssets(graph),
        )
    return _CONTEXTS[key]


# -- formatting ---------------------------------------------------------------
def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table, the text analogue of a paper figure."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000:
                return f"{cell:,.0f}"
            if abs(cell) >= 1:
                return f"{cell:.2f}"
            return f"{cell:.4g}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        f"== {title} ==",
        " | ".join(h.ljust(w) for h, w in zip(headers, widths, strict=True)),
        sep,
    ]
    for row in text_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))
    return "\n".join(lines)


def write_json_atomic(path: Path, payload: object) -> None:
    """Write ``payload`` as JSON via tmp-file + rename.

    Parallel or interrupted benchmark jobs must never leave a half-written
    artifact: the rename is atomic on POSIX, and the tmp name is unique per
    process so concurrent writers can't collide on it either.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2))
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed; don't litter
            tmp.unlink()


# Perf-trajectory window: every artifact records the wall clock spent and
# kernel events dispatched since the previous artifact in this process
# (or since import, for the first). The rows stay bit-reproducible; the
# metadata block is the free byproduct that gives future PRs a perf
# trajectory without instrumenting each experiment.
_perf_window = {"time": time.perf_counter(), "events": total_events_processed()}


def _perf_metadata() -> Dict[str, float]:
    now = time.perf_counter()
    events = total_events_processed()
    wall = now - _perf_window["time"]
    delta = events - _perf_window["events"]
    _perf_window["time"] = now
    _perf_window["events"] = events
    return {
        "wall_clock_seconds": round(wall, 3),
        "kernel_events": delta,
        "events_per_second": round(delta / wall) if wall > 0 else 0,
    }


def _deterministic_part(payload: Dict[str, Any]) -> tuple:
    """The fields of an artifact that a fixed program always reproduces."""
    return (payload["title"], payload["headers"], payload["rows"],
            payload["metadata"]["kernel_events"])


def _same_artifact(path: Path, payload: Dict[str, Any]) -> bool:
    """True when ``path`` already holds ``payload``'s deterministic part."""
    try:
        on_disk = _deterministic_part(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError):
        return False  # absent, unreadable or not an artifact: rewrite
    # JSON round trip so tuples compare equal to the lists on disk.
    return on_disk == _deterministic_part(json.loads(json.dumps(payload)))


def emit(title: str, headers: Sequence[str],
         rows: Sequence[Sequence[object]], name: str) -> str:
    """Print a table and persist it as a JSON artifact (atomically).

    The artifact carries a ``metadata`` block (wall-clock seconds, kernel
    events and events/sec since the previous artifact) so every benchmark
    contributes to the perf trajectory for free. Row values remain exactly
    reproducible; only ``generated_at`` and the wall-clock metadata vary
    run to run, so a file whose table and event count already match is
    left untouched: a regeneration dirties the work tree only where a
    simulated number moved.
    """
    table = format_table(title, headers, rows)
    print("\n" + table)
    payload = {
        "title": title,
        "headers": list(headers),
        "rows": [list(r) for r in rows],
        "generated_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "metadata": _perf_metadata(),
    }
    path = RESULTS_DIR / f"{name}.json"
    if not _same_artifact(path, payload):
        write_json_atomic(path, payload)
    return table


class Timer:
    """Context manager measuring wall-clock seconds (Table 2 timings)."""

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.elapsed = time.perf_counter() - self.start
