"""Bit-identical replay: the contract the analyzer and sanitizer defend.

Two kinds of check:

* twice-run regression — the same workload through two freshly opened
  services produces byte-for-byte identical reports (per-query timings
  included), for both static (hash) and stateful (adaptive) routing;
* hash-seed regression — the adaptive router's global-best-arm choice
  must not depend on ``PYTHONHASHSEED`` (it once did: a set of class-name
  strings fed float summation in hash order).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ClusterConfig, GraphService
from repro.core import GraphAssets
from repro.datasets import memetracker_like
from repro.workloads import hotspot_stream

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workload():
    graph = memetracker_like(scale=0.05, seed=2)
    assets = GraphAssets(graph)
    queries = list(hotspot_stream(graph, num_hotspots=8, queries_per_hotspot=10,
                                  radius=2, hops=2, seed=1, csr=assets.csr_both))
    return graph, assets, queries


def _run_once(graph, assets, queries, routing, **kwargs):
    config = ClusterConfig(routing=routing, num_processors=4,
                           num_storage_servers=2,
                           cache_capacity_bytes=4 << 20, num_landmarks=16,
                           min_separation=2, dim=6, embed_method="lmds",
                           **kwargs)
    with GraphService.open(graph, config, assets=assets) as service:
        with service.session() as session:
            session.submit_many(queries)
            report = session.report()
    return report


def _assert_identical(first, second):
    assert first.makespan == second.makespan
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        # Full dataclass equality: ids, placement, per-query timings,
        # cache counters — everything a benchmark figure is built from.
        assert a == b


@pytest.mark.parametrize("routing", ["hash", "adaptive"])
def test_twice_run_reports_identical(workload, routing):
    graph, assets, queries = workload
    kwargs = {"adaptive_epoch": 8} if routing == "adaptive" else {}
    first = _run_once(graph, assets, queries, routing, **kwargs)
    second = _run_once(graph, assets, queries, routing, **kwargs)
    _assert_identical(first, second)


def test_twice_run_identical_under_sanitizer(workload, monkeypatch):
    graph, assets, queries = workload
    plain = _run_once(graph, assets, queries, "hash")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = _run_once(graph, assets, queries, "hash")
    _assert_identical(plain, sanitized)


_BEST_ARM_SCRIPT = """
import json, sys
from repro.core.routing.adaptive import AdaptiveRouting, _ClassState

router = AdaptiveRouting.__new__(AdaptiveRouting)
router._arm_names = ("embed", "hash")
# Crafted so the arm means are float-summation-order sensitive:
# 0.1 + 0.2 + 0.3 is 0.6000000000000001 or 0.6 depending on order, so
# hash's mean either ties embed's exact 0.2 (tie -> embed, listed first)
# or dips below it (-> hash). The classes are registered in set order,
# which varies with PYTHONHASHSEED: summing in registration order flips
# the winner across seeds; sorted order cannot.
values = {
    "hash": {"pointA": 0.1, "travB": 0.2, "walkC": 0.3},
    "embed": {"pointA": 0.2, "travB": 0.2, "walkC": 0.2},
}
router._classes = {}
for cls in {"pointA", "travB", "walkC"}:
    state = router._classes[cls] = _ClassState(router._arm_names)
    for arm, scores in values.items():
        state.arms[arm].score = scores[cls]
print(json.dumps(router._global_best_arm()))
"""


def test_global_best_arm_independent_of_hash_seed():
    outcomes = set()
    for seed in ("0", "1", "2", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", _BEST_ARM_SCRIPT], env=env,
            capture_output=True, text=True, check=True)
        outcomes.add(json.loads(out.stdout))
    assert len(outcomes) == 1
