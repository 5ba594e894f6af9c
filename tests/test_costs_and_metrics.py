"""Tests for the cost models and the workload report arithmetic."""

import pytest

from repro.core.metrics import QueryRecord, QueryStats, WorkloadReport
from repro.costs import (
    DEFAULT_COSTS,
    ETHERNET,
    ETHERNET_COSTS,
    INFINIBAND,
    NetworkModel,
    StorageServiceModel,
)


class TestNetworkModel:
    def test_transfer_time_includes_latency(self):
        net = NetworkModel(name="x", latency=1e-6, bandwidth=1e9)
        assert net.transfer_time(0) == pytest.approx(1e-6)
        assert net.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)

    def test_infiniband_beats_ethernet(self):
        assert INFINIBAND.latency < ETHERNET.latency
        assert INFINIBAND.bandwidth > ETHERNET.bandwidth
        assert INFINIBAND.transfer_time(4096) < ETHERNET.transfer_time(4096)


class TestStorageServiceModel:
    def test_service_time_composition(self):
        model = StorageServiceModel(per_request=1e-6, per_key=1e-7,
                                    per_byte=1e-9)
        assert model.service_time(10, 1000) == pytest.approx(
            1e-6 + 10 * 1e-7 + 1000 * 1e-9
        )

    def test_zero_work_still_pays_dispatch(self):
        model = StorageServiceModel()
        assert model.service_time(0, 0) == model.per_request


class TestCostModelBundle:
    def test_with_network_swaps_only_network(self):
        swapped = DEFAULT_COSTS.with_network(ETHERNET)
        assert swapped.network is ETHERNET
        assert swapped.storage == DEFAULT_COSTS.storage
        assert swapped.cache == DEFAULT_COSTS.cache

    def test_presets(self):
        assert DEFAULT_COSTS.network is INFINIBAND
        assert ETHERNET_COSTS.network is ETHERNET

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.network = ETHERNET  # type: ignore[misc]


def _record(query_id, processor, start, end, hits=0, misses=0, stolen=False,
            decision=0.0, operator=""):
    return QueryRecord(
        query_id=query_id,
        kind="NeighborAggregationQuery",
        node=query_id,
        intended_processor=processor,
        processor=processor,
        stolen=stolen,
        decision_time=decision,
        enqueued_at=0.0,
        started_at=start,
        finished_at=end,
        stats=QueryStats(nodes_touched=hits + misses, cache_hits=hits,
                         cache_misses=misses),
        operator=operator,
    )


class TestWorkloadReport:
    def test_throughput(self):
        report = WorkloadReport(
            records=[_record(0, 0, 0.0, 1.0), _record(1, 0, 1.0, 2.0)],
            makespan=2.0, num_processors=1, num_storage_servers=1,
        )
        assert report.throughput() == pytest.approx(1.0)

    def test_empty_report(self):
        report = WorkloadReport(num_processors=2)
        assert report.throughput() == 0.0
        assert report.mean_response_time() == 0.0
        assert report.cache_hit_rate() == 0.0
        assert report.percentile_response_time(95) == 0.0

    def test_mean_response_includes_decision_time(self):
        report = WorkloadReport(
            records=[_record(0, 0, 0.0, 1.0, decision=0.5)],
            makespan=1.0, num_processors=1, num_storage_servers=1,
        )
        assert report.mean_response_time() == pytest.approx(1.5)

    def test_cache_accounting(self):
        report = WorkloadReport(
            records=[_record(0, 0, 0, 1, hits=8, misses=2),
                     _record(1, 0, 1, 2, hits=0, misses=10)],
            makespan=2.0, num_processors=1, num_storage_servers=1,
        )
        assert report.total_cache_hits() == 8
        assert report.total_cache_misses() == 12
        assert report.cache_hit_rate() == pytest.approx(0.4)

    def test_load_imbalance(self):
        records = [_record(i, i % 2, 0, 1) for i in range(4)]
        records.append(_record(9, 0, 0, 1))
        report = WorkloadReport(records=records, makespan=1.0,
                                num_processors=2, num_storage_servers=1)
        # processor 0 served 3, processor 1 served 2: 3 / 2.5
        assert report.load_imbalance() == pytest.approx(1.2)

    def test_stolen_count(self):
        report = WorkloadReport(
            records=[_record(0, 0, 0, 1, stolen=True), _record(1, 0, 0, 1)],
            makespan=1.0, num_processors=1, num_storage_servers=1,
        )
        assert report.stolen_count() == 1

    def test_percentiles(self):
        records = [_record(i, 0, 0.0, float(i + 1)) for i in range(10)]
        report = WorkloadReport(records=records, makespan=10.0,
                                num_processors=1, num_storage_servers=1)
        assert report.percentile_response_time(0) == pytest.approx(1.0)
        assert report.percentile_response_time(100) == pytest.approx(10.0)
        mid = report.percentile_response_time(50)
        assert 5.0 <= mid <= 6.0

    def test_per_operator_stats_groups_counts_and_means(self):
        records = [
            _record(0, 0, 0.0, 1.0, operator="aggregation"),
            _record(1, 0, 0.0, 3.0, operator="aggregation"),
            _record(2, 0, 0.0, 5.0, operator="ppr"),
        ]
        report = WorkloadReport(records=records, makespan=5.0,
                                num_processors=1, num_storage_servers=1)
        stats = report.per_operator_stats()
        assert set(stats) == {"aggregation", "ppr"}
        assert stats["aggregation"]["queries"] == 2
        assert stats["aggregation"]["mean_response_ms"] == pytest.approx(2e3)
        assert stats["ppr"]["queries"] == 1
        assert stats["ppr"]["mean_response_ms"] == pytest.approx(5e3)

    def test_per_operator_stats_falls_back_to_kind(self):
        # Pre-operator records (operator == "") group under the type name.
        report = WorkloadReport(
            records=[_record(0, 0, 0.0, 1.0)], makespan=1.0,
            num_processors=1, num_storage_servers=1,
        )
        assert set(report.per_operator_stats()) == {
            "NeighborAggregationQuery",
        }

    def test_summary_is_json_friendly(self):
        import json

        report = WorkloadReport(
            records=[_record(0, 0, 0, 1)], makespan=1.0,
            num_processors=1, num_storage_servers=1, routing="hash",
        )
        json.dumps(report.summary())
