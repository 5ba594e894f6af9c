"""Tests for the benchmark harness utilities."""

import json

import pytest

from repro.bench.harness import Timer, bench_scale, format_table, get_context


class TestFormatTable:
    def test_contains_title_headers_rows(self):
        table = format_table("My Experiment", ["a", "b"], [[1, 2.5], [3, 4.0]])
        assert "My Experiment" in table
        assert "a" in table and "b" in table
        assert "2.50" in table

    def test_alignment_consistent_width(self):
        table = format_table("t", ["col"], [["short"], ["a-much-longer-cell"]])
        lines = table.splitlines()
        data_lines = lines[1:]
        assert len({len(line) for line in data_lines if "|" in line or "-" in line}) <= 2

    def test_empty_rows(self):
        table = format_table("t", ["x"], [])
        assert "t" in table

    def test_float_formatting(self):
        table = format_table("t", ["v"], [[0.000123], [12345.6], [0]])
        assert "0.000123" in table
        assert "12,346" in table


class TestEmit:
    def test_writes_json_artifact(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        harness.emit("Title", ["h"], [[1]], "unit_test_artifact")
        payload = json.loads((tmp_path / "unit_test_artifact.json").read_text())
        assert payload["title"] == "Title"
        assert payload["rows"] == [[1]]

    def test_artifacts_carry_perf_metadata(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness
        from repro.sim import Environment

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        harness.emit("First", ["h"], [[1]], "meta_probe_a")
        # Simulated work between artifacts shows up in the next metadata
        # window as kernel events.
        env = Environment()

        def ticker():
            for _ in range(100):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run()
        harness.emit("Second", ["h"], [[2]], "meta_probe_b")
        payload = json.loads((tmp_path / "meta_probe_b.json").read_text())
        meta = payload["metadata"]
        assert set(meta) == {"wall_clock_seconds", "kernel_events",
                             "events_per_second"}
        assert meta["wall_clock_seconds"] >= 0
        assert meta["kernel_events"] >= 100  # the ticker's events at least
        assert meta["events_per_second"] >= 0


class TestEmitLeavesUnchangedArtifactsAlone:
    """Only a moved simulated number may dirty ``bench_results/``."""

    STALE_STAMP = "2000-01-01 00:00:00"

    @pytest.fixture
    def artifact(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        # kernel_events counts from the previous artifact: emit one to
        # close whatever window earlier tests left open.
        harness.emit("Flush", ["h"], [[0]], "flush")
        harness.emit("Title", ["h", "g"], [(1, 0.1), (2, 2.5e-7)], "probe")
        path = tmp_path / "probe.json"
        payload = json.loads(path.read_text())
        payload["generated_at"] = self.STALE_STAMP
        path.write_text(json.dumps(payload))
        return harness, path

    def _stamp(self, path):
        return json.loads(path.read_text())["generated_at"]

    def test_identical_table_and_event_count_not_rewritten(self, artifact):
        harness, path = artifact
        harness.emit("Title", ["h", "g"], [(1, 0.1), (2, 2.5e-7)], "probe")
        assert self._stamp(path) == self.STALE_STAMP

    def test_changed_row_rewritten(self, artifact):
        harness, path = artifact
        harness.emit("Title", ["h", "g"], [(1, 0.1), (2, 2.6e-7)], "probe")
        assert self._stamp(path) != self.STALE_STAMP
        assert json.loads(path.read_text())["rows"][1] == [2, 2.6e-7]

    def test_changed_event_count_rewritten(self, artifact):
        from repro.sim import Environment

        harness, path = artifact
        env = Environment()
        env.timeout(1.0)
        env.run()
        harness.emit("Title", ["h", "g"], [(1, 0.1), (2, 2.5e-7)], "probe")
        assert self._stamp(path) != self.STALE_STAMP
        assert json.loads(path.read_text())["metadata"]["kernel_events"] == 1

    def test_corrupt_file_rewritten(self, artifact):
        harness, path = artifact
        path.write_text("{not json")
        harness.emit("Title", ["h", "g"], [(1, 0.1), (2, 2.5e-7)], "probe")
        assert json.loads(path.read_text())["title"] == "Title"


class TestContext:
    def test_memoized_per_key(self):
        a = get_context("freebase", scale=0.05, seed=3)
        b = get_context("freebase", scale=0.05, seed=3)
        assert a is b
        c = get_context("freebase", scale=0.05, seed=4)
        assert c is not a

    def test_workload_memoized(self):
        ctx = get_context("freebase", scale=0.05, seed=3)
        w1 = ctx.workload(num_hotspots=3, queries_per_hotspot=3)
        w2 = ctx.workload(num_hotspots=3, queries_per_hotspot=3)
        assert w1 is w2
        w3 = ctx.workload(num_hotspots=4, queries_per_hotspot=3)
        assert w3 is not w1

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.125")
        assert bench_scale() == 0.125
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert bench_scale(0.75) == 0.75

    def test_bench_scale_rejects_garbage(self, monkeypatch):
        """A typo'd CI variable fails loudly at startup, naming the var."""
        for bad in ("fast", "", "1.0.0"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", bad)
            with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
                bench_scale()

    def test_bench_scale_rejects_nonpositive_and_nonfinite(self, monkeypatch):
        for bad in ("0", "-0.5", "inf", "nan"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", bad)
            with pytest.raises(ValueError, match="positive, finite"):
                bench_scale()


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            sum(range(10000))
        assert t.elapsed >= 0.0
