"""Static analyzer: per-rule fixtures (hit, near-miss, waiver), waiver
machinery, report contract, and the repo-wide strict gate."""

import json
import textwrap
from pathlib import Path

from repro.analysis import (
    AnalysisReport,
    analyze_paths,
    analyze_source,
    all_rules,
    get_rule,
    parse_waivers,
    render_json,
    render_text,
)
from repro.analysis.validate import main as validate_main
from repro.analysis.validate import validate_report

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(source, path):
    report = AnalysisReport()
    diags = analyze_source(textwrap.dedent(source), path, report=report)
    return diags, report


def unwaived(source, path):
    diags, _ = run(source, path)
    return sorted(d.code for d in diags if not d.waived)


class TestRegistry:
    def test_rules_registered_and_sorted(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert {"D101", "D102", "D103", "D104", "D105",
                "K201", "K202", "K203", "S301", "S302"} <= set(codes)

    def test_get_rule(self):
        assert get_rule("D101").name == "wall-clock-read"


class TestD101WallClock:
    def test_wall_clock_reads_flagged(self):
        source = """
            import time
            from datetime import datetime
            def stamp():
                return time.time(), time.perf_counter(), datetime.now()
        """
        assert unwaived(source, "repro/core/x.py") == ["D101"] * 3

    def test_sleep_and_bench_are_exempt(self):
        assert unwaived("import time\ntime.sleep(1)\n",
                        "repro/core/x.py") == []
        assert unwaived("import time\nt = time.perf_counter()\n",
                        "repro/bench/x.py") == []

    def test_waiver_honored(self):
        source = """
            import time
            t = time.time()  # repro: allow D101 — calibration harness
        """
        diags, report = run(source, "repro/core/x.py")
        assert [d.code for d in diags] == ["D101"]
        assert diags[0].waived
        assert report.unused_waivers == []


class TestD102GlobalRng:
    def test_global_rng_calls_flagged(self):
        source = """
            import random
            import numpy as np
            def draw():
                return random.random(), np.random.rand()
        """
        assert unwaived(source, "repro/core/x.py") == ["D102", "D102"]

    def test_seeded_generators_pass(self):
        source = """
            import random
            import numpy as np
            def draw(rng):
                r = random.Random(7)
                g = np.random.default_rng(7)
                return r.random(), g.random(), rng.random()
        """
        assert unwaived(source, "repro/core/x.py") == []

    def test_waiver_honored(self):
        source = """
            import random
            random.seed(0)  # repro: allow D102 — demo script, not replayed
        """
        diags, _ = run(source, "repro/core/x.py")
        assert diags[0].code == "D102" and diags[0].waived


class TestD103SetIteration:
    def test_set_iteration_flagged(self):
        source = """
            def f(out):
                for node in {3, 1, 2}:
                    out.append(node)
                xs = [n for n in set(out)]
                return list({1, 2})
        """
        assert unwaived(source, "repro/core/x.py") == ["D103"] * 3

    def test_set_typed_local_tracked(self):
        source = """
            def f():
                pending = set()
                return [x for x in pending]
        """
        assert unwaived(source, "repro/storage/x.py") == ["D103"]

    def test_sorted_wrapping_and_sinks_pass(self):
        source = """
            def f(s):
                for n in sorted({3, 1, 2}):
                    pass
                total = sum(x for x in set(s))
                sub = {x for x in set(s)}
                return total, sub
        """
        assert unwaived(source, "repro/core/x.py") == []

    def test_only_order_sensitive_packages_checked(self):
        source = "for x in {1, 2}:\n    pass\n"
        assert unwaived(source, "repro/bench/x.py") == []
        assert unwaived(source, "repro/workloads/x.py") == ["D103"]

    def test_waiver_honored(self):
        source = """
            # repro: allow D103 — summed, order cannot reach scheduling
            acc = [x * x for x in {1, 2}]
        """
        diags, _ = run(source, "repro/core/x.py")
        assert diags[0].code == "D103" and diags[0].waived


class TestD104IdAsKey:
    def test_id_call_flagged(self):
        assert unwaived("key = id(object())\n", "repro/core/x.py") == ["D104"]

    def test_method_and_attribute_pass(self):
        source = "def f(node, row):\n    return node.id, row.id()\n"
        assert unwaived(source, "repro/core/x.py") == []

    def test_waiver_honored(self):
        source = "k = id(x)  # repro: allow D104 — identity map, lookup only\n"
        diags, _ = run(source, "repro/core/x.py")
        assert diags[0].code == "D104" and diags[0].waived


class TestD105Popitem:
    def test_bare_popitem_flagged(self):
        assert unwaived("pair = d.popitem()\n", "repro/core/x.py") == ["D105"]

    def test_explicit_last_passes(self):
        assert unwaived("pair = d.popitem(last=False)\n",
                        "repro/core/x.py") == []


class TestK201Slots:
    def test_slotless_kernel_class_flagged(self):
        assert unwaived("class Foo:\n    pass\n",
                        "repro/sim/x.py") == ["K201"]

    def test_slotless_event_subclass_flagged_anywhere(self):
        source = "class Fetch(Event):\n    pass\n"
        assert unwaived(source, "repro/core/x.py") == ["K201"]

    def test_slotted_and_exception_classes_pass(self):
        source = """
            class Slotted:
                __slots__ = ("a",)
            class KernelError(Exception):
                pass
        """
        assert unwaived(source, "repro/sim/x.py") == []

    def test_slotted_event_subclass_passes(self):
        # The fused-fetch pattern (PR 9): an Event subclass that *is* its
        # own completion event, slotted like the rest of the hierarchy.
        source = """
            class Fetch(Event):
                __slots__ = ("server", "num_keys", "nbytes")
                def __init__(self, env, server):
                    super().__init__(env)
                    self.server = server
        """
        assert unwaived(source, "repro/core/x.py") == []

    def test_module_waiver_covers_every_class(self):
        source = """
            # repro: allow-module K201 — frozen baseline copy
            class A:
                pass
            class B:
                pass
        """
        diags, report = run(source, "repro/sim/x.py")
        assert [d.code for d in diags] == ["K201", "K201"]
        assert all(d.waived for d in diags)
        assert report.unused_waivers == []


class TestK202TimeoutRetention:
    def test_retained_timeout_flagged(self):
        source = """
            def worker(env):
                t = env.timeout(1.0)
                yield t
                yield env.timeout(1.0)
                return t.value
        """
        assert unwaived(source, "repro/core/x.py") == ["K202"]

    def test_structured_target_flagged(self):
        source = """
            def worker(self, env):
                self.t = env.timeout(1.0)
                yield self.t
        """
        assert unwaived(source, "repro/core/x.py") == ["K202"]

    def test_single_immediate_yield_passes(self):
        source = """
            def worker(env):
                t = env.timeout(1.0)
                yield t
        """
        assert unwaived(source, "repro/core/x.py") == []

    def test_valued_timeout_and_non_generator_pass(self):
        source = """
            def worker(env):
                t = env.timeout(1.0, value="k")
                yield t
                yield env.timeout(1.0)
                return t.value

            def callback_style(self, env):
                self.pending = env.timeout(1.0)
        """
        assert unwaived(source, "repro/core/x.py") == []

    def test_callback_chain_timeout_passes(self):
        # The fused fetch chain drives timeouts from plain methods via
        # ``callbacks.append`` — no generator ever retains one past its
        # recycle point, so K202's retained-timeout analysis must not
        # fire on the non-generator callback stages.
        source = """
            def _on_grant(self, _event):
                service = self.env.timeout(0.5)
                service.callbacks.append(self._on_service_end)
        """
        assert unwaived(source, "repro/core/x.py") == []


class TestK203ProcessYields:
    def test_non_event_yields_flagged(self):
        source = """
            def drain_process(env):
                yield
                yield 42
                yield (1, 2)
        """
        assert unwaived(source, "repro/sim/x.py") == ["K203"] * 3

    def test_eventish_yields_and_helpers_pass(self):
        source = """
            def drain_process(env, pending):
                yield env.timeout(1.0)
                yield pending[0]
                yield from subtask(env)

            def helper(env):
                yield 42
        """
        assert unwaived(source, "repro/sim/x.py") == []

    def test_only_kernel_packages_checked(self):
        source = "def gen_process(env):\n    yield 42\n"
        assert unwaived(source, "repro/workloads/x.py") == []
        assert unwaived(source, "repro/storage/x.py") == ["K203"]

    def test_direct_fetch_yield_passes(self):
        # The batched gather yields its single fused fetch directly
        # (the fetch *is* the completion event) instead of wrapping it
        # in an AllOf; a subscripted event is still eventish to K203.
        source = """
            def gather_process(env, fetches):
                if len(fetches) == 1:
                    yield fetches[0]
                else:
                    yield env.all_of(fetches)
        """
        assert unwaived(source, "repro/sim/x.py") == []


class TestS301UntimedMutation:
    def test_non_generator_mutation_flagged(self):
        source = """
            def seed_data(store):
                store.put("k", b"v")
                store.delete("k")
        """
        assert unwaived(source, "repro/storage/x.py") == ["S301", "S301"]

    def test_generator_pipeline_passes(self):
        source = """
            def write_process(env, store):
                yield env.timeout(1.0)
                store.put("k", b"v")
        """
        assert unwaived(source, "repro/storage/x.py") == []

    def test_queue_receivers_and_impl_modules_pass(self):
        source = "def push(inbox, item):\n    inbox.put(item)\n"
        assert unwaived(source, "repro/core/x.py") == []
        mutation = "def evict(self):\n    self._cache.put('k', 0)\n"
        assert unwaived(mutation, "repro/core/cache.py") == []

    def test_waiver_honored(self):
        source = """
            def preload(store, rows):
                store.load(rows)  # repro: allow S301 — untimed setup
        """
        diags, _ = run(source, "repro/storage/x.py")
        assert diags[0].code == "S301" and diags[0].waived


class TestS302ArtifactEmission:
    def test_direct_writes_flagged(self):
        source = """
            import json
            def save(rows, path):
                with open(path, "w") as fh:
                    json.dump(rows, fh)
        """
        assert unwaived(source, "repro/bench/x.py") == ["S302", "S302"]

    def test_harness_and_method_calls_pass(self):
        source = """
            import json
            def save(rows, path):
                with open(path, "w") as fh:
                    json.dump(rows, fh)
        """
        assert unwaived(source, "repro/bench/harness.py") == []
        assert unwaived("service = GraphService.open(graph, config)\n",
                        "repro/bench/x.py") == []

    def test_path_write_text_flagged(self):
        assert unwaived("path.write_text('{}')\n",
                        "repro/bench/x.py") == ["S302"]


class TestWaiverMachinery:
    def test_waiver_on_line_above(self):
        source = """
            # repro: allow D104 — identity map, lookup only
            key = id(object())
        """
        diags, _ = run(source, "repro/core/x.py")
        assert diags[0].waived

    def test_separator_variants(self):
        table = parse_waivers(
            "x = 1  # repro: allow D104 -- double dash reason\n"
            "y = 2  # repro: allow D105: colon reason\n")
        assert {w.code for w in table.all_waivers()} == {"D104", "D105"}

    def test_multi_code_waiver(self):
        table = parse_waivers("# repro: allow D104, D105 — shared reason\n")
        assert {w.code for w in table.all_waivers()} == {"D104", "D105"}

    def test_reasonless_waiver_is_malformed(self):
        diags, report = run("key = id(x)  # repro: allow D104\n",
                            "repro/core/x.py")
        assert not diags[0].waived
        assert report.malformed_waivers
        assert not report.ok()

    def test_unknown_code_waiver_is_malformed(self):
        _, report = run("x = 1  # repro: allow Z999 — no such rule\n",
                        "repro/core/x.py")
        assert any("Z999" in str(m) for m in report.malformed_waivers)

    def test_unused_waiver_fails_only_strict(self):
        _, report = run("x = 1  # repro: allow D104 — nothing here\n",
                        "repro/core/x.py")
        assert report.unused_waivers
        assert report.ok(strict=False)
        assert not report.ok(strict=True)

    def test_docstring_examples_are_not_waivers(self):
        source = '''
            def f():
                """Waive like:  # repro: allow D104 — example."""
                return 1
        '''
        _, report = run(source, "repro/core/x.py")
        assert report.unused_waivers == []
        assert report.malformed_waivers == []

    def test_parse_error_recorded(self):
        diags, report = run("def broken(:\n", "repro/core/x.py")
        assert diags == []
        assert report.errors and not report.ok()


class TestReportAndValidator:
    def _report_file(self, tmp_path, source="key = id(object())\n"):
        report = AnalysisReport()
        report.diagnostics.extend(
            analyze_source(source, "repro/core/x.py", report=report))
        report.files_analyzed = 1
        out = tmp_path / "analysis_report.json"
        out.write_text(render_json(report, strict=True))
        return out

    def test_render_text_summary(self):
        report = AnalysisReport()
        report.diagnostics.extend(
            analyze_source("key = id(object())\n", "repro/core/x.py",
                           report=report))
        report.files_analyzed = 1
        text = render_text(report)
        assert "D104" in text and text.endswith("(1 unwaived, 0 waived)")
        assert text.startswith("repro/core/x.py:1:6: D104")

    def test_json_report_conforms(self, tmp_path):
        out = self._report_file(tmp_path)
        assert validate_report(out) == []
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        assert payload["summary"]["per_rule"]["D104"]["unwaived"] == 1

    def test_validator_rejects_missing_keys(self, tmp_path):
        out = self._report_file(tmp_path)
        payload = json.loads(out.read_text())
        del payload["summary"]
        out.write_text(json.dumps(payload))
        assert any("summary" in p for p in validate_report(out))

    def test_validator_rejects_inconsistent_ok(self, tmp_path):
        out = self._report_file(tmp_path)
        payload = json.loads(out.read_text())
        payload["ok"] = True  # but one unwaived violation remains
        out.write_text(json.dumps(payload))
        assert any("unwaived" in p for p in validate_report(out))

    def test_validator_cli_exit_codes(self, tmp_path, capsys):
        good = self._report_file(tmp_path)
        assert validate_main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert validate_main(["validate", str(bad)]) == 1
        assert validate_main(["validate"]) == 2
        capsys.readouterr()


class TestRepoWideGate:
    def test_repo_passes_strict(self):
        """The acceptance bar: zero unwaived violations in src/repro."""
        report = analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert report.files_analyzed > 50
        offenders = [d.render() for d in report.unwaived]
        assert offenders == []
        assert report.errors == []
        assert report.malformed_waivers == []
        assert report.unused_waivers == []
        assert report.ok(strict=True)

    def test_every_waiver_in_repo_carries_reason(self):
        report = analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        for diag in report.waived:
            assert diag.waiver_reason.strip()
