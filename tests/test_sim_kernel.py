"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Environment,
    Resource,
    SimulationError,
    Store,
    total_events_processed,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(3.5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [3.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="payload")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["payload"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    stamps = []

    def proc():
        yield env.timeout(1)
        stamps.append(env.now)
        yield env.timeout(2)
        stamps.append(env.now)

    env.process(proc())
    env.run()
    assert stamps == [1, 3]


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer(results):
        value = yield env.process(inner())
        results.append(value)

    results = []
    env.process(outer(results))
    env.run()
    assert results == [42]


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return "done"

    value = env.run(until=env.process(proc()))
    assert value == "done"
    assert env.now == 2


def test_run_until_time_stops_clock():
    env = Environment()

    def proc():
        yield env.timeout(100)

    env.process(proc())
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_deadlock_detected_when_waiting_on_untriggered_event():
    env = Environment()
    blocker = env.event()

    def proc():
        yield blocker

    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=env.process(proc()))


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((env.now, value))

    def opener():
        yield env.timeout(4)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert seen == [(4, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("server down"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["server down"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def broken():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter(caught):
        try:
            yield env.process(broken())
        except ValueError as exc:
            caught.append(str(exc))

    caught = []
    env.process(waiter(caught))
    env.run()
    assert caught == ["boom"]


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    with pytest.raises(SimulationError):
        env.run(until=proc)


def test_all_of_waits_for_every_child():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of(
            [env.timeout(3, value="c"), env.timeout(1, value="a")]
        )
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(3, ["c", "a"])]


def test_all_of_empty_list_triggers_immediately():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of([])
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(0, [])]


def test_any_of_triggers_on_first():
    env = Environment()
    results = []

    def proc():
        value = yield env.any_of(
            [env.timeout(3, value="slow"), env.timeout(1, value="fast")]
        )
        results.append((env.now, value))

    env.process(proc())
    env.run()
    assert results == [(1, "fast")]


def test_all_of_failure_propagates():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield env.all_of([gate, env.timeout(5)])
        except RuntimeError:
            caught.append(env.now)

    def failer():
        yield env.timeout(2)
        gate.fail(RuntimeError("dead"))

    env.process(proc())
    env.process(failer())
    env.run()
    assert caught == [2]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_queue_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


class TestResource:
    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        r1, r2 = res.request(), res.request()
        r3 = res.request()
        assert r1.triggered and r2.triggered
        assert not r3.triggered
        assert res.in_use == 2
        assert res.queue_length == 1

    def test_release_grants_fifo(self):
        env = Environment()
        res = Resource(env, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r3 = res.request()
        res.release(r1)
        assert r2.triggered and not r3.triggered
        res.release(r2)
        assert r3.triggered

    def test_release_foreign_request_rejected(self):
        env = Environment()
        res_a = Resource(env)
        res_b = Resource(env)
        req = res_a.request()
        with pytest.raises(SimulationError):
            res_b.release(req)

    def test_capacity_below_one_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_fifo_service_order_under_contention(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(name, service):
            req = res.request()
            yield req
            yield env.timeout(service)
            order.append((name, env.now))
            res.release(req)

        env.process(worker("first", 5))
        env.process(worker("second", 1))
        env.process(worker("third", 1))
        env.run()
        # Strict FIFO: second waits behind first despite being cheaper.
        assert order == [("first", 5), ("second", 6), ("third", 7)]

    def test_utilization_accounting(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def worker():
            req = res.request()
            yield req
            yield env.timeout(4)
            res.release(req)
            yield env.timeout(6)

        env.process(worker())
        env.run()
        assert env.now == 10
        assert res.utilization(env.now) == pytest.approx(0.4)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        env.process(getter())
        env.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter():
            item = yield store.get()
            got.append((env.now, item))

        def putter():
            yield env.timeout(3)
            store.put("late")

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [(3, "late")]

    def test_fifo_item_order(self):
        env = Environment()
        store = Store(env)
        for item in ("a", "b", "c"):
            store.put(item)
        got = []

        def getter():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(getter())
        env.run()
        assert got == ["a", "b", "c"]

    def test_fifo_getter_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item))

        env.process(getter("g1"))
        env.process(getter("g2"))

        def putter():
            yield env.timeout(1)
            store.put("first")
            store.put("second")

        env.process(putter())
        env.run()
        assert got == [("g1", "first"), ("g2", "second")]

    def test_len_reports_buffered_items(self):
        env = Environment()
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestRunUntilEdgeCases:
    """Regression net pinned down before the kernel hot-path rewrite."""

    def test_run_until_executes_event_exactly_at_limit(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(5)
            fired.append(env.now)

        env.process(proc())
        env.run(until=5)
        assert fired == [5]
        assert env.now == 5

    def test_run_until_leaves_later_events_queued(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(3)
            fired.append("early")
            yield env.timeout(3)
            fired.append("late")

        env.process(proc())
        env.run(until=4)
        assert fired == ["early"]
        assert env.peek() == 6  # the second timeout is still pending
        env.run()
        assert fired == ["early", "late"]

    def test_run_until_now_is_allowed_and_advances_nothing(self):
        env = Environment()
        env.run(until=5)
        env.run(until=5)  # not "in the past": exactly now
        assert env.now == 5

    def test_run_until_with_empty_queue_still_advances_clock(self):
        env = Environment()
        env.run(until=12.5)
        assert env.now == 12.5
        assert env.peek() == float("inf")

    def test_run_until_already_processed_event_returns_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            return "answer"

        process = env.process(proc())
        env.run()
        assert process.processed
        assert env.run(until=process) == "answer"

    def test_run_until_failed_event_reraises(self):
        env = Environment()

        def broken():
            yield env.timeout(1)
            raise ValueError("exploded")

        process = env.process(broken())
        with pytest.raises(ValueError, match="exploded"):
            env.run(until=process)

    def test_zero_delay_timeout_fires_at_current_time(self):
        env = Environment(initial_time=2.0)
        fired = []

        def proc():
            yield env.timeout(0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [2.0]


class TestPeek:
    def test_peek_does_not_advance_clock_or_pop(self):
        env = Environment()
        env.timeout(3)
        assert env.peek() == 3
        assert env.peek() == 3  # idempotent
        assert env.now == 0.0

    def test_peek_tracks_queue_head_across_steps(self):
        env = Environment()
        env.timeout(1)
        env.timeout(4)
        env.step()
        assert env.peek() == 4
        env.step()
        assert env.peek() == float("inf")

    def test_step_processes_exactly_one_event(self):
        env = Environment()
        order = []

        def proc(name, delay):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc("a", 1))
        env.process(proc("b", 1))
        # Two Initialize events, then the two timeouts.
        env.step()
        env.step()
        assert order == []
        env.step()
        assert order == ["a"]


class TestConditionExceptions:
    def test_all_of_first_failure_wins_over_later_failures(self):
        env = Environment()
        caught = []

        def failer(delay, message):
            yield env.timeout(delay)
            raise RuntimeError(message)

        def waiter():
            try:
                yield env.all_of(
                    [env.process(failer(2, "second")),
                     env.process(failer(1, "first"))]
                )
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        env.process(waiter())
        env.run()
        assert caught == [(1, "first")]

    def test_all_of_failure_does_not_wait_for_slow_children(self):
        env = Environment()
        caught = []

        def failer():
            yield env.timeout(1)
            raise RuntimeError("early death")

        def waiter():
            try:
                yield env.all_of([env.process(failer()), env.timeout(100)])
            except RuntimeError:
                caught.append(env.now)

        env.process(waiter())
        env.run()
        assert caught == [1]

    def test_all_of_over_already_processed_children(self):
        env = Environment()
        done = []

        def child(value):
            yield env.timeout(1)
            return value

        children = [env.process(child("x")), env.process(child("y"))]

        def late_waiter():
            yield env.timeout(5)  # children long finished by now
            values = yield env.all_of(children)
            done.append((env.now, values))

        env.process(late_waiter())
        env.run()
        assert done == [(5, ["x", "y"])]

    def test_any_of_failure_propagates(self):
        env = Environment()
        caught = []

        def failer():
            yield env.timeout(1)
            raise RuntimeError("fast failure")

        def waiter():
            try:
                yield env.any_of([env.process(failer()), env.timeout(10)])
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        env.process(waiter())
        env.run()
        assert caught == [(1, "fast failure")]

    def test_any_of_ignores_failures_after_first_success(self):
        env = Environment()
        results = []

        def failer():
            yield env.timeout(5)
            raise RuntimeError("too late to matter")

        def waiter():
            value = yield env.any_of(
                [env.timeout(1, value="winner"), env.process(failer())]
            )
            results.append(value)

        env.process(waiter())
        env.run()  # the late failure must not escape the kernel either
        assert results == ["winner"]

    def test_any_of_over_already_processed_child(self):
        env = Environment()
        results = []

        def child():
            yield env.timeout(1)
            return "done"

        finished = env.process(child())

        def late_waiter():
            yield env.timeout(3)
            value = yield env.any_of([finished, env.timeout(50)])
            results.append((env.now, value))

        env.process(late_waiter())
        env.run()
        assert results == [(3, "done")]

    def test_condition_rejects_mixed_environments(self):
        env_a = Environment()
        env_b = Environment()
        with pytest.raises(SimulationError):
            env_a.all_of([env_a.timeout(1), env_b.timeout(1)])


class TestTieBreaking:
    def test_equal_timestamps_resolve_in_scheduling_order(self):
        env = Environment()
        order = []

        def leaf(name):
            yield env.timeout(2)
            order.append(name)

        def spawner():
            yield env.timeout(1)
            # Both children scheduled at the same instant, from inside a
            # callback: dispatch must follow creation order.
            env.process(leaf("first-created"))
            env.process(leaf("second-created"))

        env.process(spawner())
        env.run()
        assert order == ["first-created", "second-created"]

    def test_interleaved_sources_keep_global_sequence_order(self):
        env = Environment()
        order = []

        def waiter(name, gate):
            yield gate
            order.append(name)

        def direct(name):
            yield env.timeout(4)
            order.append(name)

        gate_a, gate_b = env.event(), env.event()
        env.process(waiter("wait-a", gate_a))
        env.process(direct("timeout-x"))
        env.process(waiter("wait-b", gate_b))

        def opener():
            yield env.timeout(4)
            gate_b.succeed()  # triggered after the t=4 timeouts fired
            gate_a.succeed()

        env.process(opener())
        env.run()
        # timeout-x was scheduled first (t=4); opener's timeout is next,
        # then the gates trigger in succeed() order at the same instant.
        assert order == ["timeout-x", "wait-b", "wait-a"]

    def test_tie_break_is_stable_across_runs(self):
        def trace():
            env = Environment()
            log = []

            def worker(name):
                for _ in range(3):
                    yield env.timeout(1)
                    log.append((name, env.now))

            for name in ("a", "b", "c", "d"):
                env.process(worker(name))
            env.run()
            return log

        assert trace() == trace()


class TestEventAccounting:
    def test_events_processed_counts_dispatches(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            yield env.timeout(2)

        env.process(proc())
        env.run()
        # Initialize + two timeouts + the process-completion event.
        assert env.events_processed == 4

    def test_total_events_is_process_wide_and_monotonic(self):
        before = total_events_processed()
        env = Environment()

        def proc():
            yield env.timeout(1)

        env.process(proc())
        env.run()
        assert total_events_processed() - before == env.events_processed

    def test_run_until_event_counts_too(self):
        env = Environment()

        def proc():
            yield env.timeout(1)

        env.run(until=env.process(proc()))
        assert env.events_processed > 0


class TestTimeoutPooling:
    def test_bare_timeouts_are_recycled(self):
        env = Environment(sanitize=False)
        seen = []

        def proc():
            first = env.timeout(1)
            yield first
            seen.append(first)
            yield env.timeout(1)
            third = env.timeout(1)  # the free list serves `first` again
            seen.append(third)
            yield third

        env.process(proc())
        env.run()
        assert seen[0] is seen[1]

    def test_valued_timeouts_are_never_recycled(self):
        env = Environment()
        checks = []

        def proc():
            valued = env.timeout(1, value="payload")
            got = yield valued
            checks.append(got)
            yield env.timeout(1)
            fresh = env.timeout(1)
            checks.append(fresh is not valued)
            yield fresh
            checks.append(valued.value)  # valued stays inspectable

        env.process(proc())
        env.run()
        assert checks == ["payload", True, "payload"]

    def test_pooled_timeout_keeps_negative_delay_check(self):
        env = Environment()

        def proc():
            yield env.timeout(1)  # populate the free list
            yield env.timeout(1)
            with pytest.raises(SimulationError):
                env.timeout(-1)
            yield env.timeout(2)

        env.run(until=env.process(proc()))

    def test_yielding_a_recycled_bare_timeout_is_loud(self):
        env = Environment()

        def bad():
            retained = env.timeout(1)
            yield retained
            yield env.timeout(1)  # `retained` is recycled at this point
            yield retained  # contract violation: must not come back

        process = env.process(bad())
        with pytest.raises(SimulationError, match="recycled bare Timeout"):
            env.run(until=process)

    def test_run_until_bare_timeout_shared_with_process(self):
        # The run target is exempt from recycling: even when a process
        # consumes the same bare timeout, run(until=t) stops at t.
        env = Environment()
        shared = env.timeout(5)

        def proc():
            yield shared
            yield env.timeout(1)
            yield env.timeout(1)

        env.process(proc())
        assert env.run(until=shared) is None
        assert env.now == 5.0

    def test_run_until_target_with_two_waiters_still_stops_at_target(self):
        # Even the second waiter (resumed through Process._resume rather
        # than the inlined dispatch) must not recycle the run target out
        # from under the loop.
        env = Environment()
        shared = env.timeout(1)
        resumed = []

        def waiter(name):
            yield shared
            resumed.append(name)
            yield env.timeout(1)

        env.process(waiter("first"))
        env.process(waiter("second"))
        assert env.run(until=shared) is None
        assert env.now == 1.0
        assert resumed == ["first", "second"]

    def test_step_driven_shared_timeout_is_not_recycled_under_second_waiter(self):
        # step() dispatches through Event._run_callbacks, where the first
        # waiter resumes while the second registrant still sits in the
        # callbacks list — the timeout must not enter the pool then.
        env = Environment()
        shared = env.timeout(1)
        stamps = []

        def waiter(name):
            yield shared
            yield env.timeout(3)  # must NOT be served the shared instance
            stamps.append((name, env.now))

        env.process(waiter("a"))
        env.process(waiter("b"))
        while env.peek() != float("inf"):
            env.step()
        assert stamps == [("a", 4.0), ("b", 4.0)]

    def test_pooling_does_not_change_timing(self):
        env = Environment()
        stamps = []

        def proc():
            for delay in (1, 2, 3, 4):
                yield env.timeout(delay)
                stamps.append(env.now)

        env.process(proc())
        env.run()
        assert stamps == [1, 3, 6, 10]


def test_determinism_same_program_same_trace():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(name, delays):
            for delay in delays:
                yield env.timeout(delay)
                trace.append((name, env.now))

        env.process(worker("a", [1, 2, 3]))
        env.process(worker("b", [2, 2, 2]))
        env.process(worker("c", [3, 1, 1]))
        env.run()
        return trace

    assert build_and_run() == build_and_run()
