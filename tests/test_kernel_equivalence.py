"""Property-based equivalence suite: the inlined ``run()`` loop vs ``step()``.

``Environment.run`` inlines the first iteration of ``Process._resume``,
recycles bare timeouts through a one-slot fast lane and folds its three
stop conditions into one loop; ``Environment.step`` does none of that —
it pops one event and calls plain ``Event._run_callbacks``.  Both must
dispatch *exactly* the same ``(time, sequence)`` order (ROADMAP
invariant 2).  These tests generate random event programs — mixed
delays, same-instant ties, zero-delay cascades, failures/cancellations,
AllOf/AnyOf fan-ins — and replay each program once through ``run()`` and
once through a reference loop built only from ``peek()``/``step()``.
The program records its own resume trace (process id, step, simulated
time, outcome), so equivalence needs no kernel instrumentation:
identical traces means identical dispatch order wherever order is
observable.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

# ---------------------------------------------------------------------------
# Random event programs
#
# A program is data (picked by hypothesis), then executed identically by
# each driver:
#   * `triggers[eid] = (delay, fail?)` — one driver process per shared
#     event triggers it at an absolute time (ties arise from equal
#     delays; fail? exercises exception propagation / cancellation).
#   * `procs[pid] = [step, ...]` — waiter processes run steps in order:
#       ("t", d)        yield env.timeout(d)          (pooled path)
#       ("tv", d)       yield env.timeout(d, value=…) (unpooled path)
#       ("w", eid)      yield shared event eid (catching failures)
#       ("all", [eid…]) yield env.all_of([...])       (catching failures)
#       ("any", [eid…]) yield env.any_of([...])
#       ("stop",)       return early — later steps are dead code, so
#                       whatever the process was about to wait on is
#                       abandoned (cancellation: losers still dispatch)
# ---------------------------------------------------------------------------

#: Small delay palette ⇒ many exact-tie cohorts and zero-delay cascades.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5])

_N_EVENTS = 6

_STEPS = st.one_of(
    st.tuples(st.just("t"), _DELAYS),
    st.tuples(st.just("tv"), _DELAYS),
    st.tuples(st.just("w"), st.integers(0, _N_EVENTS - 1)),
    st.tuples(st.just("all"),
              st.lists(st.integers(0, _N_EVENTS - 1), min_size=1,
                       max_size=3)),
    st.tuples(st.just("any"),
              st.lists(st.integers(0, _N_EVENTS - 1), min_size=1,
                       max_size=3)),
    st.tuples(st.just("stop")),
)

_PROGRAMS = st.fixed_dictionaries({
    "triggers": st.lists(
        st.tuples(_DELAYS, st.booleans()),
        min_size=_N_EVENTS, max_size=_N_EVENTS),
    "procs": st.lists(
        st.lists(_STEPS, min_size=1, max_size=6),
        min_size=1, max_size=6),
})


#: ``until`` forms: exhaustion, a time limit, or "first waiter finished".
_FIRST_WAITER = "first-waiter"


def _drive_run(env, until):
    """The production loop."""
    env.run(until=until)


def _drive_step(env, until):
    """Reference loop: ``run()`` re-expressed with ``peek``/``step`` only."""
    if until is None or isinstance(until, float):
        limit = math.inf if until is None else until
        # (peek() answers inf for an empty queue)
        while env.peek() < math.inf and env.peek() <= limit:
            env.step()
    else:
        while not until.processed:
            env.step()


def _run_program(program, drive, until=None, sanitize=False, trace=None):
    """Execute ``program`` through ``drive``; return its observable trace."""
    env = Environment(sanitize=sanitize)
    if trace is None:
        trace = []
    shared = [env.event() for _ in range(_N_EVENTS)]

    def driver(eid, delay, fail):
        yield env.timeout(delay)
        event = shared[eid]
        trace.append(("drive", eid, env.now))
        if fail:
            event.fail(RuntimeError(f"ev{eid}"))
        else:
            event.succeed(("ok", eid))

    def waiter(pid, steps):
        for idx, step in enumerate(steps):
            kind = step[0]
            try:
                if kind == "t":
                    yield env.timeout(step[1])
                    outcome = "t"
                elif kind == "tv":
                    outcome = yield env.timeout(step[1], value=("v", idx))
                elif kind == "w":
                    outcome = yield shared[step[1]]
                elif kind == "all":
                    outcome = yield env.all_of(
                        [shared[e] for e in step[1]])
                elif kind == "any":
                    outcome = yield env.any_of(
                        [shared[e] for e in step[1]])
                else:  # "stop": abandon the rest of the program
                    trace.append((pid, idx, env.now, "stop"))
                    return
            except RuntimeError as exc:
                outcome = ("caught", str(exc))
            trace.append((pid, idx, env.now, outcome))

    for eid, (delay, fail) in enumerate(program["triggers"]):
        env.process(driver(eid, delay, fail))
    waiters = [env.process(waiter(pid, steps))
               for pid, steps in enumerate(program["procs"])]

    drive(env, waiters[0] if until == _FIRST_WAITER else until)
    # (not env.now: after a time-limited run() the clock sits on the
    # limit, after the step loop on the last dispatched event)
    trace.append(("end", env.peek(), env.events_processed))
    return trace


class TestRunMatchesStepLoop:
    @settings(max_examples=200, deadline=None)
    @given(program=_PROGRAMS)
    def test_trace_identical_run_to_exhaustion(self, program):
        assert _run_program(program, _drive_run) \
            == _run_program(program, _drive_step)

    @settings(max_examples=100, deadline=None)
    @given(program=_PROGRAMS, limit=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    def test_trace_identical_run_until_time(self, program, limit):
        assert _run_program(program, _drive_run, until=limit) \
            == _run_program(program, _drive_step, until=limit)

    @settings(max_examples=100, deadline=None)
    @given(program=_PROGRAMS)
    def test_trace_identical_run_until_event(self, program):
        assert _run_program(program, _drive_run, until=_FIRST_WAITER) \
            == _run_program(program, _drive_step, until=_FIRST_WAITER)

    @settings(max_examples=100, deadline=None)
    @given(program=_PROGRAMS)
    def test_trace_identical_under_sanitize(self, program):
        # Sanitize retires pooled timeouts and tallies ties but must not
        # change results.  The one thing run() adds over step() is the
        # unhandled-failure trap: a generated program that orphans a
        # failed shared event makes run() re-raise it — then everything
        # dispatched before the trap must still match the reference.
        reference = _run_program(program, _drive_step, sanitize=True)
        trace = []
        try:
            _run_program(program, _drive_run, sanitize=True, trace=trace)
        except RuntimeError as exc:
            failing = {f"ev{eid}" for eid, (_delay, fail)
                       in enumerate(program["triggers"]) if fail}
            assert str(exc) in failing
            assert trace == reference[:len(trace)]
        else:
            assert trace == reference


class TestRunLoopEdges:
    """Directed cases for the time-limit stop test (more in test_sim_kernel)."""

    def test_peek_does_not_dispatch_or_advance(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(2.0)
            fired.append(env.now)

        env.process(proc())
        env.run(until=1.0)
        assert env.peek() == 2.0
        assert env.now == 1.0
        assert not fired
        # An event scheduled *after* the peek, at an earlier time than
        # the peeked one, still dispatches first.
        order = []

        def early():
            yield env.timeout(0.5)
            order.append("early")

        def tail():
            yield env.timeout(2.0)
            order.append("tail")

        env.process(early())
        env.process(tail())
        env.run()
        assert order == ["early", "tail"]
        assert fired == [2.0]

    def test_run_until_limit_does_not_stage_past_limit(self):
        env = Environment()
        order = []

        def sleeper(tag, delay):
            yield env.timeout(delay)
            order.append((tag, env.now))

        env.process(sleeper("far", 10.0))
        env.run(until=5.0)
        # Schedule something earlier than the already-pending t=10 event.
        env.process(sleeper("near", 1.0))
        env.run()
        assert order == [("near", 6.0), ("far", 10.0)]

    def test_kernel_name_is_a_constant(self):
        # perf/launch.py records it next to every ledger row.
        env = Environment()
        assert env.kernel == "heap"
        with pytest.raises(AttributeError):
            env.kernel = "other"
        with pytest.raises(TypeError):
            Environment(kernel="heap")
