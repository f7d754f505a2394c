"""Unit and property tests for the discrete-event engine."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(2.5)
        seen.append(env.now)
        yield env.timeout(1.5)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [2.5, 4.0]


def test_zero_delay_timeout_runs_at_now():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(0.0)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


@pytest.mark.parametrize("delay", [-1.0, float("nan")], ids=["neg", "nan"])
@pytest.mark.parametrize("trigger", ["timeout", "succeed", "fail"])
def test_bad_delay_rejected_when_scheduled(trigger, delay):
    """A negative or NaN delay is refused when the event is scheduled,
    naming the delay, and leaves nothing queued."""
    env = Environment()
    ev = env.event()
    with pytest.raises(ValueError, match=re.escape(repr(delay))):
        if trigger == "timeout":
            env.timeout(delay)
        elif trigger == "succeed":
            ev.succeed("x", delay=delay)
        else:
            ev.fail(RuntimeError("x"), delay=delay)
    assert not ev.triggered
    assert env.peek() == float("inf")


def test_step_wrapper_counts_every_processed_event(env_steps):
    """Each event a run processes is one ``Environment.step`` call, so a
    wrapper on the class attribute counts exactly the events: two boots,
    two timeouts and two process completions."""
    env = Environment()

    def child(env):
        yield env.timeout(1)
        yield env.timeout(2)
        return "done"

    def parent(env):
        assert (yield env.process(child(env), name="child")) == "done"

    env.process(parent(env), name="parent")
    env.run(until=2)
    assert env_steps == [0.0, 0.0, 1.0]
    env.run()
    assert env_steps == [0.0, 0.0, 1.0, 3.0, 3.0, 3.0]


def test_process_return_value_becomes_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert p.value == "done"
    assert p.ok


def test_process_waits_on_another_process():
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(5)
        order.append("child")
        return 7

    def parent(env):
        result = yield env.process(child(env))
        order.append("parent")
        assert result == 7

    env.process(parent(env))
    env.run()
    assert order == ["child", "parent"]
    assert env.now == 5


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env):
        got.append((yield ev))

    def firer(env):
        yield env.timeout(3)
        ev.succeed("payload")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_surfaces_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("unobserved crash")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unobserved crash"):
        env.run()


def test_handled_process_failure_does_not_escape():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1)
        raise RuntimeError("child crash")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child crash"]


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42  # type: ignore[misc]

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(2, "wake up")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc(env):
        yield env.timeout(10)

    env.process(proc(env))
    env.run(until=4.0)
    assert env.now == 4.0
    env.run()  # finish the rest
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))
    assert env.now == 5.0


def test_anyof_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        got = yield AnyOf(env, [t1, t2])
        results.append((env.now, list(got.values())))

    env.process(proc(env))
    env.run()
    assert results == [(1, ["fast"])]


def test_allof_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        got = yield AllOf(env, [t1, t2])
        results.append((env.now, sorted(got.values())))

    env.process(proc(env))
    env.run()
    assert results == [(5, ["a", "b"])]


def test_allof_empty_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        yield AllOf(env, [])
        results.append(env.now)

    env.process(proc(env))
    env.run()
    assert results == [0.0]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == list(range(5))


def test_timeout_at_fires_at_exactly_when():
    """An absolute time is kept as given, where the relative delay
    ``when - now`` can round away from it."""
    now, when = next((n, w) for n, w in
                     ((0.1 * i, 0.7 + 0.3 * i) for i in range(1, 1000))
                     if n + (w - n) != w)
    env = Environment(initial_time=now)
    fired = {}
    env.timeout_at(when).callbacks.append(
        lambda ev: fired.setdefault("at", env.now))
    env.timeout(when - now).callbacks.append(
        lambda ev: fired.setdefault("delay", env.now))
    env.run()
    assert fired["at"] == when
    assert fired["delay"] != when


@pytest.mark.parametrize("when", [0.5, float("nan")], ids=["past", "nan"])
def test_timeout_at_rejects_a_past_or_nan_time(when):
    env = Environment(initial_time=1.0)
    with pytest.raises(ValueError, match=re.escape(repr(when))):
        env.timeout_at(when)
    assert env.peek() == float("inf")


def test_timeout_at_ties_break_by_scheduling_order():
    env = Environment()
    order = []
    events = [env.timeout_at(2.0), env.timeout(2.0), env.timeout_at(2.0),
              env.timeout_at(1.0)]
    for tag, ev in enumerate(events):
        ev.callbacks.append(lambda ev, tag=tag: order.append(tag))
    env.run()
    assert order == [3, 0, 1, 2]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    # Timeout schedules immediately.
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc(env, ev):
        yield env.timeout(5)
        got = yield ev  # fired (and processed) at t=1
        log.append((env.now, got))

    ev = env.event()
    ev.succeed("early")
    env.process(proc(env, ev))
    env.run()
    assert log == [(5, "early")]


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_clock_is_monotone_and_all_processes_complete(delays):
    """Property: with arbitrary delays, time never regresses and every
    process finishes exactly once."""
    env = Environment()
    times = []
    finished = []

    def proc(env, d, i):
        yield env.timeout(d)
        times.append(env.now)
        finished.append(i)

    for i, d in enumerate(delays):
        env.process(proc(env, d, i))
    env.run()
    assert sorted(finished) == list(range(len(delays)))
    assert times == sorted(times)
    assert env.now == max(delays)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_simulation_is_deterministic(seed):
    """Property: two runs of an identical random workload produce the
    identical completion trace."""
    import random

    def build_and_run():
        rng = random.Random(seed)
        env = Environment()
        trace = []

        def worker(env, i):
            for _ in range(rng.randint(1, 4)):
                yield env.timeout(rng.random())
            trace.append((i, env.now))

        for i in range(10):
            env.process(worker(env, i))
        env.run()
        return trace

    assert build_and_run() == build_and_run()
