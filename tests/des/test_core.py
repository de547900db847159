"""Tests for the DES environment: clock, scheduling order, run() semantics."""

import pytest

from repro.des import Environment, SimulationError


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_can_be_set():
    assert Environment(42.5).now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3)

    env.process(proc())
    env.run()
    assert env.now == 3


def test_run_until_time_sets_clock_even_without_events():
    env = Environment()
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_raises():
    env = Environment(5)
    with pytest.raises(ValueError):
        env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_events_fire_in_time_order():
    env = Environment()
    fired = []

    def waiter(delay):
        yield env.timeout(delay)
        fired.append(delay)

    for delay in [5, 1, 3, 2, 4]:
        env.process(waiter(delay))
    env.run()
    assert fired == [1, 2, 3, 4, 5]


def test_fifo_order_for_simultaneous_events():
    env = Environment()
    fired = []

    def waiter(tag):
        yield env.timeout(1)
        fired.append(tag)

    for tag in "abc":
        env.process(waiter(tag))
    env.run()
    assert fired == ["a", "b", "c"]


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"
    assert env.now == 2


def test_run_until_already_processed_event_returns_immediately():
    env = Environment()

    def proc():
        yield env.timeout(1)

    p = env.process(proc())
    env.run()
    assert env.run(until=p) is None  # generator had no return value


def test_run_until_event_never_triggered_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_len_counts_scheduled_events():
    env = Environment()
    env.timeout(1)
    env.timeout(2)
    assert len(env) == 2


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_zero_timeout_allowed_and_fires_now():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [0.0]


def test_run_until_time_stops_before_later_events():
    env = Environment()
    seen = []

    def proc():
        for _ in range(10):
            yield env.timeout(1)
            seen.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert seen == [1, 2, 3]
    assert env.now == 3.5


def test_clock_docstring_example():
    env = Environment()
    log = []

    def clock(env, name, tick):
        while True:
            log.append((name, env.now))
            yield env.timeout(tick)

    env.process(clock(env, "fast", 1))
    env.process(clock(env, "slow", 2))
    env.run(until=4)
    assert log == [
        ("fast", 0),
        ("slow", 0),
        ("fast", 1),
        ("slow", 2),
        ("fast", 2),
        ("fast", 3),
    ]
