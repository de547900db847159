"""Tests for Process behaviour: waiting, return values, failures, interrupts."""

import pytest

from repro.des import Environment, Interrupt, SimulationError


@pytest.fixture
def env():
    return Environment()


def test_process_is_alive_until_generator_exits(env):
    def proc():
        yield env.timeout(5)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_return_value_becomes_event_value(env):
    def proc():
        yield env.timeout(1)
        return 123

    p = env.process(proc())
    env.run()
    assert p.value == 123


def test_waiting_on_another_process(env):
    order = []

    def child():
        yield env.timeout(2)
        order.append("child")
        return "result"

    def parent():
        value = yield env.process(child())
        order.append(("parent", value, env.now))

    env.process(parent())
    env.run()
    assert order == ["child", ("parent", "result", 2)]


def test_process_exception_propagates_to_waiter(env):
    caught = []

    def child():
        yield env.timeout(1)
        raise ValueError("child crashed")

    def parent():
        try:
            yield env.process(child())
        except ValueError as e:
            caught.append(str(e))

    env.process(parent())
    env.run()
    assert caught == ["child crashed"]


def test_unwaited_process_exception_crashes_run(env):
    def proc():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yielding_non_event_raises_inside_process(env):
    caught = []

    def proc():
        try:
            yield 42  # not an event
        except SimulationError as e:
            caught.append("caught")
            yield env.timeout(1)

    env.process(proc())
    env.run()
    assert caught == ["caught"]


def test_waiting_on_already_finished_process(env):
    def quick():
        yield env.timeout(1)
        return "early"

    p = env.process(quick())
    env.run()
    results = []

    def late():
        results.append((yield p))

    env.process(late())
    env.run()
    assert results == ["early"]


def test_non_generator_rejected(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        caught = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as i:
                caught.append((i.cause, env.now))

        p = env.process(victim())

        def attacker():
            yield env.timeout(3)
            p.interrupt("reason")

        env.process(attacker())
        env.run()
        assert caught == [("reason", 3)]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt:
                log.append("interrupted")
            yield env.timeout(5)
            log.append(("done", env.now))

        p = env.process(victim())

        def attacker():
            yield env.timeout(2)
            p.interrupt()

        env.process(attacker())
        env.run()
        assert log == ["interrupted", ("done", 7)]

    def test_interrupting_dead_process_raises(self, env):
        def victim():
            yield env.timeout(1)

        p = env.process(victim())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_fails_process(self, env):
        def victim():
            yield env.timeout(100)

        p = env.process(victim())
        caught = []

        def parent():
            try:
                yield p
            except Interrupt as i:
                caught.append(i.cause)

        env.process(parent())

        def attacker():
            yield env.timeout(1)
            p.interrupt("bang")

        env.process(attacker())
        env.run()
        assert caught == ["bang"]

    def test_interrupt_leaves_original_event_pending(self, env):
        """The event a process was waiting on is *not* consumed by interrupt."""
        timeout_values = []

        def victim():
            t = env.timeout(10, value="finally")
            try:
                yield t
            except Interrupt:
                pass
            timeout_values.append((yield t))

        p = env.process(victim())

        def attacker():
            yield env.timeout(1)
            p.interrupt()

        env.process(attacker())
        env.run()
        assert timeout_values == ["finally"]
        assert env.now == 10
