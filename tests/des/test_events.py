"""Tests for Event, Timeout, and AllOf semantics."""

import pytest

from repro.des import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(99)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 99

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_sets_not_ok(self, env):
        exc = RuntimeError("boom")
        ev = env.event().fail(exc)
        ev.defused = True
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc

    def test_processed_after_run(self, env):
        ev = env.event().succeed()
        env.run()
        assert ev.processed

    def test_unhandled_failed_event_crashes_run(self, env):
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failed_event_does_not_crash(self, env):
        ev = env.event().fail(RuntimeError("boom"))
        ev.defused = True
        env.run()  # no raise


class TestEventValuePassing:
    def test_process_receives_event_value(self, env):
        received = []

        def proc(ev):
            received.append((yield ev))

        ev = env.event()
        env.process(proc(ev))
        ev.succeed("hello")
        env.run()
        assert received == ["hello"]

    def test_timeout_value_passed(self, env):
        received = []

        def proc():
            received.append((yield env.timeout(1, value="tick")))

        env.process(proc())
        env.run()
        assert received == ["tick"]

    def test_failed_event_raises_in_process(self, env):
        caught = []

        def proc(ev):
            try:
                yield ev
            except RuntimeError as e:
                caught.append(str(e))

        ev = env.event()
        env.process(proc(ev))
        ev.fail(RuntimeError("boom"))
        env.run()
        assert caught == ["boom"]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        done_at = []

        def proc():
            yield env.all_of([env.timeout(1), env.timeout(3), env.timeout(2)])
            done_at.append(env.now)

        env.process(proc())
        env.run()
        assert done_at == [3]

    def test_all_of_empty_triggers_immediately(self, env):
        cond = env.all_of([])
        assert cond.triggered

    def test_all_of_value_maps_events_to_values(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        results = []

        def proc():
            results.append((yield env.all_of([t1, t2])))

        env.process(proc())
        env.run()
        value = results[0]
        assert value[t1] == "a"
        assert value[t2] == "b"
        assert len(value) == 2

    def test_failing_child_fails_condition(self, env):
        bad = env.event()
        caught = []

        def proc():
            try:
                yield env.all_of([env.timeout(10), bad])
            except ValueError as e:
                caught.append(str(e))

        env.process(proc())
        bad.fail(ValueError("child failed"))
        env.run()
        assert caught == ["child failed"]

    def test_condition_with_already_processed_event(self, env):
        ev = env.event().succeed("early")
        env.run()
        assert ev.processed
        done = []

        def proc():
            yield env.all_of([ev, env.timeout(1)])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [1]

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([env.timeout(1), other.timeout(1)])

    def test_late_child_failure_after_all_of_failed_is_defused(self, env):
        first = env.event()
        second = env.event()
        caught = []

        def proc():
            try:
                yield env.all_of([first, second, env.timeout(5)])
            except RuntimeError as e:
                caught.append((str(e), env.now))

        env.process(proc())

        def failer():
            yield env.timeout(1)
            first.fail(RuntimeError("first"))
            yield env.timeout(1)
            second.fail(RuntimeError("late"))

        env.process(failer())
        env.run()  # must not raise: the condition already failed, "late" is defused
        assert caught == [("first", 1)]
        assert second.defused
