"""Tests for Resource queueing semantics."""

import pytest

from repro.des import Environment, Interrupt, Resource, ResourceUsageMonitor


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, 0)

    def test_grant_when_free(self, env):
        res = Resource(env, 1)
        log = []

        def user():
            with res.request() as req:
                yield req
                log.append(env.now)
                yield env.timeout(1)

        env.process(user())
        env.run()
        assert log == [0]
        assert res.count == 0

    def test_fifo_queueing_serializes_users(self, env):
        res = Resource(env, 1)
        log = []

        def user(name, hold):
            with res.request() as req:
                yield req
                log.append((name, env.now))
                yield env.timeout(hold)

        env.process(user("a", 3))
        env.process(user("b", 2))
        env.process(user("c", 1))
        env.run()
        assert log == [("a", 0), ("b", 3), ("c", 5)]

    def test_capacity_two_allows_two_concurrent(self, env):
        res = Resource(env, 2)
        log = []

        def user(name):
            with res.request() as req:
                yield req
                log.append((name, env.now))
                yield env.timeout(4)

        for name in "abc":
            env.process(user(name))
        env.run()
        assert log == [("a", 0), ("b", 0), ("c", 4)]

    def test_count_and_queue_lengths(self, env):
        res = Resource(env, 1)

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def observer():
            yield env.timeout(1)
            assert res.count == 1
            assert len(res.queue) == 1

        env.process(holder())
        env.process(holder())
        env.process(observer())
        env.run()

    def test_cancelled_queued_request_is_skipped(self, env):
        res = Resource(env, 1)
        log = []

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def quitter():
            req = res.request()  # queued behind holder
            yield env.timeout(1)
            req.cancel()

        def patient():
            with res.request() as req:
                yield req
                log.append(env.now)

        env.process(holder())
        env.process(quitter())
        env.process(patient())
        env.run()
        assert log == [5]

    def test_interrupt_while_queued_withdraws_the_request(self, env):
        # A drive worker waiting on the robot can fail: the interrupt lands
        # at ``yield req`` and the ``with`` block withdraws the queued request.
        res = Resource(env, 1)
        monitor = ResourceUsageMonitor("robot").attach(res)
        log = []
        victim_requests = []

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def victim():
            with res.request() as req:
                victim_requests.append(req)
                try:
                    yield req
                except Interrupt:
                    log.append(("interrupted", env.now))
                    return
                log.append(("victim granted", env.now))

        def patient():
            yield env.timeout(1)
            with res.request() as req:
                yield req
                log.append(("patient granted", env.now))

        env.process(holder())
        victim_proc = env.process(victim())
        env.process(patient())

        def attacker():
            yield env.timeout(2)
            assert victim_requests[0] in res.queue and len(res.queue) == 2
            victim_proc.interrupt("drive failed")
            yield env.timeout(1)
            assert victim_requests[0] not in res.queue
            assert len(res.queue) == 1 and monitor.queue_depth == 1

        env.process(attacker())
        env.run()
        assert log == [("interrupted", 2), ("patient granted", 5)]
        assert res.count == 0 and res.queue == []
        # Enqueues and dequeues balance; the victim waited 0-2, the patient 1-5.
        assert monitor.queue_depth == 0 and monitor.max_queue_depth == 2
        assert monitor.queue_wait_s == pytest.approx(6.0)
        assert monitor.grants == 2 and monitor.in_use == 0
