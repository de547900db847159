"""Scenario tests for the request-service engine with hand-computed timings.

Fixture hardware (easy numbers):
  tape: 1000 MB, full traverse 10 s  -> locate/rewind rate 100 MB/s
  drive: 10 MB/s transfer, load 5 s, unload 5 s
  robot: 2 s per cell<->drive move   -> exchange (return+fetch) = 4 s
"""

import pytest

from repro.catalog import LocationIndex, Request
from repro.des import Trace
from repro.hardware import (
    DriveSpec,
    LibrarySpec,
    SystemSpec,
    TapeId,
    TapeSpec,
    TapeSystem,
)
from repro.sim import mounted_response, simulate_request, uncontended_switch_time


def make_system(num_libraries=1, num_drives=2, num_tapes=4):
    spec = SystemSpec(
        num_libraries=num_libraries,
        library=LibrarySpec(
            num_drives=num_drives,
            num_tapes=num_tapes,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=1000.0, max_rewind_s=10.0),
        ),
    )
    return TapeSystem(spec), spec


def place(system, tape_id, objects):
    """objects: list of (object_id, start, size)."""
    tape = system.tape(tape_id)
    from repro.hardware import ObjectExtent

    tape.write_layout([ObjectExtent(o, s, z) for o, s, z in objects])


class TestMountedService:
    def test_single_object_on_mounted_tape(self):
        system, _ = make_system()
        place(system, TapeId(0, 0), [(1, 0.0, 100.0)])
        system.library(0).drives[0].mount(system.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1,), 1.0))
        assert m.response_s == pytest.approx(10.0)  # 100 MB at 10 MB/s
        assert m.seek_s == 0.0
        assert m.transfer_s == pytest.approx(10.0)
        assert m.switch_s == pytest.approx(0.0)
        assert m.num_switches == 0

    def test_two_objects_single_sweep(self):
        system, _ = make_system()
        place(system, TapeId(0, 0), [(1, 0.0, 100.0), (2, 200.0, 100.0)])
        system.library(0).drives[0].mount(system.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1, 2), 1.0))
        # read 1 (10 s), locate 100->200 (1 s), read 2 (10 s)
        assert m.response_s == pytest.approx(21.0)
        assert m.seek_s == pytest.approx(1.0)
        assert m.transfer_s == pytest.approx(20.0)

    def test_parallel_mounted_drives(self):
        system, _ = make_system()
        place(system, TapeId(0, 0), [(1, 0.0, 100.0)])
        place(system, TapeId(0, 1), [(2, 0.0, 300.0)])
        system.library(0).drives[0].mount(system.tape(TapeId(0, 0)))
        system.library(0).drives[1].mount(system.tape(TapeId(0, 1)))
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1, 2), 1.0))
        # slower drive: 300 MB -> 30 s; the critical drive's decomposition
        assert m.response_s == pytest.approx(30.0)
        assert m.transfer_s == pytest.approx(30.0)
        assert m.num_drives == 2

    def test_matches_analytic_model(self):
        system, _ = make_system()
        place(system, TapeId(0, 0), [(1, 50.0, 100.0), (2, 400.0, 50.0)])
        place(system, TapeId(0, 1), [(3, 0.0, 200.0)])
        system.library(0).drives[0].mount(system.tape(TapeId(0, 0)))
        system.library(0).drives[1].mount(system.tape(TapeId(0, 1)))
        index = LocationIndex.from_system(system)
        request = Request(0, (1, 2, 3), 1.0)

        expected = mounted_response(system, index, request)  # pure, no mutation
        actual = simulate_request(system, index, request)
        assert actual.response_s == pytest.approx(expected.response_s)
        assert actual.seek_s == pytest.approx(expected.seek_s)
        assert actual.transfer_s == pytest.approx(expected.transfer_s)


class TestSwitching:
    def test_mount_into_empty_drive(self):
        system, _ = make_system()
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1,), 1.0))
        # fetch 2 + load 5 + transfer 10
        assert m.response_s == pytest.approx(17.0)
        assert m.switch_s == pytest.approx(7.0)
        assert m.num_switches == 1

    def test_displacement_switch(self):
        # Single drive: the unrelated mounted tape must be displaced.
        system, spec = make_system(num_drives=1)
        place(system, TapeId(0, 0), [(9, 0.0, 500.0)])  # unrelated mounted tape
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        drive = system.library(0).drives[0]
        drive.mount(system.tape(TapeId(0, 0)))
        system.tape(TapeId(0, 0)).head_mb = 500.0  # mid-tape head
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1,), 1.0))
        # rewind 5 + unload 5 + exchange 4 + load 5 + transfer 10 = 29
        assert m.response_s == pytest.approx(29.0)
        assert m.switch_s == pytest.approx(19.0)
        # cross-check against the analytic lower bound:
        assert m.switch_s == pytest.approx(uncontended_switch_time(spec, 500.0))
        # Displaced tape is back in its cell, rewound.
        assert system.tape(TapeId(0, 0)).head_mb == 0.0
        assert drive.mounted.id == TapeId(0, 2)

    def test_robot_serializes_concurrent_switches(self):
        system, _ = make_system()
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        place(system, TapeId(0, 3), [(2, 0.0, 100.0)])
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1, 2), 1.0))
        # Robot is held through fetch+load (constant-time mount op):
        # drive A: robot [0,7] (fetch 2 + load 5), xfer [7,17]
        # drive B: robot wait until 7, robot [7,14], xfer [14,24]
        assert m.response_s == pytest.approx(24.0)

    def test_independent_robots_across_libraries(self):
        system, _ = make_system(num_libraries=2)
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        place(system, TapeId(1, 2), [(2, 0.0, 100.0)])
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1, 2), 1.0))
        # both libraries proceed in parallel: no cross-library robot wait
        assert m.response_s == pytest.approx(17.0)

    def test_single_drive_switches_sequentially(self):
        system, _ = make_system(num_drives=1, num_tapes=4)
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        place(system, TapeId(0, 3), [(2, 0.0, 100.0)])
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1, 2), 1.0))
        # first: fetch 2 + load 5 + xfer 10 = 17 (head now at 100)
        # second: rewind 1 + unload 5 + exchange 4 + load 5 + xfer 10 = 42
        assert m.response_s == pytest.approx(42.0)
        assert m.num_switches == 2

    def test_lpt_longest_job_first(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        system, _ = make_system(num_drives=1, num_tapes=4)
        place(system, TapeId(0, 2), [(1, 0.0, 50.0)])     # short job
        place(system, TapeId(0, 3), [(2, 0.0, 500.0)])    # long job
        index = LocationIndex.from_system(system)
        trace = Trace()

        simulate_request(system, index, Request(0, (1, 2), 1.0), trace=trace)
        transfers = trace.spans("transfer")
        assert [s.attrs["object"] for s in transfers] == [2, 1]

    def test_pinned_drives_never_switch(self):
        system, _ = make_system(num_drives=2)
        place(system, TapeId(0, 0), [(9, 0.0, 10.0)])
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        pinned_drive = system.library(0).drives[0]
        pinned_drive.mount(system.tape(TapeId(0, 0)))
        pinned_drive.pinned = True
        index = LocationIndex.from_system(system)

        simulate_request(system, index, Request(0, (1,), 1.0))
        assert pinned_drive.mounted.id == TapeId(0, 0)  # untouched

    def test_all_pinned_library_uses_pinned_drive_as_last_resort(self):
        """Pinning is policy, not physics: when no unpinned drive exists,
        the pinned drive performs the switch rather than stranding the job."""
        system, _ = make_system(num_drives=1)
        place(system, TapeId(0, 0), [(9, 0.0, 10.0)])
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        drive = system.library(0).drives[0]
        drive.mount(system.tape(TapeId(0, 0)))
        drive.pinned = True
        index = LocationIndex.from_system(system)

        m = simulate_request(system, index, Request(0, (1,), 1.0))
        assert m.size_mb == pytest.approx(100.0)
        assert drive.mounted.id == TapeId(0, 2)  # pinned tape displaced

    def test_least_popular_mounted_tape_displaced_first(self):
        system, _ = make_system(num_drives=2)
        place(system, TapeId(0, 0), [(8, 0.0, 10.0)])  # popular tape
        place(system, TapeId(0, 1), [(9, 0.0, 10.0)])  # unpopular tape
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        system.library(0).drives[0].mount(system.tape(TapeId(0, 0)))
        system.library(0).drives[1].mount(system.tape(TapeId(0, 1)))
        index = LocationIndex.from_system(system)
        priority = {TapeId(0, 0): 0.9, TapeId(0, 1): 0.1}

        simulate_request(system, index, Request(0, (1,), 1.0), tape_priority=priority)
        # Popular tape survives; unpopular one was displaced.
        assert system.library(0).drives[0].mounted.id == TapeId(0, 0)
        assert system.library(0).drives[1].mounted.id == TapeId(0, 2)

    def test_mounted_switching_tape_served_before_unmount(self, monkeypatch):
        """A mounted tape with requested objects serves them, then switches."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        system, _ = make_system(num_drives=1)
        place(system, TapeId(0, 0), [(1, 0.0, 100.0)])
        place(system, TapeId(0, 2), [(2, 0.0, 100.0)])
        system.library(0).drives[0].mount(system.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)
        trace = Trace()

        m = simulate_request(system, index, Request(0, (1, 2), 1.0), trace=trace)
        transfers = trace.spans("transfer")
        assert [s.attrs["object"] for s in transfers] == [1, 2]
        # serve 1 [0,10]; rewind 1 (head 100), unload 5, exchange 4, load 5,
        # xfer 10 -> 35
        assert m.response_s == pytest.approx(35.0)


class TestStatePersistence:
    def test_second_request_serves_from_cache(self):
        system, _ = make_system()
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        index = LocationIndex.from_system(system)
        request = Request(0, (1,), 1.0)

        first = simulate_request(system, index, request)
        assert first.response_s == pytest.approx(17.0)
        # Tape is now mounted with head at 100: seek back 1 s + transfer 10 s.
        second = simulate_request(system, index, request)
        assert second.response_s == pytest.approx(11.0)
        assert second.num_switches == 0

    def test_robot_wait_recorded(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        system, _ = make_system()
        place(system, TapeId(0, 2), [(1, 0.0, 100.0)])
        place(system, TapeId(0, 3), [(2, 0.0, 100.0)])
        index = LocationIndex.from_system(system)
        trace = Trace()
        simulate_request(system, index, Request(0, (1, 2), 1.0), trace=trace)
        waits = trace.spans("robot_wait")
        assert len(waits) == 1
        assert waits[0].duration == pytest.approx(7.0)  # fetch 2 + load 5

    def test_trace_disabled_by_default(self):
        system, _ = make_system()
        place(system, TapeId(0, 0), [(1, 0.0, 100.0)])
        system.library(0).drives[0].mount(system.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)
        simulate_request(system, index, Request(0, (1,), 1.0))  # no crash
