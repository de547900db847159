"""The trace pickling contract: spans travel as one blob, decoded on first read.

A pickled :class:`Trace` holds its span list as a nested pickle and decodes
it only when something reads ``_spans``; it compares by content, so a
loaded trace equals the one it was pickled from whether or not it has been
decoded yet.
"""

import copy
import pickle

import pytest

from repro.des import Span, Trace
from repro.sim import DriveFailure

from ..sim.test_opensystem import _session, _spec, _workload


@pytest.fixture(autouse=True)
def _tracing_on(monkeypatch):
    """Every trace here records spans, whatever ``REPRO_TRACE`` says."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _forms(trace):
    """The storage forms present in a trace's raw span list."""
    forms = set()
    for entry in trace._spans:
        if type(entry) is tuple:
            forms.add("flat-attrs" if type(entry[3]) is tuple else "dict-attrs")
            attrs = entry[3] if type(entry[3]) is dict else {}
        else:
            forms.add("span")
            attrs = entry.attrs
        if attrs.get("aborted"):
            forms.add("aborted")
    return forms


def _small_trace():
    trace = Trace()
    trace.record("a", 0.0, 1.0, drive="L0.D0")
    trace._spans.append(("b", 1.0, 2.0, ("object", 3), 9, None, 4))
    return trace


@pytest.fixture(scope="module")
def runs():
    """A traced concurrent open run and a run with drives failing mid-job,
    pickled before any query materializes their raw span tuples."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        wl, sp = _workload(), _spec()
        open_run = _session(wl, sp).open(policy="concurrent").run(
            120.0, num_arrivals=20, seed=4
        )
        faults = (
            DriveFailure("L0.D0", at_s=open_run.horizon_s / 4),
            DriveFailure("L0.D1", at_s=open_run.horizon_s / 2),
        )
        chaos_run = _session(wl, sp).open(policy="concurrent", faults=faults).run(
            120.0, num_arrivals=20, seed=4
        )
    out = {}
    for name, result in (("open", open_run), ("chaos", chaos_run)):
        forms = _forms(result.trace)
        out[name] = (result, forms, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    return out


class TestRoundTrip:
    def test_runs_cover_every_storage_form(self, runs):
        forms = runs["open"][1] | runs["chaos"][1]
        assert forms == {"flat-attrs", "dict-attrs", "span", "aborted"}

    @pytest.mark.parametrize("name", ["open", "chaos"])
    def test_loaded_trace_equals_the_recorded_one(self, runs, name):
        result, _, blob = runs[name]
        loaded = pickle.loads(blob).trace
        assert "_spans" not in vars(loaded)
        assert loaded == result.trace
        assert list(loaded) == list(result.trace)
        assert len(loaded) == len(result.trace) > 0

    @pytest.mark.parametrize("name", ["open", "chaos"])
    def test_loaded_result_equals_the_recorded_one(self, runs, name):
        result, _, blob = runs[name]
        loaded = pickle.loads(blob)
        assert loaded.records == result.records
        assert loaded.spans() == result.spans()

    def test_span_pickles_as_its_constructor_arguments(self):
        span = Span("seek", 1.0, 2.5, {"drive": "L0.D0"}, 7, 3, 2)
        assert span.__reduce__() == (
            Span, ("seek", 1.0, 2.5, {"drive": "L0.D0"}, 7, 3, 2)
        )
        assert _roundtrip(span) == span


class TestLazyDecode:
    def test_loaded_trace_stays_undecoded_until_read(self):
        loaded = _roundtrip(_small_trace())
        assert "_spans" not in vars(loaded) and "_blob" in vars(loaded)
        assert len(loaded) == 2
        assert "_spans" in vars(loaded) and "_blob" not in vars(loaded)

    def test_repickling_an_undecoded_trace_does_not_decode_it(self):
        trace = _small_trace()
        loaded = _roundtrip(trace)
        again = _roundtrip(loaded)
        assert "_spans" not in vars(loaded) and "_spans" not in vars(again)
        assert again == trace and loaded == trace

    def test_recording_after_a_load(self):
        trace = _small_trace()
        loaded = _roundtrip(trace)
        loaded.record("c", 2.0, 3.0)
        assert [s.name for s in loaded] == ["a", "b", "c"]
        assert loaded.spans("c")[0].span_id == trace._next_id

        loaded = _roundtrip(trace)
        with loaded.span(_Clock(4.0), "d") as ctx:
            pass
        assert loaded.by_id()[ctx.id].start == 4.0

        loaded = _roundtrip(trace)
        loaded._spans.append(("e", 5.0, 6.0, {}, 99, None, None))
        assert [s.name for s in loaded] == ["a", "b", "e"]

    def test_other_missing_attributes_still_raise(self):
        loaded = _roundtrip(_small_trace())
        with pytest.raises(AttributeError, match="nope"):
            loaded.nope
        assert "_blob" in vars(loaded)


class TestEnabledFlag:
    def test_disabled_trace_comes_back_disabled(self):
        loaded = _roundtrip(Trace(enabled=False))
        assert not loaded.enabled
        assert loaded.record("a", 0, 1) is None
        assert loaded.span(_Clock(), "a").id is None
        assert len(loaded) == 0

    def test_enabled_trace_stays_enabled_under_repro_trace_0(self, monkeypatch):
        blob = pickle.dumps(_small_trace())
        monkeypatch.setenv("REPRO_TRACE", "0")
        loaded = pickle.loads(blob)
        assert loaded.enabled
        assert loaded.record("c", 2.0, 3.0) is not None
        assert len(loaded) == 3


class TestEqualityAndCopies:
    def test_equality_is_by_content(self):
        a, b = _small_trace(), _small_trace()
        assert a == b
        b.record("c", 2.0, 3.0)
        assert a != b
        assert Trace() != Trace(enabled=False)
        c = _small_trace()
        c._next_id += 1
        assert a != c
        with pytest.raises(TypeError):
            hash(a)

    def test_deepcopy(self):
        trace = _small_trace()
        assert copy.deepcopy(trace) == trace
        loaded = _roundtrip(trace)
        copied = copy.deepcopy(loaded)
        assert "_spans" not in vars(loaded)
        assert copied == trace

    def test_state_holding_spans_still_loads(self, monkeypatch):
        trace = _small_trace()
        with monkeypatch.context() as m:
            m.delattr(Trace, "__getstate__")  # pickles ``__dict__``, as before
            blob = pickle.dumps(trace)
        old = pickle.loads(blob)
        assert "_spans" in vars(old) and "_blob" not in vars(old)
        assert old == trace
        assert _roundtrip(old) == trace


class _Clock:
    def __init__(self, now=0.0):
        self.now = now
