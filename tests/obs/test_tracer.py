"""Unit tests for the tracer layer (no machine involved)."""

import pytest

from repro.machine.costs import CostModel, Counts
from repro.obs.events import (
    EV_COLLECTIVE,
    EV_FAULT,
    EV_PHASE_BEGIN,
    EV_RECV,
    EV_SEND,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer, make_tracer


class TestNullTracer:
    def test_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, Tracer)

    def test_hooks_are_noops(self):
        c = Counts()
        NULL_TRACER.on_send(0, "init", c, 0, 1, 0, 4, 1)
        NULL_TRACER.on_recv(0, "init", c, 0, 1, 0, 4)
        NULL_TRACER.on_collective(0, "init", c, 0, "reduce", range(4), 3, 10)
        NULL_TRACER.on_phase_begin(0, "init", c, 0)
        NULL_TRACER.on_phase_end(0, "init", c, 0)
        NULL_TRACER.on_mem_peak(0, "init", c, 0, 5, 5)
        NULL_TRACER.on_fault(0, "init", c, 0, "hard", 0)
        NULL_TRACER.on_replacement(0, "init", c, 0)
        NULL_TRACER.on_abort(0, "init", c, 0, 3)


class TestMakeTracer:
    def test_none_and_false_share_null(self):
        assert make_tracer(None) is NULL_TRACER
        assert make_tracer(False) is NULL_TRACER

    def test_true_makes_fresh_recorder(self):
        t1, t2 = make_tracer(True), make_tracer(True)
        assert isinstance(t1, RecordingTracer)
        assert t1 is not t2

    def test_cost_model_sets_weights(self):
        model = CostModel(alpha=100.0, beta=10.0, gamma=1.0)
        t = make_tracer(model)
        assert t.model is model

    def test_tracer_instance_passthrough(self):
        t = RecordingTracer()
        assert make_tracer(t) is t

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            make_tracer("yes")


class TestRecordingTracer:
    def test_virtual_timestamps_from_clock(self):
        t = RecordingTracer(model=CostModel(alpha=100.0, beta=10.0, gamma=1.0))
        t.on_send(0, "evaluation", Counts(f=7, bw=3, l=2), 0, 1, 0, 3, 1)
        (ev,) = t.events()
        assert ev.kind == EV_SEND
        assert ev.vt == 100.0 * 2 + 10.0 * 3 + 7
        assert ev.clock == Counts(f=7, bw=3, l=2)

    def test_per_rank_seq_is_program_order(self):
        t = RecordingTracer()
        t.on_send(0, "p", Counts(f=1), 0, 1, 0, 1, 1)
        t.on_send(0, "p", Counts(f=2), 0, 1, 0, 1, 1)
        t.on_recv(1, "p", Counts(f=9), 0, 0, 0, 1)
        assert [e.seq for e in t.events_for(0)] == [0, 1]
        assert [e.seq for e in t.events_for(1)] == [0]
        assert t.ranks() == [0, 1]
        assert len(t) == 3

    def test_events_globally_ordered_by_vt_rank_seq(self):
        t = RecordingTracer()
        t.on_send(1, "p", Counts(f=5), 0, 0, 0, 1, 1)
        t.on_send(0, "p", Counts(f=5), 0, 1, 0, 1, 1)
        t.on_recv(0, "p", Counts(f=1), 0, 1, 0, 1)
        kinds = [(e.vt, e.rank) for e in t.events()]
        assert kinds == sorted(kinds)

    def test_vt_monotone_within_rank(self):
        # Clocks only grow, so per-rank vt is non-decreasing.
        t = RecordingTracer()
        clock = Counts()
        for step in range(5):
            clock = clock + Counts(f=step)
            t.on_send(0, "p", clock, 0, 1, 0, 1, 1)
        vts = [e.vt for e in t.events_for(0)]
        assert vts == sorted(vts)

    def test_metrics_mirroring(self):
        t = RecordingTracer()
        t.on_send(0, "evaluation", Counts(), 0, 1, 0, 8, 1)
        t.on_send(0, "recovery", Counts(), 0, 1, 0, 5, 1)
        m = t.metrics
        assert m.counter("messages_total") == 2
        assert m.counter("phase_words", phase="evaluation") == 8
        assert m.counter("recovery_words_total") == 5
        assert m.histogram("message_size_words").count == 2

    def test_collective_fan_in_only_at_aggregating_end(self):
        t = RecordingTracer()
        t.on_collective(0, "p", Counts(), 0, "reduce", range(4), 3, 12)
        t.on_collective(1, "p", Counts(), 0, "reduce", range(4), 0, 12)
        hist = t.metrics.histogram("collective_fan_in")
        assert hist.count == 1 and hist.max == 3
        assert t.metrics.counter("collectives_total", op="reduce") == 2

    def test_modeled_collective_words_feed_phase_words(self):
        t = RecordingTracer()
        t.on_collective(0, "recovery", Counts(), 0, "t_reduce", range(9), 2, 40, modeled=True)
        t.on_collective(0, "recovery", Counts(), 0, "reduce", range(9), 2, 40, modeled=False)
        # Only the modeled one adds words (counted ones move words via sends).
        assert t.metrics.counter("phase_words", phase="recovery") == 40
        assert t.metrics.counter("recovery_words_total") == 40

    def test_fault_forensics(self):
        t = RecordingTracer()
        t.on_fault(4, "multiplication", Counts(f=10), 0, "hard", 0)
        t.on_send(5, "recovery", Counts(), 0, 4, 0, 30, 1)
        (fault,) = [e for e in t.events() if e.kind == EV_FAULT]
        assert fault.attrs["fault_kind"] == "hard"
        assert t.metrics.counter("faults_total", kind="hard") == 1
        assert t.recovery_words_per_fault() == 30.0

    def test_recovery_words_per_fault_zero_when_faultless(self):
        assert RecordingTracer().recovery_words_per_fault() == 0.0

    def test_event_as_dict_flat_and_sorted(self):
        t = RecordingTracer()
        t.on_collective(2, "p", Counts(f=1, bw=2, l=3), 1, "reduce", range(4), 3, 12)
        (ev,) = t.events()
        d = ev.as_dict()
        assert d["kind"] == EV_COLLECTIVE
        assert d["rank"] == 2 and d["incarnation"] == 1
        assert d["f"] == 1 and d["bw"] == 2 and d["l"] == 3
        assert d["op"] == "reduce"
        assert not any(isinstance(v, dict) for v in d.values())

    def test_events_are_frozen(self):
        t = RecordingTracer()
        t.on_phase_begin(0, "p", Counts(), 0)
        (ev,) = t.events()
        assert isinstance(ev, TraceEvent)
        assert ev.kind == EV_PHASE_BEGIN
        with pytest.raises(AttributeError):
            ev.vt = 99.0

    def test_recv_event_attrs(self):
        t = RecordingTracer()
        t.on_recv(1, "p", Counts(bw=4, l=1), 0, 0, 7, 4)
        (ev,) = t.events()
        assert ev.kind == EV_RECV
        assert ev.attrs == {"source": 0, "tag": 7, "words": 4}
