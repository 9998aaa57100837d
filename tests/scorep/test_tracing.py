"""Tests for Score-P tracing mode."""

import pytest

from repro.execution.clock import VirtualClock
from repro.scorep.tracing import (
    RankedTraceEvent,
    ScorePTracer,
    TraceEvent,
    TraceEventKind,
    merge_streams,
    tag_events,
    validate_trace,
)
from repro.trace import TraceWriter, load_location


@pytest.fixture
def tracer():
    return ScorePTracer(clock=VirtualClock())


class TestRecording:
    def test_events_timestamped_monotonically(self, tracer):
        tracer.enter("main")
        tracer.clock.advance(100)
        tracer.enter("solve")
        tracer.leave("solve")
        tracer.leave("main")
        events = tracer.all_events()
        stamps = [e.timestamp_cycles for e in events]
        assert stamps == sorted(stamps)
        assert [e.kind for e in events] == [
            TraceEventKind.ENTER,
            TraceEventKind.ENTER,
            TraceEventKind.LEAVE,
            TraceEventKind.LEAVE,
        ]

    def test_recording_costs_cycles(self, tracer):
        before = tracer.clock.cycles
        tracer.enter("x")
        assert tracer.clock.cycles > before

    def test_mpi_markers(self, tracer):
        tracer.enter("comm")
        tracer.mpi("MPI_Allreduce")
        tracer.leave("comm")
        kinds = [e.kind for e in tracer.all_events()]
        assert TraceEventKind.MPI in kinds

    def test_buffer_flushing(self):
        tracer = ScorePTracer(clock=VirtualClock(), buffer_size=4)
        for i in range(10):
            tracer.enter(f"r{i}")
        assert tracer.flush_count >= 2
        assert len(tracer.all_events()) == 10


class TestPersistence:
    def test_roundtrip_across_buffer_flush_threshold(self, tmp_path):
        """A tracer whose buffer fills mid-run spills each full buffer
        to its archive writer; closing the writer adds the live tail, and
        the archive reads back as exactly the stream an in-memory tracer
        records."""
        tracer = ScorePTracer(
            clock=VirtualClock(), buffer_size=8, writer=TraceWriter(tmp_path, 0)
        )
        in_memory = ScorePTracer(clock=VirtualClock(), buffer_size=8)
        for rec in (tracer, in_memory):
            for i in range(10):
                rec.enter(f"r{i}")
                rec.mpi("MPI_Barrier")
                rec.leave(f"r{i}")
        assert tracer.flush_count >= 3
        assert tracer.events  # live tail not yet flushed
        assert tracer.close_writer().events == 30
        loaded = load_location(tmp_path, 0)
        assert loaded == in_memory.all_events()
        stamps = [e.timestamp_cycles for e in loaded]
        assert stamps == sorted(stamps)


class TestValidation:
    def test_clean_trace(self, tracer):
        tracer.enter("a")
        tracer.enter("b")
        tracer.leave("b")
        tracer.leave("a")
        assert validate_trace(tracer.all_events()) == []

    def test_unbalanced_leave_detected(self, tracer):
        tracer.enter("a")
        tracer.leave("b")
        problems = validate_trace(tracer.all_events())
        codes = {p.code for p in problems}
        assert any(code.startswith("unbalanced-leave") for code in codes)
        assert "unclosed-region" in codes

    def test_out_of_order_leave_resyncs_no_cascade(self, tracer):
        """Regression: one LEAVE of an outer region used to leave the
        mismatched frame on the stack forever, flooding the report with
        one spurious 'unclosed region' per open ancestor."""
        tracer.enter("main")
        tracer.enter("solve")
        tracer.enter("kernel")
        tracer.leave("main")  # the single defect: closes over 2 frames
        for i in range(5):  # clean traffic after the defect
            tracer.enter(f"r{i}")
            tracer.leave(f"r{i}")
        problems = validate_trace(tracer.all_events())
        assert len(problems) == 1
        assert problems[0].code == "unbalanced-leave-resync"
        assert problems[0].region == "main"
        assert "unbalanced LEAVE main" in str(problems[0])

    def test_stray_leave_still_single_report(self, tracer):
        """A LEAVE of a never-entered region reports once and does not
        disturb the surrounding balanced nesting."""
        tracer.enter("main")
        tracer.leave("ghost")
        tracer.enter("kernel")
        tracer.leave("kernel")
        tracer.leave("main")
        problems = validate_trace(tracer.all_events())
        assert [str(p) for p in problems] == ["unbalanced LEAVE ghost"]
        assert problems[0].code == "unbalanced-leave"
        assert problems[0].rank is None

    def test_each_unclosed_region_reported_once(self, tracer):
        tracer.enter("a")
        tracer.enter("b")
        problems = validate_trace(tracer.all_events())
        assert sorted(str(p) for p in problems) == [
            "unclosed region a",
            "unclosed region b",
        ]
        assert {p.code for p in problems} == {"unclosed-region"}


class TestRankTaggedStreams:
    def test_tag_events_preserves_payload(self):
        events = [
            TraceEvent(TraceEventKind.ENTER, "main", 1.0),
            TraceEvent(TraceEventKind.LEAVE, "main", 2.0),
        ]
        tagged = tag_events(3, events)
        assert all(ev.rank == 3 for ev in tagged)
        assert [ev.untagged() for ev in tagged] == events

    def test_merge_streams_orders_by_time_then_rank(self):
        a = tag_events(0, [TraceEvent(TraceEventKind.ENTER, "x", 1.0),
                           TraceEvent(TraceEventKind.LEAVE, "x", 5.0)])
        b = tag_events(1, [TraceEvent(TraceEventKind.ENTER, "y", 1.0),
                           TraceEvent(TraceEventKind.LEAVE, "y", 3.0)])
        merged = merge_streams([a, b])
        assert [(ev.timestamp_cycles, ev.rank) for ev in merged] == [
            (1.0, 0), (1.0, 1), (3.0, 1), (5.0, 0),
        ]

    def test_merge_streams_is_input_order_invariant(self):
        a = tag_events(0, [TraceEvent(TraceEventKind.ENTER, "x", 2.0)])
        b = tag_events(1, [TraceEvent(TraceEventKind.ENTER, "y", 1.0)])
        assert merge_streams([a, b]) == merge_streams([b, a])

    def test_ranked_event_is_hashable_value_object(self):
        ev = RankedTraceEvent(0, TraceEventKind.MPI, "MPI_Barrier", 7.0)
        assert ev == RankedTraceEvent(0, TraceEventKind.MPI, "MPI_Barrier", 7.0)
        assert hash(ev) == hash(
            RankedTraceEvent(0, TraceEventKind.MPI, "MPI_Barrier", 7.0)
        )
