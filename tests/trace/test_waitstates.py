"""Wait-state classification: the Scalasca taxonomy on merged traces."""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multirank import MergedTimeline, merge_rank_traces
from repro.simmpi.messages import (
    RECV_OPS,
    SEND_OPS,
    MessageMatcher,
    ring_partner,
)
from repro.trace import (
    classify_wait_states,
    open_merged_trace,
    render_wait_state_report,
    summarize_by_rank,
    summarize_by_region,
)
from repro.trace.waitstates import (
    COLLECTIVE_IMBALANCE,
    LATE_RECEIVER,
    LATE_SENDER,
)
from tests.trace.conftest import E, L, M, ev, write_archive
from tests.trace.test_walk import worlds


class TestRingPairing:
    def test_partner_is_previous_rank(self):
        assert ring_partner(1, 4) == 0
        assert ring_partner(0, 4) == 3

    def test_matcher_numbers_per_direction(self):
        m = MessageMatcher()
        assert m.next_id("MPI_Isend") == 0
        assert m.next_id("MPI_Irecv") == 0
        assert m.next_id("MPI_Isend") == 1
        assert m.next_id("MPI_Allreduce") is None

    def test_op_sets(self):
        assert "MPI_Isend" in SEND_OPS and "MPI_Send" in SEND_OPS
        assert "MPI_Irecv" in RECV_OPS and "MPI_Recv" in RECV_OPS


class TestCollectiveImbalance:
    def test_early_arriver_classified(self):
        fast = [ev(M, "MPI_Allreduce", 20), ev(M, "MPI_Finalize", 30)]
        slow = [ev(M, "MPI_Allreduce", 50), ev(M, "MPI_Finalize", 60)]
        merged = merge_rank_traces([fast, slow])
        waits = classify_wait_states(merged)
        collective = [w for w in waits if w.kind == COLLECTIVE_IMBALANCE]
        assert collective
        top = collective[0]
        assert top.rank == 0
        assert top.op == "MPI_Allreduce"
        assert top.wait_cycles == 30.0
        assert top.sync_index == 0

    def test_enclosing_region_attributed(self):
        fast = [
            ev(E, "solve", 1), ev(M, "MPI_Allreduce", 20), ev(L, "solve", 25),
            ev(M, "MPI_Finalize", 30),
        ]
        slow = [
            ev(E, "solve", 1), ev(M, "MPI_Allreduce", 50), ev(L, "solve", 55),
            ev(M, "MPI_Finalize", 60),
        ]
        merged = merge_rank_traces([fast, slow])
        top = classify_wait_states(merged)[0]
        assert top.kind == COLLECTIVE_IMBALANCE
        assert top.region == "solve"

    @settings(max_examples=60, deadline=None)
    @given(world=worlds(), min_wait=st.sampled_from([0.0, 0.2, 1.0]))
    def test_collective_entries_are_the_wait_states(self, world, min_wait):
        """On random archives of a possibly degraded rank set, the
        classification's collective waits are ``wait_states()`` record
        for record with only the region filled in, and both name each
        rank by id, on its own lane of the sync point."""
        streams, ids, world_ranks = world
        with tempfile.TemporaryDirectory() as td:
            write_archive(Path(td), dict(zip(ids, streams)), world_ranks=world_ranks)
            trace = open_merged_trace(td)
            waits = trace.wait_states(min_wait_cycles=min_wait)
            classified = classify_wait_states(
                trace, min_wait_cycles=min_wait, world_ranks=world_ranks
            )
        collective = sorted(
            (w for w in classified if w.kind == COLLECTIVE_IMBALANCE),
            key=lambda w: (-w.wait_cycles, w.sync_index, w.rank),
        )
        assert [replace(w, region=None) for w in collective] == waits
        for w in waits:
            assert w.kind == COLLECTIVE_IMBALANCE and w.region is None
            sp = trace.sync_points[w.sync_index]
            lane = trace.rank_ids.index(w.rank)
            assert w.begin_cycles == sp.aligned_cycles - sp.wait_cycles[lane]

    def test_collective_waits_derived_once(self, monkeypatch):
        """The classification derives the collective waits with their
        regions; it does not call ``wait_states()`` and wrap them."""
        fast = [ev(M, "MPI_Allreduce", 20), ev(M, "MPI_Finalize", 30)]
        slow = [ev(M, "MPI_Allreduce", 50), ev(M, "MPI_Finalize", 60)]
        merged = merge_rank_traces([fast, slow])

        def refused(self, **_):
            raise AssertionError("wait_states() called")

        monkeypatch.setattr(MergedTimeline, "wait_states", refused)
        assert classify_wait_states(merged)[0].kind == COLLECTIVE_IMBALANCE


class TestP2PClassification:
    def _world(self, send_t, recv_t):
        """2 ranks: rank 0 sends message 0 to rank 1 (ring partner)."""
        r0 = [ev(M, "MPI_Isend", send_t, mid=0), ev(M, "MPI_Finalize", 100)]
        r1 = [ev(M, "MPI_Irecv", recv_t, mid=0), ev(M, "MPI_Finalize", 100)]
        return merge_rank_traces([r0, r1])

    def test_late_sender(self):
        """Recv posted at 10, send not until 40: the receiver waits."""
        waits = classify_wait_states(self._world(send_t=40, recv_t=10))
        p2p = [w for w in waits if w.kind == LATE_SENDER]
        assert len(p2p) == 1
        w = p2p[0]
        assert w.rank == 1  # the receiver waits
        assert w.partner_rank == 0
        assert w.message_id == 0
        assert (w.begin_cycles, w.end_cycles) == (10.0, 40.0)
        assert not [x for x in waits if x.kind == LATE_RECEIVER]

    def test_late_receiver(self):
        """Send at 10, recv not posted until 40: the sender waits."""
        waits = classify_wait_states(self._world(send_t=10, recv_t=40))
        p2p = [w for w in waits if w.kind == LATE_RECEIVER]
        assert len(p2p) == 1
        w = p2p[0]
        assert w.rank == 0  # the sender waits
        assert w.partner_rank == 1
        assert (w.begin_cycles, w.end_cycles) == (10.0, 40.0)

    def test_simultaneous_is_no_wait(self):
        waits = classify_wait_states(self._world(send_t=10, recv_t=10))
        assert not [w for w in waits if w.kind != COLLECTIVE_IMBALANCE]

    def test_min_wait_threshold_filters(self):
        waits = classify_wait_states(
            self._world(send_t=15, recv_t=10), min_wait_cycles=10.0
        )
        assert not [w for w in waits if w.kind == LATE_SENDER]

    def test_unmatched_message_skipped(self):
        """Ragged tail: a send whose recv never happened classifies
        nothing (and does not crash)."""
        r0 = [ev(M, "MPI_Isend", 10, mid=0), ev(M, "MPI_Finalize", 50)]
        r1 = [ev(M, "MPI_Finalize", 50)]
        waits = classify_wait_states(merge_rank_traces([r0, r1]))
        assert not [w for w in waits if w.kind != COLLECTIVE_IMBALANCE]

    def test_degraded_world_skips_missing_partner(self):
        """Rank 1's receives point at lost rank 0: no partner trace, no
        classification, no crash.  world_ranks keeps ring arithmetic
        anchored to the original world."""
        r1 = [ev(M, "MPI_Irecv", 10, mid=0), ev(M, "MPI_Finalize", 50)]
        r2 = [ev(M, "MPI_Isend", 40, mid=0), ev(M, "MPI_Finalize", 50)]
        merged = merge_rank_traces([r1, r2], rank_ids=[1, 2])
        waits = classify_wait_states(merged, world_ranks=3)
        # rank 2's send goes to rank 0 (lost) — skipped; rank 1 waits
        # on rank 0's send (lost) — skipped
        assert not [w for w in waits if w.kind != COLLECTIVE_IMBALANCE]

    def test_streaming_trace_classifies_identically(self, tmp_path):
        streams = {
            0: [ev(M, "MPI_Isend", 40, mid=0), ev(M, "MPI_Finalize", 100)],
            1: [ev(M, "MPI_Irecv", 10, mid=0), ev(M, "MPI_Finalize", 100)],
        }
        write_archive(tmp_path, streams)
        merged = merge_rank_traces([streams[0], streams[1]])
        assert classify_wait_states(
            open_merged_trace(tmp_path)
        ) == classify_wait_states(merged)


class TestSummariesAndReport:
    def _waits(self):
        fast = [
            ev(E, "solve", 1), ev(M, "MPI_Allreduce", 20), ev(L, "solve", 25),
            ev(M, "MPI_Finalize", 60),
        ]
        slow = [
            ev(E, "solve", 1), ev(M, "MPI_Allreduce", 50), ev(L, "solve", 55),
            ev(M, "MPI_Finalize", 60),
        ]
        return classify_wait_states(merge_rank_traces([fast, slow]))

    def test_summaries(self):
        waits = self._waits()
        by_rank = summarize_by_rank(waits)
        assert by_rank[0][COLLECTIVE_IMBALANCE] == 30.0
        by_region = summarize_by_region(waits)
        assert COLLECTIVE_IMBALANCE in by_region["solve"]

    def test_report_mentions_kinds_and_totals(self):
        report = render_wait_state_report(self._waits())
        assert COLLECTIVE_IMBALANCE in report
        assert "totals by rank" in report
        assert "totals by region" in report

    def test_sorted_largest_first(self):
        waits = self._waits()
        cycles = [w.wait_cycles for w in waits]
        assert cycles == sorted(cycles, reverse=True)
