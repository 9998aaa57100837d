"""Streaming merge ≡ in-memory merge, bit for bit, on synthetic archives.

The end-to-end backend sweep (serial / multiprocessing / supervised)
lives in ``test_pipeline.py``; here the archives are hand-built so the
edge cases — ragged timelines, degraded rank sets, buffer-flush
crossings, defective streams — are exact and fast.
"""

import pytest

from repro.multirank import merge_rank_traces
from repro.trace import (
    TraceStoreError,
    classify_wait_states,
    load_location,
    open_merged_trace,
)
from tests.trace.conftest import E, L, M, ev, write_archive


def ring_streams():
    """3 ranks, collectives + matched p2p + nested regions, skewed."""
    streams = {}
    for rank in range(3):
        skew = rank * 7.0
        streams[rank] = [
            ev(M, "MPI_Init", 1.0 + skew),
            ev(E, "main", 2.0 + skew),
            ev(E, "solve", 3.0 + skew),
            ev(M, "MPI_Isend", 4.0 + skew, mid=0),
            ev(M, "MPI_Irecv", 5.0 + skew, mid=0),
            ev(M, "MPI_Allreduce", 10.0 + skew * 2),
            ev(L, "solve", 12.0 + skew * 2),
            ev(M, "MPI_Allreduce", 20.0 + skew * 2),
            ev(L, "main", 21.0 + skew * 2),
            ev(M, "MPI_Finalize", 22.0 + skew * 2),
        ]
    return streams


def assert_equivalent(streamed, merged):
    """The full bit-identity contract between the two merge paths."""
    assert list(streamed.events()) == list(merged.events)
    assert streamed.sync_points == merged.sync_points
    assert streamed.rank_offsets == merged.rank_offsets
    assert streamed.rank_labels == merged.rank_labels
    assert streamed.rank_wait_cycles == merged.rank_wait_cycles
    assert streamed.wait_states() == merged.wait_states()
    assert streamed.critical_path() == merged.critical_path()
    assert streamed.validate() == merged.validate()
    assert classify_wait_states(streamed) == classify_wait_states(merged)
    assert streamed.render() == merged.render()
    assert streamed.elapsed_cycles == merged.elapsed_cycles
    assert streamed.last_aligned == merged.last_aligned


class TestBitIdentity:
    def test_basic_archive(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, streams)
        merged = merge_rank_traces([streams[r] for r in sorted(streams)])
        assert_equivalent(open_merged_trace(tmp_path), merged)

    def test_buffer_flush_crossing(self, tmp_path):
        """Tiny write buffers force many flushes per location; the
        merged timeline must not notice."""
        streams = ring_streams()
        write_archive(tmp_path, streams, buffer_events=3)
        merged = merge_rank_traces([streams[r] for r in sorted(streams)])
        assert_equivalent(open_merged_trace(tmp_path), merged)

    def test_ragged_timelines(self, tmp_path):
        """Ranks that stop at different collectives (ragged tails) and
        have unequal event counts."""
        streams = ring_streams()
        streams[1] = streams[1][:6]  # dies after the first allreduce
        streams[2] = streams[2][:4] + [ev(M, "MPI_Allreduce", 50.0)]
        write_archive(tmp_path, streams)
        merged = merge_rank_traces([streams[r] for r in sorted(streams)])
        assert_equivalent(open_merged_trace(tmp_path), merged)

    def test_degraded_rank_set(self, tmp_path):
        """Archive holding only ranks {0, 2} of a 4-rank world: the
        streaming merge must honour non-contiguous rank_ids exactly as
        merge_rank_traces(rank_ids=...) does."""
        streams = ring_streams()
        survivors = {0: streams[0], 2: streams[2]}
        write_archive(tmp_path, survivors, world_ranks=4)
        merged = merge_rank_traces(
            [survivors[0], survivors[2]], rank_ids=[0, 2]
        )
        streamed = open_merged_trace(tmp_path)
        assert streamed.rank_ids == (0, 2)
        assert_equivalent(streamed, merged)

    def test_explicit_rank_ids_subset(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, streams)
        merged = merge_rank_traces(
            [streams[1], streams[2]], rank_ids=[1, 2]
        )
        streamed = open_merged_trace(tmp_path, rank_ids=[1, 2])
        assert_equivalent(streamed, merged)

    def test_defective_streams_validate_identically(self, tmp_path):
        """An unclosed region and a stray leave survive the disk round
        trip and produce the same issue records."""
        streams = {
            0: [ev(E, "a", 1.0), ev(M, "MPI_Finalize", 5.0)],
            1: [ev(L, "ghost", 2.0), ev(M, "MPI_Finalize", 6.0)],
        }
        write_archive(tmp_path, streams)
        merged = merge_rank_traces([streams[0], streams[1]])
        streamed = open_merged_trace(tmp_path)
        assert_equivalent(streamed, merged)
        codes = sorted(i.code for i in streamed.validate())
        assert codes == ["unbalanced-leave", "unclosed-region"]

    def test_events_generator_is_repeatable(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, streams)
        streamed = open_merged_trace(tmp_path)
        assert list(streamed.events()) == list(streamed.events())

    def test_materialize_matches(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, streams)
        streamed = open_merged_trace(tmp_path)
        merged = merge_rank_traces([streams[r] for r in sorted(streams)])
        assert streamed.materialize().events == merged.events


class TestOpenMergedTrace:
    def test_rank_ids_default_from_definitions(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, {0: streams[0], 2: streams[2]}, world_ranks=3)
        assert open_merged_trace(tmp_path).rank_ids == (0, 2)

    def test_falls_back_to_discovery_without_definitions(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, streams, definitions=False)
        assert open_merged_trace(tmp_path).rank_ids == (0, 1, 2)

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(TraceStoreError, match="no trace locations"):
            open_merged_trace(tmp_path)

    def test_elapsed_and_event_counts(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, streams)
        streamed = open_merged_trace(tmp_path)
        merged = merge_rank_traces([streams[r] for r in sorted(streams)])
        assert streamed.events_per_rank == tuple(
            len(s) for s in merged.per_rank
        )
        assert streamed.elapsed_cycles == max(
            e.timestamp_cycles for e in merged.events
        )

    def test_mids_survive_the_round_trip(self, tmp_path):
        streams = ring_streams()
        write_archive(tmp_path, streams)
        loaded = load_location(tmp_path, 0)
        assert [e.mid for e in loaded if e.mid is not None] == [0, 0]
