"""On-disk OTF2-shaped store: writer round-trips, truncation detection,
definition tables, and the health record."""

import json

import numpy as np
import pytest

from repro.errors import CapiError
from repro.execution.clock import VirtualClock
from repro.multirank import merge_rank_traces
from repro.multirank.faults import HealthReport, RankHealth
from repro.scorep.tracing import EventBlock, ScorePTracer, TraceEventKind
from repro.trace import (
    TraceStoreError,
    TraceWriter,
    discover_ranks,
    load_location,
    location_path,
    read_definitions,
    read_health_record,
    write_definitions,
    write_health_record,
)
from repro.trace.store import (
    BLOCK,
    FOOTER,
    FORMAT_VERSION,
    HEADER,
    NAME_LEN,
    RECORD,
    iter_location_blocks,
)
from tests.trace.conftest import E, L, M, ev


def sample_events(n=10):
    out = []
    t = 0.0
    for i in range(n // 2):
        t += 1.5
        out.append(ev(E, f"region{i % 3}", t))
        t += 2.25
        out.append(ev(L, f"region{i % 3}", t))
    return out


class TestWriterRoundTrip:
    def test_events_read_back_bit_identical(self, tmp_path):
        events = sample_events(20)
        writer = TraceWriter(tmp_path, 0)
        writer.flush(EventBlock.from_events(events))
        meta = writer.close()
        assert meta.rank == 0
        assert meta.events == 20
        assert load_location(tmp_path, 0) == events

    def test_float_timestamps_survive_exactly(self, tmp_path):
        """Raw IEEE doubles round-trip exactly — the bit-identity bedrock."""
        events = [
            ev(E, "a", 0.1 + 0.2),  # the classic 0.30000000000000004
            ev(M, "MPI_Allreduce", 1e9 / 3.0),
            ev(L, "a", 2**53 - 1.0),
        ]
        writer = TraceWriter(tmp_path, 3)
        writer.flush(EventBlock.from_events(events))
        writer.close()
        loaded = load_location(tmp_path, 3)
        assert [e.timestamp_cycles for e in loaded] == [
            e.timestamp_cycles for e in events
        ]

    def test_message_ids_preserved(self, tmp_path):
        events = [
            ev(M, "MPI_Isend", 5.0, mid=0),
            ev(M, "MPI_Irecv", 6.0, mid=0),
            ev(M, "MPI_Allreduce", 7.0),
        ]
        writer = TraceWriter(tmp_path, 0)
        writer.flush(EventBlock.from_events(events))
        writer.close()
        loaded = load_location(tmp_path, 0)
        assert [e.mid for e in loaded] == [0, 0, None]

    def test_buffer_flush_crossing_trace(self, tmp_path):
        """A trace larger than the write buffer spans several flushes
        and still reads back bit-identical."""
        events = sample_events(100)
        writer = TraceWriter(tmp_path, 1)
        for start in range(0, len(events), 7):
            writer.flush(EventBlock.from_events(events[start : start + 7]))
        meta = writer.close()
        assert meta.flushes > 3
        assert load_location(tmp_path, 1) == events

    def test_regions_interned_once(self, tmp_path):
        writer = TraceWriter(tmp_path, 0)
        for _ in range(5):
            writer.flush(
                EventBlock.from_events([ev(E, "hot", 1.0), ev(L, "hot", 2.0)])
            )
        meta = writer.close()
        assert meta.regions == ("hot",)
        data = location_path(tmp_path, 0).read_bytes()
        assert data.count(NAME_LEN.pack(len(b"hot")) + b"hot") == 1

    def test_writer_spills_from_tracer(self, tmp_path):
        """ScorePTracer with a writer streams events to disk instead of
        accumulating them, and refuses in-memory access."""
        writer = TraceWriter(tmp_path, 0)
        tracer = ScorePTracer(clock=VirtualClock(), writer=writer)
        for i in range(10):
            tracer.enter(f"r{i % 2}")
            tracer.leave(f"r{i % 2}")
        with pytest.raises(Exception):
            tracer.all_events()
        meta = tracer.close_writer()
        assert meta.events == 20
        loaded = load_location(tmp_path, 0)
        assert len(loaded) == 20
        assert loaded[0].kind is TraceEventKind.ENTER

    def test_closed_writer_rejects_writes(self, tmp_path):
        writer = TraceWriter(tmp_path, 0)
        writer.close()
        with pytest.raises(TraceStoreError, match="already closed"):
            writer.flush(EventBlock.from_events([ev(E, "a", 1.0)]))

    def test_abort_publishes_nothing(self, tmp_path):
        writer = TraceWriter(tmp_path, 4)
        writer.flush(EventBlock.from_events([ev(E, "a", 1.0)]))
        writer.abort()
        assert not location_path(tmp_path, 4).exists()
        assert discover_ranks(tmp_path) == []

    def test_discover_ranks_sorted(self, tmp_path):
        for rank in (3, 0, 7):
            w = TraceWriter(tmp_path, rank)
            w.close()
        assert discover_ranks(tmp_path) == [0, 3, 7]


class TestTruncationDetection:
    def _published(self, tmp_path, n=30):
        writer = TraceWriter(tmp_path, 0)
        writer.flush(EventBlock.from_events(sample_events(n)))
        writer.close()
        return location_path(tmp_path, 0)

    def test_missing_footer_raises_strict(self, tmp_path):
        path = self._published(tmp_path)
        path.write_bytes(path.read_bytes()[: -FOOTER.size])
        with pytest.raises(TraceStoreError, match="missing footer"):
            load_location(tmp_path, 0)

    def test_byte_truncation_raises_strict(self, tmp_path):
        path = self._published(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceStoreError):
            load_location(tmp_path, 0)

    def test_count_mismatch_raises_strict(self, tmp_path):
        path = self._published(tmp_path, n=10)
        data = bytearray(path.read_bytes())
        # drop the block's last event record (and count) but keep the footer
        tag, n_names, n_events = BLOCK.unpack_from(data, HEADER.size)
        BLOCK.pack_into(data, HEADER.size, tag, n_names, n_events - 1)
        records_end = len(data) - FOOTER.size
        del data[records_end - RECORD.itemsize : records_end]
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreError, match="footer declares"):
            load_location(tmp_path, 0)

    def test_prefix_salvageable_before_error(self, tmp_path):
        """Strict readers yield the intact prefix first, then raise —
        callers can salvage what survived."""
        path = self._published(tmp_path, n=10)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        salvaged = []
        with pytest.raises(TraceStoreError):
            for block in iter_location_blocks(path):
                salvaged.extend(block.events())
        assert 0 < len(salvaged) < 10

    def test_lenient_count_of_truncated_file(self, tmp_path):
        path = self._published(tmp_path, n=10)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert 0 < sum(len(b.t) for b in iter_location_blocks(path, strict=False)) < 10

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceStoreError, match="missing location"):
            load_location(tmp_path, 9)


class TestDefinitions:
    def test_round_trip(self, tmp_path):
        metas = []
        for rank in (0, 1):
            w = TraceWriter(tmp_path, rank)
            w.flush(EventBlock.from_events(sample_events(6)))
            metas.append(w.close())
        write_definitions(
            tmp_path, world_ranks=2, locations=metas, frequency=2.5e9,
            meta={"app": "demo"},
        )
        defs = read_definitions(tmp_path)
        assert defs.world_ranks == 2
        assert defs.locations == (0, 1)
        assert defs.events_per_location == (6, 6)
        assert defs.frequency == 2.5e9
        assert defs.meta["app"] == "demo"
        assert not defs.degraded

    def test_degraded_when_locations_missing(self, tmp_path):
        w = TraceWriter(tmp_path, 1)
        meta = w.close()
        write_definitions(
            tmp_path, world_ranks=4, locations=[meta], frequency=1e9
        )
        assert read_definitions(tmp_path).degraded

    def test_missing_definitions_raises(self, tmp_path):
        with pytest.raises(TraceStoreError, match="missing definitions.json"):
            read_definitions(tmp_path)


class TestHealthRecord:
    def test_round_trip(self, tmp_path):
        health = HealthReport(
            ranks=3,
            per_rank=(
                RankHealth(rank=0, outcome="ok", attempts=1, latency_seconds=0.5),
                RankHealth(
                    rank=1, outcome="ok", attempts=2, latency_seconds=1.0,
                    failures=("crash",),
                ),
                RankHealth(
                    rank=2, outcome="lost", attempts=3, latency_seconds=2.0,
                    failures=("crash", "crash", "crash"),
                ),
            ),
            missing_ranks=(2,),
        )
        write_health_record(tmp_path, health)
        loaded = read_health_record(tmp_path)
        assert loaded == health

    def test_absent_record_is_none(self, tmp_path):
        assert read_health_record(tmp_path) is None


class TestBinaryLayout:
    """Checks the binary location format adds over the old line format."""

    def _published(self, tmp_path, events):
        writer = TraceWriter(tmp_path, 0)
        writer.flush(EventBlock.from_events(events))
        writer.close()
        return location_path(tmp_path, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_timestamp_rejected(self, tmp_path, bad):
        path = self._published(tmp_path, [ev(E, "a", 1.0), ev(L, "a", bad)])
        with pytest.raises(TraceStoreError, match="bad record"):
            load_location(tmp_path, 0)
        # lenient reads keep the intact prefix
        assert load_location(tmp_path, 0, strict=False) == [ev(E, "a", 1.0)]

    def test_json_lines_file_rejected(self, tmp_path):
        path = location_path(tmp_path, 0)
        path.write_text('["H", 1, 0]\n["D", 0, "a"]\n[0, 0, 1.0]\n["F", 1]\n')
        for strict in (True, False):
            with pytest.raises(TraceStoreError, match="not a location file"):
                load_location(tmp_path, 0, strict=strict)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self._published(tmp_path, sample_events(4))
        data = bytearray(path.read_bytes())
        magic, version, rank = HEADER.unpack_from(data)
        HEADER.pack_into(data, 0, magic, version + 1, rank)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreError, match="unsupported format version"):
            load_location(tmp_path, 0)

    def test_bytes_after_footer_rejected(self, tmp_path):
        events = sample_events(4)
        path = self._published(tmp_path, events)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(TraceStoreError, match="bytes after the footer"):
            load_location(tmp_path, 0)
        assert load_location(tmp_path, 0, strict=False) == events

    def test_undecodable_name_rejected(self, tmp_path):
        path = self._published(tmp_path, [ev(E, "ab", 1.0)])
        data = path.read_bytes().replace(b"ab", b"\xff\xfe")
        path.write_bytes(data)
        with pytest.raises(TraceStoreError, match="undecodable region name"):
            load_location(tmp_path, 0)

    @pytest.mark.parametrize("field, value", [("kind", 3), ("region", 1)])
    def test_bad_kind_or_region_rejected(self, tmp_path, field, value):
        path = self._published(tmp_path, [ev(E, "a", 1.0), ev(L, "a", 2.0)])
        data = bytearray(path.read_bytes())
        records_end = len(data) - FOOTER.size
        last = np.frombuffer(
            data, dtype=RECORD, count=1, offset=records_end - RECORD.itemsize
        ).copy()
        last[field] = value
        data[records_end - RECORD.itemsize : records_end] = last.tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreError, match="event 1: bad record"):
            load_location(tmp_path, 0)

    def test_event_lists_reject_negative_mid(self):
        """-1 is "none" in column form, so the one place an event list
        becomes columns refuses it instead of merging or writing it as
        no message id."""
        events = [ev(M, "MPI_Isend", 1.0, mid=-1)]
        with pytest.raises(CapiError, match="message id"):
            EventBlock.from_events(events)
        with pytest.raises(CapiError, match="message id"):
            merge_rank_traces([events])

    @pytest.mark.parametrize(
        "column, value", [("kind", 3), ("region", 1), ("mid", -2)]
    )
    def test_writer_rejects_bad_block_records(self, tmp_path, column, value):
        block = EventBlock.from_events([ev(M, "MPI_Isend", 1.0, mid=0)])
        bad = block._replace(**{column: np.array([value], getattr(block, column).dtype)})
        writer = TraceWriter(tmp_path, 0)
        with pytest.raises(TraceStoreError, match="bad record"):
            writer.flush(bad)
        writer.abort()

    def test_writer_rejects_overlong_name(self, tmp_path):
        writer = TraceWriter(tmp_path, 0)
        with pytest.raises(TraceStoreError, match="exceeds"):
            writer.flush(EventBlock.from_events([ev(E, "x" * 70_000, 1.0)]))
        writer.abort()

    def test_blocks_follow_flushes(self, tmp_path):
        """One block per flush; names resolve across blocks."""
        events = sample_events(20)
        writer = TraceWriter(tmp_path, 0)
        for start in range(0, len(events), 6):
            writer.flush(EventBlock.from_events(events[start : start + 6]))
        meta = writer.close()
        blocks = list(iter_location_blocks(location_path(tmp_path, 0)))
        assert [len(b.t) for b in blocks] == [6, 6, 6, 2]
        assert meta.flushes == len(blocks)
        assert [e for b in blocks for e in b.events()] == events
        path = location_path(tmp_path, 0)
        assert sum(len(b.t) for b in iter_location_blocks(path, strict=True)) == 20


class TestMalformedRecords:
    """Valid JSON of the wrong shape is a TraceStoreError, not a crash."""

    def test_definitions_missing_key(self, tmp_path):
        (tmp_path / "definitions.json").write_text(
            json.dumps({"format_version": FORMAT_VERSION})
        )
        with pytest.raises(TraceStoreError, match="malformed definitions"):
            read_definitions(tmp_path)

    @pytest.mark.parametrize("payload", [{"per_rank": None}, [1, 2]])
    def test_health_wrong_shape(self, tmp_path, payload):
        (tmp_path / "health.json").write_text(json.dumps(payload))
        with pytest.raises(TraceStoreError, match="malformed health record"):
            read_health_record(tmp_path)

    def test_watchdog_alerts_and_open_falls_back(self, tmp_path):
        from repro.trace import open_merged_trace, scan_run

        writer = TraceWriter(tmp_path, 0)
        writer.flush(
            EventBlock.from_events([ev(M, "MPI_Init", 1.0), ev(M, "MPI_Finalize", 2.0)])
        )
        writer.close()
        (tmp_path / "definitions.json").write_text(
            json.dumps({"format_version": FORMAT_VERSION})
        )
        (tmp_path / "health.json").write_text(json.dumps([1, 2]))
        codes = sorted(alert.code for alert in scan_run(tmp_path))
        assert codes == ["health-unreadable", "trace-missing-definitions"]
        assert open_merged_trace(tmp_path).rank_ids == (0,)
