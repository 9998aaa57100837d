"""Shared helpers for the durable trace pipeline tests."""

from __future__ import annotations

from pathlib import Path

from repro.scorep.tracing import EventBlock, TraceEvent, TraceEventKind
from repro.trace import TraceWriter, write_definitions

E, L, M = TraceEventKind.ENTER, TraceEventKind.LEAVE, TraceEventKind.MPI


def ev(kind, region, t, mid=None):
    return TraceEvent(kind, region, float(t), mid)


def write_archive(
    trace_dir: Path,
    streams: "dict[int, list[TraceEvent]]",
    *,
    world_ranks: "int | None" = None,
    frequency: float = 1e9,
    buffer_events: int = 4096,
    definitions: bool = True,
):
    """Publish an OTF2-shaped archive from per-rank event lists, written
    ``buffer_events`` events per block."""
    metas = []
    for rank, events in sorted(streams.items()):
        writer = TraceWriter(trace_dir, rank)
        for start in range(0, len(events), buffer_events):
            block = EventBlock.from_events(events[start : start + buffer_events])
            writer.flush(block)
        metas.append(writer.close())
    if definitions:
        write_definitions(
            trace_dir,
            world_ranks=world_ranks if world_ranks is not None else len(streams),
            locations=metas,
            frequency=frequency,
        )
    return metas
