"""Streaming k-way merge over an on-disk trace archive.

``merge_rank_traces`` materialises every rank's event list; fine for a
test run, fatal for a fleet.  This module produces the *same*
rank-tagged, collective-aligned timeline (property-tested
bit-identical) while holding O(ranks × buffer) memory:

1. **Alignment pass** — each location file is scanned once, streaming,
   collecting only its synchronisation-event sequence plus an event
   count and last timestamp.  :func:`align_scans` then solves the
   logical clocks — the same pass the in-memory merge runs.
2. **Merge pass** — ``heapq.merge`` over per-location readers wrapped
   in :func:`align_stream`, keyed ``(timestamp, rank)``.  At any
   moment each reader holds one decoded event plus its file buffer.

The analyses are :class:`~repro.multirank.tracing.MergedTimeline`'s,
shared with the in-memory merge; they run off sync points and
single-pass walks over :meth:`StreamingTrace.rank_stream` and
:meth:`StreamingTrace.timeline` — no full materialisation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.multirank.tracing import (
    MergedTimeline,
    MergedTrace,
    align_scans,
    align_stream,
    merge_rank_traces,
    resolve_rank_ids,
    scan_stream,
)
from repro.scorep.tracing import RankedTraceEvent
from repro.trace.store import (
    TraceStoreError,
    discover_ranks,
    iter_location,
    read_definitions,
)


@dataclass
class StreamingTrace(MergedTimeline):
    """Lazy view of an on-disk multi-rank trace archive.

    Shares the alignment results and every analysis with the in-memory
    :class:`~repro.multirank.tracing.MergedTrace`, but ``events()`` is a
    generator re-reading the location files on every call, so the
    resident set stays bounded by the readers' buffers.
    """

    trace_dir: str
    #: per-rank alignment shift schedules (compute_alignment output)
    schedule: list[list[tuple[float, float]]] = field(repr=False)
    strict: bool = True

    # the shared analyses, bound on this class as well so per-class
    # instrumentation (the perfbench span wrappers) can time the
    # on-disk post-mortem on its own
    validate = MergedTimeline.validate
    wait_states = MergedTimeline.wait_states
    critical_path = MergedTimeline.critical_path

    def rank_stream(self, pos: int) -> Iterator[RankedTraceEvent]:
        """Rank at position ``pos``, aligned and tagged, streamed."""
        return align_stream(
            self.rank_ids[pos],
            iter_location(self.trace_dir, self.rank_ids[pos], strict=self.strict),
            self.schedule[pos],
        )

    def timeline(self) -> Iterator[RankedTraceEvent]:
        return self.events()

    def events(self) -> Iterator[RankedTraceEvent]:
        """The merged global timeline, streamed in ``(t, rank)`` order."""
        return heapq.merge(
            *(self.rank_stream(pos) for pos in range(self.ranks)),
            key=lambda ev: (ev.timestamp_cycles, ev.rank),
        )

    def materialize(self) -> MergedTrace:
        """Load everything and build the in-memory equivalent."""
        return merge_rank_traces(
            [
                list(iter_location(self.trace_dir, rank, strict=self.strict))
                for rank in self.rank_ids
            ],
            rank_ids=self.rank_ids,
        )


def open_merged_trace(
    trace_dir: str | Path,
    *,
    rank_ids: "Sequence[int] | None" = None,
    strict: bool = True,
) -> StreamingTrace:
    """Open an on-disk archive as a streaming merged trace.

    ``rank_ids`` defaults to the archive's definitions file (or, absent
    one, the discovered location files) — pass it explicitly to merge a
    subset.  The alignment pass runs here; event access stays lazy.
    """
    trace_dir = Path(trace_dir)
    if rank_ids is None:
        try:
            rank_ids = list(read_definitions(trace_dir).locations)
        except TraceStoreError:
            rank_ids = discover_ranks(trace_dir)
    if not rank_ids:
        raise TraceStoreError(f"no trace locations found in {trace_dir}")
    ids = resolve_rank_ids(len(rank_ids), rank_ids)
    alignment, schedule = align_scans(
        ids,
        [scan_stream(iter_location(trace_dir, rank, strict=strict)) for rank in ids],
    )
    return StreamingTrace(
        **alignment, trace_dir=str(trace_dir), schedule=schedule, strict=strict
    )
