"""Streaming k-way merge over an on-disk trace archive.

``merge_rank_traces`` materialises every rank's event list; fine for a
test run, fatal for a fleet.  This module produces the *same*
rank-tagged, collective-aligned timeline (property-tested
bit-identical) while holding O(ranks × block) memory:

1. **Alignment pass** — each location file is scanned once, a block of
   columns at a time, collecting only its synchronisation-event
   sequence plus an event count and last timestamp
   (:func:`~repro.multirank.tracing.scan_blocks`).
   :func:`~repro.multirank.tracing.align_scans` then solves the logical
   clocks — the same pass the in-memory merge runs.
2. **Merge pass** — :func:`~repro.scorep.tracing.merge_streams`, the
   ``(timestamp, rank)`` heap merge the in-memory merge uses too, over
   per-location block readers wrapped in
   :func:`~repro.multirank.tracing.align_blocks`.  At any moment each
   reader holds one decoded block.

The analyses are :class:`~repro.multirank.tracing.MergedTimeline`'s,
shared with the in-memory merge; they run off sync points and one
walk per rank over the aligned blocks of
:meth:`StreamingTrace.rank_blocks`, kept for the trace's lifetime — no
full materialisation and no event objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.multirank.tracing import (
    MergedTimeline,
    align_blocks,
    align_scans,
    resolve_rank_ids,
    scan_blocks,
)
from repro.scorep.tracing import (
    EventBlock,
    TraceEvent,
    merge_streams,
    ranked_events,
)
from repro.trace.store import (
    TraceStoreError,
    discover_ranks,
    iter_location_blocks,
    location_path,
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

    def rank_blocks(self, pos: int) -> Iterator[EventBlock]:
        """Rank at position ``pos``, aligned, streamed a block at a time."""
        return align_blocks(
            iter_location_blocks(
                location_path(self.trace_dir, self.rank_ids[pos]),
                strict=self.strict,
            ),
            self.schedule[pos],
        )

    def events(self) -> Iterator[TraceEvent]:
        """The merged global timeline, streamed in ``(t, rank)`` order."""
        return merge_streams(
            [
                ranked_events(rank, self.rank_blocks(pos))
                for pos, rank in enumerate(self.rank_ids)
            ]
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
        [
            scan_blocks(
                iter_location_blocks(location_path(trace_dir, rank), strict=strict)
            )
            for rank in ids
        ],
    )
    return StreamingTrace(
        **alignment, trace_dir=str(trace_dir), schedule=schedule, strict=strict
    )
