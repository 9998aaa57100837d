"""Score-P tracing mode: timestamped event streams (OTF2 stand-in).

Score-P is "a widely used profiling **and tracing** infrastructure"
(paper §I).  Besides the call-path profile, the measurement runtime can
record a full event trace — enter/leave per region plus MPI operation
markers — which downstream tools (Vampir, Scalasca) consume as OTF2.
We model the event stream; :mod:`repro.trace.store` writes it to disk
as an OTF2-shaped archive.

Tracing costs more per event than profiling (buffer writes, timestamp
acquisition); the cost model charges ``TRACE_EVENT_EXTRA`` on top of the
normal handler cost, which is why production measurements filter first.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import CapiError
from repro.execution.clock import VirtualClock

#: additional per-event cycles for trace-buffer writes
TRACE_EVENT_EXTRA = 110.0


class TraceEventKind(enum.Enum):
    ENTER = "ENTER"
    LEAVE = "LEAVE"
    MPI = "MPI"


@dataclass(frozen=True)
class TraceEvent:
    kind: TraceEventKind
    region: str
    timestamp_cycles: float
    #: matched message id for point-to-point MPI markers: the k-th send
    #: on a rank carries mid=k, pairing with the k-th receive on its
    #: SPMD ring partner (see :mod:`repro.simmpi.messages`).  ``None``
    #: for non-message events.
    mid: "int | None" = None


@dataclass(frozen=True)
class RankedTraceEvent:
    """One trace event tagged with its origin rank (OTF2 location).

    The multi-rank merge works on these: the rank tag is what lets a
    Vampir-style timeline keep per-rank lanes after the per-rank streams
    are interleaved into one global event order.
    """

    rank: int
    kind: TraceEventKind
    region: str
    timestamp_cycles: float
    mid: "int | None" = None

    def untagged(self) -> TraceEvent:
        return TraceEvent(self.kind, self.region, self.timestamp_cycles, self.mid)


def tag_events(
    rank: int, events: Iterable[TraceEvent]
) -> list[RankedTraceEvent]:
    """Tag one rank's event stream with its rank (OTF2 location id)."""
    return [
        RankedTraceEvent(rank, ev.kind, ev.region, ev.timestamp_cycles, ev.mid)
        for ev in events
    ]


def merge_streams(
    streams: Sequence[Sequence[RankedTraceEvent]],
) -> list[RankedTraceEvent]:
    """Interleave per-rank streams into one globally ordered timeline.

    Each input stream must be timestamp-monotone (which per-rank tracer
    output always is); the merge is a k-way heap merge ordered by
    ``(timestamp, rank)``, so cross-rank timestamp ties deterministically
    break toward the lower rank and the result is bit-stable regardless
    of which backend produced the inputs.
    """
    return list(
        heapq.merge(*streams, key=lambda ev: (ev.timestamp_cycles, ev.rank))
    )


@dataclass
class ScorePTracer:
    """Event-trace recorder, attachable next to the profile measurement.

    When a ``writer`` is attached (see :class:`repro.trace.store.TraceWriter`)
    full buffers spill to disk instead of accumulating in ``flushed``:
    memory stays bounded at ``buffer_size`` events and the complete
    stream only exists in the location file.  ``all_events()`` is then
    unavailable — read the trace back via the store.
    """

    clock: VirtualClock
    events: list[TraceEvent] = field(default_factory=list)
    #: flush threshold: a full buffer is flushed to `flushed` wholesale
    buffer_size: int = 1 << 16
    flushed: list[TraceEvent] = field(default_factory=list)
    flush_count: int = 0
    #: optional on-disk sink (duck-typed: write_events / close)
    writer: object | None = None
    #: events spilled to the writer so far
    spilled: int = 0

    # -- recording --------------------------------------------------------------

    def enter(self, region: str) -> None:
        self._record(TraceEventKind.ENTER, region)

    def leave(self, region: str) -> None:
        self._record(TraceEventKind.LEAVE, region)

    def mpi(self, op: str, *, mid: int | None = None) -> None:
        self._record(TraceEventKind.MPI, op, mid=mid)

    def _record(
        self, kind: TraceEventKind, region: str, mid: int | None = None
    ) -> None:
        self.clock.advance(TRACE_EVENT_EXTRA)
        self.events.append(TraceEvent(kind, region, self.clock.now(), mid))
        if len(self.events) >= self.buffer_size:
            if self.writer is not None:
                self.writer.write_events(self.events)
                self.spilled += len(self.events)
            else:
                self.flushed.extend(self.events)
            self.events.clear()
            self.flush_count += 1

    # -- results ----------------------------------------------------------------

    def all_events(self) -> list[TraceEvent]:
        if self.writer is not None:
            raise CapiError(
                "trace events were spilled to disk; read them back via "
                "repro.trace.store instead of all_events()"
            )
        return [*self.flushed, *self.events]

    def close_writer(self):
        """Flush the tail buffer and close the attached on-disk writer.

        Returns the writer's :class:`~repro.trace.store.LocationMeta`.
        """
        if self.writer is None:
            raise CapiError("no trace writer attached")
        if self.events:
            self.writer.write_events(self.events)
            self.spilled += len(self.events)
            self.events.clear()
        return self.writer.close()


@dataclass(frozen=True)
class TraceIssue:
    """One machine-readable defect found by trace validation.

    ``code`` is stable (CI asserts on it); ``detail`` is the human
    rendering, and ``str(issue)`` returns it so legacy string handling
    keeps working.  ``rank`` is filled in by the multi-rank validators.
    """

    code: str
    region: str
    detail: str
    rank: int | None = None

    def __str__(self) -> str:
        return self.detail


def leave_region(stack: list[str], region: str) -> int | None:
    """Close ``region`` on an open-region stack, popping through (like
    stack unwinding) any inner regions still open above it.  Returns how
    many were implicitly closed, or ``None`` if ``region`` was not open."""
    if stack and stack[-1] == region:
        stack.pop()
        return 0
    if region not in stack:
        return None
    skipped = 0
    while stack.pop() != region:
        skipped += 1
    return skipped


def validate_trace(events: Iterable[TraceEvent]) -> list[TraceIssue]:
    """Consistency checks a trace analyser would run.

    Returns a list of :class:`TraceIssue` records: non-monotonic
    timestamps and unbalanced enter/leave nesting per region stream.
    Each defect is reported exactly once: an out-of-order LEAVE
    resynchronises the stack (:func:`leave_region`) instead of leaving
    the mismatched region open and flooding the report with spurious
    ``unclosed-region`` entries for every frame above it.
    """
    problems: list[TraceIssue] = []
    last_t = -1.0
    stack: list[str] = []
    for ev in events:
        if ev.timestamp_cycles < last_t:
            problems.append(
                TraceIssue(
                    "timestamp-regression", ev.region,
                    f"timestamp regression at {ev.region}",
                )
            )
        last_t = ev.timestamp_cycles
        if ev.kind is TraceEventKind.ENTER:
            stack.append(ev.region)
        elif ev.kind is TraceEventKind.LEAVE:
            skipped = leave_region(stack, ev.region)
            if skipped is None:
                problems.append(
                    TraceIssue(
                        "unbalanced-leave", ev.region,
                        f"unbalanced LEAVE {ev.region}",
                    )
                )
            elif skipped:
                problems.append(
                    TraceIssue(
                        "unbalanced-leave-resync", ev.region,
                        f"unbalanced LEAVE {ev.region} "
                        f"(implicitly closed {skipped} inner region(s))",
                    )
                )
    problems.extend(
        TraceIssue("unclosed-region", r, f"unclosed region {r}") for r in stack
    )
    return problems
