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
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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
    #: origin rank (OTF2 location) in a merged multi-rank view, which
    #: keeps per-rank lanes once the streams are interleaved; ``None``
    #: in a single rank's stream
    rank: "int | None" = None


#: the kinds in column form: a kind's code is its index here (the on-disk
#: store writes the same codes)
EVENT_KINDS = (TraceEventKind.ENTER, TraceEventKind.LEAVE, TraceEventKind.MPI)
KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}
_ENTER, _LEAVE, _MPI = range(len(EVENT_KINDS))


class EventBlock(NamedTuple):
    """A run of one location's events, column by column.

    The one form a rank's stream takes from the tracer onward: the
    tracer records its rows in blocks, the writer encodes them, the
    on-disk store reads a location back one block at a time in this
    form, and the rank gate, the alignment and the walk read the
    columns, so only the event views (:meth:`events`,
    :func:`ranked_events`) build objects.
    """

    #: kind code per event (index into :data:`EVENT_KINDS`)
    kind: np.ndarray
    #: region id per event (index into ``names``)
    region: np.ndarray
    #: local timestamp per event
    t: np.ndarray
    #: matched message id per event, -1 for none
    mid: np.ndarray
    #: region name of each region id
    names: Sequence[str]

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple[int, int, float, int]], names: Iterable[str]
    ) -> "EventBlock":
        """A block of ``(kind code, region id, t, mid)`` rows."""
        kind, region, t, mid = zip(*rows) if rows else ((), (), (), ())
        return cls(
            np.array(kind, dtype=np.uint8),
            np.array(region, dtype=np.uint32),
            np.array(t, dtype=np.float64),
            np.array(mid, dtype=np.int64),
            tuple(names),
        )

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "EventBlock":
        """A block of event objects.  A message id must be ``None`` or
        at least 0: -1 is "none" in column form."""
        ids: dict[str, int] = {}
        rows = []
        for ev in events:
            if ev.mid is not None and ev.mid < 0:
                raise CapiError(f"message id must be >= 0, got {ev.mid}")
            rows.append(
                (
                    KIND_CODE[ev.kind],
                    ids.setdefault(ev.region, len(ids)),
                    ev.timestamp_cycles,
                    -1 if ev.mid is None else ev.mid,
                )
            )
        return cls.from_rows(rows, ids)

    def rows(self) -> Iterator[tuple[TraceEventKind, str, float, "int | None"]]:
        """Each event's ``(kind, region, timestamp, mid)`` as plain values."""
        kinds, names = EVENT_KINDS, self.names
        for k, r, t, m in zip(
            self.kind.tolist(), self.region.tolist(), self.t.tolist(),
            self.mid.tolist(),
        ):
            yield kinds[k], names[r], t, None if m < 0 else m

    def events(self, rank: "int | None" = None) -> Iterator[TraceEvent]:
        """The block's events as objects, tagged with ``rank``."""
        return (TraceEvent(*row, rank) for row in self.rows())

    def __eq__(self, other: object) -> bool:
        """Column by column, plus the names; tuple equality would ask an
        elementwise array comparison for one truth value and raise."""
        if not isinstance(other, EventBlock):
            return NotImplemented
        return tuple(self.names) == tuple(other.names) and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self[:4], other[:4])
        )

    def __ne__(self, other: object) -> bool:
        # tuple's own ``__ne__`` would still compare the arrays
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


def ranked_events(rank: int, blocks: Iterable[EventBlock]) -> Iterator[TraceEvent]:
    """A rank's blocks as events tagged with ``rank``."""
    for block in blocks:
        yield from block.events(rank)


def merge_streams(
    streams: Iterable[Iterable[TraceEvent]],
) -> Iterator[TraceEvent]:
    """Interleave per-rank streams into one globally ordered timeline.

    Each input stream must be timestamp-monotone (which per-rank tracer
    output always is); the merge is a lazy k-way heap merge ordered by
    ``(timestamp, rank)``, so cross-rank timestamp ties deterministically
    break toward the lower rank and the result is bit-stable regardless
    of which backend produced the inputs.
    """
    return heapq.merge(*streams, key=lambda ev: (ev.timestamp_cycles, ev.rank))


#: events per recorded block: the tracer hands its rows on as one
#: :class:`EventBlock` each time this many are buffered
BLOCK_EVENTS = 4096


@dataclass
class ScorePTracer:
    """Event-trace recorder, attachable next to the profile measurement.

    Each event is one ``(kind code, region id, t, mid)`` row in the
    tracer's only buffer; region names are interned at first use.  Every
    :data:`BLOCK_EVENTS` rows become one :class:`EventBlock`, handed to
    the ``writer`` when one is attached (see
    :meth:`repro.trace.store.TraceWriter.flush`), else kept in
    ``blocks``.  With a writer the complete stream only exists in the
    location file, so ``all_events()`` is unavailable: read the trace
    back via the store.
    """

    clock: VirtualClock
    #: optional on-disk sink (duck-typed: flush(block) / close)
    writer: object | None = None
    #: the recorded blocks, when no writer is attached
    blocks: list[EventBlock] = field(default_factory=list)
    #: the buffered rows, and the region id of each name recorded so far
    _rows: list[tuple[int, int, float, int]] = field(
        default_factory=list, init=False, repr=False
    )
    _ids: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    # -- recording --------------------------------------------------------------

    def enter(self, region: str) -> None:
        self._record(_ENTER, region)

    def leave(self, region: str) -> None:
        self._record(_LEAVE, region)

    def mpi(self, op: str, *, mid: int | None = None) -> None:
        self._record(_MPI, op, -1 if mid is None else mid)

    def _record(self, kind: int, region: str, mid: int = -1) -> None:
        clock, ids, rows = self.clock, self._ids, self._rows
        clock.advance(TRACE_EVENT_EXTRA)
        rows.append((kind, ids.setdefault(region, len(ids)), clock.cycles, mid))
        if len(rows) >= BLOCK_EVENTS:
            self.flush()

    def flush(self) -> None:
        """Hand the buffered rows on as one block."""
        if not self._rows:
            return
        block = EventBlock.from_rows(self._rows, self._ids)
        self._rows.clear()
        if self.writer is not None:
            self.writer.flush(block)
        else:
            self.blocks.append(block)

    # -- results ----------------------------------------------------------------

    def all_events(self) -> list[TraceEvent]:
        """The recorded stream as event objects (an event view); the
        tail rows are flushed first."""
        if self.writer is not None:
            raise CapiError(
                "trace events were spilled to disk; read them back via "
                "repro.trace.store instead of all_events()"
            )
        self.flush()
        return [event for block in self.blocks for event in block.events()]

    def close_writer(self):
        """Flush the tail rows and close the attached on-disk writer.

        Returns the writer's :class:`~repro.trace.store.LocationMeta`.
        """
        if self.writer is None:
            raise CapiError("no trace writer attached")
        self.flush()
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


def leave_region(stack: list, region) -> int | None:
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


class StreamWalk(NamedTuple):
    """What one :func:`walk_stream` pass finds in an event stream."""

    #: defect records, in stream order, then one per region left open
    issues: list[TraceIssue]
    #: per window, the region with the largest exclusive time inside it
    tops: list["str | None"]
    #: every MPI marker as ``(op, timestamp, mid, enclosing region)``
    #: (enclosing None at top level)
    markers: list[tuple[str, float, "int | None", "str | None"]]
    #: events walked
    count: int
    #: last timestamp (0.0 when empty)
    last_t: float
    #: largest timestamp (-inf when empty)
    max_t: float


def walk_stream(
    blocks: Iterable[EventBlock],
    windows: Sequence[tuple[float, float]] = (),
) -> StreamWalk:
    """The one pass over a stream's blocks that keeps its open-region
    stack; it reads the columns and builds no event objects.

    *Defects:* non-monotonic timestamps and unbalanced enter/leave
    nesting.  Each is reported exactly once: an out-of-order LEAVE
    resynchronises the stack (:func:`leave_region`) instead of leaving
    the mismatched region open and flooding the report with spurious
    ``unclosed-region`` entries for every frame above it.  The first
    event has no predecessor, so it never regresses.

    *Top regions:* each inter-event interval is attributed to the
    innermost open region, clipped against the disjoint ascending
    ``(begin, end)`` ``windows`` (a rank's segment work windows).  MPI
    markers are instants: the interval they open (the operation's cost)
    stays attributed to the enclosing region, which is the region a
    flat profile would blame too.  Inter-event intervals that straddle
    an alignment jump contain the rank's wait, but work windows end at
    the rank's arrival (wait excluded), so the clip removes it.

    *Markers:* each MPI event with its enclosing region, for the
    analyses that match operations across ranks.

    A *clean* block — timestamps that never fall, and every LEAVE
    closing the region on top of the stack — is walked whole with NumPy
    (:meth:`_Walk.columns`).  Any other block is walked event by event
    (:meth:`_Walk.rows`), because a regression or a stray or resyncing
    LEAVE acts on the stack as it stands.  Both carry the same state to
    the next block, so any split of a stream into blocks walks the same.
    """
    walk = _Walk(windows)
    for block in blocks:
        if len(block.t):
            walk.block(block)
    return walk.result()


class _Walk:
    """What :func:`walk_stream` carries from one block to the next.

    Regions are interned by name, because a block's ids index only its
    own ``names``; the stack holds interned ids.  Window time is kept as
    ``(region * len(windows) + window, span)`` cells in event order and
    summed once, at the end, in that order, so both paths add the same
    spans the same way.
    """

    def __init__(self, windows: Sequence[tuple[float, float]]) -> None:
        bounds = np.array(windows, dtype=np.float64).reshape(-1, 2)
        self.begins, self.ends = bounds.T.copy()
        self.windows = bounds.tolist()
        # clipping an interval against every window at once equals the
        # loop's forward-only scan when both window bounds ascend
        self.ascending = bool(
            (self.begins[1:] >= self.begins[:-1]).all()
            and (self.ends[1:] >= self.ends[:-1]).all()
        )
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.stack: list[int] = []
        self.last_t = -math.inf
        self.max_t = -math.inf
        #: windows before this one lie behind the stream for good
        self.w = 0
        self.count = 0
        self.issues: list[TraceIssue] = []
        self.markers: list = []
        self.cells: list[np.ndarray] = []
        self.spans: list[np.ndarray] = []

    def block(self, block: EventBlock) -> None:
        ids = self.ids
        lut = [ids.setdefault(name, len(ids)) for name in block.names]
        if len(ids) > len(self.names):
            self.names = list(ids)
        region = np.array(lut, dtype=np.int64)[block.region]
        self.count += len(block.t)
        self.max_t = max(self.max_t, float(block.t.max()))
        if not self.columns(block, region):
            self.rows(block, region)

    def columns(self, block: EventBlock, region: np.ndarray) -> bool:
        """Walk a clean block with NumPy; leave the state untouched and
        return False if the block is not clean."""
        t, kind = block.t, block.kind
        if not (
            self.ascending and t[0] >= self.last_t and (t[1:] >= t[:-1]).all()
        ):
            return False
        enter = kind == _ENTER
        leave = kind == _LEAVE
        carried = len(self.stack)
        depth = np.cumsum(enter.astype(np.int64) - leave) + carried
        if depth.min() < 0:
            return False
        # the region open after each event is the last ENTER at its
        # depth so far (a stable sort keeps each depth in event order) ...
        n = len(t)
        order = np.argsort(depth, kind="stable")
        floor = depth[order] * (n + 1)
        found = np.empty(n, dtype=np.int64)
        found[order] = (
            np.maximum.accumulate(floor + np.where(enter[order], order + 1, 0))
            - floor
        )
        # ... or, without one, the stack carried in from the last block
        below = np.array([-1, *self.stack], dtype=np.int64)
        after = np.where(
            found > 0, region[found - 1], below[np.minimum(depth, carried)]
        )
        before = np.concatenate((below[-1:], after[:-1]))
        if (before[leave] != region[leave]).any():
            return False

        names = self.names
        mpi = np.flatnonzero(kind == _MPI)
        self.markers.extend(
            zip(
                [names[r] for r in region[mpi].tolist()],
                t[mpi].tolist(),
                [None if m < 0 else m for m in block.mid[mpi].tolist()],
                [names[r] if r >= 0 else None for r in after[mpi].tolist()],
            )
        )
        busy = np.flatnonzero(before >= 0)
        if len(busy) and self.w < len(self.windows):
            self.clip(
                before[busy],
                np.concatenate(([self.last_t], t[:-1]))[busy],
                t[busy],
            )
        self.last_t = float(t[-1])
        top = int(depth[-1])
        latest = np.full(top + 1, -1, dtype=np.int64)
        pushed = np.flatnonzero(enter & (depth <= top))
        np.maximum.at(latest, depth[pushed], pushed)
        self.stack = [
            self.stack[level - 1] if at < 0 else int(region[at])
            for level, at in enumerate(latest.tolist())
            if level
        ]
        return True

    def clip(self, top: np.ndarray, start: np.ndarray, stop: np.ndarray) -> None:
        """Attribute the intervals ``[start, stop]`` of a clean block to
        their open regions ``top``, clipped against every window they
        overlap from the current one on."""
        width = len(self.windows)
        first = np.maximum(self.ends.searchsorted(start, "right"), self.w)
        count = np.maximum(self.begins.searchsorted(stop, "left") - first, 0)
        self.w = int(first[-1])
        which = np.repeat(np.arange(len(top)), count)
        window = (
            first[which]
            + np.arange(len(which))
            - np.repeat(np.cumsum(count) - count, count)
        )
        lo = np.maximum(start[which], self.begins[window])
        hi = np.minimum(stop[which], self.ends[window])
        keep = hi > lo
        self.cells.append((top[which] * width + window)[keep])
        self.spans.append((hi - lo)[keep])

    def rows(self, block: EventBlock, region: np.ndarray) -> None:
        """Walk a block event by event."""
        issues, markers, names, stack = (
            self.issues, self.markers, self.names, self.stack,
        )
        windows = self.windows
        width = len(windows)
        last_t, w = self.last_t, self.w
        cells: list[int] = []
        spans: list[float] = []
        for kind, r, t, mid in zip(
            block.kind.tolist(), region.tolist(), block.t.tolist(),
            block.mid.tolist(),
        ):
            if t < last_t:
                issues.append(
                    TraceIssue(
                        "timestamp-regression", names[r],
                        f"timestamp regression at {names[r]}",
                    )
                )
            if stack and w < width:
                top = stack[-1]
                # attribute [last_t, t] across every window it overlaps;
                # windows fully behind the interval are skipped for good
                while w < width and windows[w][1] <= last_t:
                    w += 1
                i = w
                while i < width and windows[i][0] < t:
                    lo = max(last_t, windows[i][0])
                    hi = min(t, windows[i][1])
                    if hi > lo:
                        cells.append(top * width + i)
                        spans.append(hi - lo)
                    i += 1
            last_t = t
            if kind == _ENTER:
                stack.append(r)
            elif kind == _LEAVE:
                skipped = leave_region(stack, r)
                if skipped is None:
                    issues.append(
                        TraceIssue(
                            "unbalanced-leave", names[r],
                            f"unbalanced LEAVE {names[r]}",
                        )
                    )
                elif skipped:
                    issues.append(
                        TraceIssue(
                            "unbalanced-leave-resync", names[r],
                            f"unbalanced LEAVE {names[r]} "
                            f"(implicitly closed {skipped} inner region(s))",
                        )
                    )
            else:
                markers.append(
                    (names[r], t, None if mid < 0 else mid,
                     names[stack[-1]] if stack else None)
                )
        self.last_t, self.w = last_t, w
        self.cells.append(np.array(cells, dtype=np.int64))
        self.spans.append(np.array(spans, dtype=np.float64))

    def result(self) -> StreamWalk:
        names = self.names
        self.issues.extend(
            TraceIssue("unclosed-region", names[r], f"unclosed region {names[r]}")
            for r in self.stack
        )
        width = len(self.windows)
        tops: list["str | None"] = [None] * width
        cells = np.concatenate(self.cells) if self.cells else np.empty(0, np.int64)
        if len(cells):
            keys, slot = np.unique(cells, return_inverse=True)
            time = np.zeros(len(keys))
            np.add.at(time, slot, np.concatenate(self.spans))
            region, window = np.divmod(keys, width)
            alphabetical = sorted(range(len(names)), key=names.__getitem__)
            by_name = np.empty(len(names), dtype=np.int64)
            by_name[alphabetical] = np.arange(len(names))
            # per window, the largest time wins and a tie goes to the
            # largest name: the last of each window's run in this order
            order = np.lexsort((by_name[region], time, window))
            ranked = window[order]
            last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
            for w, r in zip(ranked[last].tolist(), region[order[last]].tolist()):
                tops[w] = names[r]
        return StreamWalk(
            self.issues,
            tops,
            self.markers,
            self.count,
            self.last_t if self.count else 0.0,
            self.max_t,
        )
