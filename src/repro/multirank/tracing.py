"""Multi-rank trace merge: rank-tagged timelines with logical clocks.

Score-P is "a widely used profiling **and tracing** infrastructure"
(paper §I); downstream tools (Vampir, Scalasca) consume per-process
OTF2 event streams as *one* experiment.  This module is the reduction
that makes that view exist in the reproduction: it takes the N per-rank
streams of :class:`~repro.scorep.tracing.EventBlock` columns collected
by the rank scheduler and merges them into a single rank-tagged
timeline.

Each rank runs on its own virtual clock, so the raw per-rank timestamps
are *local* times — directly interleaving them would put a fast rank's
tenth iteration next to a slow rank's third.  Real trace unification has
the same problem (unsynchronised node clocks) and solves it with logical
clocks anchored at synchronisation points.  We do exactly that: every
MPI collective with all-to-all completion semantics
(:data:`repro.simmpi.comm.SYNCHRONIZING`, plus ``MPI_Init`` /
``MPI_Finalize``) is a synchronisation point — no rank leaves it before
every rank has arrived — so the merge offsets each rank's clock such
that matching collective events coincide at the latest arriver.  The
per-rank offset accumulated by the final ``MPI_Finalize`` anchor is the
rank's total synchronisation wait, which is exactly the quantity the
profile reducer attributes via
:func:`repro.simmpi.world.finalize_wait`: the two views agree by
construction (acceptance-tested to within one collective latency).

The analyses live once, on :class:`MergedTimeline`, and read a rank's
aligned event blocks only through its one accessor, ``rank_blocks(pos)``,
walking each rank once (:func:`~repro.scorep.tracing.walk_stream`), so
the in-memory :class:`MergedTrace` and the on-disk
:class:`~repro.trace.streaming.StreamingTrace` share them.
Scalasca-style:

* :meth:`MergedTimeline.wait_states` — per-rank wait intervals at each
  collective ("Wait at Barrier/NxN"): who blocked, where, for how long;
* :meth:`MergedTimeline.critical_path` — a simple critical-path walk
  over the segments between synchronisation points: per segment, the
  rank whose local (wait-free) time is largest is on the critical path,
  and the region with the largest exclusive share of that segment names
  the code to fix.

Entry point: ``run_app(..., ranks=N, imbalance=..., tracing=True)`` →
``RunOutcome.merged_trace``, or :func:`merge_rank_blocks` (blocks) and
:func:`merge_rank_traces` (event lists) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import CapiError
from repro.scorep.tracing import (
    KIND_CODE,
    EventBlock,
    StreamWalk,
    TraceEvent,
    TraceEventKind,
    TraceIssue,
    merge_streams,
    ranked_events,
    walk_stream,
)
from repro.simmpi.comm import SYNCHRONIZING

#: MPI operations that act as logical-clock synchronisation points: the
#: synchronizing collectives (all-to-all completion semantics) plus the
#: lifecycle pair — ``MPI_Init`` starts all ranks together and
#: ``MPI_Finalize`` is the closing barrier the profile reducer already
#: models via ``finalize_wait``.
SYNC_OPS = frozenset(SYNCHRONIZING | {"MPI_Init", "MPI_Finalize"})
_MPI_CODE = KIND_CODE[TraceEventKind.MPI]

#: the wait kind of a rank blocking at a synchronisation point for the
#: latest arriver ("Wait at Barrier/NxN"), stable for CI assertions
COLLECTIVE_IMBALANCE = "imbalance-at-collective"


def validate_tracing(tool: str, mode: str) -> None:
    """Reject tracing configurations that could never record events.

    Checked once, by :class:`~repro.workflow.RunSettings`, so every
    entry point fails the same way: only the scorep tool attaches a
    tracer, and the vanilla/inactive modes never install a measurement
    tool at all — a requested trace could only ever come back empty.
    """
    if tool != "scorep":
        raise CapiError(
            f"tracing=True needs the scorep measurement tool, got tool={tool!r}"
        )
    if mode in ("vanilla", "inactive"):
        raise CapiError(
            f"tracing=True needs an installed measurement tool; "
            f"mode={mode!r} never installs one"
        )


@dataclass(frozen=True)
class SyncPoint:
    """One matched collective across all ranks, after alignment.

    ``local_cycles[r]`` is rank r's raw clock at its own collective
    event; ``wait_cycles[r]`` is how long rank r blocked there for the
    latest arriver (zero for the arriving bottleneck).  The aligned
    timestamp is the same for every rank — that is the alignment rule:
    collective exits coincide.
    """

    index: int
    op: str
    aligned_cycles: float
    local_cycles: tuple[float, ...]
    wait_cycles: tuple[float, ...]


@dataclass(frozen=True)
class ClassifiedWait:
    """One rank's wait interval, in aligned time (Scalasca's wait-state
    view): at a collective (:data:`COLLECTIVE_IMBALANCE`, from the rank's
    arrival to the collective's completion) or at a point-to-point
    message (:func:`~repro.trace.waitstates.classify_wait_states`)."""

    kind: str
    #: the waiting rank
    rank: int
    op: str
    begin_cycles: float
    end_cycles: float
    #: enclosing source region on the waiting rank (None at top level,
    #: or when the analysis read no events)
    region: str | None = None
    #: peer rank for point-to-point waits
    partner_rank: int | None = None
    #: matched message id for point-to-point waits
    message_id: int | None = None
    #: sync-point index for collective waits
    sync_index: int | None = None

    @property
    def wait_cycles(self) -> float:
        return self.end_cycles - self.begin_cycles


@dataclass(frozen=True)
class CriticalSegment:
    """One segment of the critical path between synchronisation points."""

    index: int
    #: the sync op (or "start"/"end") bounding the segment
    begin_op: str
    end_op: str
    #: the rank on the critical path here: largest wait-free local time
    rank: int
    duration_cycles: float
    #: region with the largest exclusive time share on the critical rank
    top_region: str | None


@dataclass
class MergedTimeline:
    """Alignment results and analyses of one merged N-rank timeline.

    A source supplies one accessor, :meth:`rank_blocks`; the analyses
    read its events only through :attr:`walks`, one pass per rank over
    the block columns, so the in-memory :class:`MergedTrace` and the
    on-disk :class:`~repro.trace.streaming.StreamingTrace` run the same
    code and build no event objects.
    """

    ranks: int
    #: true rank id of each stream position (ascending); a degraded run
    #: merges only the surviving ranks, whose lanes keep their identity
    rank_ids: tuple[int, ...]
    sync_points: list[SyncPoint]
    #: final per-rank logical-clock offset == total synchronisation wait:
    #: the trace-side counterpart of the profile reducer's
    #: ``PopReport.rank_wait_cycles`` (``finalize_wait`` attribution);
    #: both measure how long each rank trailed the bottleneck
    rank_offsets: tuple[float, ...]
    #: per-rank event counts (all kinds)
    events_per_rank: tuple[int, ...]
    #: aligned timestamp of each rank's final event (0.0 when empty)
    last_aligned: tuple[float, ...]

    # -- event access (supplied by the source) ---------------------------------

    def rank_blocks(self, pos: int) -> Iterable[EventBlock]:
        """Aligned event blocks of the rank at position ``pos``."""
        raise NotImplementedError

    @cached_property
    def walks(self) -> list[StreamWalk]:
        """One :func:`~repro.scorep.tracing.walk_stream` pass per rank
        position, over its segment work windows (:func:`segment_windows`).
        The windows are disjoint and ascending, so one forward pass finds
        every segment's top region, linear in the trace length.

        Computed on first use and kept: the alignment fields are a
        snapshot taken when the timeline is built, so the walks of its
        streams cannot change.
        """
        windows = segment_windows(self.sync_points, self.last_aligned)
        return [
            walk_stream(self.rank_blocks(pos), [window[pos] for window in windows])
            for pos in range(self.ranks)
        ]

    # -- alignment views -------------------------------------------------------

    @property
    def elapsed_cycles(self) -> float:
        """Aligned end of the timeline (0.0 for an empty trace)."""
        return max(self.last_aligned, default=0.0)

    # -- consistency -----------------------------------------------------------

    def validate(self) -> list[TraceIssue]:
        """Merged-stream consistency checks, as machine-readable records.

        Each rank's aligned stream must pass the single-stream
        :func:`~repro.scorep.tracing.walk_stream` checks (alignment adds
        a never-decreasing offset, so it neither creates nor hides a
        timestamp regression).  That also proves the merged stream's
        order: a ``(timestamp, rank)`` heap merge of per-rank streams
        can only go out of order at an event below its predecessor in
        its own rank's stream, which is reported as
        ``timestamp-regression`` there.  Each defect is a
        :class:`~repro.scorep.tracing.TraceIssue` with a stable ``code``
        and the offending ``rank`` filled in; ``str(issue)`` keeps the
        legacy message text.
        """
        return rank_issues(self.rank_ids, self.walks)

    # -- analyses --------------------------------------------------------------

    def wait_states(self, *, min_wait_cycles: float = 0.0) -> list[ClassifiedWait]:
        """Per-rank wait intervals at collectives, largest first
        (:func:`collective_waits`).  Needs the sync points only, no
        events, so no wait names its enclosing region."""
        return collective_waits(self, min_wait_cycles, {})

    def critical_path(self) -> list[CriticalSegment]:
        """Walk the critical path through the segments between collectives.

        Between two synchronisation points no rank can overtake the
        others' progress, so the segment's contribution to the total
        runtime is the *largest* per-rank wait-free duration; the rank
        holding it is on the critical path there.  The sum of segment
        durations is the aligned makespan — shortening any critical
        segment shortens the run, shortening a non-critical one only
        grows someone's wait state (the Scalasca argument).

        Segment windows live in aligned time: rank r works segment k
        from the previous collective's completion (``aligned_{k-1}``)
        until its own arrival at the next one (``aligned_k − wait_{r,k}``)
        — the trailing wait interval is excluded, so durations measure
        work, not blocking.
        """
        if not any(self.events_per_rank):
            return []
        windows = segment_windows(self.sync_points, self.last_aligned)
        ops = ["start", *[sp.op for sp in self.sync_points], "end"]
        segments: list[CriticalSegment] = []
        for seg in range(len(ops) - 1):
            durations = [end - begin for begin, end in windows[seg]]
            pos = max(range(self.ranks), key=lambda r: (durations[r], -r))
            segments.append(
                CriticalSegment(
                    index=seg,
                    begin_op=ops[seg],
                    end_op=ops[seg + 1],
                    rank=self.rank_ids[pos],
                    duration_cycles=durations[pos],
                    top_region=self.walks[pos].tops[seg],
                )
            )
        return segments

    # -- rendering -------------------------------------------------------------

    def render(self, *, max_wait_states: int = 8) -> str:
        lines = [
            "=" * 64,
            f"Merged trace — {self.ranks} ranks, {sum(self.events_per_rank)} "
            f"events, {len(self.sync_points)} sync point(s)",
            "=" * 64,
        ]
        for pos, rank in enumerate(self.rank_ids):
            lines.append(
                f"  rank {rank}: {self.events_per_rank[pos]} events, "
                f"collective wait {self.rank_offsets[pos]:.0f} cycles"
            )
        waits = self.wait_states(min_wait_cycles=0.0)[:max_wait_states]
        if waits:
            lines.append("  top wait states:")
            lines.extend(
                f"    rank {w.rank} at {w.op} (sync {w.sync_index}): "
                f"{w.wait_cycles:.0f} cycles"
                for w in waits
            )
        path = self.critical_path()
        if path:
            lines.append("  critical path:")
            lines.extend(
                f"    [{seg.begin_op} -> {seg.end_op}] rank {seg.rank}, "
                f"{seg.duration_cycles:.0f} cycles"
                + (f", top region {seg.top_region}" if seg.top_region else "")
                for seg in path
            )
        return "\n".join(lines)


@dataclass
class MergedTrace(MergedTimeline):
    """One rank-tagged, logically-clocked timeline of an N-rank run, in memory.

    Holds each rank's aligned event blocks; the event views
    (:attr:`events`, :attr:`per_rank`) are built on first use.
    """

    #: per rank position, its aligned event blocks
    blocks: list[list[EventBlock]] = field(repr=False)

    def rank_blocks(self, pos: int) -> list[EventBlock]:
        return self.blocks[pos]

    def __eq__(self, other: object) -> bool:
        # the blocks hold arrays: compare the timelines event by event
        same = MergedTimeline.__eq__(self, other)
        return same is True and self.events == other.events

    @cached_property
    def per_rank(self) -> list[list[TraceEvent]]:
        """Per-rank aligned, rank-tagged event streams (rank order)."""
        return [
            list(ranked_events(rank, blocks))
            for rank, blocks in zip(self.rank_ids, self.blocks)
        ]

    @cached_property
    def events(self) -> list[TraceEvent]:
        """The merged stream: aligned timestamps, ordered by (time, rank)."""
        return list(merge_streams(self.per_rank))


def collective_waits(
    timeline: MergedTimeline,
    min_wait_cycles: float,
    regions: Mapping[tuple[int, float, str], "str | None"],
) -> list[ClassifiedWait]:
    """Each rank's wait at each synchronisation point, largest first:
    the one derivation of collective waits.

    A rank arriving at a synchronisation point before the bottleneck
    blocks until the collective completes; the interval spans from its
    (aligned) arrival to the aligned completion.  Intervals not
    exceeding ``min_wait_cycles`` are dropped — the bottleneck rank
    itself never appears.  ``regions`` names the region enclosing a
    rank's collective marker, keyed ``(rank, aligned time, op)``: by the
    alignment rule the marker lands exactly at the sync point's aligned
    timestamp, so the key is exact.
    """
    ids = timeline.rank_ids
    waits = [
        ClassifiedWait(
            kind=COLLECTIVE_IMBALANCE,
            rank=ids[pos],
            op=sp.op,
            begin_cycles=sp.aligned_cycles - wait,
            end_cycles=sp.aligned_cycles,
            region=regions.get((ids[pos], sp.aligned_cycles, sp.op)),
            sync_index=sp.index,
        )
        for sp in timeline.sync_points
        for pos, wait in enumerate(sp.wait_cycles)
        if wait > min_wait_cycles
    ]
    waits.sort(key=lambda w: (-w.wait_cycles, w.sync_index, w.rank))
    return waits


class StreamScan(NamedTuple):
    """What the alignment needs from one rank's raw stream."""

    #: the sync-point ``(op, local time)`` sequence
    sync_seq: list[tuple[str, float]]
    #: event count
    count: int
    #: last local timestamp (0.0 when empty)
    last_t: float
    #: largest local timestamp (the last one unless the stream regresses)
    max_t: float


def scan_blocks(blocks: Iterable[EventBlock]) -> StreamScan:
    """One pass over a rank's raw stream, column by column.

    A sync event is an MPI event whose region is in :data:`SYNC_OPS`.
    """
    sync_seq: list[tuple[str, float]] = []
    count = 0
    last_t = 0.0
    max_t = -math.inf
    for block in blocks:
        if not len(block.t):
            continue
        is_sync = np.fromiter(
            (name in SYNC_OPS for name in block.names), bool, len(block.names)
        )
        hits = np.flatnonzero((block.kind == _MPI_CODE) & is_sync[block.region])
        sync_seq.extend(
            zip(
                [block.names[r] for r in block.region[hits].tolist()],
                block.t[hits].tolist(),
            )
        )
        count += len(block.t)
        last_t = float(block.t[-1])
        max_t = max(max_t, float(block.t.max()))
    return StreamScan(sync_seq, count, last_t, max_t)


def walk_scan(walk: StreamWalk) -> StreamScan:
    """The alignment scan a raw stream's walk already holds: its sync
    markers, event count and last and largest timestamps."""
    return StreamScan(
        [(op, t) for op, t, _, _ in walk.markers if op in SYNC_OPS],
        walk.count,
        walk.last_t,
        walk.max_t,
    )


def rank_issues(
    rank_ids: Sequence[int], walks: Sequence[StreamWalk]
) -> list[TraceIssue]:
    """The walks' defect records in rank order, each stamped with its
    rank."""
    return [
        replace(issue, rank=rank, detail=f"rank {rank}: {issue.detail}")
        for rank, walk in zip(rank_ids, walks)
        for issue in walk.issues
    ]


def _alignment_anchors(
    seqs: list[list[tuple[str, float]]],
) -> list[tuple[str, list[float]]]:
    """Match sync events across ranks into alignment anchors.

    Ranks run rank-scaled iteration counts, so their collective
    sequences may be *ragged* (a light rank walks fewer loop
    collectives).  Matching is therefore: the common prefix while every
    rank agrees on the op, plus — always — the final ``MPI_Finalize``,
    which every rank issues exactly once as its last sync op and which
    anchors the total wait to the profile reducer's ``finalize_wait``
    attribution.  Unmatched interior collectives simply ride on the
    offset of the preceding anchor.
    """
    if not seqs or all(not s for s in seqs):
        # no rank synchronises (MPI-free app): nothing to align
        return []
    if any(not s for s in seqs):
        # mirrors merge_profiles' contract: an SPMD world where only
        # *some* ranks reach the collectives is malformed input, and
        # silently skipping alignment would present an unaligned
        # timeline as an aligned one with zero wait everywhere
        raise CapiError(
            "either every rank or no rank records synchronisation events"
        )
    finale: tuple[str, list[float]] | None = None
    if all(s[-1][0] == "MPI_Finalize" for s in seqs):
        finale = ("MPI_Finalize", [s[-1][1] for s in seqs])
        seqs = [s[:-1] for s in seqs]
    anchors: list[tuple[str, list[float]]] = []
    for k in range(min(len(s) for s in seqs)):
        ops = {s[k][0] for s in seqs}
        if len(ops) != 1:
            break
        anchors.append((ops.pop(), [s[k][1] for s in seqs]))
    if finale is not None:
        anchors.append(finale)
    return anchors


def compute_alignment(
    sync_seqs: "list[list[tuple[str, float]]]",
) -> tuple[list[SyncPoint], tuple[float, ...], list[list[tuple[float, float]]]]:
    """The full logical-clock solution for N sync sequences.

    Walks the matched synchronisation anchors in order; at each one
    every rank's clock is shifted forward so its collective event
    coincides with the latest arriver's (offsets only ever grow, so
    per-rank timestamp order is preserved).  Returns the sync points,
    the final per-rank offsets (== total collective wait), and the
    per-rank shift *schedule*: ``(local anchor time, offset valid from
    that time on)`` pairs that :func:`replay_schedule` replays over any
    event source — in-memory lists or on-disk readers alike.
    """
    ranks = len(sync_seqs)
    anchors = _alignment_anchors(sync_seqs)
    offsets = [0.0] * ranks
    sync_points: list[SyncPoint] = []
    schedule: list[list[tuple[float, float]]] = [[] for _ in range(ranks)]
    for index, (op, locals_) in enumerate(anchors):
        aligned = max(t + offsets[r] for r, t in enumerate(locals_))
        waits = tuple(aligned - (t + offsets[r]) for r, t in enumerate(locals_))
        for r, t in enumerate(locals_):
            offsets[r] = aligned - t
            schedule[r].append((t, offsets[r]))
        sync_points.append(
            SyncPoint(
                index=index,
                op=op,
                aligned_cycles=aligned,
                local_cycles=tuple(locals_),
                wait_cycles=waits,
            )
        )
    return sync_points, tuple(offsets), schedule


def schedule_columns(
    plan: "list[tuple[float, float]]",
) -> tuple[np.ndarray, np.ndarray]:
    """A :func:`compute_alignment` shift schedule as the columns
    :func:`replay_schedule` searches: the running maximum of the anchor
    times, and the offsets with the 0.0 in force before the first."""
    anchors = np.array([anchor for anchor, _ in plan], dtype=np.float64)
    offsets = np.array([0.0, *(offset for _, offset in plan)], dtype=np.float64)
    return np.maximum.accumulate(anchors), offsets


def replay_schedule(
    columns: tuple[np.ndarray, np.ndarray], t: np.ndarray, passed: int = 0
) -> tuple[np.ndarray, int]:
    """Aligned timestamps ``t + offset`` under a shift schedule
    (:func:`schedule_columns`), and the anchors passed after ``t[-1]``.

    The replay rule, stated once: a stream passes anchor k when an event
    reaches its local time and every earlier anchor's; each event
    carries the offset of the last anchor passed (0.0 before the first).
    Passing only moves forward, so after a timestamp regression an
    event keeps the offset in force.  The wait therefore materialises
    *at* the collective, exactly where a real rank blocks.  ``passed``
    carries the count from the previous block of the same stream.
    """
    anchors, offsets = columns
    steps = np.searchsorted(anchors, t, side="right")
    np.maximum.accumulate(steps, out=steps)
    np.maximum(steps, passed, out=steps)
    return t + offsets[steps], int(steps[-1]) if len(steps) else passed


def align_blocks(
    blocks: Iterable[EventBlock],
    plan: "list[tuple[float, float]]",
) -> Iterator[EventBlock]:
    """Clock-align one rank's stream, a block at a time.

    Replays a :func:`compute_alignment` shift schedule
    (:func:`replay_schedule`) over each block's timestamps and yields
    the block with its ``t`` column aligned, so a streaming reader
    aligns in O(block) memory per rank.
    """
    columns = schedule_columns(plan)
    passed = 0
    for block in blocks:
        aligned, passed = replay_schedule(columns, block.t, passed)
        yield block._replace(t=aligned)


def align_scans(
    rank_ids: tuple[int, ...],
    scans: "list[StreamScan]",
) -> tuple[dict, list[list[tuple[float, float]]]]:
    """The alignment pass shared by every :class:`MergedTimeline` source.

    From the ranks' :func:`scan_blocks` results, returns the timeline's
    alignment fields and the per-rank shift schedules that
    :func:`align_blocks` replays over the same events.
    """
    sync_points, offsets, schedule = compute_alignment(
        [scan.sync_seq for scan in scans]
    )
    fields = {
        "ranks": len(rank_ids),
        "rank_ids": rank_ids,
        "sync_points": sync_points,
        "rank_offsets": offsets,
        "events_per_rank": tuple(scan.count for scan in scans),
        # the final event passes every anchor the largest timestamp does
        "last_aligned": tuple(
            float(
                replay_schedule(
                    schedule_columns(plan), np.array([scan.max_t, scan.last_t])
                )[0][-1]
            )
            if scan.count
            else 0.0
            for scan, plan in zip(scans, schedule)
        ),
    }
    return fields, schedule


def segment_windows(
    sync_points: Sequence[SyncPoint],
    last_aligned: Sequence[float],
) -> list[list[tuple[float, float]]]:
    """Aligned ``(begin, end)`` work window per segment per rank.

    Within one segment a rank's clock offset is constant, so the
    aligned window bounds are exact shifts of the local ones and window
    durations equal wait-free local durations.  ``last_aligned[r]`` is
    rank r's aligned final-event timestamp, bounding the tail segment.
    """
    ranks = len(last_aligned)
    windows: list[list[tuple[float, float]]] = []
    begin_all = [0.0] * ranks
    for sp in sync_points:
        windows.append(
            [
                (begin_all[r], sp.aligned_cycles - sp.wait_cycles[r])
                for r in range(ranks)
            ]
        )
        begin_all = [sp.aligned_cycles] * ranks
    windows.append(
        [
            (begin_all[r], max(last_aligned[r], begin_all[r]))
            for r in range(ranks)
        ]
    )
    return windows


def merge_rank_traces(
    per_rank_events: Sequence[Sequence[TraceEvent]],
    *,
    rank_ids: "Sequence[int] | None" = None,
) -> MergedTrace:
    """Merge N per-rank event streams into one aligned, rank-tagged timeline.

    Implements the logical-clock rule described in the module docstring
    via :func:`merge_rank_blocks`, passing each stream as one
    :class:`~repro.scorep.tracing.EventBlock`.

    ``rank_ids`` names the true rank of each input stream (ascending) —
    a degraded run merges only the surviving ranks, and their timeline
    lanes must keep their original identity instead of being renumbered
    by list position.  Defaults to positional (stream i is rank i).

    The result is deterministic and bit-identical for any backend that
    produced the same per-rank streams (the merge never looks at
    anything but the streams themselves).
    """
    return merge_rank_blocks(
        [[EventBlock.from_events(s)] for s in per_rank_events], rank_ids=rank_ids
    )


def merge_rank_blocks(
    per_rank_blocks: Sequence[Sequence[EventBlock]],
    *,
    rank_ids: "Sequence[int] | None" = None,
) -> MergedTrace:
    """The in-memory merge of N ranks' raw event blocks: one
    :func:`scan_blocks` pass per rank, :func:`align_scans`, then each
    rank's blocks aligned (:func:`align_blocks`) and kept.

    Serves both kinds of traced world — the blocks each rank shipped,
    or each published location's blocks, read once — and
    :func:`merge_rank_traces` (one block per rank).
    """
    ids = resolve_rank_ids(len(per_rank_blocks), rank_ids)
    alignment, schedule = align_scans(ids, [scan_blocks(b) for b in per_rank_blocks])
    return MergedTrace(
        **alignment,
        blocks=[
            list(align_blocks(b, plan)) for b, plan in zip(per_rank_blocks, schedule)
        ],
    )


def resolve_rank_ids(
    ranks: int, rank_ids: "Sequence[int] | None"
) -> tuple[int, ...]:
    """Validate a degraded-world rank labelling (ascending true ids)."""
    if rank_ids is None:
        return tuple(range(ranks))
    ids = tuple(int(r) for r in rank_ids)
    if len(ids) != ranks:
        raise CapiError(
            f"rank_ids names {len(ids)} ranks but {ranks} streams given"
        )
    if list(ids) != sorted(set(ids)):
        raise CapiError("rank_ids must be strictly ascending")
    return ids

