"""Multi-rank trace merge: rank-tagged timelines with logical clocks.

Score-P is "a widely used profiling **and tracing** infrastructure"
(paper §I); downstream tools (Vampir, Scalasca) consume per-process
OTF2 event streams as *one* experiment.  This module is the reduction
that makes that view exist in the reproduction: it takes the N per-rank
:class:`~repro.scorep.tracing.TraceEvent` streams collected by the rank
scheduler and merges them into a single rank-tagged timeline.

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

The analyses live once, on :class:`MergedTimeline`, and read events only
through its two accessors, so the in-memory :class:`MergedTrace` and
the on-disk :class:`~repro.trace.streaming.StreamingTrace` share them.
Scalasca-style:

* :meth:`MergedTimeline.wait_states` — per-rank wait intervals at each
  collective ("Wait at Barrier/NxN"): who blocked, where, for how long;
* :meth:`MergedTimeline.critical_path` — a simple critical-path walk
  over the segments between synchronisation points: per segment, the
  rank whose local (wait-free) time is largest is on the critical path,
  and the region with the largest exclusive share of that segment names
  the code to fix.

Entry point: ``run_app(..., ranks=N, imbalance=..., tracing=True)`` →
``RunOutcome.merged_trace``, or :func:`merge_rank_traces` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from repro.errors import CapiError
from repro.scorep.tracing import (
    RankedTraceEvent,
    TraceEvent,
    TraceEventKind,
    TraceIssue,
    leave_region,
    merge_streams,
    validate_trace,
)
from repro.simmpi.comm import SYNCHRONIZING

#: MPI operations that act as logical-clock synchronisation points: the
#: synchronizing collectives (all-to-all completion semantics) plus the
#: lifecycle pair — ``MPI_Init`` starts all ranks together and
#: ``MPI_Finalize`` is the closing barrier the profile reducer already
#: models via ``finalize_wait``.
SYNC_OPS = frozenset(SYNCHRONIZING | {"MPI_Init", "MPI_Finalize"})


def validate_tracing(tool: str, mode: str) -> None:
    """Reject tracing configurations that could never record events.

    Shared by ``workflow.run_app`` and ``run_multirank`` so both entry
    points fail the same way: only the scorep tool attaches a tracer,
    and the vanilla/inactive modes never install a measurement tool at
    all — a requested trace could only ever come back empty.
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

    @property
    def bottleneck_rank(self) -> int:
        """The last rank to arrive (ties: lowest rank)."""
        return min(
            range(len(self.wait_cycles)), key=lambda r: (self.wait_cycles[r], r)
        )


@dataclass(frozen=True)
class WaitInterval:
    """One rank blocking at one collective (Scalasca's wait-state view)."""

    rank: int
    sync_index: int
    op: str
    #: aligned time the rank arrived at the collective
    begin_cycles: float
    #: aligned time the collective completed (same for all ranks)
    end_cycles: float

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

    The analyses read events only through the two accessors a source
    supplies — :meth:`rank_stream` and :meth:`timeline` — so the
    in-memory :class:`MergedTrace` and the on-disk
    :class:`~repro.trace.streaming.StreamingTrace` run the same code.
    """

    ranks: int
    #: true rank id of each stream position (ascending); a degraded run
    #: merges only the surviving ranks, whose lanes keep their identity
    rank_ids: tuple[int, ...]
    sync_points: list[SyncPoint]
    #: final per-rank logical-clock offset == total synchronisation wait
    rank_offsets: tuple[float, ...]
    #: per-rank event counts (all kinds)
    events_per_rank: tuple[int, ...]
    #: aligned timestamp of each rank's final event (0.0 when empty)
    last_aligned: tuple[float, ...]

    # -- event access (supplied by the source) ---------------------------------

    def rank_stream(self, pos: int) -> Iterable[RankedTraceEvent]:
        """Aligned, rank-tagged events of the rank at position ``pos``."""
        raise NotImplementedError

    def timeline(self) -> Iterable[RankedTraceEvent]:
        """The merged stream: aligned timestamps, ordered by (time, rank)."""
        raise NotImplementedError

    # -- alignment views -------------------------------------------------------

    @property
    def rank_labels(self) -> tuple[int, ...]:
        """Rank id of each stream position."""
        return self.rank_ids

    @property
    def rank_wait_cycles(self) -> tuple[float, ...]:
        """Total collective wait per rank, as derived from the trace.

        This is the trace-side counterpart of the profile reducer's
        ``PopReport.rank_wait_cycles`` (``finalize_wait`` attribution):
        both measure how long each rank trailed the bottleneck.
        """
        return self.rank_offsets

    @property
    def elapsed_cycles(self) -> float:
        """Aligned end of the timeline (0.0 for an empty trace)."""
        return max(self.last_aligned, default=0.0)

    # -- consistency -----------------------------------------------------------

    def validate(self) -> list[TraceIssue]:
        """Merged-stream consistency checks, as machine-readable records.

        The global stream must be ``(timestamp, rank)``-ordered, and each
        rank's aligned stream must pass the single-stream
        :func:`~repro.scorep.tracing.validate_trace` checks (alignment
        adds a never-decreasing offset, so it neither creates nor hides
        a timestamp regression).  Each defect is a
        :class:`~repro.scorep.tracing.TraceIssue` with a stable ``code``
        (``merge-order`` for global-order violations, the single-stream
        codes otherwise) and the offending ``rank`` filled in;
        ``str(issue)`` keeps the legacy message text.
        """
        return [
            *validate_merge_order(self.timeline()),
            *(
                issue
                for pos, rank in enumerate(self.rank_labels)
                for issue in validate_rank_stream(rank, self.rank_stream(pos))
            ),
        ]

    # -- analyses --------------------------------------------------------------

    def wait_states(self, *, min_wait_cycles: float = 0.0) -> list[WaitInterval]:
        """Per-rank wait intervals at collectives, largest first.

        A rank arriving at a synchronisation point before the bottleneck
        blocks until the collective completes; the interval spans from
        its (aligned) arrival to the aligned completion.  Intervals not
        exceeding ``min_wait_cycles`` are dropped — the bottleneck rank
        itself never appears.  Needs the sync points only, no events.
        """
        labels = self.rank_labels
        intervals = [
            WaitInterval(
                rank=labels[pos],
                sync_index=sp.index,
                op=sp.op,
                begin_cycles=sp.aligned_cycles - wait,
                end_cycles=sp.aligned_cycles,
            )
            for sp in self.sync_points
            for pos, wait in enumerate(sp.wait_cycles)
            if wait > min_wait_cycles
        ]
        intervals.sort(key=lambda w: (-w.wait_cycles, w.sync_index, w.rank))
        return intervals

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
        # one forward pass per rank computes every segment's top region
        # (windows are disjoint and ascending), keeping the whole walk
        # linear in the trace length instead of per-segment re-walks
        tops = [
            _top_regions_by_segment(
                self.rank_stream(pos), [window[pos] for window in windows]
            )
            for pos in range(self.ranks)
        ]
        ops = ["start", *[sp.op for sp in self.sync_points], "end"]
        labels = self.rank_labels
        segments: list[CriticalSegment] = []
        for seg in range(len(ops) - 1):
            durations = [end - begin for begin, end in windows[seg]]
            pos = max(range(self.ranks), key=lambda r: (durations[r], -r))
            segments.append(
                CriticalSegment(
                    index=seg,
                    begin_op=ops[seg],
                    end_op=ops[seg + 1],
                    rank=labels[pos],
                    duration_cycles=durations[pos],
                    top_region=tops[pos][seg],
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
        for pos, rank in enumerate(self.rank_labels):
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
    """One rank-tagged, logically-clocked timeline of an N-rank run, in memory."""

    #: the merged stream: aligned timestamps, ordered by (time, rank)
    events: list[RankedTraceEvent]
    #: per-rank aligned event streams (rank order), kept for analyses
    per_rank: list[list[RankedTraceEvent]]

    def rank_stream(self, pos: int) -> list[RankedTraceEvent]:
        return self.per_rank[pos]

    def timeline(self) -> list[RankedTraceEvent]:
        return self.events


def scan_stream(
    events: Iterable[TraceEvent],
) -> tuple[list[tuple[str, float]], int, float]:
    """One pass over a rank's raw stream: its sync-point ``(op, local
    time)`` sequence, its event count and its last local timestamp."""
    sync_seq: list[tuple[str, float]] = []
    count = 0
    last_t = 0.0
    for ev in events:
        count += 1
        last_t = ev.timestamp_cycles
        if ev.kind is TraceEventKind.MPI and ev.region in SYNC_OPS:
            sync_seq.append((ev.region, last_t))
    return sync_seq, count, last_t


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
        raise ValueError(
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
    that time on)`` pairs that :func:`align_stream` replays over any
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


def align_stream(
    rank: int,
    events: Iterable[TraceEvent],
    plan: "list[tuple[float, float]]",
) -> Iterator[RankedTraceEvent]:
    """Tag and clock-align one rank's event stream, lazily.

    Replays a :func:`compute_alignment` shift schedule over the stream:
    events between two sync anchors carry the offset of the preceding
    one — the wait materialises *at* the collective, exactly where a
    real rank blocks.  Pure generator, so a streaming reader aligns in
    O(1) memory per rank.
    """
    step = 0
    offset = 0.0
    for ev in events:
        while step < len(plan) and ev.timestamp_cycles >= plan[step][0]:
            offset = plan[step][1]
            step += 1
        yield RankedTraceEvent(
            rank, ev.kind, ev.region, ev.timestamp_cycles + offset, ev.mid
        )


def _offset_at(plan: "list[tuple[float, float]]", t: float) -> float:
    """The clock offset in force at local time ``t`` (schedule replay)."""
    offset = 0.0
    for anchor_t, anchor_offset in plan:
        if t >= anchor_t:
            offset = anchor_offset
        else:
            break
    return offset


def align_scans(
    rank_ids: tuple[int, ...],
    scans: "list[tuple[list[tuple[str, float]], int, float]]",
) -> tuple[dict, list[list[tuple[float, float]]]]:
    """The alignment pass shared by every :class:`MergedTimeline` source.

    From the ranks' :func:`scan_stream` results, returns the timeline's
    alignment fields and the per-rank shift schedules that
    :func:`align_stream` replays over the same events.
    """
    sync_points, offsets, schedule = compute_alignment(
        [sync_seq for sync_seq, _, _ in scans]
    )
    fields = {
        "ranks": len(rank_ids),
        "rank_ids": rank_ids,
        "sync_points": sync_points,
        "rank_offsets": offsets,
        "events_per_rank": tuple(count for _, count, _ in scans),
        "last_aligned": tuple(
            last_t + _offset_at(plan, last_t)
            for (_, _, last_t), plan in zip(scans, schedule)
        ),
    }
    return fields, schedule


def validate_merge_order(
    events: Iterable[RankedTraceEvent],
) -> Iterator[TraceIssue]:
    """Check global ``(timestamp, rank)`` order of a merged stream."""
    last_key = (-1.0, -1)
    for ev in events:
        key = (ev.timestamp_cycles, ev.rank)
        if key < last_key:
            yield TraceIssue(
                "merge-order",
                ev.region,
                f"merged stream out of order at rank {ev.rank} {ev.region}",
                rank=ev.rank,
            )
        last_key = key


def validate_rank_stream(
    rank: int, events: Iterable[TraceEvent | RankedTraceEvent]
) -> Iterator[TraceIssue]:
    """Single-stream checks with the rank stamped into each issue."""
    for issue in validate_trace(events):
        yield replace(issue, rank=rank, detail=f"rank {rank}: {issue.detail}")


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
    via :func:`align_scans` + :func:`align_stream`.

    ``rank_ids`` names the true rank of each input stream (ascending) —
    a degraded run merges only the surviving ranks, and their timeline
    lanes must keep their original identity instead of being renumbered
    by list position.  Defaults to positional (stream i is rank i).

    The result is deterministic and bit-identical for any backend that
    produced the same per-rank streams (the merge never looks at
    anything but the streams themselves).
    """
    ids = resolve_rank_ids(len(per_rank_events), rank_ids)
    streams = [list(s) for s in per_rank_events]
    alignment, schedule = align_scans(ids, [scan_stream(s) for s in streams])
    aligned_streams = [
        list(align_stream(ids[pos], stream, schedule[pos]))
        for pos, stream in enumerate(streams)
    ]
    return MergedTrace(
        **alignment, events=merge_streams(aligned_streams), per_rank=aligned_streams
    )


def resolve_rank_ids(
    ranks: int, rank_ids: "Sequence[int] | None"
) -> tuple[int, ...]:
    """Validate a degraded-world rank labelling (ascending true ids)."""
    if rank_ids is None:
        return tuple(range(ranks))
    ids = tuple(int(r) for r in rank_ids)
    if len(ids) != ranks:
        raise ValueError(
            f"rank_ids names {len(ids)} ranks but {ranks} streams given"
        )
    if list(ids) != sorted(set(ids)):
        raise ValueError("rank_ids must be strictly ascending")
    return ids


def _top_regions_by_segment(
    events: Iterable[RankedTraceEvent],
    windows: Sequence[tuple[float, float]],
) -> list["str | None"]:
    """Per window, the region with the largest exclusive time inside it.

    Walks the rank's aligned stream once, attributing each inter-event
    interval to the innermost open region, clipped against the disjoint
    ascending ``(begin, end)`` windows (the per-rank segment work
    windows).  MPI markers are instants: the interval they open (the
    operation's cost) stays attributed to the enclosing region, which
    is the region a flat profile would blame too.  Inter-event
    intervals that straddle an alignment jump contain the rank's wait —
    but work windows end at the rank's arrival (wait excluded), so the
    clip removes it.
    """
    exclusive: list[dict[str, float]] = [{} for _ in windows]
    stack: list[str] = []
    prev_t: float | None = None
    w = 0
    for ev in events:
        t = ev.timestamp_cycles
        if prev_t is not None and stack and w < len(windows):
            top = stack[-1]
            # attribute [prev_t, t] across every window it overlaps;
            # windows fully behind the interval are skipped for good
            while w < len(windows) and windows[w][1] <= prev_t:
                w += 1
            i = w
            while i < len(windows) and windows[i][0] < t:
                lo = max(prev_t, windows[i][0])
                hi = min(t, windows[i][1])
                if hi > lo:
                    acc = exclusive[i]
                    acc[top] = acc.get(top, 0.0) + (hi - lo)
                i += 1
        prev_t = t
        if ev.kind is TraceEventKind.ENTER:
            stack.append(ev.region)
        elif ev.kind is TraceEventKind.LEAVE:
            leave_region(stack, ev.region)
    return [
        max(acc.items(), key=lambda kv: (kv[1], kv[0]))[0] if acc else None
        for acc in exclusive
    ]
