"""One walk per rank stream ≡ the separate walks it replaced.

``walk_stream`` keeps the only open-region stack over a trace stream;
validation, the critical path's top regions and the wait-state
classification all read its result, once per rank.  The four walks it
replaced are copied in below as references — the single-stream
validator, the per-segment top-region walk, the wait-state walk, and
the merged-order check — together with the analyses that read them.

The walk takes a clean block whole, as columns, and any other block
event by event, so any split of a stream into blocks must walk the
same (``TestAnySplit``).  ``TestReadsPerPostMortem`` counts how often a
traced world and its post-mortem read each location file, and the event
objects they build.
"""

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ic import InstrumentationConfig
from repro.execution.workload import Workload
from repro.multirank import ImbalanceSpec, merge_rank_traces
from repro.multirank.tracing import (
    CriticalSegment,
    scan_blocks,
    segment_windows,
    walk_scan,
)
from repro.scorep import tracing
from repro.scorep.tracing import (
    EventBlock,
    TraceEvent,
    TraceEventKind,
    TraceIssue,
    leave_region,
    walk_stream,
)
from repro.simmpi.messages import RECV_OPS, SEND_OPS, ring_partner
from repro.trace import (
    classify_wait_states,
    open_merged_trace,
    scan_run,
    store,
    streaming,
    watchdog,
)
from repro.trace.store import location_path
from repro.trace.waitstates import (
    COLLECTIVE_IMBALANCE,
    LATE_RECEIVER,
    LATE_SENDER,
    ClassifiedWait,
)
from repro.workflow import build_app, run_app
from tests.conftest import make_demo_builder
from tests.trace.conftest import E, L, M, ev, write_archive
from tests.trace.test_streaming import regressing_stream, ring_streams

# -- references: the separate walks ---------------------------------------------


def ref_validate_trace(events):
    problems = []
    last_t = float("-inf")
    stack = []
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


def ref_validate_merge_order(events):
    last_key = (float("-inf"), -1)
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


def ref_top_regions_by_segment(events, windows):
    exclusive = [{} for _ in windows]
    stack = []
    prev_t = None
    w = 0
    for ev in events:
        t = ev.timestamp_cycles
        if prev_t is not None and stack and w < len(windows):
            top = stack[-1]
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


@dataclass(frozen=True)
class _P2PEvent:
    rank: int
    mid: int
    op: str
    aligned_cycles: float
    region: "str | None"


def ref_walk_rank(rank, events):
    sends, recvs, sync_regions, stack = [], [], {}, []
    for ev in events:
        if ev.kind is TraceEventKind.ENTER:
            stack.append(ev.region)
        elif ev.kind is TraceEventKind.LEAVE:
            leave_region(stack, ev.region)
        elif ev.kind is TraceEventKind.MPI:
            region = stack[-1] if stack else None
            if ev.mid is not None and ev.region in SEND_OPS:
                sends.append(
                    _P2PEvent(rank, ev.mid, ev.region, ev.timestamp_cycles, region)
                )
            elif ev.mid is not None and ev.region in RECV_OPS:
                recvs.append(
                    _P2PEvent(rank, ev.mid, ev.region, ev.timestamp_cycles, region)
                )
            else:
                sync_regions[(rank, ev.timestamp_cycles, ev.region)] = region
    return sends, recvs, sync_regions


def ref_markers(events):
    markers, stack = [], []
    for ev in events:
        if ev.kind is TraceEventKind.ENTER:
            stack.append(ev.region)
        elif ev.kind is TraceEventKind.LEAVE:
            leave_region(stack, ev.region)
        else:
            markers.append(
                (ev.region, ev.timestamp_cycles, ev.mid, stack[-1] if stack else None)
            )
    return markers


# -- references: the analyses over those walks ------------------------------------


def rank_events(trace, pos):
    """The aligned events of the rank at ``pos``, as objects."""
    return [ev for block in trace.rank_blocks(pos) for ev in block.events()]


def ref_validate(trace):
    return [
        *ref_validate_merge_order(trace.events),
        *(
            replace(issue, rank=rank, detail=f"rank {rank}: {issue.detail}")
            for pos, rank in enumerate(trace.rank_ids)
            for issue in ref_validate_trace(rank_events(trace, pos))
        ),
    ]


def ref_critical_path(trace):
    if not any(trace.events_per_rank):
        return []
    windows = segment_windows(trace.sync_points, trace.last_aligned)
    tops = [
        ref_top_regions_by_segment(
            rank_events(trace, pos), [window[pos] for window in windows]
        )
        for pos in range(trace.ranks)
    ]
    ops = ["start", *[sp.op for sp in trace.sync_points], "end"]
    segments = []
    for seg in range(len(ops) - 1):
        durations = [end - begin for begin, end in windows[seg]]
        pos = max(range(trace.ranks), key=lambda r: (durations[r], -r))
        segments.append(
            CriticalSegment(
                index=seg,
                begin_op=ops[seg],
                end_op=ops[seg + 1],
                rank=trace.rank_ids[pos],
                duration_cycles=durations[pos],
                top_region=tops[pos][seg],
            )
        )
    return segments


def ref_classify(trace, min_wait_cycles, world_ranks):
    labels = trace.rank_ids
    present = set(labels)
    sends_by_key, recvs_by_key, sync_regions = {}, {}, {}
    for pos, rank in enumerate(labels):
        sends, recvs, regions = ref_walk_rank(rank, rank_events(trace, pos))
        for s in sends:
            sends_by_key[(s.rank, s.mid)] = s
        for r in recvs:
            recvs_by_key[(r.rank, r.mid)] = r
        sync_regions.update(regions)
    waits = [
        ClassifiedWait(
            kind=COLLECTIVE_IMBALANCE,
            rank=w.rank,
            op=w.op,
            begin_cycles=w.begin_cycles,
            end_cycles=w.end_cycles,
            region=sync_regions.get((w.rank, w.end_cycles, w.op)),
            sync_index=w.sync_index,
        )
        for w in trace.wait_states(min_wait_cycles=min_wait_cycles)
    ]
    for (rank, mid), recv in recvs_by_key.items():
        sender = ring_partner(rank, world_ranks)
        if sender not in present:
            continue
        send = sends_by_key.get((sender, mid))
        if send is None:
            continue
        if send.aligned_cycles > recv.aligned_cycles + min_wait_cycles:
            waits.append(
                ClassifiedWait(
                    kind=LATE_SENDER, rank=rank, op=recv.op,
                    begin_cycles=recv.aligned_cycles,
                    end_cycles=send.aligned_cycles, region=recv.region,
                    partner_rank=sender, message_id=mid,
                )
            )
        elif recv.aligned_cycles > send.aligned_cycles + min_wait_cycles:
            waits.append(
                ClassifiedWait(
                    kind=LATE_RECEIVER, rank=sender, op=send.op,
                    begin_cycles=send.aligned_cycles,
                    end_cycles=recv.aligned_cycles, region=send.region,
                    partner_rank=rank, message_id=mid,
                )
            )
    waits.sort(key=lambda w: (-w.wait_cycles, w.rank, w.begin_cycles, w.kind))
    return waits


# -- the walk against the references ---------------------------------------------


@st.composite
def worlds(draw):
    """Regressing streams with nested regions and point-to-point
    markers, on a possibly degraded set of true rank ids."""
    streams = draw(st.lists(regressing_stream(), min_size=1, max_size=5))
    world = draw(st.integers(len(streams), len(streams) + 2))
    ids = sorted(draw(st.permutations(range(world)))[: len(streams)])
    return streams, ids, world


class TestOneWalk:
    @settings(max_examples=300, deadline=None)
    @given(world=worlds(), min_wait=st.sampled_from([0.0, 0.2, 1.0]))
    def test_analyses_equal_the_separate_walks(self, world, min_wait):
        streams, ids, world_ranks = world
        trace = merge_rank_traces(streams, rank_ids=ids)
        assert trace.critical_path() == ref_critical_path(trace)
        assert classify_wait_states(
            trace, min_wait_cycles=min_wait, world_ranks=world_ranks
        ) == ref_classify(trace, min_wait, world_ranks)

        reference = ref_validate(trace)
        issues = trace.validate()
        assert issues == [i for i in reference if i.code != "merge-order"]
        regressions = {
            (i.rank, i.region) for i in issues if i.code == "timestamp-regression"
        }
        # a heap merge goes out of order only at a regression in one
        # rank's own stream, which that rank's walk reports
        assert {
            (i.rank, i.region) for i in reference if i.code == "merge-order"
        } <= regressions
        if not regressions:
            keys = [(ev.timestamp_cycles, ev.rank) for ev in trace.events]
            assert keys == sorted(keys)

    def test_first_event_never_regresses(self):
        """The first event has no predecessor, whatever its timestamp."""
        trace = merge_rank_traces([[ev(E, "a", -4.0), ev(L, "a", -3.0)]])
        assert trace.validate() == []

    @settings(max_examples=40, deadline=None)
    @given(streams=st.lists(regressing_stream(), min_size=1, max_size=4))
    def test_streamed_events_ordered_without_regressions(self, streams):
        with tempfile.TemporaryDirectory() as td:
            write_archive(Path(td), dict(enumerate(streams)), buffer_events=3)
            trace = open_merged_trace(td)
            keys = [(ev.timestamp_cycles, ev.rank) for ev in trace.events()]
            if not any(i.code == "timestamp-regression" for i in trace.validate()):
                assert keys == sorted(keys)


# -- any split into blocks walks the same ------------------------------------------

REGIONS = ("main", "solve", "kernel")


@st.composite
def defective_stream(draw):
    """A well-nested stream with ascending timestamps, and stray LEAVEs,
    LEAVEs of any region (out of order, unless it is on top) and
    timestamp regressions spliced in.  Returns the events and the
    positions of the spliced ones.  The steps are exact binary
    fractions, so regions often tie for a window's top."""
    events, stack, t = [], [], 0.0
    for _ in range(draw(st.integers(0, 30))):
        t += draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        shape = draw(st.sampled_from(["enter", "leave", "collective", "p2p"]))
        if shape == "enter" or (shape == "leave" and not stack):
            stack.append(draw(st.sampled_from(REGIONS)))
            events.append(ev(E, stack[-1], t))
        elif shape == "leave":
            events.append(ev(L, stack.pop(), t))
        elif shape == "collective":
            op = draw(st.sampled_from(["MPI_Allreduce", "MPI_Barrier"]))
            events.append(ev(M, op, t))
        else:
            op = draw(st.sampled_from(["MPI_Isend", "MPI_Irecv"]))
            events.append(ev(M, op, t, mid=draw(st.integers(0, 2))))
    events.append(ev(M, "MPI_Finalize", t + 1.0))
    spliced = []
    for defect in draw(
        st.lists(st.sampled_from(["stray", "any-leave", "regression"]), max_size=3)
    ):
        at = draw(st.integers(0, len(events) - 1))
        t = events[at].timestamp_cycles
        if defect == "stray":
            event = ev(L, "ghost", t)
        elif defect == "any-leave":
            event = ev(L, draw(st.sampled_from(REGIONS)), t)
        else:
            event = ev(M, "MPI_Barrier", t - draw(st.sampled_from([0.5, 4.0])))
        events.insert(at + 1, event)
        spliced.append(event)
    return events, [i for i, e in enumerate(events) if any(e is d for d in spliced)]


@st.composite
def split_into_blocks(draw, events, defects):
    """``events`` cut into blocks at random points, or into one-event
    blocks, with cuts next to the defects; every block with region ids of
    its own (as the in-memory merge builds them), or all sharing one
    name table (as an archive's blocks do); sometimes an empty block."""
    n = len(events)
    if draw(st.integers(0, 3)) == 0:
        cuts = set(range(n))
    else:
        cuts = set(draw(st.lists(st.integers(0, n), max_size=6)))
        for at in defects:
            cuts.update(draw(st.sampled_from([(), (at,), (at + 1,), (at, at + 1)])))
    bounds = sorted(cuts | {0, n})
    spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if draw(st.booleans()):
        blocks = [EventBlock.from_events(events[a:b]) for a, b in spans]
    else:
        whole = EventBlock.from_events(events)
        blocks = [
            EventBlock(
                whole.kind[a:b], whole.region[a:b], whole.t[a:b], whole.mid[a:b],
                whole.names,
            )
            for a, b in spans
        ]
    if draw(st.booleans()):
        blocks.insert(draw(st.integers(0, len(blocks))), EventBlock.from_events([]))
    return blocks


@st.composite
def disjoint_windows(draw):
    """Disjoint, ascending ``(begin, end)`` windows; adjacent ones may
    touch, as a rank's segment windows do."""
    bounds = sorted(draw(st.lists(st.integers(-12, 180), unique=True, max_size=12)))
    values = [b / 2 for b in bounds]
    if draw(st.booleans()):
        return list(zip(values, values[1:]))
    return list(zip(values[::2], values[1::2]))


def loop_blocks(monkeypatch):
    """First timestamp of every block walked event by event."""
    taken = []
    rows = tracing._Walk.rows

    def spy(self, block, region):
        taken.append(float(block.t[0]))
        return rows(self, block, region)

    monkeypatch.setattr(tracing._Walk, "rows", spy)
    return taken


class TestAnySplit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), windows=disjoint_windows())
    def test_any_block_split_walks_the_same(self, data, windows):
        """Clean blocks walk as columns, the others event by event; the
        walk equals the per-event references field by field whatever
        the cuts."""
        events, defects = data.draw(
            st.one_of(
                defective_stream(),
                regressing_stream().map(lambda events: (events, [])),
            )
        )
        blocks = data.draw(split_into_blocks(events, defects))
        walk = walk_stream(blocks, windows)
        assert walk.issues == ref_validate_trace(events)
        assert walk.tops == ref_top_regions_by_segment(events, windows)
        assert walk.markers == ref_markers(events)
        assert walk.count == len(events)
        assert walk_scan(walk) == scan_blocks(blocks)

    def test_clean_and_per_event_blocks_alternate(self, monkeypatch):
        """A clean block after a block walked event by event, and the
        reverse: the stack, the clock and the window position carry
        over."""
        events = [
            ev(E, "main", 0.0), ev(E, "solve", 1.0), ev(M, "MPI_Allreduce", 2.0),
            # a LEAVE of an inner region closes kernel implicitly
            ev(E, "kernel", 3.0), ev(L, "solve", 4.0), ev(E, "io", 5.0),
            ev(M, "MPI_Barrier", 6.0), ev(L, "io", 7.0), ev(E, "solve", 8.0),
            # a timestamp regression
            ev(M, "MPI_Barrier", 7.5), ev(L, "solve", 8.5),
            ev(E, "kernel", 9.0), ev(L, "kernel", 10.0), ev(L, "main", 11.0),
            ev(M, "MPI_Finalize", 12.0),
        ]
        cuts = [0, 3, 6, 9, 11, len(events)]
        blocks = [EventBlock.from_events(events[a:b]) for a, b in zip(cuts, cuts[1:])]
        windows = [(0.5, 2.5), (2.5, 6.5), (7.0, 11.0)]
        taken = loop_blocks(monkeypatch)
        walk = walk_stream(blocks, windows)
        assert taken == [3.0, 7.5]
        assert [i.code for i in walk.issues] == [
            "unbalanced-leave-resync", "timestamp-regression",
        ]
        assert walk.issues == ref_validate_trace(events)
        assert walk.tops == ref_top_regions_by_segment(events, windows)
        assert walk.markers == ref_markers(events)

    def test_window_position_carries_into_the_loop(self, monkeypatch):
        """Windows a clean block has passed stay passed when a later
        block regresses into them."""
        events = [
            # the interval from 4.5 starts where the second window ends
            ev(E, "main", 3.0), ev(M, "MPI_Barrier", 4.5), ev(L, "main", 5.0),
            # back to 0.0: the loop must not reopen the first two windows
            ev(E, "io", 0.0), ev(L, "io", 4.0),
        ]
        blocks = [EventBlock.from_events(events[:3]), EventBlock.from_events(events[3:])]
        windows = [(0.0, 2.0), (2.0, 4.5), (5.0, 9.0)]
        taken = loop_blocks(monkeypatch)
        walk = walk_stream(blocks, windows)
        assert taken == [0.0]
        assert walk.tops == ref_top_regions_by_segment(events, windows)
        assert walk.tops == [None, "main", None]

    def test_clean_archive_takes_no_per_event_walk(self, tmp_path, monkeypatch):
        """Every block of a clean archive is walked as columns: by the
        post-mortem's windowed walks and by the watchdog's."""
        write_archive(tmp_path, ring_streams(), buffer_events=3)
        taken = loop_blocks(monkeypatch)
        trace = open_merged_trace(tmp_path)
        assert trace.validate() == []
        assert trace.critical_path()
        assert scan_run(tmp_path) == []
        assert taken == []


@pytest.fixture
def opened(monkeypatch):
    """Every ``iter_location_blocks`` open, by path, whichever module
    calls it."""
    paths = []
    read = store.iter_location_blocks

    def counting(path, **kwargs):
        paths.append(Path(path))
        return read(path, **kwargs)

    for module in (store, streaming, watchdog):
        monkeypatch.setattr(module, "iter_location_blocks", counting, raising=False)
    return paths


@pytest.fixture
def built(monkeypatch):
    """How many event objects of each class are built, in this process."""
    counts = {TraceEvent: 0}
    for cls in counts:

        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def traced_world(trace_dir=None, backend="supervised"):
    """A traced 8-rank world on the supervised backend (or ``backend``),
    archived in ``trace_dir`` (or kept in memory without one)."""
    return run_app(
        build_app(make_demo_builder().build()),
        mode="ic",
        tool="scorep",
        ic=InstrumentationConfig(functions=frozenset({"kernel", "solve"})),
        ranks=8,
        workload=Workload(site_cap=4),
        imbalance=ImbalanceSpec(imbalance=0.3, seed=7),
        tracing=True,
        trace_dir=None if trace_dir is None else str(trace_dir),
        backend=backend,
    )


class TestReadsPerPostMortem:
    def test_scan_run_opens_each_location_once(self, tmp_path, opened):
        """The watchdog's integrity, defect and wait rules all read one
        strict walk per location."""
        streams = ring_streams()
        write_archive(tmp_path, streams, buffer_events=3)
        assert scan_run(tmp_path) == []
        assert sorted(opened) == [location_path(tmp_path, r) for r in sorted(streams)]

    def test_traced_world_and_post_mortem_reads(self, tmp_path, opened):
        """A traced 8-rank world reads each location once: the rank gate
        reads it in, walks it and hands the blocks to the in-world merge.
        Its post-mortem (open, validate, wait states, critical path,
        classification, watchdog) reads each three times: the open's
        scan, the analyses' walk and the watchdog's walk."""
        out = traced_world(tmp_path)
        locations = [location_path(tmp_path, r) for r in range(8)]
        assert sorted(opened) == locations
        assert all(r.trace for r in out.multirank.per_rank)
        opened.clear()
        trace = open_merged_trace(tmp_path)
        assert trace.validate() == []
        trace.wait_states()
        trace.critical_path()
        classify_wait_states(trace)
        assert scan_run(tmp_path) == []
        assert sorted(opened) == sorted(locations * 3)

    def test_unsupervised_and_in_memory_world_reads(self, tmp_path, opened):
        """Without the gate, ``run_multirank`` reads each published
        location once for the merge; a world kept in memory reads none."""
        traced_world(tmp_path, backend="serial")
        assert sorted(opened) == [location_path(tmp_path, r) for r in range(8)]
        opened.clear()
        traced_world()
        assert opened == []

    def test_analyses_open_each_location_once(self, tmp_path, monkeypatch):
        """After the open's alignment scan, ``validate``, ``critical_path``
        and ``classify_wait_states`` together read each location file
        once: the walks are kept on the trace."""
        streams = ring_streams()
        write_archive(tmp_path, streams, buffer_events=3)
        trace = open_merged_trace(tmp_path)
        opened = []
        read = streaming.iter_location_blocks

        def counting(path, **kwargs):
            opened.append(Path(path))
            return read(path, **kwargs)

        monkeypatch.setattr(streaming, "iter_location_blocks", counting)
        trace.validate()
        trace.wait_states()
        trace.critical_path()
        classify_wait_states(trace)
        trace.validate()
        assert sorted(opened) == [location_path(tmp_path, r) for r in sorted(streams)]

    def test_traced_world_and_post_mortem_build_no_event_objects(
        self, tmp_path, built
    ):
        """A traced 8-rank world and its post-mortem build no event
        objects: the tracers record rows, and the rank gate, the
        in-world merge and every walk read block columns."""
        out = traced_world(tmp_path)
        recorded = sum(r.trace_meta.events for r in out.multirank.per_rank)
        trace = open_merged_trace(tmp_path)
        assert trace.validate() == []
        trace.wait_states()
        assert trace.critical_path()
        classify_wait_states(trace)
        assert scan_run(tmp_path) == []
        assert recorded > 0
        assert built == {TraceEvent: 0}

    def test_in_memory_world_and_its_analyses_build_no_event_objects(self, built):
        """Without an archive the ranks ship their blocks, and the rank
        gate, the merge and the analyses read them as columns too."""
        trace = traced_world().merged_trace
        assert sum(trace.events_per_rank) > 0
        assert trace.validate() == []
        trace.wait_states()
        assert trace.critical_path()
        classify_wait_states(trace)
        assert built == {TraceEvent: 0}
