"""Multi-rank trace merge: logical-clock alignment, wait states, critical path."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ic import InstrumentationConfig
from repro.errors import CapiError
from repro.execution.workload import Workload
from repro.multirank import (
    ImbalanceSpec,
    align_blocks,
    merge_rank_traces,
    run_multirank,
)
from repro.scorep.tracing import EventBlock, TraceEvent, TraceEventKind
from repro.workflow import build_app, run_app
from tests.conftest import make_demo_builder

WL = Workload(site_cap=4)
E, L, M = TraceEventKind.ENTER, TraceEventKind.LEAVE, TraceEventKind.MPI


def ev(kind, region, t):
    return TraceEvent(kind, region, float(t))


@pytest.fixture(scope="module")
def demo_app():
    return build_app(make_demo_builder().build())


@pytest.fixture(scope="module")
def demo_ic():
    return InstrumentationConfig(functions=frozenset({"kernel", "solve"}))


class TestAlignment:
    def test_collective_exits_coincide(self):
        """The alignment rule: matching collective events land on the
        latest arriver's clock; earlier ranks absorb the gap as wait."""
        fast = [ev(E, "main", 10), ev(M, "MPI_Allreduce", 20), ev(L, "main", 30)]
        slow = [ev(E, "main", 10), ev(M, "MPI_Allreduce", 50), ev(L, "main", 60)]
        merged = merge_rank_traces([fast, slow])
        [sp] = merged.sync_points
        assert sp.op == "MPI_Allreduce"
        assert sp.aligned_cycles == 50.0
        assert sp.local_cycles == (20.0, 50.0)
        # rank 1, the last to arrive, waits for nobody
        assert sp.wait_cycles == (30.0, 0.0)
        assert sp.wait_cycles[1] == 0.0
        # rank 0's events after the collective shift by its offset
        rank0 = merged.per_rank[0]
        assert [e.timestamp_cycles for e in rank0] == [10.0, 50.0, 60.0]
        # rank 1 (the bottleneck) is untouched
        assert [e.timestamp_cycles for e in merged.per_rank[1]] == [
            10.0, 50.0, 60.0,
        ]

    def test_events_before_sync_keep_local_clock(self):
        fast = [ev(E, "a", 5), ev(M, "MPI_Barrier", 10)]
        slow = [ev(E, "a", 5), ev(M, "MPI_Barrier", 40)]
        merged = merge_rank_traces([fast, slow])
        assert merged.per_rank[0][0].timestamp_cycles == 5.0

    def test_offsets_accumulate_monotonically(self):
        """A rank that trails at every collective accumulates wait; its
        aligned stream stays timestamp-monotone throughout."""
        fast = [ev(M, "MPI_Allreduce", 10), ev(M, "MPI_Allreduce", 20),
                ev(M, "MPI_Finalize", 30)]
        slow = [ev(M, "MPI_Allreduce", 30), ev(M, "MPI_Allreduce", 60),
                ev(M, "MPI_Finalize", 90)]
        merged = merge_rank_traces([fast, slow])
        assert merged.rank_offsets == (60.0, 0.0)
        stamps = [e.timestamp_cycles for e in merged.per_rank[0]]
        assert stamps == sorted(stamps) == [30.0, 60.0, 90.0]
        assert merged.validate() == []

    def test_ragged_collective_counts_still_anchor_finalize(self):
        """Rank-scaled iteration counts mean ragged interior collective
        sequences; the final MPI_Finalize must still align so the total
        wait matches the reducer's finalize_wait attribution."""
        light = [ev(M, "MPI_Allreduce", 10), ev(M, "MPI_Allreduce", 20),
                 ev(M, "MPI_Finalize", 30)]
        heavy = [ev(M, "MPI_Allreduce", 10), ev(M, "MPI_Allreduce", 20),
                 ev(M, "MPI_Allreduce", 30), ev(M, "MPI_Finalize", 40)]
        merged = merge_rank_traces([light, heavy])
        assert merged.sync_points[-1].op == "MPI_Finalize"
        assert merged.sync_points[-1].aligned_cycles == 40.0
        assert merged.rank_offsets == (10.0, 0.0)
        # the heavy rank's third allreduce is unmatched: no sync point
        assert [sp.op for sp in merged.sync_points] == [
            "MPI_Allreduce", "MPI_Allreduce", "MPI_Finalize",
        ]

    def test_divergent_op_names_stop_interior_matching(self):
        a = [ev(M, "MPI_Barrier", 10), ev(M, "MPI_Finalize", 20)]
        b = [ev(M, "MPI_Allreduce", 10), ev(M, "MPI_Finalize", 30)]
        merged = merge_rank_traces([a, b])
        assert [sp.op for sp in merged.sync_points] == ["MPI_Finalize"]
        assert merged.rank_offsets == (10.0, 0.0)

    def test_non_synchronizing_mpi_is_not_an_anchor(self):
        """Point-to-point and non-synchronizing collectives (MPI_Bcast
        completes locally) must not act as synchronisation points."""
        a = [ev(M, "MPI_Send", 10), ev(M, "MPI_Bcast", 20)]
        b = [ev(M, "MPI_Send", 90), ev(M, "MPI_Bcast", 95)]
        merged = merge_rank_traces([a, b])
        assert merged.sync_points == []
        assert merged.rank_offsets == (0.0, 0.0)

    def test_single_rank_world_is_identity(self):
        stream = [ev(E, "main", 1), ev(M, "MPI_Finalize", 5), ev(L, "main", 9)]
        merged = merge_rank_traces([stream])
        assert merged.rank_offsets == (0.0,)
        assert [dataclasses.replace(e, rank=None) for e in merged.events] == stream

    def test_empty_input(self):
        merged = merge_rank_traces([])
        assert merged.events == []
        assert merged.elapsed_cycles == 0.0
        assert merged.critical_path() == []

    def test_partially_synchronised_world_rejected(self):
        """A world where only some ranks reach the collectives is
        malformed input (mirrors merge_profiles' all-or-nothing
        contract); silently skipping alignment would present an
        unaligned timeline as one with zero wait everywhere."""
        with_sync = [ev(M, "MPI_Finalize", 10)]
        without = [ev(E, "main", 1), ev(L, "main", 2)]
        with pytest.raises(CapiError, match="every rank or no rank"):
            merge_rank_traces([with_sync, without])


def loop_align(times, plan):
    """The per-event schedule replay the column replay replaced, kept as
    the reference: each event advances past every anchor it has reached,
    never back, and carries the last offset passed."""
    step, offset, out = 0, 0.0, []
    for t in times:
        while step < len(plan) and t >= plan[step][0]:
            offset = plan[step][1]
            step += 1
        out.append(t + offset)
    return out


#: values that tie, that sum inexactly (0.1 + 0.2) and that span
#: magnitudes, so anchors and events collide and regress
STAMPS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1.0, 2.5, 1e9 / 3.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


class TestReplay:
    @settings(max_examples=400, deadline=None)
    @given(
        times=st.lists(STAMPS, max_size=40),
        plan=st.lists(st.tuples(STAMPS, STAMPS), max_size=8),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    def test_column_replay_equals_loop_in_any_blocks(self, times, plan, cuts):
        """Unsorted anchors, regressions and ties, split anywhere into
        blocks: the aligned timestamps are the loop's, bit for bit."""
        bounds = [0, *sorted(min(c, len(times)) for c in cuts), len(times)]
        blocks = [
            EventBlock.from_events([ev(E, "a", t) for t in times[lo:hi]])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        got = [t for block in align_blocks(blocks, plan) for t in block.t.tolist()]
        assert [t.hex() for t in got] == [t.hex() for t in loop_align(times, plan)]

    def test_last_aligned_is_the_final_events_after_a_regression(self):
        """A stream that regresses below an anchor it already passed
        keeps that anchor's offset, to its last event."""
        fast = [ev(M, "MPI_Allreduce", 10), ev(E, "a", 40), ev(L, "a", 5)]
        slow = [ev(M, "MPI_Allreduce", 30), ev(E, "a", 35), ev(L, "a", 36)]
        merged = merge_rank_traces([fast, slow])
        assert merged.per_rank[0][-1].timestamp_cycles == 25.0
        assert merged.last_aligned == tuple(
            stream[-1].timestamp_cycles for stream in merged.per_rank
        )


class TestAnalyses:
    def test_wait_states_name_the_blocking_ranks(self):
        fast = [ev(M, "MPI_Allreduce", 20), ev(M, "MPI_Finalize", 40)]
        slow = [ev(M, "MPI_Allreduce", 50), ev(M, "MPI_Finalize", 70)]
        merged = merge_rank_traces([fast, slow])
        waits = merged.wait_states()
        assert all(w.rank == 0 for w in waits)
        assert waits[0].wait_cycles == 30.0
        assert waits[0].begin_cycles == 20.0
        assert waits[0].end_cycles == 50.0

    def test_critical_path_follows_the_slow_rank(self):
        fast = [ev(E, "calc", 1), ev(L, "calc", 19), ev(M, "MPI_Allreduce", 20),
                ev(M, "MPI_Finalize", 40)]
        slow = [ev(E, "calc", 1), ev(L, "calc", 49), ev(M, "MPI_Allreduce", 50),
                ev(M, "MPI_Finalize", 70)]
        merged = merge_rank_traces([fast, slow])
        path = merged.critical_path()
        # segment up to the allreduce: rank 1 worked 50 vs rank 0's 20
        first = path[0]
        assert (first.rank, first.duration_cycles) == (1, 50.0)
        assert first.top_region == "calc"
        # segment durations sum to the aligned makespan
        assert sum(seg.duration_cycles for seg in path) == pytest.approx(
            merged.elapsed_cycles
        )

    def test_wait_free_durations_exclude_blocking(self):
        """The critical-path duration measures work, not wait: the fast
        rank's segment duration is its local 20 cycles even though its
        aligned gap to the collective completion spans 50."""
        fast = [ev(M, "MPI_Allreduce", 20), ev(M, "MPI_Finalize", 30)]
        slow = [ev(M, "MPI_Allreduce", 50), ev(M, "MPI_Finalize", 60)]
        merged = merge_rank_traces([fast, slow])
        seg0 = merged.critical_path()[0]
        assert seg0.rank == 1
        assert seg0.duration_cycles == 50.0

    def test_validate_flags_cross_rank_defects_per_rank(self):
        bad = [ev(E, "a", 1), ev(M, "MPI_Finalize", 5)]  # unclosed 'a'
        good = [ev(E, "b", 1), ev(L, "b", 3), ev(M, "MPI_Finalize", 6)]
        merged = merge_rank_traces([bad, good])
        problems = merged.validate()
        assert [str(p) for p in problems] == ["rank 0: unclosed region a"]
        assert problems[0].code == "unclosed-region"
        assert problems[0].rank == 0

    def test_render_mentions_waits_and_critical_path(self):
        fast = [ev(M, "MPI_Allreduce", 20), ev(M, "MPI_Finalize", 40)]
        slow = [ev(M, "MPI_Allreduce", 50), ev(M, "MPI_Finalize", 70)]
        rendered = merge_rank_traces([fast, slow]).render()
        assert "wait states" in rendered
        assert "critical path" in rendered
        assert "rank 0" in rendered


class TestRunAppTracing:
    """Acceptance: the multi-rank path records, ships and merges traces."""

    @pytest.fixture(scope="class")
    def traced(self, demo_app, demo_ic):
        return run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=4,
            workload=WL, imbalance=ImbalanceSpec(stragglers=1, seed=31),
            tracing=True,
        )

    def test_rejection_is_gone_and_merged_trace_present(self, traced):
        merged = traced.merged_trace
        assert merged is not None
        assert merged.ranks == 4
        assert len(merged.events) == sum(merged.events_per_rank)
        assert {e.rank for e in merged.events} == {0, 1, 2, 3}

    def test_merged_stream_validates_clean(self, traced):
        assert traced.merged_trace.validate() == []

    def test_lifecycle_anchors_present(self, traced):
        ops = [sp.op for sp in traced.merged_trace.sync_points]
        assert ops[0] == "MPI_Init"
        assert ops[-1] == "MPI_Finalize"
        assert "MPI_Allreduce" in ops

    def test_trace_waits_agree_with_reducer_attribution(self, traced):
        """The acceptance criterion: per-rank collective wait from the
        trace matches the reducer's synchronisation-wait attribution —
        same ranks flagged, magnitudes within one collective latency."""
        from repro.experiments.traces import collective_latency

        tol = collective_latency(4)
        trace_waits = traced.merged_trace.rank_offsets
        reducer_waits = traced.pop.rank_wait_cycles
        assert len(trace_waits) == len(reducer_waits) == 4
        for t, p in zip(trace_waits, reducer_waits):
            assert abs(t - p) <= tol
        assert [t > tol for t in trace_waits] == [
            p > tol for p in reducer_waits
        ]

    def test_straggler_owns_the_critical_path_tail(self, traced):
        merged = traced.merged_trace
        straggler = merged.rank_offsets.index(min(merged.rank_offsets))
        tail = [
            seg for seg in merged.critical_path() if seg.end_op == "MPI_Finalize"
        ]
        assert tail and tail[0].rank == straggler

    def test_backends_produce_bit_identical_timelines(
        self, demo_app, demo_ic, traced
    ):
        mp = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=4,
            workload=WL, imbalance=ImbalanceSpec(stragglers=1, seed=31),
            tracing=True, backend="multiprocessing",
        )
        assert mp.merged_trace.events == traced.merged_trace.events
        assert mp.merged_trace.rank_offsets == traced.merged_trace.rank_offsets
        assert [
            (sp.op, sp.aligned_cycles, sp.wait_cycles)
            for sp in mp.merged_trace.sync_points
        ] == [
            (sp.op, sp.aligned_cycles, sp.wait_cycles)
            for sp in traced.merged_trace.sync_points
        ]

    def test_traced_rank_results_compare(self, demo_app, demo_ic, traced):
        """A rerun's results hold equal blocks in distinct arrays: they
        compare equal, and a changed timestamp makes them differ."""
        again = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=4,
            workload=WL, imbalance=ImbalanceSpec(stragglers=1, seed=31),
            tracing=True,
        ).multirank.per_rank
        first = traced.multirank.per_rank
        assert again[0].trace[0].t is not first[0].trace[0].t
        assert again == first
        block = again[0].trace[0]
        shifted = block._replace(t=block.t + 1.0)
        again[0] = dataclasses.replace(
            again[0], trace=(shifted,) + again[0].trace[1:]
        )
        assert again != first

    def test_tracing_false_leaves_outcome_untouched(self, demo_app, demo_ic):
        out = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=2,
            workload=WL, imbalance=ImbalanceSpec(),
        )
        assert out.merged_trace is None
        assert all(r.trace is None for r in out.multirank.per_rank)

    def test_tracing_needs_scorep_tool(self, demo_app, demo_ic):
        with pytest.raises(CapiError, match="scorep"):
            run_multirank(
                demo_app, ranks=2, imbalance=ImbalanceSpec(), mode="ic",
                tool="talp", ic=demo_ic, workload=WL, tracing=True,
            )

    def test_uniform_world_has_no_waits(self, demo_app, demo_ic):
        out = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=3,
            workload=WL, imbalance=ImbalanceSpec(), tracing=True,
        )
        merged = out.merged_trace
        assert merged.rank_offsets == (0.0, 0.0, 0.0)
        assert merged.wait_states() == []
        # identical ranks: the merged stream interleaves at equal stamps
        assert merged.validate() == []


class TestTracesExperiment:
    def test_check_passes_on_demo_scale(self):
        from repro.experiments.traces import main

        assert (
            main(
                [
                    "--app", "lulesh", "--nodes", "300", "--ranks", "4",
                    "--scenario", "trace-straggler", "--check",
                ]
            )
            == 0
        )

    def test_render_table_shape(self):
        from repro.experiments.runner import prepare_app
        from repro.experiments.traces import (
            compute_trace_row,
            render_trace_table,
        )

        prepared = prepare_app("lulesh", 300)
        row, outcome = compute_trace_row(prepared, "straggler", ranks=4)
        assert row.consistent
        assert outcome.merged_trace is not None
        rendered = render_trace_table([row])
        assert "straggler" in rendered and "yes" in rendered
