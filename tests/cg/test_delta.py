"""Mutation journal and delta CSR refresh: the bit-identity contract.

The hard contract of the incremental path: a snapshot repaired through
:meth:`CsrSnapshot.refresh` must be *bit-identical* — same values, same
dtypes — to a from-scratch build at the same version, for any edit
sequence the journal can express, including cyclic deltas, node
removals with re-adds, and log truncation (where refresh must detect it
cannot answer and fall back to the full rebuild).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.reference import dict_aggregate_statement_ids
from repro.cg import csr as csr_kernels
from repro.cg.analysis import aggregate_statement_dense, call_depth_dense
from repro.cg.csr import CsrSnapshot
from repro.cg.delta import DeltaEntry, DeltaKind, DeltaLog, summarize
from repro.cg.graph import CallGraph, EdgeReason, NodeMeta

META_ATTRS = ("statements", "flops", "loop_depth", "has_body", "in_system_header")


def assert_bit_identical(actual: CsrSnapshot, expected: CsrSnapshot) -> None:
    assert actual.version == expected.version
    assert actual.n == expected.n
    for attr in (
        "succ_indptr",
        "succ_indices",
        "pred_indptr",
        "pred_indices",
        "alive",
        "live_ids",
    ):
        a, e = getattr(actual, attr), getattr(expected, attr)
        assert a.dtype == e.dtype, attr
        assert np.array_equal(a, e), attr
    for attr in META_ATTRS:
        a, e = actual.meta_column(attr), expected.meta_column(attr)
        assert a.dtype == e.dtype, attr
        assert np.array_equal(a, e), attr


def assert_analyses_valid(graph: CallGraph, snapshot: CsrSnapshot) -> None:
    """A snapshot's analysis memos must equal recomputation from scratch."""
    for (kind, root), value in snapshot.analyses.items():
        reach = csr_kernels.sweep(
            snapshot.succ_indptr, snapshot.succ_indices, (root,), snapshot.n
        )
        if kind == "reach":
            assert np.array_equal(value, reach), ("reach", root)
        elif kind == "reachset":
            assert value == frozenset(np.flatnonzero(reach).tolist())
        elif kind == "depth":
            ref = csr_kernels.bfs_depths(
                snapshot.succ_indptr, snapshot.succ_indices, root, snapshot.n
            )
            assert np.array_equal(value, ref), ("depth", root)
        elif kind == "agg":
            dense = np.zeros(snapshot.n, dtype=np.int64)
            for nid, total in dict_aggregate_statement_ids(graph, root).items():
                dense[nid] = total
            assert np.array_equal(value, dense), ("agg", root)


class TestDeltaLog:
    def test_one_entry_per_bump_and_window_invariant(self):
        log = DeltaLog(max_entries=8)
        for i in range(5):
            log.record(DeltaEntry(DeltaKind.NODE_ADDED, i))
        assert len(log) == 5
        assert log.base_version == 0
        assert len(log.entries_since(0, 5)) == 5
        assert len(log.entries_since(3, 5)) == 2
        assert log.entries_since(5, 5) == []

    def test_truncation_advances_base_and_answers_none(self):
        log = DeltaLog(max_entries=3)
        for i in range(5):
            log.record(DeltaEntry(DeltaKind.EDGE_ADDED, i, other=i + 1))
        assert log.base_version == 2
        assert log.entries_since(1, 5) is None  # truncated past v1
        assert len(log.entries_since(2, 5)) == 3
        assert log.entries_since(6, 5) is None  # future version: not ours

    def test_summarize_folds_removal_neighbours_into_rows(self):
        entries = [
            DeltaEntry(DeltaKind.NODE_REMOVED, 3, preds=(1, 2), succs=(4,)),
        ]
        delta = summarize(entries, 7, 8)
        assert delta.universe_changed
        assert delta.struct_touched == frozenset({1, 2, 3, 4})
        assert delta.succ_rows == frozenset({1, 2, 3})  # callers lose a target
        assert delta.pred_rows == frozenset({3, 4})  # callee loses a caller

    def test_reason_upgrade_touches_no_rows(self):
        delta = summarize(
            [DeltaEntry(DeltaKind.REASON_UPGRADED, 0, other=1)], 0, 1
        )
        assert delta.row_count == 0
        assert delta.struct_touched == frozenset({0, 1})
        assert not delta.universe_changed


class TestGraphJournal:
    def test_delta_since_current_is_empty(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        delta = graph.delta_since(graph.version)
        assert delta is not None
        assert delta.row_count == 0 and not delta.universe_changed

    def test_delta_since_folds_edit_gap(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        v = graph.version
        graph.add_edge("a", "c")  # interns c: node + edge
        delta = graph.delta_since(v)
        assert delta.added == frozenset({graph.id_of("c")})
        assert graph.id_of("a") in delta.succ_rows

    def test_truncated_log_returns_none(self):
        graph = CallGraph(max_delta_entries=2)
        graph.add_edge("a", "b")
        v = graph.version
        for i in range(4):
            graph.add_edge("a", f"x{i}")
        assert graph.delta_since(v) is None

    def test_foreign_version_returns_none(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        assert graph.delta_since(graph.version + 1) is None


class TestNoOpMergeRegression:
    """Satellite bugfix: a no-op metadata merge must not bump the version."""

    def test_redeclaring_a_definition_keeps_version(self):
        graph = CallGraph()
        graph.add_node("f", NodeMeta(statements=5, has_body=True))
        v = graph.version
        graph.add_node("f")  # bare declaration: merged_with is a no-op
        assert graph.version == v
        graph.add_node("f", NodeMeta(statements=5, has_body=True))  # identical
        assert graph.version == v

    def test_noop_merge_keeps_warm_snapshot_object(self):
        graph = CallGraph()
        graph.add_node("f", NodeMeta(statements=5, has_body=True))
        snapshot = graph.csr()
        graph.add_node("f")
        assert graph.csr() is snapshot  # no invalidation at all

    def test_real_merge_still_bumps(self):
        graph = CallGraph()
        graph.add_edge("main", "f")  # f interned as a declaration
        v = graph.version
        graph.add_node("f", NodeMeta(statements=9, has_body=True))
        assert graph.version == v + 1


# -- the edit-sequence property ----------------------------------------------------

_POOL = [f"f{i}" for i in range(10)]
_REASONS = (EdgeReason.DIRECT, EdgeReason.VIRTUAL, EdgeReason.PROFILE)

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("edge"),
            st.integers(0, len(_POOL) - 1),
            st.integers(0, len(_POOL) - 1),
            st.integers(0, len(_REASONS) - 1),
        ),
        st.tuples(st.just("define"), st.integers(0, len(_POOL) - 1), st.integers(1, 9)),
        st.tuples(st.just("declare"), st.integers(0, len(_POOL) - 1)),
        st.tuples(st.just("remove"), st.integers(0, len(_POOL) - 1)),
    ),
    min_size=1,
    max_size=24,
)


def _apply(graph: CallGraph, op: tuple) -> None:
    if op[0] == "edge":
        _, i, j, r = op
        graph.add_edge(_POOL[i], _POOL[j], _REASONS[r])
    elif op[0] == "define":
        _, i, stmts = op
        name = _POOL[i]
        nid = graph.id_of(name)
        if nid is not None and graph.meta_of(nid).has_body:
            graph.add_node(name, graph.meta_of(nid))  # identical: no-op
        else:
            graph.add_node(name, NodeMeta(statements=stmts, has_body=True))
    elif op[0] == "declare":
        graph.add_node(_POOL[op[1]])
    else:
        name = _POOL[op[1]]
        if name in graph and len(graph) > 1:
            graph.remove_node(name)


class TestRefreshBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops, log_cap=st.sampled_from([1, 2, 4096]))
    def test_random_edit_sequences(self, ops, log_cap):
        """Every step: the graph's (refresh-path) snapshot is bit-identical
        to a from-scratch build — including truncation fallback (tiny log
        caps) and cyclic deltas (random edges make cycles freely)."""
        graph = CallGraph(max_delta_entries=log_cap)
        graph.add_edge("f0", "f1")
        graph.csr()  # warm snapshot the refreshes chain from
        for op in ops:
            _apply(graph, op)
            snapshot = graph.csr()
            assert_bit_identical(snapshot, CsrSnapshot(graph))
            assert_analyses_valid(graph, snapshot)

    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_analyses_carry_stays_correct(self, ops):
        """Interleave root-keyed analyses with edits: the delta refresh
        carries none of them, so a refreshed snapshot's memos equal a
        rebuilt one's (both empty), and a kept snapshot's stay valid."""
        graph = CallGraph()
        graph.add_edge("f0", "f1")
        graph.add_edge("f1", "f2")
        for op in ops:
            root = graph.id_of("f0")
            if root is not None:
                call_depth_dense(graph, root)
                aggregate_statement_dense(graph, root)
            before = graph.csr()
            _apply(graph, op)
            snapshot = graph.csr()
            assert_bit_identical(snapshot, CsrSnapshot(graph))
            assert_analyses_valid(graph, snapshot)
            if snapshot is not before:
                assert snapshot.analyses == CsrSnapshot(graph).analyses == {}

    def test_refresh_rebuilds_for_foreign_graph(self):
        a, b = CallGraph(), CallGraph()
        a.add_edge("x", "y")
        b.add_edge("x", "y")
        snapshot = a.csr()
        rebuilt = snapshot.refresh(b)
        assert rebuilt.refreshed_from is None  # full build, not a patch
        assert_bit_identical(rebuilt, CsrSnapshot(b))

    def test_refresh_respects_max_rows(self):
        graph = CallGraph()
        for i in range(8):
            graph.add_edge("hub", f"leaf{i}")
        snapshot = graph.csr()
        for i in range(8):
            graph.add_edge(f"leaf{i}", "hub")
        rebuilt = snapshot.refresh(graph, max_rows=1)
        assert rebuilt.refreshed_from is None  # too wide: full rebuild
        assert_bit_identical(rebuilt, CsrSnapshot(graph))

    def test_unchanged_regions_share_arrays(self):
        """The refresh must patch, not copy: untouched direction arrays
        and meta columns come back as the very same objects."""
        graph = CallGraph()
        graph.add_edge("main", "a")
        graph.add_edge("a", "b")
        base = graph.csr()
        base.meta_column("statements")
        graph.add_edge("main", "a")  # no-op: same snapshot entirely
        assert graph.csr() is base
        graph.add_edge("a", "b", EdgeReason.DIRECT)  # still present: no-op
        assert graph.csr() is base
        graph.add_edge("main", "b")  # touches succ row of main, pred of b
        refreshed = graph.csr()
        assert refreshed is not base
        assert refreshed.refreshed_from == base.version
        # same universe: alive/live/meta shared by reference
        assert refreshed.alive is base.alive
        assert refreshed.live_ids is base.live_ids
        assert refreshed.meta_column("statements") is base.meta_column("statements")
