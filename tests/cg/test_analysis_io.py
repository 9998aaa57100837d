"""Tests for call-graph analyses and JSON round-trip."""

import numpy as np
import pytest

from benchmarks.reference import dict_topo_order
from repro.cg.analysis import aggregate_statement_dense, call_depth_dense
from repro.cg.graph import CallGraph, NodeMeta
from repro.cg.io import from_dict, load, save, to_dict
from repro.cg.merge import build_whole_program_cg
from repro.core.pipeline import run_spec
from repro.core.selectors import AllSelector, CallDepth
from repro.core.spec.modules import load_spec
from repro.errors import CallGraphError
from tests.conftest import make_demo_builder


def select(graph: CallGraph, source: str) -> frozenset[str]:
    return run_spec(load_spec(source), graph).selected


def aggregate_statements(graph: CallGraph, root: str) -> dict[str, int]:
    """Aggregated statement totals of the nodes reached from ``root``."""
    root_id = graph.id_of(root)
    dense = aggregate_statement_dense(graph, root_id)
    return {
        graph.name_of(nid): int(dense[nid])
        for nid in graph.reachable_ids([root_id])
    }


def chain_graph():
    g = CallGraph()
    for name, stmts in (
        ("main", 2), ("a", 3), ("b", 5), ("kernel", 20), ("other", 7)
    ):
        g.add_node(name, NodeMeta(statements=stmts, has_body=True))
    g.add_edge("main", "a")
    g.add_edge("a", "b")
    g.add_edge("b", "kernel")
    g.add_edge("main", "other")
    return g


class TestCallPaths:
    def test_on_call_path_to(self):
        g = chain_graph()
        assert select(g, 'onCallPathTo(byName("kernel", %%))') == {
            "kernel", "b", "a", "main",
        }

    def test_on_call_path_from(self):
        g = chain_graph()
        assert select(g, 'onCallPathFrom(byName("a", %%))') == {"a", "b", "kernel"}

    def test_call_path_between(self):
        g = chain_graph()
        between = select(g, 'callPath(byName("main", %%), byName("kernel", %%))')
        assert between == {"main", "a", "b", "kernel"}
        assert "other" not in between

    def test_call_depths(self):
        g = chain_graph()
        depths = call_depth_dense(g, g.id_of("main"))
        assert depths[g.id_of("main")] == 0
        assert depths[g.id_of("kernel")] == 3
        assert np.array_equal(np.flatnonzero(depths >= 0), sorted(g.node_ids()))

    def test_call_depths_unknown_root(self):
        selector = CallDepth(">=", 0, AllSelector(), root="ghost")
        assert selector.evaluate(chain_graph()) == frozenset()


class TestStatementAggregation:
    def test_aggregation_along_chain(self):
        g = chain_graph()
        agg = aggregate_statements(g, "main")
        assert agg["main"] == 2
        assert agg["a"] == 5
        assert agg["kernel"] == 30  # 2+3+5+20

    def test_aggregation_takes_max_path(self):
        g = CallGraph()
        for name, stmts in (("main", 1), ("big", 50), ("small", 2), ("leaf", 3)):
            g.add_node(name, NodeMeta(statements=stmts, has_body=True))
        g.add_edge("main", "big")
        g.add_edge("main", "small")
        g.add_edge("big", "leaf")
        g.add_edge("small", "leaf")
        assert aggregate_statements(g, "main")["leaf"] == 54  # via big

    def test_aggregation_handles_cycles(self):
        g = CallGraph()
        for name in ("main", "x", "y"):
            g.add_node(name, NodeMeta(statements=4, has_body=True))
        g.add_edge("main", "x")
        g.add_edge("x", "y")
        g.add_edge("y", "x")  # cycle
        agg = aggregate_statements(g, "main")
        assert agg["x"] == agg["y"] == 12  # each SCC counted once


class TestTopoOrder:
    """Regression: the condensation DP must use an explicit topological
    order, not Tarjan's emission order (an implementation detail)."""

    def diamond_cycle_graph(self):
        # diamond (main -> a|b -> join) feeding a 2-cycle (c1 <-> c2)
        # that exits into a leaf
        g = CallGraph()
        for name, stmts in (
            ("main", 1), ("a", 10), ("b", 20), ("join", 5),
            ("c1", 3), ("c2", 4), ("leaf", 7),
        ):
            g.add_node(name, NodeMeta(statements=stmts, has_body=True))
        g.add_edge("main", "a")
        g.add_edge("main", "b")
        g.add_edge("a", "join")
        g.add_edge("b", "join")
        g.add_edge("join", "c1")
        g.add_edge("c1", "c2")
        g.add_edge("c2", "c1")  # cycle
        g.add_edge("c2", "leaf")
        return g

    def test_diamond_plus_cycle_aggregation(self):
        agg = aggregate_statements(self.diamond_cycle_graph(), "main")
        assert agg["main"] == 1
        assert agg["a"] == 11
        assert agg["b"] == 21
        assert agg["join"] == 26  # max path goes via b
        assert agg["c1"] == agg["c2"] == 33  # SCC counted once: 26 + (3+4)
        assert agg["leaf"] == 40

    def test_topo_order_is_edge_driven(self):
        # component 0 calls component 1: any id-based ordering heuristic
        # (the old "iterate comp ids high to low") would process the
        # callee first; Kahn over the edges must not.
        assert dict_topo_order([{1}, set()]) == [0, 1]
        assert dict_topo_order([set(), {0}]) == [1, 0]
        # diamond condensation: 0 -> {1, 2} -> 3
        order = dict_topo_order([{1, 2}, {3}, {3}, set()])
        assert order.index(0) < order.index(1)
        assert order.index(0) < order.index(2)
        assert order.index(3) == 3

    def test_interleaved_ids_still_aggregate_correctly(self):
        # force SCC ids that are NOT reverse-topological by adding the
        # deep nodes first, so any emission-order assumption breaks
        g = CallGraph()
        for name in ("leaf", "mid", "main"):
            g.add_node(name, NodeMeta(statements=2, has_body=True))
        g.add_edge("mid", "leaf")
        g.add_edge("main", "mid")
        agg = aggregate_statements(g, "main")
        assert agg == {"main": 2, "mid": 4, "leaf": 6}


class TestJsonRoundTrip:
    def test_roundtrip_preserves_graph(self, tmp_path):
        g = build_whole_program_cg(make_demo_builder().build())
        path = tmp_path / "cg.json"
        save(g, path)
        g2 = load(path)
        assert g2.node_names() == g.node_names()
        assert {(e.caller, e.callee, e.reason) for e in g2.edges()} == {
            (e.caller, e.callee, e.reason) for e in g.edges()
        }
        for node in g.nodes():
            assert g2.node(node.name).meta == node.meta

    def test_missing_header_rejected(self):
        with pytest.raises(CallGraphError):
            from_dict({"_CG": {}})

    def test_dict_shape(self):
        g = chain_graph()
        data = to_dict(g)
        assert "_MetaCG" in data
        assert data["_CG"]["b"]["callees"] == {"kernel": "direct"}
        assert data["_CG"]["kernel"]["meta"]["numStatements"] == 20
