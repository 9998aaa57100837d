"""GraphStore: warm entries, LRU-by-bytes eviction, version invalidation."""

import pytest

from repro.cg.graph import CallGraph, NodeMeta
from repro.core.pipeline import compile_spec, evaluate_pipeline
from repro.errors import ServiceError
from repro.service import BatchEvaluator, GraphStore


def make_graph(seed: int = 0, nodes: int = 12) -> CallGraph:
    """A small app-shaped graph; ``seed`` varies structure and metadata."""
    g = CallGraph()
    g.add_node("main", NodeMeta(statements=5, has_body=True))
    g.add_node("MPI_Allreduce", NodeMeta(is_mpi=True, in_system_header=True))
    for i in range(nodes):
        g.add_node(
            f"fn_{seed}_{i}",
            NodeMeta(
                statements=1 + (i * 7 + seed) % 9,
                flops=(i * 13 + seed * 5) % 40,
                loop_depth=(i + seed) % 3,
                has_body=True,
            ),
        )
        caller = "main" if i % 3 == 0 else f"fn_{seed}_{(i * (seed + 2)) % max(i, 1)}"
        g.add_edge(caller, f"fn_{seed}_{i}")
    g.add_edge(f"fn_{seed}_{nodes - 1}", "MPI_Allreduce")
    return g


SPECS = (
    'onCallPathTo(byName("MPI_.*", %%))',
    'flops(">=", 10, %%)',
    'onCallPathFrom(byName("main", %%))',
    'subtract(onCallPathFrom(byName("main", %%)), flops(">=", 10, %%))',
)


def entry_bytes() -> int:
    store = GraphStore()
    store.admit("probe", make_graph())
    return store.entry("probe").nbytes


class TestAdmission:
    def test_unknown_key_raises(self):
        store = GraphStore()
        with pytest.raises(ServiceError, match="unknown graph key"):
            store.entry("nope")

    def test_admit_is_idempotent_for_same_object(self):
        store = GraphStore()
        g = make_graph()
        store.admit("a", g)
        store.entry("a")
        store.admit("a", g)  # same object: warm state survives
        assert store.peek("a") is not None
        assert store.stats.admitted == 1

    def test_readmitting_different_graph_drops_warm_state(self):
        store = GraphStore()
        store.admit("a", make_graph(seed=1))
        first = store.entry("a")
        replacement = make_graph(seed=2)
        store.admit("a", replacement)
        assert store.peek("a") is None
        entry = store.entry("a")
        assert entry.graph is replacement
        assert entry.cache is not first.cache

    def test_max_bytes_must_be_positive(self):
        with pytest.raises(ServiceError):
            GraphStore(max_bytes=0)

    def test_cache_entries_must_be_positive(self):
        # refused when configured, not on the first access inside a
        # shard worker, where the spec would take the blame
        with pytest.raises(ServiceError, match="cache_entries"):
            GraphStore(cache_entries=0)


class TestLruEviction:
    def test_mixed_access_keeps_lru_order_and_evicts_oldest(self):
        budget = 2 * entry_bytes()
        store = GraphStore(max_bytes=budget)
        for key, seed in (("a", 1), ("b", 2), ("c", 3)):
            store.admit(key, make_graph(seed=seed))
        store.entry("a")
        store.entry("b")
        assert store.warm_keys() == ["a", "b"]
        store.entry("a")  # touch: a becomes most recent
        assert store.warm_keys() == ["b", "a"]
        store.entry("c")  # over budget: b (now oldest) goes
        assert store.warm_keys() == ["a", "c"]
        assert store.stats.evictions == 1
        store.entry("b")  # cold re-admit evicts a
        assert store.warm_keys() == ["c", "b"]
        assert store.stats.evictions == 2
        assert store.total_bytes() <= budget

    def test_most_recent_entry_is_never_evicted(self):
        store = GraphStore(max_bytes=1)  # below any snapshot size
        store.admit("big", make_graph())
        entry = store.entry("big")
        assert store.warm_keys() == ["big"]
        assert entry.nbytes > 1  # genuinely over budget, still servable

    def test_eviction_only_affects_warm_state_not_admission(self):
        store = GraphStore(max_bytes=entry_bytes())
        store.admit("a", make_graph(seed=1))
        store.admit("b", make_graph(seed=2))
        store.entry("a")
        store.entry("b")
        assert store.warm_keys() == ["b"]
        assert "a" in store and "b" in store  # both still admitted


class TestVersionInvalidation:
    def test_version_bump_drops_only_that_graphs_entries(self):
        store = GraphStore()
        ga, gb = make_graph(seed=1), make_graph(seed=2)
        store.admit("a", ga)
        store.admit("b", gb)
        entry_a = store.entry("a")
        entry_b = store.entry("b")
        compiled = compile_spec(SPECS[0])
        evaluator = BatchEvaluator()
        evaluator.evaluate([compiled], entry_a)
        evaluator.evaluate([compiled], entry_b)
        b_store_before = dict(entry_b.cache._store)
        assert b_store_before  # b has warm results

        ga.add_node("late", NodeMeta(statements=1, has_body=True))
        ga.add_edge("late", "MPI_Allreduce")

        fresh_a = store.entry("a")
        assert store.stats.invalidations == 1
        assert fresh_a.version == ga.version
        assert fresh_a.cache is entry_a.cache  # same object, re-bound
        # b is untouched: same entry object, warm results intact
        assert store.peek("b") is entry_b
        assert dict(entry_b.cache._store) == b_store_before

        result = evaluator.evaluate([compiled], fresh_a).results[0]
        assert "late" in result.selected

    def test_stale_warm_entry_is_rebuilt_not_served(self):
        store = GraphStore()
        g = make_graph()
        store.admit("a", g)
        old = store.entry("a")
        g.add_node("extra", NodeMeta(statements=1, has_body=True))
        fresh = store.entry("a")
        assert fresh is not old
        assert fresh.version == g.version
        assert store.stats.warm_hits == 0
        assert store.stats.cold_builds == 2


class TestEvictedReadmission:
    def test_evicted_graph_readmits_cold_with_identical_results(self):
        """Property: for varied graphs and every spec in the mix, results
        after eviction + cold re-admission are bit-identical to uncached
        evaluation."""
        budget = entry_bytes()  # one warm entry at a time
        for seed in range(4):
            store = GraphStore(max_bytes=budget)
            graph = make_graph(seed=seed, nodes=16)
            other = make_graph(seed=seed + 100, nodes=16)
            store.admit("g", graph)
            store.admit("other", other)
            evaluator = BatchEvaluator()
            compiled = [compile_spec(s, spec_name=s) for s in SPECS]

            warm = evaluator.evaluate(compiled, store.entry("g")).results
            store.entry("other")  # evicts "g"
            assert store.peek("g") is None
            cold_entry = store.entry("g")  # cold rebuild
            assert len(cold_entry.cache._store) == 0
            cold = evaluator.evaluate(compiled, cold_entry).results

            for spec, w, c in zip(compiled, warm, cold):
                uncached = evaluate_pipeline(spec.entry, graph)
                assert w.selected == uncached.selected, (seed, spec.spec_name)
                assert c.selected == uncached.selected, (seed, spec.spec_name)

    def test_hit_rate_reflects_warm_and_cold_accesses(self):
        store = GraphStore()
        store.admit("a", make_graph())
        store.entry("a")
        store.entry("a")
        store.entry("a")
        stats = store.stats
        assert stats.cold_builds == 1
        assert stats.warm_hits == 2
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.as_dict()["hit_rate"] == stats.hit_rate


class TestDeltaWarmth:
    """Warm entries survive small edits through the mutation journal."""

    def test_edge_edit_refreshes_snapshot_through_journal(self):
        store = GraphStore()
        graph = make_graph()
        store.admit("g", graph)
        first = store.entry("g")
        graph.add_edge("fn_0_1", "fn_0_7")  # both already exist
        entry = store.entry("g")
        assert store.stats.invalidations == 1
        assert store.stats.delta_refreshes == 1
        assert entry.snapshot.refreshed_from == first.version
        # the refreshed entry answers exactly like uncached evaluation
        for source in SPECS:
            compiled = compile_spec(source)
            warm = BatchEvaluator().evaluate([compiled], entry).results[0]
            assert warm.selected == evaluate_pipeline(
                compiled.entry, graph
            ).selected, source

    def test_cache_retention_reported_in_stats(self):
        store = GraphStore()
        graph = make_graph()
        # a detached island: edits there cannot touch main's cone
        graph.add_node("island", NodeMeta(statements=2, has_body=True))
        graph.add_node("island_leaf", NodeMeta(statements=2, has_body=True))
        graph.add_edge("island", "island_leaf")
        store.admit("g", graph)
        evaluator = BatchEvaluator()
        compiled = [compile_spec(s, spec_name=s) for s in SPECS]
        warm = evaluator.evaluate(compiled, store.entry("g")).results
        graph.add_edge("island", "island")  # island-only structural edit
        entry = store.entry("g")
        stats = store.stats
        assert stats.delta_refreshes == 1
        assert stats.cache_retained > 0  # main-cone entries survived
        assert stats.as_dict()["cache_retained"] == stats.cache_retained
        again = evaluator.evaluate(compiled, entry)
        assert again.cross_hits > 0  # served from the surviving entries
        for spec, before, after in zip(compiled, warm, again.results):
            assert before.selected == after.selected, spec.spec_name
            assert after.selected == evaluate_pipeline(
                spec.entry, graph
            ).selected, spec.spec_name

    def test_node_add_reports_no_retention(self):
        store = GraphStore()
        graph = make_graph()
        store.admit("g", graph)
        evaluator = BatchEvaluator()
        compiled = [compile_spec(s, spec_name=s) for s in SPECS]
        evaluator.evaluate(compiled, store.entry("g"))
        graph.add_node("fresh", NodeMeta(statements=1, has_body=True))
        store.entry("g")
        # universe change: wholesale drop, nothing retained or counted
        assert store.stats.cache_retained == 0
        assert store.stats.cache_dropped == 0
