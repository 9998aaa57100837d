"""Cross-run selection caching keyed by the call-graph version."""

import pytest

from repro.apps import PAPER_SPECS
from repro.cg.graph import CallGraph, NodeMeta
from repro.core.capi import Capi
from repro.core.pipeline import PipelineBuilder, evaluate_pipeline
from repro.core.selectors.base import CrossRunCache
from repro.core.spec.modules import load_spec
from repro.errors import CallGraphError, CapiError


def small_graph() -> CallGraph:
    g = CallGraph()
    g.add_node("main", NodeMeta(statements=10, has_body=True))
    g.add_node("kernel", NodeMeta(statements=20, flops=100, loop_depth=2, has_body=True))
    g.add_node("MPI_Allreduce", NodeMeta(is_mpi=True, in_system_header=True))
    g.add_edge("main", "kernel")
    g.add_edge("kernel", "MPI_Allreduce")
    return g


SPEC = 'onCallPathTo(byName("MPI_.*", %%))'


class TestCrossRunCache:
    def test_second_evaluation_served_from_cache(self):
        graph = small_graph()
        cache = CrossRunCache()
        entry_a = PipelineBuilder().build(load_spec(SPEC))[0]
        first = evaluate_pipeline(entry_a, graph, cross_run=cache)
        assert len(cache) > 0
        assert cache.hits == 0
        # a *fresh* pipeline build of the same source: different selector
        # instances, same structural keys
        entry_b = PipelineBuilder().build(load_spec(SPEC))[0]
        second = evaluate_pipeline(entry_b, graph, cross_run=cache)
        assert cache.hits > 0
        assert second.selected == first.selected

    def test_graph_mutation_invalidates(self):
        graph = small_graph()
        cache = CrossRunCache()
        entry = PipelineBuilder().build(load_spec(SPEC))[0]
        first = evaluate_pipeline(entry, graph, cross_run=cache)
        graph.add_node("helper", NodeMeta(statements=2, has_body=True))
        graph.add_edge("helper", "MPI_Allreduce")
        entry2 = PipelineBuilder().build(load_spec(SPEC))[0]
        second = evaluate_pipeline(entry2, graph, cross_run=cache)
        assert "helper" in second.selected
        assert "helper" not in first.selected

    def test_different_graphs_never_share(self):
        cache = CrossRunCache()
        a, b = small_graph(), CallGraph()
        b.add_node("main", NodeMeta(statements=1, has_body=True))
        entry = PipelineBuilder().build(load_spec(SPEC))[0]
        res_a = evaluate_pipeline(entry, a, cross_run=cache)
        res_b = evaluate_pipeline(entry, b, cross_run=cache)
        assert res_a.selected != res_b.selected or res_b.selected == frozenset()

    def test_off_by_default(self):
        graph = small_graph()
        entry = PipelineBuilder().build(load_spec(SPEC))[0]
        evaluate_pipeline(entry, graph)  # no cache argument: no sharing
        cache = CrossRunCache()
        assert len(cache) == 0

    def test_same_name_different_definitions_do_not_collide(self):
        graph = small_graph()
        cache = CrossRunCache()
        spec_a = 'x = byName("kernel", %%)\n%x'
        spec_b = 'x = byName("main", %%)\n%x'
        res_a = evaluate_pipeline(
            PipelineBuilder().build(load_spec(spec_a))[0], graph, cross_run=cache
        )
        res_b = evaluate_pipeline(
            PipelineBuilder().build(load_spec(spec_b))[0], graph, cross_run=cache
        )
        assert res_a.selected == frozenset({"kernel"})
        assert res_b.selected == frozenset({"main"})

    def test_shared_subexpressions_hit_across_specs(self):
        graph = small_graph()
        cache = CrossRunCache()
        spec_a = 'join(byName("kernel", %%), byName("main", %%))'
        spec_b = 'intersect(byName("kernel", %%), %%)'
        evaluate_pipeline(
            PipelineBuilder().build(load_spec(spec_a))[0], graph, cross_run=cache
        )
        before = cache.hits
        evaluate_pipeline(
            PipelineBuilder().build(load_spec(spec_b))[0], graph, cross_run=cache
        )
        # byName("kernel", %%) is structurally shared between the specs
        assert cache.hits > before


class TestCapiMemo:
    def test_repeated_select_returns_memoised_outcome(self):
        graph = small_graph()
        capi = Capi(graph=graph, app_name="t")
        first = capi.select(SPEC, spec_name="mpi")
        second = capi.select(SPEC, spec_name="mpi")
        assert second is first

    def test_memo_respects_graph_version(self):
        graph = small_graph()
        capi = Capi(graph=graph, app_name="t")
        first = capi.select(SPEC, spec_name="mpi")
        graph.add_node("late", NodeMeta(statements=1, has_body=True))
        graph.add_edge("late", "MPI_Allreduce")
        second = capi.select(SPEC, spec_name="mpi")
        assert second is not first
        assert "late" in second.ic.functions

    def test_select_all_consistency_on_paper_app(self):
        """Cached and uncached sweeps agree on the real paper specs."""
        from repro.experiments.runner import prepare_app

        prepared = prepare_app("lulesh", 300)
        cached = {k: v.ic.functions for k, v in prepared.select_all().items()}
        again = {k: v.ic.functions for k, v in prepared.select_all().items()}
        assert cached == again
        # independent, cache-free evaluation gives the same selections
        for name, source in PAPER_SPECS.items():
            entry = PipelineBuilder().build(load_spec(source))[0]
            res = evaluate_pipeline(entry, prepared.app.graph)
            assert res.selected == frozenset(
                prepared.select(name).selection.selected
            ), name


class TestEdgeMutationInvalidation:
    def test_profile_validated_edge_invalidates_cache(self):
        """add_edge between *existing* nodes must bump the version —
        the callgraph_tools example's validate-then-reselect flow."""
        graph = small_graph()
        graph.add_node("callback", NodeMeta(statements=5, flops=100, has_body=True))
        capi = Capi(graph=graph, app_name="t")
        spec = 'onCallPathFrom(byName("main", %%))'
        before = capi.select(spec, spec_name="s")
        assert "callback" not in before.ic.functions
        v = graph.version
        graph.add_edge("main", "callback")  # both nodes already exist
        assert graph.version > v
        after = capi.select(spec, spec_name="s")
        assert "callback" in after.ic.functions

    def test_readding_existing_edge_keeps_version(self):
        graph = small_graph()
        v = graph.version
        graph.add_edge("main", "kernel")  # already present
        assert graph.version == v


class TestMemoSafety:
    def test_linked_identity_checked_not_id(self):
        """A different linked program object must miss the memo even if
        a previous entry exists for the same spec."""
        from repro.program.compiler import Compiler, CompilerConfig
        from repro.program.linker import Linker
        from tests.conftest import make_demo_builder

        program = make_demo_builder().build()
        linked_a = Linker().link(Compiler(CompilerConfig()).compile(program))
        linked_b = Linker().link(Compiler(CompilerConfig()).compile(program))
        from repro.cg.merge import build_whole_program_cg

        capi = Capi(graph=build_whole_program_cg(program), app_name="demo")
        out_a = capi.select(SPEC, spec_name="s", linked=linked_a)
        out_b = capi.select(SPEC, spec_name="s", linked=linked_b)
        assert out_a is not out_b
        # same linked objects hit their own entries, even alternating
        assert capi.select(SPEC, spec_name="s", linked=linked_a) is out_a
        assert capi.select(SPEC, spec_name="s", linked=linked_b) is out_b
        # the memo pins linked objects: ids cannot be recycled
        assert any(e[0] is linked_a for e in capi._outcomes.values())

    def test_search_paths_disable_outcome_memo(self, tmp_path):
        mod = tmp_path / "custom.capi"
        mod.write_text('byName("kernel", %%)')
        graph = small_graph()
        capi = Capi(graph=graph, search_paths=[tmp_path])
        src = '!import("custom.capi")\nbyName("kernel", %%)'
        first = capi.select(src, spec_name="s")
        second = capi.select(src, spec_name="s")
        assert first is not second  # on-disk module may change: no memo

    def test_memo_evicts_on_version_change(self):
        graph = small_graph()
        capi = Capi(graph=graph)
        for i in range(5):
            capi.select(SPEC, spec_name="s")
            graph.add_node(NodeMeta.__name__ + str(i), NodeMeta(statements=1))
        capi.select(SPEC, spec_name="s")
        assert len(capi._outcomes) == 1  # old versions evicted wholesale

    def test_cross_run_cache_pins_graph(self):
        cache = CrossRunCache()
        g = small_graph()
        entry = PipelineBuilder().build(load_spec(SPEC))[0]
        evaluate_pipeline(entry, g, cross_run=cache)
        assert cache._graph is g  # strong ref: id reuse cannot alias


class TestCachePurity:
    def test_capi_timings_measure_full_evaluations(self):
        """Table I's time column must not be contaminated by cross-spec
        sub-expression sharing: every evaluated selection runs fresh."""
        graph = small_graph()
        capi = Capi(graph=graph)
        a = capi.select('onCallPathTo(byName("MPI_.*", %%))', spec_name="a")
        # a structurally overlapping spec evaluated on the same Capi:
        # its trace must show real (non-cache-hit) sub-evaluations
        b = capi.select(
            'subtract(onCallPathTo(byName("MPI_.*", %%)), byName("main", %%))',
            spec_name="b",
        )
        assert a.selection.trace and b.selection.trace
        # the shared subtree was re-evaluated, not served from a store:
        # both selections carry their own full traces
        assert len(b.selection.trace) >= len(a.selection.trace)

    def test_default_factory_registry_pipelines_are_cached(self):
        """A custom registry whose factories *are* the default ones keys
        selectors exactly like the default registry (no silently lost
        cross-run caching for plain dict copies)."""
        from repro.core.selectors.registry import DEFAULT_REGISTRY

        registry = dict(DEFAULT_REGISTRY)
        graph = small_graph()
        cache = CrossRunCache()
        entry = PipelineBuilder(registry).build(load_spec(SPEC))[0]
        evaluate_pipeline(entry, graph, cross_run=cache)
        reference = CrossRunCache()
        default_entry = PipelineBuilder().build(load_spec(SPEC))[0]
        evaluate_pipeline(default_entry, graph, cross_run=reference)
        assert set(cache._store) == set(reference._store)
        assert len(cache._store) > 1

    def test_non_default_factory_warns_and_stays_uncached(self):
        """A name bound to a different factory warns (once) and keeps its
        selector — and every ancestor — out of the shared store."""
        from repro.core.selectors.registry import DEFAULT_REGISTRY
        from repro.core.selectors.structural import ByName

        registry = dict(DEFAULT_REGISTRY)

        def custom_by_name(pattern, inner):
            return ByName(pattern, inner)  # same behaviour, different factory

        registry["byName"] = custom_by_name
        graph = small_graph()
        cache = CrossRunCache()
        with pytest.warns(RuntimeWarning, match="byName"):
            entry = PipelineBuilder(registry).build(load_spec(SPEC))[0]
        evaluate_pipeline(entry, graph, cross_run=cache)
        # byName and the onCallPathTo built on top of it are unkeyed;
        # %% is builder-internal and stays keyable
        assert set(cache._store) <= {"%%"}

    def test_non_default_factory_warns_once_per_name(self):
        from repro.core.selectors.registry import DEFAULT_REGISTRY
        from repro.core.selectors.structural import ByName

        registry = dict(DEFAULT_REGISTRY)
        registry["byName"] = lambda pattern, inner: ByName(pattern, inner)
        spec = 'join(byName("a", %%), byName("b", %%))'
        builder = PipelineBuilder(registry)
        with pytest.warns(RuntimeWarning) as caught:
            builder.build(load_spec(spec))
        assert len([w for w in caught if w.category is RuntimeWarning]) == 1


class TestCrossRunCacheCap:
    def test_put_beyond_cap_evicts_least_recently_used(self):
        cache = CrossRunCache(max_entries=3)
        cache.store_for(small_graph())
        for key in ("a", "b", "c"):
            cache.put(key, frozenset())
        assert cache.get("a") is not None  # touch: a becomes most recent
        cache.put("d", frozenset())  # b (now oldest) is evicted
        assert set(cache._store) == {"c", "a", "d"}
        assert cache.evictions == 1
        assert cache.get("b") is None

    def test_hits_and_misses_are_counted(self):
        cache = CrossRunCache(max_entries=4)
        cache.store_for(small_graph())
        cache.put("x", frozenset({1}))
        assert cache.get("x") == frozenset({1})
        assert cache.get("nope") is None
        assert cache.hits == 1

    def test_version_drop_is_wholesale_and_uncounted(self):
        graph = small_graph()
        cache = CrossRunCache(max_entries=8)
        cache.store_for(graph)
        cache.put("x", frozenset({1}))
        graph.add_node("more", NodeMeta(statements=1))
        assert cache.store_for(graph) == {}  # version bump: store dropped
        assert cache.evictions == 0  # capacity evictions only

    def test_cap_must_be_positive(self):
        with pytest.raises(CapiError, match="max_entries"):
            CrossRunCache(max_entries=0)

    def test_capped_cache_stays_correct_under_one_off_spec_stream(self):
        graph = small_graph()
        cache = CrossRunCache(max_entries=2)
        for i in range(6):
            spec = f'join(byName("kernel", %%), byName("k{i}", %%))'
            entry = PipelineBuilder().build(load_spec(spec))[0]
            res = evaluate_pipeline(entry, graph, cross_run=cache)
            assert res.selected == frozenset({"kernel"})
            assert len(cache) <= 2
        assert cache.evictions > 0


class TestCompileEvaluateSplit:
    def test_compile_spec_exposes_structural_cache_key(self):
        from repro.core.pipeline import compile_spec

        compiled = compile_spec(SPEC, spec_name="mpi")
        assert compiled.spec_name == "mpi"
        assert compiled.source == SPEC
        assert compiled.cache_key == 'onCallPathTo(byName(s\'MPI_.*\',%%))'

    def test_compiled_spec_is_graph_independent(self):
        from repro.core.pipeline import compile_spec

        compiled = compile_spec(SPEC)
        a, b = small_graph(), small_graph()
        b.add_node("extra", NodeMeta(statements=1, has_body=True))
        b.add_edge("extra", "MPI_Allreduce")
        res_a = evaluate_pipeline(compiled.entry, a)
        res_b = evaluate_pipeline(compiled.entry, b)
        assert "extra" in res_b.selected
        assert "extra" not in res_a.selected

    def test_evaluate_compiled_runs_against_supplied_pair(self):
        from repro.core.pipeline import compile_spec, evaluate_compiled

        graph = small_graph()
        compiled = compile_spec(SPEC)
        snapshot = graph.csr()
        cache = CrossRunCache()
        first = evaluate_compiled(compiled, snapshot, cross_run=cache)
        second = evaluate_compiled(compiled, snapshot, cross_run=cache)
        assert first.selected == second.selected
        assert cache.hits > 0
        reference = evaluate_pipeline(
            PipelineBuilder().build(load_spec(SPEC))[0], graph
        )
        assert first.selected == reference.selected

    def test_evaluate_compiled_rejects_stale_snapshots(self):
        from repro.core.pipeline import compile_spec, evaluate_compiled

        graph = small_graph()
        snapshot = graph.csr()
        graph.add_node("mutant", NodeMeta(statements=1))
        with pytest.raises(CallGraphError, match="stale"):
            evaluate_compiled(compile_spec(SPEC), snapshot)

    def test_equal_keys_imply_equal_selections(self):
        from repro.core.pipeline import compile_spec

        graph = small_graph()
        a = compile_spec('subtract(%%, byName("main", %%))')
        b = compile_spec('x = byName("main", %%)\nsubtract(%%, %x)')
        assert a.cache_key == b.cache_key  # %x expands to its definition
        assert (
            evaluate_pipeline(a.entry, graph).selected
            == evaluate_pipeline(b.entry, graph).selected
        )


class TestMemoBounds:
    def test_outcome_memo_is_fifo_capped(self):
        from repro.core.capi import _MEMO_CAP

        graph = small_graph()
        capi = Capi(graph=graph)
        for i in range(_MEMO_CAP + 10):
            capi.select(f'byName("kernel", %%) # {i}'.replace(" # ", " #"),
                        spec_name=str(i))
        assert len(capi._outcomes) <= _MEMO_CAP


def two_region_graph() -> CallGraph:
    """Two disconnected call trees: edits in one cannot affect the other."""
    g = CallGraph()
    g.add_node("main", NodeMeta(statements=10, has_body=True))
    g.add_node("kernel", NodeMeta(statements=20, flops=100, has_body=True))
    g.add_edge("main", "kernel")
    g.add_node("other_root", NodeMeta(statements=3, has_body=True))
    g.add_node("other_leaf", NodeMeta(statements=4, flops=50, has_body=True))
    g.add_edge("other_root", "other_leaf")
    return g


class TestDeltaAwareRetention:
    """Delta-based invalidation: entries whose supports the edit provably
    left alone survive a version bump instead of dropping wholesale."""

    def _evaluate(self, source, graph, cache):
        entry = PipelineBuilder().build(load_spec(source))[0]
        return evaluate_pipeline(entry, graph, cross_run=cache)

    def test_disjoint_edge_add_keeps_untouched_entries(self):
        graph = two_region_graph()
        cache = CrossRunCache()
        main_spec = 'onCallPathFrom(byName("main", %%))'
        other_spec = 'onCallPathFrom(byName("other_root", %%))'
        before_main = self._evaluate(main_spec, graph, cache)
        self._evaluate(other_spec, graph, cache)
        populated = len(cache)
        assert populated > 0
        # edge inside the *other* region: main's entries must survive
        graph.add_edge("other_root", "other_root")
        cache.store_for(graph)
        assert cache.retained > 0
        assert cache.dropped > 0  # the other-region entries had to go
        hits = cache.hits
        again = self._evaluate(main_spec, graph, cache)
        assert cache.hits > hits  # served warm across the edit
        assert again.selected == before_main.selected

    def test_touched_entries_recompute_correctly(self):
        graph = two_region_graph()
        cache = CrossRunCache()
        spec = 'onCallPathFrom(byName("other_root", %%))'
        before = self._evaluate(spec, graph, cache)
        assert "kernel" not in before.selected
        graph.add_edge("other_leaf", "kernel")  # grows the reachable cone
        after = self._evaluate(spec, graph, cache)
        assert "kernel" in after.selected
        # reference: cache-free evaluation agrees exactly
        reference = evaluate_pipeline(
            PipelineBuilder().build(load_spec(spec))[0], graph
        )
        assert after.selected == reference.selected

    def test_meta_merge_drops_metric_entries_only(self):
        graph = two_region_graph()
        graph.add_edge("main", "decl")  # declaration-only node
        cache = CrossRunCache()
        flops_spec = 'flops(">=", 60, onCallPathFrom(byName("main", %%)))'
        other_spec = 'byName("other_.*", %%)'
        self._evaluate(flops_spec, graph, cache)
        other_before = self._evaluate(other_spec, graph, cache)
        # definition arrives for decl: meta merge inside main's cone
        graph.add_node("decl", NodeMeta(statements=2, flops=99, has_body=True))
        cache.store_for(graph)
        assert cache.retained > 0  # the other-region entry survived
        reference = evaluate_pipeline(
            PipelineBuilder().build(load_spec(flops_spec))[0], graph
        )
        assert self._evaluate(flops_spec, graph, cache).selected == (
            reference.selected
        )
        assert self._evaluate(other_spec, graph, cache).selected == (
            other_before.selected
        )

    def test_universe_change_still_drops_wholesale(self):
        graph = two_region_graph()
        cache = CrossRunCache()
        self._evaluate(SPEC, graph, cache)
        assert len(cache) > 0
        graph.add_node("brand_new", NodeMeta(statements=1))
        assert cache.store_for(graph) == {}
        assert cache.retained == 0 and cache.dropped == 0  # uncounted

    def test_truncated_journal_drops_wholesale(self):
        graph = two_region_graph()
        source = graph.copy(max_delta_entries=1)
        cache = CrossRunCache()
        self._evaluate(SPEC, source, cache)
        assert len(cache) > 0
        # more bumps than the journal can hold between binds
        source.add_edge("kernel", "main")
        source.add_edge("other_leaf", "other_root")
        assert source.delta_since(cache._version) is None
        assert cache.store_for(source) == {}
        assert cache.retained == 0

    def test_reason_upgrade_invalidates_dependent_paths(self):
        from repro.cg.graph import EdgeReason

        graph = two_region_graph()
        graph.add_edge("kernel", "other_leaf", EdgeReason.PROFILE)
        cache = CrossRunCache()
        spec = 'onCallPathFrom(byName("main", %%))'
        self._evaluate(spec, graph, cache)
        graph.add_edge("kernel", "other_leaf", EdgeReason.DIRECT)  # upgrade
        cache.store_for(graph)
        # endpoints sit inside the cached cone: the entry must drop even
        # though the adjacency arrays are unchanged
        assert cache.dropped > 0

    def test_unknown_supports_drop_on_any_delta(self):
        graph = two_region_graph()
        cache = CrossRunCache()
        cache.store_for(graph)
        cache.put("mystery", frozenset({1}))  # no supports recorded
        graph.add_edge("other_root", "other_root")
        assert cache.store_for(graph) == {}
        assert cache.dropped == 1


class TestCapiRefine:
    """Satellite: refinement queries ride the compile/evaluate split."""

    def test_refine_matches_select(self):
        graph = small_graph()
        capi = Capi(graph=graph, app_name="t")
        assert capi.refine(SPEC).selected == capi.select(SPEC).selection.selected

    def test_refine_reuses_compiled_spec_and_cache(self):
        graph = small_graph()
        capi = Capi(graph=graph)
        capi.refine(SPEC)
        compiled = capi._refine_compiled[(SPEC, "")]
        assert capi._refine_cache is not None
        hits = capi._refine_cache.hits
        capi.refine(SPEC)
        assert capi._refine_compiled[(SPEC, "")] is compiled
        assert capi._refine_cache.hits > hits

    def test_refine_tracks_graph_edits(self):
        graph = small_graph()
        graph.add_node("callback", NodeMeta(statements=5, has_body=True))
        capi = Capi(graph=graph)
        spec = 'onCallPathFrom(byName("main", %%))'
        assert "callback" not in capi.refine(spec).selected
        graph.add_edge("main", "callback")
        assert "callback" in capi.refine(spec).selected

    def test_refine_leaves_select_timing_semantics_alone(self):
        """Table I's time column: select() still evaluates in a fresh
        context even after refine() warmed the instance's cache."""
        graph = small_graph()
        capi = Capi(graph=graph)
        capi.refine(SPEC)
        outcome = capi.select(SPEC, spec_name="timed")
        # a full trace (every pipeline stage evaluated, none cache-short)
        assert len(outcome.selection.trace) >= 3
        assert outcome.selection.duration_seconds >= 0.0

    def test_refine_with_search_paths_skips_compile_memo(self, tmp_path):
        mod = tmp_path / "custom.capi"
        mod.write_text('byName("kernel", %%)')
        capi = Capi(graph=small_graph(), search_paths=[tmp_path])
        src = '!import("custom.capi")\nbyName("kernel", %%)'
        assert capi.refine(src).selected == frozenset({"kernel"})
        assert capi._refine_compiled == {}


class TestEdgeReasonVersioning:
    def test_reason_upgrade_bumps_version(self):
        from repro.cg.graph import EdgeReason

        graph = small_graph()
        graph.add_edge("main", "MPI_Allreduce", EdgeReason.PROFILE)
        v = graph.version
        # upgrading the same edge to a stronger (static) reason is an
        # observable metadata change
        graph.add_edge("main", "MPI_Allreduce", EdgeReason.DIRECT)
        assert graph.version > v
        # re-adding at equal strength changes nothing
        v2 = graph.version
        graph.add_edge("main", "MPI_Allreduce", EdgeReason.DIRECT)
        assert graph.version == v2
