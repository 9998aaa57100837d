"""BatchEvaluator: bit-identity, whole-query dedup, verify mode."""

import pytest

from repro.cg.graph import NodeMeta
from repro.core.pipeline import compile_spec, evaluate_pipeline
from repro.errors import BatchMismatchError, CallGraphError
from repro.service import BatchEvaluator, GraphStore

from tests.service.test_graph_store import SPECS, make_graph


def warm_entry(graph):
    store = GraphStore()
    store.admit("g", graph)
    return store.entry("g")


class TestBitIdentity:
    def test_batched_results_match_sequential(self):
        graph = make_graph(seed=3, nodes=20)
        compiled = [compile_spec(s, spec_name=s) for s in SPECS]
        outcome = BatchEvaluator().evaluate(compiled, warm_entry(graph))
        assert len(outcome.results) == len(compiled)
        for spec, batched in zip(compiled, outcome.results):
            sequential = evaluate_pipeline(spec.entry, graph)
            assert batched.selected == sequential.selected, spec.spec_name
            assert batched.graph_size == sequential.graph_size

    def test_second_batch_served_from_cross_run_cache(self):
        graph = make_graph(seed=3)
        compiled = [compile_spec(s) for s in SPECS]
        entry = warm_entry(graph)
        evaluator = BatchEvaluator()
        first = evaluator.evaluate(compiled, entry)
        second = evaluator.evaluate(compiled, entry)
        assert second.cross_hits >= len(compiled)  # every entry selector hit
        for a, b in zip(first.results, second.results):
            assert a.selected == b.selected


class TestDedup:
    def test_duplicate_queries_evaluate_once(self):
        graph = make_graph(seed=5)
        one = compile_spec(SPECS[0], spec_name="a")
        # a fresh compile of the same source: different selector objects,
        # same structural key — the service's duplicate-tenant case
        two = compile_spec(SPECS[0], spec_name="b")
        other = compile_spec(SPECS[1], spec_name="c")
        outcome = BatchEvaluator().evaluate(
            [one, two, other, one], warm_entry(graph)
        )
        assert outcome.deduped == 2
        assert outcome.unique_evaluated == 2
        assert outcome.results[0].selected == outcome.results[1].selected
        assert outcome.results[0].selected == outcome.results[3].selected
        # deduped copies carry zero duration (no work was done for them)
        assert outcome.results[1].duration_seconds == 0.0
        assert outcome.results[3].duration_seconds == 0.0

    def test_per_query_traces_are_sliced_not_shared(self):
        graph = make_graph(seed=5)
        compiled = [compile_spec(s) for s in SPECS[:2]]
        outcome = BatchEvaluator().evaluate(compiled, warm_entry(graph))
        assert outcome.results[0].trace
        assert outcome.results[1].trace
        # one shared context, but each result sees only its own slice
        assert outcome.results[0].trace != outcome.results[1].trace

    def test_unkeyable_specs_are_never_deduped(self):
        from repro.core.selectors.registry import DEFAULT_REGISTRY
        from repro.core.selectors.structural import ByName

        registry = dict(DEFAULT_REGISTRY)
        registry["byName"] = lambda pattern, inner: ByName(pattern, inner)
        graph = make_graph(seed=5)
        with pytest.warns(RuntimeWarning):
            unkeyed = compile_spec('byName("main", %%)', registry=registry)
        assert unkeyed.cache_key is None
        outcome = BatchEvaluator().evaluate(
            [unkeyed, unkeyed], warm_entry(graph)
        )
        assert outcome.deduped == 0
        assert outcome.unique_evaluated == 2
        assert outcome.results[0].selected == outcome.results[1].selected


class TestStaleness:
    def test_stale_entry_raises_instead_of_mixing_versions(self):
        graph = make_graph(seed=7)
        entry = warm_entry(graph)
        graph.add_node("late", NodeMeta(statements=1, has_body=True))
        with pytest.raises((BatchMismatchError, CallGraphError)):
            BatchEvaluator().evaluate([compile_spec(SPECS[0])], entry)


class TestVerify:
    def test_verify_passes_on_honest_batches(self):
        graph = make_graph(seed=9)
        compiled = [compile_spec(s) for s in SPECS]
        outcome = BatchEvaluator(verify=True).evaluate(
            compiled, warm_entry(graph)
        )
        assert outcome.verified

    def test_verify_catches_key_collisions(self):
        """A forged cache key makes dedup serve the wrong result — the
        sequential re-derivation must catch exactly that."""
        graph = make_graph(seed=9)
        a = compile_spec('byName("main", %%)', spec_name="a")
        b = compile_spec('byName("MPI_.*", %%)', spec_name="b")
        b.entry.cache_key = a.cache_key  # forged: aliases a's semantics
        evaluator = BatchEvaluator(verify=True)
        with pytest.raises(BatchMismatchError, match="differs"):
            evaluator.evaluate([a, b], warm_entry(graph))
        # without verification the forgery goes through silently — which
        # is why keys are only ever attached by the builder
        silent = BatchEvaluator().evaluate([a, b], warm_entry(graph))
        assert silent.results[1].selected == silent.results[0].selected
