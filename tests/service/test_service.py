"""SelectionService: batching, edits, stats, lifecycle, fairness."""

import threading
from collections import deque

import pytest

from repro.cg.graph import NodeMeta
from repro.core.pipeline import compile_spec, evaluate_pipeline
from repro.core.spec.ast import MAX_SELECTOR_DEPTH
from repro.errors import CapiError, ServiceClosedError, ServiceError
from repro.service import GraphStore, SelectionService

from tests.core.test_spec_frontend import OVER_DEEP, chained_spec, nested_spec
from tests.service.test_graph_store import SPECS, make_graph

REACH = 'onCallPathFrom(byName("main", %%))'


def make_service(**kwargs):
    store = GraphStore()
    store.admit("g", make_graph(seed=11, nodes=18))
    return SelectionService(store, **kwargs)


class TestQueries:
    def test_select_matches_direct_evaluation(self):
        with make_service() as service:
            response = service.select("g", SPECS[0], tenant="t0")
            compiled = compile_spec(SPECS[0])
            direct = evaluate_pipeline(compiled.entry, service.store.graph("g"))
            assert frozenset(response.selection.selected) == frozenset(
                direct.selected
            )
            assert response.graph_key == "g"
            assert response.tenant == "t0"

    def test_concurrent_mixed_tenants_all_answered(self):
        with make_service(window_seconds=0.05) as service:
            futures = [
                service.submit(
                    "g", SPECS[i % len(SPECS)], tenant=f"t{i % 3}"
                )
                for i in range(24)
            ]
            results = [f.result(timeout=30.0) for f in futures]
            assert len(results) == 24
            stats = service.stats_snapshot()
            assert stats["responses"] == 24
            assert stats["failures"] == 0
            assert stats["max_batch_size"] >= 2  # batching engaged
            assert stats["deduped"] > 0  # duplicate specs in the mix
            assert set(stats["per_tenant"]) == {"t0", "t1", "t2"}

    def test_compile_cache_amortises_repeat_sources(self):
        with make_service() as service:
            service.select("g", SPECS[0])
            service.select("g", SPECS[0])
            stats = service.stats_snapshot()
            assert stats["compile_misses"] == 1
            assert stats["compile_hits"] >= 1

    def test_unknown_graph_key_fails_that_request_only(self):
        with make_service() as service:
            bad = service.submit("missing", SPECS[0])
            with pytest.raises(ServiceError, match="unknown graph key"):
                bad.result(timeout=30.0)
            good = service.select("g", SPECS[0])
            assert good.selection.selected
            stats = service.stats_snapshot()
            assert stats["failures"] == 1

    def test_bad_spec_source_fails_that_request_only(self):
        with make_service() as service:
            bad = service.submit("g", "join(")
            with pytest.raises(Exception):
                bad.result(timeout=30.0)
            assert service.select("g", SPECS[0]).selection.selected

    @pytest.mark.parametrize("make_spec, depth", OVER_DEEP)
    def test_over_deep_spec_fails_that_request_only(self, make_spec, depth):
        with make_service() as service:
            with pytest.raises(CapiError):
                service.select("g", make_spec(depth))
            assert service.select("g", SPECS[0]).selection.selected

    @pytest.mark.parametrize("make_spec", [nested_spec, chained_spec])
    def test_spec_at_the_depth_bound_evaluates(self, make_spec):
        with make_service() as service:
            at_bound = service.select("g", make_spec(MAX_SELECTOR_DEPTH))
            everything = service.store.graph("g").node_names()
            assert at_bound.selection.selected == everything


class TestEdits:
    def test_edit_bumps_version_and_changes_results(self):
        with make_service() as service:
            before = service.select("g", REACH)

            def graft(graph):
                graph.add_node("grafted", NodeMeta(statements=3, has_body=True))
                graph.add_edge("main", "grafted")

            version = service.edit("g", graft)
            after = service.select("g", REACH)
            assert version > before.graph_version
            assert after.graph_version == version
            assert "grafted" in after.selection.selected
            assert "grafted" not in before.selection.selected
            stats = service.stats_snapshot()
            assert stats["edits"] == 1
            assert stats["store"]["invalidations"] == 1

    def test_failing_edit_propagates_to_its_future(self):
        with make_service() as service:
            def explode(graph):
                raise ValueError("boom")

            with pytest.raises(ValueError, match="boom"):
                service.edit("g", explode)
            # service stays healthy
            assert service.select("g", SPECS[0]).selection.selected

    def test_verify_mode_survives_interleaved_edits(self):
        with make_service(verify=True, window_seconds=0.05) as service:
            futures = [service.submit("g", REACH) for _ in range(6)]
            service.submit_edit(
                "g",
                lambda graph: graph.add_node(
                    "late", NodeMeta(statements=1, has_body=True)
                ),
            )
            futures += [service.submit("g", REACH) for _ in range(6)]
            for future in futures:
                future.result(timeout=30.0)  # verify raises on any mismatch
            assert service.stats_snapshot()["failures"] == 0


class TestLifecycle:
    def test_close_drains_pending_work(self):
        service = make_service(window_seconds=0.2)
        futures = [service.submit("g", SPECS[i % 2]) for i in range(8)]
        service.close()
        for future in futures:
            assert future.result(timeout=1.0) is not None

    def test_submit_after_close_raises(self):
        service = make_service()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("g", SPECS[0])
        with pytest.raises(ServiceClosedError):
            service.submit_edit("g", lambda g: None)

    def test_close_is_idempotent(self):
        service = make_service()
        service.close()
        service.close()

    def test_backpressure_bounds_in_flight(self):
        with make_service(max_in_flight=2, window_seconds=0.0) as service:
            # more submissions than the bound, from many threads: all must
            # complete (blocked submitters proceed as responses drain)
            results = []
            lock = threading.Lock()

            def client(i):
                response = service.select("g", SPECS[i % len(SPECS)])
                with lock:
                    results.append(response)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(10)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert len(results) == 10

    def test_constructor_validates_bounds(self):
        with pytest.raises(ServiceError):
            SelectionService(GraphStore(), max_batch=0)
        with pytest.raises(ServiceError):
            SelectionService(GraphStore(), max_in_flight=0)


class TestFairness:
    def test_drain_round_robin_interleaves_tenants(self):
        service = make_service()
        shard = service._shards[0]
        try:
            chatty = [object() for _ in range(6)]
            quiet = [object()]
            shard_queues = {
                "chatty": deque(chatty),
                "quiet": deque(quiet),
            }
            with shard._cond:
                shard._queues = shard_queues
                drained = list(shard._drain_round_robin(4))
            # round 1 takes one from each tenant: quiet is not starved
            assert drained[0] is chatty[0]
            assert drained[1] is quiet[0]
            assert drained[2:] == chatty[1:3]
        finally:
            with shard._cond:
                shard._queues = {}
            service.close()


class TestServeSelection:
    def test_accepts_single_mapping_and_iterable(self):
        from repro.workflow import build_app, serve_selection
        from tests.conftest import make_demo_builder

        app = build_app(make_demo_builder().build())
        with serve_selection(app) as service:
            assert "demo" in service.store
            assert service.select("demo", REACH).selection.selected

        with serve_selection({"alias": app}) as service:
            assert "alias" in service.store

        with serve_selection([app]) as service:
            assert "demo" in service.store

    def test_empty_input_raises(self):
        from repro.workflow import serve_selection

        with pytest.raises(CapiError, match="at least one"):
            serve_selection({})

    def test_options_reach_the_store_and_the_service(self):
        from repro.workflow import build_app, serve_selection
        from tests.conftest import make_demo_builder

        app = build_app(make_demo_builder().build())
        with serve_selection(
            app, max_bytes=1 << 20, cache_entries=7, max_batch=3, verify=True
        ) as service:
            assert service.store.max_bytes == 1 << 20
            assert service.store.cache_entries == 7
            assert service.max_batch == 3 and service.verify


class TestAdaptiveWindow:
    def test_solo_traffic_shrinks_window_toward_floor(self):
        with make_service(window_seconds=0.004, max_batch=8) as service:
            for _ in range(10):
                service.select("g", SPECS[0])
            snapshot = service.stats_snapshot()
            window = snapshot["window"]
            assert window["configured_seconds"] == 0.004
            assert window["current_seconds"] < 0.004
            assert window["current_seconds"] >= 0.004 / 64  # floored

    def test_adapt_widens_under_burst_and_caps_at_configured(self):
        with make_service(window_seconds=0.004, max_batch=8) as service:
            shard = service._shards[0]
            shard._window = 0.004 / 64
            for gathered in (4, 8, 8, 8, 8, 8):
                shard._adapt_window(gathered)
            assert shard._window == 0.004  # doubled back, capped
            shard._adapt_window(1)
            assert shard._window == 0.002

    def test_mid_size_batches_leave_window_alone(self):
        with make_service(window_seconds=0.004, max_batch=8) as service:
            shard = service._shards[0]
            shard._window = 0.001
            shard._adapt_window(2)  # below max(2, max_batch // 2) = 4
            assert shard._window == 0.001

    def test_zero_window_never_adapts(self):
        with make_service(window_seconds=0.0) as service:
            for _ in range(3):
                service.select("g", SPECS[0])
            window = service.stats_snapshot()["window"]
            assert window["current_seconds"] == 0.0

    def test_burst_results_unaffected_by_adaptation(self):
        with make_service(window_seconds=0.002, max_batch=4) as service:
            futures = [
                service.submit("g", SPECS[i % len(SPECS)], tenant=f"t{i}")
                for i in range(12)
            ]
            responses = [f.result(timeout=30.0) for f in futures]
            for i, response in enumerate(responses):
                compiled = compile_spec(SPECS[i % len(SPECS)])
                direct = evaluate_pipeline(
                    compiled.entry, service.store.graph("g")
                )
                assert frozenset(response.selection.selected) == frozenset(
                    direct.selected
                )


class TestStatsContract:
    """The ``stats_snapshot()`` keys perfbench's ``serve`` workload reads
    (``layer_extras``): dropping one fails here, not only in the
    benchmark smoke."""

    def test_snapshot_keeps_the_keys_the_benchmark_reads(self):
        with make_service() as service:
            service.select("g", SPECS[0], tenant="t0")
            stats = service.stats_snapshot()
        for name in (
            "batches",
            "per_tenant",
            "deduped",
            "unique_evaluated",
            "cross_hits",
            "compile_hits",
            "compile_misses",
            "retried",
        ):
            assert name in stats, name
        for name in ("warm_hits", "cold_builds", "cache_retained", "cache_dropped"):
            assert isinstance(stats["store"][name], int), name


class TestDeltaEditWarmth:
    def test_submit_edit_reports_surviving_warmth(self):
        with make_service() as service:
            # warm the entry, then edit between existing nodes only
            service.select("g", REACH)
            service.select("g", SPECS[1])

            def rewire(graph):
                graph.add_edge("fn_11_2", "fn_11_9")

            service.edit("g", rewire)
            after = service.select("g", REACH)
            stats = service.stats_snapshot()["store"]
            assert stats["invalidations"] == 1
            assert stats["delta_refreshes"] == 1
            assert stats["cache_retained"] + stats["cache_dropped"] > 0
            compiled = compile_spec(REACH)
            direct = evaluate_pipeline(compiled.entry, service.store.graph("g"))
            assert frozenset(after.selection.selected) == frozenset(
                direct.selected
            )
