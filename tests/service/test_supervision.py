"""Supervision: shard routing, fault specs, quarantine, chaos healing."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cg.graph import NodeMeta
from repro.core.pipeline import compile_spec, evaluate_pipeline
from repro.errors import (
    QuarantinedSpecError,
    ReproError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service import (
    SERVICE_FAULT_SCENARIOS,
    GraphStore,
    QuarantineBreaker,
    SelectionService,
    ServiceFaultInjector,
    ServiceFaultSpec,
    resolve_service_faults,
    shard_of,
)
from repro.service.faults import FAULT_KINDS

from tests.service.test_graph_store import SPECS, make_graph

#: chaos-scale supervision knobs: tight deadlines so a drill finishes in
#: well under a second of wedge time, cooldowns short enough to probe
FAST = dict(
    window_seconds=0.0,
    max_batch=4,
    shard_deadline_seconds=0.15,
    supervise_interval=0.02,
    quarantine_cooldown_seconds=0.05,
)


def make_service(keys=("g",), shards=1, **kwargs):
    store = GraphStore()
    for i, key in enumerate(keys):
        store.admit(key, make_graph(seed=11 + i, nodes=18))
    return SelectionService(store, shards=shards, **kwargs)


def direct(service, key, source):
    compiled = compile_spec(source)
    return frozenset(
        evaluate_pipeline(compiled.entry, service.store.graph(key)).selected
    )


class TestShardRouting:
    @given(
        key=st.text(max_size=64),
        shards=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_in_range_and_deterministic(self, key, shards):
        index = shard_of(key, shards)
        assert 0 <= index < shards
        assert shard_of(key, shards) == index

    @given(
        keys=st.lists(st.text(max_size=32), unique=True, max_size=24),
        shards=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_stable_partition(self, keys, shards):
        # every key lands in exactly one slice, and re-routing the same
        # keys reproduces the same partition
        assignment = {key: shard_of(key, shards) for key in keys}
        slices = [
            {key for key, owner in assignment.items() if owner == i}
            for i in range(shards)
        ]
        assert set().union(*slices) == set(keys)
        assert sum(len(s) for s in slices) == len(keys)
        assert {key: shard_of(key, shards) for key in keys} == assignment

    def test_single_shard_owns_everything(self):
        assert shard_of("anything", 1) == 0
        assert shard_of("", 1) == 0

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ServiceError):
            shard_of("g", 0)


class TestFaultSpec:
    def test_plan_is_deterministic_and_counts_match(self):
        spec = ServiceFaultSpec(
            seed=3, compile_errors=4, eval_crashes=2, hangs=1, deaths=2
        )
        for shard in range(3):
            plan = spec.plan(shard)
            assert plan == ServiceFaultSpec(
                seed=3, compile_errors=4, eval_crashes=2, hangs=1, deaths=2
            ).plan(shard)
            assert len(plan["compile"]) == 4
            assert len(plan["eval"]) == 2
            assert len(plan["hang"]) == 1
            assert len(plan["death"]) == 2
            assert len(plan["cancel"]) == 0
            assert all(i < spec.window for i in plan["compile"])
            assert all(i < spec.disrupt_window for i in plan["death"])

    def test_only_shards_excludes_everything_elsewhere(self):
        spec = ServiceFaultSpec(
            compile_errors=2, deaths=1, poison_specs=("p",), only_shards=(1,)
        )
        assert spec.plan(0) == {kind: frozenset() for kind in FAULT_KINDS}
        assert len(spec.plan(1)["compile"]) == 2
        excluded = ServiceFaultInjector(spec, 0)
        assert excluded.poison_marker("p-spec", "src") is None
        afflicted = ServiceFaultInjector(spec, 1)
        assert afflicted.poison_marker("p-spec", "src") == "p"

    def test_injector_fires_exactly_count_times(self):
        spec = ServiceFaultSpec(seed=9, compile_errors=3, window=16)
        injector = ServiceFaultInjector(spec, 0)
        fired = sum(injector.fires("compile") for _ in range(spec.window))
        assert fired == 3
        assert injector.injected_so_far()["compile"] == 3
        # past the window nothing fires
        assert not any(injector.fires("compile") for _ in range(16))

    def test_poison_peek_then_consume(self):
        spec = ServiceFaultSpec(poison_specs=("bad",), poison_times=2)
        injector = ServiceFaultInjector(spec, 0)
        assert injector.poison_marker("bad-one", "x") == "bad"
        assert injector.poison_marker("bad-one", "x") == "bad"  # peek only
        injector.consume_poison("bad")
        injector.consume_poison("bad")
        assert injector.poison_marker("bad-one", "x") is None
        assert injector.poison_marker("fine", "flops") is None

    def test_resolve_accepts_instance_name_and_none(self):
        assert resolve_service_faults(None) is None
        spec = ServiceFaultSpec(deaths=1)
        assert resolve_service_faults(spec) is spec
        assert (
            resolve_service_faults("worker-death")
            is SERVICE_FAULT_SCENARIOS["worker-death"]
        )
        with pytest.raises(ServiceError, match="unknown service fault"):
            resolve_service_faults("nope")

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ServiceError):
            ServiceFaultSpec(compile_errors=-1)
        with pytest.raises(ServiceError):
            ServiceFaultSpec(compile_errors=33, window=32)
        with pytest.raises(ServiceError):
            ServiceFaultSpec(deaths=5, disrupt_window=4)
        with pytest.raises(ServiceError):
            ServiceFaultSpec(poison_times=0)
        with pytest.raises(ServiceError):
            ServiceFaultSpec(hang_excess_seconds=0.0)

    def test_unsupervised_service_rejects_noisy_faults(self):
        store = GraphStore()
        store.admit("g", make_graph())
        with pytest.raises(ServiceError, match="supervis"):
            SelectionService(
                store, supervised=False, faults=ServiceFaultSpec(deaths=1)
            )


class TestQuarantineBreaker:
    def test_state_machine_with_fake_clock(self):
        clock = [0.0]
        breaker = QuarantineBreaker(
            threshold=3, cooldown_seconds=10.0, clock=lambda: clock[0]
        )
        key = ("g", "spec")
        # closed: failures accumulate, breaker opens on the third
        assert breaker.admit(*key) == "ok"
        assert breaker.record_failure(*key) is False
        assert breaker.record_failure(*key) is False
        assert breaker.record_failure(*key) is True
        assert breaker.is_open(*key)
        assert breaker.opened_total == 1
        # open: fast-fail until the cooldown elapses
        assert breaker.admit(*key) == "fast_fail"
        assert breaker.fast_fails == 1
        clock[0] = 9.9
        assert breaker.admit(*key) == "fast_fail"
        # half-open: exactly one probe per window
        clock[0] = 10.0
        assert breaker.admit(*key) == "probe"
        assert breaker.admit(*key) == "fast_fail"  # probe in flight
        # failing probe re-opens and restarts the cooldown
        assert breaker.record_failure(*key) is True
        assert breaker.opened_total == 2
        assert breaker.admit(*key) == "fast_fail"
        clock[0] = 20.0
        assert breaker.admit(*key) == "probe"
        # succeeding probe closes and forgets the key entirely
        breaker.record_success(*key)
        assert not breaker.is_open(*key)
        assert breaker.admit(*key) == "ok"
        snapshot = breaker.snapshot()
        assert snapshot["tracked"] == 0
        assert snapshot["opened_total"] == 2
        assert snapshot["open"] == [] and snapshot["half_open"] == []

    def test_success_resets_consecutive_failures(self):
        breaker = QuarantineBreaker(threshold=3, cooldown_seconds=10.0)
        key = ("g", "spec")
        breaker.record_failure(*key)
        breaker.record_failure(*key)
        breaker.record_success(*key)  # streak broken
        breaker.record_failure(*key)
        breaker.record_failure(*key)
        assert not breaker.is_open(*key)
        assert breaker.record_failure(*key) is True

    def test_keys_are_independent(self):
        breaker = QuarantineBreaker(threshold=1, cooldown_seconds=10.0)
        breaker.record_failure("g", "poison")
        assert breaker.admit("g", "poison") == "fast_fail"
        assert breaker.admit("g", "healthy") == "ok"
        assert breaker.admit("other", "poison") == "ok"

    def test_validation(self):
        with pytest.raises(ServiceError):
            QuarantineBreaker(threshold=0)
        with pytest.raises(ServiceError):
            QuarantineBreaker(cooldown_seconds=-1.0)


class _Blocker:
    """Holds a shard's worker inside an edit until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, graph):
        self.entered.set()
        assert self.release.wait(timeout=10.0)


class TestSlotReclamation:
    def test_cancelled_future_releases_its_admission_slot(self):
        with make_service(max_in_flight=1, window_seconds=0.0) as service:
            blocker = _Blocker()
            service.submit_edit("g", blocker)
            assert blocker.entered.wait(timeout=10.0)
            future = service.submit("g", SPECS[0])  # takes the only slot
            assert future.cancel()
            blocker.release.set()
            # would deadlock on admission if the cancelled request leaked
            # its slot; a worker discard must release it
            response = service.select("g", SPECS[1], timeout=10.0)
            assert response.selection.selected
            stats = service.stats_snapshot()
            assert stats["cancelled"] == 1
            assert stats["failures"] == 0

    def test_select_timeout_cancels_and_releases(self):
        with make_service(max_in_flight=1, window_seconds=0.0) as service:
            blocker = _Blocker()
            service.submit_edit("g", blocker)
            assert blocker.entered.wait(timeout=10.0)
            with pytest.raises(ServiceTimeoutError):
                service.select("g", SPECS[0], timeout=0.05)
            blocker.release.set()
            response = service.select("g", SPECS[1], timeout=10.0)
            assert response.selection.selected
            assert service.stats_snapshot()["cancelled"] == 1


def _resolve_all(futures, timeout=30.0):
    """Resolve every future; outcomes are (kind, payload) tuples."""
    outcomes = []
    for future in futures:
        try:
            outcomes.append(("ok", future.result(timeout=timeout)))
        except ReproError as exc:
            outcomes.append(("typed", exc))
        except BaseException as exc:  # CancelledError
            outcomes.append(("cancelled", exc))
    return outcomes


CHAOS_PRESETS = sorted(SERVICE_FAULT_SCENARIOS)


class TestChaosAcceptance:
    """Every preset heals: all futures resolve, the service keeps serving.

    Bit-identity against a fault-free reference run is covered at scale
    by ``repro.experiments.serve --check-faults``; here the contract is
    resolution, containment and post-chaos correctness on tiny graphs.
    """

    @pytest.mark.parametrize("preset", CHAOS_PRESETS)
    def test_preset_heals_under_multi_tenant_load(self, preset):
        keys = ("g0", "g1", "g2")
        service = make_service(
            keys=keys, shards=2, seed=0, faults=preset, **FAST
        )
        spec = SERVICE_FAULT_SCENARIOS[preset]
        outcomes = []
        try:
            # six bursts over three graphs and rotating tenants, one
            # concurrent edit per burst: enough non-empty processing
            # rounds per shard to exhaust every disruptive schedule
            for burst in range(6):
                futures = [
                    service.submit(
                        key,
                        SPECS[(burst + j) % len(SPECS)],
                        tenant=f"t{(burst + j) % 3}",
                    )
                    for j, key in enumerate(keys)
                    for _ in range(2)
                ]
                def graft(graph, burst=burst):
                    graph.add_node(
                        f"grafted_{burst}",
                        NodeMeta(statements=1, has_body=True),
                    )
                    graph.add_edge("main", f"grafted_{burst}")

                service.submit_edit("g1", graft)
                outcomes.extend(_resolve_all(futures))

            kinds = {kind for kind, _ in outcomes}
            if preset == "cancel-race":
                # injected cancellations surface as cancelled futures
                assert kinds <= {"ok", "cancelled"}
            else:
                # transient faults heal via retry/containment: no
                # request may fail, typed or otherwise
                assert kinds == {"ok"}, outcomes

            # post-chaos: the service still answers correctly on every
            # graph, edits included
            for key in keys:
                for source in SPECS:
                    response = service.select(key, source, timeout=30.0)
                    assert (
                        frozenset(response.selection.selected)
                        == direct(service, key, source)
                    )
            assert "grafted_5" in service.select("g1", SPECS[2]).selection.selected

            health = service.stats_snapshot()["health"]
            assert health["lost"] == 0
            if spec.deaths or spec.hangs:
                assert health["restarts"] >= 1
            if spec.hangs:
                assert health["wedges"] >= 1
            stats = service.stats_snapshot()
            if spec.compile_errors:
                assert stats["retried"] >= 1
            if spec.eval_crashes:
                # a group-level injected crash surfaces as containment
                # (isolated re-runs), an isolated-level one as a retry
                assert stats["retried"] + stats["contained_groups"] >= 1
        finally:
            service.close()

    def test_poison_spec_quarantines_then_recovers(self):
        service = make_service(
            keys=("g",),
            seed=0,
            faults=ServiceFaultSpec(poison_specs=("hot",), poison_times=4),
            quarantine_threshold=3,
            **FAST,
        )
        try:
            source = SPECS[2]
            expected = direct(service, "g", source)
            seen: list[type] = []
            answer = None
            for _ in range(40):
                try:
                    answer = service.select(
                        "g", source, spec_name="hot-path", timeout=10.0
                    )
                    break
                except QuarantinedSpecError as exc:
                    seen.append(type(exc))
                    time.sleep(0.06)  # sit out the cooldown, then probe
                except ReproError as exc:
                    seen.append(type(exc))
            assert answer is not None, seen
            assert frozenset(answer.selection.selected) == expected
            # the three strikes were poison failures, then the breaker
            # fast-failed at least once before a probe burned through
            assert seen.count(QuarantinedSpecError) >= 1
            assert len([t for t in seen if t is not QuarantinedSpecError]) == 4
            quarantine = service.stats_snapshot()["health"]["quarantine"]
            assert quarantine["opened_total"] >= 1
            assert quarantine["tracked"] == 0  # probe success closed it
            assert quarantine["fast_fails"] >= 1
            codes = {alert.code for alert in service.health_alerts()}
            assert "service-spec-quarantined" in codes
            # an unrelated spec on the same graph was never gated
            assert service.select("g", SPECS[0]).selection.selected
        finally:
            service.close()

    def test_only_shards_contains_the_blast_radius(self):
        keys = ("g0", "g1", "g2", "g3")
        owners = {key: shard_of(key, 2) for key in keys}
        assert set(owners.values()) == {0, 1}  # both shards occupied
        service = make_service(
            keys=keys,
            shards=2,
            seed=0,
            faults=ServiceFaultSpec(deaths=1, only_shards=(0,)),
            **FAST,
        )
        try:
            # synchronous selects: every request is its own processing
            # round, so shard 0's death schedule is guaranteed to fire
            for _ in range(5):
                for key in keys:
                    response = service.select(key, SPECS[0], timeout=30.0)
                    assert (
                        frozenset(response.selection.selected)
                        == direct(service, key, SPECS[0])
                    )
            health = service.stats_snapshot()["health"]
            by_index = {s["index"]: s for s in health["shards"]}
            assert by_index[0]["restarts"] >= 1
            assert by_index[1]["restarts"] == 0
            assert health["lost"] == 0
        finally:
            service.close()


class TestRescueAccounting:
    """``rescued`` counts requests taken from a dead or wedged shard only."""

    def test_transient_fault_retries_are_not_rescues(self):
        service = make_service(
            seed=0,
            faults=ServiceFaultSpec(compile_errors=3, window=4),
            max_attempts=4,
            **FAST,
        )
        try:
            for source in SPECS * 2:
                assert service.select("g", source, timeout=30.0)
            stats = service.stats_snapshot()
        finally:
            service.close()
        assert stats["retried"] == 3
        assert stats["health"]["restarts"] == 0
        assert stats["health"]["rescued"] == 0

    def test_wedged_shard_rescues_its_round(self):
        service = make_service(seed=0, faults="worker-hang", **FAST)
        try:
            for source in SPECS * 2:
                assert service.select("g", source, timeout=30.0)
            health = service.stats_snapshot()["health"]
        finally:
            service.close()
        assert health["wedges"] >= 1
        assert health["rescued"] >= 1


class TestAlertStream:
    def test_restart_alerts_land_in_jsonl_sink(self, tmp_path):
        from repro.trace.alerts import Alert

        path = tmp_path / "alerts.jsonl"
        service = make_service(
            keys=("g",),
            seed=0,
            faults=ServiceFaultSpec(deaths=1),
            alerts_path=path,
            **FAST,
        )
        try:
            for _ in range(5):
                assert service.select("g", SPECS[0], timeout=30.0)
        finally:
            service.close()
        lines = path.read_text().strip().splitlines()
        assert lines
        alerts = [Alert.from_json(line) for line in lines]
        assert any(alert.code == "service-shard-death" for alert in alerts)
        assert all(alert.severity in ("warning", "critical") for alert in alerts)
