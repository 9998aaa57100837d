"""Fault injection, supervised execution and graceful degradation.

The chaos acceptance criteria: a world with a crash-once rank and a
hanging rank completes under the supervisor with *all* results, bit-
identical to the fault-free serial run, on both inner backends; a rank
whose retries exhaust degrades the world under ``degraded="allow"``
(coverage-annotated POP) and raises under ``degraded="forbid"`` — all
deterministic under a fixed fault seed.
"""

import pickle

import pytest

from repro.core.ic import InstrumentationConfig
from repro.errors import (
    CapiError,
    DegradedResultError,
    InjectedFaultError,
    RankExecutionError,
    RankFailedError,
    RankTimeoutError,
    SimMpiError,
)
from repro.execution.workload import Workload
from repro.multirank import (
    FaultSpec,
    ImbalanceSpec,
    SupervisedBackend,
    check_rank_result,
    flatten_merged,
    run_multirank,
)
from repro.multirank.faults import RankFaultPlan
from repro.multirank.scheduler import run_rebalanced
from repro.multirank.dlb import DlbPolicy
from repro.workflow import build_app, run_app
from tests.conftest import make_demo_builder

WL = Workload(site_cap=3)
IMB = ImbalanceSpec(imbalance=0.3, seed=11)

#: fast supervision shape for the demo app (per-rank execution is
#: milliseconds; a hung attempt sleeps deadline + excess = ~0.8s)
DEADLINE = 0.75
HANG_EXCESS = 0.05


@pytest.fixture(scope="module")
def demo_app():
    return build_app(make_demo_builder().build())


@pytest.fixture(scope="module")
def demo_ic():
    return InstrumentationConfig(functions=frozenset({"kernel", "solve"}))


def _world(app, ic, *, backend="serial", tracing=False, **kwargs):
    return run_multirank(
        app,
        ranks=8,
        imbalance=IMB,
        backend=backend,
        mode="ic",
        tool="scorep",
        ic=ic,
        workload=WL,
        tracing=tracing,
        **kwargs,
    )


def _view(outcome):
    """Materialised comparison view: per-rank artefacts + reductions."""
    return {
        "ranks": [r.rank for r in outcome.per_rank],
        "profiles": [r.profile for r in outcome.per_rank],
        "totals": [r.result.t_total for r in outcome.per_rank],
        "flat": flatten_merged(outcome.merged_profile),
        "pop_app": outcome.pop.app,
    }


def _supervised(inner, **kwargs):
    kwargs.setdefault("deadline_seconds", DEADLINE)
    if inner != "serial":
        kwargs.setdefault("processes", 2)
    return SupervisedBackend(inner, **kwargs)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(SimMpiError):
            FaultSpec(crashes=-1)
        with pytest.raises(SimMpiError):
            FaultSpec(crashes=1, crash_times=0)
        with pytest.raises(SimMpiError):
            FaultSpec(corruptions=1, corrupt_target="stdout")

    def test_quiet(self):
        assert FaultSpec().quiet
        assert not FaultSpec(crashes=1).quiet

    def test_plan_is_deterministic_and_counts_match(self):
        spec = FaultSpec(crashes=2, hangs=1, corruptions=1, seed=5)
        plan = spec.plan(8)
        assert plan == spec.plan(8)
        kinds = [p.active_kind(0) for p in plan.values()]
        assert sorted(kinds) == ["corrupt", "crash", "crash", "hang"]
        # distinct kinds land on distinct ranks while the world is big
        assert len(plan) == 4

    def test_plan_empty_for_quiet_spec(self):
        assert FaultSpec().plan(8) == {}

    def test_oversubscribed_world_wraps(self):
        # more afflicted ranks than ranks: plans compose on the same rank
        spec = FaultSpec(crashes=2, hangs=2, seed=5)
        plan = spec.plan(2)
        assert set(plan) == {0, 1}

    def test_active_kind_windows_serialise(self):
        plan = RankFaultPlan(
            rank=0, die_attempts=1, crash_attempts=2, hang_attempts=1,
            corrupt_attempts=1,
        )
        kinds = [plan.active_kind(a) for a in range(6)]
        assert kinds == ["die", "crash", "crash", "hang", "corrupt", None]


class TestIntegrityGate:
    def test_clean_result_passes(self, demo_app, demo_ic):
        out = _world(demo_app, demo_ic)
        for r in out.per_rank:
            check_rank_result(r)  # must not raise

    def test_nan_profile_detected(self, demo_app, demo_ic):
        out = _world(
            demo_app, demo_ic,
            backend=_supervised("serial", max_attempts=1),
            faults=FaultSpec(corruptions=1, corrupt_target="profile", seed=59),
            degraded="allow",
        )
        # with a single attempt the corrupted rank is rejected outright
        assert len(out.missing_ranks) == 1
        (lost,) = out.health.per_rank[out.missing_ranks[0]].failures
        assert "corrupt profile" in lost

    def test_truncated_trace_detected(self, demo_app, demo_ic):
        out = _world(
            demo_app, demo_ic, tracing=True,
            backend=_supervised("serial", max_attempts=1),
            faults=FaultSpec(corruptions=1, corrupt_target="trace", seed=61),
            degraded="allow",
        )
        assert len(out.missing_ranks) == 1
        (lost,) = out.health.per_rank[out.missing_ranks[0]].failures
        assert "trace" in lost


class TestChaosAcceptance:
    """The ISSUE acceptance scenario, on both inner backends."""

    @pytest.fixture(scope="class")
    def reference(self, demo_app, demo_ic):
        return _world(demo_app, demo_ic, backend="serial")

    @pytest.mark.parametrize("inner", ["serial", "multiprocessing"])
    def test_crash_plus_hang_completes_bit_identical(
        self, demo_app, demo_ic, reference, inner
    ):
        spec = FaultSpec(
            crashes=1, hangs=1, seed=53, hang_excess_seconds=HANG_EXCESS
        )
        backend = _supervised(inner)
        out = _world(
            demo_app, demo_ic, backend=backend, faults=spec
        )
        assert len(out.per_rank) == 8
        assert out.missing_ranks == ()
        assert _view(out) == _view(reference)
        # exactly the two afflicted ranks needed a second attempt
        assert len(out.health.retried_ranks) == 2
        assert set(out.health.retried_ranks) == set(spec.plan(8))

    def test_attempt_accounting_matches_across_backends(
        self, demo_app, demo_ic
    ):
        spec = FaultSpec(
            crashes=1, hangs=1, seed=53, hang_excess_seconds=HANG_EXCESS
        )
        attempts = {}
        for inner in ("serial", "multiprocessing"):
            out = _world(
                demo_app, demo_ic, backend=_supervised(inner), faults=spec
            )
            attempts[inner] = [h.attempts for h in out.health.per_rank]
        assert attempts["serial"] == attempts["multiprocessing"]

    def test_hang_recorded_as_timeout(self, demo_app, demo_ic):
        spec = FaultSpec(hangs=1, seed=47, hang_excess_seconds=HANG_EXCESS)
        out = _world(
            demo_app, demo_ic, backend=_supervised("serial"), faults=spec
        )
        (rank,) = out.health.retried_ranks
        assert "RankTimeoutError" in out.health.per_rank[rank].failures[0]

    def test_corruption_heals_on_retry(self, demo_app, demo_ic, reference):
        out = _world(
            demo_app, demo_ic, backend=_supervised("serial"),
            faults=FaultSpec(corruptions=1, corrupt_target="profile", seed=59),
        )
        assert out.missing_ranks == ()
        assert len(out.health.retried_ranks) == 1
        assert _view(out) == _view(reference)

    def test_worker_death_survived_by_pool_respawn(
        self, demo_app, demo_ic, reference
    ):
        spec = FaultSpec(deaths=1, seed=67)
        out = _world(
            demo_app, demo_ic,
            backend=_supervised("multiprocessing"),
            faults=spec,
        )
        assert len(out.per_rank) == 8
        assert _view(out) == _view(reference)
        # only the culprit is charged the failed attempt
        assert set(out.health.retried_ranks) == set(spec.plan(8))

    def test_unsupervised_backend_crashes_loud(self, demo_app, demo_ic):
        with pytest.raises(InjectedFaultError):
            _world(
                demo_app, demo_ic, backend="serial",
                faults=FaultSpec(crashes=1, seed=43),
            )


#: a rank that fails every attempt any sane retry budget allows
LOST = FaultSpec(crashes=1, crash_times=99, seed=71)


class TestDegradation:
    def test_forbid_raises_with_missing_ranks(self, demo_app, demo_ic):
        with pytest.raises(DegradedResultError) as err:
            _world(
                demo_app, demo_ic, backend=_supervised("serial"), faults=LOST
            )
        assert len(err.value.missing_ranks) == 1

    @pytest.mark.parametrize("inner", ["serial", "multiprocessing"])
    def test_allow_reduces_survivors(self, demo_app, demo_ic, inner):
        out = _world(
            demo_app, demo_ic, backend=_supervised(inner),
            faults=LOST, degraded="allow",
        )
        assert len(out.per_rank) == 7
        assert out.missing_ranks == tuple(LOST.plan(8))
        assert out.degraded and out.coverage == pytest.approx(7 / 8)
        assert out.pop.missing_ranks == out.missing_ranks
        assert "DEGRADED" in out.pop.render()
        assert out.health.lost_ranks == out.missing_ranks
        # survivors keep their true rank identities through the merge
        assert [r.rank for r in out.per_rank] == sorted(
            set(range(8)) - set(out.missing_ranks)
        )

    def test_lost_rank_deterministic_across_backends(self, demo_app, demo_ic):
        missing = [
            _world(
                demo_app, demo_ic, backend=_supervised(inner),
                faults=LOST, degraded="allow",
            ).missing_ranks
            for inner in ("serial", "multiprocessing")
        ]
        assert missing[0] == missing[1]

    def test_degraded_trace_merge_keeps_rank_ids(self, demo_app, demo_ic):
        out = _world(
            demo_app, demo_ic, tracing=True,
            backend=_supervised("serial"), faults=LOST, degraded="allow",
        )
        assert out.merged_trace is not None
        assert out.merged_trace.rank_ids == tuple(
            r.rank for r in out.per_rank
        )
        assert out.merged_trace.validate() == []

    def test_whole_world_lost_always_raises(self, demo_app, demo_ic):
        every = FaultSpec(crashes=8, crash_times=99, seed=71)
        with pytest.raises(DegradedResultError):
            _world(
                demo_app, demo_ic, backend=_supervised("serial"),
                faults=every, degraded="allow",
            )

    def test_bad_policy_rejected(self, demo_app, demo_ic):
        with pytest.raises(CapiError):
            _world(demo_app, demo_ic, degraded="maybe")

    def test_rebalance_stops_on_degraded_baseline(self, demo_app, demo_ic):
        rb = run_rebalanced(
            demo_app,
            ranks=8,
            imbalance=ImbalanceSpec(stragglers=1, straggler_factor=1.6, seed=31),
            dlb=DlbPolicy(),
            backend=_supervised("serial"),
            mode="ic",
            tool="talp",
            ic=demo_ic,
            workload=WL,
            faults=LOST,
            degraded="allow",
        )
        assert not rb.converged
        assert len(rb.history) == 1
        assert rb.baseline.degraded
        # a rebalance computed from partial data is never "the best"
        assert rb.final is rb.history[0]


class TestWorkflowIntegration:
    def test_faults_require_multirank_path(self, demo_app, demo_ic):
        with pytest.raises(CapiError):
            run_app(
                demo_app, mode="ic", tool="scorep", ic=demo_ic,
                workload=WL, faults="crash-once",
            )

    def test_named_preset_and_health_on_outcome(self, demo_app, demo_ic):
        out = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL,
            ranks=4, imbalance=IMB,
            backend=SupervisedBackend("serial", deadline_seconds=DEADLINE),
            faults="crash-once",
        )
        assert out.health is not None
        assert out.health.coverage == 1.0
        assert len(out.health.retried_ranks) == 1

    def test_unknown_preset_rejected(self, demo_app, demo_ic):
        with pytest.raises(CapiError, match="crash-twice"):
            run_app(
                demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL,
                ranks=4, imbalance=IMB, faults="crash-twice",
            )

    def test_unsupervised_run_has_health_without_records(
        self, demo_app, demo_ic
    ):
        out = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL,
            ranks=4, imbalance=IMB,
        )
        assert out.health is not None
        assert out.health.per_rank is None
        assert out.health.coverage == 1.0


class TestErrorTypes:
    def test_hierarchy(self):
        assert issubclass(InjectedFaultError, RankFailedError)
        assert issubclass(RankFailedError, RankExecutionError)
        assert issubclass(RankTimeoutError, RankExecutionError)

    def test_rank_errors_pickle_round_trip(self):
        err = RankFailedError("rank 3 broke", rank=3)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.rank == 3 and str(clone) == str(err)

    def test_degraded_error_carries_missing_ranks(self):
        err = DegradedResultError("partial", missing_ranks=(1, 4))
        clone = pickle.loads(pickle.dumps(err))
        assert clone.missing_ranks == (1, 4)
