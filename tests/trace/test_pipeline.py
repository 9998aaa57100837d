"""End-to-end durable pipeline: run_app(trace_dir=...) on every backend,
streaming merge bit-identical to in-memory, faults absorbed on disk."""

import pytest

from repro.core.ic import InstrumentationConfig
from repro.errors import CapiError
from repro.execution.workload import Workload
from repro.multirank import (
    DlbPolicy,
    FaultSpec,
    ImbalanceSpec,
    SupervisedBackend,
)
from repro.trace import (
    open_merged_trace,
    read_definitions,
    read_health_record,
    scan_run,
)
from repro.workflow import build_app, run_app
from tests.conftest import make_demo_builder
from tests.trace.test_streaming import assert_equivalent

WL = Workload(site_cap=4)


@pytest.fixture(scope="module")
def demo_app():
    return build_app(make_demo_builder().build())


@pytest.fixture(scope="module")
def demo_ic():
    return InstrumentationConfig(functions=frozenset({"kernel", "solve"}))


def traced_run(demo_app, demo_ic, trace_dir=None, *, ranks=3, backend="serial",
               faults=None, degraded="forbid"):
    return run_app(
        demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=ranks,
        workload=WL, imbalance=ImbalanceSpec(stragglers=1, seed=31),
        tracing=True, backend=backend,
        trace_dir=str(trace_dir) if trace_dir else None,
        faults=faults, degraded=degraded,
    )


class TestMultiRankArchive:
    @pytest.fixture(scope="class")
    def archive(self, demo_app, demo_ic, tmp_path_factory):
        td = tmp_path_factory.mktemp("serial-archive")
        out = traced_run(demo_app, demo_ic, td)
        return td, out

    def test_definitions_published(self, archive):
        td, out = archive
        defs = read_definitions(td)
        assert defs.world_ranks == 3
        assert defs.locations == (0, 1, 2)
        assert defs.events_per_location == out.merged_trace.events_per_rank
        assert defs.frequency > 0
        assert not defs.degraded

    def test_streaming_merge_bit_identical(self, archive):
        td, out = archive
        streamed = open_merged_trace(td)
        assert_equivalent(streamed, out.merged_trace)
        assert streamed.validate() == []

    def test_watchdog_silent_on_healthy_archive(self, archive):
        td, _ = archive
        assert scan_run(td) == []

    @pytest.mark.parametrize("backend", ["multiprocessing", "supervised"])
    def test_other_backends_write_identical_archives(
        self, demo_app, demo_ic, tmp_path, archive, backend
    ):
        _, reference = archive
        resolved = (
            SupervisedBackend("serial", deadline_seconds=30.0)
            if backend == "supervised"
            else backend
        )
        out = traced_run(demo_app, demo_ic, tmp_path, backend=resolved)
        streamed = open_merged_trace(tmp_path)
        assert list(streamed.events()) == list(reference.merged_trace.events)

    def test_single_rank_archive(self, demo_app, demo_ic, tmp_path):
        out = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic,
            workload=WL, tracing=True, trace_dir=str(tmp_path),
        )
        defs = read_definitions(tmp_path)
        assert defs.world_ranks == 1
        assert out.trace_meta is not None
        streamed = open_merged_trace(tmp_path)
        assert streamed.events_per_rank == (defs.events_per_location[0],)
        assert list(streamed.events())  # non-empty, readable


class TestFaultsOnDisk:
    def _supervised(self, demo_app, demo_ic, td, faults, degraded="forbid"):
        return traced_run(
            demo_app, demo_ic, td,
            backend=SupervisedBackend("serial", deadline_seconds=30.0),
            faults=faults, degraded=degraded,
        )

    def test_crash_once_heals_bit_identical(
        self, demo_app, demo_ic, tmp_path
    ):
        ref_dir = tmp_path / "ref"
        ref = self._supervised(demo_app, demo_ic, ref_dir, None)
        crash_dir = tmp_path / "crash"
        out = self._supervised(
            demo_app, demo_ic, crash_dir,
            FaultSpec(crashes=1, crash_times=1, seed=43),
        )
        assert out.health.retried_ranks
        assert list(open_merged_trace(crash_dir).events()) == list(
            open_merged_trace(ref_dir).events()
        )
        # retried ranks surface as a watchdog warning, nothing worse
        codes = {(a.code, a.severity) for a in scan_run(crash_dir)}
        assert codes == {("retried", "warning")}

    def test_corrupt_trace_on_disk_detected_and_retried(
        self, demo_app, demo_ic, tmp_path
    ):
        """The corrupt-trace fault byte-truncates the published location
        file; the supervisor's integrity gate catches it from disk and
        the retry republishes a clean archive."""
        out = self._supervised(
            demo_app, demo_ic, tmp_path,
            FaultSpec(corruptions=1, corrupt_times=1,
                      corrupt_target="trace", seed=59),
        )
        assert out.health.retried_ranks
        streamed = open_merged_trace(tmp_path)
        assert_equivalent(streamed, out.merged_trace)
        assert streamed.validate() == []

    def test_rank_loss_leaves_degraded_archive(
        self, demo_app, demo_ic, tmp_path
    ):
        out = self._supervised(
            demo_app, demo_ic, tmp_path,
            FaultSpec(crashes=1, crash_times=99, seed=71),
            degraded="allow",
        )
        lost = out.health.missing_ranks
        assert len(lost) == 1
        defs = read_definitions(tmp_path)
        assert defs.degraded
        assert lost[0] not in defs.locations
        streamed = open_merged_trace(tmp_path)
        assert streamed.rank_ids == defs.locations
        assert_equivalent(streamed, out.merged_trace)
        # health.json rode along; the watchdog reports the loss
        health = read_health_record(tmp_path)
        assert health is not None and health.missing_ranks == lost
        codes = [a.code for a in scan_run(tmp_path)]
        assert "lost" in codes and "degraded" in codes


class TestGuards:
    def test_trace_dir_requires_tracing(self, demo_app, demo_ic, tmp_path):
        with pytest.raises(CapiError, match="tracing=True"):
            run_app(
                demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=2,
                workload=WL, imbalance=ImbalanceSpec(),
                trace_dir=str(tmp_path),
            )

    def test_trace_dir_incompatible_with_dlb(
        self, demo_app, demo_ic, tmp_path
    ):
        with pytest.raises(CapiError, match="rewrite the archive"):
            run_app(
                demo_app, mode="ic", tool="scorep", ic=demo_ic, ranks=2,
                workload=WL, imbalance=ImbalanceSpec(stragglers=1, seed=3),
                tracing=True, dlb=DlbPolicy(),
                trace_dir=str(tmp_path),
            )
