"""Tests for the high-level workflow facade."""

import pytest

from repro.core.ic import InstrumentationConfig
from repro.errors import CapiError
from repro.execution.workload import Workload
from repro.workflow import build_app, run_app
from tests.conftest import make_demo_builder

WL = Workload(site_cap=4)


@pytest.fixture(scope="module")
def demo_app():
    return build_app(make_demo_builder().build())


@pytest.fixture(scope="module")
def demo_ic(demo_app):
    return InstrumentationConfig(functions=frozenset({"kernel", "solve"}))


class TestBuildApp:
    def test_graph_built_automatically(self, demo_app):
        assert len(demo_app.graph) == demo_app.program.function_count()

    def test_vanilla_build_has_no_sleds(self):
        vanilla = build_app(make_demo_builder().build(), xray=False)
        assert vanilla.linked.total_sled_count() == 0

    def test_graph_reuse(self, demo_app):
        again = build_app(demo_app.program, xray=False, graph=demo_app.graph)
        assert again.graph is demo_app.graph


class TestRunAppValidation:
    def test_ic_mode_requires_ic(self, demo_app):
        with pytest.raises(CapiError):
            run_app(demo_app, mode="ic", ic=None)

    def test_other_modes_reject_ic(self, demo_app, demo_ic):
        with pytest.raises(CapiError):
            run_app(demo_app, mode="full", ic=demo_ic)


class TestRunAppModes:
    def test_vanilla_mode(self, demo_ic):
        vanilla = build_app(make_demo_builder().build(), xray=False)
        out = run_app(vanilla, mode="vanilla", workload=WL)
        assert out.startup is None
        assert out.result.t_init == 0.0
        assert out.result.patched_functions == 0

    def test_inactive_mode(self, demo_app):
        out = run_app(demo_app, mode="inactive", workload=WL)
        assert out.startup is not None
        assert out.startup.patched_functions == 0
        assert out.startup.registered_dsos == 1

    def test_full_mode_none_tool(self, demo_app):
        out = run_app(demo_app, mode="full", tool="none", workload=WL)
        assert out.startup.patched_functions > 0
        assert out.bridge is not None
        assert out.scorep_profile is None
        assert out.talp_report is None

    def test_ic_mode_scorep(self, demo_app, demo_ic):
        out = run_app(demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL)
        assert out.scorep_profile is not None
        assert out.startup.patched_functions == 2
        assert out.measurement is not None
        assert out.measurement.mpi_calls > 0  # PMPI interception active

    def test_ic_mode_talp(self, demo_app, demo_ic):
        out = run_app(demo_app, mode="ic", tool="talp", ic=demo_ic, workload=WL)
        assert out.talp_report is not None
        assert out.monitor is not None
        names = {m.region for m in out.talp_report.metrics}
        assert "kernel" in names

    def test_ranks_propagate(self, demo_app, demo_ic):
        out = run_app(demo_app, mode="ic", tool="talp", ic=demo_ic, ranks=8, workload=WL)
        assert out.world.size == 8
        assert out.talp_report.world_size == 8

    def test_deterministic_results(self, demo_app, demo_ic):
        a = run_app(demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL)
        b = run_app(demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL)
        assert a.result.t_total == b.result.t_total
        assert a.result.entry_events == b.result.entry_events

    def test_tracing_mode(self, demo_app, demo_ic):
        from repro.scorep.tracing import TraceEventKind, validate_trace

        out = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL,
            tracing=True,
        )
        assert out.tracer is not None
        events = out.tracer.all_events()
        assert events
        kinds = {e.kind for e in events}
        assert TraceEventKind.ENTER in kinds
        assert TraceEventKind.MPI in kinds
        # traces of instrumented runs are well-formed
        assert validate_trace([e for e in events if e.kind is not TraceEventKind.MPI]) == []
        # tracing costs extra time over plain profiling
        plain = run_app(
            demo_app, mode="ic", tool="scorep", ic=demo_ic, workload=WL
        )
        assert out.result.t_total > plain.result.t_total

    def test_tracing_needs_scorep_on_every_path(self, demo_app, demo_ic):
        """tracing with a non-scorep tool fails loudly on the single-rank
        path, matching the multi-rank path (it used to be silently
        ignored here but rejected there)."""
        with pytest.raises(CapiError, match="scorep"):
            run_app(
                demo_app, mode="ic", tool="talp", ic=demo_ic, workload=WL,
                tracing=True,
            )

    def test_tracing_rejected_in_toolless_modes(self, demo_app):
        """vanilla/inactive never install a measurement tool, so a
        requested trace could only ever come back empty — reject it
        instead of silently returning tracer=None."""
        for mode in ("vanilla", "inactive"):
            with pytest.raises(CapiError, match="never installs one"):
                run_app(
                    demo_app, mode=mode, tool="scorep", workload=WL,
                    tracing=True,
                )

    def test_mpi_trace_marker_estimate_matches_walked_cost(self):
        """Regression: estimate_extra() returned 0.0 while tracer.mpi()
        really advances the clock by TRACE_EVENT_EXTRA per MPI event, so
        analytic charging undercounted tracing cost."""
        from repro.execution.clock import VirtualClock
        from repro.scorep.tracing import TRACE_EVENT_EXTRA, ScorePTracer
        from repro.workflow import _MpiTraceMarker

        marker = _MpiTraceMarker(ScorePTracer(clock=VirtualClock()))
        before = marker.tracer.clock.now()
        # the walked path: clock advanced in-line, nothing extra reported
        assert marker.on_mpi_call("MPI_Barrier", 100.0) == 0.0
        walked_cost = marker.tracer.clock.now() - before
        assert walked_cost == TRACE_EVENT_EXTRA
        # the analytic estimate must mirror exactly that cost
        assert marker.estimate_extra() == walked_cost

    def test_config_name_recorded(self, demo_app, demo_ic):
        out = run_app(
            demo_app, mode="ic", ic=demo_ic, config_name="my-config", workload=WL
        )
        assert out.result.config_name == "my-config"
