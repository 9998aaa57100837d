"""Unit tests for the virtual-clock execution engine."""

import pytest

from benchmarks.reference import defeat_memoization
from repro.errors import ExecutionError
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.execution.engine import ExecutionEngine
from repro.execution.workload import Workload
from repro.program.builder import ProgramBuilder
from repro.program.compiler import Compiler
from repro.program.linker import Linker
from repro.program.loader import DynamicLoader
from repro.simmpi.comm import SimComm
from repro.simmpi.pmpi import PmpiLayer
from repro.simmpi.world import MpiWorld
from repro.xray.runtime import XRayRuntime
from tests.conftest import make_demo_builder


def build_and_load(builder):
    linked = Linker().link(Compiler().compile(builder.build()))
    loader = DynamicLoader()
    objs = loader.load_program(linked)
    return linked, loader, objs


def make_engine(builder=None, *, with_xray=False, patch_all=False, **kwargs):
    linked, loader, objs = build_and_load(builder or make_demo_builder())
    xray_rt = None
    if with_xray:
        xray_rt = XRayRuntime(loader.image)
        exe = objs[0]
        xray_rt.init_main_executable(
            exe.binary.name, exe.base, exe.binary.sled_records, exe.binary.function_ids
        )
        from repro.xray.dso import XRayDsoRuntime

        dso_rt = XRayDsoRuntime(xray_rt)
        for lo in objs[1:]:
            dso_rt.on_load(lo)
        if patch_all:
            xray_rt.patch_all()
    pmpi = PmpiLayer(SimComm(MpiWorld(size=4)))
    return ExecutionEngine(
        linked=linked, loaded=objs, xray_runtime=xray_rt, pmpi=pmpi, **kwargs
    ), xray_rt


class TestBasicExecution:
    def test_run_produces_events_and_time(self):
        engine, _ = make_engine()
        result = engine.run()
        assert result.entry_events > 0
        assert result.t_total > 0
        assert result.useful_cycles > 0

    def test_engine_single_use(self):
        engine, _ = make_engine()
        engine.run()
        with pytest.raises(ExecutionError):
            engine.run()

    def test_determinism(self):
        r1 = make_engine()[0].run()
        r2 = make_engine()[0].run()
        assert r1.t_total == r2.t_total
        assert r1.per_function_calls == r2.per_function_calls

    def test_mpi_calls_counted(self):
        engine, _ = make_engine()
        result = engine.run()
        assert result.mpi_calls >= 2  # at least Init + Finalize
        assert result.mpi_cycles > 0

    def test_call_multiplicities_respected(self):
        engine, _ = make_engine(workload=Workload(site_cap=100))
        result = engine.run()
        # main calls solve 5 times
        assert result.per_function_calls["solve"] == 5
        # solve -> wrap1 -> wrap2 -> kernel x20
        assert result.per_function_calls["kernel"] == 100


class TestWorkloadShaping:
    def test_site_cap_charges_remainder(self):
        capped, _ = make_engine(workload=Workload(site_cap=1))
        r_capped = capped.run()
        assert r_capped.charged_only_calls > 0
        # kernel only walked once per wrap2 invocation
        assert r_capped.per_function_calls["kernel"] == 1

    def test_total_time_first_order_independent_of_cap(self):
        full = make_engine(workload=Workload(site_cap=1000))[0].run()
        capped = make_engine(workload=Workload(site_cap=1))[0].run()
        assert capped.t_total == pytest.approx(full.t_total, rel=0.05)

    def test_scale_increases_time(self):
        small = make_engine(workload=Workload(scale=1.0))[0].run()
        big = make_engine(workload=Workload(scale=4.0))[0].run()
        assert big.t_total > small.t_total * 2

    def test_event_budget_stops_walking(self):
        unbounded = make_engine(workload=Workload(site_cap=1000))[0].run()
        engine, _ = make_engine(workload=Workload(site_cap=1000, event_budget=10))
        result = engine.run()
        # the budget is soft (in-flight frames finish) but must bite
        assert result.entry_events < unbounded.entry_events
        assert result.charged_only_calls > 0
        # total virtual time is preserved through analytic charging
        assert result.t_total == pytest.approx(unbounded.t_total, rel=0.05)

    def test_workload_validation(self):
        with pytest.raises(ExecutionError):
            Workload(scale=0)
        with pytest.raises(ExecutionError):
            Workload(site_cap=0)
        with pytest.raises(ExecutionError):
            Workload(max_depth=1)


class TestSledIntegration:
    def test_unpatched_sleds_near_zero_cost(self):
        vanilla = make_engine(with_xray=False)[0].run()
        inactive = make_engine(with_xray=True, patch_all=False)[0].run()
        assert inactive.t_total == pytest.approx(vanilla.t_total, rel=0.01)

    def test_patched_run_slower_and_fires_handler(self):
        engine, rt = make_engine(with_xray=True, patch_all=True, tool="none")
        events = []
        rt.set_handler(lambda pid, et: events.append(pid))
        inactive = make_engine(with_xray=True, patch_all=False)[0].run()
        result = engine.run()
        assert events
        assert result.t_total > inactive.t_total

    def test_handler_cost_attribution(self):
        cm = CostModel()
        engine, rt = make_engine(with_xray=True, patch_all=True, tool="none")
        clock_costs = []
        rt.set_handler(
            lambda pid, et: clock_costs.append(engine.clock.advance(cm.cyg_shim))
        )
        result = engine.run()
        assert result.patched_functions > 0
        assert result.patched_sleds == 2 * result.patched_functions


class TestSledCacheInvalidation:
    """Regression: ``_patched_cache``/``_analytic_memo`` must be keyed
    to the XRay patch epoch — repatching mid-run invalidates them."""

    def test_is_patched_tracks_repatching(self):
        engine, rt = make_engine(with_xray=True, patch_all=False)
        assert engine._is_patched("kernel") is False
        rt.patch_all()
        assert engine._is_patched("kernel") is True
        rt.unpatch_all()
        assert engine._is_patched("kernel") is False

    def test_analytic_memo_tracks_repatching(self):
        engine, rt = make_engine(with_xray=True, patch_all=False)
        unpatched_cycles = engine._analytic("solve").cycles
        rt.patch_all()
        patched_cycles = engine._analytic("solve").cycles
        # patched sleds dispatch to the handler: strictly more expensive
        assert patched_cycles > unpatched_cycles
        rt.unpatch_all()
        assert engine._analytic("solve").cycles == unpatched_cycles

    def test_memoization_defeat_is_equivalent(self):
        memoised = make_engine(with_xray=True, patch_all=True)[0].run()
        engine, _ = make_engine(with_xray=True, patch_all=True)
        defeat_memoization(engine)
        recomputed = engine.run()
        assert memoised == recomputed


class TestHandlerExtra:
    """Regression: analytic charging must mirror handler-internal costs
    (the event tracer advances the clock inside the handler)."""

    def test_analytic_includes_handler_extra_per_sled_fire(self):
        from repro.program.builder import ProgramBuilder

        def leaf_builder():
            b = ProgramBuilder("leafapp")
            b.tu("t.cpp")
            b.function("main", statements=5)
            b.function("leaf", flops=50, statements=12)
            b.call("main", "leaf", count=10)
            return b

        plain, _ = make_engine(
            leaf_builder(), with_xray=True, patch_all=True, tool="scorep"
        )
        traced, _ = make_engine(
            leaf_builder(), with_xray=True, patch_all=True, tool="scorep",
            handler_extra=110.0,
        )
        delta = traced._analytic("leaf").cycles - plain._analytic("leaf").cycles
        # one entry + one exit sled fire per invocation
        assert delta == pytest.approx(2 * 110.0)

    def test_unpatched_sleds_unaffected(self):
        plain, _ = make_engine(with_xray=True, patch_all=False)
        extra, _ = make_engine(
            with_xray=True, patch_all=False, handler_extra=110.0
        )
        assert extra._analytic("solve").cycles == plain._analytic("solve").cycles


class TestStaticInitializers:
    def test_initializers_run_before_main(self):
        b = make_demo_builder()
        engine, rt = make_engine(b, with_xray=True, patch_all=True)
        order = []
        rt.set_handler(lambda pid, et: order.append(rt.function_name(pid)))
        engine.run()
        # lib_init is a static initializer: its events precede main's
        assert "lib_init" in order
        assert order.index("lib_init") < order.index("main")


class TestVirtualDispatch:
    def test_virtual_calls_rotate_targets(self):
        b = ProgramBuilder("v")
        b.tu("a.cpp")
        b.function("main", statements=2)
        b.function("vbase", statements=4, overrides="vbase")
        b.function("impl_a", statements=4, overrides="vbase")
        b.function("impl_b", statements=4, overrides="vbase")
        b.virtual_call("main", "vbase", count=6)
        engine, _ = make_engine(b, workload=Workload(site_cap=6))
        result = engine.run()
        executed = {
            n for n in ("vbase", "impl_a", "impl_b")
            if result.per_function_calls.get(n)
        }
        assert len(executed) == 3  # rotation touches every override


class TestDeepCallChains:
    """The explicit work-stack walker lifts the interpreter recursion limit."""

    def _chain_builder(self, length: int) -> ProgramBuilder:
        b = ProgramBuilder("deep")
        b.tu("deep.cpp")
        names = ["main"] + [f"link_{i:05d}" for i in range(length)]
        for name in names:
            # big enough to dodge the compiler's auto-inlining
            b.function(name, statements=12)
        b.chain(names)
        return b

    def test_chain_deeper_than_recursion_limit(self):
        import sys

        length = sys.getrecursionlimit() + 500
        engine, _ = make_engine(
            self._chain_builder(length),
            workload=Workload(max_depth=length + 10),
        )
        result = engine.run()
        # every link is entered exactly once, far beyond the former
        # recursive walker's ceiling
        assert result.entry_events == length + 1
        assert result.exit_events == length + 1
        assert result.per_function_calls[f"link_{length - 1:05d}"] == 1

    def test_depth_cap_still_applies(self):
        engine, _ = make_engine(
            self._chain_builder(50), workload=Workload(max_depth=10)
        )
        result = engine.run()
        # main at depth 0 plus links at depths 1..10; deeper links are
        # neither walked nor charged (sites beyond the cap are skipped)
        assert result.entry_events == 11
