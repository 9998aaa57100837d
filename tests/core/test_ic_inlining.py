"""Tests for ICs, inlining compensation, the Capi driver and static workflow."""

import pytest

from repro.cg.merge import build_whole_program_cg
from repro.core.capi import Capi
from repro.core.ic import ICProvenance, InstrumentationConfig
from repro.core.inlining import (
    approximate_inlined,
    available_symbols,
    compensate_inlining,
)
from repro.core.static_inst import StaticInstrumenter
from repro.errors import CapiError
from repro.program.binary import BinaryObject
from repro.program.builder import ProgramBuilder
from repro.program.compiler import Compiler
from repro.program.linker import Linker
from tests.conftest import make_demo_builder


class TestIc:
    def test_filter_roundtrip(self, tmp_path):
        ic = InstrumentationConfig(functions=frozenset({"a", "b"}))
        path = tmp_path / "ic.filter"
        ic.dump_filter(path)
        loaded = InstrumentationConfig.load_filter(path)
        assert loaded.functions == ic.functions

    def test_json_roundtrip_with_provenance(self, tmp_path):
        ic = InstrumentationConfig(
            functions=frozenset({"x"}),
            provenance=ICProvenance(
                spec_name="mpi", app_name="demo", selected_pre=5,
                removed_inlined=2, added_compensation=1,
            ),
        )
        path = tmp_path / "ic.json"
        ic.dump_json(path)
        loaded = InstrumentationConfig.load_json(path)
        assert loaded == ic

    def test_membership(self):
        ic = InstrumentationConfig(functions=frozenset({"f"}))
        assert "f" in ic
        assert "g" not in ic
        assert len(ic) == 1


class TestInliningCompensation:
    def test_symbols_across_objects(self, demo_linked):
        symbols = available_symbols(demo_linked)
        assert "main" in symbols
        assert "lib_hidden" in symbols  # nm sees hidden
        assert "tiny" not in symbols  # inlined, symbol dropped

    def test_approximation(self, demo_linked):
        symbols = available_symbols(demo_linked)
        selected = frozenset({"kernel", "tiny"})
        assert approximate_inlined(selected, symbols) == {"tiny"}

    def test_compensation_replaces_inlined_with_caller(self, demo_program, demo_linked):
        graph = build_whole_program_cg(demo_program)
        ic = InstrumentationConfig(functions=frozenset({"tiny"}))
        result = compensate_inlining(ic, graph, demo_linked)
        assert result.removed == {"tiny"}
        # kernel is tiny's first non-inlined caller
        assert result.added == {"kernel"}
        assert result.ic.functions == frozenset({"kernel"})
        assert result.ic.provenance.added_compensation == 1

    def test_caller_already_selected_not_counted_as_added(
        self, demo_program, demo_linked
    ):
        graph = build_whole_program_cg(demo_program)
        ic = InstrumentationConfig(functions=frozenset({"tiny", "kernel"}))
        result = compensate_inlining(ic, graph, demo_linked)
        assert result.added == set()
        assert result.ic.functions == frozenset({"kernel"})

    def test_walks_through_inlined_intermediate_callers(self):
        b = ProgramBuilder("p")
        b.tu("a.cpp")
        b.function("main", statements=20)
        b.function("mid", statements=1)  # auto-inlined
        b.function("leaf", statements=1)  # auto-inlined
        b.call("main", "mid")
        b.call("mid", "leaf")
        program = b.build()
        linked = Linker().link(Compiler().compile(program))
        graph = build_whole_program_cg(program)
        ic = InstrumentationConfig(functions=frozenset({"leaf"}))
        result = compensate_inlining(ic, graph, linked)
        assert result.ic.functions == frozenset({"main"})

    def test_uncovered_function_reported(self):
        b = ProgramBuilder("p")
        b.tu("a.cpp")
        b.function("main", statements=20)
        b.function("orphan", statements=1)  # inlined, no caller at all
        b.call("main", "orphan")
        program = b.build()
        linked = Linker().link(Compiler().compile(program))
        graph = build_whole_program_cg(program)
        # pretend orphan's only caller has no symbol either by selecting
        # a node absent from the graph
        ic = InstrumentationConfig(functions=frozenset({"ghost_fn"}))
        result = compensate_inlining(ic, graph, linked)
        assert result.uncovered == {"ghost_fn"}


class TestCapiDriver:
    def test_outcome_counts_are_consistent(self, demo_program, demo_linked):
        graph = build_whole_program_cg(demo_program)
        capi = Capi(graph=graph, app_name="demo")
        out = capi.select(
            "kernels = flops(\">=\", 10, loopDepth(\">=\", 1, %%))\n"
            "onCallPathTo(%kernels)",
            spec_name="kernels",
            linked=demo_linked,
        )
        prov = out.ic.provenance
        assert prov.selected_pre == len(out.selection.selected)
        assert out.selected_final == len(out.ic.functions) - prov.added_compensation
        assert prov.spec_name == "kernels"
        assert prov.selection_seconds > 0

    def test_compensations_list_nm_symbols_once(self, demo_program, monkeypatch):
        """The ``nm`` names are kept on the linked program: a second
        compensating select of it lists no object again."""
        linked = Linker().link(Compiler().compile(demo_program))
        listed = []
        nm_symbols = BinaryObject.nm_symbols

        def counted(obj):
            listed.append(obj.name)
            return nm_symbols(obj)

        monkeypatch.setattr(BinaryObject, "nm_symbols", counted)
        capi = Capi(graph=build_whole_program_cg(demo_program), app_name="demo")
        first = capi.select("inlineSpecified(%%)", spec_name="a", linked=linked)
        assert sorted(listed) == sorted(o.name for o in linked.all_objects())
        listed.clear()
        second = capi.select("inSystemHeader(%%)", spec_name="b", linked=linked)
        assert listed == []
        assert first.compensation is not None and second.compensation is not None
        assert available_symbols(linked) is available_symbols(linked)

    def test_select_file(self, demo_program, demo_linked, tmp_path):
        spec_path = tmp_path / "my.capi"
        spec_path.write_text("inSystemHeader(%%)\n")
        graph = build_whole_program_cg(demo_program)
        capi = Capi(graph=graph, app_name="demo")
        out = capi.select_file(spec_path, linked=demo_linked)
        assert out.ic.provenance.spec_name == "my"
        assert "MPI_Init" in out.selection.selected

    def test_select_without_binaries_skips_compensation(self, demo_program):
        graph = build_whole_program_cg(demo_program)
        capi = Capi(graph=graph)
        out = capi.select("inlineSpecified(%%)")
        assert out.compensation is None
        assert "tiny" in out.ic.functions


class TestStaticWorkflow:
    def test_build_restricts_instrumentation(self, demo_program):
        inst = StaticInstrumenter(program=demo_program)
        ic = InstrumentationConfig(functions=frozenset({"kernel"}))
        build = inst.build(ic)
        patchable = build.linked.patchable_function_names()
        assert patchable == {"kernel"}
        assert build.rebuild_seconds > 0

    def test_adjust_requires_rebuild(self, demo_program):
        inst = StaticInstrumenter(program=demo_program)
        b1 = inst.build(InstrumentationConfig(functions=frozenset({"kernel"})))
        b2 = inst.adjust(
            b1, InstrumentationConfig(functions=frozenset({"solve"}))
        )
        assert inst.builds == 2
        assert inst.total_rebuild_seconds == pytest.approx(
            b1.rebuild_seconds + b2.rebuild_seconds
        )

    def test_noop_adjust_rejected(self, demo_program):
        inst = StaticInstrumenter(program=demo_program)
        ic = InstrumentationConfig(functions=frozenset({"kernel"}))
        build = inst.build(ic)
        with pytest.raises(CapiError):
            inst.adjust(build, ic)

    def test_rebuild_cost_scales_with_tus(self, demo_program):
        small = StaticInstrumenter(program=demo_program).rebuild_cost_seconds()
        big_builder = make_demo_builder()
        for i in range(30):
            big_builder.tu(f"extra_{i}.cpp")
            big_builder.function(f"extra_fn_{i}", statements=3)
        big = StaticInstrumenter(program=big_builder.build()).rebuild_cost_seconds()
        assert big > small
