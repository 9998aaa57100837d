"""The walk tape against the frame walker it replaced.

Every run replays a tape recorded once per layout, workload and walk
shape (:mod:`repro.execution.engine`); ``benchmarks.reference``'s
:func:`reference_run` still walks the call tree on every run and fires
every sled through ``XRayRuntime.fire_sled``.  For random programs,
workloads (caps, depth limits and event budgets that bind mid-walk,
``scale`` and ``root_scale``), patch sets, tools and handlers that
patch or unpatch sleds mid-run, both must produce the same run: the
same :class:`RunResult` field for field, the same Score-P profile,
trace rows and TALP regions, or the same error.
"""

from __future__ import annotations

import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.reference import reference_run
from repro.apps import PAPER_SPECS, build_openfoam
from repro.core import Capi
from repro.core.ic import InstrumentationConfig
from repro.errors import XRayError
from repro.execution.engine import ExecutionEngine
from repro.execution.workload import Workload
from repro.experiments.runner import DEFAULT_WORKLOAD
from repro.multirank import ImbalanceSpec
from repro.program.builder import ProgramBuilder
from repro.program.compiler import CompilerConfig
from repro.workflow import build_app, run_app
from repro.xray.runtime import XRayRuntime
from repro.xray.sled import SLED_BYTES, UNPATCHED, SledKind, encode_patch
from tests.conftest import make_demo_builder
from tests.execution.test_engine import make_engine
from tests.integration.test_properties import random_programs

#: (mode, tool, tracing) combinations a run can take
CONFIGS = (
    ("vanilla", "none", False),
    ("inactive", "none", False),
    ("ic", "none", False),
    ("ic", "scorep", False),
    ("ic", "scorep", True),
    ("ic", "talp", False),
    ("full", "scorep", True),
    ("full", "talp", False),
)

ROOT_SCALES = st.sampled_from([0.3, 0.5, 0.729, 1.0, 1.6])


def demo_with_dispatch():
    """The demo program (a DSO, a static initialiser, MPI) plus a
    virtual call rotating over three overriders."""
    b = make_demo_builder()
    b.tu("shapes.cpp")
    for name in ("vbase", "impl_a", "impl_b"):
        b.function(name, statements=9, overrides="vbase")
    b.virtual_call("solve", "vbase", count=4)
    return b.build()


@st.composite
def cases(draw):
    if draw(st.booleans()):
        program, pic = demo_with_dispatch(), draw(st.booleans())
    else:
        program, pic = draw(random_programs()), True
    workload = Workload(
        scale=draw(st.sampled_from([0.5, 1.0, 1.5])),
        site_cap=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(2, 6)),
        event_budget=draw(st.sampled_from([0, 1, 2, 3, 5, 8, 13, 21, 2_000_000])),
    )
    # two ranks of one world: the second shares the first's slot
    root_scales = draw(st.lists(ROOT_SCALES, min_size=2, max_size=2))
    mode, tool, tracing = draw(st.sampled_from(CONFIGS))
    names = sorted(f.name for f in program.functions())
    patched = draw(st.sets(st.sampled_from(names)))
    # the handler toggles sleds at its k-th event (see toggling_handlers)
    toggle = draw(
        st.none()
        | st.tuples(st.integers(1, 12), st.integers(0, 1_000), st.booleans())
    )
    return program, pic, workload, root_scales, mode, tool, tracing, patched, toggle


def write_sleds(runtime, target, patched):
    """Patch or unpatch ``target``'s sleds without the patcher, as a
    foreign tool would: the patcher's decoded table drops."""
    obj = runtime.object(target.object_id)
    memory = runtime.patcher.memory
    for sled in obj.sleds_of(target.function_id):
        if not patched:
            payload = UNPATCHED
        else:
            trampoline = (
                obj.entry_trampoline
                if sled.record.kind is SledKind.ENTRY
                else obj.exit_trampoline
            )
            payload = encode_patch(target.pack(), trampoline.trampoline_id)
        memory.mprotect(sled.address, SLED_BYTES, writable=True)
        memory.write(sled.address, payload)
        memory.mprotect(sled.address, SLED_BYTES, writable=False)


@contextmanager
def toggling_handlers(toggle):
    """Wrap every installed handler so that its ``k``-th event patches
    or unpatches the sleds of one function (picked by ``pick``) through
    the patcher, or (``foreign``) writes the bytes of that function and
    every one after it in id order."""
    original = XRayRuntime.set_handler

    def set_handler(runtime, handler):
        if handler is not None and toggle is not None:
            k, pick, foreign = toggle
            inner = handler
            events = [0]

            def handler(packed, event):
                inner(packed, event)
                events[0] += 1
                if events[0] != k:
                    return
                ids = runtime.packed_ids()
                if foreign:
                    for target in ids[pick % len(ids):]:
                        write_sleds(runtime, target, not runtime.is_patched(target))
                    return
                target = ids[pick % len(ids)]
                if runtime.is_patched(target):
                    runtime.unpatch_function(target)
                else:
                    runtime.patch_function(target)

        original(runtime, handler)

    XRayRuntime.set_handler = set_handler
    try:
        yield
    finally:
        XRayRuntime.set_handler = original


@contextmanager
def frame_walker():
    original = ExecutionEngine.run
    ExecutionEngine.run = reference_run
    try:
        yield
    finally:
        ExecutionEngine.run = original


def call_tree(node, path=()):
    path = path + (node.name,)
    rows = [(path, node.visits, node.inclusive_cycles)]
    for child in node.children.values():
        rows += call_tree(child, path)
    return rows


def observe(built, workload, mode, tool, tracing, patched, toggle):
    """Everything a run shows, or the error it raised."""
    ic = InstrumentationConfig(frozenset(patched)) if mode == "ic" else None
    try:
        with warnings.catch_warnings(), toggling_handlers(toggle):
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_app(
                built, mode=mode, tool=tool, ic=ic, workload=workload, tracing=tracing
            )
    except Exception as exc:  # noqa: BLE001 - the error is the observation
        return ("raised", type(exc), str(exc))
    return {
        "result": run.result,
        "calls": list(run.result.per_function_calls.items()),
        "startup": run.startup,
        "profile": call_tree(run.scorep_profile) if run.scorep_profile else None,
        "trace": (
            [astuple(e) for e in run.tracer.all_events()] if run.tracer else None
        ),
        "talp": run.talp_report,
    }


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=cases())
def test_replay_equals_the_frame_walk(case):
    program, pic, workload, root_scales, mode, tool, tracing, patched, toggle = case
    built = build_app(program, compiler_config=CompilerConfig(pic=pic))
    workloads = [replace(workload, root_scale=r) for r in root_scales]

    def runs():
        return [
            observe(built, w, mode, tool, tracing, patched, toggle) for w in workloads
        ]

    recorded = runs()  # records the tapes
    with frame_walker():
        walked = runs()
    replayed = runs()  # replays the kept tapes
    assert recorded == walked
    assert replayed == walked


@pytest.mark.parametrize("tool", ["none", "scorep", "talp"])
def test_sleds_patched_behind_the_patcher_fire(tool):
    """The handler of ``main``'s entry patches every sled by writing the
    bytes itself; the walk below it (no MPI, no charge in between) must
    fire them, so the replay re-reads the decoded table after the
    handler returns."""
    b = ProgramBuilder("chain")
    b.tu("chain.cpp")
    for name in ("main", "a", "b", "c"):
        b.function(name, statements=12)
    b.call("main", "a", count=3)
    b.call("a", "b", count=2)
    b.call("b", "c", count=2)
    built = build_app(b.build())
    args = (built, Workload(site_cap=4), "ic", tool, False, {"main"}, (1, 0, True))
    replayed = observe(*args)
    with frame_walker():
        walked = observe(*args)
    assert replayed == walked
    # every sled after main's entry fired through the handler
    assert replayed["result"].t_total > observe(*args[:-1], None)["result"].t_total


@pytest.mark.parametrize("patched", [False, True])
def test_sleds_of_a_deregistered_object_read_their_bytes(patched):
    """A DSO deregistered with its sleds in place: the replay reads
    them from their bytes as ``fire_sled`` does — NOPs run, a patched
    sled that belongs to no object raises ``XRayError``."""
    outcomes = []
    for walk in (ExecutionEngine.run, reference_run):
        engine, runtime = make_engine(with_xray=True, patch_all=patched)
        runtime.deregister_object(runtime.object_id_of("libdemo.so"))
        try:
            result = walk(engine)
        except XRayError as exc:
            outcomes.append(("raised", str(exc)))
        else:
            outcomes.append((result, engine.clock.cycles))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0][0] == "raised") is patched


class TestWorldSharesStructure:
    """Ranks differ only in ``root_scale``: they share the records and
    one tape per walk shape, and a second world builds neither."""

    def test_records_once_and_one_tape_per_shape(self, monkeypatch):
        app = build_app(build_openfoam(target_nodes=2_000))
        capi = Capi(graph=app.graph, app_name=app.name)
        ic = capi.select(PAPER_SPECS["mpi"], spec_name="mpi", linked=app.linked).ic
        records, tapes = Counter(), []
        build_record = ExecutionEngine._build_record
        record_tape = ExecutionEngine._record_tape

        def counted_record(engine, name):
            records[name] += 1
            return build_record(engine, name)

        def counted_tape(engine, root_sites):
            tape = record_tape(engine, root_sites)
            tapes.append(tape.entry_events)
            return tape

        monkeypatch.setattr(ExecutionEngine, "_build_record", counted_record)
        monkeypatch.setattr(ExecutionEngine, "_record_tape", counted_tape)

        def world():
            return run_app(
                app, mode="ic", tool="scorep", ic=ic, ranks=8, backend="serial",
                imbalance=ImbalanceSpec(imbalance=0.3, seed=5),
                workload=DEFAULT_WORKLOAD,
            )

        first = world()
        walks = {r.result.entry_events for r in first.multirank.per_rank}
        assert records and max(records.values()) == 1
        assert len(walks) > 1
        assert sorted(tapes) == sorted(walks)
        records.clear()
        tapes.clear()
        second = world()
        assert not records and not tapes
        assert [r.result for r in second.multirank.per_rank] == [
            r.result for r in first.multirank.per_rank
        ]
