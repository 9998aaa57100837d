"""Span and counter recorder for the traced pass, and the layer map.

The traced pass wraps each layer's public entry points from outside the
program: :func:`install` replaces the named functions and methods with
wrappers that time every call into a per-thread span stack.  A span's
*self time* is its duration minus the time of the spans nested in it, so
the self times of all spans plus the unattributed remainder add up to
the wall time of the pass.

Spans are aggregated in memory (count, inclusive seconds, self seconds
per name).  A process forked by the multirank pool starts with empty
tables; it writes them to a per-process file after each rank it
executes, and the parent merges those files at the end of the pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path


class SpanRecorder:
    """Per-thread span stacks feeding per-thread aggregate tables."""

    def __init__(self) -> None:
        self.enabled = False
        #: directory forked workers write their tables to (None: no dump)
        self.worker_dir: Path | None = None
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[tuple[dict, dict, list]] = []
        self._dumps = 0

    def _thread_state(self) -> tuple[dict, dict, list, list]:
        if os.getpid() != self._pid:
            # a forked worker inherits the parent's tables and open
            # stack; start empty so nothing is counted twice
            self._reset()
        local = self._local
        try:
            return local.spans, local.counters, local.roots, local.stack
        except AttributeError:
            local.spans, local.counters, local.roots, local.stack = {}, {}, [0.0], []
            with self._lock:
                self._threads.append((local.spans, local.counters, local.roots))
            return local.spans, local.counters, local.roots, local.stack

    def count(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        counters = self._thread_state()[1]
        counters[name] = counters.get(name, 0) + value

    def wrap(self, name: str, fn, *, when=None, after=None):
        """``fn`` timed as span ``name``.

        ``when(args)`` decides per call whether the call is a span;
        ``after(recorder, args, result)`` records counters from the
        call's arguments and result.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            spans, _, roots, stack = recorder._thread_state()
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    roots[0] += elapsed
                row = spans.get(name)
                if row is None:
                    row = spans[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - child[0]
            if after is not None:
                after(recorder, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def snapshot(self) -> dict:
        """Merged tables of every thread of this process."""
        spans: dict[str, list] = {}
        counters: dict[str, float] = {}
        roots = 0.0
        with self._lock:
            threads = list(self._threads)
        for thread_spans, thread_counters, thread_roots in threads:
            merge_tables(spans, counters, thread_spans, thread_counters)
            roots += thread_roots[0]
        return {"spans": spans, "counters": counters, "roots": roots}

    def clear(self) -> None:
        with self._lock:
            for thread_spans, thread_counters, thread_roots in self._threads:
                thread_spans.clear()
                thread_counters.clear()
                thread_roots[0] = 0.0

    def dump_if_worker(self, parent_pid: int) -> None:
        """In a forked worker, move this process's tables to a file."""
        if os.getpid() == parent_pid or self.worker_dir is None:
            return
        self._dumps += 1
        path = self.worker_dir / f"spans-{os.getpid()}-{self._dumps}.json"
        snapshot = self.snapshot()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(snapshot))
        os.replace(tmp, path)
        self.clear()

    def collect_workers(self) -> dict:
        """Merge (and remove) every table the forked workers wrote."""
        spans: dict[str, list] = {}
        counters: dict[str, float] = {}
        if self.worker_dir is not None:
            for path in sorted(self.worker_dir.glob("spans-*.json")):
                record = json.loads(path.read_text())
                merge_tables(spans, counters, record["spans"], record["counters"])
                path.unlink()
        return {"spans": spans, "counters": counters}


def merge_tables(spans: dict, counters: dict, more_spans: dict, more_counters: dict) -> None:
    """Add ``more_spans``/``more_counters`` into ``spans``/``counters``."""
    for name, (n, total, own) in more_spans.items():
        row = spans.setdefault(name, [0, 0.0, 0.0])
        row[0] += n
        row[1] += total
        row[2] += own
    for name, value in more_counters.items():
        counters[name] = counters.get(name, 0) + value


# -- the layer map -----------------------------------------------------------------
#
# (module, attribute, span name, options).  Module-level functions are
# also rebound in every program or benchmark module that imported them
# by name.


def _after_startup(recorder: SpanRecorder, args, report) -> None:
    dyn = args[0]
    recorder.count("xray.patched_sleds", report.patched_sleds)
    recorder.count("program.mprotect_calls", dyn.loader.image.mprotect_calls)


def _after_run(recorder: SpanRecorder, args, result) -> None:
    recorder.count("execution.entry_events", result.entry_events)
    recorder.count("execution.mpi_calls", result.mpi_calls)


def _cold_csr(args) -> bool:
    return args[0]._csr is None


def _after_map(recorder: SpanRecorder, args, results) -> None:
    backend = args[0]
    for health in getattr(backend, "last_health", ()) or ():
        recorder.count("multirank.attempts", health.attempts)


def _after_rank(recorder: SpanRecorder, args, result) -> None:
    recorder.dump_if_worker(PARENT_PID)


#: pid of the benchmark process (forked pool workers differ)
PARENT_PID = os.getpid()

LAYER_MAP = (
    ("repro.apps.openfoam", "build_openfoam", "apps.generate", {}),
    ("repro.apps.lulesh", "build_lulesh", "apps.generate", {}),
    ("repro.program.compiler", "Compiler.compile", "program.compile", {}),
    ("repro.program.linker", "Linker.link", "program.link", {}),
    ("repro.cg.merge", "build_whole_program_cg", "cg.metacg", {}),
    ("repro.program.loader", "DynamicLoader.load_program", "program.load", {}),
    ("repro.dyncapi.runtime", "DynCapi.startup", "dyncapi.startup",
     {"after": _after_startup}),
    ("repro.dyncapi.symbols", "collect_all_symbols", "dyncapi.symbols", {}),
    ("repro.dyncapi.symbols", "build_id_name_map", "dyncapi.idmap", {}),
    ("repro.xray.runtime", "XRayRuntime.init_main_executable", "xray.register", {}),
    ("repro.xray.dso", "XRayDsoRuntime.on_load", "xray.register", {}),
    ("repro.xray.runtime", "XRayRuntime.patch_function", "xray.patch", {}),
    ("repro.execution.engine", "ExecutionEngine.run", "execution.run",
     {"after": _after_run}),
    ("repro.scorep.measurement", "ScorePMeasurement.finalize", "scorep.finalize", {}),
    ("repro.scorep.measurement", "ScorePMeasurement.profile", "scorep.finalize", {}),
    ("repro.scorep.score_tool", "score_profile", "scorep.score", {}),
    ("repro.talp.report", "build_report", "talp.report", {}),
    ("repro.core.capi", "Capi.select", "core.select", {}),
    ("repro.core.spec.modules", "load_spec", "core.load_spec", {}),
    ("repro.core.pipeline", "compile_spec", "core.compile", {}),
    ("repro.core.pipeline", "evaluate_pipeline", "core.evaluate", {}),
    ("repro.core.pipeline", "evaluate_compiled", "core.evaluate", {}),
    ("repro.core.inlining", "compensate_inlining", "core.compensate", {}),
    ("repro.cg.graph", "CallGraph.csr", "cg.csr_build", {"when": _cold_csr}),
    ("repro.cg.csr", "CsrSnapshot.refresh", "cg.refresh", {}),
    ("repro.service.batch", "BatchEvaluator.evaluate", "service.evaluate", {}),
    ("repro.multirank.backends", "SupervisedBackend.map_ranks", "multirank.map",
     {"after": _after_map}),
    ("repro.multirank.backends", "MultiprocessingBackend.map_ranks", "multirank.map", {}),
    ("repro.multirank.backends", "SerialBackend.map_ranks", "multirank.map", {}),
    ("repro.multirank.scheduler", "execute_rank", "multirank.rank",
     {"after": _after_rank}),
    ("repro.multirank.faults", "check_rank_result", "multirank.check", {}),
    ("repro.multirank.reduce", "merge_profiles", "multirank.reduce", {}),
    ("repro.multirank.reduce", "build_pop_report", "multirank.reduce", {}),
    ("repro.multirank.tracing", "merge_rank_traces", "multirank.merge", {}),
    ("repro.trace.store", "TraceWriter.flush", "trace.write", {}),
    ("repro.trace.store", "TraceWriter.close", "trace.write", {}),
    ("repro.trace.store", "load_location", "trace.load", {}),
    ("repro.trace.streaming", "open_merged_trace", "trace.open", {}),
    ("repro.trace.streaming", "StreamingTrace.validate", "trace.validate", {}),
    ("repro.trace.streaming", "StreamingTrace.wait_states", "trace.wait_states", {}),
    ("repro.trace.streaming", "StreamingTrace.critical_path", "trace.critical_path", {}),
    ("repro.trace.waitstates", "classify_wait_states", "trace.classify", {}),
    ("repro.trace.watchdog", "scan_run", "trace.watchdog", {}),
    ("repro.workflow", "run_app", "workflow.run_app", {}),
)


def _importers() -> list:
    """Modules that may hold a function imported by name: the program's
    and the benchmark's own."""
    here = str(Path(__file__).resolve().parent)
    found = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        path = getattr(module, "__file__", "") or ""
        if name.startswith("repro") or path.startswith(here):
            found.append(module)
    return found


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point of :data:`LAYER_MAP` (idempotent per process)."""
    for module_name, attr, span_name, options in LAYER_MAP:
        module = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[member] if owner_name else getattr(module, member)
        if hasattr(original, "__perfbench_original__"):
            continue
        traced = recorder.wrap(span_name, original, **options)
        setattr(owner, member, traced)
        if owner_name:
            continue
        for other in _importers():
            if getattr(other, member, None) is original:
                setattr(other, member, traced)
