"""Reference implementations the product code is checked against.

Nothing under ``src/`` imports this module.  The tests import it as
``from benchmarks.reference import ...`` (the repository root on the
path), and ``bench_selection_scale.py`` times the product against it:

* the seed's string-keyed selection (:class:`SeedGraph`,
  :func:`seed_reference_select`);
* the engine's frame walker (:func:`reference_run`), which walks the
  call tree on every run where the engine replays its walk tape, and
  the seed's per-call execution mode built on it
  (:func:`seed_execution_mode`, :func:`defeat_memoization`);
* the pre-CSR dict/set graph kernels (``dict_*``) and :func:`condense`,
  a sweep-or-Tarjan condensation over a CSR snapshot: the CSR kernels
  and the dense analyses must agree with them bit for bit.
"""

from __future__ import annotations

import re
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from repro._util import compare
from repro.cg.csr import INDEX_DTYPE, CsrSnapshot, sweep, tarjan_scc
from repro.cg.graph import CallGraph
from repro.core.spec.ast import AllExpr, Assign, CallExpr, RefExpr
from repro.core.spec.modules import load_spec
from repro.errors import ExecutionError
from repro.execution.engine import ExecutionEngine
from repro.execution.result import RunResult


# -- seed-reference selection -------------------------------------------------------
#
# A faithful re-implementation of the seed's string-keyed data structure
# and per-selector algorithms, evaluated straight off the spec AST.


class SeedGraph:
    """The seed ``CallGraph`` layout: name-keyed dict-of-set adjacency."""

    def __init__(self, graph: CallGraph):
        self.meta = {node.name: node.meta for node in graph.nodes()}
        self.succ: dict[str, set[str]] = {name: set() for name in self.meta}
        self.pred: dict[str, set[str]] = {name: set() for name in self.meta}
        for edge in graph.edges():
            self.succ[edge.caller].add(edge.callee)
            self.pred[edge.callee].add(edge.caller)

    # the seed's copying accessors
    def callees_of(self, name: str) -> set[str]:
        return set(self.succ.get(name, ()))

    def callers_of(self, name: str) -> set[str]:
        return set(self.pred.get(name, ()))

    def reachable_from(self, roots) -> set[str]:
        seen: set[str] = set()
        stack = [r for r in roots if r in self.meta]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.succ[name] - seen)
        return seen

    def reaching(self, targets) -> set[str]:
        seen: set[str] = set()
        stack = [t for t in targets if t in self.meta]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.pred[name] - seen)
        return seen

    def coarse(self, selected: set[str], critical: set[str]) -> set[str]:
        # the seed's top-down BFS, plus the root-seeding fix the CSR
        # selector ships: components without a zero-in-degree node
        # (top-level cycles) get one representative seeded so their
        # single-caller pass-throughs collapse too
        from collections import deque

        result = set(selected)
        order = sorted(self.meta)
        visited: set[str] = set()
        queue = deque(n for n in order if not self.pred[n])
        cursor = 0
        while True:
            while queue:
                name = queue.popleft()
                if name in visited:
                    continue
                visited.add(name)
                for callee in sorted(self.callees_of(name)):
                    if (
                        callee in result
                        and callee not in critical
                        and self.callers_of(callee) == {name}
                    ):
                        result.discard(callee)
                    queue.append(callee)
            while cursor < len(order) and order[cursor] in visited:
                cursor += 1
            if cursor == len(order):
                return result
            queue.append(order[cursor])


_META_FLAGS = {
    "inSystemHeader": "in_system_header",
    "inlineSpecified": "inline_marked",
    "virtual": "is_virtual",
    "defined": "has_body",
}
_METRICS = {
    "flops": lambda g, n: g.meta[n].flops,
    "loopDepth": lambda g, n: g.meta[n].loop_depth,
    "statements": lambda g, n: g.meta[n].statements,
    "callSites": lambda g, n: len(g.succ[n]),
    "callers": lambda g, n: len(g.pred[n]),
}


def seed_reference_select(graph: CallGraph, spec_source: str) -> frozenset[str]:
    """Evaluate a spec with the seed's string-set algorithms."""
    g = SeedGraph(graph)
    spec = load_spec(spec_source)
    named: dict[str, set[str]] = {}

    def ev(expr) -> set[str]:
        if isinstance(expr, AllExpr):
            return set(g.meta)
        if isinstance(expr, RefExpr):
            return set(named[expr.name])
        assert isinstance(expr, CallExpr)
        sel, args = expr.selector, expr.args
        if sel == "join":
            out: set[str] = set()
            for a in args:
                out |= ev(a)
            return out
        if sel == "subtract":
            out = ev(args[0])
            for a in args[1:]:
                out -= ev(a)
            return out
        if sel == "intersect":
            out = ev(args[0])
            for a in args[1:]:
                out &= ev(a)
            return out
        if sel == "complement":
            return set(g.meta) - ev(args[0])
        if sel in _META_FLAGS:
            attr = _META_FLAGS[sel]
            return {n for n in ev(args[0]) if getattr(g.meta[n], attr)}
        if sel in _METRICS:
            op, threshold = args[0].value, args[1].value
            fn = _METRICS[sel]
            return {
                n for n in ev(args[2]) if compare(op, float(fn(g, n)), threshold)
            }
        if sel == "byName":
            rx = re.compile(args[0].value)
            return {n for n in ev(args[1]) if rx.fullmatch(n)}
        if sel == "byPath":
            rx = re.compile(args[0].value)
            return {n for n in ev(args[1]) if rx.search(g.meta[n].source_path)}
        if sel == "onCallPathTo":
            return g.reaching(ev(args[0]))
        if sel == "onCallPathFrom":
            return g.reachable_from(ev(args[0]))
        if sel == "callPath":
            return g.reachable_from(ev(args[0])) & g.reaching(ev(args[1]))
        if sel == "coarse":
            critical = ev(args[1]) if len(args) > 1 else set()
            return g.coarse(ev(args[0]), critical)
        raise NotImplementedError(f"seed reference lacks selector {sel!r}")

    result: set[str] = set()
    for stmt in spec.statements:
        if isinstance(stmt, Assign):
            named[stmt.name] = ev(stmt.expr)
            result = named[stmt.name]
        else:
            result = ev(stmt)
    return frozenset(result)


# -- the reference walk and the seed engine mode -------------------------------------
#
# The engine's frame walker before the walk tape: it walks the call tree
# on every run, one ``_Frame`` per open invocation, fires every sled
# through ``XRayRuntime.fire_sled`` and charges capped-off repetitions
# through ``_charge``.  The tape's replay must reproduce it field for
# field.


class _Frame:
    """One open function invocation on the explicit walk stack."""

    __slots__ = ("rec", "child_depth", "sites", "si", "site", "i", "walked", "charged")

    def __init__(self, rec, child_depth: int, sites: list):
        self.rec = rec
        self.child_depth = child_depth
        #: sites to process (empty when the frame sits at the depth cap)
        self.sites = sites
        self.si = 0
        #: the site currently being expanded (None: fetch the next one)
        self.site = None
        self.i = 0
        self.walked = 0
        self.charged = 0


_NO_SITES: list = []


def reference_run(engine: ExecutionEngine, *, config_name: str = "") -> RunResult:
    """``engine.run()`` through the frame walker: the same result, the
    same clock additions and the same tool calls, in the same order."""
    if engine._result is not None:
        raise ExecutionError("engine instances are single-use")
    result = RunResult(
        app_name=engine._program.name, tool=engine.tool, config_name=config_name
    )
    engine._result = result
    start = engine.clock.now()
    if engine.workload.root_scale != 1.0:
        engine._check_root_scale()
    for name in engine._tables.initializers:
        _execute(engine, name, depth=0)
    entry = engine._program.entry
    if entry not in engine._functions:
        raise ExecutionError(f"entry function {entry!r} was not emitted")
    _execute(engine, entry, depth=0)
    result.t_app_cycles = engine.clock.now() - start
    if engine.pmpi is not None:
        result.mpi_calls += engine.pmpi.world.mpi_calls
        result.mpi_cycles += engine.pmpi.world.mpi_cycles
    if engine.xray_runtime is not None:
        result.patched_functions = engine.xray_runtime.patched_count()
        result.patched_sleds = engine.xray_runtime.patcher.stats.patched
    return result


def _enter(engine: ExecutionEngine, name: str, depth: int) -> _Frame | None:
    """Process one function entry; returns the frame to descend into.

    MPI stubs and fully-inlined targets are handled in place and
    yield no frame.
    """
    rec = engine._record_of(name)
    if rec is None:
        return None
    result = engine._result
    assert result is not None
    if rec.is_mpi:
        _mpi_call(engine, rec.mf)
        return None
    result.entry_events += 1
    calls = result.per_function_calls
    calls[name] = calls.get(name, 0) + 1
    _fire_sled(engine, rec, entry=True)
    base_cost = rec.base_cost
    engine.clock.advance(base_cost)
    result.useful_cycles += base_cost
    sites = rec.sites if depth < engine.workload.max_depth else _NO_SITES
    return _Frame(rec, depth + 1, sites)


def _execute(engine: ExecutionEngine, name: str, depth: int) -> None:
    """Walk one call tree with an explicit frame stack (no recursion).

    Each site's budget split is decided when the walk first reaches the
    site, its walked repetitions descend in order, and the analytic
    residual is charged after the last one.
    """
    result = engine._result
    assert result is not None
    event_budget = engine.workload.event_budget
    frame = _enter(engine, name, depth)
    if frame is None:
        return
    stack = [frame]
    while stack:
        frame = stack[-1]
        site = frame.site
        if site is None:
            if frame.si < len(frame.sites):
                site = frame.sites[frame.si]
                frame.si += 1
                walked = site.walked
                charged = site.charged
                if result.entry_events >= event_budget:
                    charged += walked
                    walked = 0
                frame.site = site
                frame.walked = walked
                frame.charged = charged
                frame.i = 0
                continue
            result.exit_events += 1
            _fire_sled(engine, frame.rec, entry=False)
            stack.pop()
            continue
        if frame.i < frame.walked:
            targets = site.targets
            n = site.n_targets
            target = targets[0] if n == 1 else targets[frame.i % n]
            frame.i += 1
            child = _enter(engine, target, frame.child_depth)
            if child is not None:
                stack.append(child)
            continue
        if frame.charged > 0:
            _charge(engine, site.targets[0], frame.charged)
        frame.site = None


def _mpi_call(engine: ExecutionEngine, mf) -> None:
    if engine.pmpi is None:
        # headless run (no MPI world): charge the stub cost only
        engine.clock.advance(mf.base_cost)
        return
    cycles = engine.pmpi.call(mf.name)
    engine.clock.advance(cycles)


def _charge(engine: ExecutionEngine, name: str, times: int) -> None:
    """Charge ``times`` capped-off invocations of ``name`` analytically."""
    totals = engine._analytic(name)
    result = engine._result
    assert result is not None
    extra_mpi = _interceptor_estimate(engine) * totals.mpi_calls * times
    engine.clock.advance(times * totals.cycles + extra_mpi)
    result.useful_cycles += times * totals.useful
    result.charged_only_calls += times * totals.entries
    if engine.pmpi is not None:
        result.mpi_cycles += times * totals.mpi_cycles
        result.mpi_calls += times * totals.mpi_calls


def _interceptor_estimate(engine: ExecutionEngine) -> float:
    """Current per-MPI-call interceptor overhead (e.g. TALP's)."""
    if engine.pmpi is None:
        return 0.0
    return sum(
        interceptor.estimate_extra()
        for interceptor in engine.pmpi.interceptors
        if hasattr(interceptor, "estimate_extra")
    )


def _fire_sled(engine: ExecutionEngine, rec, *, entry: bool) -> None:
    addrs = rec.sleds
    if engine.xray_runtime is None or addrs is None:
        return
    fired = engine.xray_runtime.fire_sled(addrs[0] if entry else addrs[1])
    if fired:
        engine.clock.advance(engine.cost_model.patched_dispatch)
    else:
        engine.clock.advance(engine.cost_model.nop_sled)


class NeverStore(dict):
    """Cache stand-in that drops every write."""

    def __setitem__(self, key, value) -> None:
        pass


def defeat_memoization(engine: ExecutionEngine) -> None:
    """Swap an engine's pure-structure caches for write-discarding ones.

    The engine then resolves call targets, builds function records and
    records its walk tape per invocation (the pre-memoisation behaviour)
    through the identical code path, so its :class:`RunResult` must
    equal a memoised engine's field for field.
    """
    engine._target_cache = NeverStore()
    engine._records = NeverStore()
    engine._tapes = NeverStore()


@contextmanager
def seed_execution_mode():
    """Restore the seed's per-call hot-path behaviour process-wide.

    * every engine walks the call tree per run (:func:`reference_run`),
      resolving call targets and rebuilding function records per
      invocation (:func:`defeat_memoization`),
    * Score-P address resolution scans the executable symbol table and
      all injected DSO symbols linearly per event, and
    * XRay ``sleds_of`` scans the whole sled table per query.
    """
    from repro.scorep import resolution
    from repro.xray import runtime as xray_runtime

    orig_post = ExecutionEngine.__post_init__
    orig_run = ExecutionEngine.run
    orig_resolve = resolution.AddressResolver.resolve
    orig_sleds_of = xray_runtime.RegisteredObject.sleds_of

    def seed_post(self):
        orig_post(self)
        defeat_memoization(self)

    def seed_resolve(self, address):
        exe = self.loader.loaded.get(self.executable_name)
        if exe is not None and exe.region.contains(address):
            for sym in exe.binary.symtab:
                if sym.offset <= address - exe.base < sym.offset + sym.size:
                    self.resolved_queries += 1
                    return sym.name
        injected = self._injected
        for start, (end, name) in zip(injected.starts, injected.payloads):
            if start <= address < end:
                self.resolved_queries += 1
                return name
        self.unresolved_queries += 1
        return None

    def seed_sleds_of(self, function_id):
        return [s for s in self.sleds if s.record.function_id == function_id]

    ExecutionEngine.__post_init__ = seed_post
    ExecutionEngine.run = reference_run
    resolution.AddressResolver.resolve = seed_resolve
    xray_runtime.RegisteredObject.sleds_of = seed_sleds_of
    try:
        yield
    finally:
        ExecutionEngine.__post_init__ = orig_post
        ExecutionEngine.run = orig_run
        resolution.AddressResolver.resolve = orig_resolve
        xray_runtime.RegisteredObject.sleds_of = orig_sleds_of


# -- dict-based graph kernels ------------------------------------------------------
#
# The pre-CSR kernels: the scale benchmark's ``analysis`` section times
# the CSR kernels against them (with asserted bit-for-bit equal
# results), and the kernel property tests use them as the reference.


def dict_depths(graph: CallGraph, root_id: int) -> dict[int, int]:
    """Shortest call depth from ``root_id`` by deque BFS (reached ids only)."""
    depths = {root_id: 0}
    queue = deque([root_id])
    succ = graph.succ_ids
    while queue:
        nid = queue.popleft()
        base = depths[nid] + 1
        for callee in succ(nid):
            if callee not in depths:
                depths[callee] = base
                queue.append(callee)
    return depths


def dict_reachable_ids(graph: CallGraph, seeds: Iterable[int]) -> set[int]:
    """The pre-CSR sweep: bytearray visited array over id-set adjacency."""
    visited = bytearray(graph.id_bound)
    stack: list[int] = []
    for nid in seeds:
        if not visited[nid]:
            visited[nid] = 1
            stack.append(nid)
    out = list(stack)
    succ = graph.succ_ids
    while stack:
        nid = stack.pop()
        for nxt in succ(nid):
            if not visited[nxt]:
                visited[nxt] = 1
                stack.append(nxt)
                out.append(nxt)
    return set(out)


def dict_condense(
    graph: CallGraph, root_id: int
) -> tuple[dict[int, int], list[list[int]]]:
    """Tarjan SCC over the subgraph reachable from ``root_id`` (iterative).

    Returns ``(comp_of, comp_members)`` where ``comp_of`` maps a node id
    to its component id and ``comp_members[cid]`` lists member node ids.
    """
    reachable = dict_reachable_ids(graph, [root_id])
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp_of: dict[int, int] = {}
    comp_members: list[list[int]] = []
    counter = 0

    succ = graph.succ_ids
    call_stack: list[tuple[int, list[int], int]] = []
    for start in reachable:
        if start in index:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        call_stack.append((start, [c for c in succ(start) if c in reachable], 0))
        while call_stack:
            node, children, child_pos = call_stack[-1]
            advanced = False
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in index:
                    call_stack[-1] = (node, children, child_pos)
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    call_stack.append(
                        (child, [c for c in succ(child) if c in reachable], 0)
                    )
                    advanced = True
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                members = []
                cid = len(comp_members)
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    comp_of[member] = cid
                    if member == node:
                        break
                comp_members.append(members)
    return comp_of, comp_members


def dict_condensation_edges(
    graph: CallGraph, comp_of: dict[int, int], comp_members: list[list[int]]
) -> list[set[int]]:
    """Cross-component successor sets of the condensation DAG."""
    comp_succ: list[set[int]] = [set() for _ in comp_members]
    succ = graph.succ_ids
    get_comp = comp_of.get
    for cid, members in enumerate(comp_members):
        targets = comp_succ[cid]
        for member in members:
            for callee in succ(member):
                tgt = get_comp(callee)
                if tgt is not None and tgt != cid:
                    targets.add(tgt)
    return comp_succ


def dict_topo_order(comp_succ: list[set[int]]) -> list[int]:
    """Explicit topological order of the condensation (callers first).

    Kahn's algorithm over the cross-component edges.  Unlike relying on
    Tarjan's emission order (reverse-topological by construction, but an
    implementation detail of the traversal), this is order-correct for
    any SCC labelling.
    """
    indegree = [0] * len(comp_succ)
    for targets in comp_succ:
        for tgt in targets:
            indegree[tgt] += 1
    ready = [cid for cid, deg in enumerate(indegree) if deg == 0]
    order: list[int] = []
    while ready:
        cid = ready.pop()
        order.append(cid)
        for tgt in comp_succ[cid]:
            indegree[tgt] -= 1
            if indegree[tgt] == 0:
                ready.append(tgt)
    return order


def dict_aggregate_statement_ids(
    graph: CallGraph, root_id: int, *, metric: Callable[[int], int] | None = None
) -> dict[int, int]:
    """The pre-CSR dict-based statement aggregation (reference/baseline)."""
    metric = metric or (lambda nid: graph.meta_of(nid).statements)
    comp_of, comp_members = dict_condense(graph, root_id)
    comp_metric = [sum(metric(m) for m in members) for members in comp_members]
    comp_succ = dict_condensation_edges(graph, comp_of, comp_members)
    order = dict_topo_order(comp_succ)
    best: dict[int, int] = {}
    root_comp = comp_of[root_id]
    best[root_comp] = comp_metric[root_comp]
    # longest-path DP over the condensation in topological order
    # (callers relaxed before their callees)
    for cid in order:
        if cid not in best:
            continue
        base = best[cid]
        for tgt in comp_succ[cid]:
            cand = base + comp_metric[tgt]
            if cand > best.get(tgt, -1):
                best[tgt] = cand
    return {
        member: best[cid]
        for cid, members in enumerate(comp_members)
        if cid in best
        for member in members
    }


# -- CSR condensation -----------------------------------------------------------------
#
# No product path condenses without aggregating; the scale benchmark's
# ``condensation`` entry times this against the dict condensation, and
# the SCC property tests check its partition.


def condense(
    snapshot: CsrSnapshot, root_id: int
) -> tuple[np.ndarray, list[list[int]]]:
    """SCC condensation of the subgraph reachable from ``root_id``.

    Hybrid kernel: when the snapshot's cached wave order proves the
    graph acyclic (the overwhelmingly common call-graph case), every
    reachable node is its own component and the whole condensation is
    one sweep plus a vectorised relabel; otherwise the flat-array
    Tarjan takes over.  Returns ``(comp_of, comp_members)`` like
    :func:`tarjan_scc`.
    """
    indptr, indices = snapshot.succ_indptr, snapshot.succ_indices
    if snapshot.topological_waves() is None:
        return tarjan_scc(indptr, indices, (root_id,), snapshot.n)
    visited = sweep(indptr, indices, (root_id,), snapshot.n)
    order = np.flatnonzero(visited)
    comp_of = np.full(snapshot.n, -1, dtype=INDEX_DTYPE)
    comp_of[order] = np.arange(order.size, dtype=INDEX_DTYPE)
    comp_members = [[nid] for nid in order.tolist()]
    return comp_of, comp_members
