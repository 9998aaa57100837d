"""Call-graph analyses shared by selectors and the coarse pass.

All traversals are iterative (no recursion) and linear in nodes+edges so
they stay usable at the paper's 410k-node OpenFOAM scale.  The heavy
lifting runs over the graph's frozen CSR snapshot
(:meth:`~repro.cg.graph.CallGraph.csr`) with the flat-array kernels of
:mod:`repro.cg.csr` — array-frontier reachability, an iterative Tarjan
over flat state arrays, vectorised condensation edges and the
longest-path DP over flat best/indegree arrays.  The string-keyed
wrappers remain for callers that live at the name boundary.

The pre-CSR dict/set implementations are kept at the bottom of this
module (``_condense``, ``_condensation_edges``, ``_topo_order``,
``_aggregate_statement_ids_dicts``): the scale benchmark times the CSR
kernels against them, and the property tests use them as the reference
the kernels must agree with bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

import numpy as np

from repro.cg import csr as _csr
from repro.cg.graph import CallGraph


def on_call_path_to(graph: CallGraph, targets: Iterable[str]) -> set[str]:
    """Nodes on some call path from anywhere to a target.

    This is reverse reachability — CaPI's ``onCallPathTo`` semantics:
    the function itself, plus every (transitive) caller.
    """
    return graph.reaching(targets)


def on_call_path_from(graph: CallGraph, sources: Iterable[str]) -> set[str]:
    """Nodes reachable from the sources (``onCallPathFrom``)."""
    return graph.reachable_from(sources)


def call_path_between_ids(
    graph: CallGraph, source_ids: Iterable[int], target_ids: Iterable[int]
) -> set[int]:
    """Ids on some path source→…→target, as integer set intersection."""
    return graph.reachable_ids(source_ids) & graph.reaching_ids(target_ids)


def call_path_between(
    graph: CallGraph, sources: Iterable[str], targets: Iterable[str]
) -> set[str]:
    """Nodes on some path source→…→target (e.g. main→MPI op).

    The ``mpi_comm`` selector of the bundled ``mpi.capi`` module is
    exactly this with sources={main} and targets={MPI_*}.
    """
    ids = call_path_between_ids(
        graph, graph.names_to_ids(sources), graph.names_to_ids(targets)
    )
    return set(graph.ids_to_names(ids))


def call_depth_dense(graph: CallGraph, root_id: int) -> np.ndarray:
    """Shortest call depth from ``root_id`` as a dense per-id array.

    ``-1`` marks unreachable ids; selectors filter with vectorised
    comparisons instead of per-node dict lookups.

    Memoised on the snapshot under ``("depth", root_id)`` (with the
    root's reach mask alongside, which :func:`reach_ids_frozen` reuses),
    so repeated depth filters over one graph version share the BFS.
    Treat the returned array as read-only.
    """
    snapshot = graph.csr()
    dense = snapshot.analyses.get(("depth", root_id))
    if dense is None:
        dense = _csr.bfs_depths(
            snapshot.succ_indptr, snapshot.succ_indices, root_id, snapshot.n
        )
        snapshot.analyses[("depth", root_id)] = dense
        snapshot.analyses.setdefault(("reach", root_id), dense >= 0)
    return dense


def reach_ids_frozen(graph: CallGraph, root_id: int) -> frozenset[int]:
    """Ids reachable from ``root_id``, memoised on the snapshot.

    The shared support set of every root-keyed analysis result — what
    the delta-aware cross-run cache records as a dependency so an edit
    inside the reachable region drops exactly the results it can affect.
    """
    snapshot = graph.csr()
    reachset = snapshot.analyses.get(("reachset", root_id))
    if reachset is None:
        mask = snapshot.analyses.get(("reach", root_id))
        if mask is None:
            mask = _csr.sweep(
                snapshot.succ_indptr,
                snapshot.succ_indices,
                (root_id,),
                snapshot.n,
            )
            snapshot.analyses[("reach", root_id)] = mask
        reachset = frozenset(np.flatnonzero(mask).tolist())
        snapshot.analyses[("reachset", root_id)] = reachset
    return reachset


def call_depth_ids_from(graph: CallGraph, root_id: int) -> dict[int, int]:
    """Shortest call depth from a root id (BFS; unreachable ids absent).

    Small graphs run the plain deque BFS (numpy per-wave dispatch costs
    more than it vectorises there); larger ones build the dense CSR
    depth array and convert.  Results are identical either way.
    """
    if graph.id_bound + graph.edge_count() < _csr.VECTOR_MIN_SIZE:
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
    dense = call_depth_dense(graph, root_id)
    reached = np.flatnonzero(dense >= 0)
    return dict(zip(reached.tolist(), dense[reached].tolist()))


def call_depths_from(graph: CallGraph, root: str) -> dict[str, int]:
    """Shortest call depth from ``root`` (BFS; unreachable nodes absent)."""
    root_id = graph.id_of(root)
    if root_id is None:
        return {}
    name_of = graph.name_of
    return {
        name_of(nid): d for nid, d in call_depth_ids_from(graph, root_id).items()
    }


def _aggregate_arrays(
    graph: CallGraph, root_id: int, metric: Callable[[int], int] | None
) -> tuple[np.ndarray, "np.ndarray | list"]:
    """Aggregation core: ``(node_ids, totals)`` over the CSR kernels.

    ``totals`` parallels ``node_ids``: a numpy array on the vectorised
    fast path, a list of exact Python numbers on the fallback.

    Fast path (the overwhelmingly common call-graph case): the
    snapshot's cached wave order proves the graph acyclic, so the
    condensation is the identity and the longest-path DP pulls over
    predecessor adjacency wave-by-wave, fully vectorised.  The fast
    path is taken only for the default ``statements`` metric — its
    nonnegative bounded values keep the ``int64`` wave DP exact;
    custom metric callables (arbitrary Python numbers) always go
    through the Python-int DP below.  Cyclic graphs also fall back:
    Tarjan over flat arrays, vectorised condensation-edge extraction,
    and the flat-list DP in Kahn topological order.
    """
    snapshot = graph.csr()
    indptr, indices = snapshot.succ_indptr, snapshot.succ_indices
    if metric is None:
        waves = snapshot.topological_waves()
        if waves is not None:
            best, reached = _csr.dag_longest_path(
                snapshot.pred_indptr,
                snapshot.pred_indices,
                waves,
                snapshot.meta_column("statements"),
                root_id,
            )
            node_ids = np.flatnonzero(reached)
            return node_ids, best[node_ids]
    comp_of, comp_members = _csr.tarjan_scc(indptr, indices, (root_id,), snapshot.n)
    ncomp = len(comp_members)
    if metric is None:
        statements = snapshot.meta_column("statements")
        in_comp = comp_of >= 0
        comp_metric = np.zeros(ncomp, dtype=np.int64)
        np.add.at(comp_metric, comp_of[in_comp], statements[in_comp])
    else:
        # plain Python sums: custom metrics keep exact arbitrary-
        # magnitude arithmetic through the flat-list DP
        comp_metric = [
            sum(metric(member) for member in members) for members in comp_members
        ]
    cindptr, cindices = _csr.condensation_edges(comp_of, indptr, indices, ncomp)
    order = _csr.topo_order(cindptr, cindices, ncomp)
    best, reached = _csr.longest_path_dp(
        cindptr, cindices, order, comp_metric, int(comp_of[root_id])
    )
    visited_nodes = np.flatnonzero(comp_of >= 0)
    node_comps = comp_of[visited_nodes]
    keep = np.frombuffer(reached, dtype=np.uint8)[node_comps].astype(bool)
    node_ids = visited_nodes[keep]
    totals = [best[comp] for comp in node_comps[keep].tolist()]
    return node_ids, totals


def aggregate_statement_dense(graph: CallGraph, root_id: int) -> np.ndarray:
    """Aggregated statement totals as a dense per-id array (0 default).

    The array equivalent of ``aggregate_statement_ids(...).get(nid, 0)``
    — what the ``statementAggregation`` selector consumes for its
    vectorised threshold filter.

    Memoised on the snapshot under ``("agg", root_id)`` (with the root's
    reach mask alongside, which :func:`reach_ids_frozen` reuses).  Treat
    the returned array as read-only.
    """
    snapshot = graph.csr()
    dense = snapshot.analyses.get(("agg", root_id))
    if dense is None:
        node_ids, totals = _aggregate_arrays(graph, root_id, None)
        dense = np.zeros(snapshot.n, dtype=np.int64)
        dense[node_ids] = totals
        snapshot.analyses[("agg", root_id)] = dense
        if ("reach", root_id) not in snapshot.analyses:
            mask = np.zeros(snapshot.n, dtype=bool)
            mask[node_ids] = True
            snapshot.analyses[("reach", root_id)] = mask
    return dense


def aggregate_statement_ids(
    graph: CallGraph, root_id: int, *, metric: Callable[[int], int] | None = None
) -> dict[int, int]:
    """Statement aggregation along call chains, over interned ids.

    For each node, the maximum over all call paths from the root of the
    summed statement counts along the path.  Cycles contribute each
    member once (the aggregation is computed over the DAG of strongly
    connected components).
    """
    node_ids, totals = _aggregate_arrays(graph, root_id, metric)
    if isinstance(totals, np.ndarray):
        totals = totals.tolist()
    return dict(zip(node_ids.tolist(), totals))


def aggregate_statements(
    graph: CallGraph, root: str, *, metric: Callable[[str], int] | None = None
) -> dict[str, int]:
    """Statement aggregation along call chains (Iwainsky & Bischof [16])."""
    root_id = graph.id_of(root)
    if root_id is None:
        return {}
    id_metric = None
    if metric is not None:
        name_metric = metric
        id_metric = lambda nid: name_metric(graph.name_of(nid))  # noqa: E731
    name_of = graph.name_of
    return {
        name_of(nid): total
        for nid, total in aggregate_statement_ids(
            graph, root_id, metric=id_metric
        ).items()
    }


def single_caller_ids(graph: CallGraph, within: set[int]) -> set[int]:
    """Ids in ``within`` whose only caller *within the set* is unique."""
    out = set()
    pred = graph.pred_ids
    for nid in within:
        count = 0
        for p in pred(nid):
            if p in within:
                count += 1
                if count > 1:
                    break
        if count == 1:
            out.add(nid)
    return out


def single_caller_nodes(graph: CallGraph, within: set[str]) -> set[str]:
    """Nodes in ``within`` whose only caller *within the set* is unique.

    Helper for the coarse selector: a callee with exactly one selected
    caller is a pass-through candidate.
    """
    ids = single_caller_ids(graph, graph.names_to_ids(within))
    return set(graph.ids_to_names(ids))


# -- dict-based reference implementations ------------------------------------------
#
# The pre-CSR kernels, kept verbatim: the scale benchmark's ``analysis``
# section times the CSR kernels against them (with asserted bit-for-bit
# equal results), and the kernel property tests use them as the
# reference implementation.


def _dict_reachable_ids(graph: CallGraph, seeds: Iterable[int]) -> set[int]:
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


def _condense(
    graph: CallGraph, root_id: int
) -> tuple[dict[int, int], list[list[int]]]:
    """Tarjan SCC over the subgraph reachable from ``root_id`` (iterative).

    Returns ``(comp_of, comp_members)`` where ``comp_of`` maps a node id
    to its component id and ``comp_members[cid]`` lists member node ids.
    """
    reachable = _dict_reachable_ids(graph, [root_id])
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


def _condensation_edges(
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


def _topo_order(comp_succ: list[set[int]]) -> list[int]:
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


def _aggregate_statement_ids_dicts(
    graph: CallGraph, root_id: int, *, metric: Callable[[int], int] | None = None
) -> dict[int, int]:
    """The pre-CSR dict-based statement aggregation (reference/baseline)."""
    metric = metric or (lambda nid: graph.meta_of(nid).statements)
    comp_of, comp_members = _condense(graph, root_id)
    comp_metric = [sum(metric(m) for m in members) for members in comp_members]
    comp_succ = _condensation_edges(graph, comp_of, comp_members)
    order = _topo_order(comp_succ)
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
