"""Root-keyed call-graph analyses the selectors read as dense arrays.

``callDepth`` reads :func:`call_depth_dense`, ``statementAggregation``
reads :func:`aggregate_statement_dense`, and both record
:func:`reach_ids_frozen` as their delta support.  Each result is
memoised on the graph's frozen CSR snapshot
(:meth:`~repro.cg.graph.CallGraph.csr`) under ``(kind, root_id)``, so
the selectors of one graph version share it.  The work runs in the
flat-array kernels of :mod:`repro.cg.csr`: a vectorised BFS, and for
aggregation the wave-by-wave longest-path DP on acyclic graphs or an
iterative Tarjan condensation plus a flat-list DP on cyclic ones.
"""

from __future__ import annotations

import numpy as np

from repro.cg import csr as _csr
from repro.cg.graph import CallGraph


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


def _aggregate_arrays(
    graph: CallGraph, root_id: int
) -> tuple[np.ndarray, "np.ndarray | list"]:
    """Aggregation core: ``(node_ids, totals)`` over the CSR kernels.

    ``totals`` parallels ``node_ids``.  Fast path (the overwhelmingly
    common call-graph case): the snapshot's cached wave order proves the
    graph acyclic, so the condensation is the identity and the
    longest-path DP pulls over predecessor adjacency wave-by-wave, fully
    vectorised; the nonnegative bounded statement counts keep its
    ``int64`` arithmetic exact.  Cyclic graphs fall back to Tarjan over
    flat arrays, vectorised condensation-edge extraction, and the
    flat-list DP in Kahn topological order.
    """
    snapshot = graph.csr()
    statements = snapshot.meta_column("statements")
    waves = snapshot.topological_waves()
    if waves is not None:
        best, reached = _csr.dag_longest_path(
            snapshot.pred_indptr, snapshot.pred_indices, waves, statements, root_id
        )
        node_ids = np.flatnonzero(reached)
        return node_ids, best[node_ids]
    indptr, indices = snapshot.succ_indptr, snapshot.succ_indices
    comp_of, comp_members = _csr.tarjan_scc(indptr, indices, (root_id,), snapshot.n)
    ncomp = len(comp_members)
    in_comp = comp_of >= 0
    comp_metric = np.zeros(ncomp, dtype=np.int64)
    np.add.at(comp_metric, comp_of[in_comp], statements[in_comp])
    cindptr, cindices = _csr.condensation_edges(comp_of, indptr, indices, ncomp)
    order = _csr.topo_order(cindptr, cindices, ncomp)
    best, reached = _csr.longest_path_dp(
        cindptr, cindices, order, comp_metric, int(comp_of[root_id])
    )
    visited_nodes = np.flatnonzero(in_comp)
    node_comps = comp_of[visited_nodes]
    keep = np.frombuffer(reached, dtype=np.uint8)[node_comps].astype(bool)
    node_ids = visited_nodes[keep]
    totals = [best[comp] for comp in node_comps[keep].tolist()]
    return node_ids, totals


def aggregate_statement_dense(graph: CallGraph, root_id: int) -> np.ndarray:
    """Aggregated statement totals as a dense per-id array (0 default).

    For each node reached from the root: the maximum over all call
    paths from the root of the summed statement counts along the path.
    Cycles contribute each member once (the DP runs over the DAG of
    strongly connected components).  The ``statementAggregation``
    selector filters this array with one vectorised comparison.

    Memoised on the snapshot under ``("agg", root_id)`` (with the root's
    reach mask alongside, which :func:`reach_ids_frozen` reuses).  Treat
    the returned array as read-only.
    """
    snapshot = graph.csr()
    dense = snapshot.analyses.get(("agg", root_id))
    if dense is None:
        node_ids, totals = _aggregate_arrays(graph, root_id)
        dense = np.zeros(snapshot.n, dtype=np.int64)
        dense[node_ids] = totals
        snapshot.analyses[("agg", root_id)] = dense
        if ("reach", root_id) not in snapshot.analyses:
            mask = np.zeros(snapshot.n, dtype=bool)
            mask[node_ids] = True
            snapshot.analyses[("reach", root_id)] = mask
    return dense
