"""Call-path selectors: reachability-based selection over the call graph.

All traversals run over interned ids with the graph's preallocated
visited-array sweeps — no per-node string hashing on the hot path.
"""

from __future__ import annotations

import numpy as np

from repro._util import COMPARE_OPS, compare
from repro.cg.analysis import call_depth_dense, reach_ids_frozen
from repro.core.selectors.base import EvalContext, Selector, union_support
from repro.errors import SpecSemanticError


class OnCallPathTo(Selector):
    """The input functions plus all their transitive callers.

    This is how "functions on a call path to an MPI operation" selections
    are built (paper §VI evaluation specs).
    """

    def __init__(self, inner: Selector):
        self.inner = inner

    def select_ids(self, ctx: EvalContext) -> set[int]:
        return ctx.graph.reaching_ids(ctx.evaluate_ids(self.inner))

    def delta_supports(self, ctx: EvalContext):
        supports = ctx.supports_of(self.inner)
        if supports is None:
            return None
        # any edge that grows the reaching set has its callee already in
        # it, so the result is its own structural support
        return (supports[0], union_support(supports[1], ctx.evaluate_ids(self)))


class OnCallPathFrom(Selector):
    """The input functions plus everything transitively reachable."""

    def __init__(self, inner: Selector):
        self.inner = inner

    def select_ids(self, ctx: EvalContext) -> set[int]:
        return ctx.graph.reachable_ids(ctx.evaluate_ids(self.inner))

    def delta_supports(self, ctx: EvalContext):
        supports = ctx.supports_of(self.inner)
        if supports is None:
            return None
        # mirror image: an edge growing the reachable set starts inside it
        return (supports[0], union_support(supports[1], ctx.evaluate_ids(self)))


class CallDepth(Selector):
    """Filter by shortest call depth from the entry function.

    ``callDepth("<=", 3, %%)`` keeps functions within 3 calls of main.
    """

    def __init__(self, op: str, depth: float, inner: Selector, *, root: str = "main"):
        try:
            compare(op, 0, 0)
        except ValueError as exc:
            raise SpecSemanticError(str(exc)) from exc
        self.op = op
        self.depth = depth
        self.inner = inner
        self.root = root

    def select_ids(self, ctx: EvalContext) -> set[int]:
        root_id = ctx.graph.id_of(self.root)
        if root_id is None:
            return set()
        inner = ctx.evaluate_ids(self.inner)
        if not inner:
            return set()
        # dense BFS depths (-1 unreachable) + one vectorised comparison
        # (the operator.* functions in COMPARE_OPS work elementwise)
        depths = call_depth_dense(ctx.graph, root_id)
        candidates = np.fromiter(inner, dtype=np.int64, count=len(inner))
        reached = depths[candidates]
        keep = (reached >= 0) & COMPARE_OPS[self.op](reached, self.depth)
        return set(candidates[keep].tolist())

    def delta_supports(self, ctx: EvalContext):
        supports = ctx.supports_of(self.inner)
        if supports is None:
            return None
        root_id = ctx.graph.id_of(self.root)
        if root_id is None:
            # no root means a constant empty result until nodes change,
            # and node adds invalidate wholesale anyway
            return supports
        # shortest depths can only move when an edge touches the root's
        # forward cone; the memoised frozenset is shared across entries
        cone = reach_ids_frozen(ctx.graph, root_id)
        return (supports[0], union_support(supports[1], cone))
