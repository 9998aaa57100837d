"""Independent string-set evaluator for the ``refine`` correctness gate.

Selection is re-derived from the spec's syntax tree with plain Python
sets keyed by function name: no CSR snapshot, no compiled pipeline, no
caches.  Only the spec parser (:func:`repro.core.spec.modules.load_spec`)
is shared with the program.  The algorithms follow the seed's
dict-of-set call graph (``seed_reference_select`` in
``benchmarks/bench_selection_scale.py``).
"""

from __future__ import annotations

import operator
import re
from collections import deque

from repro.core.spec.ast import AllExpr, Assign, CallExpr, RefExpr
from repro.core.spec.modules import load_spec

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}
_FLAGS = {
    "inSystemHeader": "in_system_header",
    "inlineSpecified": "inline_marked",
    "virtual": "is_virtual",
    "defined": "has_body",
}


class ReferenceGraph:
    """Name-keyed adjacency sets of one call graph, copied once."""

    def __init__(self, graph) -> None:
        self.meta = {node.name: node.meta for node in graph.nodes()}
        self.succ: dict[str, set[str]] = {name: set() for name in self.meta}
        self.pred: dict[str, set[str]] = {name: set() for name in self.meta}
        for edge in graph.edges():
            self.succ[edge.caller].add(edge.callee)
            self.pred[edge.callee].add(edge.caller)
        self.metrics = {
            "flops": lambda n: self.meta[n].flops,
            "loopDepth": lambda n: self.meta[n].loop_depth,
            "statements": lambda n: self.meta[n].statements,
            "callSites": lambda n: len(self.succ[n]),
            "callers": lambda n: len(self.pred[n]),
        }

    def _closure(self, start, edges: dict[str, set[str]]) -> set[str]:
        seen: set[str] = set()
        stack = [n for n in start if n in self.meta]
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(edges[name] - seen)
        return seen

    def coarse(self, selected: set[str], critical: set[str]) -> set[str]:
        """Drop single-caller pass-throughs, top-down from the roots.

        Components without a zero-in-degree node (top-level cycles) get
        their smallest-named member seeded as a root.
        """
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
                for callee in sorted(self.succ[name]):
                    if (
                        callee in result
                        and callee not in critical
                        and self.pred[callee] == {name}
                    ):
                        result.discard(callee)
                    queue.append(callee)
            while cursor < len(order) and order[cursor] in visited:
                cursor += 1
            if cursor == len(order):
                return result
            queue.append(order[cursor])

    def select(self, spec_source: str) -> frozenset[str]:
        """The set of function names ``spec_source`` selects."""
        named: dict[str, set[str]] = {}

        def ev(expr) -> set[str]:
            if isinstance(expr, AllExpr):
                return set(self.meta)
            if isinstance(expr, RefExpr):
                return set(named[expr.name])
            if not isinstance(expr, CallExpr):
                raise TypeError(f"unexpected spec node {expr!r}")
            sel, args = expr.selector, expr.args
            if sel == "join":
                return set().union(*(ev(a) for a in args))
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
                return set(self.meta) - ev(args[0])
            if sel in _FLAGS:
                attr = _FLAGS[sel]
                return {n for n in ev(args[0]) if getattr(self.meta[n], attr)}
            if sel in self.metrics:
                compare = _COMPARE[args[0].value]
                threshold = float(args[1].value)
                metric = self.metrics[sel]
                return {n for n in ev(args[2]) if compare(float(metric(n)), threshold)}
            if sel == "byName":
                rx = re.compile(args[0].value)
                return {n for n in ev(args[1]) if rx.fullmatch(n)}
            if sel == "byPath":
                rx = re.compile(args[0].value)
                return {n for n in ev(args[1]) if rx.search(self.meta[n].source_path)}
            if sel == "onCallPathTo":
                return self._closure(ev(args[0]), self.pred)
            if sel == "onCallPathFrom":
                return self._closure(ev(args[0]), self.succ)
            if sel == "callPath":
                return self._closure(ev(args[0]), self.succ) & self._closure(
                    ev(args[1]), self.pred
                )
            if sel == "coarse":
                critical = ev(args[1]) if len(args) > 1 else set()
                return self.coarse(ev(args[0]), critical)
            raise NotImplementedError(f"reference evaluator lacks selector {sel!r}")

        result: set[str] = set()
        for stmt in load_spec(spec_source).statements:
            if isinstance(stmt, Assign):
                named[stmt.name] = ev(stmt.expr)
                result = named[stmt.name]
            else:
                result = ev(stmt)
        return frozenset(result)
