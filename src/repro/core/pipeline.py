"""Compile and evaluate selection pipelines from parsed specifications.

The builder turns the flattened spec AST into a selector DAG: ``%name``
references resolve to previously-defined instances, ``%%`` to the
universe selector, and the last statement becomes the pipeline entry
point.  Evaluation returns both the selected set and per-selector trace
information (used for Table I's selection-time column and diagnostics).

Selection is split into two explicit phases so long-lived services can
amortise each independently:

* **compile** — :func:`compile_spec` resolves a spec (source text or
  parsed :class:`~repro.core.spec.ast.SpecFile`) into a
  :class:`CompiledSpec`: the selector DAG plus the structural
  ``cache_key`` of every keyable node (see :func:`cache_key`).  A
  compiled spec is immutable and graph-independent — it can be evaluated
  against any number of call graphs, concurrently.
* **evaluate** — :func:`evaluate_pipeline` runs a pipeline over a
  :class:`~repro.cg.graph.CallGraph`; :func:`evaluate_compiled` is the
  service-oriented variant that runs against a *supplied* warm
  ``(CsrSnapshot, CrossRunCache)`` pair instead of building its own
  context, so many queries share one snapshot and one structural-key
  result store (see :mod:`repro.service`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.cg.csr import CsrSnapshot
from repro.cg.graph import CallGraph
from repro.core.selectors.base import (
    AllSelector,
    CrossRunCache,
    EvalContext,
    NamedRef,
    Selector,
)
from repro.core.selectors.registry import DEFAULT_REGISTRY, Factory, lookup
from repro.core.spec.ast import (
    MAX_SELECTOR_DEPTH,
    AllExpr,
    Assign,
    CallExpr,
    Expr,
    NumLit,
    RefExpr,
    SpecFile,
    StrLit,
)
from repro.errors import SpecSemanticError


@dataclass
class SelectionResult:
    """Outcome of evaluating a pipeline over one call graph."""

    selected: frozenset[str]
    duration_seconds: float
    graph_size: int
    trace: list[tuple[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.selected)


def cache_key(expr: Expr, named: dict[str, Selector] | None = None) -> str | None:
    """Structural cache key of one spec expression.

    ``%name`` references expand to the key of their *defining*
    expression, so structurally identical pipelines share keys across
    different spec files while same-named but different definitions
    never collide.  Returns ``None`` when any part is unkeyable.

    The key encodes selector *names* under their default-registry
    meaning; :class:`PipelineBuilder` attaches keys per node only where
    the resolving factory is the default one, so keys never alias custom
    selector semantics (see :func:`attach_cache_key`).
    """
    named = named or {}
    if isinstance(expr, AllExpr):
        return "%%"
    if isinstance(expr, RefExpr):
        return getattr(named.get(expr.name), "cache_key", None)
    if isinstance(expr, StrLit):
        return f"s{expr.value!r}"
    if isinstance(expr, NumLit):
        return f"n{expr.value!r}"
    if isinstance(expr, CallExpr):
        parts = [cache_key(arg, named) for arg in expr.args]
        if any(p is None for p in parts):
            return None
        return f"{expr.selector}({','.join(parts)})"  # type: ignore[arg-type]
    return None


def attach_cache_key(
    selector: Selector, expr: Expr, named: dict[str, Selector] | None = None
) -> str | None:
    """Attach ``expr``'s structural key to ``selector``; returns the key."""
    key = cache_key(expr, named)
    if key is not None:
        try:
            selector.cache_key = key  # type: ignore[attr-defined]
        except AttributeError:
            return None  # slotted third-party selector: simply stays uncached
    return key


@dataclass(frozen=True)
class CompiledSpec:
    """A specification compiled to its selector DAG (the compile phase).

    Immutable and graph-independent: one compiled spec may be evaluated
    over any call graph, repeatedly and concurrently.  ``cache_key`` is
    the structural key of the entry selector (``None`` when the entry is
    unkeyable) — two compiled specs with equal keys select identical
    sets on any given graph version, which is what the service layer's
    batch dedup relies on.
    """

    entry: Selector
    named: dict[str, Selector]
    cache_key: str | None
    source: str = ""
    spec_name: str = ""


def compile_spec(
    spec: SpecFile | str,
    *,
    registry: dict[str, Factory] | None = None,
    spec_name: str = "",
    search_paths: list[Path] | None = None,
) -> CompiledSpec:
    """Compile a spec (source text or parsed AST) into a :class:`CompiledSpec`."""
    source = ""
    if isinstance(spec, str):
        from repro.core.spec.modules import load_spec

        source = spec
        spec = load_spec(spec, search_paths=search_paths)
    entry, named = PipelineBuilder(registry).build(spec)
    return CompiledSpec(
        entry=entry,
        named=named,
        cache_key=getattr(entry, "cache_key", None),
        source=source,
        spec_name=spec_name,
    )


class PipelineBuilder:
    """Resolve a spec AST into a selector DAG.

    Structural cache keys are attached bottom-up from already-built
    child selectors, so a node is keyed exactly when its own factory
    resolves to the default-registry one *and* every child is keyed.
    With a custom ``registry``, names bound to non-default factories
    stay unkeyed (their semantics may differ from what the key encodes)
    and a :class:`RuntimeWarning` flags the lost cross-run caching once
    per name.

    A statement whose selector DAG is more than
    :data:`~repro.core.spec.ast.MAX_SELECTOR_DEPTH` calls deep, counting
    the calls behind its ``%name`` references, is rejected.
    """

    def __init__(self, registry: dict[str, Factory] | None = None):
        self._registry = registry
        self._all = AllSelector()
        self._all.cache_key = "%%"
        self._warned: set[str] = set()

    def build(self, spec: SpecFile) -> tuple[Selector, dict[str, Selector]]:
        """Returns ``(entry selector, named instances)``."""
        named: dict[str, Selector] = {}
        # selector calls on the longest path below each named instance
        depths: dict[str, int] = {}
        entry: Selector | None = None
        for stmt in spec.statements:
            if isinstance(stmt, Assign):
                if stmt.name in named:
                    raise SpecSemanticError(
                        f"selector instance {stmt.name!r} redefined"
                    )
                inner, depth = self._build_expr(stmt.expr, named, depths)
                self._check_depth(stmt.name, depth)
                selector = NamedRef(stmt.name, inner)
                key = getattr(inner, "cache_key", None)
                if key is not None:
                    selector.cache_key = key
                named[stmt.name] = selector
                depths[stmt.name] = depth
                entry = selector
            else:
                entry, depth = self._build_expr(stmt, named, depths)
                self._check_depth(getattr(stmt, "selector", "entry"), depth)
        if entry is None:
            raise SpecSemanticError("specification defines no selectors")
        return entry, named

    def _keyable(self, name: str, factory: Factory) -> bool:
        """Whether results of ``name``'s factory may share structural keys."""
        if self._registry is None or DEFAULT_REGISTRY.get(name) is factory:
            return True
        if name not in self._warned:
            self._warned.add(name)
            warnings.warn(
                f"selector {name!r} resolves to a non-default factory; its "
                "results stay out of the cross-run cache (structural keys "
                "encode default-registry semantics)",
                RuntimeWarning,
                stacklevel=4,
            )
        return False

    @staticmethod
    def _check_depth(name: str, depth: int) -> None:
        if depth > MAX_SELECTOR_DEPTH:
            raise SpecSemanticError(
                f"selector {name!r} is {depth} calls deep, counting its "
                f"%references; the limit is {MAX_SELECTOR_DEPTH}"
            )

    def _build_expr(
        self, expr: Expr, named: dict[str, Selector], depths: dict[str, int]
    ) -> tuple[Selector, int]:
        """The selector for ``expr`` and its depth in selector calls."""
        if isinstance(expr, AllExpr):
            return self._all, 0
        if isinstance(expr, RefExpr):
            try:
                return named[expr.name], depths[expr.name]
            except KeyError:
                raise SpecSemanticError(
                    f"reference to undefined selector %{expr.name}"
                ) from None
        if isinstance(expr, CallExpr):
            factory = lookup(expr.selector, self._registry)
            args: list = []
            parts: list[str | None] = []
            depth = 1
            for arg in expr.args:
                if isinstance(arg, StrLit):
                    args.append(arg.value)
                    parts.append(f"s{arg.value!r}")
                elif isinstance(arg, NumLit):
                    args.append(arg.value)
                    parts.append(f"n{arg.value!r}")
                else:
                    child, child_depth = self._build_expr(arg, named, depths)
                    args.append(child)
                    parts.append(getattr(child, "cache_key", None))
                    depth = max(depth, child_depth + 1)
            selector = factory(*args)
            if self._keyable(expr.selector, factory) and not any(
                p is None for p in parts
            ):
                try:
                    selector.cache_key = (  # type: ignore[attr-defined]
                        f"{expr.selector}({','.join(parts)})"  # type: ignore[arg-type]
                    )
                except AttributeError:
                    pass  # slotted third-party selector: simply stays uncached
            return selector, depth
        raise SpecSemanticError(
            f"literal {expr!r} cannot be used as a selector"
        )


def _evaluate(
    entry: Selector,
    graph: CallGraph,
    cross_run: CrossRunCache | None,
) -> SelectionResult:
    start = time.perf_counter()
    if cross_run is not None:
        ctx = EvalContext.with_cross_run(graph, cross_run)
    else:
        ctx = EvalContext(graph)
    selected = ctx.evaluate(entry)
    duration = time.perf_counter() - start
    return SelectionResult(
        selected=selected,
        duration_seconds=duration,
        graph_size=len(graph),
        trace=ctx.trace,
    )


def evaluate_pipeline(
    entry: Selector,
    graph: CallGraph,
    *,
    cross_run: CrossRunCache | None = None,
) -> SelectionResult:
    """Evaluate a built pipeline, timing the selection process.

    ``cross_run`` opts into result reuse across pipeline runs: selector
    results land in (and are served from) the cache for as long as the
    graph version is unchanged.  Benchmarks that want honest timings
    must leave it off (the default).
    """
    return _evaluate(entry, graph, cross_run)


def evaluate_compiled(
    compiled: CompiledSpec,
    snapshot: CsrSnapshot,
    *,
    cross_run: CrossRunCache | None = None,
) -> SelectionResult:
    """Evaluate phase against a supplied warm ``(snapshot, cache)`` pair.

    The service layer holds one :class:`~repro.cg.csr.CsrSnapshot` and
    one :class:`CrossRunCache` per warm graph; every query over that
    graph evaluates through here instead of building its own context, so
    structurally shared sub-expressions are computed once per graph
    version.  The snapshot is freshness-checked: evaluating against a
    snapshot whose graph has since mutated raises rather than mixing
    versions.

    Both memo layers under this entry point are keyed to survive small
    graph deltas rather than any version bump: the heavy sweep and
    aggregation intermediates live on the snapshot keyed by *root id*
    (``("reach"/"depth"/"agg", root_id)`` in ``CsrSnapshot.analyses``)
    and are carried through a delta refresh whenever no touched id lies
    in the root's reachable cone, while the cross-run cache keys final
    selector results by structural expression and drops, per delta, only
    those whose recorded support sets intersect the touched ids.  A
    16-edge edit on a 400k-node graph therefore re-runs the pipeline
    stages whose supporting components the edit touched — everything
    else is served warm.
    """
    return _evaluate(compiled.entry, snapshot.graph, cross_run)


def run_spec(
    spec: SpecFile,
    graph: CallGraph,
    *,
    registry: dict[str, Factory] | None = None,
) -> SelectionResult:
    """Build and evaluate in one step."""
    compiled = compile_spec(spec, registry=registry)
    return evaluate_pipeline(compiled.entry, graph)
