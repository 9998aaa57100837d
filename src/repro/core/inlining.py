"""Inlining compensation post-processing (paper §V-E).

XRay sleds are inserted after inlining, so a selected function that the
compiler inlined everywhere can never be patched — its profile data
would silently vanish.  CaPI compensates in two steps:

1. *Approximate the inlined set*: "if a function symbol cannot be found
   [in the program binary and all dependent shared objects], it has
   been inlined at all call sites."  The approximation is imperfect in
   both directions — symbols may be retained after inlining — and we
   reproduce that imperfection (the compiler model keeps some inlined
   functions' symbols for vague-linkage reasons).
2. For each selected-but-inlined function, walk the call graph upwards
   to the *first available non-inlined callers*, add those to the IC,
   and drop the inlined function.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field

from repro.cg.graph import CallGraph
from repro.core.ic import InstrumentationConfig
from repro.program.linker import LinkedProgram
from repro.program.loader import program_cache


@dataclass
class CompensationResult:
    """Outcome of one compensation pass (Table I's last two columns)."""

    ic: InstrumentationConfig
    removed: set[str] = field(default_factory=set)
    added: set[str] = field(default_factory=set)
    #: selected functions with no non-inlined caller at all (entry-point
    #: pathologies); they are dropped with a warning
    uncovered: set[str] = field(default_factory=set)


def available_symbols(linked: LinkedProgram) -> frozenset[str]:
    """Symbols visible to ``nm`` across the executable and all DSOs.

    Listed once per linked program and kept on it
    (:func:`~repro.program.loader.program_cache`): every compensation
    of the program reads the same set.
    """
    cache = program_cache(linked)
    if cache.nm_names is None:
        cache.nm_names = frozenset(
            sym.name for obj in linked.all_objects() for sym in obj.nm_symbols()
        )
    return cache.nm_names


def approximate_inlined(
    selected: frozenset[str], symbols: Set[str]
) -> set[str]:
    """Selected functions whose symbol is missing → assumed inlined."""
    return {name for name in selected if name not in symbols}


def compensate_inlining(
    ic: InstrumentationConfig,
    graph: CallGraph,
    linked: LinkedProgram,
) -> CompensationResult:
    """Apply the paper's §V-E post-processing to an IC."""
    symbols = available_symbols(linked)
    inlined = approximate_inlined(ic.functions, symbols)
    kept = set(ic.functions) - inlined
    added: set[str] = set()
    uncovered: set[str] = set()

    for name in sorted(inlined):
        callers = _first_non_inlined_callers(graph, name, symbols)
        if not callers:
            uncovered.add(name)
            continue
        # only count callers not already selected as compensation
        added.update(c for c in callers if c not in kept)

    final = frozenset(kept | added)
    new_ic = ic.with_functions(
        final,
        removed_inlined=len(inlined),
        added_compensation=len(added),
    )
    return CompensationResult(
        ic=new_ic, removed=inlined, added=added, uncovered=uncovered
    )


def _first_non_inlined_callers(
    graph: CallGraph, name: str, symbols: Set[str]
) -> set[str]:
    """Walk callers upward until hitting functions with symbols.

    "For each such function, the first available non-inlined callers are
    determined recursively."  A breadth-first walk stops at the first
    symbol-bearing caller on each path.
    """
    if name not in graph:
        return set()
    found: set[str] = set()
    seen: set[str] = {name}
    frontier = list(graph.callers_of(name))
    while frontier:
        caller = frontier.pop()
        if caller in seen:
            continue
        seen.add(caller)
        if caller in symbols:
            found.add(caller)
        else:
            frontier.extend(graph.callers_of(caller))
    return found
