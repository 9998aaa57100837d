"""Delta supports: which cached selector results survive an in-place edit.

A cached selector result records the id sets it depends on
(:meth:`Selector.delta_supports`); an edge add, reason upgrade or
metadata merge keeps every entry whose supports miss the edit's touched
ids.  These tests pin that decision on an app-shaped graph, check it
against fresh evaluation on random graphs and edit streams, and check
that a support holds the evaluated sets themselves rather than copies.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.openfoam import build_openfoam
from repro.cg.graph import CallGraph, EdgeReason, NodeMeta
from repro.cg.merge import build_whole_program_cg
from repro.core.pipeline import compile_spec, evaluate_pipeline
from repro.core.selectors.base import CrossRunCache, EvalContext, union_support
from repro.experiments.serve import spec_mix
from repro.service import BatchEvaluator, GraphStore

# -- the retention golden ------------------------------------------------------

#: ``serve``'s query mix plus the root-keyed and degree selectors it lacks
GOLDEN_SPECS = {
    **spec_mix(),
    "callPath": 'callPath(byName("main", %%), byName("MPI_.*", %%))',
    "callDepth": 'callDepth("<=", 3, %%)',
    "statementAggregation": "statementAggregation(50, %%)",
    "callers": 'callers(">=", 2, %%)',
}


def key(source: str) -> str:
    """The cross-run cache key of one spec expression."""
    return compile_spec(source).cache_key


#: every key the golden mix stores: the specs and their sub-expressions
ALL_KEYS = frozenset(
    {key(source) for source in GOLDEN_SPECS.values()}
    | {
        key(source)
        for source in (
            "%%",
            'byName("MPI_.*", %%)',
            'byName("main", %%)',
            "inSystemHeader(%%)",
            "inlineSpecified(%%)",
            "join(inSystemHeader(%%), inlineSpecified(%%))",
            'loopDepth(">=", 1, %%)',
            'flops(">=", 10, loopDepth(">=", 1, %%))',
            'flops(">=", 100, loopDepth(">=", 1, %%))',
            'onCallPathTo(byName("MPI_.*", %%))',
            'onCallPathTo(flops(">=", 10, loopDepth(">=", 1, %%)))',
        )
    }
)

CALLERS = key(GOLDEN_SPECS["callers"])

#: the results that read main's forward cone
REACH_MAIN = {
    key(GOLDEN_SPECS[name])
    for name in (
        "callDepth",
        "callPath",
        "hot-reachable",
        "reach-main",
        "statementAggregation",
    )
}

#: (description, edit, keys kept, retained, dropped, sizes, digest): an
#: empty keep set with nothing counted is a universe change, which drops
#: the store wholesale; ``sizes`` follow ``sorted(GOLDEN_SPECS)`` and
#: ``digest`` covers every selection
GOLDEN = [
    (
        "edge between two functions outside every cone",
        ("edge", "u_icoFoam_00001", "u_icoFoam_00002", EdgeReason.DIRECT),
        ALL_KEYS - {CALLERS},
        22,
        1,
        (302, 233, 260, 394, 11, 13, 32, 11, 236, 100, 577, 577),
        "03c552acfce5a8c4",
    ),
    (
        "edge growing main's forward cone",
        ("edge", "u_icoFoam_00008", "u_icoFoam_00003", EdgeReason.DIRECT),
        ALL_KEYS - REACH_MAIN - {CALLERS},
        17,
        6,
        (302, 233, 260, 394, 11, 13, 32, 11, 236, 100, 578, 578),
        "319fcaaf503ed1f1",
    ),
    (
        "edge growing the MPI callers' cone",
        ("edge", "u_icoFoam_00005", "MPI_Barrier", EdgeReason.DIRECT),
        ALL_KEYS
        - {
            CALLERS,
            key(GOLDEN_SPECS["callPath"]),
            key(GOLDEN_SPECS["mpi"]),
            key(GOLDEN_SPECS["mpi coarse"]),
            key('onCallPathTo(byName("MPI_.*", %%))'),
        },
        18,
        5,
        (302, 233, 260, 394, 11, 13, 32, 11, 238, 101, 578, 578),
        "416f1a833055bee0",
    ),
    (
        "profile edge inside main's cone",
        ("edge", "lduSolver_solve", "u_icoFoam_00009", EdgeReason.PROFILE),
        ALL_KEYS - REACH_MAIN - {CALLERS},
        17,
        6,
        (302, 233, 261, 394, 11, 13, 32, 11, 238, 101, 578, 578),
        "0b0e321bfaf72280",
    ),
    (
        "the profile edge re-added as direct",
        ("edge", "lduSolver_solve", "u_icoFoam_00009", EdgeReason.DIRECT),
        ALL_KEYS - REACH_MAIN - {CALLERS},
        17,
        6,
        (302, 233, 261, 394, 11, 13, 32, 11, 238, 101, 578, 578),
        "0b0e321bfaf72280",
    ),
    (
        "a call to a new, declaration-only function",
        ("edge", "u_icoFoam_00011", "decl_kernel", EdgeReason.DIRECT),
        frozenset(),
        0,
        0,
        (302, 233, 261, 394, 11, 13, 32, 11, 238, 101, 578, 578),
        "0b0e321bfaf72280",
    ),
    (
        "its definition merged into the declaration, outside main's cone",
        ("define", "decl_kernel"),
        {
            CALLERS,
            key("%%"),
            key('byName("MPI_.*", %%)'),
            key('byName("main", %%)'),
            key('onCallPathTo(byName("MPI_.*", %%))'),
        }
        | REACH_MAIN - {key(GOLDEN_SPECS["hot-reachable"])},
        9,
        14,
        (302, 233, 261, 395, 12, 13, 34, 12, 238, 101, 578, 578),
        "19529541e31133b6",
    ),
]


def _digest(selections) -> str:
    text = "\n".join(
        f"{name}:{','.join(sorted(selected))}" for name, selected in selections
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_retention_golden():
    """Per edit: the keys kept, the counts, and every selection."""
    graph = build_whole_program_cg(build_openfoam(target_nodes=2000))
    names = sorted(GOLDEN_SPECS)
    specs = [compile_spec(GOLDEN_SPECS[n], spec_name=n) for n in names]
    store = GraphStore()
    store.admit("of", graph)
    evaluator = BatchEvaluator()
    evaluator.evaluate(specs, store.entry("of"))
    for description, edit, kept, retained, dropped, sizes, digest in GOLDEN:
        assert set(store.entry("of").cache._store) == ALL_KEYS, description
        if edit[0] == "edge":
            graph.add_edge(*edit[1:])
        else:
            graph.add_node(
                edit[1],
                NodeMeta(statements=40, flops=120, loop_depth=2, has_body=True),
            )
        before = store.stats.cache_retained, store.stats.cache_dropped
        entry = store.entry("of")
        assert set(entry.cache._store) == kept, description
        assert (
            store.stats.cache_retained - before[0],
            store.stats.cache_dropped - before[1],
        ) == (retained, dropped), description
        results = evaluator.evaluate(specs, entry).results
        assert tuple(len(r.selected) for r in results) == sizes, description
        assert _digest(zip(names, (r.selected for r in results))) == digest


# -- retention is sound on random graphs and edit streams ---------------------

_NAMES = ("main", "solve", "kernel", "helper", "io_write", "MPI_Send", "MPI_Wait")
_REASONS = (EdgeReason.DIRECT, EdgeReason.VIRTUAL, EdgeReason.PROFILE)

#: one spec per selector that defines ``delta_supports`` (``%x`` is a
#: named reference), each over ids an edit can touch
PROPERTY_SPECS = (
    "%%",
    'x = byName("k.*|s.*", %%)\nonCallPathTo(%x)',
    "inSystemHeader(%%)",
    "inlineSpecified(%%)",
    "virtual(%%)",
    "defined(%%)",
    'byPath("src/.*", %%)',
    'coarse(onCallPathFrom(byName("main", %%)))',
    'coarse(onCallPathFrom(byName("main", %%)), flops(">=", 50, %%))',
    'flops(">=", 30, %%)',
    'loopDepth(">=", 1, %%)',
    'statements(">=", 20, %%)',
    'callSites(">=", 2, %%)',
    'callers(">=", 2, %%)',
    'join(defined(%%), byName("MPI_.*", %%))',
    "subtract(%%, inSystemHeader(%%))",
    'intersect(onCallPathFrom(byName("main", %%)), flops(">=", 10, %%))',
    "complement(defined(%%))",
    'onCallPathTo(byName("MPI_.*", %%))',
    'onCallPathFrom(byName("main", %%))',
    'callPath(byName("main", %%), byName("MPI_.*", %%))',
    'callDepth("<=", 2, %%)',
    "statementAggregation(50, %%)",
)

_definitions = st.builds(
    NodeMeta,
    statements=st.integers(0, 60),
    flops=st.integers(0, 120),
    loop_depth=st.integers(0, 2),
    inline_marked=st.booleans(),
    in_system_header=st.booleans(),
    is_virtual=st.booleans(),
    has_body=st.just(True),
    source_path=st.sampled_from(("src/solver.cpp", "/usr/include/mpi.h")),
)
_index = st.integers(0, len(_NAMES) - 1)
_edges = st.tuples(st.just("edge"), _index, _index, st.sampled_from(_REASONS))
_edits = st.lists(
    st.one_of(_edges, st.tuples(st.just("define"), _index, _definitions)),
    min_size=1,
    max_size=10,
)


def _random_graph(metas, edges) -> CallGraph:
    graph = CallGraph()
    for name, meta in zip(_NAMES, metas):
        graph.add_node(name, meta)  # ``None``: declaration only
    for _, i, j, reason in edges:
        graph.add_edge(_NAMES[i], _NAMES[j], reason)
    return graph


@settings(max_examples=60, deadline=None)
@given(
    metas=st.lists(
        st.one_of(st.none(), _definitions),
        min_size=len(_NAMES),
        max_size=len(_NAMES),
    ),
    edges=st.lists(_edges, max_size=12),
    edits=_edits,
)
def test_retained_entries_equal_fresh_evaluation(metas, edges, edits):
    """After each edge add, reason upgrade or metadata merge, every entry
    the cache keeps equals what a fresh evaluation computes now."""
    graph = _random_graph(metas, edges)
    entries = [compile_spec(source).entry for source in PROPERTY_SPECS]
    cache = CrossRunCache()
    for entry in entries:
        evaluate_pipeline(entry, graph, cross_run=cache)
    for edit in edits:
        if edit[0] == "edge":
            _, i, j, reason = edit
            graph.add_edge(_NAMES[i], _NAMES[j], reason)
        elif not graph.meta_of(graph.id_of(_NAMES[edit[1]])).has_body:
            graph.add_node(_NAMES[edit[1]], edit[2])  # definition merge
        retained = dict(cache.store_for(graph))
        fresh = CrossRunCache()
        for entry in entries:
            evaluate_pipeline(entry, graph, cross_run=fresh)
        for cache_key, result in retained.items():
            assert result == fresh._store[cache_key], (edit, cache_key)
        for entry in entries:
            warm = evaluate_pipeline(entry, graph, cross_run=cache)
            assert warm.selected == graph.ids_to_names(
                fresh._store[entry.cache_key]
            )


# -- a support holds the evaluated sets themselves ----------------------------


def test_union_support_returns_the_operands():
    a, b = frozenset({1, 2}), frozenset({3})
    parts = union_support(a, b)
    assert parts == (a, b)
    assert parts[0] is a and parts[1] is b
    # empty sets and parts already present (by identity) are skipped
    assert union_support(frozenset(), b) == (b,)
    assert union_support(parts, a) == (a, b)
    assert union_support(parts, (b, frozenset())) == (a, b)
    assert union_support((), ()) == ()


def test_support_parts_are_sets_evaluation_holds():
    """Every part of every support in the golden mix is a result the
    context evaluated or a memo on the snapshot, held by identity."""
    graph = build_whole_program_cg(build_openfoam(target_nodes=2000))
    ctx = EvalContext(graph)
    for name, source in GOLDEN_SPECS.items():
        entry = compile_spec(source).entry
        ctx.evaluate_ids(entry)
        assert ctx.supports_of(entry) is not None, name
    held = {id(value) for value in ctx._cache.values()}
    held |= {id(value) for value in graph.csr().analyses.values()}
    parts = [
        part
        for supports in ctx._supports.values()
        for part in supports[0] + supports[1]
    ]
    assert parts and all(id(part) in held for part in parts)
