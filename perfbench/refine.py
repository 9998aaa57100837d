"""``refine``: the paper's refinement loop, one analyst, closed loop.

Each cycle draws a spec and a tool, selects (``Capi.select`` with
inlining compensation), runs the IC-instrumented app on one rank and
reads the measurement.  Most specs are seeded threshold variants, so
most cycles select and patch a configuration the session has not seen.
"""

from __future__ import annotations

import json
import random
import time

import repro.apps as apps
import repro.scorep.score_tool as score_tool
import repro.workflow as workflow
from repro.apps import PAPER_SPECS
from repro.core.capi import Capi
from repro.experiments.runner import DEFAULT_WORKLOAD, SPEC_ORDER
from repro.scorep.regions import flatten

from common import HERE, median, timing
from reference import ReferenceGraph

EXPECTED_PATH = HERE / "expected_refine.json"
TOOLS = ("scorep", "talp")

KERNELS_TEMPLATE = """
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", {flops}, loopDepth(">=", 1, %%))
subtract(onCallPathTo(%kernels), %excluded)
"""

KERNELS_COARSE_TEMPLATE = """
excluded = join(inSystemHeader(%%), inlineSpecified(%%))
kernels = flops(">=", {flops}, loopDepth(">=", 1, %%))
critical = flops(">=", {critical}, loopDepth(">=", 1, %%))
coarse(subtract(onCallPathTo(%kernels), %excluded), %critical)
"""


def spec_source(key: str) -> str:
    """Source text of a spec key: ``mpi``, ``kernels:F``, ``kernels coarse:F:C``."""
    if key in PAPER_SPECS:
        return PAPER_SPECS[key]
    family, *numbers = key.split(":")
    if family == "kernels":
        return KERNELS_TEMPLATE.format(flops=int(numbers[0]))
    return KERNELS_COARSE_TEMPLATE.format(
        flops=int(numbers[0]), critical=int(numbers[1])
    )


def all_spec_keys(params: dict) -> list[str]:
    """Every spec key the session generator can draw."""
    lo, hi = params["kernel_flops"]
    keys = list(SPEC_ORDER)
    keys += [f"kernels:{f}" for f in range(lo, hi + 1)]
    keys += [
        f"kernels coarse:{f}:{c}"
        for f in range(lo, hi + 1)
        for c in params["critical_flops"]
    ]
    return keys


def session(params: dict, seed: int):
    """The analyst's endless, seeded sequence of (spec key, tool).

    Cycles come in shuffled blocks with a fixed count per spec family
    (``params["block"]``) and tools alternating within each family.
    Cycle cost depends mostly on the family and the tool, so every seed
    gets the same mix and only the thresholds and the order vary.
    """
    rng = random.Random(seed)
    lo, hi = params["kernel_flops"]
    paper = list(SPEC_ORDER)
    rng.shuffle(paper)
    drawn_paper = 0
    while True:
        block = []
        for family, count in params["block"].items():
            first = rng.randrange(len(TOOLS))
            block += [(family, TOOLS[(first + i) % len(TOOLS)]) for i in range(count)]
        rng.shuffle(block)
        for family, tool in block:
            if family == "paper":
                key = paper[drawn_paper % len(paper)]
                drawn_paper += 1
            elif family == "kernels":
                key = f"kernels:{rng.randint(lo, hi)}"
            else:
                key = (
                    f"kernels coarse:{rng.randint(lo, hi)}:"
                    f"{rng.choice(params['critical_flops'])}"
                )
            yield key, tool


def setup(params: dict) -> dict:
    app = workflow.build_app(apps.build_openfoam(target_nodes=params["nodes"]))
    return {"app": app}


def teardown(state: dict) -> None:
    state.clear()


def cycle(capi: Capi, app, key: str, tool: str) -> dict:
    """One select → run → read cycle, with its stage times."""
    t0 = time.perf_counter()
    outcome = capi.select(spec_source(key), spec_name=key, linked=app.linked)
    t1 = time.perf_counter()
    run = workflow.run_app(
        app, mode="ic", tool=tool, ic=outcome.ic, workload=DEFAULT_WORKLOAD
    )
    t2 = time.perf_counter()
    if tool == "scorep":
        reading = score_tool.score_profile(flatten(run.scorep_profile))
    else:
        reading = run.talp_report.render()
    t3 = time.perf_counter()
    if not reading:
        raise RuntimeError(f"cycle {key}/{tool} produced an empty measurement")
    return {
        "key": key,
        "tool": tool,
        "select_s": t1 - t0,
        "run_s": t2 - t1,
        "read_s": t3 - t2,
        "cycle_s": t3 - t0,
        "selected": outcome.selection.selected,
        "virtual": [
            run.result.t_init,
            run.result.t_total,
            run.result.entry_events,
            run.startup.patched_sleds,
        ],
    }


def warm_up(state: dict, params: dict, seed: int, **_) -> None:
    """One untimed cycle per tool, so lazy imports land before timing."""
    app = state["app"]
    capi = Capi(graph=app.graph, app_name=app.name)
    for tool in TOOLS:
        cycle(capi, app, "mpi", tool)


def run(state: dict, params: dict, seed: int, *, seconds: float, ops=None,
        calibrator=None, **_) -> dict:
    """Cycle until ``seconds`` of cycle time have passed, or exactly ``ops``
    cycles.  With a calibrator, a reference sample follows every cycle,
    off the clock, and each cycle keeps the factor of the samples around
    it (:meth:`calibrate.Calibrator.pair`): a cycle is single-threaded
    Python like the kernel, so pairing follows spells shorter than a run.
    """
    app = state["app"]
    capi = Capi(graph=app.graph, app_name=app.name)
    cycles, errors = [], []
    measured = 0.0
    before = calibrator.sample() if calibrator else None
    for index, (key, tool) in enumerate(session(params, seed)):
        if ops is not None and index >= ops:
            break
        if ops is None and measured >= seconds:
            break
        start = time.perf_counter()
        try:
            done = cycle(capi, app, key, tool)
        except Exception as exc:  # noqa: BLE001 - counted as a failed cycle
            errors.append(f"{key}/{tool}: {type(exc).__name__}: {exc}")
            done = None
        measured += time.perf_counter() - start
        scale = 1.0
        if calibrator is not None:
            after = calibrator.sample()
            scale = calibrator.pair(before, after)
            before = after
        if done is not None:
            done["scale"] = scale
            cycles.append(done)
    selections = {c["key"]: c.pop("selected") for c in cycles}
    return {
        "ops": len(cycles) + len(errors),
        "attempted": len(cycles) + len(errors),
        "failed": len(errors),
        "errors": errors,
        "wall_s": measured,
        "cycles": cycles,
        "selections": selections,
    }


def check(state: dict, params: dict, result: dict, *, smoke: bool, cache: dict,
          **_) -> list[str]:
    """Selections against the reference evaluator; virtual outputs against
    the expected file (skipped at smoke scale, which it does not cover)."""
    problems = list(result["errors"])
    if "reference" not in cache:
        cache["reference"] = ReferenceGraph(state["app"].graph)
    reference = cache["reference"]
    verified = cache.setdefault("verified", {})
    for key, selected in result["selections"].items():
        if key not in verified:
            verified[key] = reference.select(spec_source(key))
        if selected != verified[key]:
            problems.append(
                f"selection of {key!r} differs from the reference evaluator on "
                f"{len(selected ^ verified[key])} function(s)"
            )
    if not smoke:
        expected = json.loads(EXPECTED_PATH.read_text())
        for c in result["cycles"]:
            want = expected.get(f"{c['key']}|{c['tool']}")
            if want != c["virtual"]:
                problems.append(
                    f"cycle {c['key']}/{c['tool']}: virtual outputs "
                    f"{c['virtual']} != expected {want}"
                )
    return problems


def summarize(result: dict, scale: float) -> dict:
    """Each cycle at reference speed by its own paired factor; the run's
    ``scale`` is only reported."""
    cycles = result["cycles"]
    times = [c["cycle_s"] for c in cycles]
    at_reference = [c["cycle_s"] * c["scale"] for c in cycles]
    return {
        "throughput_per_s": len(cycles) / sum(at_reference),
        "latency_p50_ms": median(at_reference) * 1000.0,
        "diagnostics": {
            "cycle_ms": timing(times, 1000.0),
            "cycles_per_s": len(cycles) / result["wall_s"],
            "select_ms_p50": median([c["select_s"] for c in cycles]) * 1000.0,
            "run_ms_p50": median([c["run_s"] for c in cycles]) * 1000.0,
            "read_ms_p50": median([c["read_s"] for c in cycles]) * 1000.0,
            "distinct_specs": len(result["selections"]),
        },
    }


def layer_extras(result: dict, ops: int) -> dict:
    return {}


def record_expected(params: dict) -> None:
    """Write the virtual outputs of every (spec, tool) the session can draw."""
    app = setup(params)["app"]
    capi = Capi(graph=app.graph, app_name=app.name)
    expected = {}
    for key in all_spec_keys(params):
        for tool in TOOLS:
            expected[f"{key}|{tool}"] = cycle(capi, app, key, tool)["virtual"]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected.items())]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
