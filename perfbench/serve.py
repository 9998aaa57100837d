"""``serve``: live selection traffic, an open loop then a closed loop.

Two graphs sit in one selection service: the LULESH-like graph is
below ``VECTOR_MIN_SIZE`` (Python kernels), the OpenFOAM-like one above
it (CSR kernels).  Phase 1 sends Poisson arrivals at a fixed rate from
one generator thread and times each request from when it was due.
Phase 2 keeps a fixed number of requests outstanding and measures
capacity.  Hot specs share work through the service's caches, seeded
unique specs bypass them, and graph edits are writes beside the reads.
"""

from __future__ import annotations

import math
import queue
import random
import threading
import time

import repro.apps as apps
import repro.workflow as workflow
from repro.apps import PAPER_SPECS
from repro.cg.graph import NodeMeta
from repro.core.pipeline import compile_spec, evaluate_pipeline
from repro.experiments.serve import EXTRA_SPECS

from common import median, percentile, timing

HOT = {**PAPER_SPECS, **EXTRA_SPECS}
HOT_NAMES = sorted(HOT)
GRAPHS = ("lulesh", "openfoam")
#: a one-off query: a unique flops cut over a shared, cacheable call-path
#: set (filtering that small set keeps each cache entry's support small)
UNIQUE_TEMPLATE = (
    'flops("<", {cut}, onCallPathTo(flops(">=", {kernel}, loopDepth(">=", 1, %%))))'
)
#: a future not resolved this long after its phase ends fails the run
RESOLVE_TIMEOUT_S = 60.0
#: answers per phase-2 window of the capacity estimate
CAPACITY_WINDOW = 500


def graft(name: str):
    """A graph edit adding a hot kernel ``name`` under ``main``."""

    def mutate(graph) -> None:
        graph.add_node(
            name, NodeMeta(flops=64, loop_depth=2, statements=12, has_body=True)
        )
        graph.add_edge("main", name)

    return mutate


class Traffic:
    """Seeded request stream: (kind, graph key, spec source or edit name).

    Every ``edit_every``-th request is a graph edit, on the graphs in
    turn.  In each block of ``edit_every`` requests per graph, a graph
    gets one edit, ``hot_share`` of the block as hot specs and the rest
    as unique specs, in seeded order.  After an edit the hot specs on
    that graph are evaluated afresh, which is most of what phase 2
    costs, so fixed edit spacing gives every seed and every stretch of a
    phase the same cost; the seed picks the order, the hot specs and the
    unique thresholds.
    """

    def __init__(self, params: dict, rng: random.Random, prefix: str) -> None:
        self.rng = rng
        self.prefix = prefix
        self.edits = 0
        self.gap = params["edit_every"] - 1
        hot = round(params["hot_share"] * params["edit_every"])
        self.selects = [
            (kind, key)
            for key in GRAPHS
            for kind, count in (("hot", hot), ("unique", self.gap - hot))
            for _ in range(count)
        ]
        self.pending: list[tuple[str, str]] = []

    def block(self) -> list[tuple[str, str]]:
        """One edit per graph, each followed by ``edit_every - 1`` selects."""
        selects = list(self.selects)
        self.rng.shuffle(selects)
        out = []
        for i, key in enumerate(GRAPHS):
            out.append(("edit", key))
            out += selects[i * self.gap:(i + 1) * self.gap]
        return out

    def draw(self) -> tuple[str, str, str]:
        rng = self.rng
        if not self.pending:
            self.pending = self.block()[::-1]
        kind, key = self.pending.pop()
        if kind == "edit":
            self.edits += 1
            return "edit", key, f"perfbench_{self.prefix}_{self.edits}"
        if kind == "hot":
            return "select", key, HOT[rng.choice(HOT_NAMES)]
        return "select", key, UNIQUE_TEMPLATE.format(
            cut=rng.randint(1, 100_000), kernel=rng.randint(1, 20)
        )


def setup(params: dict) -> dict:
    graphs = {
        "lulesh": workflow.build_app(
            apps.build_lulesh(target_nodes=params["lulesh_nodes"])
        ),
        "openfoam": workflow.build_app(
            apps.build_openfoam(target_nodes=params["openfoam_nodes"])
        ),
    }
    service = workflow.serve_selection(graphs)
    for key in GRAPHS:
        for name in HOT_NAMES:
            service.select(key, HOT[name], spec_name=name)
    return {"graphs": graphs, "service": service}


def teardown(state: dict) -> None:
    service = state.get("service")
    if service is not None:
        service.close()
    state.clear()


class Ledger:
    """Client-side bookkeeping of every answer, done off the service threads.

    Only answers at the newest version seen of their graph are kept (one
    per distinct result per spec), which is all the final-version gate
    needs: an edit drops the older ones, so the benchmark's own memory
    stays bounded by the requests between two edits.
    """

    def __init__(self, recorder=None) -> None:
        #: traced pass: the benchmark's edit callables become spans
        self.recorder = recorder
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.answers: dict[tuple[str, str], list] = {}
        #: newest version answered per graph key
        self.newest: dict[str, int] = {}
        self.latencies: list[float] = []
        self.waits: list[float] = []
        self.errors: list[str] = []
        self.last_done = 0.0
        #: answers absorbed so far
        self.resolved = 0

    def submit(self, service, request, *, due: float) -> dict:
        kind, key, payload = request
        record = {"kind": kind, "key": key, "payload": payload, "due": due}
        record["sent"] = time.perf_counter()
        if kind == "edit":
            mutate = graft(payload)
            if self.recorder is not None:
                mutate = self.recorder.wrap("service.edit", mutate)
            future = service.submit_edit(key, mutate)
        else:
            future = service.submit(key, payload, tenant="perfbench")
        record["future"] = future

        def finished(_future, record=record, done=self.done) -> None:
            record["done_at"] = time.perf_counter()
            done.put(record)

        future.add_done_callback(finished)
        return record

    def absorb(self, record: dict, *, latency_from_due: bool) -> None:
        self.resolved += 1
        self.last_done = max(self.last_done, record["done_at"])
        start = record["due"] if latency_from_due else record["sent"]
        latency = record["done_at"] - start
        try:
            answer = record.pop("future").result(timeout=0)
        except Exception as exc:  # noqa: BLE001 - a failed request
            self.errors.append(f"{record['kind']} on {record['key']}: {exc!r}")
            self.latencies.append(math.inf)
            return
        self.latencies.append(latency)
        if record["kind"] != "select":
            return
        self.waits.append(latency - answer.selection.duration_seconds)
        key, version = record["key"], answer.graph_version
        newest = self.newest.get(key, -1)
        if version < newest:
            return
        if version > newest:
            self.newest[key] = version
            for stale in [k for k in self.answers if k[0] == key]:
                del self.answers[stale]
        selected = answer.selection.selected
        slot = self.answers.setdefault((key, record["payload"]), [version, []])
        if not any(s is selected or s == selected for s in slot[1]):
            slot[1].append(selected)


def open_loop(service, ledger: Ledger, params: dict, seed: int, seconds: float) -> dict:
    """Phase 1: Poisson arrivals from one generator thread."""
    rng = random.Random(f"{seed}-open")
    traffic = Traffic(params, rng, "open")
    arrivals, t = [], 0.0
    while True:
        t += rng.expovariate(params["rate_per_s"])
        if t >= seconds:
            break
        arrivals.append((t, traffic.draw()))
    lateness: list[float] = []
    depth: list[tuple[float, int]] = []
    state = {"sent": 0}

    def generate(base: float) -> None:
        for offset, request in arrivals:
            due = base + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = ledger.submit(service, request, due=due)
            lateness.append(record["sent"] - due)
            state["sent"] += 1
            depth.append((offset, state["sent"] - ledger.resolved - ledger.done.qsize()))

    base = time.perf_counter() + 0.01
    generator = threading.Thread(target=generate, args=(base,), name="perfbench-generator")
    generator.start()
    absorbed = 0
    while generator.is_alive():
        try:
            ledger.absorb(ledger.done.get(timeout=0.05), latency_from_due=True)
            absorbed += 1
        except queue.Empty:
            pass
    generator.join()
    for _ in range(state["sent"] - absorbed):
        ledger.absorb(ledger.done.get(timeout=RESOLVE_TIMEOUT_S), latency_from_due=True)
    wall = max(ledger.last_done, base + seconds) - base
    quarter = max(1, len(depth) // 4)
    first = sum(d for _, d in depth[:quarter]) / quarter
    last = sum(d for _, d in depth[-quarter:]) / quarter
    return {
        "requests": len(arrivals),
        "wall_s": wall,
        "lateness": lateness,
        "backlog_end": depth[-1][1] if depth else 0,
        "backlog_grew": last > max(2.0 * first, first + 10.0),
    }


def closed_window(service, ledger: Ledger, traffic: Traffic, outstanding: int,
                  count: int) -> float:
    """``count`` requests from an empty queue, ``outstanding`` in flight;
    seconds from the first send to the last answer."""
    start = time.perf_counter()
    sent = in_flight = 0
    while in_flight < outstanding and sent < count:
        ledger.submit(service, traffic.draw(), due=time.perf_counter())
        sent += 1
        in_flight += 1
    while in_flight:
        record = ledger.done.get(timeout=RESOLVE_TIMEOUT_S)
        ledger.absorb(record, latency_from_due=False)
        in_flight -= 1
        if sent < count:
            ledger.submit(service, traffic.draw(), due=time.perf_counter())
            sent += 1
            in_flight += 1
    return ledger.last_done - start


def closed_loop(service, ledger: Ledger, params: dict, seed: int, ops: int,
                calibrator=None) -> dict:
    """Phase 2: ``ops`` requests in windows of ``CAPACITY_WINDOW``, each
    window keeping ``outstanding`` requests in flight.

    Capacity is the median window rate, so a stall in part of the phase
    moves it less than it moves the phase's mean rate.  With a
    calibrator, a reference sample follows every window, off the clock,
    and each window's rate is taken at reference speed from the samples
    around it (:meth:`calibrate.Calibrator.pair`).
    """
    traffic = Traffic(params, random.Random(f"{seed}-closed"), "closed")
    rates, measured, wall = [], [], 0.0
    before = calibrator.sample() if calibrator else None
    sent = 0
    while sent < ops:
        count = min(CAPACITY_WINDOW, ops - sent)
        elapsed = closed_window(service, ledger, traffic, params["outstanding"], count)
        sent += count
        wall += elapsed
        scale = 1.0
        if calibrator is not None:
            after = calibrator.sample()
            scale = calibrator.pair(before, after)
            before = after
        measured.append(count / elapsed)
        rates.append(count / (elapsed * scale))
    return {
        "requests": sent,
        "wall_s": wall,
        "capacity_per_s": median(rates),
        "capacity_per_s_measured": median(measured),
    }


def warm_up(state: dict, params: dict, seed: int, **_) -> None:
    """Nothing beyond set-up, which already answers every hot spec once
    on both graphs."""


def run(state: dict, params: dict, seed: int, *, seconds: float,
        recorder=None, calibrator=None, **_) -> dict:
    """Phase 1 for its share of ``seconds``, then phase 2: as many
    requests as the calibrated capacity answers in the rest."""
    service = state["service"]
    phase1 = seconds * params["phase1_share"]
    before = service.stats_snapshot()
    ledger = Ledger(recorder)
    opened = open_loop(service, ledger, params, seed, phase1)
    p1_latencies, ledger.latencies = ledger.latencies, []
    # a fixed count, not a fixed duration: the warm caches then fill the
    # same way whatever the speed, which keeps peak memory comparable
    closed = closed_loop(
        service, ledger, params, seed,
        round(params["capacity_per_s"] * (seconds - phase1)), calibrator,
    )
    after = service.stats_snapshot()
    return {
        "ops": opened["requests"] + closed["requests"],
        "attempted": opened["requests"] + closed["requests"],
        "failed": len(ledger.errors),
        "errors": ledger.errors,
        "wall_s": opened["wall_s"] + closed["wall_s"],
        "open": opened,
        "closed": closed,
        "p1_latencies": p1_latencies,
        "waits": ledger.waits,
        "answers": ledger.answers,
        "stats_before": before,
        "stats_after": after,
    }


def check(state: dict, params: dict, result: dict, **_) -> list[str]:
    """No failed request; final-version answers ≡ a fresh evaluation."""
    problems = list(result["errors"])
    checked = 0
    for (key, source), (version, answers) in result["answers"].items():
        graph = state["graphs"][key].graph
        if version != graph.version:
            continue
        fresh = evaluate_pipeline(compile_spec(source).entry, graph).selected
        checked += 1
        for selected in answers:
            if selected != fresh:
                problems.append(
                    f"answer on {key!r} at version {version} differs from a "
                    f"fresh evaluation on {len(selected ^ fresh)} function(s)"
                )
    if not checked:
        problems.append("no answer was given at the final graph version")
    return problems


def summarize(result: dict, scale: float) -> dict:
    """Capacity at reference speed, window by window; phase-1 latency as
    measured.  At 125 req/s latency is mostly thread hand-offs, which
    follow the reference kernel only in part: over six pinned runs whose
    kernel medians moved by 27%, latency moved by 12% as measured and
    by 22% scaled.  ``scale`` (the run's) is only reported."""
    opened, closed = result["open"], result["closed"]
    lateness = opened["lateness"]
    return {
        "throughput_per_s": closed["capacity_per_s"],
        "latency_p50_ms": median(result["p1_latencies"]) * 1000.0,
        "diagnostics": {
            "phase1_latency_ms": timing(result["p1_latencies"], 1000.0),
            "capacity_per_s_measured": closed["capacity_per_s_measured"],
            "phase1_requests": opened["requests"],
            "phase2_requests": closed["requests"],
            "generator_late_max_ms": max(lateness) * 1000.0,
            "generator_late_p99_ms": percentile(lateness, 99) * 1000.0,
            "backlog_end": opened["backlog_end"],
            "backlog_grew": opened["backlog_grew"],
        },
    }


def layer_extras(result: dict, ops: int) -> dict:
    before, after = result["stats_before"], result["stats_after"]

    def delta(*path) -> float:
        a, b = before, after
        for part in path:
            a, b = a[part], b[part]
        return b - a

    batched = delta("batches")
    requests = sum(
        after["per_tenant"].get(t, 0) - before["per_tenant"].get(t, 0)
        for t in after["per_tenant"]
    )
    compiles = delta("compile_hits") + delta("compile_misses")
    unique = delta("unique_evaluated")
    store_accesses = delta("store", "warm_hits") + delta("store", "cold_builds")
    waits = result["waits"]
    return {
        "service.batches": batched / ops,
        "service.batch_size_mean": requests / batched if batched else 0.0,
        "service.dedup_ratio": delta("deduped") / requests if requests else 0.0,
        "service.cross_hit_ratio": delta("cross_hits") / unique if unique else 0.0,
        "service.compile_hit_ratio": delta("compile_hits") / compiles if compiles else 0.0,
        "service.store_hit_rate": (
            delta("store", "warm_hits") / store_accesses if store_accesses else 0.0
        ),
        "service.retried": delta("retried") / ops,
        "service.wait_p50_ms": percentile(waits, 50) * 1000.0,
        "service.wait_p99_ms": percentile(waits, 99) * 1000.0,
        "cg.cache_retained": delta("store", "cache_retained") / ops,
        "cg.cache_dropped": delta("store", "cache_dropped") / ops,
    }
