"""Per-layer metrics of the traced pass, derived from spans and counters.

Times are self times (a span minus its nested spans) in seconds per
workload operation: a ``refine`` cycle, a ``world8`` job, a ``serve``
request.  Counts are per operation too.  The set-up layer (generate,
compile, link, MetaCG) is measured on one traced set-up instead.  A
layer a workload does not exercise reads 0.
"""

from __future__ import annotations

#: metric -> span name; self seconds of one traced set-up
SETUP_SPANS = {
    "apps.generate_s": "apps.generate",
    "program.compile_s": "program.compile",
    "program.link_s": "program.link",
    "cg.metacg_s": "cg.metacg",
}

#: metric -> span name; self seconds per operation of the traced pass
SELF_SPANS = {
    "program.load_s": "program.load",
    "dyncapi.startup_s": "dyncapi.startup",
    "dyncapi.symbols_s": "dyncapi.symbols",
    "dyncapi.idmap_s": "dyncapi.idmap",
    "xray.register_s": "xray.register",
    "xray.patch_s": "xray.patch",
    "execution.run_s": "execution.run",
    "scorep.finalize_s": "scorep.finalize",
    "scorep.score_s": "scorep.score",
    "talp.report_s": "talp.report",
    "workflow.run_app_s": "workflow.run_app",
    "core.select_s": "core.select",
    "core.load_spec_s": "core.load_spec",
    "core.compile_s": "core.compile",
    "core.evaluate_s": "core.evaluate",
    "core.compensate_s": "core.compensate",
    "cg.csr_build_s": "cg.csr_build",
    "cg.refresh_s": "cg.refresh",
    "service.evaluate_s": "service.evaluate",
    "service.edit_s": "service.edit",
    "multirank.check_s": "multirank.check",
    "multirank.reduce_s": "multirank.reduce",
    "multirank.merge_s": "multirank.merge",
    "trace.write_s": "trace.write",
    "trace.load_s": "trace.load",
    "trace.open_s": "trace.open",
    "trace.validate_s": "trace.validate",
    "trace.wait_states_s": "trace.wait_states",
    "trace.critical_path_s": "trace.critical_path",
    "trace.classify_s": "trace.classify",
    "trace.watchdog_s": "trace.watchdog",
}

#: counters the wrappers keep, per operation
COUNTERS = (
    "program.mprotect_calls",
    "xray.patched_sleds",
    "execution.entry_events",
    "execution.mpi_calls",
    "multirank.attempts",
)

#: every per-layer metric with its unit, in report order
UNITS = {
    **{name: "s" for name in SETUP_SPANS},
    **{name: "s" for name in SELF_SPANS},
    **{name: "count" for name in COUNTERS},
    "execution.events_per_s": "1/s",
    "cg.refreshes": "count",
    "cg.cache_retained": "count",
    "cg.cache_dropped": "count",
    "service.busy_share": "ratio",
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.dedup_ratio": "ratio",
    "service.cross_hit_ratio": "ratio",
    "service.compile_hit_ratio": "ratio",
    "service.store_hit_rate": "ratio",
    "service.retried": "count",
    "service.wait_p50_ms": "ms",
    "service.wait_p99_ms": "ms",
    "multirank.map_s": "s",
    "multirank.rank_busy_s": "s",
    "multirank.pool_efficiency": "ratio",
    "trace.events": "count",
    "trace.bytes": "bytes",
    "bench.traced_ops": "count",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead_pct": "%",
    "bench.attributed_share": "ratio",
    "bench.unattributed_s": "s",
}


def layer_metrics(
    *,
    setup: dict,
    spans: dict,
    counters: dict,
    roots_s: float,
    ops: int,
    untraced_wall_s: float,
    traced_wall_s: float,
    processes: int,
    extras: dict,
) -> dict:
    """Every metric of :data:`UNITS` for one traced pass."""

    def own(table: dict, span: str) -> float:
        return table.get(span, (0, 0.0, 0.0))[2]

    def inclusive(span: str) -> float:
        return spans.get(span, (0, 0.0, 0.0))[1]

    values = {name: own(setup, span) for name, span in SETUP_SPANS.items()}
    values.update({name: own(spans, span) / ops for name, span in SELF_SPANS.items()})
    values.update({name: counters.get(name, 0) / ops for name in COUNTERS})
    run_s = inclusive("execution.run")
    values["execution.events_per_s"] = (
        counters.get("execution.entry_events", 0) / run_s if run_s else 0.0
    )
    values["cg.refreshes"] = spans.get("cg.refresh", (0,))[0] / ops
    values["service.busy_share"] = inclusive("service.evaluate") / traced_wall_s
    map_s, busy_s = inclusive("multirank.map"), inclusive("multirank.rank")
    values["multirank.map_s"] = map_s / ops
    values["multirank.rank_busy_s"] = busy_s / ops
    values["multirank.pool_efficiency"] = (
        busy_s / (processes * map_s) if map_s else 0.0
    )
    values["bench.traced_ops"] = ops
    values["bench.untraced_wall_s"] = untraced_wall_s
    values["bench.traced_wall_s"] = traced_wall_s
    values["bench.tracing_overhead_pct"] = 100.0 * (traced_wall_s / untraced_wall_s - 1.0)
    values["bench.attributed_share"] = roots_s / traced_wall_s
    values["bench.unattributed_s"] = (traced_wall_s - roots_s) / ops
    values.update(extras)
    return {name: values.get(name, 0.0) for name in UNITS}
