"""Durable trace pipeline: OTF2-shaped on-disk store, streaming merge,
wait-state classification, and the structured-alert watchdog.

Layered like the real tool stack (paper §I): Score-P writes OTF2
archives (one event file per *location* plus global definitions),
Vampir/Scalasca stream-merge them, Scalasca classifies wait states,
and a monitoring loop watches for regressions.  The submodules mirror
that: :mod:`.store` (archive layout), :mod:`.streaming` (bounded-memory
merge), :mod:`.waitstates` (late-sender / late-receiver / collective
imbalance), :mod:`.alerts` + :mod:`.watchdog` (structured JSONL alerts).
"""

from repro.trace.alerts import Alert, health_alerts
from repro.trace.store import (
    LocationMeta,
    TraceDefinitions,
    TraceStoreError,
    TraceWriter,
    discover_ranks,
    load_location,
    location_path,
    read_definitions,
    read_health_record,
    write_definitions,
    write_health_record,
)
from repro.trace.streaming import StreamingTrace, open_merged_trace
from repro.trace.waitstates import (
    ClassifiedWait,
    classify_wait_states,
    render_wait_state_report,
    summarize_by_rank,
    summarize_by_region,
)
from repro.trace.watchdog import WatchConfig, scan_run, watch

__all__ = [
    "Alert",
    "ClassifiedWait",
    "LocationMeta",
    "StreamingTrace",
    "TraceDefinitions",
    "TraceStoreError",
    "TraceWriter",
    "WatchConfig",
    "classify_wait_states",
    "discover_ranks",
    "health_alerts",
    "load_location",
    "location_path",
    "open_merged_trace",
    "read_definitions",
    "read_health_record",
    "render_wait_state_report",
    "scan_run",
    "summarize_by_rank",
    "summarize_by_region",
    "watch",
    "write_definitions",
    "write_health_record",
]
