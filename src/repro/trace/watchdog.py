"""Continuous trace/bench watchdog: scan run directories, emit alerts.

The monitoring loop the ROADMAP asked for (zeus-monitor shape, minus
the email theatrics): tail a directory tree of trace archives, apply
integrity + supervision + wait-state-regression rules, and emit one
structured JSONL :class:`~repro.trace.alerts.Alert` per finding.

Rules per run directory.  Each location file is read once, by one
strict, windowless :func:`~repro.scorep.tracing.walk_stream` pass, and
every trace rule below derives from those walks:

* ``trace-missing-definitions`` — location files exist but the global
  definitions were never published (the run died before close).
* ``trace-truncated`` — a location file fails the strict read (missing
  or count-mismatched footer, truncated block, bad record or tag).
* ``trace-event-count`` — a location's event count (the walk's
  ``count``) disagrees with the definitions table.
* ``trace-orphan-location`` — a location file the definitions don't
  list (a zombie attempt published after the archive closed).
* ``trace-unmergeable`` — the intact locations cannot be aligned (only
  some of them synchronise).
* ``trace-<issue-code>`` — any defect a walk found
  (``trace-timestamp-regression``, ``trace-unclosed-region``, ...),
  stamped with its rank as
  :meth:`~repro.multirank.tracing.MergedTimeline.validate` stamps it:
  alignment neither creates nor hides a defect, so the raw stream's
  walk finds what the merged timeline's would.
* ``retried`` / ``lost`` / ``degraded`` — straight from ``health.json``
  via :func:`~repro.trace.alerts.health_alerts`.
* ``wait-regression`` — the archive's collective-wait fraction
  (sum of rank offsets over ranks × elapsed, aligned from the walks'
  sync markers and last and largest timestamps) exceeds its budget: the
  ``trace_pipeline.healthy_wait_fraction`` baseline in
  ``BENCH_selection.json`` scaled by ``--wait-slack``, or an absolute
  default when no usable baseline is available (a missing or unreadable
  file, or a fraction that is not a finite non-negative number).

Healthy archives stay silent — that is asserted in CI.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TextIO

from repro.errors import CapiError
from repro.multirank.tracing import align_scans, rank_issues, walk_scan
from repro.scorep.tracing import StreamWalk, walk_stream
from repro.trace.alerts import Alert, AlertLog, health_alerts
from repro.trace.store import (
    DEFINITIONS_NAME,
    TraceStoreError,
    discover_ranks,
    iter_location_blocks,
    location_path,
    read_definitions,
    read_health_record,
    read_json_object,
)

#: wait fraction allowed when no bench baseline exists: below 0.9 even
#: a heavily imbalanced run passes, while a hang-shaped trace (one rank
#: parked at a collective for nearly the whole timeline) trips it
DEFAULT_WAIT_FRACTION_LIMIT = 0.9


@dataclass(frozen=True)
class WatchConfig:
    """Knobs for one watchdog scan."""

    #: BENCH_selection.json path (optional baseline source)
    baseline_path: str | None = None
    #: multiplier on the baseline healthy wait fraction
    wait_slack: float = 2.0
    #: absolute fallback when no baseline record exists
    wait_fraction_limit: float = DEFAULT_WAIT_FRACTION_LIMIT


def _load_baseline_wait_fraction(config: WatchConfig) -> "float | None":
    if not config.baseline_path:
        return None
    path = Path(config.baseline_path)
    if not path.is_file():
        return None
    try:
        section = read_json_object(path, "baseline").get("trace_pipeline")
    except TraceStoreError:
        return None
    fraction = (
        section.get("healthy_wait_fraction") if isinstance(section, dict) else None
    )
    if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
        return None
    try:
        fraction = float(fraction)
    except OverflowError:  # an integer literal beyond float range
        return None
    return fraction if math.isfinite(fraction) and fraction >= 0.0 else None


def scan_run(run_dir: str | Path, *, config: WatchConfig | None = None) -> list[Alert]:
    """Apply every watchdog rule to one trace archive directory."""
    config = config or WatchConfig()
    run_dir = Path(run_dir)
    source = str(run_dir)
    alerts: list[Alert] = []
    present = discover_ranks(run_dir)

    try:
        defs = read_definitions(run_dir)
    except TraceStoreError as exc:
        alerts.append(
            Alert(
                code="trace-missing-definitions",
                severity="critical",
                source=source,
                detail=str(exc),
            )
        )
        defs = None

    # integrity per location: one strict, windowless walk, whose count
    # is cross-checked against the definitions
    broken: set[int] = set()
    walks: dict[int, StreamWalk] = {}
    expected = dict(
        zip(defs.locations, defs.events_per_location)
    ) if defs else {}
    for rank in present:
        try:
            walk = walk_stream(
                iter_location_blocks(location_path(run_dir, rank), strict=True)
            )
        except TraceStoreError as exc:
            alerts.append(
                Alert(
                    code="trace-truncated",
                    severity="critical",
                    rank=rank,
                    source=source,
                    detail=str(exc),
                )
            )
            broken.add(rank)
            continue
        walks[rank] = walk
        count = walk.count
        if defs is not None and rank not in expected:
            alerts.append(
                Alert(
                    code="trace-orphan-location",
                    severity="warning",
                    rank=rank,
                    source=source,
                    detail=f"location file not listed in {DEFINITIONS_NAME}",
                )
            )
        elif defs is not None and count != expected[rank]:
            alerts.append(
                Alert(
                    code="trace-event-count",
                    severity="critical",
                    rank=rank,
                    source=source,
                    measured=float(count),
                    threshold=float(expected[rank]),
                    detail=(
                        f"definitions declare {expected[rank]} event(s), "
                        f"file holds {count}"
                    ),
                )
            )
            broken.add(rank)
    if defs is not None:
        for rank in defs.locations:
            if rank not in present:
                alerts.append(
                    Alert(
                        code="trace-missing-location",
                        severity="critical",
                        rank=rank,
                        source=source,
                        detail="definitions list the location but no file exists",
                    )
                )
                broken.add(rank)

    # merged-timeline consistency + wait regression over intact ranks,
    # from the same walks: alignment neither creates nor hides a defect,
    # and the walks' sync markers and timestamps are what it aligns by
    intact = [r for r in present if r not in broken]
    if intact:
        intact_walks = [walks[r] for r in intact]
        try:
            alignment, _ = align_scans(
                tuple(intact), [walk_scan(walk) for walk in intact_walks]
            )
        except CapiError as exc:
            alerts.append(
                Alert(
                    code="trace-unmergeable",
                    severity="critical",
                    source=source,
                    detail=str(exc),
                )
            )
        else:
            for issue in rank_issues(intact, intact_walks):
                alerts.append(
                    Alert(
                        code=f"trace-{issue.code}",
                        severity="critical",
                        rank=issue.rank,
                        region=issue.region,
                        source=source,
                        detail=issue.detail,
                    )
                )
            alerts.extend(
                _wait_regression_alerts(alignment, config, source)
            )

    # supervision records ride along with the archive
    try:
        health = read_health_record(run_dir)
    except TraceStoreError as exc:
        alerts.append(
            Alert(
                code="health-unreadable",
                severity="warning",
                source=source,
                detail=str(exc),
            )
        )
    else:
        for alert in health_alerts(health):
            alerts.append(_with_source(alert, source))
    return alerts


def _with_source(alert: Alert, source: str) -> Alert:
    return replace(alert, source=source)


def _wait_regression_alerts(
    alignment: dict, config: WatchConfig, source: str
) -> list[Alert]:
    """``alignment``: the timeline fields :func:`align_scans` returns."""
    ranks = alignment["ranks"]
    elapsed = max(alignment["last_aligned"], default=0.0)
    if elapsed <= 0.0 or ranks == 0:
        return []
    fraction = sum(alignment["rank_offsets"]) / (ranks * elapsed)
    baseline = _load_baseline_wait_fraction(config)
    if baseline is not None:
        limit = baseline * config.wait_slack
        basis = f"baseline {baseline:.4f} × slack {config.wait_slack:g}"
    else:
        limit = config.wait_fraction_limit
        basis = "absolute default"
    if fraction <= limit:
        return []
    return [
        Alert(
            code="wait-regression",
            severity="warning",
            source=source,
            measured=fraction,
            threshold=limit,
            detail=(
                f"collective-wait fraction {fraction:.1%} exceeds "
                f"budget {limit:.1%} ({basis})"
            ),
        )
    ]


# -- the watch loop --------------------------------------------------------------


def discover_run_dirs(root: str | Path) -> list[Path]:
    """Directories under ``root`` that look like trace archives."""
    root = Path(root)
    if not root.exists():
        return []
    candidates: set[Path] = set()
    for marker in root.rglob(DEFINITIONS_NAME):
        candidates.add(marker.parent)
    for marker in root.rglob("rank-*.evt"):
        candidates.add(marker.parent)
    return sorted(candidates)


def _fingerprint(run_dir: Path) -> tuple:
    """Change detector: (name, mtime, size) of every archive file."""
    entries = []
    for entry in sorted(run_dir.iterdir()):
        if entry.is_file():
            stat = entry.stat()
            entries.append((entry.name, stat.st_mtime_ns, stat.st_size))
    return tuple(entries)


@dataclass
class WatchState:
    """Per-directory fingerprints so unchanged archives scan once."""

    seen: dict = field(default_factory=dict)

    def changed(self, run_dir: Path) -> bool:
        fp = _fingerprint(run_dir)
        if self.seen.get(run_dir) == fp:
            return False
        self.seen[run_dir] = fp
        return True


def watch(
    root: str | Path,
    *,
    once: bool = False,
    interval: float = 5.0,
    config: WatchConfig | None = None,
    alerts_file: str | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
    max_cycles: "int | None" = None,
) -> int:
    """Tail ``root`` for trace archives and emit JSONL alerts.

    Stdout carries *only* the JSONL alert stream (one
    :class:`Alert` per line) so it pipes cleanly into collectors; the
    human summary goes to stderr.  Returns the number of alerts
    emitted over the whole watch — the CLI maps that to an exit code.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    config = config or WatchConfig()
    state = WatchState()
    log = AlertLog(alerts_file or None)
    total = 0
    cycles = 0
    while True:
        cycles += 1
        scanned = 0
        for run_dir in discover_run_dirs(root):
            if not state.changed(run_dir):
                continue
            scanned += 1
            for alert in scan_run(run_dir, config=config):
                print(alert.to_json(), file=stdout)
                log.emit(alert)
                print(alert.render(), file=stderr)
                total += 1
        print(
            f"watchdog: cycle {cycles}, {scanned} archive(s) scanned, "
            f"{total} alert(s) total",
            file=stderr,
        )
        if once or (max_cycles is not None and cycles >= max_cycles):
            break
        time.sleep(interval)
    return total
