"""Structured alert records shared by health rendering and the watchdog.

One record type for every alerting surface: the supervision health
alerts (``render_health_alerts``), the trace watchdog, the selection
service's supervisor and the bench regression rules.  One
:class:`AlertLog` writes the JSONL stream for the service and the
watchdog alike.  Text rendering is a *view* over the record
(``Alert.render()``), and the JSONL serialisation is schema-stable so
CI and downstream collectors can assert on ``code`` instead of
grepping message text.

JSONL schema (one object per line; absent optionals serialise as
``null`` so every line has every key):

    {"code": str,        stable alert identifier, kebab-case
     "severity": str,    "info" | "warning" | "critical"
     "rank": int|null,   offending rank, when rank-scoped
     "region": str|null, offending source region, when region-scoped
     "measured": float|null,   the observed value, for threshold rules
     "threshold": float|null,  the limit it was compared against
     "source": str|null, originating run/trace directory
     "detail": str}      human-readable specifics
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import asdict, dataclass

SEVERITIES = ("info", "warning", "critical")
#: alerts an :class:`AlertLog` keeps in memory (its JSONL file gets all)
ALERT_LOG_MAX = 256


@dataclass(frozen=True)
class Alert:
    """One structured alert (the unit both alerting paths emit)."""

    code: str
    severity: str
    detail: str
    rank: int | None = None
    region: str | None = None
    measured: float | None = None
    threshold: float | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def render(self) -> str:
        """The human-readable ``ALERT ...`` line (legacy view).

        The field order reproduces the pre-structured health-alert
        strings byte-for-byte: code, then rank, then the detail tail;
        region and measured/threshold appear only for watchdog rules
        that set them.
        """
        parts = [f"ALERT {self.code}"]
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        if self.region is not None:
            parts.append(f"region={self.region}")
        if self.measured is not None and self.threshold is not None:
            parts.append(
                f"measured={self.measured:.6g} threshold={self.threshold:.6g}"
            )
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)

    def to_json(self) -> str:
        """One JSONL line, every schema key present."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Alert":
        data = json.loads(line)
        return cls(
            code=data["code"],
            severity=data["severity"],
            detail=data["detail"],
            rank=data.get("rank"),
            region=data.get("region"),
            measured=data.get("measured"),
            threshold=data.get("threshold"),
            source=data.get("source"),
        )


class AlertLog:
    """Bounded in-memory alert log, mirrored to an optional JSONL file.

    The file is created with the log and gets every alert as one
    :meth:`Alert.to_json` line; memory keeps the last
    :data:`ALERT_LOG_MAX`.  Thread-safe.
    """

    def __init__(self, path: "str | None" = None) -> None:
        self._lock = threading.Lock()
        self._alerts: deque[Alert] = deque(maxlen=ALERT_LOG_MAX)
        self._path = path
        if path is not None:
            open(path, "a", encoding="utf-8").close()

    def emit(self, alert: Alert) -> None:
        with self._lock:
            self._alerts.append(alert)
            if self._path is not None:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(alert.to_json() + "\n")

    def alerts(self) -> list[Alert]:
        """The in-memory log, oldest first."""
        with self._lock:
            return list(self._alerts)


def health_alerts(health) -> list[Alert]:
    """Structured alerts for a run's supervision records.

    One alert per retried rank (recovered, but only after failures —
    warning), per lost rank (retries exhausted — critical), and one
    for degraded POP coverage (critical).  Empty list means the run
    was perfectly healthy; ``render_health_alerts`` in
    :mod:`repro.experiments.anomalies` is the text view over this.
    """
    if health is None:
        return []
    alerts: list[Alert] = []
    by_rank = {h.rank: h for h in health.per_rank or ()}
    for rank in health.retried_ranks:
        h = by_rank[rank]
        last_failure = h.failures[-1] if h.failures else None
        alerts.append(
            Alert(
                code="retried",
                severity="warning",
                rank=rank,
                detail=f"attempts={h.attempts} last_failure={last_failure!r}",
            )
        )
    for rank in health.lost_ranks:
        h = by_rank.get(rank)
        detail = (
            f"attempts={h.attempts} last_failure={h.failures[-1]!r}"
            if h is not None and h.failures
            else "no supervision record"
        )
        alerts.append(
            Alert(code="lost", severity="critical", rank=rank, detail=detail)
        )
    if health.degraded:
        alerts.append(
            Alert(
                code="degraded",
                severity="critical",
                measured=health.coverage,
                threshold=1.0,
                detail=(
                    f"coverage={health.coverage:.1%} "
                    f"missing_ranks={list(health.missing_ranks)}"
                ),
            )
        )
    return alerts
