"""Score-P substrate: call-path profiling, filters, scoring, resolution."""

from repro.scorep.filter import FilterRule, ScorePFilter
from repro.scorep.measurement import ScorePMeasurement
from repro.scorep.regions import CallTreeNode, FlatRegion, flatten
from repro.scorep.resolution import AddressResolver
from repro.scorep.score_tool import ScoreEntry, score_profile, suggest_filter
from repro.scorep.tracing import ScorePTracer, TraceEvent, TraceEventKind

__all__ = [
    "ScorePTracer",
    "TraceEvent",
    "TraceEventKind",
    "AddressResolver",
    "CallTreeNode",
    "FilterRule",
    "FlatRegion",
    "ScoreEntry",
    "ScorePFilter",
    "ScorePMeasurement",
    "flatten",
    "score_profile",
    "suggest_filter",
]
