"""CaPI selector modules: base protocol, combinators, and the registry."""

from repro.core.selectors.base import AllSelector, EvalContext, NamedRef, Selector
from repro.core.selectors.aggregation import StatementAggregation
from repro.core.selectors.callpath import CallDepth, OnCallPathFrom, OnCallPathTo
from repro.core.selectors.coarse import Coarse
from repro.core.selectors.combinators import Complement, Intersect, Join, Subtract
from repro.core.selectors.metrics import METRICS, MetricThreshold
from repro.core.selectors.registry import DEFAULT_REGISTRY, lookup
from repro.core.selectors.structural import (
    ByName,
    ByPath,
    DefinedFunctions,
    InlineSpecified,
    InSystemHeader,
    VirtualFunctions,
)

__all__ = [
    "AllSelector",
    "ByName",
    "ByPath",
    "CallDepth",
    "Coarse",
    "Complement",
    "DEFAULT_REGISTRY",
    "DefinedFunctions",
    "EvalContext",
    "InSystemHeader",
    "InlineSpecified",
    "Intersect",
    "Join",
    "METRICS",
    "MetricThreshold",
    "NamedRef",
    "OnCallPathFrom",
    "OnCallPathTo",
    "Selector",
    "StatementAggregation",
    "Subtract",
    "VirtualFunctions",
    "lookup",
]
