"""Selector registry: DSL name → construction from parsed arguments.

Each factory validates arity and argument types, producing readable
:class:`~repro.errors.SpecSemanticError` diagnostics for bad specs.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from repro.core.selectors.aggregation import StatementAggregation
from repro.core.selectors.base import Selector
from repro.core.selectors.callpath import CallDepth, OnCallPathFrom, OnCallPathTo
from repro.core.selectors.coarse import Coarse
from repro.core.selectors.combinators import Complement, Intersect, Join, Subtract
from repro.core.selectors.metrics import MetricThreshold
from repro.core.selectors.structural import (
    ByName,
    ByPath,
    DefinedFunctions,
    InlineSpecified,
    InSystemHeader,
    VirtualFunctions,
)
from repro.errors import SpecSemanticError

#: an argument after AST evaluation: a child selector, string or number
Arg = Union[Selector, str, float]
Factory = Callable[..., Selector]


def _need(args: Sequence[Arg], name: str, *kinds: type) -> None:
    if len(args) != len(kinds):
        raise SpecSemanticError(
            f"{name} expects {len(kinds)} arguments, got {len(args)}"
        )
    for i, (arg, kind) in enumerate(zip(args, kinds)):
        if not isinstance(arg, kind):
            raise SpecSemanticError(
                f"{name}: argument {i + 1} must be {kind.__name__}, "
                f"got {type(arg).__name__}"
            )


def _selectors_only(args: Sequence[Arg], name: str, *, minimum: int = 1) -> list[Selector]:
    if len(args) < minimum:
        raise SpecSemanticError(f"{name} expects at least {minimum} arguments")
    for i, arg in enumerate(args):
        if not isinstance(arg, Selector):
            raise SpecSemanticError(
                f"{name}: argument {i + 1} must be a selector"
            )
    return list(args)  # type: ignore[return-value]


def _metric_factory(metric: str) -> Factory:
    def make(*args: Arg) -> Selector:
        _need(args, metric, str, float, Selector)
        return MetricThreshold(metric, args[0], args[1], args[2])  # type: ignore[arg-type]

    return make


def _make_join(*args: Arg) -> Selector:
    return Join(*_selectors_only(args, "join", minimum=2))


def _make_subtract(*args: Arg) -> Selector:
    sels = _selectors_only(args, "subtract", minimum=2)
    return Subtract(sels[0], *sels[1:])


def _make_intersect(*args: Arg) -> Selector:
    return Intersect(*_selectors_only(args, "intersect", minimum=2))


def _make_complement(*args: Arg) -> Selector:
    _need(args, "complement", Selector)
    return Complement(args[0])  # type: ignore[arg-type]


def _unary(name: str, cls: type) -> Factory:
    def make(*args: Arg) -> Selector:
        _need(args, name, Selector)
        return cls(args[0])

    return make


def _make_by_name(*args: Arg) -> Selector:
    _need(args, "byName", str, Selector)
    return ByName(args[0], args[1])  # type: ignore[arg-type]


def _make_by_path(*args: Arg) -> Selector:
    _need(args, "byPath", str, Selector)
    return ByPath(args[0], args[1])  # type: ignore[arg-type]


def _make_call_path(*args: Arg) -> Selector:
    # functions on some path from a source to a target: the sources'
    # forward cone meets the targets' backward cone (``mpi.capi``'s
    # ``mpi_comm``, the paper's Listing 1)
    _need(args, "callPath", Selector, Selector)
    sources, targets = args
    return Intersect(
        OnCallPathFrom(sources), OnCallPathTo(targets)  # type: ignore[arg-type]
    )


def _make_call_depth(*args: Arg) -> Selector:
    _need(args, "callDepth", str, float, Selector)
    return CallDepth(args[0], args[1], args[2])  # type: ignore[arg-type]


def _make_coarse(*args: Arg) -> Selector:
    if len(args) == 1:
        _need(args, "coarse", Selector)
        return Coarse(args[0])  # type: ignore[arg-type]
    _need(args, "coarse", Selector, Selector)
    return Coarse(args[0], args[1])  # type: ignore[arg-type]


def _make_statement_aggregation(*args: Arg) -> Selector:
    _need(args, "statementAggregation", float, Selector)
    return StatementAggregation(args[0], args[1])  # type: ignore[arg-type]


DEFAULT_REGISTRY: dict[str, Factory] = {
    "join": _make_join,
    "subtract": _make_subtract,
    "intersect": _make_intersect,
    "complement": _make_complement,
    "inSystemHeader": _unary("inSystemHeader", InSystemHeader),
    "inlineSpecified": _unary("inlineSpecified", InlineSpecified),
    "virtual": _unary("virtual", VirtualFunctions),
    "defined": _unary("defined", DefinedFunctions),
    "byName": _make_by_name,
    "byPath": _make_by_path,
    "onCallPathTo": _unary("onCallPathTo", OnCallPathTo),
    "onCallPathFrom": _unary("onCallPathFrom", OnCallPathFrom),
    "callPath": _make_call_path,
    "callDepth": _make_call_depth,
    "coarse": _make_coarse,
    "statementAggregation": _make_statement_aggregation,
    "flops": _metric_factory("flops"),
    "loopDepth": _metric_factory("loopDepth"),
    "statements": _metric_factory("statements"),
    "callSites": _metric_factory("callSites"),
    "callers": _metric_factory("callers"),
}


def lookup(name: str, registry: dict[str, Factory] | None = None) -> Factory:
    reg = registry or DEFAULT_REGISTRY
    try:
        return reg[name]
    except KeyError:
        raise SpecSemanticError(
            f"unknown selector type {name!r}; available: {sorted(reg)}"
        ) from None
