"""AST of a CaPI selection specification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Expr = Union["CallExpr", "RefExpr", "AllExpr", "StrLit", "NumLit"]

#: deepest chain of selector calls a spec may build, nested or through
#: ``%name`` references; compiling and evaluating recurse per level, so
#: this keeps hostile specs far below Python's recursion limit
MAX_SELECTOR_DEPTH = 64


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class NumLit:
    value: float


@dataclass(frozen=True)
class RefExpr:
    """``%name`` — reference to a previously defined instance."""

    name: str


@dataclass(frozen=True)
class AllExpr:
    """``%%`` — the pre-defined selector of all functions."""


@dataclass(frozen=True)
class CallExpr:
    """``selectorType(arg, ...)`` — an anonymous selector instance."""

    selector: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Assign:
    """``name = expr`` — a named selector instance."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class ImportDirective:
    """``!import("module.capi")``."""

    module: str


@dataclass
class SpecFile:
    """A parsed specification.

    ``statements`` preserves order; the last statement's expression is
    the pipeline entry point (paper §III-A).
    """

    imports: list[ImportDirective] = field(default_factory=list)
    statements: list[Assign | CallExpr | RefExpr | AllExpr] = field(
        default_factory=list
    )

    @property
    def entry(self) -> Expr:
        from repro.errors import SpecSemanticError

        if not self.statements:
            raise SpecSemanticError("specification defines no selectors")
        last = self.statements[-1]
        return last.expr if isinstance(last, Assign) else last
