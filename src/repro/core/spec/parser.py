"""Recursive-descent parser for the CaPI selection DSL.

Grammar (commas between call arguments are optional — the paper's own
Listing 1 writes ``loopDepth(">=" 1, %%)``)::

    spec      := (import | statement)*
    import    := '!' 'import' '(' STRING ')'
    statement := IDENT '=' expr | expr
    expr      := IDENT '(' args? ')' | '%' IDENT | '%%' | STRING | NUMBER
    args      := expr ((',')? expr)*
"""

from __future__ import annotations

from repro.core.spec.ast import (
    MAX_SELECTOR_DEPTH,
    AllExpr,
    Assign,
    CallExpr,
    Expr,
    ImportDirective,
    NumLit,
    RefExpr,
    SpecFile,
    StrLit,
)
from repro.core.spec.lexer import tokenize
from repro.core.spec.tokens import Token, TokenKind
from repro.errors import SpecSyntaxError


class Parser:
    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._pos = 0

    # -- helpers -----------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise SpecSyntaxError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.line, tok.column
            )
        return self._advance()

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> SpecFile:
        spec = SpecFile()
        while self._peek().kind is not TokenKind.EOF:
            if self._peek().kind is TokenKind.BANG:
                spec.imports.append(self._import_directive())
            else:
                spec.statements.append(self._statement())
        return spec

    def _import_directive(self) -> ImportDirective:
        self._expect(TokenKind.BANG)
        keyword = self._expect(TokenKind.IDENT)
        if keyword.text != "import":
            raise SpecSyntaxError(
                f"unknown directive !{keyword.text}", keyword.line, keyword.column
            )
        self._expect(TokenKind.LPAREN)
        module = self._expect(TokenKind.STRING)
        self._expect(TokenKind.RPAREN)
        return ImportDirective(module.text)

    def _statement(self):
        if (
            self._peek().kind is TokenKind.IDENT
            and self._tokens[self._pos + 1].kind is TokenKind.EQUALS
        ):
            name = self._advance().text
            self._expect(TokenKind.EQUALS)
            return Assign(name, self._expr())
        expr = self._expr()
        if not isinstance(expr, (CallExpr, RefExpr, AllExpr)):
            tok = self._peek()
            raise SpecSyntaxError(
                "top-level statement must be a selector expression",
                tok.line,
                tok.column,
            )
        return expr

    def _expr(self, depth: int = 1) -> Expr:
        """Parse one expression; a call here is the ``depth``-th nested one."""
        tok = self._peek()
        if tok.kind is TokenKind.IDENT:
            if depth > MAX_SELECTOR_DEPTH:
                raise SpecSyntaxError(
                    f"selector call {tok.text!r} nested deeper than "
                    f"{MAX_SELECTOR_DEPTH} levels",
                    tok.line,
                    tok.column,
                )
            self._advance()
            self._expect(TokenKind.LPAREN)
            args: list[Expr] = []
            while self._peek().kind is not TokenKind.RPAREN:
                if self._peek().kind is TokenKind.EOF:
                    raise SpecSyntaxError(
                        f"unterminated argument list of {tok.text!r}",
                        tok.line,
                        tok.column,
                    )
                args.append(self._expr(depth + 1))
                if self._peek().kind is TokenKind.COMMA:
                    self._advance()
            self._expect(TokenKind.RPAREN)
            return CallExpr(tok.text, tuple(args))
        if tok.kind is TokenKind.REF:
            self._advance()
            return RefExpr(tok.text)
        if tok.kind is TokenKind.ALL:
            self._advance()
            return AllExpr()
        if tok.kind is TokenKind.STRING:
            self._advance()
            return StrLit(tok.text)
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            return NumLit(float(tok.text))
        raise SpecSyntaxError(
            f"unexpected token {tok.text!r} in expression", tok.line, tok.column
        )


def parse_spec(text: str) -> SpecFile:
    """Parse a ``.capi`` specification source string."""
    return Parser(text).parse()
