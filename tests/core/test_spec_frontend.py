"""Tests for the CaPI DSL lexer, parser and module imports."""

import pytest

from repro.core.pipeline import compile_spec
from repro.core.spec.ast import (
    MAX_SELECTOR_DEPTH,
    AllExpr,
    Assign,
    CallExpr,
    NumLit,
    RefExpr,
    SpecFile,
    StrLit,
)
from repro.core.spec.lexer import tokenize
from repro.core.spec.modules import ModuleResolver, load_spec
from repro.core.spec.parser import parse_spec
from repro.core.spec.tokens import TokenKind
from repro.errors import (
    ImportResolutionError,
    SpecSemanticError,
    SpecSyntaxError,
)

PAPER_LISTING_1 = """
!import("mpi.capi")
excluded = join(inSystemHeader(%%),
inlineSpecified(%%))
kernels = flops(">=", 10, loopDepth(">=" 1, %%))
join(subtract(%kernels, %excluded), %mpi_comm)
"""


def nested_spec(depth):
    """``join`` calls nested ``depth`` deep in one expression."""
    return "join(" * depth + "%%" + ", %%)" * depth


def chained_spec(links):
    """``links`` named instances, each one ``join`` over the previous."""
    lines = ["a1 = join(%%, %%)"]
    lines += [f"a{i} = join(%a{i - 1}, %%)" for i in range(2, links + 1)]
    return "\n".join(lines)


#: one level past the bound, and depths that used to overflow Python's
#: recursion limit in the parser, the service or ``Capi.select``
OVER_DEEP = [
    (nested_spec, MAX_SELECTOR_DEPTH + 1),
    (nested_spec, 600),
    (nested_spec, 1200),
    (chained_spec, MAX_SELECTOR_DEPTH + 1),
    (chained_spec, 198),
    (chained_spec, 248),
]


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize('f(%x, %%, "s", 10)')]
        assert kinds == [
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.REF,
            TokenKind.COMMA,
            TokenKind.ALL,
            TokenKind.COMMA,
            TokenKind.STRING,
            TokenKind.COMMA,
            TokenKind.NUMBER,
            TokenKind.RPAREN,
            TokenKind.EOF,
        ]

    def test_comments_skipped(self):
        toks = tokenize("# comment\nx = f(%%) # trailing\n")
        assert all(t.kind is not TokenKind.STRING for t in toks)
        assert toks[0].text == "x"

    def test_string_escapes(self):
        toks = tokenize(r'"a\"b"')
        assert toks[0].text == 'a"b'

    def test_unterminated_string(self):
        with pytest.raises(SpecSyntaxError):
            tokenize('"never ends')

    def test_lone_percent_rejected(self):
        with pytest.raises(SpecSyntaxError):
            tokenize("% 5")

    def test_unknown_character(self):
        with pytest.raises(SpecSyntaxError):
            tokenize("f(&)")

    def test_line_numbers(self):
        toks = tokenize("a = f(%%)\nb = g(%%)")
        b_tok = [t for t in toks if t.text == "b"][0]
        assert b_tok.line == 2

    def test_numbers(self):
        toks = tokenize("10 3.5 -2")
        assert [t.text for t in toks[:3]] == ["10", "3.5", "-2"]


class TestParser:
    def test_paper_listing_parses(self):
        """The paper's Listing 1 must parse verbatim — including the
        missing comma in ``loopDepth(">=" 1, %%)``."""
        spec = parse_spec(PAPER_LISTING_1)
        assert spec.imports[0].module == "mpi.capi"
        assert isinstance(spec.statements[0], Assign)
        assert spec.statements[0].name == "excluded"
        entry = spec.entry
        assert isinstance(entry, CallExpr)
        assert entry.selector == "join"

    def test_nested_calls(self):
        spec = parse_spec("subtract(join(f(%%), g(%%)), h(%%))")
        entry = spec.entry
        assert isinstance(entry.args[0], CallExpr)
        assert entry.args[0].selector == "join"

    def test_entry_is_last_statement(self):
        spec = parse_spec("a = f(%%)\nb = g(%%)")
        assert isinstance(spec.entry, CallExpr)
        assert spec.entry.selector == "g"

    def test_ref_and_all(self):
        spec = parse_spec("x = join(%%, %%)\njoin(%x, %x)")
        assert isinstance(spec.entry.args[0], RefExpr)

    def test_arguments_optional_commas(self):
        a = parse_spec('flops(">=", 10, %%)').entry
        b = parse_spec('flops(">=" 10 %%)').entry
        assert a == b

    def test_literal_argument_types(self):
        spec = parse_spec('byName("MPI_.*", %%)')
        assert isinstance(spec.entry.args[0], StrLit)
        spec = parse_spec('statements("<", 3, %%)')
        assert isinstance(spec.entry.args[1], NumLit)
        assert isinstance(spec.entry.args[2], AllExpr)

    def test_missing_paren_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("f(%%")

    def test_top_level_literal_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec('"just a string"')

    def test_unknown_directive_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec('!include("x.capi")')

    def test_empty_spec_has_no_entry(self):
        from repro.errors import SpecSemanticError

        with pytest.raises(SpecSemanticError):
            parse_spec("").entry


class TestDepthBound:
    """Over-deep specs are typed errors, not a RecursionError."""

    def test_nesting_past_the_bound_names_the_call(self):
        with pytest.raises(SpecSyntaxError, match="nested deeper") as err:
            parse_spec(nested_spec(MAX_SELECTOR_DEPTH + 1))
        # the innermost call crosses the bound: five characters per level
        assert (err.value.line, err.value.column) == (
            1, 5 * MAX_SELECTOR_DEPTH + 1
        )

    @pytest.mark.parametrize("make_spec, depth", OVER_DEEP)
    def test_over_deep_spec_is_a_typed_error(self, make_spec, depth):
        with pytest.raises((SpecSyntaxError, SpecSemanticError)):
            compile_spec(make_spec(depth))

    def test_chain_past_the_bound_names_the_selector(self):
        link = MAX_SELECTOR_DEPTH + 1
        with pytest.raises(SpecSemanticError, match=f"'a{link}'"):
            compile_spec(chained_spec(link))

    def test_nesting_and_chaining_add_up(self):
        half = MAX_SELECTOR_DEPTH // 2
        spec = chained_spec(half) + "\n" + nested_spec(half + 1).replace(
            "%%", f"%a{half}", 1
        )
        with pytest.raises(SpecSemanticError, match="'join'"):
            compile_spec(spec)

    def test_hand_built_spec_past_the_recursion_limit(self):
        """A spec built without the parser may nest deeper than the
        interpreter can recurse; the builder refuses it on the way down."""
        expr = AllExpr()
        for _ in range(5000):
            expr = CallExpr("join", (expr, AllExpr()))
        spec = SpecFile(statements=[Assign("deep", expr)])
        with pytest.raises(SpecSemanticError, match="'deep'"):
            compile_spec(spec)


class TestImports:
    def test_bundled_mpi_module_resolves(self):
        spec = load_spec('!import("mpi.capi")\njoin(%mpi_comm, %mpi_ops)')
        names = [s.name for s in spec.statements if isinstance(s, Assign)]
        assert "mpi_comm" in names
        assert "mpi_ops" in names

    def test_unknown_import_rejected(self):
        with pytest.raises(ImportResolutionError):
            load_spec('!import("nope.capi")\nf(%%)')

    def test_user_search_path_wins(self, tmp_path):
        (tmp_path / "custom.capi").write_text("mine = inSystemHeader(%%)\n")
        spec = load_spec(
            '!import("custom.capi")\njoin(%mine, %mine)',
            search_paths=[tmp_path],
        )
        assert any(
            isinstance(s, Assign) and s.name == "mine" for s in spec.statements
        )

    def test_nested_imports(self, tmp_path):
        (tmp_path / "a.capi").write_text('!import("b.capi")\nfrom_a = join(%from_b, %from_b)\n')
        (tmp_path / "b.capi").write_text("from_b = inSystemHeader(%%)\n")
        spec = load_spec('!import("a.capi")\njoin(%from_a, %from_b)', search_paths=[tmp_path])
        names = [s.name for s in spec.statements if isinstance(s, Assign)]
        assert names.index("from_b") < names.index("from_a")

    def test_circular_import_rejected(self, tmp_path):
        (tmp_path / "a.capi").write_text('!import("b.capi")\nx = inSystemHeader(%%)\n')
        (tmp_path / "b.capi").write_text('!import("a.capi")\ny = inSystemHeader(%%)\n')
        with pytest.raises(ImportResolutionError, match="circular"):
            load_spec('!import("a.capi")\njoin(%x, %y)', search_paths=[tmp_path])

    def test_imported_anonymous_statements_dropped(self, tmp_path):
        (tmp_path / "m.capi").write_text("named = inSystemHeader(%%)\njoin(%named, %named)\n")
        resolver = ModuleResolver(search_paths=[tmp_path])
        spec = resolver.flatten(parse_spec('!import("m.capi")\n%named'))
        # only the import's Assign plus our entry remain
        assert isinstance(spec.statements[0], Assign)
        assert isinstance(spec.statements[-1], RefExpr)
