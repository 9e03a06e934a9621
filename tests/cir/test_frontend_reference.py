"""The front end matches the reference lexer and parser exactly.

``reference_frontend`` keeps the per-character lexer and the recursive
binary-expression parser.  On every input both must give the same
tokens ``(kind, text, line, col)``, the same ``LexError`` /
``ParseError`` type and message, and equal ASTs.  An input on which
the reference runs out of stack is left out of the comparison only.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cir import parse, to_source
from repro.cir.lexer import LexError, tokenize
from repro.cir.parser import ParseError
from repro.polybench.suite import BENCHMARK_NAMES, load
from tests.cir.reference_frontend import reference_parse, reference_tokenize
from tests.test_fuzz import (
    COMPOSED_STATEMENTS,
    CONST_EXPRESSIONS,
    INTERPRETER_STATEMENTS,
    TOKEN_SOUP,
)


def _token_tuples(tokens):
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


def _run(function, source):
    """``("ok", result)``, ``("error", type, message)`` or ``None`` on
    ``RecursionError``."""
    try:
        return ("ok", function(source))
    except (LexError, ParseError) as exc:
        return ("error", type(exc), str(exc))
    except RecursionError:
        return None


def assert_same_front_end(source):
    expected = _run(lambda s: _token_tuples(reference_tokenize(s)), source)
    assert _run(lambda s: _token_tuples(tokenize(s)), source) == expected

    expected = _run(reference_parse, source)
    actual = _run(parse, source)
    if expected is None:
        return
    assert actual is not None
    assert actual[0] == expected[0]
    if expected[0] == "error":
        assert actual == expected
    else:
        assert actual[1] == expected[1]
        assert repr(actual[1]) == repr(expected[1])


#: Pieces that reach every scanner branch: comments (with the column
#: after them), directives at and away from a line start, continuation
#: lines, number forms, literals, every operator, and non-ASCII letters
#: and digits (``²`` and ``٣`` are ``isdigit``; ``é`` and ``ª`` are
#: ``isalpha``).
_FRAGMENTS = [
    " ", "  ", "\t", "\n", "\r\n", "\\\n", "/*", "*/", "/* c */", "/* a\nb */",
    "//", "// c\n", "#", "#pragma omp parallel for\n", "#define N 4\n",
    "#include <stdio.h>\n", "  #if X\n", "x", "_y1", "for", "int", "double",
    "0", "7", "12", "0x1F", "0X", "1.5", ".5", "5.", "1e3", "2E-4", "3e+",
    "1.0f", "10UL", "'a'", "'\\''", "'", '"s"', '"a\\"b"', '"', "é", "ª",
    "²", "٣", "µ", "$", "@", "`",
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", "?",
    ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

C_FRAGMENTS = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)

#: Unparenthesized operator chains: associativity and precedence of
#: every binary level, with unary, cast, ternary, assignment and comma.
_OPERANDS = st.sampled_from(["a", "b", "1", "2.5", "c[i]", "f(x, 2)", "-d", "(double)n", "sizeof(int)"])
_BINARY_OPS = st.sampled_from(
    ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=", "<<", ">>",
     "+", "-", "*", "/", "%", "=", "+=", "?", ":", ","]
)
EXPRESSION_CHAINS = st.tuples(
    _OPERANDS, st.lists(st.tuples(_BINARY_OPS, _OPERANDS), max_size=10)
).map(lambda t: t[0] + "".join(f" {op} {operand}" for op, operand in t[1]))


class TestMatchesReference:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        assert_same_front_end(text)

    @given(C_FRAGMENTS)
    @settings(max_examples=500, deadline=None)
    def test_c_fragments(self, text):
        assert_same_front_end(text)
        assert_same_front_end(f"void f(void) {{ {text} }}")

    @given(TOKEN_SOUP)
    @settings(max_examples=200, deadline=None)
    def test_token_soup(self, tokens):
        assert_same_front_end(" ".join(tokens))

    @given(EXPRESSION_CHAINS)
    @settings(max_examples=300, deadline=None)
    def test_expression_chains(self, expr):
        assert_same_front_end(f"int f(void) {{ return {expr}; }}")
        assert_same_front_end(f"void g(void) {{ x = {expr}; }}")

    @given(COMPOSED_STATEMENTS)
    @settings(max_examples=100, deadline=None)
    def test_composed_programs(self, statements):
        body = "\n".join(statements)
        assert_same_front_end(f"void f(int x, int y, int i, int s) {{ {body} }}")

    @given(CONST_EXPRESSIONS)
    @settings(max_examples=150, deadline=None)
    def test_const_expressions(self, text):
        assert_same_front_end(f"int run(void) {{ return {text}; }}")

    @given(INTERPRETER_STATEMENTS)
    @settings(max_examples=80, deadline=None)
    def test_interpreter_programs(self, statements):
        body = "\n".join(statements)
        assert_same_front_end(f"int run(int x) {{ int i; {body} return x; }}")

    def test_left_associative_subtraction(self):
        (stmt,) = parse("int f(void) { return a - b - c; }").function("f").body.stmts
        assert stmt.value.lhs.op == "-" and stmt.value.rhs.name == "c"
        assert_same_front_end("int f(void) { return a - b - c; }")

    def test_columns_after_a_block_comment(self):
        tokens = tokenize("a /* x */ b\n/* y\nz */ c")
        assert [(t.text, t.line, t.col) for t in tokens[:3]] == [
            ("a", 1, 1), ("b", 1, 11), ("c", 3, 6),
        ]

    def test_hash_mid_line_is_an_error(self):
        with pytest.raises(LexError, match="unexpected character '#' at line 1, column 3"):
            tokenize("x # y")
        assert_same_front_end("x # y")


class TestSuiteMatchesReference:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_app(self, name):
        app = load(name)
        assert _token_tuples(tokenize(app.source)) == _token_tuples(
            reference_tokenize(app.source)
        )
        unit = parse(app.source, name=f"{name}.c")
        expected = reference_parse(app.source, name=f"{name}.c")
        assert unit == expected
        assert to_source(unit) == to_source(expected)
