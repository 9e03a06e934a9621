"""Fuzzing the frontend: arbitrary input must fail *predictably*.

The lexer/parser are the entry point for user-supplied sources (CLI
``weave``/``build``), so malformed input must raise ``LexError`` or
``ParseError`` — never an arbitrary internal exception or a hang.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cir import ParseError, parse, to_source
from repro.cir.lexer import LexError, tokenize

_PRINTABLE = string.ascii_letters + string.digits + string.punctuation + " \t\n"

#: Structurally plausible token sequences.
TOKEN_SOUP = st.lists(st.sampled_from([
    "int", "double", "void", "x", "y", "f", "(", ")", "{", "}", ";",
    "=", "+", "*", "[", "]", "1", "2.5", "for", "if", "return", ",",
]), max_size=40)

#: Valid function bodies built from whole statements.
COMPOSED_STATEMENTS = st.lists(
    st.sampled_from(
        [
            "x = x + 1;",
            "if (x > 0) { y = x; } else y = -x;",
            "for (i = 0; i < 10; i++) s += i;",
            "while (x < 100) x = x * 2;",
            "do x--; while (x > 0);",
            "{ int t = 3; x = t; }",
            "return;",
        ]
    ),
    min_size=1,
    max_size=8,
)

#: Fully parenthesized constant integer expressions.
CONST_EXPRESSIONS = st.recursive(
    st.integers(min_value=0, max_value=50).map(str),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, st.sampled_from(["/", "%"]), st.integers(min_value=1, max_value=9).map(str)).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        sub.map(lambda e: f"(-{e})"),
    ),
    max_leaves=12,
)

#: Statements of a terminating ``int run(int x)`` body.
INTERPRETER_STATEMENTS = st.lists(
    st.sampled_from(
        [
            "x = x * 3 + 1;",
            "if (x % 2 == 0) x = x / 2;",
            "for (i = 0; i < 5; i++) x += i;",
            "x = x > 100 ? x - 100 : x;",
        ]
    ),
    min_size=1,
    max_size=6,
)


class TestLexerFuzz:
    @given(st.text(alphabet=_PRINTABLE, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_lexer_never_crashes_unexpectedly(self, text):
        try:
            tokens = tokenize(text)
        except LexError:
            return
        assert tokens[-1].kind.name == "EOF"

    @given(st.text(alphabet=_PRINTABLE, max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, text):
        try:
            parse(text)
        except (LexError, ParseError):
            pass

    @given(TOKEN_SOUP)
    @settings(max_examples=200, deadline=None)
    def test_token_soup(self, tokens):
        """Structurally plausible token sequences parse or ParseError."""
        try:
            parse(" ".join(tokens))
        except ParseError:
            pass


class TestRoundTripFuzzOnValidPrograms:
    @given(COMPOSED_STATEMENTS)
    @settings(max_examples=100, deadline=None)
    def test_composed_programs_round_trip(self, statements):
        body = "\n".join(statements)
        source = f"void f(int x, int y, int i, int s) {{ {body} }}"
        printed = to_source(parse(source))
        assert to_source(parse(printed)) == printed


class TestConstFoldInterpreterAgreement:
    """eval_const (the static analyzer) and the interpreter must agree
    on every constant integer expression both can handle."""

    @given(CONST_EXPRESSIONS)
    @settings(max_examples=150, deadline=None)
    def test_agreement(self, text):
        from repro.cir import eval_const
        from repro.cir.interp import Interpreter

        unit = parse(f"int run(void) {{ return {text}; }}")
        expr = unit.function("run").body.stmts[0].value
        folded = eval_const(expr)
        if folded is None:
            return  # outside eval_const's domain (e.g. negative divisor)
        interpreted = Interpreter(unit).call("run")
        # both implement C truncating division/modulo, so they agree on
        # every expression eval_const can fold
        assert folded == interpreted


class TestInterpreterDeterminism:
    @given(INTERPRETER_STATEMENTS, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=80, deadline=None)
    def test_same_program_same_result(self, statements, seed):
        from repro.cir.interp import Interpreter

        body = "\n".join(statements)
        source = f"int run(int x) {{ int i; {body} return x; }}"
        unit = parse(source)
        first = Interpreter(unit).call("run", seed)
        second = Interpreter(unit).call("run", seed)
        assert first == second
