"""Tokenizer for the C subset used by the Polybench sources.

The lexer understands the pieces of C that matter to SOCRATES:
identifiers, integer/float/string/char literals, all the operators that
appear in expression-level C, preprocessor lines (``#include``,
``#define``, ``#pragma``) which are kept as single directive tokens,
and both comment styles (stripped).

The scanner jumps ahead by slices: whitespace, comments, identifier
bodies and literals are consumed by compiled regexes or ``str.find``,
and line/column come from newline counts.  Only the first character of
a token is classified one at a time, by the ``str`` predicates the
grammar is defined with (``isalpha``, ``isdigit``).  ``\\w`` matches
exactly ``isalnum() or "_"`` over every code point, so identifier
bodies can use it; ``\\d`` is *not* ``isdigit`` (128 code points, such
as superscript digits, differ), so numbers are scanned with
``isdigit``.
"""

from __future__ import annotations

import enum
import re
from typing import Dict, List, NamedTuple, Tuple

KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
    }
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

#: The operators by first character, longest first (maximal munch).
_OPERATORS_BY_FIRST: Dict[str, Tuple[str, ...]] = {}
for _op in _OPERATORS:
    _OPERATORS_BY_FIRST[_op[0]] = _OPERATORS_BY_FIRST.get(_op[0], ()) + (_op,)
del _op

#: Whitespace, line comments and closed block comments, in any mix.
_SKIP = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*", re.DOTALL)
_WORD = re.compile(r"\w+")
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_CHAR = re.compile(r"'[^'\\]*(?:\\.[^'\\]*)*'", re.DOTALL)
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
_SUFFIX = re.compile(r"[uUlLfF]*")


class TokenKind(enum.Enum):
    """Lexical category of a :class:`Token`."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    CHAR = "char"
    OP = "op"
    DIRECTIVE = "directive"
    EOF = "eof"


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_op(self, *texts: str) -> bool:
        """Return True when this token is an operator with one of ``texts``."""
        return self.kind is TokenKind.OP and self.text in texts

    def is_keyword(self, *texts: str) -> bool:
        """Return True when this token is a keyword with one of ``texts``."""
        return self.kind is TokenKind.KEYWORD and self.text in texts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"


class LexError(ValueError):
    """Raised when the lexer meets a character it cannot tokenize."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class Lexer:
    """Convert C source text into a token stream.

    Preprocessor lines are not expanded; each one becomes a single
    :attr:`TokenKind.DIRECTIVE` token whose text is the whole logical
    line (with ``\\``-continuations joined).  This is exactly what the
    parser needs: ``#pragma`` lines become AST nodes, ``#include`` and
    ``#define`` are preserved verbatim.
    """

    def __init__(self, source: str) -> None:
        self._src = source

    def tokens(self) -> List[Token]:
        """Tokenize the whole input and return the token list (EOF last)."""
        src = self._src
        size = len(src)
        skip = _SKIP.match
        word = _WORD.match
        out: List[Token] = []
        append = out.append
        pos = 0
        line = 1
        line_start = 0  # index of the first character of ``line``
        while True:
            if pos < size and src[pos] in " \t\r\n/":
                end = skip(src, pos).end()
                newlines = src.count("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = src.rindex("\n", pos, end) + 1
                pos = end
            if pos >= size:
                append(Token(TokenKind.EOF, "", line, pos - line_start + 1))
                return out
            col = pos - line_start + 1
            char = src[pos]

            if char == "/" and src.startswith("/*", pos):
                # _SKIP consumes every closed comment, so this one runs
                # to the end of the input, where the error is reported
                newlines = src.count("\n", pos)
                if newlines:
                    line += newlines
                    line_start = src.rindex("\n", pos) + 1
                raise LexError("unterminated block comment", line, size - line_start + 1)
            if char == "#" and not src[line_start:pos].strip(" \t"):
                end = _directive_end(src, pos)
                raw = src[pos:end]
                append(Token(TokenKind.DIRECTIVE, raw.replace("\\\n", " ").strip(), line, col))
            elif char.isalpha() or char == "_":
                end = word(src, pos).end()
                text = src[pos:end]
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                append(Token(kind, text, line, col))
                pos = end
                continue
            elif char.isdigit() or (char == "." and src[pos + 1 : pos + 2].isdigit()):
                end, is_float = _scan_number(src, pos)
                kind = TokenKind.FLOAT if is_float else TokenKind.INT
                append(Token(kind, src[pos:end], line, col))
                pos = end
                continue
            elif char == '"' or char == "'":
                match = (_STRING if char == '"' else _CHAR).match(src, pos)
                if match is None:
                    what = "string" if char == '"' else "character"
                    raise LexError(f"unterminated {what} literal", line, col)
                end = match.end()
                kind = TokenKind.STRING if char == '"' else TokenKind.CHAR
                append(Token(kind, match.group(), line, col))
            else:
                for op in _OPERATORS_BY_FIRST.get(char, ()):
                    if src.startswith(op, pos):
                        append(Token(TokenKind.OP, op, line, col))
                        pos += len(op)
                        break
                else:
                    raise LexError(f"unexpected character {char!r}", line, col)
                continue
            # directives and literals may span lines
            newlines = src.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = src.rindex("\n", pos, end) + 1
            pos = end


def _directive_end(src: str, pos: int) -> int:
    """End of the directive starting at ``pos``: the first newline not
    escaped by a backslash right before it, or the end of the input."""
    end = src.find("\n", pos)
    while end != -1 and src[end - 1] == "\\":
        end = src.find("\n", end + 1)
    return len(src) if end == -1 else end


def _scan_number(src: str, pos: int) -> Tuple[int, bool]:
    """(end, is_float) of the numeric literal starting at ``pos``."""
    size = len(src)
    is_float = False
    end = pos
    if src[pos] == "0" and src[pos + 1 : pos + 2] in ("x", "X"):
        end = _HEX_DIGITS.match(src, pos + 2).end()
    else:
        while end < size and src[end].isdigit():
            end += 1
        if src[end : end + 1] == ".":
            is_float = True
            end += 1
            while end < size and src[end].isdigit():
                end += 1
        if src[end : end + 1] in ("e", "E") and (
            src[end + 1 : end + 2].isdigit()
            or (src[end + 1 : end + 2] in ("+", "-") and src[end + 2 : end + 3].isdigit())
        ):
            is_float = True
            end += 1
            if src[end] in "+-":
                end += 1
            while end < size and src[end].isdigit():
                end += 1
    # integer / float suffixes
    suffix = _SUFFIX.match(src, end)
    if "f" in suffix.group() or "F" in suffix.group():
        is_float = True
    return suffix.end(), is_float


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source).tokens()
