"""Tokenizer for miniK source text.

Statements are newline-terminated, so NEWLINE is a real token. A newline is
suppressed when the previous token cannot end a statement (after `=`, `,`,
`(`, `[`, `<`, `:`, `.`, `{` or a keyword like `as`), which lets declarations
wrap across lines the way the source figures do.

One compiled master regex matches each token together with the blanks and
comment before it; text it cannot match goes to `_lex_error`, which names
the fault and its location.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .ast import SourceLoc

KEYWORDS = {
    "open",
    "class",
    "interface",
    "private",
    "constructor",
    "fun",
    "val",
    "var",
    "if",
    "else",
    "return",
    "as",
    "is",
    "out",
    "in",
}

PUNCT = ("(", ")", "{", "}", "[", "]", "<", ">", ",", ":", ".", "=", "?")

# A NEWLINE right after one of these (a string literal aside) continues the
# current construct.
_CONTINUATION_AFTER = {"=", ",", "(", "[", "<", ":", ".", "as", "is", "else"}

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Blanks, then a comment running to the end of the line.
_BLANKS = r"[ \t\r]*(?://[^\n]*)?"
# One group per token class, numbered as `tokenize` tests them. `\w` is
# exactly `str.isalnum()` or `_`, and `\d` exactly `str.isdecimal()`; a name
# must also start with a letter or `_`, which `tokenize` checks past ASCII.
_NAME, _PUNCT, _NEWLINE, _INT, _STRING, _ANNOTATION = range(1, 7)
_TOKEN = re.compile(_BLANKS + "(?:" + "|".join((
    r"([^\W\d]\w*)",
    "([" + re.escape("".join(PUNCT)) + "])",
    r"(\n(?:" + _BLANKS + r"\n)*)",  # with the blank and comment lines after it
    r"(\d+)",
    r'("(?:[^"\\\n]|\\[' + re.escape("".join(_ESCAPES)) + '])*")',
    "(@UnsafeVariance)",
    r"(\Z)",
)) + ")")
_SKIP = re.compile(_BLANKS)
_ESCAPE = re.compile(r"\\(.)")


class LexError(Exception):
    def __init__(self, message: str, loc: SourceLoc) -> None:
        super().__init__(f"{loc}: {message}")
        self.message = message
        self.loc = loc


class Token:
    """One token. Its `loc` is built when read: the parser reads few."""

    __slots__ = ("kind", "text", "file", "line", "col")

    def __init__(self, kind: str, text: str, file: str, line: int, col: int) -> None:
        self.kind = kind  # "name" | "int" | "string" | "newline" | "eof" | "@UnsafeVariance" | one of PUNCT
        self.text = text
        self.file = file
        self.line = line
        self.col = col

    @property
    def loc(self) -> SourceLoc:
        return SourceLoc(self.file, self.line, self.col)


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    push = tokens.append
    match = _TOKEN.match
    pos = line_start = 0
    line = 1
    while True:
        m = match(source, pos)
        if m is None:
            _lex_error(source, _SKIP.match(source, pos).end(), file, line, line_start)
        k = m.lastindex
        text = m[k]
        pos = m.end()
        col = pos - len(text) - line_start + 1
        if k == _NAME:
            if text[0] > "z" and not text[0].isalpha():
                raise LexError(f"unexpected character {text[0]!r}", SourceLoc(file, line, col))
            push(Token("name", text, file, line, col))
        elif k == _PUNCT or k == _ANNOTATION:
            push(Token(text, text, file, line, col))
        elif k == _NEWLINE:
            last = tokens[-1] if tokens else None
            if last is not None and last.kind != "newline" and (
                last.kind == "string" or last.text not in _CONTINUATION_AFTER
            ):
                push(Token("newline", "\n", file, line, col))
            line += text.count("\n")
            line_start = pos
        elif k == _INT:
            push(Token("int", text, file, line, col))
        elif k == _STRING:
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body)
            push(Token("string", body, file, line, col))
        else:
            push(Token("eof", "", file, line, col))
            return tokens


def _lex_error(source: str, i: int, file: str, line: int, line_start: int) -> NoReturn:
    """Raise the LexError for the text at `i`, which no token matches."""
    at = SourceLoc(file, line, i - line_start + 1)
    if source[i] == "@":
        raise LexError("unknown annotation (only @UnsafeVariance exists)", at)
    if source[i] == '"':
        # The master regex takes every terminated string with known escapes.
        j = i + 1
        while j < len(source) and source[j] != "\n":
            if source[j] == "\\":
                if source[j + 1:j + 2] not in _ESCAPES:
                    raise LexError("unknown string escape", SourceLoc(file, line, at.col + j - i))
                j += 1
            j += 1
        raise LexError("unterminated string literal", at)
    raise LexError(f"unexpected character {source[i]!r}", at)
