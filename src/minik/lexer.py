"""Tokenizer for miniK source text.

Statements are newline-terminated, so NEWLINE is a real token. A newline is
suppressed when the previous token cannot end a statement (after `=`, `,`,
`(`, `[`, `<`, `:`, `.`, `{` or a keyword like `as`), which lets declarations
wrap across lines the way the source figures do.

One compiled master regex matches each token together with the blanks and
comment before it, or else one character no token matches, which goes to
`_lex_error` to name the fault and its location.

The result is one `Tokens` value: parallel lists of each token's kind, text
and character offset, with no object per token. A location is built from an
offset only when asked for, by a line cursor that steps forward over the
offsets at which lines start and bisects them only for an earlier line.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NoReturn

from .ast import SourceLoc
from .records import Record

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
# One group per token class, numbered as `tokenize` tests them, then one for
# the character of a fault: so every position matches, and `finditer` skips
# no text. `\w` is exactly `str.isalnum()` or `_`, and `\d` exactly
# `str.isdecimal()`; a name must also start with a letter or `_`, which
# `tokenize` checks past ASCII.
_NAME, _PUNCT, _NEWLINE, _INT, _STRING, _ANNOTATION, _EOF = range(1, 8)
_TOKEN = re.compile(_BLANKS + "(?:" + "|".join((
    r"([^\W\d]\w*)",
    "([" + re.escape("".join(PUNCT)) + "])",
    r"(\n(?:" + _BLANKS + r"\n)*)",  # with the blank and comment lines after it
    r"(\d+)",
    r'("(?:[^"\\\n]|\\[' + re.escape("".join(_ESCAPES)) + '])*")',
    "(@UnsafeVariance)",
    r"(\Z)",
    "(.)",
)) + ")")
_ESCAPE = re.compile(r"\\(.)")
_LINE_END = re.compile("\n")


class LexError(Exception):
    def __init__(self, message: str, loc: SourceLoc) -> None:
        super().__init__(f"{loc}: {message}")
        self.message = message
        self.loc = loc


class Tokens(Record, hidden=("_line",)):
    """The tokens of one file. Token `i` has kind `kinds[i]` ("name", "int",
    "string", "newline", "eof", "@UnsafeVariance" or one of PUNCT), text
    `texts[i]` (a string literal's unescaped body) and starts at character
    offset `starts[i]`. `line_starts` holds the offset of each line."""

    __slots__ = ("kinds", "texts", "starts", "file", "line_starts", "_line")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int], file: str, line_starts: list[int]) -> None:
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.file = file
        self.line_starts = line_starts
        self._line = 1

    def __len__(self) -> int:
        return len(self.kinds)

    def loc(self, i: int) -> SourceLoc:
        """Token `i`'s location. The slot `_line`, not a field, holds the line of the last one."""
        offset, line_starts, line = self.starts[i], self.line_starts, self._line
        if line_starts[line - 1] <= offset < line_starts[-1]:
            while line_starts[line] <= offset:
                line += 1
        else:
            line = bisect_right(line_starts, offset)
        self._line = line
        return SourceLoc(self.file, line, offset - line_starts[line - 1] + 1)


def _source_loc(file: str, line_starts: list[int], offset: int) -> SourceLoc:
    """The location of `offset`: its line, by bisecting the line starts,
    and its 1-based column in characters."""
    line = bisect_right(line_starts, offset)
    return SourceLoc(file, line, offset - line_starts[line - 1] + 1)


def tokenize(source: str, file: str = "<input>") -> Tokens:
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    kind, text, start = kinds.append, texts.append, starts.append
    line_starts = [0] + [m.end() for m in _LINE_END.finditer(source)]
    for m in _TOKEN.finditer(source):
        k = m.lastindex
        word = m[k]
        at = m.end() - len(word)
        if k == _NAME:
            if word[0] > "z" and not word[0].isalpha():
                raise LexError(f"unexpected character {word[0]!r}", _source_loc(file, line_starts, at))
            kind("name")
        elif k == _PUNCT or k == _ANNOTATION:
            kind(word)
        elif k == _NEWLINE:
            if not kinds or kinds[-1] == "newline" or (
                kinds[-1] != "string" and texts[-1] in _CONTINUATION_AFTER
            ):
                continue
            kind("newline")
            word = "\n"
        elif k == _INT:
            kind("int")
        elif k == _STRING:
            kind("string")
            word = word[1:-1]
            if "\\" in word:
                word = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], word)
        elif k == _EOF:
            break
        else:
            _lex_error(source, at, file, line_starts)
        text(word)
        start(at)
    kind("eof")
    text("")
    start(len(source))
    return Tokens(kinds, texts, starts, file, line_starts)


def _lex_error(source: str, i: int, file: str, line_starts: list[int]) -> NoReturn:
    """Raise the LexError for the text at `i`, which no token matches."""
    at = _source_loc(file, line_starts, i)
    if source[i] == "@":
        raise LexError("unknown annotation (only @UnsafeVariance exists)", at)
    if source[i] == '"':
        # The master regex takes every terminated string with known escapes.
        j = i + 1
        while j < len(source) and source[j] != "\n":
            if source[j] == "\\":
                if source[j + 1:j + 2] not in _ESCAPES:
                    raise LexError("unknown string escape", _source_loc(file, line_starts, j))
                j += 1
            j += 1
        raise LexError("unterminated string literal", at)
    raise LexError(f"unexpected character {source[i]!r}", at)
