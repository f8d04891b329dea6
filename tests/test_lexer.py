"""The master-regex lexer against a character-by-character reference.

`reference_tokenize` is the lexer's former loop, kept here as its
specification: strings do not continue a line even when their text is `=`
or `else`, and integer literals are runs of decimal digits.
"""

from __future__ import annotations

import functools
import random

import differential
import pytest
from hypothesis import given, settings, strategies as st

from minik import corpus
from minik.ast import SourceLoc
from minik.cli import main
from minik.lexer import LexError, tokenize
from minik.parser import ParseError, parse

PUNCT = ("(", ")", "{", "}", "[", "]", "<", ">", ",", ":", ".", "=", "?")
CONTINUATION_AFTER = {"=", ",", "(", "[", "<", ":", ".", "as", "is", "else"}
ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def reference_tokenize(source: str, file: str = "<input>") -> list[tuple[str, str, SourceLoc]]:
    tokens: list[tuple[str, str, SourceLoc]] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def loc() -> SourceLoc:
        return SourceLoc(file, line, col)

    def push(kind: str, text: str, at: SourceLoc) -> None:
        tokens.append((kind, text, at))

    def last_meaningful():
        for t in reversed(tokens):
            if t[0] != "newline":
                return t
        return None

    while i < n:
        c = source[i]
        if c == "\n":
            prev = last_meaningful()
            suppress = (
                prev is None
                or (prev[0] != "string" and prev[1] in CONTINUATION_AFTER)
                or tokens[-1][0] == "newline"
            )
            if not suppress:
                push("newline", "\n", loc())
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if c == "@":
            at = loc()
            word = "@UnsafeVariance"
            if source.startswith(word, i):
                push(word, word, at)
                i += len(word)
                col += len(word)
                continue
            raise LexError("unknown annotation (only @UnsafeVariance exists)", at)
        if c.isdecimal():
            at = loc()
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            push("int", source[i:j], at)
            col += j - i
            i = j
            continue
        if c == '"':
            at = loc()
            j = i + 1
            buf: list[str] = []
            while True:
                if j >= n or source[j] == "\n":
                    raise LexError("unterminated string literal", at)
                ch = source[j]
                if ch == '"':
                    j += 1
                    break
                if ch == "\\":
                    if j + 1 >= n or source[j + 1] not in ESCAPES:
                        raise LexError("unknown string escape", SourceLoc(file, line, col + (j - i)))
                    buf.append(ESCAPES[source[j + 1]])
                    j += 2
                    continue
                buf.append(ch)
                j += 1
            push("string", "".join(buf), at)
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            at = loc()
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            push("name", source[i:j], at)
            col += j - i
            i = j
            continue
        if c in PUNCT:
            push(c, c, loc())
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {c!r}", loc())

    push("eof", "", loc())
    return tokens


def triples(source: str, file: str, order: str = "forward") -> list[tuple[str, str, SourceLoc]]:
    """The lexer's (kind, text, loc) stream, its locations asked for in
    `order`: "forward", "reverse" or "shuffled" (seeded)."""
    tokens = tokenize(source, file)
    asked = list(range(len(tokens)))
    if order == "reverse":
        asked.reverse()
    elif order == "shuffled":
        random.Random(len(asked)).shuffle(asked)
    locs = {i: tokens.loc(i) for i in asked}
    return [(tokens.kinds[i], tokens.texts[i], locs[i]) for i in range(len(tokens))]


ORDERS = ("forward", "reverse", "shuffled")


def outcome(lex, source: str):
    """The (kind, text, loc) stream, or the LexError's message and location."""
    try:
        return lex(source, "t.mk")
    except LexError as e:
        return ("LexError", e.message, e.loc)


FRAGMENTS = (
    " ", "\t", "\r", "\x0b", "\n", "\n\n", "// c\n", "//", "/", "x", "_y1", "val", "fun", "as", "is", "else",
    "0", "42", "=", ",", "(", ")", "{", "}", "[", "]", "<", ">", ":", ".", "?", '"', '"="', '"else"',
    '","', '"a b"', "\\", "\\n", "\\t", '\\"', "\\\\", "\\q", "@UnsafeVariance", "@X", "@",
    "é", "ǅ", "٣", "²", "ⅷ", "x²", "xⅷ",
)

lexer_inputs = st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(lexer_inputs)
def test_lexer_agrees_with_the_reference_loop(source):
    assert outcome(triples, source) == outcome(reference_tokenize, source)


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.id)
def test_corpus_lexes_as_the_reference(entry):
    # `Tokens.loc` moves a line cursor, so the order locations are asked in
    # must not change them.
    source = entry.source_path.read_text()
    expected = outcome(reference_tokenize, source)
    for order in ORDERS:
        assert outcome(functools.partial(triples, order=order), source) == expected, order


_GEN = differential._load_gen()


@pytest.mark.parametrize("generated", [_GEN.launder(1, 5), _GEN.calltree(1, 3)], ids=["launder", "calltree"])
@pytest.mark.parametrize("order", ORDERS)
def test_generated_programs_lex_as_the_reference(generated, order):
    assert triples(generated.source, generated.filename, order) == reference_tokenize(generated.source, generated.filename)


@pytest.mark.parametrize("text", ["=", "else", "as", ",", "("])
def test_a_string_literal_ends_its_line(capsys, tmp_path, text):
    path = tmp_path / "t.mk"
    path.write_text(f'val s = "{text}"\nprintln(s)\n')
    assert main(["run", str(path), "--mode", "erased"]) == 0
    assert capsys.readouterr().out.startswith(f"{text}\n")


def test_integer_literals_are_decimal_digits():
    assert triples("٣4", "t.mk")[0] == ("int", "٣4", SourceLoc("t.mk", 1, 1))
    with pytest.raises(ParseError) as e:
        parse("val x = ²", "t.mk")
    assert str(e.value) == "t.mk:1:9: unexpected character '²'"
    with pytest.raises(ParseError) as e:
        parse("val x = ⅷ", "t.mk")
    assert str(e.value) == "t.mk:1:9: unexpected character 'ⅷ'"
    # Past the host's int-string limit (4,300 digits by default), a literal
    # is a parse error, not a host exception.
    with pytest.raises(ParseError) as e:
        parse("println(" + "1" * 5000 + ")", "t.mk")
    assert str(e.value) == "t.mk:1:9: integer literal too long"


@pytest.mark.parametrize(
    "source, message, col",
    [
        ("val x = @X", "unknown annotation (only @UnsafeVariance exists)", 9),
        ('val x = "ab', "unterminated string literal", 9),
        ('val x = "\\\\x', "unterminated string literal", 9),
        ('val x = "a\\qb"', "unknown string escape", 11),
        ("val x = 1 / 2", "unexpected character '/'", 11),
    ],
)
def test_lex_errors_name_the_fault_and_its_location(source, message, col):
    with pytest.raises(LexError) as e:
        tokenize(source, "t.mk")
    assert (e.value.message, e.value.loc) == (message, SourceLoc("t.mk", 1, col))


@pytest.mark.parametrize(
    "source, message, line, col",
    [
        ('val x = 1\nprintln(x)\nval s = "abc\n', "unterminated string literal", 3, 9),
        ('val x = 1\r\nval s = "ab\r\n', "unterminated string literal", 2, 9),
        ("val x = 1\n  \t// c\n\nval y = @Foo\n", "unknown annotation (only @UnsafeVariance exists)", 4, 9),
        ("val x = 1\nval y = 2 ~", "unexpected character '~'", 2, 11),
        # Columns count characters, not bytes.
        ('val é = "ü" ~\n', "unexpected character '~'", 1, 13),
        ('val x = 1\nval ñ = "x\\q"\n', "unknown string escape", 2, 11),
    ],
)
def test_lex_error_locations_count_lines_and_characters(source, message, line, col):
    with pytest.raises(LexError) as e:
        tokenize(source, "t.mk")
    assert (e.value.message, e.value.loc) == (message, SourceLoc("t.mk", line, col))


@pytest.mark.parametrize("word", ["newline", "string", "name", "int", "eof"])
def test_an_identifier_spelled_like_a_token_kind_ends_its_line(word):
    end = len(word) + 1
    assert triples(f"{word}\n{word}\n", "t.mk") == [
        ("name", word, SourceLoc("t.mk", 1, 1)),
        ("newline", "\n", SourceLoc("t.mk", 1, end)),
        ("name", word, SourceLoc("t.mk", 2, 1)),
        ("newline", "\n", SourceLoc("t.mk", 2, end)),
        ("eof", "", SourceLoc("t.mk", 3, 1)),
    ]
