from __future__ import annotations

import pytest

import minik.ast
from minik import corpus
from minik.ast import (
    BOOLEAN,
    CallExpr,
    CastExpr,
    ClassDecl,
    ClassType,
    FunDecl,
    If,
    Index,
    MethodCall,
    Node,
    Program,
    SourceLoc,
    StmtDecl,
    ValDecl,
    VarRef,
    walk,
)
from minik.parser import ParseError, parse
from minik.printer import pretty_print, render_expr
from minik.records import Record

from conftest import same_tree


def test_single_open_class():
    p = parse("open class B")
    assert len(p.decls) == 1
    d = p.decls[0]
    assert isinstance(d, ClassDecl)
    assert d.name == "B"
    assert d.is_open
    assert not d.is_interface
    assert d.members == ()
    assert d.supertypes == ()


def test_empty_source_is_empty_program():
    assert same_tree(parse(""), Program(()))
    assert same_tree(parse("\n\n// just a comment\n"), Program(()))


def test_main_corpus_program_decl_shape():
    src = corpus.BY_ID["P1"].source()
    p = parse(src, "P1.mk")
    classes = [d for d in p.decls if isinstance(d, ClassDecl)]
    funs = [d for d in p.decls if isinstance(d, FunDecl)]
    stmts = [d for d in p.decls if isinstance(d, StmtDecl)]
    assert [c.name for c in classes] == ["B", "A"]
    assert [f.name for f in funs] == ["getA"]
    assert len(stmts) == 1
    a = classes[1]
    assert a.ctor_private
    assert len(a.supertypes) == 1 and a.supertypes[0].has_ctor_call
    body = funs[0].body
    assert len(body) == 6  # four vals, the mutation call, the return
    assert sum(isinstance(s, ValDecl) for s in body) == 4


def test_bare_cast_target_prints_without_arguments():
    src = "val downcast = covariance as MutableList\n"
    p = parse(src)
    stmt = p.decls[0].stmt
    assert isinstance(stmt, ValDecl)
    cast = stmt.init
    assert isinstance(cast, CastExpr)
    assert cast.target == ClassType("MutableList", None)
    assert render_expr(cast) == "covariance as MutableList"


def test_declaration_may_wrap_after_equals():
    wrapped = "val downcast: MutableList<B> =\n        covariance as MutableList\n"
    flat = "val downcast: MutableList<B> = covariance as MutableList\n"
    assert same_tree(parse(wrapped), parse(flat))


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.id)
def test_corpus_round_trips(entry):
    p = parse(entry.source(), entry.filename)
    printed = pretty_print(p)
    assert same_tree(parse(printed, entry.filename), p)


def test_same_tree_ignores_locations_and_nothing_else():
    base = parse("val x = f(a, b).c as List<A>\n")
    assert same_tree(base, parse("\n\nval   x =   f(a,\n b).c as List<A>\n", "other.mk"))
    assert base != parse("val x = f(a, b).c as List<A>\n")  # nodes compare by identity
    for other in [
        "val y = f(a, b).c as List<A>\n",  # one name
        "val x = f(a, b).d as List<A>\n",
        "val x = f(a, b).c as List<B>\n",  # one type
        "val x = f(a).c as List<A>\n",  # one tuple length
        "val x = f(a, b).c() as List<A>\n",  # one node class: a method call, not a property read
        "val x = f(a, 1).c as List<A>\n",
    ]:
        assert not same_tree(base, parse(other)), other
    # `Index` and `MethodCall` differ in their class alone.
    assert not same_tree(parse("xs[0]\n"), parse("xs.get(0)\n"))


def test_prelude_round_trips():
    from minik.typesys import PRELUDE_SOURCE

    p = parse(PRELUDE_SOURCE, "<prelude>")
    assert same_tree(parse(pretty_print(p), "<prelude>"), p)
    names = [d.name for d in p.decls if isinstance(d, ClassDecl)]
    assert names == ["List", "MutableList", "ArrayList"]


def test_no_node_object_appears_twice_in_a_parsed_program():
    """The per-node tables of the checker, the lint and the runtime are
    keyed by the node itself, which compares by identity: one node object
    in two places would give both occurrences one entry."""
    from minik.typesys import PRELUDE_SOURCE

    sources = [(e.source(), e.filename) for e in corpus.ENTRIES] + [(PRELUDE_SOURCE, "<prelude>")]
    for source, filename in sources:
        nodes = [n for n in walk(parse(source, filename)) if isinstance(n, Node)]
        assert len({id(n) for n in nodes}) == len(nodes), filename


def test_an_index_read_is_a_get_call():
    e = parse("x[0]\n").decls[0].stmt.expr
    assert isinstance(e, Index) and isinstance(e, MethodCall)
    assert (e.name, len(e.args)) == ("get", 1)
    assert pretty_print(parse("x[0]\n")) == "x[0]\n"


def test_every_ast_class_is_slotted():
    # A parse makes tens of thousands of nodes; a per-instance dict on each
    # costs memory and collector time. The 35 classes are the 33 node, type
    # and location records and the two bases of the nodes and types.
    classes = [
        c
        for c in vars(minik.ast).values()
        if isinstance(c, type) and issubclass(c, Record) and c.__module__ == minik.ast.__name__
    ]
    assert len(classes) == 35
    assert [c.__name__ for c in classes if c.__dictoffset__] == []


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.id)
def test_corpus_locations_within_bounds(entry):
    src = entry.source()
    lines = src.split("\n")
    p = parse(src, entry.filename)

    def assert_loc(loc: SourceLoc):
        assert 1 <= loc.line <= len(lines)
        assert 1 <= loc.col <= len(lines[loc.line - 1]) + 1

    for node in walk(p.decls):
        if isinstance(node, Node):  # types have no location
            assert_loc(node.loc)


_LOC = SourceLoc("t.mk", 1, 1)
# One level of a deep tree: built around `inner`, which holds the root of the
# level below or nothing, it returns the nodes and types it adds, in preorder.
_LEVELS = {
    "calls": lambda inner: [CallExpr("f", None, inner, _LOC)],
    "ifs": lambda inner: [If(c := VarRef("c", _LOC), inner, None, _LOC), c],
    "list-types": lambda inner: [ClassType("List", inner)],
}


@pytest.mark.parametrize("level", _LEVELS.values(), ids=list(_LEVELS))
def test_walk_yields_every_node_of_a_deep_tree_once(level):
    # 5,000 levels, built directly: the parser and checker cannot yet take
    # trees this deep.
    levels = [level(())]
    for _ in range(4_999):
        levels.append(level((levels[-1][0],)))
    assert list(walk(levels[-1][0])) == [x for added in reversed(levels) for x in added]


@pytest.mark.parametrize(
    "source",
    [
        "val x =",
        "class class",
        'val s = "unterminated',
        "val if = 1",
        "fun f(x) {}",
        "class C<out> {}",
        "fun g<out T>() {}",
        "var y = 1",
    ],
)
def test_malformed_input_raises_with_location(source):
    with pytest.raises(ParseError) as exc:
        parse(source, "bad.mk")
    assert exc.value.loc.file == "bad.mk"
    assert exc.value.loc.line >= 1


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        ("val x: List<Int = 1\n", 1, 17, "expected '>' to close type arguments, got ="),
        ("val x = mutableListOf<Int(1)\n", 1, 26, "expected '>' to close type arguments, got ("),
        ("class C<T {\n}\n", 1, 11, "expected '>' to close type parameters, got {"),
        ("fun f<T(x: T) {\n}\n", 1, 8, "expected '>' to close type parameters, got ("),
        ("fun f<T, in U>(x: T) {\n}\n", 1, 10, "variance marks are only allowed on class type parameters"),
        ("interface I\nclass C : I, {\n}\n", 2, 14, "expected a type name, got {"),
    ],
)
def test_list_error_messages(source, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(source, "bad.mk")
    assert (exc.value.loc.line, exc.value.loc.col, exc.value.message) == (line, col, message)


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        ("val x = 1\nval y = )\n", 2, 9, "expected an expression, got )"),
        ("val x = 1\r\nval y = 2\r\nval z = )\r\n", 3, 9, "expected an expression, got )"),
        ("val x = 1\n\n// a comment\n   \n  // another\n\nval y = ]\n", 7, 9, "expected an expression, got ]"),
        # At the end of the file, with and without a last line break.
        ("fun f() {", 1, 10, "expected an expression, got eof"),
        ("fun f() {\n", 2, 1, "expected an expression, got eof"),
        ("val x = 1\nval y =", 2, 8, "expected an expression, got eof"),
        # A lexer error on a later line, through `parse`.
        ('val x = 1\nprintln(x)\nval s = "abc\n', 3, 9, "unterminated string literal"),
        # Columns count characters, not bytes.
        ("val x = 1\nval ü = é ?\n", 2, 11, "expected end of statement, got ?"),
    ],
)
def test_error_locations_past_the_first_line(source, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(source, "t.mk")
    assert (exc.value.message, exc.value.loc) == (message, SourceLoc("t.mk", line, col))


def test_locations_after_an_if_without_else():
    # `parse_if` skips the newlines after the block, finds no `else` and
    # steps back; the call after it then asks for its argument's location
    # before its own, an earlier line.
    src = "fun f(b: Boolean) {\n    if (b) {\n        println(1)\n    }\n\n    // c\n\n    println(\n        2)\n}\n"
    stmts = parse(src, "t.mk").decls[0].body
    assert stmts[0].else_body is None
    assert stmts[0].then_body[0].loc == SourceLoc("t.mk", 3, 9)
    call = stmts[1].expr
    assert (stmts[1].loc, call.loc, call.args[0].loc) == (
        SourceLoc("t.mk", 8, 5), SourceLoc("t.mk", 8, 5), SourceLoc("t.mk", 9, 9))


def test_method_call_chain_and_index():
    p = parse("getA().secretMethod()\nxs[0]\n")
    first, second = (d.stmt.expr for d in p.decls)
    assert render_expr(first) == "getA().secretMethod()"
    assert render_expr(second) == "xs[0]"
    assert isinstance(second.receiver, VarRef)


def test_a_boolean_annotation_round_trips():
    src = "fun g(l: Any): Boolean {\n    return l is List<Boolean>\n}\nval b: Boolean = g(1)\n"
    p = parse(src)
    assert p.decls[1].stmt.declared_type == BOOLEAN
    assert same_tree(parse(pretty_print(p)), p)


def test_string_escapes_round_trip():
    src = 'val s = "a\\"b\\\\c\\nd"\n'
    p = parse(src)
    assert p.decls[0].stmt.init.value == 'a"b\\c\nd'
    assert same_tree(parse(pretty_print(p)), p)
