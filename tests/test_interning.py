"""Types are hash-consed: one object per distinct type, whichever code
builds it, so equality and hashing never walk a type's arguments."""

from __future__ import annotations

import copy
import pickle
import threading

import pytest

from minik import ast, cli
from minik.ast import ANY, ANY_NULLABLE, INT, ClassType, NullableTopType, ParamRef, PrimitiveType, TopType
from minik.cli import build, run_command
from minik.parser import parse
from minik.runtime import ERASED, REIFIED, run_program
from minik.typesys import build_class_table, resolve_type, substitute, subtype, supertype_instantiation

TYPES = [
    ClassType("A"),
    ClassType("A", ()),
    ClassType("MutableList", (ClassType("List", (INT,)),)),
    ParamRef("T"),
    PrimitiveType("Int"),
]
TYPE_IDS = ["bare", "no-args", "with-args", "param", "primitive"]

COPIES = [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))]


@pytest.mark.parametrize("route", COPIES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("t", TYPES, ids=TYPE_IDS)
def test_copies_of_a_type_are_the_type_itself(t, route):
    assert route(t) is t


@pytest.mark.parametrize("t", TYPES, ids=TYPE_IDS)
def test_a_type_is_frozen(t):
    with pytest.raises(AttributeError):
        t.name = "B"


def test_distinct_types_stay_distinct():
    assert ClassType("A", None) is not ClassType("A", ())
    assert ParamRef("T") is not ClassType("T", ())
    assert ParamRef("Int") is not PrimitiveType("Int")
    assert ClassType("A", ()) != ClassType("B", ())
    assert TopType() is ANY and NullableTopType() is ANY_NULLABLE


def test_one_type_is_one_object_whichever_code_builds_it():
    source = (
        "fun mk<E>(): MutableList<E> {\n"
        "    return mutableListOf<E>()\n"
        "}\n"
        "val x: MutableList<Int> = mk<Int>()\n"
        "mk<Int>()\n"
    )
    want = ClassType("MutableList", (INT,))
    parsed = parse(source, "t.mk").decls[1].stmt.declared_type
    assert parsed is want
    checked, diags = build(source, "t.mk")
    assert diags == []
    table = checked.table
    loc = ast.SourceLoc("t.mk", 1, 1)
    assert resolve_type(table, parsed, frozenset(), loc) is want
    assert substitute(ClassType("MutableList", (ParamRef("T"),)), {"T": INT}) is want
    assert supertype_instantiation(table, ClassType("ArrayList", (INT,)), "MutableList") is want
    assert run_program(checked, REIFIED).value.type is want


RUN_SOURCE = (
    "open class A\nclass B : A()\n"
    "fun pass<E>(xs: List<E>): List<E> {\n"
    "    return xs\n"
    "}\n"
    "val m = mutableListOf<B>()\n"
    "m.add(B())\n"
    "val l: List<A> = pass<A>(m)\n"
    "println(l.get(0) is B)\n"
)


def test_a_second_build_and_run_adds_no_type():
    def build_and_run():
        checked, diags = build(RUN_SOURCE, "t.mk")
        assert diags == []
        for mode in (ERASED, REIFIED):
            assert run_program(checked, mode).stdout == "true\n"

    build_and_run()
    size = len(ast._TYPES)
    build_and_run()
    assert len(ast._TYPES) == size


def nested_list(depth: int) -> ClassType:
    t = INT
    for _ in range(depth):
        t = ClassType("List", (t,))
    return t


def test_5000_deep_equal_types_are_one_object():
    a, b = nested_list(5000), nested_list(5000)
    assert a is b
    assert a == b and hash(a) == hash(b)
    table, _ = build_class_table(parse("", "t.mk"))
    assert subtype(table, a, b)


def test_a_5000_deep_type_renders_without_recursion():
    assert nested_list(5000).render() == "List<" * 5000 + "Int" + ">" * 5000
    pair = ClassType("Pair", (nested_list(2), ClassType("Box", (INT, ClassType("A", None)))))
    assert pair.render() == "Pair<List<List<Int>>, Box<Int, A>>"


def test_a_diagnostic_on_a_480_deep_type_is_printed(tmp_path, capsys):
    # Rendering the declared type for the message recursed once per level
    # and raised RecursionError at about 330 deep. The parser still recurses
    # per level, up to 490 deep from a shallow caller, so `main` runs in a
    # thread of its own, whose Python stack starts empty.
    inner = "List<" * 480 + "Int" + ">" * 480
    path = tmp_path / "t.mk"
    path.write_text(f"val x: {inner} = 1\n", encoding="utf-8")
    exits = []
    thread = threading.Thread(target=lambda: exits.append(cli.main(["check", str(path)])))
    thread.start()
    thread.join()
    assert exits == [1]
    assert capsys.readouterr().out == f"error E-TYPE t.mk:1:1: Int is not a subtype of declared type {inner}\n"


@pytest.mark.parametrize("depth", [250, 400])
def test_a_deep_equal_type_checks_lints_and_runs(depth):
    inner = "List<" * depth + "Int" + ">" * depth
    source = f"val x: List<{inner}> = mutableListOf<{inner}>()\nprintln(x.size)\n"
    assert run_command("check", source, "t.mk") == ("", 0)
    assert run_command("lint", source, "t.mk") == ("", 0)
    for mode in (ERASED, REIFIED):
        assert run_command("run", source, "t.mk", mode=mode) == ("0\ncompleted\n", 0)
