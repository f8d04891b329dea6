from __future__ import annotations

import pytest

from conftest import call_deep
from minik import corpus
from minik.ast import ANY, ANY_NULLABLE, INT, STRING, ClassType, ParamRef, TypeRef
from minik.checker import CastClassification, classify_cast_baseline
from minik.cli import build_or_error, run_command
from minik.diagnostics import has_errors
from minik.parser import parse
from minik.typesys import (
    TypeResolutionError,
    build_class_table,
    lub,
    nominal_ancestors,
    resolve_type,
    subtype,
    supertype_instantiation,
)

AB = "open class B\n\nclass A private constructor() : B()\n"


def table_for(source: str):
    table, diags = build_class_table(parse(source))
    assert not has_errors(diags), [d.render() for d in diags]
    return table


def t(name: str, *args) -> ClassType:
    return ClassType(name, tuple(args))


@pytest.fixture(scope="module")
def ab_table():
    return table_for(AB)


def test_prelude_always_present(ab_table):
    assert ab_table.entry("List").is_interface
    assert ab_table.entry("List").type_params[0].variance.keyword() == "out"
    assert ab_table.entry("MutableList").type_params[0].variance.keyword() == ""
    assert "add" in ab_table.entry("MutableList").methods
    assert "set" in ab_table.entry("MutableList").methods
    assert "get" in ab_table.entry("List").methods
    assert ab_table.entry("List").properties["size"].type == INT
    assert not ab_table.entry("ArrayList").is_interface
    assert "mutableListOf" in ab_table.functions
    assert "println" in ab_table.functions


def test_user_hierarchy_and_ctor_visibility(ab_table):
    assert subtype(ab_table, t("A"), t("B"))
    assert not subtype(ab_table, t("B"), t("A"))
    assert ab_table.entry("A").ctor_private
    assert not ab_table.entry("B").ctor_private


def _prelude_state(table):
    return {
        e.name: (e.supertypes, e.ancestors, dict(e.ancestor_of), dict(e.methods), dict(e.properties))
        for e in table.prelude_entries()
    }


def test_tables_share_the_prelude_entries_and_keep_their_own_memo():
    first, second = table_for(""), table_for(AB)
    assert list(first.classes) == ["List", "MutableList", "ArrayList"]
    for entry in first.prelude_entries():
        assert second.entry(entry.name) is entry
    assert first.memo is not second.memo
    assert subtype(first, t("ArrayList", INT), t("List", ANY))
    key = ("subtype", t("ArrayList", INT), t("List", ANY))
    assert key in first.memo and key not in second.memo


@pytest.mark.parametrize(
    "source, message",
    [
        ("class A<T> : List<T>\nclass B<T> : MutableList<T>\nclass C<T> : ArrayList<T>()\n",
         "class ArrayList is not open and cannot be inherited from"),
        ("class List<T>\n", "duplicate declaration of type List"),
        ("interface I1 : I2, List<Int>\ninterface I2 : I1\n", "inheritance cycle through I1"),
        ("interface J : List<Int>\nclass C : List<String>, J\n",
         "inconsistent type arguments for List: List<String> and List<Int>"),
        (corpus.BY_ID["P1"].source(), None),  # clean, so checked too
    ],
)
def test_building_a_program_leaves_the_shared_prelude_unchanged(source, message):
    before = _prelude_state(table_for(""))
    table, diags = build_class_table(parse(source))
    assert [d.message for d in diags] == ([message] if message else [])
    for strict in (False, True):
        build_or_error(source, "t.mk", strict)
    assert _prelude_state(table) == before


def test_redeclaring_prelude_class_is_rejected():
    _, diags = build_class_table(parse("class List<T>"))
    assert any(d.code == "E-TABLE" and "duplicate" in d.message for d in diags)


@pytest.mark.parametrize("name", ["Int", "String", "Unit", "Boolean", "Any"])
def test_a_class_named_after_a_built_in_type_is_rejected(name):
    _, diags = build_class_table(parse(f"open class {name}\n\ninterface I\n"))
    assert [(d.code, d.loc.line, d.message) for d in diags] == [
        ("E-TABLE", 1, f"{name} is a built-in type and cannot be declared")
    ]


@pytest.mark.parametrize(
    "source",
    [
        # Accepted, an erased run let an `Int` object through `as Int` and
        # then failed at the index with "Int cannot be cast to Int".
        "class Int\n\nval a: Any = Int()\nval n = a as Int\nval l = mutableListOf<String>()\nl.add(\"s\")\nprintln(l[n])\n",
        # Accepted, an erased run let a Boolean value through a cast to the class.
        "open class Boolean\n\nval a: Any = 1 is Int\nval b = a as Boolean\nprintln(b)\n",
    ],
)
def test_programs_using_a_class_named_after_a_built_in_type_do_not_check(source):
    stdout, code = run_command("check", source, "t.mk")
    assert code == 1
    assert stdout.startswith("error E-TABLE t.mk:1:1: ")
    for mode in ("erased", "reified"):
        assert run_command("run", source, "t.mk", mode=mode) == (stdout, 1)


def test_inheriting_from_non_open_class_is_rejected():
    _, diags = build_class_table(parse("class A\n\nclass C : A()\n"))
    assert any(d.code == "E-TABLE" and "not open" in d.message for d in diags)


def test_supertype_cycle_is_rejected():
    _, diags = build_class_table(parse("interface I1 : I2\n\ninterface I2 : I1\n"))
    assert any(d.code == "E-TABLE" and "cycle" in d.message for d in diags)


@pytest.mark.parametrize(
    "source, rendered",
    [
        # Cutting I1 frees I2 and I3; cutting A frees B.
        (
            "interface I1 : I2\ninterface I2 : I1\ninterface I3 : I1\nopen class A : A()\nclass B : A()\n",
            "error E-TABLE t.mk:1:1: inheritance cycle through I1\n"
            "error E-TABLE t.mk:4:1: inheritance cycle through A\n",
        ),
        # I3 only reaches the cycle, but it comes first, so it is cut first.
        (
            "interface I3 : I1\ninterface I1 : I2\ninterface I2 : I1\n",
            "error E-TABLE t.mk:1:1: inheritance cycle through I3\n"
            "error E-TABLE t.mk:2:1: inheritance cycle through I1\n",
        ),
        # C links I<A>, I<B> and I<X>, so E meets I<B> and I<X> again through
        # C, each against E's own I<A>: hence `ancestors` keeps every
        # distinct instantiation, not only the first one of each class.
        (
            "class A\nclass B\nclass X\ninterface I<T>\ninterface J : I<A>\ninterface K : I<B>\n"
            "interface M : I<X>\nopen class C : J, K, M\nclass E : J, C()\nclass F : C()\n",
            "error E-TABLE t.mk:8:1: inconsistent type arguments for I: I<A> and I<B>\n"
            "error E-TABLE t.mk:8:1: inconsistent type arguments for I: I<B> and I<X>\n"
            "error E-TABLE t.mk:9:1: inconsistent type arguments for I: I<A> and I<B>\n"
            "error E-TABLE t.mk:9:1: inconsistent type arguments for I: I<A> and I<X>\n",
        ),
        ("interface I\nclass C : I, I\n", ""),
    ],
)
def test_hierarchy_diagnostics(source, rendered):
    assert run_command("check", source, "t.mk") == (rendered, 1 if rendered else 0)


def class_chain(length: int) -> str:
    classes = "".join(f"open class C{i} : C{i - 1}()\n" for i in range(1, length))
    return f"open class C0\n{classes}val x: Any = C{length - 1}()\nval y = x as C0\nprintln(y)\n"


@pytest.mark.parametrize("length, frames", [(1200, 0), (400, 800)])
def test_a_deep_class_chain_builds_checks_and_runs(length, frames):
    source = class_chain(length)
    built = call_deep(frames, build_or_error, source, "t.mk", False)
    assert call_deep(frames, run_command, "check", source, "t.mk", built=built) == ("", 0)
    ran = call_deep(frames, run_command, "run", source, "t.mk", mode="erased", built=built)
    assert ran == (f"<C{length - 1}@1>\ncompleted\n", 0)


def test_supertype_arity_mismatch_is_rejected():
    _, diags = build_class_table(parse("class C : List\n"))
    assert any(d.code == "E-TABLE" and "type argument" in d.message for d in diags)


def test_class_supertype_requires_ctor_call():
    _, diags = build_class_table(parse("open class B\n\nclass C : B\n"))
    assert any(d.code == "E-TABLE" and "initialized" in d.message for d in diags)


def test_inconsistent_supertype_arguments_are_rejected():
    # Accepted, C would be below J and J below I<Animal>, but C not below
    # I<Animal>: subtyping sees only C's first instantiation of I.
    source = (
        "open class Animal\nclass Dog : Animal()\ninterface I<T>\ninterface J : I<Animal>\n"
        "class C : I<Dog>, J\n\nval c = C()\nval viaJ: J = c\nval q: I<Animal> = viaJ\nval r: I<Animal> = c\n"
    )
    assert run_command("check", source, "t.mk") == (
        "error E-TABLE t.mk:5:1: inconsistent type arguments for I: I<Dog> and I<Animal>\n",
        1,
    )


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        ("class C {\n    fun x() {\n    }\n    val x: Int\n}\n", 4, 5, "duplicate member C.x"),
        ("class C {\n    val x: Int\n    fun x() {\n    }\n}\n", 3, 5, "duplicate member C.x"),
        ("class C {\n    fun m(): Nope {\n    }\n}\n", 2, 5, "unknown type Nope"),
        ("class C {\n    fun m(x: List) {\n    }\n}\n", 2, 11, "List expects 1 type argument(s)"),
        ("class C {\n    val p: Nope\n}\n", 2, 5, "unknown type Nope"),
    ],
)
def test_member_table_errors(source, line, col, message):
    _, diags = build_class_table(parse(source))
    assert [(d.code, d.loc.line, d.loc.col, d.message) for d in diags] == [("E-TABLE", line, col, message)]


_BASE = "open class A {\n    fun m(x: Int): A {\n        return A()\n    }\n    val p: Int\n}\n"


@pytest.mark.parametrize(
    "source, rendered",
    [
        (_BASE + "class B : A() {\n    fun m(x: Int, y: Int): A {\n        return A()\n    }\n}\n",
         "8:5: B.m redeclares A.m with 2 parameter(s) instead of 1"),
        (_BASE + "class B : A() {\n    fun m(x: String): A {\n        return A()\n    }\n}\n",
         "8:5: B.m redeclares A.m with parameter x: String instead of Int"),
        (_BASE + "class B : A() {\n    fun m(x: Int): Any {\n        return A()\n    }\n}\n",
         "8:5: B.m redeclares A.m with return type Any, not a subtype of A"),
        (_BASE + "class B : A() {\n    val p: String\n}\n",
         "8:5: B.p redeclares A.p with type String instead of Int"),
        (_BASE + "class B : A() {\n    val m: Int\n}\n", "8:5: B.m redeclares A.m as a property"),
        (_BASE + "class B : A() {\n    fun p(): Int {\n        return 1\n    }\n}\n",
         "8:5: B.p redeclares A.p as a method"),
        # A redeclaration is compared under the supertype's instantiation.
        ("open class Box<T> {\n    val v: T\n}\nclass IntBox : Box<Int>() {\n    val v: String\n}\n",
         "5:5: IntBox.v redeclares Box.v with type String instead of Int"),
        # Two supertypes that disagree: C sees A's `m`, which I's `m` does
        # not admit, though C declares no `m` itself.
        (_BASE + "interface I {\n    fun m(x: Int, y: Int): A\n}\nclass C : A(), I\n",
         "10:1: C.m, inherited from A, redeclares I.m with 1 parameter(s) instead of 2"),
        ("interface I {\n    fun m(): Int\n}\nopen class B {\n    fun m(): String {\n        return \"B\"\n    }\n}\n"
         "class C : B(), I\n",
         "9:1: C.m, inherited from B, redeclares I.m with return type String, not a subtype of Int"),
        # A `var` redeclared as a `val` loses its setter.
        ("open class A {\n    var item: Int\n}\nclass B : A() {\n    val item: Int\n}\n",
         "5:5: B.item redeclares A.item as a val"),
    ],
)
def test_member_redeclaration_diagnostics(source, rendered):
    assert run_command("check", source, "t.mk") == (f"error E-TABLE t.mk:{rendered}\n", 1)


@pytest.mark.parametrize(
    "source",
    [
        # Identical parameters under the supertype's instantiation, and a
        # narrower return type.
        "open class A\nclass B : A()\n"
        "open class Box<T> {\n    fun put(x: T): A {\n        return A()\n    }\n}\n"
        "class IntBox : Box<Int>() {\n    fun put(x: Int): B {\n        return B()\n    }\n}\n",
        # An interface member that a class's inherited member conforms to.
        "interface I {\n    fun m(): Any\n}\nopen class A {\n    fun m(): A {\n        return A()\n    }\n}\n"
        "class C : A(), I\n",
        # The same property type, redeclared through a generic supertype.
        "open class Box<T> {\n    val v: T\n}\nclass Sub<U> : Box<U>() {\n    val v: U\n}\n",
        # A `val` redeclared as a `var`, as Kotlin allows.
        "open class A {\n    val item: Int\n}\nclass B : A() {\n    var item: Int\n}\n",
    ],
)
def test_conforming_member_redeclarations_build(source):
    assert run_command("check", source, "t.mk") == ("", 0)


@pytest.mark.parametrize(
    "source, rendered",
    [
        ("fun f() {\n}\nfun f() {\n}\n", "3:1: duplicate declaration of function f"),
        ("fun f<T>(x: T<Int>) {\n}\n", "1:10: type parameter T takes no type arguments"),
        ("fun f(x: List<Int, Int>) {\n}\n", "1:7: List expects 1 type argument(s), got 2"),
        ("class C : Any\n", "1:11: Any cannot be used as a supertype"),
        ("interface I\nclass C : I()\n", "2:11: interface I has no constructor to call"),
        ("open class A\ninterface I : A()\n", "2:15: interface I cannot extend class A"),
        ("open class A\nopen class B\nclass C : A(), B()\n", "3:1: C has more than one class supertype"),
    ],
)
def test_table_diagnostics(source, rendered):
    assert run_command("check", source, "t.mk") == (f"error E-TABLE t.mk:{rendered}\n", 1)


def test_lub_is_memoized_per_table(ab_table):
    query = (t("MutableList", t("A")), t("List", t("B")))
    assert lub(ab_table, *query) is lub(ab_table, *query)
    assert ab_table.memo[("lub", *query)] == t("List", t("B"))


def _answers(table):
    """Each memoized query about classes `A`, `B` and `Box`, asked twice."""
    b, a, box = t("B"), t("A"), ClassType("Box")
    loc = parse("val x = 1\n").decls[0].loc
    rows = []
    for _ in range(2):
        try:
            resolved = resolve_type(table, box, frozenset(), loc)
        except TypeResolutionError as e:
            resolved = e.message
        rows.append((subtype(table, b, a), supertype_instantiation(table, b, "A"),
                     resolve_type(table, box, frozenset(), loc, allow_bare=True), resolved, lub(table, b, a),
                     classify_cast_baseline(table, t("List", b), t("List", a))))
    assert rows[0] == rows[1]
    return rows[0]


def test_memoized_answers_do_not_cross_between_programs():
    # The same class names in one process: B is below A in one program and
    # not in the other, and Box is generic in one and not in the other.
    below = ("open class A\nclass B : A()\nclass Box<T>\n",
             (True, t("A"), ClassType("Box", None), "Box expects 1 type argument(s)", t("A"),
              CastClassification.FULLY_CHECKED))
    apart = ("open class A\nclass B\nclass Box\n",
             (False, None, t("Box"), t("Box"), ANY, CastClassification.UNCHECKED_WARNED))
    for order in ((below, apart), (apart, below)):
        for source, want in order:
            assert _answers(table_for(source)) == want


def test_an_unresolvable_type_is_reported_at_each_place_it_is_written():
    src = "val x: Foo = 1\nval y: List<Foo> = mutableListOf<Int>()\n  val z: Foo = 2\n"
    assert run_command("check", src, "t.mk") == (
        "error E-TYPE t.mk:1:1: unknown type Foo\n"
        "error E-TYPE t.mk:2:1: unknown type Foo\n"
        "error E-TYPE t.mk:3:3: unknown type Foo\n",
        1,
    )


def test_supertype_instantiation_through_one_level(ab_table):
    assert supertype_instantiation(ab_table, t("MutableList", t("A")), "List") == t("List", t("A"))


def test_supertype_instantiation_through_two_levels(ab_table):
    # By hand: ArrayList<B> -> MutableList<B> -> List<B>.
    assert supertype_instantiation(ab_table, t("ArrayList", t("B")), "List") == t("List", t("B"))


def test_supertype_instantiation_only_goes_up(ab_table):
    assert supertype_instantiation(ab_table, t("List", t("A")), "MutableList") is None


def test_supertype_instantiation_rejects_a_bare_reference(ab_table):
    with pytest.raises(ValueError, match="bare reference"):
        supertype_instantiation(ab_table, ClassType("MutableList"), "List")


def test_covariant_list_argument_subtyping(ab_table):
    assert subtype(ab_table, t("List", t("A")), t("List", t("B")))
    assert not subtype(ab_table, t("List", t("B")), t("List", t("A")))


def test_mutable_list_is_invariant(ab_table):
    assert not subtype(ab_table, t("MutableList", t("A")), t("MutableList", t("B")))
    assert not subtype(ab_table, t("MutableList", t("B")), t("MutableList", t("A")))


def test_mutable_list_upcasts_to_list(ab_table):
    assert subtype(ab_table, t("MutableList", t("A")), t("List", t("A")))
    assert subtype(ab_table, t("MutableList", t("A")), t("List", t("B")))


@pytest.mark.parametrize(
    "ty",
    [INT, STRING, ANY, ANY_NULLABLE, t("A"), t("List", t("B")), t("MutableList", t("A")), ParamRef("T")],
)
def test_subtype_is_reflexive(ab_table, ty):
    assert subtype(ab_table, ty, ty)


def test_tops(ab_table):
    assert subtype(ab_table, t("A"), ANY)
    assert subtype(ab_table, INT, ANY)
    assert subtype(ab_table, ANY, ANY_NULLABLE)
    assert not subtype(ab_table, ANY_NULLABLE, ANY)


def test_lub_of_unrelated_primitives_is_any(ab_table):
    assert lub(ab_table, INT, STRING) == ANY


def test_lub_is_idempotent(ab_table):
    assert lub(ab_table, t("A"), t("A")) == t("A")


def test_lub_of_related_classes_is_the_wider_one(ab_table):
    # Oracle by enumeration: ancestors of A = {A, B, Any, Any?}, of
    # B = {B, Any, Any?}; common minimal element is B.
    common = []
    for c in nominal_ancestors(ab_table, t("A")) + nominal_ancestors(ab_table, t("B")):
        if c not in common and subtype(ab_table, t("A"), c) and subtype(ab_table, t("B"), c):
            common.append(c)
    minimal = [c for c in common if not any(d != c and subtype(ab_table, d, c) for d in common)]
    assert minimal == [t("B")]
    assert lub(ab_table, t("A"), t("B")) == t("B")


def test_nominal_ancestors_put_the_tops_last():
    table = table_for("interface I\n\ninterface J\n\nopen class A : I\n\nclass C : A(), J\n")
    assert nominal_ancestors(table, t("C")) == [t("C"), t("A"), t("I"), t("J"), ANY, ANY_NULLABLE]


def test_lub_of_list_instantiations(ab_table):
    assert lub(ab_table, t("MutableList", t("A")), t("List", t("B"))) == t("List", t("B"))


def test_supertype_instantiation_agrees_with_subtype(ab_table):
    for source in [t("MutableList", t("A")), t("ArrayList", t("B")), t("List", t("A"))]:
        for ancestor in ["List", "MutableList", "ArrayList"]:
            inst = supertype_instantiation(ab_table, source, ancestor)
            if inst is not None:
                assert subtype(ab_table, source, inst)


BAD_SUPERTYPES = (
    "class C : Any\n",
    "class C : Int\n",
    "class C<T> : T\n",
    "class C : List\n",
    "class C : List<Int, Int>\n",
    "class C : Nope\n",
    "class C : C()\n",
    "interface I<T>\nclass C<T> : I<T<Int>>\n",
    "interface I<out T>\nclass C<T> : I<T>, I<Any>\n",
)


@pytest.mark.parametrize(
    "source",
    [e.source() for e in corpus.ENTRIES] + list(BAD_SUPERTYPES),
    ids=[e.id for e in corpus.ENTRIES] + [f"bad{i}" for i in range(len(BAD_SUPERTYPES))],
)
def test_supertypes_and_ancestors_are_class_types_with_arguments(source):
    # What `_link_ancestors`, `check_inheritance_variance` and `subtype`
    # read a supertype or an ancestor as, whatever the table rejected.
    table, _ = build_class_table(parse(source))
    for entry in table.classes.values():
        for ref in entry.supertypes:
            assert isinstance(ref.type, ClassType) and ref.type.args is not None, (entry.name, ref.type)
        for anc in entry.ancestors:
            assert isinstance(anc, ClassType) and anc.args is not None, (entry.name, anc)


def test_subtype_rejects_a_type_outside_the_type_model(ab_table):
    with pytest.raises(TypeError, match="not a miniK type"):
        subtype(ab_table, TypeRef(), t("A"))
