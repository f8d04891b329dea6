from __future__ import annotations

import itertools

import pytest

from minik import corpus
from minik.ast import ANY, ClassType, Expr, VarRef, walk
from minik.checker import (
    CastClassification,
    check_inheritance_variance,
    check_variance_positions,
    classify_cast_baseline,
    complete_cast_target,
    infer_call_type_args,
)
from minik.cli import build, run_command
from minik.diagnostics import has_errors
from minik.parser import parse
from minik.typesys import build_class_table, program_bodies, subtype

from conftest import DISPLACED_REDUNDANT_IS, codes, narrowed_uses

AB = "open class B\n\nclass A private constructor() : B()\n"


def t(name: str, *args) -> ClassType:
    return ClassType(name, tuple(args))


def ab_table():
    table, diags = build_class_table(parse(AB))
    assert not has_errors(diags)
    return table


# ============================================================
# BASELINE ACCEPTANCE OF THE CORPUS
# ============================================================


def test_main_program_checks_clean(check_source):
    _, diags = check_source(corpus.BY_ID["P1"].source(), "P1.mk")
    assert diags == []


def test_warned_variant_gets_exactly_one_unchecked_cast(check_source):
    _, diags = check_source(corpus.BY_ID["P2"].source(), "P2.mk")
    assert codes(diags) == ["W-UNCHECKED-CAST"]
    assert diags[0].loc.line == 11


def test_subtype_direction_enforced_on_vals(check_source):
    _, diags = check_source(AB + "val x: A = B()\n")
    assert codes(diags) == ["E-TYPE"]
    assert "not a subtype" in diags[0].message


def test_private_constructor_blocks_instantiation(check_source):
    _, diags = check_source(AB + "val a = A()\n")
    assert codes(diags) == ["E-TYPE"]
    assert "private" in diags[0].message


def test_condition_must_be_boolean(check_source):
    _, diags = check_source("fun f() {\n    if (1) {\n    }\n}\n")
    assert codes(diags) == ["E-TYPE"]


def test_strict_is_a_superset_of_baseline():
    # On the corpus; `DISPLACED_REDUNDANT_IS` is a program where it is not.
    for entry in corpus.ENTRIES:
        _, base = build(entry.source(), entry.filename, strict=False)
        _, strict = build(entry.source(), entry.filename, strict=True)
        base_keys = [(d.code, d.loc) for d in base]
        strict_keys = [(d.code, d.loc) for d in strict]
        for key in base_keys:
            assert key in strict_keys, (entry.id, key)


# ============================================================
# VARIANCE POSITIONS
# ============================================================


def variance_diags(source: str, class_name: str):
    table, diags = build_class_table(parse(source))
    assert not has_errors(diags)
    return check_variance_positions(table, table.entry(class_name))


def test_mutable_property_on_out_parameter_is_rejected():
    diags = variance_diags(corpus.BY_ID["P3a"].source(), "Box")
    assert codes(diags) == ["E-VARIANCE-POSITION"]


def test_unsafe_variance_annotation_suppresses_it():
    assert variance_diags(corpus.BY_ID["P3b"].source(), "Box") == []


def test_out_parameter_in_return_position_is_fine():
    assert variance_diags("class P<out T> {\n    fun get(): T\n}\n", "P") == []


def test_out_parameter_as_method_parameter_is_rejected():
    diags = variance_diags("class C<out T> {\n    fun put(x: T)\n}\n", "C")
    assert codes(diags) == ["E-VARIANCE-POSITION"]


def test_in_parameter_in_return_position_is_rejected():
    diags = variance_diags("class C<in T> {\n    fun get(): T\n}\n", "C")
    assert codes(diags) == ["E-VARIANCE-POSITION"]


def test_positions_compose_through_generic_arguments():
    # T sits inside a covariant argument of a parameter type, so the
    # parameter position shines through.
    diags = variance_diags("class C<out T> {\n    fun take(xs: List<T>)\n}\n", "C")
    assert codes(diags) == ["E-VARIANCE-POSITION"]
    # An 'in' argument flips the position back to out.
    ok = variance_diags(
        "interface Sink<in S>\n\nclass C<out T> {\n    fun wire(s: Sink<T>)\n}\n", "C"
    )
    assert ok == []


@pytest.mark.parametrize(
    "source, rendered",
    [
        (
            "class Bad<out T> : MutableList<T>\n",
            "1:20: type parameter T is declared 'out' but occurs in invariant position "
            "in the supertype MutableList<T> of Bad",
        ),
        (
            "interface Src<in T> : List<T>\n",
            "1:23: type parameter T is declared 'in' but occurs in out position in the supertype List<T> of Src",
        ),
        (
            "interface Nest<out T> : List<MutableList<T>>\n",
            "1:25: type parameter T is declared 'out' but occurs in invariant position "
            "in the supertype List<MutableList<T>> of Nest",
        ),
        ("class Bad<out T> : @UnsafeVariance MutableList<T>\n", None),
    ],
)
def test_a_supertype_reference_is_an_out_position(source, rendered):
    expected = ("", 0) if rendered is None else (f"error E-VARIANCE-POSITION t.mk:{rendered}\n", 1)
    assert run_command("check", source, "t.mk") == expected


def test_prelude_passes_baseline_variance_positions():
    table, _ = build_class_table(parse(""))
    for entry in table.prelude_entries():
        assert check_variance_positions(table, entry) == []


# ============================================================
# INHERITANCE VARIANCE (STRICT)
# ============================================================

DERIVED = "open class Base<out T>\n\nclass Derived<T> : Base<T>()\n"
DERIVED_ACK = "open class Base<out T>\n\nclass Derived<T> : @UnsafeVariance Base<T>()\n"


def test_strict_flags_variance_weakening_inheritance():
    table, diags = build_class_table(parse(DERIVED))
    assert not has_errors(diags)
    flagged = check_inheritance_variance(table, table.entry("Derived"), strict=True)
    assert codes(flagged) == ["W-VARIANT-INHERITANCE"]
    assert check_inheritance_variance(table, table.entry("Derived"), strict=False) == []


def test_unsafe_variance_on_supertype_suppresses_the_warning():
    table, _ = build_class_table(parse(DERIVED_ACK))
    assert check_inheritance_variance(table, table.entry("Derived"), strict=True) == []


def test_prelude_triggers_the_rule_exactly_once(check_source):
    _, diags = check_source("", strict=True)
    assert codes(diags) == ["W-VARIANT-INHERITANCE"]
    assert diags[0].loc.file == "<prelude>"
    assert "MutableList" in diags[0].message


# ============================================================
# CAST CLASSIFICATION
# ============================================================


def test_same_argument_downcast_is_silent():
    table = ab_table()
    got = classify_cast_baseline(table, t("List", t("B")), t("MutableList", t("B")))
    assert got is CastClassification.UNCHECKED_SILENT


def test_different_argument_downcast_is_warned():
    table = ab_table()
    got = classify_cast_baseline(table, t("List", t("A")), t("MutableList", t("B")))
    assert got is CastClassification.UNCHECKED_WARNED


def test_cast_without_type_arguments_is_fully_checked():
    table = ab_table()
    assert classify_cast_baseline(table, t("B"), t("A")) is CastClassification.FULLY_CHECKED


def test_classifying_a_bare_target_is_a_value_error():
    table = ab_table()
    for _ in range(2):  # an error is never memoized
        with pytest.raises(ValueError, match="MutableList"):
            classify_cast_baseline(table, t("List", t("B")), ClassType("MutableList", None))
    assert not any(key[0] == "cast" for key in table.memo)


CAST_TO_PARAM = (
    "fun f<T>(x: Any?, y: T): T {\n"
    "    return x as T\n"
    "}\n"
    "fun g<T>(x: T, y: T): T {\n"
    "    return x as T\n"
    "}\n"
    "val s: String = f(1, \"s\")\n"
)


def test_cast_to_a_type_parameter_is_warned_unless_it_is_an_upcast(check_source):
    _, diags = check_source(CAST_TO_PARAM)
    assert [(d.code, d.loc.line) for d in diags] == [("W-UNCHECKED-CAST", 2)]
    assert diags[0].message == "unchecked cast: Any? to T"


def test_bare_target_completes_from_expected_type():
    table = ab_table()
    completed = complete_cast_target(
        table, t("List", t("A")), ClassType("MutableList", None), expected=t("MutableList", t("B"))
    )
    assert completed == t("MutableList", t("B"))


def test_bare_target_completes_from_source_when_no_expected():
    table = ab_table()
    completed = complete_cast_target(table, t("List", t("B")), ClassType("MutableList", None))
    assert completed == t("MutableList", t("B"))
    completed_up = complete_cast_target(table, t("ArrayList", t("A")), ClassType("List", None))
    assert completed_up == t("List", t("A"))


def test_classifier_gap_matches_brute_force_rtti_oracle():
    """The silent outcome appears exactly when class-only RTTI cannot vouch
    for the cast and the argument comparison sees no difference.

    The oracle enumerates every runtime list value shape R<Z> over
    {List, MutableList, ArrayList} x {A, B}: a cast target is verifiable by
    the erased check alone iff every value whose class passes the check
    actually conforms to the full target.
    """
    from minik.runtime import class_conforms

    table = ab_table()
    shapes = [
        t(cls, arg)
        for cls, arg in itertools.product(["List", "MutableList", "ArrayList"], [t("A"), t("B")])
    ]

    def rtti_verifiable(target):
        passing = [s for s in shapes if class_conforms(table, s.name, target.name)]
        return all(subtype(table, s, target) for s in passing)

    for source, target in itertools.product(shapes, shapes):
        got = classify_cast_baseline(table, source, target)
        statically_safe = subtype(table, source, target)
        silent_expected = (
            not statically_safe and not rtti_verifiable(target) and _projected_equal(table, source, target)
        )
        assert (got is CastClassification.UNCHECKED_SILENT) == silent_expected, (source, target)
        if statically_safe:
            assert got is CastClassification.FULLY_CHECKED


def _projected_equal(table, source, target):
    from minik.checker import _projected_args

    projected = _projected_args(table, source, target.name)
    return projected is not None and tuple(projected) == tuple(target.args)


# ============================================================
# INSTANCE CHECKS AND SMART CASTS
# ============================================================

GENERIC_IS = (
    "fun peek<E>(list: List<E>, element: E) {\n"
    "    if (list is MutableList<E>) {\n"
    "        list.add(element)\n"
    "    }\n"
    "}\n"
)


def test_concrete_generic_instance_check_is_an_error(check_source):
    _, diags = check_source("fun f(x: List<Int>) {\n    if (x is MutableList<Int>) {\n    }\n}\n")
    assert codes(diags) == ["E-GENERIC-IS"]
    assert "erased type" in diags[0].message


def test_parameter_generic_instance_check_narrows_in_baseline(check_source):
    from minik.ast import ParamRef

    checked, diags = check_source(GENERIC_IS)
    assert diags == []
    assert list(narrowed_uses(checked)) == [(t("List", ParamRef("E")), t("MutableList", ParamRef("E")))]


def test_parameter_generic_instance_check_rejected_in_strict(check_source):
    _, diags = check_source(GENERIC_IS, strict=True)
    assert "E-GENERIC-IS" in codes(diags)


def test_a_strict_instance_check_error_displaces_the_redundant_warning(check_source):
    # Strict is not a superset of baseline: the `is` it rejects no longer
    # reads as always true.
    checked, diags = check_source(DISPLACED_REDUNDANT_IS)
    assert [(d.code, d.loc.line, d.loc.col) for d in diags] == [("W-REDUNDANT-IS", 6, 11)]
    strict_checked, strict_diags = check_source(DISPLACED_REDUNDANT_IS, strict=True)
    assert [(d.code, d.loc.file, d.loc.line, d.loc.col) for d in strict_diags] == [
        ("W-VARIANT-INHERITANCE", "<prelude>", 6, 28),
        ("E-GENERIC-IS", "test.mk", 6, 11),
    ]
    # One check pass gives both levels.
    assert checked.at_strictness(True).diagnostics == strict_checked.diagnostics
    assert strict_checked.at_strictness(False).diagnostics == checked.diagnostics


def test_instance_check_against_a_type_parameter_is_an_error(check_source):
    src = "fun f<T>(x: Any?, y: T) {\n    println(x is T)\n}\nfun g<T>(x: T) {\n    println(x is T)\n}\n"
    _, diags = check_source(src)
    assert [(d.code, d.loc.line) for d in diags] == [("E-GENERIC-IS", 2), ("W-REDUNDANT-IS", 5)]
    assert diags[0].message == "cannot check for instance of erased type T"


def test_redundant_instance_check_message(check_source):
    src = AB + "fun f(x: A) {\n    println(x is A)\n}\n"
    _, diags = check_source(src)
    assert codes(diags) == ["W-REDUNDANT-IS"]
    assert diags[0].message == "check for instance is always 'true'"


def test_narrowing_never_widens_on_corpus():
    for entry in corpus.ENTRIES:
        checked, _ = build(entry.source(), entry.filename)
        if checked is None:
            continue
        for before, narrowed in narrowed_uses(checked):
            assert subtype(checked.table, narrowed, before), (entry.id, before, narrowed)


def test_each_expression_occurrence_has_its_own_static_type():
    """`expr_types` is keyed by the node itself, so occurrences that read
    alike, such as two uses of one variable, are separate entries."""
    clean = 0
    for entry in corpus.ENTRIES:
        checked, _ = build(entry.source(), entry.filename)
        if checked is None or not checked.ok:
            continue
        clean += 1
        occurrences = [e for body in program_bodies(checked.table, checked.program)
                       for e in walk(body.stmts) if isinstance(e, Expr)]
        assert len(checked.expr_types) == len(occurrences), entry.id
        assert all(e in checked.expr_types for e in occurrences), entry.id
    assert clean == 14


def test_a_narrowed_use_and_the_tested_use_have_their_own_types(check_source):
    checked, diags = check_source(AB + "fun f(x: B) {\n    if (x is A) {\n        println(x)\n    }\n}\n")
    assert diags == []
    f = checked.program.decls[-1]
    tested, used = (e for e in walk(f.body) if isinstance(e, VarRef))
    assert tested.name == used.name == "x"
    assert (checked.expr_types[tested], checked.expr_types[used]) == (t("B"), t("A"))


# ============================================================
# CALL TYPE-ARGUMENT INFERENCE
# ============================================================


def infer(table, type_params, declared, args):
    got = infer_call_type_args(table, type_params, declared, args)
    assert not isinstance(got, str), got
    return got


def test_inference_takes_lub_of_conflicting_constraints():
    table = ab_table()
    from minik.ast import INT, STRING, ParamRef

    declared = (t("List", ParamRef("E")), ParamRef("E"))
    got = infer(table, ("E",), declared, (t("List", INT), STRING))
    assert got == {"E": ANY}


def test_inference_with_single_constraint():
    table = ab_table()
    from minik.ast import INT, ParamRef

    declared = (t("List", ParamRef("E")), ParamRef("E"))
    got = infer(table, ("E",), declared, (t("List", INT), INT))
    assert got == {"E": INT}


def test_inference_of_two_related_arguments_uses_lub():
    table = ab_table()
    from minik.ast import ParamRef

    declared = (ParamRef("T"), ParamRef("T"))
    got = infer(table, ("T",), declared, (t("A"), t("B")))
    assert got == {"T": t("B")}


def test_unconstrained_parameter_is_an_error():
    table = ab_table()
    got = infer_call_type_args(table, ("T",), (), ())
    assert isinstance(got, str)


def test_inferred_call_in_program(check_source):
    src = (
        "open class Animal\n\nclass Dog : Animal()\n\n"
        "fun pick<T>(a: T, b: T): T {\n    return a\n}\n\n"
        "val chosen = pick(Dog(), Animal())\n"
    )
    checked, diags = check_source(src)
    assert diags == []
    decl = checked.program.decls[-1].stmt
    assert checked.decl_types[decl] == t("Animal")


# ============================================================
# RETURNS
# ============================================================


def test_a_body_that_can_end_without_a_return_is_an_error(check_source):
    src = (
        "fun f(): Int {\n"
        "}\n"
        "fun g(x: Any?): Int {\n"
        "    if (x is Int) {\n"
        "        return 1\n"
        "    }\n"
        "}\n"
        "class C {\n"
        "    fun m(): String {\n"
        "        println(1)\n"
        "    }\n"
        "}\n"
        "val x: Int = f()\n"
    )
    _, diags = check_source(src)
    assert [(d.code, d.loc.line, d.loc.col) for d in diags] == [("E-TYPE", 1, 1), ("E-TYPE", 3, 1), ("E-TYPE", 9, 5)]
    assert diags[0].message == "missing return: f must return Int"


def test_returns_in_both_branches_or_a_unit_body_need_no_final_return(check_source):
    src = (
        "fun f(x: Any?): Int {\n"
        "    if (x is Int) {\n"
        "        return 1\n"
        "    } else {\n"
        "        return 2\n"
        "    }\n"
        "}\n"
        "fun g() {\n"
        "}\n"
        "fun h(): Int {\n"
        "    return 1\n"
        "    println(2)\n"
        "}\n"
    )
    _, diags = check_source(src)
    assert diags == []


# ============================================================
# MEMBER LOOKUP AND WRITTEN TYPE ARGUMENTS
# ============================================================

ID_FUN = "fun id<T>(x: T): T {\n    return x\n}\n"


@pytest.mark.parametrize(
    "source, line, message",
    [
        ("val x = 1\nval y = x.foo()\n", 2, "Int has no member foo"),
        ("val x = 1\nval y = x.size\n", 2, "Int has no member size"),
        ("val x = mutableListOf<Int>()\nval y = x.foo()\n", 2, "MutableList has no method foo"),
        ("val x = mutableListOf<Int>()\nval y = x.size()\n", 2, "MutableList has no method size"),
        ("val x = mutableListOf<Int>()\nval y = x.foo\n", 2, "MutableList has no property foo"),
        ("val x = mutableListOf<Int>()\nval y = x.get\n", 2, "MutableList has no property get"),
        ("val x = mutableListOf<Int, String>()\n", 1, "mutableListOf expects 1 type argument(s)"),
        (ID_FUN + "val y = id<Int, Int>(1)\n", 4, "id expects 1 type argument(s)"),
        ("val x = ArrayList<Int, Int>()\n", 1, "ArrayList expects 1 type argument(s)"),
        ("val x = mutableListOf<Nope>()\n", 1, "unknown type Nope"),
        (ID_FUN + "val y = id<Nope>(1)\n", 4, "unknown type Nope"),
        ("val x = ArrayList<Nope>()\n", 1, "unknown type Nope"),
    ],
)
def test_member_and_type_argument_errors(check_source, source, line, message):
    _, diags = check_source(source)
    assert [(d.code, d.loc.line, d.loc.col, d.message) for d in diags] == [("E-TYPE", line, 9, message)]


@pytest.mark.parametrize(
    "source, rendered",
    [
        ("println(y)\n", "1:9: unknown name y"),
        ("f()\n", "1:1: unknown function f"),
        ("fun f(x: Int) {\n}\nf()\n", "3:1: f expects 1 argument(s), got 0"),
        ("class C {\n    fun m() {\n    }\n}\nC().m(1)\n", "5:1: C.m expects 0 argument(s), got 1"),
        ("fun f<T>() {\n}\nf()\n", "3:1: cannot infer type argument T for call to f"),
        ("fun f() {\n}\nf<Int>()\n", "3:1: f is not generic"),
        ("class C\nval c = C<Int>()\n", "2:9: C is not generic"),
        ("interface I\nval i = I()\n", "2:9: cannot instantiate interface I"),
        ("class C\nval c = C(1)\n", "2:9: constructor of C takes no arguments"),
        ("class G<T>\nval g = G()\n", "2:9: constructor of G needs explicit type arguments"),
        ("return 1\n", "1:1: return outside of a function"),
        ("val x = 1\nval x = 2\n", "2:1: redeclaration of x"),
    ],
)
def test_type_diagnostics(source, rendered):
    assert run_command("check", source, "t.mk") == (f"error E-TYPE t.mk:{rendered}\n", 1)


def test_an_index_read_without_a_get_is_a_missing_get():
    # `a[i]` is a call to `get`, so its errors are those of `a.get(i)`.
    source = "class Plain\nval p = Plain()\nprintln(p[0])\nval n = 1\nprintln(n[0])\n"
    expected = "error E-TYPE v.mk:3:9: Plain has no method get\nerror E-TYPE v.mk:5:9: Int has no member get\n"
    assert run_command("check", source, "v.mk") == (expected, 1)
