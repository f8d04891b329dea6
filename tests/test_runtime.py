from __future__ import annotations

import pytest

import differential
from conftest import call_deep
from minik import corpus, runtime
from minik.ast import ANY, CastExpr, ClassType, PrimitiveType, walk
from minik.cli import build, run_command
from minik.runtime import (
    ERASED,
    MAX_CALL_DEPTH,
    REIFIED,
    ClassCastException,
    Completed,
    ListValue,
    ObjectValue,
    RuntimeFault,
    StringValue,
    UNIT_VALUE,
    _Compiler,
    checkcast_sites,
    class_conforms,
    erased_instance_check,
    run_program,
)
from minik.typesys import Signature, build_class_table, program_bodies
from minik.parser import parse


def t(name: str, *args) -> ClassType:
    return ClassType(name, tuple(args))


def run_entry(entry_id: str, mode: str, eager: bool = False):
    entry = corpus.BY_ID[entry_id]
    checked, diags = build(entry.source(), entry.filename)
    assert checked is not None and checked.ok, [d.render() for d in diags]
    return run_program(checked, mode, eager_checkcast=eager)


def build_src(source: str, filename: str = "test.mk"):
    checked, diags = build(source, filename)
    assert checked is not None and checked.ok, [d.render() for d in diags]
    return checked


# ============================================================
# THE MAIN PROGRAM
# ============================================================


def test_erased_crash_happens_at_the_use_site():
    outcome = run_entry("P1", ERASED)
    assert isinstance(outcome, ClassCastException)
    assert (outcome.actual, outcome.expected) == ("B", "A")
    assert (outcome.loc.line, outcome.loc.col) == (17, 1)


def test_reified_crash_happens_at_the_downcast():
    outcome = run_entry("P1", REIFIED)
    assert isinstance(outcome, ClassCastException)
    assert outcome.actual == "MutableList<A>"
    assert outcome.expected == "MutableList<B>"
    assert outcome.loc.line == 12


def test_reified_crash_is_strictly_earlier_in_program_order():
    erased = run_entry("P1", ERASED)
    reified = run_entry("P1", REIFIED)
    assert (reified.loc.line, reified.loc.col) < (erased.loc.line, erased.loc.col)


def test_eager_checkcast_moves_the_crash_to_the_extraction():
    eager = run_entry("P1", ERASED, eager=True)
    lazy = run_entry("P1", ERASED)
    assert isinstance(eager, ClassCastException)
    assert eager.loc.line == 14  # the element read inside the return
    assert (eager.loc.line, eager.loc.col) < (lazy.loc.line, lazy.loc.col)


def test_printing_through_any_parameter_does_not_crash():
    src = corpus.BY_ID["P1"].source().replace("getA().secretMethod()", "println(getA())")
    checked = build_src(src, "P1println.mk")
    outcome = run_program(checked, ERASED)
    assert isinstance(outcome, Completed)
    assert outcome.stdout == "<B@2>\n"  # list is allocation 1, the B object 2


# ============================================================
# CHECKCAST SITES
# ============================================================


def sites_by_line(entry_id: str):
    entry = corpus.BY_ID[entry_id]
    checked, _ = build(entry.source(), entry.filename)
    return {(s.loc.line, s.reason) for s in checkcast_sites(checked)}


def test_declaration_sites_are_emitted():
    assert (20, "explicit-decl") in sites_by_line("P4.2")
    assert (20, "implicit-decl") in sites_by_line("P4.3")


def test_instance_checks_and_any_arguments_get_no_site():
    assert not any(line == 20 for line, _ in sites_by_line("P4.4"))
    assert not any(line == 20 for line, _ in sites_by_line("P4.5"))


def test_type_parameter_reads_are_not_rechecked_at_returns():
    entry = corpus.BY_ID["P1"]
    checked, _ = build(entry.source(), entry.filename)
    locs = {(s.loc.line, s.reason) for s in checkcast_sites(checked)}
    assert (14, "receiver") in locs  # the list.get receiver is verified
    assert (14, "return-value") not in locs  # the erased element is not
    assert (17, "receiver") in locs


def test_full_matrix_static_and_dynamic():
    for entry in corpus.ENTRIES:
        row = entry.matrix
        if row is None:
            continue
        checked, _ = build(entry.source(), entry.filename)
        placed = {
            (s.loc.line, s.reason) for s in checkcast_sites(checked) if s.loc.line == row.line
        }
        if row.site_reason is None:
            assert placed == set(), (entry.id, placed)
        else:
            assert (row.line, row.site_reason) in placed, (entry.id, placed)
        outcome = run_program(checked, ERASED)
        assert isinstance(outcome, ClassCastException) == row.crashes, entry.id


# ============================================================
# INSTANCE CHECKS AND ALIASING
# ============================================================


def test_erased_instance_check_ignores_type_arguments():
    table, _ = build_class_table(parse(""))
    strings = ListValue(ClassType("MutableList"), 1, [StringValue("x")])
    assert erased_instance_check(table, strings, t("List", PrimitiveType("Int")))


def test_erased_instance_check_uses_the_value_class():
    table, _ = build_class_table(parse("open class B\n\nclass A private constructor() : B()\n"))
    a_value = ObjectValue(ClassType("A"), 1)
    b_value = ObjectValue(ClassType("B"), 2)
    assert erased_instance_check(table, a_value, t("A"))
    assert erased_instance_check(table, a_value, t("B"))
    assert not erased_instance_check(table, b_value, t("A"))
    assert class_conforms(table, "A", "B")


def test_completed_outcome_carries_the_final_value():
    outcome = run_program(build_src("val n = 1\nprintln(n)\nn\n"), ERASED)
    assert isinstance(outcome, Completed)
    assert outcome.value is not None and outcome.value.value == 1


@pytest.mark.parametrize("mode, expected", [
    (ERASED, ClassType("MutableList")),  # erasure keeps the class alone
    (REIFIED, t("MutableList", t("A"))),
])
def test_a_value_carries_its_runtime_type(mode, expected):
    outcome = run_program(build_src("class A\n\nval l = mutableListOf<A>()\nl\n"), mode)
    assert isinstance(outcome, Completed)
    assert outcome.value.type == expected


# C sees B's `m`, the first up its ancestors, whose return type narrows I's.
DIAMOND = (
    "interface I {\n    fun m(): Any\n}\n\n"
    "open class B {\n    fun m(): String {\n        return \"B\"\n    }\n}\n\n"
    "class C : B(), I\n\n"
)


def test_checker_and_runtimes_see_the_same_inherited_member():
    _, diags = build(DIAMOND + "val s: String = C().m()\n", "test.mk")
    assert diags == []
    _, diags = build(DIAMOND + "val i: Int = C().m()\n", "test.mk")
    assert [d.code for d in diags] == ["E-TYPE"]
    checked = build_src(DIAMOND + "println(C().m())\n")
    for mode in (ERASED, REIFIED):
        assert run_program(checked, mode) == Completed("B\n", UNIT_VALUE)


def test_mutation_in_the_unsound_chain_is_shared():
    src = corpus.BY_ID["P1"].source().replace(
        "    return list[0]", "    println(list.size)\n    return list[0]"
    )
    checked, _ = build(src, "P1size.mk")
    outcome = run_program(checked, ERASED)
    # The add went through the downcast alias; the original list sees it.
    assert outcome.stdout == "1\n"


def test_mutation_is_visible_through_the_original_alias():
    src = (
        "open class B\n\n"
        "fun f() {\n"
        "    val original = mutableListOf<B>()\n"
        "    val alias: MutableList<B> = original\n"
        "    alias.add(B())\n"
        "    println(original.size)\n"
        "}\n\n"
        "f()\n"
    )
    outcome = run_program(build_src(src), ERASED)
    assert isinstance(outcome, Completed)
    assert outcome.stdout == "1\n"


def test_redundant_check_still_evaluates_to_false_after_mutation():
    src = corpus.BY_ID["P1"].source().replace(
        "    return list[0]", "    println(list[0] is A)\n    return list[0]"
    )
    checked, diags = build(src, "P1check.mk")
    assert checked is not None and checked.ok
    assert any(d.code == "W-REDUNDANT-IS" for d in diags)
    outcome = run_program(checked, ERASED)
    assert outcome.stdout == "false\n"
    assert isinstance(outcome, ClassCastException)


# ============================================================
# MODE RELATIONSHIPS
# ============================================================


def test_reified_never_completes_where_erased_crashes():
    for entry in corpus.ENTRIES:
        checked, diags = build(entry.source(), entry.filename)
        if checked is None or not checked.ok:
            continue
        erased = run_program(checked, ERASED)
        if isinstance(erased, ClassCastException):
            reified = run_program(checked, REIFIED)
            assert isinstance(reified, ClassCastException), entry.id


def test_reified_instance_check_compares_arguments():
    outcome = run_entry("P5", REIFIED)
    # The reified check answers false, the element is never added, and the
    # final read faults on the still-empty list.
    assert isinstance(outcome, RuntimeFault)
    assert "string" not in outcome.stdout


def test_erased_smart_cast_lets_the_string_through():
    outcome = run_entry("P5", ERASED)
    assert isinstance(outcome, Completed)
    assert outcome.stdout == "string\n"


def test_list_set_replaces_in_place():
    src = (
        "fun f() {\n"
        "    val l = mutableListOf<Int>()\n"
        "    l.add(1)\n"
        "    l.set(0, 2)\n"
        "    println(l[0])\n"
        "    println(l.size)\n"
        "}\n\n"
        "f()\n"
    )
    outcome = run_program(build_src(src), ERASED)
    assert isinstance(outcome, Completed)
    assert outcome.stdout == "2\n1\n"


def test_array_list_constructs_a_list_value():
    src = "val l = ArrayList<Int>()\nl.add(7)\nprintln(l[0])\n"
    outcome = run_program(build_src(src), ERASED)
    assert isinstance(outcome, Completed)
    assert outcome.stdout == "7\n"


def test_run_refuses_programs_with_errors():
    checked, diags = build(corpus.BY_ID["P3a"].source(), "P3a.mk")
    assert checked is not None and not checked.ok
    with pytest.raises(ValueError):
        run_program(checked, ERASED)


def test_run_rejects_an_unknown_mode():
    entry = corpus.BY_ID["P1"]
    checked = build_src(entry.source(), entry.filename)
    with pytest.raises(ValueError, match="unknown run mode"):
        run_program(checked, "bogus")


def test_reified_run_builds_no_site_index(monkeypatch):
    def no_index(checked):
        raise AssertionError("reified runs read no checkcast sites")

    outcome = run_entry("P5", REIFIED)
    monkeypatch.setattr("minik.runtime.compute_site_index", no_index)
    assert run_entry("P5", REIFIED) == outcome


GENERIC_METHOD = (
    "open class Box<T> {\n"
    "    fun id(x: T): T {\n"
    "        val y: T = x\n"
    "        return y\n"
    "    }\n"
    "    fun put(x: Any?): T {\n"
    "        return x as T\n"
    "    }\n"
    "}\n"
    "class IntBox : Box<Int>()\n"
    "println(Box<Int>().id(1))\n"
    "println(IntBox().id(2))\n"
    "val s: String = Box<String>().put(3)\n"
)


def test_reified_method_bodies_see_the_receivers_type_arguments():
    checked = build_src(GENERIC_METHOD)
    reified = run_program(checked, REIFIED)
    assert reified.stdout == "1\n2\n"
    assert isinstance(reified, ClassCastException)
    assert (reified.actual, reified.expected, reified.loc.line) == ("Int", "String", 7)
    # Erased, the cast to T checks nothing and reading T needs no site.
    assert run_program(checked, ERASED) == Completed("1\n2\n", UNIT_VALUE)


def test_erased_crashes_sit_at_a_cast_or_at_a_site_of_the_same_class():
    for entry in corpus.ENTRIES:
        checked, _ = build(entry.source(), entry.filename)
        if checked is None or not checked.ok:
            continue
        outcome = run_program(checked, ERASED)
        if not isinstance(outcome, ClassCastException):
            continue
        casts = {e.loc for body in program_bodies(checked.table, checked.program)
                 for e in walk(body.stmts) if isinstance(e, CastExpr)}
        sites = {(s.loc, s.expected_class) for s in checkcast_sites(checked)}
        assert outcome.loc in casts or (outcome.loc, outcome.expected) in sites, entry.id


# ============================================================
# WHERE THE HOLE ENDS, AND THE EVALUATOR'S LIMITS
# ============================================================

# The laundered list holds a String where its static type promises a
# Boolean (or an Int); the value reaches an `if` condition (or a list
# index) through an erased read that no checkcast site verifies.
HOLE = (
    "fun mk<T>(x: T): MutableList<T> {\n"
    "    val l = mutableListOf<T>()\n"
    "    l.add(x)\n"
    "    return l\n"
    "}\n"
    "class A\n"
    "val bl = mk(A() is A)\n"
    "val al: List<Any> = bl\n"
    "val ml = al as MutableList\n"
    'ml.add("str")\n'
    "if (bl.get(1)) {\n"
    '    println("then")\n'
    "}\n"
)
HOLE_AT_INDEX = HOLE.replace("mk(A() is A)", "mk(0)").replace(
    'if (bl.get(1)) {\n    println("then")\n}\n', "println(bl.get(bl.get(1)))\n"
)


@pytest.mark.parametrize("source, expected, loc", [
    (HOLE, "Boolean", (11, 5)),  # the condition
    (HOLE_AT_INDEX, "Int", (11, 16)),  # the index argument
], ids=["condition", "index"])
def test_unboxing_a_laundered_string_is_a_class_cast(source, expected, loc):
    checked = build_src(source)
    erased = run_program(checked, ERASED)
    assert isinstance(erased, ClassCastException) and erased.stdout == ""
    assert (erased.actual, erased.expected, (erased.loc.line, erased.loc.col)) == ("String", expected, loc)
    reified = run_program(checked, REIFIED)
    assert isinstance(reified, ClassCastException) and reified.stdout == ""
    assert (reified.expected, reified.loc.line) == ("MutableList<Any>", 9)  # the downcast


# P1 with the laundered element used directly as a receiver: `list[0]` and
# `list.get(0)` are deferred reads, so no val, return or argument site checks
# them, but the receiver site does. `same-name` gives B its own
# `secretMethod`, which an unchecked call would silently dispatch to.
RECEIVER_OF_A_READ = corpus.BY_ID["P1"].source().replace("fun getA(): A {", "fun getA() {").replace(
    "    return list[0]\n", "    list[0].secretMethod()\n").replace("getA().secretMethod()", "getA()")


@pytest.mark.parametrize("source", [
    RECEIVER_OF_A_READ,
    RECEIVER_OF_A_READ.replace("list[0].secretMethod()", "list.get(0).secretMethod()"),
    RECEIVER_OF_A_READ.replace("open class B\n", 'open class B {\n    fun secretMethod() {\n        println("B")\n    }\n}\n'),
], ids=["index", "get", "same-name"])
def test_a_deferred_read_used_as_a_receiver_is_checked_there(source):
    checked = build_src(source)
    call = next(s.loc for s in checkcast_sites(checked) if s.reason == "receiver" and s.expected_class == "A")
    assert source.splitlines()[call.line - 1].strip().endswith(".secretMethod()")
    outcome = run_program(checked, ERASED)
    assert isinstance(outcome, ClassCastException) and outcome.stdout == ""
    assert (outcome.actual, outcome.expected, outcome.loc) == ("B", "A", call)


USER_GET = "class R {\n    fun get(i: Int): Int {\n        return i\n    }\n}\nval r = R()\nprintln(r[5])\n"


def test_brackets_call_the_get_of_a_user_class():
    assert run_command("check", USER_GET, "v.mk") == ("", 0)
    assert run_command("lint", USER_GET, "v.mk") == ("", 0)
    assert run_command("sites", USER_GET, "v.mk") == (
        "v.mk:6:1 CHECKCAST R (implicit-decl)\nv.mk:7:9 CHECKCAST R (receiver)\n", 0)
    for mode in (ERASED, REIFIED):
        assert run_command("run", USER_GET, "v.mk", mode=mode) == ("5\ncompleted\n", 0)


def test_sites_refuse_programs_with_errors():
    checked, _ = build(corpus.BY_ID["P3a"].source(), "P3a.mk")
    assert checked is not None and not checked.ok
    with pytest.raises(ValueError):
        checkcast_sites(checked)


def test_object_properties_are_never_initialized():
    outcome = run_program(build_src("class C {\n    val p: Int\n}\nprintln(C().p)\n"), ERASED)
    assert isinstance(outcome, RuntimeFault)
    assert outcome.message == "property p was never initialized"
    assert (outcome.loc.line, outcome.loc.col) == (4, 9)


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
@pytest.mark.parametrize("source, loc", [
    ("fun f(x: Int): Int {\n    return f(x)\n}\nf(1)\n", (2, 12)),
    ("fun f(x: Int): Int {\n    return g(x)\n}\nfun g(x: Int): Int {\n    return f(x)\n}\nf(1)\n", (5, 12)),
], ids=["self", "mutual"])
def test_unbounded_recursion_faults_at_the_recursive_call(source, loc, mode):
    outcome = run_program(build_src(source), mode)
    assert isinstance(outcome, RuntimeFault)
    assert outcome.message == f"call depth exceeds {MAX_CALL_DEPTH}"
    assert (outcome.loc.line, outcome.loc.col) == loc


def chain(length: int) -> str:
    funs = "".join(f"fun f{i}(x: Int): Int {{\n    return f{i + 1}(x)\n}}\n" for i in range(length - 1))
    return funs + f"fun f{length - 1}(x: Int): Int {{\n    return x\n}}\nprintln(f0(7))\n"


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
@pytest.mark.parametrize("frames", [0, 800])
def test_a_call_chain_of_600_functions_completes(frames, mode):
    assert call_deep(frames, run_program, build_src(chain(600)), mode) == Completed("7\n", UNIT_VALUE)


def test_a_val_name_reused_across_branches_and_after_them():
    src = (
        "class A\n"
        "fun f(x: Any): Int {\n"
        "    if (x is A) {\n"
        "        val y = 1\n"
        "        println(y)\n"
        "    } else {\n"
        '        val y = "two"\n'
        "        println(y)\n"
        "    }\n"
        "    val y = 3\n"
        "    println(y)\n"
        "    return y\n"
        "}\n"
        "f(A())\n"
        'f("s")\n'
    )
    for mode in (ERASED, REIFIED):
        assert run_program(build_src(src), mode).stdout == "1\n3\ntwo\n3\n"


# ============================================================
# ONE VERDICT PER CHECK AND RUN
#
# Each run decides a check once per (runtime type, target) and reuses the
# verdict. These programs make one check site see keys that a wrong memo
# key would merge.
# ============================================================

LEAF_THEN_BASE = (
    "open class Base\n"
    "open class Mid : Base()\n"
    "class Leaf : Mid()\n"
    "fun narrow(x: Base): Base {\n"
    "    val c = x as Mid\n"
    "    val m: Base = c\n"
    "    return m\n"
    "}\n"
    "println(narrow(Leaf()))\n"
    "println(narrow(Base()))\n"
)


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_one_cast_site_decides_each_runtime_class_on_its_own(mode):
    outcome = run_program(build_src(LEAF_THEN_BASE), mode)
    assert outcome.stdout == "<Leaf@1>\n"
    assert outcome.render() == "ClassCastException: Base cannot be cast to Mid at test.mk:5:15"


# `Bad<out T>` fills MutableList's invariant slot with an `out` parameter,
# which `@UnsafeVariance` lets through the checker: a `Bad<Leaf>` passes as a
# `Bad<Base>`, so in `pass<Base>` the same argument check meets
# `MutableList<E>` as `MutableList<Base>` after it met it as
# `MutableList<Leaf>` in `pass<Leaf>`.
GENERIC_ARGUMENT_UNDER_TWO_BINDINGS = (
    "open class Base\n"
    "class Leaf : Base()\n"
    "class Bad<out T> : @UnsafeVariance MutableList<T>\n"
    "fun take<F>(l: MutableList<F>) {\n"
    "}\n"
    "fun pass<E>(b: Bad<E>) {\n"
    "    take(b)\n"
    "}\n"
    "val leaves = Bad<Leaf>()\n"
    "pass<Leaf>(leaves)\n"
    'println("first")\n'
    "pass<Base>(leaves)\n"
)


def test_a_generic_argument_check_is_decided_per_binding():
    checked = build_src(GENERIC_ARGUMENT_UNDER_TWO_BINDINGS)
    assert run_program(checked, ERASED) == Completed("first\n", UNIT_VALUE)
    outcome = run_program(checked, REIFIED)
    assert outcome.render() == "ClassCastException: Bad<Leaf> cannot be cast to MutableList<Base> at test.mk:7:10"
    assert outcome.stdout == "first\n"


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_verdicts_do_not_cross_between_programs(mode):
    # The same class names, with B below A in one program and not in the other.
    use = "val x: Any = B()\nval y = x as A\nprintln(\"cast\")\n"
    below = (build_src("open class A\nclass B : A()\n" + use), "cast\n", "completed")
    apart = (build_src("open class A\nclass B\n" + use), "", "ClassCastException: B cannot be cast to A at test.mk:4:11")
    for order in ((below, apart), (apart, below)):
        for checked, stdout, rendered in order:
            outcome = run_program(checked, mode)
            assert (outcome.stdout, outcome.render()) == (stdout, rendered)


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_one_is_site_gives_true_then_false(mode):
    src = (
        "open class A\n"
        "class B : A()\n"
        "fun show(x: Any) {\n"
        "    println(x is B)\n"
        "}\n"
        "show(B())\n"
        "show(A())\n"
        "show(B())\n"
    )
    assert run_program(build_src(src), mode).stdout == "true\nfalse\ntrue\n"


def test_a_reified_check_of_a_200_deep_type_argument_completes():
    depth = 200
    inner = "List<" * depth + "Int" + ">" * depth
    src = f"val x: List<{inner}> = mutableListOf<{inner}>()\nprintln(x.size)\n"
    for mode in (ERASED, REIFIED):
        assert run_program(build_src(src), mode) == Completed("0\n", UNIT_VALUE)


# ============================================================
# CHECKS ON THEIR LOAD, FUSED `is` BRANCHES AND CALLS
#
# The checks on a variable's value run inside its `load`, an `if (v is T)`
# tests and branches in one operation, and a call moves its arguments off
# the stack into the callee's names. These programs pin what each of those
# must keep: every check's own location and classes, and each argument
# bound to its own parameter.
# ============================================================

CAST_THEN_DECL = (
    "open class Base\n"
    "class Leaf : Base()\n"
    "class Bad<out T> : @UnsafeVariance MutableList<T>\n"
    "fun narrow(x: Base) {\n"
    "    val c = x as Leaf\n"
    '    println("narrowed")\n'
    "}\n"
    "fun widen(b: Any) {\n"
    "    val c: MutableList<Base> = b as Bad<Base>\n"
    '    println("widened")\n'
    "}\n"
)


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_a_failing_cast_on_a_load_names_the_cast(mode):
    outcome = run_program(build_src(CAST_THEN_DECL + "narrow(Leaf())\nnarrow(Base())\n"), mode)
    assert outcome.stdout == "narrowed\n"
    assert outcome.render() == "ClassCastException: Base cannot be cast to Leaf at test.mk:5:15"


def test_a_passing_cast_then_a_failing_declaration_on_one_load():
    # `Bad<Leaf>` passes the cast to `Bad<Base>` (T is `out`) but is no
    # `MutableList<Base>`: the second check on the load of `b` fails, at the
    # declaration. Erased, both checks are class checks, and both pass.
    checked = build_src(CAST_THEN_DECL + "widen(Bad<Leaf>())\n")
    assert run_program(checked, ERASED) == Completed("widened\n", UNIT_VALUE)
    outcome = run_program(checked, REIFIED)
    assert outcome.stdout == ""
    assert outcome.render() == "ClassCastException: Bad<Leaf> cannot be cast to MutableList<Base> at test.mk:9:5"


def test_checks_on_a_load_substitute_the_type_bindings():
    src = (
        "open class Base\n"
        "class Leaf : Base()\n"
        "class Bad<out T> : @UnsafeVariance MutableList<T>\n"
        "fun pass<E>(b: Any) {\n"
        "    val c: MutableList<E> = b as Bad<E>\n"
        '    println("passed")\n'
        "}\n"
        "val leaves = Bad<Leaf>()\n"
        "pass<Leaf>(leaves)\n"
        "pass<Base>(leaves)\n"
    )
    checked = build_src(src)
    assert run_program(checked, ERASED) == Completed("passed\npassed\n", UNIT_VALUE)
    outcome = run_program(checked, REIFIED)
    assert outcome.stdout == "passed\n"
    assert outcome.render() == "ClassCastException: Bad<Leaf> cannot be cast to MutableList<Base> at test.mk:5:5"


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_an_is_branch_takes_either_arm(mode):
    src = (
        "open class A\n"
        "class B : A()\n"
        "fun show(x: A) {\n"
        "    if (x is B) {\n"
        '        println("then")\n'
        "    } else {\n"
        '        println("else")\n'
        "    }\n"
        '    println("after")\n'
        "}\n"
        "show(A())\n"
        "show(B())\n"
        "show(A())\n"
    )
    assert run_program(build_src(src), mode).stdout == "else\nafter\nthen\nafter\nelse\nafter\n"


def test_a_laundered_value_read_from_a_val_fails_at_the_condition():
    # The deferred read leaves `flag` unchecked, so its `load` carries no
    # check, and the String is unboxed at the `if`.
    source = HOLE.replace("if (bl.get(1)) {", "val flag = bl.get(1)\nif (flag) {")
    checked = build_src(source)
    erased = run_program(checked, ERASED)
    assert erased.render() == "ClassCastException: String cannot be cast to Boolean at test.mk:12:5"
    reified = run_program(checked, REIFIED)
    assert (reified.expected, reified.loc.line) == ("MutableList<Any>", 9)


ARITIES = (
    "class K {\n"
    "    fun none(): Int {\n"
    "        return 0\n"
    "    }\n"
    "    fun one(a: Int): Int {\n"
    "        return a\n"
    "    }\n"
    "    fun three(a: Int, b: String, c: Int): Int {\n"
    "        println(a)\n"
    "        println(b)\n"
    "        println(c)\n"
    "        return c\n"
    "    }\n"
    "}\n"
    "fun none(): Int {\n"
    "    return 10\n"
    "}\n"
    "fun one(a: Int): Int {\n"
    "    return a\n"
    "}\n"
    "fun three(a: Int, b: String, c: Int): Int {\n"
    "    println(a)\n"
    "    println(b)\n"
    "    println(c)\n"
    "    return a\n"
    "}\n"
    "println(none())\n"
    "println(one(11))\n"
    'println(three(12, "thirteen", 14))\n'
    "val k = K()\n"
    "println(k.none())\n"
    "println(k.one(1))\n"
    'println(k.three(2, "three", 4))\n'
)


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_calls_bind_each_argument_to_its_own_parameter(mode):
    expected = "10\n11\n12\nthirteen\n14\n12\n0\n1\n2\nthree\n4\n4\n"
    assert run_program(build_src(ARITIES), mode).stdout == expected


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_a_repeated_parameter_name_is_a_table_error(mode):
    # Kotlin rejects two parameters with one name as conflicting
    # declarations, so neither run starts: the class table reports the
    # second parameter, of a method as of a function.
    src = (
        "class K {\n"
        "    fun twice(y: Int, y: Int): Int {\n"
        "        return y\n"
        "    }\n"
        "}\n"
        "fun twice(x: Int, x: Int): Int {\n"
        "    return x\n"
        "}\n"
        "println(twice(5, 6))\n"
        "println(K().twice(7, 8))\n"
    )
    assert run_command("run", src, "t.mk", mode=mode) == (
        "error E-TABLE t.mk:2:23: duplicate parameter K.twice.y\n"
        "error E-TABLE t.mk:6:19: duplicate parameter twice.x\n",
        1,
    )


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_a_redeclared_method_of_another_arity_is_a_table_error(mode):
    # `a.m(1)` would be checked against A's `m` but dispatch to B's, which
    # declares one parameter more (`n`: two fewer). miniK has no
    # overloading, so the class table rejects both redeclarations, and
    # neither run starts.
    src = (
        "open class A {\n"
        "    fun m(x: Int): Int {\n"
        "        return x\n"
        "    }\n"
        "    fun n(x: Int, y: Int): Int {\n"
        "        return y\n"
        "    }\n"
        "}\n"
        "class B : A() {\n"
        "    fun m(x: Int, y: Int): Int {\n"
        "        return x\n"
        "    }\n"
        "    fun n(): Int {\n"
        "        return 7\n"
        "    }\n"
        "}\n"
        "val a: A = B()\n"
        "println(a.m(1))\n"
        "println(a.n(2, 3))\n"
    )
    assert run_command("run", src, "t.mk", mode=mode) == (
        "error E-TABLE t.mk:10:5: B.m redeclares A.m with 2 parameter(s) instead of 1\n"
        "error E-TABLE t.mk:13:5: B.n redeclares A.n with 0 parameter(s) instead of 2\n",
        1,
    )


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_a_covariant_return_redeclaration_checks_and_dispatches(mode):
    # B's `make` narrows A's return type, which Kotlin allows: a call
    # through A is checked against A's `make` and runs B's, and a call on a
    # B gets the narrower type.
    src = (
        "open class A {\n"
        "    fun make(x: Int): A {\n"
        "        println(x)\n"
        "        return A()\n"
        "    }\n"
        "}\n"
        "class B : A() {\n"
        "    fun make(x: Int): B {\n"
        "        println(\"B\")\n"
        "        return B()\n"
        "    }\n"
        "}\n"
        "val a: A = B()\n"
        "val made: A = a.make(1)\n"
        "println(made)\n"
        "val b: B = B().make(10)\n"
        "println(b)\n"
        "println(A().make(20))\n"
    )
    assert run_command("check", src, "t.mk") == ("", 0)
    assert run_program(build_src(src), mode) == Completed("B\n<B@2>\nB\n<B@4>\n20\n<A@6>\n", UNIT_VALUE)


def test_a_generic_function_passes_its_bindings_to_a_generic_callee():
    src = (
        "open class Base\n"
        "class Leaf : Base()\n"
        "fun inner<T>(x: Any): T {\n"
        "    return x as T\n"
        "}\n"
        "fun outer<U>(x: Any): U {\n"
        "    return inner<U>(x)\n"
        "}\n"
        "println(outer<Leaf>(Leaf()))\n"
        "println(outer<Base>(Leaf()))\n"
        "println(outer<Leaf>(Base()))\n"
    )
    checked = build_src(src)
    assert run_program(checked, ERASED).stdout == "<Leaf@1>\n<Leaf@2>\n<Base@3>\n"
    outcome = run_program(checked, REIFIED)
    assert outcome.stdout == "<Leaf@1>\n<Leaf@2>\n"
    assert outcome.render() == "ClassCastException: Base cannot be cast to Leaf at test.mk:4:14"


# ============================================================
# ONE DISPATCH PER RECEIVER TYPE, METHOD AND RUN
# ============================================================


def test_each_instantiation_of_a_generic_receiver_gets_its_own_bindings():
    # `keep` checks its argument against T. A dispatch decided for `Box<Leaf>`
    # and reused for `Box<Base>` would make the second call fail.
    src = (
        "open class Base\n"
        "class Leaf : Base()\n"
        "class Box<T> {\n"
        "    fun keep(x: Any): T {\n"
        "        val t = x as T\n"
        "        return t\n"
        "    }\n"
        "}\n"
        "val leaves = Box<Leaf>()\n"
        "val bases = Box<Base>()\n"
        "println(leaves.keep(Leaf()))\n"
        "println(bases.keep(Base()))\n"
        "println(leaves.keep(Base()))\n"
    )
    checked = build_src(src)
    assert run_program(checked, ERASED).stdout == "<Leaf@3>\n<Base@4>\n<Base@5>\n"
    outcome = run_program(checked, REIFIED)
    assert outcome.stdout == "<Leaf@3>\n<Base@4>\n"
    assert outcome.render() == "ClassCastException: Base cannot be cast to Leaf at test.mk:5:19"


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_dispatch_does_not_cross_between_programs(mode):
    # The same class names: B inherits A's `m` in one program and declares
    # its own in the other.
    a = 'open class A {\n    fun m() {\n        println("A")\n    }\n}\n'
    use = "val x: A = A()\nx.m()\nB().m()\n"
    inherits = (build_src(a + "class B : A()\n" + use), "A\nA\n")
    overrides = (build_src(a + 'class B {\n    fun m() {\n        println("B")\n    }\n}\n' + use), "A\nB\n")
    for order in ((inherits, overrides), (overrides, inherits)):
        for checked, stdout in order:
            assert run_program(checked, mode) == Completed(stdout, UNIT_VALUE)


# ============================================================
# SITE CACHES AND DROPPED RESULTS
#
# A `load` with checks, an `is` test and a method call each keep what they
# settled by the value's runtime type, and a call statement drops its value
# when the callee returns. These programs make one site see a class, then
# another, then the first again, and leave pending arguments on the stack
# under calls whose values are dropped.
# ============================================================

ONE_SITE_THREE_CLASSES = (
    "open class Base {\n"
    "    fun name(): String {\n"
    '        return "base"\n'
    "    }\n"
    "}\n"
    "open class Mid : Base()\n"
    "class Leaf : Mid()\n"
    "class Other : Mid() {\n"
    "    fun name(): String {\n"
    '        return "other"\n'
    "    }\n"
    "}\n"
    "fun narrow(x: Any) {\n"
    "    val c: Base = x as Mid\n"
    "    println(c.name())\n"
    "    if (x is Leaf) {\n"
    '        println("leaf")\n'
    "    }\n"
    "}\n"
    "narrow(Leaf())\n"
    "narrow(Other())\n"
    "narrow(Leaf())\n"
    "narrow(Base())\n"
)


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_one_site_sees_a_class_then_another_then_the_first_again(mode):
    # The load of `x` carries the cast's check and the declaration's. The
    # last call's `Base` fails the first, at the cast, so the run ends there.
    outcome = run_program(build_src(ONE_SITE_THREE_CLASSES), mode)
    assert outcome.stdout == "base\nleaf\nother\nbase\nleaf\n"
    assert outcome.render() == "ClassCastException: Base cannot be cast to Mid at test.mk:14:21"


def test_a_generic_bodys_sites_decide_under_each_binding():
    # Under `T = Base` a `Base` passes the cast and is a `MutableList<T>`
    # when it is one; under `T = Leaf` the same runtime types give the other
    # verdicts. Erased, `T` has no class to check.
    src = (
        "open class Base\n"
        "class Leaf : Base()\n"
        "fun keep<T>(x: Any, l: Any) {\n"
        "    println(l is MutableList<T>)\n"
        "    if (l is MutableList<T>) {\n"
        '        println("list")\n'
        "    }\n"
        "    val t = x as T\n"
        "}\n"
        "val bases = mutableListOf<Base>()\n"
        "keep<Base>(Base(), bases)\n"
        "keep<Leaf>(Base(), bases)\n"
    )
    checked = build_src(src)
    assert run_program(checked, ERASED) == Completed("true\nlist\ntrue\nlist\n", UNIT_VALUE)
    outcome = run_program(checked, REIFIED)
    assert outcome.stdout == "true\nlist\nfalse\n"
    assert outcome.render() == "ClassCastException: Base cannot be cast to Leaf at test.mk:8:15"


def generic_call_tree(levels: int) -> str:
    """`f<T>` reads and tests its arguments against `T` only, and `g<T>`
    returns an `is` test; `c{levels}` calls `f` 2^levels times, and the top
    level calls it under `T = Base` and under `T = Leaf`. Every other check
    is against `Any`."""
    src = (
        "open class Base\n"
        "class Leaf : Base()\n"
        "fun g<T>(l: Any): Any {\n"
        "    return l is MutableList<T>\n"
        "}\n"
        "fun f<T>(x: Any, l: Any) {\n"
        "    val t = x as T\n"
        "    if (l is MutableList<T>) {\n"
        "        val u = l as MutableList<T>\n"
        "    }\n"
        "    g<T>(l)\n"
        "}\n"
        "fun c0<T>(x: Any, l: Any) {\n"
        "    f<T>(x, l)\n"
        "}\n"
    )
    for k in range(1, levels + 1):
        src += f"fun c{k}<T>(x: Any, l: Any) {{\n    c{k - 1}<T>(x, l)\n    c{k - 1}<T>(x, l)\n}}\n"
    return src + f"val x: Any = Leaf()\nval l: Any = mutableListOf<Leaf>()\nc{levels}<Base>(x, l)\nc{levels}<Leaf>(x, l)\n"


def test_a_reified_generic_body_decides_each_check_once_per_instantiation(monkeypatch):
    # Each instantiation of `f` and `g` has its own code, so its reads and
    # `is` tests keep their site caches: 2 calls of `f` and 64 decide the
    # same 10 checks against `T`'s bindings (2 + 2 under `Base`, where the
    # branch is not taken, and 2 + 4 under `Leaf`).
    decided = {}
    for levels in (0, 5):
        targets = []

        def counted(table, s, t, subtype=runtime.subtype):
            if t is not ANY:
                targets.append(t.render())
            return subtype(table, s, t)

        monkeypatch.setattr(runtime, "subtype", counted)
        assert run_program(build_src(generic_call_tree(levels)), REIFIED) == Completed("", UNIT_VALUE)
        monkeypatch.undo()
        decided[levels] = sorted(targets)
    assert decided[0] == decided[5]
    assert len(decided[5]) == 10


DROPPED_RESULTS = (
    "class K {\n"
    "    fun touch(x: Int): Int {\n"
    "        println(x)\n"
    "        return x\n"
    "    }\n"
    "}\n"
    "fun side(x: Int): Int {\n"
    "    println(x)\n"
    "    return x\n"
    "}\n"
    "fun pair(a: Int, b: Int): Int {\n"
    "    println(a)\n"
    "    return b\n"
    "}\n"
    "fun inner(k: K): Int {\n"
    "    side(1)\n"
    "    k.touch(2)\n"
    "    if (k is K) {\n"
    "        side(3)\n"
    "        k.touch(4)\n"
    "    }\n"
    "    side(side(5))\n"
    "    return side(6)\n"
    "}\n"
    "fun outer(k: K, list: MutableList<Int>) {\n"
    "    pair(100, inner(k))\n"
    "    list.add(7)\n"
    "    k.touch(pair(200, inner(k)))\n"
    "    side(8)\n"
    "}\n"
    "fun wrap(k: K, list: MutableList<Int>): Int {\n"
    "    outer(k, list)\n"
    "    return 9\n"
    "}\n"
    "val list = mutableListOf<Int>()\n"
    "println(pair(300, wrap(K(), list)))\n"
    "println(list.size)\n"
)


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_dropped_call_results_leave_the_stack_balanced(mode):
    # Each call below a pending argument drops exactly its own value, in a
    # branch, nested and as a body's last statement, so every pending
    # argument reaches its own parameter.
    inner = "1\n2\n3\n4\n5\n5\n6\n"
    expected = inner + "100\n" + inner + "200\n6\n8\n300\n9\n1\n"
    outcome = run_program(build_src(DROPPED_RESULTS), mode)
    assert outcome == Completed(expected, UNIT_VALUE)


def test_listing_the_sites_allocates_no_site_cache():
    # Every body compiled for `sites` has its cache fields empty; a run's
    # compile of the same body has them. An operation's second field names
    # the variable it reads, and a read with checks keeps its cache in the
    # fourth, on a `load` and on each operation that reads for itself.
    checked = build_src(ONE_SITE_THREE_CLASSES + DROPPED_RESULTS.replace("class K", "class J").replace("K", "J"))
    for sites, expect_cache in (([], False), (None, True)):
        compiler = _Compiler(checked, ERASED, eager=False, sites=sites)
        ops = [op for body in program_bodies(checked.table, checked.program)
               for op in compiler.body(body.stmts, body.return_type)]
        reads = [op for op in ops if op[1] is not None and op[2]]
        assert {op[0] for op in reads} >= {"store", "call"}  # `val c: Base = x as Mid`, `outer(k, list)`
        caches = [op[3] for op in reads]
        caches += [op[-1] for op in ops if op[0] in ("is", "branch_is")]
        caches += [op[8] for op in ops if op[0] == "method"]
        assert len(caches) > 10
        assert all((c is not None) == expect_cache for c in caches)
        # Only a `println` statement still pops; the 14 call statements,
        # `list.add(7)` among them, drop their own values.
        assert ("pop", None) in ops
        assert sum(op[-1] is True for op in ops if op[0] in ("call", "method")) == 14


# ============================================================
# READS FOLDED INTO THE OPERATION THAT CONSUMES THEM
# ============================================================

# Each program reads a variable where a `val` copies it, a `return` returns
# it, a call takes it as its last argument and an `if (v as T is U)` tests
# it, so the read's checks run inside that operation, not in a `load`.
# `f` runs with values that pass before one that fails. The outcomes are
# those of the runtime that ran each read as a `load` of its own.
_CAST_HEAD = (
    "open class A {\n"
    "    fun name(): String {\n"
    '        return "A"\n'
    "    }\n"
    "}\n"
    "class Leaf : A()\n"
    "class B\n"
    "fun take(a: A) {\n"
    "    println(a.name())\n"
    "}\n"
)
_CAST_TAIL = "f(Leaf())\nf(A())\nf(B())\nf(A())\n"

# P1's chain launders a `B` into a `MutableList<A>`; its reads are
# deferred, so the erased run fails where the variable holding it is
# copied, returned or passed with a class check. Reified, the chain's
# downcast fails first.
_LAUNDER_HEAD = (
    "open class B\n"
    "class A : B() {\n"
    "    fun name(): String {\n"
    '        return "A"\n'
    "    }\n"
    "}\n"
    "fun take(a: A) {\n"
    "    println(a.name())\n"
    "}\n"
    "fun launder(list: MutableList<A>) {\n"
    "    val upcast: List<A> = list\n"
    "    val covariance: List<B> = upcast\n"
    "    val downcast: MutableList<B> = covariance as MutableList\n"
    "    downcast.add(B())\n"
    "}\n"
)
_LAUNDER_TAIL = "val list = mutableListOf<A>()\nlist.add(A())\nlaunder(list)\nf(list, 0)\nf(list, 1)\n"
_LAUNDER_REIFIED = ("", "ClassCastException: MutableList<A> cannot be cast to MutableList<B> at t.mk:13:47")

# A reified generic body checks against its bindings, so its reads skip the
# site caches: the `Base` that passed under `T = Base` fails under
# `T = Leaf`. Erased, `T` has no class to check.
_GENERIC_HEAD = "open class Base\nclass Leaf : Base()\nfun sink(x: Any?) {\n    println(\"sunk\")\n}\n"
_GENERIC_TAIL = "f<Base>(Base())\nf<Base>(Leaf())\nf<Leaf>(Leaf())\nf<Leaf>(Base())\n"

# (source, the kind of the operation that holds the failing check, its
# location, {mode: (stdout, outcome)})
FUSED_READS = {
    "cast-copy": (
        _CAST_HEAD + "fun f(x: Any) {\n    val y = x as A\n    println(y.name())\n}\n" + _CAST_TAIL,
        "store", (12, 15), {mode: ("A\nA\n", "ClassCastException: B cannot be cast to A at t.mk:12:15")
                            for mode in (ERASED, REIFIED)}),
    "cast-return": (
        _CAST_HEAD + "fun g(x: Any): A {\n    return x as A\n}\nfun f(x: Any) {\n    println(g(x).name())\n}\n"
        + _CAST_TAIL,
        "return", (12, 14), {mode: ("A\nA\n", "ClassCastException: B cannot be cast to A at t.mk:12:14")
                             for mode in (ERASED, REIFIED)}),
    "cast-argument": (
        _CAST_HEAD + "fun f(x: Any) {\n    take(x as A)\n}\n" + _CAST_TAIL,
        "call", (12, 12), {mode: ("A\nA\n", "ClassCastException: B cannot be cast to A at t.mk:12:12")
                           for mode in (ERASED, REIFIED)}),
    "cast-is-branch": (
        _CAST_HEAD + 'fun f(x: Any) {\n    if (x as A is Leaf) {\n        println("leaf")\n    } else {\n'
        '        println("other")\n    }\n}\n' + _CAST_TAIL,
        "branch_is", (12, 11), {mode: ("leaf\nother\n", "ClassCastException: B cannot be cast to A at t.mk:12:11")
                                for mode in (ERASED, REIFIED)}),
    "launder-copy": (
        _LAUNDER_HEAD + "fun f(list: MutableList<A>, i: Int) {\n    val e = list[i]\n    val c: A = e\n"
        "    println(c.name())\n}\n" + _LAUNDER_TAIL,
        "store", (18, 5), {ERASED: ("A\n", "ClassCastException: B cannot be cast to A at t.mk:18:5"),
                           REIFIED: _LAUNDER_REIFIED}),
    "launder-return": (
        _LAUNDER_HEAD + "fun g(list: MutableList<A>, i: Int): A {\n    val e = list[i]\n    return e\n}\n"
        "fun f(list: MutableList<A>, i: Int) {\n    println(g(list, i).name())\n}\n" + _LAUNDER_TAIL,
        "return", (18, 5), {ERASED: ("A\n", "ClassCastException: B cannot be cast to A at t.mk:18:5"),
                            REIFIED: _LAUNDER_REIFIED}),
    "launder-argument": (
        _LAUNDER_HEAD + "fun f(list: MutableList<A>, i: Int) {\n    val e = list[i]\n    take(e)\n}\n" + _LAUNDER_TAIL,
        "call", (18, 10), {ERASED: ("A\n", "ClassCastException: B cannot be cast to A at t.mk:18:10"),
                           REIFIED: _LAUNDER_REIFIED}),
    "launder-is-branch": (
        _LAUNDER_HEAD + "fun f(list: MutableList<A>, i: Int) {\n    val e = list[i]\n    if (e as A is A) {\n"
        '        println("A")\n    }\n}\n' + _LAUNDER_TAIL,
        "branch_is", (18, 11), {ERASED: ("A\n", "ClassCastException: B cannot be cast to A at t.mk:18:11"),
                                REIFIED: _LAUNDER_REIFIED}),
    "generic-copy": (
        _GENERIC_HEAD + 'fun f<T>(x: Any) {\n    val t = x as T\n    println("kept")\n}\n' + _GENERIC_TAIL,
        "store", (7, 15), {ERASED: ("kept\n" * 4, "completed"),
                           REIFIED: ("kept\n" * 3, "ClassCastException: Base cannot be cast to Leaf at t.mk:7:15")}),
    "generic-return": (
        _GENERIC_HEAD + "fun g<T>(x: Any): T {\n    return x as T\n}\nfun f<T>(x: Any) {\n    println(g<T>(x))\n}\n"
        + _GENERIC_TAIL,
        "return", (7, 14), {ERASED: ("<Base@1>\n<Leaf@2>\n<Leaf@3>\n<Base@4>\n", "completed"),
                            REIFIED: ("<Base@1>\n<Leaf@2>\n<Leaf@3>\n",
                                      "ClassCastException: Base cannot be cast to Leaf at t.mk:7:14")}),
    "generic-argument": (
        _GENERIC_HEAD + "fun f<T>(x: Any) {\n    sink(x as T)\n}\n" + _GENERIC_TAIL,
        "call", (7, 12), {ERASED: ("sunk\n" * 4, "completed"),
                          REIFIED: ("sunk\n" * 3, "ClassCastException: Base cannot be cast to Leaf at t.mk:7:12")}),
    "generic-is-branch": (
        _GENERIC_HEAD + 'fun f<T>(x: Any) {\n    if (x as T is Leaf) {\n        println("leaf")\n    } else {\n'
        '        println("base")\n    }\n}\n' + _GENERIC_TAIL,
        "branch_is", (7, 11), {ERASED: ("base\nleaf\nleaf\nbase\n", "completed"),
                               REIFIED: ("base\nleaf\nleaf\n",
                                         "ClassCastException: Base cannot be cast to Leaf at t.mk:7:11")}),
}


def _compiled(checked, mode: str, eager: bool = False) -> list[tuple]:
    compiler = _Compiler(checked, mode, eager)
    return [op for body in program_bodies(checked.table, checked.program)
            for op in compiler.body(body.stmts, body.return_type)]


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
@pytest.mark.parametrize("case", sorted(FUSED_READS))
def test_a_read_folded_into_its_consumer_fails_where_its_load_did(case, mode):
    source, kind, loc, expected = FUSED_READS[case]
    checked = build_src(source, "t.mk")
    outcome = run_program(checked, mode)
    assert (outcome.stdout, outcome.render()) == expected[mode]
    # Where the run fails at the folded read, the failing check rides on the
    # consuming operation, which reads the variable itself.
    if outcome.render().endswith(f" at t.mk:{loc[0]}:{loc[1]}"):
        holders = {op[0] for op in _compiled(checked, mode)
                   if op[1] is not None for _, at in op[2] if (at.line, at.col) == loc}
        assert holders == {kind}


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_deep_recursion_through_a_checked_argument_faults_at_the_call(mode):
    # `x` is checked against `A` at 3:17 inside the call; the depth fault
    # is reported at the call, 3:12.
    checked = build_src("open class A\nfun down(x: A): Int {\n    return down(x)\n}\ndown(A())\n", "t.mk")
    assert any(op[0] == "call" and op[2] for op in _compiled(checked, mode))
    outcome = run_program(checked, mode)
    assert outcome.render() == f"RuntimeFault: call depth exceeds {MAX_CALL_DEPTH} at t.mk:3:12"


def _bodies_in_every_compile():
    """Every compiled body of the corpus and of small generated `launder`
    and `calltree` programs, in every mode."""
    gen = differential._load_gen()
    sources = [(e.filename, e.source()) for e in corpus.ENTRIES]
    sources += [(g.filename, g.source) for g in (gen.launder(1, functions=3), gen.calltree(1, levels=4))]
    for filename, source in sources:
        checked, _ = build(source, filename)
        if checked is None or not checked.ok:
            continue
        for mode, eager in ((ERASED, False), (ERASED, True), (REIFIED, False)):
            compiler = _Compiler(checked, mode, eager)
            for body in program_bodies(checked.table, checked.program):
                yield filename, compiler.body(body.stmts, body.return_type)


def test_no_load_is_left_for_an_operation_that_reads_for_itself():
    # A `store`, `return`, `if (v is T)` or method call without arguments
    # never follows a `load`, and a call follows one only when the load is
    # another argument: the call then reads its last argument itself (an
    # operation's second field is the variable it reads), or takes none
    # (the load belongs to an enclosing call). A call's signature is found
    # by its type.
    seen = receivers = 0
    for filename, code in _bodies_in_every_compile():
        for op, after in zip(code, code[1:]):
            receivers += after[0] == "method" and after[1] is not None
            if op[0] != "load":
                continue
            assert after[0] not in ("store", "return", "branch_is"), (filename, op, after)
            assert not (after[0] == "method" and after[4] == 0), (filename, op, after)
            if after[0] == "call" and after[1] is None:
                (sig,) = [f for f in after if isinstance(f, Signature)]
                assert not sig.param_names, (filename, op, after)
        seen += 1
    assert seen > 100 and receivers > 5


# ============================================================
# BODIES END IN ONE OPERATION
#
# A `return` carries the constant a `const` would have pushed, a jump that
# lands on a `return` is that `return`, and a method call without
# arguments reads its receiver itself.
# ============================================================


def test_no_jump_lands_on_a_return_or_a_jump():
    jumps = threaded = 0
    for filename, code in _bodies_in_every_compile():
        for op in code:
            if op[0] == "jump":
                jumps += 1
                assert code[op[2]][0] not in ("return", "jump"), (filename, op, code[op[2]])
        # A threaded jump is the very `return` it landed on, with its cache.
        returns = [op for op in code if op[0] == "return"]
        threaded += len(returns) - len({id(op) for op in returns})
    assert jumps > 5 and threaded > 10


def test_a_body_ends_in_one_return_of_unit_and_no_const_precedes_a_return():
    for filename, code in _bodies_in_every_compile():
        assert code[-1] == ("return", None, (), None, UNIT_VALUE), filename
        for op, after in zip(code, code[1:]):
            assert not (op[0] == "const" and after[0] == "return"), (filename, op, after)


def _path(code: list[tuple], taken: bool) -> list[str]:
    """The kinds of the operations one call of `code` runs, up to its first
    `return`, with every `if (v is T)` taken, or every one not taken."""
    kinds, pc = [], 0
    while True:
        op = code[pc]
        kinds.append(op[0])
        if op[0] == "return":
            return kinds
        pc = op[2] if op[0] == "jump" else op[5] if op[0] == "branch_is" and not taken else pc + 1


@pytest.mark.parametrize("mode", [ERASED, REIFIED])
def test_a_calltree_call_runs_six_operations_and_a_leaf_five(mode):
    g = differential._load_gen().calltree(1, levels=3)
    checked = build_src(g.source, g.filename)
    compiler = _Compiler(checked, mode, False)
    codes = {body.decl.name: compiler.body(body.stmts, body.return_type)
             for body in program_bodies(checked.table, checked.program) if body.decl is not None}
    for taken in (True, False):
        assert _path(codes["n0"], taken) == ["store", "store", "branch_is", "call", "call", "return"]
        assert _path(codes["n2"], taken) == ["store", "store", "branch_is", "method", "return"]
    (method,) = [name for name in codes if name not in ("n0", "n1", "n2", "same", "spare")]
    assert codes[method] == [("return", None, (), None, UNIT_VALUE)]
    # The leaf's method call reads its receiver, with the receiver's check.
    (call,) = [op for op in codes["n2"] if op[0] == "method" and op[1] == "m"]
    assert [at.col for _, at in call[2]] == [9]
