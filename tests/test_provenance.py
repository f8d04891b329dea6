from __future__ import annotations

import differential
from minik import corpus
from minik.ast import CastExpr, ClassType, FunDecl, VarRef, walk
from minik.checker import CastClassification, classify_cast_baseline
from minik.cli import build, run_command
from minik.diagnostics import warning
from minik.provenance import compute_provenance, lint_function, lint_program
from minik.typesys import ClassTable, program_bodies

from conftest import codes

AB = "open class B\n\nclass A private constructor() : B()\n"


def t(name: str, *args) -> ClassType:
    return ClassType(name, tuple(args))


def fun_body(checked, name: str):
    for d in checked.program.decls:
        if isinstance(d, FunDecl) and d.name == name:
            return d.body
    raise AssertionError(name)


def prov_for_fun(checked, name: str):
    sig = checked.table.functions[name]
    params = tuple(zip(sig.param_names, sig.param_types))
    return compute_provenance(checked, fun_body(checked, name), params)


def find_casts(body):
    return [e for e in walk(body) if isinstance(e, CastExpr)]


# ============================================================
# THE MAIN CHAIN
# ============================================================


def test_upcast_chain_history_at_the_downcast(check_source):
    checked, diags = check_source(corpus.BY_ID["P1"].source(), "P1.mk")
    assert diags == []
    prov = prov_for_fun(checked, "getA")
    body = fun_body(checked, "getA")
    (cast,) = find_casts(body)
    assert prov.cast_snapshots[cast] == (
        t("MutableList", t("A")),
        t("List", t("A")),
        t("List", t("B")),
    )
    # The occurrence of `covariance` inside the cast carries the same set.
    assert isinstance(cast.expr, VarRef)
    assert prov.at(cast.expr) == prov.cast_snapshots[cast]


def test_fresh_value_starts_with_singleton(check_source):
    checked, _ = check_source("class Dog\n\nfun f() {\n    val x = Dog()\n    x\n}\n")
    prov = prov_for_fun(checked, "f")
    body = fun_body(checked, "f")
    use = body[1].expr
    assert prov.at(use) == (t("Dog"),)


def test_lint_reports_the_laundered_cast(check_source):
    checked, diags = check_source(corpus.BY_ID["P1"].source(), "P1.mk")
    assert diags == []
    lint = lint_program(checked)
    assert codes(lint) == ["W-PROVENANCE-UNCHECKED-CAST"]
    assert lint[0].loc.line == 12
    assert "{MutableList<A>, List<A>, List<B>}" in lint[0].message


def test_lint_adds_nothing_when_baseline_already_warns(check_source):
    checked, diags = check_source(corpus.BY_ID["P2"].source(), "P2.mk")
    assert codes(diags) == ["W-UNCHECKED-CAST"]
    assert lint_program(checked) == []


def test_cast_of_fresh_value_to_its_own_type_is_clean(check_source):
    src = "class Dog\n\nfun f() {\n    val d = Dog()\n    val e: Dog = d as Dog\n}\n"
    checked, diags = check_source(src)
    assert diags == []
    assert lint_program(checked) == []


# ============================================================
# JOINS
# ============================================================

JOINED = AB + (
    "\nfun variant() {\n"
    "    val list = mutableListOf<A>()\n"
    "    val mid: List<A> = list\n"
    "    if (mid is MutableList) {\n"
    "        val x: List<B> = mid\n"
    "    } else {\n"
    "        val z: List<B> = mid\n"
    "    }\n"
    "    val joined: MutableList<A> = mid as MutableList\n"
    "}\n"
)


def test_branches_union_at_the_join(check_source):
    checked, diags = check_source(JOINED)
    assert diags == []
    prov = prov_for_fun(checked, "variant")
    (cast,) = find_casts(fun_body(checked, "variant"))
    snapshot = prov.cast_snapshots[cast]
    # The value reached List<B> on both paths; after the join its history
    # still contains both the original MutableList<A> and the branch hop.
    assert t("MutableList", t("A")) in snapshot
    assert t("List", t("A")) in snapshot
    assert t("List", t("B")) in snapshot
    # Only the branch-acquired List<B> origin makes this same-argument
    # downcast suspicious, so the join is what surfaces the warning.
    lint = lint_function(checked, fun_body(checked, "variant"), prov)
    assert codes(lint) == ["W-PROVENANCE-UNCHECKED-CAST"]
    assert "unchecked from List<B>" in lint[0].message


# Hand-simulated oracle for a straight-line chain: each binding appends its
# declared type to the value's history.
def test_chain_matches_hand_simulation(check_source):
    src = AB + (
        "\nfun chain() {\n"
        "    val v0 = mutableListOf<A>()\n"
        "    val v1: List<A> = v0\n"
        "    val v2: List<B> = v1\n"
        "    v2\n"
        "}\n"
    )
    checked, diags = check_source(src)
    assert diags == []
    prov = prov_for_fun(checked, "chain")
    use = fun_body(checked, "chain")[3].expr
    expected = [t("MutableList", t("A"))]
    for step in (t("List", t("A")), t("List", t("B"))):
        expected.append(step)
    assert prov.at(use) == tuple(expected)


def test_adding_a_coercion_step_never_shrinks_downstream_sets(check_source):
    base = AB + (
        "\nfun f() {\n"
        "    val v0 = mutableListOf<A>()\n"
        "    val v2: List<B> = v0\n"
        "    v2\n"
        "}\n"
    )
    extended = AB + (
        "\nfun f() {\n"
        "    val v0 = mutableListOf<A>()\n"
        "    val v1: List<A> = v0\n"
        "    val v2: List<B> = v1\n"
        "    v2\n"
        "}\n"
    )
    sets = []
    for src in (base, extended):
        checked, diags = check_source(src)
        assert diags == []
        prov = prov_for_fun(checked, "f")
        use = fun_body(checked, "f")[-1].expr
        sets.append(set(prov.at(use)))
    assert sets[0] <= sets[1]


# ============================================================
# THE KNOWN LIMITATION
# ============================================================

SPLIT = AB + (
    "\nfun produce(): List<B> {\n"
    "    val list = mutableListOf<A>()\n"
    "    val upcast: List<A> = list\n"
    "    val covariance: List<B> = upcast\n"
    "    return covariance\n"
    "}\n"
    "\nfun consume(covariance: List<B>): MutableList<B> {\n"
    "    val downcast: MutableList<B> = covariance as MutableList\n"
    "    return downcast\n"
    "}\n"
    "\nconsume(produce())\n"
)


def test_chain_split_across_functions_is_missed(check_source):
    """The analysis is intraprocedural: the consumer only ever sees the
    parameter's declared type, so the laundered cast goes unreported."""
    checked, diags = check_source(SPLIT)
    assert diags == []
    assert lint_program(checked) == []


def test_every_occurrence_set_contains_its_static_type():
    """Holds even for smart-cast-narrowed occurrences, whose narrowed type
    is not part of the value's upcast history."""
    for entry in corpus.ENTRIES:
        checked, _ = build(entry.source(), entry.filename)
        if checked is None or not checked.ok:
            continue
        for d in checked.program.decls:
            if not isinstance(d, FunDecl):
                continue
            prov = prov_for_fun(checked, d.name)
            for node_id, history in prov.occurrence_sets.items():
                static = checked.expr_types.get(node_id)
                if static is not None:
                    assert static in history, (entry.id, static)


def test_conservativeness_on_corpus():
    """Every type in an occurrence set was the value's static type at some
    point: it is either the fresh static type or the target of a recorded
    coercion / binding / cast in the same function."""
    for entry in corpus.ENTRIES:
        checked, _ = build(entry.source(), entry.filename)
        if checked is None or not checked.ok:
            continue
        allowed = set(checked.expr_types.values())
        allowed.update(checked.coercions.values())
        allowed.update(checked.decl_types.values())
        for d in checked.program.decls:
            if isinstance(d, FunDecl):
                prov = prov_for_fun(checked, d.name)
                for history in prov.occurrence_sets.values():
                    for ty in history:
                        assert ty in allowed, (entry.id, ty)


# m changes in the then-branch only, n in the else-branch and in an if
# nested in the then-branch, k in both. The else-branch sees m as it was
# before the then-branch, and a joined history lists the then-branch's types
# first, then the else-branch's new ones.
BRANCH_WRITES = """\
open class B

class A : B()

fun f(flag: Any) {
    val m = mutableListOf<A>()
    val n = mutableListOf<A>()
    val k = mutableListOf<A>()
    if (flag is Int) {
        val m1: List<A> = m
        val k1: List<B> = k
        if (flag is String) {
            val n1: List<A> = n
        }
    } else {
        val n2: List<Any> = n
        val k2: List<A> = k
        val me: List<B> = m
        println(me as MutableList)
    }
    val mu: List<B> = m
    val nu: List<B> = n
    val ku: List<B> = k
    println(mu as MutableList)
    println(nu as MutableList)
    println(ku as MutableList)
}

f(1)
"""


def test_if_join_lists_then_branch_types_then_else_only_ones():
    expected = "".join(
        f"warning W-PROVENANCE-UNCHECKED-CAST t.mk:{at}: cast to MutableList<B> is unchecked for a value "
        f"whose implicit-cast history is {{{history}}} (unchecked from MutableList<A>)\n"
        for at, history in (
            ("19:20", "MutableList<A>, List<B>"),  # m, in the else-branch
            ("24:16", "MutableList<A>, List<A>, List<B>, MutableList<B>, Any?"),  # m
            ("25:16", "MutableList<A>, List<A>, List<Any>, List<B>"),  # n
            ("26:16", "MutableList<A>, List<B>, List<A>"),  # k
        )
    )
    assert run_command("lint", BRANCH_WRITES, "t.mk") == (expected, 0)


# ============================================================
# LINT ORDER
# ============================================================


def reference_lint(checked, body, prov):
    """The lint as a separate walk over the body, classifying each cast
    afresh on a copy of the table with an empty memo."""
    table = ClassTable(checked.table.classes, checked.table.functions)
    diags = []
    for e in find_casts(body):
        target = checked.expr_types[e]
        classification = classify_cast_baseline(table, checked.expr_types[e.expr], target)
        eligible = classification is CastClassification.UNCHECKED_SILENT or (
            classification is CastClassification.FULLY_CHECKED and isinstance(target, ClassType) and bool(target.args)
        )
        history = prov.cast_snapshots[e]
        culprits = [o for o in history
                    if classify_cast_baseline(table, o, target) is CastClassification.UNCHECKED_WARNED]
        if eligible and culprits:
            rendered = ", ".join(ty.render() for ty in history)
            diags.append(warning(
                "W-PROVENANCE-UNCHECKED-CAST",
                e.loc,
                f"cast to {target.render()} is unchecked for a value whose implicit-cast history is "
                f"{{{rendered}}} (unchecked from {culprits[0].render()})",
            ))
    return diags


def assert_lint_matches_reference(checked):
    expected = []
    for body in program_bodies(checked.table, checked.program):
        prov = compute_provenance(checked, body.stmts, body.params)
        want = reference_lint(checked, body.stmts, prov)
        assert lint_function(checked, body.stmts, prov) == want
        expected.extend(want)
    assert lint_program(checked) == expected
    return expected


# A cast nested in a cast: the outer one comes first in preorder, though its
# `as` stands to the right of the inner one's.
NESTED_CASTS = """\
open class B

class A : B()

fun f() {
    val m = mutableListOf<A>()
    val v: List<A> = m
    val w: List<B> = v
    println(w as List<A> as MutableList)
    println(w as MutableList as MutableList)
}

f()
"""

CASTS_IN_BOTH_BRANCHES = """\
open class B

class A : B()

fun g(flag: Any) {
    val m = mutableListOf<A>()
    val l: List<B> = m
    if (flag is Int) {
        println(l as MutableList)
    } else {
        val k: List<Any?> = l
        println(k as MutableList)
    }
}

g(1)
"""


def test_lint_lists_casts_in_preorder(check_source):
    checked, _ = check_source(NESTED_CASTS)
    lint = assert_lint_matches_reference(checked)
    assert [(d.loc.line, d.loc.col) for d in lint] == [(9, 26), (10, 30), (10, 15)]


def test_lint_lists_the_then_branch_before_the_else_branch(check_source):
    checked, _ = check_source(CASTS_IN_BOTH_BRANCHES)
    lint = assert_lint_matches_reference(checked)
    assert [d.loc.line for d in lint] == [9, 12]


# A cast in a call's receiver and one in its argument: the receiver's first.
RECEIVER_AND_ARGUMENT_CASTS = AB + "fun h(m: List<MutableList<B>>, x: B) {\n    m.get(0 as Int).add(x as A)\n}\n"


def test_cast_snapshots_list_the_casts_in_walk_order():
    # The order `ProvenanceMap` documents; the reference lint above sees
    # only the order of the casts that warn. The texts are the corpus, the
    # differential runner's fixed texts and small generated programs, and
    # this file's texts that put two casts in one statement.
    texts = differential.make_texts(0, 0) + [
        ("nested.mk", NESTED_CASTS), ("branches.mk", CASTS_IN_BOTH_BRANCHES), ("calls.mk", RECEIVER_AND_ARGUMENT_CASTS)]
    casts = 0
    for filename, source in texts:
        checked, _ = build(source, filename)
        if checked is None or not checked.ok:
            continue
        for body in program_bodies(checked.table, checked.program):
            prov = compute_provenance(checked, body.stmts, body.params)
            assert list(prov.cast_snapshots) == find_casts(body.stmts), filename
            casts += len(prov.cast_snapshots)
    assert casts > 0


def test_lint_matches_the_reference_on_the_corpus():
    linted = 0
    for entry in corpus.ENTRIES:
        checked, _ = build(entry.source(), entry.filename)
        if checked is not None and checked.ok:
            linted += len(assert_lint_matches_reference(checked))
    assert linted > 0
