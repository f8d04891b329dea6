"""Acceptance gate: one test per published criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they print."""

from __future__ import annotations

import functools
import re

from minik import corpus
from minik.cli import build
from minik.provenance import lint_program
from minik.runtime import (
    ERASED,
    REIFIED,
    ClassCastException,
    Completed,
    checkcast_sites,
    run_program,
)

from conftest import codes


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")

        return wrapper

    return deco


def build_entry(entry_id: str, strict: bool = False):
    entry = corpus.BY_ID[entry_id]
    return build(entry.source(), entry.filename, strict=strict)


@criterion(1, "unsoundness reproduction")
def test_silent_program_crashes_at_the_use_site():
    checked, diags = build_entry("P1")
    assert diags == [], "the unsound program must check without any diagnostics"
    outcome = run_program(checked, ERASED)
    assert isinstance(outcome, ClassCastException)
    assert (outcome.actual, outcome.expected) == ("B", "A")
    # The failing check is the receiver verification of the method call in
    # the final top-level statement.
    assert (outcome.loc.line, outcome.loc.col) == (17, 1)
    assert corpus.BY_ID["P1"].source().splitlines()[16] == "getA().secretMethod()"


@criterion(2, "warning asymmetry between the two downcasts")
def test_skipping_the_covariance_hop_earns_a_warning():
    _, p1_diags = build_entry("P1")
    assert codes(p1_diags) == []
    _, p2_diags = build_entry("P2")
    assert codes(p2_diags) == ["W-UNCHECKED-CAST"]
    assert p2_diags[0].loc.line == 11
    assert "as MutableList" in corpus.BY_ID["P2"].source().splitlines()[10]


@criterion(3, "provenance lint catches the laundered cast and misses the split")
def test_provenance_fix_and_its_limitation():
    checked, _ = build_entry("P1")
    lint = lint_program(checked)
    assert codes(lint) == ["W-PROVENANCE-UNCHECKED-CAST"]
    assert lint[0].loc.line == 12  # the downcast declaration line
    reported = re.search(r"\{[^}]*\}", lint[0].message)
    assert reported is not None
    assert reported.group(0) == "{MutableList<A>, List<A>, List<B>}"

    split = (
        "open class B\n\nclass A private constructor() : B()\n\n"
        "fun produce(): List<B> {\n"
        "    val list = mutableListOf<A>()\n"
        "    val upcast: List<A> = list\n"
        "    val covariance: List<B> = upcast\n"
        "    return covariance\n"
        "}\n\n"
        "fun consume(covariance: List<B>): MutableList<B> {\n"
        "    val downcast: MutableList<B> = covariance as MutableList\n"
        "    return downcast\n"
        "}\n\n"
        "consume(produce())\n"
    )
    checked_split, split_diags = build(split, "split.mk")
    assert split_diags == []
    assert lint_program(checked_split) == [], "the local analysis must miss the split chain"


# The published placement pattern, in row order: whether a checkcast lands
# on the mis-tagged value in that context, with zero tolerance.
MATRIX_PATTERN = {
    "P4.1": False,
    "P4.2": True,
    "P4.3": True,
    "P4.4": False,
    "P4.5": False,
    "P4.6": True,
    "P4.7": True,
    "P4.8": True,
    "P4.9": False,
    "P4.10": True,
}


@criterion(4, "checkcast placement matrix")
def test_matrix_pattern_reproduces_statically_and_dynamically():
    assert len(MATRIX_PATTERN) == 10
    for entry_id, placed in MATRIX_PATTERN.items():
        entry = corpus.BY_ID[entry_id]
        row = entry.matrix
        assert row is not None and (row.site_reason is not None) == placed
        assert row.crashes == placed
        checked, diags = build(entry.source(), entry.filename)
        assert diags == [] or codes(diags) == ["W-REDUNDANT-IS"], entry_id
        at_row_line = [s for s in checkcast_sites(checked) if s.loc.line == row.line]
        if placed:
            assert any(s.reason == row.site_reason for s in at_row_line), entry_id
        else:
            assert at_row_line == [], entry_id
        outcome = run_program(checked, ERASED)
        if placed:
            assert isinstance(outcome, ClassCastException), entry_id
            assert outcome.loc.line == row.line, entry_id
            assert (outcome.actual, outcome.expected) == ("Parent", "MyClass"), entry_id
        else:
            assert isinstance(outcome, Completed), entry_id


@criterion(5, "reified mode fails at the cast itself")
def test_reified_crash_is_earlier():
    checked, _ = build_entry("P1")
    reified = run_program(checked, REIFIED)
    erased = run_program(checked, ERASED)
    assert isinstance(reified, ClassCastException)
    assert reified.loc.line == 12  # the `as MutableList` downcast line
    assert isinstance(erased, ClassCastException)
    assert (reified.loc.line, reified.loc.col) < (erased.loc.line, erased.loc.col)


@criterion(6, "redundant-check warning contradicts the runtime answer")
def test_always_true_warning_prints_false():
    source = corpus.BY_ID["P1"].source().replace(
        "    return list[0]", "    println(list[0] is A)\n    return list[0]"
    )
    checked, diags = build(source, "P1extended.mk")
    redundant = [d for d in diags if d.code == "W-REDUNDANT-IS"]
    assert len(redundant) == 1
    assert redundant[0].message == "check for instance is always 'true'"
    outcome = run_program(checked, ERASED)
    assert outcome.stdout == "false\n"


@criterion(7, "variance positions and acknowledged weakening")
def test_unsafe_variance_rules():
    _, p3a = build_entry("P3a")
    assert codes(p3a) == ["E-VARIANCE-POSITION"]
    _, p3b = build_entry("P3b")
    assert p3b == []

    base = "open class Base<out T>\n\nclass Derived<T> : Base<T>()\n"
    acked = "open class Base<out T>\n\nclass Derived<T> : @UnsafeVariance Base<T>()\n"
    _, strict_diags = build(base, "derived.mk", strict=True)
    user = [d for d in strict_diags if d.loc.file != "<prelude>"]
    assert codes(user) == ["W-VARIANT-INHERITANCE"]
    _, baseline_diags = build(base, "derived.mk", strict=False)
    assert baseline_diags == []
    _, acked_diags = build(acked, "derived.mk", strict=True)
    assert [d for d in acked_diags if d.loc.file != "<prelude>"] == []


@criterion(8, "generic smart cast soundness hole and its strict rejection")
def test_smart_cast_hole():
    checked, diags = build_entry("P5")
    assert diags == []
    outcome = run_program(checked, ERASED)
    assert isinstance(outcome, Completed)
    assert outcome.stdout == "string\n"
    # The read is statically an Int coming out of a MutableList<Int>.
    from minik.ast import INT, ValDecl, StmtDecl

    bad_decl = next(
        d.stmt
        for d in checked.program.decls
        if isinstance(d, StmtDecl) and isinstance(d.stmt, ValDecl) and d.stmt.name == "bad"
    )
    assert checked.decl_types[bad_decl] == INT

    _, strict_diags = build_entry("P5", strict=True)
    assert "E-GENERIC-IS" in codes(strict_diags)


@criterion(9, "randomized law suites are configured at full strength")
def test_property_suites_run_at_least_a_thousand_cases():
    import test_properties as props

    suites = [
        props.test_subtype_reflexive_and_transitive,
        props.test_variance_lifting_laws,
        props.test_lub_is_a_minimal_common_supertype,
        props.test_provenance_is_conservative_and_monotone,
        props.test_parse_print_round_trip,
    ]
    for suite in suites:
        configured = suite._hypothesis_internal_use_settings.max_examples
        assert configured >= 1000, suite.__name__
    assert props.PROPERTY_EXAMPLES >= 1000
