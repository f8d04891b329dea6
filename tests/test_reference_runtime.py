"""The runtime against the reference interpreter in `reference_runtime.py`.

Every corpus entry, every fixed text of `differential.py`, its small
generated programs and its mutated texts that check clean run through both,
in erased, eager and reified modes, and must give the same stdout, outcome,
location and message. Then one mutant of each mechanism that makes the
runtime fast, and one of the erased mode's instance test, is planted by
rewriting its source, and the reference must tell the mutated runtime
apart.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap

import pytest

import differential
from minik import corpus, runtime
from minik.cli import build
from minik.runtime import ERASED, MAX_CALL_DEPTH, REIFIED, Completed, RunOutcome, run_program
from reference_runtime import reference_run, render

MODES = {"erased": (ERASED, False), "eager": (ERASED, True), "reified": (REIFIED, False)}


def _seen(outcome: RunOutcome) -> tuple:
    """What a run shows: stdout, the outcome line, with the failing location
    and message, and the value a completed run ends on."""
    value = render(outcome.value) if isinstance(outcome, Completed) and outcome.value is not None else None
    return outcome.stdout, outcome.render(), value


def _programs(texts: list[tuple[str, str]]) -> list[tuple[str, object]]:
    programs = []
    for filename, source in texts:
        try:
            checked, _ = build(source, filename)
        except Exception:  # a parse error: nothing to run
            continue
        if checked is not None and checked.ok:
            programs.append((filename, checked))
    return programs


# The corpus entries that check clean (all but P3a), the runner's six
# fixed texts and its four small generated programs.
FIXED = _programs(differential.make_texts(0, 0))
# The mutated texts of one seed that check clean, about one in twelve.
MUTATED = _programs(differential.make_texts(7, 1000)[len(differential.make_texts(7, 0)) - 4:-4])


def _disagreements(programs, modes=MODES) -> list[tuple]:
    found = []
    for filename, checked in programs:
        for name in modes:
            mode, eager = MODES[name]
            ours, reference = _seen(run_program(checked, mode, eager)), _seen(reference_run(checked, mode, eager))
            if ours != reference:
                found.append((filename, name, ours, reference))
    return found


def test_the_fixed_texts_cover_the_corpus_and_every_runner_program():
    names = [filename for filename, _ in FIXED]
    assert len(names) == 14 + 6 + 4
    assert {"index.mk", "receiver.mk", "dispatch.mk", "reads.mk", "threaded.mk", "casts.mk"} <= set(names)


@pytest.mark.parametrize("name", sorted(MODES))
def test_the_runtime_agrees_with_the_reference_on_the_fixed_texts(name):
    assert _disagreements(FIXED, [name]) == []


def test_the_runtime_agrees_with_the_reference_on_mutated_texts():
    assert len(MUTATED) > 60
    assert _disagreements(MUTATED) == []


# An erased check's message names classes without type arguments, whatever
# the target was written with: (the failing cast, the message it fails with),
# by what it casts.
ERASED_FAILURES = {
    "to a class": ("x as A", "B cannot be cast to A at t.mk:6:11"),
    "to a generic class written with arguments": ("x as MutableList<B>", "B cannot be cast to MutableList at t.mk:6:11"),
    "a list to a class": ("list as A", "MutableList cannot be cast to A at t.mk:6:14"),
    "to a primitive": ("s as Int", "String cannot be cast to Int at t.mk:6:11"),
}


@pytest.mark.parametrize("name", ["erased", "eager"])
@pytest.mark.parametrize("shape", sorted(ERASED_FAILURES))
def test_an_erased_failed_check_renders_bare_classes(shape, name):
    cast, message = ERASED_FAILURES[shape]
    source = f'open class A\nclass B\nval x: Any = B()\nval list: Any = mutableListOf<B>()\nval s: Any = "s"\nval y = {cast}\n'
    ((_, checked),) = _programs([("t.mk", source)])
    mode, eager = MODES[name]
    outcome = run_program(checked, mode, eager)
    assert outcome.render() == f"ClassCastException: {message}"
    assert _seen(outcome) == _seen(reference_run(checked, mode, eager))


# Declarations may name `Boolean`: a Boolean `val`, a Boolean return tested
# by an `if`, and a cast to it, which fails on an Int in every mode.
BOOLEANS = (
    "open class A\n"
    "class B : A()\n"
    "fun isA(l: Any): Boolean {\n"
    "    return l is A\n"
    "}\n"
    "val x: Any = 1\n"
    "val b: Boolean = x is A\n"
    "if (isA(B())) {\n"
    '    println("A")\n'
    "}\n"
    "println(b)\n"
    "val y = x as Boolean\n"
)


@pytest.mark.parametrize("name", sorted(MODES))
def test_a_program_naming_boolean_runs_as_the_reference_does(name):
    ((_, checked),) = _programs([("bool.mk", BOOLEANS)])
    assert checked.diagnostics == []
    mode, eager = MODES[name]
    outcome = run_program(checked, mode, eager)
    assert outcome.stdout == "A\nfalse\n"
    assert outcome.render() == "ClassCastException: Int cannot be cast to Boolean at bool.mk:12:11"
    assert _seen(outcome) == _seen(reference_run(checked, mode, eager))


# `f<T>` calls `f<List<T>>` through a read check and an `is` test, so each
# call runs under a deeper binding than its caller: the runtime compiles a
# body per level, until the depth limit ends the run at the recursive call.
POLYMORPHIC_RECURSION = (
    "fun f<T>(x: Any, l: Any) {\n"
    "    val y: Any = x\n"
    "    if (l is List<T>) {\n"
    '        println("list")\n'
    "    }\n"
    "    f<List<T>>(y, l)\n"
    "}\n"
    "val l: Any = mutableListOf<Int>()\n"
    "f<Int>(l, l)\n"
)


@pytest.mark.parametrize("name", sorted(MODES))
def test_polymorphic_recursion_faults_where_the_reference_does(name):
    ((_, checked),) = _programs([("poly.mk", POLYMORPHIC_RECURSION)])
    mode, eager = MODES[name]
    outcome = run_program(checked, mode, eager)
    assert outcome.render() == f"RuntimeFault: call depth exceeds {MAX_CALL_DEPTH} at poly.mk:6:5"
    assert _seen(outcome) == _seen(reference_run(checked, mode, eager))


# ============================================================
# PLANTED MUTANTS
#
# Each rewrites one line of a runtime function or method, recompiled in the
# module's namespace, and must make the runtime disagree with the reference
# on the program named beside it.
# ============================================================

# A laundered `B` reaches a method call without arguments on a variable: the
# receiver's class check is what stops the erased run.
LAUNDERED_RECEIVER = differential.THREADED_PROGRAM.replace(
    'println(pick(list, 1, "s").name())\nprintln(pick(list, 1, A()).name())\n', "")

# A call whose last argument is a variable, to a function of two parameters.
LAST_ARGUMENT = (
    "fun pair(a: Int, b: Int): Int {\n"
    "    println(a)\n"
    "    return b\n"
    "}\n"
    "val x = 2\n"
    "println(pair(1, x))\n"
)

# One method call site whose receiver is a `Base` on one call and a `Leaf`,
# which overrides the method, on the next.
TWO_RECEIVERS = (
    "open class Base {\n"
    "    fun name(): String {\n"
    "        return \"base\"\n"
    "    }\n"
    "}\n"
    "class Leaf : Base() {\n"
    "    fun name(): String {\n"
    "        return \"leaf\"\n"
    "    }\n"
    "}\n"
    "fun show(x: Base) {\n"
    "    println(x.name())\n"
    "}\n"
    "show(Base())\n"
    "show(Leaf())\n"
)

P1 = corpus.BY_ID["P1"].source_path

# (the class and function mutated, its (old, new) line edits, and the
# program and mode that must tell it apart)
MUTANTS = {
    "a threaded return drops its checks": (
        runtime._Compiler, "end",
        [("code[i] = target", "code[i] = target[:2] + ((), None) + target[4:] if target[0] == 'return' else target")],
        "threaded.mk", differential.THREADED_PROGRAM, "erased"),
    "a fused receiver read skips the receiver check": (
        runtime._Compiler, "call",
        [("read = _POP if args else self.operand(code)", "read = _POP if args else self.operand(code)[:1] + ((), None)")],
        "receiver.mk", LAUNDERED_RECEIVER, "erased"),
    "a generic body's code is shared across its instantiations": (
        runtime, "_code_key",
        [("(sig.decl, *bindings.values()) if bindings else sig.decl", "sig.decl")],
        "dispatch.mk", differential.DISPATCH_PROGRAM, "reified"),
    "the last argument is bound to the wrong parameter": (
        runtime._Compiler, "call",
        [("arg, names = names[0], names[1:]", "arg, names = names[-1], names[:-1]")],
        "pair.mk", LAST_ARGUMENT, "erased"),
    "erased checks are decided by the reified test": (
        runtime._Compiler, "__init__",
        [("erased_instance_check if self.erased else reified_instance_check", "reified_instance_check")],
        P1.name, P1.read_text(), "erased"),
    "a method site's dispatch cache ignores the receiver type": (
        runtime._Machine, "execute",
        [("dispatched.get(v.type)", "dispatched.get(None)"), ("dispatched[v.type]", "dispatched[None]")],
        "receivers.mk", TWO_RECEIVERS, "erased"),
}


# Each mutated function's source, read once at import, so that an edit to
# `runtime.py` while the tests run cannot change what is planted.
SOURCES = {(owner, name): textwrap.dedent(inspect.getsource(getattr(owner, name)))
           for owner, name, *_ in MUTANTS.values()}


def _plant(monkeypatch, owner, name: str, edits: list[tuple[str, str]]) -> None:
    source = SOURCES[owner, name]
    for old, new in edits:
        assert source.count(old) == 1, f"{owner.__name__}.{name} no longer holds {old!r} once"
        source = source.replace(old, new)
    namespace: dict = {}
    code = compile(source, runtime.__file__, "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, vars(runtime), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_reference_catches_a_planted_mutant(mutant, monkeypatch):
    owner, name, edits, filename, source, mode = MUTANTS[mutant]
    program = _programs([(filename, source)])
    assert _disagreements(program, [mode]) == []
    _plant(monkeypatch, owner, name, edits)
    assert _disagreements(program, [mode]) != []
