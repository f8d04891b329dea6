"""Guard for the benchmark's span tracer.

`minik_bench/spans.py` wraps miniK functions by replacing module globals
(`minik.cli.build`, `minik.runtime.class_conforms`, ...) that miniK looks up
at call time. A refactor that renames such a global, or stops calling
through it, leaves the traced layer metrics at zero without any error; this
test runs every driver command under the tracer and fails instead.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minik.cli
from minik import corpus
from minik.ast import Node, TypeRef
from minik.typesys import PRELUDE_SOURCE

_SPANS = Path(__file__).resolve().parent.parent / "minik_bench" / "spans.py"

COMMANDS = (
    ["check"],
    ["check", "--strict"],
    ["lint"],
    ["sites"],
    ["run", "--mode", "erased"],
    ["run", "--mode", "reified"],
)
COUNTERS = (
    "cli.builds",
    "lexer.tokens",
    "checker.coercions",
    "typesys.subtype_calls",
    "provenance.bodies",
    "runtime.sites",
    "runtime.class_checks",
    "runtime.coercion_checks",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("minik_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer(capsys):
    path = str(corpus.BY_ID["P1"].source_path)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        # Looked up on the module at call time, as the tracer patched them.
        for command in COMMANDS:
            minik.cli.main(command + [path])
        minik.cli.run_corpus("P1", False)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for counter in COUNTERS:
        assert tracer.counts[counter] > 0, counter


# The same, in an interpreter that has imported only the command line when
# the tracer installs, so that no stage has loaded its modules yet.
FRESH_TRACE = """
import contextlib, importlib.util, io, json, sys
import minik.cli
spans_path, source_path, commands, counters = sys.argv[1], sys.argv[2], *map(json.loads, sys.argv[3:])
spec = importlib.util.spec_from_file_location("minik_bench_spans", spans_path)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    for command in commands:
        minik.cli.main(command + [source_path])
    minik.cli.run_corpus("P1", False)
spanned = sorted({tracer.names[tracer.spans[4 * i]] for i in range(tracer.span_count())})
print(json.dumps([{counter: tracer.counts[counter] for counter in counters}, spanned]))
"""
# The spans of the stages `cli` calls through the globals the tracer
# replaces; their counters above come from inside the stages' own modules.
STAGE_SPANS = {"provenance.lint", "runtime.sites", "runtime.erased", "runtime.reified"}


def test_tracer_counts_every_layer_in_a_fresh_interpreter():
    argv = [str(_SPANS), str(corpus.BY_ID["P1"].source_path), json.dumps(COMMANDS), json.dumps(COUNTERS)]
    env = dict(os.environ, PYTHONPATH=str(Path(minik.cli.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", FRESH_TRACE, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    counts, spanned = json.loads(done.stdout)
    assert [counter for counter in COUNTERS if not counts[counter]] == []
    assert STAGE_SPANS <= set(spanned), spanned


def test_tracer_counts_the_front_end_of_a_golden_run_alone(capsys):
    # The golden run parses, builds and checks without `cli.build`, through
    # the globals the tracer patches.
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        minik.cli.run_corpus("P1", False)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for counter in ("lexer.tokens", "typesys.classes", "checker.coercions"):
        assert tracer.counts[counter] > 0, counter


def _load_gen(monkeypatch):
    spec = importlib.util.spec_from_file_location("minik_bench_gen", _SPANS.parent / "gen.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_runtime_checks_decided_do_not_grow_with_the_calls_run(tmp_path, capsys, monkeypatch):
    # Each check site decides a runtime type once and caches the verdict, so
    # the checks a run computes grow by a fixed number per function, none per
    # call: four levels more add the same count at 5, 9 and 13 levels, while
    # the calls go from 31 to 511 to 8,191.
    gen, tracer = _load_gen(monkeypatch), _load_spans().Tracer()
    counts = {}
    tracer.install()
    try:
        for levels in (5, 9, 13):
            program = gen.calltree(1, levels)
            path = tmp_path / f"{levels}-{program.filename}"
            path.write_text(program.source)
            for metric, counter, mode in (("run_reified_ms", "runtime.coercion_checks", "reified"),
                                          ("run_erased_ms", "runtime.class_checks", "erased")):
                tracer.begin_pass()
                assert minik.cli.main(["run", "--mode", mode, str(path)]) == 0
                assert capsys.readouterr().out == program.expected[metric].stdout
                counts[levels, mode] = tracer.counts[counter]
    finally:
        tracer.uninstall()
    for mode in ("reified", "erased"):
        assert counts[13, mode] - counts[9, mode] == counts[9, mode] - counts[5, mode] > 0, counts


def test_front_end_counters_keep_their_definition():
    # Fixed numbers for P1: a lexer or AST change that alters what the
    # benchmark's `lexer.tokens` or `parser.nodes` count must say so here.
    path = corpus.BY_ID["P1"].source_path
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        minik.cli.parse(path.read_text(), str(path))  # looked up at call time
    finally:
        tracer.uninstall()
    assert (tracer.counts["lexer.tokens"], tracer.counts["parser.nodes"]) == (102, 37)


def _tree_objects(value) -> int:
    """The nodes and types `value` holds, itself included, found through
    `ast`'s own `_fields`: each occurrence once, so a shared type counts at
    every place it appears."""
    if isinstance(value, tuple):
        return sum(map(_tree_objects, value))
    if isinstance(value, (Node, TypeRef)):
        return 1 + sum(_tree_objects(getattr(value, name)) for name in type(value)._fields)
    return 0


@pytest.mark.parametrize(
    "source, filename",
    [(e.source(), e.filename) for e in corpus.ENTRIES] + [(PRELUDE_SOURCE, "<prelude>")],
    ids=[e.id for e in corpus.ENTRIES] + ["prelude"],
)
def test_the_node_counter_walks_the_fields_the_tree_has(source, filename):
    # `count_nodes` finds nodes and their fields by `__dataclass_fields__`,
    # which `ast` keeps for such tools; a tree it could not walk would read
    # as a small `parser.nodes` without any error.
    program = minik.cli.parse(source, filename)
    assert _load_spans().count_nodes(program) == _tree_objects(program.decls)
