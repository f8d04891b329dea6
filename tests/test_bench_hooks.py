"""Guard for the benchmark's span tracer.

`minik_bench/spans.py` wraps miniK functions by replacing module globals
(`minik.cli.build`, `minik.runtime.class_conforms`, ...) that miniK looks up
at call time. A refactor that renames such a global, or stops calling
through it, leaves the traced layer metrics at zero without any error; this
test runs every driver command under the tracer and fails instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import minik.cli
from minik import corpus

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
