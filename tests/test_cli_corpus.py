from __future__ import annotations

import argparse
import gc
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import differential
import minik.cli as cli
import minik.corpus as corpus_pkg
from minik.cli import main, run_corpus

from conftest import DISPLACED_REDUNDANT_IS


@pytest.fixture
def corpus_file():
    def _path(entry_id: str) -> str:
        return str(corpus_pkg.BY_ID[entry_id].source_path)

    return _path


# What each command loads, in a fresh interpreter that imports only the
# command line: a build needs the front end alone, and each later stage
# loads its own modules on first use.
BUILD_MODULES = {"ast", "records", "diagnostics", "lexer", "parser", "typesys", "checker", "cli"}
LOADED_BY = """
import contextlib, io, sys
import minik.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = minik.cli.main(sys.argv[1:])
print(code, *sorted(name[len("minik."):] for name in sys.modules if name.startswith("minik.")))
"""


def _loaded_by(argv: list[str]) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", LOADED_BY, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.split()
    assert code == "0", argv
    return set(modules)


@pytest.mark.parametrize("command", ["check", "check --strict"])
def test_check_loads_only_the_modules_a_build_runs(command, corpus_file):
    assert _loaded_by(command.split() + [corpus_file("P1")]) == BUILD_MODULES


# command -> (the modules it loads besides the build's, modules it leaves out)
LATER_STAGES = {
    "lint": ({"provenance"}, {"runtime", "printer", "corpus"}),
    "sites": ({"runtime"}, {"provenance", "printer", "corpus"}),
    "run --mode erased": ({"runtime"}, {"provenance", "printer", "corpus"}),
}


@pytest.mark.parametrize("command", sorted(LATER_STAGES))
def test_each_later_stage_loads_its_own_modules(command, corpus_file):
    loads, skips = LATER_STAGES[command]
    loaded = _loaded_by(command.split() + [corpus_file("P1")])
    assert BUILD_MODULES | loads <= loaded and not loaded & skips


def test_a_golden_run_loads_the_corpus():
    assert "corpus" in _loaded_by(["corpus", "--filter", "P1"])


def test_corpus_covers_the_full_id_set():
    expected = {"P1", "P2", "P3a", "P3b", "P5"} | {f"P4.{i}" for i in range(1, 11)}
    assert {e.id for e in corpus_pkg.ENTRIES} == expected
    assert all(e.source_path.exists() for e in corpus_pkg.ENTRIES)
    assert all(e.golden_path.exists() for e in corpus_pkg.ENTRIES)
    matrix_rows = [e for e in corpus_pkg.ENTRIES if e.matrix is not None]
    assert len(matrix_rows) == 10


def test_diagnostics_render_sorted_by_location():
    from minik.ast import SourceLoc
    from minik.diagnostics import Diagnostic, render_diagnostics

    out_of_order = [
        Diagnostic("E-TYPE", SourceLoc("z.mk", 1, 1), "later file"),
        Diagnostic("E-TYPE", SourceLoc("a.mk", 9, 2), "second"),
        Diagnostic("W-REDUNDANT-IS", SourceLoc("a.mk", 3, 7), "first"),
    ]
    lines = render_diagnostics(out_of_order).splitlines()
    assert [ln.split()[2] for ln in lines] == ["a.mk:3:7:", "a.mk:9:2:", "z.mk:1:1:"]


def test_check_clean_program_prints_nothing(capsys, corpus_file):
    assert main(["check", corpus_file("P1")]) == 0
    assert capsys.readouterr().out == ""


def test_check_strict_prints_the_prelude_warning(capsys, corpus_file):
    assert main(["check", corpus_file("P1"), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "W-VARIANT-INHERITANCE" in out
    assert "<prelude>" in out


def test_check_errors_exit_nonzero(capsys, corpus_file):
    assert main(["check", corpus_file("P3a")]) == 1
    assert "E-VARIANCE-POSITION" in capsys.readouterr().out


def test_lint_reports_the_provenance_warning(capsys, corpus_file):
    assert main(["lint", corpus_file("P1")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert "W-PROVENANCE-UNCHECKED-CAST" in out[0]
    assert "P1.mk:12:" in out[0]


def test_run_prints_stdout_then_outcome(capsys, corpus_file):
    assert main(["run", corpus_file("P5"), "--mode", "erased"]) == 0
    assert capsys.readouterr().out == "string\ncompleted\n"


def test_run_with_exception_still_exits_zero(capsys, corpus_file):
    assert main(["run", corpus_file("P1"), "--mode", "erased"]) == 0
    out = capsys.readouterr().out
    assert out == "ClassCastException: B cannot be cast to A at P1.mk:17:1\n"


def test_run_blocked_by_errors_exits_one(capsys, corpus_file):
    assert main(["run", corpus_file("P3a"), "--mode", "erased"]) == 1
    assert "E-VARIANCE-POSITION" in capsys.readouterr().out


def test_sites_listing(capsys, corpus_file):
    assert main(["sites", corpus_file("P1")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "P1.mk:17:1 CHECKCAST A (receiver)" in lines


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.mk"
    bad.write_text("val x =\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, reason",
    [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("latin-1", "not valid UTF-8 (byte 12)"),
    ],
)
def test_unreadable_input_is_a_message(tmp_path, capsys, kind, reason):
    path = tmp_path / "p.mk"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes(b'val s = "caf\xe9"\n')
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"minik: cannot read {path}: {reason}\n"


@pytest.fixture
def fresh_argument_parser():
    cli._argument_parser.cache_clear()
    yield
    cli._argument_parser.cache_clear()


def test_options_do_not_carry_into_the_next_call(capsys, corpus_file):
    assert main(["check", corpus_file("P1"), "--strict"]) == 0
    assert "W-VARIANT-INHERITANCE" in capsys.readouterr().out
    assert main(["check", corpus_file("P1")]) == 0
    assert capsys.readouterr().out == ""
    assert main(["run", corpus_file("P4.1"), "--mode", "erased", "--eager-checkcast"]) == 0
    assert capsys.readouterr().out.startswith("ClassCastException")
    assert main(["run", corpus_file("P4.1"), "--mode", "erased"]) == 0
    assert capsys.readouterr().out == "completed\n"


def test_a_bad_argument_exits_two_and_the_next_call_works(capsys, corpus_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", corpus_file("P5"), "--mode", "lazy"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["run", corpus_file("P5"), "--mode", "erased"]) == 0
    assert capsys.readouterr().out == "string\ncompleted\n"


def test_the_argument_parser_is_built_once(monkeypatch, capsys, corpus_file, fresh_argument_parser):
    constructed = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["check", corpus_file("P1")]) == 0
    per_build = len(constructed)
    assert per_build > 0
    for argv in (["lint", corpus_file("P1")], ["sites", corpus_file("P1")], ["check", corpus_file("P2")]):
        main(argv)
    assert len(constructed) == per_build
    capsys.readouterr()


# Each golden column of these renders from one build shared by all six:
# every corpus entry, P3a among them (errors block its run and sites
# columns), a parse error, a class-table failure, and a program whose strict
# level is not a superset of its baseline.
SHARED_BUILD_SOURCES = [(e.source(), e.filename) for e in corpus_pkg.ENTRIES] + [
    ("class A {\n", "unclosed.mk"),
    ("open class A : A()\n", "cycle.mk"),
    (DISPLACED_REDUNDANT_IS, "displaced.mk"),
]


def _fresh(source: str, filename: str, column: str) -> cli.Built:
    """A build of its own at the strictness of `column`."""
    return cli.build_or_error(source, filename, column == "check-strict")


@pytest.mark.parametrize("source, filename", SHARED_BUILD_SOURCES, ids=[f for _, f in SHARED_BUILD_SOURCES])
def test_a_shared_build_gives_the_output_of_a_fresh_one(source, filename):
    # In either column order: no column changes what the next one reads.
    for columns in (corpus_pkg.COLUMNS, tuple(reversed(corpus_pkg.COLUMNS))):
        shared = cli.build_or_error(source, filename, False)
        for column in columns:
            assert cli._column_output(source, filename, column, shared) == cli._column_output(
                source, filename, column, _fresh(source, filename, column)
            ), column


def test_shared_build_sources_cover_parse_and_table_failures():
    results = [cli.build_or_error(source, filename, False) for source, filename in SHARED_BUILD_SOURCES]
    assert any(isinstance(r, cli.ParseError) for r in results)
    assert any(not isinstance(r, cli.ParseError) and r[0] is None for r in results)
    p3a = results[[e.id for e in corpus_pkg.ENTRIES].index("P3a")]
    assert p3a[0] is not None and cli.has_errors(p3a[1])


def test_a_golden_run_builds_and_checks_each_entry_once(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(cli, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("build", "parse", "build_class_table", "check_program"):
        counting(name)  # the module globals the golden run looks up
    assert run_corpus(None, False, out=io.StringIO()) == 0
    n = len(corpus_pkg.ENTRIES)
    assert sorted(calls) == ["build"] * n + ["build_class_table"] * n + ["check_program"] * n + ["parse"] * n


@pytest.mark.parametrize("source, filename", SHARED_BUILD_SOURCES, ids=[f for _, f in SHARED_BUILD_SOURCES])
def test_golden_builds_render_what_separate_builds_render(source, filename):
    # The golden run renders all six columns from one baseline build, and
    # `run_command` reads each column's level from it; every column must
    # read as if `build` had run at that level alone, and so must every
    # column of one strict build.
    shared = {strict: cli.build_or_error(source, filename, strict) for strict in (False, True)}
    for column in corpus_pkg.COLUMNS:
        expected = cli._column_output(source, filename, column, _fresh(source, filename, column))
        for strict, built in shared.items():
            assert cli._column_output(source, filename, column, built) == expected, (column, strict)


def test_full_corpus_passes(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("total=90 failed=0")
    assert "FAIL" not in out


def test_corpus_report_is_deterministic():
    first = io.StringIO()
    second = io.StringIO()
    assert run_corpus(None, bless=False, out=first) == 0
    assert run_corpus(None, bless=False, out=second) == 0
    assert first.getvalue() == second.getvalue()


def test_corpus_filter_selects_matrix_entries(capsys):
    assert main(["corpus", "--filter", "P4"]) == 0
    out = capsys.readouterr().out
    ids = {line.split()[0] for line in out.splitlines() if line.startswith("P4")}
    assert len(ids) == 10
    assert out.strip().endswith("total=60 failed=0")


@pytest.mark.parametrize("bless", [[], ["--bless"]], ids=["check", "bless"])
def test_a_filter_that_matches_no_entry_is_a_usage_error(bless, tmp_path, monkeypatch, capsys):
    # Else a mistyped filter reads as a passing golden check, or blesses nothing.
    monkeypatch.setattr(corpus_pkg, "GOLDEN_DIR", tmp_path / "golden")
    assert main(["corpus", "--filter", "ZZ", *bless]) == 2
    assert capsys.readouterr() == ("", "minik: no corpus entry id starts with 'ZZ'\n")
    assert not (tmp_path / "golden").exists()


def test_injected_golden_mismatch_fails(tmp_path, monkeypatch):
    shutil.copytree(corpus_pkg.GOLDEN_DIR, tmp_path / "golden")
    p2 = tmp_path / "golden" / "P2.golden"
    text = p2.read_text(encoding="utf-8")
    mutated = "\n".join(
        line for line in text.splitlines() if "W-UNCHECKED-CAST" not in line
    )
    p2.write_text(mutated + "\n", encoding="utf-8")
    monkeypatch.setattr(corpus_pkg, "GOLDEN_DIR", tmp_path / "golden")
    report = io.StringIO()
    assert run_corpus("P2", bless=False, out=report) == 1
    out = report.getvalue()
    assert "P2 check FAIL" in out
    assert "P2 run-erased PASS" in out


def test_the_golden_report_names_a_missing_section_a_missing_file_and_a_short_golden(tmp_path, monkeypatch):
    shutil.copytree(corpus_pkg.GOLDEN_DIR, tmp_path / "golden")
    goldens = tmp_path / "golden"
    (goldens / "P1.golden").unlink()
    p2 = goldens / "P2.golden"
    p2.write_text(p2.read_text(encoding="utf-8").partition("== sites ==")[0], encoding="utf-8")
    p3b = goldens / "P3b.golden"
    p3b.write_text(p3b.read_text(encoding="utf-8").replace("== run-erased ==\ncompleted\n", "== run-erased ==\n"),
                   encoding="utf-8")
    monkeypatch.setattr(corpus_pkg, "GOLDEN_DIR", goldens)
    report = io.StringIO()
    assert run_corpus(None, bless=False, out=report) == 1
    lines = report.getvalue().splitlines()
    for column in corpus_pkg.COLUMNS:
        at = lines.index(f"P1 {column} FAIL")
        assert lines[at + 1] == f"  missing golden section {column}"
    at = lines.index("P2 sites FAIL")
    assert lines[at + 1] == "  missing golden section sites"
    assert "P2 check PASS" in lines
    at = lines.index("P3b run-erased FAIL")
    assert lines[at + 1 : at + 3] == ["  expected: <end>", "  actual:   completed"]
    assert "P3b run-reified PASS" in lines
    assert sum(line.endswith(" FAIL") for line in lines) == 8
    assert lines[-1] == "total=90 failed=8"


def test_bless_writes_identical_goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_pkg, "GOLDEN_DIR", tmp_path / "golden")
    report = io.StringIO()
    assert run_corpus(None, bless=True, out=report) == 0
    for entry in corpus_pkg.ENTRIES:
        fresh = (tmp_path / "golden" / (entry.source_path.stem + ".golden")).read_text()
        committed = (corpus_pkg.CORPUS_DIR / "golden" / (entry.source_path.stem + ".golden")).read_text()
        assert fresh == committed, entry.id


# ============================================================
# THE CYCLIC COLLECTOR
# ============================================================


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start the test with the collector on or off; restore it afterwards."""
    was_enabled = gc.isenabled()
    _set_collector(request.param)
    yield request.param
    _set_collector(was_enabled)


COLLECTOR_CALLS = {
    "check": lambda path, missing: main(["check", path]),
    "usage-error": lambda path, missing: main(["run", path]),  # no --mode
    "unreadable": lambda path, missing: main(["check", missing]),
    "main-corpus": lambda path, missing: main(["corpus", "--filter", "P1"]),
    "run-corpus": lambda path, missing: run_corpus("P1", False, out=io.StringIO()),
}


@pytest.mark.parametrize("call", COLLECTOR_CALLS)
def test_commands_pause_the_collector_and_restore_it(monkeypatch, capsys, tmp_path, corpus_file, collector, call):
    seen = []
    real_run_command = cli.run_command

    def recording_run_command(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_run_command(*args, **kwargs)

    monkeypatch.setattr(cli, "run_command", recording_run_command)
    try:
        COLLECTOR_CALLS[call](corpus_file("P1"), str(tmp_path / "missing.mk"))
    except SystemExit as exc:
        assert call == "usage-error" and exc.code == 2
    else:
        assert call != "usage-error"
    assert gc.isenabled() is collector
    if call in ("usage-error", "unreadable"):  # stopped before any command ran
        assert seen == []
    else:
        assert seen and not any(seen)
    capsys.readouterr()


COMMAND_FORMS = (
    ["check"],
    ["check", "--strict"],
    ["lint"],
    ["sites"],
    ["run", "--mode", "erased"],
    ["run", "--mode", "reified"],
    ["run", "--mode", "erased", "--eager-checkcast"],
)

_GEN = differential._load_gen()
COLLECTOR_TEXTS = [(e.filename, e.source()) for e in corpus_pkg.ENTRIES] + [
    (g.filename, g.source) for g in (_GEN.launder(1, functions=3), _GEN.calltree(1, levels=4))
]


@pytest.fixture
def collector_off():
    """The collector off, with no garbage left from before the test."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    _set_collector(was_enabled)


# The premise of running commands with the collector paused: a command that
# succeeds leaves no cyclic garbage behind. Parse and lex errors are left
# out: the exception they raise and its frames form a small cycle (about 40
# objects, 6 for a usage error) that the collector frees once it is back on.
@pytest.mark.parametrize("filename, source", COLLECTOR_TEXTS, ids=[f for f, _ in COLLECTOR_TEXTS])
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, collector_off, filename, source):
    path = tmp_path / filename
    path.write_text(source, encoding="utf-8")
    for form in COMMAND_FORMS:
        main([form[0], str(path), *form[1:]])
        assert gc.collect() == 0, form
    capsys.readouterr()


def test_a_golden_run_leaves_no_cyclic_garbage(collector_off):
    assert run_corpus(None, False, out=io.StringIO()) == 0
    assert gc.collect() == 0
