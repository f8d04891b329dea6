"""Command-line driver.

Commands: `check` (diagnostics), `lint` (baseline plus provenance
diagnostics), `run` (evaluate under a runtime mode), `sites` (checkcast
placement), and `corpus` (diff every bundled program against its golden).
Exit codes: 2 on parse errors and unreadable files, 1 on error diagnostics
or golden mismatches, 0 otherwise; warnings never affect the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .checker import ERASED, REIFIED, CheckedProgram, check_program
from .diagnostics import Diagnostic, has_errors, render_diagnostics
from .parser import ParseError, parse
from .typesys import build_class_table

if TYPE_CHECKING:
    from .corpus import CorpusEntry
    from .runtime import CheckcastSite, RunOutcome

BLOCKED_MARKER = "<blocked by errors>"


# The stages after a build load their modules on their first call, so that a
# `check` compiles neither the lint nor the runtime. `run_command` calls them
# through these module globals, where tools that wrap a stage replace them.


def lint_program(checked: CheckedProgram) -> list[Diagnostic]:
    from . import provenance

    return provenance.lint_program(checked)


def checkcast_sites(checked: CheckedProgram) -> list[CheckcastSite]:
    from . import runtime

    return runtime.checkcast_sites(checked)


def run_program(checked: CheckedProgram, mode: str, eager_checkcast: bool = False) -> RunOutcome:
    from . import runtime

    return runtime.run_program(checked, mode, eager_checkcast)


def build(source: str, filename: str, strict: bool = False) -> tuple[CheckedProgram | None, list[Diagnostic]]:
    """Parse, build the class table, and check. Returns (checked, its
    diagnostics at `strict`), or (None, the table's diagnostics) when the
    table has any: each is an `E-TABLE` error. The one check pass holds
    both levels, so `run_command` reads either level from this build."""
    program = parse(source, filename)
    table, table_diags = build_class_table(program)
    if table_diags:
        return None, table_diags
    checked = check_program(table, program, strict)
    return checked, checked.diagnostics


Built = tuple[CheckedProgram | None, list[Diagnostic]] | ParseError


def build_or_error(source: str, filename: str, strict: bool) -> Built:
    """`build`, with a parse error returned instead of raised."""
    try:
        return build(source, filename, strict)
    except ParseError as e:
        return e


def run_command(
    command: str,
    source: str,
    filename: str,
    strict: bool = False,
    mode: str | None = None,
    eager_checkcast: bool = False,
    built: Built | None = None,
) -> tuple[str, int]:
    """The stdout and exit code of `check`, `lint`, `run` or `sites` on one
    source text. `built`, when given, is `build_or_error` of that text at
    either strictness, and the command reads `strict`'s level from it; no
    command mutates it, so callers may share it."""
    if command not in ("check", "lint", "run", "sites"):
        raise ValueError(f"unknown command {command}")
    if built is None:
        built = build_or_error(source, filename, strict)
    if isinstance(built, ParseError):
        return f"parse error {built.loc}: {built.message}\n", 2
    checked, diags = built
    if checked is not None:
        checked = checked.at_strictness(strict)
        diags = checked.diagnostics
    if command in ("check", "lint"):
        if command == "lint" and checked is not None:
            diags = diags + lint_program(checked)
        return render_diagnostics(diags), 1 if has_errors(diags) else 0
    if checked is None or has_errors(diags):
        return render_diagnostics(diags), 1
    if command == "run":
        outcome = run_program(checked, mode, eager_checkcast)
        return outcome.stdout + outcome.render() + "\n", 0
    return "".join(s.render() + "\n" for s in checkcast_sites(checked)), 0


def _column_output(source: str, filename: str, column: str, built: Built) -> str:
    """The exact text a golden records for one driver column: the command's
    stdout, marked where errors blocked a run or a site listing."""
    from .corpus import COLUMNS

    if column not in COLUMNS:
        raise ValueError(f"unknown column {column}")
    command, _, variant = column.partition("-")  # check-strict, run-erased, run-reified
    out, code = run_command(command, source, filename, strict=variant == "strict", mode=variant, built=built)
    if command in ("run", "sites") and code == 1:
        out += BLOCKED_MARKER + "\n"
    return out


# ============================================================
# GOLDEN FILES
# ============================================================


def _golden_render(entry: CorpusEntry) -> str:
    """The golden text of one entry: every column's output under its
    header, all six from one build. `--bless` writes it; the check compares
    its sections with the golden file's."""
    from .corpus import COLUMNS

    source = entry.source()
    built = build_or_error(source, entry.filename, False)
    lines = [f"# {entry.id}: {entry.title}"]
    for column in COLUMNS:
        lines.append(f"== {column} ==")
        lines.extend(_column_output(source, entry.filename, column, built).splitlines())
    return "\n".join(lines) + "\n"


def _golden_sections(text: str) -> dict[str, list[str]]:
    # Lines starting with '#' are annotations, blank lines are layout and
    # `== <column> ==` lines are headers; corpus programs must not print any
    # of these shapes.
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            current = sections.setdefault(line[3:-3], [])
            continue
        if line.startswith("#") or not line.strip():
            continue
        if current is not None:
            current.append(line.rstrip())
    return sections


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, and leave it as
    it was found. A successful command builds no reference cycle, so the
    collections its allocations would trigger find nothing to free."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_corpus(filter_prefix: str | None, bless: bool, out=None) -> int:
    from . import corpus as corpus_pkg

    with _collector_paused():
        out = out if out is not None else sys.stdout
        entries = corpus_pkg.select(filter_prefix)
        if not entries:  # a mistyped filter must not read as a passing check
            print(f"minik: no corpus entry id starts with {filter_prefix!r}", file=sys.stderr)
            return 2
        if bless:
            corpus_pkg.GOLDEN_DIR.mkdir(exist_ok=True)
        failed = 0
        for entry in entries:
            rendered = _golden_render(entry)
            if bless:
                entry.golden_path.write_text(rendered, encoding="utf-8")
                print(f"{entry.id} blessed", file=out)
                continue
            path = entry.golden_path
            golden = _golden_sections(path.read_text(encoding="utf-8")) if path.exists() else {}
            actual_sections = _golden_sections(rendered)
            for column in corpus_pkg.COLUMNS:
                actual, expected = actual_sections[column], golden.get(column)
                if actual == expected:
                    print(f"{entry.id} {column} PASS", file=out)
                    continue
                failed += 1
                print(f"{entry.id} {column} FAIL", file=out)
                if expected is None:
                    print(f"  missing golden section {column}", file=out)
                    continue
                for a, b in zip(expected + ["<end>"] * len(actual), actual + ["<end>"] * len(expected)):
                    if a != b:
                        print(f"  expected: {a}", file=out)
                        print(f"  actual:   {b}", file=out)
                        break
        if bless:
            return 0
        print(f"total={len(entries) * len(corpus_pkg.COLUMNS)} failed={failed}", file=out)
        return 1 if failed else 0


# ============================================================
# COMMANDS
# ============================================================


def cmd_file(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) else f"not valid UTF-8 (byte {e.start})"
        print(f"minik: cannot read {args.file}: {reason}", file=sys.stderr)
        return 2
    out, code = run_command(
        args.command,
        source,
        path.name,
        strict=getattr(args, "strict", False),
        mode=getattr(args, "mode", None),
        eager_checkcast=getattr(args, "eager_checkcast", False),
    )
    sys.stdout.write(out)
    return code


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and reused by every later one:
    `parse_args` keeps no state between calls."""
    parser = argparse.ArgumentParser(prog="minik", description="miniK language driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-check a program and print diagnostics")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true", help="enable the strict variance rules")

    p = sub.add_parser("lint", help="baseline diagnostics plus the provenance cast lint")
    p.add_argument("file")

    p = sub.add_parser("run", help="evaluate a program")
    p.add_argument("file")
    p.add_argument("--mode", choices=[ERASED, REIFIED], required=True)
    p.add_argument(
        "--eager-checkcast",
        action="store_true",
        help="erased mode: also verify every acquisition at its own location",
    )

    p = sub.add_parser("sites", help="print the checkcast sites the erased runtime will verify")
    p.add_argument("file")

    p = sub.add_parser("corpus", help="diff every bundled program against its golden")
    p.add_argument("--filter", help="only entries whose id starts with this prefix")
    p.add_argument("--bless", action="store_true", help="regenerate the golden files")
    return parser


def main(argv: list[str] | None = None) -> int:
    with _collector_paused():
        args = _argument_parser().parse_args(argv)
        if args.command == "corpus":
            return run_corpus(args.filter, args.bless)
        return cmd_file(args)


if __name__ == "__main__":
    sys.exit(main())
