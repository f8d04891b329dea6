"""Span tracer installed from the benchmark's side of the module boundary.

`install()` replaces public names in the `minik` module namespaces where
callers look them up (e.g. `minik.cli.parse`, `minik.parser.tokenize`, and
`subtype` as imported by `typesys`, `checker` and `runtime`) with wrappers
that record spans and counts. Nothing inside `minik` changes.

A span is (name, start_ns, end_ns, parent index), kept in memory in one flat
integer array and written out by `Tracer.dump`. Every call is counted; a
recursive function gets a span for its outermost call only, and so does the
`typesys` query group (`subtype`, `supertype_instantiation`, `lub`), whose
calls into each other stay inside the outer query's span. Self time is a
span's duration minus the durations of its direct children, which, with a
single thread, is the part of its interval its children cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import minik.checker
import minik.cli
import minik.parser
import minik.provenance
import minik.runtime
import minik.typesys
from minik.ast import Program, SourceLoc

_ns = time.perf_counter_ns
_FIELDS = 4  # name id, start, end, parent span index (-1 for a root)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []  # indices of the spans currently open
        self._groups: dict[str, list[int]] = {}  # group -> [number of its spans open]
        self._restore: list[tuple[object, str, object]] = []
        self._node_counts: dict[tuple[str, int], int] = {}
        self.subtype_keys: set = set()
        self.tables: dict[int, object] = {}  # keeps tables alive so their ids stay unique in a pass

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_count(self) -> int:
        return len(self.spans) // _FIELDS

    # -- wrappers ----------------------------------------------------------

    def spanned(self, fn, name: str, counters: tuple[str, ...] = (), on_call=None, on_result=None,
                name_of=None, group: str | None = None):
        """Wrap `fn` so each call bumps `counters` and each call outside an
        open span of its `group` (default: its own name) records a span
        named `name` (or `name_of(args, kwargs)`). `on_call(args)` and
        `on_result(result, args)` can take counts."""
        fixed = self.name_id(name)
        spans, open_, counts = self.spans, self._open, self.counts
        depth = self._groups.setdefault(group or name, [0])

        def wrapper(*args, **kwargs):
            for c in counters:
                counts[c] += 1
            if on_call is not None:
                on_call(args)
            if depth[0]:
                return fn(*args, **kwargs)
            nid = fixed if name_of is None else self.name_id(name_of(args, kwargs))
            index = len(spans) // _FIELDS
            spans.extend((nid, 0, 0, open_[-1] if open_ else -1))
            depth[0] += 1
            open_.append(index)
            spans[index * _FIELDS + 1] = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index * _FIELDS + 2] = _ns()
                open_.pop()
                depth[0] -= 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def counted(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- result hooks --------------------------------------------------------

    def _on_tokens(self, tokens, args) -> None:
        self.counts["lexer.tokens"] += len(tokens)

    def _on_parse(self, program: Program, args) -> None:
        # Node counts are memoized per source text, so after the first
        # (discarded) traced pass the hook costs one dict lookup.
        source = args[0]
        file = args[1] if len(args) > 1 else "<input>"
        key = (file, hash(source))
        n = self._node_counts.get(key)
        if n is None:
            n = self._node_counts[key] = count_nodes(program)
        self.counts["parser.nodes"] += n

    def _on_table(self, result, args) -> None:
        table, _ = result
        self.counts["typesys.classes"] += len(table.classes)

    def _on_checked(self, checked, args) -> None:
        self.counts["checker.exprs"] += len(checked.expr_types)
        self.counts["checker.coercions"] += len(checked.coercions)

    def _on_subtype(self, args) -> None:
        table = args[0]
        self.tables[id(table)] = table
        self.subtype_keys.add((id(table), args[1], args[2]))

    def _on_lint(self, diags, args) -> None:
        self.counts["provenance.warnings"] += len(diags)

    def _on_sites(self, sites, args) -> None:
        self.counts["runtime.sites"] += len(sites)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        cli, parser, typesys = minik.cli, minik.parser, minik.typesys
        checker, provenance, runtime = minik.checker, minik.provenance, minik.runtime

        self.patch(cli, "main", self.spanned(cli.main, "cli.main"))
        self.patch(cli, "run_corpus", self.spanned(cli.run_corpus, "cli.run_corpus"))
        self.patch(cli, "build", self.spanned(cli.build, "cli.build", ("cli.builds",)))
        self.patch(cli, "render_diagnostics", self.spanned(cli.render_diagnostics, "diagnostics.render"))

        self.patch(parser, "tokenize", self.spanned(parser.tokenize, "lexer.tokenize", on_result=self._on_tokens))
        parse = self.spanned(parser.parse, "parser.parse", on_result=self._on_parse)
        self.patch(cli, "parse", parse)
        self.patch(typesys, "parse", parse)  # the prelude, parsed once per process

        self.patch(cli, "build_class_table",
                   self.spanned(cli.build_class_table, "typesys.table", on_result=self._on_table))
        self.patch(cli, "check_program", self.spanned(cli.check_program, "checker.check", on_result=self._on_checked))

        subtype = typesys.subtype
        for module, counters in ((typesys, ()), (checker, ()), (runtime, ("runtime.coercion_checks",))):
            self.patch(module, "subtype", self.spanned(subtype, "typesys.subtype", ("typesys.subtype_calls",) + counters,
                                                        on_call=self._on_subtype, group="typesys"))
        supinst = typesys.supertype_instantiation
        for module in (typesys, checker):
            self.patch(module, "supertype_instantiation",
                       self.spanned(supinst, "typesys.supinst", ("typesys.supinst_calls",), group="typesys"))
        self.patch(checker, "lub", self.spanned(checker.lub, "typesys.lub", ("typesys.lub_calls",), group="typesys"))

        self.patch(cli, "lint_program", self.spanned(cli.lint_program, "provenance.lint", on_result=self._on_lint))
        self.patch(provenance, "compute_provenance", self.counted(provenance.compute_provenance, "provenance.bodies"))

        self.patch(cli, "checkcast_sites", self.spanned(cli.checkcast_sites, "runtime.sites", on_result=self._on_sites))
        self.patch(runtime, "compute_site_index", self.spanned(runtime.compute_site_index, "runtime.site_index"))
        self.patch(cli, "run_program", self.spanned(cli.run_program, "runtime.run", name_of=_run_span_name))
        self.patch(runtime, "class_conforms", self.counted(runtime.class_conforms, "runtime.class_checks"))

    # -- per-pass aggregation ---------------------------------------------------

    def begin_pass(self) -> int:
        self.counts.clear()
        self.subtype_keys.clear()
        self.tables.clear()
        return self.span_count()

    def summarize(self, first_span: int) -> dict[str, float]:
        """Per-layer numbers for the spans recorded since `first_span`."""
        names = self.names
        incl = [0] * len(names)
        self_ns = [0] * len(names)
        run_index_ns = 0
        spans = self.spans
        run_ids = {self._ids.get("runtime.erased"), self._ids.get("runtime.reified")}
        site_index = self._ids["runtime.site_index"]
        for i in range(first_span, self.span_count()):
            nid, start, end, parent = spans[i * _FIELDS:(i + 1) * _FIELDS]
            d = end - start
            incl[nid] += d
            self_ns[nid] += d
            if parent >= 0:
                pid = spans[parent * _FIELDS]
                self_ns[pid] -= d
                if nid == site_index and pid in run_ids:
                    run_index_ns += d

        def ms(values, name):
            nid = self._ids.get(name)
            return values[nid] / 1e6 if nid is not None else 0.0

        c = self.counts
        lexer_ms = ms(incl, "lexer.tokenize")
        subtype_calls = c["typesys.subtype_calls"]
        return {
            "lexer.ms": lexer_ms,
            "lexer.tokens": c["lexer.tokens"],
            "lexer.tokens_per_s": c["lexer.tokens"] / (lexer_ms / 1e3) if lexer_ms else 0.0,
            "parser.ms": ms(self_ns, "parser.parse"),
            "parser.nodes": c["parser.nodes"],
            "typesys.table_ms": ms(incl, "typesys.table"),
            "typesys.classes": c["typesys.classes"],
            "typesys.subtype_calls": subtype_calls,
            "typesys.subtype_ms": ms(incl, "typesys.subtype"),
            "typesys.subtype_distinct_ratio": len(self.subtype_keys) / subtype_calls if subtype_calls else 0.0,
            "typesys.lub_calls": c["typesys.lub_calls"],
            "typesys.lub_ms": ms(incl, "typesys.lub"),
            "typesys.supinst_calls": c["typesys.supinst_calls"],
            "checker.ms": ms(self_ns, "checker.check"),
            "checker.exprs": c["checker.exprs"],
            "checker.coercions": c["checker.coercions"],
            "provenance.ms": ms(self_ns, "provenance.lint"),
            "provenance.bodies": c["provenance.bodies"],
            "provenance.warnings": c["provenance.warnings"],
            "runtime.sites_ms": ms(incl, "runtime.sites"),
            "runtime.sites": c["runtime.sites"],
            "runtime.run_index_ms": run_index_ns / 1e6,
            "runtime.erased_ms": ms(self_ns, "runtime.erased"),
            "runtime.reified_ms": ms(self_ns, "runtime.reified"),
            "runtime.class_checks": c["runtime.class_checks"],
            "runtime.coercion_checks": c["runtime.coercion_checks"],
            "cli.builds": c["cli.builds"],
            "cli.ms": sum(ms(self_ns, n) for n in ("cli.main", "cli.run_corpus", "cli.build")),
            "diagnostics.render_ms": ms(incl, "diagnostics.render"),
            "trace.spans": self.span_count() - first_span,
        }

    def dump(self, path: Path) -> None:
        """Write the spans as native-order int64 quadruples (name id,
        start ns, end ns, parent index) plus a JSON file of the names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            self.spans.tofile(f)
        path.with_suffix(".names.json").write_text(json.dumps(self.names), encoding="utf-8")


def _run_span_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode")
    return f"runtime.{mode}"


def count_nodes(program: Program) -> int:
    """Number of AST objects (declarations, members, statements,
    expressions, type references; not locations) reachable from `program`."""
    seen = 0
    stack: list = list(program.decls)
    while stack:
        node = stack.pop()
        fields = getattr(node, "__dataclass_fields__", None)
        if fields is None or isinstance(node, SourceLoc):
            continue
        seen += 1
        for name in fields:
            value = getattr(node, name)
            if isinstance(value, (tuple, list)):
                stack.extend(value)
            elif hasattr(value, "__dataclass_fields__"):
                stack.append(value)
    return seen
