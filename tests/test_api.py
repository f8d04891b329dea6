from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import minik
from minik import diagnostics
from minik.ast import INT, SourceLoc
from minik.checker import CallInfo
from minik.runtime import CheckcastSite


def test_public_api_is_pinned():
    assert minik.__all__ == [
        "CastClassification",
        "CheckcastSite",
        "CheckedProgram",
        "ClassCastException",
        "ClassTable",
        "Completed",
        "Diagnostic",
        "ERASED",
        "ParseError",
        "Program",
        "ProvenanceMap",
        "REIFIED",
        "RunOutcome",
        "RuntimeFault",
        "SourceLoc",
        "TypeRef",
        "build_class_table",
        "check_inheritance_variance",
        "check_program",
        "check_variance_positions",
        "checkcast_sites",
        "classify_cast_baseline",
        "complete_cast_target",
        "compute_provenance",
        "erased_instance_check",
        "infer_call_type_args",
        "lint_function",
        "lint_program",
        "lub",
        "parse",
        "pretty_print",
        "render_diagnostics",
        "run_program",
        "subtype",
        "supertype_instantiation",
    ]
    for name in minik.__all__:
        assert hasattr(minik, name), name


SOURCES = sorted(Path(minik.__file__).parent.glob("*.py"))


def _module_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module's imports bind and the names it loads, counting
    the strings of its `__all__` as loads."""
    imported: set[str] = set()
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            loaded.update(elt.value for elt in node.value.elts)
    return imported, loaded


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    imported, loaded = _module_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(imported - loaded) == []


def _references(node: ast.AST, skip: ast.AST | None = None):
    """Each name `node` reads, by bare name, attribute or import, outside
    the subtree `skip`."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (a.name for a in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def test_every_private_module_level_name_is_read_elsewhere():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    unread = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in (d for d in defined if d.startswith("_") and not d.startswith("__")):
                if not any(
                    ref == private for other in trees.values() for ref in _references(other, stmt)
                ):
                    unread.append(f"{name}:{private}")
    assert unread == []


def test_only_typesys_reads_the_ancestor_tables():
    readers = sorted(
        path.name
        for path in SOURCES
        if path.name != "typesys.py"
        and {"ancestor_of", "ancestors"} & set(_references(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert readers == []


def test_only_the_syntax_modules_name_index():
    # Everywhere else an index read is the `get` call it stands for.
    namers = sorted(path.name for path in SOURCES if re.search(r"\bIndex\b", path.read_text(encoding="utf-8")))
    assert namers == ["ast.py", "parser.py", "printer.py"]


def test_every_diagnostic_code_passed_in_the_sources_is_registered():
    # So `warning` and `error` never raise their ValueError for miniK's own code.
    registered = {"warning": diagnostics.WARNING_CODES, "error": diagnostics.ERROR_CODES}
    calls = 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in registered:
                code = node.args[0]
                calls += 1
                assert isinstance(code, ast.Constant) and code.value in registered[node.func.id], (
                    f"{path.name}:{node.lineno}"
                )
    assert calls > 20  # the walk found the call sites


@pytest.mark.parametrize("make, code", [("warning", "E-TYPE"), ("error", "W-UNCHECKED-CAST"), ("error", "E-NEW")])
def test_an_unregistered_diagnostic_code_is_a_value_error(make, code):
    with pytest.raises(ValueError, match=f"unknown {make} code {code}"):
        getattr(diagnostics, make)(code, minik.SourceLoc("t.mk", 1, 1), "message")


def test_a_location_is_a_value():
    loc = SourceLoc("a.mk", 3, 7)
    assert loc == SourceLoc("a.mk", 3, 7)
    assert loc != SourceLoc("a.mk", 3, 8)
    assert {loc, SourceLoc("a.mk", 3, 7), SourceLoc("b.mk", 3, 7)} == {loc, SourceLoc("b.mk", 3, 7)}
    assert str(loc) == "a.mk:3:7"
    assert repr(loc) == "SourceLoc(file='a.mk', line=3, col=7)"


_LOC = SourceLoc("a.mk", 1, 2)
RECORDS = [
    (SourceLoc, ("a.mk", 1, 2), ("a.mk", 2, 1)),
    (CallInfo, ("method", "get", INT), ("method", "size", INT)),
    (CheckcastSite, (_LOC, "A", "receiver"), (_LOC, "A", "call-arg")),
]


@pytest.mark.parametrize("record, fields, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_per_node_records_are_slotted_values(record, fields, other):
    assert "__slots__" in vars(record)
    value = record(*fields)
    assert not hasattr(value, "__dict__")
    assert value == record(*fields) and hash(value) == hash(record(*fields))
    assert value != record(*other)
