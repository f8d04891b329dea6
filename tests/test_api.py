from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import minik
from minik import corpus, diagnostics, runtime
from minik.ast import INT, STRING, ClassType, SourceLoc
from minik.checker import CallInfo, CheckedProgram
from minik.diagnostics import Diagnostic
from minik.lexer import Tokens
from minik.provenance import ProvenanceMap
from minik.runtime import CheckcastSite, ClassCastException, Completed, RunOutcome, RuntimeFault
from minik.typesys import Body, ClassEntry, ClassTable, PropertySig, Signature


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


def test_the_names_loaded_on_first_use_resolve_like_the_others():
    assert minik.run_program is minik.runtime.run_program
    assert minik.pretty_print is minik.printer.pretty_print
    assert minik.lint_program is minik.provenance.lint_program
    assert minik.ERASED is runtime.ERASED
    bound: dict = {}
    exec("from minik import *", bound)
    assert sorted(bound.keys() - {"__builtins__"}) == sorted(minik.__all__)
    assert len(minik.__all__) == 35
    assert set(minik.__all__) <= set(dir(minik))
    with pytest.raises(AttributeError, match="module 'minik' has no attribute 'no_such_name'"):
        minik.no_such_name


def test_a_submodule_loaded_on_first_use_resolves_before_anything_imports_it():
    probe = "import sys, minik; assert 'minik.runtime' not in sys.modules; print(minik.runtime.__name__)"
    env = dict(os.environ, PYTHONPATH=str(Path(minik.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "minik.runtime\n", "")


PACKAGE = Path(minik.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))  # `corpus/__init__.py` too


def _name(path: Path) -> str:
    return path.relative_to(PACKAGE).as_posix()


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


TESTS = Path(__file__).parent


@pytest.mark.parametrize(
    "path",
    SOURCES + sorted(TESTS.glob("*.py")),
    ids=lambda path: f"tests/{path.name}" if path.parent == TESTS else _name(path),
)
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
    trees = {_name(path): ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
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
        _name(path)
        for path in SOURCES
        if _name(path) != "typesys.py"
        and {"ancestor_of", "ancestors"} & set(_references(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert readers == []


def test_no_module_calls_id():
    # Per-node tables are keyed by the node itself, which hashes by identity.
    callers = [
        f"{_name(path)}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert callers == []


def test_only_the_driver_calls_at_strictness():
    # A build holds both strictness levels, and a command reads its own in
    # `cli.run_command`; nothing else picks a level from a checked program.
    callers = [
        _name(path)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at_strictness"
    ]
    assert callers == ["cli.py"]


def test_only_the_syntax_modules_name_index():
    # Everywhere else an index read is the `get` call it stands for.
    namers = sorted(_name(path) for path in SOURCES if re.search(r"\bIndex\b", path.read_text(encoding="utf-8")))
    assert namers == ["ast.py", "parser.py", "printer.py"]


def _reads_fields(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(isinstance(node, ast.Attribute) and node.attr == "_fields" for node in ast.walk(tree))


def test_only_the_record_modules_and_same_tree_read_fields():
    # A tree is walked by `minik.ast.walk`, the one walk; besides the records
    # themselves, only `conftest.same_tree`, which compares two trees field
    # by field, reads the field list.
    assert [_name(path) for path in SOURCES if _reads_fields(path)] == ["ast.py", "records.py"]
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert [path.name for path in tests if _reads_fields(path)] == ["conftest.py"]


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
                    f"{_name(path)}:{node.lineno}"
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
_A = ClassType("A")
_LIST = ClassType("MutableList")


def _provenance_with_one_occurrence() -> ProvenanceMap:
    prov = ProvenanceMap()
    prov.occurrence_sets[0] = (INT,)
    return prov


# Each record with the constructor arguments of one instance, an unequal
# instance, and the `repr` text it had as a dataclass. Every record keeps
# the equality, hashing, `repr` and frozenness its dataclass had.
RECORDS = [
    (SourceLoc, ("a.mk", 1, 2), SourceLoc("a.mk", 2, 1), "SourceLoc(file='a.mk', line=1, col=2)"),
    (
        CallInfo,
        ("method", "get", INT),
        CallInfo("method", "size", INT),
        "CallInfo(kind='method', member='get', declared_return=PrimitiveType(name='Int'), type_args=(),"
        " declared_params=(), param_types=())",
    ),
    (
        CheckcastSite,
        (_LOC, "A", "receiver"),
        CheckcastSite(_LOC, "A", "call-arg"),
        "CheckcastSite(loc=SourceLoc(file='a.mk', line=1, col=2), expected_class='A', reason='receiver')",
    ),
    (
        Signature,
        ("f", ("T",), (INT,), ("x",), INT, None),
        Signature("g", ("T",), (INT,), ("x",), INT, None),
        "Signature(name='f', type_params=('T',), param_types=(PrimitiveType(name='Int'),), param_names=('x',),"
        " return_type=PrimitiveType(name='Int'), decl=None)",
    ),
    (
        PropertySig,
        ("p", INT, None),
        PropertySig("p", STRING, None),
        "PropertySig(name='p', type=PrimitiveType(name='Int'), decl=None)",
    ),
    (
        ClassEntry,
        ("A", (), False, True, False, (), {}, {}, None),
        ClassEntry("B", (), False, True, False, (), {}, {}, None),
        "ClassEntry(name='A', type_params=(), is_interface=False, is_open=True, ctor_private=False, supertypes=(),"
        " methods={}, properties={}, decl=None, is_prelude=False, ancestors=(), ancestor_of={})",
    ),
    (ClassTable, ({}, {}), ClassTable({"A": None}, {}), "ClassTable(classes={}, functions={})"),
    (
        Body,
        (None, None, frozenset(), (), None, ()),
        Body(None, "A", frozenset(), (), None, ()),
        "Body(decl=None, owner=None, type_params=frozenset(), params=(), return_type=None, stmts=())",
    ),
    (
        CheckedProgram,
        (None, None, []),
        CheckedProgram(None, None, [None]),
        "CheckedProgram(program=None, table=None, diagnostics=[], expr_types={}, call_info={}, is_targets={},"
        " decl_types={}, coercions={})",
    ),
    (
        Diagnostic,
        ("E-TYPE", _LOC, "m"),
        Diagnostic("E-TYPE", _LOC, "n"),
        "Diagnostic(code='E-TYPE', loc=SourceLoc(file='a.mk', line=1, col=2), message='m')",
    ),
    (
        Tokens,
        (["eof"], [""], [0], "a.mk", [0]),
        Tokens(["eof"], [""], [0], "b.mk", [0]),
        "Tokens(kinds=['eof'], texts=[''], starts=[0], file='a.mk', line_starts=[0])",
    ),
    (
        ProvenanceMap,
        (),
        _provenance_with_one_occurrence(),
        "ProvenanceMap(occurrence_sets={}, cast_snapshots={})",
    ),
    (runtime.Value, (), runtime.UnitValue(), "Value()"),
    (runtime.IntValue, (1,), runtime.IntValue(2), "IntValue(value=1)"),
    (runtime.StringValue, ("s",), runtime.StringValue("t"), "StringValue(value='s')"),
    (runtime.BoolValue, (True,), runtime.BoolValue(False), "BoolValue(value=True)"),
    (runtime.UnitValue, (), runtime.IntValue(0), "UnitValue()"),  # the class has one value
    (
        runtime.ObjectValue,
        (_A, 1),
        runtime.ObjectValue(_A, 2),
        "ObjectValue(type=ClassType(name='A', args=None), oid=1)",
    ),
    (
        runtime.ListValue,
        (_LIST, 2),
        runtime.ListValue(_LIST, 2, [runtime.IntValue(1)]),
        "ListValue(type=ClassType(name='MutableList', args=None), oid=2, elements=[])",
    ),
    (RunOutcome, ("x",), RunOutcome("y"), "RunOutcome(stdout='x')"),
    (Completed, ("out", None), Completed("out", runtime.UNIT_VALUE), "Completed(stdout='out', value=None)"),
    (
        ClassCastException,
        ("", _LOC, "A", "B"),
        ClassCastException("", _LOC, "B", "A"),
        "ClassCastException(stdout='', loc=SourceLoc(file='a.mk', line=1, col=2), expected='A', actual='B')",
    ),
    (
        RuntimeFault,
        ("", _LOC, "boom"),
        RuntimeFault("", _LOC, "bang"),
        "RuntimeFault(stdout='', loc=SourceLoc(file='a.mk', line=1, col=2), message='boom')",
    ),
    (
        corpus.MatrixRow,
        ("d", 3, None, False),
        corpus.MatrixRow("d", 3, None, True),
        "MatrixRow(description='d', line=3, site_reason=None, crashes=False)",
    ),
    (
        corpus.CorpusEntry,
        ("P1", "P1.mk", "t"),
        corpus.CorpusEntry("P2", "P2.mk", "t"),
        "CorpusEntry(id='P1', filename='P1.mk', title='t', matrix=None)",
    ),
]
UNHASHABLE = {
    ClassEntry,
    ClassTable,
    CheckedProgram,
    Tokens,
    ProvenanceMap,
    runtime.Value,
    runtime.IntValue,
    runtime.StringValue,
    runtime.BoolValue,
    runtime.UnitValue,
    runtime.ObjectValue,
    runtime.ListValue,
}
FROZEN = {
    Signature,
    PropertySig,
    Body,
    Diagnostic,
    RunOutcome,
    Completed,
    ClassCastException,
    RuntimeFault,
    corpus.MatrixRow,
    corpus.CorpusEntry,
}


@pytest.mark.parametrize("record, fields, other, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_slotted_values(record, fields, other, text):
    assert "__slots__" in vars(record)
    value = record(*fields)
    assert not hasattr(value, "__dict__")
    assert value == record(*fields) and value != other
    assert repr(value) == text
    if record in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(record(*fields))
    if record in FROZEN:
        name = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert repr(value) == text


def test_a_tables_memo_neither_compares_nor_shows():
    table = ClassTable({}, {})
    table.memo[("subtype", INT, INT)] = True
    assert table == ClassTable({}, {})
    assert repr(table) == "ClassTable(classes={}, functions={})"


def test_no_module_defines_a_dataclass():
    # A dataclass generates and compiles its methods when its module is
    # imported, which every CLI invocation pays; a record does not. The
    # modules loaded on first use are imported here, so that they are
    # inspected whatever ran before. Only the `@dataclass` decorator sets
    # `__dataclass_params__`; the syntax tree's `__dataclass_fields__` is
    # the field names, kept for tools that walk trees by it.
    import minik.cli  # noqa: F401
    import minik.corpus  # noqa: F401
    import minik.printer  # noqa: F401
    import minik.provenance  # noqa: F401
    import minik.runtime  # noqa: F401

    defined = [
        f"{name}.{value.__name__}"
        for name, module in list(sys.modules.items())
        if name == "minik" or name.startswith("minik.")
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == name and "__dataclass_params__" in vars(value)
    ]
    assert defined == []
    importers = [
        _name(path)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert importers == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Together with the stdlib `ast`, `dis` and `tokenize` they pull in, they
    # were about a third of a fresh interpreter's set-up.
    probe = "import sys, minik.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
