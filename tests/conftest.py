from __future__ import annotations

import pytest
from hypothesis.vendor.pretty import for_type_by_name

import minik.ast
from minik.ast import If, IsExpr, Node, Program, VarRef, walk_body_exprs, walk_stmts
from minik.cli import build
from minik.typesys import program_bodies


@pytest.fixture
def check_source():
    """Parse + table + check; fails the test on table-construction errors."""

    def _check(source: str, file: str = "test.mk", strict: bool = False):
        checked, diags = build(source, file, strict=strict)
        assert checked is not None, f"table errors: {[d.render() for d in diags]}"
        return checked, diags

    return _check


def call_deep(frames: int, fn, *args, **kwargs):
    """`fn(*args, **kwargs)` called from `frames` extra Python frames."""
    return call_deep(frames - 1, fn, *args, **kwargs) if frames else fn(*args, **kwargs)


def same_tree(a, b) -> bool:
    """Whether two syntax trees are the same but for their locations: the
    same node classes, and every field the same (a node's `loc` is not one
    of its `_fields`), tuples element by element. Syntax nodes compare by
    identity, so `==` cannot say this; types and the other values compare
    by `==`."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_tree, a, b))
    if type(a) is not type(b):
        return False
    if not isinstance(a, (Node, Program)):
        return a == b
    return all(same_tree(getattr(a, name), getattr(b, name)) for name in type(a)._fields)


def codes(diags) -> list[str]:
    return [d.code for d in diags]


def narrowed_uses(checked):
    """(type before the check, type at the use) for every use of `x` inside
    the then-branch of an `if (x is T)`, read from the uses' `expr_types`."""
    for body in program_bodies(checked.table, checked.program):
        for s in walk_stmts(body.stmts):
            if isinstance(s, If) and isinstance(s.cond, IsExpr) and isinstance(s.cond.expr, VarRef):
                name = s.cond.expr.name
                before = checked.expr_types[s.cond.expr]
                for e in walk_body_exprs(s.then_body):
                    if isinstance(e, VarRef) and e.name == name:
                        yield before, checked.expr_types[e]


def pytest_configure(config):
    config.addinivalue_line("markers", "properties: randomized law suites")
    # Hypothesis prints a class with `__dataclass_fields__` as a dataclass,
    # reading that attribute as a dict of fields; the syntax tree's is a
    # tuple of field names. A failing example shows its trees by `repr`.
    for cls in vars(minik.ast).values():
        if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__"):
            for_type_by_name(cls.__module__, cls.__name__, _print_by_repr)


def _print_by_repr(obj, printer, cycle) -> None:
    printer.text(repr(obj))
