"""Implicit-cast provenance analysis and the cast lint built on it.

A forward, intraprocedural, flow-sensitive pass tracks, per value, the set
of static types the value has held along its chain of implicit upcasts
(val bindings, argument passing, returns). Aliasing through val bindings
shares one history; if/else joins union the histories of the values either
branch changed, which each branch's undo log names. Explicit casts are
then re-classified against every recorded origin type, which surfaces
unchecked casts the baseline classifier misses once an implicit upcast has
laundered the type arguments.

The analysis is local by design: a chain split across two functions is not
seen, and the lint stays silent on it.
"""

from __future__ import annotations

from .ast import (
    BOOLEAN,
    Call,
    CastExpr,
    ClassType,
    Expr,
    ExprStmt,
    If,
    IsExpr,
    Return,
    Stmt,
    TypeRef,
    ValDecl,
    VarRef,
)
from .checker import CastClassification, CheckedProgram, classify_cast_baseline
from .diagnostics import Diagnostic, warning
from .records import Record
from .typesys import program_bodies


class ProvenanceMap(Record):
    """Per-occurrence provenance, keyed by the expression node: for every
    expression occurrence, the ordered set of static types its value had
    held at that point (the current static type always included).
    `cast_snapshots` lists the body's explicit casts in preorder, as
    `ast.walk` meets them, each with its operand's history."""

    __slots__ = ("occurrence_sets", "cast_snapshots")

    def __init__(self) -> None:
        self.occurrence_sets: dict[Expr, tuple[TypeRef, ...]] = {}
        # Snapshot of the operand's history taken at each explicit cast,
        # before the cast's own target type is appended.
        self.cast_snapshots: dict[CastExpr, tuple[TypeRef, ...]] = {}

    def at(self, e: Expr) -> tuple[TypeRef, ...]:
        return self.occurrence_sets.get(e, ())


def _append(history: tuple[TypeRef, ...], t: TypeRef) -> tuple[TypeRef, ...]:
    return history if t in history else history + (t,)


class _Analysis:
    def __init__(self, checked: CheckedProgram) -> None:
        self.checked = checked
        self.out = ProvenanceMap()
        self.values: dict[int, tuple[TypeRef, ...]] = {}
        self.next_value = 0
        # The history each value had before the innermost open branch first
        # changed it (at the top level, a log nobody reads).
        self.log: dict[int, tuple[TypeRef, ...]] = {}

    def fresh(self, t: TypeRef) -> int:
        # Not logged: no code outside the branch that makes it sees the value.
        vid = self.next_value
        self.next_value += 1
        self.values[vid] = (t,)
        return vid

    def write(self, vid: int, history: tuple[TypeRef, ...]) -> None:
        if vid not in self.log:
            self.log[vid] = self.values[vid]
        self.values[vid] = history

    def extend(self, vid: int, t: TypeRef) -> None:
        history = self.values[vid]
        if t not in history:
            self.write(vid, history + (t,))

    def static_type(self, e: Expr) -> TypeRef:
        return self.checked.expr_types.get(e, BOOLEAN)

    # -- expressions -----------------------------------------------------

    def visit_expr(self, e: Expr, env: dict[str, int]) -> int:
        if isinstance(e, VarRef):
            vid = env.get(e.name)
            if vid is None:
                vid = self.fresh(self.static_type(e))
            # A narrowed occurrence reports its narrowed static type as part
            # of its own set without polluting the value's upcast history.
            self.out.occurrence_sets[e] = _append(self.values[vid], self.static_type(e))
            return vid
        if isinstance(e, CastExpr):
            self.out.cast_snapshots[e] = ()  # its place, before its operand's casts: preorder
            vid = self.visit_expr(e.expr, env)
            # The lint wants the history as it stood when the cast ran.
            self.out.cast_snapshots[e] = self.values[vid]
            self.extend(vid, self.static_type(e))  # the completed target
            self.out.occurrence_sets[e] = self.values[vid]
            return vid
        if isinstance(e, IsExpr):
            self.visit_expr(e.expr, env)
            vid = self.fresh(BOOLEAN)
            self.out.occurrence_sets[e] = self.values[vid]
            return vid
        if isinstance(e, Call):
            if e.receiver is not None:
                self.visit_expr(e.receiver, env)
            for a in e.args:
                self.visit_coerced(a, env)
        # Call and container-read results start fresh, as literals do:
        # provenance does not flow through element reads or out of callees.
        vid = self.fresh(self.static_type(e))
        self.out.occurrence_sets[e] = self.values[vid]
        return vid

    def visit_coerced(self, e: Expr, env: dict[str, int]) -> None:
        """Visit `e`, then add the type it is implicitly upcast to, if any,
        to its value's history."""
        vid = self.visit_expr(e, env)
        coerced = self.checked.coercions.get(e)
        if coerced is not None:
            self.extend(vid, coerced)

    # -- statements --------------------------------------------------------

    def visit_stmt(self, s: Stmt, env: dict[str, int]) -> None:
        if isinstance(s, ValDecl):
            vid = self.visit_expr(s.init, env)
            bound = self.checked.decl_types.get(s)
            if bound is not None:
                self.extend(vid, bound)
            env[s.name] = vid
            return
        if isinstance(s, ExprStmt):
            self.visit_expr(s.expr, env)
            return
        if isinstance(s, Return):
            self.visit_coerced(s.expr, env)
            return
        if isinstance(s, If):
            self.visit_expr(s.cond, env)
            outer = self.log
            after_then = self.visit_branch(s.then_body, env)
            after_else = self.visit_branch(s.else_body or (), env)
            self.log = outer
            # Join the values either branch changed: histories union, ordered
            # as then-branch then else-only. Every other value is unchanged.
            for vid in after_then.keys() | after_else.keys():
                before = self.values[vid]
                joined = after_then.get(vid, before)
                for t in after_else.get(vid, before):
                    joined = _append(joined, t)
                self.write(vid, joined)
            return
        raise TypeError(f"unknown statement {s!r}")

    def visit_branch(self, body: tuple[Stmt, ...], env: dict[str, int]) -> dict[int, tuple[TypeRef, ...]]:
        """Visit one branch in its own scope, then undo its changes to the
        values it found; return the histories it left on them."""
        self.log = log = {}
        branch_env = dict(env)
        for inner in body:
            self.visit_stmt(inner, branch_env)
        after = {vid: self.values[vid] for vid in log}
        self.values.update(log)
        return after


def compute_provenance(
    checked: CheckedProgram,
    body: tuple[Stmt, ...],
    params: tuple[tuple[str, TypeRef], ...] = (),
) -> ProvenanceMap:
    """Run the forward analysis over one function body (or the top level).

    Parameters seed the environment with singleton histories of their
    declared types; every other value starts fresh at its producer.
    """
    analysis = _Analysis(checked)
    env: dict[str, int] = {}
    for name, t in params:
        env[name] = analysis.fresh(t)
    for s in body:
        analysis.visit_stmt(s, env)
    return analysis.out


def _render_set(types: tuple[TypeRef, ...]) -> str:
    return "{" + ", ".join(t.render() for t in types) + "}"


def lint_function(checked: CheckedProgram, body: tuple[Stmt, ...], prov: ProvenanceMap) -> list[Diagnostic]:
    """Re-classify every explicit cast against each origin type in its
    operand's provenance set; casts the baseline already warns about are
    skipped. One diagnostic per offending cast, in preorder. `prov` is
    `compute_provenance` of `body`, whose casts it lists."""
    diags: list[Diagnostic] = []
    for e, history in prov.cast_snapshots.items():
        target = checked.expr_types[e]  # the completed cast target
        classification = classify_cast_baseline(checked.table, checked.expr_types[e.expr], target)
        generic_target = isinstance(target, ClassType) and bool(target.args)
        eligible = classification is CastClassification.UNCHECKED_SILENT or (
            classification is CastClassification.FULLY_CHECKED and generic_target
        )
        if not eligible:
            continue
        culprits = [
            origin
            for origin in history
            if classify_cast_baseline(checked.table, origin, target)
            is CastClassification.UNCHECKED_WARNED
        ]
        if not culprits:
            continue
        diags.append(
            warning(
                "W-PROVENANCE-UNCHECKED-CAST",
                e.loc,
                f"cast to {target.render()} is unchecked for a value whose "
                f"implicit-cast history is {_render_set(history)} "
                f"(unchecked from {culprits[0].render()})",
            )
        )
    return diags


def lint_program(checked: CheckedProgram) -> list[Diagnostic]:
    """Provenance lint over every function, method body, and the top level."""
    if not checked.ok:
        return []
    diags: list[Diagnostic] = []
    for body in program_bodies(checked.table, checked.program):
        prov = compute_provenance(checked, body.stmts, body.params)
        diags.extend(lint_function(checked, body.stmts, prov))
    return diags
