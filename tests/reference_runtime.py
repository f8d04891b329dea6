"""A reference interpreter for miniK's runtime.

It walks a checked program's syntax tree directly, statement by statement
and expression by expression, and applies the runtime rules that README.md
states. It has no compile step, no caches and no memo, so it shares none of
the mechanisms that make `minik.runtime` fast: flat operations, reads fused
into their consumers, threaded jumps or site caches.
It only shares the value classes, the outcome classes and the type system
(`class_conforms`, `subtype`, `substitute`, `find_member`), which define
what a check means rather than how the loop runs it.

    reference_run(checked, mode, eager_checkcast=False) -> RunOutcome

gives the outcome `minik.runtime.run_program` should give, and
`Reference(checked, mode, eager).events`, after `run()`, lists every check
it ran, in order, as (location, reason, expected, actual, passed).

The rules:

- Erased, a value's type is its class without type arguments; reified, its
  fully instantiated type, with the type arguments in force substituted.
- Erased, a class check runs at each `val` initializer, `return`, call
  argument and receiver whose declared type names a class. A read out of a
  type-parameter slot (`list[0]`, `list.get(0)`) gets no `val`, return or
  argument check, but is checked where it is used as a receiver. An
  explicit cast to a class or a built-in type checks the class.
- Eager (erased only): every call's value is also checked against its
  static class, at the call, right after the call.
- Reified, a full check by `subtype` runs at each `val` initializer (against
  the type the `val` binds), call argument, class-typed receiver and
  explicit cast; returns are not checked.
- In both modes a non-Boolean `if` condition fails at the condition, and a
  non-Int list index at the index, where the JVM unboxes them.
- A method call dispatches on the receiver's runtime type through
  `find_member`; the body runs under the bindings it returns. A generic
  function's body runs under its call's type arguments, substituted by the
  caller's bindings (reified only).
- A call nested deeper than `MAX_CALL_DEPTH` ends the run in a
  `RuntimeFault` at the call, after its arguments are evaluated and checked
  and, for a method, after its dispatch.
- A `val` declared in a branch is visible in that branch only; a body sees
  its parameters, and the top level its own earlier `val`s.

Each miniK call costs a few Python frames here, so `reference_run` raises
the recursion limit while it runs, enough for `MAX_CALL_DEPTH` calls.
"""

from __future__ import annotations

import sys
from itertools import count

from minik.ast import (
    BOOLEAN,
    Call,
    CastExpr,
    ClassType,
    Expr,
    ExprStmt,
    If,
    IntLit,
    IsExpr,
    ParamRef,
    PrimitiveType,
    Return,
    SourceLoc,
    Stmt,
    StmtDecl,
    StringLit,
    TypeRef,
    ValDecl,
    VarRef,
)
from minik.checker import CheckedProgram
from minik.runtime import (
    ERASED,
    MAX_CALL_DEPTH,
    UNIT_VALUE,
    BoolValue,
    ClassCastException,
    Completed,
    IntValue,
    ListValue,
    ObjectValue,
    RunOutcome,
    RuntimeFault,
    StringValue,
    UnitValue,
    Value,
)
from minik.typesys import class_conforms, find_member, substitute, subtype

# Python frames per miniK call, with room to spare.
_FRAMES_PER_CALL = 12


class _Stop(Exception):
    """Ends the run; `args` are the outcome's class and its fields after stdout."""


def render(v: Value) -> str:
    if isinstance(v, IntValue):
        return str(v.value)
    if isinstance(v, StringValue):
        return v.value
    if isinstance(v, BoolValue):
        return "true" if v.value else "false"
    if isinstance(v, UnitValue):
        return "Unit"
    return f"<{v.type.name}@{v.oid}>"


class Reference:
    def __init__(self, checked: CheckedProgram, mode: str, eager: bool = False) -> None:
        self.checked = checked
        self.table = checked.table
        self.erased = mode == ERASED
        self.eager = eager and self.erased
        self.stdout: list[str] = []
        self.oids = count(1)
        self.depth = 0  # active calls
        self.events: list[tuple[SourceLoc, str, str, str, bool]] = []

    # -- checks ---------------------------------------------------------------

    def class_check(self, v: Value, expected: str, loc: SourceLoc, reason: str) -> None:
        actual = v.type.name
        ok = class_conforms(self.table, actual, expected)
        self.events.append((loc, reason, expected, actual, ok))
        if not ok:
            raise _Stop(ClassCastException, loc, expected, actual)

    def full_check(self, v: Value, target: TypeRef, loc: SourceLoc, reason: str, bindings: dict) -> None:
        t = substitute(target, bindings)
        ok = subtype(self.table, v.type, t)
        self.events.append((loc, reason, t.render(), v.type.render(), ok))
        if not ok:
            raise _Stop(ClassCastException, loc, t.render(), v.type.render())

    def site(self, v: Value, e: Expr | None, t: TypeRef | None, loc: SourceLoc, reason: str) -> None:
        """Erased: the class check of `v`, the value of `e` (or of a receiver
        when `e` is None), against `t`, if `t` names a class and `e` is not
        a read out of a type-parameter slot."""
        if isinstance(t, ClassType) and not (e is not None and self.is_deferred_read(e)):
            self.class_check(v, t.name, loc, reason)

    def is_deferred_read(self, e: Expr) -> bool:
        if not isinstance(e, Call) or e.receiver is None:
            return False
        info = self.checked.call_info.get(e)
        return info is not None and isinstance(info.declared_return, ParamRef)

    def instance_test(self, v: Value, target: TypeRef, bindings: dict) -> bool:
        if not self.erased:
            return subtype(self.table, v.type, substitute(target, bindings))
        if isinstance(target, ClassType):
            return isinstance(v.type, ClassType) and class_conforms(self.table, v.type.name, target.name)
        if isinstance(target, PrimitiveType):
            return v.type.name == target.name
        return True  # Any / Any?

    # -- statements -----------------------------------------------------------

    def run(self) -> RunOutcome:
        env: dict[str, Value] = {}
        last: Value = UNIT_VALUE
        try:
            for d in self.checked.program.decls:
                if not isinstance(d, StmtDecl):
                    continue
                if isinstance(d.stmt, ExprStmt):
                    last = self.eval(d.stmt.expr, env, {})
                else:
                    self.stmts((d.stmt,), env, {}, None)
        except _Stop as stop:
            outcome, *fields = stop.args
            return outcome("".join(self.stdout), *fields)
        return Completed("".join(self.stdout), last)

    def stmts(self, stmts: tuple[Stmt, ...], env: dict, bindings: dict, return_type: TypeRef | None) -> Value | None:
        """Runs `stmts` in `env`; the value a `return` among them returns, or
        None when they run to their end."""
        for s in stmts:
            if isinstance(s, ValDecl):
                v = self.eval(s.init, env, bindings)
                bound = self.checked.decl_types[s]
                if self.erased:
                    self.site(v, s.init, bound, s.loc, "explicit-decl" if s.declared_type is not None else "implicit-decl")
                else:
                    self.full_check(v, bound, s.loc, "decl", bindings)
                env[s.name] = v
            elif isinstance(s, ExprStmt):
                self.eval(s.expr, env, bindings)
            elif isinstance(s, Return):
                v = self.eval(s.expr, env, bindings)
                if self.erased:
                    self.site(v, s.expr, return_type, s.loc, "return-value")
                return v
            elif isinstance(s, If):
                cond = s.cond
                if isinstance(cond, IsExpr):
                    v = self.eval(cond.expr, env, bindings)
                    taken = self.instance_test(v, self.checked.is_targets[cond], bindings)
                else:
                    v = self.eval(cond, env, bindings)
                    self.events.append((cond.loc, "condition", BOOLEAN.name, v.type.name, isinstance(v, BoolValue)))
                    if not isinstance(v, BoolValue):
                        raise _Stop(ClassCastException, cond.loc, BOOLEAN.name, v.type.name)
                    taken = v.value
                # A branch's vals are its own: it runs in a copy of `env`.
                returned = self.stmts(s.then_body if taken else s.else_body or (), dict(env), bindings, return_type)
                if returned is not None:
                    return returned
            else:
                raise TypeError(f"unknown statement {s!r}")
        return None

    # -- expressions ----------------------------------------------------------

    def eval(self, e: Expr, env: dict, bindings: dict) -> Value:
        if isinstance(e, VarRef):
            return env[e.name]
        if isinstance(e, IntLit):
            return IntValue(e.value)
        if isinstance(e, StringLit):
            return StringValue(e.value)
        if isinstance(e, CastExpr):
            v = self.eval(e.expr, env, bindings)
            target = self.checked.expr_types[e]  # the completed cast target
            if not self.erased:
                self.full_check(v, target, e.loc, "cast", bindings)
            elif isinstance(target, (ClassType, PrimitiveType)):
                self.class_check(v, target.name, e.loc, "cast")
            return v
        if isinstance(e, IsExpr):
            v = self.eval(e.expr, env, bindings)
            return BoolValue(self.instance_test(v, self.checked.is_targets[e], bindings))
        v = self.call(e, env, bindings)
        if self.eager:
            t = self.checked.expr_types.get(e)
            if isinstance(t, ClassType):
                self.class_check(v, t.name, e.loc, "eager")
        return v

    def call(self, e: Call, env: dict, bindings: dict) -> Value:
        checked, table = self.checked, self.table
        info = checked.call_info[e]
        recv = None
        if e.receiver is not None:
            recv = self.eval(e.receiver, env, bindings)
            recv_t = checked.expr_types[e.receiver]
            if self.erased:
                self.site(recv, None, recv_t, e.loc, "receiver")
            elif isinstance(recv_t, ClassType):
                self.full_check(recv, recv_t, e.loc, "receiver", bindings)
        if info.kind == "ctor" or info.kind == "builtin" and e.name == "mutableListOf":
            name = e.name if info.kind == "ctor" else "MutableList"
            t = ClassType(name, None) if self.erased else substitute(ClassType(name, info.type_args), bindings)
            if class_conforms(table, name, "List"):
                return ListValue(t, next(self.oids))
            return ObjectValue(t, next(self.oids))
        expected = info.declared_params if self.erased else info.param_types
        args = []
        for i, a in enumerate(e.args):
            v = self.eval(a, env, bindings)
            if i < len(expected):
                if self.erased:
                    self.site(v, a, expected[i], a.loc, "call-arg")
                else:
                    self.full_check(v, expected[i], a.loc, "call-arg", bindings)
            args.append(v)
        if info.kind == "builtin":
            if e.name != "println":
                raise TypeError(f"unknown builtin {e.name}")
            self.stdout.append(render(args[0]) + "\n")
            return UNIT_VALUE
        if info.kind == "property-get":
            if isinstance(recv, ListValue) and info.member == "size":
                return IntValue(len(recv.elements))
            if isinstance(recv, ObjectValue):
                raise _Stop(RuntimeFault, e.loc, f"property {info.member} was never initialized")
            raise _Stop(RuntimeFault, e.loc, f"{recv.type.name} has no property {info.member}")
        if info.kind == "fun":
            sig = table.functions[e.name]
            callee_bindings = {}
            if not self.erased and info.type_args:
                callee_bindings = {p: substitute(t, bindings) for p, t in zip(sig.type_params, info.type_args)}
        elif isinstance(recv, ListValue):
            return self.list_method(recv, info.member, args, e)
        else:
            if not isinstance(recv, ObjectValue):
                raise _Stop(RuntimeFault, e.loc, f"{recv.type.name} has no methods")
            found = find_member(table, recv.type, info.member, "method")
            if found is None or found[0].decl.body is None:
                raise _Stop(RuntimeFault, e.loc, f"{recv.type.name} has no callable method {info.member}")
            sig, callee_bindings = found
        if self.depth >= MAX_CALL_DEPTH:
            raise _Stop(RuntimeFault, e.loc, f"call depth exceeds {MAX_CALL_DEPTH}")
        self.depth += 1
        returned = self.stmts(sig.decl.body, dict(zip(sig.param_names, args)), callee_bindings, sig.return_type)
        self.depth -= 1
        return UNIT_VALUE if returned is None else returned

    def list_method(self, recv: ListValue, member: str, args: list[Value], e: Call) -> Value:
        elements = recv.elements
        if member == "add":
            elements.append(args[0])
            return UNIT_VALUE
        if member == "get" or member == "set":
            idx = args[0]
            index_loc = e.args[0].loc
            self.events.append((index_loc, "index", "Int", idx.type.name, isinstance(idx, IntValue)))
            if not isinstance(idx, IntValue):
                raise _Stop(ClassCastException, index_loc, "Int", idx.type.name)
            if not 0 <= idx.value < len(elements):
                raise _Stop(RuntimeFault, e.loc, f"index {idx.value} out of bounds for length {len(elements)}")
            if member == "get":
                return elements[idx.value]
            elements[idx.value] = args[1]
            return UNIT_VALUE
        raise _Stop(RuntimeFault, e.loc, f"list has no method {member}")


def reference_run(checked: CheckedProgram, mode: str, eager_checkcast: bool = False) -> RunOutcome:
    """The outcome of running `checked` by the reference rules."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _FRAMES_PER_CALL * MAX_CALL_DEPTH))
    try:
        return Reference(checked, mode, eager_checkcast).run()
    finally:
        sys.setrecursionlimit(limit)
