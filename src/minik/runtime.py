"""Erased and reified runtimes: each body is compiled, on its first call,
into a flat list of operations in evaluation order, and one loop runs those
lists over an explicit stack of activation records, one per active call.

Every value carries its runtime type as a `TypeRef`, the checker's own type
model. The compiler decides every implicit check, for the mode it compiles
in. Erased mode models a JVM-style runtime: an object's type is its class
without type arguments (a bare `ClassType`), and coercions are verified
lazily at a fixed set of checkcast sites (typed and inferred val
declarations, class-typed call arguments, member access receivers,
class-typed returns). Values read out of a type-parameter
slot of an erased generic (e.g. `list[0]`) have nothing to verify against at
the read, and their coercion sites are skipped; their class is finally
inspected when they are used as a receiver or explicitly cast. The optional
eager mode additionally re-checks every acquisition at its own location.
`checkcast_sites` records each site an erased compile places as a
`CheckcastSite`, so it lists exactly the checks the erased runtime runs.

Reified mode keeps each object's fully instantiated type and checks every
coercion into a val, a parameter or a receiver, and every explicit cast,
immediately and variance-aware, by `subtype` on the value's own type. In
both modes a value of the wrong class fails at an `if` condition or a list
index, where the JVM unboxes it.

The checks on a value read from a variable run inside the operation that
reads it, in order, each at its own location and with its own message, in
one place in the loop. That operation is a `load` that pushes the value,
or, where a `load` would have pushed it for the next operation to pop, the
next operation itself: a `val` copy, a `return`, an `if (v is T)`, a
call's last argument or the receiver of a method call without arguments.
A `return` of a constant carries it, so a body without a `return` of its
own ends in one operation, and a jump that lands on a `return` is a copy
of that `return`, checks and site cache included. An `if` whose condition
is an `is` test is one operation that tests and jumps; a call binds its
arguments straight to the callee's variables, by position; and a call
whose value a statement drops drops it on return.

Method dispatch takes the method and the bindings its body runs under from
`typesys.find_member`, as the checker does. The class table admits only
redeclarations with the same parameters, so the method found takes the
arguments the call site was checked against. A body is compiled once per
instantiation, under its type parameters' bindings (Kennedy & Syme 2001).

Every check and `is` test has one shape: a target `TypeRef`, decided by the
run mode's instance test, `erased_instance_check` on a class type without
type arguments or a primitive when erased and `reified_instance_check` when
reified. Each variable read with checks, `is` test and method call keeps a
cache of its own (an inline cache), by the value's runtime type: the types
all of the read's checks passed for, the test's verdicts, the call's
dispatches, in every instantiation of a generic body. A type is added only
once settled, and a miss decides afresh: `class_conforms` is one lookup, and
`subtype` is memoized on the class table. Every check still runs at its own
location and with its own message.
"""

from __future__ import annotations

from itertools import count

from .ast import (
    BOOLEAN,
    INT,
    STRING,
    UNIT,
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
    Program,
    Return,
    SourceLoc,
    Stmt,
    StmtDecl,
    StringLit,
    TypeRef,
    ValDecl,
    VarRef,
)
from .checker import ERASED, REIFIED, CheckedProgram
from .records import Record
from .typesys import (
    ClassTable,
    Signature,
    class_conforms,
    find_member,
    program_bodies,
    substitute,
    subtype,
)

# Deeper calls end the run in a RuntimeFault at the call.
MAX_CALL_DEPTH = 1000


# ============================================================
# CHECKCAST SITES
# ============================================================


class CheckcastSite(Record, hashable=True):
    __slots__ = ("loc", "expected_class", "reason")

    def __init__(
        self,
        loc: SourceLoc,
        expected_class: str,
        reason: str,  # explicit-decl | implicit-decl | call-arg | receiver | return-value
    ) -> None:
        self.loc = loc
        self.expected_class = expected_class
        self.reason = reason

    def render(self) -> str:
        return f"{self.loc} CHECKCAST {self.expected_class} ({self.reason})"


def compute_site_index(checked: CheckedProgram) -> list[CheckcastSite]:
    """The checkcast sites an erased compile of every body places, sorted
    by location."""
    compiler = _Compiler(checked, ERASED, eager=False, sites=[])
    for body in program_bodies(checked.table, checked.program):
        compiler.body(body.stmts, body.return_type)
    return sorted(compiler.sites, key=lambda s: (s.loc.file, s.loc.line, s.loc.col))


def checkcast_sites(checked: CheckedProgram) -> list[CheckcastSite]:
    """The deterministic list of implicit-coercion check sites the erased
    runtime will verify, independent of execution."""
    if not checked.ok:
        raise ValueError("cannot list the checkcast sites of a program with unresolved errors")
    return compute_site_index(checked)


# ============================================================
# VALUES
# ============================================================


class Value(Record):
    """A runtime value; its `type` is the type the runtime keeps for it."""

    __slots__ = ()


class IntValue(Value):
    __slots__ = ("value",)
    type = INT

    def __init__(self, value: int) -> None:
        self.value = value


class StringValue(Value):
    __slots__ = ("value",)
    type = STRING

    def __init__(self, value: str) -> None:
        self.value = value


class BoolValue(Value):
    __slots__ = ("value",)
    type = BOOLEAN

    def __init__(self, value: bool) -> None:
        self.value = value


class UnitValue(Value):
    __slots__ = ()
    type = UNIT


UNIT_VALUE = UnitValue()


class ObjectValue(Value):
    __slots__ = ("type", "oid")

    def __init__(self, type: ClassType, oid: int) -> None:
        self.type = type  # bare when erased; fully instantiated when reified
        self.oid = oid


class ListValue(Value):
    """Growable list; elements are shared references, so aliases observe
    each other's mutations."""

    __slots__ = ("type", "oid", "elements")

    def __init__(self, type: ClassType, oid: int, elements: list[Value] | None = None) -> None:
        self.type = type
        self.oid = oid
        self.elements = [] if elements is None else elements


# ============================================================
# OUTCOMES
# ============================================================


class RunOutcome(Record, frozen=True):
    __slots__ = ("stdout",)

    def __init__(self, stdout: str) -> None:
        object.__setattr__(self, "stdout", stdout)

    def render(self) -> str:
        raise NotImplementedError


class Completed(RunOutcome):
    __slots__ = ("value",)

    def __init__(self, stdout: str, value: Value | None = None) -> None:
        object.__setattr__(self, "stdout", stdout)
        object.__setattr__(self, "value", value)  # value of the last top-level expression statement

    def render(self) -> str:
        return "completed"


class ClassCastException(RunOutcome):
    __slots__ = ("loc", "expected", "actual")

    def __init__(self, stdout: str, loc: SourceLoc, expected: str, actual: str) -> None:
        object.__setattr__(self, "stdout", stdout)
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)

    def render(self) -> str:
        return f"ClassCastException: {self.actual} cannot be cast to {self.expected} at {self.loc}"


class RuntimeFault(RunOutcome):
    """Host-level fault for operations the language leaves undefined
    (out-of-range reads, uninitialized properties, calls nested too deep)."""

    __slots__ = ("loc", "message")

    def __init__(self, stdout: str, loc: SourceLoc, message: str) -> None:
        object.__setattr__(self, "stdout", stdout)
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "message", message)

    def render(self) -> str:
        return f"RuntimeFault: {self.message} at {self.loc}"


class _Stop(Exception):
    """Ends a run; `args` are the outcome's class and its fields after stdout."""


# ============================================================
# INSTANCE CHECKS
# ============================================================


def erased_instance_check(table: ClassTable, v: Value, target: TypeRef) -> bool:
    """Class-only instance check: type arguments are ignored, so any List
    instance passes a `is List<Int>` test regardless of its elements."""
    if isinstance(target, ClassType):
        return isinstance(v.type, ClassType) and class_conforms(table, v.type.name, target.name)
    if isinstance(target, PrimitiveType):
        return v.type.name == target.name
    return True  # Any / Any?


def reified_instance_check(table: ClassTable, v: Value, target: TypeRef) -> bool:
    return subtype(table, v.type, target)


def render_value(v: Value) -> str:
    if isinstance(v, IntValue):
        return str(v.value)
    if isinstance(v, StringValue):
        return v.value
    if isinstance(v, BoolValue):
        return "true" if v.value else "false"
    if isinstance(v, UnitValue):
        return "Unit"
    return f"<{v.type.name}@{v.oid}>"


# ============================================================
# THE COMPILER
#
# An operation is a tuple whose first field names it and whose second is
# its read operand: the name of the variable it reads, or None. Operands
# are otherwise popped from, and results pushed to, one value stack shared
# by every activation record. A check is a target type and a location,
# decided by the mode's instance test; when erased, the target is a class
# type without type arguments or a primitive. An operation that reads a variable runs that
# read's checks, a tuple of (target, loc), in order before anything else;
# `load` then pushes the value. `store`, `return`, `branch_is`, `call` (for
# its last argument) and `method` (for its receiver, when it takes no
# arguments) read a variable themselves where a `load` would have pushed it
# just before them, and otherwise pop the value, with `name` None, `checks`
# empty and `passed` None. Any other check is a `check` operation after the
# value's operation. `is` and `branch_is` test against `type`, by the same
# instance test. `-` marks a read operand that is always None.
#
#   load name checks passed | store name checks passed target
#   return name checks passed value
#     (`value` is the constant it returns in place of a `const` before it,
#     or None)
#   branch_is name checks passed type target verdicts
#     (an `if (v is T)`: tests, then jumps to `target` when false)
#   call name checks passed arg names sig loc instance key drop
#     (`instance` the callee's bindings, empty when erased; `key` its code's key in `codes`)
#   method name checks passed nargs member loc index_loc dispatched drop
#   check - target loc | const - value | pop - | print - | jump - target
#   is - type verdicts | new - value_class type
#   prop - name loc | branch - target loc
#
# `passed`, `verdicts` and `dispatched` are the site caches, keyed by the
# value's runtime type (see the module docstring); `passed` is None on a
# read without checks, and all three are None in a compile that only lists
# the sites. A call binds its read operand, if any, to the parameter `arg`,
# then pops its other arguments into `names`, in the order they come off
# the stack: the parameters reversed. A call with `drop` set is an
# expression statement: its value is dropped when the callee returns, in
# place of a `pop`. An `if` without an `else` has no jump, and no jump
# lands on a `return` or on another jump (see `_Compiler.end`).
# ============================================================

_NO_BINDINGS: dict[str, TypeRef] = {}  # those of every body without type arguments; never written
_POP = (None, (), None)  # the read operand, checks and cache of an operation that pops its value
_RETURN_UNIT = ("return",) + _POP + (UNIT_VALUE,)  # the end of every body


def _erase(t: TypeRef) -> TypeRef:
    """The target of an erased check of `t`: `t` without its type arguments."""
    return ClassType(t.name) if isinstance(t, ClassType) and t.args else t


def _code_key(sig: Signature, bindings: dict[str, TypeRef]) -> object:
    """`_Machine.codes`' key of `sig` under `bindings`: `sig.decl` when there are none."""
    return (sig.decl, *bindings.values()) if bindings else sig.decl


def _is_deferred_read(checked: CheckedProgram, e: Expr) -> bool:
    """A read whose declared member type is a bare type parameter: under
    erasure there is no class to verify at the read, and coercion sites do
    not re-check the value."""
    if not isinstance(e, Call) or e.receiver is None:
        return False
    info = checked.call_info.get(e)
    return info is not None and isinstance(info.declared_return, ParamRef)


class _Compiler:
    def __init__(self, checked: CheckedProgram, mode: str, eager: bool,
                 sites: list[CheckcastSite] | None = None) -> None:
        self.checked = checked
        self.erased = mode == ERASED
        self.instance_check = erased_instance_check if self.erased else reified_instance_check
        self.eager = eager
        self.sites = sites  # when given, each erased site placed is appended
        self.jumps: list[int] = []  # the index of each jump in the code being compiled, in order
        self.bindings = _NO_BINDINGS  # those of the body being compiled

    def cache(self, kind: type[set] | type[dict]) -> set | dict | None:
        """A new, empty site cache of `kind`, or None in a compile that only
        lists the sites and runs nothing."""
        return kind() if self.sites is None else None

    def bound(self, t: TypeRef) -> TypeRef:
        """`t` under the bindings of the body being compiled."""
        return substitute(t, self.bindings) if self.bindings else t

    def body(self, stmts: tuple[Stmt, ...], return_type: TypeRef | None, bindings=_NO_BINDINGS) -> list[tuple]:
        """The code of a body that runs under `bindings`."""
        self.bindings = bindings
        code: list[tuple] = []
        for s in stmts:
            self.stmt(code, s, return_type)
        self.bindings = _NO_BINDINGS  # the top level compiles statement by statement
        return self.end(code)

    def end(self, code: list[tuple]) -> list[tuple]:
        """`code` closed by the return of Unit, with its jumps threaded: a
        jump that lands on a `return` becomes that `return`, the same tuple,
        so it runs the same checks at the same locations with the same site
        cache and places no site of its own; one that lands on a jump
        becomes that jump. Every target lies ahead, so one backward pass
        over the jumps sees each target final."""
        code.append(_RETURN_UNIT)
        jumps = self.jumps
        for i in reversed(jumps):
            target = code[code[i][2]]
            if target[0] == "return" or target[0] == "jump":
                code[i] = target
        jumps.clear()
        return code

    def operand(self, code: list[tuple]) -> tuple:
        """The read operand, checks and site cache of an operation about to
        consume the value on top of the stack: those of the `load` that left
        it there, which this takes off `code`, or `_POP` when no load did."""
        return code.pop()[1:] if code[-1][0] == "load" else _POP

    def ret(self, code: list[tuple]) -> None:
        """The `return` of the value on top of the stack. It carries the
        constant a `const` just before it would have pushed, in that
        operation's place, or reads the variable a `load` would have."""
        last = code[-1]
        if last[0] == "const":
            code[-1] = ("return",) + _POP + (last[2],)
        else:
            code.append(("return",) + self.operand(code) + (None,))

    def check(self, code: list[tuple], target: TypeRef, loc: SourceLoc) -> None:
        """The check of the value on top of the stack, folded into the `load`
        that left it there when there is one."""
        if self.bindings:  # `bound`, without a call per check of a body that has no bindings
            target = substitute(target, self.bindings)
        last = code[-1]
        if last[0] == "load":
            _, name, checks, passed = last
            code[-1] = ("load", name, checks + ((target, loc),), passed if checks else self.cache(set))
        else:
            code.append(("check", None, target, loc))

    def site(self, code: list[tuple], e: Expr | None, t: TypeRef | None, loc: SourceLoc, reason: str) -> None:
        """Erased: the checkcast site verifying that the value of `e` (or of a
        receiver, when `e` is None) is of `t`'s class, unless `t` names no
        class or `e` is a deferred read."""
        if isinstance(t, ClassType) and (e is None or not _is_deferred_read(self.checked, e)):
            if self.sites is not None:
                self.sites.append(CheckcastSite(loc, t.name, reason))
            self.check(code, _erase(t), loc)

    def stmt(self, code: list[tuple], s: Stmt, return_type: TypeRef | None) -> None:
        if isinstance(s, ValDecl):
            self.expr(code, s.init)
            bound = self.checked.decl_types[s]
            if self.erased:
                reason = "explicit-decl" if s.declared_type is not None else "implicit-decl"
                self.site(code, s.init, bound, s.loc, reason)
            else:
                self.check(code, bound, s.loc)
            code.append(("store",) + self.operand(code) + (s.name,))
        elif isinstance(s, ExprStmt):
            self.expr(code, s.expr)
            last = code[-1]
            if last[0] == "call" or last[0] == "method":
                code[-1] = last[:-1] + (True,)
            else:
                code.append(("pop", None))
        elif isinstance(s, Return):
            self.expr(code, s.expr)
            if self.erased:
                self.site(code, s.expr, return_type, s.loc, "return-value")
            self.ret(code)
        elif isinstance(s, If):
            cond = s.cond
            if isinstance(cond, IsExpr):
                self.expr(code, cond.expr)
                read = self.operand(code) + (self.bound(self.checked.is_targets[cond]),)
            else:
                self.expr(code, cond)
            branch = len(code)
            code.append(None)  # patched below, as is the jump
            for inner in s.then_body:
                self.stmt(code, inner, return_type)
            if s.else_body:
                jump = len(code)
                code.append(None)
                self.jumps.append(jump)
            if isinstance(cond, IsExpr):
                code[branch] = ("branch_is",) + read + (len(code), self.cache(dict))
            else:
                code[branch] = ("branch", None, len(code), cond.loc)
            if s.else_body:
                for inner in s.else_body:
                    self.stmt(code, inner, return_type)
                code[jump] = ("jump", None, len(code))
        else:
            raise TypeError(f"unknown statement {s!r}")

    def expr(self, code: list[tuple], e: Expr) -> None:
        if isinstance(e, VarRef):
            code.append(("load", e.name, (), None))
        elif isinstance(e, IntLit):
            code.append(("const", None, IntValue(e.value)))
        elif isinstance(e, StringLit):
            code.append(("const", None, StringValue(e.value)))
        elif isinstance(e, CastExpr):
            self.expr(code, e.expr)
            target = self.checked.expr_types[e]  # the completed cast target
            if not self.erased:
                self.check(code, target, e.loc)
            # An explicit cast always verifies the class portion, even in
            # value-discarding positions; the type arguments are gone.
            elif isinstance(target, (ClassType, PrimitiveType)):
                self.check(code, _erase(target), e.loc)
        elif isinstance(e, IsExpr):
            self.expr(code, e.expr)
            code.append(("is", None, self.bound(self.checked.is_targets[e]), self.cache(dict)))
        else:
            self.call(code, e)

    def call(self, code: list[tuple], e: Call) -> None:
        checked, erased = self.checked, self.erased
        receiver, args = e.receiver, e.args
        info = checked.call_info[e]
        kind = info.kind
        if receiver is not None:
            self.expr(code, receiver)
            recv_t = checked.expr_types[receiver]
            if erased:
                self.site(code, None, recv_t, e.loc, "receiver")
            elif isinstance(recv_t, ClassType):
                self.check(code, recv_t, e.loc)
        if kind == "ctor" or kind == "builtin" and e.name == "mutableListOf":
            # The checker admits no value arguments here.
            name = e.name if kind == "ctor" else "MutableList"
            value_class = ListValue if class_conforms(checked.table, name, "List") else ObjectValue
            code.append(("new", None, value_class, self.bound(ClassType(name, None if erased else info.type_args))))
        else:
            expected = info.declared_params if erased else info.param_types
            for i, a in enumerate(args):
                self.expr(code, a)
                if i < len(expected):
                    if erased:
                        self.site(code, a, expected[i], a.loc, "call-arg")
                    else:
                        self.check(code, expected[i], a.loc)
            if kind == "fun":
                sig = checked.table.functions[e.name]
                names, arg = sig.param_names[::-1], None
                # The call reads its last argument itself when that is a
                # variable; a call without arguments reads nothing.
                read = self.operand(code) if args else _POP
                if read is not _POP:
                    arg, names = names[0], names[1:]
                instance = _NO_BINDINGS if erased or not info.type_args else {
                    p: self.bound(t) for p, t in zip(sig.type_params, info.type_args)}
                code.append(("call",) + read + (arg, names, sig, e.loc, instance, _code_key(sig, instance), False))
            elif kind == "builtin":
                if e.name != "println":
                    raise TypeError(f"unknown builtin {e.name}")
                code.append(("print", None))
            elif kind == "property-get":
                code.append(("prop", None, info.member, e.loc))
            else:  # method
                # A method call without arguments reads its receiver itself.
                read = _POP if args else self.operand(code)
                code.append(("method",) + read + (len(args), info.member, e.loc, args[0].loc if args else e.loc,
                                                  self.cache(dict), False))
        if erased and self.eager:
            # Eager mode: verify every acquisition against its static class
            # immediately instead of waiting for a downstream site.
            t = checked.expr_types.get(e)
            if isinstance(t, ClassType):
                self.check(code, _erase(t), e.loc)


# ============================================================
# THE LOOP
# ============================================================

class _Machine:
    def __init__(self, checked: CheckedProgram, mode: str, eager_checkcast: bool) -> None:
        self.table = checked.table
        self.compiler = _Compiler(checked, mode, eager_checkcast)
        self.codes: dict[object, list[tuple]] = {}  # `_code_key` of a body's declaration and its bindings -> code
        self.stdout: list[str] = []
        self.oids = count(1)

    def run(self, program: Program) -> RunOutcome:
        # The top level is compiled one statement at a time, so a run that
        # stops early compiles no more than it ran.
        top_env: dict[str, Value] = {}
        last: Value = UNIT_VALUE
        try:
            for d in program.decls:
                if not isinstance(d, StmtDecl):
                    continue
                code: list[tuple] = []
                if isinstance(d.stmt, ExprStmt):
                    self.compiler.expr(code, d.stmt.expr)
                    self.compiler.ret(code)
                    last = self.execute(code, top_env)
                else:
                    self.compiler.stmt(code, d.stmt, None)
                    self.execute(self.compiler.end(code), top_env)
        except _Stop as stop:
            outcome, *fields = stop.args
            return outcome("".join(self.stdout), *fields)
        return Completed("".join(self.stdout), last)

    def test(self, v: Value, target: TypeRef) -> bool:
        """Whether `v` passes the mode's instance test against `target`."""
        return self.compiler.instance_check(self.table, v, target)

    def decide(self, v: Value, target: TypeRef, loc: SourceLoc) -> None:
        """Runs the check of `v` against `target`; a failure ends the run at `loc`."""
        if not self.test(v, target):
            raise _Stop(ClassCastException, loc, target.render(), v.type.render())

    def dispatch(self, recv: Value, member: str, loc: SourceLoc) -> tuple:
        """The method `member` that `recv` runs: its signature, bindings, code
        key and the names the arguments bind, in pop order."""
        recv_t = recv.type
        if not isinstance(recv, ObjectValue):
            raise _Stop(RuntimeFault, loc, f"{recv_t.name} has no methods")
        found = find_member(self.table, recv_t, member, "method")
        if found is None or found[0].decl.body is None:
            raise _Stop(RuntimeFault, loc, f"{recv_t.name} has no callable method {member}")
        sig, instance = found
        return sig, instance, _code_key(sig, instance), sig.param_names[::-1]

    def execute(self, code: list[tuple], env: dict[str, Value]) -> Value:
        """Run `code` with `env` until it returns; the value it returns."""
        codes, decide, test = self.codes, self.decide, self.test
        stack: list[Value] = []
        push, pop = stack.append, stack.pop
        calls: list[tuple] = []  # the suspended callers: (code, pc, env, drop)
        pc = 0
        while True:
            op = code[pc]
            pc += 1
            name = op[1]
            if name is not None:
                # The operation reads variable `name`, whose checks run
                # first. A type in the site cache passed every check here;
                # on a miss, each is decided, or fails, in `decide`.
                v = env[name]
                passed = op[3]
                if passed is not None and v.type not in passed:
                    for target, at in op[2]:
                        decide(v, target, at)
                    passed.add(v.type)
            kind = op[0]
            if kind == "store":
                env[op[4]] = pop() if name is None else v
            elif kind == "call" or kind == "method":
                if kind == "call":
                    _, _, _, _, arg, names, sig, loc, instance, key, drop = op
                    callee_env = {} if name is None else {arg: v}
                else:
                    _, _, _, _, nargs, member, loc, index_loc, dispatched, drop = op
                    if name is None:
                        v = stack.pop(-1 - nargs)  # the receiver, below the arguments
                    if isinstance(v, ListValue):
                        result = _list_method(v, member, pop, loc, index_loc)
                        if not drop:
                            push(result)
                        continue
                    found = dispatched.get(v.type)
                    if found is None:
                        found = dispatched[v.type] = self.dispatch(v, member, loc)
                    sig, instance, key, names = found
                    callee_env = {}
                for p in names:
                    callee_env[p] = pop()
                if len(calls) >= MAX_CALL_DEPTH:
                    raise _Stop(RuntimeFault, loc, f"call depth exceeds {MAX_CALL_DEPTH}")
                calls.append((code, pc, env, drop))
                code = codes.get(key)
                if code is None:
                    code = codes[key] = self.compiler.body(sig.decl.body, sig.return_type, instance)
                pc = 0
                env = callee_env
            elif kind == "return":
                if name is None:
                    v = op[4]
                    if v is None:
                        v = pop()
                if not calls:
                    return v
                code, pc, env, drop = calls.pop()
                if not drop:
                    push(v)
            elif kind == "branch_is":
                if name is None:
                    v = pop()
                ok = op[6].get(v.type)
                if ok is None:
                    ok = op[6][v.type] = test(v, op[4])
                if not ok:
                    pc = op[5]
            elif kind == "jump":
                pc = op[2]
            elif kind == "load":
                push(v)
            elif kind == "const":
                push(op[2])
            elif kind == "check":
                decide(stack[-1], op[2], op[3])
            elif kind == "pop":
                pop()
            elif kind == "new":
                push(op[2](op[3], next(self.oids)))
            elif kind == "print":
                self.stdout.append(render_value(pop()) + "\n")
                push(UNIT_VALUE)
            elif kind == "is":
                v = pop()
                ok = op[3].get(v.type)
                if ok is None:
                    ok = op[3][v.type] = test(v, op[2])
                push(BoolValue(ok))
            elif kind == "branch":
                cond = pop()
                if not isinstance(cond, BoolValue):
                    raise _Stop(ClassCastException, op[3], "Boolean", cond.type.name)
                if not cond.value:
                    pc = op[2]
            elif kind == "prop":
                recv = pop()
                if isinstance(recv, ListValue) and op[2] == "size":
                    push(IntValue(len(recv.elements)))
                elif isinstance(recv, ObjectValue):
                    raise _Stop(RuntimeFault, op[3], f"property {op[2]} was never initialized")
                else:
                    raise _Stop(RuntimeFault, op[3], f"{recv.type.name} has no property {op[2]}")
            else:
                raise TypeError(f"unknown operation {op!r}")


def _list_method(recv: ListValue, member: str, pop, loc: SourceLoc, index_loc: SourceLoc) -> Value:
    """Runs list method `member` on `recv`, taking its arguments off the
    value stack with `pop`."""
    if member == "add":
        recv.elements.append(pop())
        return UNIT_VALUE
    if member == "get" or member == "set":
        value = pop() if member == "set" else None
        idx = pop()
        if not isinstance(idx, IntValue):
            # The index is unboxed here, which is where the JVM checks it.
            raise _Stop(ClassCastException, index_loc, "Int", idx.type.name)
        if not 0 <= idx.value < len(recv.elements):
            raise _Stop(RuntimeFault, loc, f"index {idx.value} out of bounds for length {len(recv.elements)}")
        if member == "get":
            return recv.elements[idx.value]
        recv.elements[idx.value] = value
        return UNIT_VALUE
    raise _Stop(RuntimeFault, loc, f"list has no method {member}")


def run_program(checked: CheckedProgram, mode: str, eager_checkcast: bool = False) -> RunOutcome:
    """Evaluate a checked, error-free program and capture stdout.

    ClassCastException outcomes name the failing check; a RuntimeFault names
    the undefined operation or the call past `MAX_CALL_DEPTH`.
    """
    if not checked.ok:
        raise ValueError("cannot run a program with unresolved errors")
    if mode not in (ERASED, REIFIED):
        raise ValueError(f"unknown run mode {mode!r}")
    return _Machine(checked, mode, eager_checkcast).run(checked.program)
