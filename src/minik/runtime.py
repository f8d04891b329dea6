"""Tree-walking evaluator with erased and reified runtime modes.

Erased mode models a JVM-style runtime: values carry only their class in
RTTI, and coercions are verified lazily at a fixed set of checkcast sites
(typed and inferred val declarations, class-typed call arguments, member
access receivers, class-typed returns). Values read out of a type-parameter
slot of an erased generic (e.g. `list[0]`) have nothing to verify against at
the read, and their coercion sites are skipped; their class is finally
inspected when they are used as a receiver or explicitly cast. The optional
eager mode additionally re-checks every acquisition at its own location.

Reified mode keeps full type arguments in RTTI and checks every implicit and
explicit coercion immediately, variance-aware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    CallExpr,
    CastExpr,
    ClassType,
    Expr,
    ExprStmt,
    FunDecl,
    If,
    Index,
    IntLit,
    IsExpr,
    MethodCall,
    ParamRef,
    PrimitiveType,
    PropertyGet,
    Return,
    SourceLoc,
    Stmt,
    StmtDecl,
    StringLit,
    TypeRef,
    ValDecl,
    VarRef,
    call_parts,
)
from .checker import CheckedProgram
from .typesys import ClassTable, program_bodies, substitute, subtype, supertype_instantiation

ERASED = "erased"
REIFIED = "reified"


# ============================================================
# CHECKCAST SITES
# ============================================================


@dataclass(frozen=True)
class CheckcastSite:
    loc: SourceLoc
    expected_class: str
    reason: str  # explicit-decl | implicit-decl | call-arg | receiver | return-value

    def render(self) -> str:
        return f"{self.loc} CHECKCAST {self.expected_class} ({self.reason})"


@dataclass
class SiteIndex:
    sites: list[CheckcastSite] = field(default_factory=list)
    # id() of the expression whose value a site checks (a val initializer,
    # a returned expression, a call argument or a receiver) -> that site. An
    # expression has one parent, so it has at most one site.
    at: dict[int, CheckcastSite] = field(default_factory=dict)

    def add(self, checked_expr: Expr, site: CheckcastSite) -> None:
        self.sites.append(site)
        self.at[id(checked_expr)] = site


def _class_of(t: TypeRef) -> str | None:
    return t.name if isinstance(t, ClassType) else None


def _is_deferred_read(checked: CheckedProgram, e: Expr) -> bool:
    """A read whose declared member type is a bare type parameter: under
    erasure there is no class to verify at the read, and coercion sites do
    not re-check the value."""
    if not isinstance(e, (MethodCall, Index, PropertyGet)):
        return False
    info = checked.call_info.get(id(e))
    return info is not None and isinstance(info.declared_return, ParamRef)


def compute_site_index(checked: CheckedProgram) -> SiteIndex:
    index = SiteIndex()
    for body in program_bodies(checked.table, checked.program):
        for s in body.stmts:
            _scan_stmt(checked, index, s, body.return_type)
    index.sites.sort(key=lambda s: (s.loc.file, s.loc.line, s.loc.col))
    return index


# The two scanners are module functions rather than closures inside
# compute_site_index: a recursive closure is a reference cycle, which would
# keep the whole checked program alive until the next full collection.


def _scan_expr(checked: CheckedProgram, index: SiteIndex, e: Expr) -> None:
    parts = call_parts(e)
    if parts is not None:
        receiver, args = parts
        if receiver is not None:
            _scan_expr(checked, index, receiver)
            recv_t = checked.expr_types.get(id(receiver))
            cls = _class_of(recv_t) if recv_t is not None else None
            if cls is not None:
                index.add(receiver, CheckcastSite(e.loc, cls, "receiver"))
        info = checked.call_info.get(id(e))
        declared = info.declared_params if info is not None else ()
        for arg, want in zip(args, declared):
            _scan_expr(checked, index, arg)
            cls = _class_of(want)
            if cls is not None and not _is_deferred_read(checked, arg):
                index.add(arg, CheckcastSite(arg.loc, cls, "call-arg"))
    elif isinstance(e, (CastExpr, IsExpr)):
        _scan_expr(checked, index, e.expr)
    # literals, VarRef: nothing to scan


def _scan_stmt(checked: CheckedProgram, index: SiteIndex, s: Stmt, return_type: TypeRef | None) -> None:
    if isinstance(s, ValDecl):
        _scan_expr(checked, index, s.init)
        bound = checked.decl_types.get(id(s))
        cls = _class_of(bound) if bound is not None else None
        if cls is not None and not _is_deferred_read(checked, s.init):
            reason = "explicit-decl" if s.declared_type is not None else "implicit-decl"
            index.add(s.init, CheckcastSite(s.loc, cls, reason))
    elif isinstance(s, ExprStmt):
        _scan_expr(checked, index, s.expr)
    elif isinstance(s, Return):
        _scan_expr(checked, index, s.expr)
        cls = _class_of(return_type) if return_type is not None else None
        if cls is not None and not _is_deferred_read(checked, s.expr):
            index.add(s.expr, CheckcastSite(s.loc, cls, "return-value"))
    elif isinstance(s, If):
        _scan_expr(checked, index, s.cond)
        for inner in s.then_body + (s.else_body or ()):
            _scan_stmt(checked, index, inner, return_type)


def checkcast_sites(checked: CheckedProgram) -> list[CheckcastSite]:
    """The deterministic list of implicit-coercion check sites the erased
    runtime will verify, independent of execution."""
    return compute_site_index(checked).sites


# ============================================================
# VALUES
# ============================================================


@dataclass(frozen=True)
class Rtti:
    class_name: str
    args: tuple[TypeRef, ...] | None  # None in erased mode: parameters are not kept

    def render(self) -> str:
        if self.args is None or not self.args:
            return self.class_name
        return f"{self.class_name}<{', '.join(a.render() for a in self.args)}>"


@dataclass
class Value:
    pass


@dataclass
class IntValue(Value):
    value: int


@dataclass
class StringValue(Value):
    value: str


@dataclass
class BoolValue(Value):
    value: bool


@dataclass
class UnitValue(Value):
    pass


UNIT_VALUE = UnitValue()


@dataclass
class ObjectValue(Value):
    rtti: Rtti
    oid: int
    fields: dict[str, Value] = field(default_factory=dict)


@dataclass
class ListValue(Value):
    """Growable list; elements are shared references, so aliases observe
    each other's mutations."""

    rtti: Rtti
    oid: int
    elements: list[Value] = field(default_factory=list)


# ============================================================
# OUTCOMES
# ============================================================


@dataclass(frozen=True)
class RunOutcome:
    stdout: str

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Completed(RunOutcome):
    value: Value | None = None  # value of the last top-level expression statement

    def render(self) -> str:
        return "completed"


@dataclass(frozen=True)
class ClassCastException(RunOutcome):
    loc: SourceLoc
    expected: str
    actual: str

    def render(self) -> str:
        return f"ClassCastException: {self.actual} cannot be cast to {self.expected} at {self.loc}"


@dataclass(frozen=True)
class RuntimeFault(RunOutcome):
    """Host-level fault for operations the language leaves undefined
    (out-of-range reads, uninitialized properties)."""

    loc: SourceLoc
    message: str

    def render(self) -> str:
        return f"RuntimeFault: {self.message} at {self.loc}"


class _Cce(Exception):
    def __init__(self, loc: SourceLoc, expected: str, actual: str) -> None:
        super().__init__(f"{actual} cannot be cast to {expected}")
        self.loc = loc
        self.expected = expected
        self.actual = actual


class _Fault(Exception):
    def __init__(self, loc: SourceLoc, message: str) -> None:
        super().__init__(message)
        self.loc = loc
        self.message = message


class _ReturnSignal(Exception):
    def __init__(self, value: Value) -> None:
        self.value = value


# ============================================================
# INSTANCE CHECKS
# ============================================================


def value_class(v: Value) -> str:
    if isinstance(v, IntValue):
        return "Int"
    if isinstance(v, StringValue):
        return "String"
    if isinstance(v, BoolValue):
        return "Boolean"
    if isinstance(v, UnitValue):
        return "Unit"
    if isinstance(v, (ObjectValue, ListValue)):
        return v.rtti.class_name
    raise TypeError(v)


def class_conforms(table: ClassTable, actual: str, expected: str) -> bool:
    if actual == expected:
        return True
    entry = table.classes.get(actual)
    return entry is not None and expected in entry.ancestor_of


def rtti_typeref(v: Value) -> TypeRef:
    if isinstance(v, IntValue):
        return PrimitiveType("Int")
    if isinstance(v, StringValue):
        return PrimitiveType("String")
    if isinstance(v, BoolValue):
        return PrimitiveType("Boolean")
    if isinstance(v, UnitValue):
        return PrimitiveType("Unit")
    assert isinstance(v, (ObjectValue, ListValue))
    args = v.rtti.args if v.rtti.args is not None else ()
    return ClassType(v.rtti.class_name, args)


def erased_instance_check(table: ClassTable, v: Value, target: TypeRef) -> bool:
    """Class-only instance check: type arguments are ignored, so any List
    instance passes a `is List<Int>` test regardless of its elements."""
    if isinstance(target, ClassType):
        if not isinstance(v, (ObjectValue, ListValue)):
            return False
        return class_conforms(table, v.rtti.class_name, target.name)
    if isinstance(target, PrimitiveType):
        return value_class(v) == target.kind
    return True  # Any / Any?


def reified_instance_check(table: ClassTable, v: Value, target: TypeRef) -> bool:
    return subtype(table, rtti_typeref(v), target)


# ============================================================
# THE EVALUATOR
# ============================================================


def render_value(v: Value) -> str:
    if isinstance(v, IntValue):
        return str(v.value)
    if isinstance(v, StringValue):
        return v.value
    if isinstance(v, BoolValue):
        return "true" if v.value else "false"
    if isinstance(v, UnitValue):
        return "Unit"
    assert isinstance(v, (ObjectValue, ListValue))
    return f"<{v.rtti.class_name}@{v.oid}>"


class _Frame:
    def __init__(self, type_bindings: dict[str, TypeRef] | None = None) -> None:
        self.vars: dict[str, Value] = {}
        self.scopes: list[dict[str, Value]] = [self.vars]
        self.type_bindings = type_bindings or {}

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, v: Value) -> None:
        self.scopes[-1][name] = v

    def lookup(self, name: str) -> Value:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)


# Each miniK call costs several Python frames here (eval_call -> exec_stmt ->
# eval_expr -> _eval), so run time depends on where CPython 3.11's 16 KB
# frame-stack chunks fall: when the recursion crosses a chunk boundary inside
# a hot call, the chunk is freed and mapped again on every call. One frame
# more or less anywhere on the run path can make `calltree` runs several
# times slower. Before changing code that runs here, compare the minor page
# faults (`resource.getrusage(RUSAGE_SELF).ru_minflt`) of a short `calltree`
# `run --mode erased` before and after the change; they should match.
class _Interp:
    def __init__(self, checked: CheckedProgram, mode: str, eager_checkcast: bool) -> None:
        self.checked = checked
        self.table = checked.table
        self.mode = mode
        self.eager = eager_checkcast
        self.sites = compute_site_index(checked).at if mode == ERASED else None  # read only when erased
        self.stdout: list[str] = []
        self.next_oid = 1
        self.fun_decls: dict[str, FunDecl] = {
            d.name: d for d in checked.program.decls if isinstance(d, FunDecl)
        }

    # -- helpers -----------------------------------------------------------

    def alloc(self) -> int:
        oid = self.next_oid
        self.next_oid += 1
        return oid

    def make_rtti(self, class_name: str, args: tuple[TypeRef, ...]) -> Rtti:
        return Rtti(class_name, args if self.mode == REIFIED else None)

    def check_class(self, v: Value, expected_class: str, loc: SourceLoc) -> None:
        if not class_conforms(self.table, value_class(v), expected_class):
            raise _Cce(loc, expected_class, value_class(v))

    def check_full(self, v: Value, expected: TypeRef, loc: SourceLoc) -> None:
        if not subtype(self.table, rtti_typeref(v), expected):
            raise _Cce(loc, expected.render(), rtti_typeref(v).render())

    def subst(self, t: TypeRef, frame: _Frame) -> TypeRef:
        return substitute(t, frame.type_bindings)

    def coercion_check(self, v: Value, expected: TypeRef, frame: _Frame, loc: SourceLoc) -> None:
        """Reified mode verifies every coercion in full the moment it
        happens; erased mode never calls this (its checks live at the
        precomputed sites, read in `eval_expr`)."""
        self.check_full(v, self.subst(expected, frame), loc)

    def static_type(self, e: Expr) -> TypeRef | None:
        return self.checked.expr_types.get(id(e))

    # -- execution ----------------------------------------------------------

    def run(self) -> RunOutcome:
        top = [d.stmt for d in self.checked.program.decls if isinstance(d, StmtDecl)]
        frame = _Frame()
        last: Value = UNIT_VALUE
        try:
            for s in top:
                if isinstance(s, ExprStmt):
                    last = self.eval_expr(s.expr, frame)
                else:
                    self.exec_stmt(s, frame)
        except _Cce as e:
            return ClassCastException("".join(self.stdout), e.loc, e.expected, e.actual)
        except _Fault as e:
            return RuntimeFault("".join(self.stdout), e.loc, e.message)
        return Completed("".join(self.stdout), last)

    def exec_stmt(self, s: Stmt, frame: _Frame) -> None:
        if isinstance(s, ValDecl):
            v = self.eval_expr(s.init, frame)
            if self.mode == REIFIED:
                self.coercion_check(v, self.checked.decl_types[id(s)], frame, s.loc)
            frame.bind(s.name, v)
            return
        if isinstance(s, ExprStmt):
            self.eval_expr(s.expr, frame)
            return
        if isinstance(s, Return):
            raise _ReturnSignal(self.eval_expr(s.expr, frame))
        if isinstance(s, If):
            cond = self.eval_expr(s.cond, frame)
            assert isinstance(cond, BoolValue), "checker guarantees Boolean conditions"
            body = s.then_body if cond.value else (s.else_body or ())
            frame.push()
            try:
                for inner in body:
                    self.exec_stmt(inner, frame)
            finally:
                frame.pop()
            return
        raise TypeError(f"unknown statement {s!r}")

    # -- expressions ----------------------------------------------------------

    def eval_expr(self, e: Expr, frame: _Frame) -> Value:
        """Evaluate `e`; erased mode then runs the checkcast site, if any,
        that checks `e`'s value. Every erased implicit check happens here."""
        v = self._eval(e, frame)
        if self.mode == ERASED:
            if self.eager and isinstance(e, (CallExpr, MethodCall, Index, PropertyGet)):
                # Eager mode: verify every acquisition against its static
                # class immediately instead of waiting for a downstream site.
                t = self.static_type(e)
                if isinstance(t, ClassType):
                    self.check_class(v, t.name, e.loc)
            site = self.sites.get(id(e))
            if site is not None:
                self.check_class(v, site.expected_class, site.loc)
        return v

    def _eval(self, e: Expr, frame: _Frame) -> Value:
        if isinstance(e, IntLit):
            return IntValue(e.value)
        if isinstance(e, StringLit):
            return StringValue(e.value)
        if isinstance(e, VarRef):
            return frame.lookup(e.name)
        if isinstance(e, CallExpr):
            return self.eval_call(e, frame)
        if isinstance(e, (MethodCall, Index)):
            return self.eval_member_call(e, *call_parts(e), frame)
        if isinstance(e, PropertyGet):
            return self.eval_property(e, frame)
        if isinstance(e, CastExpr):
            return self.eval_cast(e, frame)
        if isinstance(e, IsExpr):
            return self.eval_is(e, frame)
        raise TypeError(f"unknown expression {e!r}")

    def eval_args_with_checks(self, args: tuple[Expr, ...], param_types: tuple[TypeRef, ...], frame: _Frame) -> list[Value]:
        values = []
        for i, a in enumerate(args):
            v = self.eval_expr(a, frame)
            if self.mode == REIFIED and i < len(param_types):
                self.coercion_check(v, param_types[i], frame, a.loc)
            values.append(v)
        return values

    def eval_call(self, e: CallExpr, frame: _Frame) -> Value:
        info = self.checked.call_info[id(e)]
        if info.kind == "ctor":
            return self.construct(e, info, frame)
        if info.kind == "builtin":
            return self.eval_builtin(e, info, frame)
        arg_values = self.eval_args_with_checks(e.args, info.param_types, frame)
        decl = self.fun_decls[e.name]
        bindings = {
            name: self.subst(t, frame)
            for name, t in zip(info.type_param_names, info.type_args)
        }
        callee = _Frame(bindings)
        for p, v in zip(decl.params, arg_values):
            callee.bind(p.name, v)
        try:
            for s in decl.body:
                self.exec_stmt(s, callee)
        except _ReturnSignal as r:
            return r.value
        return UNIT_VALUE

    def construct(self, e: CallExpr, info, frame: _Frame) -> Value:
        args = tuple(self.subst(t, frame) for t in info.type_args)
        rtti = self.make_rtti(e.name, args)
        oid = self.alloc()
        if class_conforms(self.table, e.name, "List"):
            return ListValue(rtti, oid)
        return ObjectValue(rtti, oid)

    def eval_builtin(self, e: CallExpr, info, frame: _Frame) -> Value:
        if e.name == "mutableListOf":
            args = tuple(self.subst(t, frame) for t in info.type_args)
            return ListValue(self.make_rtti("MutableList", args), self.alloc())
        if e.name == "println":
            values = self.eval_args_with_checks(e.args, info.param_types, frame)
            self.stdout.append(render_value(values[0]) + "\n")
            return UNIT_VALUE
        raise TypeError(f"unknown builtin {e.name}")

    def eval_member_call(self, e: Expr, receiver: Expr, args: tuple[Expr, ...], frame: _Frame) -> Value:
        info = self.checked.call_info[id(e)]
        recv = self.eval_expr(receiver, frame)
        if self.mode == REIFIED:
            recv_static = self.static_type(receiver)
            if isinstance(recv_static, ClassType):
                self.coercion_check(recv, recv_static, frame, e.loc)
        arg_values = self.eval_args_with_checks(args, info.param_types, frame)
        if isinstance(recv, ListValue):
            return self.list_method(e, recv, info.member, arg_values)
        if isinstance(recv, ObjectValue):
            return self.dispatch_method(e, recv, info.member, arg_values, frame)
        raise _Fault(e.loc, f"{value_class(recv)} has no methods")

    def list_method(self, e: Expr, recv: ListValue, member: str | None, args: list[Value]) -> Value:
        if member == "get":
            idx = args[0]
            assert isinstance(idx, IntValue)
            if not 0 <= idx.value < len(recv.elements):
                raise _Fault(e.loc, f"index {idx.value} out of bounds for length {len(recv.elements)}")
            return recv.elements[idx.value]
        if member == "add":
            recv.elements.append(args[0])
            return UNIT_VALUE
        if member == "set":
            idx = args[0]
            assert isinstance(idx, IntValue)
            if not 0 <= idx.value < len(recv.elements):
                raise _Fault(e.loc, f"index {idx.value} out of bounds for length {len(recv.elements)}")
            recv.elements[idx.value] = args[1]
            return UNIT_VALUE
        raise _Fault(e.loc, f"list has no method {member}")

    def dispatch_method(self, e: Expr, recv: ObjectValue, member: str | None, args: list[Value], frame: _Frame) -> Value:
        owner, decl = self._find_method_decl(recv.rtti.class_name, member)
        if decl is None or decl.body is None:
            raise _Fault(e.loc, f"{recv.rtti.class_name} has no callable method {member}")
        bindings = None
        entry = self.table.classes[owner]
        if self.mode == REIFIED and entry.type_params:
            # The body sees the declaring class's parameters as the
            # receiver's RTTI instantiates them at that class.
            inst = supertype_instantiation(self.table, rtti_typeref(recv), owner)
            bindings = entry.bindings(inst.args)
        callee = _Frame(bindings)
        for p, v in zip(decl.params, args):
            callee.bind(p.name, v)
        try:
            for s in decl.body:
                self.exec_stmt(s, callee)
        except _ReturnSignal as r:
            return r.value
        return UNIT_VALUE

    def _find_method_decl(self, class_name: str, member: str | None):
        """(declaring class, method declaration) of `member` as seen from
        `class_name`, or (None, None)."""
        entry = self.table.classes.get(class_name)
        if entry is None or member is None:
            return None, None
        for ancestor in entry.ancestor_of:
            sig = self.table.classes[ancestor].methods.get(member)
            if sig is not None:
                return ancestor, sig.decl
        return None, None

    def eval_property(self, e: PropertyGet, frame: _Frame) -> Value:
        recv = self.eval_expr(e.receiver, frame)
        if self.mode == REIFIED:
            recv_static = self.static_type(e.receiver)
            if isinstance(recv_static, ClassType):
                self.coercion_check(recv, recv_static, frame, e.loc)
        if isinstance(recv, ListValue) and e.name == "size":
            return IntValue(len(recv.elements))
        if isinstance(recv, ObjectValue):
            if e.name in recv.fields:
                return recv.fields[e.name]
            raise _Fault(e.loc, f"property {e.name} was never initialized")
        raise _Fault(e.loc, f"{value_class(recv)} has no property {e.name}")

    def eval_cast(self, e: CastExpr, frame: _Frame) -> Value:
        v = self.eval_expr(e.expr, frame)
        target = self.checked.expr_types[id(e)]  # the completed cast target
        if self.mode == ERASED:
            # An explicit cast always verifies the class portion, even in
            # value-discarding positions; the type arguments are gone.
            if isinstance(target, ClassType):
                self.check_class(v, target.name, e.loc)
            elif isinstance(target, PrimitiveType):
                if value_class(v) != target.kind:
                    raise _Cce(e.loc, target.kind, value_class(v))
        else:
            self.check_full(v, self.subst(target, frame), e.loc)
        return v

    def eval_is(self, e: IsExpr, frame: _Frame) -> Value:
        v = self.eval_expr(e.expr, frame)
        target = self.checked.is_targets[id(e)]
        if self.mode == ERASED:
            return BoolValue(erased_instance_check(self.table, v, target))
        return BoolValue(reified_instance_check(self.table, v, self.subst(target, frame)))


def run_program(checked: CheckedProgram, mode: str, eager_checkcast: bool = False) -> RunOutcome:
    """Evaluate a checked, error-free program and capture stdout.

    ClassCastException outcomes name the failing site; evaluation is
    otherwise total on straight-line programs.
    """
    if not checked.ok:
        raise ValueError("cannot run a program with unresolved errors")
    if mode not in (ERASED, REIFIED):
        raise ValueError(f"unknown run mode {mode!r}")
    return _Interp(checked, mode, eager_checkcast).run()
