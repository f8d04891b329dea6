"""miniK type checker.

Assigns a static type to every expression, applies flow-sensitive narrowing
from `is` checks, enforces declaration-site variance positions (with
@UnsafeVariance), classifies explicit casts the way an erased-generics
compiler does, and records every implicit coercion for the provenance lint.

Function and method calls end in one resolution step, `resolve_call`; a
method and its bindings come from `typesys.find_member`, and an index read
is a `get` call like any other.

Strict mode adds two opt-in rules to the baseline diagnostics: non-variant
inheritance from a variant class is flagged, and generic smart casts from a
variant class to a non-variant class are rejected. Such a rejected `is`
check drops the baseline's `W-REDUNDANT-IS` at the same place, so strict is
not a superset of baseline. One check pass files each diagnostic under the
levels it belongs to, so a program checked at one level also reads at the
other (`CheckedProgram.at_strictness`).
"""

from __future__ import annotations

import functools
from enum import Enum

from .ast import (
    ANY_NULLABLE,
    BOOLEAN,
    Call,
    CallExpr,
    CastExpr,
    ClassType,
    Expr,
    ExprStmt,
    INT,
    If,
    IntLit,
    IsExpr,
    MethodCall,
    ParamRef,
    Program,
    PropertyGet,
    Return,
    STRING,
    SourceLoc,
    Stmt,
    StringLit,
    TypeRef,
    UNIT,
    ValDecl,
    VarRef,
    Variance,
)
from .diagnostics import Diagnostic, error, has_errors, warning
from .records import Record
from .typesys import (
    Body,
    ClassEntry,
    ClassTable,
    Signature,
    TypeResolutionError,
    _prelude_classes,
    find_member,
    lub,
    program_bodies,
    resolve_type,
    substitute,
    subtype,
    supertype_instantiation,
)


class CastClassification(Enum):
    FULLY_CHECKED = "fully-checked"
    UNCHECKED_WARNED = "unchecked-warned"
    # The runtime cannot verify the type arguments, yet the argument
    # comparison sees no difference, so no warning is issued. This is the
    # soundness gap the corpus exploits.
    UNCHECKED_SILENT = "unchecked-silent"


class CallInfo(Record, hashable=True):
    """Resolution of one `Call` node (an index read is a `get`), kept for the runtime."""

    __slots__ = ("kind", "member", "declared_return", "type_args", "declared_params", "param_types")

    def __init__(
        self,
        kind: str,  # "ctor" | "fun" | "builtin" | "method" | "property-get"
        member: str | None,
        declared_return: TypeRef,
        type_args: tuple[TypeRef, ...] = (),  # resolved function/ctor type arguments
        declared_params: tuple[TypeRef, ...] = (),  # as written at the declaration
        param_types: tuple[TypeRef, ...] = (),  # substituted at this call
    ) -> None:
        self.kind = kind
        self.member = member
        self.declared_return = declared_return
        self.type_args = type_args
        self.declared_params = declared_params
        self.param_types = param_types


class CheckedProgram(Record, hidden=("level_diagnostics",)):
    __slots__ = (
        "program", "table", "diagnostics", "expr_types", "call_info", "is_targets", "decl_types", "coercions",
        "level_diagnostics",
    )

    def __init__(self, program: Program, table: ClassTable, diagnostics: list[Diagnostic]) -> None:
        self.program = program
        self.table = table
        self.diagnostics = diagnostics
        # Keyed by node. Each expression -> its static type; a cast's is its
        # completed target, and a narrowed variable use's is the narrowed type
        self.expr_types: dict[Expr, TypeRef] = {}
        self.call_info: dict[Call, CallInfo] = {}
        self.is_targets: dict[IsExpr, TypeRef] = {}
        self.decl_types: dict[ValDecl, TypeRef] = {}
        # Each implicitly upcast expression -> the type it is upcast to
        self.coercions: dict[Expr, TypeRef] = {}
        # The check pass's diagnostics at each strictness, baseline then
        # strict; `diagnostics` is one of the two
        self.level_diagnostics = (diagnostics, diagnostics)

    def at_strictness(self, strict: bool) -> CheckedProgram:
        """This program as checked at `strict`: the same typing, read with
        that level's diagnostics."""
        diagnostics = self.level_diagnostics[strict]
        if diagnostics is self.diagnostics:
            return self
        import copy  # loaded only where both levels are read: a golden run

        other = copy.copy(self)
        other.diagnostics = diagnostics
        return other

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


# The two runtime modes a checked program runs in (`runtime.run_program`),
# named here so that the command line can offer them without loading the
# runtime.
ERASED = "erased"
REIFIED = "reified"


# ============================================================
# VARIANCE POSITION CHECKING
# ============================================================

_OUT_POS = "out"
_IN_POS = "in"
_INV_POS = "invariant"


def _param_occurrences(t: TypeRef, table: ClassTable, position: str, out: list[tuple[str, str]]) -> None:
    """Collect (parameter name, position) pairs for every ParamRef in `t`.

    Positions compose along the path: covariant arguments preserve the
    enclosing position, contravariant ones flip it, invariant ones pin it.
    """
    if isinstance(t, ParamRef):
        out.append((t.name, position))
        return
    if isinstance(t, ClassType) and t.args:
        entry = table.classes.get(t.name)
        params = entry.type_params if entry else ()
        for p, arg in zip(params, t.args):
            if p.variance is Variance.OUT:
                child = position
            elif p.variance is Variance.IN:
                child = {_OUT_POS: _IN_POS, _IN_POS: _OUT_POS, _INV_POS: _INV_POS}[position]
            else:
                child = _INV_POS
            _param_occurrences(arg, table, child, out)


def check_variance_positions(table: ClassTable, entry: ClassEntry) -> list[Diagnostic]:
    """Flag uses of a variant type parameter in a contradicting position:
    'out' parameters in parameter or mutable-property positions, 'in'
    parameters in return positions. A supertype reference is an 'out'
    position, so `class Bad<out T> : MutableList<T>` is flagged.
    @UnsafeVariance on a property type or a supertype reference
    acknowledges and suppresses the violation."""
    diags: list[Diagnostic] = []
    variant = {p.name: p.variance for p in entry.type_params if p.variance is not Variance.INV}
    if not variant:
        return diags

    def scan(t: TypeRef, position: str, loc: SourceLoc, what: str) -> None:
        occs: list[tuple[str, str]] = []
        _param_occurrences(t, table, position, occs)
        for name, pos in occs:
            declared = variant.get(name)
            if declared is None or declared.value == pos:
                continue
            diags.append(
                error(
                    "E-VARIANCE-POSITION",
                    loc,
                    f"type parameter {name} is declared '{declared.keyword()}' "
                    f"but occurs in {pos} position in {what}",
                )
            )

    for ref in entry.supertypes:
        if not ref.unsafe_variance:
            scan(ref.type, _OUT_POS, ref.loc, f"the supertype {ref.type.render()} of {entry.name}")
    for sig in entry.methods.values():
        m = sig.decl
        for ptype, pname in zip(sig.param_types, sig.param_names):
            scan(ptype, _IN_POS, m.loc, f"the type of parameter {pname} of {entry.name}.{m.name}")
        scan(sig.return_type, _OUT_POS, m.loc, f"the return type of {entry.name}.{m.name}")
    for prop in entry.properties.values():
        p = prop.decl
        if p.unsafe_variance:
            continue
        # A var is readable and writable, so its type sits in both
        # positions at once, regardless of setter visibility.
        keyword, position = ("var", _INV_POS) if p.mutable else ("val", _OUT_POS)
        scan(prop.type, position, p.loc, f"the type of {keyword} property {entry.name}.{prop.name}")
    return diags


def check_inheritance_variance(table: ClassTable, entry: ClassEntry, strict: bool) -> list[Diagnostic]:
    """Strict-mode rule: a type parameter that weakens the variance of the
    supertype parameter it instantiates (e.g. a non-variant T filling an
    'out' slot) must be acknowledged with @UnsafeVariance on the supertype
    reference. With `strict` false it reports nothing; the check pass asks
    for strict and files the result under that level alone."""
    if not strict:
        return []
    diags: list[Diagnostic] = []
    own = {p.name: p.variance for p in entry.type_params}
    for ref in entry.supertypes:
        sup = ref.type  # a class type with arguments, by the table's construction
        sup_entry = table.classes.get(sup.name)
        if sup_entry is None or sup.args is None:
            continue
        for sup_param, arg in zip(sup_entry.type_params, sup.args):
            if sup_param.variance is Variance.INV or not isinstance(arg, ParamRef):
                continue
            filling = own.get(arg.name)
            if filling is None or filling is sup_param.variance:
                continue
            if ref.unsafe_variance:
                continue
            diags.append(
                warning(
                    "W-VARIANT-INHERITANCE",
                    ref.loc,
                    f"parameter {arg.name} of {entry.name} weakens the "
                    f"'{sup_param.variance.keyword()}' variance of {sup.name}.{sup_param.name}; "
                    f"acknowledge with @UnsafeVariance on the supertype reference",
                )
            )
    return diags


@functools.cache
def _prelude_variance_diagnostics() -> tuple[tuple[Diagnostic, ...], tuple[Diagnostic, ...]]:
    """Both variance checks over the prelude's entries, baseline then
    strict, once per process: every table shares those entries, and they
    refer only to one another."""
    table = ClassTable(_prelude_classes(), {})
    baseline: list[Diagnostic] = []
    strict: list[Diagnostic] = []
    for entry in table.classes.values():
        positions = check_variance_positions(table, entry)
        baseline += positions
        strict += positions + check_inheritance_variance(table, entry, True)
    return tuple(baseline), tuple(strict)


# ============================================================
# CAST TARGET COMPLETION AND CLASSIFICATION
# ============================================================


def _unify_down(table: ClassTable, target_class: str, source: ClassType) -> tuple[TypeRef, ...] | None:
    """Solve for target arguments so that `target_class<X...>` instantiates
    to `source` at source's class (the `List<B> as MutableList` case,
    giving MutableList<B>)."""
    entry = table.classes.get(target_class)
    if entry is None or source.args is None:
        return None
    holes = tuple(ParamRef(p.name) for p in entry.type_params)
    inst = supertype_instantiation(table, ClassType(target_class, holes), source.name)
    if inst is None or inst.args is None:
        return None
    bindings: dict[str, TypeRef] = {}
    for p, a in zip(inst.args, source.args):
        if not _match(p, a, bindings):
            return None
    return tuple(bindings.get(p.name, ANY_NULLABLE) for p in entry.type_params)


def _match(pattern: TypeRef, actual: TypeRef, bindings: dict[str, TypeRef]) -> bool:
    """Match `actual` against `pattern`, binding the pattern's parameters."""
    if isinstance(pattern, ParamRef):
        if pattern.name in bindings:
            return bindings[pattern.name] == actual
        bindings[pattern.name] = actual
        return True
    if isinstance(pattern, ClassType) and isinstance(actual, ClassType):
        if pattern.name != actual.name or pattern.args is None or actual.args is None:
            return pattern == actual
        return all(_match(p, a, bindings) for p, a in zip(pattern.args, actual.args))
    return pattern == actual


def complete_cast_target(
    table: ClassTable,
    source: TypeRef,
    target: TypeRef,
    expected: TypeRef | None = None,
) -> TypeRef:
    """Fill in the type arguments of a bare cast target like `as MutableList`.

    The expected type of the surrounding context wins when its class matches;
    otherwise the arguments are projected from the source along the
    hierarchy (in either direction); unrelated sources fill with Any?.
    """
    if not isinstance(target, ClassType) or target.args is not None:
        return target
    name = target.name
    if isinstance(expected, ClassType) and expected.name == name and expected.args is not None:
        return expected
    projected = _projected_args(table, source, name)
    if projected is not None:
        return ClassType(name, projected)
    arity = table.arity(name)
    return ClassType(name, tuple(ANY_NULLABLE for _ in range(arity)))


def _projected_args(table: ClassTable, source: TypeRef, target_class: str) -> tuple[TypeRef, ...] | None:
    if not isinstance(source, ClassType) or source.args is None:
        return None
    up = supertype_instantiation(table, source, target_class)
    if up is not None:
        return up.args
    return _unify_down(table, target_class, source)


def classify_cast_baseline(table: ClassTable, source: TypeRef, target: TypeRef) -> CastClassification:
    """Replicate the baseline compiler's unchecked-cast reasoning.

    A cast is fully checked when the target carries no type arguments (the
    runtime class tag decides it completely) or when it is statically safe.
    A cast to a bare type parameter has no class to check, so it is warned
    unless it is safe. Otherwise it is unchecked; it is *warned* only when
    the source's type arguments, viewed at the target's class, differ from
    the target's. A silent outcome means the runtime cannot verify the
    arguments and the compiler saw nothing to complain about. Memoized on
    the table; a bare target is an error on every call.
    """
    if isinstance(target, ClassType) and target.args is None:
        raise ValueError(f"classify requires a completed target, got bare {target.render()}")
    key = ("cast", source, target)
    found = table.memo.get(key)
    if found is not None:
        return found
    if isinstance(target, ParamRef):
        safe = subtype(table, source, target)
        found = CastClassification.FULLY_CHECKED if safe else CastClassification.UNCHECKED_WARNED
    elif not isinstance(target, ClassType) or not target.args or subtype(table, source, target):
        found = CastClassification.FULLY_CHECKED
    elif _projected_args(table, source, target.name) == target.args:
        found = CastClassification.UNCHECKED_SILENT
    else:
        found = CastClassification.UNCHECKED_WARNED
    table.memo[key] = found
    return found


# ============================================================
# CALL TYPE-ARGUMENT INFERENCE
# ============================================================


def infer_call_type_args(
    table: ClassTable,
    type_params: tuple[str, ...],
    declared_params: tuple[TypeRef, ...],
    arg_types: tuple[TypeRef, ...] | list[TypeRef],
) -> dict[str, TypeRef] | str:
    """Infer a substitution for a generic call: each type parameter becomes
    the least upper bound of every argument type constraining it. Returns an
    error string when some parameter is unconstrained."""
    constraints: dict[str, list[TypeRef]] = {p: [] for p in type_params}
    for declared, actual in zip(declared_params, arg_types):
        _collect_constraints(table, constraints, declared, actual)

    bindings: dict[str, TypeRef] = {}
    for p in type_params:
        found = constraints[p]
        if not found:
            return f"cannot infer type argument {p}"
        acc = found[0]
        for t in found[1:]:
            acc = lub(table, acc, t)
        bindings[p] = acc
    return bindings


def _collect_constraints(
    table: ClassTable, constraints: dict[str, list[TypeRef]], declared: TypeRef, actual: TypeRef
) -> None:
    """Add the argument types `actual` gives each type parameter in `declared`."""
    if isinstance(declared, ParamRef) and declared.name in constraints:
        constraints[declared.name].append(actual)
        return
    if isinstance(declared, ClassType) and declared.args and isinstance(actual, ClassType) and actual.args is not None:
        inst = supertype_instantiation(table, actual, declared.name)
        if inst is not None and inst.args is not None:
            for d, a in zip(declared.args, inst.args):
                _collect_constraints(table, constraints, d, a)


# ============================================================
# THE CHECKER
# ============================================================


def _always_returns(stmts: tuple[Stmt, ...]) -> bool:
    """A statement list returns if one of its statements is a return, or an
    if with an else whose branches both return."""
    return any(
        isinstance(s, Return)
        or isinstance(s, If) and s.else_body is not None
        and _always_returns(s.then_body) and _always_returns(s.else_body)
        for s in reversed(stmts)  # a return is usually last
    )


class _Scope:
    def __init__(self, parent: _Scope | None = None) -> None:
        self.parent = parent
        self.vars: dict[str, TypeRef] = {}
        self.narrowed: dict[str, TypeRef] = {}

    def lookup(self, name: str) -> TypeRef | None:
        s: _Scope | None = self
        while s is not None:
            if name in s.narrowed:
                return s.narrowed[name]
            if name in s.vars:
                return s.vars[name]
            s = s.parent
        return None

    def declared(self, name: str) -> bool:
        s: _Scope | None = self
        while s is not None:
            if name in s.vars:
                return True
            s = s.parent
        return False


class _Checker:
    """One pass over a program that gives its diagnostics at both
    strictness levels: each is filed under baseline, strict or both, so
    each level's list is in the order the pass met its diagnostics."""

    def __init__(self, table: ClassTable, program: Program) -> None:
        self.table = table
        self.out = CheckedProgram(program, table, diagnostics=[])
        self.baseline: list[Diagnostic] = []
        self.strict: list[Diagnostic] = []
        self.type_param_scope: frozenset[str] = frozenset()
        self.return_type: TypeRef | None = None
        self.current_class: str | None = None

    # -- plumbing --------------------------------------------------------

    def diag(self, d: Diagnostic) -> None:
        self.baseline.append(d)
        self.strict.append(d)

    def e_type(self, loc: SourceLoc, message: str) -> None:
        self.diag(error("E-TYPE", loc, message))

    def resolve(self, t: TypeRef, loc: SourceLoc, allow_bare: bool = False) -> TypeRef | None:
        try:
            return resolve_type(self.table, t, self.type_param_scope, loc, allow_bare)
        except TypeResolutionError as e:
            self.e_type(e.loc, e.message)
            return None

    def coerce(self, node: Expr, from_t: TypeRef, to_t: TypeRef, loc: SourceLoc, what: str) -> None:
        """Report `node` unless `from_t` is a subtype of `to_t` (its `what`);
        record a real upcast for the provenance lint."""
        if from_t is to_t:  # types are interned
            return
        if not subtype(self.table, from_t, to_t):
            self.e_type(loc, f"{from_t.render()} is not a subtype of {what} {to_t.render()}")
        else:
            self.out.coercions[node] = to_t

    # -- program ----------------------------------------------------------

    def check(self, strict: bool) -> CheckedProgram:
        prelude_baseline, prelude_strict = _prelude_variance_diagnostics()
        self.baseline.extend(prelude_baseline)
        self.strict.extend(prelude_strict)
        for entry in self.table.classes.values():
            if entry.is_prelude:
                continue
            for d in check_variance_positions(self.table, entry):
                self.diag(d)
            self.strict.extend(check_inheritance_variance(self.table, entry, True))

        for body in program_bodies(self.table, self.out.program):
            self.check_body(body)
        self.out.diagnostics = self.strict if strict else self.baseline
        self.out.level_diagnostics = (self.baseline, self.strict)
        return self.out

    def check_body(self, body: Body) -> None:
        self.current_class = body.owner
        self.type_param_scope = body.type_params
        self.return_type = body.return_type
        scope = _Scope()
        scope.vars.update(body.params)
        for s in body.stmts:
            self.check_stmt(s, scope)
        if body.decl is not None and body.return_type != UNIT and not _always_returns(body.stmts):
            self.e_type(body.decl.loc, f"missing return: {body.decl.name} must return {body.return_type.render()}")

    # -- statements --------------------------------------------------------

    def check_stmt(self, s: Stmt, scope: _Scope) -> None:
        if isinstance(s, ValDecl):
            declared: TypeRef | None = None
            if s.declared_type is not None:
                declared = self.resolve(s.declared_type, s.loc)
            init_t = self.check_expr(s.init, scope, expected=declared)
            if scope.declared(s.name):
                self.e_type(s.loc, f"redeclaration of {s.name}")
            if declared is not None:
                self.coerce(s.init, init_t, declared, s.loc, "declared type")
                bound = declared
            else:
                bound = init_t
            scope.vars[s.name] = bound
            self.out.decl_types[s] = bound
            return
        if isinstance(s, ExprStmt):
            self.check_expr(s.expr, scope)
            return
        if isinstance(s, Return):
            if self.return_type is None:
                self.e_type(s.loc, "return outside of a function")
                self.check_expr(s.expr, scope)
                return
            t = self.check_expr(s.expr, scope, expected=self.return_type)
            self.coerce(s.expr, t, self.return_type, s.loc, "return type")
            return
        if isinstance(s, If):
            cond_t = self.check_expr(s.cond, scope)
            if cond_t != BOOLEAN:
                self.e_type(s.loc, f"condition must be Boolean, got {cond_t.render()}")
            then_scope = _Scope(scope)
            self.apply_narrowing(s.cond, scope, then_scope)
            for inner in s.then_body:
                self.check_stmt(inner, then_scope)
            if s.else_body is not None:
                else_scope = _Scope(scope)
                for inner in s.else_body:
                    self.check_stmt(inner, else_scope)
            return
        raise TypeError(f"unknown statement {s!r}")

    def apply_narrowing(self, cond: Expr, scope: _Scope, branch: _Scope) -> None:
        # Only the `x is T` shape narrows, only for immutable locals and
        # parameters (all miniK bindings are), and never to a wider type.
        if not isinstance(cond, IsExpr) or not isinstance(cond.expr, VarRef):
            return
        current = scope.lookup(cond.expr.name)
        target = self.out.is_targets.get(cond)
        if current is None or target is None:
            return
        if subtype(self.table, target, current) and target != current:
            branch.narrowed[cond.expr.name] = target

    # -- expressions --------------------------------------------------------

    def check_expr(self, e: Expr, scope: _Scope, expected: TypeRef | None = None) -> TypeRef:
        """`e`'s static type, recorded in `expr_types`: the one dispatch on
        the expression kinds. A nested expression costs two Python frames,
        this one and its kind's method's."""
        if isinstance(e, VarRef):  # names and calls, the most frequent kinds, first
            t = scope.lookup(e.name)
            if t is None:
                self.e_type(e.loc, f"unknown name {e.name}")
                t = ANY_NULLABLE
        elif isinstance(e, CallExpr):
            t = self.check_call(e, scope)
        elif isinstance(e, IntLit):
            t = INT
        elif isinstance(e, StringLit):
            t = STRING
        elif isinstance(e, MethodCall):
            t = self.check_member_call(e, scope)
        elif isinstance(e, PropertyGet):
            t = self.check_property_get(e, scope)
        elif isinstance(e, CastExpr):
            t = self.check_cast(e, scope, expected)
        elif isinstance(e, IsExpr):
            t = self.check_is(e, scope)
        else:
            raise TypeError(f"unknown expression {e!r}")
        self.out.expr_types[e] = t
        return t

    def check_call(self, e: CallExpr, scope: _Scope) -> TypeRef:
        if e.name in self.table.classes:
            return self.check_ctor(e, scope)
        sig = self.table.functions.get(e.name)
        if sig is None:
            self.e_type(e.loc, f"unknown function {e.name}")
            for a in e.args:
                self.check_expr(a, scope)
            return ANY_NULLABLE
        # A loop, not a comprehension, which is one more frame per level on Python 3.11.
        arg_types = []
        for a in e.args:
            arg_types.append(self.check_expr(a, scope))
        if len(arg_types) != len(sig.param_types):
            self.e_type(e.loc, f"{e.name} expects {len(sig.param_types)} argument(s), got {len(arg_types)}")
            return ANY_NULLABLE

        bindings: dict[str, TypeRef] = {}
        if sig.type_params:
            if e.type_args is not None:
                written = self.written_type_args(e, sig.type_params)
                if written is None:
                    return ANY_NULLABLE
                bindings = dict(zip(sig.type_params, written))
            else:
                inferred = infer_call_type_args(self.table, sig.type_params, sig.param_types, arg_types)
                if isinstance(inferred, str):
                    self.e_type(e.loc, f"{inferred} for call to {e.name}")
                    return ANY_NULLABLE
                bindings = inferred
        elif e.type_args is not None:
            self.e_type(e.loc, f"{e.name} is not generic")
            return ANY_NULLABLE

        return self.resolve_call(e, arg_types, sig, bindings)

    def written_type_args(self, e: CallExpr, type_params: tuple[str, ...]) -> tuple[TypeRef, ...] | None:
        """`e`'s written type arguments for `type_params`, resolved; None
        once a wrong count or an unresolvable argument is reported."""
        if len(e.type_args) != len(type_params):
            self.e_type(e.loc, f"{e.name} expects {len(type_params)} type argument(s)")
            return None
        resolved = tuple([self.resolve(t, e.loc) for t in e.type_args])
        return None if any(t is None for t in resolved) else resolved  # type: ignore[return-value]

    def check_ctor(self, e: CallExpr, scope: _Scope) -> TypeRef:
        entry = self.table.classes[e.name]
        for a in e.args:
            self.check_expr(a, scope)
        if entry.is_interface:
            self.e_type(e.loc, f"cannot instantiate interface {e.name}")
            return ANY_NULLABLE
        if entry.ctor_private and self.current_class != e.name:
            self.e_type(e.loc, f"constructor of {e.name} is private")
            return ANY_NULLABLE
        if e.args:
            self.e_type(e.loc, f"constructor of {e.name} takes no arguments")
        names = tuple([p.name for p in entry.type_params])
        args: tuple[TypeRef, ...] | None = ()
        if names:
            if e.type_args is None:
                self.e_type(e.loc, f"constructor of {e.name} needs explicit type arguments")
                return ANY_NULLABLE
            args = self.written_type_args(e, names)
            if args is None:
                return ANY_NULLABLE
        elif e.type_args is not None:
            self.e_type(e.loc, f"{e.name} is not generic")
        result = ClassType(e.name, args)
        self.out.call_info[e] = CallInfo(kind="ctor", member=None, declared_return=result, type_args=args)
        return result

    def lookup_member(self, e: Expr, recv_t: TypeRef, name: str, kind: str):
        """`find_member` of `recv_t`'s `kind` `name`; None once its absence is reported."""
        if not isinstance(recv_t, ClassType) or recv_t.args is None:
            self.e_type(e.loc, f"{recv_t.render()} has no member {name}")
            return None
        found = find_member(self.table, recv_t, name, kind)
        if found is None:
            self.e_type(e.loc, f"{recv_t.name} has no {kind} {name}")
        return found

    def check_member_call(self, e: MethodCall, scope: _Scope) -> TypeRef:
        recv_t = self.check_expr(e.receiver, scope)
        arg_types = []
        for a in e.args:
            arg_types.append(self.check_expr(a, scope))
        found = self.lookup_member(e, recv_t, e.name, "method")
        if found is None:
            return ANY_NULLABLE
        sig, bindings = found
        if len(arg_types) != len(sig.param_types):
            self.e_type(e.loc, f"{recv_t.name}.{e.name} expects {len(sig.param_types)} argument(s), got {len(arg_types)}")
            return substitute(sig.return_type, bindings)
        return self.resolve_call(e, arg_types, sig, bindings)

    def resolve_call(self, e: Call, arg_types: list[TypeRef], sig: Signature,
                     bindings: dict[str, TypeRef]) -> TypeRef:
        """Coerce `e`'s arity-checked arguments to `sig`'s parameters under
        `bindings`, record how `e` resolved and return its result type."""
        param_types, type_args, result = sig.param_types, (), sig.return_type
        if bindings:  # else `sig` has no type parameters and substituting changes nothing
            param_types = tuple([substitute(t, bindings) for t in param_types])
            type_args = tuple([bindings[p] for p in sig.type_params])
            result = substitute(result, bindings)
        for arg, arg_t, want in zip(e.args, arg_types, param_types):
            self.coerce(arg, arg_t, want, arg.loc, "parameter type")
        kind = "method" if e.receiver is not None else "fun" if sig.decl is not None else "builtin"
        self.out.call_info[e] = CallInfo(kind, e.name, sig.return_type, type_args, sig.param_types, param_types)
        return result

    def check_property_get(self, e: PropertyGet, scope: _Scope) -> TypeRef:
        recv_t = self.check_expr(e.receiver, scope)
        found = self.lookup_member(e, recv_t, e.name, "property")
        if found is None:
            return ANY_NULLABLE
        sig, bindings = found
        self.out.call_info[e] = CallInfo(kind="property-get", member=e.name, declared_return=sig.type)
        return substitute(sig.type, bindings)

    def check_cast(self, e: CastExpr, scope: _Scope, expected: TypeRef | None) -> TypeRef:
        source = self.check_expr(e.expr, scope)
        target = self.resolve(e.target, e.loc, allow_bare=True)
        if target is None:
            return ANY_NULLABLE
        completed = complete_cast_target(self.table, source, target, expected)
        if classify_cast_baseline(self.table, source, completed) is CastClassification.UNCHECKED_WARNED:
            self.diag(
                warning(
                    "W-UNCHECKED-CAST",
                    e.loc,
                    f"unchecked cast: {source.render()} to {completed.render()}",
                )
            )
        return completed

    def check_is(self, e: IsExpr, scope: _Scope) -> TypeRef:
        source = self.check_expr(e.expr, scope)
        target = self.resolve(e.target, e.loc, allow_bare=True)
        if target is None:
            return BOOLEAN
        completed = complete_cast_target(self.table, source, target, None)
        self.out.is_targets[e] = completed
        erased_error = strict_error = False
        generic = isinstance(target, ClassType) and bool(target.args)
        erased_param = isinstance(target, ParamRef) and not subtype(self.table, source, target)
        if erased_param or generic and any(not isinstance(a, ParamRef) for a in target.args):
            # Neither a type parameter (short of an upcast to it) nor
            # concrete type arguments can ever be confirmed by the erased
            # runtime, so this check is rejected outright.
            self.diag(
                error(
                    "E-GENERIC-IS",
                    e.loc,
                    f"cannot check for instance of erased type {target.render()}",
                )
            )
            erased_error = True
        elif generic and isinstance(source, ClassType):
            src_entry = self.table.classes.get(source.name)
            tgt_entry = self.table.classes.get(target.name)
            if (
                src_entry is not None
                and tgt_entry is not None
                and src_entry.is_variant
                and not tgt_entry.is_variant
            ):
                self.strict.append(
                    error(
                        "E-GENERIC-IS",
                        e.loc,
                        f"generic smart cast from variant class {source.name} "
                        f"to non-variant class {target.name} is not allowed in strict mode",
                    )
                )
                strict_error = True
        if not erased_error and subtype(self.table, source, completed):
            redundant = warning("W-REDUNDANT-IS", e.loc, "check for instance is always 'true'")
            self.baseline.append(redundant)
            if not strict_error:
                self.strict.append(redundant)
        return BOOLEAN


def check_program(table: ClassTable, program: Program, strict: bool = False) -> CheckedProgram:
    """Type-check a program against a built class table.

    Returns the typed program with its diagnostics at `strict`, which adds
    the opt-in variance rules to the baseline behavior; `at_strictness`
    reads the same pass at the other level.
    """
    return _Checker(table, program).check(strict)
