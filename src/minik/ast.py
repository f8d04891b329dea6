"""miniK abstract syntax tree.

Every node carries a 1-based source location. Syntax nodes compare and hash
by identity, so each node is its own key in the per-node tables of the
checker, the lint and the runtime; only types and locations are values.
Every node class has `__slots__`: a parse makes tens of thousands of nodes,
and no code sets attributes on them beyond their fields.

Every call is a `Call` with a `receiver` (None for a function or constructor
call) and `args` (empty for a property read). `a[i]` is an `Index`, a
`MethodCall` of `get` that only the printer tells apart, as in Kotlin.

Types are hash-consed: each type class's constructor returns the one object
for its fields, so structurally equal types are the same object, and `==`
and `hash` on types are `object`'s identity versions, O(1) at any nesting
depth. No code may build a type with `object.__new__`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import ClassVar


@dataclass(slots=True, unsafe_hash=True)
class SourceLoc:
    """Equal and hashed by its fields like a frozen record, but built
    without the frozen `__init__`'s per-field `object.__setattr__`: a parse
    makes one per node. No code sets a location's fields."""

    file: str
    line: int  # 1-based
    col: int  # 1-based

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class Variance(Enum):
    OUT = "out"
    IN = "in"
    INV = ""

    def keyword(self) -> str:
        return self.value


# ============================================================
# TYPE REFERENCES
#
# Shared between the syntax and the type system. A ClassType with
# args=None is a *bare* reference (`as MutableList`); the checker
# completes or rejects it depending on position.
#
# Types are interned: every constructor call goes through the class's
# `__new__`, which returns the one object in `_TYPES` for (class, fields)
# and builds it only the first time. So `==` is `is`, and a type's hash is
# its identity, never a walk over its arguments. Copies and unpickling
# rebuild through the constructor (`__reduce__`) and return the same
# object; so does `dataclasses.replace` with unchanged fields.
# ============================================================

# Every type built so far, by (class, *fields). A plain dict: bounded by
# the distinct types a process builds.
_TYPES: dict[tuple, TypeRef] = {}


def _intern(key: tuple, **values) -> TypeRef:
    """Build and record the type for `key`, (class, *field values)."""
    t = _TYPES[key] = object.__new__(key[0])
    for name, value in values.items():
        object.__setattr__(t, name, value)
    return t


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TypeRef:
    """Base for static type references. Abstract."""

    def __new__(cls) -> TypeRef:  # the field-less tops
        key = (cls,)
        return _TYPES.get(key) or _intern(key)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True, eq=False, init=False)
class ClassType(TypeRef):
    """A class or interface type, `Name<args>`; `args=None` is a bare reference."""

    name: str
    args: tuple[TypeRef, ...] | None = None

    def __new__(cls, name: str, args: tuple[TypeRef, ...] | None = None) -> ClassType:
        key = (cls, name, args)
        return _TYPES.get(key) or _intern(key, name=name, args=args)

    def render(self) -> str:
        if not self.args:
            return self.name
        # Without recursion, so a deeply nested type renders at any depth:
        # `todo` holds the types and text still to write, next on top.
        parts: list[str] = []
        todo: list[TypeRef | str] = [self]
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                parts.append(t)
            elif isinstance(t, ClassType) and t.args:
                parts.append(t.name + "<")
                todo.append(">")
                for i in range(len(t.args) - 1, 0, -1):
                    todo.append(t.args[i])
                    todo.append(", ")
                todo.append(t.args[0])
            else:
                parts.append(t.render())
        return "".join(parts)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class ParamRef(TypeRef):
    """Occurrence of a type parameter inside its binding declaration."""

    name: str

    def __new__(cls, name: str) -> ParamRef:
        key = (cls, name)
        return _TYPES.get(key) or _intern(key, name=name)

    def render(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TopType(TypeRef):
    """`Any`: supertype of every non-nullable type."""

    def render(self) -> str:
        return "Any"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class NullableTopType(TypeRef):
    """`Any?`: the single top above everything, including `Any`."""

    def render(self) -> str:
        return "Any?"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class PrimitiveType(TypeRef):
    """One of the built-in value types: Int, String, Unit, Boolean."""

    name: str  # "Int" | "String" | "Unit" | "Boolean"

    def __new__(cls, name: str) -> PrimitiveType:
        key = (cls, name)
        return _TYPES.get(key) or _intern(key, name=name)

    def render(self) -> str:
        return self.name


ANY = TopType()
ANY_NULLABLE = NullableTopType()
INT = PrimitiveType("Int")
STRING = PrimitiveType("String")
UNIT = PrimitiveType("Unit")
# `Boolean` is the static type of `is` expressions, and the only way to
# make a value of it; declarations may name it like the other built-ins.
BOOLEAN = PrimitiveType("Boolean")


# ============================================================
# EXPRESSIONS
# ============================================================


@dataclass(slots=True, eq=False)
class Expr:
    """Base of the expression nodes."""


@dataclass(slots=True, eq=False)
class IntLit(Expr):
    """An integer literal."""

    value: int
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class StringLit(Expr):
    """A string literal; `value` is its unescaped body."""

    value: str
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class VarRef(Expr):
    """A use of a local variable or parameter."""

    name: str
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class Call(Expr):
    """Base of the call nodes; each has a `receiver` and `args`."""


@dataclass(slots=True, eq=False)
class CallExpr(Call):
    """`name[<T,...>](args)`: a function call or a constructor call.

    The two forms are syntactically identical; the checker resolves which
    one it is from the class table.
    """

    receiver: ClassVar[None] = None
    name: str
    type_args: tuple[TypeRef, ...] | None
    args: tuple[Expr, ...]
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class MethodCall(Call):
    """`receiver.name(args)`: a method call."""

    receiver: Expr
    name: str
    args: tuple[Expr, ...]
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class Index(MethodCall):
    """`receiver[index]`, built as `receiver.get(index)`."""


@dataclass(slots=True, eq=False)
class PropertyGet(Call):
    """`receiver.name`: a property read."""

    receiver: Expr
    name: str
    args: ClassVar[tuple[Expr, ...]] = ()
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class CastExpr(Expr):
    """`expr as Target`; `target` may be a bare generic class reference."""

    expr: Expr
    target: TypeRef
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class IsExpr(Expr):
    """`expr is Target`: a runtime instance test."""

    expr: Expr
    target: TypeRef
    loc: SourceLoc = field(repr=False)


# ============================================================
# STATEMENTS
# ============================================================


@dataclass(slots=True, eq=False)
class Stmt:
    """Base of the statement nodes."""


@dataclass(slots=True, eq=False)
class ValDecl(Stmt):
    """`val name[: Type] = init`."""

    name: str
    declared_type: TypeRef | None
    init: Expr
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class ExprStmt(Stmt):
    """An expression evaluated for its effect."""

    expr: Expr
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class Return(Stmt):
    """`return expr`."""

    expr: Expr
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class If(Stmt):
    """`if (cond) { ... } [else { ... }]`."""

    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...] | None
    loc: SourceLoc = field(repr=False)


# ============================================================
# DECLARATIONS
# ============================================================


@dataclass(slots=True, eq=False)
class TypeParam:
    """A declared type parameter with its variance."""

    name: str
    variance: Variance
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class SupertypeRef:
    """One entry of a declaration's supertype list.

    `has_ctor_call` distinguishes `B()` (class supertype) from `List<T>`
    (interface supertype). `unsafe_variance` is the `@UnsafeVariance`
    acknowledgement on the reference itself.
    """

    type: TypeRef
    has_ctor_call: bool
    unsafe_variance: bool
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class Param:
    """A value parameter of a function or method."""

    name: str
    type: TypeRef
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class Method:
    """A method of a class or interface."""

    name: str
    params: tuple[Param, ...]
    return_type: TypeRef
    body: tuple[Stmt, ...] | None  # None = abstract (interface member)
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class Property:
    """A `val` or `var` property of a class or interface."""

    name: str
    type: TypeRef
    mutable: bool  # var vs val
    unsafe_variance: bool  # @UnsafeVariance on the property type
    loc: SourceLoc = field(repr=False)


Member = Method | Property


@dataclass(slots=True, eq=False)
class Decl:
    """Base of the top-level declarations."""


@dataclass(slots=True, eq=False)
class ClassDecl(Decl):
    """A class or interface declaration."""

    name: str
    type_params: tuple[TypeParam, ...]
    is_interface: bool
    is_open: bool
    ctor_private: bool
    supertypes: tuple[SupertypeRef, ...]
    members: tuple[Member, ...]
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class FunDecl(Decl):
    """A top-level function declaration."""

    name: str
    type_params: tuple[str, ...]
    params: tuple[Param, ...]
    return_type: TypeRef
    body: tuple[Stmt, ...]
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class StmtDecl(Decl):
    """A top-level statement."""

    stmt: Stmt
    loc: SourceLoc = field(repr=False)


@dataclass(slots=True, eq=False)
class Program:
    """A source file: its declarations in order."""

    decls: tuple[Decl, ...]


def walk_exprs(e: Expr):
    """Yield `e` and every sub-expression, preorder."""
    yield e
    if isinstance(e, Call):
        if e.receiver is not None:
            yield from walk_exprs(e.receiver)
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, (CastExpr, IsExpr)):
        yield from walk_exprs(e.expr)


def walk_stmts(stmts):
    """Yield every statement in a body, preorder, descending into ifs."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from walk_stmts(s.then_body)
            if s.else_body is not None:
                yield from walk_stmts(s.else_body)


def walk_body_exprs(stmts):
    """Yield every expression in a body: statement by statement, preorder,
    each statement's expression before those of the statements nested in it."""
    for s in walk_stmts(stmts):
        if isinstance(s, If):
            yield from walk_exprs(s.cond)
        elif isinstance(s, ValDecl):
            yield from walk_exprs(s.init)
        else:  # ExprStmt, Return
            yield from walk_exprs(s.expr)
