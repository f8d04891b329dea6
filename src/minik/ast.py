"""miniK abstract syntax tree.

Every node carries a 1-based source location. Syntax nodes compare and hash
by identity, so each node is its own key in the per-node tables of the
checker, the lint and the runtime; only types and locations are values.
Nodes and types are records (`records.Record`) with `__slots__` and a
hand-written `__init__`: a parse makes tens of thousands of nodes, no code
sets attributes on them beyond their fields, and defining them generates no
code when the module is imported.

Every call is a `Call` with a `receiver` (None for a function or constructor
call) and `args` (empty for a property read). `a[i]` is an `Index`, a
`MethodCall` of `get` that only the printer tells apart, as in Kotlin.

Types are hash-consed: each type class's constructor returns the one object
for its fields, so structurally equal types are the same object, and `==`
and `hash` on types are `object`'s identity versions, O(1) at any nesting
depth. No code may build a type with `object.__new__`.
"""

from __future__ import annotations

from enum import Enum

from .records import Record


class SourceLoc(Record, hashable=True):
    """Equal and hashed by its fields like a frozen record, but built
    without a frozen `__init__`'s per-field `object.__setattr__`: a parse
    makes one per node. No code sets a location's fields."""

    __slots__ = ("file", "line", "col")

    def __init__(self, file: str, line: int, col: int) -> None:
        self.file = file
        self.line = line  # 1-based
        self.col = col  # 1-based

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class Variance(Enum):
    OUT = "out"
    IN = "in"
    INV = ""

    def keyword(self) -> str:
        return self.value


class _Tree(Record):
    """Base of the syntax nodes and the types: records that keep `object`'s
    identity `==` and hash, both in C, in place of `Record`'s field-wise
    ones."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls, **options) -> None:
        super().__init_subclass__(**options)
        # The field names again, under the attribute by which tools written
        # for dataclasses (the benchmark's node counter among them) find the
        # nodes and types of a tree and walk their fields.
        cls.__dataclass_fields__ = cls._fields


class Node(_Tree, hidden=("loc",)):
    """Base of the syntax nodes with a location: every node but `Program`.
    `loc` is a slot but not a field, so a node's `repr` leaves it out."""

    __slots__ = ("loc",)


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
# object.
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


class TypeRef(_Tree, frozen=True):
    """Base for static type references. Abstract."""

    __slots__ = ()

    def __new__(cls) -> TypeRef:  # the field-less tops
        key = (cls,)
        return _TYPES.get(key) or _intern(key)

    def __reduce__(self):
        return type(self), self._values()

    def render(self) -> str:
        raise NotImplementedError


class ClassType(TypeRef):
    """A class or interface type, `Name<args>`; `args=None` is a bare reference."""

    __slots__ = ("name", "args")

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


class ParamRef(TypeRef):
    """Occurrence of a type parameter inside its binding declaration."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> ParamRef:
        key = (cls, name)
        return _TYPES.get(key) or _intern(key, name=name)

    def render(self) -> str:
        return self.name


class TopType(TypeRef):
    """`Any`: supertype of every non-nullable type."""

    __slots__ = ()

    def render(self) -> str:
        return "Any"


class NullableTopType(TypeRef):
    """`Any?`: the single top above everything, including `Any`."""

    __slots__ = ()

    def render(self) -> str:
        return "Any?"


class PrimitiveType(TypeRef):
    """One of the built-in value types: Int, String, Unit, Boolean."""

    __slots__ = ("name",)  # "Int" | "String" | "Unit" | "Boolean"

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


class Expr(Node):
    """Base of the expression nodes."""

    __slots__ = ()


class IntLit(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int, loc: SourceLoc) -> None:
        self.value = value
        self.loc = loc


class StringLit(Expr):
    """A string literal; `value` is its unescaped body."""

    __slots__ = ("value",)

    def __init__(self, value: str, loc: SourceLoc) -> None:
        self.value = value
        self.loc = loc


class VarRef(Expr):
    """A use of a local variable or parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str, loc: SourceLoc) -> None:
        self.name = name
        self.loc = loc


class Call(Expr):
    """Base of the call nodes; each has a `receiver` and `args`."""

    __slots__ = ()


class CallExpr(Call):
    """`name[<T,...>](args)`: a function call or a constructor call.

    The two forms are syntactically identical; the checker resolves which
    one it is from the class table.
    """

    __slots__ = ("name", "type_args", "args")
    receiver = None

    def __init__(
        self, name: str, type_args: tuple[TypeRef, ...] | None, args: tuple[Expr, ...], loc: SourceLoc
    ) -> None:
        self.name = name
        self.type_args = type_args
        self.args = args
        self.loc = loc


class MethodCall(Call):
    """`receiver.name(args)`: a method call."""

    __slots__ = ("receiver", "name", "args")

    def __init__(self, receiver: Expr, name: str, args: tuple[Expr, ...], loc: SourceLoc) -> None:
        self.receiver = receiver
        self.name = name
        self.args = args
        self.loc = loc


class Index(MethodCall):
    """`receiver[index]`, built as `receiver.get(index)`."""

    __slots__ = ()


class PropertyGet(Call):
    """`receiver.name`: a property read."""

    __slots__ = ("receiver", "name")
    args = ()

    def __init__(self, receiver: Expr, name: str, loc: SourceLoc) -> None:
        self.receiver = receiver
        self.name = name
        self.loc = loc


class CastExpr(Expr):
    """`expr as Target`; `target` may be a bare generic class reference."""

    __slots__ = ("expr", "target")

    def __init__(self, expr: Expr, target: TypeRef, loc: SourceLoc) -> None:
        self.expr = expr
        self.target = target
        self.loc = loc


class IsExpr(Expr):
    """`expr is Target`: a runtime instance test."""

    __slots__ = ("expr", "target")

    def __init__(self, expr: Expr, target: TypeRef, loc: SourceLoc) -> None:
        self.expr = expr
        self.target = target
        self.loc = loc


# ============================================================
# STATEMENTS
# ============================================================


class Stmt(Node):
    """Base of the statement nodes."""

    __slots__ = ()


class ValDecl(Stmt):
    """`val name[: Type] = init`."""

    __slots__ = ("name", "declared_type", "init")

    def __init__(self, name: str, declared_type: TypeRef | None, init: Expr, loc: SourceLoc) -> None:
        self.name = name
        self.declared_type = declared_type
        self.init = init
        self.loc = loc


class ExprStmt(Stmt):
    """An expression evaluated for its effect."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr, loc: SourceLoc) -> None:
        self.expr = expr
        self.loc = loc


class Return(Stmt):
    """`return expr`."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr, loc: SourceLoc) -> None:
        self.expr = expr
        self.loc = loc


class If(Stmt):
    """`if (cond) { ... } [else { ... }]`."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self, cond: Expr, then_body: tuple[Stmt, ...], else_body: tuple[Stmt, ...] | None, loc: SourceLoc
    ) -> None:
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body
        self.loc = loc


# ============================================================
# DECLARATIONS
# ============================================================


class TypeParam(Node):
    """A declared type parameter with its variance."""

    __slots__ = ("name", "variance")

    def __init__(self, name: str, variance: Variance, loc: SourceLoc) -> None:
        self.name = name
        self.variance = variance
        self.loc = loc


class SupertypeRef(Node):
    """One entry of a declaration's supertype list.

    `has_ctor_call` distinguishes `B()` (class supertype) from `List<T>`
    (interface supertype). `unsafe_variance` is the `@UnsafeVariance`
    acknowledgement on the reference itself.
    """

    __slots__ = ("type", "has_ctor_call", "unsafe_variance")

    def __init__(self, type: TypeRef, has_ctor_call: bool, unsafe_variance: bool, loc: SourceLoc) -> None:
        self.type = type
        self.has_ctor_call = has_ctor_call
        self.unsafe_variance = unsafe_variance
        self.loc = loc


class Param(Node):
    """A value parameter of a function or method."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: TypeRef, loc: SourceLoc) -> None:
        self.name = name
        self.type = type
        self.loc = loc


class Method(Node):
    """A method of a class or interface."""

    __slots__ = ("name", "params", "return_type", "body")

    def __init__(
        self, name: str, params: tuple[Param, ...], return_type: TypeRef, body: tuple[Stmt, ...] | None, loc: SourceLoc
    ) -> None:
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body  # None = abstract (interface member)
        self.loc = loc


class Property(Node):
    """A `val` or `var` property of a class or interface."""

    __slots__ = ("name", "type", "mutable", "unsafe_variance")

    def __init__(self, name: str, type: TypeRef, mutable: bool, unsafe_variance: bool, loc: SourceLoc) -> None:
        self.name = name
        self.type = type
        self.mutable = mutable  # var vs val
        self.unsafe_variance = unsafe_variance  # @UnsafeVariance on the property type
        self.loc = loc


Member = Method | Property


class Decl(Node):
    """Base of the top-level declarations."""

    __slots__ = ()


class ClassDecl(Decl):
    """A class or interface declaration."""

    __slots__ = ("name", "type_params", "is_interface", "is_open", "ctor_private", "supertypes", "members")

    def __init__(
        self,
        name: str,
        type_params: tuple[TypeParam, ...],
        is_interface: bool,
        is_open: bool,
        ctor_private: bool,
        supertypes: tuple[SupertypeRef, ...],
        members: tuple[Member, ...],
        loc: SourceLoc,
    ) -> None:
        self.name = name
        self.type_params = type_params
        self.is_interface = is_interface
        self.is_open = is_open
        self.ctor_private = ctor_private
        self.supertypes = supertypes
        self.members = members
        self.loc = loc


class FunDecl(Decl):
    """A top-level function declaration."""

    __slots__ = ("name", "type_params", "params", "return_type", "body")

    def __init__(
        self,
        name: str,
        type_params: tuple[str, ...],
        params: tuple[Param, ...],
        return_type: TypeRef,
        body: tuple[Stmt, ...],
        loc: SourceLoc,
    ) -> None:
        self.name = name
        self.type_params = type_params
        self.params = params
        self.return_type = return_type
        self.body = body
        self.loc = loc


class StmtDecl(Decl):
    """A top-level statement."""

    __slots__ = ("stmt",)

    def __init__(self, stmt: Stmt, loc: SourceLoc) -> None:
        self.stmt = stmt
        self.loc = loc


class Program(_Tree):
    """A source file: its declarations in order."""

    __slots__ = ("decls",)

    def __init__(self, decls: tuple[Decl, ...]) -> None:
        self.decls = decls


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
