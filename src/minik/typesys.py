"""Class table, variance-aware subtyping, supertype instantiation, member
lookup, and LUB.

This module answers only "is S a subtype of T?", "is class C at or below
class D?" and "which member do instances of class C see?"; whether a
declaration or a cast is *legal* is the checker's business. It is the one
module that walks the class hierarchy (each entry's `ancestors`), for the
checker and the runtime alike, and it lists a program's bodies against the
table. The table is immutable once built and every query here is pure, so
each table keeps the answers it has given (`ClassTable.memo`).
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from .ast import (
    ANY,
    ANY_NULLABLE,
    UNIT,
    ClassDecl,
    ClassType,
    FunDecl,
    Method,
    NullableTopType,
    ParamRef,
    PrimitiveType,
    Program,
    Property,
    SourceLoc,
    Stmt,
    StmtDecl,
    SupertypeRef,
    TopType,
    TypeParam,
    TypeRef,
    Variance,
)
from .diagnostics import Diagnostic, error
from .parser import _BUILTIN_TYPES, parse
from .records import Record

PRELUDE_FILE = "<prelude>"

# Types the language provides without a class declaration: the parser's
# built-in types, and `Any`, which it reads apart for `Any?`.
_BUILT_IN_TYPE_NAMES = frozenset(_BUILTIN_TYPES) | {"Any"}

# The always-present collection hierarchy: a covariant read-only List with a
# non-variant MutableList below it, plus the backing ArrayList class.
PRELUDE_SOURCE = """\
interface List<out T> {
    fun get(idx: Int): T
    val size: Int
}

interface MutableList<T> : List<T> {
    fun add(elem: T)
    fun set(idx: Int, elem: T)
}

class ArrayList<T> : MutableList<T>
"""


class Signature(Record, frozen=True):
    """A function's or a method's signature, with its declaration. A method
    has no type parameters of its own; a builtin has no declaration."""

    __slots__ = ("name", "type_params", "param_types", "param_names", "return_type", "decl")

    def __init__(
        self,
        name: str,
        type_params: tuple[str, ...],
        param_types: tuple[TypeRef, ...],
        param_names: tuple[str, ...],
        return_type: TypeRef,
        decl: FunDecl | Method | None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type_params", type_params)
        object.__setattr__(self, "param_types", param_types)
        object.__setattr__(self, "param_names", param_names)
        object.__setattr__(self, "return_type", return_type)
        object.__setattr__(self, "decl", decl)


class PropertySig(Record, frozen=True):
    __slots__ = ("name", "type", "decl")

    def __init__(self, name: str, type: TypeRef, decl: Property) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "decl", decl)


class ClassEntry(Record):
    __slots__ = (
        "name",
        "type_params",
        "is_interface",
        "is_open",
        "ctor_private",
        "supertypes",
        "methods",
        "properties",
        "decl",
        "is_prelude",
        "ancestors",
        "ancestor_of",
    )

    def __init__(
        self,
        name: str,
        type_params: tuple[TypeParam, ...],
        is_interface: bool,
        is_open: bool,
        ctor_private: bool,
        supertypes: tuple[SupertypeRef, ...],  # types resolved (ParamRefs bound)
        methods: dict[str, Signature],
        properties: dict[str, PropertySig],
        decl: ClassDecl,
        is_prelude: bool = False,
    ) -> None:
        self.name = name
        self.type_params = type_params
        self.is_interface = is_interface
        self.is_open = is_open
        self.ctor_private = ctor_private
        self.supertypes = supertypes
        self.methods = methods
        self.properties = properties
        self.decl = decl
        self.is_prelude = is_prelude
        # The class's ancestors, itself first, as instantiations over its
        # own type parameters, in preorder over the declared supertypes with
        # duplicates dropped. `ancestor_of` keeps the first one of each
        # class, the one subtyping and member lookup see. Set by
        # `_link_ancestors`.
        self.ancestors: tuple[ClassType, ...] = ()
        self.ancestor_of: dict[str, ClassType] = {}

    @property
    def is_variant(self) -> bool:
        return any(p.variance is not Variance.INV for p in self.type_params)

    def bindings(self, args: tuple[TypeRef, ...]) -> dict[str, TypeRef]:
        return {p.name: a for p, a in zip(self.type_params, args)}


class ClassTable(Record, hidden=("memo",)):
    __slots__ = ("classes", "functions", "memo")

    def __init__(self, classes: dict[str, ClassEntry], functions: dict[str, Signature]) -> None:
        self.classes = classes
        self.functions = functions
        # Answers to type questions on this table, keyed by the query's name
        # and its arguments: ("subtype", s, t) for two class types,
        # ("supinst", t, ancestor) including None answers, ("resolve", t,
        # scope, allow_bare) for successful resolutions only, ("lub", s, t),
        # and the checker's ("cast", source, target) for completed targets.
        # Types are interned, so a key hashes and compares in O(1). Valid as
        # long as the table: the class names and arities that resolution
        # reads are fixed once the classes are collected, and the rest once
        # the table is built. Neither compared nor shown.
        self.memo: dict[tuple, object] = {}

    def entry(self, name: str) -> ClassEntry:
        return self.classes[name]

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def arity(self, name: str) -> int:
        return len(self.classes[name].type_params)

    def prelude_entries(self) -> list[ClassEntry]:
        return [e for e in self.classes.values() if e.is_prelude]


BUILTIN_FUNCTIONS = (
    Signature("mutableListOf", ("T",), (), (), ClassType("MutableList", (ParamRef("T"),)), None),
    Signature("println", (), (ANY_NULLABLE,), ("message",), UNIT, None),
)


# ============================================================
# TYPE RESOLUTION (syntactic -> semantic references)
# ============================================================


class TypeResolutionError(Exception):
    def __init__(self, message: str, loc: SourceLoc) -> None:
        super().__init__(message)
        self.message = message
        self.loc = loc


def resolve_type(
    table: ClassTable,
    t: TypeRef,
    type_params: frozenset[str],
    loc: SourceLoc,
    allow_bare: bool = False,
) -> TypeRef:
    """Resolve class names and bind type-parameter occurrences.

    Non-generic class references are normalized to empty argument tuples;
    bare generic references survive only where `allow_bare` holds (cast and
    instance-check targets).
    """
    if isinstance(t, (TopType, NullableTopType, PrimitiveType, ParamRef)):
        return t
    if not isinstance(t, ClassType):
        raise TypeResolutionError(f"unsupported type reference {t!r}", loc)
    # An error is never stored: each one carries the location it was asked at.
    key = ("resolve", t, type_params, allow_bare)
    found = table.memo.get(key)
    if found is not None:
        return found
    if t.name in type_params:
        if t.args is not None:
            raise TypeResolutionError(f"type parameter {t.name} takes no type arguments", loc)
        found = ParamRef(t.name)
    elif not table.has_class(t.name):
        raise TypeResolutionError(f"unknown type {t.name}", loc)
    else:
        arity = table.arity(t.name)
        if t.args is None:
            if arity == 0:
                found = ClassType(t.name, ())
            elif allow_bare:
                found = ClassType(t.name, None)
            else:
                raise TypeResolutionError(f"{t.name} expects {arity} type argument(s)", loc)
        elif len(t.args) != arity:
            raise TypeResolutionError(
                f"{t.name} expects {arity} type argument(s), got {len(t.args)}", loc
            )
        else:
            found = ClassType(t.name, tuple(resolve_type(table, a, type_params, loc) for a in t.args))
    table.memo[key] = found
    return found


# ============================================================
# TABLE CONSTRUCTION
# ============================================================


def build_class_table(program: Program) -> tuple[ClassTable, list[Diagnostic]]:
    """Build the class table for a program: prelude entries plus user
    declarations, rejecting duplicates, classes named after a built-in type,
    repeated parameter names, unknown/closed supertypes, arity mismatches,
    inheritance cycles and nonconforming member redeclarations (all as
    E-TABLE diagnostics)."""
    table = ClassTable(dict(_prelude_classes()), {sig.name: sig for sig in BUILTIN_FUNCTIONS})
    diags: list[Diagnostic] = []
    _add_declarations(table, program, diags, is_prelude=False)
    return table, diags


@functools.cache
def _prelude_classes() -> dict[str, ClassEntry]:
    """The prelude's entries, built once per process in a table of their
    own. Every table starts from a copy of this dict and only reads the
    entries, and keeps its own memo."""
    table = ClassTable({}, {})
    diags: list[Diagnostic] = []
    _add_declarations(table, parse(PRELUDE_SOURCE, PRELUDE_FILE), diags, is_prelude=True)
    assert not diags, diags
    return table.classes


def _add_declarations(table: ClassTable, program: Program, diags: list[Diagnostic], is_prelude: bool) -> None:
    """Collect, validate, link and resolve `program`'s classes and functions
    into `table`, whose classes so far are all built already."""
    entries = _collect_classes(table, program, diags, is_prelude)
    _collect_functions(table, program, diags)
    _validate_hierarchy(table, entries, diags)
    _link_ancestors(table, entries, diags)
    _resolve_members(table, entries, diags)
    _check_redeclarations(table, entries, diags)


def _collect_classes(table: ClassTable, program: Program, diags: list[Diagnostic], is_prelude: bool) -> list[ClassEntry]:
    entries: list[ClassEntry] = []
    for d in program.decls:
        if not isinstance(d, ClassDecl):
            continue
        if d.name in table.classes:
            diags.append(error("E-TABLE", d.loc, f"duplicate declaration of type {d.name}"))
            continue
        if d.name in _BUILT_IN_TYPE_NAMES:
            # Erased checks compare class names, so such a class would pass
            # for the built-in type and the built-in type for it.
            diags.append(error("E-TABLE", d.loc, f"{d.name} is a built-in type and cannot be declared"))
            continue
        entry = table.classes[d.name] = ClassEntry(
            name=d.name,
            type_params=d.type_params,
            is_interface=d.is_interface,
            is_open=d.is_open,
            ctor_private=d.ctor_private,
            supertypes=(),  # resolved later
            methods={},
            properties={},
            decl=d,
            is_prelude=is_prelude,
        )
        entries.append(entry)
    return entries


def _repeated_params(owner: str, params, diags: list[Diagnostic]) -> None:
    """E-TABLE at each parameter of `owner` named like an earlier one."""
    seen: set[str] = set()
    for p in params:
        if p.name in seen:
            diags.append(error("E-TABLE", p.loc, f"duplicate parameter {owner}.{p.name}"))
        seen.add(p.name)


def _collect_functions(table: ClassTable, program: Program, diags: list[Diagnostic]) -> None:
    for d in program.decls:
        if not isinstance(d, FunDecl):
            continue
        if d.name in table.functions:
            diags.append(error("E-TABLE", d.loc, f"duplicate declaration of function {d.name}"))
            continue
        _repeated_params(d.name, d.params, diags)
        scope = frozenset(d.type_params)
        try:
            param_types = tuple(resolve_type(table, p.type, scope, p.loc) for p in d.params)
            return_type = resolve_type(table, d.return_type, scope, d.loc)
        except TypeResolutionError as e:
            diags.append(error("E-TABLE", e.loc, e.message))
            continue
        table.functions[d.name] = Signature(
            d.name, d.type_params, param_types, tuple(p.name for p in d.params), return_type, d
        )


def _validate_hierarchy(table: ClassTable, entries: list[ClassEntry], diags: list[Diagnostic]) -> None:
    for entry in entries:
        scope = frozenset(p.name for p in entry.type_params)
        resolved: list[SupertypeRef] = []
        class_supers = 0
        for ref in entry.decl.supertypes:
            try:
                t = resolve_type(table, ref.type, scope, ref.loc)
            except TypeResolutionError as e:
                diags.append(error("E-TABLE", e.loc, e.message))
                continue
            if not isinstance(t, ClassType):
                diags.append(error("E-TABLE", ref.loc, f"{t.render()} cannot be used as a supertype"))
                continue
            sup = table.classes.get(t.name)
            if sup is None:
                continue
            if sup.is_interface and ref.has_ctor_call:
                diags.append(error("E-TABLE", ref.loc, f"interface {t.name} has no constructor to call"))
            if not sup.is_interface:
                class_supers += 1
                if not ref.has_ctor_call:
                    diags.append(error("E-TABLE", ref.loc, f"supertype class {t.name} must be initialized: {t.name}()"))
                if not sup.is_open:
                    diags.append(error("E-TABLE", ref.loc, f"class {t.name} is not open and cannot be inherited from"))
                if entry.is_interface:
                    diags.append(error("E-TABLE", ref.loc, f"interface {entry.name} cannot extend class {t.name}"))
            resolved.append(SupertypeRef(t, ref.has_ctor_call, ref.unsafe_variance, ref.loc))
        if class_supers > 1:
            diags.append(error("E-TABLE", entry.decl.loc, f"{entry.name} has more than one class supertype"))
        entry.supertypes = tuple(resolved)


def _link_ancestors(table: ClassTable, entries: list[ClassEntry], diags: list[Diagnostic]) -> None:
    """Fill in the ancestors of `entries` in topological order (Kahn): a
    class is linked once all its supertypes are, from their finished
    ancestors; the table's other classes are linked already. This is the
    one place that follows `supertypes` transitively. When none is ready,
    the rest reach an inheritance cycle: the first of them in declaration
    order is reported and loses its supertypes. A class that reaches one
    generic class through two supertypes with different arguments is an
    error, as in Kotlin: subtyping sees only the first instantiation."""
    below: dict[str, list[ClassEntry]] = {entry.name: [] for entry in entries}
    pending = dict.fromkeys(below, 0)
    for entry in entries:
        for ref in entry.supertypes:
            if ref.type.name in below:  # not linked yet
                below[ref.type.name].append(entry)
                pending[entry.name] += 1
    ready = [entry for entry in entries if not pending[entry.name]]
    declared = iter(entries)
    while True:
        if not ready:
            entry = next((e for e in declared if not e.ancestors), None)
            if entry is None:
                return
            diags.append(error("E-TABLE", entry.decl.loc, f"inheritance cycle through {entry.name}"))
            entry.supertypes = ()
            pending[entry.name] = 0  # its old supertypes count it down past zero, never to zero
            ready.append(entry)
        entry = ready.pop()
        # Ordered and hashed: the keys are the ancestors found so far.
        found = {ClassType(entry.name, tuple(ParamRef(p.name) for p in entry.type_params)): None}
        for ref in entry.supertypes:  # class types with arguments, by `_validate_hierarchy`
            sup = table.classes[ref.type.name]
            bindings = sup.bindings(ref.type.args)
            earlier = {anc.name: anc for anc in found}
            for anc in sup.ancestors:
                inst = substitute(anc, bindings)
                other = earlier.get(inst.name, inst)
                if other != inst:
                    diags.append(error("E-TABLE", entry.decl.loc, f"inconsistent type arguments for {inst.name}: "
                                       f"{other.render()} and {inst.render()}"))
                found.setdefault(inst)
        entry.ancestors = tuple(found)
        for anc in found:
            entry.ancestor_of.setdefault(anc.name, anc)
        for sub in below[entry.name]:
            pending[sub.name] -= 1
            if not pending[sub.name]:
                ready.append(sub)


def _resolve_members(table: ClassTable, entries: list[ClassEntry], diags: list[Diagnostic]) -> None:
    for entry in entries:
        scope = frozenset(p.name for p in entry.type_params)
        for m in entry.decl.members:
            if m.name in entry.methods or m.name in entry.properties:
                diags.append(error("E-TABLE", m.loc, f"duplicate member {entry.name}.{m.name}"))
                continue
            try:
                if isinstance(m, Method):
                    _repeated_params(f"{entry.name}.{m.name}", m.params, diags)
                    params = tuple(resolve_type(table, p.type, scope, p.loc) for p in m.params)
                    ret = resolve_type(table, m.return_type, scope, m.loc)
                    entry.methods[m.name] = Signature(m.name, (), params, tuple(p.name for p in m.params), ret, m)
                else:
                    entry.properties[m.name] = PropertySig(m.name, resolve_type(table, m.type, scope, m.loc), m)
            except TypeResolutionError as e:
                diags.append(error("E-TABLE", e.loc, e.message))


def _seen_member(table: ClassTable, entry: ClassEntry, name: str) -> tuple[str, Signature | PropertySig] | None:
    """The member `name` that instances of `entry` see, method or property,
    with the class declaring it: the first up its ancestors; else None."""
    for owner in entry.ancestor_of:
        found = table.classes[owner]
        sig = found.methods.get(name) or found.properties.get(name)
        if sig is not None:
            return owner, sig
    return None


def _check_redeclarations(table: ClassTable, entries: list[ClassEntry], diags: list[Diagnostic]) -> None:
    """E-TABLE where a member a class sees disagrees with the member of that
    name one of its direct supertypes sees. miniK has no overloading: a
    redeclared method keeps the number and the types of its parameters and
    may narrow its return type, and a redeclared property keeps its type.
    Checked against every direct supertype, every class's members agree with
    those of all its ancestors, so the method a call dispatches to takes the
    arguments the call was checked against."""
    for entry in entries:
        # With one supertype, a class can disagree only by what it declares.
        sources = [table.classes[a] for a in entry.ancestor_of] if len(entry.supertypes) > 1 else [entry]
        for name in dict.fromkeys(n for e in sources for members in (e.methods, e.properties) for n in members):
            owner, sig = _seen_member(table, entry, name)
            for ref in entry.supertypes:
                other = _seen_member(table, table.classes[ref.type.name], name)
                if other is None or other[0] == owner:
                    continue
                problem = _redeclaration_error(table, entry, owner, sig, *other)
                if problem is not None:
                    if owner == entry.name:
                        subject, loc = f"{owner}.{name}", sig.decl.loc
                    else:
                        subject, loc = f"{entry.name}.{name}, inherited from {owner},", entry.decl.loc
                    diags.append(error("E-TABLE", loc, f"{subject} redeclares {other[0]}.{name} {problem}"))
                    break


def _redeclaration_error(table: ClassTable, entry: ClassEntry, owner: str, sig: Signature | PropertySig,
                         other_owner: str, other: Signature | PropertySig) -> str | None:
    """How `owner`'s member `sig` fails to redeclare `other_owner`'s `other`,
    both as instances of `entry` see them; None when it conforms."""

    def seen(declaring: str, t: TypeRef) -> TypeRef:
        return substitute(t, table.classes[declaring].bindings(entry.ancestor_of[declaring].args))

    if isinstance(sig, PropertySig) or isinstance(other, PropertySig):
        if not isinstance(sig, PropertySig):
            return "as a method"
        if not isinstance(other, PropertySig):
            return "as a property"
        mine, theirs = seen(owner, sig.type), seen(other_owner, other.type)
        if mine != theirs:
            return f"with type {mine.render()} instead of {theirs.render()}"
        # A `val` may become a `var`, but a `var` stays one: its setter is
        # part of the supertype's contract.
        return "as a val" if other.decl.mutable and not sig.decl.mutable else None
    if len(sig.param_types) != len(other.param_types):
        return f"with {len(sig.param_types)} parameter(s) instead of {len(other.param_types)}"
    for pname, p, q in zip(sig.param_names, sig.param_types, other.param_types):
        mine, theirs = seen(owner, p), seen(other_owner, q)
        if mine != theirs:
            return f"with parameter {pname}: {mine.render()} instead of {theirs.render()}"
    mine, theirs = seen(owner, sig.return_type), seen(other_owner, other.return_type)
    if not subtype(table, mine, theirs):
        return f"with return type {mine.render()}, not a subtype of {theirs.render()}"
    return None


# ============================================================
# BODIES
# ============================================================


class Body(Record, frozen=True):
    """One statement sequence: a function, a method with a body, or the
    top level."""

    __slots__ = ("decl", "owner", "type_params", "params", "return_type", "stmts")

    def __init__(
        self,
        decl: FunDecl | Method | None,  # None at the top level
        owner: str | None,  # the class declaring a method
        type_params: frozenset[str],  # type parameters in scope
        params: tuple[tuple[str, TypeRef], ...],  # (name, declared type)
        return_type: TypeRef | None,  # None at the top level
        stmts: tuple[Stmt, ...],
    ) -> None:
        object.__setattr__(self, "decl", decl)
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "type_params", type_params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "return_type", return_type)
        object.__setattr__(self, "stmts", stmts)


def program_bodies(table: ClassTable, program: Program) -> Iterator[Body]:
    """Every function and method body in declaration order, then the
    top-level statements. Builtins and classes the table rejected as
    duplicates have no body here."""
    for decl in program.decls:
        if isinstance(decl, FunDecl):
            sig = table.functions.get(decl.name)
            if sig is not None and sig.decl is not None:
                params = tuple(zip(sig.param_names, sig.param_types))
                yield Body(decl, None, frozenset(decl.type_params), params, sig.return_type, decl.body)
        elif isinstance(decl, ClassDecl):
            entry = table.classes.get(decl.name)
            if entry is None or entry.decl is not decl:
                continue
            scope = frozenset(p.name for p in decl.type_params)
            for msig in entry.methods.values():
                if msig.decl.body is not None:
                    params = tuple(zip(msig.param_names, msig.param_types))
                    yield Body(msig.decl, decl.name, scope, params, msig.return_type, msig.decl.body)
    top = tuple(d.stmt for d in program.decls if isinstance(d, StmtDecl))
    yield Body(None, None, frozenset(), (), None, top)


# ============================================================
# SUBSTITUTION AND SUPERTYPE INSTANTIATION
# ============================================================


def substitute(t: TypeRef, bindings: dict[str, TypeRef]) -> TypeRef:
    if isinstance(t, ParamRef):
        return bindings.get(t.name, t)
    if isinstance(t, ClassType) and t.args:
        return ClassType(t.name, tuple(substitute(a, bindings) for a in t.args))
    return t


# A memo miss, where None is an answer.
_UNKNOWN = object()


def supertype_instantiation(table: ClassTable, t: ClassType, ancestor: str) -> ClassType | None:
    """The instantiation of `ancestor` reached from `t` by substituting type
    arguments up the declared supertypes, or None if `ancestor` is not above
    `t`'s class. E.g. MutableList<A> at List is List<A>. A bare reference
    has no instantiation: ValueError."""
    if t.args is None:
        raise ValueError(f"bare reference {t.name} has no instantiation")
    if t.name == ancestor:
        return t
    key = ("supinst", t, ancestor)
    found = table.memo.get(key, _UNKNOWN)
    if found is not _UNKNOWN:
        return found
    entry = table.classes.get(t.name)
    found = entry.ancestor_of.get(ancestor) if entry is not None else None
    if found is not None and t.args:
        found = substitute(found, entry.bindings(t.args))
    table.memo[key] = found
    return found


def find_member(table: ClassTable, t: ClassType, name: str, kind: str):
    """(signature, bindings) of the method or property (`kind`) `name` that
    instances of `t` see, the first up its ancestors in `ancestor_of` order;
    else None. The bindings are the declaring class's parameters as `t`
    instantiates them: none when `t` is bare or that class is not generic."""
    for owner in table.classes[t.name].ancestor_of:
        entry = table.classes[owner]
        sig = (entry.methods if kind == "method" else entry.properties).get(name)
        if sig is not None:
            instantiated = t.args is not None and entry.type_params
            return sig, entry.bindings(supertype_instantiation(table, t, owner).args) if instantiated else {}
    return None


def class_conforms(table: ClassTable, actual: str, expected: str) -> bool:
    """Whether class `actual` is `expected` or below it: the check an erased
    runtime can make, with the type arguments gone."""
    if actual == expected:
        return True
    entry = table.classes.get(actual)
    return entry is not None and expected in entry.ancestor_of


def _args_conform(table: ClassTable, params: tuple[TypeParam, ...], s_args, t_args) -> bool:
    for p, sa, ta in zip(params, s_args, t_args):
        if p.variance is Variance.OUT:
            if not subtype(table, sa, ta):
                return False
        elif p.variance is Variance.IN:
            if not subtype(table, ta, sa):
                return False
        else:
            if sa != ta:  # invariant position: syntactic equality
                return False
    return True


def subtype(table: ClassTable, s: TypeRef, t: TypeRef) -> bool:
    """Variance-aware nominal subtyping.

    Reflexive; everything is below Any?; every non-nullable type is below
    Any; class heads compare per-parameter by declared variance.
    """
    if s == t:
        return True
    if isinstance(t, NullableTopType):
        return True
    if isinstance(s, NullableTopType):
        return False
    if isinstance(t, TopType):
        # Type parameters carry an implicit Any? bound, so they are not
        # known to be below Any.
        return not isinstance(s, ParamRef)
    if isinstance(s, TopType):
        return False
    if isinstance(s, ParamRef) or isinstance(t, ParamRef):
        return False  # equal ParamRefs already matched above
    if isinstance(s, PrimitiveType) or isinstance(t, PrimitiveType):
        return False  # distinct primitives are unrelated
    if not isinstance(s, ClassType) or not isinstance(t, ClassType):
        raise TypeError(f"not a miniK type: {s!r} or {t!r}")
    if s.args is None or t.args is None:
        return False
    key = ("subtype", s, t)
    found = table.memo.get(key)
    if found is not None:
        return found
    inst = supertype_instantiation(table, s, t.name)
    # `inst` has arguments: it is `s` or an ancestor, and every ancestor has.
    found = inst is not None and _args_conform(table, table.classes[t.name].type_params, inst.args, t.args)
    table.memo[key] = found
    return found


def nominal_ancestors(table: ClassTable, t: TypeRef) -> list[TypeRef]:
    """All supertypes of `t` reachable nominally, `t` itself first,
    Any/Any? last. For class types this includes every instantiated
    ancestor up the declared hierarchy."""
    if isinstance(t, ClassType) and t.args is not None:
        entry = table.classes.get(t.name)
        out: list[TypeRef] = [t]
        if entry is not None:
            bindings = entry.bindings(t.args)
            for anc in entry.ancestors[1:]:
                inst = substitute(anc, bindings)
                if inst not in out:
                    out.append(inst)
        return out + [ANY, ANY_NULLABLE]
    if isinstance(t, PrimitiveType):
        return [t, ANY, ANY_NULLABLE]
    if isinstance(t, TopType):
        return [ANY, ANY_NULLABLE]
    if isinstance(t, ParamRef):
        return [t, ANY_NULLABLE]
    return [ANY_NULLABLE]


def lub(table: ClassTable, s: TypeRef, t: TypeRef) -> TypeRef:
    """Least upper bound among nominal ancestors.

    Candidates come from both sides' ancestor sets; of the common ones we
    keep the minimal elements and, if that is not a single type, fall back
    to Any (or Any? when one side is nullable). Memoized on the table.
    """
    key = ("lub", s, t)
    found = table.memo.get(key)
    if found is not None:
        return found
    candidates = nominal_ancestors(table, s) + nominal_ancestors(table, t)
    common = [c for c in candidates if subtype(table, s, c) and subtype(table, t, c)]
    minimal: list[TypeRef] = []
    for c in common:
        if any(d != c and subtype(table, d, c) for d in common):
            continue
        if c not in minimal:
            minimal.append(c)
    if len(minimal) == 1:
        found = minimal[0]
    elif subtype(table, s, ANY) and subtype(table, t, ANY):
        found = ANY
    else:
        found = ANY_NULLABLE
    table.memo[key] = found
    return found
