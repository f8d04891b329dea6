"""Property suites: subtyping laws, lub minimality, provenance laws, and the
parser round trip, each over at least a thousand generated instances."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.vendor.pretty import pretty

from minik.ast import (
    ANY,
    ANY_NULLABLE,
    INT,
    STRING,
    UNIT,
    CallExpr,
    CastExpr,
    ClassDecl,
    ClassType,
    Expr,
    ExprStmt,
    FunDecl,
    If,
    Index,
    IntLit,
    IsExpr,
    Member,
    Method,
    MethodCall,
    Node,
    Param,
    ParamRef,
    Program,
    Property,
    PropertyGet,
    Return,
    SourceLoc,
    Stmt,
    StmtDecl,
    StringLit,
    SupertypeRef,
    TypeParam,
    TypeRef,
    ValDecl,
    VarRef,
    Variance,
)
from conftest import narrowed_uses, same_tree
from minik.checker import check_variance_positions, classify_cast_baseline
from minik.cli import build
from minik.parser import parse
from minik.printer import pretty_print
from minik.provenance import compute_provenance
from minik.typesys import (
    ClassTable,
    build_class_table,
    lub,
    nominal_ancestors,
    substitute,
    subtype,
    supertype_instantiation,
)

PROPERTY_EXAMPLES = 1000
SUITE_SETTINGS = settings(max_examples=PROPERTY_EXAMPLES, deadline=None, derandomize=True)

_LOC = SourceLoc("<gen>", 1, 1)


# ============================================================
# RANDOM CLASS TABLES AND TYPES
# ============================================================


@dataclass(frozen=True)
class TableSpec:
    """A random single-inheritance hierarchy of up to six classes, some
    generic, with per-parameter variance."""

    classes: tuple[tuple[str, tuple[Variance, ...], int | None], ...]
    # (name, param variances, index of the supertype class or None)


@st.composite
def table_specs(draw) -> TableSpec:
    n = draw(st.integers(min_value=1, max_value=6))
    classes = []
    for i in range(n):
        arity = draw(st.integers(min_value=0, max_value=2)) if i > 0 else 0
        variances = tuple(
            draw(st.sampled_from([Variance.OUT, Variance.IN, Variance.INV])) for _ in range(arity)
        )
        sup = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=i - 1))) if i > 0 else None
        classes.append((f"G{i}", variances, sup))
    return TableSpec(tuple(classes))


def build_spec_table(spec: TableSpec):
    decls = []
    for i, (name, variances, sup) in enumerate(spec.classes):
        params = tuple(TypeParam(f"P{j}", v, _LOC) for j, v in enumerate(variances))
        supers: tuple[SupertypeRef, ...] = ()
        if sup is not None:
            sup_name, sup_variances, _ = spec.classes[sup]
            # Fill the supertype's slots from own parameters where possible,
            # falling back to the concrete root class.
            args = tuple(
                ParamRef(f"P{j}") if j < len(params) else ClassType("G0", ())
                for j in range(len(sup_variances))
            )
            sup_type = ClassType(sup_name, args if args else None)
            supers = (SupertypeRef(sup_type, True, False, _LOC),)
        decls.append(
            ClassDecl(
                name=name,
                type_params=params,
                is_interface=False,
                is_open=True,
                ctor_private=False,
                supertypes=supers,
                members=(),
                loc=_LOC,
            )
        )
    table, diags = build_class_table(Program(tuple(decls)))
    assert not any(d.severity == "error" for d in diags), [d.render() for d in diags]
    return table


def concrete_type(draw, spec: TableSpec, table, depth: int) -> TypeRef:
    if depth <= 0 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["G0", "Int", "String", "Any"]))
        if leaf == "G0":
            return ClassType("G0", ())
        return {"Int": INT, "String": STRING, "Any": ANY}[leaf]
    name, variances, _ = draw(st.sampled_from(list(spec.classes)))
    args = tuple(concrete_type(draw, spec, table, depth - 1) for _ in variances)
    return ClassType(name, args)


def widen_once(draw, table, t: TypeRef) -> TypeRef:
    """A random immediate-ish supertype of t: a nominal ancestor, a top, or
    the same class with one covariant argument widened."""
    options: list[TypeRef] = [c for c in nominal_ancestors(table, t)]
    if isinstance(t, ClassType) and t.args:
        entry = table.classes[t.name]
        for i, p in enumerate(entry.type_params):
            if p.variance is Variance.OUT:
                widened = widen_once(draw, table, t.args[i])
                options.append(ClassType(t.name, t.args[:i] + (widened,) + t.args[i + 1 :]))
    return draw(st.sampled_from(options))


@st.composite
def subtype_chains(draw):
    """(table, s, t, u) with s <: t <: u by construction."""
    spec = draw(table_specs())
    table = build_spec_table(spec)
    # The laws hold for the hierarchies miniK accepts. A parameter filling a
    # supertype slot of a contradicting variance is E-VARIANCE-POSITION, and
    # through such a supertype subtyping is not transitive: with `G1<in P>`
    # and `G4<out P> : G1<P>`, G4<G0> <: G4<Any?> <: G1<Any?>, but G4<G0> is
    # G1<G0> at G1, which is not below G1<Any?>.
    assume(not any(check_variance_positions(table, e) for e in table.classes.values()))
    s = concrete_type(draw, spec, table, depth=2)
    t = widen_once(draw, table, s)
    u = widen_once(draw, table, t)
    return table, s, t, u


@pytest.mark.properties
@SUITE_SETTINGS
@given(subtype_chains())
def test_subtype_reflexive_and_transitive(chain):
    table, s, t, u = chain
    for ty in (s, t, u):
        assert subtype(table, ty, ty)
    assert subtype(table, s, t)
    assert subtype(table, t, u)
    assert subtype(table, s, u)
    # Antisymmetry: mutual subtypes are the same type.
    for x, y in ((s, t), (t, u), (s, u)):
        if subtype(table, x, y) and subtype(table, y, x):
            assert x == y
    # Asked again, the table answers from its memo; a copy with an empty
    # memo works each answer out afresh. All three agree, for subtyping and
    # for the cast classification.
    for x in (s, t, u):
        for y in (s, t, u):
            for query in (subtype, classify_cast_baseline):
                first = query(table, x, y)
                assert query(table, x, y) is first
                assert query(ClassTable(table.classes, table.functions), x, y) is first


# The hierarchy walk as a plain recursion over the declared supertypes: the
# reference the class table's precomputed ancestors are checked against.


def reference_instantiation(table, t: ClassType, ancestor: str) -> ClassType | None:
    if t.name == ancestor:
        return t
    entry = table.classes[t.name]
    bindings = {p.name: a for p, a in zip(entry.type_params, t.args)}
    for ref in entry.supertypes:
        found = reference_instantiation(table, substitute(ref.type, bindings), ancestor)
        if found is not None:
            return found
    return None


def reference_ancestors(table, t: TypeRef) -> set[TypeRef]:
    if not isinstance(t, ClassType):
        return {t, ANY, ANY_NULLABLE}  # a primitive or Any
    entry = table.classes[t.name]
    bindings = {p.name: a for p, a in zip(entry.type_params, t.args)}
    found = {t, ANY, ANY_NULLABLE}
    for ref in entry.supertypes:
        found |= reference_ancestors(table, substitute(ref.type, bindings))
    return found


@st.composite
def table_queries(draw):
    spec = draw(table_specs())
    table = build_spec_table(spec)
    return table, concrete_type(draw, spec, table, depth=2)


@pytest.mark.properties
@settings(max_examples=300, deadline=None, derandomize=True)
@given(table_queries())
def test_ancestor_walk_agrees_with_recursive_reference(query):
    table, t = query
    assert set(nominal_ancestors(table, t)) == reference_ancestors(table, t)
    if isinstance(t, ClassType):
        for name in table.classes:
            assert supertype_instantiation(table, t, name) == reference_instantiation(table, t, name)


# Prelude interfaces a generated class may extend: (type parameters, supertypes).
_PRELUDE_SUPERS = {
    "List": (("T",), ()),
    "MutableList": (("T",), (ClassType("List", (ParamRef("T"),)),)),
}


def reference_preorder(supers, t: ClassType) -> list[ClassType]:
    """`t`, then the preorder of each declared supertype in turn, over
    `supers` (name -> (type parameters, supertypes)), duplicates kept."""
    params, refs = supers[t.name]
    bindings = dict(zip(params, t.args))
    found = [t]
    for ref in refs:
        found += reference_preorder(supers, substitute(ref, bindings))
    return found


@st.composite
def diamond_tables(draw):
    """(declarations, supers): up to eight classes and interfaces, each with
    up to three supertypes drawn from the prelude interfaces and the earlier
    declarations, so diamonds and repeated references occur. A reference is
    kept only if the table stays legal and every ancestor class keeps one
    instantiation."""
    supers = dict(_PRELUDE_SUPERS)
    interfaces = set(_PRELUDE_SUPERS)
    decls = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        name = f"H{i}"
        is_interface = draw(st.booleans())
        params = ("P0", "P1")[: draw(st.integers(min_value=0, max_value=2))]
        arg_choices = [ParamRef(p) for p in params] + [INT, STRING]
        refs: list[SupertypeRef] = []
        instance_of: dict[str, ClassType] = {}
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            sup = draw(st.sampled_from(sorted(supers)))
            sup_is_interface = sup in interfaces
            if not sup_is_interface and (is_interface or any(r.has_ctor_call for r in refs)):
                continue
            ref = ClassType(sup, tuple(draw(st.sampled_from(arg_choices)) for _ in supers[sup][0]))
            reached = reference_preorder(supers, ref)
            if any(instance_of.get(anc.name, anc) != anc for anc in reached):
                continue
            instance_of.update((anc.name, anc) for anc in reached)
            refs.append(SupertypeRef(ref, not sup_is_interface, False, _LOC))
        supers[name] = (params, tuple(r.type for r in refs))
        if is_interface:
            interfaces.add(name)
        type_params = tuple(TypeParam(p, draw(st.sampled_from(list(Variance))), _LOC) for p in params)
        decls.append(ClassDecl(name, type_params, is_interface, True, False, tuple(refs), (), _LOC))
    return decls, supers


@pytest.mark.properties
@settings(max_examples=300, deadline=None, derandomize=True)
@given(diamond_tables())
def test_ancestor_order_agrees_with_recursive_preorder(case):
    decls, supers = case
    table, diags = build_class_table(Program(tuple(decls)))
    assert not any(d.severity == "error" for d in diags), [d.render() for d in diags]
    for d in decls:
        for args in (tuple(ParamRef(p.name) for p in d.type_params), (INT, STRING)[: len(d.type_params)]):
            t = ClassType(d.name, args)
            expected = list(dict.fromkeys(reference_preorder(supers, t))) + [ANY, ANY_NULLABLE]
            assert nominal_ancestors(table, t) == expected


# ============================================================
# LIFTING LAWS
# ============================================================

LIFTING_SOURCE = """\
open class Animal

class Dog : Animal()

open class Producer<out T>

open class Consumer<in T>

open class Box<T>
"""

_lifting_table, _lift_diags = build_class_table(parse(LIFTING_SOURCE))
assert not any(d.severity == "error" for d in _lift_diags)


def lifting_types(draw, depth: int) -> TypeRef:
    if depth <= 0 or draw(st.booleans()):
        return draw(
            st.sampled_from(
                [ClassType("Animal", ()), ClassType("Dog", ()), INT, STRING, ANY, ANY_NULLABLE]
            )
        )
    head = draw(st.sampled_from(["Producer", "Consumer", "Box"]))
    return ClassType(head, (lifting_types(draw, depth - 1),))


@st.composite
def lifting_pairs(draw):
    x = lifting_types(draw, depth=2)
    if draw(st.booleans()):
        y = widen_once(draw, _lifting_table, x)
    else:
        y = lifting_types(draw, depth=2)
    return x, y


@pytest.mark.properties
@SUITE_SETTINGS
@given(lifting_pairs())
def test_variance_lifting_laws(pair):
    x, y = pair
    table = _lifting_table
    covariant = subtype(table, ClassType("Producer", (x,)), ClassType("Producer", (y,)))
    assert covariant == subtype(table, x, y)
    contravariant = subtype(table, ClassType("Consumer", (x,)), ClassType("Consumer", (y,)))
    assert contravariant == subtype(table, y, x)
    invariant = subtype(table, ClassType("Box", (x,)), ClassType("Box", (y,)))
    assert invariant == (x == y)


# ============================================================
# LUB MINIMALITY
# ============================================================


@st.composite
def type_pairs(draw):
    spec = draw(table_specs())
    table = build_spec_table(spec)
    s = concrete_type(draw, spec, table, depth=2)
    t = widen_once(draw, table, s) if draw(st.booleans()) else concrete_type(draw, spec, table, depth=2)
    return table, s, t


@pytest.mark.properties
@SUITE_SETTINGS
@given(type_pairs())
def test_lub_is_a_minimal_common_supertype(pair):
    table, s, t = pair
    r = lub(table, s, t)
    # Asked again, the table answers from its memo; a copy with an empty
    # memo works the answer out afresh.
    assert lub(table, s, t) is r
    assert lub(ClassTable(table.classes, table.functions), s, t) is r
    assert subtype(table, s, r)
    assert subtype(table, t, r)
    candidates = []
    for c in nominal_ancestors(table, s) + nominal_ancestors(table, t):
        if c not in candidates and subtype(table, s, c) and subtype(table, t, c):
            candidates.append(c)
    minimal = [c for c in candidates if not any(d != c and subtype(table, d, c) for d in candidates)]
    if len(minimal) == 1:
        assert r == minimal[0]
    else:
        # Documented tie-break: ambiguity falls back to a top type.
        assert r in (ANY, ANY_NULLABLE)
    if r not in (ANY, ANY_NULLABLE):
        assert not any(c != r and subtype(table, c, r) for c in candidates)


# ============================================================
# PROVENANCE LAWS
# ============================================================


@st.composite
def coercion_chain_programs(draw):
    """A linear hierarchy D0 <: D1 <: ... plus a val chain walking it upward,
    with the oracle history computed by hand, and the same program with one
    extra hop inserted."""
    depth = draw(st.integers(min_value=2, max_value=5))
    decls = [f"open class D{depth - 1}"]
    for i in range(depth - 2, -1, -1):
        decls.append(f"open class D{i} : D{i + 1}()")
    hops = draw(st.lists(st.integers(min_value=0, max_value=depth - 1), min_size=1, max_size=4))
    hops = sorted(hops)
    extra_at = draw(st.integers(min_value=0, max_value=len(hops) - 1))

    def render(hop_list):
        lines = ["fun f() {", "    val v0 = D0()"]
        prev = "v0"
        for k, idx in enumerate(hop_list):
            lines.append(f"    val v{k + 1}: D{idx} = {prev}")
            prev = f"v{k + 1}"
        lines.append(f"    {prev}")
        lines.append("}")
        return "\n\n".join(decls) + "\n\n" + "\n".join(lines) + "\n"

    extended = hops[:extra_at] + [hops[extra_at]] + hops[extra_at:]
    return render(hops), render(extended), hops


def final_use_history(source: str):
    checked, diags = build(source, "chain.mk")
    assert checked is not None and checked.ok, [d.render() for d in diags]
    fun = next(d for d in checked.program.decls if isinstance(d, FunDecl))
    prov = compute_provenance(checked, fun.body, ())
    use = fun.body[-1].expr
    return prov.at(use)


@pytest.mark.properties
@SUITE_SETTINGS
@given(coercion_chain_programs())
def test_provenance_is_conservative_and_monotone(programs):
    base_src, extended_src, hops = programs
    history = final_use_history(base_src)
    # Conservativeness against the hand-simulated transfer function: the
    # history is exactly the deduplicated chain of static types.
    oracle = [ClassType("D0", ())]
    for idx in hops:
        step = ClassType(f"D{idx}", ())
        if step not in oracle:
            oracle.append(step)
    assert list(history) == oracle
    # Monotonicity: a longer chain never shrinks the downstream set.
    assert set(history) <= set(final_use_history(extended_src))


# ============================================================
# PARSER ROUND TRIP
# ============================================================

_NAMES = ("a", "b2", "foo", "x_y", "m", "qz")
_TYPE_NAMES = ("Foo", "Bar", "Zed", "Qux", "Kilo")
_STRINGS = ("", "plain", 'with "quotes"', "line\nbreak", "back\\slash", "tab\there")


def gen_type(draw, depth: int) -> TypeRef:
    choice = draw(st.integers(min_value=0, max_value=6))
    if depth <= 0 or choice <= 3:
        if choice == 0:
            return ANY
        if choice == 1:
            return ANY_NULLABLE
        if choice == 2:
            return draw(st.sampled_from([INT, STRING, UNIT]))
        return ClassType(draw(st.sampled_from(_TYPE_NAMES)), None)
    args = tuple(gen_type(draw, depth - 1) for _ in range(draw(st.integers(1, 2))))
    return ClassType(draw(st.sampled_from(_TYPE_NAMES)), args)


def gen_postfix_expr(draw, depth: int) -> Expr:
    """Expressions the postfix grammar can produce: receivers cannot be
    casts or instance checks (there is no grouping syntax)."""
    choice = draw(st.integers(min_value=0, max_value=6 if depth > 0 else 2))
    if choice == 0:
        return IntLit(draw(st.integers(0, 999)), _LOC)
    if choice == 1:
        return StringLit(draw(st.sampled_from(_STRINGS)), _LOC)
    if choice == 2:
        return VarRef(draw(st.sampled_from(_NAMES)), _LOC)
    if choice == 3:
        n_targs = draw(st.integers(0, 2))
        targs = tuple(gen_type(draw, depth - 1) for _ in range(n_targs)) or None
        args = tuple(gen_expr(draw, depth - 1) for _ in range(draw(st.integers(0, 2))))
        return CallExpr(draw(st.sampled_from(_NAMES)), targs, args, _LOC)
    if choice == 4:
        args = tuple(gen_expr(draw, depth - 1) for _ in range(draw(st.integers(0, 2))))
        return MethodCall(gen_postfix_expr(draw, depth - 1), draw(st.sampled_from(_NAMES)), args, _LOC)
    if choice == 5:
        return PropertyGet(gen_postfix_expr(draw, depth - 1), draw(st.sampled_from(_NAMES)), _LOC)
    return Index(gen_postfix_expr(draw, depth - 1), "get", (gen_expr(draw, depth - 1),), _LOC)


def gen_expr(draw, depth: int) -> Expr:
    e = gen_postfix_expr(draw, depth)
    for _ in range(draw(st.integers(0, 2 if depth > 0 else 0))):
        if draw(st.booleans()):
            e = CastExpr(e, gen_type(draw, depth - 1), _LOC)
        else:
            e = IsExpr(e, gen_type(draw, depth - 1), _LOC)
    return e


def gen_stmt(draw, depth: int) -> Stmt:
    choice = draw(st.integers(min_value=0, max_value=3 if depth > 0 else 2))
    if choice == 0:
        declared = gen_type(draw, 1) if draw(st.booleans()) else None
        return ValDecl(draw(st.sampled_from(_NAMES)), declared, gen_expr(draw, depth), _LOC)
    if choice == 1:
        return ExprStmt(gen_expr(draw, depth), _LOC)
    if choice == 2:
        return Return(gen_expr(draw, depth), _LOC)
    then = tuple(gen_stmt(draw, depth - 1) for _ in range(draw(st.integers(0, 2))))
    has_else = draw(st.booleans())
    orelse = tuple(gen_stmt(draw, depth - 1) for _ in range(draw(st.integers(0, 2)))) if has_else else None
    return If(gen_expr(draw, depth - 1), then, orelse, _LOC)


def gen_member(draw) -> Member:
    if draw(st.booleans()):
        params = tuple(
            Param(draw(st.sampled_from(_NAMES)), gen_type(draw, 1), _LOC)
            for _ in range(draw(st.integers(0, 2)))
        )
        ret = gen_type(draw, 1) if draw(st.booleans()) else UNIT
        body = tuple(gen_stmt(draw, 1) for _ in range(draw(st.integers(0, 2)))) if draw(st.booleans()) else None
        return Method(draw(st.sampled_from(_NAMES)), params, ret, body, _LOC)
    return Property(
        draw(st.sampled_from(_NAMES)),
        gen_type(draw, 1),
        draw(st.booleans()),
        draw(st.booleans()),
        _LOC,
    )


def gen_class(draw) -> ClassDecl:
    is_interface = draw(st.booleans())
    params = tuple(
        TypeParam(
            draw(st.sampled_from(("T", "U", "E"))),
            draw(st.sampled_from([Variance.OUT, Variance.IN, Variance.INV])),
            _LOC,
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    names = {p.name for p in params}
    if len(names) != len(params):
        params = tuple(dict((p.name, p) for p in params).values())
    supers = tuple(
        SupertypeRef(gen_type(draw, 1), draw(st.booleans()), draw(st.booleans()), _LOC)
        for _ in range(draw(st.integers(0, 2)))
    )
    supers = tuple(s for s in supers if isinstance(s.type, ClassType))
    return ClassDecl(
        name=draw(st.sampled_from(_TYPE_NAMES)),
        type_params=params,
        is_interface=is_interface,
        is_open=True if is_interface else draw(st.booleans()),
        ctor_private=False if is_interface else draw(st.booleans()),
        supertypes=supers,
        members=tuple(gen_member(draw) for _ in range(draw(st.integers(0, 2)))),
        loc=_LOC,
    )


def gen_fun(draw) -> FunDecl:
    type_params = tuple(dict.fromkeys(draw(st.sampled_from((("T",), ("T", "U"), ())))))
    params = tuple(
        Param(draw(st.sampled_from(_NAMES)), gen_type(draw, 1), _LOC)
        for _ in range(draw(st.integers(0, 2)))
    )
    ret = gen_type(draw, 1) if draw(st.booleans()) else UNIT
    body = tuple(gen_stmt(draw, 1) for _ in range(draw(st.integers(0, 3))))
    return FunDecl(draw(st.sampled_from(_NAMES)), type_params, params, ret, body, _LOC)


@st.composite
def programs(draw) -> Program:
    decls = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            decls.append(gen_class(draw))
        elif kind == 1:
            decls.append(gen_fun(draw))
        else:
            stmt = gen_stmt(draw, 2)
            decls.append(StmtDecl(stmt, _LOC))
    return Program(tuple(decls))


@pytest.mark.properties
@SUITE_SETTINGS
@given(programs())
def test_parse_print_round_trip(program):
    printed = pretty_print(program)
    reparsed = parse(printed, "gen.mk")
    assert same_tree(reparsed, program)
    # Printing is a fixed point from there on.
    assert pretty_print(reparsed) == printed
    # And every reparsed node's location lies within the printed source.
    lines = printed.split("\n")
    for loc in _all_locs(reparsed):
        assert 1 <= loc.line <= len(lines)
        assert 1 <= loc.col <= len(lines[loc.line - 1]) + 1


def test_a_failing_example_shows_its_tree():
    program = Program((StmtDecl(ExprStmt(CallExpr("f", (INT,), (IntLit(1, _LOC),), _LOC), _LOC), _LOC),))
    assert pretty(program) == repr(program)


def _all_locs(obj):
    if isinstance(obj, Program):
        for d in obj.decls:
            yield from _all_locs(d)
        return
    yield obj.loc
    for name in type(obj)._fields:
        value = getattr(obj, name)
        if isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    yield from _all_locs(item)
        elif isinstance(value, Node):
            yield from _all_locs(value)


# ============================================================
# GENERATED SMART-CAST PROGRAMS
# ============================================================


@st.composite
def narrowing_programs(draw):
    target = draw(st.sampled_from(["MutableList", "ArrayList", "List"]))
    source = draw(st.sampled_from(["List", "MutableList"]))
    return (
        f"fun f(x: {source}<Int>) {{\n"
        f"    if (x is {target}) {{\n"
        f"        x\n"
        f"    }}\n"
        f"}}\n"
    )


@pytest.mark.properties
@settings(max_examples=300, deadline=None, derandomize=True)
@given(narrowing_programs())
def test_smart_cast_narrowing_never_widens(source):
    checked, diags = build(source, "narrow.mk")
    assert checked is not None
    for before, narrowed in narrowed_uses(checked):
        assert subtype(checked.table, narrowed, before)
