"""Pretty-printer; inverse of the parser up to source locations."""

from __future__ import annotations

from .ast import (
    UNIT,
    CallExpr,
    CastExpr,
    ClassDecl,
    Decl,
    Expr,
    ExprStmt,
    FunDecl,
    If,
    Index,
    IntLit,
    IsExpr,
    Method,
    MethodCall,
    Program,
    Property,
    PropertyGet,
    Return,
    Stmt,
    StmtDecl,
    StringLit,
    TypeRef,
    ValDecl,
    VarRef,
)

_INDENT = "    "

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _escape(s: str) -> str:
    return "".join(_STRING_ESCAPES.get(c, c) for c in s)


def render_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StringLit):
        return f'"{_escape(e.value)}"'
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, CallExpr):
        targs = "" if e.type_args is None else f"<{', '.join(t.render() for t in e.type_args)}>"
        return f"{e.name}{targs}({', '.join(render_expr(a) for a in e.args)})"
    if isinstance(e, Index):
        return f"{render_expr(e.receiver)}[{render_expr(e.args[0])}]"
    if isinstance(e, MethodCall):
        return f"{render_expr(e.receiver)}.{e.name}({', '.join(render_expr(a) for a in e.args)})"
    if isinstance(e, PropertyGet):
        return f"{render_expr(e.receiver)}.{e.name}"
    if isinstance(e, CastExpr):
        return f"{render_expr(e.expr)} as {e.target.render()}"
    if isinstance(e, IsExpr):
        return f"{render_expr(e.expr)} is {e.target.render()}"
    raise TypeError(f"unknown expression node {e!r}")


def _stmt_lines(s: Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(s, ValDecl):
        ann = "" if s.declared_type is None else f": {s.declared_type.render()}"
        return [f"{pad}val {s.name}{ann} = {render_expr(s.init)}"]
    if isinstance(s, ExprStmt):
        return [f"{pad}{render_expr(s.expr)}"]
    if isinstance(s, Return):
        return [f"{pad}return {render_expr(s.expr)}"]
    if isinstance(s, If):
        lines = [f"{pad}if ({render_expr(s.cond)}) {{"]
        for inner in s.then_body:
            lines.extend(_stmt_lines(inner, depth + 1))
        if s.else_body is None:
            lines.append(f"{pad}}}")
        else:
            lines.append(f"{pad}}} else {{")
            for inner in s.else_body:
                lines.extend(_stmt_lines(inner, depth + 1))
            lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"unknown statement node {s!r}")


def _signature(name: str, params, return_type: TypeRef, type_params: tuple[str, ...] = ()) -> str:
    targs = f"<{', '.join(type_params)}>" if type_params else ""
    plist = ", ".join(f"{p.name}: {p.type.render()}" for p in params)
    ret = "" if return_type == UNIT else f": {return_type.render()}"
    return f"fun {name}{targs}({plist}){ret}"


def _block_lines(head: str, body: tuple[Stmt, ...], depth: int) -> list[str]:
    pad = _INDENT * depth
    lines = [pad + head + " {"]
    for s in body:
        lines.extend(_stmt_lines(s, depth + 1))
    lines.append(pad + "}")
    return lines


def _member_lines(m, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(m, Method):
        head = _signature(m.name, m.params, m.return_type)
        return [pad + head] if m.body is None else _block_lines(head, m.body, depth)
    if isinstance(m, Property):
        kw = "var" if m.mutable else "val"
        ann = "@UnsafeVariance " if m.unsafe_variance else ""
        return [f"{pad}{kw} {m.name}: {ann}{m.type.render()}"]
    raise TypeError(f"unknown member node {m!r}")


def _class_lines(d: ClassDecl) -> list[str]:
    head = ""
    if d.is_interface:
        head += "interface "
    else:
        if d.is_open:
            head += "open "
        head += "class "
    head += d.name
    if d.type_params:
        marks = []
        for p in d.type_params:
            kw = p.variance.keyword()
            marks.append(f"{kw} {p.name}" if kw else p.name)
        head += f"<{', '.join(marks)}>"
    if d.ctor_private:
        head += " private constructor()"
    if d.supertypes:
        refs = []
        for ref in d.supertypes:
            s = "@UnsafeVariance " if ref.unsafe_variance else ""
            s += ref.type.render()
            if ref.has_ctor_call:
                s += "()"
            refs.append(s)
        head += " : " + ", ".join(refs)
    if not d.members:
        return [head]
    lines = [head + " {"]
    for m in d.members:
        lines.extend(_member_lines(m, 1))
    lines.append("}")
    return lines


def _decl_lines(d: Decl) -> list[str]:
    if isinstance(d, ClassDecl):
        return _class_lines(d)
    if isinstance(d, FunDecl):
        return _block_lines(_signature(d.name, d.params, d.return_type, d.type_params), d.body, 0)
    if isinstance(d, StmtDecl):
        return _stmt_lines(d.stmt, 0)
    raise TypeError(f"unknown declaration node {d!r}")


def pretty_print(p: Program) -> str:
    """Render a Program as parseable source; round-trips modulo locations.

    Consecutive top-level statements stay adjacent; other declarations are
    separated by a blank line.
    """
    lines: list[str] = []
    prev_was_stmt = False
    for d in p.decls:
        is_stmt = isinstance(d, StmtDecl)
        if lines and not (prev_was_stmt and is_stmt):
            lines.append("")
        lines.extend(_decl_lines(d))
        prev_was_stmt = is_stmt
    return "\n".join(lines) + "\n" if lines else ""
