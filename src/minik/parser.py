"""Recursive-descent parser for miniK.

The grammar is a strict Kotlin subset: class/interface/fun declarations with
declaration-site variance marks, newline-terminated statements, and a small
expression language (calls, indexing, `as`, `is`). Function and constructor
calls share one syntactic form; the checker tells them apart.

The parser reads the lexer's parallel kind and text lists by index: taking
a token returns its index, and a location is built from it (`loc`) only for
a node or an error.
"""

from __future__ import annotations

from collections.abc import Iterator

from .ast import (
    ANY,
    ANY_NULLABLE,
    BOOLEAN,
    INT,
    STRING,
    UNIT,
    CallExpr,
    CastExpr,
    ClassDecl,
    ClassType,
    Decl,
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
    Param,
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
from .lexer import KEYWORDS, LexError, Tokens, tokenize

_BUILTIN_TYPES = {"Int": INT, "String": STRING, "Unit": UNIT, "Boolean": BOOLEAN}


class ParseError(Exception):
    def __init__(self, message: str, loc: SourceLoc) -> None:
        super().__init__(f"{loc}: {message}")
        self.message = message
        self.loc = loc


class _Parser:
    # The current token's index, its kind, and its text when it is a name
    # (else None) are fields that only `seek` and the four token takers set,
    # each with `seek(i + 1)` inlined so that taking a token is one call;
    # none is asked to take eof. The parser reads them several times a token.
    def __init__(self, tokens: Tokens) -> None:
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.loc = tokens.loc
        self.seek(0)

    # -- token plumbing ------------------------------------------------

    def seek(self, pos: int) -> None:
        self.pos = pos
        kind = self.kind = self.kinds[pos]
        self.word = self.texts[pos] if kind == "name" else None

    def here(self) -> SourceLoc:
        return self.loc(self.pos)

    def error(self, expected: str) -> ParseError:
        got = self.kind if self.word is None else f"'{self.word}'"
        if got == "newline":
            got = "end of line"
        return ParseError(f"expected {expected}, got {got}", self.here())

    def advance(self) -> int:
        """Take the current token; return its index."""
        pos = self.pos = self.pos + 1
        kind = self.kind = self.kinds[pos]
        self.word = self.texts[pos] if kind == "name" else None
        return pos - 1

    def eat(self, kind: str, expected: str | None = None) -> int:
        if self.kind != kind:
            raise self.error(expected or f"'{kind}'")
        pos = self.pos = self.pos + 1
        kind = self.kind = self.kinds[pos]
        self.word = self.texts[pos] if kind == "name" else None
        return pos - 1

    def eat_word(self, word: str) -> int:
        if self.word != word:
            raise self.error(f"'{word}'")
        pos = self.pos = self.pos + 1
        kind = self.kind = self.kinds[pos]
        self.word = self.texts[pos] if kind == "name" else None
        return pos - 1

    def eat_ident(self) -> int:
        if self.word is None:
            raise self.error("an identifier")
        if self.word in KEYWORDS:
            raise ParseError(f"'{self.word}' is a keyword", self.here())
        pos = self.pos = self.pos + 1
        kind = self.kind = self.kinds[pos]
        self.word = self.texts[pos] if kind == "name" else None
        return pos - 1

    def skip_newlines(self) -> None:
        while self.kind == "newline":
            self.advance()

    def end_of_stmt(self) -> None:
        if self.kind == "newline":
            self.advance()
            return
        if self.kind == "}" or self.kind == "eof":
            return
        raise self.error("end of statement")

    # -- types ---------------------------------------------------------

    def parse_type(self) -> TypeRef:
        i = self.eat("name", "a type name")
        name = self.texts[i]
        if name in KEYWORDS:
            raise ParseError(f"'{name}' is a keyword, not a type", self.loc(i))
        if name == "Any":
            if self.kind == "?":
                self.advance()
                return ANY_NULLABLE
            return ANY
        if name in _BUILTIN_TYPES:
            return _BUILTIN_TYPES[name]
        return ClassType(name, self.parse_type_args() if self.kind == "<" else None)

    def commas(self) -> Iterator[None]:
        """Yield before each item of a comma-separated list, which the caller
        then parses: unlike a loop that takes an item parser, this puts no
        frame between nested `parse_type` calls."""
        yield
        while self.kind == ",":
            self.advance()
            yield

    def parse_type_args(self) -> tuple[TypeRef, ...]:
        self.advance()  # the '<' both callers test for
        args = []
        for _ in self.commas():
            args.append(self.parse_type())
        self.eat(">", "'>' to close type arguments")
        return tuple(args)

    def parse_type_params(self, parse_param) -> tuple:
        self.eat("<")
        params = tuple(parse_param() for _ in self.commas())
        self.eat(">", "'>' to close type parameters")
        return params

    def parse_unsafe_variance(self) -> bool:
        if self.kind == "@UnsafeVariance":
            self.advance()
            return True
        return False

    def parse_return_type(self) -> TypeRef:
        if self.kind == ":":
            self.advance()
            return self.parse_type()
        return UNIT

    # -- declarations ----------------------------------------------------

    def parse_program(self) -> Program:
        decls: list[Decl] = []
        self.skip_newlines()
        while self.kind != "eof":
            decls.append(self.parse_decl())
            self.skip_newlines()
        return Program(tuple(decls))

    def parse_decl(self) -> Decl:
        if self.word == "open" or self.word == "class":
            return self.parse_class(is_interface=False)
        if self.word == "interface":
            return self.parse_class(is_interface=True)
        if self.word == "fun":
            return self.parse_fun()
        stmt = self.parse_stmt()
        return StmtDecl(stmt, loc=stmt.loc)

    def parse_class(self, is_interface: bool) -> ClassDecl:
        start = self.here()
        is_open = False
        if self.word == "open":
            self.advance()
            is_open = True
        if is_interface:
            self.eat_word("interface")
            is_open = True  # interfaces are always extendable
        else:
            self.eat_word("class")
        name = self.texts[self.eat_ident()]
        type_params = self.parse_type_params(self.parse_type_param) if self.kind == "<" else ()
        ctor_private = False
        if self.word == "private":
            self.advance()
            self.eat_word("constructor")
            self.eat("(")
            self.eat(")")
            ctor_private = True
        supertypes: tuple[SupertypeRef, ...] = ()
        if self.kind == ":":
            self.advance()
            supertypes = tuple(self.parse_supertype() for _ in self.commas())
        members: tuple[Member, ...] = ()
        if self.kind == "{":
            members = self.parse_members()
        return ClassDecl(
            name=name,
            type_params=type_params,
            is_interface=is_interface,
            is_open=is_open,
            ctor_private=ctor_private,
            supertypes=supertypes,
            members=members,
            loc=start,
        )

    def parse_type_param(self) -> TypeParam:
        loc = self.here()
        variance = Variance.INV
        if self.word == "out":
            self.advance()
            variance = Variance.OUT
        elif self.word == "in":
            self.advance()
            variance = Variance.IN
        name = self.texts[self.eat_ident()]
        return TypeParam(name, variance, loc)

    def parse_fun_type_param(self) -> str:
        if self.word == "out" or self.word == "in":
            raise ParseError("variance marks are only allowed on class type parameters", self.here())
        return self.texts[self.eat_ident()]

    def parse_supertype(self) -> SupertypeRef:
        loc = self.here()
        unsafe = self.parse_unsafe_variance()
        t = self.parse_type()
        has_ctor_call = False
        if self.kind == "(":
            self.advance()
            self.eat(")", "')' (supertype constructor calls take no arguments)")
            has_ctor_call = True
        return SupertypeRef(t, has_ctor_call, unsafe, loc)

    def parse_members(self) -> tuple[Member, ...]:
        self.eat("{")
        self.skip_newlines()
        members: list[Member] = []
        while self.kind != "}":
            if self.word == "fun":
                members.append(self.parse_method())
            elif self.word == "val" or self.word == "var":
                members.append(self.parse_property())
            else:
                raise self.error("a member ('fun', 'val' or 'var') or '}'")
            self.skip_newlines()
        self.eat("}")
        return tuple(members)

    def parse_method(self) -> Method:
        loc = self.loc(self.eat_word("fun"))
        name = self.texts[self.eat_ident()]
        if self.kind == "<":
            raise ParseError("methods cannot declare type parameters", self.here())
        params = self.parse_params()
        return_type = self.parse_return_type()
        body: tuple[Stmt, ...] | None = None
        if self.kind == "{":
            body = self.parse_block()
        return Method(name, params, return_type, body, loc)

    def parse_property(self) -> Property:
        i = self.advance()  # val | var
        mutable = self.texts[i] == "var"
        name = self.texts[self.eat_ident()]
        self.eat(":", "':' before the property type")
        unsafe = self.parse_unsafe_variance()
        return Property(name, self.parse_type(), mutable, unsafe, self.loc(i))

    def parse_fun(self) -> FunDecl:
        loc = self.loc(self.eat_word("fun"))
        name = self.texts[self.eat_ident()]
        type_params = self.parse_type_params(self.parse_fun_type_param) if self.kind == "<" else ()
        params = self.parse_params()
        return_type = self.parse_return_type()
        return FunDecl(name, type_params, params, return_type, self.parse_block(), loc)

    def parse_params(self) -> tuple[Param, ...]:
        self.eat("(")
        params: list[Param] = []
        while self.kind != ")":
            if params:
                self.eat(",", "',' between parameters")
            i = self.eat_ident()
            self.eat(":", "':' before the parameter type")
            t = self.parse_type()
            params.append(Param(self.texts[i], t, self.loc(i)))
        self.eat(")")
        return tuple(params)

    # -- statements ------------------------------------------------------

    def parse_block(self) -> tuple[Stmt, ...]:
        self.eat("{")
        self.skip_newlines()
        stmts: list[Stmt] = []
        while self.kind != "}":
            stmts.append(self.parse_stmt())
            self.skip_newlines()
        self.eat("}")
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
        if self.word == "val":
            loc = self.loc(self.advance())
            name = self.texts[self.eat_ident()]
            declared: TypeRef | None = None
            if self.kind == ":":
                self.advance()
                declared = self.parse_type()
            self.eat("=", "'=' (vals must be initialized)")
            init = self.parse_expr()
            self.end_of_stmt()
            return ValDecl(name, declared, init, loc)
        if self.word == "var":
            raise ParseError("mutable locals are not supported; use 'val'", self.here())
        if self.word == "return":
            loc = self.loc(self.advance())
            expr = self.parse_expr()
            self.end_of_stmt()
            return Return(expr, loc)
        if self.word == "if":
            return self.parse_if()
        expr = self.parse_expr()
        self.end_of_stmt()
        return ExprStmt(expr, loc=expr.loc)

    def parse_if(self) -> If:
        loc = self.loc(self.eat_word("if"))
        self.eat("(", "'(' after 'if'")
        cond = self.parse_expr()
        self.eat(")", "')' after the condition")
        then_body = self.parse_block()
        else_body: tuple[Stmt, ...] | None = None
        save = self.pos
        self.skip_newlines()
        if self.word == "else":
            self.advance()
            else_body = self.parse_block()
        else:
            self.seek(save)
        stmt = If(cond, then_body, else_body, loc)
        self.end_of_stmt()
        return stmt

    # -- expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        # A primary, then postfix `.` and `[`, which bind tighter than `as`
        # and `is` and never follow them: `x as T.f()` is not an expression.
        if self.word is not None:
            if self.word in KEYWORDS:
                raise self.error("an expression")
            i = self.advance()
            type_args = self.parse_type_args() if self.kind == "<" else None
            if type_args is not None or self.kind == "(":
                e = CallExpr(self.texts[i], type_args, self.parse_args(), self.loc(i))
            else:
                e = VarRef(self.texts[i], self.loc(i))
        elif self.kind == "int":
            i = self.advance()
            try:
                value = int(self.texts[i])
            except ValueError:  # longer than the host's int-string limit
                raise ParseError("integer literal too long", self.loc(i)) from None
            e = IntLit(value, self.loc(i))
        elif self.kind == "string":
            i = self.advance()
            e = StringLit(self.texts[i], self.loc(i))
        else:
            raise self.error("an expression")
        while self.kind == "." or self.kind == "[":
            if self.kind == ".":
                self.advance()
                name = self.texts[self.eat_ident()]
                if self.kind == "(":
                    e = MethodCall(e, name, self.parse_args(), loc=e.loc)
                else:
                    e = PropertyGet(e, name, loc=e.loc)
            else:
                self.advance()
                idx = self.parse_expr()
                self.eat("]", "']' to close indexing")
                e = Index(e, "get", (idx,), loc=e.loc)
        while self.word == "as" or self.word == "is":
            i = self.advance()
            target = self.parse_type()
            if self.texts[i] == "as":
                e = CastExpr(e, target, self.loc(i))
            else:
                e = IsExpr(e, target, self.loc(i))
        return e

    def parse_args(self) -> tuple[Expr, ...]:
        self.eat("(")
        args: list[Expr] = []
        while self.kind != ")":
            if args:
                self.eat(",", "',' between arguments")
            args.append(self.parse_expr())
        self.eat(")")
        return tuple(args)


def parse(source: str, file: str = "<input>") -> Program:
    """Parse miniK source text into a Program.

    Raises ParseError (or LexError) with a location on malformed input.
    """
    try:
        tokens = tokenize(source, file)
    except LexError as e:
        raise ParseError(e.message, e.loc) from None
    return _Parser(tokens).parse_program()
