"""Parser for constraint expressions and for domain descriptors.

The contract rule that wraps an expression, ``context Owner::op(params) kind
Name: body``, is the document's, in ``docformat``; it reads the body with
``parse_expr`` and each domain with ``parse_domain``.

Operator precedence is the ``exprs.PRECEDENCE`` table, which the printer reads
too; ``parse_expr`` walks down its levels. A run of ``implies``, ``or``,
``and`` or ``+``/``-`` parses into one ``Chain``; comparisons do not chain.
Every other expression node is built with ``frozen._new``, its fields in order:
only ``Chain`` has a ``__post_init__``, which splices a run operand of its level.

Reserved words inside expressions: ``and or implies not in set dom true false``.
Everything else, including the document keywords, stays usable as a name.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from .domains import (
    BoolDomain,
    Domain,
    EnumDomain,
    IntRangeDomain,
    MapDomain,
    OpaqueDomain,
    RecordDomain,
    SeqDomain,
    VariableDecl,
)
from .exprs import (
    METHODS,
    Apply,
    BinOp,
    BoolLit,
    Chain,
    EnumLit,
    Expr,
    FieldAccess,
    IntLit,
    Membership,
    MethodCall,
    Not,
    PRECEDENCE,
    SetLit,
    SortScope,
    VarRef,
    decls_mapping,
    infer_sort,
)
from .frozen import _new
from .lexer import MAX_DEPTH, TokenStream

_EXPR_RESERVED = frozenset(
    ["and", "or", "implies", "not", "in", "set", "dom", "true", "false"]
)

# word operators are identifiers and symbols punctuators, never strings or enum literals
_OPERATOR_KINDS = ("ident", "punct")

DeclsArg = Union[Mapping[str, Domain], Iterable[VariableDecl], None]


# ---------------------------------------------------------------------------
# expression grammar

def parse_expr(ts: TokenStream, level: int = 0) -> Expr:
    """An expression whose operators are all at ``PRECEDENCE[level]`` or tighter."""
    form, ops = PRECEDENCE[level]
    if form == "postfix":
        return _parse_postfix(ts)
    if form == "prefix":
        if ts.text == ops[0] and ts.kind == "ident":
            ts.nest()
            e = _new(Not, (parse_expr(ts, level),))
            ts.depth -= 1
            return e
        return parse_expr(ts, level + 1)
    left = parse_expr(ts, level + 1)
    if ts.text not in ops or ts.kind not in _OPERATOR_KINDS:
        return left
    if form == "run":
        links, operands = [], [left]
        while ts.text in ops and ts.kind in _OPERATOR_KINDS:
            links.append(ts.advance())
            operands.append(parse_expr(ts, level + 1))
        return Chain(tuple(links), tuple(operands))
    # a comparison or a membership takes one right operand
    if ts.text != "in":
        return _new(BinOp, (ts.advance(), left, parse_expr(ts, level + 1)))
    if ts.lookahead != ("ident", "set"):
        return left  # the word was something else, e.g. a parameter mode
    ts.advance()
    ts.advance()
    if ts.accept("ident", "dom"):
        return _new(Membership, (left, _new(MethodCall, (_parse_postfix(ts), "domain", ()))))
    return _new(Membership, (left, parse_expr(ts, level + 1)))


def _parse_postfix(ts: TokenStream) -> Expr:
    depth = ts.depth  # a bracket or a suffix opens a level to the end of the chain
    e = _parse_primary(ts)
    while ts.kind == "punct" and ts.text in ("(", "[", ".", "->"):
        text = ts.nest()
        if text == "(":
            start = ts.at  # the first bound's first token
            first = parse_expr(ts)
            if ts.accept("punct", ","):
                # sequence prefix slice: m(1,...,k) is sugar for m.front(k)
                ts.expect("punct", "...", what="'...'")
                ts.expect("punct", ",")
                hi = parse_expr(ts)
                ts.expect("punct", ")")
                if first != IntLit(1):
                    raise ts.error("sequence slices must start at 1", start)
                e = _new(MethodCall, (e, "front", (hi,)))
            else:
                ts.expect("punct", ")")
                e = _new(Apply, (e, first))
        elif text == "[":
            key = parse_expr(ts)
            ts.expect("punct", "]")
            e = _new(Apply, (e, key))
        elif text == ".":
            name = ts.expect("ident", what="a member name")
            e = (_new(MethodCall, (e, name, _parse_optional_args(ts))) if name in METHODS
                 else _new(FieldAccess, (e, name)))
        else:
            if ts.kind == "ident" and ts.text not in METHODS:
                raise ts.error(f"unknown arrow operation {ts.text!r}")
            name = ts.expect("ident", what="a collection operation")
            e = _new(MethodCall, (e, name, _parse_optional_args(ts)))
    ts.depth = depth
    return e


def _parse_optional_args(ts: TokenStream) -> tuple[Expr, ...]:
    return ts.items(parse_expr, ")") if ts.accept("punct", "(") else ()


def _parse_primary(ts: TokenStream) -> Expr:
    kind, text = ts.kind, ts.text
    if kind == "ident":
        if text not in _EXPR_RESERVED:
            return _parse_path(ts)
        if text in ("true", "false"):
            return _new(BoolLit, (ts.advance() == "true",))
        raise ts.error(f"{text!r} cannot start an expression")
    if kind == "int":
        return _new(IntLit, (ts.expect_int(),))
    if kind == "enumlit":
        return _new(EnumLit, (ts.advance(),))
    if ts.accept("punct", "-"):
        return _new(IntLit, (-ts.expect_int("an integer literal"),))
    if kind == "punct" and text in ("(", "{"):
        if ts.nest() == "{":
            return _new(SetLit, (ts.items(parse_expr, "}"),))
        e = parse_expr(ts)
        ts.expect("punct", ")")
        return e
    raise ts.error(f"expected an expression, found {ts.found!r}")


def _parse_path(ts: TokenStream) -> VarRef:
    """Dotted variable path with an optional old-state marker after a segment.

    A dotted suffix naming a collection built-in belongs to the postfix layer,
    not to the path: ``devOn.range`` is a method call on the variable ``devOn``.
    """
    parts = [ts.advance()]
    old = False
    while True:
        if ts.kind == "oldmark" and not old:
            ts.advance()
            old = True
            continue
        if ts.kind == "punct" and ts.text == ".":
            kind, text = ts.lookahead
            if kind == "ident" and text not in METHODS:
                ts.advance()
                parts.append(ts.advance())
                continue
        break
    return _new(VarRef, (tuple(parts), old))


# ---------------------------------------------------------------------------
# the string entry point

def parse_expression(
    text: str,
    decls: DeclsArg = None,
    *,
    params: Optional[Mapping[str, Domain]] = None,
    source: str = "<string>",
) -> Expr:
    """Parse and sort-check a bare expression. Without ``decls`` the world is open:
    an undeclared variable has the opaque sort."""
    ts = TokenStream(text, source)
    e = parse_expr(ts)
    if ts.kind != "eof":
        raise ts.error(f"unexpected trailing input {ts.text!r}")
    infer_sort(e, SortScope(decls_mapping(decls or {}), dict(params or {}), decls is None))
    return e


# ---------------------------------------------------------------------------
# domain descriptors

def parse_domain(ts: TokenStream, type_env: Mapping[str, Domain], depth: int = 0) -> Domain:
    """A domain descriptor inside ``depth`` levels; a name must be one of ``type_env``'s aliases,
    and weighs the levels of its domain."""
    at = ts.at
    if ts.kind != "ident":
        raise ts.error(f"expected a domain, found {ts.found!r}")
    word = ts.advance()
    if word in ("seq", "map", "record") and depth == MAX_DEPTH:
        raise ts.error("domain nests too deeply", at)
    try:
        if word == "bool":
            return BoolDomain()
        if word == "opaque":
            return OpaqueDomain()
        if word == "int":
            ts.expect("punct", "[")
            lo = _parse_signed_int(ts)
            ts.expect("punct", "..")
            hi = _parse_signed_int(ts)
            ts.expect("punct", "]")
            return IntRangeDomain(lo, hi)
        if word == "enum":
            ts.expect("punct", "{")
            lits = [ts.expect("ident", what="an enum literal")]
            while ts.accept("punct", ","):
                lits.append(ts.expect("ident", what="an enum literal"))
            ts.expect("punct", "}")
            return EnumDomain(tuple(lits))
        if word == "seq":
            ts.expect("ident", "of", what="'of'")
            elem = parse_domain(ts, type_env, depth + 1)
            max_len = None
            if ts.accept("ident", "maxlen"):
                max_len = ts.expect_int("a length bound")
            return SeqDomain(elem, max_len)
        if word == "map":
            key = parse_domain(ts, type_env, depth + 1)
            ts.expect("ident", "to", what="'to'")
            value = parse_domain(ts, type_env, depth + 1)
            return MapDomain(key, value)
        if word == "record":
            ts.expect("punct", "{")
            fields: list[tuple[str, Domain]] = []
            while True:
                fname = ts.expect("ident", what="a field name")
                ts.expect("punct", ":")
                fields.append((fname, parse_domain(ts, type_env, depth + 1)))
                if not ts.accept("punct", ","):
                    break
            ts.expect("punct", "}")
            return RecordDomain(tuple(fields))
    except ValueError as exc:  # a constructor's check; an inner descriptor raises its own ParseError
        raise ts.error(str(exc), at) from None
    if word in type_env:
        if depth + type_env[word].depth > MAX_DEPTH:
            raise ts.error("domain nests too deeply", at)
        return type_env[word]
    raise ts.error(f"unknown type name {word!r}", at)


def _parse_signed_int(ts: TokenStream) -> int:
    return -ts.expect_int() if ts.accept("punct", "-") else ts.expect_int("an integer")
