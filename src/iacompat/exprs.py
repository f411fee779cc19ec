"""Constraint expression trees.

The dialect mixes OCL and VDM surface syntax: enum literals ``<off>``,
old-state references ``x~`` / ``x@pre`` (postconditions only), map domain
membership ``n in set dom mem``, map application ``mem(n)`` / ``devOn[devId]``,
record field access ``.c``, the collection operations of ``METHODS`` (``size``,
``lastItem``, ``domain``, ``range``, ``front``, ``notEmpty``, dotted or arrow
form), set literals ``{false}``, and the boolean/integer connectives.

Nodes are immutable ``Frozen`` values; their equality, which tells node kinds
apart, is the canonical notion of expression identity used everywhere
(round-trips, conjunction sharing). A run of ``implies``, of ``or``, of
``and`` or of ``+``/``-`` is one ``Chain``, so every walker takes it in one
loop and depth comes only from nesting; ``BinOp`` holds the comparisons.
"""
from __future__ import annotations

import enum
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Optional

from .domains import (
    BOOL,
    ENUM,
    INT,
    OPAQUE,
    Domain,
    Sort,
    VariableDecl,
    bind_path,
    sorts_compatible,
)
from .frozen import Frozen, factory


class Expr(Frozen):
    """Base class for expression nodes."""


class BoolLit(Expr):
    value: bool


class IntLit(Expr):
    value: int


class EnumLit(Expr):
    name: str


class SetLit(Expr):
    items: tuple[Expr, ...]


class VarRef(Expr):
    """Dotted variable path. ``old`` marks a pre-state reference (~ / @pre)."""

    path: tuple[str, ...]
    old: bool = False

    @property
    def dotted(self) -> str:
        return ".".join(self.path)


class Not(Expr):
    operand: Expr


class BinOp(Expr):
    op: str  # = <> < <= > >=
    left: Expr
    right: Expr


class Chain(Expr):
    """A run of one precedence level: ``implies``s, ``or``s, ``and``s, or
    ``+`` and ``-``. ``ops[i]`` joins ``operands[i]`` and ``operands[i + 1]``.

    An operand that is a run of the same level is spliced in on the side the
    run associates to: the right for ``implies``, else the left. So a run has
    one node however it was built, and prints and parses back as one.
    """

    ops: tuple[str, ...]
    operands: tuple[Expr, ...]

    def __post_init__(self):
        first, last = self.operands[0], self.operands[-1]
        if self.ops[0] == "implies":
            if last.__class__ is Chain and last.ops[0] == "implies":
                return self.ops + last.ops, self.operands[:-1] + last.operands
        elif first.__class__ is Chain and LEVEL[first.ops[0]] == LEVEL[self.ops[0]]:
            return first.ops + self.ops, first.operands + self.operands[1:]


class Membership(Expr):
    """``item in set collection``."""

    item: Expr
    collection: Expr


class Apply(Expr):
    """Map or sequence application, written ``m(k)`` or ``m[k]``."""

    target: Expr
    key: Expr


class FieldAccess(Expr):
    """Record field access on a non-path target, e.g. ``mem(n).c``."""

    target: Expr
    name: str


class MethodCall(Expr):
    target: Expr
    name: str
    args: tuple[Expr, ...] = ()


# The one statement of the collection operations, read by the parser, the sort
# checker and the evaluator: the target's sort tags besides opaque (none: any),
# the noun errors call it, and the call's sort from the target's, with opaque for
# what an opaque target leaves open. Only ``front`` takes an argument.
METHODS = {
    "size": (("seq", "set", "map"), "collection", lambda t: INT),
    "lastItem": (("seq",), "sequence", lambda t: t.elem or OPAQUE),
    "domain": (("map",), "map", lambda t: Sort("set", elem=t.key or OPAQUE)),
    "range": (("map",), "map", lambda t: Sort("set", elem=t.value or OPAQUE)),
    "front": (("seq",), "sequence", lambda t: t),
    "notEmpty": ((), "collection", lambda t: BOOL),
}


# ---------------------------------------------------------------------------
# precedence

# The one statement of operator precedence, loosest level first; the parser
# and ``to_text`` both read it. A "run" level parses into one ``Chain``, the
# "prefix" ``not`` applies to an operand of its own level, a "single"
# comparison or ``in set`` takes one right operand, and "postfix" suffixes
# (application, field, method) bind tightest.
PRECEDENCE = (
    ("run", ("implies",)),
    ("run", ("or",)),
    ("run", ("and",)),
    ("prefix", ("not",)),
    ("single", ("=", "<>", "<", "<=", ">", ">=", "in")),
    ("run", ("+", "-")),
    ("postfix", ()),
)
LEVEL = {op: k for k, (_, ops) in enumerate(PRECEDENCE) for op in ops}
POSTFIX_LEVEL = len(PRECEDENCE) - 1


def _level(e: Expr) -> int:
    cls = e.__class__
    if cls is Chain:
        return LEVEL[e.ops[0]]
    if cls is BinOp:
        return LEVEL[e.op]
    if cls is Membership:
        return LEVEL["in"]
    if cls is Not:
        return LEVEL["not"]
    return POSTFIX_LEVEL + 1


# ---------------------------------------------------------------------------
# printing

def to_text(e: Expr) -> str:
    """Canonical concrete syntax. parse(to_text(e)) reproduces e exactly."""

    def wrap(child: Expr, minlevel: int) -> str:
        s = to_text(child)
        return f"({s})" if _level(child) < minlevel else s

    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"-{-e.value}"
    if isinstance(e, EnumLit):
        return f"<{e.name}>"
    if isinstance(e, SetLit):
        return "{" + ", ".join(to_text(x) for x in e.items) + "}"
    if isinstance(e, VarRef):
        return e.dotted + ("@pre" if e.old else "")
    if isinstance(e, Not):
        return "not " + wrap(e.operand, LEVEL["not"])
    if isinstance(e, Apply):
        return f"{wrap(e.target, POSTFIX_LEVEL)}({to_text(e.key)})"
    if isinstance(e, FieldAccess):
        return f"{wrap(e.target, POSTFIX_LEVEL)}.{e.name}"
    if isinstance(e, MethodCall):
        base = wrap(e.target, POSTFIX_LEVEL)
        if e.name == "notEmpty":
            return f"{base}->notEmpty"
        return f"{base}.{e.name}(" + ", ".join(to_text(a) for a in e.args) + ")"
    if not isinstance(e, (BinOp, Chain, Membership)):
        raise TypeError(f"not an expression node: {e!r}")
    # an operand at the node's own level or looser is parenthesized: a run
    # operand of the same level was grouped, and comparisons do not chain
    tighter = _level(e) + 1
    if isinstance(e, BinOp):
        return f"{wrap(e.left, tighter)} {e.op} {wrap(e.right, tighter)}"
    if isinstance(e, Membership):
        return f"{wrap(e.item, tighter)} in set {wrap(e.collection, tighter)}"
    parts = [wrap(e.operands[0], tighter)]
    for op, x in zip(e.ops, e.operands[1:]):
        parts += (op, wrap(x, tighter))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# structural walks

# a node's fields are a tuple, so a run of subexpression fields is a slice
_CHILDREN = {
    SetLit: itemgetter(0),  # items
    Not: tuple,  # (operand,)
    BinOp: itemgetter(slice(1, None)),  # (left, right) after op
    Chain: itemgetter(1),  # operands
    Membership: tuple,  # (item, collection)
    Apply: tuple,  # (target, key)
    FieldAccess: itemgetter(slice(1)),  # (target,) before name
    MethodCall: lambda e: (e.target, *e.args),
}


def children(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions, left to right."""
    get = _CHILDREN.get(type(e))
    return () if get is None else get(e)


def variable_refs(e: Expr) -> list[VarRef]:
    """Every variable reference, repeats included, pre-order, left to right."""
    refs, stack = [], [e]
    while stack:
        node = stack.pop()
        if node.__class__ is VarRef:
            refs.append(node)
        elif (get := _CHILDREN.get(node.__class__)) is not None:
            stack += reversed(get(node))
    return refs


# ---------------------------------------------------------------------------
# named constraints

class ConstraintKind(enum.Enum):
    INV = "inv"
    PRE = "pre"
    POST = "post"


class ParamDecl(Frozen):
    """Typed operation parameter; ``mode`` keeps an optional ``in`` marker."""

    name: str
    domain: Domain
    mode: Optional[str] = None


class ConstraintContext(Frozen):
    """Owning contract plus the operation signature the constraint annotates."""

    contract: Optional[str] = None
    operation: Optional[str] = None
    params: tuple[ParamDecl, ...] = ()


class NamedConstraint(Frozen):
    name: str
    kind: ConstraintKind
    body: Expr
    context: ConstraintContext = ConstraintContext()

    def __post_init__(self) -> None:
        if self.kind is not ConstraintKind.POST and any(r.old for r in self.refs):
            raise ValueError(
                f"constraint {self.name}: old-state references are only legal in postconditions"
            )

    @cached_property
    def refs(self) -> tuple[VarRef, ...]:
        """The body's distinct variable references, pre-order, left to right."""
        return tuple(dict.fromkeys(variable_refs(self.body)))

    def param_domains(self) -> dict[str, Domain]:
        return {p.name: p.domain for p in self.context.params}

    def undeclared_paths(self, decls: Mapping[str, Domain]) -> list[str]:
        """Dotted paths, sorted, of the referenced variables that ``bind_path``
        does not bind over ``decls`` and the operation parameters."""
        params = self.param_domains()
        return sorted({r.dotted for r in self.refs if bind_path(r.path, decls, params) is None})


# ---------------------------------------------------------------------------
# sort inference

class SortError(ValueError):
    """An expression is ill-sorted; carries the offending subexpression text."""

    def __init__(self, message: str, expr: Expr):
        self.expr_text = to_text(expr)
        super().__init__(f"{message} in `{self.expr_text}`")


class UnknownVariable(ValueError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"unknown variable: {path}")


class SortScope(Frozen):
    """Resolution environment for sort inference.

    ``decls`` maps declared variable names (dotted paths allowed) to domains;
    ``params`` holds operation parameters; ``open_world`` lets undeclared
    variables type as opaque (``parse_expression`` without declarations).
    """

    decls: Mapping[str, Domain]
    params: Mapping[str, Domain] = factory(dict)
    open_world: bool = False

    def sort_of_path(self, path: tuple[str, ...]) -> Sort:
        hit = bind_path(path, self.decls, self.params)
        if hit is not None:
            return hit[2].sort()
        if self.open_world and path[0] not in self.params:  # never a parameter's path
            return OPAQUE
        raise UnknownVariable(".".join(path))


def _require(cond: bool, message: str, e: Expr, *args: object) -> None:
    """Raise a SortError on ``e`` unless ``cond``; ``args`` fill ``message`` only then."""
    if not cond:
        raise SortError(message.format(*args), e)


def infer_sort(e: Expr, scope: SortScope) -> Sort:
    """Sort of an expression, raising SortError / UnknownVariable on bad input."""
    cls = e.__class__
    if cls is BoolLit:
        return BOOL
    if cls is IntLit:
        return INT
    if cls is EnumLit:
        return ENUM
    if cls is SetLit:
        elem: Sort = OPAQUE
        for item in e.items:
            s = infer_sort(item, scope)
            elem = s if elem.tag == "opaque" else elem
            _require(sorts_compatible(elem, s), "mixed element sorts in set literal", e)
        return Sort("set", elem=elem)
    if cls is VarRef:
        return scope.sort_of_path(e.path)
    if cls is Not:
        _require(infer_sort(e.operand, scope).tag in ("bool", "opaque"), "not needs a boolean", e)
        return BOOL
    if cls is Chain and e.ops[0] == "implies":
        # the operands, then each link from the last one back, as the nested
        # definition takes them; an error names the run from the bad link on
        bad = [k for k, x in enumerate(e.operands) if infer_sort(x, scope).tag not in ("bool", "opaque")]
        if bad:
            k = min(bad[-1], len(e.ops) - 1)  # the last link takes both its operands
            raise SortError("implies needs boolean operands", Chain(e.ops[k:], e.operands[k:]))
        return BOOL
    if cls is Chain:
        # each link after both its operands, in the order the recursive
        # definition takes; an error names the run up to the bad operand
        logic = e.ops[0] in ("and", "or")
        want = ("bool", "opaque") if logic else ("int", "opaque")
        left = infer_sort(e.operands[0], scope)
        for k in range(1, len(e.operands)):
            right = infer_sort(e.operands[k], scope)
            if left.tag not in want or right.tag not in want:
                raise SortError(f"{e.ops[k - 1]} needs {'boolean' if logic else 'integer'} operands",
                                Chain(e.ops[:k], e.operands[:k + 1]))
            left = right
        return BOOL if logic else INT
    if cls is BinOp:
        ls, rs = infer_sort(e.left, scope), infer_sort(e.right, scope)
        if e.op in ("=", "<>"):
            if not sorts_compatible(ls, rs):  # the message prints both sorts, so only on failure
                raise SortError(f"cannot compare {ls} with {rs}", e)
            return BOOL
        _require(ls.tag in ("int", "opaque") and rs.tag in ("int", "opaque"),
                 "{} needs integer operands", e, e.op)
        return BOOL
    if cls is Membership:
        item = infer_sort(e.item, scope)
        coll = infer_sort(e.collection, scope)
        _require(coll.tag in ("set", "opaque"), "in set needs a set on the right", e)
        if coll.tag == "set":
            _require(sorts_compatible(item, coll.elem), "member sort does not fit the set", e)
        return BOOL
    if cls is Apply:
        t = infer_sort(e.target, scope)
        k = infer_sort(e.key, scope)
        if t.tag == "map":
            _require(sorts_compatible(k, t.key), "map applied to a key of the wrong sort", e)
            return t.value
        if t.tag == "seq":
            _require(k.tag in ("int", "opaque"), "sequence index must be an integer", e)
            return t.elem
        _require(t.tag == "opaque", "application target is neither map nor sequence", e)
        return OPAQUE
    if cls is FieldAccess:
        t = infer_sort(e.target, scope)
        if t.tag == "record":
            for n, s in t.fields or ():
                if n == e.name:
                    return s
            raise SortError(f"record has no field {e.name!r}", e)
        _require(t.tag == "opaque", "field access on a non-record", e)
        return OPAQUE
    if cls is MethodCall:
        t, name = infer_sort(e.target, scope), e.name
        _require(name in METHODS, "unknown method {!r}", e, name)
        tags, noun, result = METHODS[name]
        _require(not tags or t.tag in tags or t.tag == "opaque", "{} needs a {}", e, name, noun)
        _require(name == "front" or not e.args, "{} takes no arguments", e, name)
        if name == "front":
            _require(len(e.args) == 1, "front takes one argument", e)
            _require(infer_sort(e.args[0], scope).tag in ("int", "opaque"),
                     "front length must be an integer", e)
        return result(t)
    raise TypeError(f"not an expression node: {e!r}")


def decls_mapping(decls) -> dict[str, Domain]:
    """Normalize a decl collection (VariableDecl iterable or mapping) to a dict."""
    if isinstance(decls, Mapping):
        out = {}
        for k, v in decls.items():
            out[k] = v.domain if isinstance(v, VariableDecl) else v
        return out
    return {d.name: d.domain for d in decls}
