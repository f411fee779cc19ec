"""Evaluation and folding of constraint expressions.

Logic is two-valued with explicit evaluation errors. The boolean connectives
are symmetric ("parallel"): a conjunction is false as soon as either operand
is false, even if the other one errors, and dually for disjunction and for
implication. This makes evaluation order-insensitive, which ``fold`` relies
on when it flattens a run and applies annihilators.

Evaluation is compile-once: ``compile_expr`` turns an expression into nested
closures, with every variable reference resolved to an accessor, so the
falsity enumeration walks each guard's tree once, not once per valuation. A
``Chain`` compiles to one closure that loops over its operands, so evaluation
depth does not grow with its length. ``evaluate`` compiles through ``slot_access``
over a ``Valuation``'s values, which is how the falsity enumeration binds too.
"""
from __future__ import annotations

import operator
import sys
from itertools import repeat
from typing import Any, Callable, Mapping, Optional, Sequence

from .domains import Value
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
    SetLit,
    VarRef,
    children,
    to_text,
)
from .frozen import Frozen, factory
from .lexer import MAX_INT_DIGITS


class EvalError(Exception):
    """A constraint could not be evaluated under the given valuation."""


class UndefinedApplication(EvalError):
    """Map applied outside its domain, or a sequence indexed out of range."""


class MissingVariable(EvalError):
    """The valuation does not cover a referenced variable."""


class MixedSorts(EvalError):
    """A set literal holds a boolean and an integer that Python finds equal."""


class Valuation(Frozen):
    """Variable assignment; ``old`` carries the pre-state for postconditions.

    Keys are dotted variable paths. A key may bind a declared variable or a
    sub-path of a record-valued one (``myCS.s``); a reference binds to its
    longest bound prefix and navigates the remaining segments through record
    values (see ``slot_access``). Record and map values are ``FrozenMap``s,
    the hashable dicts that domains enumerate, so that sets may hold them.
    """

    values: Mapping[str, Value] = factory(dict)
    old: Optional[Mapping[str, Value]] = None


def _navigate(v: Value, key: str, segs: tuple[str, ...]) -> Value:
    for seg in segs:
        try:
            v = v[seg]  # no other kind of value takes a string subscript
        except (KeyError, TypeError):
            raise EvalError(f"value of {key!r} has no field {seg!r}") from None
    return v


def _values_equal(a: Value, b: Value) -> bool:
    # bool is an int in Python, also inside containers; keep the sorts apart.
    # Values Python finds unequal are unequal, so only equal containers need
    # the deep look
    if a != b or isinstance(a, bool) != isinstance(b, bool):
        return False
    return not isinstance(a, (tuple, frozenset, dict)) or _same_sorts(a, b)


def _same_sorts(a: Value, b: Value) -> bool:
    """Whether two values that Python finds equal agree on bool against int at
    every depth: each part of ``a`` is matched with the part of ``b`` it equals."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, tuple):
        return all(map(_same_sorts, a, b))
    if isinstance(a, frozenset):
        twin = {x: x for x in b}
        return all(_same_sorts(x, twin[x]) for x in a)
    if isinstance(a, dict):
        twin = {k: k for k in b}
        return all(_same_sorts(k, twin[k]) and _same_sorts(v, b[k]) for k, v in a.items())
    return True


def _shown(v: Value) -> str:
    """``repr(v)``, or a description when ``v`` holds an int too long to print."""
    try:
        return repr(v)
    except ValueError:  # past sys.get_int_max_str_digits(): a computed sum
        what = "an integer" if isinstance(v, int) else "a value holding an integer"
        return f"{what} of more than {sys.get_int_max_str_digits()} digits"


def _not_bool(e: Expr, v: Value) -> EvalError:
    return EvalError(f"expected a boolean from `{to_text(e)}`, got {_shown(v)}")


def _as_bool(e: Expr, v: Value) -> bool:
    if isinstance(v, bool):
        return v
    raise _not_bool(e, v)


def _as_int(e: Expr, v: Value) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise EvalError(f"expected an integer from `{to_text(e)}`, got {_shown(v)}")


# ---------------------------------------------------------------------------
# compilation

Compiled = Callable[[Any], Value]  # environment -> value, as its accessors read it
Access = Callable[[VarRef], Compiled]


def evaluate(e: Expr, val: Valuation) -> Value:
    """Value of an expression under a valuation; raises EvalError subclasses."""
    old = None if val.old is None else list(val.old)
    access = slot_access(list(val.values), old)
    return compile_expr(e, access)((*val.values.values(), *(val.old or {}).values()))


def slot_access(cur_names: Sequence[str], old_names: Optional[Sequence[str]] = None) -> Access:
    """Accessors for a flat tuple environment: the values of ``cur_names``, then
    the old-state values of ``old_names``, where None means no old state.

    A reference binds to its longest bound prefix and navigates the remaining
    segments through record values; an unbound one raises when it is read.
    """
    slots = ({n: i for i, n in enumerate(cur_names)},
             None if old_names is None else {n: i for i, n in enumerate(old_names, len(cur_names))})

    def access(ref: VarRef) -> Compiled:
        table = slots[ref.old]
        if table is None:
            def no_old_state(env):
                raise EvalError("old-state reference evaluated without an old-state map")
            return no_old_state
        for cut in range(len(ref.path), 0, -1):
            key, segs = ".".join(ref.path[:cut]), ref.path[cut:]
            if key in table:
                i = table[key]
                return (lambda env: _navigate(env[i], key, segs)) if segs else operator.itemgetter(i)
        message = f"unbound variable: {ref.dotted}{'@pre' if ref.old else ''}"
        def unbound(env):
            raise MissingVariable(message)
        return unbound

    return access


_INT_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_INT_BOUND = 10 ** MAX_INT_DIGITS  # every literal, folded too, lies strictly within it


def compile_expr(e: Expr, access: Access) -> Compiled:
    """Compile an expression once into nested closures over an environment.

    ``access`` turns each variable reference into the closure that reads it.
    A compiled expression gives the value, or raises the EvalError, that
    evaluating the tree under the same bindings gives.
    """
    if isinstance(e, (BoolLit, IntLit, EnumLit)):
        v = e.name if isinstance(e, EnumLit) else e.value
        return lambda env: v
    if isinstance(e, VarRef):
        return access(e)
    if isinstance(e, Chain):
        if e.ops[0] == "implies":
            # `a implies b implies z` is `not a or not b or z`, errors and all
            e = Chain(("or",) * len(e.ops), (*map(Not, e.operands[:-1]), e.operands[-1]))
        return _compile_logic(e, access) if e.ops[0] in ("and", "or") else _compile_sum(e, access)
    # through map, not a comprehension, which would add a frame per node
    sub = list(map(compile_expr, children(e), repeat(access)))
    if isinstance(e, SetLit):
        def set_lit(env):
            items = [f(env) for f in sub]
            out = frozenset(items)  # of the members Python finds equal, the first stays
            kept = {x: x for x in out} if len(out) < len(items) else {}
            if kept and not all(_same_sorts(x, kept[x]) for x in items):
                raise MixedSorts(f"mixed element sorts in set literal in `{to_text(e)}`")
            return out
        return set_lit
    if isinstance(e, Not):
        operand, f = e.operand, sub[0]  # read once: a field read costs more than a local
        return lambda env: not _as_bool(operand, f(env))
    if isinstance(e, BinOp):
        left, right = sub
        if e.op == "=":
            return lambda env: _values_equal(left(env), right(env))
        if e.op == "<>":
            return lambda env: not _values_equal(left(env), right(env))
        op = _INT_OPS[e.op]
        def int_op(env):
            a = left(env)
            if a.__class__ is not int:  # an int passes without a call
                a = _as_int(e.left, a)
            b = right(env)
            if b.__class__ is not int:
                b = _as_int(e.right, b)
            return op(a, b)
        return int_op
    if isinstance(e, Membership):
        def membership(env):
            coll = sub[1](env)
            if not isinstance(coll, frozenset):
                raise EvalError(f"`{to_text(e.collection)}` is not a set")
            item = sub[0](env)
            return any(_values_equal(item, x) for x in coll)
        return membership
    if isinstance(e, Apply):
        def apply(env):
            target, key = sub[0](env), sub[1](env)
            if isinstance(target, dict):
                for k, x in target.items():
                    if _values_equal(k, key):
                        return x
                raise UndefinedApplication(f"key {_shown(key)} outside the domain of `{to_text(e.target)}`")
            if isinstance(target, tuple):
                i = _as_int(e.key, key)
                if 1 <= i <= len(target):
                    return target[i - 1]
                raise UndefinedApplication(f"index {_shown(i)} outside the sequence `{to_text(e.target)}`")
            raise EvalError(f"`{to_text(e.target)}` is neither a map nor a sequence")
        return apply
    if isinstance(e, FieldAccess):
        name = e.name
        def field_access(env):
            target = sub[0](env)
            if isinstance(target, dict) and name in target:
                return target[name]
            raise EvalError(f"`{to_text(e.target)}` has no field {name!r}")
        return field_access
    if isinstance(e, MethodCall):
        name = e.name
        return lambda env: _method(e, name, sub, env)
    raise TypeError(f"not an expression node: {e!r}")


def _compile_logic(e: Chain, access: Access) -> Compiled:
    # one closure over the whole run keeps evaluation depth flat
    parts = list(zip(map(compile_expr, e.operands, repeat(access)), e.operands))
    decisive = e.ops[0] == "or"  # the operand value that decides the run

    def run(env):
        # a decisive operand wins over any error; otherwise the leftmost
        # failing operand's error is raised, as the binary definition does
        failed = None
        for f, node in parts:
            try:
                v = f(env)
            except EvalError as exc:
                v = exc
            if v is decisive:
                return v
            if failed is None and v is not (not decisive):
                failed = v if isinstance(v, EvalError) else _not_bool(node, v)
        if failed is not None:
            raise failed
        return not decisive

    return run


def _compile_sum(e: Chain, access: Access) -> Compiled:
    # 0 + a - b ..., each operand read and checked before the next one
    parts = list(zip([operator.add if op == "+" else operator.sub for op in ("+",) + e.ops],
                     map(compile_expr, e.operands, repeat(access)), e.operands))

    def run(env):
        acc = 0
        for op, f, node in parts:
            v = f(env)
            if v.__class__ is not int:  # an int passes without a call
                v = _as_int(node, v)
            acc = op(acc, v)
        return acc

    return run


# the Python values each noun of ``METHODS`` names, and the operations valued by their target alone
_NOUN_TYPES = {"collection": (tuple, frozenset, dict), "sequence": tuple, "map": dict}
_VALUES = {"size": len, "lastItem": operator.itemgetter(-1), "domain": frozenset,
           "range": lambda m: frozenset(m.values())}


def _method(e: MethodCall, name: str, sub: list[Compiled], env: Any) -> Value:
    if name == "notEmpty":
        # Arrow operations wrap scalars as singletons; an undefined
        # application yields the empty collection, hence false.
        try:
            v = sub[0](env)
        except UndefinedApplication:
            return False
        return not isinstance(v, _NOUN_TYPES["collection"]) or len(v) > 0
    v = sub[0](env)
    if name not in METHODS:
        raise EvalError(f"unknown method {name!r}")
    noun = METHODS[name][1]
    if not isinstance(v, _NOUN_TYPES[noun]):
        raise EvalError(f"{name} of a non-{noun} `{to_text(e.target)}`")
    if name == "lastItem" and not v:
        raise UndefinedApplication(f"lastItem of the empty sequence `{to_text(e.target)}`")
    if name != "front":
        return _VALUES[name](v)
    k = _as_int(e.args[0], sub[1](env))
    if k < 0:
        raise EvalError("front with a negative length")
    return v[:k]


# ---------------------------------------------------------------------------
# folding

def fold(e: Expr) -> Expr:
    """Semantics-preserving rewrite, as the falsity tiers fold a guard.

    Constant folding, conjunction/disjunction identities and annihilators,
    double negation removal, implication unfolding against literals from the
    last link back, and flattening of each ``and``/``or`` run into one
    ``Chain`` of its operands, in their order. Idempotent. ``x = x`` is not
    folded to true: that is not error-preserving for expressions that can
    fail.
    """
    if isinstance(e, Not):
        s = fold(e.operand)
        if isinstance(s, BoolLit):
            return BoolLit(not s.value)
        if isinstance(s, Not):
            return s.operand
        return Not(s)
    if isinstance(e, Chain):
        if e.ops[0] == "implies":
            return _fold_implies(e)
        return _fold_logic(e) if e.ops[0] in ("and", "or") else _fold_sum(e)
    if isinstance(e, BinOp):
        return _fold_binop(e)
    if isinstance(e, SetLit):
        return SetLit(tuple(fold(x) for x in e.items))
    if isinstance(e, Membership):
        return Membership(fold(e.item), fold(e.collection))
    if isinstance(e, Apply):
        return Apply(fold(e.target), fold(e.key))
    if isinstance(e, FieldAccess):
        return FieldAccess(fold(e.target), e.name)
    if isinstance(e, MethodCall):
        return MethodCall(fold(e.target), e.name, tuple(fold(a) for a in e.args))
    return e


def _fold_logic(e: Chain) -> Expr:
    # a run is true (false) when all its operands are, whatever their
    # grouping and order, so it flattens
    op, unit = e.ops[0], e.ops[0] == "and"
    parts: list[Expr] = []
    for part in e.operands:
        s = fold(part)
        if isinstance(s, BoolLit):
            if s.value is not unit:
                return s  # the annihilator
            continue  # the identity
        # a folded operand may be a run of the same operator itself
        parts += s.operands if isinstance(s, Chain) and s.ops[0] == op else (s,)
    if len(parts) < 2:
        return parts[0] if parts else BoolLit(unit)
    return Chain((op,) * (len(parts) - 1), tuple(parts))


def _fold_sum(e: Chain) -> Expr:
    # literals fold from the left, as the binary definition does, until the
    # first operand that is not one, or a value too long to be a literal
    ops, parts = list(e.ops), [fold(x) for x in e.operands]
    while ops and isinstance(parts[0], IntLit) and isinstance(parts[1], IntLit):
        v = parts[0].value + (parts[1].value if ops[0] == "+" else -parts[1].value)
        if abs(v) >= _INT_BOUND:
            break
        ops.pop(0)
        parts[:2] = [IntLit(v)]
    return Chain(tuple(ops), tuple(parts)) if ops else parts[0]


def _fold_implies(e: Chain) -> Expr:
    # fold from the last link back; `kept` holds the antecedents before `r`, last first
    kept, r = [], fold(e.operands[-1])
    for l in (fold(x) for x in reversed(e.operands[:-1])):
        if l == BoolLit(False) or (not kept and r == BoolLit(True)):
            kept, r = [], BoolLit(True)
        elif l == BoolLit(True):
            continue  # `true implies r` is r
        elif not kept and r == BoolLit(False):
            r = l.operand if isinstance(l, Not) else Not(l)
        else:
            kept.append(l)
    return Chain(("implies",) * len(kept), (*reversed(kept), r)) if kept else r


def _fold_binop(e: BinOp) -> Expr:
    l, r, op = fold(e.left), fold(e.right), e.op
    if op in ("=", "<>"):
        if type(l) is type(r) and isinstance(l, (BoolLit, IntLit, EnumLit)):
            return BoolLit((l == r) == (op == "="))
    elif isinstance(l, IntLit) and isinstance(r, IntLit):
        return BoolLit(_INT_OPS[op](l.value, r.value))
    return BinOp(op, l, r)
