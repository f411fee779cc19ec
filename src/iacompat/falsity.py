"""Deciding whether a constraint is equivalent to false.

Four tiers, in order:

1. Folding (``evaluate.fold``), which may turn the guard into a literal.
2. Intervals: every int term gets bounds from the declared ``int[lo..hi]``
   domain it reads, through ``+`` and ``-``. A comparison that no pair of
   values in its bounds makes true is false, and so is a conjunction with
   such an operand, or a disjunction of nothing else. This tier only ever
   proves FALSE, without a valuation, and does not look inside ``not`` or an
   ``implies`` run; it runs before the budget is counted, so a guard too big
   to enumerate may still be refuted.
3. Exhaustive enumeration over the declared finite domains under a valuation
   budget, a positive integer.
4. Unknown: the conservative outcome for opaque or unbounded domains and for
   blown budgets; callers treat it as "possibly satisfiable".

For postconditions the relation ranges over pairs of states: every variable
referenced with an old-state marker is enumerated twice, once for the old
assignment and once for the new one. Evaluation errors count as not-true.

A query is a preparation, then a decision. ``prepare`` runs the first two
tiers: it folds the guard, resolves the names the guard reads and bounds
it. ``decide`` counts the budget over the domains of those names, lists each
domain's values once per ``pools`` dict, compiles the guard once and
enumerates raw value tuples in a fixed order: the names by sorted name,
every old assignment inside each current one. Only a satisfying witness
becomes a ``Valuation``; ``explored`` counts up to and including it.
"""
from __future__ import annotations

import enum
import itertools
import os
from typing import Mapping, Optional

from .domains import Domain, IntRangeDomain, MapDomain, RecordDomain, Value, bind_path
from .evaluate import EvalError, Valuation, compile_expr, fold, slot_access
from .exprs import (
    Apply,
    BinOp,
    BoolLit,
    Chain,
    Expr,
    FieldAccess,
    IntLit,
    NamedConstraint,
    VarRef,
    decls_mapping,
    variable_refs,
)
from .frozen import Frozen

ENUM_BUDGET_ENV = "IACOMPAT_ENUM_BUDGET"
DEFAULT_ENUM_BUDGET = 10**6


def positive_int(text: Optional[str]) -> Optional[int]:
    """``text`` read as a positive integer; None if it is not one."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        return None
    return value if value > 0 else None


def default_budget() -> int:
    return positive_int(os.environ.get(ENUM_BUDGET_ENV)) or DEFAULT_ENUM_BUDGET


class Verdict(enum.Enum):
    FALSE = "false"
    SATISFIABLE = "satisfiable"
    UNKNOWN = "unknown"


class FalsityResult(Frozen):
    verdict: Verdict
    witness: Optional[Valuation] = None  # satisfying valuation when SATISFIABLE
    explored: int = 0


Pools = dict[Domain, list[Value]]  # each domain's values, listed once


# a guard ready to decide: whether a tier refuted it without a valuation, the
# ``and`` parts of its folded body (none for a literal), and the domain of
# each declared name it reads, keyed by (old, name): current names sort first
Prepared = tuple[bool, tuple[Expr, ...], dict[tuple[bool, str], Domain]]


def prepare(expr: Expr, decls: Mapping[str, Domain], params: Mapping[str, Domain]) -> Prepared:
    """``expr`` folded, resolved over the declarations and parameters, bounded."""
    s = fold(expr)
    if isinstance(s, BoolLit):  # tested by class: no literal built per query
        return not s.value, (), {}

    # the variables behind every reference the folded guard still reads, bound
    # as in sort checking; enumerate each bound variable's own domain, not the
    # leaf the path points at: the valuation binds whole variables
    names: dict[tuple[bool, str], Domain] = {}
    leaves: dict[VarRef, Domain] = {}  # the domain of each path's full length
    for ref in variable_refs(s):
        hit = bind_path(ref.path, decls, params)
        if hit is None:
            raise EvalError(f"free variable {'.'.join(ref.path)} does not resolve against the declarations")
        names[ref.old, hit[0]] = hit[1]
        leaves[ref] = hit[2]
    parts = s.operands if isinstance(s, Chain) and s.ops[0] == "and" else (s,)
    return _never_true(s, leaves), parts, names


def decide(p: Prepared, budget: Optional[int] = None, pools: Optional[Pools] = None) -> FalsityResult:
    """The verdict on a prepared guard: count the budget, then enumerate."""
    refuted, parts, names = p
    if refuted:
        return FalsityResult(Verdict.FALSE)
    if not parts:
        return FalsityResult(Verdict.SATISFIABLE, witness=Valuation({}, old=None))
    budget = default_budget() if budget is None else budget
    keys = sorted(names)
    cur_names = [n for old, n in keys if not old]
    old_names = [n for old, n in keys if old]
    domains = [names[k] for k in keys]

    total = 1
    for dom in domains:
        n = dom.count(budget)
        if n is None:
            return FalsityResult(Verdict.UNKNOWN)
        total *= n
        if total > budget:
            return FalsityResult(Verdict.UNKNOWN)

    pools = {} if pools is None else pools
    for dom in domains:
        if dom not in pools:
            pools[dom] = list(dom.values())
    lists = [pools[dom] for dom in domains]
    body = parts[0] if len(parts) == 1 else Chain(("and",) * (len(parts) - 1), parts)
    run = compile_expr(body, slot_access(cur_names, old_names))

    explored = 0
    for explored, env in enumerate(itertools.product(*lists), 1):
        try:
            if run(env) is True:
                witness = Valuation(
                    values=dict(zip(cur_names, env)),
                    old=dict(zip(old_names, env[len(cur_names):])) if old_names else None,
                )
                return FalsityResult(Verdict.SATISFIABLE, witness=witness, explored=explored)
        except EvalError:
            pass  # not-true outcome
    return FalsityResult(Verdict.FALSE, explored=explored)


def falsity(
    expr: Expr,
    decls,
    *,
    params: Optional[Mapping[str, Domain]] = None,
    budget: Optional[int] = None,
    pools: Optional[Pools] = None,
) -> FalsityResult:
    """Verdict for a bare boolean expression over the given declarations.

    ``pools`` keeps each domain's values across the queries that share it;
    without it, each query lists its own.
    """
    return decide(prepare(expr, decls_mapping(decls), params or {}), budget, pools)


def constraint_falsity(
    c: NamedConstraint,
    variables,
    *,
    budget: Optional[int] = None,
    pools: Optional[Pools] = None,
) -> FalsityResult:
    """Falsity of a named constraint; operation parameters enumerate too."""
    return falsity(c.body, variables, params=c.param_domains(), budget=budget, pools=pools)


# ---------------------------------------------------------------------------
# the interval tier

_REFUTED = {  # op -> whether no a in [al, ah], b in [bl, bh] makes `a op b` true
    "=": lambda al, ah, bl, bh: ah < bl or bh < al,
    "<>": lambda al, ah, bl, bh: al == ah == bl == bh,
    "<": lambda al, ah, bl, bh: al >= bh,
    "<=": lambda al, ah, bl, bh: al > bh,
    ">": lambda al, ah, bl, bh: ah <= bl,
    ">=": lambda al, ah, bl, bh: ah < bl,
}


Leaves = Mapping[VarRef, Domain]


def _domain_of(t: Expr, leaves: Leaves) -> Optional[Domain]:
    """The declared domain that every value of a path term lies in."""
    if isinstance(t, VarRef):
        return leaves[t]
    if isinstance(t, FieldAccess):
        d = _domain_of(t.target, leaves)
        return d.field_domain(t.name) if isinstance(d, RecordDomain) else None
    if isinstance(t, Apply):
        d = _domain_of(t.target, leaves)
        return d.value if isinstance(d, MapDomain) else None
    return None


def _bounds(t: Expr, leaves: Leaves) -> Optional[tuple[int, int]]:
    """Bounds on every int value ``t`` can take, or None if it has none."""
    if isinstance(t, IntLit):
        return t.value, t.value
    if isinstance(t, Chain) and t.ops[0] in ("+", "-"):
        lo = hi = 0
        for op, x in zip(("+",) + t.ops, t.operands):
            b = _bounds(x, leaves)
            if b is None:
                return None
            lo, hi = (lo + b[0], hi + b[1]) if op == "+" else (lo - b[1], hi - b[0])
        return lo, hi
    d = _domain_of(t, leaves)
    return (d.lower, d.upper) if isinstance(d, IntRangeDomain) else None


def _never_true(e: Expr, leaves: Leaves) -> bool:
    """Whether bounds alone show that no valuation makes ``e`` true.

    An error counts as not-true, so a term that fails to evaluate (a map
    applied outside its domain) cannot break a refutation.
    """
    if isinstance(e, Chain) and e.ops[0] in ("and", "or"):
        settle = any if e.ops[0] == "and" else all
        return settle(_never_true(part, leaves) for part in e.operands)
    if isinstance(e, BinOp) and e.op in _REFUTED:
        a, b = _bounds(e.left, leaves), _bounds(e.right, leaves)
        return a is not None and b is not None and _REFUTED[e.op](*a, *b)
    return False
