"""Deciding whether a constraint is equivalent to false.

Three tiers: syntactic simplification, then exhaustive enumeration over the
declared finite domains under a valuation budget, then Unknown. Unknown is
the conservative outcome for opaque or unbounded domains and for blown
budgets; callers treat it as "possibly satisfiable".

For postconditions the relation ranges over pairs of states: every variable
referenced with an old-state marker is enumerated twice, once for the old
assignment and once for the new one. Evaluation errors count as not-true.

Each query compiles its simplified guard once and calls it on the raw value
tuples of the enumeration, in a fixed order: the referenced variables by
sorted name, every old assignment inside each current one. Only a satisfying
witness becomes a ``Valuation``; ``explored`` counts up to and including it.
"""
from __future__ import annotations

import enum
import itertools
import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .domains import Domain, resolve_path
from .evaluate import EvalError, Valuation, compile_expr, simplify, slot_access
from .exprs import (
    BoolLit,
    Expr,
    NamedConstraint,
    decls_mapping,
    variable_refs,
)

ENUM_BUDGET_ENV = "IACOMPAT_ENUM_BUDGET"
DEFAULT_ENUM_BUDGET = 10**6


def default_budget() -> int:
    raw = os.environ.get(ENUM_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ENUM_BUDGET
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_ENUM_BUDGET
    return value if value > 0 else DEFAULT_ENUM_BUDGET


class Verdict(enum.Enum):
    FALSE = "false"
    SATISFIABLE = "satisfiable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FalsityResult:
    verdict: Verdict
    witness: Optional[Valuation] = None  # satisfying valuation when SATISFIABLE
    explored: int = 0


def falsity(
    expr: Expr,
    decls,
    *,
    params: Optional[Mapping[str, Domain]] = None,
    budget: Optional[int] = None,
) -> FalsityResult:
    """Verdict for a bare boolean expression over the given declarations."""
    budget = default_budget() if budget is None else budget
    params = params or {}
    table = {**decls_mapping(decls), **params}

    s = simplify(expr)
    if s == BoolLit(False):
        return FalsityResult(Verdict.FALSE)
    if s == BoolLit(True):
        return FalsityResult(Verdict.SATISFIABLE, witness=Valuation({}, old=None))

    # the declared variables behind every free reference, parameters first as
    # in sort checking; enumerate each declared variable's own domain, not
    # the leaf the path points at: the valuation binds whole variables
    cur_names: set[str] = set()
    old_names: set[str] = set()
    for ref in variable_refs(s):
        hit = resolve_path(params if ref.path[0] in params else table, ref.path)
        if hit is None:
            raise EvalError(f"free variable {'.'.join(ref.path)} does not resolve against the declarations")
        (old_names if ref.old else cur_names).add(hit[0])
    cur_names, old_names = sorted(cur_names), sorted(old_names)
    names = cur_names + old_names

    total = 1
    for name in names:
        n = table[name].count()
        if n is None:
            return FalsityResult(Verdict.UNKNOWN)
        total *= n
        if total > budget:
            return FalsityResult(Verdict.UNKNOWN)

    pools = [list(table[name].values()) for name in names]
    run = compile_expr(s, slot_access(cur_names, old_names))

    explored = 0
    for explored, env in enumerate(itertools.product(*pools), 1):
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


def constraint_falsity(
    c: NamedConstraint,
    variables,
    *,
    budget: Optional[int] = None,
) -> FalsityResult:
    """Falsity of a named constraint; operation parameters enumerate too."""
    return falsity(c.body, variables, params=c.param_domains(), budget=budget)
