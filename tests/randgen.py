"""Seeded generators for random automata, constraints, and valuations.

Pairs from rand_composable_pair are composable by construction: private
action names are namespaced per side and every shared action is an input on
exactly one side and an output on the other. Sizes follow the sampling
bounds used by the acceptance run (at most 4 states, 3 actions, and 2
variables with domains of at most 3 values per side); ``max_states`` raises
the state bound for properties that need deeper products.
"""

from __future__ import annotations

import random

from iacompat import (
    ActionLabel,
    Apply,
    BinOp,
    BoolDomain,
    BoolLit,
    Chain,
    ConstraintContext,
    ConstraintKind,
    EnumDomain,
    EnumLit,
    FieldAccess,
    IntLit,
    IntRangeDomain,
    InterfaceAutomaton,
    MapDomain,
    Membership,
    MethodCall,
    NamedConstraint,
    Not,
    ParamDecl,
    RecordDomain,
    SeqDomain,
    SetLit,
    Transition,
    Valuation,
    VariableDecl,
    VarRef,
    variable_refs,
)


def rand_domain(rng: random.Random):
    pick = rng.randrange(3)
    if pick == 0:
        return BoolDomain()
    if pick == 1:
        return IntRangeDomain(0, rng.randint(1, 2))
    lits = ("ea", "eb", "ec")[: rng.randint(2, 3)]
    return EnumDomain(lits)


def _atom(rng: random.Random, decls):
    if not decls or rng.random() < 0.15:
        return BoolLit(rng.random() < 0.5)
    d = rng.choice(decls)
    ref = VarRef(tuple(d.name.split(".")))
    dom = d.domain
    if isinstance(dom, BoolDomain):
        if rng.random() < 0.5:
            return ref
        return BinOp("=", ref, BoolLit(rng.random() < 0.5))
    if isinstance(dom, IntRangeDomain):
        op = rng.choice(("=", "<", "<=", ">", ">=", "<>"))
        # literals may fall just outside the range so that unsatisfiable
        # guards actually occur in the sample
        lit = IntLit(rng.randint(dom.lower - 1, dom.upper + 1))
        return BinOp(op, ref, lit)
    lits = dom.literals + ("ez",)  # ez is never a member: forces falseness
    return BinOp("=", ref, EnumLit(rng.choice(lits)))


def join(op, left, right):
    """``left op right``; a run operator (``implies``, ``and``, ``or``, ``+``,
    ``-``) makes a ``Chain``, which splices a left operand of its own level, or
    for ``implies`` a right one."""
    if op in ("implies", "and", "or", "+", "-"):
        return Chain((op,), (left, right))
    return BinOp(op, left, right)


def rand_expr(rng: random.Random, decls, depth: int = 2):
    if depth <= 0 or rng.random() < 0.4:
        return _atom(rng, decls)
    pick = rng.randrange(4)
    if pick == 0:
        return Not(rand_expr(rng, decls, depth - 1))
    op = ("and", "or", "implies")[pick - 1]
    return join(op, rand_expr(rng, decls, depth - 1), rand_expr(rng, decls, depth - 1))


# rand_term ranges over one variable of each kind of domain that evaluation
# navigates: records, maps and sequences besides the scalars, and a map with
# record keys and record values
_TERM_ENUM = EnumDomain(("ea", "eb"))
TERM_DECLS = (
    VariableDecl("b", BoolDomain()),
    VariableDecl("n", IntRangeDomain(0, 2)),
    VariableDecl("e", _TERM_ENUM),
    VariableDecl("r", RecordDomain((
        ("c", _TERM_ENUM), ("s", IntRangeDomain(0, 2)), ("t", RecordDomain((("b", BoolDomain()),))),
    ))),
    VariableDecl("m", MapDomain(_TERM_ENUM, IntRangeDomain(0, 1))),
    VariableDecl("k", MapDomain(RecordDomain((("b", BoolDomain()),)), RecordDomain((("c", _TERM_ENUM),)))),
    VariableDecl("q", SeqDomain(BoolDomain(), 2)),
)
# scalar paths, missing fields and an undeclared variable; then the rest
_TERM_PATHS = (
    ("b",), ("n",), ("e",), ("r", "c"), ("r", "s"), ("r", "t", "b"), ("r", "x"), ("r", "t", "x"), ("u",),
    ("r",), ("r", "t"), ("m",), ("k",), ("q",),
)
_TERM_OPS = ("and", "or", "implies", "=", "<>", "<", "<=", ">", ">=", "+", "-")
_TERM_METHODS = ("size", "lastItem", "domain", "range", "notEmpty", "front")


def _term_leaf(rng: random.Random, paths):
    pick = rng.randrange(5)
    if pick == 0:
        return BoolLit(rng.random() < 0.5)
    if pick == 1:
        return IntLit(rng.randint(-1, 3))
    if pick == 2:
        return EnumLit(rng.choice(("ea", "eb", "ez")))
    return VarRef(rng.choice(paths), old=rng.random() < 0.3)


def rand_term(rng: random.Random, depth: int = 3):
    """Random expression over TERM_DECLS of any sort, well-sorted or not.

    Every node kind occurs, with old-state references, missing variables and
    missing fields, so evaluators can be compared on values and on errors.
    """
    if depth <= 0 or rng.random() < 0.25:
        return _term_leaf(rng, _TERM_PATHS)
    sub = lambda: rand_term(rng, depth - 1)  # noqa: E731
    pick = rng.randrange(7)
    if pick == 0:
        return Not(sub())
    if pick == 1:
        return join(rng.choice(_TERM_OPS), sub(), sub())
    if pick == 2:
        return SetLit(tuple(sub() for _ in range(rng.randint(0, 2))))
    if pick == 3:
        return Membership(sub(), sub())
    if pick == 4:
        return Apply(sub(), sub())
    if pick == 5:
        return FieldAccess(sub(), rng.choice(("c", "s", "x")))
    name = rng.choice(_TERM_METHODS)
    return MethodCall(sub(), name, (sub(),) if name == "front" else ())


# rand_int_guard compares int terms whose bounds come from every kind of
# declared leaf: a variable, a record field (as a path and as a field
# access), a map's value domain (its keys are ints of another range), an
# old-state copy and an operation parameter. The parameter ``x`` shadows
# the variable of that name when it is passed
INT_DECLS = (
    VariableDecl("x", IntRangeDomain(0, 3)),
    VariableDecl("r", RecordDomain((("s", IntRangeDomain(-1, 1)),))),
    VariableDecl("m", MapDomain(IntRangeDomain(0, 1), IntRangeDomain(2, 3))),
)
INT_PARAMS = {"p": IntRangeDomain(-2, 0), "x": IntRangeDomain(2, 4)}
_INT_CMP = ("=", "<>", "<", "<=", ">", ">=")


def _int_term(rng: random.Random, depth: int, leaves: str):
    if depth <= 0 or rng.random() < 0.5:
        pick = rng.choice(leaves)
        old = rng.random() < 0.3
        if pick == "k":
            return IntLit(rng.randint(-3, 6))
        if pick == "x":
            return VarRef(("x",), old=old)
        if pick == "p":
            return VarRef(("p",))
        if pick == "r":
            if rng.random() < 0.5:
                return VarRef(("r", "s"), old=old)
            return FieldAccess(VarRef(("r",), old=old), "s")
        # keys outside [0..1] make the application fail, which is not-true
        key = VarRef(("x",)) if rng.random() < 0.3 else IntLit(rng.randint(-1, 2))
        return Apply(VarRef(("m",)), key)
    return join(rng.choice("+-"), _int_term(rng, depth - 1, leaves), _int_term(rng, depth - 1, leaves))


def rand_int_atom(rng: random.Random, depth: int = 1, leaves: str = "kxprm"):
    """A comparison of two int terms over INT_DECLS and INT_PARAMS."""
    return BinOp(rng.choice(_INT_CMP), _int_term(rng, depth, leaves), _int_term(rng, depth, leaves))


def rand_int_guard(rng: random.Random, depth: int = 3):
    """Comparisons of int terms under and, or, not and implies."""
    if depth <= 0 or rng.random() < 0.3:
        return rand_int_atom(rng)
    pick = rng.randrange(6)
    if pick == 0:
        return Not(rand_int_guard(rng, depth - 1))
    op = ("and", "and", "or", "or", "implies")[pick - 1]
    return join(op, rand_int_guard(rng, depth - 1), rand_int_guard(rng, depth - 1))


def rand_int_constraint(rng: random.Random, name: str, kind: ConstraintKind, contract: str,
                        operation: str = "go") -> NamedConstraint:
    """A pre or post drawn by rand_int_guard, a pre with no old-state read. Its
    operation has the parameter ``p`` and, one time in four, ``x``, which
    shadows the variable ``x``."""
    body = rand_int_guard(rng)
    while kind is ConstraintKind.PRE and any(r.old for r in variable_refs(body)):
        body = rand_int_guard(rng)
    names = ("p", "x") if rng.random() < 0.25 else ("p",)
    params = tuple(ParamDecl(n, INT_PARAMS[n]) for n in names)
    return NamedConstraint(name, kind, body, ConstraintContext(contract, operation, params))


def rand_int_chain(rng: random.Random, links: int):
    """An ``and`` or ``or`` run of ``links`` links that cycles through one to
    three atoms over ``x``, ``x~`` and ``p``."""
    atoms = [rand_int_atom(rng, 0, "kxp") for _ in range(rng.randint(1, 3))]
    op = rng.choice(("and", "or"))
    return Chain((op,) * links, tuple(atoms[i % len(atoms)] for i in range(links + 1)))


def _with_old(expr, rng: random.Random):
    # flip one reference to an old-state read, used for postconditions
    if isinstance(expr, VarRef) and not expr.old and rng.random() < 0.5:
        return VarRef(expr.path, old=True)
    if isinstance(expr, Not):
        return Not(_with_old(expr.operand, rng))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _with_old(expr.left, rng), _with_old(expr.right, rng))
    if isinstance(expr, Chain):
        return Chain(expr.ops, tuple(_with_old(x, rng) for x in expr.operands))
    return expr


def rand_constraints(rng: random.Random, owner: str, decls):
    pres, posts = {}, {}
    for i in range(rng.randint(0, 3)):
        kind = ConstraintKind.PRE if rng.random() < 0.5 else ConstraintKind.POST
        body = rand_expr(rng, decls)
        if kind is ConstraintKind.POST and rng.random() < 0.4:
            body = _with_old(body, rng)
        name = f"{owner}C{i}"
        c = NamedConstraint(
            name=name,
            kind=kind,
            body=body,
            context=ConstraintContext(contract=owner, operation=f"op{i}"),
        )
        (pres if kind is ConstraintKind.PRE else posts)[name] = c
    return pres, posts


def rand_automaton(rng: random.Random, name: str, inputs, outputs, hidden, max_states: int = 4):
    n_states = rng.randint(1, max_states)
    states = tuple(f"{name}s{i}" for i in range(n_states))
    n_init = 1 if rng.random() < 0.8 else min(2, n_states)
    initials = tuple(states[:n_init])
    decls = tuple(
        VariableDecl(f"{name}v{i}", rand_domain(rng)) for i in range(rng.randint(0, 2))
    )
    pres, posts = rand_constraints(rng, name, decls)
    pre_names = sorted(pres)
    post_names = sorted(posts)
    labels = tuple(inputs) + tuple(outputs) + tuple(hidden)
    trans = []
    for s in states:
        for lab in labels:
            if rng.random() < 0.6:
                trans.append(
                    Transition(
                        source=s,
                        pre=rng.choice(pre_names) if pre_names and rng.random() < 0.4 else None,
                        action=lab,
                        post=rng.choice(post_names) if post_names and rng.random() < 0.4 else None,
                        target=rng.choice(states),
                    )
                )
    return InterfaceAutomaton(
        name=name,
        states=states,
        initials=initials,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        hidden=tuple(hidden),
        transitions=tuple(trans),
        variables={d.name: d for d in decls},
        preconditions=pres,
        postconditions=posts,
    )


def rand_composable_pair(rng: random.Random, max_states: int = 4):
    n_shared = rng.randint(0, 2)
    shared = [ActionLabel(f"sh{i}") for i in range(n_shared)]
    sides = {"L": {"in": [], "out": [], "hid": []}, "R": {"in": [], "out": [], "hid": []}}
    for lab in shared:
        if rng.random() < 0.5:
            sides["L"]["out"].append(lab)
            sides["R"]["in"].append(lab)
        else:
            sides["L"]["in"].append(lab)
            sides["R"]["out"].append(lab)
    for key in ("L", "R"):
        for i in range(rng.randint(0, 3 - n_shared)):
            cls = rng.choice(("in", "out", "hid"))
            sides[key][cls].append(ActionLabel(f"{key}p{i}"))
    a1 = rand_automaton(rng, "L", sides["L"]["in"], sides["L"]["out"], sides["L"]["hid"], max_states)
    a2 = rand_automaton(rng, "R", sides["R"]["in"], sides["R"]["out"], sides["R"]["hid"], max_states)
    return a1, a2


def rand_valuation(rng: random.Random, decls, *, old: bool = False, drop: float = 0.0):
    """Random total (or, with drop > 0, partial) assignment over decls."""

    def draw(dom):
        vals = tuple(dom.values())
        return rng.choice(vals)

    values = {d.name: draw(d.domain) for d in decls if rng.random() >= drop}
    old_map = {d.name: draw(d.domain) for d in decls} if old else None
    return Valuation(values=values, old=old_map)


def cycle_pair(n: int, m: int):
    """Two hidden cycles plus one never-received output, for closure scaling.

    The product has n*m states and 2*n*m transitions, every state reaches an
    illegal pair through hidden steps, so the closure walks the whole graph.
    """
    step_a = ActionLabel("stepA")
    step_b = ActionLabel("stepB")
    ping = ActionLabel("ping")
    a_states = tuple(f"a{i}" for i in range(n))
    b_states = tuple(f"b{j}" for j in range(m))
    a = InterfaceAutomaton(
        name="CycA",
        states=a_states,
        initials=(a_states[0],),
        inputs=(),
        outputs=(ping,),
        hidden=(step_a,),
        transitions=tuple(
            Transition(a_states[i], None, step_a, None, a_states[(i + 1) % n])
            for i in range(n)
        )
        + (Transition(a_states[0], None, ping, None, a_states[0]),),
    )
    b = InterfaceAutomaton(
        name="CycB",
        states=b_states,
        initials=(b_states[0],),
        inputs=(ping,),  # declared but never enabled: (a0, *) is illegal
        outputs=(),
        hidden=(step_b,),
        transitions=tuple(
            Transition(b_states[j], None, step_b, None, b_states[(j + 1) % m])
            for j in range(m)
        ),
    )
    return a, b
