"""Seeded workloads for the ``iacompat check`` benchmark, with reference answers.

Every workload is a batch of contract pairs given as ``.ia`` text. The pairs
are built as automata, emitted with ``document_from_automaton`` and
``print_document``, and parsed back once here to prove the round trip, so the
timed path starts from text exactly as the CLI does.

Reference answers are computed here, before anything is timed, and never with
the engine's own pipeline: the generated pairs go through the brute-force
oracle in ``tests/oracles.py`` (full-grid product, per-state illegality,
fixpoint closure), and witness lengths come from this module's own BFS over
that grid. The case study is checked against its frozen published numbers.

Sizes depend only on the workload and the size mode; the seed chooses the
structure (targets, guard constants, guard families) inside those sizes, so
two seeds give different inputs of the same shape.
"""
from __future__ import annotations

import functools
import importlib.util
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import iacompat as ia
from iacompat import (
    ActionLabel,
    ConstraintContext,
    ConstraintKind,
    EnumDomain,
    InterfaceAutomaton,
    IntRangeDomain,
    MapDomain,
    NamedConstraint,
    RecordDomain,
    Transition,
    VariableDecl,
)

# The enumeration budget every check runs with: the library default at the
# commit that defined this benchmark, pinned so a changed default shows up
# as a changed workload rather than a silent speed-up.
ENUM_BUDGET = 10**6


@dataclass(frozen=True)
class Case:
    """One contract pair as text plus the answers its check must give.

    ``expect`` holds ``verdict``; ``product_states`` and ``product_transitions``
    (counts); ``illegal`` and ``bad`` (sorted ``[left, right]`` state pairs, or
    a count); and ``witness`` (None, a step count, or the exact state ids).
    """

    name: str
    left: str
    right: str
    expect: dict


@functools.cache
def _oracles():
    """``tests/oracles.py`` of the checkout, loaded by path."""
    path = Path(ia.__file__).resolve().parents[2] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("iacompat_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def to_text(a: InterfaceAutomaton) -> str:
    """Emit one automaton as a document and prove it parses back unchanged."""
    text = ia.print_document(ia.document_from_automaton(a))
    back = ia.parse_document(text).automaton()
    if back != a:
        raise ValueError(f"print/parse round trip changed contract {a.name}")
    return text


# ---------------------------------------------------------------------------
# reference answers


def reference(
    left: InterfaceAutomaton,
    right: InterfaceAutomaton,
    undecided: frozenset[str] = frozenset(),
) -> dict:
    """Oracle verdict, illegal and bad pairs over the reachable grid, and witness length.

    ``undecided`` names guards whose joint domain exceeds the enumeration
    budget. The oracle leaves them out, and the illegal set is computed with
    each of them read as false and as satisfiable: the two must agree, which
    proves the answer does not depend on the budget.
    """
    oracles = _oracles()
    if undecided:
        compatible, grid, illegal, bad = _verdict_with_undecided(oracles, left, right, undecided)
    else:
        compatible, grid, illegal, bad = oracles.oracle_verdict(left, right)
    _, initials, trans = grid
    reachable = oracles.oracle_reachable(initials, [(t[0], t[4]) for t in trans])
    illegal &= reachable
    bad &= reachable
    shared = oracles.oracle_shared(left, right)
    autonomous = [
        (t[0], t[4]) for t in trans
        if t[0] in reachable and _autonomous(left, right, shared, t[2])
    ]
    witness = None if compatible else _shortest_distance(initials, autonomous, illegal)
    return {
        "verdict": "compatible" if compatible else "incompatible",
        "product_states": len(reachable),
        "product_transitions": sum(1 for t in trans if t[0] in reachable),
        "illegal": sorted(list(p) for p in illegal),
        "bad": sorted(list(p) for p in bad),
        "witness": witness,
    }


def _verdict_with_undecided(oracles, left, right, undecided):
    decls = list({**left.variables, **right.variables}.values())
    unsat: dict[str, bool] = {}
    for a in (left, right):
        for reg in (a.preconditions, a.postconditions):
            for name, c in reg.items():
                if name not in undecided:
                    unsat[name] = bool(oracles.oracle_falsity(c.body, decls, c.context.params))
    grid = oracles.grid_product(left, right)

    def illegal_reading(undecided_false: bool) -> set:
        def falsity_of(name, _kind):
            return undecided_false if name in undecided else unsat[name]

        return oracles.oracle_illegal(left, right, grid, falsity_of=falsity_of)

    illegal = illegal_reading(False)
    if illegal_reading(True) != illegal:
        raise ValueError(f"reference for {left.name} x {right.name} depends on the budget")
    bad = oracles.oracle_bad(left, right, grid, illegal)
    _, initials, _ = grid
    return any(i not in bad for i in initials), grid, illegal, bad


def _autonomous(left, right, shared, label) -> bool:
    if label in shared:
        return True  # synchronised steps are hidden in the product
    owner = left if label in left.alphabet else right
    return label in owner.outputs or label in owner.hidden


def _shortest_distance(initials, edges, targets) -> Optional[int]:
    """Steps on the shortest autonomous path from an initial pair into ``targets``."""
    succ: dict = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    dist = {s: 0 for s in initials}
    queue = deque(initials)
    while queue:
        s = queue.popleft()
        if s in targets:
            return dist[s]
        for nxt in succ.get(s, ()):
            if nxt not in dist:
                dist[nxt] = dist[s] + 1
                queue.append(nxt)
    return None


# ---------------------------------------------------------------------------
# case-study: the paper's own pair, frozen answers

CASE_STUDY_EXPECT = {
    "verdict": "incompatible",
    "product_states": 57,
    "product_transitions": 185,
    "illegal": 21,
    "bad": 57,
    "witness": ["Off__Init", "OnUndecided__Init", "OnFollower__Init"],
}


def case_study(seed: int, tiny: bool) -> list[Case]:
    """The bundled pair; the seed has nothing to vary, the input is fixed."""
    del seed, tiny
    return [
        Case(
            "LE_Device-x-TransportLayer",
            ia.fixture_text("le_device.ia"),
            ia.fixture_text("transport_layer.ia"),
            CASE_STUDY_EXPECT,
        )
    ]


# ---------------------------------------------------------------------------
# dense-far / dense-receptive: guard-free dense pairs

SEND = tuple(ActionLabel(f"a{i}") for i in range(3))  # left outputs, right inputs
RECV = tuple(ActionLabel(f"b{i}") for i in range(3))  # right outputs, left inputs


def dense_sizes(tiny: bool) -> list[tuple[int, int]]:
    """Side sizes of the batch: fixed, varied, never chosen by the seed.

    Twelve equal middle pairs hold the median and nine equal largest pairs
    the 90th percentile, so neither lands on the edge between two sizes.
    Those pairs are square: the trap makes the two sides unequal, so a
    swapped pair costs differently.
    """
    if tiny:
        return [(5, 6), (6, 5)]
    groups = ((10, 12, 6), (12, 14, 6), (16, 16, 12), (18, 19, 3), (20, 20, 9))
    return [(a, b) if i % 2 else (b, a) for a, b, n in groups for i in range(n)]


def _dense_side(rng, name, n, inputs, outputs, trap: Optional[int]) -> InterfaceAutomaton:
    """Receptive side with out-degree 5: every input, its first output and one other.

    The first input always steps to the next state, round the end, so those
    steps chain every state together. The other targets move one or two
    states forward most of the time; the last two states jump anywhere. A
    ``trap`` state drops the first input. The sender emits that action from
    every state, so it can always drive the receiver down the chain into the
    trap, and from every product state an illegal one is reachable. The
    random stream is the same with and without a trap, so both variants share
    their structure.
    """
    states = [f"{name}{i}" for i in range(n)]

    def target(i: int) -> str:
        if i >= n - 2:
            return states[rng.randrange(n)]
        if rng.random() < 0.15:
            return states[rng.randrange(i + 1)]
        return states[min(n - 1, i + rng.randint(1, 2))]

    transitions = []
    for i in range(n):
        if i != trap:
            transitions.append(Transition(states[i], None, inputs[0], None, states[(i + 1) % n]))
        for action in (*inputs[1:], outputs[0], rng.choice(outputs[1:])):
            transitions.append(Transition(states[i], None, action, None, target(i)))
    return InterfaceAutomaton(
        name=name,
        states=tuple(states),
        initials=(states[0],),
        inputs=inputs,
        outputs=outputs,
        hidden=(),
        transitions=tuple(transitions),
    )


def _dense(seed: int, tiny: bool, far: bool) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for k, (n1, n2) in enumerate(dense_sizes(tiny)):
        left = _dense_side(rng, "P", n1, RECV, SEND, None)
        # the trap sits deep in the receiving side's forward chain
        right = _dense_side(rng, "Q", n2, SEND, RECV, n2 - 3 if far else None)
        cases.append(
            Case(f"dense-{k}-{n1}x{n2}", to_text(left), to_text(right), reference(left, right))
        )
    return cases


# ---------------------------------------------------------------------------
# guard-stress: many named guards over the case study's declarations

CLAIM = EnumDomain(("undecided", "leader", "follower", "off"))
LE_ID = EnumDomain(("dev1", "dev2"))
DATA = RecordDomain((("c", CLAIM), ("s", IntRangeDomain(0, 10))))
GUARD_DECLS = {
    d.name: d
    for d in (
        VariableDecl("id", LE_ID),
        VariableDecl("mem", MapDomain(LE_ID, DATA)),
        VariableDecl("highest_strength", IntRangeDomain(0, 10)),
        VariableDecl("myCS", DATA),
    )
}
CLAIMS = CLAIM.literals

# Guard families. "false" guards are FALSE only after enumerating every joint
# valuation; "sat" guards are satisfiable within a few hundred valuations;
# "unknown" guards range over mem, id, myCS and highest_strength together,
# 1.96M joint valuations (7.8M for the post form), beyond the budget. Guards
# on synchronised steps get conjoined with the other side's, so they are
# satisfiable over {myCS, highest_strength} without contradicting each other,
# or "unknown": every conjunction is then satisfiable early or over the
# budget at once, and no pair's cost hinges on how many partners a FALSE
# guard finds.
FALSE_PRE = (
    lambda r: f"myCS.s > highest_strength + {10 + r.randrange(4)}",
    lambda r: f"highest_strength > {10 + r.randrange(3)} or myCS.s < 0",
    lambda r: f"myCS.c = <{r.choice(CLAIMS)}> and myCS.s > highest_strength + {10 + r.randrange(3)}",
)
SAT_PRE = (
    lambda r: f"myCS.s >= highest_strength - {r.randrange(3)}",
    lambda r: f"myCS.c = <{r.choice(CLAIMS)}> and myCS.s >= highest_strength - {r.randrange(4)}",
    lambda r: f"myCS.s + highest_strength > {4 + r.randrange(6)}",
)
MEM_SAT_PRE = (lambda r: f"mem(id).s = {r.randrange(2)}",)
UNKNOWN_PRE = (
    lambda r: f"mem(id).s = 11 or myCS.s > highest_strength + {10 + r.randrange(3)}",
    lambda r: f"mem(id).s < {1 + r.randrange(5)} and myCS.s > highest_strength",
    lambda r: f"mem(id).c = <{r.choice(CLAIMS)}> implies myCS.s >= highest_strength + {r.randrange(5)}",
)
FALSE_POST = (lambda r: f"myCS.s > highest_strength + {10 + r.randrange(3)}",)
SAT_POST = (
    lambda r: f"myCS.s = myCS~.s + {r.randrange(3)}",
    lambda r: f"myCS.c = <{r.choice(CLAIMS)}>",
)
UNKNOWN_POST = (lambda r: f"mem(id).s = 11 or myCS.s > myCS~.s + {10 + r.randrange(2)}",)

# per kind of use: the FALSE templates or None, and (family, templates, weight) for the rest
SYNC_PRE = (None, (("sat", (SAT_PRE[0], SAT_PRE[2]), 2), ("unknown", UNKNOWN_PRE, 1)))
MIXED_PRE = (FALSE_PRE, (("sat", SAT_PRE + MEM_SAT_PRE, 4), ("unknown", UNKNOWN_PRE, 3)))
POSTS = (FALSE_POST, (("sat", SAT_POST, 2), ("unknown", UNKNOWN_POST, 1)))
DEAD_PRE = {"false": FALSE_PRE, "sat": SAT_PRE}


def guard_sizes(tiny: bool) -> list[tuple[int, int]]:
    """Side sizes of the batch; as in ``dense_sizes``, twelve equal pairs
    hold the median and twelve equal largest pairs the 90th percentile."""
    if tiny:
        return [(3, 3), (3, 4)]
    groups = ((3, 3, 6), (3, 4, 6), (4, 4, 12), (4, 5, 12))
    return [(a, b) if i % 2 else (b, a) for a, b, n in groups for i in range(n)]


def _deck(rng: random.Random, kind, slots: int) -> list:
    """Families for ``slots`` guards of one kind: one FALSE if the kind has
    them, the rest drawn by weight.

    A fixed number of FALSE guards per side, wherever they land, keeps the
    falsity work of every pair, and so the tail of the check times, about
    the same from seed to seed.
    """
    false, rest = kind
    cards = [("false", false)] if false else []
    cards += [
        (family, templates)
        for family, templates, _ in rng.choices(rest, [w for *_, w in rest], k=slots - len(cards))
    ]
    rng.shuffle(cards)
    return cards


class _GuardSide:
    """Builds one side's transitions and mints a fresh named guard per use."""

    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.name = name
        self.pres: dict[str, NamedConstraint] = {}
        self.posts: dict[str, NamedConstraint] = {}
        self.undecided: set[str] = set()

    def guard(self, kind: ConstraintKind, deck: list) -> str:
        family, templates = deck.pop()
        return self.mint(kind, family, self.rng.choice(templates)(self.rng))

    def dead(self, family: str) -> str:
        return self.mint(ConstraintKind.PRE, family, self.rng.choice(DEAD_PRE[family])(self.rng))

    def mint(self, kind: ConstraintKind, family: str, text: str) -> str:
        registry = self.pres if kind is ConstraintKind.PRE else self.posts
        name = f"{self.name}{kind.value.capitalize()}{len(registry)}"
        body = ia.parse_expression(text, GUARD_DECLS)
        registry[name] = NamedConstraint(name, kind, body, ConstraintContext(contract=self.name))
        if family == "unknown":
            self.undecided.add(name)
        return name


def _guard_side(rng, name, n, inputs, outputs, hidden, dead_ok: bool):
    """Normal states 0..n-2 and one dead-end state n-1.

    Every normal state has an unguarded hidden step to its successor, so no
    pair holding a normal state can have all its guards false, whatever the
    budget says. The dead-end state accepts every input unguarded, emits
    nothing, and has two hidden steps guarded only by cheap exact families:
    both FALSE, or one satisfiable when ``dead_ok``.
    """
    side = _GuardSide(rng, name)
    states = [f"{name}{i}" for i in range(n)]
    normal = states[:-1]
    slots = len(normal) * (len(inputs) + len(outputs))
    decks = {
        "sync": _deck(rng, SYNC_PRE, slots),
        "mixed": _deck(rng, MIXED_PRE, len(normal)),
        "post": _deck(rng, POSTS, len(normal) * (len(outputs) + 1)),
    }
    step, extra = hidden
    pre, post = ConstraintKind.PRE, ConstraintKind.POST
    transitions = []
    for i, s in enumerate(normal):
        transitions.append(Transition(s, None, step, None, states[i + 1]))
        for a in inputs:
            transitions.append(Transition(s, side.guard(pre, decks["sync"]), a, None, rng.choice(normal)))
        for a in outputs:
            transitions.append(
                Transition(s, side.guard(pre, decks["sync"]), a, side.guard(post, decks["post"]), rng.choice(normal))
            )
        transitions.append(
            Transition(s, side.guard(pre, decks["mixed"]), extra, side.guard(post, decks["post"]), rng.choice(states))
        )
    dead = states[-1]
    for a in inputs:
        transitions.append(Transition(dead, None, a, None, states[0]))
    families = ["sat", "false"] if dead_ok else ["false", "false"]
    for family in families:
        transitions.append(Transition(dead, side.dead(family), extra, None, rng.choice(normal)))
    automaton = InterfaceAutomaton(
        name=name,
        states=tuple(states),
        initials=(states[0],),
        inputs=inputs,
        outputs=outputs,
        hidden=hidden,
        variables=GUARD_DECLS,
        preconditions=side.pres,
        postconditions=side.posts,
        transitions=tuple(transitions),
    )
    return automaton, side.undecided


def guard_stress(seed: int, tiny: bool) -> list[Case]:
    """Half the pairs reach an all-FALSE dead-end pair (incompatible), half do not."""
    rng = random.Random(seed)
    send, recv = ActionLabel("send"), ActionLabel("recv")
    cases = []
    for k, (n1, n2) in enumerate(guard_sizes(tiny)):
        dead_ok = k % 2 == 1
        left, und1 = _guard_side(
            rng, "Dev", n1, (recv,), (send,), (ActionLabel("h0"), ActionLabel("h1")), dead_ok
        )
        right, und2 = _guard_side(
            rng, "Net", n2, (send,), (recv,), (ActionLabel("g0"), ActionLabel("g1")), dead_ok
        )
        expect = reference(left, right, frozenset(und1 | und2))
        cases.append(Case(f"guards-{k}-{n1}x{n2}", to_text(left), to_text(right), expect))
    return cases


# workload name -> build(seed, tiny) -> batch; why each exists is in BENCHMARK.json
WORKLOADS: dict[str, Callable[[int, bool], list[Case]]] = {
    "case-study": case_study,
    "guard-stress": guard_stress,
    "dense-far": lambda seed, tiny: _dense(seed, tiny, far=True),
    "dense-receptive": lambda seed, tiny: _dense(seed, tiny, far=False),
}
