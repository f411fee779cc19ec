"""Compatibility verification over synchronized products.

The pipeline: check composability, build the product, collect illegal states,
close them backwards into the bad set, prune, and read the verdict off the
surviving initial states. A pair state is illegal when one side can emit a
shared action the other side cannot receive there, or when it has outgoing
transitions and every one of them is disabled because a guard is equivalent
to false. The backward closure follows output and hidden steps only: a
helpful environment can steer inputs away from trouble, so input steps do
not propagate badness.

Every stage reads cached indexes (``product`` hands over the product's
``outgoing``) and is linear in the product: the illegal-state pass makes
O(|P|) set tests, O(|shared|) lookups where an output goes unreceived, and one
falsity query per distinct guard; the closure and the witness search are
breadth-first sweeps in O(states + transitions). ``OpCounter`` exposes the
closure's elementary operation count for measurement.
"""
from __future__ import annotations

import enum
from collections import deque
from typing import Mapping, Optional, Union

from .automata import (
    ActionClass,
    ActionLabel,
    ComposabilityReport,
    InterfaceAutomaton,
    ProductResult,
    Transition,
    composable,
    empty_automaton,
    product,
    qualify_hidden,
    validate,
)
from .exprs import ConstraintKind
from .falsity import Pools, Preparations, Verdict, constraint_falsity, default_budget
from .frozen import Frozen


class UnreceivedOutput(Frozen):
    """A shared action one side offers as output where the other side cannot take it."""

    action: ActionLabel
    sender: str  # "left" | "right"


class AllGuardsFalse(Frozen):
    """Every outgoing transition is disabled by a pre or post equivalent to false."""

    transitions: tuple[Transition, ...]


IllegalReason = Union[UnreceivedOutput, AllGuardsFalse]


class IllegalStateSet(Frozen):
    states: frozenset[str]
    reasons: Mapping[str, tuple[IllegalReason, ...]]

    def __post_init__(self):
        return self.states, dict(self.reasons)


class OpCounter:
    """Tally of elementary closure operations (index builds, dequeues, scans);
    ``bad_states`` adds its count to ``ops``, and nothing for an empty illegal set."""

    ops = 0


def illegal_states(
    prod: ProductResult,
    a1: InterfaceAutomaton,
    a2: InterfaceAutomaton,
    *,
    strict_deadlock: bool = False,
    budget: Optional[int] = None,
) -> IllegalStateSet:
    """Illegal product states with the reasons that condemn them.

    Guards are judged over the product's merged variable declarations.
    ``strict_deadlock`` extends the all-guards-false clause to states with no
    outgoing transitions (the vacuous reading); by default deadlocks are not
    illegal. A falsity verdict of Unknown never disables a transition.
    """
    auto = prod.automaton
    budget = default_budget() if budget is None else budget

    # one verdict cache and one preparation memo per registry, since a pre and
    # a post may share a name; the queries share their domains' value lists,
    # for this call only
    pre_cache: dict[str, Verdict] = {}
    post_cache: dict[str, Verdict] = {}
    pools: Pools = {}
    pre_prep = Preparations(auto.preconditions, auto.conjunctions[ConstraintKind.PRE], auto.variables)
    post_prep = Preparations(auto.postconditions, auto.conjunctions[ConstraintKind.POST], auto.variables)

    def is_false(name: str, cache: dict[str, Verdict], prepared: Preparations) -> bool:
        if name not in cache:
            cache[name] = constraint_falsity(
                prepared.registry[name], auto.variables, budget=budget, pools=pools, prepared=prepared
            ).verdict
        return cache[name] is Verdict.FALSE

    shared = frozenset(prod.shared_actions)
    shared_sorted = sorted(shared, key=lambda l: l.sort_key)
    out1 = {s: sends & shared for s, sends in a1.enabled[ActionClass.OUTPUT].items()}
    out2 = {s: sends & shared for s, sends in a2.enabled[ActionClass.OUTPUT].items()}
    in1, in2 = a1.enabled[ActionClass.INPUT], a2.enabled[ActionClass.INPUT]

    guarded = auto.preconditions or auto.postconditions  # else no step has a guard
    reasons: dict[str, list[IllegalReason]] = {}

    for pid in auto.states:
        s1, s2 = prod.pair_of[pid]
        sends1, takes1, sends2, takes2 = out1[s1], in1[s1], out2[s2], in2[s2]
        if not (sends1 <= takes2 and sends2 <= takes1):  # reasons in the order of shared_sorted
            for action in shared_sorted:
                if action in sends1 and action not in takes2:
                    reasons.setdefault(pid, []).append(UnreceivedOutput(action, "left"))
                if action in sends2 and action not in takes1:
                    reasons.setdefault(pid, []).append(UnreceivedOutput(action, "right"))

        out = auto.outgoing[pid]
        disabled = [
            t for t in out
            if t.pre is not None and is_false(t.pre, pre_cache, pre_prep)
            or t.post is not None and is_false(t.post, post_cache, post_prep)
        ] if guarded else []
        # with no step at all, only the vacuous reading condemns the state
        if len(disabled) == len(out) and (out or strict_deadlock):
            reasons.setdefault(pid, []).append(AllGuardsFalse(tuple(disabled)))

    return IllegalStateSet(
        states=frozenset(reasons),
        reasons={k: tuple(v) for k, v in reasons.items()},
    )


def bad_states(
    prod: ProductResult,
    illegal: IllegalStateSet,
    *,
    counter: Optional[OpCounter] = None,
) -> frozenset[str]:
    """Backward closure of the illegal set along output and hidden steps.

    A state is bad when the component pair can reach an illegal state on its
    own (outputs and internal actions); the environment controls inputs, so
    those edges do not spread badness.
    """
    if not illegal.states:
        return frozenset()
    auto = prod.automaton
    autonomous = auto.autonomous

    reverse: dict[str, list[str]] = {}
    for t in auto.transitions:
        if t.action in autonomous:
            reverse.setdefault(t.target, []).append(t.source)

    bad = set(illegal.states)
    queue = deque(sorted(bad))
    while queue:
        for p in reverse.get(queue.popleft(), ()):
            if p not in bad:
                bad.add(p)
                queue.append(p)
    if counter is not None:
        # one op per transition indexed, and each bad state is dequeued once
        # and scans its predecessors
        counter.ops += len(auto.transitions) + sum(1 + len(reverse.get(s, ())) for s in bad)
    return frozenset(bad)


def prune(prod: ProductResult, remove: frozenset[str]) -> InterfaceAutomaton:
    """Remove the given states, then keep only what the initials still reach.

    Returns the canonical empty automaton when nothing survives, the product's own when all does.
    """
    auto = prod.automaton
    initials = [s for s in auto.initials if s not in remove]
    if not initials:
        return empty_automaton(auto.name)

    reachable: set[str] = set(initials)
    queue = deque(initials)
    while queue:
        s = queue.popleft()
        for t in auto.outgoing[s]:
            if t.target not in reachable and t.target not in remove:
                reachable.add(t.target)
                queue.append(t.target)

    if len(reachable) == len(auto.states):  # a product's states are distinct
        return auto
    return auto._replace(
        states=tuple(s for s in auto.states if s in reachable),
        initials=tuple(initials),
        transitions=tuple(
            t for t in auto.transitions
            if t.source in reachable and t.target in reachable
        ),
    )


# ---------------------------------------------------------------------------
# witness traces

class Trace(Frozen):
    """Alternating path: states[0] -steps[0]-> states[1] -> ... """

    states: tuple[str, ...]
    steps: tuple[Transition, ...]


def shortest_witness(prod: ProductResult, illegal: IllegalStateSet) -> Optional[Trace]:
    """Shortest output/hidden path from an initial state into the illegal set.

    Computed on the unpruned product. None when no initial state can reach
    an illegal state autonomously.
    """
    auto = prod.automaton
    autonomous, outgoing, targets = auto.autonomous, auto.outgoing, illegal.states

    parent: dict[str, Optional[Transition]] = dict.fromkeys(auto.initials)  # also the seen set
    found = next((s for s in auto.initials if s in targets), None)
    queue = deque(auto.initials)
    while queue and found is None:
        for t in outgoing[queue.popleft()]:
            if t.target in parent or t.action not in autonomous:
                continue
            parent[t.target] = t
            if t.target in targets:
                found = t.target
                break
            queue.append(t.target)
    if found is None:
        return None
    steps: list[Transition] = []
    while (step := parent[found]) is not None:
        steps.append(step)
        found = step.source
    steps.reverse()
    return Trace(states=(found,) + tuple(t.target for t in steps), steps=tuple(steps))


# ---------------------------------------------------------------------------
# the full check

class CompatVerdict(enum.Enum):
    COMPATIBLE = "compatible"
    INCOMPATIBLE = "incompatible"


class IncompatibilityCause(enum.Enum):
    NOT_COMPOSABLE = "not_composable"
    EMPTY_AFTER_PRUNING = "empty_after_pruning"


class CompatOptions(Frozen):
    qualify_hidden: bool = False
    strict_deadlock: bool = False
    enum_budget: Optional[int] = None  # None picks up the environment default


class CompatReport(Frozen):
    left: str
    right: str
    options: CompatOptions
    composability: ComposabilityReport
    shared: tuple[ActionLabel, ...] = ()
    product: Optional[ProductResult] = None
    illegal: Optional[IllegalStateSet] = None
    bad: Optional[frozenset[str]] = None
    pruned: Optional[InterfaceAutomaton] = None
    verdict: CompatVerdict = CompatVerdict.INCOMPATIBLE
    cause: Optional[IncompatibilityCause] = None
    witness: Optional[Trace] = None


class InvalidAutomaton(ValueError):
    def __init__(self, name: str, diagnostics):
        self.diagnostics = list(diagnostics)
        listing = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"automaton {name} fails validation: {listing}")


def require_valid(*automata: InterfaceAutomaton) -> None:
    """Raise InvalidAutomaton for the first automaton that fails validation."""
    for a in automata:
        diags = validate(a)
        if diags:
            raise InvalidAutomaton(a.name, diags)


def check_compatibility(
    a1: InterfaceAutomaton,
    a2: InterfaceAutomaton,
    options: Optional[CompatOptions] = None,
) -> CompatReport:
    """Run the full pairwise check and report every intermediate artifact."""
    options = options or CompatOptions()
    require_valid(a1, a2)

    if options.qualify_hidden:
        a1 = qualify_hidden(a1)
        a2 = qualify_hidden(a2)

    comp = composable(a1, a2)
    if not comp.ok:
        return CompatReport(
            left=a1.name,
            right=a2.name,
            options=options,
            composability=comp,
            verdict=CompatVerdict.INCOMPATIBLE,
            cause=IncompatibilityCause.NOT_COMPOSABLE,
        )

    prod = product(a1, a2)
    illegal = illegal_states(
        prod, a1, a2, strict_deadlock=options.strict_deadlock, budget=options.enum_budget
    )
    bad = bad_states(prod, illegal)
    pruned = prune(prod, bad)

    if pruned.initials:
        verdict, cause, witness = CompatVerdict.COMPATIBLE, None, None
    else:
        verdict = CompatVerdict.INCOMPATIBLE
        cause = IncompatibilityCause.EMPTY_AFTER_PRUNING
        witness = shortest_witness(prod, illegal)

    return CompatReport(
        left=a1.name,
        right=a2.name,
        options=options,
        composability=comp,
        shared=prod.shared_actions,
        product=prod,
        illegal=illegal,
        bad=bad,
        pruned=pruned,
        verdict=verdict,
        cause=cause,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# structured report serialization

REPORT_SCHEMA = "compat-report@1"


def _labels(labels) -> list[str]:
    return sorted(str(l) for l in labels)


def _automaton_summary(a: InterfaceAutomaton) -> dict:
    return {
        "name": a.name,
        "states": len(a.states),
        "transitions": len(a.transitions),
        "initials": sorted(a.initials),
        "inputs": _labels(a.inputs),
        "outputs": _labels(a.outputs),
        "hidden": _labels(a.hidden),
    }


def report_to_dict(report: CompatReport) -> dict:
    """JSON-ready view of a report; the layout is versioned by ``schema``."""
    illegal = None
    if report.illegal is not None:
        illegal = []
        for pid in sorted(report.illegal.states):
            entries = []
            for reason in report.illegal.reasons[pid]:
                if isinstance(reason, UnreceivedOutput):
                    entries.append(
                        {
                            "kind": "unreceived_output",
                            "action": str(reason.action),
                            "sender": reason.sender,
                        }
                    )
                elif isinstance(reason, AllGuardsFalse):
                    entries.append(
                        {
                            "kind": "all_guards_false",
                            "disabled": len(reason.transitions),
                        }
                    )
                else:
                    raise TypeError(f"unknown illegal-state reason: {reason!r}")
            pair = report.product.pair_of[pid] if report.product else None
            illegal.append({"state": pid, "pair": list(pair) if pair else None, "reasons": entries})

    witness = None
    if report.witness is not None:
        witness = {
            "states": list(report.witness.states),
            "actions": [str(t.action) for t in report.witness.steps],
        }

    return {
        "schema": REPORT_SCHEMA,
        "left": report.left,
        "right": report.right,
        "options": {
            "qualify_hidden": report.options.qualify_hidden,
            "strict_deadlock": report.options.strict_deadlock,
            "enum_budget": report.options.enum_budget
            if report.options.enum_budget is not None
            else default_budget(),
        },
        "composable": {
            "ok": report.composability.ok,
            "conflicts": [
                {"clause": c.clause, "actions": _labels(c.actions)}
                for c in report.composability.conflicts
            ],
        },
        "shared": _labels(report.shared),
        "product": _automaton_summary(report.product.automaton) if report.product else None,
        "illegal": illegal,
        "bad": sorted(report.bad) if report.bad is not None else None,
        "pruned": _automaton_summary(report.pruned) if report.pruned is not None else None,
        "verdict": report.verdict.value,
        "cause": report.cause.value if report.cause else None,
        "witness": witness,
    }


def report_to_json(report: CompatReport) -> str:
    import json  # on first use: only a report needs it
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
