"""Compatibility verification over synchronized products.

The pipeline: check composability, build the product, collect illegal states,
close them backwards into the bad set, prune, and read the verdict off the
surviving initial states. A pair state is illegal when one side can emit a
shared action the other side cannot receive there, or when it has outgoing
transitions and every one of them is disabled because a guard is equivalent
to false. The backward closure follows output and hidden steps only: a
helpful environment can steer inputs away from trouble, so input steps do
not propagate badness.

Every stage runs on the product's ``graph`` of integer pair states, with
lists and bytearrays, and builds ``Transition`` tuples only for what its
result holds. Each is linear in the product: the illegal-state pass makes
O(|P|) set tests, O(|shared|) lookups where an output goes unreceived, and at
most one falsity query per guard an all-guards-false verdict needs; the
closure (a least fixpoint over predecessor lists), the prune and the witness
search are breadth-first sweeps in O(states + transitions). ``OpCounter``
exposes the closure's elementary operation count for measurement.
"""
from __future__ import annotations

import enum
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
from .exprs import NamedConstraint
from .falsity import Pools, Verdict, constraint_falsity, default_budget
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
    *,
    strict_deadlock: bool = False,
    budget: Optional[int] = None,
) -> IllegalStateSet:
    """Illegal product states with the reasons that condemn them.

    The enabled actions come from the operands ``product`` composed, and the
    guards are judged over the product's merged variable declarations.
    ``strict_deadlock`` extends the all-guards-false clause to states with no
    outgoing transitions (the vacuous reading); by default deadlocks are not
    illegal. A falsity verdict of Unknown never disables a transition, so one
    in a state that has an enabled step is never queried: guards are queried
    only as far as that clause needs them, not at all in a state with a step
    that has neither a pre nor a post, else in step order up to the first
    step whose pre and post are both not FALSE.
    """
    auto, (a1, a2) = prod.automaton, prod.operands
    budget = default_budget() if budget is None else budget

    # one verdict cache per registry, since a pre and a post may share a name;
    # the queries share their domains' value lists, for this call only
    pre_cache: dict[str, Verdict] = {}
    post_cache: dict[str, Verdict] = {}
    pools: Pools = {}

    def is_false(name: str, cache: dict[str, Verdict], registry: Mapping[str, NamedConstraint]) -> bool:
        if name not in cache:
            cache[name] = constraint_falsity(registry[name], auto.variables, budget=budget, pools=pools).verdict
        return cache[name] is Verdict.FALSE

    shared = frozenset(prod.shared_actions)
    out1 = {s: sends & shared for s, sends in a1.enabled[ActionClass.OUTPUT].items()}
    out2 = {s: sends & shared for s, sends in a2.enabled[ActionClass.OUTPUT].items()}
    in1, in2 = a1.enabled[ActionClass.INPUT], a2.enabled[ActionClass.INPUT]

    guarded = auto.preconditions or auto.postconditions  # else no step has a guard
    reasons: dict[str, list[IllegalReason]] = {}

    graph = auto.graph
    for i, (pid, out) in enumerate(zip(auto.states, graph.steps)):
        s1, s2 = prod.pair_of[pid]
        sends1, takes1, sends2, takes2 = out1[s1], in1[s1], out2[s2], in2[s2]
        if not (sends1 <= takes2 and sends2 <= takes1):  # reasons in the order of shared_actions
            for action in prod.shared_actions:
                if action in sends1 and action not in takes2:
                    reasons.setdefault(pid, []).append(UnreceivedOutput(action, "left"))
                if action in sends2 and action not in takes1:
                    reasons.setdefault(pid, []).append(UnreceivedOutput(action, "right"))

        # one enabled step settles the state, so the scan stops at the first
        disabled = []
        if guarded and all(step[0] is not None or step[2] is not None for step in out):
            for step in out:
                if not (step[0] is not None and is_false(step[0], pre_cache, auto.preconditions)
                        or step[2] is not None and is_false(step[2], post_cache, auto.postconditions)):
                    break
                disabled.append(step)
        # with no step at all, only the vacuous reading condemns the state
        if len(disabled) == len(out) and (out or strict_deadlock):
            disabled_steps = tuple(graph.transition(i, step) for step in disabled)
            reasons.setdefault(pid, []).append(AllGuardsFalse(disabled_steps))

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
    autonomous, graph = auto.autonomous, auto.graph
    names = graph.names

    pred: list[list[int]] = [[] for _ in names]
    for i, out in enumerate(graph.steps):
        for _, action, _, j in out:
            if action in autonomous:
                pred[j].append(i)

    bad = bytearray(s in illegal.states for s in names)
    queue = [i for i, b in enumerate(bad) if b]
    for i in queue:  # read as it grows: each bad state once
        for p in pred[i]:
            if not bad[p]:
                bad[p] = 1
                queue.append(p)
    found = frozenset(illegal.states).union(map(names.__getitem__, queue))
    if counter is not None:
        # one op per transition indexed, and each bad state is dequeued once
        # and scans its predecessors
        counter.ops += len(graph) + len(found) + sum(len(pred[i]) for i in queue)
    return found


def prune(prod: ProductResult, remove: frozenset[str]) -> InterfaceAutomaton:
    """Remove the given states, then keep only what the initials still reach.

    Returns the canonical empty automaton when nothing survives, the product's own when all does:
    at once when ``remove`` is empty, since a product holds only the pairs its initials reach.
    """
    auto = prod.automaton
    graph = auto.graph
    names = graph.names
    initials = [i for i in graph.initials if names[i] not in remove]
    if not initials:
        return empty_automaton(auto.name)
    if not remove:
        return auto

    kept = list(dict.fromkeys(initials))
    keep = bytearray(len(names))
    for i in kept:
        keep[i] = 1
    for i in kept:  # read as it grows
        for step in graph.steps[i]:
            j = step[3]
            if not keep[j] and names[j] not in remove:
                keep[j] = 1
                kept.append(j)

    if len(kept) == len(auto.states):  # a product's states are distinct
        return auto
    return auto._replace(
        states=tuple(s for s, k in zip(auto.states, keep) if k),
        initials=tuple(names[i] for i in initials),
        transitions=(graph.transition(i, step) for i, out in enumerate(graph.steps) if keep[i]
                     for step in out if keep[step[3]]),
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
    autonomous, graph, targets = auto.autonomous, auto.graph, illegal.states
    names = graph.names

    # the step that first reached each state, () at an initial one
    via: list[Optional[tuple]] = [None] * len(names)
    for i in graph.initials:
        via[i] = ()
    found = next((i for i in graph.initials if names[i] in targets), None)
    queue = list(graph.initials)
    for i in queue:  # read as it grows
        if found is not None:
            break
        for step in graph.steps[i]:
            j = step[3]
            if via[j] is not None or step[1] not in autonomous:
                continue
            via[j] = (i, step)
            if names[j] in targets:
                found = j
                break
            queue.append(j)
    if found is None:
        return None
    steps: list[Transition] = []
    while via[found]:
        found, step = via[found]
        steps.append(graph.transition(found, step))
    steps.reverse()
    return Trace(states=(names[found],) + tuple(t.target for t in steps), steps=tuple(steps))


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
    illegal = illegal_states(prod, strict_deadlock=options.strict_deadlock, budget=options.enum_budget)
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
        "transitions": len(a.graph),  # a product's tuples stay unbuilt
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
    from json.encoder import encode_basestring_ascii  # on first use: only a report needs it
    return _to_json(report_to_dict(report), encode_basestring_ascii, "\n") + "\n"


def _to_json(x, quote, nl: str) -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` for what a report holds, each line after
    the first opened by ``nl``: str, int, bool, None, and lists and str-keyed dicts of them."""
    cls = x.__class__
    if cls is str or cls is int:
        return quote(x) if cls is str else int.__repr__(x)
    if cls is bool or x is None:
        return "null" if x is None else "true" if x else "false"
    inner = nl + "  "
    if cls is list:
        parts, ends = [quote(v) if v.__class__ is str else _to_json(v, quote, inner) for v in x], "[]"
    elif cls is dict:
        parts, ends = [f"{quote(k)}: {_to_json(x[k], quote, inner)}" for k in sorted(x)], "{}"
    else:
        raise TypeError(f"a report holds no {cls.__name__} value: {x!r}")
    return f"{ends[0]}{inner}{(',' + inner).join(parts)}{nl}{ends[1]}" if parts else ends
