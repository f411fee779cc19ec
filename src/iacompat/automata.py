"""Interface automata with constraint-annotated transitions.

An automaton partitions its alphabet into input, output and hidden actions
and may attach named pre/postconditions to transitions. Two automata are
composable when their alphabets do not clash (no shared inputs, no shared
outputs, hidden actions private to each side); their synchronized product
pairs states, synchronizes the shared input/output actions, interleaves the
rest, and conjoins the guards of synchronized steps. A conjunction is built
only when a step needs it, and every constraint the product adds to the left
operand's gets a name free among both kinds (see ``_GuardRegistry``).

Collections are stored as tuples in declaration order, and the steps as a
``StepGraph`` on integer states that the constructor numbers from any
``Transition`` tuples. It reads as them again, in the order given: a listing
may state steps out of state order, or one step twice; every algorithm here
applies set semantics regardless. The graph stages read it and the indexes
each automaton builds on first use (``classes``, ``autonomous``, ``enabled``).
``product`` numbers the pair states in the order it finds them, visiting
reachable pairs only (O(|transitions1| * |transitions2|) work at worst), and
builds its graph directly; its ``ProductResult`` carries all the graph stages
read besides: the two operands.

``ActionLabel`` and ``Transition`` are ``NamedTuple`` values, so they hash and
compare as C-level tuples. They compare and hash equal to plain tuples of
their fields (``ActionLabel("b", "a") == ("b", "a")``), so no dict or set here
may hold labels beside the step tuples of ``graph`` or the constraint-name
pairs of ``product``; none does. Derive a changed step with
``t._replace(...)``.
"""
from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import cached_property
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Optional

from .domains import VariableDecl, is_identifier
from .exprs import (
    Chain,
    ConstraintContext,
    ConstraintKind,
    NamedConstraint,
    ParamDecl,
    decls_mapping,
)
from .frozen import Frozen, _new, factory


class _Label(NamedTuple):
    name: str
    namespace: Optional[str] = None


class ActionLabel(_Label):
    """Action name with an optional namespace, printed ``namespace::name``."""

    __slots__ = ()

    def __new__(cls, name: str, namespace: Optional[str] = None) -> ActionLabel:
        if not is_identifier(name):
            raise ValueError(f"action name is not an identifier: {name!r}")
        if namespace is not None and not is_identifier(namespace):
            raise ValueError(f"namespace is not an identifier: {namespace!r}")
        return super().__new__(cls, name, namespace)

    def __str__(self) -> str:
        return self.name if self.namespace is None else f"{self.namespace}::{self.name}"

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.namespace or "", self.name)


class ActionClass(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    HIDDEN = "hidden"

    @property
    def decoration(self) -> str:
        return _DECORATIONS[self]


_DECORATIONS = {ActionClass.INPUT: "?", ActionClass.OUTPUT: "!", ActionClass.HIDDEN: ";"}


class Transition(NamedTuple):
    """One step: source, optional named pre, action, optional named post, target."""

    source: str
    pre: Optional[str]
    action: ActionLabel
    post: Optional[str]
    target: str


class Diagnostic(Frozen):
    code: str
    message: str
    location: Optional[str] = None

    def __str__(self) -> str:
        where = f" ({self.location})" if self.location else ""
        return f"{self.code}: {self.message}{where}"


def _label_tuple(labels: Iterable[ActionLabel]) -> tuple[ActionLabel, ...]:
    return tuple(dict.fromkeys(labels))


class InterfaceAutomaton(Frozen):
    """Immutable automaton value. Structural equality; never hash one.

    The cached indexes are not fields, so equality, ``_replace`` and ``repr``
    never see them; every caller shares them, so treat them as read-only."""

    name: str
    states: tuple[str, ...]
    initials: tuple[str, ...]
    inputs: tuple[ActionLabel, ...]
    outputs: tuple[ActionLabel, ...]
    hidden: tuple[ActionLabel, ...]
    variables: Mapping[str, VariableDecl] = factory(dict)
    preconditions: Mapping[str, NamedConstraint] = factory(dict)
    postconditions: Mapping[str, NamedConstraint] = factory(dict)
    transitions: StepGraph = ()  # given as any iterable of Transitions

    def __post_init__(self):
        if not is_identifier(self.name):
            raise ValueError(f"automaton name is not an identifier: {self.name!r}")
        for key, decl in self.variables.items():
            if key != decl.name:
                raise ValueError(f"variable {key!r} is declared as {decl.name!r}")
        for registry, kind in ((self.preconditions, ConstraintKind.PRE),
                               (self.postconditions, ConstraintKind.POST)):
            for key, c in registry.items():
                if key != c.name:
                    raise ValueError(f"constraint {c.name!r} is registered under {key!r}")
                if c.kind is not kind:
                    raise ValueError(f"constraint {c.name!r} is a {c.kind.value}, registered as a {kind.value}")
        states, initials = tuple(self.states), tuple(self.initials)
        return (self.name, states, initials, _label_tuple(self.inputs), _label_tuple(self.outputs),
                _label_tuple(self.hidden), dict(self.variables), dict(self.preconditions),
                dict(self.postconditions), StepGraph.number(states, initials, self.transitions))

    @property
    def alphabet(self) -> tuple[ActionLabel, ...]:
        return self.inputs + self.outputs + self.hidden

    @cached_property
    def classes(self) -> dict[ActionLabel, ActionClass]:
        """Class of each declared label; inputs win over outputs, outputs over hidden."""
        index = dict.fromkeys(self.hidden, ActionClass.HIDDEN)
        index.update(dict.fromkeys(self.outputs, ActionClass.OUTPUT))
        index.update(dict.fromkeys(self.inputs, ActionClass.INPUT))
        return index

    @cached_property
    def autonomous(self) -> frozenset[ActionLabel]:
        """Output and hidden labels: the steps a component takes on its own."""
        return frozenset(l for l, c in self.classes.items() if c is not ActionClass.INPUT)

    @cached_property
    def enabled(self) -> dict[ActionClass, dict[str, frozenset[ActionLabel]]]:
        """Labels of each class on the steps out of each state of ``graph``."""
        labels = {s: frozenset(step[1] for step in out) for s, out in zip(self.graph.names, self.graph.steps)}
        members = {cls: frozenset(l for l, c in self.classes.items() if c is cls) for cls in ActionClass}
        return {cls: {s: here & of_cls for s, here in labels.items()} for cls, of_cls in members.items()}

    graph = property(lambda a: a.transitions, doc="The ``transitions`` field, by the name the graph stages read.")

    def action_class(self, label: ActionLabel) -> Optional[ActionClass]:
        return self.classes.get(label)

    def decorated(self, label: ActionLabel) -> str:
        """The label with its class's decoration (``?``, ``!`` or ``;``), bare if undeclared."""
        cls = self.classes.get(label)
        return f"{label}{cls.decoration}" if cls else str(label)

    def is_empty(self) -> bool:
        return not self.states


class StepGraph(Sequence):
    """An automaton's steps on integer states: ``steps[i]`` lists the steps out of ``names[i]`` as
    ``(pre, action, post, j)``, ``j`` the target's index, and ``initials`` holds indexes too. ``order``
    lists each step's source in the order given, or is None for state order (a product's). As a
    read-only sequence it is its ``Transition`` tuples in that order, built on first read."""

    def __init__(self, names: list[str], steps: list[list[tuple]], initials: list[int], order=None):
        self.names, self.steps, self.initials, self.order = names, steps, initials, order

    @classmethod
    def number(cls, states: Sequence[str], initials: Sequence[str], transitions: Iterable[Transition]) -> StepGraph:
        """The steps by source, numbering the states, then any other name an initial or step uses."""
        transitions = list(transitions)
        names = list(dict.fromkeys([*states, *initials, *(s for t in transitions for s in (t[0], t[4]))]))
        index = {s: i for i, s in enumerate(names)}
        steps: list[list[tuple]] = [[] for _ in names]
        order = [index[t[0]] for t in transitions]
        for i, (_, pre, action, post, target) in zip(order, transitions):
            steps[i].append((pre, action, post, index[target]))
        return cls(names, steps, [index[s] for s in initials], None if order == sorted(order) else order)

    def declared(self) -> Iterator[tuple[int, tuple]]:
        """Each step with its source's index, in the order the steps were given."""
        outs = [iter(out) for out in self.steps]
        return ((i, next(outs[i])) for i in self.order or [i for i, out in enumerate(self.steps) for _ in out])

    def transition(self, i: int, step: tuple) -> Transition:
        pre, action, post, j = step
        return _new(Transition, (self.names[i], pre, action, post, self.names[j]))

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        return tuple(self.transition(i, step) for i, step in self.declared())

    def __len__(self) -> int:
        return sum(map(len, self.steps))

    def __iter__(self) -> Iterator[Transition]:
        return iter(self.transitions)

    def __getitem__(self, k):
        return self.transitions[k]

    def __eq__(self, other) -> bool:
        return self.transitions == (other.transitions if isinstance(other, StepGraph) else other)

    def __repr__(self) -> str:
        return repr(self.transitions)


EMPTY_AUTOMATON_NAME = "empty"


def empty_automaton(name: str = EMPTY_AUTOMATON_NAME) -> InterfaceAutomaton:
    """The canonical empty automaton produced by pruning everything away."""
    return InterfaceAutomaton(name=name, states=(), initials=(), inputs=(), outputs=(), hidden=())


# ---------------------------------------------------------------------------
# validation

def validate(a: InterfaceAutomaton) -> list[Diagnostic]:
    """Structural well-formedness diagnostics; empty means the automaton is sound."""
    diags: list[Diagnostic] = []
    states = set(a.states)

    if not a.initials and not a.is_empty():
        diags.append(Diagnostic("initial-empty", "initial set empty"))
    for s in a.initials:
        if s not in states:
            diags.append(Diagnostic("initial-unknown", f"initial state is not a state: {s}"))

    ins, outs, hid = set(a.inputs), set(a.outputs), set(a.hidden)
    for overlap in (ins & outs) | (ins & hid) | (outs & hid):
        diags.append(Diagnostic("alphabet-overlap", f"alphabets not disjoint: {overlap}"))

    for k, code, message in step_faults(a):
        t = a.transitions[k]
        diags.append(Diagnostic(code, message, f"transition {k + 1}: {t.source} -[{t.action}]-> {t.target}"))

    table = decls_mapping(a.variables)
    for reg, which in ((a.preconditions, "precondition"), (a.postconditions, "postcondition")):
        for name, c in reg.items():
            for path in c.undeclared_paths(table):
                diags.append(Diagnostic("constraint-variable",
                                        f"{which} {name} references undeclared variable {path}"))
    return diags


def step_faults(a: InterfaceAutomaton) -> Iterator[tuple[int, str, str]]:
    """Each fault of each step, in the order the steps were given: the step's index, the
    diagnostic code and the message. An endpoint numbered past the declared states is unknown."""
    g, known, alphabet, pres, posts = a.graph, len(set(a.states)), a.classes, a.preconditions, a.postconditions
    for k, (i, (pre, action, post, j)) in enumerate(g.declared()):
        if i >= known:
            yield k, "transition-source", f"unknown state {g.names[i]!r}"
        if j >= known:
            yield k, "transition-target", f"unknown state {g.names[j]!r}"
        if action not in alphabet:
            yield k, "transition-action", f"undeclared action {action}"
        if pre is not None and pre not in pres:
            yield k, "transition-pre", f"unknown precondition {pre!r}"
        if post is not None and post not in posts:
            yield k, "transition-post", f"unknown postcondition {post!r}"


# ---------------------------------------------------------------------------
# composability


class ClauseConflict(Frozen):
    clause: str
    actions: tuple[ActionLabel, ...]


class ComposabilityReport(Frozen):
    ok: bool
    conflicts: tuple[ClauseConflict, ...] = ()

    def conflict_actions(self) -> set[ActionLabel]:
        out: set[ActionLabel] = set()
        for c in self.conflicts:
            out.update(c.actions)
        return out


class NotComposableError(ValueError):
    def __init__(self, report: ComposabilityReport):
        self.report = report
        labels = ", ".join(str(x) for x in sorted(report.conflict_actions(), key=lambda l: l.sort_key))
        super().__init__(f"not composable (conflicting actions: {labels})")


def composable(a1: InterfaceAutomaton, a2: InterfaceAutomaton) -> ComposabilityReport:
    """Alphabet-level compatibility of the pair, clause by clause."""
    s1 = set(a1.alphabet)
    s2 = set(a2.alphabet)
    checks = (
        ("input_input", set(a1.inputs) & set(a2.inputs)),
        ("output_output", set(a1.outputs) & set(a2.outputs)),
        ("hidden1_sigma2", set(a1.hidden) & s2),
        ("sigma1_hidden2", s1 & set(a2.hidden)),
    )
    conflicts = tuple(
        ClauseConflict(name, tuple(sorted(bad, key=lambda l: l.sort_key)))
        for name, bad in checks
        if bad
    )
    return ComposabilityReport(ok=not conflicts, conflicts=conflicts)


def shared(a1: InterfaceAutomaton, a2: InterfaceAutomaton) -> set[ActionLabel]:
    """Actions the pair synchronizes on: inputs of one that are outputs of the other."""
    report = composable(a1, a2)
    if not report.ok:
        raise NotComposableError(report)
    return (set(a1.inputs) & set(a2.outputs)) | (set(a2.inputs) & set(a1.outputs))


def qualify_hidden(a: InterfaceAutomaton) -> InterfaceAutomaton:
    """Prefix every hidden action with the automaton's name as a namespace.

    Gives internal actions a private namespace so that two components using
    the same internal operation name (``init`` being the classic case) become
    composable. A hidden action that has a namespace already keeps it, so
    qualifying twice changes nothing and a qualified product's hidden actions
    stay distinct. Inputs and outputs are left untouched.
    """
    if not a.hidden:
        return a
    mapping = {h: h if h.namespace else ActionLabel(h.name, a.name) for h in a.hidden}
    g = a.graph
    steps = [[(pre, mapping.get(action, action), post, j) for pre, action, post, j in out] for out in g.steps]
    # a new hidden field and graph, which keeps the numbering; the constructor's checks still hold
    return _new(InterfaceAutomaton, (*a[:5], _label_tuple(mapping.values()), *a[6:9],
                                     StepGraph(g.names, steps, g.initials, g.order)))


# ---------------------------------------------------------------------------
# synchronized product

class ProductResult(Frozen):
    """A product with what the graph stages read besides it: the two operands it composed."""

    automaton: InterfaceAutomaton
    pair_of: Mapping[str, tuple[str, str]]
    shared_actions: tuple[ActionLabel, ...]
    operands: tuple[InterfaceAutomaton, InterfaceAutomaton]

    def __post_init__(self):
        return self.automaton, dict(self.pair_of), self.shared_actions, tuple(self.operands)


class ProductError(ValueError):
    """The operands cannot be merged: a variable or a conjoined operation
    parameter is declared with different domains on the two sides."""


def _merge_variables(a1: InterfaceAutomaton, a2: InterfaceAutomaton) -> dict[str, VariableDecl]:
    merged = dict(a1.variables)
    for name, decl in a2.variables.items():
        if name in merged and merged[name].domain != decl.domain:
            raise ProductError(f"variable {name!r} declared with different domains in both operands")
        merged[name] = decl
    return merged


def _merge_params(p1: tuple[ParamDecl, ...], p2: tuple[ParamDecl, ...]) -> tuple[ParamDecl, ...]:
    merged = {p.name: p for p in p1}
    for p in p2:
        if merged.setdefault(p.name, p).domain != p.domain:
            raise ProductError(f"parameter {p.name!r} declared with different domains")
    return tuple(merged.values())


def _conjoin_constraints(c1: NamedConstraint, c2: NamedConstraint, contract: str) -> NamedConstraint:
    """Canonical conjunction of two same-kind constraints, sorted by name."""
    first, second = sorted((c1, c2), key=lambda c: c.name)
    ops = [c.context.operation for c in (first, second) if c.context.operation]
    context = ConstraintContext(contract, "_and_".join(ops) if ops else None,
                                _merge_params(first.context.params, second.context.params))
    # NamedConstraint's check is skipped: both bodies passed it, and a
    # conjunction adds no old-state reference to a pre
    return _new(NamedConstraint, (f"{first.name}_and_{second.name}", first.kind,
                                  Chain(("and",), (first.body, second.body)), context))


def _fresh_name(base: str, taken: Container[str]) -> str:
    """``base``, or else the first of ``base_2``, ``base_3``, ... not in ``taken``."""
    name, n = base, 2
    while name in taken:
        name, n = f"{base}_{n}", n + 1
    return name


class _GuardRegistry:
    """The pre- or postconditions of a product, under one naming rule.

    Starts as the left operand's constraints. ``intern`` adds any other: an
    entry with the same name and body is reused, else the constraint takes
    ``_fresh_name`` over ``taken``, the names of both kinds, so an added
    pre never shares a name with a post. The right operand's constraints are
    interned up front and ``rename`` maps those that had to move. ``conjoin``
    builds a conjunction the first time a synchronized step needs it.
    """

    def __init__(self, left: Mapping[str, NamedConstraint], right: Mapping[str, NamedConstraint],
                 contract: str, taken: set[str]):
        self.entries = dict(left)
        self.contract = contract
        self.taken = taken
        self.rename = {n: new for n, c in right.items() if (new := self.intern(c)) != n}
        self.conjunctions: dict[tuple[str, str], str] = {}

    def intern(self, c: NamedConstraint) -> str:
        same = self.entries.get(c.name)
        if same is not None and same.body == c.body:
            return c.name
        name = _fresh_name(c.name, self.taken)
        self.taken.add(name)
        # a new name leaves the checked body as it was, so the copy skips the check
        self.entries[name] = c if name == c.name else _new(NamedConstraint, (name, c.kind, c.body, c.context))
        return name

    def conjoin(self, n1: str, n2: str) -> str:
        if (n1, n2) not in self.conjunctions:
            conj = _conjoin_constraints(self.entries[n1], self.entries[n2], self.contract)
            self.conjunctions[n1, n2] = self.intern(conj)
        return self.conjunctions[n1, n2]


def product(a1: InterfaceAutomaton, a2: InterfaceAutomaton) -> ProductResult:
    """Synchronized product over the reachable pair states.

    Non-shared actions interleave and keep their guards; a shared action
    fires one transition from each side in the same step, and the step's
    pre/post are the (canonically sorted) conjunctions of both sides'.
    Constraint names follow ``_GuardRegistry``. Raises
    ``NotComposableError`` for a clashing alphabet and ``ProductError`` when
    the operands' declarations cannot be merged.
    """
    shared_set = shared(a1, a2)

    name = f"{a1.name}_x_{a2.name}"
    inputs = tuple(l for l in _label_tuple(a1.inputs + a2.inputs) if l not in shared_set)
    outputs = tuple(l for l in _label_tuple(a1.outputs + a2.outputs) if l not in shared_set)
    hidden = _label_tuple(
        a1.hidden + a2.hidden + tuple(sorted(shared_set, key=lambda l: l.sort_key))
    )

    variables = _merge_variables(a1, a2)
    taken = set(a1.preconditions) | set(a1.postconditions)
    pres = _GuardRegistry(a1.preconditions, a2.preconditions, name, taken)
    posts = _GuardRegistry(a1.postconditions, a2.postconditions, name, taken)

    # each side's steps by state index; the right side's own ones, and its
    # shared ones by action, under the names its constraints took
    g1, g2 = a1.graph, a2.graph
    left = [[(*step, step[1] in shared_set) for step in out] for out in g1.steps]
    own2: list[list[tuple]] = [[] for _ in g2.steps]
    sync2: list[dict[ActionLabel, list[tuple]]] = [{} for _ in g2.steps]
    for i2, out in enumerate(g2.steps):
        for pre, action, post, t2 in out:
            pre, post = pres.rename.get(pre, pre), posts.rename.get(post, post)
            if action in shared_set:
                sync2[i2].setdefault(action, []).append((pre, post, t2))
            else:
                own2[i2].append((pre, action, post, t2))

    n2 = len(g2.names)
    index: dict[int, int] = {}  # a pair (i1, i2) as i1 * n2 + i2 -> its pair state
    pairs: list[tuple[int, int]] = []
    pair_of: dict[str, tuple[str, str]] = {}

    def at(i1: int, i2: int) -> int:
        """Index of the pair state; a new one is named and queued for expansion."""
        j = index.get(i1 * n2 + i2)
        if j is None:
            pair = (g1.names[i1], g2.names[i2])
            # a distinct pair may collide on the joined name
            pair_of[_fresh_name(f"{pair[0]}__{pair[1]}", pair_of)] = pair
            j = index[i1 * n2 + i2] = len(pairs)
            pairs.append((i1, i2))
        return j

    initials = list(dict.fromkeys(at(i1, i2) for i1 in g1.initials for i2 in g2.initials))

    steps: list[list[tuple]] = []
    for i1, i2 in pairs:  # read as it grows: each pair state once, in the order found
        here: dict[tuple, None] = {}  # insertion-ordered set
        sync = sync2[i2]
        for pre, action, post, t1, synced in left[i1]:
            if not synced:
                here[pre, action, post, at(t1, i2)] = None
                continue
            for upre, upost, t2 in sync.get(action, ()):
                # a missing guard is true, which conjunction absorbs
                p = upre if pre is None else pre if upre is None else pres.conjoin(pre, upre)
                q = upost if post is None else post if upost is None else posts.conjoin(post, upost)
                here[p, action, q, at(t1, t2)] = None
        for pre, action, post, t2 in own2[i2]:
            here[pre, action, post, at(i1, t2)] = None
        steps.append(list(here))

    names = list(pair_of)
    # built without the constructor's checks, which every field here passes
    automaton = _new(InterfaceAutomaton, (name, tuple(names), tuple(names[i] for i in initials), inputs,
                                          outputs, hidden, variables, pres.entries, posts.entries,
                                          StepGraph(names, steps, initials)))
    return ProductResult(
        automaton=automaton,
        pair_of=pair_of,
        shared_actions=tuple(sorted(shared_set, key=lambda l: l.sort_key)),
        operands=(a1, a2),
    )
