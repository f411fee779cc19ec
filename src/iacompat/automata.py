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
``StepGraph`` on integer states, numbered from 5-tuples of ``Transition``'s
fields. It reads as ``Transition`` tuples, in the order given: a listing may
state steps out of state order, or one step twice; every algorithm here
applies set semantics regardless. The graph stages read it and what each
automaton works out on first use: ``classes``, ``autonomous``, ``enabled``,
and ``diagnostics``, which ``validate`` returns and a parser presets.
``product`` numbers the pair states in the order it finds them, visiting
reachable pairs only (O(|transitions1| * |transitions2|) work at worst), and
builds its graph directly; its ``ProductResult`` carries all the graph stages
read besides: the two operands. It numbers the shared actions once, so a step
finds its partners by that number and hashes no label while the pairs are
expanded; the numbers never reach the result.

``ActionLabel`` and ``Transition`` are ``NamedTuple`` values, so they hash and
compare as C-level tuples. They compare and hash equal to plain tuples of
their fields (``ActionLabel("b", "a") == ("b", "a")``), so no dict or set here
may hold labels beside the step tuples of ``graph`` or the constraint-name
pairs of ``product``; none does. Derive a changed step with
``t._replace(...)``.
"""
from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Sequence
from functools import cached_property
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Optional

from .domains import VariableDecl, is_identifier
from .exprs import (
    Chain,
    ConstraintContext,
    ConstraintKind,
    NamedConstraint,
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

    # what ``validate`` returns, worked out on first read; the parser presets it
    diagnostics = cached_property(lambda a: _diagnostics(a))

    def action_class(self, label: ActionLabel) -> Optional[ActionClass]:
        return self.classes.get(label)

    def decorated(self, label: ActionLabel) -> str:
        """The label with its class's decoration (``?``, ``!`` or ``;``), bare if undeclared."""
        cls = self.classes.get(label)
        return f"{label}{cls.decoration}" if cls else str(label)


class StepGraph(Sequence):
    """An automaton's steps on integer states: ``steps[i]`` lists the steps out of ``names[i]`` as
    ``(pre, action, post, j)``, ``j`` the target's index, and ``initials`` holds indexes too. ``order``
    lists each step's source in the order given, or is None for state order (a product's). As a
    read-only sequence it is its ``Transition`` tuples in that order, built on first read."""

    def __init__(self, names: list[str], steps: list[list[tuple]], initials: list[int], order=None):
        self.names, self.steps, self.initials, self.order = names, steps, initials, order

    @classmethod
    def number(cls, states: Sequence[str], initials: Sequence[str], transitions: Iterable[tuple]) -> StepGraph:
        """The steps, as ``(source, pre, action, post, target)``, by source; numbering the states, then
        any other name an initial or step uses."""
        index: dict[str, int] = {}
        for s in (*states, *initials):
            index.setdefault(s, len(index))
        order, flat = [], []
        for source, pre, action, post, target in transitions:
            order.append(index.setdefault(source, len(index)))
            flat.append((pre, action, post, index.setdefault(target, len(index))))
        steps: list[list[tuple]] = [[] for _ in index]
        for i, step in zip(order, flat):
            steps[i].append(step)
        return cls(list(index), steps, [index[s] for s in initials], None if order == sorted(order) else order)

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
    """Structural well-formedness diagnostics; empty means the automaton is sound. Each automaton
    works them out once, as its ``diagnostics``, or the parser presets them; treat them as read-only."""
    return a.diagnostics


def declaration_faults(a: InterfaceAutomaton) -> list[Diagnostic]:
    """The rules on the declarations alone, each overlapping label once, in ``alphabet`` order. A parsed
    automaton has its initials among its states, so these rules are all that it can break."""
    states = set(a.states)
    diags = [Diagnostic("initial-empty", "initial set empty")] if not a.initials and a.states else []
    diags += (Diagnostic("initial-unknown", f"initial state is not a state: {s}")
              for s in a.initials if s not in states)
    diags += (Diagnostic("alphabet-overlap", f"alphabets not disjoint: {label}")
              for label, n in Counter(a.alphabet).items() if n > 1)  # each class holds a label once
    return diags


def _diagnostics(a: InterfaceAutomaton) -> list[Diagnostic]:
    diags = declaration_faults(a)
    for k, code, message in step_faults(a):
        t = a.transitions[k]
        diags.append(Diagnostic(code, message, f"transition {k + 1}: {t.source} -[{t.action}]-> {t.target}"))
    table = decls_mapping(a.variables)
    diags += (Diagnostic("constraint-variable", f"{which} {name} references undeclared variable {path}")
              for reg, which in ((a.preconditions, "precondition"), (a.postconditions, "postcondition"))
              for name, c in reg.items() for path in c.undeclared_paths(table))
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
    """A product with what the graph stages read besides it: the two operands it composed. The
    product holds only the pair states its initials reach, so a ``prune`` of nothing keeps it whole."""

    automaton: InterfaceAutomaton
    pair_of: Mapping[str, tuple[str, str]]
    shared_actions: tuple[ActionLabel, ...]  # in sort_key order, the order of illegal reasons
    operands: tuple[InterfaceAutomaton, InterfaceAutomaton]

    def __post_init__(self):
        return self.automaton, dict(self.pair_of), self.shared_actions, tuple(self.operands)


class ProductError(ValueError):
    """The operands cannot be merged: a variable or a conjoined operation
    parameter is declared with different domains on the two sides."""


def _merge(first, second, fault: str) -> dict:
    """Declarations by name, the first side's kept; a name on both sides must have one domain,
    else ``ProductError(fault)`` with the name in its ``{!r}``."""
    merged = {d.name: d for d in first}
    for d in second:
        if merged.setdefault(d.name, d).domain != d.domain:
            raise ProductError(fault.format(d.name))
    return merged


def _conjoin_constraints(c1: NamedConstraint, c2: NamedConstraint, contract: str) -> NamedConstraint:
    """Canonical conjunction of two same-kind constraints, sorted by name."""
    first, second = sorted((c1, c2), key=lambda c: c.name)
    ops = [c.context.operation for c in (first, second) if c.context.operation]
    params = _merge(first.context.params, second.context.params, "parameter {!r} declared with different domains")
    context = ConstraintContext(contract, "_and_".join(ops) if ops else None, tuple(params.values()))
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
    shared_actions = tuple(sorted(shared_set, key=lambda l: l.sort_key))

    name = f"{a1.name}_x_{a2.name}"
    inputs = tuple(l for l in _label_tuple(a1.inputs + a2.inputs) if l not in shared_set)
    outputs = tuple(l for l in _label_tuple(a1.outputs + a2.outputs) if l not in shared_set)
    hidden = _label_tuple(a1.hidden + a2.hidden + shared_actions)

    variables = _merge(a1.variables.values(), a2.variables.values(),
                       "variable {!r} declared with different domains in both operands")
    taken = set(a1.preconditions) | set(a1.postconditions)
    pres = _GuardRegistry(a1.preconditions, a2.preconditions, name, taken)
    posts = _GuardRegistry(a1.postconditions, a2.postconditions, name, taken)

    # each side's steps by state index, a shared action by its number: the left
    # side's with the row of their target pair, the right side's own ones, and
    # its shared ones by number, under the names its constraints took
    g1, g2 = a1.graph, a2.graph
    n2 = len(g2.names)
    number = {action: k for k, action in enumerate(shared_actions)}
    left = [[(pre, action, post, t1, t1 * n2, number.get(action)) for pre, action, post, t1 in out]
            for out in g1.steps]
    own2: list[list[tuple]] = [[] for _ in g2.steps]
    sync2: list[dict[int, list[tuple]]] = [{} for _ in g2.steps]
    for i2, out in enumerate(g2.steps):
        for pre, action, post, t2 in out:
            pre, post = pres.rename.get(pre, pre), posts.rename.get(post, post)
            k = number.get(action)
            if k is None:
                own2[i2].append((pre, action, post, t2))
            else:
                sync2[i2].setdefault(k, []).append((pre, post, t2))

    index: dict[int, int] = {}  # a pair (i1, i2) as i1 * n2 + i2 -> its pair state
    pairs: list[tuple[int, int]] = []
    pair_of: dict[str, tuple[str, str]] = {}

    def add(i1: int, i2: int) -> int:
        """Index of a new pair state, which is named and queued for expansion."""
        pair = (g1.names[i1], g2.names[i2])
        # a distinct pair may collide on the joined name
        pair_of[_fresh_name(f"{pair[0]}__{pair[1]}", pair_of)] = pair
        j = index[i1 * n2 + i2] = len(pairs)
        pairs.append((i1, i2))
        return j

    for i1, i2 in dict.fromkeys((i1, i2) for i1 in g1.initials for i2 in g2.initials):
        add(i1, i2)
    initials = list(range(len(pairs)))  # the pairs found so far

    steps: list[list[tuple]] = []
    for i1, i2 in pairs:  # read as it grows: each pair state once, in the order found
        here: dict[tuple, None] = {}  # insertion-ordered set
        sync = sync2[i2]
        for pre, action, post, t1, row, k in left[i1]:
            if k is None:
                j = index.get(row + i2)
                here[pre, action, post, add(t1, i2) if j is None else j] = None
                continue
            for upre, upost, t2 in sync.get(k, ()):
                # a missing guard is true, which conjunction absorbs
                p = upre if pre is None else pre if upre is None else pres.conjoin(pre, upre)
                q = upost if post is None else post if upost is None else posts.conjoin(post, upost)
                j = index.get(row + t2)
                here[p, action, q, add(t1, t2) if j is None else j] = None
        row = i1 * n2
        for pre, action, post, t2 in own2[i2]:
            j = index.get(row + t2)
            here[pre, action, post, add(i1, t2) if j is None else j] = None
        steps.append(list(here))

    names = list(pair_of)
    # built without the constructor's checks, which every field here passes
    automaton = _new(InterfaceAutomaton, (name, tuple(names), tuple(names[i] for i in initials), inputs,
                                          outputs, hidden, variables, pres.entries, posts.entries,
                                          StepGraph(names, steps, initials)))
    return ProductResult(
        automaton=automaton,
        pair_of=pair_of,
        shared_actions=shared_actions,
        operands=(a1, a2),
    )
