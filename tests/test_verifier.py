"""Illegal states, bad-state closure, pruning, and the end-to-end check."""

import importlib
import json
import random
import sys
from collections import defaultdict
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings, strategies as st

import iacompat as ia
from oracles import oracle_reachable, oracle_verdict
from randgen import INT_DECLS, cycle_pair, rand_composable_pair, rand_int_constraint

verifier = importlib.import_module("iacompat.verifier")


def _lab(name):
    return ia.ActionLabel(name)


def _auto(name, states, initials, inputs=(), outputs=(), hidden=(),
          transitions=(), variables=None, pres=None, posts=None):
    return ia.InterfaceAutomaton(
        name=name, states=tuple(states), initials=tuple(initials),
        inputs=tuple(inputs), outputs=tuple(outputs), hidden=tuple(hidden),
        transitions=tuple(transitions), variables=variables or {},
        preconditions=pres or {}, postconditions=posts or {})


def _qualified_fixture_pair():
    ld = ia.qualify_hidden(ia.load_fixture("le_device.ia").automaton("LE_Device"))
    tl = ia.qualify_hidden(ia.load_fixture("transport_layer.ia").automaton("TransportLayer"))
    return ld, tl


# ---------------------------------------------------------------------------
# illegal states


def test_minimal_unreceived_output():
    x = _lab("x")
    a = _auto("A", ["s1"], ["s1"], outputs=[x],
              transitions=[ia.Transition("s1", None, x, None, "s1")])
    b = _auto("B", ["t1"], ["t1"], inputs=[x])  # declares x, never enables it
    prod = ia.product(a, b)
    ill = ia.illegal_states(prod)
    assert ill.states == frozenset({"s1__t1"})
    (reason,) = ill.reasons["s1__t1"]
    assert isinstance(reason, ia.UnreceivedOutput)
    assert reason.action == x
    assert reason.sender == "left"


def test_all_guards_false_state():
    x_decl = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10))}
    dead = ia.parse_constraint("context A::go() pre Dead: x < 0", x_decl)
    go = _lab("go")
    a = _auto("A", ["s0", "s1"], ["s0"], hidden=[go],
              variables=x_decl, pres={"Dead": dead},
              transitions=[ia.Transition("s0", "Dead", go, None, "s1")])
    b = _auto("B", ["t0"], ["t0"])
    prod = ia.product(a, b)
    ill = ia.illegal_states(prod)
    assert "s0__t0" in ill.states
    (reason,) = ill.reasons["s0__t0"]
    assert isinstance(reason, ia.AllGuardsFalse)
    assert len(reason.transitions) == 1


def test_deadlock_not_illegal_by_default():
    go = _lab("go")
    a = _auto("A", ["s0", "s1"], ["s0"], hidden=[go],
              transitions=[ia.Transition("s0", None, go, None, "s1")])
    b = _auto("B", ["t0"], ["t0"])
    prod = ia.product(a, b)
    assert ia.illegal_states(prod).states == frozenset()
    strict = ia.illegal_states(prod, strict_deadlock=True)
    assert "s1__t0" in strict.states


def test_satisfiable_guard_not_illegal():
    x_decl = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10))}
    ok = ia.parse_constraint("context A::go() pre Ok: x < 10", x_decl)
    go = _lab("go")
    a = _auto("A", ["s0", "s1"], ["s0"], hidden=[go],
              variables=x_decl, pres={"Ok": ok},
              transitions=[ia.Transition("s0", "Ok", go, None, "s1")])
    b = _auto("B", ["t0"], ["t0"])
    prod = ia.product(a, b)
    assert ia.illegal_states(prod).states == frozenset()


def test_pre_and_post_of_one_name_keep_separate_verdicts():
    # pre C is false and post C is not; one shared verdict would let the
    # satisfiable post C keep s1's only step enabled
    x_decl = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10))}
    pre = ia.parse_constraint("context A::stay() pre C: x < 0", x_decl)
    post = ia.parse_constraint("context A::go() post C: x >= 0", x_decl)
    go, stay = _lab("go"), _lab("stay")
    a = _auto("A", ["s0", "s1"], ["s0"], hidden=[go, stay], variables=x_decl,
              pres={"C": pre}, posts={"C": post},
              transitions=[ia.Transition("s0", None, go, "C", "s1"),
                           ia.Transition("s1", "C", stay, None, "s1")])
    b = _auto("B", ["t"], ["t"])
    assert ia.validate(a) == []
    prod = ia.product(a, b)
    ill = ia.illegal_states(prod)
    assert ill.states == frozenset({"s1__t"})
    (reason,) = ill.reasons["s1__t"]
    assert reason == ia.AllGuardsFalse((ia.Transition("s1__t", "C", stay, None, "s1__t"),))


@pytest.fixture
def queried(monkeypatch):
    """The names of the constraints ``illegal_states`` queries, in order."""
    names = []
    original = verifier.constraint_falsity

    def counted(c, *args, **kwargs):
        names.append(c.name)
        return original(c, *args, **kwargs)

    monkeypatch.setattr(verifier, "constraint_falsity", counted)
    return names


def _one_state_with(steps):
    """A over ``x`` with the guards Dead and Ok (pre), Never and Fine (post),
    whose state s0 has ``steps`` as (pre, action, post), each back to s0."""
    x_decl = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10))}
    pres = {name: ia.parse_constraint(f"context A::go() pre {name}: {body}", x_decl)
            for name, body in (("Dead", "x < 0"), ("Ok", "x < 10"))}
    posts = {name: ia.parse_constraint(f"context A::go() post {name}: {body}", x_decl)
             for name, body in (("Never", "x > 10"), ("Fine", "x >= x@pre"))}
    actions = sorted({_lab(a) for _, a, _ in steps})
    a = _auto("A", ["s0"], ["s0"], hidden=actions, variables=x_decl, pres=pres, posts=posts,
              transitions=[ia.Transition("s0", pre, _lab(a), post, "s0") for pre, a, post in steps])
    return ia.product(a, _auto("B", ["t"], ["t"]))


def test_a_state_with_an_unguarded_step_queries_no_guard(queried):
    prod = _one_state_with([("Dead", "go", None), (None, "stay", None)])
    assert ia.illegal_states(prod).states == frozenset()
    assert queried == []


def test_the_first_enabled_step_ends_the_scan(queried):
    prod = _one_state_with([("Ok", "go", None), ("Dead", "stay", "Never")])
    assert ia.illegal_states(prod).states == frozenset()
    assert queried == ["Ok"]


def test_an_unknown_guard_ends_the_scan_as_an_enabled_step(queried):
    # 11 values of x and 11 of x@pre are more than a budget of 1 allows
    prod = _one_state_with([(None, "go", "Fine"), ("Dead", "stay", None)])
    assert ia.illegal_states(prod, budget=1).states == frozenset()
    assert queried == ["Fine"]


def test_a_state_whose_steps_are_all_disabled_queries_every_guard(queried):
    # the post of a step whose pre is FALSE is never queried
    prod = _one_state_with([("Dead", "go", "Fine"), ("Ok", "stay", "Never"), (None, "back", "Never")])
    ill = ia.illegal_states(prod)
    assert queried == ["Dead", "Ok", "Never"]
    assert ill.states == frozenset({"s0__t"})
    assert ill.reasons["s0__t"] == (ia.AllGuardsFalse(tuple(prod.automaton.transitions)),)
    assert [t.action for t in prod.automaton.transitions] == [_lab("go"), _lab("stay"), _lab("back")]


def test_a_state_with_no_step_queries_nothing_under_either_reading(queried):
    x_decl = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10))}
    dead = ia.parse_constraint("context A::go() pre Dead: x < 0", x_decl)
    go = _lab("go")
    a = _auto("A", ["s0", "s1"], ["s0"], hidden=[go], variables=x_decl, pres={"Dead": dead},
              transitions=[ia.Transition("s0", None, go, None, "s1")])
    prod = ia.product(a, _auto("B", ["t0"], ["t0"]))
    assert ia.illegal_states(prod).states == frozenset()
    strict = ia.illegal_states(prod, strict_deadlock=True)
    assert strict.states == frozenset({"s1__t0"})
    assert strict.reasons["s1__t0"] == (ia.AllGuardsFalse(()),)
    assert queried == []


def test_the_case_study_check_queries_no_guard(queried):
    ld = ia.load_fixture("le_device.ia").automaton("LE_Device")
    tl = ia.load_fixture("transport_layer.ia").automaton("TransportLayer")
    rep = ia.check_compatibility(ld, tl, ia.CompatOptions(qualify_hidden=True))
    assert len(rep.illegal.states) == 21
    assert queried == []


# a pair shaped like the guard-stress workload's: named guards over the case
# study's declarations, which a check queries
GUARDED_PAIR = """
type Claim = enum { undecided, leader, follower, off };
contract Sender {
  states s0, s1;
  initial s0;
  inputs;
  outputs go, stop;
  hidden;
  var myCS : record { c : Claim, s : int[0..10] };
  context Sender::go() { pre Low: myCS.s < 3; pre Lead: myCS.c = <leader> and myCS.s > 4; }
  post Up: myCS.s = myCS@pre.s + 1;
  transitions { s0 -[go pre Low post Up]-> s1; s1 -[stop pre Lead]-> s0; }
}
contract Receiver {
  states t0, t1;
  initial t0;
  inputs go, stop;
  outputs;
  hidden;
  var myCS : record { c : Claim, s : int[0..10] };
  pre Never: myCS.s > 10;
  pre Off: myCS.c = <off>;
  transitions { t0 -[go pre Never]-> t1; t1 -[stop pre Off]-> t0; }
}
"""


def _calls(run):
    """Runs ``run()``; the frames each Python function ran in, and the callers of each, by name."""
    frames, callers = defaultdict(dict), defaultdict(set)

    def hook(frame, event, _):
        if event == "call":  # a generator's frame is called again at each resume
            name = frame.f_code.co_name
            frames[name][id(frame)] = frame
            callers[name].add(frame.f_back.f_code.co_name)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {name: len(f) for name, f in frames.items()}, callers


@pytest.mark.parametrize("texts, queries", [
    ((ia.fixture_text("le_device.ia"), ia.fixture_text("transport_layer.ia")), False),
    ((GUARDED_PAIR,), True),
])
def test_a_check_proves_each_parsed_automaton_once(texts, queries):
    # the parser runs the step rules and sort-checks every body; validate reads that proof
    def run():
        automata = [a for text in texts for a in ia.parse_document(text).automata]
        ia.check_compatibility(*automata, ia.CompatOptions(qualify_hidden=True))

    frames, callers = _calls(run)
    assert frames["step_faults"] == 2 and callers["step_faults"] == {"finish"}
    assert "undeclared_paths" not in frames and "_diagnostics" not in frames
    assert callers["bind_path"] == ({"sort_of_path", "prepare"} if queries else {"sort_of_path"})


def test_fixture_illegal_set_against_oracle():
    ld, tl = _qualified_fixture_pair()
    prod = ia.product(ld, tl)
    ill = ia.illegal_states(prod)
    assert len(ill.states) == 21
    _, _, orc_ill, _ = oracle_verdict(ld, tl)
    reach_pairs = {prod.pair_of[s] for s in prod.automaton.states}
    assert {prod.pair_of[s] for s in ill.states} == (orc_ill & reach_pairs)


# ---------------------------------------------------------------------------
# bad-state closure


def test_bad_states_empty_base():
    ld, tl = _qualified_fixture_pair()
    prod = ia.product(ld, tl)
    empty = ia.IllegalStateSet(frozenset(), {})
    assert ia.bad_states(prod, empty) == frozenset()


def _chain_product():
    # s0 -hidden-> s1 -output-> s2, sink illegal by construction
    h, o, x = _lab("h"), _lab("o"), _lab("x")
    a = _auto("A", ["s0", "s1", "s2"], ["s0"], outputs=[o, x], hidden=[h],
              transitions=[ia.Transition("s0", None, h, None, "s1"),
                           ia.Transition("s1", None, o, None, "s2"),
                           ia.Transition("s2", None, x, None, "s2")])
    b = _auto("B", ["t"], ["t"], inputs=[x])  # x never enabled: (s2,t) illegal
    prod = ia.product(a, b)
    ill = ia.illegal_states(prod)
    assert ill.states == frozenset({"s2__t"})
    return prod, ill


def test_bad_states_chain_closure():
    prod, ill = _chain_product()
    assert ia.bad_states(prod, ill) == frozenset({"s0__t", "s1__t", "s2__t"})


def test_bad_states_input_steps_do_not_propagate():
    go, x = _lab("go"), _lab("x")
    a = _auto("A", ["s0", "s1"], ["s0"], inputs=[go], outputs=[x],
              transitions=[ia.Transition("s0", None, go, None, "s1"),
                           ia.Transition("s1", None, x, None, "s1")])
    b = _auto("B", ["t"], ["t"], inputs=[x])
    prod = ia.product(a, b)
    ill = ia.illegal_states(prod)
    assert ill.states == frozenset({"s1__t"})
    # the environment may withhold `go`, so s0 stays good
    assert ia.bad_states(prod, ill) == frozenset({"s1__t"})


def test_bad_states_counter_ticks():
    prod, ill = _chain_product()
    ctr = ia.OpCounter()
    ia.bad_states(prod, ill, counter=ctr)
    # at least one tick per transition during the index build
    assert ctr.ops >= len(prod.automaton.transitions)


def test_bad_states_counter_counts_exact_closure_work():
    # one op per product transition, per dequeued state and per predecessor scanned
    prod, ill = _chain_product()
    ctr = ia.OpCounter()
    ia.bad_states(prod, ill, counter=ctr)
    assert ctr.ops == 2 + 3 + 2
    a, b = cycle_pair(3, 2)
    prod = ia.product(a, b)
    ia.bad_states(prod, ia.illegal_states(prod), counter=ctr)
    assert ctr.ops == 7 + (12 + 6 + 12)  # a counter passed again adds to its count


def test_fixture_bad_states_against_oracle():
    ld, tl = _qualified_fixture_pair()
    prod = ia.product(ld, tl)
    ill = ia.illegal_states(prod)
    bad = ia.bad_states(prod, ill)
    assert len(bad) == 57  # everything reachable is bad
    _, _, _, orc_bad = oracle_verdict(ld, tl)
    reach_pairs = {prod.pair_of[s] for s in prod.automaton.states}
    assert {prod.pair_of[s] for s in bad} == (orc_bad & reach_pairs)


# ---------------------------------------------------------------------------
# pruning


def test_prune_identity():
    ld, tl = _qualified_fixture_pair()
    prod = ia.product(ld, tl)
    pruned = ia.prune(prod, frozenset())
    assert pruned is prod.automaton


def test_a_stateless_operand_prunes_to_the_empty_automaton():
    e = ia.InterfaceAutomaton(name="E", states=(), initials=(), inputs=(),
                              outputs=(ia.ActionLabel("ping"),), hidden=())
    rep = ia.check_compatibility(e, ia.load_fixture("pong.ia").automaton())
    assert rep.pruned == ia.empty_automaton("E_x_Pong")
    assert rep.verdict is ia.CompatVerdict.INCOMPATIBLE
    assert rep.cause is ia.IncompatibilityCause.EMPTY_AFTER_PRUNING


def test_prune_all_initials_yields_empty():
    prod, _ = _chain_product()
    pruned = ia.prune(prod, frozenset(prod.automaton.initials))
    assert not pruned.states
    assert pruned.initials == ()


def test_prune_matches_reachability_oracle():
    rng = random.Random(11)
    for _ in range(40):
        a1, a2 = rand_composable_pair(rng)
        prod = ia.product(a1, a2)
        states = list(prod.automaton.states)
        removed = frozenset(s for s in states if rng.random() < 0.3)
        pruned = ia.prune(prod, removed)
        edges = [(t.source, t.target) for t in prod.automaton.transitions]
        want = oracle_reachable(prod.automaton.initials, edges, removed)
        assert set(pruned.states) == want
        assert all(t.source in want and t.target in want for t in pruned.transitions)


def _replaced_prune(prod, remove):
    """The reachable part as a fresh ``_replace`` of the product automaton."""
    auto = prod.automaton
    initials = tuple(s for s in auto.initials if s not in remove)
    if not initials:
        return ia.empty_automaton(auto.name)
    keep = oracle_reachable(initials, [(t.source, t.target) for t in auto.transitions], remove)
    return auto._replace(
        states=tuple(s for s in auto.states if s in keep), initials=initials,
        transitions=tuple(t for t in auto.transitions if t.source in keep and t.target in keep))


def _with_a_step_twice(a, rng):
    if not a.transitions:
        return a
    steps = list(a.transitions)
    steps.insert(rng.randrange(len(steps) + 1), rng.choice(steps))
    return a._replace(transitions=tuple(steps))


def test_handed_over_indexes_agree_with_rebuilt_ones():
    rng = random.Random(16)
    for i in range(200):
        a1, a2 = rand_composable_pair(rng)
        if i % 2:  # one side lists a step twice; the product keeps it once
            a1, a2 = _with_a_step_twice(a1, rng), _with_a_step_twice(a2, rng)
        prod = ia.product(a1, a2)
        auto = prod.automaton
        rebuilt = auto._replace().graph  # a fresh value numbers its own transitions
        assert (auto.graph.names, auto.graph.steps, auto.graph.initials) == (
            rebuilt.names, rebuilt.steps, rebuilt.initials)
        assert len(set(auto.transitions)) == len(auto.transitions)
        for a in (a1, a2, auto):
            assert a.autonomous == (set(a.outputs) | set(a.hidden)) - set(a.inputs)
            labels = {s: set() for s in a.states}
            for t in a.transitions:
                labels[t.source].add(t.action)
            for cls in ia.ActionClass:
                assert a.enabled[cls] == {
                    s: {l for l in here if a.classes.get(l) is cls} for s, here in labels.items()}
        for p in (0.0, 0.2, 0.6, 1.0):
            remove = frozenset(s for s in auto.states if rng.random() < p)
            assert ia.prune(prod, remove) == _replaced_prune(prod, remove)
        ctr = ia.OpCounter()
        assert ia.bad_states(prod, ia.IllegalStateSet(frozenset(), {}), counter=ctr) == frozenset()
        assert ctr.ops == 0  # nothing to close, nothing counted


def _receptive_pair():
    """A guard-free pair whose receiver takes ``go`` everywhere: compatible, 4 pair states."""
    go, ha, hb = _lab("go"), _lab("ha"), _lab("hb")
    a = _auto("A", ["a0", "a1"], ["a0"], outputs=[go], hidden=[ha],
              transitions=[ia.Transition("a0", None, go, None, "a1"), ia.Transition("a1", None, ha, None, "a0"),
                           ia.Transition("a1", None, go, None, "a1")])
    b = _auto("B", ["b0", "b1"], ["b0"], inputs=[go], hidden=[hb],
              transitions=[ia.Transition("b0", None, go, None, "b1"), ia.Transition("b1", None, go, None, "b0"),
                           ia.Transition("b1", None, hb, None, "b1")])
    return a, b


def test_a_compatible_guard_free_check_builds_no_product_transition():
    rep = ia.check_compatibility(*_receptive_pair())
    text = ia.report_to_json(rep)
    assert rep.verdict is ia.CompatVerdict.COMPATIBLE and rep.pruned is rep.product.automaton
    assert json.loads(text)["product"]["transitions"] == 8
    # the product's Transition tuples are built on first read, and nothing read them
    assert "transitions" not in vars(rep.product.automaton.graph)


def test_product_transitions_read_after_a_check_keep_their_order():
    rep = ia.check_compatibility(*_receptive_pair())
    ia.report_to_json(rep)
    go, ha, hb = _lab("go"), _lab("ha"), _lab("hb")
    T = ia.Transition
    assert rep.product.automaton.transitions == (
        T("a0__b0", None, go, None, "a1__b1"),
        T("a1__b1", None, ha, None, "a0__b1"),
        T("a1__b1", None, go, None, "a1__b0"),
        T("a1__b1", None, hb, None, "a1__b1"),
        T("a0__b1", None, go, None, "a1__b0"),
        T("a0__b1", None, hb, None, "a0__b1"),
        T("a1__b0", None, ha, None, "a0__b0"),
        T("a1__b0", None, go, None, "a1__b1"),
    )
    assert all(type(t) is ia.Transition for t in rep.pruned.transitions)
    assert rep.pruned.transitions is rep.product.automaton.transitions  # built once


# ---------------------------------------------------------------------------
# end-to-end check


def test_raw_fixtures_not_composable():
    ld = ia.load_fixture("le_device.ia").automaton("LE_Device")
    tl = ia.load_fixture("transport_layer.ia").automaton("TransportLayer")
    rep = ia.check_compatibility(ld, tl)
    assert rep.verdict is ia.CompatVerdict.INCOMPATIBLE
    assert rep.cause is ia.IncompatibilityCause.NOT_COMPOSABLE
    assert rep.composability.conflict_actions() == {_lab("init")}
    assert rep.product is None


def test_qualified_fixtures_incompatible_frozen_stats():
    ld, tl = _qualified_fixture_pair()
    rep = ia.check_compatibility(ld, tl)
    assert rep.verdict is ia.CompatVerdict.INCOMPATIBLE
    assert rep.cause is ia.IncompatibilityCause.EMPTY_AFTER_PRUNING
    assert len(rep.product.automaton.states) == 57
    assert len(rep.product.automaton.transitions) == 185
    assert len(rep.illegal.states) == 21
    assert len(rep.bad) == 57
    assert not rep.pruned.states
    assert rep.witness is not None
    assert rep.witness.states[0] == "Off__Init"
    assert rep.witness.states[-1] in rep.illegal.states


def test_qualify_option_equivalent_to_prequalified():
    ld = ia.load_fixture("le_device.ia").automaton("LE_Device")
    tl = ia.load_fixture("transport_layer.ia").automaton("TransportLayer")
    via_option = ia.check_compatibility(ld, tl, ia.CompatOptions(qualify_hidden=True))
    ld2, tl2 = _qualified_fixture_pair()
    direct = ia.check_compatibility(ld2, tl2)
    assert via_option.verdict == direct.verdict
    assert via_option.illegal.states == direct.illegal.states
    assert via_option.product.operands == direct.product.operands == (ld2, tl2)


@pytest.mark.parametrize("empty_left", [True, False])
def test_an_empty_operand_prunes_to_the_canonical_empty_automaton(empty_left):
    # the product keeps the other side's alphabet; the pruned automaton does not
    ping, empty = ia.load_fixture("ping.ia").automaton(), ia.empty_automaton("E")
    left, right = (empty, ping) if empty_left else (ping, empty)
    rep = ia.check_compatibility(left, right)
    name = f"{left.name}_x_{right.name}"
    assert rep.pruned == ia.empty_automaton(name)

    def summary(outputs):
        return {"name": name, "states": 0, "transitions": 0, "initials": [],
                "inputs": [], "outputs": outputs, "hidden": []}
    want = {
        "schema": "compat-report@1", "left": left.name, "right": right.name,
        "options": {"qualify_hidden": False, "strict_deadlock": False, "enum_budget": 10**6},
        "composable": {"ok": True, "conflicts": []}, "shared": [],
        "product": summary(["ping"]), "illegal": [], "bad": [], "pruned": summary([]),
        "verdict": "incompatible", "cause": "empty_after_pruning", "witness": None,
    }
    assert ia.report_to_json(rep) == json.dumps(want, indent=2, sort_keys=True) + "\n"


# every value a report holds, and the hard cases of each: empty containers,
# non-ASCII and control characters, quotes, backslashes, and ints of any sign and size
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example([])
@example({})
@example({"": [], "a": {}, "b": [[], {}]})
@example(["caf\u00e9 \u2192 \U0001f600", 'say "hi"', "back\\slash", "\x00\x1f\x7f\n\t\r"])
@example({"\u00e9": -1, "\x01": -(10**300), '"': 10**300, "\\": 0})
def test_the_report_writer_matches_json_dumps(value):
    want = json.dumps(value, indent=2, sort_keys=True)
    assert verifier._to_json(value, encode_basestring_ascii, "\n") == want


@pytest.mark.parametrize("value", [1.5, ("a",), {"a"}, {1: "a"}, [{"a": (1,)}], b"a"], ids=repr)
def test_the_report_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        verifier._to_json(value, encode_basestring_ascii, "\n")


def test_minimal_compatible_pair():
    x = _lab("x")
    a = _auto("A", ["s"], ["s"], outputs=[x],
              transitions=[ia.Transition("s", None, x, None, "s")])
    b = _auto("B", ["t"], ["t"], inputs=[x],
              transitions=[ia.Transition("t", None, x, None, "t")])
    rep = ia.check_compatibility(a, b)
    assert rep.verdict is ia.CompatVerdict.COMPATIBLE
    assert rep.cause is None
    pruned = rep.pruned
    assert pruned.states == ("s__t",)
    assert set(pruned.hidden) == {x}
    (t,) = pruned.transitions
    assert (t.source, t.action, t.target) == ("s__t", x, "s__t")


def test_emit_then_unreceived_witness():
    x, y = _lab("x"), _lab("y")
    a = _auto("A", ["s0", "s1", "s2"], ["s0"], outputs=[x, y],
              transitions=[ia.Transition("s0", None, x, None, "s1"),
                           ia.Transition("s1", None, y, None, "s2")])
    b = _auto("B", ["t0"], ["t0"], inputs=[x, y],
              transitions=[ia.Transition("t0", None, x, None, "t0")])
    rep = ia.check_compatibility(a, b)
    assert rep.verdict is ia.CompatVerdict.INCOMPATIBLE
    assert rep.cause is ia.IncompatibilityCause.EMPTY_AFTER_PRUNING
    assert len(rep.witness.steps) == 1
    assert rep.witness.steps[0].action == x
    assert rep.witness.states == ("s0__t0", "s1__t0")
    (reason,) = rep.illegal.reasons["s1__t0"]
    assert reason.action == y


def test_invalid_automaton_rejected():
    broken = _auto("A", ["s"], [], inputs=[_lab("x")])
    good = _auto("B", ["t"], ["t"])
    with pytest.raises(ia.InvalidAutomaton) as exc:
        ia.check_compatibility(broken, good)
    assert any("initial set empty" in str(d) for d in exc.value.diagnostics)


def test_a_path_into_an_int_parameter_is_rejected_before_any_query():
    # built in code, so no sort check saw it: p is an int and has no field q
    body = ia.parse_expression("p.q < 1")
    g = ia.NamedConstraint("G", ia.ConstraintKind.PRE, body,
                           ia.ConstraintContext("A", "go", (ia.ParamDecl("p", ia.IntRangeDomain(0, 3)),)))
    go = _lab("go")
    a = _auto("A", ["s"], ["s"], hidden=[go], pres={"G": g},
              transitions=[ia.Transition("s", "G", go, None, "s")])
    with pytest.raises(ia.InvalidAutomaton) as exc:
        ia.check_compatibility(a, _auto("B", ["t"], ["t"]))
    assert [(d.code, d.message) for d in exc.value.diagnostics] == [
        ("constraint-variable", "precondition G references undeclared variable p.q")]


def test_enum_budget_option_flows_to_falsity():
    # a budget of 1 cannot refute the dead guard, so the state stays legal;
    # x + x ranges over [0, 20], so bounds alone cannot refute it either
    x_decl = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10))}
    dead = ia.parse_constraint("context A::go() pre Dead: x + x = 1", x_decl)
    go = _lab("go")
    a = _auto("A", ["s0", "s1"], ["s0"], hidden=[go],
              variables=x_decl, pres={"Dead": dead},
              transitions=[ia.Transition("s0", "Dead", go, None, "s1")])
    b = _auto("B", ["t0"], ["t0"])
    full = ia.check_compatibility(a, b)
    assert full.verdict is ia.CompatVerdict.INCOMPATIBLE
    capped = ia.check_compatibility(a, b, ia.CompatOptions(enum_budget=1))
    assert capped.verdict is ia.CompatVerdict.COMPATIBLE


# ---------------------------------------------------------------------------
# properties


def _naive_distance(auto, targets):
    """Fewest output/hidden steps from an initial state into ``targets``,
    by rescanning every transition in each BFS round."""
    autonomous = set(auto.outputs) | set(auto.hidden)
    frontier, seen, dist = set(auto.initials), set(auto.initials), 0
    while frontier:
        if frontier & targets:
            return dist
        frontier = {t.target for t in auto.transitions
                    if t.source in frontier and t.target not in seen
                    and t.action in autonomous}
        seen |= frontier
        dist += 1
    return None


def _assert_shortest_witness(prod, targets):
    auto = prod.automaton
    want = _naive_distance(auto, targets)
    w = ia.shortest_witness(prod, ia.IllegalStateSet(targets, {}))
    if want is None:
        assert w is None
        return
    assert w.states[0] in auto.initials
    assert len(w.states) == len(w.steps) + 1
    steps = set(auto.transitions)
    for src, t, dst in zip(w.states, w.steps, w.states[1:]):
        assert t in steps and (t.source, t.target) == (src, dst)
        assert t.action in auto.outputs or t.action in auto.hidden
    assert w.states[-1] in targets
    assert len(w.steps) == want


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), max_states=st.sampled_from((4, 30)))
def test_witness_is_a_shortest_autonomous_path(seed, max_states):
    # a single random target as well: the illegal sets of random pairs are
    # dense, so their witnesses are too short to tell a BFS from a DFS
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng, max_states)
    prod = ia.product(a1, a2)
    _assert_shortest_witness(prod, ia.illegal_states(prod).states)
    _assert_shortest_witness(prod, frozenset({rng.choice(prod.automaton.states)}))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_verdict_matches_oracle(seed):
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng)
    rep = ia.check_compatibility(a1, a2)
    eng = rep.verdict is ia.CompatVerdict.COMPATIBLE
    orc = oracle_verdict(a1, a2)[0]
    assert eng == orc


def _eager_guard_reasons(prod, *, strict_deadlock, budget):
    """The all-guards-FALSE reason of each state by the eager rule: every step
    guard decided on its own, and a state condemned exactly when each of its
    steps has a FALSE pre or post."""
    auto = prod.automaton

    def false_names(registry):
        return {name for name, c in registry.items()
                if ia.constraint_falsity(c, auto.variables, budget=budget).verdict is ia.Verdict.FALSE}

    pre_false, post_false = false_names(auto.preconditions), false_names(auto.postconditions)
    found = {}
    for pid in auto.states:
        out = [t for t in auto.transitions if t.source == pid]
        if all(t.pre in pre_false or t.post in post_false for t in out) and (out or strict_deadlock):
            found[pid] = ia.AllGuardsFalse(tuple(out))
    return found


def _with_int_guards(a, rng):
    """``a`` over INT_DECLS, each of its guards redrawn by rand_int_constraint."""
    def redraw(registry):
        return {n: rand_int_constraint(rng, n, c.kind, a.name, c.context.operation) for n, c in registry.items()}
    return a._replace(variables={d.name: d for d in INT_DECLS},
                      preconditions=redraw(a.preconditions), postconditions=redraw(a.postconditions))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), int_guards=st.booleans(),
       budget=st.sampled_from((16, 10**6)), strict_deadlock=st.booleans())
def test_the_lazy_guard_scan_matches_the_eager_rule(seed, int_guards, budget, strict_deadlock):
    # the int guards read more values than a budget of 16 allows, so there an
    # Unknown-guarded step ends a scan as an enabled one does
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng, 6)
    if int_guards:
        a1, a2 = _with_int_guards(a1, rng), _with_int_guards(a2, rng)
    prod = ia.product(a1, a2)
    ill = ia.illegal_states(prod, strict_deadlock=strict_deadlock, budget=budget)
    eager = _eager_guard_reasons(prod, strict_deadlock=strict_deadlock, budget=budget)
    want = {}
    for pid in prod.automaton.states:
        reasons = [r for r in ill.reasons.get(pid, ()) if isinstance(r, ia.UnreceivedOutput)]
        reasons += [eager[pid]] if pid in eager else []
        if reasons:
            want[pid] = tuple(reasons)
    assert ill.states == frozenset(want)
    assert dict(ill.reasons) == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pipeline_invariants(seed):
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng)
    rep = ia.check_compatibility(a1, a2)
    assert rep.illegal.states <= rep.bad
    pruned = rep.pruned
    kept = set(pruned.states)
    assert not (kept & rep.bad)
    assert not (kept & rep.illegal.states)
    edges = [(t.source, t.target) for t in pruned.transitions]
    assert kept == oracle_reachable(pruned.initials, edges)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_verdict_stability_under_swap(seed):
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng)
    assert (ia.check_compatibility(a1, a2).verdict
            == ia.check_compatibility(a2, a1).verdict)
    # the illegal pairs mirror, and each unreceived output names the other sender
    p12, p21 = ia.product(a1, a2), ia.product(a2, a1)
    i12, i21 = ia.illegal_states(p12), ia.illegal_states(p21)
    at21 = {pair[::-1]: s for s, pair in p21.pair_of.items()}
    assert {at21[p12.pair_of[s]] for s in i12.states} == i21.states
    flip = {"left": "right", "right": "left"}
    for s in i12.states:
        unreceived = [r for r in i12.reasons[s] if isinstance(r, ia.UnreceivedOutput)]
        assert [ia.UnreceivedOutput(r.action, flip[r.sender]) for r in unreceived] == [
            r for r in i21.reasons[at21[p12.pair_of[s]]] if isinstance(r, ia.UnreceivedOutput)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_monotone_environment(seed):
    # a fresh non-shared input transition never breaks a compatible pair
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng)
    rep = ia.check_compatibility(a1, a2)
    if rep.verdict is not ia.CompatVerdict.COMPATIBLE:
        return
    fresh = _lab("envOnly")
    src = rng.choice(a1.states)
    tgt = rng.choice(a1.states)
    widened = a1._replace(inputs=a1.inputs + (fresh,),
                         transitions=(*a1.transitions, ia.Transition(src, None, fresh, None, tgt)))
    rep2 = ia.check_compatibility(widened, a2)
    assert rep2.verdict is ia.CompatVerdict.COMPATIBLE
