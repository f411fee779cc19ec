"""Core automaton operations: validate, enabled actions, composability,
qualification, synchronized product."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import iacompat as ia
from oracles import interleaving_size, oracle_shared
from randgen import rand_composable_pair

GOLDEN = Path(__file__).parent / "data" / "golden"


def _lab(*names):
    return tuple(ia.ActionLabel(n) for n in names)


def _ld():
    return ia.load_fixture("le_device.ia").automaton("LE_Device")


def _tl():
    return ia.load_fixture("transport_layer.ia").automaton("TransportLayer")


# ---------------------------------------------------------------------------
# label and transition values


def test_action_label_rejects_non_identifiers():
    with pytest.raises(ValueError, match=r"^action name is not an identifier: '1x'$"):
        ia.ActionLabel("1x")
    with pytest.raises(ValueError, match=r"^namespace is not an identifier: '9'$"):
        ia.ActionLabel("a", "9")


def test_action_label_text_and_order():
    plain, qualified = ia.ActionLabel("a"), ia.ActionLabel("a", "N")
    assert (str(plain), str(qualified)) == ("a", "N::a")
    assert repr(plain) == "ActionLabel(name='a', namespace=None)"
    assert repr(qualified) == "ActionLabel(name='a', namespace='N')"
    assert (plain.sort_key, qualified.sort_key) == (("", "a"), ("N", "a"))
    assert sorted([ia.ActionLabel("b"), ia.ActionLabel("a", "Z"), ia.ActionLabel("a", "N")],
                  key=lambda l: l.sort_key) == [ia.ActionLabel("b"), qualified,
                                                ia.ActionLabel("a", "Z")]
    # the natural order compares name first, then namespace
    assert sorted([ia.ActionLabel("b"), ia.ActionLabel("a", "Z"), qualified]) == [
        qualified, ia.ActionLabel("a", "Z"), ia.ActionLabel("b")]


def test_labels_parsed_apart_are_equal_and_hash_equal():
    text = ia.fixture_text("ping.ia")
    (ping1,) = ia.parse_document(text).automaton("Ping").outputs
    (ping2,) = ia.parse_document(text).automaton("Ping").outputs
    assert ping1 is not ping2
    assert ping1 == ping2 == ia.ActionLabel("ping")
    assert hash(ping1) == hash(ping2)
    assert ping2 in {ping1} and {ping1: 1}[ping2] == 1


def test_product_keeps_the_order_of_repeated_shared_steps():
    pre_p = ia.parse_constraint("context A::go() pre P: true")
    pre_q = ia.parse_constraint("context B::go() pre Q: true")
    go, k, h = ia.ActionLabel("go"), ia.ActionLabel("k"), ia.ActionLabel("h")
    a = ia.InterfaceAutomaton(name="A", states=("s", "s1"), initials=("s",),
                              inputs=(), outputs=(go,), hidden=(k,),
                              preconditions={"P": pre_p},
                              transitions=(ia.Transition("s", "P", go, None, "s1"),
                                           ia.Transition("s", None, k, None, "s")))
    # t has two steps on the shared go, with a hidden step between them
    b = ia.InterfaceAutomaton(name="B", states=("t", "t1", "t2"), initials=("t",),
                              inputs=(go,), outputs=(), hidden=(h,),
                              preconditions={"Q": pre_q},
                              transitions=(ia.Transition("t", "Q", go, None, "t1"),
                                           ia.Transition("t", None, h, None, "t2"),
                                           ia.Transition("t", None, go, None, "t2")))
    auto = ia.product(a, b).automaton
    assert auto.transitions == (
        ia.Transition("s__t", "P_and_Q", go, None, "s1__t1"),
        ia.Transition("s__t", "P", go, None, "s1__t2"),
        ia.Transition("s__t", None, k, None, "s__t"),
        ia.Transition("s__t", None, h, None, "s__t2"),
        ia.Transition("s__t2", None, k, None, "s__t2"),
    )
    assert auto.states == ("s__t", "s1__t1", "s1__t2", "s__t2")


# ---------------------------------------------------------------------------
# structural validation


def test_fixture_validates_clean():
    assert ia.validate(_ld()) == []
    assert ia.validate(_tl()) == []


def test_empty_initials_diagnosed():
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=(),
                              inputs=(), outputs=(), hidden=())
    msgs = [d.message for d in ia.validate(a)]
    assert "initial set empty" in msgs


def test_alphabet_overlap_diagnosed():
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=_lab("turnOn"), outputs=(), hidden=_lab("turnOn"))
    msgs = [d.message for d in ia.validate(a)]
    assert "alphabets not disjoint: turnOn" in msgs


def test_unknown_transition_endpoints_diagnosed():
    a = ia.InterfaceAutomaton(
        name="A", states=("s",), initials=("s",),
        inputs=_lab("go"), outputs=(), hidden=(),
        transitions=(ia.Transition("s", None, ia.ActionLabel("go"), None, "nowhere"),))
    assert any("nowhere" in d.message for d in ia.validate(a))


def test_step_faults_are_listed_in_order_at_their_step():
    go = ia.ActionLabel("go")
    a = ia.InterfaceAutomaton(
        name="A", states=("s", "t"), initials=("s",), inputs=(go,), outputs=(), hidden=(),
        transitions=(ia.Transition("t", None, go, None, "s"),
                     ia.Transition("u", "P", ia.ActionLabel("nogo"), None, "v")))
    codes = ["transition-source", "transition-target", "transition-action", "transition-pre"]
    assert [(d.code, d.location) for d in ia.validate(a)] == [
        (code, "transition 2: u -[nogo]-> v") for code in codes]


def test_undeclared_constraint_name_diagnosed():
    a = ia.InterfaceAutomaton(
        name="A", states=("s",), initials=("s",),
        inputs=_lab("go"), outputs=(), hidden=(),
        transitions=(ia.Transition("s", "noPre", ia.ActionLabel("go"), None, "s"),))
    assert any("noPre" in d.message for d in ia.validate(a))


def test_missing_field_of_a_declared_record_diagnosed():
    ld = _ld()
    typo = ia.NamedConstraint("Typo", ia.ConstraintKind.PRE, ia.VarRef(("myCS", "nosuch")))
    diags = ia.validate(ld._replace(preconditions={**ld.preconditions, "Typo": typo}))
    assert [(d.code, d.message) for d in diags] == [
        ("constraint-variable", "precondition Typo references undeclared variable myCS.nosuch")]


def test_undeclared_paths_are_sorted_once_and_resolve_parameters_first():
    # p binds the int parameter, which has no field q, though a variable p.q is declared
    c = ia.parse_constraint("context A::op(p : int[0..3]) pre G: "
                            "z.b = 1 and p.q = 2 and y = 1 and a = 1 and z.b = 2 and p = 1")
    assert c.undeclared_paths({"y": ia.IntRangeDomain(0, 2), "p.q": ia.IntRangeDomain(0, 2)}) == ["a", "p.q", "z.b"]


_X_AS_Y = {"x": ia.VariableDecl("y", ia.IntRangeDomain(0, 2))}
_PRE_Q = ia.parse_constraint("pre Q: true")
_POST_P = ia.parse_constraint("post P: true")


@pytest.mark.parametrize("fields, message", [
    # each would print a document that does not parse back
    (dict(variables=_X_AS_Y), "variable 'x' is declared as 'y'"),
    (dict(preconditions={"P": _PRE_Q}), "constraint 'Q' is registered under 'P'"),
    (dict(preconditions={"P": _POST_P}), "constraint 'P' is a post, registered as a pre"),
    (dict(postconditions={"Q": _PRE_Q}), "constraint 'Q' is a pre, registered as a post"),
])
def test_registries_agree_with_their_values(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=(), outputs=(), hidden=(), **fields)


def test_empty_automaton_is_legal():
    assert ia.validate(ia.empty_automaton()) == []
    assert ia.empty_automaton().is_empty()


# ---------------------------------------------------------------------------
# enabled actions


def test_enabled_actions_fixture_examples():
    ld = _ld()
    assert ld.enabled[ia.ActionClass.INPUT]["OnReady"] == {ia.ActionLabel("receiveMessages")}
    assert ld.enabled[ia.ActionClass.OUTPUT]["Off"] == set()


def test_enabled_actions_terminal_state():
    a = ia.InterfaceAutomaton(name="A", states=("s", "t"), initials=("s",),
                              inputs=_lab("go"), outputs=(), hidden=(),
                              transitions=(ia.Transition("s", None, ia.ActionLabel("go"), None, "t"),))
    for cls in ia.ActionClass:
        assert a.enabled[cls]["t"] == set()


def test_enabled_actions_unknown_state():
    with pytest.raises(KeyError):
        _ld().enabled[ia.ActionClass.INPUT]["NoSuchState"]


def test_action_class_precedence_on_overlap():
    x, y = ia.ActionLabel("x"), ia.ActionLabel("y")
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=(x,), outputs=(x, y), hidden=(x, y))
    assert a.action_class(x) is ia.ActionClass.INPUT
    assert a.action_class(y) is ia.ActionClass.OUTPUT
    assert a.action_class(ia.ActionLabel("z")) is None
    assert [a.decorated(l) for l in (x, y, ia.ActionLabel("z"))] == ["x?", "y!", "z"]


def test_cached_indexes_stay_out_of_the_value():
    ld = _ld()
    text = repr(ld)
    assert ld.enabled[ia.ActionClass.INPUT]["OnReady"] == {ia.ActionLabel("receiveMessages")}
    assert repr(ld) == text
    assert ld == _ld()
    first = ld.transitions[0]
    moved = ld._replace(transitions=(first,))
    assert moved.graph.transitions == (first,) and len(moved.graph) == 1
    assert len(ld.graph) == len(ld.transitions)


# ---------------------------------------------------------------------------
# composability and shared actions


def test_raw_fixture_conflict_is_init_only():
    rep = ia.composable(_ld(), _tl())
    assert not rep.ok
    assert rep.conflict_actions() == {ia.ActionLabel("init")}
    clauses = {c.clause for c in rep.conflicts}
    assert clauses == {"hidden1_sigma2", "sigma1_hidden2"}


def test_qualified_fixtures_compose():
    ld, tl = ia.qualify_hidden(_ld()), ia.qualify_hidden(_tl())
    assert ia.composable(ld, tl).ok
    assert ia.shared(ld, tl) == {ia.ActionLabel("sendMessages"), ia.ActionLabel("receiveMessages")}


def test_self_composition_conflicts_on_inputs():
    ld = _ld()
    rep = ia.composable(ld, ld)
    assert not rep.ok
    assert any(c.clause == "input_input" for c in rep.conflicts)


def test_shared_disjoint_alphabets():
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=_lab("a"), outputs=(), hidden=())
    b = ia.InterfaceAutomaton(name="B", states=("t",), initials=("t",),
                              inputs=_lab("b"), outputs=(), hidden=())
    assert ia.shared(a, b) == set()


def test_shared_single_pair():
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=(), outputs=_lab("x"), hidden=())
    b = ia.InterfaceAutomaton(name="B", states=("t",), initials=("t",),
                              inputs=_lab("x"), outputs=(), hidden=())
    assert ia.shared(a, b) == {ia.ActionLabel("x")}


def test_qualify_hidden_namespaces():
    ld = ia.qualify_hidden(_ld())
    assert ia.ActionLabel("init", namespace="LE_Device") in ld.hidden
    assert ia.ActionLabel("turnOn", namespace="LE_Device") in ld.hidden
    # observable interface untouched
    assert ld.inputs == _ld().inputs
    assert ld.outputs == _ld().outputs
    assert len(ld.transitions) == len(_ld().transitions)
    # a namespace is kept: qualifying twice changes nothing, and the printed
    # case-study product keeps LE_Device::init and TransportLayer::init apart
    assert ia.qualify_hidden(ld) == ld
    (prod,) = ia.parse_document((GOLDEN / "le_device_x_transport_layer.ia").read_text(encoding="utf-8")).automata
    qualified = ia.qualify_hidden(prod)
    assert len(prod.hidden) == len(set(qualified.hidden)) == 23
    assert {ia.ActionLabel("init", "LE_Device"), ia.ActionLabel("init", "TransportLayer")} <= set(qualified.hidden)
    assert ia.qualify_hidden(qualified) == qualified


def test_qualify_hidden_keeps_the_steps_in_order():
    h, qualified_h, go = ia.ActionLabel("h"), ia.ActionLabel("h", "A"), ia.ActionLabel("go")
    T = ia.Transition
    a = ia.InterfaceAutomaton(
        name="A", states=("s", "t"), initials=("s",), inputs=(), outputs=(go,), hidden=(h, qualified_h),
        transitions=(T("t", None, h, None, "s"), T("s", None, go, None, "t"),
                     T("s", None, qualified_h, None, "s"), T("t", None, h, None, "s")))
    q = ia.qualify_hidden(a)
    assert q.hidden == (qualified_h,)
    # declaration order, the repeated step kept
    assert [f"{t.action}@{t.source}" for t in q.transitions] == ["A::h@t", "go@s", "A::h@s", "A::h@t"]
    assert ia.qualify_hidden(q) == q


def test_qualify_hidden_identity_without_hidden():
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=_lab("x"), outputs=(), hidden=())
    assert ia.qualify_hidden(a) == a


# ---------------------------------------------------------------------------
# synchronized product


def test_fixture_product_alphabets():
    ld, tl = ia.qualify_hidden(_ld()), ia.qualify_hidden(_tl())
    prod = ia.product(ld, tl)
    auto = prod.automaton
    assert auto.inputs == ()
    assert auto.outputs == ()
    assert ia.ActionLabel("sendMessages") in auto.hidden
    assert ia.ActionLabel("receiveMessages") in auto.hidden
    assert auto.initials == ("Off__Init",)
    assert prod.pair_of["Off__Init"] == ("Off", "Init")
    assert set(prod.shared_actions) == {ia.ActionLabel("sendMessages"), ia.ActionLabel("receiveMessages")}


def test_product_requires_composability():
    with pytest.raises(ia.NotComposableError):
        ia.product(_ld(), _tl())


def test_product_interleaving_sizes():
    rng = random.Random(7)
    found = 0
    while found < 25:
        a1, a2 = rand_composable_pair(rng)
        if oracle_shared(a1, a2):
            continue
        found += 1
        prod = ia.product(a1, a2)
        want_states, want_trans = interleaving_size(a1, a2)
        assert len(prod.automaton.states) == want_states
        assert len(prod.automaton.transitions) == want_trans


def test_product_conjoins_shared_constraints():
    pre1 = ia.parse_constraint("context A::go() pre P1: x < 1",
                               {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 2))})
    pre2 = ia.parse_constraint("context B::go() pre P2: y < 2",
                               {"y": ia.VariableDecl("y", ia.IntRangeDomain(0, 2))})
    go = ia.ActionLabel("go")
    a = ia.InterfaceAutomaton(
        name="A", states=("s",), initials=("s",), inputs=(), outputs=(go,), hidden=(),
        variables={"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 2))},
        preconditions={"P1": pre1},
        transitions=(ia.Transition("s", "P1", go, None, "s"),))
    b = ia.InterfaceAutomaton(
        name="B", states=("t",), initials=("t",), inputs=(go,), outputs=(), hidden=(),
        variables={"y": ia.VariableDecl("y", ia.IntRangeDomain(0, 2))},
        preconditions={"P2": pre2},
        transitions=(ia.Transition("t", "P2", go, None, "t"),))
    prod = ia.product(a, b)
    (t,) = prod.automaton.transitions
    # conjunction name is order-blind: operands sorted
    assert t.pre == "P1_and_P2"
    conj = prod.automaton.preconditions["P1_and_P2"]
    assert ia.to_text(conj.body) == "x < 1 and y < 2"
    # operand registries carried over too
    assert "P1" in prod.automaton.preconditions
    assert "P2" in prod.automaton.preconditions


def test_product_rejects_clashing_variable_domains():
    x_int = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 1))}
    x_bool = {"x": ia.VariableDecl("x", ia.BoolDomain())}
    go = ia.ActionLabel("go")
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=(), outputs=(go,), hidden=(), variables=x_int)
    b = ia.InterfaceAutomaton(name="B", states=("t",), initials=("t",),
                              inputs=(go,), outputs=(), hidden=(), variables=x_bool)
    with pytest.raises(ia.ProductError):
        ia.product(a, b)


def test_product_renames_clashing_constraint_names():
    p_a = ia.parse_constraint("context A::go() pre P: true")
    p_b = ia.parse_constraint("context B::go() pre P: false")
    go = ia.ActionLabel("go")
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=(), outputs=(go,), hidden=(),
                              preconditions={"P": p_a},
                              transitions=(ia.Transition("s", "P", go, None, "s"),))
    b = ia.InterfaceAutomaton(name="B", states=("t",), initials=("t",),
                              inputs=(go,), outputs=(), hidden=(),
                              preconditions={"P": p_b},
                              transitions=(ia.Transition("t", "P", go, None, "t"),))
    auto = ia.product(a, b).automaton
    pres = auto.preconditions
    assert ia.to_text(pres["P"].body) == "true"
    assert ia.to_text(pres["P_2"].body) == "false"
    (t,) = auto.transitions
    assert t.pre == "P_and_P_2"
    assert ia.to_text(pres["P_and_P_2"].body) == "true and false"


def test_product_names_are_unique_across_kinds():
    pre = ia.parse_constraint("context A::go() pre C: false")
    post = ia.parse_constraint("context B::go() post C: true")
    go, tick = ia.ActionLabel("go"), ia.ActionLabel("tick")
    a = ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",),
                              inputs=(), outputs=(go,), hidden=(),
                              preconditions={"C": pre},
                              transitions=(ia.Transition("s", "C", go, None, "s"),))
    b = ia.InterfaceAutomaton(name="B", states=("t",), initials=("t",),
                              inputs=(go,), outputs=(), hidden=(tick,),
                              postconditions={"C": post},
                              transitions=(ia.Transition("t", None, go, None, "t"),
                                           ia.Transition("t", None, tick, "C", "t")))
    auto = ia.product(a, b).automaton
    assert set(auto.preconditions) == {"C"}
    assert set(auto.postconditions) == {"C_2"}
    assert ia.Transition("s__t", None, tick, "C_2", "s__t") in auto.transitions
    # the pre C is false but the post C_2 is not, so tick keeps s__t legal
    assert ia.check_compatibility(a, b).verdict is ia.CompatVerdict.COMPATIBLE


def test_case_study_registry_holds_only_used_conjunctions():
    auto = ia.product(ia.qualify_hidden(_ld()), ia.qualify_hidden(_tl())).automaton
    assert len(auto.preconditions) + len(auto.postconditions) == 11
    assert {t.pre for t in auto.transitions} - {None} <= set(auto.preconditions)
    assert {t.post for t in auto.transitions} - {None} <= set(auto.postconditions)


def test_product_names_each_new_conjunction_and_reuses_an_equal_entry():
    go = ia.ActionLabel("go")
    x, y = ia.VariableDecl("x", ia.IntRangeDomain(0, 2)), ia.VariableDecl("y", ia.IntRangeDomain(0, 2))
    p = ia.NamedConstraint("P", ia.ConstraintKind.PRE, ia.parse_expression("x < 1", {"x": x}))
    q = ia.NamedConstraint("Q", ia.ConstraintKind.PRE, ia.parse_expression("y < 2", {"y": y}))
    pq = ia.NamedConstraint("P_and_Q", ia.ConstraintKind.PRE, ia.Chain(("and",), (p.body, q.body)))
    b = ia.InterfaceAutomaton("B", ("t",), ("t",), (go,), (), (), {"y": y},
                              {"Q": q}, transitions=(ia.Transition("t", "Q", go, None, "t"),))
    for left, conj in (({"P": p}, "P_and_Q"), ({"P": p, "P_and_Q": pq._replace(body=p.body)}, "P_and_Q_2")):
        a = ia.InterfaceAutomaton("A", ("s",), ("s",), (), (go,), (), {"x": x},
                                  left, transitions=(ia.Transition("s", "P", go, None, "s"),))
        prod = ia.product(a, b)
        assert [t.pre for t in prod.automaton.transitions] == [conj]
    # a conjunction equal to an entry of the left operand reuses it
    a = a._replace(preconditions={"P": p, "P_and_Q": pq})
    prod = ia.product(a, b)
    assert [t.pre for t in prod.automaton.transitions] == ["P_and_Q"]
    assert prod.operands == (a, b)


def _swap_isomorphic(p12, p21):
    back12 = {sid: pair for sid, pair in p12.pair_of.items()}
    back21 = {(s2, s1): sid for sid, (s1, s2) in p21.pair_of.items()}
    if len(p12.automaton.states) != len(p21.automaton.states):
        return False
    mapping = {}
    for sid, pair in back12.items():
        if pair not in back21:
            return False
        mapping[sid] = back21[pair]
    a12, a21 = p12.automaton, p21.automaton
    if {mapping[s] for s in a12.initials} != set(a21.initials):
        return False
    for field in ("inputs", "outputs", "hidden"):
        if set(getattr(a12, field)) != set(getattr(a21, field)):
            return False

    def tset(auto, rename, flip):
        out = set()
        for t in auto.transitions:
            pre = frozenset(t.pre.split("_and_")) if t.pre else frozenset()
            post = frozenset(t.post.split("_and_")) if t.post else frozenset()
            out.add((rename.get(t.source, t.source), pre, t.action, post,
                     rename.get(t.target, t.target)))
        return out

    return tset(a12, mapping, True) == tset(a21, {}, False)


def test_fixture_product_swap_isomorphism():
    ld, tl = ia.qualify_hidden(_ld()), ia.qualify_hidden(_tl())
    assert _swap_isomorphic(ia.product(ld, tl), ia.product(tl, ld))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_product_alphabet_partition(seed):
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng)
    prod = ia.product(a1, a2)
    auto = prod.automaton
    ins, outs, hid = set(auto.inputs), set(auto.outputs), set(auto.hidden)
    assert not (ins & outs) and not (ins & hid) and not (outs & hid)
    shared = oracle_shared(a1, a2)
    assert shared <= hid
    assert not (shared & ins) and not (shared & outs)
    union = ins | outs | hid
    assert union == (set(a1.alphabet) | set(a2.alphabet))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_product_swap_isomorphism(seed):
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng)
    assert _swap_isomorphic(ia.product(a1, a2), ia.product(a2, a1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_product_synchronization_soundness(seed):
    rng = random.Random(seed)
    a1, a2 = rand_composable_pair(rng)
    prod = ia.product(a1, a2)
    shared = prod.shared_actions
    t1 = {(t.source, t.action, t.target) for t in a1.transitions}
    t2 = {(t.source, t.action, t.target) for t in a2.transitions}
    for t in prod.automaton.transitions:
        (s1, s2) = prod.pair_of[t.source]
        (d1, d2) = prod.pair_of[t.target]
        if t.action in shared:
            assert (s1, t.action, d1) in t1 and (s2, t.action, d2) in t2
        else:
            moved_left = (s1, t.action, d1) in t1 and s2 == d2
            moved_right = (s2, t.action, d2) in t2 and s1 == d1
            assert moved_left or moved_right
