"""Constraint dialect: parsing, sorts, evaluation, simplification, falsity."""

import os

import pytest
from hypothesis import given, settings, strategies as st

import iacompat as ia
from iacompat.domains import FrozenMap as FM, bind_path
from iacompat.automata import _GuardRegistry, _conjoin_constraints
from iacompat.evaluate import compile_expr, evaluate, slot_access
from iacompat.exprs import SortScope, infer_sort
from iacompat.falsity import falsity, prepare
from iacompat.lexer import MAX_DEPTH
from oracles import collect_paths, oracle_evaluate, oracle_falsity, oracle_values
from test_docformat import opener_column, under_frames
from randgen import (
    INT_DECLS,
    INT_PARAMS,
    TERM_DECLS,
    _with_old,
    join,
    rand_domain,
    rand_expr,
    rand_int_chain,
    rand_int_guard,
    rand_term,
    rand_valuation,
)

import itertools
import random


CLAIM = ia.EnumDomain(("undecided", "leader", "follower", "off"))
LE_ID = ia.EnumDomain(("dev1", "dev2"))
DATA = ia.RecordDomain((("c", CLAIM), ("s", ia.IntRangeDomain(0, 10))))
TYPE_ENV = {"Claim": CLAIM, "LE_Id": LE_ID, "DATA": DATA, "MSG": ia.OpaqueDomain()}

LD_DECLS = {
    "id": ia.VariableDecl("id", LE_ID),
    "mem": ia.VariableDecl("mem", ia.MapDomain(LE_ID, DATA)),
    "highest_strength": ia.VariableDecl("highest_strength", ia.IntRangeDomain(0, 10)),
    "highest_strength_id": ia.VariableDecl("highest_strength_id", LE_ID),
    "otherLeaders": ia.VariableDecl("otherLeaders", ia.OpaqueDomain()),
    "myCS": ia.VariableDecl("myCS", DATA),
    "isLeader": ia.VariableDecl("isLeader", ia.BoolDomain()),
    "newc": ia.VariableDecl("newc", CLAIM),
}
TL_DECLS = {
    "queue": ia.VariableDecl("queue", ia.SeqDomain(ia.OpaqueDomain())),
    "devOn": ia.VariableDecl("devOn", ia.MapDomain(LE_ID, ia.BoolDomain())),
    "node_ids": ia.VariableDecl("node_ids", ia.OpaqueDomain()),
}

# the full named constraint set of the shipped case-study fixtures, in the
# one-line qualified spelling
CASE_STUDY_CONSTRAINTS = {
    "LDPreCC": (
        "context LE_Device::changeClaim(newClaim : Claim) pre LDPreCC: "
        "(myCS.c = <off> implies newc = <undecided>) "
        "and (myCS.c = <undecided> implies (newc = <leader> or newc = <follower>)) "
        "and (myCS.c = <leader> implies newc = <undecided>) "
        "and (myCS.c = <follower> implies newc = <undecided>)",
        LD_DECLS,
    ),
    "LDPreW": (
        "context LE_Device::write(n : LE_Id, dat : DATA) pre LDPreW: n in set dom mem",
        LD_DECLS,
    ),
    "LDPreIS": (
        "context LE_Device::incStrength() pre LDPreIS: myCS.s < 10",
        LD_DECLS,
    ),
    "LDPostCC": (
        "context LE_Device::changeClaim(newClaim : Claim) post LDPostCC: myCS.c = newClaim",
        LD_DECLS,
    ),
    "LDPostW": (
        "context LE_Device::write(n : LE_Id, dat : DATA) post LDPostW: "
        "mem(n) = dat or mem(n).c = <off>",
        LD_DECLS,
    ),
    "LDPostIS": (
        "context LE_Device::incStrength() post LDPostIS: myCS.s = myCS~.s + 1",
        LD_DECLS,
    ),
    "TLPreGNM": (
        "context TransportLayer::getNextMsg() pre TLPreGNM: queue->notEmpty",
        TL_DECLS,
    ),
    "TLPreSDOF": (
        "context TransportLayer::setDeviceOff(in devId : LE_Id) pre TLPreSDOF: "
        "devOn[devId]->notEmpty",
        TL_DECLS,
    ),
    "TLPreSDON": (
        "context TransportLayer::setDeviceOn(in devId : LE_Id) pre TLPreSDON: "
        "devOn[devId]->notEmpty",
        TL_DECLS,
    ),
    "TLPostI": (
        "context TransportLayer::Init() post TLPostI: "
        "devOn.domain() = node_ids and devOn.range = {false} and queue.size() = 0",
        TL_DECLS,
    ),
    "TLPostATQ": (
        "context TransportLayer::addToQueue(m : MSG) post TLPostATQ: "
        "queue.size() = queue@pre.size() + 1 and queue.lastItem() = m "
        "and queue@pre = queue(1,...,queue.size())",
        TL_DECLS,
    ),
}


def parse_case(name):
    text, decls = CASE_STUDY_CONSTRAINTS[name]
    return ia.parse_constraint(text, decls, type_env=TYPE_ENV)


# ---------------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("name", sorted(CASE_STUDY_CONSTRAINTS))
def test_case_study_constraint_parses(name):
    c = parse_case(name)
    assert c.name == name
    assert c.kind is (ia.ConstraintKind.PRE if "Pre" in name else ia.ConstraintKind.POST)


def test_pre_is_shape():
    c = parse_case("LDPreIS")
    assert c.context.contract == "LE_Device"
    assert c.context.operation == "incStrength"
    assert c.context.params == ()
    assert ia.to_text(c.body) == "myCS.s < 10"


def test_post_is_carries_old_reference():
    c = parse_case("LDPostIS")
    # the old-mark prints at the end of the dotted path
    assert ia.to_text(c.body) == "myCS.s = myCS.s@pre + 1"
    refs = {(r.dotted, r.old) for r in ia.variable_refs(c.body)}
    assert ("myCS.s", True) in refs and ("myCS.s", False) in refs


def test_spaced_contract_name_rejected():
    with pytest.raises(ia.ParseError) as exc:
        ia.parse_constraint("context LE Device::incStrength() pre LDPreIS: myCS.s < 10",
                            LD_DECLS, type_env=TYPE_ENV)
    assert str(exc.value) == "<string>:1:12: expected 'pre', 'post' or 'inv', found 'Device'"


def test_param_modes_and_domains():
    c = parse_case("TLPreSDOF")
    (p,) = c.context.params
    assert (p.name, p.mode) == ("devId", "in")
    assert p.domain == LE_ID


def test_unnamed_constraint_gets_stable_name():
    c = ia.parse_constraint("pre : true")
    assert c.name == "pre_unnamed_1"


def test_old_reference_rejected_outside_post():
    # at the kind word, as in a document
    with pytest.raises(ia.ParseError, match="^<string>:1:1: constraint P: old-state references"):
        ia.parse_constraint("pre P: myCS.s = myCS~.s", LD_DECLS)
    with pytest.raises(ia.ParseError, match="^<string>:1:1: constraint I: old-state references"):
        ia.parse_constraint("inv I: queue@pre.size() = 0", TL_DECLS)


def test_unknown_variable_is_a_sort_error():
    with pytest.raises(ia.UnknownVariable):
        ia.parse_constraint("pre P: nosuch < 10", LD_DECLS)


def test_bind_path_binds_by_one_rule():
    small = ia.IntRangeDomain(0, 3)
    decls = {"myCS": DATA, "myCS.s": small, "msg": ia.OpaqueDomain()}
    opaque = ia.OpaqueDomain()
    assert bind_path(("myCS", "s"), decls, {}) == ("myCS.s", small, small)  # longest prefix wins
    assert bind_path(("myCS", "c"), decls, {}) == ("myCS", DATA, CLAIM)
    assert bind_path(("msg", "a", "b"), decls, {}) == ("msg", opaque, opaque)
    assert bind_path(("myCS", "nosuch"), decls, {}) is None
    assert bind_path(("myCS", "c", "x"), decls, {}) is None  # a field of a non-record
    assert bind_path(("nosuch",), decls, {}) is None
    # a parameter named by the first segment wins over any declared prefix
    assert bind_path(("myCS", "s"), decls, {"myCS": opaque}) == ("myCS", opaque, opaque)
    assert bind_path(("myCS", "s"), decls, {"myCS": small}) is None


def test_parameter_paths_bind_first_and_never_open_world():
    p = ia.RecordDomain((("a", ia.BoolDomain()),))
    with pytest.raises(ia.UnknownVariable):
        ia.parse_expression("p.nosuch", params={"p": p})
    decls = {"p": ia.VariableDecl("p", ia.IntRangeDomain(0, 1)),
             "p.a": ia.VariableDecl("p.a", ia.IntRangeDomain(0, 1))}
    e = ia.parse_expression("p.a", decls, params={"p": p})
    assert e == ia.VarRef(("p", "a"))
    # falsity binds the parameter too, not the longer declared variable p.a
    assert falsity(e, decls, params={"p": p}).verdict is ia.Verdict.SATISFIABLE


def test_the_oracle_binds_a_parameter_before_a_declared_dotted_name():
    decls = [ia.VariableDecl("p.a", ia.IntRangeDomain(0, 1))]
    p = ia.ParamDecl("p", ia.RecordDomain((("a", ia.BoolDomain()),)))
    e = ia.parse_expression("p.a", decls, params={"p": p.domain})
    res = falsity(e, decls, params={"p": p.domain})
    assert res.verdict is ia.Verdict.SATISFIABLE and res.witness.values == {"p": {"a": True}}
    assert oracle_falsity(e, decls, (p,)) is False


def test_the_oracle_leaves_a_path_into_an_opaque_variable_unknown():
    decls = [ia.VariableDecl("msg", ia.OpaqueDomain())]
    e = ia.parse_expression("msg.a = 1", decls)
    assert falsity(e, decls).verdict is ia.Verdict.UNKNOWN
    assert oracle_falsity(e, decls) is None


def _three_bindings(path, decls, params):
    """How sort checking, validation and falsity each bind ``path``: its sort, or
    None on ``UnknownVariable``; whether ``undeclared_paths`` lists it; and the
    (name, domain) ``prepare`` enumerates, or None on ``EvalError``."""
    try:
        sort = SortScope(decls, params).sort_of_path(path)
    except ia.UnknownVariable:
        sort = None
    c = ia.NamedConstraint("G", ia.ConstraintKind.PRE, ia.VarRef(path),
                           ia.ConstraintContext("A", "op", tuple(ia.ParamDecl(n, d) for n, d in params.items())))
    listed = c.undeclared_paths(decls) == [".".join(path)]
    try:
        (((_, name), dom),) = prepare(ia.VarRef(path), decls, params)[2].items()
        bound = name, dom
    except ia.EvalError:
        bound = None
    return sort, listed, bound


def _assert_binds_alike(path, decls, params, bound):
    """All three sites refuse ``path`` when ``bound`` is None, else bind it as it says."""
    want = (None, True, None) if bound is None else (bound[2], False, bound[:2])
    assert _three_bindings(path, decls, params) == want, path


def _expected_binding(path, decls, params):
    """The rule, stated apart: a parameter named by the first segment, else the
    longest declared prefix; then record fields, an opaque domain taking the rest.
    Returns (name, its domain, the sort of the full path), or None."""
    cut = 1 if path[0] in params else next(
        (k for k in range(len(path), 0, -1) if ".".join(path[:k]) in decls), None)
    if cut is None:
        return None
    name = ".".join(path[:cut])
    dom = leaf = params[name] if path[0] in params else decls[name]
    for seg in path[cut:]:
        if isinstance(leaf, ia.OpaqueDomain):
            break
        if not isinstance(leaf, ia.RecordDomain) or leaf.field_domain(seg) is None:
            return None
        leaf = leaf.field_domain(seg)
    return name, dom, leaf.sort()


_INT = ia.IntRangeDomain(0, 1)
_PQ = ia.RecordDomain((("q", _INT),))
_RA = ia.RecordDomain((("a", ia.BoolDomain()),))


@pytest.mark.parametrize("path, decls, params, bound", [
    # p binds the int parameter, which has no field q, though p.q is declared
    (("p", "q"), {"p.q": _INT}, {"p": _INT}, None),
    (("p", "q"), {}, {"p": _PQ}, ("p", _PQ, _INT.sort())),
    (("r", "b"), {"r": _RA}, {}, None),
    (("o", "x", "y"), {"o": ia.OpaqueDomain()}, {}, ("o", ia.OpaqueDomain(), ia.OpaqueDomain().sort())),
    (("r",), {"r": _RA}, {"r": _INT}, ("r", _INT, _INT.sort())),
])
def test_sort_checking_validation_and_falsity_bind_a_path_alike(path, decls, params, bound):
    assert _expected_binding(path, decls, params) == bound
    _assert_binds_alike(path, decls, params, bound)


_SEGMENTS = ("p", "q", "r")


def _rand_bind_domain(rng, depth=2):
    pick = rng.randrange(4 if depth else 2)
    if pick == 0:
        return ia.IntRangeDomain(0, rng.randint(0, 2))
    if pick == 1:
        return ia.OpaqueDomain()
    fields = rng.sample(_SEGMENTS, rng.randint(1, 2))
    return ia.RecordDomain(tuple((f, _rand_bind_domain(rng, depth - 1)) for f in fields))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_path_binds_alike_in_sort_checking_validation_and_falsity(seed):
    # dotted declared names, records and opaque variables, and parameters that
    # shadow a variable or the first segment of a dotted one
    rng = random.Random(seed)
    names = {".".join(rng.choices(_SEGMENTS, k=rng.randint(1, 2))) for _ in range(rng.randint(1, 4))}
    decls = {n: _rand_bind_domain(rng) for n in sorted(names)}
    params = {n: _rand_bind_domain(rng) for n in rng.sample(_SEGMENTS, rng.randint(0, 2))}
    for k in (1, 2, 3):
        for path in itertools.product(_SEGMENTS, repeat=k):
            _assert_binds_alike(path, decls, params, _expected_binding(path, decls, params))


def test_falsity_names_only_what_the_folded_guard_reads():
    decls = {"x": _INT, "y": _INT}
    e = ia.parse_expression("x > 0 or (false and y > 0)", decls)
    assert list(prepare(e, decls, {})[2]) == [(False, "x")]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_refs_are_the_distinct_references_in_walk_order(seed):
    rng = random.Random(seed)
    body = _with_old(rand_term(rng), rng)
    in_walk = [n for n in ia.walk(body) if n.__class__ is ia.VarRef]
    assert ia.variable_refs(body) == in_walk
    distinct = []
    for r in in_walk:
        if r not in distinct:
            distinct.append(r)
    assert ia.NamedConstraint("P", ia.ConstraintKind.POST, body).refs == tuple(distinct)


def test_unchecked_conjunctions_and_renamed_copies_derive_their_refs_when_read():
    # _conjoin_constraints and a renaming intern build without NamedConstraint's
    # check, so neither has its references until something reads them
    context = ia.ConstraintContext("A", "op", (ia.ParamDecl("p", _INT),))
    a = ia.parse_constraint("context A::op(p : int[0..1]) pre G: p.q = 1 and x = 1")
    b = ia.NamedConstraint("G", ia.ConstraintKind.PRE, ia.parse_expression("y = 1 or w.f"), context)
    decls = {"x": _INT, "y": _INT}
    conj = _conjoin_constraints(a, b, "AB")
    registry = _GuardRegistry({"G": a}, {}, "AB", {"G"})
    copy = registry.entries[registry.intern(b)]
    assert copy.name == "G_2"
    for unchecked in (conj, copy):
        assert "refs" not in vars(unchecked)
        checked = ia.NamedConstraint(unchecked.name, unchecked.kind, unchecked.body, unchecked.context)
        assert unchecked.undeclared_paths(decls) == checked.undeclared_paths(decls)
        assert unchecked.refs == checked.refs
    assert conj.undeclared_paths(decls) == ["p.q", "w.f"]
    assert copy.undeclared_paths(decls) == ["w.f"]


def test_sort_mismatch_rejected():
    with pytest.raises(ia.SortError):
        ia.parse_constraint("pre P: myCS.s and true", LD_DECLS)
    with pytest.raises(ia.SortError):
        ia.parse_constraint("pre P: queue->notEmpty + 1", TL_DECLS)


_REC = ia.RecordDomain((("a", ia.BoolDomain()),))
RECORD_DECLS = {
    "r": ia.VariableDecl("r", _REC),
    "s": ia.VariableDecl("s", _REC),
    "k": ia.VariableDecl("k", ia.MapDomain(_REC, ia.BoolDomain())),  # record-keyed
    "m": ia.VariableDecl("m", ia.MapDomain(ia.BoolDomain(), _REC)),  # record-valued
}


@pytest.mark.parametrize("text, verdict", [
    ("r in set m.range", ia.Verdict.SATISFIABLE),
    ("{r} = {r}", ia.Verdict.SATISFIABLE),
    ("{r} = {}", ia.Verdict.FALSE),
    ("r in set {s} and r <> s", ia.Verdict.FALSE),
    ("{r, s}.size = 1 and r.a <> s.a", ia.Verdict.FALSE),
    ("{r, s}.size = 2", ia.Verdict.SATISFIABLE),
    ("k(r) and not k(s)", ia.Verdict.SATISFIABLE),
    ("k.size > 2", ia.Verdict.FALSE),
    ("k.domain = {r, s} and k.size = 2 and r = s", ia.Verdict.FALSE),
    ("m.range = {r} and m.size = 2", ia.Verdict.SATISFIABLE),
    ("m.range.size > m.size", ia.Verdict.FALSE),
    ("true in set m.domain and not (m(true) in set m.range)", ia.Verdict.FALSE),
], ids=["range-member", "set-equal", "set-empty", "set-member", "set-size-1", "set-size-2",
        "key-apply", "key-size", "key-domain", "range-equal", "range-size", "range-holds"])
def test_falsity_on_records_in_sets_and_maps(text, verdict):
    e = ia.parse_expression(text, RECORD_DECLS)
    res = falsity(e, RECORD_DECLS)
    assert res.verdict is verdict
    assert oracle_falsity(e, list(RECORD_DECLS.values())) is (verdict is ia.Verdict.FALSE)
    if verdict is ia.Verdict.SATISFIABLE:
        assert oracle_evaluate(e, res.witness) is True


def test_parse_error_carries_position():
    with pytest.raises(ia.ParseError) as exc:
        ia.parse_expression("1 +", source="snippet")
    assert "snippet:1:" in str(exc.value)


def test_round_trip_all_case_study_bodies():
    for name in CASE_STUDY_CONSTRAINTS:
        text, decls = CASE_STUDY_CONSTRAINTS[name]
        c = ia.parse_constraint(text, decls, type_env=TYPE_ENV)
        printed = ia.to_text(c.body)
        again = ia.parse_expression(printed, decls, params=dict(c.param_domains()),
                                    source=name)
        assert ia.to_text(again) == printed
    # comparisons do not associate, so a comparison or membership operand of
    # one keeps its parentheses on either side
    decls = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 2)),
             "y": ia.VariableDecl("y", ia.BoolDomain())}
    for text in ("(x = 1) = true", "(x in set {1}) = true", "(x < 1) = (y = true)"):
        e = ia.parse_expression(text, decls)
        assert ia.to_text(e) == text
        assert ia.parse_expression(ia.to_text(e), decls) == e


def _rebuilt(e):
    """``e`` built again through the public node constructors, field by field."""
    def field(v):
        if isinstance(v, ia.Expr):
            return _rebuilt(v)
        if isinstance(v, (tuple, list)):
            assert v.__class__ is tuple, f"a field of {e!r} is a {v.__class__.__name__}"
            return tuple(map(field, v))
        return v
    return e.__class__(*map(field, e))


def test_the_parser_builds_each_node_as_its_constructor_does():
    # the parser builds most nodes with frozen._new, which fills in no default
    # and converts no sequence, so a tree rebuilt through the constructors
    # must equal the parsed one
    parsed = []
    for name, (text, decls) in CASE_STUDY_CONSTRAINTS.items():
        c = ia.parse_constraint(text, decls, type_env=TYPE_ENV)  # the slice sugar prints as front
        parsed += c.body, ia.parse_expression(ia.to_text(c.body), decls, params=c.param_domains(), source=name)
    for text in ("x > -1 and not (x in set {})", "{x, 1} = {2} implies true"):
        parsed.append(ia.parse_expression(text, {"x": ia.IntRangeDomain(0, 2)}))
    for seed in range(200):
        rng = random.Random(seed)
        decls = [ia.VariableDecl(f"v{i}", rand_domain(rng)) for i in range(rng.randint(0, 2))]
        parsed.append(ia.parse_expression(ia.to_text(rand_expr(rng, decls, depth=3)), decls))
    for e in parsed:
        assert _rebuilt(e) == e, ia.to_text(e)
    kinds = {n.__class__ for e in parsed for n in ia.walk(e)}
    assert kinds == {ia.BoolLit, ia.IntLit, ia.EnumLit, ia.SetLit, ia.VarRef, ia.Not, ia.BinOp, ia.Chain,
                     ia.Membership, ia.Apply, ia.FieldAccess, ia.MethodCall}


def test_slice_is_front_sugar():
    e = ia.parse_expression("queue(1,...,queue.size())", TL_DECLS)
    assert ia.to_text(e) == "queue.front(queue.size())"


def test_bare_builtin_without_parens():
    e = ia.parse_expression("devOn.range = {false}", TL_DECLS)
    assert isinstance(e.left, ia.MethodCall) and e.left.name == "range"


def test_membership_desugars_to_domain_call():
    c = parse_case("LDPreW")
    assert isinstance(c.body, ia.Membership)
    assert isinstance(c.body.collection, ia.MethodCall)
    assert c.body.collection.name == "domain"


# a target of each sort tag: a sequence of booleans, a set of integers, a map
# from enums to integers, an opaque variable and an integer
OP_DECLS = {
    "q": ia.VariableDecl("q", ia.SeqDomain(ia.BoolDomain())),
    "m": ia.VariableDecl("m", ia.MapDomain(LE_ID, ia.IntRangeDomain(0, 3))),
    "o": ia.VariableDecl("o", ia.OpaqueDomain()),
    "n": ia.VariableDecl("n", ia.IntRangeDomain(0, 3)),
}
OP_TARGETS = {"seq": "q", "set": "{1, 2}", "map": "m", "opaque": "o", "int": "n"}


@pytest.mark.parametrize("name, args, sorts", [
    ("size", (), ("int", "int", "int", "int", "size needs a collection")),
    ("lastItem", (), ("bool", "lastItem needs a sequence", "lastItem needs a sequence", "opaque",
                      "lastItem needs a sequence")),
    ("domain", (), ("domain needs a map", "domain needs a map", "set of enum", "set of opaque",
                    "domain needs a map")),
    ("range", (), ("range needs a map", "range needs a map", "set of int", "set of opaque",
                   "range needs a map")),
    ("front", (ia.IntLit(1),), ("seq of bool", "front needs a sequence", "front needs a sequence",
                                "opaque", "front needs a sequence")),
    ("notEmpty", (), ("bool", "bool", "bool", "bool", "bool")),
])
def test_each_operation_sorts_by_its_target(name, args, sorts):
    scope = SortScope(decls={k: d.domain for k, d in OP_DECLS.items()})
    for (tag, target), want in zip(OP_TARGETS.items(), sorts):
        e = ia.MethodCall(ia.parse_expression(target, OP_DECLS), name, args)
        try:
            got = str(infer_sort(e, scope))
        except ia.SortError as exc:
            got = str(exc)
            want = f"{want} in `{ia.to_text(e)}`"
        assert got == want, tag


@pytest.mark.parametrize("text, message", [
    ("q.size(1)", "size takes no arguments in `q.size(1)`"),
    ("m.domain(1)", "domain takes no arguments in `m.domain(1)`"),
    ("q->notEmpty(1)", "notEmpty takes no arguments in `q->notEmpty`"),
    ("q.front()", "front takes one argument in `q.front()`"),
    ("q.front(1, 2)", "front takes one argument in `q.front(1, 2)`"),
    ("q.front(true)", "front length must be an integer in `q.front(true)`"),
    # the target's sort is checked before the arguments
    ("m.lastItem(1)", "lastItem needs a sequence in `m.lastItem(1)`"),
    ("m.front()", "front needs a sequence in `m.front()`"),
])
def test_operation_sort_errors_are_pinned(text, message):
    with pytest.raises(ia.SortError) as exc:
        ia.parse_expression(text, OP_DECLS)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, value, result", [
    ("o.size", (True, False), 2),
    ("o.size", frozenset({1}), 1),
    ("o.size", FM({"a": 1}), 1),
    ("o.size", 5, "size of a non-collection `o`"),
    ("o.lastItem", (True, False), False),
    ("o.lastItem", (), "lastItem of the empty sequence `o`"),
    ("o.lastItem", frozenset({1}), "lastItem of a non-sequence `o`"),
    ("o.domain", FM({"a": 1}), frozenset({"a"})),
    ("o.domain", (1,), "domain of a non-map `o`"),
    ("o.range", FM({"a": 1, "b": 1}), frozenset({1})),
    ("o.range", frozenset(), "range of a non-map `o`"),
    ("o.front(1)", (1, 2), (1,)),
    ("o.front(3)", (1, 2), (1, 2)),
    ("o.front(0 - 1)", (1, 2), "front with a negative length"),
    ("o.front(b)", (1, 2), "expected an integer from `b`, got True"),
    ("o.front(1)", FM(), "front of a non-sequence `o`"),
    ("o->notEmpty", 5, True),
    ("o->notEmpty", FM(), False),
    # an undefined application, such as the last item of the empty sequence, reads as empty
    ("o.lastItem->notEmpty", (), False),
    ("o.domain->notEmpty", (), "domain of a non-map `o`"),
])
def test_each_operation_evaluates_by_its_target(text, value, result):
    e = ia.parse_expression(text)
    val = ia.Valuation({"o": value, "b": True})
    if isinstance(result, str):
        with pytest.raises(ia.EvalError) as exc:
            evaluate(e, val)
        assert str(exc.value) == result
    else:
        assert evaluate(e, val) == result == oracle_evaluate(e, val)


def test_an_unknown_operation_is_an_error_in_sorts_and_evaluation():
    e = ia.MethodCall(ia.VarRef(("x",)), "foo")
    with pytest.raises(ia.SortError) as exc:
        infer_sort(e, SortScope(decls={}, open_world=True))
    assert str(exc.value) == "unknown method 'foo' in `x.foo()`"
    with pytest.raises(ia.EvalError) as exc:
        evaluate(e, ia.Valuation({"x": (1,)}))
    assert str(exc.value) == "unknown method 'foo'"
    # an unknown name after an arrow is a parse error
    with pytest.raises(ia.ParseError) as exc:
        ia.parse_expression("x->foo")
    assert str(exc.value) == "<string>:1:4: unknown arrow operation 'foo'"


# ---------------------------------------------------------------------------
# evaluation


def test_pre_is_boundary():
    c = parse_case("LDPreIS")
    for s in range(10):
        assert evaluate(c.body, ia.Valuation({"myCS.s": s})) is True
    assert evaluate(c.body, ia.Valuation({"myCS.s": 10})) is False


def test_pre_cc_truth_table_spot():
    c = parse_case("LDPreCC")
    assert evaluate(c.body, ia.Valuation({"myCS.c": "off", "newc": "undecided"})) is True
    assert evaluate(c.body, ia.Valuation({"myCS.c": "off", "newc": "leader"})) is False
    assert evaluate(c.body, ia.Valuation({"myCS.c": "undecided", "newc": "follower"})) is True


def test_post_is_requires_old_state():
    c = parse_case("LDPostIS")
    ok = ia.Valuation({"myCS": {"c": "off", "s": 5}}, old={"myCS": {"c": "off", "s": 4}})
    assert evaluate(c.body, ok) is True
    wrong = ia.Valuation({"myCS": {"c": "off", "s": 6}}, old={"myCS": {"c": "off", "s": 4}})
    assert evaluate(c.body, wrong) is False
    with pytest.raises(ia.EvalError):
        evaluate(c.body, ia.Valuation({"myCS": {"c": "off", "s": 5}}))


def test_map_application_and_membership():
    c = parse_case("LDPreW")
    val = ia.Valuation({"mem": {"dev1": {"c": "off", "s": 0}}, "n": "dev1"})
    assert evaluate(c.body, val) is True
    val2 = ia.Valuation({"mem": {"dev1": {"c": "off", "s": 0}}, "n": "dev2"})
    assert evaluate(c.body, val2) is False


def test_apply_miss_is_absorbed_by_or():
    c = parse_case("LDPostW")
    # mem(n) raises on a missing key; `or` still decides when the other
    # disjunct is true
    val = ia.Valuation({"mem": {}, "n": "dev1", "dat": {"c": "off", "s": 0}})
    with pytest.raises(ia.UndefinedApplication, match="^key 'dev1' outside the domain of `mem`$"):
        evaluate(c.body, val)
    hit = ia.Valuation({"mem": {"dev1": {"c": "off", "s": 3}}, "n": "dev1",
                        "dat": {"c": "off", "s": 3}})
    assert evaluate(c.body, hit) is True


def test_not_empty_semantics():
    assert evaluate(ia.parse_expression("queue->notEmpty", TL_DECLS),
                       ia.Valuation({"queue": ()})) is False
    assert evaluate(ia.parse_expression("queue->notEmpty", TL_DECLS),
                       ia.Valuation({"queue": ("m1",)})) is True
    # failed map application under ->notEmpty reads as empty
    e = ia.parse_expression("devOn[devId]->notEmpty", TL_DECLS,
                            params={"devId": LE_ID})
    assert evaluate(e, ia.Valuation({"devOn": {}, "devId": "dev1"})) is False
    assert evaluate(e, ia.Valuation({"devOn": {"dev1": True}, "devId": "dev1"})) is True


def test_cross_sort_equality_is_false():
    e = ia.parse_expression("x = y", {"x": ia.VariableDecl("x", ia.BoolDomain()),
                                      "y": ia.VariableDecl("y", ia.OpaqueDomain())})
    assert evaluate(e, ia.Valuation({"x": True, "y": 1})) is False


@pytest.mark.parametrize("a, b", [
    (frozenset({1}), frozenset({True})),
    (frozenset({frozenset({0})}), frozenset({frozenset({False})})),
    ((1, 2), (True, 2)),
    (FM({"a": 1}), FM({"a": True})),
    (FM({1: "ea"}), FM({True: "ea"})),
    (FM({"k": (FM({"a": 0}),)}), FM({"k": (FM({"a": False}),)})),
])
def test_equality_keeps_bool_and_int_apart_at_depth(a, b):
    # Python finds each pair equal, since True == 1; the dialect does not
    opaque = {n: ia.VariableDecl(n, ia.OpaqueDomain()) for n in ("a", "b")}
    for text, want in (("a = b", False), ("a <> b", True), ("a in set {b}", False)):
        e = ia.parse_expression(text, opaque)
        assert evaluate(e, ia.Valuation({"a": a, "b": b})) is want
        assert oracle_evaluate(e, ia.Valuation({"a": a, "b": b})) is want
    same = ia.parse_expression("a = b", opaque)
    assert evaluate(same, ia.Valuation({"a": a, "b": a})) is True
    assert evaluate(same, ia.Valuation({"a": b, "b": b})) is True


def test_map_application_keeps_bool_and_int_keys_apart():
    decls = {n: ia.VariableDecl(n, ia.OpaqueDomain()) for n in ("m", "k")}
    e = ia.parse_expression("m(k) = 1", decls)
    with pytest.raises(ia.UndefinedApplication):
        evaluate(e, ia.Valuation({"m": FM({(True,): 1}), "k": (1,)}))
    assert evaluate(e, ia.Valuation({"m": FM({(1,): 1}), "k": (1,)})) is True


def test_deep_chains_walk_print_sort_and_simplify():
    # 2000 links, each walker taking them in one loop
    x = ia.VarRef(("x",))
    atoms = [ia.BinOp("<>", x, ia.IntLit(k % 10)) for k in range(2001)]
    e = ia.Chain(("and",) * 2000, tuple(atoms))
    assert sum(1 for _ in ia.walk(e)) == 1 + 3 * 2001
    text = ia.to_text(e)
    assert text == " and ".join(f"x <> {k % 10}" for k in range(2001))
    assert ia.parse_expression(text, X_DECLS) == e  # sort inference on the way
    s = ia.simplify(e)
    assert ia.simplify(s) == s
    assert ia.to_text(s) == " and ".join(sorted(f"x <> {k % 10}" for k in range(2001)))
    # a bad operand deep in the run is named with the run up to it
    bad = ia.Chain(("and",) * 2001, (*atoms[:1000], ia.IntLit(1), *atoms[1000:]))
    with pytest.raises(ia.SortError, match="and needs boolean operands") as exc:
        infer_sort(bad, SortScope(decls={"x": ia.IntRangeDomain(0, 10)}))
    assert exc.value.expr_text.endswith("x <> 9 and 1")


# each form holds its argument one level deeper, with the token that opens the level; a
# suffix opens a level for the suffixes after it too
EXPR_NESTINGS = {
    "parentheses": (lambda e: f"({e})", "("),
    "not": (lambda e: f"not {e}", "not"),
    "application": (lambda e: f"m({e})", "("),
    "index": (lambda e: f"m[{e}]", "["),
    "arguments": (lambda e: f"q.front({e})", "."),
    "slice": (lambda e: f"q(1,...,{e})", "("),
    "set": (lambda e: f"{{{e}}}", "{"),
    "suffixes": (lambda e: f"{e}->front(1)", "->"),
}


@pytest.mark.parametrize("frames", [0, 600])
@pytest.mark.parametrize("form", EXPR_NESTINGS)
def test_an_expression_nests_at_most_max_depth_levels(form, frames):
    wrap, opener = EXPR_NESTINGS[form]
    at_limit = "x"
    for _ in range(MAX_DEPTH):
        at_limit = wrap(at_limit)
    e = under_frames(frames, ia.parse_expression, at_limit)
    assert under_frames(frames, ia.parse_expression, under_frames(frames, ia.to_text, e)) == e
    past = wrap(at_limit)
    with pytest.raises(ia.ParseError) as exc:
        under_frames(frames, ia.parse_expression, past)
    assert str(exc.value) == f"<string>:1:{opener_column(past, opener)}: expression nests too deeply"


def test_simplify_flattens_chains_canonically():
    decls = {n: ia.VariableDecl(n, ia.BoolDomain()) for n in "pqrs"}
    forms = ("p and (q and r)", "(r and q) and p", "q and true and (p and r)",
             "r and not not (q and p)", "(true implies r) and (q and (p and true))")
    assert {ia.to_text(ia.simplify(ia.parse_expression(f, decls))) for f in forms} == {"p and q and r"}
    mixed = ia.simplify(ia.parse_expression("s or (r and (q or p))", decls))
    assert ia.to_text(mixed) == "(p or q) and r or s"
    assert ia.simplify(mixed) == mixed
    assert ia.to_text(ia.simplify(ia.parse_expression("p and (false or q and false)", decls))) == "false"
    assert ia.to_text(ia.simplify(ia.parse_expression("p or (q or true)", decls))) == "true"


def test_a_run_is_one_node():
    decls = {n: ia.VariableDecl(n, ia.BoolDomain()) for n in "pqr"}
    p, q, r = (ia.VarRef((n,)) for n in "pqr")
    run = ia.Chain(("and", "and"), (p, q, r))
    # a first operand of the same level is spliced in, however it was built
    assert ia.Chain(("and",), (ia.Chain(("and",), (p, q)), r)) == run
    assert ia.parse_expression("(p and q) and r", decls) == run
    assert ia.to_text(run) == "p and q and r"
    # a later one, or one of another level, stays one operand
    nested = ia.parse_expression("p and (q and r)", decls)
    assert nested == ia.Chain(("and",), (p, ia.Chain(("and",), (q, r))))
    assert ia.to_text(nested) == "p and (q and r)"
    assert ia.to_text(ia.Chain(("and",), (ia.Chain(("or",), (p, q)), r))) == "(p or q) and r"
    x = ia.VarRef(("x",))
    assert ia.parse_expression("(x - 1) + 2", X_DECLS) == ia.Chain(("-", "+"), (x, ia.IntLit(1), ia.IntLit(2)))


def test_simplify_folds_the_leading_literals_of_a_sum():
    # literals fold from the left until the first operand that is not one,
    # which is what folding a left-deep tree of binary sums gives
    for text, want in (("1 + 2 - 4 + x < 5", "-1 + x < 5"), ("x + 1 + 2 < 5", "x + 1 + 2 < 5"),
                       ("1 - 2 < 0", "true"), ("x - (1 - 3) > 0", "x - -2 > 0")):
        assert ia.to_text(ia.simplify(ia.parse_expression(text, X_DECLS))) == want


def test_parallel_conjunction_absorbs_errors():
    e = ia.parse_expression("x and missing")
    # false wins even though the right side is unbound
    assert evaluate(e, ia.Valuation({"x": False})) is False
    with pytest.raises(ia.MissingVariable, match="^unbound variable: missing$"):
        evaluate(e, ia.Valuation({"x": True}))
    e2 = ia.parse_expression("missing or x")
    assert evaluate(e2, ia.Valuation({"x": True})) is True


def test_deep_conjunction_gets_a_verdict():
    # 400 links: the tree-walking evaluator raised RecursionError here
    x = ia.VarRef(("x",))
    decls = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 9))}
    for modulus, verdict in ((9, ia.Verdict.SATISFIABLE), (10, ia.Verdict.FALSE)):
        atoms = tuple(ia.BinOp("<>", x, ia.IntLit(k % modulus)) for k in range(400))
        e = ia.Chain(("and",) * 399, atoms)
        res = falsity(e, decls)
        assert (res.verdict, res.explored) == (verdict, 10)
        if verdict is ia.Verdict.SATISFIABLE:
            assert res.witness == ia.Valuation({"x": 9})
            assert evaluate(e, res.witness) is True


def _implies_run(operands):
    """``a implies b implies ... implies z``, one ``Chain`` as the parser builds it."""
    return ia.Chain(("implies",) * (len(operands) - 1), tuple(operands))


def _simplify_implies_by_recursion(e):
    # each link folded after the run to its right, by recursion over the links
    if not (isinstance(e, ia.Chain) and e.ops[0] == "implies"):
        return ia.simplify(e)
    rest = e.operands[1] if len(e.ops) == 1 else _implies_run(e.operands[1:])
    l, r = ia.simplify(e.operands[0]), _simplify_implies_by_recursion(rest)
    if l == ia.BoolLit(False) or r == ia.BoolLit(True):
        return ia.BoolLit(True)
    if l == ia.BoolLit(True):
        return r
    if r == ia.BoolLit(False):
        return l.operand if isinstance(l, ia.Not) else ia.Not(l)
    return _implies_run([l, r])


def test_simplify_folds_an_implies_run_link_by_link():
    p, q = ia.VarRef(("p",)), ia.VarRef(("q",))
    leaves = (ia.BoolLit(True), ia.BoolLit(False), p, ia.Not(q), ia.Not(ia.BoolLit(True)),
              ia.Chain(("and",), (p, q)), _implies_run([q, p]))
    rng = random.Random(12)
    for _ in range(500):
        e = _implies_run([rng.choice(leaves) for _ in range(rng.randint(2, 7))])
        assert ia.simplify(e) == _simplify_implies_by_recursion(e), ia.to_text(e)


def test_an_implies_run_evaluates_left_to_right():
    # `a implies b implies z` is `not a or not b or z`: a false antecedent or a
    # true conclusion wins over any error, else the leftmost error is raised
    p, q, r = (ia.VarRef((n,)) for n in "pqr")
    e = _implies_run([p, ia.IntLit(3), q, r])
    for values in ({"p": False}, {"p": True, "q": True}, {"p": 5}, {"p": True, "r": True},
                   {"q": False}, {"p": True, "q": True, "r": False}, {"p": True, "q": 2, "r": 1}):
        val = ia.Valuation(values)
        assert _outcome(evaluate, e, val) == _outcome(oracle_evaluate, e, val)
    assert evaluate(e, ia.Valuation({"p": False})) is True
    with pytest.raises(ia.EvalError, match="expected a boolean from `3`"):
        evaluate(e, ia.Valuation({"p": True, "q": True, "r": False}))


def test_a_long_implies_run_gets_a_verdict():
    # 3000 links, which simplify and compile_expr take in one loop
    x = ia.VarRef(("x",))
    decls = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 9))}
    antecedents = [ia.BinOp(">=", x, ia.IntLit(k % 10 - 10)) for k in range(3000)]
    for last, verdict, explored in ((ia.BinOp(">", x, ia.IntLit(9)), ia.Verdict.FALSE, 10),
                                    (ia.BinOp("=", x, ia.IntLit(4)), ia.Verdict.SATISFIABLE, 5)):
        e = _implies_run(antecedents + [last])
        s = ia.simplify(e)  # the same run: nothing folds
        assert [type(n) for n in ia.walk(s)] == [type(n) for n in ia.walk(e)]
        res = falsity(e, decls)
        assert (res.verdict, res.explored) == (verdict, explored)
        assert evaluate(e, ia.Valuation({"x": 4})) is (verdict is ia.Verdict.SATISFIABLE)


@pytest.mark.parametrize("text, named", [
    ("p implies q implies 3", "q implies 3"),
    ("1 implies q implies r", "1 implies q implies r"),
    ("(1 implies q) implies r", "1 implies q"),
    ("p implies 2 implies q implies r", "2 implies q implies r"),
])
def test_an_implies_sort_error_names_the_run_from_the_bad_link(text, named):
    decls = {n: ia.VariableDecl(n, ia.BoolDomain()) for n in "pqr"}
    with pytest.raises(ia.SortError) as exc:
        ia.parse_expression(text, decls)
    assert str(exc.value) == f"implies needs boolean operands in `{named}`"
    assert exc.value.expr_text == named


def test_constant_fold_example():
    e = ia.parse_expression("true and false")
    assert evaluate(e, ia.Valuation()) is False


# ---------------------------------------------------------------------------
# simplification


def test_simplify_identity_elimination():
    e = ia.parse_expression("(myCS.s < 10) and true", LD_DECLS)
    assert ia.to_text(ia.simplify(e)) == "myCS.s < 10"


def test_simplify_annihilator():
    e = ia.parse_expression("false and (myCS.s < 10)", LD_DECLS)
    assert ia.to_text(ia.simplify(e)) == "false"


def test_simplify_commutative_canonical_order():
    decls = {"p": ia.VariableDecl("p", ia.BoolDomain()),
             "q": ia.VariableDecl("q", ia.BoolDomain())}
    a = ia.simplify(ia.parse_expression("p and q", decls))
    b = ia.simplify(ia.parse_expression("q and p", decls))
    assert ia.to_text(a) == ia.to_text(b)


def test_simplify_implication_folds():
    assert ia.to_text(ia.simplify(ia.parse_expression("false implies x",
        {"x": ia.VariableDecl("x", ia.BoolDomain())}))) == "true"
    assert ia.to_text(ia.simplify(ia.parse_expression("true implies x",
        {"x": ia.VariableDecl("x", ia.BoolDomain())}))) == "x"


def test_reflexivity_opt_in():
    decls = {"x": ia.VariableDecl("x", ia.OpaqueDomain())}
    e = ia.parse_expression("x = x", decls)
    assert ia.to_text(ia.simplify(e)) == "x = x"


# ---------------------------------------------------------------------------
# falsity verdicts


def test_falsity_satisfiable_with_witness():
    e = ia.parse_expression("myCS.s < 10", LD_DECLS)
    res = falsity(e, LD_DECLS)
    assert res.verdict is ia.Verdict.SATISFIABLE
    assert res.witness is not None
    assert evaluate(e, res.witness) is True


def test_falsity_false_by_enumeration():
    e = ia.parse_expression("myCS.s < 0", LD_DECLS)
    res = falsity(e, LD_DECLS)
    assert res.verdict is ia.Verdict.FALSE
    assert oracle_falsity(e, list(LD_DECLS.values())) is True


def test_falsity_unknown_on_opaque():
    decls = {"x": ia.VariableDecl("x", ia.OpaqueDomain())}
    e = ia.parse_expression("x = x", decls)
    assert falsity(e, decls).verdict is ia.Verdict.UNKNOWN


def test_falsity_budget_forces_unknown():
    # bounds cannot refute it (myCS.s + myCS.s ranges over [0, 20]); only
    # enumeration can, and 3 valuations are too few
    e = ia.parse_expression("myCS.s + myCS.s = 1", LD_DECLS)
    res = falsity(e, LD_DECLS, budget=3)
    assert res.verdict is ia.Verdict.UNKNOWN


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("IACOMPAT_ENUM_BUDGET", "7")
    assert ia.default_budget() == 7
    monkeypatch.setenv("IACOMPAT_ENUM_BUDGET", "not-a-number")
    assert ia.default_budget() == 10**6
    monkeypatch.delenv("IACOMPAT_ENUM_BUDGET")
    assert ia.default_budget() == 10**6


def test_domain_count_stops_past_its_cap():
    small = ia.IntRangeDomain(0, 2)
    exact = [
        (ia.SeqDomain(ia.IntRangeDomain(0, 3), 5), sum(4 ** k for k in range(6))),
        (ia.SeqDomain(ia.EnumDomain(("a",)), 7), 8),
        (ia.MapDomain(small, ia.BoolDomain()), 3 ** 3),
        (ia.MapDomain(ia.SeqDomain(ia.BoolDomain(), 1), small), 4 ** 3),
        (ia.RecordDomain((("a", small), ("b", ia.SeqDomain(small, 2)))), 3 * 13),
        (ia.SeqDomain(ia.MapDomain(ia.BoolDomain(), small), 2), 1 + 16 + 16 ** 2),
    ]
    for dom, n in exact:
        assert dom.count() == n == len(list(dom.values())), dom.text()
        for cap in range(n + 2):
            got = dom.count(cap)
            assert (got == n) if n <= cap else (got > cap), (dom.text(), cap)
    for dom in (ia.SeqDomain(small), ia.MapDomain(small, ia.OpaqueDomain()),
                ia.RecordDomain((("a", small), ("b", ia.OpaqueDomain())))):
        assert dom.count() is None and dom.count(0) is None, dom.text()


def test_domain_values_agree_with_the_oracle_list():
    small = ia.IntRangeDomain(-1, 1)
    rec = ia.RecordDomain((("a", small), ("b", ia.SeqDomain(ia.EnumDomain(("x", "y")), 2))))
    for dom in (ia.BoolDomain(), small, ia.EnumDomain(("x", "y", "z")), ia.SeqDomain(small, 0),
                ia.SeqDomain(ia.BoolDomain(), 3), ia.MapDomain(small, ia.BoolDomain()), rec,
                ia.MapDomain(ia.RecordDomain((("c", ia.BoolDomain()),)), rec),
                ia.SeqDomain(ia.MapDomain(ia.BoolDomain(), small), 2)):
        got, want = list(dom.values()), oracle_values(dom)
        assert len(got) == len(set(got)) == dom.count() == len(want), dom.text()
        assert set(got) == set(want), dom.text()
    for dom in (ia.OpaqueDomain(), ia.SeqDomain(small), ia.MapDomain(small, ia.OpaqueDomain()),
                ia.RecordDomain((("a", small), ("b", ia.SeqDomain(small))))):
        assert oracle_values(dom) is None and dom.count() is None, dom.text()


def test_constraint_falsity_uses_param_domains():
    c = parse_case("TLPreSDOF")
    res = ia.constraint_falsity(c, TL_DECLS)
    assert res.verdict is ia.Verdict.SATISFIABLE


def test_case_study_constraints_never_unsatisfiable():
    # none of the shipped constraints may disable a transition outright
    for name in CASE_STUDY_CONSTRAINTS:
        c = parse_case(name)
        decls = CASE_STUDY_CONSTRAINTS[name][1]
        res = ia.constraint_falsity(c, decls)
        assert res.verdict is not ia.Verdict.FALSE, name


def test_falsity_rejects_a_missing_field():
    guard = ia.BinOp("<", ia.VarRef(("myCS", "nosuch")), ia.IntLit(3))
    with pytest.raises(ia.EvalError, match="free variable myCS.nosuch does not resolve"):
        falsity(guard, LD_DECLS)


def test_simplify_preserves_falsity_example():
    e = ia.parse_expression("(myCS.s < 0) and true", LD_DECLS)
    assert falsity(e, LD_DECLS).verdict is ia.Verdict.FALSE


# ---------------------------------------------------------------------------
# the interval tier

X_DECLS = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10))}


@pytest.mark.parametrize("text, refuted", [
    # each comparison at both sides of its boundary, x in [0, 10]
    ("x < 0", True), ("x < 1", False),
    ("x <= -1", True), ("x <= 0", False),
    ("x > 10", True), ("x > 9", False),
    ("x >= 11", True), ("x >= 10", False),
    ("x = 11", True), ("x = 10", False), ("-1 = x", True),
    ("x <> 3", False),
    # bounds go through + and -: x + 5 in [5, 15], x - x in [-10, 10], 3 - x in [-7, 3]
    ("x + 5 < 5", True), ("x + 5 < 6", False),
    ("x - x > 10", True), ("x - x >= 10", False),
    ("3 - x > 3", True), ("3 - x >= 3", False),
    # a conjunction needs one refuted operand, a disjunction all of them
    ("x > 2 and x < 0", True), ("x < 0 or x > 10", True),
    ("x < 0 or x > 9", False), ("x < 0 or x > 10 or x = 5", False),
    ("(x < 0 or x > 10) and x = 3", True), ("(x < 0 and x = 1) or x > 12", True),
    # not and implies are left to enumeration
    ("not (x >= 0)", False), ("x >= 0 implies x < 0", False),
])
def test_interval_tier_refutes_by_bounds(text, refuted):
    e = ia.parse_expression(text, X_DECLS)
    res = falsity(e, X_DECLS)
    want = oracle_falsity(e, list(X_DECLS.values()))
    assert (res.verdict is ia.Verdict.FALSE) is want
    assert (res.verdict is ia.Verdict.FALSE and res.explored == 0) is refuted


def test_interval_tier_reads_every_kind_of_leaf():
    # a record field, a map's value domain (not its keys), an old-state copy
    # and a parameter, which binds before a variable of the same name
    decls = {
        "r": ia.VariableDecl("r", ia.RecordDomain((("s", ia.IntRangeDomain(0, 2)),))),
        "m": ia.VariableDecl("m", ia.MapDomain(ia.IntRangeDomain(0, 1), ia.IntRangeDomain(5, 6))),
        "x": ia.VariableDecl("x", ia.IntRangeDomain(0, 10)),
    }
    params = {"x": ia.IntRangeDomain(20, 21), "p": ia.IntRangeDomain(3, 3)}
    for text, refuted in (
        ("r.s > 2", True), ("r.s > 1", False),
        ("m(0) < 5", True), ("m(1) >= 5", False), ("m(0) > 6", True),
        ("r.s > r@pre.s + 2", True), ("r.s > r@pre.s + 1", False),
        ("x < 20", True), ("x > 19", False), ("x@pre < 20", True),
        ("p <> 3", True), ("p = 3", False),
    ):
        e = ia.parse_expression(text, decls, params=params)
        res = falsity(e, decls, params=params)
        assert (res.verdict is ia.Verdict.FALSE and res.explored == 0) is refuted, text
        if not refuted:
            assert res.verdict is ia.Verdict.SATISFIABLE, text


def test_interval_tier_runs_before_the_budget():
    # the guard-stress shapes: mem, id, myCS and highest_strength together are
    # 1.96M valuations, beyond the default budget; bounds refute both
    # disjuncts of the first two, and cannot refute the last two
    for text, verdict in (
        ("mem(id).s = 11 or myCS.s > highest_strength + 10", ia.Verdict.FALSE),
        ("myCS.c = <leader> and myCS.s > highest_strength + 10", ia.Verdict.FALSE),
        ("mem(id).s < 3 and myCS.s > highest_strength", ia.Verdict.UNKNOWN),
        ("mem(id).c = <off> implies myCS.s >= highest_strength + 4", ia.Verdict.UNKNOWN),
    ):
        e = ia.parse_expression(text, LD_DECLS)
        res = falsity(e, LD_DECLS)
        assert (res.verdict, res.explored) == (verdict, 0), text
    e = ia.parse_expression("myCS.s < 0", LD_DECLS)
    assert falsity(e, LD_DECLS, budget=1) == ia.FalsityResult(ia.Verdict.FALSE)


def test_shared_pools_change_no_result():
    pools = {}
    for name in sorted(CASE_STUDY_CONSTRAINTS):
        c = parse_case(name)
        decls = CASE_STUDY_CONSTRAINTS[name][1]
        assert ia.constraint_falsity(c, decls, pools=pools) == ia.constraint_falsity(c, decls)
    # keyed by domain: myCS and mem's values share no list, LE_Id's is listed once
    assert pools[LE_ID] == ["dev1", "dev2"]
    assert len(pools) == len(set(pools))


@pytest.mark.parametrize("text", [
    "myCS.s = myCS@pre.s + 1",
    "myCS.c = <leader> and myCS@pre.s = 3",
    "myCS.s < myCS@pre.s and myCS@pre.c = <off>",
    "myCS.s > myCS@pre.s and myCS@pre.s > myCS.s",
])
def test_one_pool_serves_a_name_and_its_old_copy(text):
    # myCS and myCS@pre read one pool, listed by the outer and the inner loop
    # of one enumeration
    e = ia.parse_expression(text, LD_DECLS)
    pools = {}
    res = falsity(e, LD_DECLS, pools=pools)
    assert list(pools) == [DATA]
    assert (res.explored, res.witness) == _first_satisfying(ia.simplify(e), {"myCS": DATA})
    assert falsity(e, LD_DECLS, pools=pools) == res


@pytest.mark.parametrize("text, verdict", [
    ("1 in set {1, 2}", ia.Verdict.SATISFIABLE),
    ("{1} = {2}", ia.Verdict.FALSE),
])
def test_a_guard_over_no_variable_has_one_empty_valuation(text, verdict):
    e = ia.parse_expression(text, {})
    res = falsity(e, {}, pools={})
    assert (res.verdict, res.explored) == (verdict, 1)
    assert res.witness == (ia.Valuation({}) if verdict is ia.Verdict.SATISFIABLE else None)


def _int_guard(rng, name, kind, params):
    """A named guard over INT_DECLS and ``params``; a pre reads no old state."""
    body = rand_int_guard(rng)
    while kind is ia.ConstraintKind.PRE and any(r.old for r in ia.variable_refs(body)):
        body = rand_int_guard(rng)
    return ia.NamedConstraint(name, kind, body, ia.ConstraintContext(
        name, "go", tuple(ia.ParamDecl(n, INT_PARAMS[n]) for n in params)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_a_conjunction_query_matches_the_oracle(seed):
    # a parameter x on either side may shadow the variable x the other reads
    rng = random.Random(seed)
    kind = rng.choice((ia.ConstraintKind.PRE, ia.ConstraintKind.POST))
    c1, c2 = (_int_guard(rng, n, kind, rng.choice((("p",), ("p", "x")))) for n in "AB")
    conj = _conjoin_constraints(c1, c2, "AB")
    want = oracle_falsity(conj.body, INT_DECLS, conj.context.params)
    for budget in (1, 4, 16, 10**6):  # the small ones force Unknowns
        res = ia.constraint_falsity(conj, INT_DECLS, budget=budget)
        if res.verdict is ia.Verdict.FALSE:
            assert want is True
        elif res.verdict is ia.Verdict.SATISFIABLE:
            assert want is False
            assert oracle_evaluate(conj.body, res.witness) is True
        else:  # every domain is finite, so only a small budget leaves Unknown
            assert budget < 10**6


def test_a_parameter_that_shadows_the_other_operands_variable_binds_it_in_the_conjunction():
    # in A_and_B the parameter x : int[2..4] of A binds B's x as well, which
    # alone is the variable x : int[0..3]; only x = 4 satisfies both
    table = {d.name: d.domain for d in INT_DECLS}
    a = ia.NamedConstraint("A", ia.ConstraintKind.PRE, ia.parse_expression("x = 4", params=INT_PARAMS),
                           ia.ConstraintContext("A", "go", (ia.ParamDecl("x", INT_PARAMS["x"]),)))
    b = ia.NamedConstraint("B", ia.ConstraintKind.PRE, ia.parse_expression("x >= 0", table))
    conj = _conjoin_constraints(a, b, "AB")
    res = ia.constraint_falsity(conj, INT_DECLS)
    assert oracle_falsity(conj.body, INT_DECLS, conj.context.params) is False
    assert (res.verdict, res.witness, res.explored) == (ia.Verdict.SATISFIABLE, ia.Valuation({"x": 4}), 3)
    # without a shadowed name, bounds refute the conjunction with no valuation
    c = ia.NamedConstraint("C", ia.ConstraintKind.PRE, ia.parse_expression("x > 3", table))
    conj = _conjoin_constraints(b, c, "BC")
    assert oracle_falsity(conj.body, INT_DECLS) is True
    assert ia.constraint_falsity(conj, INT_DECLS) == ia.FalsityResult(ia.Verdict.FALSE)


def _check_refutation(expr, decls, params=None):
    """Every FALSE decided without a valuation agrees with the oracle."""
    table = {d.name: d.domain for d in decls}
    if any(bind_path(r.path, table, params or {}) is None for r in ia.variable_refs(expr)):
        return None  # a reference that binds nothing
    # a budget of one valuation leaves only what needs none
    res = falsity(expr, decls, params=params, budget=1)
    if res.verdict is ia.Verdict.FALSE and res.explored == 0:
        ps = [ia.ParamDecl(n, d) for n, d in (params or {}).items()]
        assert oracle_falsity(expr, decls, ps) is True
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_refutations_without_valuations_match_the_oracle(seed):
    rng = random.Random(seed)
    # a random term of any sort, alone or next to an int comparison, which
    # may refute the whole even where the term fails to evaluate
    term = rand_term(rng, depth=rng.randint(1, 3))
    if rng.random() < 0.7:
        atom = ia.BinOp(rng.choice(("<", "<=", ">", ">=", "=", "<>")),
                        rng.choice((ia.VarRef(("n",)), ia.VarRef(("r", "s")),
                                    ia.Apply(ia.VarRef(("m",)), ia.EnumLit("ea")))),
                        ia.IntLit(rng.randint(-2, 4)))
        term = join(rng.choice(("and", "or")), term, atom)
    _check_refutation(term, TERM_DECLS)
    # int guards over every kind of bounded leaf, with or without parameters
    params = INT_PARAMS if rng.random() < 0.5 else {"p": INT_PARAMS["p"]}
    _check_refutation(rand_int_guard(rng), INT_DECLS, params)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_refutations_of_long_chains_match_the_oracle(seed):
    rng = random.Random(seed)
    params = INT_PARAMS if rng.random() < 0.5 else {"p": INT_PARAMS["p"]}
    _check_refutation(rand_int_chain(rng, 2000), INT_DECLS, params)


def test_int_guards_get_refuted_often():
    # the property tests above judge something: the generators produce
    # refutations at a fair rate, also of 2000-link chains
    rng = random.Random(8)
    hits = [_check_refutation(rand_int_guard(rng), INT_DECLS, INT_PARAMS) for _ in range(300)]
    assert hits.count(True) >= 30
    chains = [_check_refutation(rand_int_chain(rng, 2000), INT_DECLS, {"p": INT_PARAMS["p"]})
              for _ in range(4)]
    assert True in chains


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_simplifier_soundness(seed):
    rng = random.Random(seed)
    decls = [ia.VariableDecl(f"v{i}", rand_domain(rng)) for i in range(rng.randint(0, 2))]
    expr = rand_expr(rng, decls, depth=3)
    simple = ia.simplify(expr)
    for _ in range(20):
        val = rand_valuation(rng, decls, drop=0.1 if rng.random() < 0.3 else 0.0)
        try:
            want = evaluate(expr, val)
        except ia.EvalError:
            with pytest.raises(ia.EvalError):
                evaluate(simple, val)
            continue
        assert evaluate(simple, val) == want


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_falsity_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    decls = [ia.VariableDecl(f"v{i}", rand_domain(rng)) for i in range(rng.randint(0, 2))]
    expr = rand_expr(rng, decls, depth=3)
    res = falsity(expr, decls)
    want = oracle_falsity(expr, decls)
    if res.verdict is ia.Verdict.FALSE:
        assert want is True
        assert res.witness is None
    elif res.verdict is ia.Verdict.SATISFIABLE:
        assert want is False
        if res.witness is not None:
            assert evaluate(expr, res.witness) is True


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_expression_print_parse_round_trip(seed):
    rng = random.Random(seed)
    decls = [ia.VariableDecl(f"v{i}", rand_domain(rng)) for i in range(rng.randint(0, 2))]
    expr = rand_expr(rng, decls, depth=3)
    text = ia.to_text(expr)
    again = ia.parse_expression(text, {d.name: d for d in decls})
    assert ia.to_text(again) == text


def _outcome(f, *args):
    try:
        v = f(*args)
    except ia.EvalError as exc:
        return type(exc), str(exc)
    return type(v), v


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluate_agrees_with_tree_walking_oracle(seed):
    # same value, or the same EvalError subclass with the same message;
    # through `evaluate` and on the flat value tuples falsity enumerates
    rng = random.Random(seed)
    expr = rand_term(rng, depth=rng.randint(1, 4))
    for _ in range(10):
        val = rand_valuation(rng, TERM_DECLS, old=rng.random() < 0.7, drop=0.2)
        if rng.random() < 0.2:
            val.values["r.s"] = 7  # a sub-path bound on its own wins over "r"
        want = _outcome(oracle_evaluate, expr, val)
        assert _outcome(evaluate, expr, val) == want
        if val.old is not None:
            cur, old = sorted(val.values), sorted(val.old)
            env = tuple(val.values[n] for n in cur) + tuple(val.old[n] for n in old)
            assert _outcome(compile_expr(expr, slot_access(cur, old)), env) == want


def _first_satisfying(expr, decl_map):
    """(1 + index of the first satisfying valuation, that valuation) in the
    promised order, or (number of valuations, None): the referenced declared
    variables by sorted name, current ones outermost, each old assignment
    inside its current one, as nested ``itertools.product`` loops."""
    paths = set()
    collect_paths(expr, paths)

    def root(dotted):
        parts = dotted.split(".")
        return next(".".join(parts[:c]) for c in range(len(parts), 0, -1)
                    if ".".join(parts[:c]) in decl_map)

    cur = sorted({root(p) for p, is_old in paths if not is_old})
    old = sorted({root(p) for p, is_old in paths if is_old})
    index = 0
    for cur_combo in itertools.product(*(list(decl_map[n].values()) for n in cur)):
        for old_combo in itertools.product(*(list(decl_map[n].values()) for n in old)):
            index += 1
            val = ia.Valuation(dict(zip(cur, cur_combo)),
                               dict(zip(old, old_combo)) if old else None)
            try:
                if oracle_evaluate(expr, val) is True:
                    return index, val
            except ia.EvalError:
                pass
    return index, None


def _check_enumeration(expr, decl_map, params=None):
    res = falsity(expr, decl_map, params=params)
    if res.verdict is ia.Verdict.UNKNOWN:
        return
    simple = ia.simplify(expr)
    if isinstance(simple, ia.BoolLit):
        assert res.explored == 0
        return
    if res.verdict is ia.Verdict.FALSE and res.explored == 0:
        # refuted by intervals, without a valuation: only the oracle can judge
        decls = [ia.VariableDecl(n, d) for n, d in decl_map.items()]
        ps = [ia.ParamDecl(n, d) for n, d in (params or {}).items()]
        assert oracle_falsity(expr, decls, ps) is True
        return
    table = {**decl_map, **(params or {})}
    explored, witness = _first_satisfying(simple, table)
    assert res.explored == explored
    assert res.witness == witness
    if witness is not None:
        assert oracle_evaluate(expr, res.witness) is True


@pytest.mark.parametrize("name", sorted(CASE_STUDY_CONSTRAINTS))
def test_enumeration_order_on_case_study(name):
    c = parse_case(name)
    decls = {k: d.domain for k, d in CASE_STUDY_CONSTRAINTS[name][1].items()}
    _check_enumeration(c.body, decls, c.param_domains())


def test_enumeration_order_on_random_guards():
    rng = random.Random(20)
    for _ in range(300):
        decls = {f"v{i}": rand_domain(rng) for i in range(rng.randint(0, 3))}
        expr = rand_expr(rng, [ia.VariableDecl(n, d) for n, d in decls.items()], depth=3)
        if rng.random() < 0.5:
            expr = _with_old(expr, rng)
        _check_enumeration(expr, decls)
