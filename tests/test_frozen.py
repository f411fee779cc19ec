"""Value semantics of the immutable record types: equality that tells classes
apart, hashing, truth, immutability, repr, defaults, ``_replace``, and an
import that loads no code generator."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iacompat as ia
from iacompat.domains import Sort
from iacompat.exprs import ConstraintContext, ConstraintKind, ParamDecl, SortScope

X = ia.VarRef(("x",))
NODES = (
    (ia.BoolLit(True), "BoolLit(value=True)"),
    (ia.IntLit(-3), "IntLit(value=-3)"),
    (ia.EnumLit("off"), "EnumLit(name='off')"),
    (ia.SetLit((ia.IntLit(1),)), "SetLit(items=(IntLit(value=1),))"),
    (X, "VarRef(path=('x',), old=False)"),
    (ia.VarRef(("a", "b"), True), "VarRef(path=('a', 'b'), old=True)"),
    (ia.Not(X), "Not(operand=VarRef(path=('x',), old=False))"),
    (ia.BinOp("=", X, ia.IntLit(0)),
     "BinOp(op='=', left=VarRef(path=('x',), old=False), right=IntLit(value=0))"),
    (ia.Chain(("and",), (X, X)),
     "Chain(ops=('and',), operands=(VarRef(path=('x',), old=False), VarRef(path=('x',), old=False)))"),
    (ia.Membership(X, X),
     "Membership(item=VarRef(path=('x',), old=False), collection=VarRef(path=('x',), old=False))"),
    (ia.Apply(X, ia.IntLit(1)), "Apply(target=VarRef(path=('x',), old=False), key=IntLit(value=1))"),
    (ia.FieldAccess(X, "c"), "FieldAccess(target=VarRef(path=('x',), old=False), name='c')"),
    (ia.MethodCall(X, "size"), "MethodCall(target=VarRef(path=('x',), old=False), name='size', args=())"),
)
DOMAINS = (
    (ia.BoolDomain(), "BoolDomain()"),
    (ia.IntRangeDomain(0, 3), "IntRangeDomain(lower=0, upper=3)"),
    (ia.EnumDomain(("a", "b")), "EnumDomain(literals=('a', 'b'))"),
    (ia.SeqDomain(ia.BoolDomain()), "SeqDomain(element=BoolDomain(), max_len=None)"),
    (ia.MapDomain(ia.IntRangeDomain(0, 1), ia.OpaqueDomain()),
     "MapDomain(key=IntRangeDomain(lower=0, upper=1), value=OpaqueDomain())"),
    (ia.RecordDomain((("c", ia.BoolDomain()),)), "RecordDomain(fields=(('c', BoolDomain()),))"),
    (ia.OpaqueDomain(), "OpaqueDomain()"),
)


@pytest.mark.parametrize("value, text", NODES + DOMAINS, ids=lambda v: type(v).__name__)
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


def test_repr_of_records_with_defaults():
    assert repr(ia.VariableDecl("x", ia.BoolDomain())) == "VariableDecl(name='x', domain=BoolDomain())"
    assert repr(Sort("set", elem=Sort("int"))) == (
        "Sort(tag='set', elem=Sort(tag='int', elem=None, key=None, value=None, fields=None), "
        "key=None, value=None, fields=None)")
    assert repr(ia.NamedConstraint("G", ConstraintKind.PRE, X)) == (
        "NamedConstraint(name='G', kind=<ConstraintKind.PRE: 'pre'>, body=VarRef(path=('x',), old=False), "
        "context=ConstraintContext(contract=None, operation=None, params=()))")


def test_classes_with_equal_fields_are_unequal():
    assert ia.IntLit(0) != ia.BoolLit(False)
    assert not ia.IntLit(0) == ia.BoolLit(False)
    assert ia.IntLit(1) != ia.BoolLit(True)
    assert ia.BoolDomain() != ia.OpaqueDomain()
    assert len({ia.BoolDomain(): 1, ia.OpaqueDomain(): 2}) == 2
    assert len({ia.IntLit(0), ia.BoolLit(False)}) == 2


def test_a_value_never_equals_a_plain_tuple():
    # False, not NotImplemented: the reflected tuple comparison would say True
    assert ia.IntLit(0).__eq__((0,)) is False
    assert ia.IntLit(0) != (0,) and (0,) != ia.IntLit(0)
    assert ia.BoolDomain() != () and () != ia.BoolDomain()
    assert ia.BoolDomain().__ne__(()) is True


def test_equal_values_hash_equal():
    pairs = [(ia.VarRef(("a", "b")), ia.VarRef(("a", "b"), False)),
             (ia.Chain(("and",), (ia.Chain(("and",), (X, X)), X)), ia.Chain(("and", "and"), (X, X, X))),
             (ia.MapDomain(ia.BoolDomain(), ia.IntRangeDomain(0, 2)),
              ia.MapDomain(ia.BoolDomain(), ia.IntRangeDomain(0, 2))),
             (ia.OpaqueDomain(), ia.OpaqueDomain())]
    for a, b in pairs:
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_a_value_without_fields_is_truthy():
    assert ia.BoolDomain() and ia.OpaqueDomain()
    assert bool(ia.BoolDomain()) is True
    assert bool(ConstraintContext()) is True


@pytest.mark.parametrize("value, field", [
    (ia.IntLit(1), "value"),
    (X, "path"),
    (ia.IntRangeDomain(0, 1), "lower"),
    (ia.NamedConstraint("G", ConstraintKind.PRE, X), "body"),
    (ia.empty_automaton(), "name"),
])
def test_assigning_a_field_raises(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)


def test_a_value_takes_no_new_attribute():
    with pytest.raises(AttributeError):
        ia.IntLit(1).extra = 2


def test_defaults_and_factories():
    assert ia.VarRef(("x",)).old is False
    assert ia.MethodCall(X, "size").args == ()
    assert ia.Valuation().values == {} and ia.Valuation().values is not ia.Valuation().values
    assert SortScope({}).params is not SortScope({}).params
    a, b = ia.empty_automaton(), ia.empty_automaton()
    assert a.variables is not b.variables
    assert ParamDecl("p", ia.BoolDomain()) == ParamDecl(name="p", domain=ia.BoolDomain(), mode=None)


def test_bad_calls_are_type_errors():
    for call in (lambda: ia.IntLit(), lambda: ia.IntLit(1, 2), lambda: ia.IntLit(value=1, extra=2),
                 lambda: ia.BinOp("=", X, right=X, op="<"), lambda: ia.VarRef()):
        with pytest.raises(TypeError):
            call()


def test_post_init_checks_and_normalises():
    with pytest.raises(ValueError, match=r"empty integer range \[2\.\.1\]"):
        ia.IntRangeDomain(2, 1)
    with pytest.raises(ValueError, match="enum domain repeats a literal"):
        ia.EnumDomain(("a", "a"))
    # a run built from a run is one node
    assert ia.Chain(("or",), (ia.Chain(("or",), (X, X)), X)).ops == ("or", "or")
    # implies associates to the right: a last operand that is a run is
    # spliced in, a first one stays one operand, and both print and parse back
    p, q, r = (ia.VarRef((n,)) for n in "pqr")
    right = ia.Chain(("implies",), (p, ia.Chain(("implies",), (q, r))))
    assert right == ia.Chain(("implies", "implies"), (p, q, r))
    left = ia.Chain(("implies",), (ia.Chain(("implies",), (p, q)), r))
    assert left.ops == ("implies",) and left.operands[0] == ia.Chain(("implies",), (p, q))
    assert [ia.to_text(e) for e in (right, left)] == ["p implies q implies r", "(p implies q) implies r"]
    for e in (right, left):
        assert ia.parse_expression(ia.to_text(e)) == e
    pairs = {"p": ("a", "b")}
    e = ia.empty_automaton()
    prod = ia.ProductResult(e, pairs, (), [e, e])
    assert prod.pair_of == pairs and prod.pair_of is not pairs
    assert prod.operands == (e, e)


def test_replace_rebuilds_through_the_constructor():
    r = ia.IntRangeDomain(0, 3)
    assert r._replace(upper=5) == ia.IntRangeDomain(0, 5)
    with pytest.raises(ValueError):
        r._replace(upper=-1)
    with pytest.raises(TypeError):
        r._replace(width=2)
    a = ia.empty_automaton()._replace(states=["s"], initials=["s"])
    assert (a.states, a.initials, a.name) == (("s",), ("s",), "empty")


_STEP_LINE = re.compile(r"^\s*(\w+) -\[(\w+)(?: pre (\w+))?(?: post (\w+))?\]-> (\w+);", re.M)


def _automata_with_their_steps():
    """Parsed, code-built and product automata, each with its steps as a tuple in the
    order they were given: a fixture's as its text lists them, a product's by pair state."""
    out = []
    for file, name in (("le_device.ia", "LE_Device"), ("transport_layer.ia", "TransportLayer")):
        steps = tuple(ia.Transition(s, pre or None, ia.ActionLabel(action), post or None, t)
                      for s, action, pre, post, t in _STEP_LINE.findall(ia.fixture_text(file)))
        out.append((ia.load_fixture(file).automaton(name), steps))
    go, ha, hb = (ia.ActionLabel(n) for n in ("go", "ha", "hb"))
    T = ia.Transition
    stray = (T("s", None, go, None, "nowhere"), T("nowhere", None, go, None, "s"))
    out.append((ia.InterfaceAutomaton(name="A", states=("s",), initials=("s",), inputs=(go,),
                                      outputs=(), hidden=(), transitions=stray), stray))
    a = ia.InterfaceAutomaton(name="A", states=("a0", "a1"), initials=("a0",), inputs=(), outputs=(go,),
                              hidden=(ha,), transitions=(T("a0", None, go, None, "a1"),
                                                         T("a1", None, ha, None, "a0")))
    b = ia.InterfaceAutomaton(name="B", states=("b0", "b1"), initials=("b0",), inputs=(go,), outputs=(),
                              hidden=(hb,), transitions=(T("b1", None, hb, None, "b1"),
                                                         T("b0", None, go, None, "b1")))
    product_steps = (T("a0__b0", None, go, None, "a1__b1"), T("a1__b1", None, ha, None, "a0__b1"),
                     T("a1__b1", None, hb, None, "a1__b1"), T("a0__b1", None, hb, None, "a0__b1"))
    out.append((ia.product(a, b).automaton, product_steps))
    out.append((ia.check_compatibility(a, b).product.automaton, product_steps))
    return out


def test_copy_and_pickle_round_trip():
    values = [v for v, _ in NODES + DOMAINS] + [ia.Chain(("+", "-"), (X, ia.IntLit(1), X))]
    for v in values:
        assert copy.copy(v) == v and copy.deepcopy(v) == v
        assert pickle.loads(pickle.dumps(v)) == v
    for a, steps in _automata_with_their_steps():
        assert a.transitions == steps and steps == a.transitions
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert twin == a and repr(twin) == repr(a)
        assert a._replace() == a


def test_import_loads_no_code_generator():
    # building classes with dataclasses costs an import of inspect, ast and
    # more, and only a report needs json; every command pays for the package
    # import before it checks
    src = str(Path(ia.__file__).resolve().parents[1])
    code = "import iacompat, sys; print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout == "[]\n"
