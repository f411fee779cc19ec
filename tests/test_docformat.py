"""Document parsing, canonical printing, diagnostics, and DOT export."""

import importlib.util
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import iacompat as ia
from iacompat.docformat import SECTIONS, _params_text
from iacompat.fixtures import FIXTURE_NAMES, fixture_text
from iacompat.lexer import MAX_DEPTH, TokenStream, position
from oracles import oracle_tokenize
from randgen import rand_composable_pair


def _ld_doc():
    return ia.load_fixture("le_device.ia")


def _tl_doc():
    return ia.load_fixture("transport_layer.ia")


# ---------------------------------------------------------------------------
# fixture fidelity


def test_le_device_fixture_counts():
    a = _ld_doc().automaton("LE_Device")
    assert len(a.states) == 6
    assert a.initials == ("Off",)
    assert len(a.inputs) == 1
    assert len(a.outputs) == 1
    assert len(a.hidden) == 13
    assert len(a.transitions) == 14


def test_transport_layer_fixture_counts():
    a = _tl_doc().automaton("TransportLayer")
    assert len(a.states) == 10
    assert a.initials == ("Init",)
    assert len(a.inputs) == 1
    assert len(a.outputs) == 1
    assert len(a.hidden) == 8
    assert len(a.transitions) == 16


def test_transport_layer_keeps_duplicate_declaration():
    a = _tl_doc().automaton("TransportLayer")
    triples = [(t.source, t.action.name, t.target) for t in a.transitions]
    assert triples.count(("AddToQueue", "ready", "Ready")) == 2
    assert len(set(a.transitions)) == 15  # as a set, one collapses


def test_fixture_registries():
    ld = _ld_doc().automaton("LE_Device")
    assert set(ld.preconditions) == {"LDPreCC", "LDPreW", "LDPreIS"}
    assert set(ld.postconditions) == {"LDPostCC", "LDPostW", "LDPostIS"}
    tl = _tl_doc().automaton("TransportLayer")
    assert set(tl.preconditions) == {"TLPreGNM", "TLPreSDOF", "TLPreSDON"}
    assert set(tl.postconditions) == {"TLPostI", "TLPostATQ"}


def test_fixture_variables():
    ld = _ld_doc().automaton("LE_Device")
    assert set(ld.variables) == {
        "id", "mem", "highest_strength", "highest_strength_id",
        "otherLeaders", "myCS", "isLeader", "newc",
    }
    tl = _tl_doc().automaton("TransportLayer")
    assert set(tl.variables) == {"queue", "devOn", "node_ids"}
    assert tl.variables["devOn"].domain.text() == "map enum { dev1, dev2 } to bool"


def test_fixture_invariant_slots():
    doc = _ld_doc()
    invs = [c for c in doc.constraints if c.kind is ia.ConstraintKind.INV]
    assert sorted(c.name for c in invs) == ["LDInvMem1", "LDInvMem2", "LDInvMem3"]
    assert all(ia.to_text(c.body) == "true" for c in invs)


def test_fixture_documents_are_clean():
    for name in FIXTURE_NAMES:
        assert ia.document_diagnostics(ia.load_fixture(name)) == []


# ---------------------------------------------------------------------------
# parsing details


def test_empty_document():
    doc = ia.parse_document("", source="empty")
    assert doc.automata == ()
    assert ia.document_diagnostics(doc) == []


def test_two_contracts_preserved_in_order():
    text = """
    contract First { states A; initial A; inputs; outputs; hidden; transitions { } }
    contract Second { states B; initial B; inputs; outputs; hidden; transitions { } }
    """
    doc = ia.parse_document(text)
    assert [a.name for a in doc.automata] == ["First", "Second"]
    with pytest.raises(ValueError):
        doc.automaton()  # ambiguous without a name
    assert doc.automaton("Second").states == ("B",)


def test_type_alias_desugars():
    text = """
    type Small = int[0..2];
    contract C {
      states A; initial A; inputs; outputs; hidden;
      var x : Small;
      transitions { }
    }
    """
    doc = ia.parse_document(text)
    assert doc.automaton("C").variables["x"].domain == ia.IntRangeDomain(0, 2)


def test_parse_error_positions():
    cases = [
        ("contract C { states A, A; }", "duplicate state"),
        ("contract C { states A; initial B; inputs; outputs; hidden; }", "not a state"),
        ("contract C { states A; initial A; inputs; outputs; hidden; "
         "transitions { A -[go]-> A; } }", "go"),
        ("contract C { states A; inputs; outputs; hidden; "
         "transitions { A -[x pre P]-> A; } }", ""),
        ("contract C { states A; initial A; inputs; inputs; outputs; hidden; }",
         "inputs"),
    ]
    for text, needle in cases:
        with pytest.raises(ia.ParseError) as exc:
            ia.parse_document(text, source="case.ia")
        msg = str(exc.value)
        assert msg.startswith("case.ia:"), msg
        assert needle.lower() in msg.lower()


_GO = "contract A { states s; initial s; inputs; outputs; hidden go; "
_NINES = "9" * 5000  # a literal longer than the 4300 digits Python converts
_DEEP = "x = " + "(" * 3000 + "1" + ")" * 3000
# each alias one level deeper than the one before it
_ALIASES = "type T0 = bool;" + "".join(f" type T{i} = seq of T{i - 1} maxlen 1;" for i in range(1, 1201))
_PARSERS = {"doc": ia.parse_document, "expr": ia.parse_expression, "constraint": ia.parse_constraint}

# (parser, text, exact error), positions counted in source characters
PARSE_ERRORS = [
    ("doc", "contract A @ { }", "case.ia:1:12: stray '@' (did you mean '@pre'?)"),
    ("doc", "contract A { states s@pr; }", "case.ia:1:22: stray '@' (did you mean '@pre'?)"),
    ("doc", 'document "abc;\ncontract A {}', "case.ia:1:10: unterminated string literal"),
    ("expr", '"abc', "case.ia:1:1: unterminated string literal"),
    ("doc", "contract A { states $; }", "case.ia:1:21: unexpected character '$'"),
    ("doc", "contract A { states s, é; }", "case.ia:1:24: unexpected character 'é'"),
    # the eof token sits at the end of the input, after a trailing comment too
    ("doc", "contract A { states s // trailing",
     "case.ia:1:34: expected ;, found 'end of input'"),
    ("expr", "x = // note", "case.ia:1:12: expected an expression, found 'end of input'"),
    ("doc", "\n\ncontract A {\n  states s;\n  initial s;\n  inputs; outputs; hidden go;\n"
     "  transitions { s -[go pre P]-> s; }\n}",
     "case.ia:7:28: unknown precondition 'P'"),
    ("doc", "contract A { states s;\r\n  initial s;\r\n  inputs ~; }",
     "case.ia:3:10: expected an action name, found '~'"),
    ("doc", "type T = enum { a, b };\ntype T = bool;", "case.ia:2:6: duplicate type name 'T'"),
    ("expr", "x\n  and\n  y $", "case.ia:3:5: unexpected character '$'"),
    ("expr", "x\r\n = @", "case.ia:2:4: stray '@' (did you mean '@pre'?)"),
    ("expr", "a@pre@pre", "case.ia:1:6: unexpected trailing input '@pre'"),
    # an enum literal binds tighter than < and <=
    ("expr", "x <<a> b", "case.ia:1:8: unexpected trailing input 'b'"),
    ("expr", "x <= <a", "case.ia:1:6: expected an expression, found '<'"),
    ("expr", "x<=<a>>", "case.ia:1:7: unexpected trailing input '>'"),
    # ... beats .. beats .
    ("doc", _GO + "var x : int[0...3]; }", "case.ia:1:76: expected .., found '...'"),
    ("doc", _GO + "var x : int[0.3]; }", "case.ia:1:76: expected .., found '.'"),
    ("expr", "q(1,..,2)", "case.ia:1:5: expected '...', found '..'"),
    # a slice that does not start at 1 is placed at its first bound
    ("expr", "q(2,...,3) = q", "case.ia:1:3: sequence slices must start at 1"),
    ("expr", "q( x + 1 ,...,3)", "case.ia:1:4: sequence slices must start at 1"),
    ("expr", "a....b", "case.ia:1:2: unexpected trailing input '...'"),
    ("doc", "contract", "case.ia:1:9: expected a contract name, found 'end of input'"),
    # → is one source character
    ("expr", "a → b $", "case.ia:1:7: unexpected character '$'"),
    ("doc", _GO + "transitions { s -[go]→ s $ } }", "case.ia:1:88: unexpected character '$'"),
    ("doc", 'document "→" version 1;', "case.ia:1:22: expected a quoted version, found '1'"),
    # a kind word as the last token: the name lookahead stops at eof
    ("doc", _GO + "pre", "case.ia:1:66: expected :, found 'end of input'"),
    # a section read at most once is a duplicate at its second keyword
    ("doc", "contract A { states s; states t; }", "case.ia:1:24: duplicate section 'states'"),
    ("doc", _GO + "initial s; }", "case.ia:1:63: duplicate section 'initial'"),
    ("doc", _GO + "transitions { } transitions { } }", "case.ia:1:79: duplicate section 'transitions'"),
    ("doc", _GO + "inputs; }", "case.ia:1:63: duplicate section 'inputs'"),
    # every name list rejects a repeat
    ("doc", "contract A { states s; initial s, s; }", "case.ia:1:35: duplicate initial state 's'"),
    # a context owner is one name, and an unnamed constraint still has its colon
    ("doc", "contract A { states s; context Le Device::op() { pre P: true; } }",
     "case.ia:1:35: expected 'pre', 'post' or 'inv', found 'Device'"),
    ("doc", _GO + "pre true; }", "case.ia:1:67: expected :, found 'true'"),
    # every comma list, whether it may be empty or not
    ("expr", "m(1, 2)", "case.ia:1:6: expected '...', found '2'"),
    ("expr", "m()", "case.ia:1:3: expected an expression, found ')'"),
    ("expr", "{1,}", "case.ia:1:4: expected an expression, found '}'"),
    ("expr", "{1 2}", "case.ia:1:4: expected }, found '2'"),
    ("expr", "f.front(1,)", "case.ia:1:11: expected an expression, found ')'"),
    ("expr", "q.size(", "case.ia:1:8: expected an expression, found 'end of input'"),
    ("doc", "contract A { states a,; }", "case.ia:1:23: expected a state name, found ';'"),
    ("doc", "contract A { states a b; }", "case.ia:1:23: expected ;, found 'b'"),
    ("doc", _GO + "context A::op(x : bool,) { pre P: true; } }",
     "case.ia:1:86: expected a parameter name, found ')'"),
    ("doc", _GO + "context A::op(x : bool y : bool) { pre P: true; } }",
     "case.ia:1:86: expected ), found 'y'"),
    ("doc", _GO + "var v : enum { }; }", "case.ia:1:78: expected an enum literal, found '}'"),
    ("doc", _GO + "var v : record { }; }", "case.ia:1:80: expected a field name, found '}'"),
    ("doc", _GO + "var v : seq bool; }", "case.ia:1:75: expected 'of', found 'bool'"),
    ("doc", _GO + "var v : map bool bool; }", "case.ia:1:80: expected 'to', found 'bool'"),
    ("doc", 'document "x" version;', "case.ia:1:21: expected a quoted version, found ';'"),
    # errors found after a rule has read on, placed at a token it kept
    ("doc", _GO + "transitions { t -[go]-> s; } }", "case.ia:1:77: unknown state 't'"),
    ("doc", _GO + "transitions {\n  s -[go]-> s;\n  s -[go]-> t; } }", "case.ia:3:13: unknown state 't'"),
    ("doc", _GO + "transitions { s -[stop]-> s; } }", "case.ia:1:81: undeclared action stop"),
    ("doc", _GO + "transitions { s -[ns::go]-> s; } }", "case.ia:1:81: undeclared action ns::go"),
    ("doc", _GO + "transitions { s -[go post Q]-> s; } }", "case.ia:1:89: unknown postcondition 'Q'"),
    ("doc", "contract A { states s; initial s, t; inputs; outputs; hidden; }",
     "case.ia:1:35: initial state 't' is not a state"),
    ("doc", _GO + "var x : bool; var x : int[0..1]; }", "case.ia:1:81: duplicate variable 'x'"),
    ("doc", _GO + "var a.b : bool;\nvar a.b : bool; }", "case.ia:2:5: duplicate variable 'a.b'"),
    ("doc", _GO + "pre P: true; post P: true; }", "case.ia:1:81: duplicate constraint name 'P'"),
    ("doc", "contract A { states s, t, s; }", "case.ia:1:27: duplicate state 's'"),
    ("doc", "contract A { states s; inputs a, b, a; }",
     "case.ia:1:37: action a declared twice under 'inputs'"),
    ("doc", "contract A { states s; inputs; outputs; hidden go, ns::go, go; }",
     "case.ia:1:60: action go declared twice under 'hidden'"),
    ("doc", _GO + "var x : int[0..3];\n  pre P: (x + 1); }",
     "case.ia:2:10: constraint P: body has sort int, expected boolean in `x + 1`"),
    ("doc", _GO + "var v : Foo; }", "case.ia:1:71: unknown type name 'Foo'"),
    ("doc", _GO + "var v : int[3..1]; }", "case.ia:1:71: empty integer range [3..1]"),
    ("doc", _GO + "var v : seq of int[1..0]; }", "case.ia:1:78: empty integer range [1..0]"),
    ("doc", _GO + "var v : enum { a, b, a }; }", "case.ia:1:71: enum domain repeats a literal"),
    ("doc", _GO + "var v : record { f : bool, f : bool }; }",
     "case.ia:1:71: record domain repeats a field name"),
    ("doc", _GO + "var x : bool;\n  pre P: x@pre; }",
     "case.ia:2:3: constraint P: old-state references are only legal in postconditions"),
    # the old copy of a path read before in its current state is a reference of its own
    ("doc", _GO + "var x : bool;\n  pre P: x or not x~; }",
     "case.ia:2:3: constraint P: old-state references are only legal in postconditions"),
    ("doc", "contract A { inputs; outputs; hidden; }",
     "case.ia:1:10: contract 'A' is missing its 'states' section"),
    ("doc", "\ncontract\n  A { states s; inputs; outputs; }",
     "case.ia:3:3: contract 'A' is missing its 'hidden' section"),
    # an empty string literal is a token, not the end of input
    ("expr", 'x = ""', "case.ia:1:5: expected an expression, found ''"),
    ("doc", '""', "case.ia:1:1: expected 'type' or 'contract', found ''"),
    ("doc", _GO + 'var v : ""; }', "case.ia:1:71: expected a domain, found ''"),
    # every integer literal is read by one rule, placed at the literal
    ("doc", _GO + f"var x : int[0..{_NINES}]; }}", "case.ia:1:78: integer literal longer than 4300 digits"),
    ("doc", _GO + f"var x : int[-{_NINES}..0]; }}", "case.ia:1:76: integer literal longer than 4300 digits"),
    ("doc", _GO + f"var q : seq of bool maxlen {_NINES}; }}",
     "case.ia:1:90: integer literal longer than 4300 digits"),
    ("expr", f"x < {_NINES}", "case.ia:1:5: integer literal longer than 4300 digits"),
    ("expr", f"x = -{_NINES}", "case.ia:1:6: integer literal longer than 4300 digits"),
    ("expr", "x < " + "0" * 4300 + "1", "case.ia:1:5: integer literal longer than 4300 digits"),
    # a step's names are whole words, though the words they would split into are declared,
    # and an error found once the contract is read is placed at the name in the step that
    # one match read
    ("doc", _GO + "pre P: true; transitions { s -[gopre P]-> s; } }", "case.ia:1:100: expected ], found 'P'"),
    ("doc", _GO + "pre x: true; transitions { s -[go prex]-> s; } }", "case.ia:1:97: expected ], found 'prex'"),
    ("doc", _GO + "pre P: true; post Q: true; transitions { s -[go pre P postQ]-> s; } }",
     "case.ia:1:117: expected ], found 'postQ'"),
    ("doc", _GO + "transitions { s -[go]-> s;\n  s -[go pre P]-> s; } }",
     "case.ia:2:14: unknown precondition 'P'"),
    # a lexical fault anywhere is reported before a grammar error, however it was found:
    # at once, at a token kept for later, or at the end of a contract
    ("doc", "contract A { states s s; } @", "case.ia:1:28: stray '@' (did you mean '@pre'?)"),
    ("doc", "contract A { states s; initial t; inputs; outputs; hidden; }\n\"open",
     "case.ia:2:1: unterminated string literal"),
    ("doc", _GO + "transitions { s -[go]-> t; } } $", "case.ia:1:94: unexpected character '$'"),
    ("doc", _GO + "transitions { s -[go]-> s; s -[stop]-> s; } } é",
     "case.ia:1:109: unexpected character 'é'"),
    ("doc", _GO + "transitions { s -[go pre P]-> s; } } // a comment\n@",
     "case.ia:2:1: stray '@' (did you mean '@pre'?)"),
    ("doc", _GO + "transitions { s -[go]-> s s -[go]-> s; } \"x", "case.ia:1:104: unterminated string literal"),
    ("doc", _GO + "var x : int[0..3];\n  pre P: (x + 1); } #", "case.ia:2:21: unexpected character '#'"),
    ("doc", "contract A { states s; } contract A { states s; inputs; outputs; hidden; } @",
     "case.ia:1:76: stray '@' (did you mean '@pre'?)"),
    ("expr", "x = = y @", "case.ia:1:9: stray '@' (did you mean '@pre'?)"),
    ("expr", '(x "abc', "case.ia:1:4: unterminated string literal"),
    ("expr", "x a @pre $", "case.ia:1:10: unexpected character '$'"),
    ("constraint", "pre P: x = = 1 $", "case.ia:1:16: unexpected character '$'"),
    ("constraint", "context A::op() { } @", "case.ia:1:21: stray '@' (did you mean '@pre'?)"),
    ("constraint", 'pre P: true; pre Q: false "q', "case.ia:1:27: unterminated string literal"),
    ("constraint", "pre P: x~ = 1 @", "case.ia:1:15: stray '@' (did you mean '@pre'?)"),
    # and before nesting too deep for Python's stack
    ("doc", _GO + f"var x : int[0..3]; pre P: {_DEEP} @ }}",
     "case.ia:1:6095: stray '@' (did you mean '@pre'?)"),
    ("expr", f"{_DEEP} @", "case.ia:1:6007: stray '@' (did you mean '@pre'?)"),
    ("constraint", f"pre P: {_DEEP} $", "case.ia:1:6014: unexpected character '$'"),
    # an alias weighs its own levels: T33 is one past the limit, at the T32 it holds
    ("doc", _ALIASES + " contract A { states s; inputs; outputs; hidden; var v : T1200; }",
     "case.ia:1:1040: domain nests too deeply"),
    # each branch of a postfix suffix, a primary, a path and a domain, as the
    # parser dispatches on the current token
    ("expr", "x.", "case.ia:1:3: expected a member name, found 'end of input'"),
    ("expr", "x.5", "case.ia:1:3: expected a member name, found '5'"),
    ("expr", "a = not b", "case.ia:1:5: 'not' cannot start an expression"),
    ("expr", "-x", "case.ia:1:2: expected an integer literal, found 'x'"),
    ("expr", "x->", "case.ia:1:4: expected a collection operation, found 'end of input'"),
    ("expr", "x->foo", "case.ia:1:4: unknown arrow operation 'foo'"),
    ("doc", "contract A { var q : seq of bool maxlen x; }", "case.ia:1:41: expected a length bound, found 'x'"),
    ("doc", "contract A { var a. : bool; }", "case.ia:1:21: expected a path segment, found ':'"),
    ("doc", "contract A { var q : 5; }", "case.ia:1:22: expected a domain, found '5'"),
]


def _short_id(value):
    # a long input is named by its length, and shorter ones as pytest names them
    return f"<{len(value)} characters>" if isinstance(value, str) and len(value) > 200 else None


@pytest.mark.parametrize("parser, text, expected", PARSE_ERRORS, ids=_short_id)
def test_parse_error_text_is_pinned(parser, text, expected):
    with pytest.raises(ia.ParseError) as exc:
        _PARSERS[parser](text, source="case.ia")
    assert str(exc.value) == expected


def under_frames(frames, call, *args):
    """``call(*args)`` from ``frames`` more Python frames than the caller's."""
    return call(*args) if frames == 0 else under_frames(frames - 1, call, *args)


def opener_column(text, opener):
    """The column of the token that opens the level past ``MAX_DEPTH`` in one-line ``text``:
    the parser reads the openers of a nest in text order, so it is the nest's ``MAX_DEPTH + 1``-th."""
    return [m.start() for m in re.finditer(re.escape(opener), text)][MAX_DEPTH] + 1


# each domain form holds its argument one level deeper, with the token that opens the level
DOMAIN_NESTINGS = {
    "seq": (lambda d: f"seq of {d} maxlen 1", "seq"),
    "map key": (lambda d: f"map {d} to bool", "map"),
    "map value": (lambda d: f"map bool to {d}", "map"),
    "record": (lambda d: f"record {{ f : {d} }}", "record"),
}


@pytest.mark.parametrize("frames", [0, 600])
@pytest.mark.parametrize("form", DOMAIN_NESTINGS)
def test_a_domain_nests_at_most_max_depth_levels(form, frames):
    wrap, opener = DOMAIN_NESTINGS[form]
    at_limit = "bool"
    for _ in range(MAX_DEPTH):
        at_limit = wrap(at_limit)
    doc = f"contract A {{ states s; inputs; outputs; hidden; var v : {at_limit}; }}"
    a = under_frames(frames, ia.parse_document, doc).automaton()
    assert a.variables["v"].domain.depth == MAX_DEPTH
    assert under_frames(frames, ia.print_document, ia.document_from_automaton(a)).count(opener) == MAX_DEPTH
    past = doc.replace(at_limit, wrap(at_limit))
    with pytest.raises(ia.ParseError) as exc:
        under_frames(frames, ia.parse_document, past)
    assert str(exc.value) == f"<string>:1:{opener_column(past, opener)}: domain nests too deeply"


@pytest.mark.parametrize("frames", [0, 600])
def test_an_alias_weighs_the_levels_of_its_domain(frames):
    types = _ALIASES[:_ALIASES.index(" type T33 ")]
    doc = types + " contract A { states s; inputs; outputs; hidden; var v : T32; }"
    assert under_frames(frames, ia.parse_document, doc).automaton().variables["v"].domain.depth == MAX_DEPTH
    for past in (doc.replace("var v : T32", "var v : seq of T32"),
                 doc.replace("var v : T32", "var v : record { f : T32 }"),
                 types + " type T33 = map bool to T32;"):
        with pytest.raises(ia.ParseError) as exc:
            under_frames(frames, ia.parse_document, past)
        assert str(exc.value) == f"<string>:1:{past.rindex('T32') + 1}: domain nests too deeply"


# ---------------------------------------------------------------------------
# one constraint grammar


def test_parse_constraint_reads_what_the_document_reads():
    # every fixture constraint, written on one line with the printer's own helpers
    checked = 0
    for name in FIXTURE_NAMES:
        doc = ia.load_fixture(name)
        for c in doc.constraints:
            ctx = c.context
            op = "" if ctx.operation is None else f"::{ctx.operation}({_params_text(ctx.params)})"
            line = f"context {ctx.contract}{op} {c.kind.value} {c.name}: {ia.to_text(c.body)}"
            assert ia.parse_constraint(line, doc.automaton(ctx.contract).variables) == c, line
            checked += 1
    assert checked == 14


# (one constraint, its error, whether a document gives that text at the same token)
CONSTRAINT_ERRORS = [
    ("context Le Device::op() pre P: true",
     "case.ia:1:12: expected 'pre', 'post' or 'inv', found 'Device'", True),
    ("context context A::op() pre P: true",
     "case.ia:1:17: expected 'pre', 'post' or 'inv', found 'A'", True),
    ("context A::op(p : Foo) pre P: true", "case.ia:1:19: unknown type name 'Foo'", True),
    ("pre P: x~ = 1", "case.ia:1:1: constraint P: old-state references are only legal "
     "in postconditions", True),
    # the end of the text stands for the section's `;`
    ("pre P: true; pre Q: false", "case.ia:1:12: expected end of input, found ';'", False),
    ("pre P: true pre Q: false", "case.ia:1:13: expected end of input, found 'pre'", False),
    ("context A::op() { pre P: true; }", "case.ia:1:30: expected end of input, found ';'", False),
    ("context A::op() { }", "case.ia:1:1: expected a constraint, found an empty context block",
     False),
    ("P: true", "case.ia:1:1: expected 'context', 'pre', 'post' or 'inv', found 'P'", False),
    ("", "case.ia:1:1: expected 'context', 'pre', 'post' or 'inv', found 'end of input'", False),
    ('""', "case.ia:1:1: expected 'context', 'pre', 'post' or 'inv', found ''", False),
]


@pytest.mark.parametrize("text, expected, in_document", CONSTRAINT_ERRORS)
def test_parse_constraint_error_text_is_pinned(text, expected, in_document):
    with pytest.raises(ia.ParseError) as exc:
        ia.parse_constraint(text, source="case.ia")
    assert str(exc.value) == expected
    if in_document:
        with pytest.raises(ia.ParseError) as in_doc:
            ia.parse_document(_GO + text + "; }")
        err = in_doc.value
        assert (err.message, err.line, err.col - len(_GO)) == (exc.value.message, 1, exc.value.col)


def test_body_must_be_boolean_alone_and_in_a_document():
    decls = {"x": ia.VariableDecl("x", ia.IntRangeDomain(0, 3))}
    with pytest.raises(ia.SortError) as exc:
        ia.parse_constraint("pre P: x + 1", decls)
    assert str(exc.value) == "body has sort int, expected boolean in `x + 1`"
    with pytest.raises(ia.ParseError) as in_doc:
        ia.parse_document(_GO + "var x : int[0..3]; pre P: x + 1; }")
    assert str(in_doc.value) == ("<string>:1:89: constraint P: body has sort int, "
                                 "expected boolean in `x + 1`")


# fragments that exercise every lexer rule and the boundaries between them
_LEX_FRAGMENTS = [
    " ", "\t", "\n", "\r\n", "\r", "//", "// c", "/", "~", "@pre", "@pr", "@", "→",
    "<x>", "<x", "x>", "<_1>", "<1>", '"', '"ab"', '""', "a", "x1", "_", "pre", "0", "12",
    "$", "é", "#", "!", "\x00",
    "...", "->", "::", "<=", ">=", "<>", "..",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "=", "<", ">", "+", "-", ".",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_LEX_FRAGMENTS), max_size=30).map("".join))
def test_tokenize_agrees_with_character_loop(text):
    def run(lex):
        try:
            return lex(text, "f.ia")
        except ia.ParseError as exc:
            return str(exc)

    assert run(_tokens_with_positions) == run(oracle_tokenize)


def _tokens(text, source="<string>"):
    """Each ``(kind, text, offset)`` a ``TokenStream`` walks through, the ``eof`` token last."""
    ts = TokenStream(text, source)
    toks = [(ts.kind, ts.text, ts.at)]
    while ts.kind != "eof":
        ts.advance()
        toks.append((ts.kind, ts.text, ts.at))
    return toks


def _tokens_with_positions(text, source="<string>"):
    """The tokens in the oracle's shape: each ``(kind, text, offset)`` with ``position`` of its offset."""
    return [(tok, *position(text, tok[2])) for tok in _tokens(text, source)]


def test_tokenize_agrees_with_character_loop_on_fixtures():
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        assert _tokens_with_positions(text) == oracle_tokenize(text)


def test_arrow_is_one_character_of_the_arrow_punctuator():
    assert _tokens("a →b") == [("ident", "a", 0), ("punct", "->", 2), ("ident", "b", 3), ("eof", "", 4)]
    # a string literal keeps what it says
    assert _tokens('"a→b"')[0] == ("string", "a→b", 0)


def _outcome(text):
    try:
        return ia.parse_document(text, source="f.ia")
    except (ia.ParseError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _seeded_contracts():
    """The fourth stream of ``scripts/parse_digest.py`` at seed 0, mutated contracts with
    steps; printed ``randgen`` contracts; and the fixtures."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "parse_digest.py"
    spec = importlib.util.spec_from_file_location("parse_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    step_rng = random.Random("0-transitions")
    yield from (digest.random_contract(step_rng) for _ in range(3000))
    rng = random.Random(0)
    for _ in range(150):
        for a in rand_composable_pair(rng, max_states=5):
            yield ia.print_document(ia.document_from_automaton(a))
            yield ia.print_document(ia.document_from_automaton(ia.qualify_hidden(a)))
    yield from map(fixture_text, FIXTURE_NAMES)


def test_step_pattern_and_token_path_read_alike():
    """A step written with ``→`` is read token by token, so each text is read both ways:
    ``→ `` for ``->`` keeps the tokens and the line and column of each."""
    read = 0
    for text in _seeded_contracts():
        by_tokens = re.sub(r'("[^"\n]*")|->', lambda m: m[1] or "→ ", text)
        assert _outcome(by_tokens) == _outcome(text), text
        read += by_tokens != text
    assert read > 3000


# one section of each keyword; ``{k}`` keeps the names of a second copy apart
_SECTION_SAMPLES = {
    "states": "states s;",
    "initial": "initial s;",
    "inputs": "inputs;",
    "outputs": "outputs;",
    "hidden": "hidden go;",
    "var": "var x{k} : bool;",
    "context": "context A::go() {{ pre P{k}: true; }}",
    "pre": "pre Q{k}: true;",
    "post": "post R{k}: true;",
    "inv": "inv I{k}: true;",
    "transitions": "transitions {{ s -[go]-> s; }}",
}


def test_section_table_rules_are_enforced():
    """A mandatory section left out is missing; one repeated past its most is a duplicate."""
    assert list(SECTIONS) == list(_SECTION_SAMPLES)

    def contract(parts):
        return "contract A { " + " ".join(parts) + " }"

    ia.parse_document(contract(s.format(k=1) for s in _SECTION_SAMPLES.values()))
    for word, section in SECTIONS.items():
        left_out = contract(s.format(k=1) for w, s in _SECTION_SAMPLES.items() if w != word)
        twice = contract(s.format(k=1) + (" " + s.format(k=2) if w == word else "")
                         for w, s in _SECTION_SAMPLES.items())
        for text, broken, error in ((left_out, section.least > 0, f"is missing its {word!r} section"),
                                    (twice, section.most < 2, f"duplicate section {word!r}")):
            if broken:
                with pytest.raises(ia.ParseError, match=error):
                    ia.parse_document(text)
            else:
                ia.parse_document(text)


def test_only_mandatory_sections_print_when_empty():
    a = ia.parse_document("contract A { states; inputs; outputs; hidden; }").automaton()
    assert ia.print_document(ia.document_from_automaton(a)) == (
        "contract A {\n  states;\n  inputs;\n  outputs;\n  hidden;\n}\n")


def test_missing_mandatory_section():
    with pytest.raises(ia.ParseError) as exc:
        ia.parse_document("contract C { states A; initial A; inputs; outputs; }")
    assert "hidden" in str(exc.value)


def test_duplicate_contract_rejected():
    text = ("contract C { states; inputs; outputs; hidden; }"
            "contract C { states; inputs; outputs; hidden; }")
    with pytest.raises(ia.ParseError):
        ia.parse_document(text)


def test_constraint_sort_checked_in_document():
    text = """
    contract C {
      states A; initial A; inputs; outputs; hidden go;
      var x : bool;
      context C::go() { pre P: x + 1 = 2; }
      transitions { }
    }
    """
    with pytest.raises(ia.ParseError) as exc:
        ia.parse_document(text)
    assert "P" in str(exc.value)


def test_old_reference_in_pre_rejected_at_parse():
    text = """
    contract C {
      states A; initial A; inputs; outputs; hidden go;
      var x : int[0..3];
      context C::go() { pre P: x~ = 1; }
      transitions { }
    }
    """
    with pytest.raises(ia.ParseError):
        ia.parse_document(text)


def test_validation_diagnostics_carry_location():
    doc = ia.parse_document(
        "contract C { states A; inputs go; outputs; hidden go; transitions { } }",
        source="diag.ia")
    diags = ia.document_diagnostics(doc)
    assert diags
    assert any("alphabets not disjoint: go" in d.message for d in diags)
    assert all(d.location for d in diags)


def test_invariant_checked_against_its_owner():
    # the body sort-checks against A, where r is a record; B declares r : bool
    doc = ia.parse_document("""
    contract A {
      states s; initial s; inputs; outputs; hidden;
      var r : record { a : bool };
      context B inv I: r.a;
    }
    contract B { states s; initial s; inputs; outputs; hidden; var r : bool; }
    """)
    assert [(d.code, d.message, d.location) for d in ia.document_diagnostics(doc)] == [
        ("invariant-variable", "invariant I references undeclared variable r.a", "B")]


# ---------------------------------------------------------------------------
# printing


def _roundtrip(doc):
    text = ia.print_document(doc)
    doc2 = ia.parse_document(text, source="printed")
    return text, doc2


def test_fixture_round_trips():
    for name in FIXTURE_NAMES:
        doc = ia.load_fixture(name)
        text, doc2 = _roundtrip(doc)
        assert doc2 == doc
        assert ia.print_document(doc2) == text


def test_product_document_round_trips():
    ld = ia.qualify_hidden(ia.load_fixture("le_device.ia").automaton("LE_Device"))
    tl = ia.qualify_hidden(ia.load_fixture("transport_layer.ia").automaton("TransportLayer"))
    prod = ia.product(ld, tl)
    doc = ia.document_from_automaton(prod.automaton)
    text, doc2 = _roundtrip(doc)
    assert doc2 == doc
    assert ia.print_document(doc2) == text


_EMPTY = "states s; initial s; inputs; outputs; hidden;"
# documents whose constraints name a contract other than the one that declares them
FOREIGN_OWNERS = {
    "invariant of a contract the document lacks":
        f"contract A {{ {_EMPTY} context B inv I: true; }}",
    "invariant sort-checked against its declaring contract": f"""
        contract A {{ {_EMPTY} var r : record {{ a : bool }}; context B inv I: r.a; }}
        contract B {{ {_EMPTY} var r : bool; }}""",
    "invariant for B declared before A's own operation": f"""
        contract A {{ {_EMPTY} context B inv I: true; context A::go() {{ pre P: true; }} }}
        contract B {{ {_EMPTY} inv J: true; }}""",
    "one foreign precondition declared by two contracts": """
        contract A { states s; initial s; inputs; outputs go; hidden;
          context C pre P: true; transitions { s -[go pre P]-> s; } }
        contract B { states s; initial s; inputs go; outputs; hidden;
          context C pre P: true; transitions { s -[go pre P]-> s; } }""",
}


@pytest.mark.parametrize("text", FOREIGN_OWNERS.values(), ids=FOREIGN_OWNERS)
def test_each_contract_prints_the_constraints_it_declared(text):
    doc = ia.parse_document(text)
    printed, doc2 = _roundtrip(doc)
    assert doc2 == doc
    assert ia.print_document(doc2) == printed


def test_constraints_chain_the_declared_tuples():
    doc = ia.parse_document(FOREIGN_OWNERS["invariant for B declared before A's own operation"])
    assert [[c.name for c in cs] for cs in doc.declared] == [["I", "P"], ["J"]]
    assert [c.name for c in doc.constraints] == ["I", "P", "J"]


def test_one_tuple_of_constraints_per_contract():
    a = ia.empty_automaton()
    with pytest.raises(ValueError, match="document holds 1 contracts but 0 tuples of constraints"):
        ia.ContractDocument((a,), ())
    doc = ia.ContractDocument((a,), ((),))
    with pytest.raises(ValueError, match="document holds 1 contracts but 2 tuples of constraints"):
        doc._replace(declared=((), ()))


def test_a_contract_declares_the_guards_of_its_automaton():
    doc = ia.parse_document(_GO + "context A::go() { pre P: true; } transitions { s -[go pre P]-> s; } }")
    with pytest.raises(ValueError, match="contract 'A' are not its preconditions and postconditions"):
        ia.ContractDocument(doc.automata, ((),))
    pre, = doc.declared[0]
    with pytest.raises(ValueError, match="contract 'A' declares two constraints of one name"):
        ia.ContractDocument(doc.automata, ((pre, pre._replace(kind=ia.ConstraintKind.INV)),))
    assert ia.ContractDocument(doc.automata, doc.declared, doc.meta) == doc


def test_a_document_built_in_code_sort_checks_its_constraints():
    # printed, this document would read `inv I: y;`, which does not parse back
    doc = ia.parse_document("contract A { states s; inputs; outputs; hidden; }")
    with pytest.raises(ValueError, match="^contract 'A', constraint I: unknown variable: y$"):
        ia.ContractDocument(doc.automata, ((ia.parse_constraint("inv I: y"),),))
    with pytest.raises(ValueError, match="constraint I: body has sort int, expected boolean"):
        ia.ContractDocument(doc.automata, ((ia.parse_constraint("inv I: 1 + 2"),),))
    ok = ia.ContractDocument(doc.automata, ((ia.parse_constraint("context A inv I: true"),),))
    assert ia.parse_document(ia.print_document(ok)) == ok


@pytest.mark.parametrize("name, version, error", [
    ('a"b', None, "cannot hold"),
    ("a\nb", None, "cannot hold"),
    (None, "1", "a document version needs a document name"),
])
def test_document_meta_refuses_a_header_that_cannot_print(name, version, error):
    with pytest.raises(ValueError, match=error):
        ia.DocumentMeta(name, version)


def test_record_keyed_map_declaration_round_trips():
    doc = ia.parse_document("""
    contract C {
      states A; initial A; inputs; outputs; hidden go;
      var k : map record { a : bool, n : int[0..1] } to record { b : bool };
      var r : record { a : bool, n : int[0..1] };
      context C::go() { pre P: r in set k.domain and k(r) in set k.range; }
      transitions { A -[go pre P]-> A; }
    }
    """)
    text, doc2 = _roundtrip(doc)
    assert "var k : map record { a : bool, n : int[0..1] } to record { b : bool };" in text
    assert ia.print_document(doc2) == text
    assert doc2.automaton("C").variables == doc.automaton("C").variables


def test_unnamed_constraint_prints_with_generated_name():
    text = """
    contract C {
      states A; initial A; inputs; outputs; hidden go;
      var x : int[0..3];
      context C::go() { pre : x < 3; }
      transitions { A -[go pre pre_unnamed_1]-> A; }
    }
    """
    doc = ia.parse_document(text)
    printed = ia.print_document(doc)
    assert "pre_unnamed_1" in printed
    ia.parse_document(printed)  # still parses


def test_empty_automaton_prints_and_reparses():
    doc = ia.document_from_automaton(ia.empty_automaton())
    text, doc2 = _roundtrip(doc)
    assert doc2.automaton("empty").is_empty()


# ---------------------------------------------------------------------------
# DOT export


def test_dot_fixture_edge():
    dot = ia.export_dot(_ld_doc().automaton("LE_Device"))
    assert 'Off -> OnReady [label="turnOn;"];' in dot
    assert 'OnReady -> OnUpdate [label="receiveMessages?"];' in dot
    assert 'OnFollower -> OnFollower [label="sendMessages!"];' in dot
    assert dot.startswith("digraph LE_Device {")


def test_dot_single_state_no_edges():
    a = ia.InterfaceAutomaton(name="One", states=("s",), initials=("s",),
                              inputs=(), outputs=(), hidden=())
    dot = ia.export_dot(a)
    assert dot.count("->") == 1  # only the initial-state marker arrow
    assert "s;" in dot


def test_dot_product_marks_shared_hidden():
    ld = ia.qualify_hidden(ia.load_fixture("le_device.ia").automaton("LE_Device"))
    tl = ia.qualify_hidden(ia.load_fixture("transport_layer.ia").automaton("TransportLayer"))
    prod = ia.product(ld, tl)
    dot = ia.export_dot(prod)
    assert 'label="sendMessages;' in dot
    assert "sendMessages!" not in dot


def test_dot_deterministic():
    a = _tl_doc().automaton("TransportLayer")
    assert ia.export_dot(a) == ia.export_dot(a)


def test_dot_quotes_nonidentifier_names():
    prod_state = "A b"  # contains a space
    a = ia.InterfaceAutomaton(name="Odd", states=(prod_state,), initials=(prod_state,),
                              inputs=(), outputs=(), hidden=())
    dot = ia.export_dot(a)
    assert '"A b"' in dot
