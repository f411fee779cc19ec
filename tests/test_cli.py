"""Command-line interface: exit codes, output formats, report files."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import iacompat
from iacompat.cli import main
from iacompat.domains import FrozenMap
from iacompat.evaluate import evaluate
from iacompat.fixtures import fixture_text
from iacompat.lexer import position
from test_docformat import _ALIASES, _LEX_FRAGMENTS, under_frames

FIXTURES = Path(iacompat.__file__).parent / "fixtures"
LD = str(FIXTURES / "le_device.ia")
TL = str(FIXTURES / "transport_layer.ia")
PING = str(FIXTURES / "ping.ia")
PONG = str(FIXTURES / "pong.ia")
BROKEN = str(Path(__file__).parent / "data" / "broken.ia")
GOLDEN = Path(__file__).parent / "data" / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "compat-report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# lint


def test_lint_clean_fixture(capsys):
    code, out, _ = run_cli(capsys, "lint", LD)
    assert code == 0
    assert out.strip().endswith("le_device.ia: ok")


def test_lint_all_fixtures_clean(capsys):
    code, out, _ = run_cli(capsys, "lint", LD, TL, PING, PONG)
    assert code == 0
    assert out.count(": ok") == 4


def test_lint_broken_contract(capsys):
    code, out, _ = run_cli(capsys, "lint", BROKEN)
    assert code == 1
    assert "alphabet-overlap: alphabets not disjoint: turnOn (Broken)" in out


def test_lint_missing_file(capsys):
    code, out, err = run_cli(capsys, "lint", "/no/such/file.ia")
    assert code == 2
    assert "error" in (out + err)


def test_lint_mixed_worst_exit_wins(capsys):
    code, out, err = run_cli(capsys, "lint", LD, BROKEN, "/no/such/file.ia")
    assert code == 2
    assert ": ok" in out and "alphabet-overlap" in out
    assert "/no/such/file.ia" in (out + err)


# ---------------------------------------------------------------------------
# check


def test_check_raw_fixtures_not_composable(capsys):
    code, out, _ = run_cli(capsys, "check", LD, TL)
    assert code == 1
    assert "composable: no" in out
    assert "conflict hidden1_sigma2: init" in out
    assert "conflict sigma1_hidden2: init" in out
    assert "verdict: incompatible (not_composable)" in out


def test_check_qualified_case_study(capsys):
    code, out, _ = run_cli(capsys, "check", LD, TL, "--qualify-hidden")
    assert code == 1
    assert "shared: receiveMessages, sendMessages" in out
    assert "product: 57 states, 185 transitions" in out
    assert "illegal states: 21" in out
    assert "bad states: 57" in out
    assert "pruned: 0 states, 0 transitions" in out
    assert "verdict: incompatible (empty_after_pruning)" in out


def test_check_witness(capsys):
    code, out, _ = run_cli(capsys, "check", LD, TL, "--qualify-hidden", "--witness")
    assert code == 1
    assert "witness (2 steps):" in out
    assert "  Off__Init" in out
    assert "-[LE_Device::turnOn;]-> OnUndecided__Init" in out
    assert "-[LE_Device::changeClaim;]-> OnFollower__Init" in out


def test_check_compatible_pair(capsys):
    code, out, _ = run_cli(capsys, "check", PING, PONG)
    assert code == 0
    assert "shared: ping" in out
    assert "verdict: compatible" in out.splitlines()[-1]


def test_check_strict_deadlock_flag(capsys):
    # ping/pong loop forever, so the strict mode changes nothing here
    code, out, _ = run_cli(capsys, "check", PING, PONG, "--strict-deadlock")
    assert code == 0


def test_check_enum_budget_flag(capsys):
    code, _, _ = run_cli(capsys, "check", LD, TL, "--qualify-hidden",
                         "--enum-budget", "50")
    assert code == 1  # verdict driven by unreceived outputs, not guard falsity


@pytest.mark.parametrize("budget", ["0", "-3", "many", ""])
def test_check_enum_budget_below_one_is_a_usage_error(capsys, budget):
    # a budget of 0 would make every enumerated guard Unknown, read as satisfiable
    with pytest.raises(SystemExit) as exc:
        main(["check", PING, PONG, "--enum-budget", budget])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"argument --enum-budget: not a positive integer: {budget!r}" in err


@pytest.mark.parametrize("var, guard", [
    ("q : seq of int[0..3] maxlen 100000", "q.size() > 0"),
    ("m : map int[0..100000000] to bool", "m(1) = true"),
], ids=["seq", "map"])
def test_check_with_a_huge_bounded_domain_stays_within_its_budget(tmp_path, var, guard):
    # counting the domain's 4 ** 100000 or 3 ** 100000001 values exactly took
    # 35 s for the sequence and over a minute for the map
    a, b = tmp_path / "a.ia", tmp_path / "b.ia"
    a.write_text(f"contract A {{ states s0, s1; initial s0; inputs; outputs go; hidden; var {var}; "
                 f"context A::go() {{ pre G: {guard}; }} transitions {{ s0 -[go pre G]-> s1; }} }}")
    b.write_text("contract B { states t0; initial t0; inputs go; outputs; hidden; "
                 "transitions { t0 -[go]-> t0; } }")
    proc = subprocess.run([sys.executable, "-m", "iacompat", "check", str(a), str(b)],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "verdict: compatible"
    sender = iacompat.parse_document(a.read_text()).automaton()
    res = iacompat.constraint_falsity(sender.preconditions["G"], sender.variables)
    assert (res.verdict, res.explored) == (iacompat.Verdict.UNKNOWN, 0)


def test_check_missing_file(capsys):
    code, out, err = run_cli(capsys, "check", LD, "/no/such/file.ia")
    assert code == 2
    assert "error" in (out + err)


def test_check_report_file_validates(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    for argv in (["check", LD, TL, "--qualify-hidden"],
                 ["check", LD, TL],
                 ["check", PING, PONG]):
        code = main(argv + ["--report", str(out_path)])
        capsys.readouterr()
        data = json.loads(out_path.read_text())
        jsonschema.validate(data, SCHEMA)
        assert data["schema"] == "compat-report@1"
        assert (code == 0) == (data["verdict"] == "compatible")


def test_check_report_content(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    main(["check", LD, TL, "--qualify-hidden", "--report", str(out_path)])
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["left"] == "LE_Device"
    assert data["right"] == "TransportLayer"
    assert data["product"]["states"] == 57
    assert data["product"]["transitions"] == 185
    assert len(data["illegal"]) == 21
    assert len(data["bad"]) == 57
    assert data["pruned"]["states"] == 0
    assert data["cause"] == "empty_after_pruning"
    kinds = {r["kind"] for s in data["illegal"] for r in s["reasons"]}
    assert kinds == {"unreceived_output"}
    senders = {r["sender"] for s in data["illegal"] for r in s["reasons"]}
    assert senders <= {"left", "right"}


def test_check_report_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["check", LD, TL, "--qualify-hidden", "--report", str(a)])
    main(["check", LD, TL, "--qualify-hidden", "--report", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_check_stdout_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "check", LD, TL, "--qualify-hidden", "--witness")
    code2, out2, _ = run_cli(capsys, "check", LD, TL, "--qualify-hidden", "--witness")
    assert (code1, out1) == (code2, out2)


def test_case_study_outputs_match_the_goldens(tmp_path, capsys):
    # the product, the check summary with its witness, the report and the dot
    # graph of the case study, byte for byte; a change to any of them must be
    # deliberate, and comes with new files in tests/data/golden
    report = tmp_path / "report.json"
    for argv, code, golden in (
        (["product", "--qualify-hidden", LD, TL], 0, "le_device_x_transport_layer.ia"),
        (["check", "--qualify-hidden", "--witness", "--report", str(report), LD, TL], 1,
         "check_witness.txt"),
        (["dot", LD], 0, "le_device.dot"),
        (["dot", TL], 0, "transport_layer.dot"),
    ):
        got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, ""), golden
        assert out.encode() == (GOLDEN / golden).read_bytes(), golden
    assert report.read_bytes() == (GOLDEN / "report.json").read_bytes()


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_check_into_a_closed_pipe_keeps_its_exit_code_and_report(tmp_path, unbuffered):
    # `check ... | head -1`, with the reader gone before the first write:
    # the output ends there, the verdict's exit code and the report do not
    read, write = os.pipe()
    os.close(read)
    report = tmp_path / "report.json"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "iacompat", "check", "--qualify-hidden", "--witness",
             "--report", str(report), LD, TL],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert report.read_bytes() == (GOLDEN / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# product


def test_product_not_composable(capsys):
    code, out, err = run_cli(capsys, "product", LD, LD)
    assert code == 1
    assert "not composable" in (out + err)


@pytest.mark.parametrize("command", ["check", "product"])
def test_invalid_operand_exits_1(capsys, command):
    code, out, err = run_cli(capsys, command, BROKEN, PING)
    assert code == 1
    assert out == ""
    assert err == "invalid: alphabet-overlap: alphabets not disjoint: turnOn\n"


def test_product_writes_parseable_document(tmp_path, capsys):
    out_path = tmp_path / "prod.ia"
    code, _, _ = run_cli(capsys, "product", LD, TL, "--qualify-hidden",
                         "-o", str(out_path))
    assert code == 0
    doc = iacompat.parse_document(out_path.read_text(), source=str(out_path))
    a = doc.automaton("LE_Device_x_TransportLayer")
    assert len(a.states) == 57
    assert len(a.transitions) == 185
    assert iacompat.document_diagnostics(doc) == []


def test_product_stdout(capsys):
    code, out, _ = run_cli(capsys, "product", PING, PONG)
    assert code == 0
    assert out.startswith("contract Ping_x_Pong {")
    assert "states Idle__Wait;" in out


# ---------------------------------------------------------------------------
# pairs whose constraint names or declarations meet in the product


def _go_contract(tmp_path, name, sends, var, constraints=(), pre=None):
    """One-state contract that sends or receives ``go``, written as an .ia file."""
    role = "inputs;\n  outputs go;" if sends else "inputs go;\n  outputs;"
    context = "".join(f"    {c};\n" for c in constraints)
    if context:
        context = f"  context {name}::go() {{\n{context}  }}\n"
    guard = f" pre {pre}" if pre else ""
    path = tmp_path / f"{name}.ia"
    path.write_text(
        f'document "{name}" version "1";\n'
        f"contract {name} {{\n  states s;\n  initial s;\n  {role}\n  hidden;\n"
        f"  var {var};\n{context}  transitions {{\n    s -[go{guard}]-> s;\n  }}\n}}\n"
    )
    return str(path)


def test_check_conjunction_name_collision(tmp_path, capsys):
    a = _go_contract(tmp_path, "A", True, "x : int[0..2]",
                     ("pre P: x < 1", "pre P_and_Q: x < 2"), pre="P")
    b = _go_contract(tmp_path, "B", False, "y : int[0..2]", ("pre Q: y < 2",), pre="Q")
    code, out, _ = run_cli(capsys, "check", a, b)
    assert code == 0
    assert "verdict: compatible" in out
    code, out, _ = run_cli(capsys, "product", a, b)
    assert code == 0
    assert "pre P_and_Q: x < 2;" in out
    assert "pre P_and_Q_2: x < 1 and y < 2;" in out
    assert "-[go pre P_and_Q_2]->" in out


def test_check_unnamed_constraints_on_both_sides(tmp_path, capsys):
    a = _go_contract(tmp_path, "UA", True, "x : int[0..2]", ("pre: x < 1",), pre="pre_unnamed_1")
    b = _go_contract(tmp_path, "UB", False, "y : int[0..2]", ("pre: y < 0",), pre="pre_unnamed_1")
    code, out, _ = run_cli(capsys, "check", a, b)
    assert code == 1
    assert "verdict: incompatible (empty_after_pruning)" in out
    code, out, _ = run_cli(capsys, "product", a, b)
    assert code == 0
    assert "-[go pre pre_unnamed_1_and_pre_unnamed_1_2]->" in out


@pytest.mark.parametrize("command", ["check", "product"])
def test_clashing_variable_domains_exit_2(tmp_path, capsys, command):
    a = _go_contract(tmp_path, "DA", True, "x : int[0..1]")
    b = _go_contract(tmp_path, "DB", False, "x : bool")
    code, out, err = run_cli(capsys, command, a, b)
    assert code == 2
    assert out == ""
    assert err == "error: variable 'x' declared with different domains in both operands\n"


@pytest.mark.parametrize("modulus, code", [(10, 0), (11, 1)])
def test_check_deep_guard_gets_a_verdict(tmp_path, capsys, modulus, code):
    # 2000 conjuncts on both sides, under one name that the product shares;
    # x <> 0 .. x <> 9 leaves x = 10, x <> 0 .. x <> 10 leaves nothing
    guard = " and ".join(f"x <> {k % modulus}" for k in range(2000))
    a = _go_contract(tmp_path, "DA", True, "x : int[0..10]", (f"pre: {guard}",), pre="pre_unnamed_1")
    b = _go_contract(tmp_path, "DB", False, "x : int[0..10]", (f"pre: {guard}",), pre="pre_unnamed_1")
    assert run_cli(capsys, "lint", a, b)[0] == 0
    got, out, err = run_cli(capsys, "check", a, b, "--witness")
    assert (got, err) == (code, "")
    assert "verdict: " + ("compatible" if code == 0 else "incompatible") in out
    got, out, err = run_cli(capsys, "product", a, b)
    assert (got, err) == (0, "")
    assert f"pre pre_unnamed_1: {guard};" in out


def test_product_keeps_parentheses_around_a_compared_comparison(tmp_path, capsys):
    # the written product is read back by lint, so its guards must parse
    a = _go_contract(tmp_path, "PA", True, "x : int[0..2];\n  var b : bool",
                     ("pre P: (x = 1) = b",), pre="P")
    b = _go_contract(tmp_path, "PB", False, "y : bool")
    out = str(tmp_path / "product.ia")
    assert run_cli(capsys, "product", a, b, "-o", out) == (0, "", "")
    assert "pre P: (x = 1) = b;" in Path(out).read_text()
    assert run_cli(capsys, "lint", out) == (0, f"{out}: ok\n", "")


def test_sum_of_1200_terms_is_refuted_by_bounds(tmp_path, capsys):
    # one run of 1200 terms, which lint and check walk in loops
    a = _go_contract(tmp_path, "SA", True, "x : int[0..10]",
                     ("pre G: x" + " + 1" * 1199 + " > 5000",), pre="G")
    b = _go_contract(tmp_path, "SB", False, "y : bool")
    assert run_cli(capsys, "lint", a) == (0, f"{a}: ok\n", "")
    code, out, err = run_cli(capsys, "check", a, b)
    assert (code, err) == (1, "")
    assert out.endswith("verdict: incompatible (empty_after_pruning)\n")
    # the bounds decide it, with no valuation
    auto = iacompat.parse_document(Path(a).read_text()).automaton()
    res = iacompat.constraint_falsity(auto.preconditions["G"], auto.variables, budget=1)
    assert (res.verdict, res.explored) == (iacompat.Verdict.FALSE, 0)


def test_huge_integer_literals_are_errors_and_a_folded_long_sum_gets_a_verdict(tmp_path, capsys):
    nines = "9" * 5000
    b = _go_contract(tmp_path, "HB", False, "y : bool")
    for name, var, constraint, at in (
        ("Range", f"x : int[0..{nines}]", "pre G: x > 0", "8:18"),
        ("Inv", "x : int[0..10]", f"inv I: x < {nines}", "10:16"),
        ("Maxlen", f"q : seq of bool maxlen {nines}", "pre G: true", "8:30"),
    ):
        a = _go_contract(tmp_path, name, True, var, (constraint,))
        error = f"error: {a}:{at}: integer literal longer than 4300 digits\n"
        for argv in (("lint", a), ("check", a, b), ("product", a, b), ("dot", a)):
            assert run_cli(capsys, *argv) == (2, "", error), argv
    # the sum of two literals of 4300 digits has 4301, so it stays unfolded
    a = _go_contract(tmp_path, "Folded", True, "x : int[0..10]",
                     (f"pre G: x < {'9' * 4300} + {'9' * 4300} and x > 0",), pre="G")
    assert run_cli(capsys, "lint", a) == (0, f"{a}: ok\n", "")
    code, out, err = run_cli(capsys, "check", a, b)
    assert (code, err) == (0, "") and out.endswith("verdict: compatible\n")


def test_an_evaluation_error_names_a_long_computed_index_by_its_digits(tmp_path, capsys):
    # the index is a sum of two 4300-digit literals, past what Python prints;
    # its evaluation error inside the falsity enumeration counts as not-true
    long_sum = f"{'9' * 4300} + {'9' * 4300}"
    b = _go_contract(tmp_path, "LB", False, "y : bool")
    a = _go_contract(tmp_path, "Long", True, "q : seq of int[0..3] maxlen 2;\n  var x : int[0..10]",
                     (f"pre G: q(x + {long_sum}) = 1 or x > 3",), pre="G")
    assert run_cli(capsys, "lint", a) == (0, f"{a}: ok\n", "")
    code, out, err = run_cli(capsys, "check", a, b)
    assert (code, err) == (0, "") and out.endswith("verdict: compatible\n")
    too_long = "an integer of more than 4300 digits"
    for text, decls, values, message in (
        (f"q(x + {long_sum}) = 1", "q : seq of int[0..3] maxlen 2; var x : int[0..1]",
         {"q": (1,), "x": 0}, f"index {too_long} outside the sequence `q`"),
        (f"m(x + {long_sum}) = 1", "m : map int[0..1] to int[0..1]; var x : int[0..1]",
         {"m": FrozenMap({0: 1}), "x": 0}, f"key {too_long} outside the domain of `m`"),
        (f"x + {long_sum}", "x : int[0..1]", {"x": 0}, None),
    ):
        doc = iacompat.parse_document(f"contract E {{ states s; inputs; outputs; hidden; var {decls}; }}")
        expr = iacompat.parse_expression(text, doc.automaton().variables)
        if message is None:
            with pytest.raises(iacompat.EvalError) as exc:
                evaluate(iacompat.Not(expr), iacompat.Valuation(values))
            assert str(exc.value) == f"expected a boolean from `{iacompat.to_text(expr)}`, got {too_long}"
            continue
        with pytest.raises(iacompat.UndefinedApplication) as exc:
            evaluate(expr, iacompat.Valuation(values))
        assert str(exc.value) == message


def test_deep_nesting_is_an_error_and_long_runs_get_verdicts(tmp_path, capsys):
    # the 33rd bracket is one level past the limit
    assert run_cli(capsys, "eval", "(" * 130 + "1" + ")" * 130) == (
        2, "", "error: <string>:1:33: expression nests too deeply\n")
    b = _go_contract(tmp_path, "NB", False, "y : bool")
    for name, guard, lint, check in (
        ("Parens", "(" * 150 + "x > 1" + ")" * 150, 2, 2),
        ("Implies", " implies ".join(f"x <> {k % 10}" for k in range(2000)), 0, 0),
        ("And", " and ".join(f"x <> {k % 10}" for k in range(2000)), 0, 0),
        ("Sum", "x" + " + 1" * 1199 + " > 0", 0, 0),
    ):
        a = _go_contract(tmp_path, name, True, "x : int[0..10]", (f"pre G: {guard}",), pre="G")
        nests = (2, "", f"error: {a}:10:44: expression nests too deeply\n")
        code, out, err = run_cli(capsys, "lint", a)
        assert (code, out, err) == ((0, f"{a}: ok\n", "") if lint == 0 else nests), name
        code, out, err = run_cli(capsys, "check", a, b)
        if check == 2:
            assert (code, out, err) == nests, name
        else:
            assert (code, err) == (0, "") and out.endswith("verdict: compatible\n"), name


def test_same_named_guards_over_a_long_implies_run_get_a_verdict(tmp_path, capsys):
    # both operands declare one guard name over the same 2000-link run, so the
    # product's guard registry compares the two bodies
    guard = " implies ".join(f"x <> {k % 10}" for k in range(2000))
    a, b = (_go_contract(tmp_path, name, sends, "x : int[0..10]", (f"pre G: {guard}",), pre="G")
            for name, sends in (("IA", True), ("IB", False)))
    assert run_cli(capsys, "lint", a, b) == (0, f"{a}: ok\n{b}: ok\n", "")
    code, out, err = run_cli(capsys, "check", a, b)
    assert (code, err) == (0, "") and out.endswith("verdict: compatible\n")


def test_lint_goes_on_after_a_file_that_nests_too_deeply(tmp_path, capsys):
    deep = _go_contract(tmp_path, "Deep", True, "x : int[0..10]",
                        ("pre G: " + "(" * 150 + "x > 1" + ")" * 150,), pre="G")
    code, out, err = run_cli(capsys, "lint", deep, PING)
    assert (code, out, err) == (2, f"{PING}: ok\n", f"error: {deep}:10:44: expression nests too deeply\n")


@pytest.mark.parametrize("argv", [["lint", "DOC"], ["check", "DOC", PONG], ["product", PING, "DOC"]])
def test_an_alias_chain_past_the_limit_is_a_located_error(tmp_path, capsys, argv):
    doc = tmp_path / "aliases.ia"
    doc.write_text(_ALIASES + "\ncontract A { states s; initial s; inputs; outputs go; hidden; var v : T1200; "
                   "transitions { s -[go]-> s; } }")
    argv = [str(doc) if a == "DOC" else a for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {doc}:1:1040: domain nests too deeply\n")


def test_every_command_takes_guards_at_the_nesting_limit_under_600_frames(tmp_path, capsys):
    record = "bool"
    for _ in range(32):
        record = f"record {{ f : {record} }}"
    guards = ("(" * 32 + "x > 1" + ")" * 32, "not " * 32 + "p", "m[" * 32 + "x" + "]" * 32 + " > 0",
              "{" * 32 + "x" + "}" * 32 + " = " + "{" * 32 + "1" + "}" * 32,
              "q" + "->front(1)" * 31 + "->size > 0", "r" + ".f" * 32 + " or p")
    a = _go_contract(tmp_path, "Top", True,
                     f"x : int[0..3];\n  var p : bool;\n  var m : map int[0..3] to int[0..3];\n"
                     f"  var q : seq of int[0..3] maxlen 2;\n  var r : {record}",
                     tuple(f"pre G{k}: {g}" for k, g in enumerate(guards)), pre="G0")
    b = _go_contract(tmp_path, "Partner", False, "y : bool", ("pre H: y",), pre="H")
    text = Path(a).read_text()
    Path(a).write_text(text.replace("s -[go pre G0]-> s;", " ".join(
        f"s -[go pre G{k}]-> s;" for k in range(len(guards)))))
    assert under_frames(600, run_cli, capsys, "lint", a, b) == (0, f"{a}: ok\n{b}: ok\n", "")
    code, out, err = under_frames(600, run_cli, capsys, "check", a, b)
    assert (code, err) == (0, "") and out.endswith("verdict: compatible\n")
    code, out, err = under_frames(600, run_cli, capsys, "product", a, b)
    assert (code, err) == (0, "") and out.count("record") == 32
    expr = " and ".join(guards[:2] + guards[3:4])
    assert under_frames(600, run_cli, capsys, "eval", expr, "--bind", "x=2", "--bind", "p=true") == (
        0, "false\n", "")


def test_a_lexical_fault_wins_over_nesting_too_deep(tmp_path, capsys):
    """A text reads as if lexed whole before it is parsed: its stray '@' is the error."""
    deep = tmp_path / "deep.ia"
    deep.write_text("contract A { states s; initial s; inputs; outputs go; hidden; var x : int[0..3]; "
                    f"context A::go() {{ pre G: x = {'(' * 3000}1{')' * 3000} @; }} "
                    "transitions { s -[go pre G]-> s; } }")
    err = f"{deep}:1:6113: stray '@' (did you mean '@pre'?)\n"
    assert run_cli(capsys, "lint", str(deep)) == (2, "", f"error: {err}")
    assert run_cli(capsys, "check", str(deep), PONG) == (2, "", f"error: {err}")


@pytest.mark.parametrize("argv, err", [
    (["lint", "BAD", PING], "BAD: error: not valid UTF-8 at byte offset 12\n"),
    (["check", "BAD", PONG], "error: BAD: not valid UTF-8 at byte offset 12\n"),
    (["product", PING, "BAD"], "error: BAD: not valid UTF-8 at byte offset 12\n"),
    (["dot", "BAD"], "error: BAD: not valid UTF-8 at byte offset 12\n"),
])
def test_file_that_is_not_utf8_is_an_error(tmp_path, capsys, argv, err):
    bad = tmp_path / "bad.ia"
    bad.write_bytes(b"contract A {\xff\xfe")
    code, out, got = run_cli(capsys, *(str(bad) if a == "BAD" else a for a in argv))
    assert (code, got) == (2, err.replace("BAD", str(bad)))
    assert out == (f"{PING}: ok\n" if argv[0] == "lint" else "")  # lint goes on


_PARTNER = {"le_device.ia": TL, "transport_layer.ia": LD, "ping.ia": PONG, "pong.ia": PING}
_LOCATED = re.compile(r"error: (.+?):(\d+):(\d+): ")


@st.composite
def _mutant(draw):
    """A fixture name and the bytes of a mutated copy of that fixture."""
    name = draw(st.sampled_from(sorted(_PARTNER)))
    text = fixture_text(name)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
        if op == "truncate":
            text = text[:i]
            continue
        j = i if op == "insert" else i + draw(st.integers(1, 8))
        text = text[:i] + ("" if op == "delete" else draw(st.sampled_from(_LEX_FRAGMENTS))) + text[j:]
    tail = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80abc", b"\xed\xa0\x80"]))
    return name, text.encode() + (tail if draw(st.integers(0, 3)) == 0 else b"")


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.ia"


@settings(max_examples=100, deadline=None)
@given(_mutant())
def test_mutated_documents_exit_cleanly_with_located_errors(mutant_path, mutant):
    name, data = mutant
    mutant_path.write_bytes(data)
    m, partner = str(mutant_path), _PARTNER[name]
    for argv in (["lint", m], ["check", m, partner, "--qualify-hidden"],
                 ["product", m, partner, "--qualify-hidden"], ["dot", m]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        for src, line, col in _LOCATED.findall(out.getvalue() + err.getvalue()):
            assert src == m, argv
            # a located error names the text as the CLI reads it: decoded, and
            # with universal newlines, so a lone \r ends a line too
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            starts = [0] + [k + 1 for k, ch in enumerate(text) if ch == "\n"]
            line, col = int(line), int(col)
            assert line <= len(starts), argv
            p = starts[line - 1] + col - 1
            assert p <= len(text) and position(text, p) == (line, col), argv


_RECORD_KEYED_MAP = "m : map record { a : bool } to bool"
_RECORD_VALUED_MAP = "m : map bool to record { a : bool };\n  var r : record { a : bool }"


@pytest.mark.parametrize("command", ["lint", "check"])
@pytest.mark.parametrize("var, guard, verdict", [
    ("r : record { a : bool }", "{r} = {r}", "compatible"),
    (_RECORD_KEYED_MAP, "m.size = 0", "compatible"),
    (_RECORD_VALUED_MAP, "r in set m.range", "compatible"),
    ("r : record { a : bool }", "{r} = {}", "incompatible (empty_after_pruning)"),
    (_RECORD_KEYED_MAP, "m.size > 2", "incompatible (empty_after_pruning)"),
], ids=["set-element", "map-key", "map-range", "set-element-false", "map-key-false"])
def test_records_and_maps_in_sets_and_map_keys(tmp_path, capsys, command, var, guard, verdict):
    # records and maps are values like any other, as OCL tuples are; a guard
    # that is false on every valuation condemns the only state
    a = _go_contract(tmp_path, "HA", True, var, (f"pre G: {guard}",), pre="G")
    b = _go_contract(tmp_path, "HB", False, "y : bool")
    code, out, err = run_cli(capsys, command, *([a] if command == "lint" else [a, b]))
    assert err == ""
    if command == "lint":
        assert (code, out) == (0, f"{a}: ok\n")
    else:
        assert code == (0 if verdict == "compatible" else 1)
        assert out.endswith(f"verdict: {verdict}\n")


# ---------------------------------------------------------------------------
# dot


def test_dot_stdout(capsys):
    code, out, _ = run_cli(capsys, "dot", PING)
    assert code == 0
    assert out.splitlines()[0] == "digraph Ping {"
    assert 'Idle -> Idle [label="ping!"];' in out


def test_dot_output_file(tmp_path, capsys):
    out_path = tmp_path / "le.dot"
    code, _, _ = run_cli(capsys, "dot", LD, "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    # one node line per state, plus the start marker
    for s in ("Off", "OnFollower", "OnLeader", "OnUndecided", "OnReady", "OnUpdate"):
        assert f"  {s};" in text
    assert "__start0 -> Off;" in text


def test_dot_contract_selector(capsys):
    code, out, _ = run_cli(capsys, "dot", TL, "--contract", "TransportLayer")
    assert code == 0
    assert out.startswith("digraph TransportLayer {")


def test_dot_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "dot", TL)
    _, out2, _ = run_cli(capsys, "dot", TL)
    assert out1 == out2


# ---------------------------------------------------------------------------
# eval


def test_eval_true(capsys):
    code, out, _ = run_cli(capsys, "eval", "myCS.s < 10", "--bind", "myCS.s=9")
    assert (code, out.strip()) == (0, "true")


def test_eval_false(capsys):
    code, out, _ = run_cli(capsys, "eval", "myCS.s < 10", "--bind", "myCS.s=10")
    assert (code, out.strip()) == (0, "false")


def test_eval_multiple_bindings(capsys):
    code, out, _ = run_cli(capsys, "eval", "x < y and b",
                           "--bind", "x=1", "--bind", "y=2", "--bind", "b=true")
    assert (code, out.strip()) == (0, "true")


def test_eval_unbound_variable(capsys):
    code, out, err = run_cli(capsys, "eval", "x and y", "--bind", "x=true")
    assert code == 2
    assert "unbound variable: y" in (out + err)


def test_eval_of_an_integer_too_long_to_print_is_an_error(capsys):
    long_sum = f"{'9' * 4300} + {'9' * 4300}"
    assert run_cli(capsys, "eval", long_sum) == (
        2, "", "error: the result holds an integer of more than 4300 digits\n")
    code, out, _ = run_cli(capsys, "eval", f"{long_sum} > 0")
    assert (code, out) == (0, "true\n")


def test_eval_parse_error(capsys):
    code, out, err = run_cli(capsys, "eval", "x <", "--bind", "x=1")
    assert code == 2
    assert "expected an expression" in (out + err)


def test_eval_old_binding(capsys):
    code, out, _ = run_cli(capsys, "eval", "myCS.s = myCS~.s + 1",
                           "--bind", "myCS.s=3", "--bind-old", "myCS.s=2")
    assert (code, out.strip()) == (0, "true")


@pytest.mark.parametrize("argv, message", [
    (["myCS.s = myCS~.s + 1", "--bind", "myCS.s=3"],
     "old-state reference evaluated without an old-state map"),
    (["x(1) = 2", "--bind", "x=3"], "`x` is neither a map nor a sequence"),
    (["x and y", "--bind", "x=true", "--bind", "y=3"], "expected a boolean from `y`, got 3"),
    (["x or y", "--bind", "x=false", "--bind", "y=<off>"],
     "expected a boolean from `y`, got 'off'"),
    (["x implies y", "--bind", "x=true", "--bind", "y=2"], "expected a boolean from `y`, got 2"),
    (["not x", "--bind", "x=2"], "expected a boolean from `x`, got 2"),
    (["x < 1", "--bind", "x=true"], "expected an integer from `x`, got True"),
    (["x.c = 1", "--bind", "x=3"], "value of 'x' has no field 'c'"),
    (["x in set y", "--bind", "x=1", "--bind", "y=2"], "`y` is not a set"),
    (["x.size() = 0", "--bind", "x=1"], "size of a non-collection `x`"),
    (["x.lastItem() = 0", "--bind", "x=1"], "lastItem of a non-sequence `x`"),
    (["x.front(1) = y", "--bind", "x=1", "--bind", "y=1"], "front of a non-sequence `x`"),
    (["x.domain = y", "--bind", "x=1", "--bind", "y=1"], "domain of a non-map `x`"),
    (["x.range = y", "--bind", "x=1", "--bind", "y=1"], "range of a non-map `x`"),
    # a sum reads and checks its operands from the left
    (["x + y - z < 1", "--bind", "x=1", "--bind", "y=true", "--bind", "z=<off>"],
     "expected an integer from `y`, got True"),
    (["x - y < 1", "--bind", "x=<off>", "--bind", "y=true"], "expected an integer from `x`, got 'off'"),
])
def test_eval_error_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, "eval", *argv)
    assert (code, out, err) == (1, f"evaluation error: {message}\n", "")


@pytest.mark.parametrize("argv, value", [
    (["{x} = {true}", "--bind", "x=1"], "false"),
    (["{x} <> {true}", "--bind", "x=1"], "true"),
    (["{{x}} = {{false}}", "--bind", "x=0"], "false"),
    (["{x} = {1}", "--bind", "x=1"], "true"),
])
def test_eval_keeps_bool_and_int_apart_inside_sets(capsys, argv, value):
    # Python's True == 1 holds inside sets too; the dialect's equality does not
    code, out, err = run_cli(capsys, "eval", *argv)
    assert (code, out, err) == (0, f"{value}\n", "")


@pytest.mark.parametrize("argv, result", [
    (["{x, true}", "--bind", "x=1"], (2, "", "error: mixed element sorts in set literal in `{x, true}`\n")),
    (["{0, x}", "--bind", "x=false"], (2, "", "error: mixed element sorts in set literal in `{0, x}`\n")),
    (["{{x}, {true}}", "--bind", "x=1"],
     (2, "", "error: mixed element sorts in set literal in `{{x}, {true}}`\n")),
    (["{x, 1}", "--bind", "x=1"], (0, "{1}\n", "")),
    (["{x, y, true}", "--bind", "x=true", "--bind", "y=false"], (0, "{false, true}\n", "")),
    (["{x, y}", "--bind", "x=1", "--bind", "y=2"], (0, "{1, 2}\n", "")),
])
def test_eval_set_literal_never_merges_bool_with_int(capsys, argv, result):
    # a frozenset would keep one of True and 1; the literal is ill-sorted
    assert run_cli(capsys, "eval", *argv) == result


# ---------------------------------------------------------------------------
# argument handling


def test_no_arguments_usage(capsys):
    with pytest.raises(SystemExit):
        main([])
    _, err = capsys.readouterr().out, capsys.readouterr().err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "iacompat", "check", PING, PONG],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: compatible" in proc.stdout
