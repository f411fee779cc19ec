"""End-to-end acceptance criteria.

Each test exercises one headline capability and prints a single
``[acceptance N] name: PASS/FAIL`` line so the suite output doubles as
a scorecard.  Expected numbers for the bundled case study were derived
once with the independent oracles in tests/oracles.py and frozen here.
"""

import random
import statistics

import iacompat as ia
from iacompat.evaluate import evaluate
from iacompat.falsity import falsity
from oracles import (
    constraint_falsity_table,
    grid_product,
    oracle_bad,
    oracle_illegal,
    oracle_reachable,
    oracle_verdict,
)
from randgen import (
    cycle_pair,
    rand_composable_pair,
    rand_domain,
    rand_expr,
    rand_valuation,
)
from test_automata import _swap_isomorphic
from test_constraints import CASE_STUDY_CONSTRAINTS, LD_DECLS, TL_DECLS, TYPE_ENV


def _verdict(capsys, number, name, problems):
    ok = not problems
    with capsys.disabled():
        print(f"\n[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, problems


def _case_study():
    ld = ia.load_fixture("le_device.ia").automaton("LE_Device")
    tl = ia.load_fixture("transport_layer.ia").automaton("TransportLayer")
    return ld, tl


# ---------------------------------------------------------------------------


def test_acceptance_1_fixture_shape(capsys):
    """The bundled case-study contracts parse to their published shapes."""
    problems = []
    ld, tl = _case_study()
    expected = [
        ("LE_Device states", len(ld.states), 6),
        ("LE_Device initials", len(ld.initials), 1),
        ("LE_Device inputs", len(ld.inputs), 1),
        ("LE_Device outputs", len(ld.outputs), 1),
        ("LE_Device hidden", len(ld.hidden), 13),
        ("LE_Device transitions", len(ld.transitions), 14),
        ("TransportLayer states", len(tl.states), 10),
        ("TransportLayer initials", len(tl.initials), 1),
        ("TransportLayer inputs", len(tl.inputs), 1),
        ("TransportLayer outputs", len(tl.outputs), 1),
        ("TransportLayer hidden", len(tl.hidden), 8),
        ("TransportLayer transitions", len(tl.transitions), 16),
    ]
    for label, got, want in expected:
        if got != want:
            problems.append(f"{label}: got {got}, want {want}")
    for a in (ld, tl):
        diags = ia.validate(a)
        if diags:
            problems.append(f"{a.name} has diagnostics: {diags}")
    _verdict(capsys, 1, "case-study fixtures parse to published shapes", problems)


def test_acceptance_2_case_study_verdict(capsys):
    """Raw contracts clash on a shared internal name; qualified ones
    compose but every product state is bad, so the pair is incompatible."""
    problems = []
    ld, tl = _case_study()

    raw = ia.composable(ld, tl)
    if raw.ok:
        problems.append("raw contracts should not be composable")
    if raw.conflict_actions() != {ia.ActionLabel("init")}:
        problems.append(f"raw conflicts: {raw.conflict_actions()}")
    clauses = {c.clause for c in raw.conflicts}
    if clauses != {"hidden1_sigma2", "sigma1_hidden2"}:
        problems.append(f"raw conflict clauses: {clauses}")

    rep = ia.check_compatibility(ld, tl, ia.CompatOptions(qualify_hidden=True))
    if set(rep.shared) != {ia.ActionLabel("sendMessages"), ia.ActionLabel("receiveMessages")}:
        problems.append(f"shared set: {rep.shared}")
    if rep.verdict is not ia.CompatVerdict.INCOMPATIBLE:
        problems.append(f"verdict: {rep.verdict}")
    if rep.cause is not ia.IncompatibilityCause.EMPTY_AFTER_PRUNING:
        problems.append(f"cause: {rep.cause}")
    stats = (len(rep.product.automaton.states), len(rep.product.automaton.transitions),
             len(rep.illegal.states), len(rep.bad))
    if stats != (57, 185, 21, 57):
        problems.append(f"product/illegal/bad stats: {stats}")
    if not rep.pruned.is_empty():
        problems.append("pruned automaton should be empty")
    if rep.witness is None:
        problems.append("missing witness")
    else:
        if rep.witness.states[0] != "Off__Init":
            problems.append(f"witness origin: {rep.witness.states[0]}")
        if rep.witness.states[-1] not in rep.illegal.states:
            problems.append("witness does not end in an illegal state")
    kinds = {type(r).__name__ for s in rep.illegal.states
             for r in rep.illegal.reasons[s]}
    if kinds != {"UnreceivedOutput"}:
        problems.append(f"illegal-state reasons: {kinds}")
    _verdict(capsys, 2, "case-study pair is incompatible for the right reason",
             problems)


def test_acceptance_3_verdict_matches_oracle(capsys):
    """On 500 random composable pairs the engine verdict, the illegal set
    and the bad set all agree with an independently written oracle."""
    problems = []
    compatible = incompatible = 0
    for seed in range(500):
        rng = random.Random(seed)
        a1, a2 = rand_composable_pair(rng)
        rep = ia.check_compatibility(a1, a2)
        want, grid, o_ill, o_bad = oracle_verdict(a1, a2)
        got = rep.verdict is ia.CompatVerdict.COMPATIBLE
        if got != want:
            problems.append(f"seed {seed}: engine {rep.verdict}, oracle "
                            f"{'compatible' if want else 'incompatible'}")
            if len(problems) > 5:
                break
            continue
        if got:
            compatible += 1
        else:
            incompatible += 1
        if rep.product is not None:
            pair_of = rep.product.pair_of
            reach = {pair_of[s] for s in rep.product.automaton.states}
            if {pair_of[s] for s in rep.illegal.states} != o_ill & reach:
                problems.append(f"seed {seed}: illegal set mismatch")
            if {pair_of[s] for s in rep.bad} != o_bad & reach:
                problems.append(f"seed {seed}: bad set mismatch")
    if compatible < 50 or incompatible < 50:
        problems.append(f"degenerate sample: {compatible} compatible, "
                        f"{incompatible} incompatible")
    _verdict(capsys, 3, "verdicts on 500 random pairs match the oracle", problems)


def test_acceptance_4_pipeline_invariants(capsys):
    """Structural invariants hold on every generated product: alphabets
    partition, illegal states are bad, pruning removes exactly the bad
    part of the reachable space, and the product is symmetric."""
    problems = []
    for seed in range(250):
        rng = random.Random(10_000 + seed)
        a1, a2 = rand_composable_pair(rng)
        rep = ia.check_compatibility(a1, a2)
        prod = rep.product
        if prod is None:
            problems.append(f"seed {seed}: generated pair not composable")
            continue
        auto = prod.automaton
        alpha = [set(auto.inputs), set(auto.outputs), set(auto.hidden)]
        total = sum(len(s) for s in alpha)
        if len(alpha[0] | alpha[1] | alpha[2]) != total:
            problems.append(f"seed {seed}: product alphabet classes overlap")
        if not set(rep.illegal.states) <= set(rep.bad):
            problems.append(f"seed {seed}: illegal not a subset of bad")
        if set(rep.pruned.states) & set(rep.bad):
            problems.append(f"seed {seed}: pruned automaton keeps bad states")
        keep = oracle_reachable(
            [s for s in auto.initials if s not in rep.bad],
            [(t.source, t.target) for t in auto.transitions
             if t.source not in rep.bad and t.target not in rep.bad],
            frozenset(rep.bad))
        if set(rep.pruned.states) != keep:
            problems.append(f"seed {seed}: pruned state set wrong")
        swapped = ia.product(a2, a1)
        if not _swap_isomorphic(prod, swapped):
            problems.append(f"seed {seed}: product not symmetric under swap")
        if len(problems) > 5:
            break
    _verdict(capsys, 4, "pipeline invariants hold on 250 random products",
             problems)


def test_acceptance_5_constraint_language(capsys):
    """Every case-study constraint parses, none is identically false, the
    bounded-counter precondition has the exact expected truth table, and
    simplification never changes an expression's value."""
    problems = []

    parsed = {}
    for name, (text, decls) in CASE_STUDY_CONSTRAINTS.items():
        try:
            c = ia.parse_constraint(text, decls, type_env=TYPE_ENV, source=name)
            parsed[name] = (c, decls)
            printed = ia.to_text(c.body)
            reparsed = ia.parse_expression(
                printed, decls, params=dict(c.param_domains()),
                source=name + ":printed")
            if ia.to_text(reparsed) != printed:
                problems.append(f"{name}: print/parse round trip drifted")
        except ia.ParseError as exc:
            problems.append(f"{name}: {exc}")
    if len(parsed) != 11:
        problems.append(f"parsed {len(parsed)} of 11 constraints")

    for name, (c, decls) in parsed.items():
        res = falsity(c.body, list(decls.values()),
                         params=dict(c.param_domains()))
        if res.verdict is ia.Verdict.FALSE:
            problems.append(f"{name}: reported identically false")

    # exhaustive truth table for the counter-increment precondition
    if "LDPreIS" in parsed:
        body = parsed["LDPreIS"][0].body
        for v in range(11):
            got = evaluate(body, ia.Valuation({"myCS": {"c": "undecided", "s": v}}))
            if got is not (v < 10):
                problems.append(f"LDPreIS at s={v}: {got}")

    # simplifier soundness on 1000 random expressions
    mismatches = 0
    for seed in range(1000):
        rng = random.Random(20_000 + seed)
        n = rng.randint(1, 3)
        decls = [ia.VariableDecl(f"v{i}", rand_domain(rng)) for i in range(n)]
        expr = rand_expr(rng, decls)
        simp = ia.simplify(expr)
        for _ in range(3):
            val = rand_valuation(rng, decls, drop=0.1)
            try:
                want = evaluate(expr, val)
            except ia.EvalError:
                want = ia.EvalError
            try:
                got = evaluate(simp, val)
            except ia.EvalError:
                got = ia.EvalError
            # simplification may remove an erroring subterm, never flip a value
            if want is not got and ia.EvalError not in (want, got):
                mismatches += 1
                problems.append(f"seed {seed}: {ia.to_text(expr)} -> "
                                f"{ia.to_text(simp)}: {want} vs {got}")
                break
        if mismatches > 5:
            break
    _verdict(capsys, 5, "constraint language round-trips and evaluates correctly",
             problems)


def test_acceptance_6_closure_scales_linearly(capsys):
    """Closure cost grows linearly in the product transition count: a
    straight-line fit over two orders of magnitude explains >= 98% of
    the variance."""
    problems = []
    sizes = []
    for n in (8, 11, 16, 22, 32, 45, 64, 71):
        a, b = cycle_pair(n, n)
        prod = ia.product(a, b)
        ill = ia.illegal_states(prod)
        ctr = ia.OpCounter()
        bad = ia.bad_states(prod, ill, counter=ctr)
        edges = len(prod.automaton.transitions)
        if len(bad) != len(prod.automaton.states):
            problems.append(f"n={n}: closure should cover the whole cycle product")
        sizes.append((edges, ctr.ops))
    xs = [e for e, _ in sizes]
    ys = [o for _, o in sizes]
    if max(xs) / min(xs) < 50:
        problems.append("test sizes span less than two orders of magnitude")
    r2 = statistics.correlation(xs, ys) ** 2
    if not r2 >= 0.98:
        problems.append(f"linear fit R^2 = {r2:.4f} < 0.98")
    slope = statistics.linear_regression(xs, ys).slope
    if not 1.0 <= slope <= 4.0:
        problems.append(f"ops-per-edge slope {slope:.2f} outside sane band")
    _verdict(capsys, 6, "closure work is linear in product size", problems)
