#!/usr/bin/env python3
"""Digest of the products, reports and witnesses a check makes on seeded pairs.

The pairs are ``randgen.rand_composable_pair`` pairs of up to 6 states, each
checked as drawn (guarded) and with every guard removed (guard-free), under
both deadlock readings; ``randgen.cycle_pair`` tori from 1x1 to 6x6; and one
pair whose joined state names collide (``a_`` x ``b`` and ``a`` x ``_b`` both
join to ``a___b``). For every check the printed product
(``print_document(document_from_automaton(...))``), the pruned automaton, the
illegal-state reasons, ``report_to_json`` and the witness are hashed, and the
counts summed, so two checkouts build and report alike when their lines
agree:

    python3 scripts/product_digest.py --pairs 2000 --seed 0

``--dump FILE`` writes the records one a line, to find where two checkouts
part.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from contextlib import nullcontext
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]
import iacompat as ia  # noqa: E402
from randgen import cycle_pair, rand_composable_pair  # noqa: E402

TORI = [(n, m) for n in range(1, 7) for m in range(1, 7)]


def guard_free(a: ia.InterfaceAutomaton) -> ia.InterfaceAutomaton:
    return a._replace(preconditions={}, postconditions={}, transitions=tuple(
        t._replace(pre=None, post=None) for t in a.transitions))


def colliding_pair() -> tuple[ia.InterfaceAutomaton, ia.InterfaceAutomaton]:
    """Two hidden steps each way; ``(a, _b)`` is named ``a___b_2``, after ``(a_, b)``."""
    step_a, step_b, go = ia.ActionLabel("stepA"), ia.ActionLabel("stepB"), ia.ActionLabel("go")
    a = ia.InterfaceAutomaton(
        name="A", states=("a_", "a"), initials=("a_",), inputs=(), outputs=(go,), hidden=(step_a,),
        transitions=(ia.Transition("a_", None, step_a, None, "a"), ia.Transition("a", None, go, None, "a"),
                     ia.Transition("a", None, step_a, None, "a_")))
    b = ia.InterfaceAutomaton(
        name="B", states=("b", "_b"), initials=("b",), inputs=(go,), outputs=(), hidden=(step_b,),
        transitions=(ia.Transition("b", None, step_b, None, "_b"), ia.Transition("b", None, go, None, "b")))
    return a, b


def pairs(n: int, seed: int):
    rng = random.Random(seed)
    for _ in range(n):
        a1, a2 = rand_composable_pair(rng, max_states=6)
        yield a1, a2
        yield guard_free(a1), guard_free(a2)
    for n1, n2 in TORI:
        yield cycle_pair(n1, n2)
    yield colliding_pair()


def record(a1: ia.InterfaceAutomaton, a2: ia.InterfaceAutomaton, strict: bool) -> tuple[str, tuple[int, ...]]:
    rep = ia.check_compatibility(a1, a2, ia.CompatOptions(strict_deadlock=strict))
    auto = rep.product.automaton
    reasons = sorted(rep.illegal.reasons.items())
    witness = None if rep.witness is None else (rep.witness.states, rep.witness.steps)
    text = "\t".join((
        ia.print_document(ia.document_from_automaton(auto)),
        repr(sorted(rep.product.pair_of.items())),
        ia.print_document(ia.document_from_automaton(rep.pruned)) if rep.pruned.states else "(empty)",
        repr(reasons),
        ia.report_to_json(rep),
        repr(witness),
    ))
    counts = (len(auto.states), len(auto.transitions), len(rep.illegal.states), len(rep.bad),
              rep.witness is not None)
    return text.replace("\n", "\\n") + "\n", counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", type=Path, help="write every record to this file")
    args = ap.parse_args(argv)

    digest = hashlib.sha256()
    checks, totals = 0, [0] * 5
    with args.dump.open("w", encoding="utf-8") if args.dump else nullcontext() as out:
        for a1, a2 in pairs(args.pairs, args.seed):
            for strict in (False, True):
                line, counts = record(a1, a2, strict)
                digest.update(line.encode())
                checks += 1
                totals = [t + c for t, c in zip(totals, counts)]
                if out:
                    out.write(line)
    states, transitions, illegal, bad, witnesses = totals
    print(f"{checks} checks: {states} states, {transitions} transitions, {illegal} illegal, {bad} bad,"
          f" {witnesses} witnesses, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
