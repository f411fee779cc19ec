#!/usr/bin/env python3
"""Digest of the falsity verdicts a check reaches on seeded random guards.

Each pair is two one-state contracts over the same int, record and map
variables that synchronise on ``go``; each side also has a hidden step of its
own. Every step may carry a pre and a post drawn by ``randgen.rand_int_guard``
(the posts read old-state copies too), with the operation parameter ``p`` and,
on some guards, a parameter ``x`` that shadows the variable ``x``. The product
conjoins the guards of the synchronised steps, and ``illegal_states`` queries
every guard on a step at budgets 16 and 10^6. Each query made through
``iacompat.verifier.constraint_falsity`` is recorded as (text, verdict,
explored, witness), so the witness of a satisfiable query pins the order in
which valuations are enumerated, not only how many. The verdict counts, the
total valuations and the SHA-256 of all records are printed, so two
checkouts decide alike when their lines agree:

    python3 scripts/falsity_digest.py --pairs 2000 --seed 0

``--dump FILE`` writes the records one a line, to find where two checkouts
part.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import random
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]
import iacompat as ia  # noqa: E402
from randgen import INT_DECLS, INT_PARAMS, rand_int_guard  # noqa: E402

verifier = importlib.import_module("iacompat.verifier")
BUDGETS = (16, 10**6)


def guard(rng: random.Random, side: str, kind: ia.ConstraintKind, i: int) -> ia.NamedConstraint:
    body = rand_int_guard(rng)
    while kind is ia.ConstraintKind.PRE and any(r.old for r in ia.variable_refs(body)):
        body = rand_int_guard(rng)
    names = ("p", "x") if rng.random() < 0.25 else ("p",)
    params = tuple(ia.ParamDecl(n, INT_PARAMS[n]) for n in names)
    return ia.NamedConstraint(f"{side}{kind.value}{i}", kind, body, ia.ConstraintContext(side, "go", params))


def side(rng: random.Random, name: str, state: str, *, sends: bool) -> ia.InterfaceAutomaton:
    """One state with 1-3 ``go`` steps and a hidden step, each guarded at random."""
    pres = {c.name: c for c in (guard(rng, name, ia.ConstraintKind.PRE, i) for i in range(3))}
    posts = {c.name: c for c in (guard(rng, name, ia.ConstraintKind.POST, i) for i in range(3))}
    go, own = ia.ActionLabel("go"), ia.ActionLabel(name.lower())

    def pick(registry):
        return rng.choice(sorted(registry)) if rng.random() < 0.8 else None

    steps = [ia.Transition(state, pick(pres), go, pick(posts), state) for _ in range(rng.randint(1, 3))]
    steps.append(ia.Transition(state, pick(pres), own, pick(posts), state))
    return ia.InterfaceAutomaton(
        name=name, states=(state,), initials=(state,),
        inputs=() if sends else (go,), outputs=(go,) if sends else (), hidden=(own,),
        variables={d.name: d for d in INT_DECLS}, preconditions=pres, postconditions=posts,
        transitions=tuple(steps),
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", type=Path, help="write every record to this file")
    args = ap.parse_args(argv)

    records: list[str] = []
    original = verifier.constraint_falsity

    def recorded(c, *rest, **kwargs):
        res = original(c, *rest, **kwargs)
        records.append(f"{c.name}: {ia.to_text(c.body)}\t{res.verdict.value}\t{res.explored}\t{res.witness!r}\n")
        return res

    rng = random.Random(args.seed)
    verifier.constraint_falsity = recorded
    try:
        for _ in range(args.pairs):
            a1, a2 = side(rng, "L", "s", sends=True), side(rng, "R", "t", sends=False)
            prod = ia.product(a1, a2)
            for budget in BUDGETS:
                verifier.illegal_states(prod, budget=budget)
    finally:
        verifier.constraint_falsity = original

    digest = hashlib.sha256()
    verdicts: Counter[str] = Counter()
    valuations = 0
    with args.dump.open("w", encoding="utf-8") if args.dump else nullcontext() as out:
        for line in records:
            digest.update(line.encode())
            _, verdict, explored, _ = line.split("\t")
            verdicts[verdict] += 1
            valuations += int(explored)
            if out:
                out.write(line)
    print(f"{args.pairs} pairs, {len(records)} queries: {verdicts['false']} false,"
          f" {verdicts['satisfiable']} satisfiable, {verdicts['unknown']} unknown;"
          f" {valuations} valuations, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
