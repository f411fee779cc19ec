#!/usr/bin/env python3
"""Digest of the falsity verdicts of every step guard on seeded random guards.

Each pair is two one-state contracts over the same int, record and map
variables that synchronise on ``go``; each side also has a hidden step of its
own. Every step may carry a pre and a post drawn by ``randgen.rand_int_guard``
(the posts read old-state copies too), with the operation parameter ``p`` and,
on some guards, a parameter ``x`` that shadows the variable ``x``. The product
conjoins the guards of the synchronised steps. At budgets 16 and 10^6, the
script queries the guards of every product step in state and step order: the
pre, then the post unless the pre is FALSE, each name once per registry, with
one dict of pools for all the queries. A check queries fewer
(``illegal_states`` stops at a state's first enabled step), so the script
makes the queries itself to pin every guard's verdict.
Each query is recorded as (text, verdict, explored, witness), so the witness
of a satisfiable query pins the order in which valuations are enumerated, not
only how many. The verdict counts, the total valuations and the SHA-256 of
all records are printed, so two checkouts decide alike when their lines
agree:

    python3 scripts/falsity_digest.py --pairs 2000 --seed 0

``--dump FILE`` writes the records one a line, to find where two checkouts
part.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]
import iacompat as ia  # noqa: E402
from iacompat.falsity import Verdict, constraint_falsity  # noqa: E402
from randgen import INT_DECLS, rand_int_constraint  # noqa: E402

BUDGETS = (16, 10**6)
PRE, POST = ia.ConstraintKind.PRE, ia.ConstraintKind.POST


def side(rng: random.Random, name: str, state: str, *, sends: bool) -> ia.InterfaceAutomaton:
    """One state with 1-3 ``go`` steps and a hidden step, each guarded at random."""
    pres = {c.name: c for c in (rand_int_constraint(rng, f"{name}pre{i}", PRE, name) for i in range(3))}
    posts = {c.name: c for c in (rand_int_constraint(rng, f"{name}post{i}", POST, name) for i in range(3))}
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


def query_every_guard(prod: ia.ProductResult, budget: int, records: list[str]) -> None:
    """Decide the guards of every step of ``prod`` and append one record per query."""
    auto = prod.automaton
    registries = {PRE: auto.preconditions, POST: auto.postconditions}
    verdicts: dict = {PRE: {}, POST: {}}
    pools: dict = {}

    def is_false(kind: ia.ConstraintKind, name: str) -> bool:
        if name not in verdicts[kind]:
            c = registries[kind][name]
            res = constraint_falsity(c, auto.variables, budget=budget, pools=pools)
            records.append(f"{c.name}: {ia.to_text(c.body)}\t{res.verdict.value}\t{res.explored}\t{res.witness!r}\n")
            verdicts[kind][name] = res.verdict
        return verdicts[kind][name] is Verdict.FALSE

    for out in auto.graph.steps:
        for pre, _, post, _ in out:
            if (pre is None or not is_false(PRE, pre)) and post is not None:
                is_false(POST, post)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", type=Path, help="write every record to this file")
    args = ap.parse_args(argv)

    records: list[str] = []
    rng = random.Random(args.seed)
    for _ in range(args.pairs):
        a1, a2 = side(rng, "L", "s", sends=True), side(rng, "R", "t", sends=False)
        prod = ia.product(a1, a2)
        for budget in BUDGETS:
            query_every_guard(prod, budget, records)

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
