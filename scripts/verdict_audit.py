#!/usr/bin/env python3
"""Cross-check the verifier against the naive oracle on random contracts.

Generates composable-by-construction pairs, runs the real pipeline and a
deliberately unoptimized reimplementation (full state grid, fixpoint
closure), and reports any disagreement on the verdict, the illegal set,
or the bad set.  Exit status 1 on the first discrepancy, so this doubles
as a long-running fuzz gate:

    python3 scripts/verdict_audit.py --pairs 5000 --seed0 0
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]
import iacompat as ia  # noqa: E402
from oracles import oracle_verdict  # noqa: E402
from randgen import rand_composable_pair  # noqa: E402


@dataclass(frozen=True)
class AuditConfig:
    pairs: int = 1000
    seed0: int = 0
    strict_deadlock: bool = False
    max_report: int = 10


def audit(cfg: AuditConfig) -> int:
    verdicts = {True: 0, False: 0}
    mismatches = []
    for i in range(cfg.pairs):
        seed = cfg.seed0 + i
        a1, a2 = rand_composable_pair(random.Random(seed))
        rep = ia.check_compatibility(
            a1, a2, ia.CompatOptions(strict_deadlock=cfg.strict_deadlock))
        want, _, o_ill, o_bad = oracle_verdict(
            a1, a2, strict_deadlock=cfg.strict_deadlock)
        got = rep.verdict is ia.CompatVerdict.COMPATIBLE
        verdicts[got] += 1
        if got != want:
            mismatches.append((seed, "verdict", got, want))
            continue
        pair_of = rep.product.pair_of
        reach = {pair_of[s] for s in rep.product.automaton.states}
        if {pair_of[s] for s in rep.illegal.states} != o_ill & reach:
            mismatches.append((seed, "illegal set", None, None))
        if {pair_of[s] for s in rep.bad} != o_bad & reach:
            mismatches.append((seed, "bad set", None, None))

    print(f"pairs:        {cfg.pairs}")
    print(f"compatible:   {verdicts[True]}")
    print(f"incompatible: {verdicts[False]}")
    print(f"mismatches:   {len(mismatches)}")
    for seed, what, got, want in mismatches[:cfg.max_report]:
        detail = f" (engine={got}, oracle={want})" if what == "verdict" else ""
        print(f"  seed {seed}: {what} disagrees{detail}")
    if len(mismatches) > cfg.max_report:
        print(f"  ... and {len(mismatches) - cfg.max_report} more")
    return 1 if mismatches else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=1000)
    ap.add_argument("--seed0", type=int, default=0,
                    help="first seed; pair i uses seed0+i")
    ap.add_argument("--strict-deadlock", action="store_true",
                    help="treat deadlocks as illegal on both sides")
    args = ap.parse_args()
    return audit(AuditConfig(pairs=args.pairs, seed0=args.seed0,
                             strict_deadlock=args.strict_deadlock))


if __name__ == "__main__":
    raise SystemExit(main())
