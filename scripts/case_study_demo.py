#!/usr/bin/env python3
"""Run the bundled case study end to end and narrate the result.

The two shipped contracts share an internal action name (`init`), so the
raw pair is not even composable.  After namespacing hidden actions they
compose, but every reachable product state turns out bad: the layer that
is supposed to consume `sendMessages` only accepts it in a few of its
states, and autonomous steps can always steer the product into one of
the offending combinations.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import iacompat as ia  # noqa: E402


@dataclass(frozen=True)
class DemoConfig:
    qualify: bool = True
    witness: bool = True


def run(cfg: DemoConfig) -> int:
    ld = ia.load_fixture("le_device.ia").automaton("LE_Device")
    tl = ia.load_fixture("transport_layer.ia").automaton("TransportLayer")

    print("== raw contracts ==")
    raw = ia.composable(ld, tl)
    print(f"composable: {'yes' if raw.ok else 'no'}")
    for c in raw.conflicts:
        names = ", ".join(str(a) for a in sorted(c.actions, key=str))
        print(f"  conflict {c.clause}: {names}")

    if not cfg.qualify:
        return 0 if raw.ok else 1

    print("\n== after qualifying hidden actions ==")
    rep = ia.check_compatibility(
        ld, tl, ia.CompatOptions(qualify_hidden=True))
    print(f"shared: {', '.join(str(a) for a in rep.shared)}")
    auto = rep.product.automaton
    print(f"product: {len(auto.states)} states, {len(auto.transitions)} transitions")
    print(f"illegal: {len(rep.illegal.states)} states")
    for s in sorted(rep.illegal.states)[:5]:
        reasons = ", ".join(type(r).__name__ for r in rep.illegal.reasons[s])
        print(f"  {s}: {reasons}")
    if len(rep.illegal.states) > 5:
        print(f"  ... and {len(rep.illegal.states) - 5} more")
    print(f"bad after closure: {len(rep.bad)} states")
    print(f"pruned: {len(rep.pruned.states)} states")
    print(f"verdict: {rep.verdict.value}")

    if cfg.witness and rep.witness is not None:
        print(f"\nshortest autonomous path into the illegal set "
              f"({len(rep.witness.steps)} steps):")
        print(f"  {rep.witness.states[0]}")
        for step, state in zip(rep.witness.steps, rep.witness.states[1:]):
            print(f"  -[{step.action}]-> {state}")
    return 0 if rep.verdict is ia.CompatVerdict.COMPATIBLE else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--raw-only", action="store_true",
                    help="stop after the composability check")
    ap.add_argument("--no-witness", action="store_true")
    args = ap.parse_args()
    return run(DemoConfig(qualify=not args.raw_only,
                          witness=not args.no_witness))


if __name__ == "__main__":
    raise SystemExit(main())
