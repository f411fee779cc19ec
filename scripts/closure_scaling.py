#!/usr/bin/env python3
"""Measure the graph stages' cost against product size.

Builds pairs of hidden cycles whose product is an n*n torus where every
state is bad, and fits a straight line through (transitions, cost) for the
closure's operation count and for the best-of-``--repeats`` wall time of
each graph stage: ``product``, ``illegal_states``, ``bad_states``, ``prune``
and ``shortest_witness``. Each is a single pass over the graph, so every fit
should be near-perfectly linear; anything superlinear here would point at a
regression in a stage. The repeats run as rounds, each over all sizes in
turn.

Every repeat starts from freshly built operands, so each stage pays for the
automaton indexes it builds first, as it does inside a check. The real
illegal set of a cycle pair holds the initial state, which would make the
witness search trivial and the prune empty at once, so both run toward the
pair farthest from the initial state instead, 2*(n-1) hidden steps away:
the search ends there, and the prune removes it and keeps the rest.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]
import iacompat as ia  # noqa: E402
from randgen import cycle_pair  # noqa: E402

TIMED = ("product", "illegal", "closure", "prune", "witness")


@dataclass(frozen=True)
class ScalingConfig:
    sizes: tuple[int, ...] = (8, 11, 16, 22, 32, 45, 64, 71)
    r2_floor: float = 0.98
    repeats: int = 5


def run_once(n: int) -> tuple[int, int, int, dict[str, float]]:
    """One pass over fresh operands: states, transitions, closure ops, seconds per stage."""
    a, b = cycle_pair(n, n)
    secs: dict[str, float] = {}
    t0 = time.perf_counter()
    prod = ia.product(a, b)
    t1 = time.perf_counter()
    ill = ia.illegal_states(prod)
    t2 = time.perf_counter()
    ctr = ia.OpCounter()
    bad = ia.bad_states(prod, ill, counter=ctr)
    t3 = time.perf_counter()
    secs.update(product=t1 - t0, illegal=t2 - t1, closure=t3 - t2)

    auto = prod.automaton
    assert len(bad) == len(auto.states), "cycle product must be fully bad"
    pid = {pair: s for s, pair in prod.pair_of.items()}
    far = ia.IllegalStateSet(frozenset({pid[a.states[-1], b.states[-1]]}), {})
    t4 = time.perf_counter()
    trace = ia.shortest_witness(prod, far)
    t5 = time.perf_counter()
    pruned = ia.prune(prod, far.states)
    secs.update(witness=t5 - t4, prune=time.perf_counter() - t5)
    assert trace is not None and len(trace.steps) == 2 * (n - 1), "witness must cross the torus"
    assert len(pruned.states) == len(auto.states) - 1, "the prune must keep all but the far pair"
    return len(auto.states), len(auto.transitions), ctr.ops, secs


def fit(name: str, xs: list[int], ys: list[float], unit: str, floor: float) -> bool:
    slope, intercept = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2
    ok = r2 >= floor
    print(f"{name:<8} {unit} ~= {slope:.4g} * transitions + {intercept:.4g}   "
          f"(R^2 = {r2:.6f}) {'PASS' if ok else 'FAIL'}")
    return ok


def measure(cfg: ScalingConfig) -> int:
    trans: list[int] = []
    ops: list[int] = []
    best: dict[str, list[float]] = {name: [] for name in TIMED}
    print(f"{'n':>4} {'states':>7} {'trans':>7} {'ops':>8} {'ops/trans':>9} "
          + " ".join(f"{name + '_s':>10}" for name in TIMED))
    # whole rounds over every size, so a noisy stretch of the host slows one
    # repeat of each size rather than every repeat of the last sizes
    rounds = [[run_once(n) for n in cfg.sizes] for _ in range(cfg.repeats)]
    for n, runs in zip(cfg.sizes, zip(*rounds)):
        states, n_trans, n_ops, _ = runs[0]
        low = {name: min(r[3][name] for r in runs) for name in TIMED}
        trans.append(n_trans)
        ops.append(n_ops)
        for name in TIMED:
            best[name].append(low[name])
        print(f"{n:>4} {states:>7} {n_trans:>7} {n_ops:>8} {n_ops / n_trans:>9.3f} "
              + " ".join(f"{low[name]:>10.5f}" for name in TIMED))

    print(f"\nlinearity checks (R^2 >= {cfg.r2_floor}):")
    ok = fit("closure", trans, ops, "ops", cfg.r2_floor)
    for name in TIMED:
        ok = fit(name, trans, best[name], "secs", cfg.r2_floor) and ok
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=None,
                    metavar="N", help="cycle lengths (product has N*N states)")
    ap.add_argument("--repeats", type=int, default=ScalingConfig.repeats,
                    help="timing repetitions per size (best is kept)")
    args = ap.parse_args()
    cfg = ScalingConfig(sizes=tuple(args.sizes) if args.sizes else
                        ScalingConfig.sizes, repeats=args.repeats)
    return measure(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
