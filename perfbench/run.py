#!/usr/bin/env python3
"""Seeded benchmark of ``iacompat check``, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload dense-far --seed 1 --seconds 10 --trace 0

The command builds the workload's batch of contract pairs from the seed,
computes the reference answers, measures package set-up, then runs the batch
in a child process (one client, one thread, closed loop) and checks every
verdict. It prints each metric by name with its unit, and as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones; both lists, with units, are in ``BENCHMARK.json``. It exits
non-zero when a check fails or the library sources are missing.

``--tiny`` shrinks every batch to a few small pairs, for the benchmark's own
tests.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ENUM_BUDGET_ENV = "IACOMPAT_ENUM_BUDGET"
SETUP_REPEATS = 11
KERNELS_PER_START = 5
DEADLINE_S = 170  # the whole command, child included


def median_start(code: str, env: dict, speed: Speed) -> float:
    """Median wall time of a fresh interpreter running ``code``.

    One unmeasured start first, so every measured start finds the bytecode
    cache written. The calibration kernel runs after each start.
    """
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
        for _ in range(KERNELS_PER_START):
            speed.sample()
    return statistics.median(times)


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small pairs per batch")
    args = parser.parse_args(argv)

    if not (SRC / "iacompat" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no iacompat sources or tests/oracles.py under {ROOT}", file=sys.stderr)
        return 2
    os.environ.pop(ENUM_BUDGET_ENV, None)
    sys.path.insert(0, str(SRC))
    import iacompat
    from workloads import ENUM_BUDGET, WORKLOADS

    if Path(iacompat.__file__).resolve().parent != SRC / "iacompat":
        print(f"error: imported iacompat from {iacompat.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()

    env = dict(os.environ, PYTHONPATH=str(SRC))  # this checkout's sources, nothing else
    speed = Speed()
    setup_s = median_start("import iacompat", env, speed)
    bare_s = median_start("pass", env, speed) if args.trace else setup_s
    setup_s, import_s = setup_s / speed.factor, (setup_s - bare_s) / speed.factor

    cases = WORKLOADS[args.workload](args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    job = {
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "budget": ENUM_BUDGET,
        "trace_out": str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"),
        "cases": [c.__dict__ for c in cases],
    }
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "batch.py")],
            input=json.dumps(job),
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, DEADLINE_S - (perf_counter() - start)),
        )
    except subprocess.TimeoutExpired:
        print("error: the batch did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: the batch exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if result["default_budget"] != ENUM_BUDGET:
        print(f"error: default budget is {result['default_budget']}, not {ENUM_BUDGET}", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(result["per_layer"], **{"package.import_s": import_s})
        units = declared["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=setup_s)
        units = declared["end_to_end"]
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} pairs, {attempted} checks")
    print(f"times are at reference speed; set-up ran at {speed.factor:.3f}x reference")
    if not args.trace:
        timed = result["end_to_end"]
        print(f"timed: {timed['samples']} checks at {timed['speed_factor']:.3f}x reference")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_ratio {failed / attempted:.6f}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
