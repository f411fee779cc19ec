"""Child process: run one workload's batch in a closed loop and measure it.

Reads the batch (contract texts plus reference answers) as JSON on stdin and
prints one JSON object as its last stdout line. One client, one thread: each
check starts when the previous one has returned.

Each check is the in-process equivalent of
``iacompat check --qualify-hidden --report``: ``parse_document`` on both
texts, ``check_compatibility``, ``report_to_json``.

1. Warm-up: one untimed pass. Each report is verified against the reference
   and its JSON kept as the pair's fingerprint.
2. Timed: whole passes until the time is up. A check fails when it raises,
   when its JSON differs from the fingerprint, or when its pair failed
   verification.
3. Traced (``trace``): the time is split between an untimed-spans phase, for
   the overhead ratio, and a phase with spans on every public call.
"""
from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import iacompat as ia
import iacompat.verifier as verifier
from iacompat import ActionClass, CompatOptions, OpCounter, Verdict
from iacompat.falsity import ENUM_BUDGET_ENV, default_budget

from calibration import Speed
from spans import Tracer, self_times

AUTONOMOUS = (ActionClass.OUTPUT, ActionClass.HIDDEN)

# stage functions as check_compatibility looks them up, with their span names
STAGES = (
    "validate",
    "qualify_hidden",
    "composable",
    "product",
    "illegal_states",
    "bad_states",
    "prune",
    "shortest_witness",
    "constraint_falsity",
)

LAYER_SPANS = {
    "docformat.parse_s": "parse_document",
    "automata.validate_s": "validate",
    "automata.qualify_s": "qualify_hidden",
    "automata.composable_s": "composable",
    "automata.product_s": "product",
    "falsity.s": "constraint_falsity",
    "verifier.illegal_self_s": "illegal_states",
    "verifier.closure_s": "bad_states",
    "verifier.prune_s": "prune",
    "verifier.witness_s": "shortest_witness",
    "verifier.report_s": "report_to_json",
}
# self time outside every layer: the loop body and check_compatibility's glue
GLUE_SPANS = ("check", "check_compatibility")


class Pipeline:
    """The three public calls a check makes; the tracer swaps in wrapped ones."""

    def __init__(self, budget: int):
        self.options = CompatOptions(qualify_hidden=True, enum_budget=budget)
        self.parse = ia.parse_document
        self.check = verifier.check_compatibility
        self.serialise = ia.report_to_json

    def run(self, case: dict):
        left = self.parse(case["left"]).automaton()
        right = self.parse(case["right"]).automaton()
        report = self.check(left, right, self.options)
        return report, self.serialise(report)


# ---------------------------------------------------------------------------
# verification against the reference


def verify(report, text: str, expect: dict) -> list[str]:
    """Differences between one report (object and JSON) and its reference."""
    problems = []
    prod = report.product
    if prod is None:
        return [f"not composable: {report.composability.conflicts}"]
    auto = prod.automaton

    def pairs(states):
        return sorted(list(prod.pair_of[s]) for s in states)

    got = {
        "verdict": report.verdict.value,
        "product_states": len(auto.states),
        "product_transitions": len(auto.transitions),
        "illegal": pairs(report.illegal.states),
        "bad": pairs(report.bad),
    }
    for key, value in got.items():
        want = expect[key]
        if isinstance(want, int) and not isinstance(value, int):
            value = len(value)
        if value != want:
            problems.append(f"{key}: got {_short(value)}, want {_short(want)}")

    want = expect["witness"]
    witness = report.witness
    if (want is None) != (witness is None):
        problems.append(f"witness: got {witness}, want {want}")
    elif witness is not None:
        problems += _replay(prod, report.illegal.states, witness)
        if isinstance(want, list) and list(witness.states) != want:
            problems.append(f"witness states: got {list(witness.states)}, want {want}")
        if isinstance(want, int) and len(witness.steps) != want:
            problems.append(f"witness length: got {len(witness.steps)}, want {want}")

    doc = json.loads(text)
    if doc["verdict"] != report.verdict.value or doc["bad"] != sorted(report.bad):
        problems.append("JSON report disagrees with the report object")
    if (doc["witness"] or {}).get("states") != (list(witness.states) if witness else None):
        problems.append("JSON witness disagrees with the report object")
    return problems


def _replay(prod, illegal, witness) -> list[str]:
    """The witness must be an autonomous path from an initial state into ``illegal``."""
    auto = prod.automaton
    steps = set(auto.transitions)
    states = witness.states
    if states[0] not in auto.initials:
        return [f"witness starts at {states[0]}, not an initial state"]
    for src, t, dst in zip(states, witness.steps, states[1:]):
        if t not in steps or (t.source, t.target) != (src, dst):
            return [f"witness step {t} is not a product transition {src} -> {dst}"]
        if auto.action_class(t.action) not in AUTONOMOUS:
            return [f"witness step {t} is not autonomous"]
    if states[-1] not in illegal:
        return [f"witness ends at {states[-1]}, which is not illegal"]
    return []


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 120 else text[:117] + "..."


# ---------------------------------------------------------------------------
# the loop


class Batch:
    def __init__(self, cases: list[dict], pipeline: Pipeline):
        self.cases = cases
        self.pipeline = pipeline
        self.run = pipeline.run  # the traced phase puts a root span around it
        self.fingerprints: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def warm_up(self) -> None:
        """One untimed pass that verifies every pair against its reference."""
        for case in self.cases:
            self.attempted += 1
            try:
                report, text = self.run(case)
            except Exception as exc:  # a crash is a failed check, not a dead run
                self._fail(case, f"raised {exc!r}")
                self.fingerprints.append(None)
                continue
            problems = verify(report, text, case["expect"])
            if problems:
                self._fail(case, "; ".join(problems))
            self.fingerprints.append(None if problems else text)

    def timed(self, seconds: float, on_check=None) -> tuple[list[float], float]:
        """Whole passes over the batch until ``seconds`` have gone.

        Returns every check's time at reference speed, and the phase's speed
        factor. The calibration kernel runs after each check, outside its
        time. Whole passes keep every pair's share of the samples the same.
        """
        times: list[float] = []
        speed = Speed()
        begin = perf_counter()
        while True:
            for case, fingerprint in zip(self.cases, self.fingerprints):
                if on_check is not None:
                    on_check(len(times))
                self.attempted += 1
                t0 = perf_counter()
                try:
                    _, text = self.run(case)
                except Exception as exc:
                    times.append(perf_counter() - t0)
                    self._fail(case, f"raised {exc!r}")
                    continue
                times.append(perf_counter() - t0)
                if fingerprint is None or text != fingerprint:
                    self._fail(case, "report differs from the verified one")
                speed.sample()
            if perf_counter() - begin >= seconds:
                return [t / speed.factor for t in times], speed.factor

    def _fail(self, case: dict, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{case['name']}: {problem}")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, like ``numpy.percentile``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(times: list[float], factor: float) -> dict:
    return {
        "check_s.p50": percentile(times, 50),
        "check_s.p90": percentile(times, 90),
        "pairs_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": len(times),
        "speed_factor": factor,
    }


# ---------------------------------------------------------------------------
# tracing


def install(tracer: Tracer, pipeline: Pipeline) -> dict:
    """Wrap every public call; returns the originals for ``uninstall``."""
    originals = {name: getattr(verifier, name) for name in STAGES}
    wrap = tracer.wrap

    def bad_states(prod, illegal, *, counter=None):
        counter = OpCounter() if counter is None else counter
        bad = originals["bad_states"](prod, illegal, counter=counter)
        tracer.note(bad=len(bad), ops=counter.ops)
        return bad

    def product_counts(prod, *_):
        auto = prod.automaton
        return {
            "states": len(auto.states),
            "transitions": len(auto.transitions),
            "registry": len(auto.preconditions) + len(auto.postconditions),
            "guard_refs": sum((t.pre is not None) + (t.post is not None) for t in auto.transitions),
        }

    wrapped = {
        "validate": wrap("validate", originals["validate"]),
        "qualify_hidden": wrap("qualify_hidden", originals["qualify_hidden"]),
        "composable": wrap("composable", originals["composable"]),
        "product": wrap("product", originals["product"], product_counts),
        "illegal_states": wrap(
            "illegal_states", originals["illegal_states"], lambda r, *_: {"illegal": len(r.states)}
        ),
        "bad_states": wrap("bad_states", bad_states),
        "prune": wrap("prune", originals["prune"], lambda r, *_: {"pruned": len(r.states)}),
        "shortest_witness": wrap(
            "shortest_witness",
            originals["shortest_witness"],
            lambda r, *_: {"steps": len(r.steps) if r is not None else 0},
        ),
        "constraint_falsity": wrap(
            "constraint_falsity",
            originals["constraint_falsity"],
            lambda r, *_: {"valuations": r.explored, "unknown": r.verdict is Verdict.UNKNOWN},
        ),
    }
    for name, fn in wrapped.items():
        setattr(verifier, name, fn)
    pipeline.parse = wrap(
        "parse_document", ia.parse_document, lambda r, text, *_: {"bytes": len(text.encode())}
    )
    pipeline.check = wrap("check_compatibility", verifier.check_compatibility)
    pipeline.serialise = wrap(
        "report_to_json", ia.report_to_json, lambda r, *_: {"bytes": len(r.encode())}
    )
    return originals


def uninstall(originals: dict, pipeline: Pipeline) -> None:
    for name, fn in originals.items():
        setattr(verifier, name, fn)
    pipeline.parse = ia.parse_document
    pipeline.check = verifier.check_compatibility
    pipeline.serialise = ia.report_to_json


def per_layer(tracer: Tracer, factor: float, batch_size: int, untraced_p50: float) -> dict:
    """Per-layer metrics from the spans of the traced phase.

    Times are means per check of each layer's self time, at reference speed
    (divided by the phase's ``factor``). Counts are totals over the first
    traced check of each pair, so they repeat exactly.
    """
    spans = tracer.spans
    own = [t / factor for t in self_times(spans)]
    checks = [s for s in spans if s.name == "check"]
    n = len(checks)
    total: dict[str, float] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + t
    first = [s for s in spans if s.check < batch_size]

    def count(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in first if s.name == name)

    metrics = {metric: total.get(name, 0.0) / n for metric, name in LAYER_SPANS.items()}

    parse_bytes = sum(s.attrs["bytes"] for s in spans if s.name == "parse_document")
    metrics["docformat.kb_per_s"] = parse_bytes / 1000 / total["parse_document"]

    metrics["automata.product_states"] = count("product", "states")
    metrics["automata.product_transitions"] = count("product", "transitions")
    metrics["automata.registry_size"] = count("product", "registry")

    queries = sum(1 for s in first if s.name == "constraint_falsity")
    guard_refs = count("product", "guard_refs")
    valuations = sum(s.attrs["valuations"] for s in spans if s.name == "constraint_falsity")
    metrics["falsity.queries"] = queries
    metrics["falsity.valuations"] = count("constraint_falsity", "valuations")
    metrics["falsity.us_per_valuation"] = (
        total.get("constraint_falsity", 0.0) / valuations * 1e6 if valuations else 0.0
    )
    metrics["falsity.unknown_ratio"] = (
        count("constraint_falsity", "unknown") / queries if queries else 0.0
    )
    metrics["falsity.cache_hit_ratio"] = 1 - queries / guard_refs if guard_refs else 0.0

    metrics["verifier.illegal_states"] = count("illegal_states", "illegal")
    metrics["verifier.closure_ops"] = count("bad_states", "ops")
    metrics["verifier.bad_states"] = count("bad_states", "bad")
    metrics["verifier.pruned_states"] = count("prune", "pruned")
    metrics["verifier.witness_steps"] = count("shortest_witness", "steps")
    metrics["verifier.report_bytes"] = count("report_to_json", "bytes")

    traced = [s.duration / factor for s in checks]
    metrics["trace.overhead_ratio"] = percentile(traced, 50) / untraced_p50
    metrics["trace.check_s"] = sum(traced) / n
    metrics["trace.unattributed_s"] = sum(total.get(name, 0.0) for name in GLUE_SPANS) / n
    return metrics


def traced_phase(batch: Batch, seconds: float, out: Path) -> tuple[Tracer, float]:
    tracer = Tracer()
    originals = install(tracer, batch.pipeline)
    batch.run = tracer.wrap("check", batch.pipeline.run)

    def next_check(index: int) -> None:
        tracer.check = index

    try:
        _, factor = batch.timed(seconds, on_check=next_check)
    finally:
        batch.run = batch.pipeline.run
        uninstall(originals, batch.pipeline)
    tracer.write(out)
    return tracer, factor


# ---------------------------------------------------------------------------


def main() -> int:
    job = json.load(sys.stdin)
    if ENUM_BUDGET_ENV in os.environ:
        print(f"{ENUM_BUDGET_ENV} must not be set for the batch", file=sys.stderr)
        return 2
    pipeline = Pipeline(job["budget"])
    batch = Batch(job["cases"], pipeline)
    seconds = job["seconds"]

    batch.warm_up()
    result: dict = {"default_budget": default_budget()}
    if job["trace"]:
        times, _ = batch.timed(seconds / 2)
        tracer, factor = traced_phase(batch, seconds / 2, Path(job["trace_out"]))
        result["per_layer"] = per_layer(tracer, factor, len(batch.cases), percentile(times, 50))
    else:
        result["end_to_end"] = end_to_end(*batch.timed(seconds))
    result.update(attempted=batch.attempted, failed=batch.failed, problems=batch.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
