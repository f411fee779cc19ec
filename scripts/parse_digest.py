#!/usr/bin/env python3
"""Digest of what the front end makes of seeded random token strings.

Each string is parsed as an expression, and a second one of list tokens
after a random section word (``states``, ``initial``, ``inputs``, ...) as
the head of a contract. A third string is a declaration built from the
grammar, a ``type``, a ``var`` or a ``context`` with parameters, over
random domains, and then mutated by up to two tokens. A fourth is a whole
small contract with guarded steps in a ``transitions`` block, mutated the same
way, so that the checks made once the contract is read (states, actions and
guards named by a step, bodies sort-checked) are covered too. The third and
fourth strings are each drawn from their own seeded stream, so no string
depends on those after it. Every outcome is recorded: the ``repr`` of the tree
and its ``to_text`` form, the parsed contract's sections, variables,
constraints and steps, or the error text.
The SHA-256 of all outcomes is printed, so two checkouts parse alike when
their digests agree:

    python3 scripts/parse_digest.py --strings 100000 --seed 0

``--dump FILE`` writes the outcomes one a line, to find where two
checkouts part.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src")]
import iacompat as ia  # noqa: E402

# operators, reserved words, names, literals of every token kind, and the
# punctuation of both grammars
VOCAB = (
    "implies or and not in set dom true false = <> < <= > >= + - ( ) [ ] { } , ; : :: . "
    "... -> ~ @pre x y m s c size front notEmpty domain range lastItem 0 1 2 <on> \"and\""
).split()
# the tokens of the name lists that open a contract
LIST_VOCAB = "a b a b ns , , :: ; ; states x".split()
SECTIONS = ("states", "initial", "inputs", "outputs", "hidden")
# the tokens of declarations: a mutation replaces a token with one of these
DECL_VOCAB = (
    "type var context :: ( ) { } [ ] , ; : = .. - bool opaque int enum seq of maxlen map to "
    "record in out T U a b p 0 1 3 pre P true"
).split()
# the tokens of contracts with steps: a mutation replaces a token with one of these
STEP_VOCAB = "transitions states initial { } - [ ] -> → ; , :: pre post P Q s t u a b c ns x 1".split()


def random_text(rng: random.Random, vocab: list[str]) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))


def domain(rng: random.Random, depth: int = 2) -> list[str]:
    """The tokens of a random domain; a compound one nests at most ``depth`` levels."""
    kinds = ["bool", "opaque", "int", "enum", "name"] + (["seq", "map", "record"] if depth else [])
    kind = rng.choice(kinds)
    if kind in ("bool", "opaque"):
        return [kind]
    if kind == "int":
        lo = rng.choice([["0"], ["1"], ["-", "1"]])
        return ["int", "[", *lo, "..", rng.choice(["0", "3"]), "]"]
    if kind == "enum":
        return ["enum", "{", *comma_list(rng, lambda: [rng.choice("abc")], 1), "}"]
    if kind == "name":
        return [rng.choice("TTU")]
    if kind == "seq":
        bound = ["maxlen", rng.choice(["1", "3"])] if rng.random() < 0.5 else []
        return ["seq", "of", *domain(rng, depth - 1), *bound]
    if kind == "map":
        return ["map", *domain(rng, depth - 1), "to", *domain(rng, depth - 1)]
    return ["record", "{", *comma_list(rng, lambda: [rng.choice("fg"), ":", *domain(rng, depth - 1)], 1), "}"]


def comma_list(rng: random.Random, item, least: int) -> list[str]:
    """``least`` to 3 items, each from ``item()``, joined by commas."""
    out: list[str] = []
    for i in range(rng.randint(least, 3)):
        if i:
            out.append(",")
        out += item()
    return out


def random_declaration(rng: random.Random) -> tuple[str, str]:
    """A ``type``, ``var`` or ``context`` declaration with 0-2 token mutations, and its form."""
    form = rng.choice(("type", "var", "context"))
    if form == "type":
        toks = ["type", "U", "=", *domain(rng), ";"]
    elif form == "var":
        toks = ["var", "v", ":", *domain(rng), ";"]
    else:
        def param() -> list[str]:
            return [rng.choice(["in", "out", ""]), rng.choice("pq"), ":", *domain(rng)]
        params = comma_list(rng, param, 0)
        toks = ["context", "C", "::", "op", "(", *params, ")", "{", "pre", "P", ":", "true", ";", "}"]
    return form, mutate(rng, toks, DECL_VOCAB)


def mutate(rng: random.Random, toks: list[str], vocab: list[str]) -> str:
    """``toks`` after 0-2 token mutations (drop, repeat, or replace from ``vocab``), joined."""
    toks = [t for t in toks if t]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(toks))
        op = rng.choice(("drop", "repeat", "replace"))
        if op == "drop":
            del toks[i]
        elif op == "repeat":
            toks.insert(i, toks[i])
        else:
            toks[i] = rng.choice(vocab)
    return " ".join(toks)


def random_contract(rng: random.Random) -> str:
    """A contract with 1-3 guarded steps between 1-3 states, with 0-2 token mutations;
    a step may name a state, an action or a guard the contract lacks."""
    names = list("stu"[:rng.randint(1, 3)])
    toks = ["contract", "C", "{", "states", *" , ".join(names).split()]
    toks += [";", "initial", "s", ";", "inputs", "a", ";", "outputs", "b", ";",
             "hidden", "c", ",", "ns", "::", "c", ";", "var", "x", ":", "int", "[", "0", "..", "3", "]", ";",
             "pre", "P", ":", "x", "<", rng.choice(["2", "x", "true"]), ";",
             "post", "Q", ":", "x", ">", rng.choice(["x", "x @pre", "1"]), ";", "transitions", "{"]
    for _ in range(rng.randint(1, 3)):
        action = rng.choice([["a"], ["b"], ["c"], ["ns", "::", "c"], ["a"], ["b"], ["x"]])
        guards = rng.choice([[], ["pre", "P"], ["pre", "P"]]) + rng.choice([[], ["post", "Q"], ["post", "Q"]])
        if rng.random() < 0.1:
            guards = [rng.choice(["pre", "post"]), rng.choice("PQ")]
        arrow = rng.choice(["->", "->", "→"])
        toks += [rng.choice(names + ["u"]), "-", "[", *action, *guards, "]", arrow, rng.choice(names), ";"]
    return mutate(rng, [*toks, "}", "}"], STEP_VOCAB)


def expression(text: str) -> str:
    e = ia.parse_expression(text)
    return f"{e!r} {ia.to_text(e)}"


def document(text: str) -> str:
    """The sections of a contract that opens with ``text``, one section word and a list."""
    states = "" if text.startswith("states") else "states a;"
    rest = " ".join(f"{w} ;" for w in ("inputs", "outputs", "hidden") if not text.startswith(w))
    a = ia.parse_document(f"contract C {{ {text} {states} {rest} }}").automaton()
    return f"{a.states} {a.initials} {a.inputs} {a.outputs} {a.hidden}"


def declaration(form: str, text: str) -> str:
    """The variables and constraints of a contract that holds ``text``; a ``type`` is
    declared before the contract, which then declares a variable of it."""
    types = f"type T = enum {{ a, b }}; {text if form == 'type' else ''}"
    body = "var u : U;" if form == "type" else text
    doc = ia.parse_document(f"{types} contract C {{ states s; inputs; outputs; hidden; {body} }}")
    return f"{doc.automaton().variables!r} {doc.constraints!r}"


def steps(text: str) -> str:
    """The states, guards and steps of the contract ``text``."""
    a = ia.parse_document(text).automaton()
    return f"{a.states} {a.initials} {sorted(a.preconditions)} {sorted(a.postconditions)} {a.transitions!r}"


def outcome(parse, text: str) -> tuple[bool, str]:
    try:
        return True, parse(text)
    except (ia.ParseError, ValueError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--strings", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", type=Path, help="write every outcome to this file")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    decl_rng = random.Random(f"{args.seed}-declarations")
    step_rng = random.Random(f"{args.seed}-transitions")
    digest = hashlib.sha256()
    parsed = heads = decls = contracts = 0
    with args.dump.open("w", encoding="utf-8") if args.dump else nullcontext() as out:
        for _ in range(args.strings):
            text = random_text(rng, VOCAB)
            ok, expr = outcome(expression, text)
            section = f"{rng.choice(SECTIONS)} {random_text(rng, LIST_VOCAB)}"
            ok_doc, doc = outcome(document, section)
            form, decl = random_declaration(decl_rng)
            ok_decl, decl_out = outcome(partial(declaration, form), decl)
            contract = random_contract(step_rng)
            ok_steps, steps_out = outcome(steps, contract)
            line = f"{text}\t{expr}\t{section}\t{doc}\t{decl}\t{decl_out}\t{contract}\t{steps_out}\n"
            parsed += ok
            heads += ok_doc
            decls += ok_decl
            contracts += ok_steps
            digest.update(line.encode())
            if out:
                out.write(line)
    print(f"{args.strings} strings, {parsed} expressions, {heads} contract heads, {decls}"
          f" declarations and {contracts} contracts parse, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
