#!/usr/bin/env python3
"""Digest of what the front end makes of seeded random token strings.

Each string is parsed as an expression, and a second one of list tokens
after a random section word (``states``, ``initial``, ``inputs``, ...) as
the head of a contract. Every outcome is recorded: the ``repr`` of the tree
and its ``to_text`` form, the parsed contract's sections, or the error
text. The SHA-256 of all outcomes is printed, so two checkouts parse alike
when their digests agree:

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


def random_text(rng: random.Random, vocab: list[str]) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))


def expression(text: str) -> str:
    e = ia.parse_expression(text)
    return f"{e!r} {ia.to_text(e)}"


def document(text: str) -> str:
    """The sections of a contract that opens with ``text``, one section word and a list."""
    states = "" if text.startswith("states") else "states a;"
    rest = " ".join(f"{w} ;" for w in ("inputs", "outputs", "hidden") if not text.startswith(w))
    a = ia.parse_document(f"contract C {{ {text} {states} {rest} }}").automaton()
    return f"{a.states} {a.initials} {a.inputs} {a.outputs} {a.hidden}"


def outcome(parse, text: str) -> tuple[bool, str]:
    try:
        return True, parse(text)
    except (ia.ParseError, ValueError, RecursionError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--strings", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", type=Path, help="write every outcome to this file")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    parsed = heads = 0
    with args.dump.open("w", encoding="utf-8") if args.dump else nullcontext() as out:
        for _ in range(args.strings):
            text = random_text(rng, VOCAB)
            ok, expr = outcome(expression, text)
            section = f"{rng.choice(SECTIONS)} {random_text(rng, LIST_VOCAB)}"
            ok_doc, doc = outcome(document, section)
            line = f"{text}\t{expr}\t{section}\t{doc}\n"
            parsed += ok
            heads += ok_doc
            digest.update(line.encode())
            if out:
                out.write(line)
    print(f"{args.strings} strings, {parsed} expressions and {heads} contract heads parse,"
          f" sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
