#!/usr/bin/env python3
"""Digest of what the command line does with seeded mutants of the shipped contracts.

Each mutant is one of the shipped fixtures after one token mutation. Most
mutations keep the token's kind: an identifier becomes another of the text's
identifiers, an integer one of 0, 1, 2, 3, 7, 100, 2^32 or 2^64, and an
operator another of its group. The rest drop, repeat, replace or swap a
token. Layout and comments stay as they were.

Every mutant runs through ``cli.main`` in-process, beside the fixture it is
checked against (the other side of the case study, or of the ping-pong
pair), on the mutant's side chosen by the seed:

- ``lint``;
- ``check --enum-budget B --witness --report``, with B one of 1, 16, 1000;
- ``check --qualify-hidden --strict-deadlock``;
- ``product --qualify-hidden -o``;
- ``dot``;
- ``eval`` of a mutated constraint body of the fixtures, with each name in it
  bound to a small value.

The arguments, exit code, stdout, stderr and written files of every call are
hashed. The script fails when an exception escapes ``cli.main`` or an exit
code is not 0, 1 or 2. Two checkouts answer alike when their lines agree:

    python3 scripts/cli_digest.py --mutants 5000 --seed 0

``--dump FILE`` writes each call's record one a line, to find where two
checkouts part.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import random
import re
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src")]
from iacompat import cli  # noqa: E402
from iacompat.falsity import ENUM_BUDGET_ENV  # noqa: E402
from iacompat.fixtures import fixture_text  # noqa: E402

# each fixture with the one it is checked against
PARTNERS = {"le_device.ia": "transport_layer.ia", "transport_layer.ia": "le_device.ia",
            "ping.ia": "pong.ia", "pong.ia": "ping.ia"}
# the script's own token rule: comments are layout, not tokens
_TOKEN = re.compile(r'//[^\n]*|"[^"\n]*"|<\w+>|@pre|\.\.\.|->|::|<=|>=|<>|\.\.|\w+|\S')
INTS = ("0", "1", "2", "3", "7", "100", str(2**32), str(2**64))
# an operator becomes another of its group
GROUPS = [("=", "<>", "<", "<=", ">", ">="), ("+", "-"), ("(", "[", "{"), (")", "]", "}"),
          (",", ";", ":"), ("..", "...", ".", "::"), ("->", "→"), ("~", "@pre")]
GROUP_OF = {op: group for group in GROUPS for op in group}
_BODY = re.compile(r"\b(?:pre|post|inv)\s+\w+\s*:\s*([^;]*);")
_RESERVED = {"and", "or", "implies", "not", "in", "set", "dom", "true", "false"}
BUDGETS = ("1", "16", "1000")
BINDINGS = ("0", "1", "3", "true", "false", "<on>")


def tokens(text: str) -> list[re.Match]:
    return [m for m in _TOKEN.finditer(text) if not m[0].startswith("//")]


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one token mutation, its layout kept."""
    toks = tokens(text)
    words = sorted({m[0] for m in toks if m[0].isidentifier()})
    new = [m[0] for m in toks]
    i = rng.randrange(len(toks))
    tok = new[i]
    if rng.random() < 0.85:
        if tok.isdigit():
            new[i] = rng.choice(INTS)
        elif tok in GROUP_OF:
            new[i] = rng.choice(GROUP_OF[tok])
        elif tok.isidentifier():
            new[i] = rng.choice(words)
    else:
        op = rng.choice(("drop", "repeat", "replace", "swap"))
        if op == "drop":
            new[i] = ""
        elif op == "repeat":
            new[i] = f"{tok} {tok}"
        elif op == "replace":
            new[i] = rng.choice(new)
        elif i + 1 < len(toks):
            new[i], new[i + 1] = new[i + 1], tok
    out, end = [], 0
    for m, t in zip(toks, new):
        out += [text[end:m.start()], t]
        end = m.end()
    return "".join(out) + text[end:]


def call(args: list[str], written: tuple[str, ...] = ()) -> tuple[int, str]:
    """Run ``cli.main(args)`` in the current directory; its exit code and a record of what it did."""
    for name in written:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
    except (Exception, SystemExit):
        sys.exit(f"cli_digest: an exception escaped {args!r}:\n{traceback.format_exc()}")
    if code not in (0, 1, 2):
        sys.exit(f"cli_digest: exit code {code!r} from {args!r}")
    files = [Path(name).read_text(encoding="utf-8") if Path(name).exists() else None for name in written]
    return code, repr((args, code, out.getvalue(), err.getvalue(), files))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mutants", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", type=Path, help="write every call's record to this file")
    args = ap.parse_args(argv)

    os.environ.pop(ENUM_BUDGET_ENV, None)  # the one check without --enum-budget reads the default
    texts = {name: fixture_text(name) for name in PARTNERS}
    bodies = sorted({b for text in texts.values() for b in _BODY.findall(text)})
    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    codes: Counter[int] = Counter()
    parsed = 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            args.dump.open("w", encoding="utf-8") if args.dump else nullcontext() as dump:
        os.chdir(tmp)
        try:
            for _ in range(args.mutants):
                name = rng.choice(sorted(PARTNERS))
                Path("mutant.ia").write_text(mutate(rng, texts[name]), encoding="utf-8")
                Path("partner.ia").write_text(texts[PARTNERS[name]], encoding="utf-8")
                pair = ["mutant.ia", "partner.ia"][::rng.choice((1, -1))]
                body = mutate(rng, rng.choice(bodies))
                names = sorted({m[0] for m in tokens(body) if m[0].isidentifier()} - _RESERVED)
                binds = [f"--bind={n}={rng.choice(BINDINGS)}" for n in names]
                runs = [
                    (["lint", "mutant.ia"], ()),
                    (["check", *pair, "--enum-budget", rng.choice(BUDGETS), "--witness",
                      "--report", "report.json"], ("report.json",)),
                    (["check", "--qualify-hidden", "--strict-deadlock", *pair], ()),
                    (["product", "--qualify-hidden", *pair, "-o", "product.ia"], ("product.ia",)),
                    (["dot", "mutant.ia"], ()),
                    (["eval", *binds, "--", body], ()),
                ]
                for i, (cli_args, written) in enumerate(runs):
                    code, record = call(cli_args, written)
                    parsed += i == 0 and code < 2
                    codes[code] += 1
                    digest.update(record.encode() + b"\n")
                    if dump:
                        dump.write(record + "\n")
        finally:
            os.chdir(here)
    print(f"{args.mutants} mutants, {parsed} parse, calls by exit code "
          f"{codes[0]}/{codes[1]}/{codes[2]}, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
