"""Command-line front end.

Subcommands: ``lint`` (parse + well-formedness), ``check`` (pairwise
compatibility), ``product`` (write the synchronized product as a document),
``dot`` (graph export), ``eval`` (evaluate a constraint expression under
explicit bindings).

Exit codes are uniform: 0 success/compatible, 1 incompatible or an operand
failing validation, 2 usage, parse or I/O errors, or a pair whose declarations
cannot be merged into a product (``ProductError``). All output is
deterministic; running the same invocation twice gives byte-identical results.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .automata import ComposabilityReport, InterfaceAutomaton, ProductError, composable, product, qualify_hidden
from .docformat import (
    document_diagnostics,
    document_from_automaton,
    export_dot,
    parse_document,
    print_document,
)
from .evaluate import EvalError, MissingVariable, MixedSorts, Valuation, evaluate
from .expr_parse import parse_expression
from .exprs import SortError, UnknownVariable
from .falsity import ENUM_BUDGET_ENV, default_budget, positive_int
from .lexer import ParseError
from .verifier import (
    CompatOptions,
    CompatReport,
    CompatVerdict,
    InvalidAutomaton,
    check_compatibility,
    report_to_json,
    require_valid,
)


class _UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    if positive_int(text) is None:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _reason(exc: Exception) -> object:
    """What to print for an input file that cannot be read or decoded."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not valid UTF-8 at byte offset {exc.start}"
    return exc


def _load_single(path: str, contract: Optional[str] = None) -> InterfaceAutomaton:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"{path}: {_reason(exc)}") from None
    doc = parse_document(text, source=path)
    if contract is not None:
        try:
            return doc.automaton(contract)
        except (KeyError, ValueError) as exc:
            raise _UsageError(f"{path}: {exc}") from None
    if len(doc.automata) != 1:
        raise _UsageError(
            f"{path}: expected exactly one contract, found {len(doc.automata)};"
            " pick one with --contract"
        )
    return doc.automata[0]


def _emit(text: str) -> None:
    """Write to stdout; once the reader has gone, write to the null device (the Python docs' SIGPIPE advice)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        _emit(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_lint(args: argparse.Namespace) -> int:
    worst = 0
    for path in args.files:
        try:
            doc = parse_document(Path(path).read_text(encoding="utf-8"), source=path)
        except ParseError as exc:  # its text names the path
            print(f"error: {exc}", file=sys.stderr)
            worst = 2
            continue
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{path}: error: {_reason(exc)}", file=sys.stderr)
            worst = 2
            continue
        diags = document_diagnostics(doc)
        if diags:
            _emit("".join(f"{path}: {d}\n" for d in diags))
            worst = max(worst, 1)
        else:
            _emit(f"{path}: ok\n")
    return worst


def _conflict_lines(comp: ComposabilityReport) -> list[str]:
    return [f"conflict {c.clause}: {', '.join(map(str, c.actions))}" for c in comp.conflicts]


def _summary_lines(report: CompatReport) -> list[str]:
    lines = [
        f"left: {report.left}",
        f"right: {report.right}",
        f"composable: {'yes' if report.composability.ok else 'no'}",
    ]
    lines += _conflict_lines(report.composability)
    if report.composability.ok:
        lines.append(f"shared: {', '.join(str(a) for a in report.shared) or '(none)'}")
        prod = report.product.automaton
        lines.append(f"product: {len(prod.states)} states, {len(prod.graph)} transitions")
        lines.append(f"illegal states: {len(report.illegal.states)}")
        lines.append(f"bad states: {len(report.bad)}")
        lines.append(
            f"pruned: {len(report.pruned.states)} states, {len(report.pruned.graph)} transitions"
        )
    if report.verdict is CompatVerdict.COMPATIBLE:
        lines.append("verdict: compatible")
    else:
        lines.append(f"verdict: incompatible ({report.cause.value})")
    return lines


def _cmd_check(args: argparse.Namespace) -> int:
    a = _load_single(args.left)
    b = _load_single(args.right)
    options = CompatOptions(
        qualify_hidden=args.qualify_hidden,
        strict_deadlock=args.strict_deadlock,
        enum_budget=args.enum_budget,
    )
    report = check_compatibility(a, b, options)
    lines = _summary_lines(report)
    if args.witness:
        if report.witness is None:
            lines.append("witness: (none)")
        else:
            lines.append(f"witness ({len(report.witness.steps)} steps):")
            lines.append(f"  {report.witness.states[0]}")
            prod = report.product.automaton
            lines += (f"  -[{prod.decorated(t.action)}]-> {t.target}" for t in report.witness.steps)
    _emit("".join(f"{line}\n" for line in lines))
    if args.report:
        Path(args.report).write_text(report_to_json(report), encoding="utf-8")
    return 0 if report.verdict is CompatVerdict.COMPATIBLE else 1


def _cmd_product(args: argparse.Namespace) -> int:
    a = _load_single(args.left)
    b = _load_single(args.right)
    require_valid(a, b)
    if args.qualify_hidden:
        a = qualify_hidden(a)
        b = qualify_hidden(b)
    comp = composable(a, b)
    if not comp.ok:
        print(*_conflict_lines(comp), "error: not composable", sep="\n", file=sys.stderr)
        return 1
    prod = product(a, b)
    _write_or_print(print_document(document_from_automaton(prod.automaton)), args.output)
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    a = _load_single(args.file, args.contract)
    _write_or_print(export_dot(a), args.output)
    return 0


def _parse_binding_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    if text.startswith("<") and text.endswith(">"):
        return text[1:-1]
    return text  # bare word doubles as an enum literal


def _collect_bindings(items) -> dict[str, object]:
    out: dict[str, object] = {}
    for item in items or ():
        key, eq, value = item.partition("=")
        if not eq or not key:
            raise _UsageError(f"binding must look like name=value, got {item!r}")
        out[key] = _parse_binding_value(value)
    return out


def _cmd_eval(args: argparse.Namespace) -> int:
    expr = parse_expression(args.expression)
    values = _collect_bindings(args.bind)
    old = _collect_bindings(args.bind_old) if args.bind_old else None
    val = Valuation(values=values, old=old)
    try:
        result = evaluate(expr, val)
    except (MissingVariable, MixedSorts) as exc:  # an unbound name, or a sort error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvalError as exc:
        _emit(f"evaluation error: {exc}\n")
        return 1
    try:
        text = _value_text(result)
    except ValueError:  # past sys.get_int_max_str_digits(): a computed sum
        print(f"error: the result holds an integer of more than {sys.get_int_max_str_digits()} digits",
              file=sys.stderr)
        return 2
    _emit(text + "\n")
    return 0


def _value_text(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(_value_text(x) for x in v)) + "}"
    if isinstance(v, tuple):
        return "[" + ", ".join(_value_text(x) for x in v) + "]"
    return str(v)


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iacompat",
        description="Check interface-automata contracts for pairwise compatibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("lint", help="parse documents and report well-formedness problems")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("check", help="run the full compatibility check on two contracts")
    p.add_argument("left", metavar="LEFT.ia")
    p.add_argument("right", metavar="RIGHT.ia")
    p.add_argument("--qualify-hidden", action="store_true",
                   help="namespace hidden actions by contract before checking")
    p.add_argument("--strict-deadlock", action="store_true",
                   help="treat states without outgoing transitions as illegal")
    p.add_argument("--enum-budget", type=_positive_int, default=None, metavar="N",
                   help=f"max valuations per falsity query, a positive integer "
                        f"(default {default_budget()}, or ${ENUM_BUDGET_ENV})")
    p.add_argument("--report", metavar="PATH", help="write the structured JSON report here")
    p.add_argument("--witness", action="store_true", help="print a path into the illegal set")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("product", help="write the synchronized product as a document")
    p.add_argument("left", metavar="LEFT.ia")
    p.add_argument("right", metavar="RIGHT.ia")
    p.add_argument("--qualify-hidden", action="store_true",
                   help="namespace hidden actions by contract before composing")
    p.add_argument("-o", "--output", metavar="OUT", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("dot", help="export a contract as a Graphviz graph")
    p.add_argument("file", metavar="FILE.ia")
    p.add_argument("--contract", metavar="NAME", default=None,
                   help="contract to render when the document holds several")
    p.add_argument("-o", "--output", metavar="OUT", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("eval", help="evaluate a constraint expression under bindings")
    p.add_argument("expression", metavar="EXPR")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE",
                   help="bind a variable (repeatable)")
    p.add_argument("--bind-old", action="append", metavar="NAME=VALUE",
                   help="bind a variable in the old state (repeatable)")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidAutomaton as exc:
        for d in exc.diagnostics:
            print(f"invalid: {d}", file=sys.stderr)
        return 1
    except (ParseError, SortError, UnknownVariable, ProductError, _UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_exit() -> None:
    raise SystemExit(main())
