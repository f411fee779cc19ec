"""The ``.ia`` contract document format, plus a DOT graph exporter.

A document declares type aliases and contract blocks. A contract's sections
(states, alphabet, typed variables, named constraints attached to operations
via ``context`` blocks, guarded transitions) follow ``SECTIONS``, the one
table of how often each may appear and how it reads and prints:

    document "demo" version "1";

    type Claim = enum { undecided, leader, follower, off };

    contract Device {
      states Off, On;
      initial Off;
      inputs poke;
      outputs tell;
      hidden step;

      var myCS : record { c : Claim, s : int[0..10] };

      context Device::step() {
        pre CanStep: myCS.s < 10;
      }

      transitions {
        Off -[step pre CanStep]-> On;
        On -[tell]-> Off;
      }
    }

``//`` starts a line comment. Parsing resolves every name (states, actions,
constraint and type references) and sort-checks every constraint body, so a
parsed document is internally consistent. The parser does not raise on the
rest of well-formedness, an empty initial set or overlapping alphabets: it
presets each automaton's ``diagnostics`` with them, which ``validate`` and
``document_diagnostics`` report. A document keeps each contract's
constraints as the contract declared them, and ``print_document`` prints
each contract with its own, in a canonical form that parses back to an
equal document.

Constraint syntax lives here alone. ``parse_constraint`` reads one
constraint on its own, ``context Device::step() pre CanStep: myCS.s < 10``,
through the same ``context``, ``pre``, ``post`` and ``inv`` rows of
``SECTIONS``, with the end of its text in place of the ``;``; ``expr_parse``
reads only the expressions and the domains inside it.
"""
from __future__ import annotations

import re
from collections import defaultdict
from functools import partial
from itertools import chain, groupby
from math import inf
from operator import attrgetter
from typing import Any, Callable, Mapping, Optional

from .automata import (
    ActionLabel,
    Diagnostic,
    InterfaceAutomaton,
    StepGraph,
    Transition,
    declaration_faults,
    step_faults,
    validate,
)
from .domains import Domain, VariableDecl, is_identifier
from .exprs import (
    ConstraintContext,
    ConstraintKind,
    NamedConstraint,
    ParamDecl,
    SortError,
    SortScope,
    UnknownVariable,
    decls_mapping,
    infer_sort,
    to_text,
)
from .expr_parse import DeclsArg, parse_domain, parse_expr
from .frozen import Frozen, _new
from .lexer import TokenStream

# one step, ``name -[ name [:: name] [pre name] [post name] ]-> name ;``, the lexer's whitespace
# for each space but no comment or ``→``; a name ends at a word boundary: ``prex`` is not ``pre x``
_STEP = re.compile(r" N - \[ N(?: :: N)?(?: pre\b N)?(?: post\b N)? \] -> N ;"
                   .replace(" ", "[ \t\r\n]*").replace("N", r"([A-Za-z_][A-Za-z0-9_]*)\b"))
_FAULT_GROUP = {"transition-source": 0, "transition-action": 1,  # the group of the name a step fault is at
                "transition-pre": 3, "transition-post": 4, "transition-target": 5}


class DocumentMeta(Frozen):
    name: Optional[str] = None
    version: Optional[str] = None

    def __post_init__(self) -> None:
        if any(s is not None and ('"' in s or "\n" in s) for s in self):
            raise ValueError(f"a document name or version cannot hold '\"' or a newline: {self!r}")
        if self.name is None and self.version is not None:
            raise ValueError("a document version needs a document name")


class ContractDocument(Frozen):
    """The automata of a ``.ia`` document, each with the named constraints its contract
    declared: ``declared[i]`` holds ``automata[i]``'s, in declaration order. A document
    built in code is checked as parsing checks one, so that it prints text that parses."""

    automata: tuple[InterfaceAutomaton, ...] = ()
    declared: tuple[tuple[NamedConstraint, ...], ...] = ()
    meta: DocumentMeta = DocumentMeta()

    def __post_init__(self) -> None:
        if len(self.declared) != len(self.automata):
            raise ValueError(f"document holds {len(self.automata)} contracts "
                             f"but {len(self.declared)} tuples of constraints")
        for a, cs in zip(self.automata, self.declared):
            bad = [s for s in a.graph.names if not is_identifier(s)]
            if bad:
                raise ValueError(f"contract {a.name!r} names a state that is not an identifier: {bad[0]!r}")
            if len({c.name for c in cs}) != len(cs):
                raise ValueError(f"contract {a.name!r} declares two constraints of one name")
            if ({c.name: c for c in cs if c.kind is ConstraintKind.PRE} != a.preconditions
                    or {c.name: c for c in cs if c.kind is ConstraintKind.POST} != a.postconditions):
                raise ValueError(f"the pre and post constraints declared for contract {a.name!r} "
                                 "are not its preconditions and postconditions")
            decls = decls_mapping(a.variables)
            for c in cs:
                try:
                    _check_body(c, decls)
                except (SortError, UnknownVariable) as exc:
                    raise ValueError(f"contract {a.name!r}, constraint {c.name}: {exc}") from None

    @property
    def constraints(self) -> tuple[NamedConstraint, ...]:
        """Every constraint of the document, contract by contract."""
        return tuple(chain.from_iterable(self.declared))

    def automaton(self, name: Optional[str] = None) -> InterfaceAutomaton:
        """The named automaton, or the only one when no name is given."""
        if name is None:
            if len(self.automata) != 1:
                raise ValueError(
                    f"document holds {len(self.automata)} contracts, name one explicitly"
                )
            return self.automata[0]
        for a in self.automata:
            if a.name == name:
                return a
        raise ValueError(f"no contract named {name!r} in document")


# ---------------------------------------------------------------------------
# parsing

def parse_document(text: str, source: str = "<string>") -> ContractDocument:
    """Parse a full document; raises ParseError with line/column on any fault."""
    ts = TokenStream(text, source)
    meta = DocumentMeta()
    if ts.accept("ident", "document"):
        name = ts.expect("string", what="a quoted document name")
        version = None
        if ts.accept("ident", "version"):
            version = ts.expect("string", what="a quoted version")
        ts.expect("punct", ";")
        meta = DocumentMeta(name, version)

    type_env: dict[str, Domain] = {}
    automata: list[InterfaceAutomaton] = []
    declared: list[tuple[NamedConstraint, ...]] = []

    while ts.kind != "eof":
        if ts.accept("ident", "type"):
            if ts.kind == "ident" and ts.text in type_env:
                raise ts.error(f"duplicate type name {ts.text!r}")
            name = ts.expect("ident", what="a type name")
            ts.expect("punct", "=")
            dom = parse_domain(ts, type_env)
            ts.expect("punct", ";")
            type_env[name] = dom
        elif ts.accept("ident", "contract"):
            automaton, own = _parse_contract(ts, type_env)
            if any(a.name == automaton.name for a in automata):
                raise ts.error(f"duplicate contract name {automaton.name!r}")
            automata.append(automaton)
            declared.append(own)
        else:
            raise ts.error(f"expected 'type' or 'contract', found {ts.found!r}")
    # the parser has made every check of ContractDocument's
    return _new(ContractDocument, (tuple(automata), tuple(declared), meta))


def parse_constraint(
    text: str,
    decls: DeclsArg = None,
    *,
    type_env: Optional[Mapping[str, Domain]] = None,
    source: str = "<string>",
) -> NamedConstraint:
    """One constraint, ``[context Owner[::op(params)]] kind [Name]: body``: what the
    ``context``, ``pre``, ``post`` or ``inv`` row of ``SECTIONS`` reads in a contract, with
    the end of the text in place of its ``;``. A block or a second constraint is an error.

    Parameter types name ``type_env``'s aliases. Without ``context`` the constraint has no
    owner. With ``decls``, the body is sort-checked against them and the parameters.
    """
    ts = TokenStream(text, source)
    c = _Contract(ts, type_env or {}, None, end=("eof", None, "end of input"))
    at = ts.at
    if ts.kind != "ident" or ts.text not in ("context", *_KINDS):
        raise ts.error(f"expected 'context', 'pre', 'post' or 'inv', found {ts.found!r}")
    SECTIONS[ts.advance()].read(c, at)
    if not c.constraints:
        raise ts.error("expected a constraint, found an empty context block", at)
    (constraint, _), = c.constraints.values()
    if decls is not None:
        _check_body(constraint, decls_mapping(decls))
    return constraint


def _check_body(c: NamedConstraint, decls: Mapping[str, Domain]) -> None:
    """Sort-check ``c``'s body against ``decls`` and its parameters; it must be boolean."""
    s = infer_sort(c.body, _new(SortScope, (decls, c.param_domains(), False)))
    if s.tag not in ("bool", "opaque"):
        raise SortError(f"body has sort {s}, expected boolean", c.body)


def _parse_contract(ts: TokenStream,
                    type_env: dict[str, Domain]) -> tuple[InterfaceAutomaton, tuple[NamedConstraint, ...]]:
    name_at = ts.at
    c = _Contract(ts, type_env, ts.expect("ident", what="a contract name"))
    ts.expect("punct", "{")
    seen: dict[str, int] = {}
    while not ts.accept("punct", "}"):
        word = ts.text
        section = SECTIONS.get(word) if ts.kind == "ident" else None
        if section is None:
            if ts.kind == "eof":
                raise ts.error(f"unterminated contract {c.name!r}")
            raise ts.error(f"unexpected {word!r} in contract {c.name!r}")
        seen[word] = count = seen.get(word, 0) + 1
        if count > section.most:
            raise ts.error(f"duplicate section {word!r}")
        at = ts.at
        ts.advance()
        section.read(c, at)
    for word, section in SECTIONS.items():
        if seen.get(word, 0) < section.least:
            raise ts.error(f"contract {c.name!r} is missing its {word!r} section", name_at)
    return c.finish()


class _Contract:
    """What the sections of one contract have read so far, each name with the offset of its
    token. ``end`` is what ends a constraint, as ``TokenStream.expect`` arguments: its ``;``
    in a document. A section reader is given the offset of its keyword."""

    def __init__(self, ts: TokenStream, type_env: Mapping[str, Domain], name: Optional[str],
                 end: tuple[str, Optional[str], Optional[str]] = ("punct", ";", None)):
        self.ts, self.type_env, self.name, self.end = ts, type_env, name, end
        # each list section's names by automaton field
        self.lists: dict[str, dict[Any, int]] = defaultdict(dict)
        self.variables: dict[str, VariableDecl] = {}
        # every constraint by name in declaration order, with its body's first token
        self.constraints: dict[str, tuple[NamedConstraint, int]] = {}
        self.unnamed = 0
        self.context = ConstraintContext(name)  # shared by the constraints outside a context block
        self.steps: list[tuple[int, tuple]] = []  # each step's offset, and its names as _STEP's groups

    def read_var(self, _: int) -> None:
        ts = self.ts
        name_at = ts.at
        vname = ts.expect("ident", what="a variable name")
        while ts.accept("punct", "."):
            vname += "." + ts.expect("ident", what="a path segment")
        if vname in self.variables:
            raise ts.error(f"duplicate variable {vname!r}", name_at)
        ts.expect("punct", ":")
        dom = parse_domain(ts, self.type_env)
        ts.expect("punct", ";")
        self.variables[vname] = VariableDecl(vname, dom)

    def read_context(self, _: int) -> None:
        ts = self.ts
        owner = ts.expect("ident", what="a contract name")
        if not ts.accept("punct", "::"):  # the one-line form: context Owner pre N: body;
            return self.read_constraint(*_parse_kind_word(ts), ConstraintContext(owner))
        op = ts.expect("ident", what="an operation name")
        ctx = ConstraintContext(owner, op, _parse_params(ts, self.type_env))
        if not ts.accept("punct", "{"):
            return self.read_constraint(*_parse_kind_word(ts), ctx)
        while not ts.accept("punct", "}"):
            if ts.kind == "eof":
                raise ts.error("unterminated context block")
            self.read_constraint(*_parse_kind_word(ts), ctx)

    def read_constraint(self, kind_at: int, word: str, ctx: Optional[ConstraintContext] = None) -> None:
        """``[IDENT] ":" expr ";"`` after the kind word ``word`` at ``kind_at``; the contract's by default."""
        ts, constraints = self.ts, self.constraints
        kind = _KINDS[word]
        name = None
        if ts.kind == "ident" and ts.lookahead == ("punct", ":"):
            if ts.text in constraints:
                raise ts.error(f"duplicate constraint name {ts.text!r}")
            name = ts.advance()
        ts.expect("punct", ":")
        body_at = ts.at
        body = parse_expr(ts)
        ts.expect(*self.end)
        while name is None or name in constraints:
            self.unnamed += 1
            name = f"{kind.value}_unnamed_{self.unnamed}"
        try:
            c = NamedConstraint(name, kind, body, ctx or self.context)
        except ValueError as exc:  # old-state reference outside a postcondition
            raise ts.error(str(exc), kind_at) from None
        constraints[name] = c, body_at

    def read_transitions(self, _: int) -> None:
        """Each step by one match of ``_STEP``, or by ``read_step`` when it does not match."""
        ts, steps, text = self.ts, self.steps, self.ts.input
        ts.expect("punct", "{")
        while not ts.accept("punct", "}"):
            if ts.kind == "eof":
                raise ts.error("unterminated transitions block")
            pos = ts.at
            while m := _STEP.match(text, pos):
                steps.append((m.start(1), m.groups()))
                pos = m.end()
            if pos > ts.at:
                ts.skip_to(pos)
            else:
                steps.append((ts.at, self.read_step()[0]))

    def read_step(self) -> tuple[tuple[Optional[str], ...], tuple[Optional[int], ...]]:
        """One step, token by token: its names as the groups of ``_STEP`` give them, and
        their offsets."""
        ts = self.ts
        src = _parse_name(ts, "a source state")
        ts.expect("punct", "-")
        ts.expect("punct", "[")
        label = _parse_name(ts, "an action name")
        name = _parse_name(ts, "an action name") if ts.accept("punct", "::") else (None, None)
        pre = _parse_name(ts, "a precondition name") if ts.accept("ident", "pre") else (None, None)
        post = _parse_name(ts, "a postcondition name") if ts.accept("ident", "post") else (None, None)
        ts.expect("punct", "]")
        ts.expect("punct", "->")
        tgt = _parse_name(ts, "a target state")
        ts.expect("punct", ";")
        return tuple(zip(src, label, name, pre, post, tgt))

    def finish(self) -> tuple[InterfaceAutomaton, tuple[NamedConstraint, ...]]:
        """Resolve the names the sections use and sort-check every constraint body. That proves every
        rule of ``validate`` but ``declaration_faults``, which preset the automaton's ``diagnostics``."""
        ts, lists = self.ts, self.lists
        states, initials = tuple(lists["states"]), tuple(lists["initials"])
        for name, at in lists["initials"].items():
            if name not in lists["states"]:
                raise ts.error(f"initial state {name!r} is not a state", at)
        alphabet = {a: a for a in chain(lists["inputs"], lists["outputs"], lists["hidden"])}
        declared = tuple(c for c, _ in self.constraints.values())
        pres = {c.name: c for c in declared if c.kind is ConstraintKind.PRE}
        posts = {c.name: c for c in declared if c.kind is ConstraintKind.POST}

        steps = []
        for _, (source, first, second, pre, post, target) in self.steps:
            label = (first, None) if second is None else (second, first)  # (name, namespace)
            steps.append((source, pre, alphabet.get(label) or _new(ActionLabel, label), post, target))
        # each section read a name once, and each table keys a value by its name: the checks hold
        automaton = _new(InterfaceAutomaton, (
            self.name, states, initials, tuple(lists["inputs"]), tuple(lists["outputs"]), tuple(lists["hidden"]),
            self.variables, pres, posts, StepGraph.number(states, initials, steps)))
        for k, code, message in step_faults(automaton):  # the first, at its name in the step re-read
            ts.skip_to(self.steps[k][0])
            raise ts.error(message, self.read_step()[1][_FAULT_GROUP[code]])

        decl_domains = decls_mapping(self.variables)
        for c, body_at in self.constraints.values():
            try:
                _check_body(c, decl_domains)
            except (SortError, UnknownVariable) as exc:
                raise ts.error(f"constraint {c.name}: {exc}", body_at) from None
        vars(automaton)["diagnostics"] = declaration_faults(automaton)
        return automaton, declared


_KINDS = {"pre": ConstraintKind.PRE, "post": ConstraintKind.POST, "inv": ConstraintKind.INV}


def _parse_kind_word(ts: TokenStream) -> tuple[int, str]:
    """The offset of the kind word ``pre``, ``post`` or ``inv`` that opens a constraint, and the word."""
    at = ts.at
    if (word := ts.expect("ident", what="'pre', 'post' or 'inv'")) not in _KINDS:
        raise ts.error(f"expected 'pre', 'post' or 'inv', found {word!r}", at)
    return at, word


def _parse_params(ts: TokenStream, type_env: Mapping[str, Domain]) -> tuple[ParamDecl, ...]:
    """``( [in|out] name : domain, ... )``, the parentheses included."""
    def param(ts: TokenStream) -> ParamDecl:
        mode = ts.accept("ident", "in") or ts.accept("ident", "out")
        pname = ts.expect("ident", what="a parameter name")
        ts.expect("punct", ":")
        return ParamDecl(pname, parse_domain(ts, type_env), mode)

    ts.expect("punct", "(")
    return ts.items(param, ")")


def _parse_name(ts: TokenStream, what: str) -> tuple[str, int]:
    at = ts.at
    return ts.expect("ident", what=what), at


def _parse_label(ts: TokenStream) -> tuple[ActionLabel, int]:
    at = ts.at
    name = ts.expect("ident", what="an action name")
    if ts.accept("punct", "::"):
        return ActionLabel(ts.expect("ident", what="an action name"), name), at
    return ActionLabel(name), at


# ---------------------------------------------------------------------------
# diagnostics beyond parsing

def document_diagnostics(doc: ContractDocument) -> list[Diagnostic]:
    """Structural diagnostics: each automaton's ``validate``, then the invariants' owners and names."""
    diags: list[Diagnostic] = []
    by_name = {a.name: a for a in doc.automata}
    for a in doc.automata:
        for d in validate(a):
            where = a.name if d.location is None else f"{a.name}: {d.location}"
            diags.append(Diagnostic(d.code, d.message, where))
    for c in doc.constraints:
        if c.kind is not ConstraintKind.INV:
            continue
        owner = by_name.get(c.context.contract or "")
        if owner is None:
            diags.append(Diagnostic("invariant-owner", f"invariant {c.name} names unknown contract "
                                                       f"{c.context.contract!r}"))
            continue
        for path in c.undeclared_paths(decls_mapping(owner.variables)):
            diags.append(Diagnostic("invariant-variable",
                                    f"invariant {c.name} references undeclared variable {path}",
                                    owner.name))
    return diags


# ---------------------------------------------------------------------------
# printing

def print_document(doc: ContractDocument) -> str:
    """Canonical text for a document; parsing it back is structurally identity."""
    out: list[str] = []
    if doc.meta.name is not None:
        head = f'document "{doc.meta.name}"'
        if doc.meta.version is not None:
            head += f' version "{doc.meta.version}"'
        out.append(head + ";")
        out.append("")

    for a, declared in zip(doc.automata, doc.declared):
        _print_contract(out, a, declared)
        out.append("")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


def _print_contract(out: list[str], a: InterfaceAutomaton, declared: tuple[NamedConstraint, ...]) -> None:
    out.append(f"contract {a.name} {{")
    for word, section in SECTIONS.items():
        if section.show is not None:
            # an empty section prints as its bare keyword only when it is mandatory
            out.extend(section.show(word, a, declared) or ([f"  {word};"] if section.least else []))
    out.append("}")


def _block(lines: list[str]) -> list[str]:
    """A section of several lines, after a blank line; nothing when it has none."""
    return ["", *lines] if lines else []


def _show_variables(_: str, a: InterfaceAutomaton, cs: tuple[NamedConstraint, ...]) -> list[str]:
    return _block([f"  var {decl.name} : {decl.domain.text()};" for decl in a.variables.values()])


def _show_transitions(_: str, a: InterfaceAutomaton, cs: tuple[NamedConstraint, ...]) -> list[str]:
    steps = [f"    {t.source} -[{t.action}{_guards_text(t)}]-> {t.target};" for t in a.transitions]
    return _block(["  transitions {", *steps, "  }"] if steps else [])


def _show_constraints(_: str, a: InterfaceAutomaton, cs: tuple[NamedConstraint, ...]) -> list[str]:
    """Every declared constraint; a run of one operation's constraints is one context block."""
    lines: list[str] = []
    for ctx, run in groupby(cs, key=attrgetter("context")):
        if ctx.operation is not None:
            lines.append(f"  context {ctx.contract or a.name}::{ctx.operation}({_params_text(ctx.params)}) {{")
            lines.extend(f"    {c.kind.value} {c.name}: {to_text(c.body)};" for c in run)
            lines.append("  }")
            continue
        if ctx.params:
            raise ValueError(f"constraint {next(run).name} has parameters but no operation; not printable")
        qualifier = "" if ctx.contract in (None, a.name) else f"context {ctx.contract} "
        lines.extend(f"  {qualifier}{c.kind.value} {c.name}: {to_text(c.body)};" for c in run)
    return _block(lines)


def _guards_text(t: Transition) -> str:
    """`` pre P post Q`` for a step's guards, each only when it has one."""
    return (f" pre {t.pre}" if t.pre else "") + (f" post {t.post}" if t.post else "")


def _params_text(params: tuple[ParamDecl, ...]) -> str:
    return ", ".join(f"{p.mode + ' ' if p.mode else ''}{p.name} : {p.domain.text()}" for p in params)


def document_from_automaton(a: InterfaceAutomaton) -> ContractDocument:
    """Wrap a standalone automaton (e.g. a product) as a printable document."""
    cs = tuple(a.preconditions.values()) + tuple(a.postconditions.values())
    return ContractDocument((a,), (cs,))


# ---------------------------------------------------------------------------
# the section table


class Section(Frozen):
    """One row of ``SECTIONS``. ``read`` reads the section after its keyword; ``show`` gives
    its printed lines, none when it is empty, or is None when another row prints it."""

    least: int  # the section must appear at least this often
    most: float  # and at most this often
    read: Callable[[_Contract, int], None]
    show: Optional[Callable[[str, InterfaceAutomaton, tuple[NamedConstraint, ...]], list[str]]] = None


def _list_section(least: int, field: str, read_item: Callable[[TokenStream], tuple[Any, int]],
                  duplicate: str) -> Section:
    """``keyword [item {"," item}] ";"``, at most once, held in the automaton's ``field``;
    an item read twice is the error ``duplicate.format(item)`` at its token."""
    def read(c: _Contract, _: int) -> None:
        into = c.lists[field]

        def item(ts: TokenStream) -> None:
            value, at = read_item(ts)
            if value in into:
                raise ts.error(duplicate.format(value), at)
            into[value] = at

        c.ts.items(item, ";")

    def show(word: str, a: InterfaceAutomaton, _: tuple[NamedConstraint, ...]) -> list[str]:
        items = getattr(a, field)
        return [f"  {word} {', '.join(map(str, items))};"] if items else []

    return Section(least, 1, read, show)


# Every rule of a contract's sections, by keyword, in printing order.
SECTIONS: dict[str, Section] = {
    "states": _list_section(1, "states", partial(_parse_name, what="a state name"),
                            "duplicate state {!r}"),
    "initial": _list_section(0, "initials", partial(_parse_name, what="an initial state"),
                             "duplicate initial state {!r}"),
    "inputs": _list_section(1, "inputs", _parse_label, "action {} declared twice under 'inputs'"),
    "outputs": _list_section(1, "outputs", _parse_label, "action {} declared twice under 'outputs'"),
    "hidden": _list_section(1, "hidden", _parse_label, "action {} declared twice under 'hidden'"),
    "var": Section(0, inf, _Contract.read_var, _show_variables),
    "context": Section(0, inf, _Contract.read_context, _show_constraints),
    **{word: Section(0, inf, partial(_Contract.read_constraint, word=word)) for word in _KINDS},
    "transitions": Section(0, 1, _Contract.read_transitions, _show_transitions),
}


# ---------------------------------------------------------------------------
# DOT export

def export_dot(a: InterfaceAutomaton) -> str:
    """Graphviz text for an automaton.

    Edge labels carry the action with its class decoration (``?`` input,
    ``!`` output, ``;`` hidden) and any pre/post names. Output order follows
    declaration order, so equal inputs yield byte-identical text.
    """
    lines = [f"digraph {_dot_id(a.name)} {{"]
    lines += [f'  __start{i} [shape=point, label=""];' for i in range(len(a.initials))]
    lines += [f"  {_dot_id(s)};" for s in a.states]
    lines += [f"  __start{i} -> {_dot_id(s)};" for i, s in enumerate(a.initials)]
    for t in a.transitions:
        label = f"{a.decorated(t.action)}{_guards_text(t)}"
        lines.append(f'  {_dot_id(t.source)} -> {_dot_id(t.target)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(name: str) -> str:
    if is_identifier(name):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
