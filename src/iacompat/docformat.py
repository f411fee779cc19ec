"""The ``.ia`` contract document format, plus a DOT graph exporter.

A document declares type aliases and contract blocks. Each contract separates
its alphabet into mandatory ``inputs``/``outputs``/``hidden`` sections,
declares typed variables, attaches named constraints to operations via
``context`` blocks, and lists guarded transitions:

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
parsed document is internally consistent; structural well-formedness beyond
that (alphabet disjointness, non-empty initial set) is reported separately by
``document_diagnostics``. ``print_document`` emits a canonical form that
parses back to a structurally equal document.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Union

from .automata import (
    ActionLabel,
    Diagnostic,
    InterfaceAutomaton,
    ProductResult,
    Transition,
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
from .expr_parse import (
    KIND_WORDS,
    expression_from_tokens,
    parse_domain,
    parse_kind_word,
    parse_param_list,
)
from .frozen import Frozen
from .lexer import Token, TokenStream


class DocumentMeta(Frozen):
    name: Optional[str] = None
    version: Optional[str] = None


class ContractDocument(Frozen):
    """Automata plus every named constraint of a parsed ``.ia`` document."""

    automata: tuple[InterfaceAutomaton, ...] = ()
    constraints: tuple[NamedConstraint, ...] = ()
    meta: DocumentMeta = DocumentMeta()

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
    if ts.peek_word("document"):
        ts.advance()
        name = ts.expect("string", what="a quoted document name").text
        version = None
        if ts.accept_word("version"):
            version = ts.expect("string", what="a quoted version").text
        ts.expect("punct", ";")
        meta = DocumentMeta(name, version)

    type_env: dict[str, Domain] = {}
    automata: list[InterfaceAutomaton] = []
    constraints: list[NamedConstraint] = []

    while ts.current.kind != "eof":
        if ts.peek_word("type"):
            ts.advance()
            name_tok = ts.expect("ident", what="a type name")
            if name_tok.text in type_env:
                raise ts.error(f"duplicate type name {name_tok.text!r}", name_tok)
            ts.expect("punct", "=")
            dom = parse_domain(ts, type_env, strict_types=True)
            ts.expect("punct", ";")
            type_env[name_tok.text] = dom
        elif ts.peek_word("contract"):
            automaton, owned = _parse_contract(ts, type_env)
            if any(a.name == automaton.name for a in automata):
                raise ts.error(f"duplicate contract name {automaton.name!r}")
            automata.append(automaton)
            constraints.extend(owned)
        else:
            raise ts.error(f"expected 'type' or 'contract', found {ts.current.text or 'end of input'!r}")
    return ContractDocument(tuple(automata), tuple(constraints), meta)


def _parse_contract(
    ts: TokenStream, type_env: dict[str, Domain]
) -> tuple[InterfaceAutomaton, list[NamedConstraint]]:
    ts.expect_word("contract")
    name_tok = ts.expect("ident", what="a contract name")
    cname = name_tok.text
    ts.expect("punct", "{")

    # each list maps its names to the token of their first mention
    states: dict[str, Token] = {}
    initials: dict[str, Token] = {}
    sections: dict[str, dict[ActionLabel, Token]] = {"inputs": {}, "outputs": {}, "hidden": {}}
    sections_seen: set[str] = set()
    variables: dict[str, VariableDecl] = {}
    owned: list[NamedConstraint] = []  # declaration order, invariants included
    pres: dict[str, NamedConstraint] = {}
    posts: dict[str, NamedConstraint] = {}
    names_used: set[str] = set()
    unnamed = 0
    raw_transitions: list[tuple] = []  # (source, action, action token, pre, post, target)
    deferred_checks: list[tuple[NamedConstraint, Token]] = []

    def parse_constraint_line(ctx: ConstraintContext) -> None:
        nonlocal unnamed
        kind_tok = ts.current
        kind = parse_kind_word(ts)
        name = None
        nxt = ts.lookahead
        if ts.current.kind == "ident" and nxt.kind == "punct" and nxt.text == ":":
            name_t = ts.advance()
            name = name_t.text
            if name in names_used:
                raise ts.error(f"duplicate constraint name {name!r}", name_t)
        ts.expect("punct", ":")
        body_tok = ts.current
        body = expression_from_tokens(ts)
        ts.expect("punct", ";")
        if name is None:
            unnamed += 1
            name = f"{kind.value}_unnamed_{unnamed}"
            while name in names_used:
                unnamed += 1
                name = f"{kind.value}_unnamed_{unnamed}"
        try:
            c = NamedConstraint(name=name, kind=kind, body=body, context=ctx)
        except ValueError as exc:  # old-state reference outside a postcondition
            raise ts.error(str(exc), kind_tok) from None
        names_used.add(name)
        owned.append(c)
        if kind is ConstraintKind.PRE:
            pres[name] = c
        elif kind is ConstraintKind.POST:
            posts[name] = c
        deferred_checks.append((c, body_tok))

    while not ts.accept("punct", "}"):
        if ts.current.kind == "eof":
            raise ts.error(f"unterminated contract {cname!r}")
        word = ts.current.text if ts.current.kind == "ident" else ""
        if word == "states":
            ts.advance()
            sections_seen.add("states")
            _parse_list(ts, partial(_parse_name, what="a state name"), states, "duplicate state {!r}")
        elif word == "initial":
            ts.advance()
            _parse_list(ts, partial(_parse_name, what="an initial state"), initials)
        elif word in sections:
            tok = ts.advance()
            if word in sections_seen:
                raise ts.error(f"duplicate section {word!r}", tok)
            sections_seen.add(word)
            _parse_list(ts, _parse_label, sections[word], f"action {{}} declared twice under {word!r}")
        elif word == "var":
            ts.advance()
            vname_tok = ts.expect("ident", what="a variable name")
            vname = vname_tok.text
            while ts.accept("punct", "."):
                vname += "." + ts.expect("ident", what="a path segment").text
            if vname in variables:
                raise ts.error(f"duplicate variable {vname!r}", vname_tok)
            ts.expect("punct", ":")
            dom = parse_domain(ts, type_env, strict_types=True)
            ts.expect("punct", ";")
            variables[vname] = VariableDecl(vname, dom)
        elif word == "context":
            ts.advance()
            ctx_name = ts.expect("ident", what="a contract name").text
            if ts.accept("punct", "::"):
                op = ts.expect("ident", what="an operation name").text
                params = parse_param_list(ts, type_env, strict_types=True)
                ctx = ConstraintContext(contract=ctx_name, operation=op, params=params)
                if ts.accept("punct", "{"):
                    while not ts.accept("punct", "}"):
                        if ts.current.kind == "eof":
                            raise ts.error("unterminated context block")
                        parse_constraint_line(ctx)
                else:
                    parse_constraint_line(ctx)
            else:
                # one-line qualified form: context Owner pre N: body;
                parse_constraint_line(ConstraintContext(contract=ctx_name))
        elif word in KIND_WORDS:
            parse_constraint_line(ConstraintContext(contract=cname))
        elif word == "transitions":
            ts.advance()
            ts.expect("punct", "{")
            while not ts.accept("punct", "}"):
                if ts.current.kind == "eof":
                    raise ts.error("unterminated transitions block")
                src = ts.expect("ident", what="a source state")
                ts.expect("punct", "-")
                ts.expect("punct", "[")
                action, action_tok = _parse_label(ts)
                pre_tok = ts.expect("ident", what="a precondition name") if ts.accept_word("pre") else None
                post_tok = ts.expect("ident", what="a postcondition name") if ts.accept_word("post") else None
                ts.expect("punct", "]")
                ts.expect("punct", "->")
                tgt = ts.expect("ident", what="a target state")
                ts.expect("punct", ";")
                raw_transitions.append((src, action, action_tok, pre_tok, post_tok, tgt))
        else:
            raise ts.error(f"unexpected {ts.current.text or 'end of input'!r} in contract {cname!r}")

    for section in ("states", "inputs", "outputs", "hidden"):
        if section not in sections_seen:
            raise ts.error(f"contract {cname!r} is missing its {section!r} section", name_tok)

    for t in initials.values():
        if t.text not in states:
            raise ts.error(f"initial state {t.text!r} is not a state", t)
    alphabet = set(sections["inputs"]) | set(sections["outputs"]) | set(sections["hidden"])

    transitions: list[Transition] = []
    for source, action, action_tok, pre, post, target in raw_transitions:
        for endpoint in (source, target):
            if endpoint.text not in states:
                raise ts.error(f"unknown state {endpoint.text!r}", endpoint)
        if action not in alphabet:
            raise ts.error(f"undeclared action {action}", action_tok)
        if pre is not None and pre.text not in pres:
            raise ts.error(f"unknown precondition {pre.text!r}", pre)
        if post is not None and post.text not in posts:
            raise ts.error(f"unknown postcondition {post.text!r}", post)
        transitions.append(Transition(source.text, pre.text if pre else None, action,
                                      post.text if post else None, target.text))

    decl_domains = decls_mapping(variables)
    for c, body_tok in deferred_checks:
        scope = SortScope(decls=decl_domains, params=c.param_domains())
        try:
            s = infer_sort(c.body, scope)
        except (SortError, UnknownVariable) as exc:
            raise ts.error(f"constraint {c.name}: {exc}", body_tok) from None
        if s.tag not in ("bool", "opaque"):
            raise ts.error(f"constraint {c.name}: body has sort {s}, expected boolean", body_tok)

    automaton = InterfaceAutomaton(
        name=cname,
        states=tuple(states),
        initials=tuple(initials),
        inputs=tuple(sections["inputs"]),
        outputs=tuple(sections["outputs"]),
        hidden=tuple(sections["hidden"]),
        variables=variables,
        preconditions=pres,
        postconditions=posts,
        transitions=tuple(transitions),
    )
    return automaton, owned


def _parse_list(ts: TokenStream, read: Callable[[TokenStream], tuple[Any, Token]],
                into: dict, duplicate: Optional[str] = None) -> None:
    """``[item {"," item}] ";"``: adds each value ``read`` gives to ``into`` with its token.

    A value already in ``into`` is the error ``duplicate.format(value)`` at its
    token or, with no ``duplicate``, keeps its first token.
    """
    if not ts.peek("punct", ";"):
        while True:
            value, tok = read(ts)
            if value in into and duplicate is not None:
                raise ts.error(duplicate.format(value), tok)
            into.setdefault(value, tok)
            if not ts.accept("punct", ","):
                break
    ts.expect("punct", ";")


def _parse_name(ts: TokenStream, what: str) -> tuple[str, Token]:
    tok = ts.expect("ident", what=what)
    return tok.text, tok


def _parse_label(ts: TokenStream) -> tuple[ActionLabel, Token]:
    tok = ts.expect("ident", what="an action name")
    if ts.accept("punct", "::"):
        name = ts.expect("ident", what="an action name").text
        return ActionLabel(name, tok.text), tok
    return ActionLabel(tok.text), tok


# ---------------------------------------------------------------------------
# diagnostics beyond parsing

def document_diagnostics(doc: ContractDocument) -> list[Diagnostic]:
    """Structural diagnostics: automaton well-formedness plus invariant checks."""
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
            diags.append(
                Diagnostic(
                    "invariant-owner",
                    f"invariant {c.name} names unknown contract {c.context.contract!r}",
                )
            )
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

    taken: set[int] = set()
    for a in doc.automata:
        _print_contract(out, a, _owned(doc, a, taken))
        out.append("")
    leftovers = [doc.constraints[i].name for i in range(len(doc.constraints)) if i not in taken]
    if leftovers:
        raise ValueError(f"constraints not owned by any contract: {', '.join(leftovers)}")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


def _owned(doc: ContractDocument, a: InterfaceAutomaton, taken: set[int]) -> list[NamedConstraint]:
    owned = []
    for idx, c in enumerate(doc.constraints):
        if idx in taken:
            continue
        if c.kind is ConstraintKind.PRE:
            mine = a.preconditions.get(c.name) == c
        elif c.kind is ConstraintKind.POST:
            mine = a.postconditions.get(c.name) == c
        else:
            mine = c.context.contract == a.name
        if mine:
            owned.append(c)
            taken.add(idx)
    return owned


def _print_contract(out: list[str], a: InterfaceAutomaton, owned: list[NamedConstraint]) -> None:
    out.append(f"contract {a.name} {{")
    out.append(f"  states {', '.join(a.states)};" if a.states else "  states;")
    if a.initials:
        out.append(f"  initial {', '.join(a.initials)};")
    for section, labels in (("inputs", a.inputs), ("outputs", a.outputs), ("hidden", a.hidden)):
        body = ", ".join(str(l) for l in labels)
        out.append(f"  {section} {body};" if body else f"  {section};")
    if a.variables:
        out.append("")
        for decl in a.variables.values():
            out.append(f"  var {decl.name} : {decl.domain.text()};")
    if owned:
        out.append("")
        _print_constraints(out, a, owned)
    if a.transitions:
        out.append("")
        out.append("  transitions {")
        for t in a.transitions:
            inner = str(t.action)
            if t.pre:
                inner += f" pre {t.pre}"
            if t.post:
                inner += f" post {t.post}"
            out.append(f"    {t.source} -[{inner}]-> {t.target};")
        out.append("  }")
    out.append("}")


def _print_constraints(out: list[str], a: InterfaceAutomaton, owned: list[NamedConstraint]) -> None:
    i = 0
    while i < len(owned):
        c = owned[i]
        ctx = c.context
        if ctx.operation is None:
            if ctx.params:
                raise ValueError(
                    f"constraint {c.name} has parameters but no operation; not printable"
                )
            qualifier = "" if ctx.contract in (None, a.name) else f"context {ctx.contract} "
            out.append(f"  {qualifier}{c.kind.value} {c.name}: {to_text(c.body)};")
            i += 1
            continue
        header = f"  context {ctx.contract or a.name}::{ctx.operation}({_params_text(ctx.params)}) {{"
        out.append(header)
        while i < len(owned) and owned[i].context == ctx:
            cc = owned[i]
            out.append(f"    {cc.kind.value} {cc.name}: {to_text(cc.body)};")
            i += 1
        out.append("  }")


def _params_text(params: tuple[ParamDecl, ...]) -> str:
    parts = []
    for p in params:
        mode = f"{p.mode} " if p.mode else ""
        parts.append(f"{mode}{p.name} : {p.domain.text()}")
    return ", ".join(parts)


def document_from_automaton(
    a: InterfaceAutomaton, meta: DocumentMeta = DocumentMeta()
) -> ContractDocument:
    """Wrap a standalone automaton (e.g. a product) as a printable document."""
    cs = tuple(a.preconditions.values()) + tuple(a.postconditions.values())
    return ContractDocument((a,), cs, meta)


# ---------------------------------------------------------------------------
# DOT export

def export_dot(item: Union[InterfaceAutomaton, ProductResult]) -> str:
    """Graphviz text for an automaton or a product.

    Edge labels carry the action with its class decoration (``?`` input,
    ``!`` output, ``;`` hidden) and any pre/post names. Output order follows
    declaration order, so equal inputs yield byte-identical text.
    """
    a = item.automaton if isinstance(item, ProductResult) else item
    lines = [f"digraph {_dot_id(a.name)} {{"]
    for i in range(len(a.initials)):
        lines.append(f'  __start{i} [shape=point, label=""];')
    for s in a.states:
        lines.append(f"  {_dot_id(s)};")
    for i, s in enumerate(a.initials):
        lines.append(f"  __start{i} -> {_dot_id(s)};")
    for t in a.transitions:
        cls = a.action_class(t.action)
        label = f"{t.action}{cls.decoration if cls else ''}"
        if t.pre:
            label += f" pre {t.pre}"
        if t.post:
            label += f" post {t.post}"
        lines.append(f'  {_dot_id(t.source)} -> {_dot_id(t.target)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(name: str) -> str:
    if is_identifier(name):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
