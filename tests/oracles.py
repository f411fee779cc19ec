"""Brute-force reference implementations used to cross-check the engine.

Everything here is written the slow, obvious way on purpose: full-grid
products, per-state definition tests, fixpoint loops, and a tree-walking
expression interpreter. Tokenising, expression evaluation, enumeration, domain
resolution, illegality, closure, and pruning are all re-derived
independently of the engine, so a shared bug cannot hide; only the data
types, the expression printer and the exception classes are shared.
"""

from __future__ import annotations

import itertools
import re

from iacompat import (
    ActionClass,
    Apply,
    BinOp,
    BoolDomain,
    BoolLit,
    Chain,
    EnumDomain,
    EnumLit,
    EvalError,
    FieldAccess,
    IntLit,
    IntRangeDomain,
    MapDomain,
    Membership,
    MethodCall,
    MissingVariable,
    Not,
    RecordDomain,
    SeqDomain,
    SetLit,
    UndefinedApplication,
    Valuation,
    VarRef,
    to_text,
)
from iacompat.domains import FrozenMap
from iacompat.evaluate import MixedSorts
from iacompat.lexer import ParseError


# ---------------------------------------------------------------------------
# tokenising, one character at a time

_ENUMLIT = re.compile(r"<[A-Za-z_][A-Za-z0-9_]*>")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"[0-9]+")
_STRING = re.compile(r'"[^"\n]*"')

# longest first so maximal munch works with a plain loop
_PUNCTS = (
    "...", "->", "::", "<=", ">=", "<>", "..",
    "(", ")", "[", "]", "{", "}", ",", ";", ":",
    "=", "<", ">", "+", "-", ".",
)


def oracle_tokenize(text, source="<string>"):
    """Tokens as ``((kind, text, offset), line, col)``, counted one character at a time."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            col += j - i
            i = j
            continue
        if ch == "~":
            toks.append((("oldmark", "~", i), line, col))
            i += 1
            col += 1
            continue
        if ch == "@":
            if text.startswith("@pre", i):
                toks.append((("oldmark", "@pre", i), line, col))
                i += 4
                col += 4
                continue
            raise ParseError("stray '@' (did you mean '@pre'?)", line, col, source)
        if ch == "→":
            toks.append((("punct", "->", i), line, col))
            i += 1
            col += 1
            continue
        if ch == "<":
            m = _ENUMLIT.match(text, i)
            if m:
                toks.append((("enumlit", m.group(0)[1:-1], i), line, col))
                col += m.end() - i
                i = m.end()
                continue
        if ch == '"':
            m = _STRING.match(text, i)
            if not m:
                raise ParseError("unterminated string literal", line, col, source)
            toks.append((("string", m.group(0)[1:-1], i), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append((("ident", m.group(0), i), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _INT.match(text, i)
        if m:
            toks.append((("int", m.group(0), i), line, col))
            col += m.end() - i
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append((("punct", p, i), line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col, source)
    toks.append((("eof", "", i), line, col))
    return toks


# ---------------------------------------------------------------------------
# expression evaluation, by walking the tree


def _lookup(val, path, old):
    table = val.old if old else val.values
    if table is None:
        raise EvalError("old-state reference evaluated without an old-state map")
    for cut in range(len(path), 0, -1):
        key = ".".join(path[:cut])
        if key in table:
            v = table[key]
            for seg in path[cut:]:
                if not isinstance(v, dict) or seg not in v:
                    raise EvalError(f"value of {key!r} has no field {seg!r}")
                v = v[seg]
            return v
    marker = "@pre" if old else ""
    raise MissingVariable(f"unbound variable: {'.'.join(path)}{marker}")


def _values_equal(a, b):
    # bool is an int in Python; keep the sorts apart, at every depth
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, frozenset) != isinstance(b, frozenset):
        return False
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, frozenset):
        # no two elements of a set are equal, so a match for every element
        # and equal sizes make a one-to-one match
        return len(a) == len(b) and all(any(_values_equal(x, y) for y in b) for x in a)
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(
            any(_values_equal(k, k2) and _values_equal(v, v2) for k2, v2 in b.items())
            for k, v in a.items()
        )
    return a == b


def _as_bool(e, v):
    if isinstance(v, bool):
        return v
    raise EvalError(f"expected a boolean from `{to_text(e)}`, got {v!r}")


def _as_int(e, v):
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise EvalError(f"expected an integer from `{to_text(e)}`, got {v!r}")


def _try_bool(e, val):
    try:
        return _as_bool(e, oracle_evaluate(e, val)), None
    except EvalError as exc:
        return None, exc


def oracle_evaluate(e, val):
    """Value of an expression under a valuation; raises EvalError subclasses.

    Reference for ``iacompat.evaluate``: the same values, and the same errors
    with the same messages, by direct recursion over the tree.
    """
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, EnumLit):
        return e.name
    if isinstance(e, SetLit):
        items = [oracle_evaluate(x, val) for x in e.items]
        # Python merges members it finds equal; True and 1 are not equal members
        if any(x == y and not _values_equal(x, y) for x in items for y in items):
            raise MixedSorts(f"mixed element sorts in set literal in `{to_text(e)}`")
        return frozenset(items)
    if isinstance(e, VarRef):
        return _lookup(val, e.path, e.old)
    if isinstance(e, Not):
        return not _as_bool(e.operand, oracle_evaluate(e.operand, val))
    if isinstance(e, BinOp):
        return _eval_binop(e, val)
    if isinstance(e, Chain):
        return _eval_chain(e, val)
    if isinstance(e, Membership):
        coll = oracle_evaluate(e.collection, val)
        if not isinstance(coll, frozenset):
            raise EvalError(f"`{to_text(e.collection)}` is not a set")
        item = oracle_evaluate(e.item, val)
        return any(_values_equal(item, x) for x in coll)
    if isinstance(e, Apply):
        target = oracle_evaluate(e.target, val)
        key = oracle_evaluate(e.key, val)
        if isinstance(target, dict):
            for k, x in target.items():
                if _values_equal(k, key):
                    return x
            raise UndefinedApplication(f"key {key!r} outside the domain of `{to_text(e.target)}`")
        if isinstance(target, tuple):
            i = _as_int(e.key, key)
            if 1 <= i <= len(target):
                return target[i - 1]
            raise UndefinedApplication(f"index {i} outside the sequence `{to_text(e.target)}`")
        raise EvalError(f"`{to_text(e.target)}` is neither a map nor a sequence")
    if isinstance(e, FieldAccess):
        target = oracle_evaluate(e.target, val)
        if isinstance(target, dict) and e.name in target:
            return target[e.name]
        raise EvalError(f"`{to_text(e.target)}` has no field {e.name!r}")
    if isinstance(e, MethodCall):
        return _eval_method(e, val)
    raise TypeError(f"not an expression node: {e!r}")


def _bool_link(op, left, right):
    """The binary rule of ``and``, ``or`` or ``implies`` on two outcomes
    ``(value, error)`` of ``_try_bool``; the result is such an outcome."""
    (lv, le), (rv, re_) = left, right
    if op == "and" and (lv is False or rv is False):
        return False, None
    if op == "or" and (lv is True or rv is True):
        return True, None
    if op == "implies" and (lv is False or rv is True):
        return True, None
    if le or re_:
        return None, le or re_
    return {"and": True, "or": False, "implies": rv}[op], None  # rv is False here


def _eval_chain(e, val):
    # link by link, each by its binary rule: from the right for implies,
    # which associates to the right, and from the left for and and or
    if e.ops[0] in ("and", "or", "implies"):
        if e.ops[0] == "implies":
            out = _try_bool(e.operands[-1], val)
            for x in reversed(e.operands[:-1]):
                out = _bool_link("implies", _try_bool(x, val), out)
        else:
            out = _try_bool(e.operands[0], val)
            for op, x in zip(e.ops, e.operands[1:]):
                out = _bool_link(op, out, _try_bool(x, val))
        if out[1]:
            raise out[1]
        return out[0]
    acc = _as_int(e.operands[0], oracle_evaluate(e.operands[0], val))
    for op, x in zip(e.ops, e.operands[1:]):
        rv = _as_int(x, oracle_evaluate(x, val))
        acc = acc + rv if op == "+" else acc - rv
    return acc


def _eval_binop(e, val):
    op = e.op
    if op in ("=", "<>"):
        lv = oracle_evaluate(e.left, val)
        rv = oracle_evaluate(e.right, val)
        eq = _values_equal(lv, rv)
        return eq if op == "=" else not eq
    lv = _as_int(e.left, oracle_evaluate(e.left, val))
    rv = _as_int(e.right, oracle_evaluate(e.right, val))
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    raise TypeError(f"unknown operator {op!r}")


def _eval_method(e, val):
    if e.name == "notEmpty":
        # Arrow operations wrap scalars as singletons; an undefined
        # application yields the empty collection, hence false.
        try:
            v = oracle_evaluate(e.target, val)
        except UndefinedApplication:
            return False
        if isinstance(v, (tuple, frozenset)):
            return len(v) > 0
        if isinstance(v, dict):
            return len(v) > 0
        return True
    v = oracle_evaluate(e.target, val)
    if e.name == "size":
        if isinstance(v, (tuple, frozenset, dict)):
            return len(v)
        raise EvalError(f"size of a non-collection `{to_text(e.target)}`")
    if e.name == "lastItem":
        if isinstance(v, tuple):
            if v:
                return v[-1]
            raise UndefinedApplication(f"lastItem of the empty sequence `{to_text(e.target)}`")
        raise EvalError(f"lastItem of a non-sequence `{to_text(e.target)}`")
    if e.name == "domain":
        if isinstance(v, dict):
            return frozenset(v.keys())
        raise EvalError(f"domain of a non-map `{to_text(e.target)}`")
    if e.name == "range":
        if isinstance(v, dict):
            return frozenset(v.values())
        raise EvalError(f"range of a non-map `{to_text(e.target)}`")
    if e.name == "front":
        if not isinstance(v, tuple):
            raise EvalError(f"front of a non-sequence `{to_text(e.target)}`")
        k = _as_int(e.args[0], oracle_evaluate(e.args[0], val))
        if k < 0:
            raise EvalError("front with a negative length")
        return v[: min(k, len(v))]
    raise EvalError(f"unknown method {e.name!r}")


# ---------------------------------------------------------------------------
# constraint falsity, by direct enumeration


def collect_paths(expr, into):
    """All (dotted path, is_old) variable references under expr."""
    if isinstance(expr, VarRef):
        into.add((".".join(expr.path), expr.old))
    elif isinstance(expr, Not):
        collect_paths(expr.operand, into)
    elif isinstance(expr, BinOp):
        collect_paths(expr.left, into)
        collect_paths(expr.right, into)
    elif isinstance(expr, Chain):
        for x in expr.operands:
            collect_paths(x, into)
    elif isinstance(expr, Membership):
        collect_paths(expr.item, into)
        collect_paths(expr.collection, into)
    elif isinstance(expr, Apply):
        collect_paths(expr.target, into)
        collect_paths(expr.key, into)
    elif isinstance(expr, FieldAccess):
        collect_paths(expr.target, into)
    elif isinstance(expr, MethodCall):
        collect_paths(expr.target, into)
        for a in expr.args:
            collect_paths(a, into)
    elif isinstance(expr, SetLit):
        for item in expr.items:
            collect_paths(item, into)


def _own_resolve(decl_map, param_map, dotted):
    """The name a path binds to, and that name's domain: the parameter its first
    segment names, else its longest declared prefix."""
    parts = dotted.split(".")
    if parts[0] in param_map:
        return parts[0], param_map[parts[0]]
    for cut in range(len(parts), 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in decl_map:
            return prefix, decl_map[prefix]
    raise KeyError(dotted)


def oracle_values(domain):
    """Every value of ``domain``, listed kind by kind, or None when it has no finite list:
    an opaque domain, or a sequence without ``maxlen``, or a domain holding one."""
    if isinstance(domain, BoolDomain):
        return [False, True]
    if isinstance(domain, IntRangeDomain):
        return list(range(domain.lower, domain.upper + 1))
    if isinstance(domain, EnumDomain):
        return list(domain.literals)
    if isinstance(domain, SeqDomain):
        elems = oracle_values(domain.element)
        if elems is None or domain.max_len is None:
            return None
        return [seq for k in range(domain.max_len + 1) for seq in itertools.product(elems, repeat=k)]
    if isinstance(domain, MapDomain):
        keys, vals = oracle_values(domain.key), oracle_values(domain.value)
        if keys is None or vals is None:
            return None
        absent = object()  # a key the map leaves out
        return [FrozenMap({k: v for k, v in zip(keys, image) if v is not absent})
                for image in itertools.product([absent, *vals], repeat=len(keys))]
    if isinstance(domain, RecordDomain):
        pools = [oracle_values(d) for _, d in domain.fields]
        if any(pool is None for pool in pools):
            return None
        return [FrozenMap(zip([n for n, _ in domain.fields], combo)) for combo in itertools.product(*pools)]
    return None  # opaque


def oracle_falsity(expr, decls, params=()):
    """True iff no enumerated valuation satisfies expr.

    Returns None when some referenced variable is not finitely enumerable
    (the engine's Unknown tier).
    """
    decl_map = {d.name: d.domain for d in decls}
    param_map = {p.name: p.domain for p in params}
    paths = set()
    collect_paths(expr, paths)
    domains, roots_old = {}, set()
    for dotted, old in paths:
        root, dom = _own_resolve(decl_map, param_map, dotted)
        domains[root] = dom
        if old:
            roots_old.add(root)
    names = sorted(domains)  # an old root is here too: it needs a current value
    pools = []
    for n in names:
        pools.append(oracle_values(domains[n]))
        if pools[-1] is None:
            return None
    old_names = sorted(roots_old)
    old_pools = [pools[names.index(n)] for n in old_names]
    for cur in itertools.product(*pools):
        base = dict(zip(names, cur))
        for old in itertools.product(*old_pools):
            val = Valuation(values=base, old=dict(zip(old_names, old)) if old_names else None)
            try:
                if oracle_evaluate(expr, val) is True:
                    return False
            except EvalError:
                pass
    return True


# ---------------------------------------------------------------------------
# full-grid product and per-state definition tests


def _tclass(auto, label):
    if label in auto.inputs:
        return ActionClass.INPUT
    if label in auto.outputs:
        return ActionClass.OUTPUT
    return ActionClass.HIDDEN


def oracle_shared(a1, a2):
    return (set(a1.inputs) & set(a2.outputs)) | (set(a2.inputs) & set(a1.outputs))


def _nameset(name):
    return frozenset() if name is None else frozenset([name])


def grid_product(a1, a2):
    """All of S1 x S2, no reachability restriction.

    Transitions are (src_pair, pre_names, action, post_names, tgt_pair);
    pre/post are frozensets of operand constraint names, i.e. the
    conjunction with the operand order forgotten.
    """
    shared = oracle_shared(a1, a2)
    states = [(s1, s2) for s1 in a1.states for s2 in a2.states]
    initials = [(s1, s2) for s1 in a1.initials for s2 in a2.initials]
    trans = set()
    for (s1, s2) in states:
        for t in a1.transitions:
            if t.source != s1 or t.action in shared:
                continue
            trans.add(((s1, s2), _nameset(t.pre), t.action, _nameset(t.post), (t.target, s2)))
        for t in a2.transitions:
            if t.source != s2 or t.action in shared:
                continue
            trans.add(((s1, s2), _nameset(t.pre), t.action, _nameset(t.post), (s1, t.target)))
        for t in a1.transitions:
            if t.source != s1 or t.action not in shared:
                continue
            for u in a2.transitions:
                if u.source != s2 or u.action != t.action:
                    continue
                pre = _nameset(t.pre) | _nameset(u.pre)
                post = _nameset(t.post) | _nameset(u.post)
                trans.add(((s1, s2), pre, t.action, post, (t.target, u.target)))
    return states, initials, sorted(trans, key=_tkey)


def _tkey(item):
    (src, pre, action, post, tgt) = item
    return (src, sorted(pre), action.sort_key, sorted(post), tgt)


def _enabled(auto, state, label, cls):
    if _tclass(auto, label) is not cls:
        return False
    return any(t.source == state and t.action == label for t in auto.transitions)


def oracle_illegal(a1, a2, grid, *, falsity_of, strict_deadlock=False):
    """Per-pair direct test of the two illegal-state clauses.

    falsity_of(name, kind) decides `the constraint of this name is
    unsatisfiable`; the caller chooses how.
    """
    states, _, trans = grid
    shared = oracle_shared(a1, a2)
    illegal = set()
    for (s1, s2) in states:
        hit = False
        for label in shared:
            if _enabled(a1, s1, label, ActionClass.OUTPUT) and not _enabled(a2, s2, label, ActionClass.INPUT):
                hit = True
            if _enabled(a2, s2, label, ActionClass.OUTPUT) and not _enabled(a1, s1, label, ActionClass.INPUT):
                hit = True
        if not hit:
            out = [t for t in trans if t[0] == (s1, s2)]

            def dead(t):
                pre_false = any(falsity_of(n, "pre") for n in t[1])
                post_false = any(falsity_of(n, "post") for n in t[3])
                return pre_false or post_false

            if out:
                hit = all(dead(t) for t in out)
            elif strict_deadlock:
                hit = True
        if hit:
            illegal.add((s1, s2))
    return illegal


def oracle_bad(a1, a2, grid, illegal):
    """Naive fixpoint: rescan every transition until nothing changes."""
    _, _, trans = grid
    shared = oracle_shared(a1, a2)

    def autonomous(label):
        # in the product, shared actions are hidden; others keep the class
        # given by whichever operand owns them
        if label in shared:
            return True
        cls = _tclass(a1, label) if label in a1.alphabet else _tclass(a2, label)
        return cls in (ActionClass.OUTPUT, ActionClass.HIDDEN)

    bad = set(illegal)
    changed = True
    while changed:
        changed = False
        for (src, _pre, label, _post, tgt) in trans:
            if src not in bad and tgt in bad and autonomous(label):
                bad.add(src)
                changed = True
    return bad


def constraint_falsity_table(a1, a2):
    """falsity_of(name, kind) callback built from both registries."""
    decls = list({**a1.variables, **a2.variables}.values())
    table = {}
    for auto in (a1, a2):
        for reg in (auto.preconditions, auto.postconditions):
            for name, c in reg.items():
                if name in table:
                    continue
                params = c.context.params if c.context else ()
                verdict = oracle_falsity(c.body, decls, params)
                table[name] = bool(verdict)  # None (not enumerable) -> satisfiable

    def falsity_of(name, _kind):
        return table.get(name, False)

    return falsity_of


def oracle_verdict(a1, a2, *, strict_deadlock=False):
    """Compatible iff some initial pair survives bad-state removal."""
    falsity_of = constraint_falsity_table(a1, a2)
    grid = grid_product(a1, a2)
    illegal = oracle_illegal(a1, a2, grid, falsity_of=falsity_of,
                             strict_deadlock=strict_deadlock)
    bad = oracle_bad(a1, a2, grid, illegal)
    _, initials, _ = grid
    compatible = any(i not in bad for i in initials)
    return compatible, grid, illegal, bad


# ---------------------------------------------------------------------------
# reachability, for prune cross-checks


def oracle_reachable(initials, edges, removed=frozenset()):
    """filter-then-BFS over (source, target) pairs."""
    keep_init = [s for s in initials if s not in removed]
    adj = {}
    for (src, tgt) in edges:
        if src in removed or tgt in removed:
            continue
        adj.setdefault(src, []).append(tgt)
    seen = set(keep_init)
    work = list(keep_init)
    while work:
        s = work.pop()
        for t in adj.get(s, ()):
            if t not in seen:
                seen.add(t)
                work.append(t)
    return seen


def interleaving_size(a1, a2):
    """Reachable product size for a no-shared pair, by independent BFS."""
    out1 = {}
    for t in a1.transitions:
        out1.setdefault(t.source, []).append(t)
    out2 = {}
    for t in a2.transitions:
        out2.setdefault(t.source, []).append(t)
    work = [(s1, s2) for s1 in a1.initials for s2 in a2.initials]
    seen = set(work)
    emitted = set()
    while work:
        (s1, s2) = work.pop()
        for t in out1.get(s1, ()):
            emitted.add(((s1, s2), t.pre, t.action, t.post, (t.target, s2)))
            if (t.target, s2) not in seen:
                seen.add((t.target, s2))
                work.append((t.target, s2))
        for t in out2.get(s2, ()):
            emitted.add(((s1, s2), t.pre, t.action, t.post, (s1, t.target)))
            if (s1, t.target) not in seen:
                seen.add((s1, t.target))
                work.append((s1, t.target))
    return len(seen), len(emitted)
