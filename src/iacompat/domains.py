"""Value domains for contract variables.

A domain describes the set of values a variable may take. Domains drive two
things: sort inference over constraint expressions, and exhaustive
enumeration in the falsity oracle. Enumeration is only available for bounded
domains; an ``opaque`` domain (or an unbounded sequence) deliberately has no
value set, which downstream analyses treat conservatively.
"""
from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import inf
from typing import Any, Iterator, Mapping, Optional

from .frozen import Frozen

Value = Any  # bool | int | str (enum literal) | tuple | frozenset | FrozenMap (record or map)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_PATH = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


def is_identifier(text: str) -> bool:
    return bool(_IDENT.match(text))


def is_variable_path(text: str) -> bool:
    """Variable names are dotted identifier paths, e.g. ``myCS.s``."""
    return bool(_PATH.match(text))


# ---------------------------------------------------------------------------
# sorts (static types of expressions)

class Sort(Frozen):
    """Structural type of an expression: a tag plus optional components."""

    tag: str  # bool | int | enum | opaque | seq | set | map | record
    elem: Optional["Sort"] = None                     # seq, set
    key: Optional["Sort"] = None                      # map
    value: Optional["Sort"] = None                    # map
    fields: Optional[tuple[tuple[str, "Sort"], ...]] = None  # record

    def __str__(self) -> str:
        if self.tag == "seq":
            return f"seq of {self.elem}"
        if self.tag == "set":
            return f"set of {self.elem}"
        if self.tag == "map":
            return f"map {self.key} to {self.value}"
        if self.tag == "record":
            inner = ", ".join(f"{n} : {s}" for n, s in self.fields or ())
            return f"record {{ {inner} }}"
        return self.tag


BOOL = Sort("bool")
INT = Sort("int")
ENUM = Sort("enum")
OPAQUE = Sort("opaque")


def sorts_compatible(a: Sort, b: Sort) -> bool:
    """Whether two sorts may meet in an equality or membership test.

    Opaque acts as a wildcard; containers are compared component-wise.
    """
    if a.tag == "opaque" or b.tag == "opaque":
        return True
    if a.tag != b.tag:
        return False
    if a.tag in ("seq", "set"):
        return sorts_compatible(a.elem, b.elem)
    if a.tag == "map":
        return sorts_compatible(a.key, b.key) and sorts_compatible(a.value, b.value)
    if a.tag == "record":
        an = dict(a.fields or ())
        bn = dict(b.fields or ())
        if an.keys() != bn.keys():
            return False
        return all(sorts_compatible(an[k], bn[k]) for k in an)
    return True


# ---------------------------------------------------------------------------
# domains

class FrozenMap(dict):
    """A record or map value: a dict that hashes by its items, so that records
    and maps may be set elements and map keys. Nothing mutates one."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))


class Domain(Frozen):
    """Base class; concrete domains are the immutable ``Frozen`` values below."""
    depth = 0  # levels of seq, map and record in the domain; a composite derives it once

    def sort(self) -> Sort:
        return self._sort  # a composite domain derives it once; the others override sort

    def count(self, cap: float = inf) -> Optional[int]:
        """Number of values, or None when the domain is not enumerable. Counting stops
        once it passes ``cap``: past it, the result is some number above ``cap``."""
        return None

    def values(self) -> Iterator[Value]:
        """Deterministic enumeration of every value of a bounded domain."""
        raise ValueError(f"domain {self.text()} is not enumerable")

    def text(self) -> str:
        """Canonical concrete syntax of the domain."""
        raise NotImplementedError


class BoolDomain(Domain):
    def sort(self) -> Sort:
        return BOOL

    def count(self, cap: float = inf) -> Optional[int]:
        return 2

    def values(self) -> Iterator[Value]:
        yield False
        yield True

    def text(self) -> str:
        return "bool"


class IntRangeDomain(Domain):
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"empty integer range [{self.lower}..{self.upper}]")

    def sort(self) -> Sort:
        return INT

    def count(self, cap: float = inf) -> Optional[int]:
        return self.upper - self.lower + 1

    def values(self) -> Iterator[Value]:
        return iter(range(self.lower, self.upper + 1))

    def text(self) -> str:
        return f"int[{self.lower}..{self.upper}]"


class EnumDomain(Domain):
    literals: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("enum domain needs at least one literal")
        for lit in self.literals:
            if not is_identifier(lit):
                raise ValueError(f"enum literal is not an identifier: {lit!r}")
        if len(set(self.literals)) != len(self.literals):
            raise ValueError("enum domain repeats a literal")

    def sort(self) -> Sort:
        return ENUM

    def count(self, cap: float = inf) -> Optional[int]:
        return len(self.literals)

    def values(self) -> Iterator[Value]:
        return iter(self.literals)

    def text(self) -> str:
        return "enum { " + ", ".join(self.literals) + " }"


class SeqDomain(Domain):
    """Sequences over an element domain; bounded only when max_len is given."""

    element: Domain
    max_len: Optional[int] = None
    depth = cached_property(lambda self: self.element.depth + 1)

    def __post_init__(self) -> None:
        if self.max_len is not None and self.max_len < 0:
            raise ValueError("sequence bound must be non-negative")

    @cached_property
    def _sort(self) -> Sort:
        return Sort("seq", elem=self.element.sort())

    def count(self, cap: float = inf) -> Optional[int]:
        n = None if self.max_len is None else self.element.count(cap)
        if n is None:
            return None
        total = term = 1  # the sum of n ** k over the lengths k, up to the first past cap
        for _ in range(self.max_len):
            if total > cap:
                break
            term *= n
            total += term
        return total

    def values(self) -> Iterator[Value]:
        if self.count(0) is None:
            return super().values()
        elems = list(self.element.values())
        for k in range(self.max_len + 1):
            for tup in itertools.product(elems, repeat=k):
                yield tup

    def text(self) -> str:
        base = f"seq of {self.element.text()}"
        return base if self.max_len is None else f"{base} maxlen {self.max_len}"


class MapDomain(Domain):
    """Partial maps: every key of the key domain is either absent or mapped."""

    key: Domain
    value: Domain
    depth = cached_property(lambda self: max(self.key.depth, self.value.depth) + 1)

    @cached_property
    def _sort(self) -> Sort:
        return Sort("map", key=self.key.sort(), value=self.value.sort())

    def count(self, cap: float = inf) -> Optional[int]:
        kn, vn = self.key.count(cap), self.value.count(cap)
        if kn is None or vn is None:
            return None
        total = 1  # (vn + 1) ** kn, one key at a time up to the first past cap
        for _ in range(kn):
            if total > cap:
                break
            total *= vn + 1
        return total

    def values(self) -> Iterator[Value]:
        if self.count(0) is None:
            return super().values()
        keys = list(self.key.values())
        vals = list(self.value.values())
        choices = [None] + vals  # None marks an absent key
        for combo in itertools.product(choices, repeat=len(keys)):
            yield FrozenMap({k: v for k, v in zip(keys, combo) if v is not None})

    def text(self) -> str:
        return f"map {self.key.text()} to {self.value.text()}"


class RecordDomain(Domain):
    fields: tuple[tuple[str, Domain], ...]
    depth = cached_property(lambda self: max((d.depth for _, d in self.fields), default=0) + 1)

    def __post_init__(self) -> None:
        names = [n for n, _ in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("record domain repeats a field name")
        for n in names:
            if not is_identifier(n):
                raise ValueError(f"record field is not an identifier: {n!r}")

    @cached_property
    def _sort(self) -> Sort:
        return Sort("record", fields=tuple((n, d.sort()) for n, d in self.fields))

    def count(self, cap: float = inf) -> Optional[int]:
        total = 1
        for _, d in self.fields:
            n = d.count(cap)
            if n is None:
                return None
            total *= n
        return total

    def values(self) -> Iterator[Value]:
        if self.count(0) is None:
            return super().values()
        names = [n for n, _ in self.fields]
        pools = [list(d.values()) for _, d in self.fields]
        for combo in itertools.product(*pools):
            yield FrozenMap(zip(names, combo))

    def text(self) -> str:
        inner = ", ".join(f"{n} : {d.text()}" for n, d in self.fields)
        return "record { " + inner + " }"

    def field_domain(self, name: str) -> Optional[Domain]:
        for n, d in self.fields:
            if n == name:
                return d
        return None


class OpaqueDomain(Domain):
    """A domain with no known structure. Never enumerable."""

    def sort(self) -> Sort:
        return OPAQUE

    def text(self) -> str:
        return "opaque"


class VariableDecl(Frozen):
    """A declared contract variable. Names are dotted identifier paths."""

    name: str
    domain: Domain

    def __post_init__(self) -> None:
        if not is_variable_path(self.name):
            raise ValueError(f"variable name is not a dotted identifier path: {self.name!r}")


def bind_path(path: tuple[str, ...], decls: Mapping[str, Domain],
              params: Mapping[str, Domain]) -> Optional[tuple[str, Domain, Domain]]:
    """How a dotted path in a constraint binds, in sort checking, validation and
    falsity alike: to the operation parameter its first segment names, else to
    its longest declared prefix; then through record fields, with an opaque
    domain absorbing the rest of the path.

    Returns (bound name, its domain, domain of the full path), or None when
    nothing binds or a field after the bound name is missing.
    """
    table = params if path[0] in params else decls
    for cut in range(len(path), 0, -1):
        name = ".".join(path[:cut])
        if name in table:
            dom = table[name]
            for seg in path[cut:]:
                if isinstance(dom, OpaqueDomain):
                    break
                dom = dom.field_domain(seg) if isinstance(dom, RecordDomain) else None
                if dom is None:
                    return None
            return name, table[name], dom
    return None
