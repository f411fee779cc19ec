"""Immutable record values, defined without generated code.

``Frozen`` is the base of the package's record types. A subclass declares its
fields as annotations, with defaults, as a dataclass would. A value is a tuple
of its fields, so hashing and indexing one run in C. Calling the class binds
its arguments in Python; ``_new(cls, fields)`` builds the tuple in C, and a
caller may use it only when it gives every field in order and the class has
no ``__post_init__``, or the caller has made that check itself. Values of two
classes never compare equal, nor does a value equal a plain tuple, so
``IntLit(0) != BoolLit(False)``. Every value is truthy, and no attribute of
one can be assigned; only ``cached_property`` writes to the instance dict.
``_replace`` rebuilds a value through the constructor. A ``__post_init__``
checks the built value, and the field values it returns, if any, are stored
instead.
"""
from collections import _tuplegetter  # namedtuple's C-level field accessor
from operator import itemgetter

_new, _eq, _ne = tuple.__new__, tuple.__eq__, tuple.__ne__
_REQUIRED = object()  # the default of a field that has none


class factory:
    """A field default made afresh for each value, e.g. ``factory(dict)``."""

    def __init__(self, make):
        self.make = make


def _bind(cls, args, kwargs):
    """The field values of a call, in field order, defaults filled in."""
    n, row = len(args), cls._row
    if not kwargs:
        if cls._fixed <= n <= len(row):  # fixed defaults fill the rest
            return args + row[n:]
    elif not n:  # by name, or by a fixed default
        named = {**cls._defaults, **kwargs}
        if len(named) == len(row):
            try:
                return cls._get(named)
            except KeyError:
                pass
    if n > len(row):
        raise TypeError(f"{cls.__name__}() takes {len(row)} arguments but {n} were given")
    out = list(args)
    for f, d in zip(cls._fields[n:], row[n:]):
        if f in kwargs:
            out.append(kwargs.pop(f))
        elif d is _REQUIRED:
            raise TypeError(f"{cls.__name__}() missing argument {f!r}")
        else:
            out.append(d.make() if isinstance(d, factory) else d)
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
    return out


def _checked_new(cls, *args, **kwargs):
    self = _new(cls, _bind(cls, args, kwargs) if kwargs or len(args) != len(cls._fields) else args)
    fixed = self.__post_init__()
    return self if fixed is None else _new(cls, fixed)


class Frozen(tuple):
    __slots__ = ()
    _fields, _row, _defaults, _fixed = (), (), {}, 0

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__dict__.get("__annotations__", ()))
        if own:
            cls._fields, cls._row = own, tuple(cls.__dict__.get(f, _REQUIRED) for f in own)
            made = [i for i, d in enumerate(cls._row) if d is _REQUIRED or isinstance(d, factory)]
            cls._fixed = made[-1] + 1 if made else 0
            cls._defaults = {f: cls._row[i] for i, f in enumerate(own) if i not in made}
            cls._get = itemgetter(*own) if len(own) > 1 else lambda named: (named[own[0]],)
            for i, f in enumerate(own):
                setattr(cls, f, _tuplegetter(i, f))
        if "__post_init__" in cls.__dict__:
            cls.__new__ = _checked_new

    def __new__(cls, *args, **kwargs):
        return _new(cls, _bind(cls, args, kwargs) if kwargs or len(args) != len(cls._fields) else args)

    def __eq__(self, other):
        return self.__class__ is other.__class__ and _eq(self, other)

    def __ne__(self, other):
        return self.__class__ is not other.__class__ or _ne(self, other)

    __hash__ = tuple.__hash__

    def __bool__(self) -> bool:
        return True

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {self.__class__.__name__}")

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self))})"

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild through __new__
        return tuple(self)

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self), **changes))
