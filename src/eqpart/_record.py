"""Frozen value records, in place of ``@dataclass(frozen=True)``.

``dataclasses`` imports ``inspect`` and compiles generated code for every
class it decorates; a record class here is built by this small metaclass
instead, with nothing compiled at import time.  A subclass declares its
fields as annotations, in order, with defaults as class-level values:

    class Graph(Record):
        n: int
        adj: tuple
        name: str = ""

The fields become ``__slots__``.  Instances take the fields positionally or
by keyword, run ``__post_init__`` (a check that raises) once they are set,
refuse assignment with ``AttributeError``, and compare, hash and print as
the tuple of their fields.  A class keyword ``compare=(...)`` limits
equality and hashing to the named fields.
"""
from __future__ import annotations

_MISSING = object()


class _RecordType(type):
    def __new__(mcs, name, bases, namespace, compare=None):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = fields
        cls = super().__new__(mcs, name, bases, namespace)
        cls._fields = fields
        cls._defaults = defaults
        cls._compare = fields if compare is None else tuple(compare)
        return cls


class Record(metaclass=_RecordType):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, "
                            f"{len(args)} given")
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        for name in cls._fields[len(args):]:
            value = kwargs.pop(name, cls._defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
