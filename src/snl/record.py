"""Frozen records with an instance `__dict__`: the commands and models.

A subclass declares its fields as annotations, in order.  A class attribute
of the same name is the field's default; `DERIVED` marks a field that
`__post_init__` computes from the others.  The methods are written once,
here, over the class's field tuple, so defining a record generates no code.
Equality and hashing go by class and the given fields, the repr shows every
field, and assignment raises AttributeError.  The `__dict__` holds the
fields in order, then whatever a `cached_property` stores.
"""

from __future__ import annotations

from operator import attrgetter

DERIVED = object()


class Record:
    def __init_subclass__(cls) -> None:
        declared = cls.__annotations__
        cls._fields = tuple(f for f in declared if getattr(cls, f, None) is not DERIVED)
        cls._shown = tuple(declared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._values = attrgetter(*cls._fields)  # one field: its value alone

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call that names fields or leaves them to their defaults."""
        rest = cls._fields[len(args):]
        values = cls._defaults | kwargs
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(rest) <= values.keys():
            raise TypeError(f"{cls.__name__}() takes {cls._fields}, not {len(args)} by position and {sorted(kwargs)}")
        return args + tuple(map(values.__getitem__, rest))

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash((self.__class__, self._values(self)))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def _frozen(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen
