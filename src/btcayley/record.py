"""Immutable value records: the one base of the package's record classes.

A record is a fixed tuple of named fields.  It is written as a plain class
so that no process of the package imports dataclasses, whose import pulls
in inspect, ast, dis and tokenize.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """A record over the names in __slots__, in order.

    A subclass lists its fields in __slots__, takes them in that order in
    its __init__, stores them with _fill and then runs its checks, if it
    has any, in __post_init__; it may leave fields out of equality with the
    class keyword uncompared.  Then:
      - assigning or deleting an attribute raises AttributeError;
      - two records are equal when they are of one class and agree on the
        compared fields, and the hash is that of the tuple of those fields;
      - the repr is Name(field=value, ...) over every field;
      - a pickle or copy calls the class again on the fields, so the
        checks of __init__ run again;
      - replace(**changes) is a copy with some fields changed, made the
        same way.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = ()):
        cls._compared = tuple(name for name in cls.__slots__ if name not in uncompared)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self, names) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self._compared) == other._values(other._compared)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self._compared))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self.__slots__)

    def replace(self, **changes):
        """A copy with the named fields changed; an unknown name raises TypeError."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return self.__class__(**(fields | changes))
