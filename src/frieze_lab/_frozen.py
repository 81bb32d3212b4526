"""Immutable value classes for the exact side, without importing ``dataclasses``.

A subclass lists its fields in ``__slots__`` and sets them in its own
``__init__`` through ``object.__setattr__``.  It then behaves like a frozen
dataclass: equal to an instance of the same class with equal fields, hashed
by the tuple of its fields, shown as ``Name(field=value, ...)``, and
AttributeError on assignment.  Fields are read with one class-level
``operator.attrgetter``, which keeps ``__eq__`` and ``__hash__`` cheap on the
memo keys of ``cluster._jet_polygon``.  Only dunder methods are defined here.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
