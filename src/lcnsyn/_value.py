"""Immutable value classes that are cheap to import.

A subclass names its fields, in constructor order, in ``__slots__`` and
sets each one once, in its own ``__init__``, with
``object.__setattr__``. The base supplies field-by-field equality and
hashing, a ``ClassName(field=value, ...)`` repr, and an
``AttributeError`` on any later assignment or deletion. Generating these
methods with the standard library's class decorator instead would import
``inspect``, ``ast`` and ``dis`` and cost every CLI process about 23 ms.
"""


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
