"""Immutable value classes that are cheap to import.

A subclass names its fields, in constructor order, in ``__slots__``. The
base binds positional, then keyword, arguments to them and sets each one
once with ``object.__setattr__``; trailing fields named in the class's
``_defaults`` mapping may be left out, and a missing, unknown, repeated
or surplus argument raises ``TypeError``. A subclass that checks or
converts its arguments does so in its own ``__init__``. The base also
supplies field-by-field equality and hashing, a ``ClassName(field=value,
...)`` repr, and an ``AttributeError`` on any later assignment or
deletion. Generating these methods with the standard library's class
decorator instead would import ``inspect``, ``ast`` and ``dis`` and cost
every CLI process about 23 ms.
"""


class Value:
    __slots__ = ()
    _defaults = {}  # field -> its value when left out

    def __init__(self, *args, **kwargs) -> None:
        names, cls = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names[len(args):]:
                why = "multiple values for" if name in names else "an unexpected"
                raise TypeError(f"{cls}() got {why} argument {name!r}")
        given = {**self._defaults, **dict(zip(names, args)), **kwargs}
        missing = [name for name in names if name not in given]
        if missing:
            raise TypeError(f"{cls}() missing required arguments: {', '.join(missing)}")
        for name in names:
            object.__setattr__(self, name, given[name])

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
