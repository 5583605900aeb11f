"""Immutable records built without generated code.

`dataclass` writes, compiles and runs source for every class it
decorates; across the package that was most of `import declogic`.  A
`Record` subclass instead names its fields in `__slots__`, in order, and
inherits what a frozen dataclass would generate:

- a constructor taking the fields by position or by keyword, where
  `_defaults` maps a trailing field to a factory for the value a caller
  may leave out;
- a `repr` in the dataclass form, `Name(field=value, ...)`;
- equality and hashing by class and fields, so a record never equals a
  record of another class or a plain tuple;
- no assignment or deletion after construction;
- copying and pickling through the constructor, so an interned type
  copies to itself.

Records built in hot loops write their own `__init__`, `__eq__` and
`__hash__`, which set and compare fields the way a dataclass does.
`replace` stands in for `dataclasses.replace`.  Term nodes stay
dataclasses: tools walk them with `dataclasses.fields`.
"""

from __future__ import annotations

from operator import attrgetter

# Sets a field of a record, past the `__setattr__` that forbids it.
set_field = object.__setattr__


def _no_fields(record) -> tuple:
    return ()


class Record:
    """Base class for immutable records; see the module docstring."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = attrgetter(names[0])
            cls._key = staticmethod(lambda record: (get(record),))
        else:
            cls._key = staticmethod(attrgetter(*names) if names else _no_fields)

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in order from positional, keyword and default ones."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name]())
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        return values

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the given fields changed."""
    values = {name: getattr(record, name) for name in record.__slots__}
    values.update(changes)
    return type(record)(**values)
