"""Object types for the decorated term calculus.

Types are finite products and sums over named base types, with a unit
(empty product) and an empty type (empty sum).  Types are interned:
building a type whose fields are those of an existing type returns that
same object, so two types are equal exactly when they are the same
object.  `==` and `hash` are therefore identity, which costs the same
for a type of any depth.  Each also has a `number`, its place in the
order this process built types (see `numbered_type`).  Types are
immutable records (`record.Record`) that list their fields in
`__slots__`, and serve as dict keys and inside terms.  A type's `repr`
is its printed form.  Printing, parsing and dualizing walk a type over
an explicit stack (see `terms.FORMS`), so types nest to any depth.
"""

from __future__ import annotations

from .record import Record, set_field

# Every type built in this process, by its class and fields, and by number.
_INTERNED: dict[tuple, "ObjType"] = {}
_NUMBERED: list["ObjType"] = []


class ObjType(Record):
    """Base class for object types; equal types are one object."""

    # Not a field: `number` is set once, when the type is first built.
    __slots__ = ("number",)
    # Interned, so equal types are one object and identity decides.
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    # `__new__` sets the fields of a new type and finds an old one.
    __init__ = object.__init__

    def __new__(cls, *args):
        key = (cls, *args)
        ty = _INTERNED.get(key)
        if ty is None:
            ty = object.__new__(cls)
            for name, value in zip(cls.__slots__, args, strict=True):
                set_field(ty, name, value)
            set_field(ty, "number", len(_NUMBERED))
            _NUMBERED.append(ty)
            _INTERNED[key] = ty
        return ty

    def __repr__(self) -> str:
        from .syntax import print_type

        return print_type(self)


class Unit(ObjType):
    """The terminal object; one inhabitant."""

    __slots__ = ()


class Empty(ObjType):
    """The initial object; no inhabitants."""

    __slots__ = ()


class Base(ObjType):
    """A named base type whose carrier is supplied by a finite model."""

    __slots__ = ("name",)


class Prod(ObjType):
    __slots__ = ("left", "right")


class Sum(ObjType):
    __slots__ = ("left", "right")


UNIT_T = Unit()
EMPTY_T = Empty()


class _UnitValue:
    """The sole inhabitant of the unit type."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"


UNIT = _UnitValue()


def numbered_type(text: str) -> ObjType | None:
    """The type whose `number` is written `text` in decimal, or None; no
    process builds 10**18 types, so longer texts are not converted."""
    number = int(text) if text.isascii() and text.isdigit() and len(text) < 19 else -1
    return _NUMBERED[number] if 0 <= number < len(_NUMBERED) and str(number) == text else None
