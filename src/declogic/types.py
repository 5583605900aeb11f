"""Object types for the decorated term calculus.

Types are finite products and sums over named base types, with a unit
(empty product) and an empty type (empty sum).  Types are interned:
building a type whose fields are those of an existing type returns that
same object, so two types are equal exactly when they are the same
object.  `==` and `hash` are therefore identity, which costs the same
for a type of any depth.  They are frozen dataclasses without generated
equality, and serve as dict keys and inside terms.  A type's `repr` is
its printed form.  Printing, parsing and dualizing walk a type over an
explicit stack (see `terms.FORMS`), so types nest to any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

# Every type built in this process, by its class and fields.
_INTERNED: dict[tuple, "ObjType"] = {}


class ObjType:
    """Base class for object types; equal types are one object."""

    __slots__ = ()

    def __new__(cls, *args):
        key = (cls, *args)
        ty = _INTERNED.get(key)
        if ty is None:
            ty = object.__new__(cls)
            for f, value in zip(fields(cls), args, strict=True):
                object.__setattr__(ty, f.name, value)
            _INTERNED[key] = ty
        return ty

    def __repr__(self) -> str:
        from .syntax import print_type

        return print_type(self)


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Unit(ObjType):
    """The terminal object; one inhabitant."""


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Empty(ObjType):
    """The initial object; no inhabitants."""


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Base(ObjType):
    """A named base type whose carrier is supplied by a finite model."""

    name: str


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Prod(ObjType):
    left: ObjType
    right: ObjType


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Sum(ObjType):
    left: ObjType
    right: ObjType


UNIT_T = Unit()
EMPTY_T = Empty()


def base_names(ty: ObjType) -> frozenset[str]:
    """Names of all base types mentioned in `ty`."""
    stack = [ty]
    names = set()
    while stack:
        t = stack.pop()
        if isinstance(t, Base):
            names.add(t.name)
        elif isinstance(t, (Prod, Sum)):
            stack.append(t.left)
            stack.append(t.right)
    return frozenset(names)
