"""The canonical key written as plain structural recursion.

This is the definition behind `declogic.terms.canonical_key`:
composition flattened, identities dropped, pair and case children keyed
the same way.  Here a key is a nested tuple built afresh on every call,
with nothing stored.  `canonical_key` instead numbers keys with small
ints, computed iteratively and cached on nodes, so the tests check that
two terms get the same id exactly when their keys here are equal.
"""

from declogic.model import UNIT
from declogic.terms import (
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    Id,
    Inj1,
    Inj2,
    Op,
    PairSeq,
    Proj1,
    Proj2,
)
from declogic.types import Base, Empty, Prod, Sum, Unit


def type_key(ty) -> tuple:
    if isinstance(ty, Unit):
        return ("unit",)
    if isinstance(ty, Empty):
        return ("empty",)
    if isinstance(ty, Base):
        return ("base", ty.name)
    if isinstance(ty, Prod):
        return ("prod", type_key(ty.left), type_key(ty.right))
    if isinstance(ty, Sum):
        return ("sum", type_key(ty.left), type_key(ty.right))
    raise TypeError(f"not an object type: {ty!r}")


def value_key(value) -> object:
    if value is UNIT:
        return ("unit-value",)
    if isinstance(value, tuple):
        return ("tuple",) + tuple(value_key(v) for v in value)
    return ("atom", value)


def factors(term) -> list:
    if isinstance(term, Comp):
        return factors(term.inner) + factors(term.outer)
    if isinstance(term, Id):
        return []
    return [term]


def factor_key(node) -> tuple:
    if isinstance(node, Op):
        return ("op", node.symbol.name)
    if isinstance(node, Proj1):
        return ("proj1", type_key(node.left), type_key(node.right))
    if isinstance(node, Proj2):
        return ("proj2", type_key(node.left), type_key(node.right))
    if isinstance(node, Inj1):
        return ("inj1", type_key(node.left), type_key(node.right))
    if isinstance(node, Inj2):
        return ("inj2", type_key(node.left), type_key(node.right))
    if isinstance(node, PairSeq):
        return ("pair", canonical_key(node.first), canonical_key(node.second))
    if isinstance(node, CaseSeq):
        return ("case", canonical_key(node.on_left), canonical_key(node.on_right))
    if isinstance(node, Bang):
        return ("bang", type_key(node.at))
    if isinstance(node, Absurd):
        return ("absurd", type_key(node.at))
    if isinstance(node, Const):
        return ("const", value_key(node.value), type_key(node.at))
    raise TypeError(f"not a term: {node!r}")


def canonical_key(term) -> tuple:
    keys = [factor_key(f) for f in factors(term)]
    if not keys:
        return ("id", type_key(term.source))
    if len(keys) == 1:
        return keys[0]
    return ("chain", tuple(keys))
