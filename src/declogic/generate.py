"""Random well-typed decorated terms over a theory and a finite model.

Generation is type-directed: every request names a source and target,
and the generator picks among applicable constructors until the depth
budget runs out, then closes with an identity, a discard, or a
constant bridged over a discard.  The model supplies carrier points
for those constants, which is the only reason generation needs one.

Terms from the empty type collapse to case analysis on nothing, and
targets with no points (the empty type in a state-only theory) are
ungeneratable; callers pick their type pools accordingly and treat
`GenerationError` as "skip this sample".
"""

from __future__ import annotations

import random

from .model import FiniteModel, enumerate_points
from .terms import (
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    DecoratedTerm,
    Id,
    Inj1,
    Inj2,
    Op,
    PairSeq,
    Proj1,
    Proj2,
)
from .theory import Theory
from .types import EMPTY_T, UNIT_T, Base, ObjType, Prod, Sum


class GenerationError(Exception):
    pass


def type_pool(theory: Theory) -> list[ObjType]:
    """A small set of types to draw sources and targets from.

    The empty type is included exactly when the theory can produce or
    consume exceptional values (otherwise nothing maps into it).
    """
    bases = [Base(name) for name in
             dict.fromkeys(list(theory.locations.values())
                           + list(theory.exceptions.values()))]
    if not bases:
        raise ValueError("theory declares no effects to draw types from")
    pool: list[ObjType] = [UNIT_T] + bases
    first = bases[0]
    pool.append(Prod(first, UNIT_T))
    pool.append(Sum(first, UNIT_T))
    if theory.exceptions:
        pool.append(EMPTY_T)
    return pool


def random_term(rng: random.Random, theory: Theory, model: FiniteModel,
                source: ObjType, target: ObjType,
                depth: int = 3) -> DecoratedTerm:
    """A random term source -> target; raises GenerationError if stuck."""
    if source == EMPTY_T and depth <= 0:
        return Absurd(target)
    if depth <= 0:
        return _terminal(rng, model, source, target)
    choices = [lambda: _terminal(rng, model, source, target)]
    if source == EMPTY_T:
        choices.append(lambda: Absurd(target))
    ops = list(theory.signature.values())
    prefix_ops = [op for op in ops if op.source == source]
    if prefix_ops:
        def through_op():
            op = rng.choice(prefix_ops)
            rest = random_term(rng, theory, model, op.target, target,
                               depth - 1)
            return Comp(rest, Op(op))
        choices.append(through_op)
    suffix_ops = [op for op in ops if op.target == target]
    if suffix_ops:
        def into_op():
            op = rng.choice(suffix_ops)
            rest = random_term(rng, theory, model, source, op.source,
                               depth - 1)
            return Comp(Op(op), rest)
        choices.append(into_op)
    if isinstance(target, Prod):
        def pair():
            first = random_term(rng, theory, model, source, target.left,
                                depth - 1)
            second = random_term(rng, theory, model, source, target.right,
                                 depth - 1)
            return PairSeq(first, second)
        choices.append(pair)
    if isinstance(target, Sum):
        def inject():
            if rng.random() < 0.5:
                inner = random_term(rng, theory, model, source, target.left,
                                    depth - 1)
                return Comp(Inj1(target.left, target.right), inner)
            inner = random_term(rng, theory, model, source, target.right,
                                depth - 1)
            return Comp(Inj2(target.left, target.right), inner)
        choices.append(inject)
    if isinstance(source, Sum):
        def split():
            on_left = random_term(rng, theory, model, source.left, target,
                                  depth - 1)
            on_right = random_term(rng, theory, model, source.right, target,
                                   depth - 1)
            return CaseSeq(on_left, on_right)
        choices.append(split)
    if isinstance(source, Prod):
        def project():
            if rng.random() < 0.5:
                rest = random_term(rng, theory, model, source.left, target,
                                   depth - 1)
                return Comp(rest, Proj1(source.left, source.right))
            rest = random_term(rng, theory, model, source.right, target,
                               depth - 1)
            return Comp(rest, Proj2(source.left, source.right))
        choices.append(project)
    last_error: GenerationError | None = None
    for _ in range(4):
        try:
            return rng.choice(choices)()
        except GenerationError as err:
            last_error = err
    raise last_error if last_error else GenerationError("generation stuck")


def _terminal(rng: random.Random, model: FiniteModel,
              source: ObjType, target: ObjType) -> DecoratedTerm:
    if source == target:
        return Id(source)
    if source == EMPTY_T:
        return Absurd(target)
    if target == UNIT_T:
        return Bang(source)
    points = enumerate_points(target, model)
    if not points:
        raise GenerationError(
            f"no closed form from {source} into pointless {target}")
    return Comp(Const(rng.choice(points), target), Bang(source))
