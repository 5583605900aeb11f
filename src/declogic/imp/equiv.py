"""Decide whether two programs are equivalent over a finite model."""
from __future__ import annotations

from ..model import Exc, FiniteModel, ModelError, eval_points, eval_term, scan_points
from ..record import Record
from ..theory import Theory
from .ast import Command
from .elaborate import FUEL_EXCEPTION, elaborate

STRONG = "strong"
WEAK = "weak"
NOT_EQUAL = "not-equal"
FUEL_EXHAUSTED = "fuel-exhausted"


class Verdict(Record):
    """Outcome of an equivalence check.

    `strong`: same result and same final state everywhere.  `weak`:
    same result everywhere, final states differ somewhere.  For the
    other kinds `state` is the first initial state where the programs
    disagree, or where a loop ran out of fuel and left the comparison
    undecided.
    """

    __slots__ = ("kind", "state")
    _defaults = {"state": lambda: None}

    def describe(self, model: FiniteModel) -> str:
        if self.kind == STRONG:
            return "strongly equivalent"
        where = model.state_str(self.state)
        if self.kind == WEAK:
            return f"weakly equivalent (final states first differ from {where})"
        if self.kind == NOT_EQUAL:
            return f"not equivalent (results first differ from {where})"
        return f"undecided (fuel ran out from {where})"


def _out_of_fuel(value: object) -> bool:
    return isinstance(value, Exc) and value.name == FUEL_EXCEPTION


def _results(left, right, model: FiniteModel, points: list):
    """Each point of `points` with the (value, final state) results of
    `left` and `right` there, in order.

    Both programs are walked at every point at once.  If that walk raises,
    the points are walked one by one and lazily, so the caller meets the
    point walk's first error only if its scan gets that far."""
    try:
        return zip(points, eval_points(left, model, points),
                   eval_points(right, model, points))
    except (ModelError, TypeError):
        return _point_by_point(left, right, model, points)


def _point_by_point(left, right, model: FiniteModel, points: list):
    for v, state in points:
        got_l = eval_term(left, model, v, state)
        got_r = eval_term(right, model, v, state)
        yield (v, state), (got_l.value, got_l.state), (got_r.value, got_r.state)


def check_equiv(
    first: Command,
    second: Command,
    theory: Theory,
    model: FiniteModel,
    fuel: int = 64,
) -> Verdict:
    """Compare two programs from every initial state of `model`.

    Results compare as values: an uncaught exception matches only the
    same exception with the same parameter.  A fuel exception on
    either side makes that state undecidable; any state with plainly
    different results still wins over exhaustion.
    """
    left = elaborate(first, theory, fuel)
    right = elaborate(second, theory, fuel)
    exhausted = None
    weak_only = None
    points = scan_points(left.source, model, False, (left, right))
    for (_, state), (value_l, final_l), (value_r, final_r) in _results(
            left, right, model, points):
        if _out_of_fuel(value_l) or _out_of_fuel(value_r):
            if exhausted is None:
                exhausted = state
            continue
        if value_l != value_r:
            return Verdict(NOT_EQUAL, state)
        if final_l != final_r and weak_only is None:
            weak_only = state
    if exhausted is not None:
        return Verdict(FUEL_EXHAUSTED, exhausted)
    if weak_only is not None:
        return Verdict(WEAK, weak_only)
    return Verdict(STRONG)
