"""Decide whether two programs are equivalent over a finite model."""
from __future__ import annotations

from ..model import Exc, FiniteModel, eval_term, scan_points
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
    for v, state in scan_points(left.source, model, False, (left, right)):
        got_l = eval_term(left, model, v, state)
        got_r = eval_term(right, model, v, state)
        if _out_of_fuel(got_l.value) or _out_of_fuel(got_r.value):
            if exhausted is None:
                exhausted = state
            continue
        if got_l.value != got_r.value:
            return Verdict(NOT_EQUAL, state)
        if got_l.state != got_r.state and weak_only is None:
            weak_only = state
    if exhausted is not None:
        return Verdict(FUEL_EXHAUSTED, exhausted)
    if weak_only is not None:
        return Verdict(WEAK, weak_only)
    return Verdict(STRONG)
