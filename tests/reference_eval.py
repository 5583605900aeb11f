"""An independent evaluator for decorated terms, used as an oracle.

Written from the semantics in the `declogic.model` docstring and the
README, not from `eval_term`: a term denotes a function on (value,
state) pairs, built here by plain recursion over the term, one Python
closure per node.  The state is threaded through every construct, also
past a raise.  An exceptional value passes through every construct but
a catcher (exception decoration 2).  A pairing runs its halves in order
on the same input and stops at a raise.  A case split runs the left
branch on a left input; on a right input, or an exceptional one, it
runs the right branch and hands an exceptional result to the left
branch.

Terms stay shallow here (random terms, elaborated test programs), so
the recursion needs no deep stack.
"""

from declogic.model import UNIT, Exc, Outcome
from declogic.terms import (
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


def raised(value):
    return isinstance(value, Exc)


def denote(term, model):
    """The function (value, state) -> (value, state) that `term` denotes."""
    if isinstance(term, Comp):
        first, then = denote(term.inner, model), denote(term.outer, model)
        return lambda v, s: then(*first(v, s))
    if isinstance(term, PairSeq):
        return _pairing(denote(term.first, model), denote(term.second, model))
    if isinstance(term, CaseSeq):
        return _case_split(denote(term.on_left, model),
                           denote(term.on_right, model))
    if isinstance(term, Op):
        table = model.interps[term.symbol.name]
        catches = term.symbol.decoration.exc == 2
        return lambda v, s: table[(v, s)] if catches or not raised(v) else (v, s)
    return _pure(_pure_map(term))


def _pure(fn):
    """A pure leaf: maps ordinary values, passes exceptional ones."""
    return lambda v, s: (v, s) if raised(v) else (fn(v), s)


def _pure_map(term):
    if isinstance(term, Id):
        return lambda v: v
    if isinstance(term, Proj1):
        return lambda v: v[0]
    if isinstance(term, Proj2):
        return lambda v: v[1]
    if isinstance(term, Inj1):
        return lambda v: ("L", v)
    if isinstance(term, Inj2):
        return lambda v: ("R", v)
    if isinstance(term, Bang):
        return lambda v: UNIT
    if isinstance(term, Const):
        return lambda v: term.value
    if isinstance(term, Absurd):
        def no_value(v):
            raise AssertionError(f"ordinary value {v!r} at the empty type")
        return no_value
    raise TypeError(f"not a term: {term!r}")


def _pairing(first, second):
    def run(v, s):
        if raised(v):
            return v, s
        a, s1 = first(v, s)
        if raised(a):
            return a, s1
        b, s2 = second(v, s1)
        if raised(b):
            return b, s2
        return (a, b), s2
    return run


def _case_split(on_left, on_right):
    def run(v, s):
        if not raised(v) and v[0] == "L":
            return on_left(v[1], s)
        r, s1 = on_right(v if raised(v) else v[1], s)
        return on_left(r, s1) if raised(r) else (r, s1)
    return run


def reference_outcome(term, model, value, state) -> Outcome:
    return Outcome(*denote(term, model)(value, state))


def named_locations(*terms):
    """The locations that a lookup or update in `terms` names, by name."""
    names = set()
    for term in terms:
        if isinstance(term, Op):
            family, _, arg = term.symbol.name.partition("_")
            if family in ("lookup", "update"):
                names.add(arg)
        elif isinstance(term, (Comp, PairSeq, CaseSeq)):
            names |= named_locations(*(child for child in vars(term).values()
                                       if isinstance(child, DecoratedTerm)))
    return names


def ops_of(*terms):
    """The `Op` nodes in `terms`, as a set of nodes."""
    ops = set()
    for term in terms:
        if isinstance(term, Op):
            ops.add(term)
        elif isinstance(term, (Comp, PairSeq, CaseSeq)):
            ops |= ops_of(*(child for child in vars(term).values()
                            if isinstance(child, DecoratedTerm)))
    return ops


def live_states(model, *terms):
    """The states of `model` in which every location that `terms` do not
    name holds its carrier's first value, in state order: the states a
    check of `terms` walks when every table is one `build_model` made."""
    named = named_locations(*terms)
    return [state for state in model.states
            if all(value == model.carriers[base][0]
                   for (name, base), value in zip(model.locations.items(), state)
                   if name not in named)]
