"""Inference rules of the decorated equational logic.

Each rule validates one proof step: the conclusion must match the
rule's schema against the premises up to the canonical form (built-in
composition reassociated, identities dropped), and the rule's
decoration side conditions must hold.  Side conditions are stated on
inferred decorations, which are upper bounds, so checking is
conservative: a rejected step is never semantically wrong to reject,
and every accepted step is sound (the probe suite cross-checks this
against the finite-model oracle).

Substitution and replacement are asymmetric on weak equations: an
extra inner factor is harmless (it runs first on equal inputs), but an
outer factor may only be attached to a weak equation when it cannot
observe the difference the weak equation permits — state reads after a
states-weak equation, exception inspection after an exceptions-weak
equation.  The congruence and projection/injection rules carry the
matching conditions on each axis, plus the image of those conditions
under the state/exception duality so that dualizing a valid script
yields a valid script.

Each mirror pair of rules is one checker, written in the pair/state
reading and run over `STATE` or `EXC` (see `Axis`); `DUAL_RULE` is
derived from the two axes.  Every side condition has a stable name,
such as `pair-proj-1.discarded-raise-free`, carried by
`SideConditionViolated.condition`.
"""

from __future__ import annotations

import re
from functools import partial
from operator import attrgetter

from .record import Record
from .terms import (
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    DecoratedTerm,
    Equation,
    Inj1,
    Inj2,
    Mode,
    PairSeq,
    Proj1,
    Proj2,
    canonical_key,
    chain_factors,
    compose_chain,
)
from .types import EMPTY_T, UNIT_T


class RuleError(Exception):
    pass


class UnknownRule(RuleError):
    pass


class SideConditionViolated(RuleError):
    """A decoration side condition failed; `condition` names it."""

    def __init__(self, message: str, condition: str):
        super().__init__(message)
        self.condition = condition


class PremiseShapeMismatch(RuleError):
    pass


class Axis(Record):
    """One side of the state/exception duality, as a checker reads it.

    `EXC` swaps pairings for case splits, projections for injections,
    `Bang` and unit for `Absurd` and empty, and the two effects, and
    reads composition chains backwards.  `words` pair up, position by
    position, the name parts that differ between a name and its mirror.
    `cong_strong_left` is the one real asymmetry, held by case-cong: a
    weak conclusion is checked when only the second premise is weak,
    and strongly equal left branches with state-blind right branches
    then also pass.
    """

    __slots__ = ("direction", "flipped", "cong_strong_left", "own", "other",
                 "src", "tgt", "pair", "parts", "proj", "bang", "unit", "words")

    def order(self, chain: list) -> list:
        """Chain factors in this axis's reading order."""
        return chain[::-1] if self.flipped else chain

    def comp(self, outer: DecoratedTerm, inner: DecoratedTerm) -> DecoratedTerm:
        return Comp(inner, outer) if self.flipped else Comp(outer, inner)

    def pick(self, text: str, mirror_text: str) -> str:
        return mirror_text if self.flipped else text


STATE = Axis(
    direction="states", flipped=False, cong_strong_left=False,
    own=attrgetter("decoration.state"), other=attrgetter("decoration.exc"),
    src=attrgetter("source"), tgt=attrgetter("target"),
    pair=PairSeq, parts=attrgetter("first", "second"),
    proj=(Proj1, Proj2), bang=Bang, unit=UNIT_T,
    words=("pair", "proj", "bang", "unit", "subs", "inner", "first",
           "second", "raise-free", "catch-free"))
EXC = Axis(
    direction="exceptions", flipped=True, cong_strong_left=True,
    own=attrgetter("decoration.exc"), other=attrgetter("decoration.state"),
    src=attrgetter("target"), tgt=attrgetter("source"),
    pair=CaseSeq, parts=attrgetter("on_left", "on_right"),
    proj=(Inj1, Inj2), bang=Absurd, unit=EMPTY_T,
    words=("case", "inj", "absurd", "empty", "repl", "outer", "left",
           "right", "state-blind", "state-preserving"))
_AXES = {axis.direction: axis for axis in (STATE, EXC)}

_MIRROR_WORDS = {**dict(zip(STATE.words, EXC.words)),
                 **dict(zip(EXC.words, STATE.words))}
_MIRROR_WORD = re.compile(r"\b(?:%s)\b" % "|".join(
    sorted(map(re.escape, _MIRROR_WORDS), key=len, reverse=True)))


def dual_name(name: str) -> str:
    """The mirror of a rule or side-condition name (an involution)."""
    return _MIRROR_WORD.sub(lambda m: _MIRROR_WORDS[m.group()], name)


def _same(a: DecoratedTerm, b: DecoratedTerm) -> bool:
    return canonical_key(a) == canonical_key(b)


# The message helpers take a message in the pair/state reading and its
# mirror, and pick one only when the check fails, so that a passing
# check builds no text.


def _shape(condition: bool, message: str, mirror_message: str = "",
           axis: Axis = STATE) -> None:
    if not condition:
        raise PremiseShapeMismatch(axis.pick(message, mirror_message))


def _side(condition: bool, drop, name: str, message: str,
          mirror_message: str = "", axis: Axis = STATE) -> None:
    """Require the side condition `name`, given in the pair/state
    reading and mirrored on `EXC`; a condition in `drop` counts as met."""
    if condition:
        return
    if axis.flipped:
        name, message = dual_name(name), mirror_message
    if name not in drop:
        raise SideConditionViolated(message, name)


def _count(premises, n: int, rule: str, mirror_rule: str = "",
           axis: Axis = STATE) -> None:
    if len(premises) != n:
        raise PremiseShapeMismatch(f"{axis.pick(rule, mirror_rule)} takes "
                                   f"{n} premise(s), got {len(premises)}")


def _rebuild(axis: Axis, factors: list, inner: bool,
             whole: DecoratedTerm, before: DecoratedTerm) -> DecoratedTerm:
    """Compose h from its `factors` in `axis` order.  `inner`: h runs
    before `before` in the pair/state reading.  An empty h is the
    identity where h starts: at `whole`'s source when h runs first,
    else at `before`'s target."""
    start = whole.source if inner != axis.flipped else before.target
    return compose_chain(axis.order(factors), start)


def _split(axis: Axis, whole: DecoratedTerm, part: DecoratedTerm):
    """If whole = part . h up to canonical form, return h, else None.
    h runs first on `STATE` (subs) and last on `EXC` (repl), and an
    empty h is the identity where it starts."""
    wchain = chain_factors(whole)
    pchain = chain_factors(part)
    cut = len(wchain) - len(pchain)
    if cut < 0:
        return None
    if axis.flipped:
        shared, h = wchain[:len(pchain)], wchain[len(pchain):]
        start = part.target
    else:
        shared, h, start = wchain[cut:], wchain[:cut], whole.source
    for w, p in zip(shared, pchain):
        if not _same(w, p):
            return None
    return compose_chain(h, start)


def _check_refl(conclusion, premises, theory, drop):
    _count(premises, 0, "refl")
    _shape(_same(conclusion.lhs, conclusion.rhs),
           "refl needs both sides identical up to canonical form")


def _check_sym(conclusion, premises, theory, drop):
    _count(premises, 1, "sym")
    (p,) = premises
    _shape(p.mode is conclusion.mode, "sym keeps the mode")
    _shape(_same(conclusion.lhs, p.rhs) and _same(conclusion.rhs, p.lhs),
           "sym must swap the premise's sides")


def _check_trans(conclusion, premises, theory, drop):
    _count(premises, 2, "trans")
    p1, p2 = premises
    _shape(p1.mode is conclusion.mode and p2.mode is conclusion.mode,
           "trans keeps the mode (convert with strong-to-weak first)")
    _shape(_same(p1.rhs, p2.lhs), "trans premises must share the middle term")
    _shape(_same(conclusion.lhs, p1.lhs) and _same(conclusion.rhs, p2.rhs),
           "trans conclusion must join the outer sides")


def _check_strong_to_weak(conclusion, premises, theory, drop):
    _count(premises, 1, "strong-to-weak")
    (p,) = premises
    _shape(p.mode is Mode.STRONG and conclusion.mode is Mode.WEAK,
           "strong-to-weak goes from a strong premise to a weak conclusion")
    _shape(_same(conclusion.lhs, p.lhs) and _same(conclusion.rhs, p.rhs),
           "strong-to-weak keeps both sides")


def _check_subs(axis, conclusion, premises, theory, drop):
    """subs and its mirror repl."""
    _count(premises, 1, "subs", "repl", axis)
    (p,) = premises
    _shape(p.mode is conclusion.mode,
           "subs keeps the mode", "repl keeps the mode", axis)
    h_l = _split(axis, conclusion.lhs, p.lhs)
    h_r = _split(axis, conclusion.rhs, p.rhs)
    _shape(h_l is not None and h_r is not None,
           "subs conclusion must precompose the same term on both sides",
           "repl conclusion must postcompose the same term on both sides",
           axis)
    _shape(_same(h_l, h_r),
           "subs must precompose the same term on both sides",
           "repl must postcompose the same term on both sides", axis)
    if conclusion.mode is Mode.WEAK:
        _side(axis.other(h_l) == 0, drop, "subs.weak-inner-raise-free",
              "weak substitution needs an exception-free inner term",
              "weak replacement needs a state-blind outer term", axis)


def _check_effect(conclusion, premises, theory, drop):
    _count(premises, 1, "effect")
    (p,) = premises
    _shape(p.mode is Mode.WEAK and conclusion.mode is Mode.STRONG,
           "effect upgrades a weak premise to a strong conclusion")
    _shape(_same(conclusion.lhs, p.lhs) and _same(conclusion.rhs, p.rhs),
           "effect keeps both sides")
    for side in (conclusion.lhs, conclusion.rhs):
        d = side.decoration
        _side(d.state <= 1 and d.exc <= 1, drop, "effect.sides-bounded",
              f"effect needs both sides at decoration (1,1) or below, got {d}")


def _obs_family(rule, f, g):
    """Required weak premises for one observational rule instance."""
    axis = _AXES[rule.direction]
    if axis.tgt(f) == axis.unit:
        return [(axis.comp(o, f), axis.comp(o, g)) for o in rule.observers]
    wrap_f = axis.comp(axis.bang(axis.tgt(f)), f)
    wrap_g = axis.comp(axis.bang(axis.tgt(g)), g)
    return [(f, g)] + [(axis.comp(o, wrap_f), axis.comp(o, wrap_g))
                       for o in rule.observers]


def _check_obs(conclusion, premises, theory, drop):
    _shape(conclusion.mode is Mode.STRONG, "obs concludes a strong equation")
    _shape(all(p.mode is Mode.WEAK for p in premises),
           "obs premises must all be weak")
    f, g = conclusion.lhs, conclusion.rhs
    given = sorted((canonical_key(p.lhs), canonical_key(p.rhs))
                   for p in premises)
    last_error = "the theory has no observational rule"
    for rule in theory.obs_rules:
        required = _obs_family(rule, f, g)
        wanted = sorted((canonical_key(a), canonical_key(b))
                        for a, b in required)
        if given != wanted:
            last_error = (f"premises do not cover the {rule.direction} "
                          f"observer family exactly")
            continue
        axis = _AXES[rule.direction]
        _side(axis.other(f) == 0 and axis.other(g) == 0, drop,
              "obs.sides-raise-free",
              "state observations need exception-free sides",
              "exception observations need state-blind sides", axis)
        return
    raise PremiseShapeMismatch(last_error)


def _single_factor(axis, term):
    chain = chain_factors(term)
    _shape(len(chain) == 1 and isinstance(chain[0], axis.pair),
           "expected a pairing on its own",
           "expected a case split on its own", axis)
    return chain[0]


def _check_cong(axis, conclusion, premises, theory, drop):
    """pair-cong and its mirror case-cong."""
    _count(premises, 2, "pair-cong", "case-cong", axis)
    p1, p2 = premises
    f, g = axis.parts(_single_factor(axis, conclusion.lhs))
    f2, g2 = axis.parts(_single_factor(axis, conclusion.rhs))
    _shape(_same(p1.lhs, f) and _same(p1.rhs, f2),
           "first premise must relate the first components",
           "first premise must relate the left branches", axis)
    _shape(_same(p2.lhs, g) and _same(p2.rhs, g2),
           "second premise must relate the second components",
           "second premise must relate the right branches", axis)
    if conclusion.mode is Mode.STRONG:
        _shape(p1.mode is Mode.STRONG and p2.mode is Mode.STRONG,
               "a strong pairing congruence needs strong premises",
               "a strong case congruence needs strong premises", axis)
        return
    strong_left = p1.mode is Mode.STRONG
    if strong_left and (p2.mode is Mode.STRONG or not axis.cong_strong_left):
        return
    own, other = axis.own, axis.other
    ok = ((own(g) == 0 and own(g2) == 0) or (own(f) <= 1 and own(f2) <= 1)
          or (strong_left and other(g) == 0 and other(g2) == 0))
    _side(ok, drop, "pair-cong.weak-premise",
          "a weak first premise needs state-blind second components "
          "or state-preserving first components",
          "a weak case congruence needs raise-free right branches, "
          "catch-free left branches, or strongly equal left branches "
          "with state-blind right branches", axis)


def _check_unit_weak(axis, conclusion, premises, theory, drop):
    """unit-weak and its mirror empty-weak."""
    _count(premises, 0, "unit-weak", "empty-weak", axis)
    _shape(conclusion.mode is Mode.WEAK, "unit-weak concludes a weak equation",
           "empty-weak concludes a weak equation", axis)
    f, g = conclusion.lhs, conclusion.rhs
    _shape(axis.tgt(f) == axis.unit and axis.tgt(g) == axis.unit,
           "unit-weak applies to terms into the unit type",
           "empty-weak applies to terms out of the empty type", axis)
    _shape(axis.src(f) == axis.src(g), "unit-weak needs parallel sides",
           "empty-weak needs parallel sides", axis)
    _side(axis.other(f) == 0 and axis.other(g) == 0, drop,
          "unit-weak.sides-raise-free",
          "unit-weak needs exception-free sides",
          "empty-weak needs state-blind sides", axis)


_NTH = ("first", "second")
_SIDE = ("left", "right")


def _projection(axis, conclusion, i):
    """The pairing and the projection `i` (0 or 1) of the left side."""
    chain = axis.order(chain_factors(conclusion.lhs))
    if not (len(chain) == 2 and isinstance(chain[0], axis.pair)
            and isinstance(chain[1], axis.proj[i])):
        raise PremiseShapeMismatch(axis.pick(
            f"left side must be a {_NTH[i]} projection of a pairing",
            f"left side must be a case split after a {_SIDE[i]} injection"))
    return chain


def _kept(axis, conclusion, i, part):
    """The right side must be `part`, the pairing's component `i`."""
    if not _same(conclusion.rhs, part):
        raise PremiseShapeMismatch(axis.pick(
            f"right side must be the pairing's {_NTH[i]} component",
            f"right side must be the case split's {_SIDE[i]} branch"))


def _check_proj_1(axis, conclusion, premises, theory, drop):
    """pair-proj-1 and its mirror case-inj-1."""
    _count(premises, 0, "pair-proj-1", "case-inj-1", axis)
    pair, _ = _projection(axis, conclusion, 0)
    f, g = axis.parts(pair)
    _kept(axis, conclusion, 0, f)
    _side(axis.other(g) == 0, drop, "pair-proj-1.discarded-raise-free",
          "the discarded component must not raise",
          "the skipped branch must be state-blind", axis)
    if conclusion.mode is Mode.STRONG:
        _side(axis.own(g) <= 1, drop,
              "pair-proj-1.strong-discarded-state-preserving",
              "strongly, the discarded component must preserve the state",
              "strongly, the skipped branch must not catch", axis)
        _side(axis.other(f) <= 1, drop, "pair-proj-1.strong-kept-catch-free",
              "strongly, the kept component must not catch",
              "strongly, the kept branch must preserve the state", axis)


def _check_proj_2(axis, conclusion, premises, theory, drop):
    """pair-proj-2 and its mirror case-inj-2."""
    _count(premises, 0, "pair-proj-2", "case-inj-2", axis)
    pair, _ = _projection(axis, conclusion, 1)
    f, g = axis.parts(pair)
    _kept(axis, conclusion, 1, g)
    own, other = axis.own, axis.other
    _side(other(f) == 0, drop, "pair-proj-2.first-raise-free",
          "the first component must not raise",
          "the left branch must be state-blind", axis)
    if conclusion.mode is Mode.STRONG:
        _side(own(f) <= 1, drop, "pair-proj-2.strong-first-state-preserving",
              "strongly, the first component must preserve the state",
              "strongly, the left branch must not catch", axis)
        _side(other(g) <= 1, drop, "pair-proj-2.strong-kept-catch-free",
              "strongly, the kept component must not catch",
              "strongly, the kept branch must preserve the state", axis)
    else:
        _side(own(f) <= 1 or own(g) == 0, drop,
              "pair-proj-2.weak-first-state-preserving-or-second-state-blind",
              "the first component must preserve the state, or the second "
              "must be state-blind",
              "the left branch must not catch, or the right branch must "
              "not raise", axis)


def _check_bang_2(axis, conclusion, premises, theory, drop):
    """pair-bang-2 and its mirror case-absurd-2."""
    _count(premises, 0, "pair-bang-2", "case-absurd-2", axis)
    pair, proj = _projection(axis, conclusion, 1)
    a, discard = axis.parts(pair)
    _shape(isinstance(discard, axis.bang),
           "the pairing's second component must discard into the unit",
           "the case split's right branch must come from the empty type", axis)
    _shape(axis.tgt(a) == axis.unit,
           "the kept component must land in the unit type",
           "the kept branch must start at the empty type", axis)
    _shape(proj.left == axis.unit and proj.right == axis.unit,
           "the projection must be at unit-by-unit",
           "the injection must be at empty-by-empty", axis)
    _kept(axis, conclusion, 0, a)
    _side(axis.other(a) <= 1, drop, "pair-bang-2.kept-catch-free",
          "the kept component must not catch",
          "the kept branch must preserve the state", axis)


def _check_fuse_2(axis, conclusion, premises, theory, drop):
    """pair-fuse-2 and its mirror case-fuse-2."""
    _count(premises, 0, "pair-fuse-2", "case-fuse-2", axis)
    chain = axis.order(chain_factors(conclusion.lhs))
    _shape(len(chain) >= 2 and isinstance(chain[0], axis.pair)
           and isinstance(chain[1], axis.proj[1]),
           "left side must postcompose onto a second projection of a "
           "pairing",
           "left side must precompose into a case split after a right "
           "injection", axis)
    f, g = axis.parts(chain[0])
    h = _rebuild(axis, chain[2:], False, conclusion.lhs, chain[1])
    expected = axis.comp(axis.proj[1](axis.tgt(f), axis.tgt(h)),
                         axis.pair(f, axis.comp(h, g)))
    _shape(_same(conclusion.rhs, expected),
           "right side must move the outer term inside the second component",
           "right side must move the inner term inside the right branch",
           axis)
    if conclusion.mode is Mode.STRONG:
        _side(axis.other(h) <= 1, drop, "pair-fuse-2.strong-moved-catch-free",
              "strongly, the moved term must not catch",
              "strongly, the moved term must preserve the state", axis)
    else:
        _side(axis.other(h) <= 1 or axis.other(f) == 0, drop,
              "pair-fuse-2.weak-moved-catch-free-or-first-raise-free",
              "the moved term must not catch, or the first component must "
              "not raise",
              "the moved term must preserve the state, or the left branch "
              "must be state-blind", axis)


def _check_comp(axis, conclusion, premises, theory, drop):
    """pair-comp and its mirror case-comp."""
    _count(premises, 0, "pair-comp", "case-comp", axis)
    chain = axis.order(chain_factors(conclusion.lhs))
    _shape(len(chain) >= 1 and isinstance(chain[-1], axis.pair),
           "left side must precompose into a pairing",
           "left side must postcompose onto a case split", axis)
    f, g = axis.parts(chain[-1])
    h = _rebuild(axis, chain[:-1], True, conclusion.lhs, chain[-1])
    expected = axis.pair(axis.comp(f, h), axis.comp(g, h))
    _shape(_same(conclusion.rhs, expected),
           "right side must push the inner term into both components",
           "right side must push the outer term into both branches", axis)
    own = axis.own
    _side(axis.other(h) == 0, drop, "pair-comp.inner-raise-free",
          "the shared inner term must not raise",
          "the shared outer term must be state-blind", axis)
    _side(own(h) <= 1, drop, "pair-comp.inner-state-preserving",
          "the shared inner term must preserve the state",
          "the shared outer term must not catch", axis)
    _side(own(h) == 0 or own(f) <= 1, drop,
          "pair-comp.inner-state-blind-or-first-state-preserving",
          "the shared inner term must be state-blind, or the first "
          "component state-preserving",
          "the shared outer term must not raise, or the left branch must "
          "not catch", axis)


RULES = {
    "refl": _check_refl,
    "sym": _check_sym,
    "trans": _check_trans,
    "strong-to-weak": _check_strong_to_weak,
    "subs": partial(_check_subs, STATE),
    "repl": partial(_check_subs, EXC),
    "effect": _check_effect,
    "obs": _check_obs,
    "pair-cong": partial(_check_cong, STATE),
    "case-cong": partial(_check_cong, EXC),
    "unit-weak": partial(_check_unit_weak, STATE),
    "empty-weak": partial(_check_unit_weak, EXC),
    "pair-proj-1": partial(_check_proj_1, STATE),
    "pair-proj-2": partial(_check_proj_2, STATE),
    "case-inj-1": partial(_check_proj_1, EXC),
    "case-inj-2": partial(_check_proj_2, EXC),
    "pair-bang-2": partial(_check_bang_2, STATE),
    "case-absurd-2": partial(_check_bang_2, EXC),
    "pair-fuse-2": partial(_check_fuse_2, STATE),
    "case-fuse-2": partial(_check_fuse_2, EXC),
    "pair-comp": partial(_check_comp, STATE),
    "case-comp": partial(_check_comp, EXC),
}

DUAL_RULE = {rule: dual_name(rule) for rule in ("axiom", *RULES)}


def check_rule(rule: str, conclusion: Equation, premises: list[Equation],
               theory, drop=frozenset()) -> None:
    """Raise a RuleError unless `conclusion` follows from `premises`.
    Side conditions named in `drop` count as met (probe calibration)."""
    checker = RULES.get(rule)
    if checker is None:
        raise UnknownRule(f"unknown rule {rule!r}")
    checker(conclusion, premises, theory, drop)
