"""Randomized soundness probes for the inference rules.

A probe repeatedly builds a candidate proof step for one rule: random
premises that hold in a finite model by construction, and a conclusion
assembled from the rule's schema.  When the checker accepts the step,
the conclusion is re-checked against the model; a model refutation of
an accepted step is a soundness violation and means a rule's side
conditions are too weak.  Rejected and unbuildable candidates still
count toward the sample budget, they just cannot witness anything: a
sampler with nothing to draw raises `NoCandidate`, as a checker raises
`RuleError` on a step it refuses, and the probe counts a skip.

`UNSOUND_VARIANTS` is the calibration: each variant names side
conditions (see `declogic.rules`) that the probe drops from the real
checker, and probing that broken rule over a flavor where the dropped
condition matters must find a violation quickly, which shows the probe
generator actually reaches the dangerous corner of each rule.  A
dropped condition can be vacuous in a flavor (state conditions never
bite without state), so each variant names the flavors where
detection is expected.

Premise pools mix seeded terms (readers, writers, throwers, catchers,
and their weakly-but-not-strongly equal combinations) with random
terms, bucketed by their full and by their value-only behavior tables
so that equal pairs of either strength can be drawn directly.

Those tables (`declogic.model.Tables`, over every state) also answer
every model check: each side of a check is composed from the tables of
the pool members and the operations inside it, and its first differing
position is the check's counterexample.  The rules are sound only where
operations keep their decorations, so a context refuses a model that
`validate_model` rejects; in any other, every outcome of a declared
operation is a point of its target.

Each mirror pair of samplers is written once, as the checkers in
`declogic.rules` are: in the pair/state reading, run over `STATE` or
`EXC`, with `_arrow` turning each drawn arrow around on `EXC`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import partial
from typing import Callable

from .generate import GenerationError, random_term, type_pool
from .model import (
    Counterexample,
    FiniteModel,
    ModelError,
    Tables,
    check_eq,  # unused here, but perfbench traces checks through this binding
    enumerate_points,
    eval_term,  # likewise; op tables evaluate through `declogic.model`'s
    validate_model,
)
from .record import Record
from .rules import (EXC, RULES, STATE, Axis, RuleError, SideConditionViolated,
                    _obs_family, check_rule, dual_name)
from .terms import Absurd, Bang, Comp, Const, DecoratedTerm, Equation, Id, Mode, Op
from .syntax import print_type
from .theory import Theory, lookup_op, tag_op, untag_op, update_op
from .types import UNIT_T, ObjType


class NoCandidate(Exception):
    """A sampler has nothing to draw: a pool is empty, or the theory
    lacks what the rule's schema needs."""


class ProbeViolation(Record):
    """An accepted step (`rule`, its `premises`) whose `conclusion` the
    model refutes at `counterexample`."""

    __slots__ = ("rule", "premises", "conclusion", "counterexample")


class ProbeReport(Record):
    """Counts of one rule's probe, and the `violations` it found.
    `rejected_by` counts rejections per `SideConditionViolated.condition`,
    in first-seen order."""

    __slots__ = ("rule", "samples", "accepted", "rejected", "skipped",
                 "violations", "rejected_by")
    _defaults = {"rejected_by": dict}

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        verdict = "sound" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (f"{self.rule}: {verdict} over {self.samples} samples "
                f"({self.accepted} accepted, {self.rejected} rejected, "
                f"{self.skipped} skipped)")


def _seed_terms(theory: Theory, model: FiniteModel) -> list[DecoratedTerm]:
    """Handcrafted pool members guaranteeing interesting buckets.

    Includes, wherever the theory supports them, pairs that are weakly
    but not strongly equal: two writers of different values, a
    read-back writer against the identity, a catcher-reverted raise
    against the identity, and write-then-throw with two different
    writes.
    """
    seeds: list[DecoratedTerm] = []
    for ty in type_pool(theory):
        seeds.append(Id(ty))
        seeds.append(Bang(ty))
        for p in enumerate_points(ty, model):
            seeds.append(Const(p, ty))
            seeds.append(Comp(Const(p, ty), Bang(ty)))
    for loc in theory.locations:
        base = theory.base_type(loc)
        look, upd = lookup_op(theory, loc), update_op(theory, loc)
        seeds += [look, upd, Comp(upd, look), Comp(look, upd)]
        for p in enumerate_points(base, model):
            seeds.append(Comp(upd, Const(p, base)))
    for exc in theory.exceptions:
        base = theory.base_type(exc)
        tag, untag = tag_op(theory, exc), untag_op(theory, exc)
        seeds += [tag, untag, Comp(untag, tag), Comp(Absurd(base), tag)]
        for p in enumerate_points(base, model):
            seeds.append(Comp(Absurd(UNIT_T), Comp(tag, Const(p, base))))
    for loc in theory.locations:
        vbase = theory.base_type(loc)
        for exc in theory.exceptions:
            ebase = theory.base_type(exc)
            epoints = enumerate_points(ebase, model)
            if not epoints:
                continue
            thrower = Comp(Absurd(UNIT_T),
                           Comp(tag_op(theory, exc), Const(epoints[0], ebase)))
            for p in enumerate_points(vbase, model):
                writer = Comp(update_op(theory, loc), Const(p, vbase))
                seeds.append(Comp(thrower, writer))
    return list(dict.fromkeys(seeds))


# Each pool of terms of one type pair draws this many random terms of at
# most this depth, besides the seed terms.
_RANDOMS_PER_POOL = 10
_RANDOM_DEPTH = 3


class _Pool(Record):
    """The terms of one type pair, grouped to draw equal pairs from:
    `members`; `classes`, the members by full behavior (`Mode.STRONG`)
    and by values alone (`Mode.WEAK`); and `weak_splits`, each weak
    class split by full behavior, for `weak_only_pair`."""

    __slots__ = ("members", "classes", "weak_splits")


class ProbeContext(Tables):
    """Shared pools and behavior tables for one theory and a model that
    satisfies it, else `ModelError` with `validate_model`'s problems."""

    def __init__(self, theory: Theory, model: FiniteModel,
                 rng: random.Random) -> None:
        problems = validate_model(model, theory)
        if problems:
            raise ModelError(f"model fails its theory: {'; '.join(problems[:3])}")
        super().__init__(model, model.states)
        self.theory = theory
        self.rng = rng
        self.types: list[ObjType] = type_pool(theory)
        self._seeds = _seed_terms(theory, model)
        self._pools: dict[tuple[ObjType, ObjType], _Pool] = {}
        self._pairs = [(s, t) for s in self.types for t in self.types]

    # Bound here as well, as perfbench traces probe tables by this binding.
    tables = Tables.tables

    def _leaf(self, t: DecoratedTerm) -> tuple:
        if type(t) is Op and self.theory.signature.get(t.symbol.name) != t.symbol:
            raise ValueError(f"operation {t.symbol.name!r} is not "
                             "one the theory declares")
        return super()._leaf(t)

    def check(self, eq: Equation) -> Counterexample | None:
        """`check_eq` on `eq` in this context's model, answered from the
        tables of its sides.  Raises ValueError when the sides differ in
        type, or as `tables` does."""
        lhs, rhs = eq.lhs, eq.rhs
        if lhs.source is not rhs.source or lhs.target is not rhs.target:
            raise ValueError("sides differ in type: " + " and ".join(
                f"{print_type(t.source)} -> {print_type(t.target)}" for t in (lhs, rhs)))
        return self.difference(lhs, self.tables(lhs), self.tables(rhs),
                               eq.mode is Mode.STRONG)

    def pool(self, src: ObjType, tgt: ObjType) -> list[DecoratedTerm]:
        return self._pool_for(src, tgt).members

    def _pool_for(self, src: ObjType, tgt: ObjType) -> _Pool:
        pool = self._pools.get((src, tgt))
        if pool is not None:
            return pool
        members = [t for t in self._seeds
                   if t.source == src and t.target == tgt]
        for _ in range(_RANDOMS_PER_POOL):
            try:
                members.append(random_term(self.rng, self.theory, self.model,
                                           src, tgt, _RANDOM_DEPTH))
            except GenerationError:
                continue
        members = list(dict.fromkeys(members))
        keys = [self._keys(t, self.tables(t)) for t in members]
        self._tables.update((id(t), (t, key[0])) for t, key in zip(members, keys))
        strong: dict = defaultdict(list)
        weak: dict = defaultdict(list)
        splits: dict = defaultdict(lambda: defaultdict(list))
        for t, (skey, wkey) in zip(members, keys):
            strong[skey].append(t)
            weak[wkey].append(t)
            splits[wkey][skey].append(t)
        pool = self._pools[(src, tgt)] = _Pool(
            members, {Mode.STRONG: strong, Mode.WEAK: weak},
            [list(by_strong.values()) for by_strong in splits.values()])
        return pool

    def _keys(self, t: DecoratedTerm, table: tuple) -> tuple:
        """(full behavior key, value-only key) of a member from its table:
        the table, and the value at each ordinary point."""
        (n, o), (m, _) = self._width(t.source), self._width(t.target)
        return table, tuple(p % m for i, p in enumerate(table) if i % n < o)

    def rand(self, src: ObjType, tgt: ObjType,
             prefer_effectful: bool = False) -> DecoratedTerm:
        pool = self.pool(src, tgt)
        if not pool:
            raise NoCandidate
        if prefer_effectful:
            ranked = sorted(pool, key=lambda t: (t.decoration.state
                                                 + t.decoration.exc),
                            reverse=True)
            return self.rng.choice(ranked[:3])
        return self.rng.choice(pool)

    def some_type(self) -> ObjType:
        return self.rng.choice(self.types)

    def mode(self) -> Mode:
        return self.rng.choice((Mode.STRONG, Mode.WEAK))

    def equal_pair(self, src: ObjType, tgt: ObjType, mode: Mode):
        """Two pool members equal at `mode` in the model."""
        pool = self._pool_for(src, tgt)
        if not pool.members:
            raise NoCandidate
        rich = [cls for cls in pool.classes[mode].values() if len(cls) >= 2]
        if rich:
            cls = self.rng.choice(rich)
            return tuple(self.rng.sample(cls, 2))
        t = self.rng.choice(pool.members)
        return (t, t)

    def weak_only_pair(self, src: ObjType, tgt: ObjType):
        """A weakly equal pair with different full behavior, else None."""
        splits = list(self._pool_for(src, tgt).weak_splits)
        self.rng.shuffle(splits)
        for groups in splits:
            if len(groups) >= 2:
                g1, g2 = self.rng.sample(groups, 2)
                return self.rng.choice(g1), self.rng.choice(g2)
        return None

    def pair_anywhere(self, mode: Mode, prefer_weak_only: bool = False):
        """(f, g) equal at `mode` over randomly drawn types."""
        if (prefer_weak_only and mode is Mode.WEAK
                and self.rng.random() < 0.7):
            order = list(self._pairs)
            self.rng.shuffle(order)
            for src, tgt in order:
                found = self.weak_only_pair(src, tgt)
                if found is not None:
                    return found
        return self.equal_pair(*self.rng.choice(self._pairs), mode)


# ---------------------------------------------------------------------------
# Per-rule candidate samplers


def _s_refl(ctx):
    t = ctx.rand(ctx.some_type(), ctx.some_type())
    return [], Equation(ctx.mode(), t, t)


def _s_sym(ctx):
    mode = ctx.mode()
    f, g = ctx.pair_anywhere(mode)
    return [Equation(mode, f, g)], Equation(mode, g, f)


def _s_trans(ctx):
    mode = ctx.mode()
    classes = ctx._pool_for(*ctx.rng.choice(ctx._pairs)).classes[mode]
    if not classes:
        raise NoCandidate
    cls = ctx.rng.choice(list(classes.values()))
    f, g, h = (ctx.rng.choice(cls) for _ in range(3))
    return ([Equation(mode, f, g), Equation(mode, g, h)],
            Equation(mode, f, h))


def _s_strong_to_weak(ctx):
    f, g = ctx.pair_anywhere(Mode.STRONG)
    return [Equation(Mode.STRONG, f, g)], Equation(Mode.WEAK, f, g)


def _s_effect(ctx):
    f, g = ctx.pair_anywhere(Mode.WEAK, prefer_weak_only=True)
    return [Equation(Mode.WEAK, f, g)], Equation(Mode.STRONG, f, g)


def _s_obs(ctx):
    if not ctx.theory.obs_rules:
        raise NoCandidate
    rule = ctx.rng.choice(ctx.theory.obs_rules)
    f, g = ctx.pair_anywhere(Mode.WEAK, prefer_weak_only=True)
    premises = [Equation(Mode.WEAK, l, r) for l, r in _obs_family(rule, f, g)]
    return premises, Equation(Mode.STRONG, f, g)


def _arrow(axis: Axis, a: ObjType, b: ObjType) -> tuple[ObjType, ObjType]:
    """(source, target) of the arrow a -> b of the pair/state reading."""
    return (b, a) if axis.flipped else (a, b)


def _s_subs(axis, ctx):
    mode = ctx.mode()
    f, g = ctx.pair_anywhere(mode, prefer_weak_only=True)
    h = ctx.rand(*_arrow(axis, ctx.some_type(), axis.src(f)),
                 prefer_effectful=ctx.rng.random() < 0.5)
    return ([Equation(mode, f, g)],
            Equation(mode, axis.comp(f, h), axis.comp(g, h)))


def _s_cong(axis, ctx):
    a, b, c = ctx.some_type(), ctx.some_type(), ctx.some_type()
    m1, m2 = ctx.mode(), ctx.mode()
    f, f2 = ctx.equal_pair(*_arrow(axis, a, b), m1)
    g, g2 = ctx.equal_pair(*_arrow(axis, a, c), m2)
    both_strong = m1 is Mode.STRONG and m2 is Mode.STRONG
    cmode = Mode.STRONG if both_strong and ctx.rng.random() < 0.7 else Mode.WEAK
    return ([Equation(m1, f, f2), Equation(m2, g, g2)],
            Equation(cmode, axis.pair(f, g), axis.pair(f2, g2)))


def _s_unit_weak(axis, ctx):
    if axis.unit not in ctx.types:
        raise NoCandidate
    arrow = _arrow(axis, ctx.some_type(), axis.unit)
    return [], Equation(Mode.WEAK, ctx.rand(*arrow), ctx.rand(*arrow))


def _s_proj(axis, ctx, i):
    """Projection `i` (0 or 1) of a pairing; the discarded component is
    the one drawn effectful."""
    a, b, c = ctx.some_type(), ctx.some_type(), ctx.some_type()
    kept = ctx.rand(*_arrow(axis, a, b))
    discarded = ctx.rand(*_arrow(axis, a, c),
                         prefer_effectful=ctx.rng.random() < 0.5)
    parts = (kept, discarded) if i == 0 else (discarded, kept)
    proj = axis.proj[i](*map(axis.tgt, parts))
    lhs = axis.comp(proj, axis.pair(*parts))
    return [], Equation(ctx.mode(), lhs, kept)


def _s_bang_2(axis, ctx):
    if axis.unit not in ctx.types:
        raise NoCandidate
    a = ctx.some_type()
    kept = ctx.rand(*_arrow(axis, a, axis.unit),
                    prefer_effectful=ctx.rng.random() < 0.5)
    lhs = axis.comp(axis.proj[1](axis.unit, axis.unit),
                    axis.pair(kept, axis.bang(a)))
    return [], Equation(ctx.mode(), lhs, kept)


def _s_fuse_2(axis, ctx):
    a, b, c, d = (ctx.some_type() for _ in range(4))
    f = ctx.rand(*_arrow(axis, a, b),
                 prefer_effectful=ctx.rng.random() < 0.5)
    g = ctx.rand(*_arrow(axis, a, c))
    h = ctx.rand(*_arrow(axis, c, d),
                 prefer_effectful=ctx.rng.random() < 0.5)
    lhs = axis.comp(h, axis.comp(axis.proj[1](axis.tgt(f), axis.tgt(g)),
                                 axis.pair(f, g)))
    rhs = axis.comp(axis.proj[1](axis.tgt(f), axis.tgt(h)),
                    axis.pair(f, axis.comp(h, g)))
    return [], Equation(ctx.mode(), lhs, rhs)


def _s_comp(axis, ctx):
    a, b, c, d = (ctx.some_type() for _ in range(4))
    f = ctx.rand(*_arrow(axis, a, b),
                 prefer_effectful=ctx.rng.random() < 0.5)
    g = ctx.rand(*_arrow(axis, a, c))
    h = ctx.rand(*_arrow(axis, d, a),
                 prefer_effectful=ctx.rng.random() < 0.5)
    lhs = axis.comp(axis.pair(f, g), h)
    rhs = axis.pair(axis.comp(f, h), axis.comp(g, h))
    return [], Equation(ctx.mode(), lhs, rhs)


_MIRRORED: dict[str, Callable] = {
    "subs": _s_subs,
    "pair-cong": _s_cong,
    "unit-weak": _s_unit_weak,
    "pair-proj-1": partial(_s_proj, i=0),
    "pair-proj-2": partial(_s_proj, i=1),
    "pair-bang-2": _s_bang_2,
    "pair-fuse-2": _s_fuse_2,
    "pair-comp": _s_comp,
}

_SAMPLERS: dict[str, Callable] = {
    "refl": _s_refl,
    "sym": _s_sym,
    "trans": _s_trans,
    "strong-to-weak": _s_strong_to_weak,
    "effect": _s_effect,
    "obs": _s_obs,
    **{name: partial(sampler, STATE) for name, sampler in _MIRRORED.items()},
    **{dual_name(name): partial(sampler, EXC)
       for name, sampler in _MIRRORED.items()},
}

assert set(_SAMPLERS) == set(RULES)


def soundness_probe(rule: str, theory: Theory, model: FiniteModel,
                    samples: int = 200, seed: int = 0,
                    drop: frozenset[str] = frozenset(),
                    context: ProbeContext | None = None) -> ProbeReport:
    """Probe one rule; the side conditions named in `drop` count as met,
    which is how the broken variants are made.  A given `context` must
    be over `theory` and `model` themselves, or ValueError is raised."""
    sampler = _SAMPLERS.get(rule)
    if sampler is None:
        raise ValueError(f"no sampler for rule {rule!r}")
    if context and (context.theory is not theory or context.model is not model):
        raise ValueError("the probe context is over another theory or model")
    ctx = context or ProbeContext(theory, model,
                                  random.Random(f"{seed}:{rule}:{theory.flavor}"))
    accepted = rejected = skipped = 0
    rejected_by: dict[str, int] = {}
    violations: list[ProbeViolation] = []
    for _ in range(samples):
        try:
            premises, conclusion = sampler(ctx)
            if any(ctx.check(p) is not None for p in premises):
                raise NoCandidate
        except NoCandidate:
            skipped += 1
            continue
        try:
            check_rule(rule, conclusion, premises, theory, drop)
        except RuleError as err:
            rejected += 1
            if isinstance(err, SideConditionViolated):
                rejected_by[err.condition] = rejected_by.get(err.condition, 0) + 1
            continue
        accepted += 1
        cex = ctx.check(conclusion)
        if cex is not None:
            violations.append(ProbeViolation(rule, tuple(premises),
                                             conclusion, cex))
    return ProbeReport(rule, samples, accepted, rejected, skipped,
                       tuple(violations), rejected_by)


def probe_all(theory: Theory, model: FiniteModel, samples: int = 200,
              seed: int = 0) -> dict[str, ProbeReport]:
    """Probe every rule over one shared pool context."""
    ctx = ProbeContext(theory, model,
                       random.Random(f"{seed}:{theory.flavor}"))
    return {rule: soundness_probe(rule, theory, model, samples=samples,
                                  seed=seed, context=ctx)
            for rule in RULES}


# ---------------------------------------------------------------------------
# Deliberately broken checkers, for calibrating the probes


class ProbeVariant(Record):
    """A rule with named side conditions dropped (`drops`), and the
    flavors where that matters."""

    __slots__ = ("rule", "flavors", "note", "drops")


UNSOUND_VARIANTS: dict[str, ProbeVariant] = {
    "repl_weak_any_h": ProbeVariant(
        "repl", ("states", "combined"),
        "a state-reading outer term sees the state drift a weak "
        "equation permits",
        ("repl.weak-outer-state-blind",)),
    "subs_weak_any_h": ProbeVariant(
        "subs", ("exceptions", "combined"),
        "a raising inner term feeds exceptional inputs a weak equation "
        "says nothing about",
        ("subs.weak-inner-raise-free",)),
    "effect_any_decoration": ProbeVariant(
        "effect", ("states", "exceptions", "combined"),
        "modifiers and catchers can differ invisibly to weak equality",
        ("effect.sides-bounded",)),
    "pair_proj_1_keeps_raising": ProbeVariant(
        "pair-proj-1", ("exceptions", "combined"),
        "a raising discarded component aborts the pairing the right "
        "side never runs",
        ("pair-proj-1.discarded-raise-free",)),
    "obs_ignores_purity": ProbeVariant(
        "obs", ("combined",),
        "state observers cannot see past a raise, so raising sides "
        "smuggle state differences through the family",
        ("obs.sides-raise-free", "obs.sides-state-blind")),
}


def probe_variant(name: str, theory: Theory, model: FiniteModel,
                  samples: int = 200, seed: int = 0) -> ProbeReport:
    """Probe a rule with a variant's conditions dropped; expects
    violations on its listed flavors."""
    variant = UNSOUND_VARIANTS[name]
    ctx = ProbeContext(theory, model,
                       random.Random(f"{seed}:{name}:{theory.flavor}"))
    return soundness_probe(variant.rule, theory, model, samples=samples,
                           seed=seed, drop=frozenset(variant.drops),
                           context=ctx)
