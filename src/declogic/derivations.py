"""Hand-built proof scripts for the seven state laws.

Each script is constructed step by step against the rule checker, so a
construction bug fails at build time, not at replay time.  The overall
strategy is observational: reduce both sides under every lookup to a
common weak normal form, then close with the observation rule.  Law 4
is the axiom itself and stays weak; the others conclude strongly.
Each script's goal is its law as `seven_laws` states it.

Scripts for the dual (exceptions) laws come from `dualize_script`, not
from separate constructions.
"""

from __future__ import annotations

from .proofs import ProofScript, ProofStep, check_step
from .terms import (
    Bang,
    Comp,
    Equation,
    Id,
    Mode,
    PairSeq,
    Proj1,
    Proj2,
    seq_then,
)
from .theory import (Theory, TheoryError, law_locations, lookup_op,
                     seven_laws)
from .types import Base, UNIT_T


class ScriptBuilder:
    """Accumulates checked proof steps toward a fixed goal."""

    def __init__(self, theory: Theory, goal: Equation):
        self.theory = theory
        self.goal = goal
        self._steps: list[ProofStep] = []
        self._earlier: list[Equation] = []

    def add(self, rule: str, premises, mode: Mode, lhs, rhs) -> int:
        step = ProofStep(rule, tuple(premises), Equation(mode, lhs, rhs))
        check_step(step, self._earlier, self.theory)
        self._steps.append(step)
        self._earlier.append(step.conclusion)
        return len(self._steps)

    def eq(self, index: int) -> Equation:
        return self._earlier[index - 1]

    def axiom(self, label: str) -> int:
        ax = self.theory.axioms[label]
        return self.add("axiom", [label], ax.mode, ax.lhs, ax.rhs)

    def refl(self, term) -> int:
        return self.add("refl", [], Mode.STRONG, term, term)

    def sym(self, index: int) -> int:
        p = self.eq(index)
        return self.add("sym", [index], p.mode, p.rhs, p.lhs)

    def trans(self, first: int, second: int) -> int:
        a, b = self.eq(first), self.eq(second)
        return self.add("trans", [first, second], a.mode, a.lhs, b.rhs)

    def s2w(self, index: int) -> int:
        p = self.eq(index)
        return self.add("strong-to-weak", [index], Mode.WEAK, p.lhs, p.rhs)

    def subs(self, index: int, inner) -> int:
        p = self.eq(index)
        return self.add("subs", [index], p.mode,
                        Comp(p.lhs, inner), Comp(p.rhs, inner))

    def repl(self, index: int, outer) -> int:
        p = self.eq(index)
        return self.add("repl", [index], p.mode,
                        Comp(outer, p.lhs), Comp(outer, p.rhs))

    def effect(self, index: int) -> int:
        p = self.eq(index)
        return self.add("effect", [index], Mode.STRONG, p.lhs, p.rhs)

    def unit_weak(self, lhs, rhs) -> int:
        return self.add("unit-weak", [], Mode.WEAK, lhs, rhs)

    def pair_cong(self, first: int, second: int) -> int:
        a, b = self.eq(first), self.eq(second)
        mode = (Mode.STRONG
                if a.mode is Mode.STRONG and b.mode is Mode.STRONG
                else Mode.WEAK)
        return self.add("pair-cong", [first, second], mode,
                        PairSeq(a.lhs, b.lhs), PairSeq(a.rhs, b.rhs))

    def script(self) -> ProofScript:
        return ProofScript(self.goal, tuple(self._steps))


def _discard_lemma(b: ScriptBuilder, location: str) -> int:
    """bang . lookup == id at unit, strongly (read then discard is a no-op)."""
    lookup = lookup_op(b.theory, location)
    weak = b.unit_weak(Comp(Bang(lookup.target), lookup), Id(UNIT_T))
    return b.effect(weak)


def _law1_script(theory: Theory, goal: Equation, i: str,
                 j: str | None) -> ProofScript:
    lookup = lookup_op(theory, i)
    b = ScriptBuilder(theory, goal)
    ax1 = b.axiom(f"st_ax1_{i}")
    premises = {i: b.subs(ax1, lookup)}
    others = [k for k in theory.locations if k != i]
    if others:
        discard = _discard_lemma(b, i)
        for k in others:
            obs_k = lookup_op(theory, k)
            ax2 = b.axiom(f"st_ax2_{i}_{k}")
            left = b.subs(ax2, lookup)
            right = b.s2w(b.repl(discard, obs_k))
            premises[k] = b.trans(left, right)
    b.add("obs", [premises[k] for k in theory.locations],
          Mode.STRONG, goal.lhs, goal.rhs)
    return b.script()


def _law2_script(theory: Theory, goal: Equation, i: str,
                 j: str | None) -> ProofScript:
    b = ScriptBuilder(theory, goal)
    b.sym(b.add("pair-comp", [], Mode.STRONG, goal.rhs, goal.lhs))
    return b.script()


def _law4_script(theory: Theory, goal: Equation, i: str,
                 j: str | None) -> ProofScript:
    b = ScriptBuilder(theory, goal)
    b.axiom(f"st_ax1_{i}")
    return b.script()


def _law5_script(theory: Theory, goal: Equation, i: str, j: str) -> ProofScript:
    lookup_i, lookup_j = goal.lhs.first, goal.lhs.second
    v_i, v_j = lookup_i.target, lookup_j.target
    both = goal.rhs.inner  # the goal's right side is swap . both
    b = ScriptBuilder(theory, goal)
    pushed = b.add("pair-comp", [], Mode.STRONG, goal.rhs,
                   PairSeq(Comp(Proj2(v_j, v_i), both),
                           Comp(Proj1(v_j, v_i), both)))
    second = b.add("pair-proj-2", [], Mode.STRONG,
                   Comp(Proj2(v_j, v_i), both), lookup_i)
    first = b.add("pair-proj-1", [], Mode.STRONG,
                  Comp(Proj1(v_j, v_i), both), lookup_j)
    fixed = b.pair_cong(second, first)
    b.sym(b.trans(pushed, fixed))
    return b.script()


def _reduce_write_after(b: ScriptBuilder, k: str, written: str, proj) -> int:
    """Weakly reduce lookup_k . update_written . proj to its residue.

    The residue is `proj` when k is the written location (the read sees
    the write) and lookup_k . bang otherwise (the write is invisible).
    """
    obs_k = lookup_op(b.theory, k)
    if k == written:
        ax1 = b.axiom(f"st_ax1_{written}")
        return b.subs(ax1, proj)
    ax2 = b.axiom(f"st_ax2_{written}_{k}")
    left = b.subs(ax2, proj)
    narrow = b.unit_weak(Comp(Bang(Base(b.theory.locations[written])), proj),
                         Bang(proj.source))
    widened = b.s2w(b.repl(b.effect(narrow), obs_k))
    return b.trans(left, widened)


def _reduce_observed_sequence(b: ScriptBuilder, k: str, first, first_loc: str,
                              second, second_loc: str) -> int:
    """Weakly reduce lookup_k . seq_then(first, second) to a residue.

    `first` and `second` are update_<loc> . <proj> out of one source.
    The residue is a projection when k is one of the written locations
    and lookup_k . bang otherwise, matching `_reduce_write_after`.
    """
    first_proj, second_proj = first.inner, second.inner
    source = first.source
    obs_k = lookup_op(b.theory, k)
    v_k = obs_k.target
    sequenced = seq_then(first, second)
    fused = b.s2w(b.add(
        "pair-fuse-2", [], Mode.STRONG,
        Comp(obs_k, sequenced),
        Comp(Proj2(UNIT_T, v_k), PairSeq(first, Comp(obs_k, second)))))
    slot = _reduce_write_after(b, k, second_loc, second_proj)
    keep_first = b.refl(first)
    paired = b.pair_cong(keep_first, slot)
    outer = b.repl(paired, Proj2(UNIT_T, v_k))
    reduced = b.trans(fused, outer)
    if k == second_loc:
        dropped = b.add("pair-proj-2", [], Mode.WEAK,
                        Comp(Proj2(UNIT_T, v_k),
                             PairSeq(first, second_proj)),
                        second_proj)
        return b.trans(reduced, dropped)
    unfused = b.s2w(b.sym(b.add(
        "pair-fuse-2", [], Mode.STRONG,
        Comp(obs_k, Comp(Proj2(UNIT_T, UNIT_T), PairSeq(first, Bang(source)))),
        Comp(Proj2(UNIT_T, v_k), PairSeq(first, Comp(obs_k, Bang(source)))))))
    regrouped = b.trans(reduced, unfused)
    erased = b.repl(b.add("pair-bang-2", [], Mode.STRONG,
                          Comp(Proj2(UNIT_T, UNIT_T),
                               PairSeq(first, Bang(source))),
                          first),
                    obs_k)
    onto_first = b.trans(regrouped, b.s2w(erased))
    tail = _reduce_write_after(b, k, first_loc, first_proj)
    return b.trans(onto_first, tail)


def _law3_script(theory: Theory, goal: Equation, i: str,
                 j: str | None) -> ProofScript:
    sequenced = goal.lhs.inner  # the goal is seq_then(first, second) = second
    first, second = sequenced.first, sequenced.second
    b = ScriptBuilder(theory, goal)
    premises = []
    for k in theory.locations:
        left = _reduce_observed_sequence(b, k, first, i, second, i)
        right = _reduce_write_after(b, k, i, second.inner)
        premises.append(b.trans(left, b.sym(right)))
    b.add("obs", premises, Mode.STRONG, goal.lhs, goal.rhs)
    return b.script()


def _law6_script(theory: Theory, goal: Equation, i: str, j: str) -> ProofScript:
    sequenced = goal.lhs.inner  # the left side is seq_then(write_i, write_j)
    write_i, write_j = sequenced.first, sequenced.second
    b = ScriptBuilder(theory, goal)
    premises = []
    for k in theory.locations:
        left = _reduce_observed_sequence(b, k, write_i, i, write_j, j)
        right = _reduce_observed_sequence(b, k, write_j, j, write_i, i)
        premises.append(b.trans(left, b.sym(right)))
    b.add("obs", premises, Mode.STRONG, goal.lhs, goal.rhs)
    return b.script()


def _law7_script(theory: Theory, goal: Equation, i: str, j: str) -> ProofScript:
    lookup_j, update_i = goal.lhs.outer, goal.lhs.inner
    v_j = lookup_j.target
    pair = goal.rhs.inner  # the goal's right side is proj1 . pair
    blind_read = pair.first
    b = ScriptBuilder(theory, goal)
    ax2 = b.axiom(f"st_ax2_{i}_{j}")
    kept = b.add("pair-proj-1", [], Mode.WEAK,
                 goal.rhs, blind_read)
    value_sides = b.trans(ax2, b.sym(kept))
    premises = [value_sides]
    for k in theory.locations:
        obs_k = lookup_op(theory, k)
        read_then_drop = b.effect(b.unit_weak(Comp(Bang(v_j), lookup_j),
                                              Id(UNIT_T)))
        left = b.subs(b.repl(read_then_drop, obs_k), update_i)
        drop_first = b.effect(b.unit_weak(Comp(Bang(v_j), Proj1(v_j, UNIT_T)),
                                          Proj2(v_j, UNIT_T)))
        swapped = b.subs(drop_first, pair)
        kept_write = b.add("pair-proj-2", [], Mode.STRONG,
                           Comp(Proj2(v_j, UNIT_T), pair), update_i)
        right = b.repl(b.trans(swapped, kept_write), obs_k)
        premises.append(b.s2w(b.trans(left, b.sym(right))))
    b.add("obs", premises, Mode.STRONG, goal.lhs, goal.rhs)
    return b.script()


_LAW_SCRIPTS = {1: _law1_script, 2: _law2_script, 3: _law3_script,
                4: _law4_script, 5: _law5_script, 6: _law6_script,
                7: _law7_script}


def law_script(theory: Theory, number: int, i: str | None = None,
               j: str | None = None) -> ProofScript:
    """A checked proof script for law `number` of `seven_laws(theory, i, j)`."""
    if number not in _LAW_SCRIPTS:
        raise TheoryError(f"there is no law {number}")
    i, j = law_locations(theory, i, j)
    laws = seven_laws(theory, i, j)
    if number > len(laws):
        raise TheoryError(f"law {number} needs two locations")
    return _LAW_SCRIPTS[number](theory, laws[number - 1], i, j)


def all_law_scripts(theory: Theory) -> dict[str, ProofScript]:
    """Scripts for every law instance over every (ordered) location pair."""
    scripts: dict[str, ProofScript] = {}
    names = list(theory.locations)
    for i in names:
        for number in (1, 2, 3, 4):
            scripts[f"law{number}@{i}"] = law_script(theory, number, i)
        for j in names:
            if j == i:
                continue
            for number in (5, 6, 7):
                scripts[f"law{number}@{i},{j}"] = law_script(theory, number,
                                                             i, j)
    return scripts
