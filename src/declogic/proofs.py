"""Proof scripts: explicit step-by-step derivations, checked not searched.

A script names a goal equation and a numbered list of steps.  Every
step cites a rule, the earlier steps or axiom labels it uses, and the
equation it concludes; the checker replays each step against the rule
table and finally requires the last step to subsume the goal (a strong
conclusion proves a weak goal, never the reverse).

The text format is line-based:

    goal strong comp(op(update_x), op(lookup_x)) = id(unit)
    step 1: axiom [st_ax1_x] |- weak comp(op(lookup_x), op(update_x)) = id(V)
    step 2: subs [1] |- weak ... = ...

Premise lists hold step numbers or axiom labels.  The turnstile is
printed as "|-" and "⊢" is accepted.  Comments start with "#".
"""

from __future__ import annotations

from .record import Record, set_field
from .rules import DUAL_RULE, RuleError, PremiseShapeMismatch, UnknownRule, check_rule
# `parse_term` stays bound here, where perfbench traces term parses.
from .syntax import ParseError, parse_term, print_lines, read_lines  # noqa: F401
from .terms import Equation, Mode, canonical_key
from .theory import Theory, _dual_label, dual_symbol_map, dualize_equation


class ProofStep(Record):
    """A `rule` applied to `premises` (step numbers or axiom labels)."""

    __slots__ = ("rule", "premises", "conclusion")

    def __init__(self, rule: str, premises: tuple[int | str, ...],
                 conclusion: Equation) -> None:
        set_field(self, "rule", rule)
        set_field(self, "premises", premises)
        set_field(self, "conclusion", conclusion)


class ProofScript(Record):
    __slots__ = ("goal", "steps")


class ScriptReport(Record):
    """`errors` holds (step number, message) pairs, 0 for the goal."""

    __slots__ = ("ok", "errors")
    _defaults = {"errors": tuple}

    def describe(self) -> str:
        if self.ok:
            return "accepted"
        lines = []
        for step_no, message in self.errors:
            where = f"step {step_no}" if step_no else "goal"
            lines.append(f"rejected at {where}: {message}")
        return "\n".join(lines)


def check_step(step: ProofStep, earlier: list[Equation], theory: Theory) -> None:
    """Raise a RuleError unless the step is a valid inference.

    `earlier` holds the conclusions of the preceding steps, in order;
    numeric premises index into it (1-based).
    """
    if step.rule == "axiom":
        if len(step.premises) != 1 or not isinstance(step.premises[0], str):
            raise PremiseShapeMismatch("axiom cites exactly one label")
        label = step.premises[0]
        ax = theory.axioms.get(label)
        if ax is None:
            raise PremiseShapeMismatch(f"theory has no axiom {label!r}")
        if step.conclusion.mode is not ax.mode:
            raise PremiseShapeMismatch(f"axiom {label} is {ax.mode.value}")
        if (canonical_key(step.conclusion.lhs) != canonical_key(ax.lhs)
                or canonical_key(step.conclusion.rhs) != canonical_key(ax.rhs)):
            raise PremiseShapeMismatch(
                f"conclusion does not match axiom {label}")
        return
    resolved = []
    for ref in step.premises:
        if isinstance(ref, str):
            raise PremiseShapeMismatch(
                f"only the axiom rule cites labels, got {ref!r}")
        if not 1 <= ref <= len(earlier):
            raise PremiseShapeMismatch(f"premise {ref} is not an earlier step")
        resolved.append(earlier[ref - 1])
    check_rule(step.rule, step.conclusion, resolved, theory)


def check_script(script: ProofScript, theory: Theory) -> ScriptReport:
    """Replay every step; collect rule violations instead of stopping."""
    errors: list[tuple[int, str]] = []
    earlier: list[Equation] = []
    for number, step in enumerate(script.steps, start=1):
        try:
            check_step(step, earlier, theory)
        except RuleError as err:
            errors.append((number, str(err)))
        earlier.append(step.conclusion)
    if not script.steps:
        errors.append((0, "script has no steps"))
    else:
        last = script.steps[-1].conclusion
        goal = script.goal
        if (canonical_key(last.lhs) != canonical_key(goal.lhs)
                or canonical_key(last.rhs) != canonical_key(goal.rhs)):
            errors.append((0, "last step does not conclude the goal"))
        elif goal.mode is Mode.STRONG and last.mode is Mode.WEAK:
            errors.append((0, "goal is strong but the last step is weak"))
    return ScriptReport(ok=not errors, errors=tuple(errors))


def dualize_script(script: ProofScript, theory: Theory) -> ProofScript:
    """Swap the state and exception axes of a whole script.

    Rules map to their mirror rules, terms are dualized over the dual
    signature, axiom labels swap their flavor prefix, and step numbers
    are preserved, so a valid script over `theory` dualizes to a valid
    script over `dualize(theory)`.
    """
    symbol_map = dual_symbol_map(theory)
    steps = []
    for step in script.steps:
        rule = DUAL_RULE.get(step.rule)
        if rule is None:
            raise UnknownRule(f"unknown rule {step.rule!r}")
        premises = tuple(_dual_label(p) if isinstance(p, str) else p
                         for p in step.premises)
        steps.append(ProofStep(rule, premises,
                               dualize_equation(step.conclusion, symbol_map)))
    return ProofScript(dualize_equation(script.goal, symbol_map), tuple(steps))


def print_script(script: ProofScript) -> str:
    return print_lines([
        ("goal", (script.goal,)),
        *(("step", (number, step.rule, step.premises, step.conclusion))
          for number, step in enumerate(script.steps, start=1)),
    ])


def parse_script(text: str, signature) -> ProofScript:
    """Parse the script format; op names resolve against `signature`.

    Equal side texts within the script are parsed once and share one
    term, so their canonical keys are computed once too.  Parse errors
    give the script line and the column within it.
    """
    goal, steps = None, []
    for lineno, head, values in read_lines(text, "script", signature, {}):
        if goal is None:
            if head != "goal":
                raise ParseError("expected a goal line first", lineno, 1)
            goal = values[0]
        elif head != "step":
            raise ParseError("expected a step line", lineno, 1)
        else:
            number, rule, premises, conclusion = values
            if number != len(steps) + 1:
                raise ParseError(f"steps must be numbered in order, expected "
                                 f"{len(steps) + 1}", lineno, 1)
            steps.append(ProofStep(rule, premises, conclusion))
    if goal is None:
        raise ParseError("script has no goal line", 1, 1)
    return ProofScript(goal, tuple(steps))
