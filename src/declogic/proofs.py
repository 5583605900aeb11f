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

from dataclasses import dataclass, field

from .rules import DUAL_RULE, RuleError, PremiseShapeMismatch, UnknownRule, check_rule
from .syntax import ParseError, code_lines, parse_at, parse_term, print_term
from .terms import DecoratedTerm, Equation, Mode, canonical_key
from .theory import Theory, _dual_label, dual_symbol_map, dualize_equation


@dataclass(frozen=True)
class ProofStep:
    rule: str
    premises: tuple[int | str, ...]
    conclusion: Equation


@dataclass(frozen=True)
class ProofScript:
    goal: Equation
    steps: tuple[ProofStep, ...]


@dataclass(frozen=True)
class ScriptReport:
    ok: bool
    errors: tuple[tuple[int, str], ...] = ()

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
    lines = [_print_equation("goal", script.goal)]
    for number, step in enumerate(script.steps, start=1):
        premises = ", ".join(str(p) for p in step.premises)
        head = f"step {number}: {step.rule} [{premises}] |- "
        lines.append(head + _print_equation("", step.conclusion).lstrip())
    return "\n".join(lines) + "\n"


def _print_equation(prefix: str, eq: Equation) -> str:
    body = f"{eq.mode.value} {print_term(eq.lhs)} = {print_term(eq.rhs)}"
    return f"{prefix} {body}" if prefix else body


def parse_script(text: str, signature) -> ProofScript:
    """Parse the script format; op names resolve against `signature`.

    Equal side texts within the script are parsed once and share one
    term, so their canonical keys are computed once too.  Parse errors
    give the script line and the column within it.
    """
    terms: dict[str, DecoratedTerm] = {}
    goal: Equation | None = None
    steps: list[ProofStep] = []
    # Every equation body below is a suffix of `line`.
    for lineno, line, end_col in code_lines(text):
        if goal is None:
            if not line.startswith("goal "):
                raise ParseError("expected a goal line first", lineno, 1)
            body = line[len("goal "):]
            goal = _parse_equation(body, signature, lineno,
                                   end_col - len(body), terms)
            continue
        if not line.startswith("step "):
            raise ParseError("expected a step line", lineno, 1)
        rest = line[len("step "):]
        head, sep, rest = rest.partition(":")
        if not sep or not head.strip().isdecimal():
            raise ParseError("expected 'step <number>:'", lineno, 1)
        number = int(head)
        if number != len(steps) + 1:
            raise ParseError(f"steps must be numbered in order, expected "
                             f"{len(steps) + 1}", lineno, 1)
        rest = rest.strip()
        open_b = rest.find("[")
        close_b = rest.find("]")
        if open_b < 0 or close_b < open_b:
            raise ParseError("expected '[premises]'", lineno, 1)
        rule = rest[:open_b].strip()
        if not rule:
            raise ParseError("missing rule name", lineno, 1)
        premises = _parse_premises(rest[open_b + 1:close_b], lineno)
        tail = rest[close_b + 1:].strip()
        for turnstile in ("|-", "⊢"):
            if tail.startswith(turnstile):
                tail = tail[len(turnstile):].strip()
                break
        else:
            raise ParseError("expected '|-' after premises", lineno, 1)
        conclusion = _parse_equation(tail, signature, lineno,
                                     end_col - len(tail), terms)
        steps.append(ProofStep(rule, premises, conclusion))
    if goal is None:
        raise ParseError("script has no goal line", 1, 1)
    return ProofScript(goal, tuple(steps))


def _parse_premises(body: str, lineno: int) -> tuple[int | str, ...]:
    body = body.strip()
    if not body:
        return ()
    premises: list[int | str] = []
    for piece in body.split(","):
        piece = piece.strip()
        if not piece:
            raise ParseError("empty premise", lineno, 1)
        premises.append(int(piece) if piece.isdecimal() else piece)
    return tuple(premises)


def _parse_equation(body: str, signature, lineno: int, col: int,
                    terms: dict[str, DecoratedTerm]) -> Equation:
    """`body` starts at column `col` of line `lineno`; `terms` maps side
    texts already parsed in this script to their terms."""
    mode_word, _, rest = body.partition(" ")
    try:
        mode = Mode(mode_word)
    except ValueError:
        raise ParseError(f"expected 'weak' or 'strong', got {mode_word!r}",
                         lineno, 1) from None
    sides = rest.split(" = ")
    if len(sides) != 2:
        raise ParseError("expected '<lhs> = <rhs>'", lineno, 1)
    col += len(mode_word) + 1
    parsed = []
    for side in sides:
        side_text = side.strip()
        term = terms.get(side_text)
        if term is None:
            term = parse_at(parse_term, side, lineno, col, signature)
            terms[side_text] = term
        parsed.append(term)
        col += len(side) + len(" = ")
    return Equation(mode, parsed[0], parsed[1])
