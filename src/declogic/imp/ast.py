"""Abstract syntax for a small imperative language with exceptions.

Arithmetic expressions read locations, boolean expressions compare them,
and commands assign, branch, loop, throw, and catch.  The printer emits
the same concrete syntax the parser accepts, so printing and re-parsing
a command is the identity on parser output.
"""
from __future__ import annotations

from dataclasses import dataclass
from string import Formatter
from typing import NamedTuple


class AExp:
    """Arithmetic expression over one base type."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(AExp):
    value: int


@dataclass(frozen=True)
class Loc(AExp):
    """A location read, or a caught-value reference inside a handler."""

    name: str


@dataclass(frozen=True)
class Add(AExp):
    left: AExp
    right: AExp


@dataclass(frozen=True)
class Sub(AExp):
    left: AExp
    right: AExp


@dataclass(frozen=True)
class Mul(AExp):
    left: AExp
    right: AExp


class BExp:
    """Boolean expression; no boolean storage, only tests."""

    __slots__ = ()


@dataclass(frozen=True)
class BTrue(BExp):
    pass


@dataclass(frozen=True)
class BFalse(BExp):
    pass


@dataclass(frozen=True)
class Eq(BExp):
    left: AExp
    right: AExp


@dataclass(frozen=True)
class Le(BExp):
    left: AExp
    right: AExp


@dataclass(frozen=True)
class Not(BExp):
    body: BExp


@dataclass(frozen=True)
class And(BExp):
    """Short-circuit conjunction: the right side runs only on a true left."""

    left: BExp
    right: BExp


class Command:
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Command):
    pass


@dataclass(frozen=True)
class Assign(Command):
    target: str
    expr: AExp


@dataclass(frozen=True)
class Seq(Command):
    """Sequencing; the parser always nests these to the right."""

    first: Command
    second: Command


@dataclass(frozen=True)
class If(Command):
    cond: BExp
    then_branch: Command
    else_branch: Command


@dataclass(frozen=True)
class While(Command):
    cond: BExp
    body: Command


@dataclass(frozen=True)
class Throw(Command):
    exception: str
    payload: AExp


@dataclass(frozen=True)
class Clause:
    """One catch arm: matches ``exception``, binds its payload to ``binder``."""

    exception: str
    binder: str
    handler: Command


@dataclass(frozen=True)
class TryCatch(Command):
    """Run ``body``; the first clause naming a raised exception handles it."""

    body: Command
    clauses: tuple[Clause, ...]


# ---------------------------------------------------------------------------
# Shapes: the printer here and the parser in `parser` read this one table,
# and both walk nested forms over an explicit stack.


class Hole(NamedTuple):
    field: str
    kind: str   # a arithmetic, b boolean, c command, n name, i integer, * clauses
    least: int  # an operand binding less tightly prints in parentheses


class Shape(NamedTuple):
    parts: tuple  # printed text and holes, in order
    prec: int     # how tightly the form binds; a larger number binds tighter


_ATOM = 9  # forms that are neither infix nor prefix bind tightest


def _shape(template: str, prec: int = _ATOM, assoc: str = "") -> Shape:
    """The shape printed as `template`, where `{field:kind}` is a hole.

    An operand at the edge of an infix or prefix form binds at least as
    tightly as the form, and more tightly on the side the form does not
    associate to.
    """
    parts: list = []
    for text, field, kind, _ in Formatter().parse(template):
        if text:
            parts.append(text)
        if field is not None:
            parts.append(Hole(field, kind, 0))
    for at, side in ((0, "left"), (-1, "right")):
        if prec < _ATOM and isinstance(parts[at], Hole) and parts[at].kind in "abc":
            parts[at] = parts[at]._replace(least=prec + (assoc != side))
    return Shape(tuple(parts), prec)


# One precedence scale for every sort, loosest first: `;`, `and`, `not`,
# the comparisons, `+` and `-`, `*`.  `;` and `and` associate to the
# right, `+`, `-` and `*` to the left, and a comparison to neither side.
SHAPES: dict[type, Shape] = {
    Lit: _shape("{value:i}"),
    Loc: _shape("{name:n}"),
    Add: _shape("{left:a} + {right:a}", 4, "left"),
    Sub: _shape("{left:a} - {right:a}", 4, "left"),
    Mul: _shape("{left:a} * {right:a}", 5, "left"),
    BTrue: _shape("true"),
    BFalse: _shape("false"),
    Eq: _shape("{left:a} == {right:a}", 3),
    Le: _shape("{left:a} <= {right:a}", 3),
    Not: _shape("not {body:b}", 2),
    And: _shape("{left:b} and {right:b}", 1, "right"),
    Skip: _shape("skip"),
    Assign: _shape("{target:n} := {expr:a}"),
    Seq: _shape("{first:c}; {second:c}", 0, "right"),
    If: _shape("if {cond:b} then {{ {then_branch:c} }} else {{ {else_branch:c} }}"),
    While: _shape("while {cond:b} do {{ {body:c} }}"),
    Throw: _shape("throw {exception:n}({payload:a})"),
    TryCatch: _shape("try {{ {body:c} }}{clauses:*}"),
    Clause: _shape(" catch {exception:n}({binder:n}) {{ {handler:c} }}"),
}


def _print(node) -> str:
    """The printed form of `node`, on one line, blocks always braced.
    Forms wait on an explicit stack, so any depth prints."""
    out: list[str] = []
    stack: list = [(node, 0)]  # and strings, emitted as they are
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, least = item
        shape = SHAPES.get(type(node))
        if shape is None:
            raise TypeError(f"not a program form: {node!r}")
        wrap = shape.prec < least
        if wrap:
            stack.append(")")
        for part in reversed(shape.parts):
            if type(part) is str:
                stack.append(part)
                continue
            value = getattr(node, part.field)
            if part.kind in "ni":
                stack.append(str(value))
            elif part.kind == "*":
                stack += ((clause, 0) for clause in reversed(value))
            else:  # commands take no parentheses
                stack.append((value, 0 if part.kind == "c" else part.least))
        if wrap:
            stack.append("(")
    return "".join(out)


def print_aexp(expr: AExp) -> str:
    return _print(expr)


def print_bexp(expr: BExp) -> str:
    return _print(expr)


def print_command(cmd: Command) -> str:
    return _print(cmd)
