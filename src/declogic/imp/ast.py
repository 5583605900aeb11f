"""Abstract syntax for a small imperative language with exceptions.

Arithmetic expressions read locations, boolean expressions compare them,
and commands assign, branch, loop, throw, and catch.  The printer emits
the same concrete syntax the parser accepts, so printing and re-parsing
a command is the identity on parser output.
"""
from __future__ import annotations

from dataclasses import dataclass


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


# Precedence levels for printing: additive 0, multiplicative 1, atom 2.

_OPERATORS = {Add: ("+", 0), Sub: ("-", 0), Mul: ("*", 1)}


def print_aexp(expr: AExp, prec: int = 0) -> str:
    """Iterative, so sums of any length print."""
    out: list[str] = []
    stack: list = [(expr, prec)]  # and strings, emitted as they are
    while stack:
        item = stack.pop()
        node = item if isinstance(item, str) else item[0]
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Lit):
            out.append(str(node.value))
        elif isinstance(node, Loc):
            out.append(node.name)
        elif type(node) in _OPERATORS:
            sign, level = _OPERATORS[type(node)]
            close, open_ = (")", "(") if item[1] > level else ("", "")
            stack += (close, (node.right, level + 1), f" {sign} ", (node.left, level), open_)
        else:
            raise TypeError(f"not an arithmetic expression: {node!r}")
    return "".join(out)


# Boolean precedence: conjunction 0, negation 1, atom 2.

def print_bexp(expr: BExp, prec: int = 0) -> str:
    if isinstance(expr, BTrue):
        return "true"
    if isinstance(expr, BFalse):
        return "false"
    if isinstance(expr, Eq):
        return f"{print_aexp(expr.left)} == {print_aexp(expr.right)}"
    if isinstance(expr, Le):
        return f"{print_aexp(expr.left)} <= {print_aexp(expr.right)}"
    if isinstance(expr, Not):
        text = f"not {print_bexp(expr.body, 2)}"
        return f"({text})" if prec > 1 else text
    if isinstance(expr, And):
        text = f"{print_bexp(expr.left, 1)} and {print_bexp(expr.right, 0)}"
        return f"({text})" if prec > 0 else text
    raise TypeError(f"not a boolean expression: {expr!r}")


def print_command(cmd: Command) -> str:
    """Render a command on a single line, blocks always braced."""
    if isinstance(cmd, Skip):
        return "skip"
    if isinstance(cmd, Assign):
        return f"{cmd.target} := {print_aexp(cmd.expr)}"
    if isinstance(cmd, Seq):
        parts = []
        while isinstance(cmd, Seq):
            parts.append(print_command(cmd.first))
            cmd = cmd.second
        return "; ".join(parts + [print_command(cmd)])
    if isinstance(cmd, If):
        return (
            f"if {print_bexp(cmd.cond)}"
            f" then {{ {print_command(cmd.then_branch)} }}"
            f" else {{ {print_command(cmd.else_branch)} }}"
        )
    if isinstance(cmd, While):
        return f"while {print_bexp(cmd.cond)} do {{ {print_command(cmd.body)} }}"
    if isinstance(cmd, Throw):
        return f"throw {cmd.exception}({print_aexp(cmd.payload)})"
    if isinstance(cmd, TryCatch):
        arms = "".join(
            f" catch {c.exception}({c.binder}) {{ {print_command(c.handler)} }}"
            for c in cmd.clauses
        )
        return f"try {{ {print_command(cmd.body)} }}{arms}"
    raise TypeError(f"not a command: {cmd!r}")
