"""Translate imperative programs into decorated terms.

A command becomes a term from unit to unit over a combined theory of
state and exceptions.  The translation is effect-faithful: assignments
are updates, reads are lookups, `throw` tags a payload, and `try`
catches with untag.  Loops are unrolled against a fuel budget; running
out raises a reserved exception that no program clause can name, so
fuel exhaustion is always visible in the result.

Every elaborated command is transparent: fed an exceptional input, it
returns that input unchanged.  Try blocks need an explicit shield for
this, because their untags would otherwise catch upstream exceptions.

Handlers see a caught payload by substitution, and each command node is
built once per value of the binders it reads, so the term is a shared
graph: a handler reading k binders has |V|^k copies, not |V|^depth.
"""
from __future__ import annotations

from ..model import enum_type
from ..terms import (
    Absurd,
    CaseSeq,
    Comp,
    Const,
    DecoratedTerm,
    Id,
    Inj1,
    Inj2,
    Op,
    PairSeq,
    shield,
)
from ..theory import Theory, lookup_op, states_theory, tag_op, untag_op, update_op
from ..theory import combine, dualize, extend_theory
from ..terms import Decoration, OpSymbol
from ..types import EMPTY_T, UNIT_T, Base, ObjType, Prod, Sum
from .ast import (
    Add,
    AExp,
    And,
    Assign,
    BExp,
    BFalse,
    BTrue,
    Clause,
    Command,
    Eq,
    If,
    Le,
    Lit,
    Loc,
    Mul,
    Not,
    Seq,
    Skip,
    Sub,
    Throw,
    TryCatch,
    While,
)
from .parser import KEYWORDS

# Raised when a loop's unrolling budget runs out.  The name is a keyword,
# so no source program can declare or catch it, and a theory dump that
# declares it reads back.
FUEL_EXCEPTION = "while"

BOOL_T = Sum(UNIT_T, UNIT_T)


class ElaborationError(Exception):
    """A program does not fit the theory it is elaborated against."""


class UndeclaredLocation(ElaborationError):
    pass


class UndeclaredException(ElaborationError):
    pass


def _check_name(name: str, what: str) -> None:
    if name in KEYWORDS or not name.isidentifier():
        raise ElaborationError(f"{what} {name!r} is not a usable name")


def build_imp_theory(
    locations: dict[str, str],
    exceptions: dict[str, str],
    sizes: dict[str, int],
) -> Theory:
    """A combined theory equipped for running programs.

    `locations` and `exceptions` map names to base type names; `sizes`
    gives each base a carrier size.  Every base gets modular add, sub
    and mul, boolean-valued eq and le, and an enumeration operation
    whose target width records the size, so the size is recoverable
    from the theory alone.
    """
    if not locations:
        raise ElaborationError("programs need at least one location")
    for name in locations:
        _check_name(name, "location")
    for name in exceptions:
        _check_name(name, "exception")
    fuel_base = next(iter(locations.values()))
    st = states_theory(locations)
    ex = dualize(states_theory({**exceptions, FUEL_EXCEPTION: fuel_base}))
    theory = combine(st, ex)

    symbols: list[OpSymbol] = []
    pure = Decoration(0, 0)
    bases = dict.fromkeys(list(locations.values()) + list(exceptions.values()))
    for base in bases:
        if base not in sizes:
            raise ElaborationError(f"no carrier size given for base type {base!r}")
        size = sizes[base]
        if not isinstance(size, int) or size < 1:
            raise ElaborationError(f"carrier size for {base!r} must be a positive integer")
        b = Base(base)
        pair = Prod(b, b)
        for kind in ("add", "sub", "mul"):
            symbols.append(OpSymbol(f"{kind}_{base}", pair, b, pure))
        for kind in ("eq", "le"):
            symbols.append(OpSymbol(f"{kind}_{base}", pair, BOOL_T, pure))
        symbols.append(OpSymbol(f"enum_{base}", b, enum_type(size), pure))
    return extend_theory(theory, symbols)


def carrier_sizes(theory: Theory) -> dict[str, int]:
    """Carrier sizes recorded in a theory's enumeration operations."""
    sizes = {}
    for name, symbol in theory.signature.items():
        if name.startswith("enum_"):
            width = 1
            ty = symbol.target
            while isinstance(ty, Sum):
                width += 1
                ty = ty.right
            sizes[name[len("enum_"):]] = width
    if not sizes:
        raise ElaborationError("theory has no enumeration operations to size carriers from")
    return sizes


def default_carriers(theory: Theory) -> dict[str, tuple]:
    """Carriers 0..size-1 for every sized base, as the arithmetic needs."""
    return {base: tuple(range(size)) for base, size in carrier_sizes(theory).items()}


# Binders map caught-value names to (carrier value, base name).  A
# binder shadows any location with the same name inside its handler.
_Binders = "dict[str, tuple[int, str]]"


def _first_name(expr: AExp) -> str | None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Loc):
            return node.name
        if isinstance(node, (Add, Sub, Mul)):
            stack += (node.right, node.left)
    return None


def _name_base(name: str, theory: Theory, binders) -> str:
    if name in binders:
        return binders[name][1]
    if name in theory.locations:
        return theory.locations[name]
    raise UndeclaredLocation(f"unknown location {name!r}")


def _comparison_base(left: AExp, right: AExp, theory: Theory,
                     sizes: dict[str, int], binders) -> str:
    name = _first_name(left) or _first_name(right)
    if name is not None:
        return _name_base(name, theory, binders)
    if len(sizes) == 1:
        return next(iter(sizes))
    raise ElaborationError(
        "cannot infer the value type of a comparison between literals"
    )


_ARITH_KIND = {Add: "add", Sub: "sub", Mul: "mul"}


def _aexp(expr: AExp, base: str, theory: Theory,
          sizes: dict[str, int], binders) -> DecoratedTerm:
    """Iterative, left operands first, so sums of any length elaborate.
    An op name on the stack joins the last two results under that op."""
    done: list[DecoratedTerm] = []
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            right = done.pop()
            done.append(Comp(Op(theory.signature[node]), PairSeq(done.pop(), right)))
        elif type(node) in _ARITH_KIND:
            stack += (f"{_ARITH_KIND[type(node)]}_{base}", node.right, node.left)
        elif isinstance(node, Lit):
            if not 0 <= node.value < sizes[base]:
                raise ElaborationError(
                    f"literal {node.value} outside 0..{sizes[base] - 1} for base {base!r}"
                )
            done.append(Const(node.value, Base(base)))
        elif isinstance(node, Loc):
            found = _name_base(node.name, theory, binders)
            if found != base:
                raise ElaborationError(
                    f"{node.name!r} holds {found!r} values where {base!r} is needed"
                )
            done.append(Const(binders[node.name][0], Base(base)) if node.name in binders
                        else lookup_op(theory, node.name))
        else:
            raise TypeError(f"not an arithmetic expression: {node!r}")
    return done[0]


def _bexp(expr: BExp, theory: Theory, sizes: dict[str, int], binders) -> DecoratedTerm:
    if isinstance(expr, BTrue):
        return Inj1(UNIT_T, UNIT_T)
    if isinstance(expr, BFalse):
        return Inj2(UNIT_T, UNIT_T)
    if isinstance(expr, (Eq, Le)):
        base = _comparison_base(expr.left, expr.right, theory, sizes, binders)
        kind = "eq" if isinstance(expr, Eq) else "le"
        left = _aexp(expr.left, base, theory, sizes, binders)
        right = _aexp(expr.right, base, theory, sizes, binders)
        return Comp(Op(theory.signature[f"{kind}_{base}"]), PairSeq(left, right))
    if isinstance(expr, Not):
        inner = _bexp(expr.body, theory, sizes, binders)
        return Comp(CaseSeq(Inj2(UNIT_T, UNIT_T), Inj1(UNIT_T, UNIT_T)), inner)
    if isinstance(expr, And):
        left = _bexp(expr.left, theory, sizes, binders)
        right = _bexp(expr.right, theory, sizes, binders)
        return Comp(CaseSeq(right, Inj2(UNIT_T, UNIT_T)), left)
    raise TypeError(f"not a boolean expression: {expr!r}")


def _nested_sum(slots: list[ObjType]) -> ObjType:
    ty = slots[-1]
    for left in reversed(slots[:-1]):
        ty = Sum(left, ty)
    return ty


def _inject(slots: list[ObjType], index: int) -> DecoratedTerm:
    """Injection of slot `index` into the right-nested sum of `slots`."""
    if index == len(slots) - 1:
        term = Id(slots[index])
    else:
        term = Inj1(slots[index], _nested_sum(slots[index + 1:]))
    for k in reversed(range(index)):
        term = Comp(Inj2(slots[k], _nested_sum(slots[k + 1:])), term)
    return term


def _case_tree(branches: list[DecoratedTerm]) -> DecoratedTerm:
    tree = branches[-1]
    for branch in reversed(branches[:-1]):
        tree = CaseSeq(branch, tree)
    return tree


def _free_names(root: Command, names: dict) -> tuple[str, ...]:
    """The names `root` reads or assigns and does not bind itself, found
    bottom-up without recursion and recorded in `names` for every node
    under `root`, by node identity."""
    stack = [] if id(root) in names else [(root, False)]
    while stack:
        node, ready = stack.pop()
        kids = [kid for value in getattr(node, "__dict__", {}).values()
                for kid in (value if isinstance(value, tuple) else (value,))
                if isinstance(kid, (AExp, BExp, Command, Clause))]
        if not ready:
            stack.append((node, True))
            stack += [(kid, False) for kid in kids if id(kid) not in names]
            continue
        free = {name for kid in kids for name in names[id(kid)]}
        if isinstance(node, (Loc, Assign)):
            free.add(node.name if isinstance(node, Loc) else node.target)
        elif isinstance(node, Clause):
            free.discard(node.binder)
        names[id(node)] = tuple(free)
    return names[id(root)]


def _cmd(cmd: Command, theory: Theory, sizes: dict[str, int],
         fuel: int, binders, memo: tuple[dict, dict]) -> DecoratedTerm:
    """`_build`, shared within one `elaborate` call: `memo` holds each
    node's free names and the terms built, keyed by node identity (a
    frozen AST node's hash re-walks its subtree) and the values of the
    binders among those names, the only ones the term depends on."""
    if not binders:  # outside every handler, each node is built once
        return _build(cmd, theory, sizes, fuel, binders, memo)
    names, terms = memo
    key = (id(cmd), *map(binders.get, _free_names(cmd, names)))
    if key not in terms:
        terms[key] = _build(cmd, theory, sizes, fuel, binders, memo)
    return terms[key]


def _build(cmd: Command, theory: Theory, sizes: dict[str, int],
           fuel: int, binders, memo: tuple[dict, dict]) -> DecoratedTerm:
    if isinstance(cmd, Skip):
        return Id(UNIT_T)
    if isinstance(cmd, Assign):
        if cmd.target in binders:
            raise ElaborationError(f"cannot assign to caught value {cmd.target!r}")
        if cmd.target not in theory.locations:
            raise UndeclaredLocation(f"unknown location {cmd.target!r}")
        base = theory.locations[cmd.target]
        value = _aexp(cmd.expr, base, theory, sizes, binders)
        return Comp(update_op(theory, cmd.target), value)
    if isinstance(cmd, Seq):
        # A loop over the `;` spine, first halves in program order.
        firsts = []
        while isinstance(cmd, Seq):
            firsts.append(_cmd(cmd.first, theory, sizes, fuel, binders, memo))
            cmd = cmd.second
        term = _cmd(cmd, theory, sizes, fuel, binders, memo)
        for first in reversed(firsts):
            term = Comp(term, first)
        return term
    if isinstance(cmd, If):
        guard = _bexp(cmd.cond, theory, sizes, binders)
        then_branch = _cmd(cmd.then_branch, theory, sizes, fuel, binders, memo)
        else_branch = _cmd(cmd.else_branch, theory, sizes, fuel, binders, memo)
        return Comp(CaseSeq(then_branch, else_branch), guard)
    if isinstance(cmd, While):
        guard = _bexp(cmd.cond, theory, sizes, binders)
        body = _cmd(cmd.body, theory, sizes, fuel, binders, memo)
        fuel_base = theory.exceptions[FUEL_EXCEPTION]
        # The innermost round raises before looking at the guard, so a
        # loop needing exactly `fuel` iterations still exhausts.
        term = Comp(
            Absurd(UNIT_T),
            Comp(tag_op(theory, FUEL_EXCEPTION), Const(0, Base(fuel_base))),
        )
        for _ in range(fuel):
            term = Comp(CaseSeq(Comp(term, body), Id(UNIT_T)), guard)
        return term
    if isinstance(cmd, Throw):
        if cmd.exception == FUEL_EXCEPTION or cmd.exception not in theory.exceptions:
            raise UndeclaredException(f"unknown exception {cmd.exception!r}")
        base = theory.exceptions[cmd.exception]
        payload = _aexp(cmd.payload, base, theory, sizes, binders)
        return Comp(Absurd(UNIT_T), Comp(tag_op(theory, cmd.exception), payload))
    if isinstance(cmd, TryCatch):
        return _try(cmd, theory, sizes, fuel, binders, memo)
    raise TypeError(f"not a command: {cmd!r}")


def _try(cmd: TryCatch, theory: Theory, sizes: dict[str, int],
         fuel: int, binders, memo: tuple[dict, dict]) -> DecoratedTerm:
    """Reify the body's outcome into a sum, then dispatch on it.

    Slot 0 is the ordinary outcome; slot k carries the payload of the
    k-th clause's exception.  Clause 1 reclassifies first, so the first
    clause naming a raised exception wins.  Handlers see their caught
    payload by exhaustive substitution: one leaf per carrier value,
    selected through the base's enumeration operation.  `_cmd` shares a
    leaf among all copies of the block that agree on what it reads.
    The whole block is shielded so upstream exceptions bypass its untags.
    """
    for clause in cmd.clauses:
        if (clause.exception == FUEL_EXCEPTION
                or clause.exception not in theory.exceptions):
            raise UndeclaredException(f"unknown exception {clause.exception!r}")
    body = _cmd(cmd.body, theory, sizes, fuel, binders, memo)
    slots: list[ObjType] = [UNIT_T]
    slots += [Base(theory.exceptions[c.exception]) for c in cmd.clauses]

    reified = Comp(_inject(slots, 0), body)
    for index, clause in enumerate(cmd.clauses, start=1):
        catcher = Comp(_inject(slots, index), untag_op(theory, clause.exception))
        reified = Comp(CaseSeq(catcher, reified), Inj2(EMPTY_T, UNIT_T))

    branches: list[DecoratedTerm] = [Id(UNIT_T)]
    for clause in cmd.clauses:
        base = theory.exceptions[clause.exception]
        leaves = []
        for value in range(sizes[base]):
            bound = {**binders, clause.binder: (value, base)}
            leaves.append(_cmd(clause.handler, theory, sizes, fuel, bound, memo))
        tree = _case_tree(leaves)
        branches.append(Comp(tree, Op(theory.signature[f"enum_{base}"])))
    dispatch = _case_tree(branches)
    return shield(Comp(dispatch, reified))


def elaborate(cmd: Command, theory: Theory, fuel: int = 64) -> DecoratedTerm:
    """The unit-to-unit decorated term denoting `cmd` over `theory`.

    `fuel` bounds every loop's unrolling; an exhausted loop raises the
    reserved fuel exception instead of looping further.
    """
    if fuel < 0:
        raise ElaborationError("fuel must be non-negative")
    if FUEL_EXCEPTION not in theory.exceptions:
        raise ElaborationError("theory lacks the reserved fuel exception; "
                               "build it with build_imp_theory")
    try:
        return _cmd(cmd, theory, carrier_sizes(theory), fuel, {}, ({}, {}))
    except RecursionError:
        raise ElaborationError("program nests too deeply to elaborate") from None
