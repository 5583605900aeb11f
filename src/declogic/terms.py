"""Decorated terms.

A term denotes a function between objects, decorated with how much of
each effect it may use.  Decorations have two axes: the state axis
(0 pure, 1 may read, 2 may write) and the exception axis (0 pure,
1 may raise, 2 may also handle).  Composite terms take the join of
their children's decorations, so a decoration is an upper bound on
observable behaviour, never an exact measure.

Constructors never validate: ill-formed terms (mismatched composition,
pairs whose halves disagree on their source) must be constructible so
that `typecheck` can report the problems.  Every node caches `source`,
`target` and `decoration` eagerly at construction, reading only its
children's cached values, so building deep terms needs no recursion.
Nodes compare structurally; their types are interned, so the types
inside them compare by identity.

Terms equal up to associativity and identity laws share a canonical id,
a small int that `canonical_key` hands out from one table per process:
two terms get the same id exactly when their structural keys (written
out in `tests/reference_keys.py`) are equal, so comparing terms that way
is comparing ints.  The id is cached lazily, never at construction:
`canonical_key` stores it on a node the first time it is asked for, so
building terms that are never compared costs nothing extra.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple

from .record import Record, set_field
from .types import EMPTY_T, UNIT_T, Base, Empty, ObjType, Prod, Sum, Unit


class Decoration(Record):
    """Effect upper bound: `state` and `exc` each range over 0, 1, 2."""

    __slots__ = ("state", "exc")

    def join(self, other: "Decoration") -> "Decoration":
        """The componentwise maximum; one of the nine shared decorations
        whenever both axes are in range."""
        key = (max(self.state, other.state), max(self.exc, other.exc))
        shared = _SHARED.get(key)
        return shared if shared is not None else Decoration(*key)

    def __str__(self) -> str:
        return f"({self.state},{self.exc})"


_SHARED = {(state, exc): Decoration(state, exc)
           for state in range(3) for exc in range(3)}
PURE = _SHARED[(0, 0)]


class OpSymbol(Record):
    """A declared operation: name, arity as source/target types, decoration."""

    __slots__ = ("name", "source", "target", "decoration")


class DecoratedTerm:
    """Base class for term nodes.

    Subclasses are frozen dataclasses; `source`, `target` and
    `decoration` are cached attributes, not fields, so structural
    equality and hashing ignore them.
    """

    source: ObjType
    target: ObjType
    decoration: Decoration
    # Set on the node by `canonical_key` when first asked for.
    _canonical_key = None

    def _cache(self, source: ObjType, target: ObjType, decoration: Decoration) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "decoration", decoration)


@dataclass(frozen=True)
class Id(DecoratedTerm):
    at: ObjType

    def __post_init__(self) -> None:
        self._cache(self.at, self.at, PURE)


@dataclass(frozen=True)
class Comp(DecoratedTerm):
    """Composition `outer after inner`: runs `inner` first."""

    outer: DecoratedTerm
    inner: DecoratedTerm

    def __post_init__(self) -> None:
        self._cache(
            self.inner.source,
            self.outer.target,
            self.outer.decoration.join(self.inner.decoration),
        )


@dataclass(frozen=True)
class Op(DecoratedTerm):
    symbol: OpSymbol

    def __post_init__(self) -> None:
        self._cache(self.symbol.source, self.symbol.target, self.symbol.decoration)


@dataclass(frozen=True)
class Proj1(DecoratedTerm):
    left: ObjType
    right: ObjType

    def __post_init__(self) -> None:
        self._cache(Prod(self.left, self.right), self.left, PURE)


@dataclass(frozen=True)
class Proj2(DecoratedTerm):
    left: ObjType
    right: ObjType

    def __post_init__(self) -> None:
        self._cache(Prod(self.left, self.right), self.right, PURE)


@dataclass(frozen=True)
class Inj1(DecoratedTerm):
    left: ObjType
    right: ObjType

    def __post_init__(self) -> None:
        self._cache(self.left, Sum(self.left, self.right), PURE)


@dataclass(frozen=True)
class Inj2(DecoratedTerm):
    left: ObjType
    right: ObjType

    def __post_init__(self) -> None:
        self._cache(self.right, Sum(self.left, self.right), PURE)


@dataclass(frozen=True)
class PairSeq(DecoratedTerm):
    """Sequential pairing: run `first`, then `second`, pair the results.

    Both halves read from the same original input value; `second` sees
    the state left by `first`.  If `first` raises, `second` never runs.
    """

    first: DecoratedTerm
    second: DecoratedTerm

    def __post_init__(self) -> None:
        self._cache(
            self.first.source,
            Prod(self.first.target, self.second.target),
            self.first.decoration.join(self.second.decoration),
        )


@dataclass(frozen=True)
class CaseSeq(DecoratedTerm):
    """Sequential case split on a sum input.

    On a left input only `on_left` runs.  On a right input `on_right`
    runs first; if it produces an exceptional outcome, `on_left` is
    applied to that outcome (so a left branch that handles exceptions
    wraps up whatever the right branch raised).
    """

    on_left: DecoratedTerm
    on_right: DecoratedTerm

    def __post_init__(self) -> None:
        self._cache(
            Sum(self.on_left.source, self.on_right.source),
            self.on_left.target,
            self.on_left.decoration.join(self.on_right.decoration),
        )


@dataclass(frozen=True)
class Bang(DecoratedTerm):
    """The unique pure map into the unit type."""

    at: ObjType

    def __post_init__(self) -> None:
        self._cache(self.at, UNIT_T, PURE)


@dataclass(frozen=True)
class Absurd(DecoratedTerm):
    """The unique pure map out of the empty type."""

    at: ObjType

    def __post_init__(self) -> None:
        self._cache(EMPTY_T, self.at, PURE)


@dataclass(frozen=True)
class Const(DecoratedTerm):
    """A pure point of `at`, as a map out of the unit type."""

    value: object
    at: ObjType
    # Its printed literal, set by the parser, which prints it anyway.
    _literal = None

    def __post_init__(self) -> None:
        self._cache(UNIT_T, self.at, PURE)


# ---------------------------------------------------------------------------
# Forms: the printer and parser in `syntax`, the dualizer in `theory` and
# the leaf keys of `canonical_key` all read this one table, and each
# walks nested forms over an explicit stack.  The two tables after it
# describe the forms of two term children, kinds "tt", further.


class Form(NamedTuple):
    head: str | None      # printed name; a base type prints as its name
    args: Callable        # the arguments in printed order, as a tuple
    kinds: str            # per argument: t term, T type, n op name, v literal
    mirror: type | None   # the dual form; a constant point has none


def _args(*names: str) -> Callable:
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda node: (get(node),)
    return attrgetter(*names) if names else lambda node: ()


_SIDES = _args("left", "right")

# An op's argument is its name, which a signature turns into a symbol.  A
# constant's value is the literal `(value, at)`, whose form its type
# gives (see `syntax`).  Composition mirrors with its factors swapped.
FORMS: dict[type, Form] = {
    Unit: Form("unit", _args(), "", Empty),
    Empty: Form("empty", _args(), "", Unit),
    Base: Form(None, _args(), "", Base),
    Prod: Form("prod", _SIDES, "TT", Sum),
    Sum: Form("sum", _SIDES, "TT", Prod),
    Id: Form("id", _args("at"), "T", Id),
    Comp: Form("comp", _args("outer", "inner"), "tt", Comp),
    Op: Form("op", _args("symbol.name"), "n", Op),
    Proj1: Form("proj1", _SIDES, "TT", Inj1),
    Proj2: Form("proj2", _SIDES, "TT", Inj2),
    Inj1: Form("inj1", _SIDES, "TT", Proj1),
    Inj2: Form("inj2", _SIDES, "TT", Proj2),
    PairSeq: Form("pair", _args("first", "second"), "tt", CaseSeq),
    CaseSeq: Form("case", _args("on_left", "on_right"), "tt", PairSeq),
    Bang: Form("bang", _args("at"), "T", Absurd),
    Absurd: Form("absurd", _args("at"), "T", Bang),
    Const: Form("const", lambda c: ((c.value, c.at), c.at), "vT", None),
}

# The forms of two term children: their children in printed order, and
# `MEETS` of each: the two types that must meet, as one object, then
# `typecheck`'s issue where they do not, its detail made from them, and
# its path step to each child.
CHILDREN: dict[type, Callable] = {c: f.args for c, f in FORMS.items() if f.kinds == "tt"}
MEETS: dict[type, tuple[Callable, str, str, tuple[str, str]]] = {
    Comp: (attrgetter("outer.source", "inner.target"), "source-target-mismatch",
           "inner produces {1} but outer expects {0}", ("outer", "inner")),
    PairSeq: (attrgetter("first.source", "second.source"), "pair-source-mismatch",
              "first reads {0} but second reads {1}", ("first", "second")),
    CaseSeq: (attrgetter("on_left.target", "on_right.target"), "case-target-mismatch",
              "left branch yields {0} but right branch yields {1}", ("left", "right")),
}


class Mode(enum.Enum):
    WEAK = "weak"
    STRONG = "strong"


class Equation(Record):
    __slots__ = ("mode", "lhs", "rhs")

    def __init__(self, mode: Mode, lhs: DecoratedTerm, rhs: DecoratedTerm) -> None:
        set_field(self, "mode", mode)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


def infer_decoration(term: DecoratedTerm) -> Decoration:
    """Upper bound on the effects `term` may use."""
    return term.decoration


# ---------------------------------------------------------------------------
# Typechecking


class TypeIssue(Record):
    __slots__ = ("kind", "path", "detail")

    def __str__(self) -> str:
        where = ".".join(self.path) if self.path else "<root>"
        return f"{self.kind} at {where}: {self.detail}"


class TypedReport(Record):
    __slots__ = ("ok", "issues", "source", "target", "decoration")

    def describe(self) -> str:
        from .syntax import print_type

        head = f"{print_type(self.source)} -> {print_type(self.target)} @ {self.decoration}"
        if self.ok:
            return f"ok: {head}"
        lines = [f"ill-typed: {head}"] + [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)


def typecheck(term: DecoratedTerm, signature: dict[str, OpSymbol] | None = None) -> TypedReport:
    """Check local well-formedness of every node, the `MEETS` of its form.

    With a `signature`, operation symbols must match their declarations
    exactly.  A shared subterm is checked, and its issues reported, at
    every path that reaches it.  Iterative so deep terms never hit the
    recursion limit.
    """
    from .syntax import print_type

    issues: list[TypeIssue] = []
    # A path is kept as a (parent path, step) link and spelled out only
    # for an issue, so deep terms cost linear space.
    stack: list[tuple[DecoratedTerm, tuple | None]] = [(term, None)]

    def issue(kind: str, link: tuple | None, detail: str) -> None:
        path: list[str] = []
        while link is not None:
            link, step = link
            path.append(step)
        issues.append(TypeIssue(kind, tuple(reversed(path)), detail))

    while stack:
        node, link = stack.pop()
        kind = type(node)
        if kind in MEETS:
            meets, name, detail, (one, two) = MEETS[kind]
            a, b = meets(node)
            if a != b:
                issue(name, link, detail.format(print_type(a), print_type(b)))
            first, second = CHILDREN[kind](node)
            stack.append((first, (link, one)))
            stack.append((second, (link, two)))
        elif kind is Op and signature is not None:
            declared = signature.get(node.symbol.name)
            if declared is None:
                issue("unknown-symbol", link,
                      f"operation {node.symbol.name!r} is not declared")
            elif declared != node.symbol:
                issue("symbol-mismatch", link,
                      f"operation {node.symbol.name!r} disagrees with its declaration")
    issues.sort(key=lambda issue: issue.path)
    return TypedReport(
        ok=not issues,
        issues=tuple(issues),
        source=term.source,
        target=term.target,
        decoration=term.decoration,
    )


# ---------------------------------------------------------------------------
# Derived combinators


def copy_term(ty: ObjType) -> DecoratedTerm:
    """Diagonal at `ty`."""
    return PairSeq(Id(ty), Id(ty))


def swap_term(left: ObjType, right: ObjType) -> DecoratedTerm:
    """Pure swap: left * right -> right * left."""
    return PairSeq(Proj2(left, right), Proj1(left, right))


def seq_then(first: DecoratedTerm, second: DecoratedTerm) -> DecoratedTerm:
    """Run `first` for its effects, then `second`, keeping only `second`."""
    return Comp(Proj2(first.target, second.target), PairSeq(first, second))


def shield(term: DecoratedTerm) -> DecoratedTerm:
    """Wrap `term` so exceptional inputs pass through without running it.

    Ordinary behaviour (including anything `term` raises) is unchanged.
    Exceptional inputs bypass the whole wrapper because the pairing
    short-circuits them, so upstream exceptions can never reach a
    handler inside `term`.
    """
    return Comp(
        Proj1(term.target, UNIT_T),
        PairSeq(term, Bang(term.source)),
    )


# ---------------------------------------------------------------------------
# Canonical form: composition is flattened and identities dropped, so two
# terms equal modulo associativity and unit laws get the same id.


def chain_factors(term: DecoratedTerm) -> list[DecoratedTerm]:
    """Composition factors of `term`, innermost first, identities dropped.

    `term` is equivalent to the composite of the returned factors in
    order (empty list means the identity at `term.source`).
    """
    factors: list[DecoratedTerm] = []
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Comp):
            stack.append(node.outer)
            stack.append(node.inner)
        elif not isinstance(node, Id):
            factors.append(node)
    return factors


# Every key met in this process, numbered in order of first use.  A key
# is a leaf's class and arguments (a constant's value as its literal), a
# pair's or case's class and child ids, or the ids of two or more chain
# factors.
_IDS: dict[tuple, int] = {}


def canonical_key(term: DecoratedTerm) -> int:
    """Small int identifying `term` up to associativity and identity.

    A composite's id comes from its factors' ids, innermost first, with
    identities dropped: a chain of one factor has that factor's id, and
    an empty chain has the id of the identity at its source.  Ids hold for one
    process, and two terms get the same id exactly when the structural
    keys of `tests/reference_keys.py` are equal.  The id is computed the
    first time it is asked for and stored on the node, as is the id of
    every factor and pair/case child it needed, so asking again, or for a
    term built from keyed factors, reuses them.  Iterative, so deep terms
    need no recursion.
    """
    key = term._canonical_key
    if key is not None:
        return key
    stack = [term]
    while stack:
        node = stack[-1]
        if node._canonical_key is not None:
            stack.pop()
            continue
        kind = type(node)
        if kind is Comp:
            factors = chain_factors(node)
            waiting = [f for f in factors if f._canonical_key is None]
        elif kind in CHILDREN:
            a, b = CHILDREN[kind](node)
            waiting = [c for c in (a, b) if c._canonical_key is None]
        else:
            waiting = None
        if waiting:
            stack += waiting
            continue
        stack.pop()
        if kind is Comp and len(factors) == 1:
            object.__setattr__(node, "_canonical_key", factors[0]._canonical_key)
            continue
        if kind is Comp:
            key = (tuple(f._canonical_key for f in factors) if factors
                   else (Id, node.source))
        elif kind in CHILDREN:
            key = (kind, a._canonical_key, b._canonical_key)
        elif kind is Const:
            key = (Const, node._literal or _value_key(node.value, node.at), node.at)
        else:
            form = FORMS.get(kind)
            if form is None:
                raise TypeError(f"not a term: {node!r}")
            key = (kind, *form.args(node))
        object.__setattr__(node, "_canonical_key", _IDS.setdefault(key, len(_IDS)))
    return term._canonical_key


def _value_key(value, at: ObjType):
    """A constant's value as its printed literal, a flat string however
    deep the value nests, so looking its key up never recurses.  A value
    with no literal form is keyed as `(value, at)`, which no string
    equals."""
    from .syntax import print_value

    try:
        return print_value(value, at)
    except (ValueError, TypeError):
        return (value, at)


def compose_chain(factors: list[DecoratedTerm], source: ObjType) -> DecoratedTerm:
    """Rebuild a term from innermost-first factors (inverse of chaining)."""
    if not factors:
        return Id(source)
    term = factors[0]
    for factor in factors[1:]:
        term = Comp(factor, term)
    return term
