"""Translate imperative programs into decorated terms.

A program becomes a term from unit to unit over a combined theory of
state and exceptions.  The translation is effect-faithful: assignments
are updates, reads are lookups, `throw` tags a payload, and `try`
catches with untag.  Loops are unrolled against a fuel budget; running
out raises a reserved exception that no program clause can name, so
fuel exhaustion is always visible in the result.

Every elaborated command is transparent: fed an exceptional input, it
returns that input unchanged.  Try blocks need an explicit shield for
this, because their untags would otherwise catch upstream exceptions.

Handlers read caught payloads by environment passing.  A command is a
term Γ -> Γ, where the environment Γ is the product of the payload
bases bound around it, and a binder read is a projection out of Γ.
Branches get Γ back through the pure `dist_N` ops (N numbers the source
type), Γ paired with a sum to a sum of pairs, so each handler is built
once.  Outside every handler Γ is unit and nothing is paired with it.
"""
from __future__ import annotations

from ..record import replace
from ..terms import (
    PURE,
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
    OpSymbol,
    PairSeq,
    Proj1,
    Proj2,
    compose_chain,
    shield,
)
from ..theory import Theory, lookup_op, states_theory, tag_op, untag_op, update_op
from ..theory import combine, dualize, extend_theory
from ..syntax import TYPE_KEYWORDS
from ..types import EMPTY_T, UNIT_T, Base, ObjType, Prod, Sum
from .ast import (
    Add,
    AExp,
    And,
    Assign,
    BExp,
    BFalse,
    BTrue,
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


def _check_name(name: str, what: str, reserved=KEYWORDS) -> None:
    if name in reserved or not name.isidentifier():
        raise ElaborationError(f"{what} {name!r} is not a usable name")


def build_imp_theory(
    locations: dict[str, str],
    exceptions: dict[str, str],
    sizes: dict[str, int],
) -> Theory:
    """A combined theory equipped for running programs.

    `locations` and `exceptions` map names to base type names; `sizes`
    gives each base a carrier size, which the theory records as the
    carrier 0..size-1.  Every base gets modular add, sub and mul and
    boolean-valued eq and le.
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
    bases = dict.fromkeys(list(locations.values()) + list(exceptions.values()))
    for base in bases:
        _check_name(base, "base type", TYPE_KEYWORDS)
        if base not in sizes:
            raise ElaborationError(f"no carrier size given for base type {base!r}")
        size = sizes[base]
        if not isinstance(size, int) or size < 1:
            raise ElaborationError(f"carrier size for {base!r} must be a positive integer")
        b = Base(base)
        pair = Prod(b, b)
        for kind in ("add", "sub", "mul"):
            symbols.append(OpSymbol(f"{kind}_{base}", pair, b, PURE))
        for kind in ("eq", "le"):
            symbols.append(OpSymbol(f"{kind}_{base}", pair, BOOL_T, PURE))
    return replace(extend_theory(theory, symbols),
                   carriers={base: tuple(range(sizes[base])) for base in bases})


def default_carriers(theory: Theory) -> dict[str, tuple]:
    """The carriers 0..size-1 that an imp theory records for its bases."""
    if not theory.carriers:
        raise ElaborationError("theory records no carriers; build it with build_imp_theory")
    return dict(theory.carriers)


def dist_symbol(env: ObjType, left: ObjType, right: ObjType) -> OpSymbol:
    """The pure op from `env` paired with a `left`/`right` sum to the sum of
    `env` paired with each side, named after its source type's `number`."""
    source = Prod(env, Sum(left, right))
    return OpSymbol(f"dist_{source.number}", source,
                    Sum(Prod(env, left), Prod(env, right)), PURE)


class _Scope:
    """The caught values a command can read: the `slot` payload a clause
    binds to `binder`, and those its `parent` scope can (the root binds
    none).  `env` is the environment Γ inside the clause.  An inner binder
    shadows an outer one and any location of the same name."""

    def __init__(self, parent: _Scope | None = None, binder: str | None = None,
                 slot: Base | None = None) -> None:
        self.parent, self.slot = parent, slot
        self.env = (UNIT_T if parent is None else slot if parent.env == UNIT_T
                    else Prod(parent.env, slot))
        # The innermost scope binding each name looked up here or inside.
        self.found = {} if parent is None else {binder: self}
        # down[layer] leads from `env` to the Γ of `layer`, a scope around
        # this one.  It is built from the chain one layer in on the first
        # read at `layer` or further out, and kept; `reach` is the outermost.
        self.down, self.reach = {self: []}, self

    def find(self, name: str) -> _Scope | None:
        """The innermost scope whose clause binds `name`, or None."""
        path, scope = [], self
        while scope is not None and name not in scope.found:
            path.append(scope)
            scope = scope.parent
        layer = None if scope is None else scope.found[name]
        for scope in path:
            scope.found[name] = layer
        return layer

    def read(self, name: str) -> DecoratedTerm:
        """The projection from `env` to the value that `name` caught."""
        layer, down = self.find(name), self.down
        while layer not in down:
            inner = self.reach
            self.reach = outer = inner.parent
            down[outer] = [compose_chain(down[inner] + [Proj1(outer.env, inner.slot)], self.env)]
        around = layer.parent.env
        pick = [Proj2(around, layer.slot)] if around != UNIT_T else []
        return compose_chain(down[layer] + pick, self.env)


def _drop(env: ObjType, slot: ObjType) -> DecoratedTerm | None:
    """The map from `env` paired with a `slot` value (the value alone at
    unit `env`) back to `env`; None is the identity."""
    if env != UNIT_T:
        return Proj1(env, slot)
    return None if slot == UNIT_T else Bang(slot)


def _chain(*factors: DecoratedTerm | None) -> DecoratedTerm:
    """`factors` composed, innermost first, skipping None (an identity at unit)."""
    return compose_chain([f for f in factors if f is not None], UNIT_T)


def _case(env: ObjType, scrutinee: DecoratedTerm, branches: list) -> DecoratedTerm:
    """Run `scrutinee` from `env` into a right-nested sum, then the branch
    for its slot, which reads `env` paired with the slot's value as
    `_drop` does."""
    tree = branches[-1]
    for branch in reversed(branches[:-1]):
        tree = CaseSeq(branch, tree)
        if env != UNIT_T:
            left, right = branch.source.right, tree.on_right.source.right
            tree = Comp(tree, Op(dist_symbol(env, left, right)))
    return Comp(tree, scrutinee if env == UNIT_T else PairSeq(Id(env), scrutinee))


def _if(env: ObjType, guard: DecoratedTerm, then: DecoratedTerm,
        other: DecoratedTerm) -> DecoratedTerm:
    """`then` or `other`, terms from `env`, as the boolean `guard` decides."""
    return _case(env, guard, [_chain(_drop(env, UNIT_T), branch) for branch in (then, other)])


def _first_name(expr: AExp) -> str | None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Loc):
            return node.name
        if isinstance(node, (Add, Sub, Mul)):
            stack += (node.right, node.left)
    return None


def _name_base(name: str, theory: Theory, scope: _Scope) -> str:
    layer = scope.find(name)
    base = theory.locations.get(name) if layer is None else layer.slot.name
    if base is None:
        raise UndeclaredLocation(f"unknown location {name!r}")
    return base


def _comparison_base(left: AExp, right: AExp, theory: Theory, scope: _Scope) -> str:
    name = _first_name(left) or _first_name(right)
    if name is not None:
        return _name_base(name, theory, scope)
    if len(theory.carriers) == 1:
        return next(iter(theory.carriers))
    raise ElaborationError(
        "cannot infer the value type of a comparison between literals"
    )


def _exception_base(name: str, theory: Theory) -> str:
    if name == FUEL_EXCEPTION or name not in theory.exceptions:
        raise UndeclaredException(f"unknown exception {name!r}")
    return theory.exceptions[name]


_OP_KIND = {Add: "add", Sub: "sub", Mul: "mul", Eq: "eq", Le: "le"}
_SORT_NAMES = {BExp: "a boolean expression", Command: "a command"}


def _open(node, scope: _Scope, sort, theory: Theory, fuel: int):
    """Check `node`, read in `scope` as `sort` (the base name of an
    arithmetic operand, else `BExp` or `Command`), and return its term
    if it has no parts.  Otherwise say how its term is built: a function
    of its parts' terms, and the parts as entries of the same form, in
    program order.  A command's term goes from the scope's environment
    to itself."""
    if not isinstance(node, AExp if type(sort) is str else sort):
        raise TypeError(f"not {_SORT_NAMES.get(sort, 'an arithmetic expression')}: {node!r}")
    env = scope.env
    cls = type(node)
    if cls in _OP_KIND:
        base = _comparison_base(node.left, node.right, theory, scope) if sort is BExp else sort
        symbol = theory.signature[f"{_OP_KIND[cls]}_{base}"]
        return (lambda left, right: Comp(Op(symbol), PairSeq(left, right)),
                ((node.left, scope, base), (node.right, scope, base)))
    if cls is Lit:
        size = len(theory.carriers[sort])
        if not 0 <= node.value < size:
            raise ElaborationError(
                f"literal {node.value} outside 0..{size - 1} for base {sort!r}"
            )
        return _chain(_drop(UNIT_T, env), Const(node.value, Base(sort)))
    if cls is Loc:
        found = _name_base(node.name, theory, scope)
        if found != sort:
            raise ElaborationError(
                f"{node.name!r} holds {found!r} values where {sort!r} is needed"
            )
        if scope.find(node.name) is not None:
            return scope.read(node.name)
        return _chain(_drop(UNIT_T, env), lookup_op(theory, node.name))
    if cls is BTrue or cls is BFalse:
        inject = Inj1 if cls is BTrue else Inj2
        return _chain(_drop(UNIT_T, env), inject(UNIT_T, UNIT_T))
    if cls is Not:
        return (lambda inner: Comp(CaseSeq(Inj2(UNIT_T, UNIT_T), Inj1(UNIT_T, UNIT_T)), inner),
                ((node.body, scope, BExp),))
    if cls is And:
        return (lambda left, right, false: _if(env, left, right, false),
                ((node.left, scope, BExp), (node.right, scope, BExp), (BFalse(), scope, BExp)))
    if cls is Skip:
        return Id(env)
    if cls is Assign:
        if scope.find(node.target) is not None:
            raise ElaborationError(f"cannot assign to caught value {node.target!r}")
        if node.target not in theory.locations:
            raise UndeclaredLocation(f"unknown location {node.target!r}")

        def assign(value):
            write = Comp(update_op(theory, node.target), value)
            # The write maps Γ to unit; pairing keeps Γ for what follows.
            return write if env == UNIT_T else Comp(Proj1(env, UNIT_T), PairSeq(Id(env), write))
        return assign, ((node.expr, scope, theory.locations[node.target]),)
    if cls is Seq:
        return (lambda first, second: Comp(second, first),
                ((node.first, scope, Command), (node.second, scope, Command)))
    if cls is If:
        return (lambda guard, then, other: _if(env, guard, then, other),
                ((node.cond, scope, BExp), (node.then_branch, scope, Command),
                 (node.else_branch, scope, Command)))
    if cls is While:
        def loop(guard, body):
            fuel_base = theory.exceptions[FUEL_EXCEPTION]
            # The innermost round raises before looking at the guard, so a
            # loop needing exactly `fuel` iterations still exhausts.
            term = Comp(Absurd(env), Comp(tag_op(theory, FUEL_EXCEPTION),
                                          _chain(_drop(UNIT_T, env), Const(0, Base(fuel_base)))))
            for _ in range(fuel):
                term = _if(env, guard, Comp(term, body), Id(env))
            return term
        return loop, ((node.cond, scope, BExp), (node.body, scope, Command))
    if cls is Throw:
        payload_base = _exception_base(node.exception, theory)
        return (lambda payload: Comp(Absurd(env), Comp(tag_op(theory, node.exception), payload)),
                ((node.payload, scope, payload_base),))
    # A `try`: each handler reads Γ paired with its clause's payload.
    slots = [Base(_exception_base(clause.exception, theory)) for clause in node.clauses]
    handlers = tuple((clause.handler, _Scope(scope, clause.binder, slot), Command)
                     for clause, slot in zip(node.clauses, slots))
    return (lambda body, *terms: _try(node, env, slots, body, terms, theory),
            ((node.body, scope, Command),) + handlers)


def _try(node: TryCatch, env: ObjType, slots: list, body: DecoratedTerm,
         handlers: tuple, theory: Theory) -> DecoratedTerm:
    """Reify the body's outcome into a sum, then dispatch on it.

    Each clause wraps the sum so far in one whose left side carries the
    payload its untag catches; the innermost is unit, the ordinary
    outcome.  Clause 1 catches first, so the first clause naming a raised
    exception wins.  Each handler reads the environment paired with its
    payload.  The block is shielded so upstream exceptions bypass it.
    """
    reified = _chain(body, _drop(UNIT_T, env))
    branches = [_chain(_drop(env, UNIT_T))]
    for clause, slot, handler in zip(node.clauses, slots, handlers):
        caught = Comp(Inj1(slot, reified.target), untag_op(theory, clause.exception))
        passed = Comp(Inj2(slot, reified.target), reified)
        reified = Comp(CaseSeq(caught, passed), Inj2(EMPTY_T, env))
        branches.insert(0, _chain(handler, _drop(env, slot)))
    return shield(_case(env, reified, branches))


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
    default_carriers(theory)
    # Post-order over an explicit stack, so programs nest to any depth.
    # An entry of two is a build that waits for its parts' terms.
    done: list[DecoratedTerm] = []
    stack: list[tuple] = [(cmd, _Scope(), Command)]
    while stack:
        entry = stack.pop()
        if len(entry) == 2:
            build, count = entry
            parts = done[len(done) - count:]
            del done[len(done) - count:]
            done.append(build(*parts))
        else:
            opened = _open(*entry, theory, fuel)
            if isinstance(opened, DecoratedTerm):
                done.append(opened)
            else:
                stack.append((opened[0], len(opened[1])))
                stack += reversed(opened[1])
    return done[0]
