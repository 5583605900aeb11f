"""Finite models and the exhaustive equality oracle.

A finite model fixes a carrier for every base type, a state space (the
product of the location carriers, in declaration order) and an
exception space (the tagged union of the exception parameter carriers).
A term of type X -> Y denotes a total function on (X + E) x S: the
state is always threaded, including past a raise, so a handler sees
writes performed before the throw.

An exceptional value passes through every construct except a catcher,
an operation whose exception decoration is 2.  A pairing runs its
first half, then its second half on the same input in the state the
first left, and skips the second half when the first raised.  A case
split runs only its left branch on a left input.  On a right input it
runs its right branch, and when that gives an exceptional value, it
applies the left branch to that value.  An exceptional input is
handed to the right branch as it is, and the same rule follows.

Each operation is interpreted from its name `family_arg` alone (see
`build_model`), and its table fills on first use, so a check builds
only the entries it reads.

Strong equality compares full outcomes on every input (ordinary and
exceptional) and every state.  Weak equality compares only the result
value (with its exceptional identity) on ordinary inputs, ignoring the
final state.  With no locations the state is trivial, so weak equality
degenerates to agreement on ordinary arguments; with no exceptions it
degenerates to value agreement.  Every check reports the first
difference among the points `scan_points` lists, in its one order
(state-major; ordinary inputs, then exceptional ones); `check_both_eq`
gives both verdicts at once.  One walk evaluates terms: `eval_points`
runs a term at a list of points at once, and a leaf or an op that
catches nothing runs on the ordinary points only.  `eval_term` is its
one-point case, and `imp.check_equiv` runs `eval_points` at every point
of two whole programs.

A check reads only the live states: those whose locations outside both
sides' footprint (the locations their `lookup_x` and `update_x` ops
name) hold their carrier's first value.  That is exact.  Neither side
reads or writes such a location, so changing it in the initial state
changes it alike in both final states and nothing else, and the set of
differing points is closed under that change.  Its first point in
state-major order then holds the first value there, and so do the first
point that raises and the first state a loop runs out of fuel from.

A check is answered from behaviour tables (`Tables`) of its sides over
the live states, which every op of the sides maps to live states.  A
table holds a term's outcome at each point, as its position among the
points of the target; an op's is evaluated with `eval_term` at each of
its points, and a composite's is composed from its children's by the
rules above.  The check scans its points with `eval_term` instead when
the sides differ in type, when composing raises, as only the scan's
errors are the check's, or when a count of the nodes' source points says
the tables would outgrow the scan.  Probe contexts compose tables over
every state, and `validate_model` walks every state.
"""

from __future__ import annotations

import itertools

from .record import Record, set_field
from .terms import (
    CHILDREN,
    FORMS,
    MEETS,
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    DecoratedTerm,
    Id,
    Inj1,
    Inj2,
    Mode,
    Op,
    PairSeq,
    Proj1,
    Proj2,
)
from .syntax import ParseError, print_lines, print_type, read_lines
from .types import UNIT, Base, Empty, ObjType, Prod, Sum, Unit, numbered_type


class Exc(Record):
    """An exceptional value: exception name plus its parameter."""

    __slots__ = ("name", "param")

    def __init__(self, name: str, param: object) -> None:
        set_field(self, "name", name)
        set_field(self, "param", param)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.param) == (other.name, other.param)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.param))


class Outcome(Record):
    __slots__ = ("value", "state")

    def __init__(self, value: object, state: tuple) -> None:
        set_field(self, "value", value)
        set_field(self, "state", state)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value, self.state) == (other.value, other.state)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.state))


class ModelError(Exception):
    pass


class CarrierMismatch(ModelError):
    pass


class MissingInterpretation(ModelError):
    pass


class UnknownBaseType(ModelError):
    pass


class FiniteModel(Record):
    """Carriers, locations, exceptions and operation tables.

    `carriers` maps base type names to ordered tuples of distinct
    values.  `locations` and `exceptions` map names to base type names.
    `interps` maps operation names to tables keyed by (input value,
    state), which `build_model` makes fill on first use; untags cover
    exceptional inputs, everything else only ordinary ones.  `states`,
    `location_index` and `exc_values` (the exceptional inputs in scan
    order) follow from the others.  Two models are equal only when they
    are one object.
    """

    __slots__ = ("carriers", "locations", "exceptions", "interps", "states",
                 "location_index", "exc_values", "_live", "_inputs")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, carriers: dict[str, tuple], locations: dict[str, str],
                 exceptions: dict[str, str], interps: dict[str, dict]) -> None:
        set_field(self, "carriers", carriers)
        set_field(self, "locations", locations)
        set_field(self, "exceptions", exceptions)
        set_field(self, "interps", interps)
        axes = [carriers[base] for base in locations.values()]
        set_field(self, "states", tuple(itertools.product(*axes)))
        set_field(self, "location_index",
                  {name: i for i, name in enumerate(locations)})
        set_field(self, "exc_values", tuple(Exc(name, param) for name, base in exceptions.items()
                                            for param in carriers[base]))
        # The live states of `scan_points`, by the frozenset of location
        # indices a check reads or writes.
        set_field(self, "_live", {})
        # The inputs of `scan_inputs`, by type.
        set_field(self, "_inputs", {})

    def state_str(self, state: tuple) -> str:
        return ",".join(f"{name}={value}"
                        for name, value in zip(self.locations, state))


def enumerate_points(ty: ObjType, model: FiniteModel) -> list:
    """Ordinary points of `ty`, in the documented deterministic order.

    Declared carrier order for base types, left-major lexicographic for
    products, all-left-then-all-right for sums.  A loop, so deep types
    enumerate too: `Prod` or `Sum` itself joins the last two on `done`.
    """
    return _points(ty, model, False)


# How `_points` joins the points, or the counts of points, of two types.
_JOINS = {(Prod, False): lambda left, right: [(a, b) for a in left for b in right],
          (Sum, False): lambda left, right: [("L", a) for a in left] + [("R", b) for b in right],
          (Prod, True): int.__mul__, (Sum, True): int.__add__}


def _points(ty: ObjType, model: FiniteModel, counting: bool):
    """`enumerate_points`, or with `counting` the number of those points,
    found from the carrier sizes without enumerating them."""
    done: list = []
    todo: list = [ty]
    while todo:
        ty = todo.pop()
        if ty is Prod or ty is Sum:
            right, left = done.pop(), done.pop()
            done.append(_JOINS[ty, counting](left, right))
        elif isinstance(ty, (Prod, Sum)):
            todo += (type(ty), ty.right, ty.left)
        elif isinstance(ty, (Unit, Empty)):
            points = [UNIT] if isinstance(ty, Unit) else []
            done.append(len(points) if counting else points)
        elif isinstance(ty, Base):
            if ty.name not in model.carriers:
                raise UnknownBaseType(f"base type {ty.name!r} has no carrier")
            carrier = model.carriers[ty.name]
            done.append(len(carrier) if counting else list(carrier))
        else:
            raise TypeError(f"not an object type: {ty!r}")
    return done[0]


def _absurd(t, v):
    raise CarrierMismatch(f"ordinary value {v!r} reached the empty type")


def _op_error(interps: dict, name: str, key) -> ModelError:
    if name not in interps:
        return MissingInterpretation(f"operation {name!r} has no interpretation")
    v, s = key
    return CarrierMismatch(
        f"operation {name!r} undefined on input {v!r} in state {s!r}")


def eval_term(term: DecoratedTerm, model: FiniteModel, value, state: tuple) -> Outcome:
    """The outcome of `term` on one input in one state: `eval_points`."""
    (v, s), = eval_points(term, model, [(value, state)])
    return Outcome(v, s)


# The post-steps of `eval_points`, the first field of each of its frames.
_THEN, _SECOND, _PAIRED, _CAUGHT, _LEFT, _MERGE = range(6)

# Every leaf but `Op`, as a map from (node, ordinary points) to its results.
_KERNELS = {
    Id: lambda t, pts: pts,
    Proj1: lambda t, pts: [(v[0], s) for v, s in pts],
    Proj2: lambda t, pts: [(v[1], s) for v, s in pts],
    Inj1: lambda t, pts: [(("L", v), s) for v, s in pts],
    Inj2: lambda t, pts: [(("R", v), s) for v, s in pts],
    Bang: lambda t, pts: [(UNIT, s) for _, s in pts],
    Const: lambda t, pts: [(value, s) for value in (t.value,) for _, s in pts],
    Absurd: lambda t, pts: [_absurd(t, v) for v, _ in pts],
}


def eval_points(term: DecoratedTerm, model: FiniteModel, points: list) -> list:
    """The (value, state) result of `term` at each (value, state) point of
    `points`, in their order, by the rules in the module docstring.

    One walk carries every point through the term, so each node is
    dispatched once for all the points that reach it rather than once per
    point.  A leaf or an op that catches nothing runs only on the ordinary
    points.  The walk reads from the values, after every op, whether its
    list is ordinary, and then tests no point for an exception.  Iterative,
    so terms of any depth evaluate.  It changes no list it is handed, and
    may return one of them: `Id` gives back its input."""
    interps = model.interps
    # Each frame is a post-step, run on the results of the node above it:
    #   (_THEN, node): run `node` on them.
    #   (_SECOND, second, values): run a pair's second half on each input
    #     value, in the state the first half left, where that half's result
    #     is ordinary.  Only the values are kept, as frames stay open as deep
    #     as the term nests.
    #   (_PAIRED, firsts): pair the results with the first half's.
    #   (_CAUGHT, node): run `node` on the exceptional results.
    #   (_MERGE, rest, results, where): put them in `results` at positions
    #     `where`, and hand `results` on; `rest` says whether the other
    #     results there are ordinary.  A subset of points runs above one.
    #   (_LEFT, node, lefts, lwhere, results, where): do the same, then run
    #     `node` on `lefts`, whose results go to positions `lwhere`.
    frames: list[tuple] = []
    t, pts = term, points
    plain = Exc not in {type(v) for v, _ in pts}  # no exceptional value in `pts`
    try:
        while True:
            kind = type(t)
            if kind is Comp:
                frames.append((_THEN, t.outer))
                t = t.inner
                continue
            if kind is CaseSeq:
                lefts, rights, lwhere, rwhere = [], [], [], []
                for i, (v, s) in enumerate(pts):
                    if plain or type(v) is not Exc:
                        tag, v = v
                        if tag == "L":
                            lefts.append((v, s))
                            lwhere.append(i)
                            continue
                    rights.append((v, s))
                    rwhere.append(i)
                if not rights:
                    t, pts, plain = t.on_left, lefts, True
                    continue
                if lefts:
                    frames.append((_LEFT, t.on_left, lefts, lwhere,
                                   [None] * len(pts), rwhere))
                frames.append((_CAUGHT, t.on_left))
                t, pts = t.on_right, rights
                continue
            if not plain and kind is not Id and (kind in _KERNELS or kind is PairSeq or
                                                 kind is Op and t.symbol.decoration.exc < 2):
                # Exceptional values pass this node: run it on the others.
                where = [i for i, p in enumerate(pts) if type(p[0]) is not Exc]
                if where:
                    if len(where) < len(pts):
                        frames.append((_MERGE, False, list(pts), where))
                        pts = [pts[i] for i in where]
                    plain = True
                    continue
            elif kind is PairSeq:
                frames.append((_SECOND, t.second, [v for v, _ in pts]))
                t = t.first
                continue
            elif kind is Op:
                name = t.symbol.name
                try:
                    pts = list(map(interps[name].__getitem__, pts))
                except KeyError as missing:
                    raise _op_error(interps, name, missing.args[0]) from None
                plain = Exc not in {type(v) for v, _ in pts}
            else:
                kernel = _KERNELS.get(kind)
                if kernel is None:
                    raise TypeError(f"not a term: {t!r}")
                pts = kernel(t, pts)
            # `pts` holds the results of `t`: run the post-steps down to the
            # next one that runs a node, or return them when none is left.
            while frames:
                frame = frames.pop()
                step = frame[0]
                if step is _THEN:
                    t = frame[1]
                    break
                if step is _PAIRED:
                    if plain:
                        pts = [((v, w), s) for (v, _), (w, s) in zip(frame[1], pts)]
                    else:
                        pts = [q if type(q[0]) is Exc else ((p[0], q[0]), q[1])
                               for p, q in zip(frame[1], pts)]
                elif step is _SECOND:
                    values = frame[2]
                    if not plain:
                        where = [i for i, p in enumerate(pts) if type(p[0]) is not Exc]
                        if not where:
                            continue
                        if len(where) < len(pts):
                            frames.append((_MERGE, False, list(pts), where))
                            pts, values = [pts[i] for i in where], [values[i] for i in where]
                    frames.append((_PAIRED, pts))
                    t, pts, plain = frame[1], [(v, p[1]) for v, p in zip(values, pts)], True
                    break
                elif step is _CAUGHT:
                    where = not plain and [i for i, p in enumerate(pts) if type(p[0]) is Exc]
                    if not where:
                        plain = True
                        continue
                    if len(where) < len(pts):
                        frames.append((_MERGE, True, list(pts), where))
                        pts = [pts[i] for i in where]
                    t = frame[1]
                    break
                else:
                    results, where = frame[-2], frame[-1]
                    for i, p in zip(where, pts):
                        results[i] = p
                    if step is _LEFT:
                        frames.append((_MERGE, plain, results, frame[3]))
                        t, pts, plain = frame[1], frame[2], True
                        break
                    pts, plain = results, plain and frame[1]
            else:
                return pts
    except (TypeError, ValueError, IndexError):
        # Only an input off the carrier fails inside a projection or a case
        # split; running the node's points one at a time finds the first.
        if kind not in (Proj1, Proj2, CaseSeq):
            raise
        for v, s in pts:
            try:
                if kind is not CaseSeq:
                    _KERNELS[kind](t, [(v, s)])
                elif type(v) is not Exc:
                    tag, _ = v
            except (TypeError, ValueError, IndexError):
                raise CarrierMismatch(f"{kind.__name__} undefined on input {v!r} "
                                      f"in state {s!r}") from None
        raise


class Counterexample(Record):
    __slots__ = ("value", "state", "left", "right")


def render_counterexample(cex: Counterexample, model: FiniteModel) -> str:
    """Stable one-line rendering: state components by location name,
    then the input (omitted at the unit type, `name(param)` for
    exceptional inputs)."""
    parts = [f"{name}={value}"
             for name, value in zip(model.locations, cex.state)]
    v = cex.value
    if isinstance(v, Exc):
        parts.append(f"v={v.name}({v.param})")
    elif v is not UNIT:
        parts.append(f"v={v}")
    return ",".join(parts) if parts else "<empty>"


def scan_points(source: ObjType, model: FiniteModel, exceptional: bool = True,
                terms: tuple[DecoratedTerm, ...] | None = None) -> list[tuple]:
    """The (input, state) points of a check on `source`, in scan order:
    state-major, and in each state the ordinary inputs (see
    `enumerate_points`), then, when `exceptional`, the exceptional ones.
    Every verdict walks this list, so its first difference is the
    counterexample.

    Given the two `terms` of a check, only their live states are listed
    (see the module docstring), which gives every check the verdict and
    the first difference of a walk over all states.  Without them it
    lists every state, as `validate_model` needs."""
    inputs = scan_inputs(source, model)[0]
    if not exceptional:
        inputs = [v for v in inputs if type(v) is not Exc]
    states = model.states if terms is None else _live_states(model, terms)
    return [(v, state) for state in states for v in inputs]


def scan_inputs(ty: ObjType, model: FiniteModel) -> tuple[list, dict]:
    """The inputs of each state of `scan_points(ty, model)`, in order, and
    each input's place among them; built once per type and model."""
    found = model._inputs.get(ty)
    if found is None:
        inputs = enumerate_points(ty, model) + list(model.exc_values)
        found = model._inputs[ty] = (inputs, {v: i for i, v in enumerate(inputs)})
    return found


def _live_states(model: FiniteModel, terms) -> tuple:
    """`model.states` with every location outside the footprint of
    `terms` held at its carrier's first value, in state order.

    The footprint is the set of locations that the `lookup_x` and
    `update_x` ops in `terms` name, found by a walk over the nodes by
    identity (elaborated terms share them).  An op is known by its name
    and by its table as it stands, which the walk never fills in, so it
    neither builds a table nor raises for an op that no point reaches.
    The decoration never narrows the footprint: a theory file may
    declare a lookup pure.  An op whose table `build_model` did not
    make may read any location, so it keeps every state.
    """
    index, interps = model.location_index, model.interps
    # With one location, a side that its decoration says may touch the
    # state all but always names it, so the walk is spared: keeping every
    # state is exact, however the ops are declared.
    if not index or len(index) == 1 and any(t.decoration.state for t in terms):
        return model.states
    ours = interps.states if getattr(interps, "model", None) is model else None
    found: set[int] = set()
    seen: set[int] = set()
    todo = list(terms)
    while todo:
        t = todo.pop()
        branches = CHILDREN.get(type(t))
        if branches is not None:
            if id(t) not in seen:
                seen.add(id(t))
                todo += branches(t)
        elif type(t) is Op:
            name = t.symbol.name
            table = interps.get(name)
            if table is not None and not (type(table) is _Table
                                          and table.states is ours):
                return model.states
            family, _, arg = name.partition("_")
            if family in ("lookup", "update") and arg in index:
                found.add(index[arg])
                if len(found) == len(index):
                    return model.states
    key = frozenset(found)
    states = model._live.get(key)
    if states is None:
        fixed = [(i, model.carriers[base][0])
                 for i, base in enumerate(model.locations.values()) if i not in key]
        states = tuple(s for s in model.states
                       if all(s[i] == first for i, first in fixed))
        model._live[key] = states
    return states


class Tables:
    """Behaviour tables over `states` of `model`, which the ops of the
    terms tabulated map to one another: every state, or a check's live ones.

    A term's table lists, at each point of `scan_points` over `states`,
    the position of its outcome among the points of its target, where
    position `s * n + v` is input `v` of a type with `n` in state
    `states[s]`.  So a `Comp`'s table is the outer table read at the inner
    table's entries, and a `PairSeq`'s or a `CaseSeq`'s is one lookup or
    two per point, by the rules in the module docstring."""

    def __init__(self, model: FiniteModel, states: tuple) -> None:
        self.model, self.states = model, states
        self._state = {state: i for i, state in enumerate(states)}
        self._raises = len(model.exc_values)
        # Tables kept by node identity; each entry holds its node, so no id
        # is reused.
        self._tables: dict[int, tuple] = {}
        # Leaves' tables by node, so an op's by its symbol.
        self._leaves: dict[DecoratedTerm, tuple] = {}

    def tables(self, term: DecoratedTerm) -> tuple:
        """The table of `term`, composed over an explicit stack from the
        tables of its nodes; a kept one is read, and a leaf's is kept.
        Raises ValueError where two children do not meet, KeyError where an
        outcome is off its type or states, and as `eval_term` at an op."""
        kept = self._tables.get(id(term))
        if kept is not None:
            return kept[1]
        done: dict[int, tuple] = {}
        todo = [term]
        while todo:
            t = todo.pop()
            if id(t) in done:
                continue
            kept = self._tables.get(id(t))
            kind = type(t)
            if kept is not None:
                table = kept[1]
            elif kind in CHILDREN:
                a, b = CHILDREN[kind](t)
                left, right = done.get(id(a)), done.get(id(b))
                if left is None or right is None:
                    todo += (t, a, b)
                    continue
                a, b = MEETS[kind][0](t)
                if a is not b:
                    raise ValueError(f"{FORMS[kind].head} arguments differ in type: "
                                     f"{print_type(a)} and {print_type(b)}")
                table = self._compose(t, left, right)
            else:
                table = self._leaves.get(t)
                if table is None:
                    table = self._leaves[t] = self._leaf(t)
            done[id(t)] = table
        return done[id(term)]

    def _width(self, ty: ObjType) -> tuple[int, int]:
        """(inputs, ordinary inputs) of each state of `ty`."""
        n = len(scan_inputs(ty, self.model)[0])
        return n, n - self._raises

    def _leaf(self, t: DecoratedTerm) -> tuple:
        """A leaf's table.  An op's is evaluated with `eval_term` at each
        of its points, but a non-catching op's, as any other leaf's, passes
        exceptional inputs on as they are."""
        index, inputs = scan_inputs(t.target, self.model)[1], scan_inputs(t.source, self.model)[0]
        m, k = self._width(t.target)
        ordinary = inputs[:len(inputs) - self._raises]
        if type(t) is Op:
            catches = t.symbol.decoration.exc > 1
            table = []
            for s, state in enumerate(self.states):
                outs = [eval_term(t, self.model, v, state)
                        for v in (inputs if catches else ordinary)]
                table += [self._state[out.state] * m + index[out.value] for out in outs]
                if not catches:
                    table += range(s * m + k, s * m + m)
            return tuple(table)
        row = [index[v] for v, _ in _KERNELS[type(t)](t, [(v, None) for v in ordinary])]
        row += range(k, m)
        return tuple(s * m + r for s in range(len(self.states)) for r in row)

    def _compose(self, t: DecoratedTerm, left: tuple, right: tuple) -> tuple:
        """The table of a node with two children from theirs."""
        kind = type(t)
        if kind is Comp:
            return tuple(map(left.__getitem__, right))
        (n, o), (m, k) = self._width(t.source), self._width(t.target)
        out = []
        if kind is PairSeq:
            (na, oa), (nb, ob) = self._width(t.first.target), self._width(t.second.target)
            for i, p in enumerate(left):
                s, v = divmod(i, n)
                if v >= o:
                    out.append(s * m + k + v - o)
                    continue
                s, a = divmod(p, na)
                if a >= oa:
                    out.append(s * m + k + a - oa)
                    continue
                s, b = divmod(right[s * n + v], nb)
                out.append(s * m + (a * ob + b if b < ob else k + b - ob))
            return tuple(out)
        (na, oa), (nb, ob) = self._width(t.on_left.source), self._width(t.on_right.source)
        for i in range(len(self.states) * n):
            s, v = divmod(i, n)
            if v < oa:
                out.append(left[s * na + v])
                continue
            p = right[s * nb + (v - oa if v < o else ob + v - o)]
            s, c = divmod(p, m)
            out.append(p if c < k else left[s * na + oa + c - k])
        return tuple(out)

    def difference(self, lhs: DecoratedTerm, a: tuple, b: tuple,
                   strong: bool) -> Counterexample | None:
        """The first point of `scan_points` where two terms of `lhs`'s type
        with tables `a` and `b` differ: in outcome when `strong`, else in
        value at an ordinary input."""
        if a == b:
            return None
        (n, o), m = self._width(lhs.source), self._width(lhs.target)[0]
        if strong:
            i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        else:
            i = next((i for i, (x, y) in enumerate(zip(a, b))
                      if x != y and i % n < o and x % m != y % m), None)
            if i is None:
                return None
        return Counterexample(*self._point(lhs.source, i),
                              Outcome(*self._point(lhs.target, a[i])),
                              Outcome(*self._point(lhs.target, b[i])))

    def _point(self, ty: ObjType, p: int) -> tuple:
        """The (input, state) at position `p` among the points of `ty`."""
        inputs = scan_inputs(ty, self.model)[0]
        s, v = divmod(p, len(inputs))
        return inputs[v], self.states[s]


def _from_tables(lhs: DecoratedTerm, rhs: DecoratedTerm, model: FiniteModel,
                 modes: tuple) -> list | None:
    """The checks of `lhs` and `rhs` that `modes` name (True for strong),
    from their tables over the live states; None where the scan answers,
    and so raises its own errors: when the sides differ in type, when
    composing raises, or when the tables would outgrow the scan.  They
    hold an entry per node at each point of its source, where a scan
    evaluates the nodes at the points of the check's source, so the mean
    node's source may hold at most four times as many."""
    if lhs.source is not rhs.source or lhs.target is not rhs.target:
        return None
    nodes: dict[int, DecoratedTerm] = {}
    todo = [lhs, rhs]
    while todo:
        t = todo.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            if type(t) in CHILDREN:
                todo += CHILDREN[type(t)](t)
    try:
        widths = {ty: _points(ty, model, True) + len(model.exc_values)
                  for ty in {t.source for t in nodes.values()}}
        if sum(widths[t.source] for t in nodes.values()) > 4 * len(nodes) * widths[lhs.source]:
            return None
        tables = Tables(model, _live_states(model, (lhs, rhs)))
        a, b = tables.tables(lhs), tables.tables(rhs)
    except (LookupError, ValueError, TypeError, ModelError):
        return None
    return [tables.difference(lhs, a, b, strong) for strong in modes]


def _scan(lhs: DecoratedTerm, rhs: DecoratedTerm, model: FiniteModel,
          full_outcome: bool) -> Counterexample | None:
    for v, state in scan_points(lhs.source, model, full_outcome, (lhs, rhs)):
        a = eval_term(lhs, model, v, state)
        b = eval_term(rhs, model, v, state)
        if (a != b) if full_outcome else (a.value != b.value):
            return Counterexample(v, state, a, b)
    return None


def _check(lhs: DecoratedTerm, rhs: DecoratedTerm, model: FiniteModel,
           full_outcome: bool) -> Counterexample | None:
    found = _from_tables(lhs, rhs, model, (full_outcome,))
    return found[0] if found else _scan(lhs, rhs, model, full_outcome)


def check_strong_eq(lhs: DecoratedTerm, rhs: DecoratedTerm,
                    model: FiniteModel) -> Counterexample | None:
    """None when full outcomes coincide on every input (ordinary and
    exceptional) and every state; otherwise the first counterexample."""
    return _check(lhs, rhs, model, full_outcome=True)


def check_weak_eq(lhs: DecoratedTerm, rhs: DecoratedTerm,
                  model: FiniteModel) -> Counterexample | None:
    """None when result values (including exceptional identity) agree
    on every ordinary input and every state, ignoring final states."""
    return _check(lhs, rhs, model, full_outcome=False)


def check_both_eq(lhs: DecoratedTerm, rhs: DecoratedTerm, model: FiniteModel
                  ) -> tuple[Counterexample | None, Counterexample | None]:
    """(`check_weak_eq`, `check_strong_eq`) from one pair of tables, or
    from two scans.  The strong scan runs first: it stops at the first
    difference, which is at or before the weak one, so an error either
    scan meets is the first a walk of both would meet."""
    found = _from_tables(lhs, rhs, model, (False, True))
    if found:
        return tuple(found)
    strong = _scan(lhs, rhs, model, full_outcome=True)
    return _scan(lhs, rhs, model, full_outcome=False), strong


def check_eq(mode, lhs, rhs, model) -> Counterexample | None:
    if mode is Mode.STRONG:
        return check_strong_eq(lhs, rhs, model)
    return check_weak_eq(lhs, rhs, model)


# ---------------------------------------------------------------------------
# Standard interpretations


def build_model(theory, carriers: dict[str, tuple]) -> FiniteModel:
    """Instantiate `theory` over the given carriers.

    Each operation `family_arg` is interpreted from its name (lookups
    read location `arg`, updates overwrite it, tags wrap, untags
    match-or-rethrow, add, sub, mul, eq and le act on base `arg`, and
    `dist_N` distributes a pair over a sum, where N is the `number` of
    that product type in `declogic.types`).  Tables fill on first use, and so does
    `interps`, for ops outside the signature too; `len()` counts entries.
    """
    for base in set(theory.locations.values()) | set(theory.exceptions.values()):
        if base not in carriers:
            raise UnknownBaseType(f"base type {base!r} has no carrier")
    interps = _Interps()
    model = FiniteModel(
        carriers=dict(carriers),
        locations=dict(theory.locations),
        exceptions=dict(theory.exceptions),
        interps=interps,
    )
    interps.model, interps.states, interps.points = model, frozenset(model.states), {}
    for name in theory.signature:
        try:
            interps[name]
        except KeyError:
            raise MissingInterpretation(
                f"operation {name!r} has no construction recipe and no "
                f"explicit interpretation") from None
    return model


class _Interps(dict):
    """Tables by operation name; a missing name gets the table of its family.
    `points` holds the pairs that `dist` tables have found inside points
    of their types, which all of them share."""

    def __missing__(self, name):
        family = _family(name, self.model, self.points)
        if family is None:
            raise KeyError(name)
        self[name] = table = _Table(*family, self.states)
        return table


class _Table(dict):
    """A table that fills on first use, from `entry`, at values passing `in_domain`."""

    def __init__(self, in_domain, entry, states: frozenset) -> None:
        super().__init__()
        self.in_domain, self.entry, self.states = in_domain, entry, states

    def __missing__(self, key):
        value, state = key
        if state not in self.states or not self.in_domain(value):
            raise KeyError(key)
        self[key] = out = self.entry(value, state)
        return out


# The families on pairs of values from base `arg`, as f(a, b, carrier size).
_ON_PAIRS = {
    "add": lambda a, b, n: (a + b) % n,
    "sub": lambda a, b, n: (a - b) % n,
    "mul": lambda a, b, n: (a * b) % n,
    "eq": lambda a, b, n: ("L", UNIT) if a == b else ("R", UNIT),
    "le": lambda a, b, n: ("L", UNIT) if a <= b else ("R", UNIT),
}


def _family(name: str, model: FiniteModel, points: dict):
    """(in_domain, entry) of the op named `kind_arg`; None if `kind` or `arg`
    is unknown.  A `dist` op checks its inputs with `_inhabits` over `points`."""
    kind, _, arg = name.partition("_")
    if kind in ("lookup", "update") and arg in model.locations:
        i = model.location_index[arg]
        if kind == "lookup":
            return (lambda v: v is UNIT), lambda v, s: (s[i], s)
        return (frozenset(model.carriers[model.locations[arg]]).__contains__,
                lambda v, s: (UNIT, s[:i] + (v,) + s[i + 1:]))
    if kind == "tag" and arg in model.exceptions:
        return (frozenset(model.carriers[model.exceptions[arg]]).__contains__,
                lambda v, s: (Exc(arg, v), s))
    if kind == "untag" and arg in model.exceptions:
        return (frozenset(model.exc_values).__contains__,
                lambda v, s: (v.param if v.name == arg else v, s))
    ty = numbered_type(arg) if kind == "dist" else None
    if isinstance(ty, Prod) and isinstance(ty.right, Sum):
        sets = {base: frozenset(carrier) for base, carrier in model.carriers.items()}
        return (lambda v: _inhabits(ty, v, sets, name, points),
                lambda v, s: ((v[1][0], (v[0], v[1][1])), s))
    carrier = model.carriers.get(arg)
    if carrier is None or kind not in _ON_PAIRS:
        return None
    size = len(carrier)
    if kind in ("add", "sub", "mul") and tuple(carrier) != tuple(range(size)):
        raise ModelError(f"arithmetic needs carrier 0..{size - 1}, got {carrier!r}")
    fn, values = _ON_PAIRS[kind], frozenset(carrier)
    return (lambda v: type(v) is tuple and len(v) == 2
            and v[0] in values and v[1] in values), lambda v, s: (fn(*v, size), s)


def _inhabits(ty: ObjType, value, sets: dict[str, frozenset], name: str,
              points: dict) -> bool:
    """Whether `value` is an ordinary point of `ty`, where `sets` holds the
    carriers by base; a loop, so deep types are checked.  A base without
    a carrier leaves op `name` with no interpretation.  Each pair inside a
    point is kept in `points` by its type and identity, with the pair so
    that the identity stays its own, and is not walked again: the
    environment a handler's `dist` reads is a pair that holds the
    environment of the handler around it.  `value` itself is not kept, as
    its table keeps its entry."""
    todo = [(ty, value)]
    pairs = []
    while todo:
        ty, v = todo.pop()
        pair = type(v) is tuple and len(v) == 2
        if isinstance(ty, Prod) and pair:
            if (ty, id(v)) in points:
                continue
            todo += ((ty.left, v[0]), (ty.right, v[1]))
            if v is not value:
                pairs.append((ty, v))
        elif isinstance(ty, Sum) and pair and v[0] in ("L", "R"):
            todo.append((ty.left if v[0] == "L" else ty.right, v[1]))
        elif isinstance(ty, Base) and ty.name not in sets:
            raise MissingInterpretation(f"operation {name!r} reads base type "
                                        f"{ty.name!r}, which has no carrier")
        elif not (v is UNIT if isinstance(ty, Unit)
                  else isinstance(ty, Base) and v in sets[ty.name]):
            return False
    points.update(((ty, id(v)), v) for ty, v in pairs)
    return True


def validate_model(model: FiniteModel, theory) -> list[str]:
    """Check every table against its symbol's type and decoration.

    Returns a list of problems (empty when the model is valid): wrong
    coverage, state mutation by a non-modifier, state-dependent output
    from a pure operation, ordinary raising by an exception-pure
    operation, missing exceptional coverage for a catcher.
    """
    problems = []
    for name, symbol in theory.signature.items():
        table = model.interps.get(name)
        if table is None:
            problems.append(f"{name}: no interpretation")
            continue
        wanted = set(scan_points(symbol.source, model,
                                 symbol.decoration.exc >= 2))
        for key in wanted:  # forces a table that fills on first use
            try:
                table[key]
            except KeyError:
                pass
        have = set(table.keys())
        if have != wanted:
            missing = wanted - have
            extra = have - wanted
            if missing:
                problems.append(f"{name}: table misses {sorted_keys(missing)}")
            if extra:
                problems.append(f"{name}: table covers spurious {sorted_keys(extra)}")
        targets = set(enumerate_points(symbol.target, model))
        by_value: dict = {}
        for key in have & wanted:
            v, s = key
            out_v, out_s = table[key]
            if out_s not in model.states:
                problems.append(f"{name}: output state {out_s!r} invalid")
            if symbol.decoration.state <= 1 and out_s != s:
                problems.append(
                    f"{name}: non-modifier changed state on {key!r}")
            if symbol.decoration.state == 0:
                by_value.setdefault(v, set()).add(out_v)
            if isinstance(out_v, Exc):
                if symbol.decoration.exc == 0:
                    problems.append(f"{name}: pure operation raised on {key!r}")
                elif out_v not in model.exc_values:
                    problems.append(f"{name}: unknown exceptional value {out_v!r}")
            elif out_v not in targets:
                problems.append(f"{name}: output {out_v!r} outside target carrier")
        for v, outs in by_value.items():
            if len(outs) > 1:
                problems.append(f"{name}: state-pure operation depends on state at {v!r}")
    return problems


def sorted_keys(keys) -> str:
    return ", ".join(repr(k) for k in sorted(keys, key=repr)[:3])


# ---------------------------------------------------------------------------
# Model description files


class ModelConfig(Record):
    __slots__ = ("carriers", "locations", "exceptions")


# The record each model line form fills (see `syntax.LINE_FORMS`).
MODEL_FIELDS = {"type": "carriers", "location": "locations", "exception": "exceptions"}


def parse_model_config(text: str) -> ModelConfig:
    """Parse a model description: `type V = {0,1}`, `location x : V` and
    `exception e : V` lines, with `#` comments."""
    return config_from_lines(read_lines(text, "model"))


def config_from_lines(lines, bases_declared: bool = True) -> ModelConfig:
    """The description of model lines read by `read_lines`.  With
    `bases_declared`, a base type is declared before it is used."""
    config = ModelConfig({}, {}, {})
    for lineno, head, (name, value) in lines:
        if bases_declared and head != "type" and value not in config.carriers:
            raise ParseError(f"type {value!r} not declared", lineno, 1)
        getattr(config, MODEL_FIELDS[head])[name] = value
    return config


def print_model_config(config: ModelConfig) -> str:
    """The model file of `config`, or the model lines of a theory."""
    return print_lines((head, item) for head, field in MODEL_FIELDS.items()
                       for item in getattr(config, field).items())
