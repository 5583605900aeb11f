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
degenerates to value agreement.  Every check walks the points
`scan_points` lists, in its one order (state-major; ordinary inputs,
then exceptional ones), and reports the first difference;
`check_both_eq` gives both verdicts from one walk.

A check walks only the live states: those whose locations outside both
sides' footprint (the locations their `lookup_x` and `update_x` ops
name) hold their carrier's first value.  That is exact.  Neither side
reads or writes such a location, so changing it in the initial state
changes it alike in both final states and nothing else, and the set of
differing points is closed under that change.  Its first point in
state-major order then holds the first value there, and so do the first
point that raises and the first state a loop runs out of fuel from.
Probe tables and `validate_model`, which compare whole tables point by
point, walk every state.
"""

from __future__ import annotations

import itertools

from .record import Record, set_field
from .terms import (
    FORMS,
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
from .syntax import ParseError, parse_type_code, print_lines, read_lines
from .types import Base, Empty, ObjType, Prod, Sum, Unit, base_names


class _UnitValue:
    """The sole inhabitant of the unit type."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"


UNIT = _UnitValue()


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
    exceptional inputs, everything else only ordinary ones.  `states`
    and `location_index` follow from `carriers` and `locations`.  Two
    models are equal only when they are one object.
    """

    __slots__ = ("carriers", "locations", "exceptions", "interps", "states",
                 "location_index", "_live")
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
        # The live states of `scan_points`, by the frozenset of location
        # indices a check reads or writes.
        set_field(self, "_live", {})

    def exceptional_values(self) -> list[Exc]:
        values = []
        for name, base in self.exceptions.items():
            for param in self.carriers[base]:
                values.append(Exc(name, param))
        return values

    def state_str(self, state: tuple) -> str:
        return ",".join(f"{name}={value}"
                        for name, value in zip(self.locations, state))


def enumerate_points(ty: ObjType, model: FiniteModel) -> list:
    """Ordinary points of `ty`, in the documented deterministic order.

    Declared carrier order for base types, left-major lexicographic for
    products, all-left-then-all-right for sums.  A loop, so deep types
    enumerate too: `Prod` or `Sum` itself joins the last two on `done`.
    """
    done: list[list] = []
    todo: list = [ty]
    while todo:
        ty = todo.pop()
        if ty is Prod or ty is Sum:
            right, left = done.pop(), done.pop()
            done.append([(a, b) for a in left for b in right] if ty is Prod
                        else [("L", a) for a in left] + [("R", b) for b in right])
        elif isinstance(ty, (Prod, Sum)):
            todo += (type(ty), ty.right, ty.left)
        elif isinstance(ty, Unit):
            done.append([UNIT])
        elif isinstance(ty, Empty):
            done.append([])
        elif isinstance(ty, Base):
            if ty.name not in model.carriers:
                raise UnknownBaseType(f"base type {ty.name!r} has no carrier")
            done.append(list(model.carriers[ty.name]))
        else:
            raise TypeError(f"not an object type: {ty!r}")
    return done[0]


def _absurd(t, v):
    raise CarrierMismatch(f"ordinary value {v!r} reached the empty type")


# Every leaf but `Op`, as a map from (node, ordinary value) to its result.
_LEAVES = {
    Id: lambda t, v: v,
    Proj1: lambda t, v: v[0],
    Proj2: lambda t, v: v[1],
    Inj1: lambda t, v: ("L", v),
    Inj2: lambda t, v: ("R", v),
    Bang: lambda t, v: UNIT,
    Const: lambda t, v: t.value,
    Absurd: _absurd,
}
_RUN = object()


def _op_error(interps: dict, name: str, v, s) -> ModelError:
    if name not in interps:
        return MissingInterpretation(f"operation {name!r} has no interpretation")
    return CarrierMismatch(
        f"operation {name!r} undefined on input {v!r} in state {s!r}")


def eval_term(term: DecoratedTerm, model: FiniteModel, value, state: tuple) -> Outcome:
    """Evaluate `term` on one input and one state, by the rules in the
    module docstring; iterative, so terms of any depth evaluate."""
    interps = model.interps
    # (node, _RUN) runs `node` next.  Post-steps: (pair, its input) after the
    # first half, (None, first result) after the second, (case, None).
    frames: list[tuple] = []
    t, saved, v, s = term, _RUN, value, state
    try:
        while True:
            exc = isinstance(v, Exc)
            kind = type(t)
            if saved is not _RUN:
                if kind is CaseSeq:
                    if exc:
                        t, saved = t.on_left, _RUN
                        continue
                elif not exc:
                    if kind is PairSeq:
                        frames.append((None, v))
                        t, saved, v = t.second, _RUN, saved
                        continue
                    v = (saved, v)
            elif kind is Comp:
                frames.append((t.outer, _RUN))
                t = t.inner
                continue
            elif kind is Op:
                if not exc or t.symbol.decoration.exc > 1:
                    try:
                        v, s = interps[t.symbol.name][(v, s)]
                    except KeyError:
                        raise _op_error(interps, t.symbol.name, v, s) from None
            elif kind is PairSeq:
                if not exc:
                    frames.append((t, v))
                    t = t.first
                    continue
            elif kind is CaseSeq:
                if not exc:
                    tag, v = v
                    if tag == "L":
                        t = t.on_left
                        continue
                frames.append((t, None))
                t = t.on_right
                continue
            elif kind in _LEAVES:
                if not exc:
                    v = _LEAVES[kind](t, v)
            else:
                raise TypeError(f"not a term: {t!r}")
            if not frames:
                return Outcome(v, s)
            t, saved = frames.pop()
    except (TypeError, ValueError, IndexError):
        # Only an input off the carrier fails inside a projection or a
        # case split; converting here keeps the loop free of checks.
        if kind not in (Proj1, Proj2, CaseSeq):
            raise
        raise CarrierMismatch(f"{kind.__name__} undefined on input {v!r} "
                              f"in state {s!r}") from None


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
    lists every state, which tables compared point by point need."""
    inputs = enumerate_points(source, model)
    if exceptional:
        inputs += model.exceptional_values()
    states = model.states if terms is None else _live_states(model, terms)
    return [(v, state) for state in states for v in inputs]


# The children of each term node with two, for the footprint walk.
_BRANCHES = {kind: form.args for kind, form in FORMS.items() if form.kinds == "tt"}


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
        branches = _BRANCHES.get(type(t))
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


def _scan(lhs: DecoratedTerm, rhs: DecoratedTerm, model: FiniteModel,
          full_outcome: bool) -> Counterexample | None:
    for v, state in scan_points(lhs.source, model, full_outcome, (lhs, rhs)):
        a = eval_term(lhs, model, v, state)
        b = eval_term(rhs, model, v, state)
        if (a != b) if full_outcome else (a.value != b.value):
            return Counterexample(v, state, a, b)
    return None


def check_strong_eq(lhs: DecoratedTerm, rhs: DecoratedTerm,
                    model: FiniteModel) -> Counterexample | None:
    """None when full outcomes coincide on every input (ordinary and
    exceptional) and every state; otherwise the first counterexample."""
    return _scan(lhs, rhs, model, full_outcome=True)


def check_weak_eq(lhs: DecoratedTerm, rhs: DecoratedTerm,
                  model: FiniteModel) -> Counterexample | None:
    """None when result values (including exceptional identity) agree
    on every ordinary input and every state, ignoring final states."""
    return _scan(lhs, rhs, model, full_outcome=False)


def check_both_eq(lhs: DecoratedTerm, rhs: DecoratedTerm, model: FiniteModel
                  ) -> tuple[Counterexample | None, Counterexample | None]:
    """(`check_weak_eq`, `check_strong_eq`) from one walk that evaluates
    each point once per side.  A weak difference is a strong one too,
    so the walk stops at the first, and skips the exceptional inputs
    once the strong verdict is known."""
    strong = None
    for v, state in scan_points(lhs.source, model, True, (lhs, rhs)):
        exceptional = isinstance(v, Exc)
        if exceptional and strong is not None:
            continue
        a = eval_term(lhs, model, v, state)
        b = eval_term(rhs, model, v, state)
        if a != b:
            cex = Counterexample(v, state, a, b)
            if strong is None:
                strong = cex
            if not exceptional and a.value != b.value:
                return cex, strong
    return None, strong


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
    `dist_CODE` distributes a pair over a sum of the type spelled CODE by
    `syntax.type_code`).  Tables fill on first use, and so does
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
    interps.model, interps.states = model, frozenset(model.states)
    for name in theory.signature:
        try:
            interps[name]
        except KeyError:
            raise MissingInterpretation(
                f"operation {name!r} has no construction recipe and no "
                f"explicit interpretation") from None
    return model


class _Interps(dict):
    """Tables by operation name; a missing name gets the table of its family."""

    def __missing__(self, name):
        family = _family(name, self.model)
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


def _family(name: str, model: FiniteModel):
    """(in_domain, entry) of the op named `kind_arg`; None if `kind` or `arg` is unknown."""
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
        return (frozenset(model.exceptional_values()).__contains__,
                lambda v, s: (v.param if v.name == arg else v, s))
    ty = parse_type_code(arg) if kind == "dist" else None
    if (isinstance(ty, Prod) and isinstance(ty.right, Sum)
            and base_names(ty) <= model.carriers.keys()):
        sets = {base: frozenset(model.carriers[base]) for base in base_names(ty)}
        return (lambda v: _inhabits(ty, v, sets),
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


def _inhabits(ty: ObjType, value, sets: dict[str, frozenset]) -> bool:
    """Whether `value` is an ordinary point of `ty`, where `sets` holds the
    carriers of the bases in `ty`; a loop, so deep types are checked."""
    todo = [(ty, value)]
    while todo:
        ty, v = todo.pop()
        pair = type(v) is tuple and len(v) == 2
        if isinstance(ty, Prod) and pair:
            todo += ((ty.left, v[0]), (ty.right, v[1]))
        elif isinstance(ty, Sum) and pair and v[0] in ("L", "R"):
            todo.append((ty.left if v[0] == "L" else ty.right, v[1]))
        elif not (v is UNIT if isinstance(ty, Unit)
                  else isinstance(ty, Base) and v in sets[ty.name]):
            return False
    return True


def validate_model(model: FiniteModel, theory) -> list[str]:
    """Check every table against its symbol's type and decoration.

    Returns a list of problems (empty when the model is valid): wrong
    coverage, state mutation by a non-modifier, state-dependent output
    from a pure operation, ordinary raising by an exception-pure
    operation, missing exceptional coverage for a catcher.
    """
    problems = []
    exc_values = model.exceptional_values()
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
                elif out_v not in exc_values:
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
