"""Effect theories: state operations, their exception duals, and merges.

A theory bundles a signature of decorated operation symbols, named
axioms, and observational rules.  The states theory declares a lookup
and an update per location with two weak axiom families; the
exceptions theory is produced from it by a mechanical dualizer; the
combined theory is their disjoint union.  Every operation is named
`family_arg` (`lookup_x`, `untag_e`, `add_V`), and a finite model
interprets it from that name alone, so a theory carries no tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .terms import (
    FORMS,
    Bang,
    Comp,
    DecoratedTerm,
    Decoration,
    Equation,
    Id,
    Mode,
    Op,
    OpSymbol,
    PairSeq,
    Proj1,
    Proj2,
    copy_term,
    seq_then,
    swap_term,
)
from .types import UNIT_T, Base, ObjType


class TheoryError(Exception):
    pass


class DuplicateLocation(TheoryError):
    pass


class WrongFlavor(TheoryError):
    pass


class NameClash(TheoryError):
    pass


@dataclass(frozen=True)
class ObsRule:
    """A family of observers justifying strong conclusions.

    States direction: if every observer-after-lhs weakly equals the
    same observer after rhs, the sides are strongly equal.  Exceptions
    direction: the observers are co-observers, composed before the
    sides instead of after.
    """

    direction: str  # "states" or "exceptions"
    observers: tuple[DecoratedTerm, ...]


@dataclass(frozen=True, eq=False)
class Theory:
    flavor: str  # "states", "exceptions", "combined"
    signature: dict[str, OpSymbol]
    axioms: dict[str, Equation]
    obs_rules: tuple[ObsRule, ...]
    locations: dict[str, str] = field(default_factory=dict)
    exceptions: dict[str, str] = field(default_factory=dict)
    # Carriers fixed for the bases (imp theories): `type` lines in a dump.
    carriers: dict[str, tuple] = field(default_factory=dict)

    def base_type(self, location_or_exception: str) -> Base:
        if location_or_exception in self.locations:
            return Base(self.locations[location_or_exception])
        if location_or_exception in self.exceptions:
            return Base(self.exceptions[location_or_exception])
        raise TheoryError(f"{location_or_exception!r} is not declared")


def lookup_op(theory: Theory, location: str) -> Op:
    return Op(theory.signature[f"lookup_{location}"])


def update_op(theory: Theory, location: str) -> Op:
    return Op(theory.signature[f"update_{location}"])


def tag_op(theory: Theory, exception: str) -> Op:
    return Op(theory.signature[f"tag_{exception}"])


def untag_op(theory: Theory, exception: str) -> Op:
    return Op(theory.signature[f"untag_{exception}"])


def states_theory(locations) -> Theory:
    """The theory of global state over the given locations.

    `locations` maps location names to base type names (any iterable of
    pairs is accepted).  Per location there is a decoration-(1,0)
    lookup and a decoration-(2,0) update.  Axioms, all weak: reading a
    location just written yields the written value (ax1); writing one
    location does not change what another reads (ax2).  One
    observational rule: terms into the unit type agreeing under every
    lookup are strongly equal.
    """
    pairs = list(locations.items()) if isinstance(locations, dict) else list(locations)
    if not pairs:
        raise TheoryError("a states theory needs at least one location")
    locs: dict[str, str] = {}
    for name, base in pairs:
        if name in locs:
            raise DuplicateLocation(f"location {name!r} declared twice")
        locs[name] = base
    signature: dict[str, OpSymbol] = {}
    for name, base in locs.items():
        value_ty = Base(base)
        signature[f"lookup_{name}"] = OpSymbol(
            f"lookup_{name}", UNIT_T, value_ty, Decoration(1, 0))
        signature[f"update_{name}"] = OpSymbol(
            f"update_{name}", value_ty, UNIT_T, Decoration(2, 0))
    axioms: dict[str, Equation] = {}
    for name in locs:
        value_ty = Base(locs[name])
        lookup = Op(signature[f"lookup_{name}"])
        update = Op(signature[f"update_{name}"])
        axioms[f"st_ax1_{name}"] = Equation(
            Mode.WEAK, Comp(lookup, update), Id(value_ty))
    for written in locs:
        for read in locs:
            if written == read:
                continue
            update = Op(signature[f"update_{written}"])
            lookup = Op(signature[f"lookup_{read}"])
            written_ty = Base(locs[written])
            axioms[f"st_ax2_{written}_{read}"] = Equation(
                Mode.WEAK,
                Comp(lookup, update),
                Comp(lookup, Bang(written_ty)))
    observers = tuple(Op(signature[f"lookup_{name}"]) for name in locs)
    return Theory(
        flavor="states",
        signature=signature,
        axioms=axioms,
        obs_rules=(ObsRule("states", observers),),
        locations=locs,
        exceptions={},
    )


def law_locations(theory: Theory, i: str | None = None,
                  j: str | None = None) -> tuple[str, str | None]:
    """The checked locations `i` and `j` of the seven laws (defaults: the
    first two declared locations; `j` is None when there is no other)."""
    if theory.flavor != "states":
        raise WrongFlavor("the seven laws are stated over a states theory")
    names = list(theory.locations)
    if not names:
        raise TheoryError("the state laws need at least one location")
    if i is None:
        i = names[0]
    if i not in theory.locations:
        raise TheoryError(f"location {i!r} is not declared")
    if j is None:
        others = [name for name in names if name != i]
        j = others[0] if others else None
    elif j == i:
        raise TheoryError("the commutation laws need two distinct locations")
    elif j not in theory.locations:
        raise TheoryError(f"location {j!r} is not declared")
    return i, j


def seven_laws(theory: Theory, i: str | None = None, j: str | None = None) -> list[Equation]:
    """The seven state laws for locations `i` and `j` (see
    `law_locations`).

    Laws 1, 2, 3, 5, 6, 7 are strong; law 4 is weak only.  With a
    single location the two-location commutation laws 5, 6, 7 are
    vacuous and the list has four entries.
    """
    i, j = law_locations(theory, i, j)
    v_i = Base(theory.locations[i])
    lookup_i = lookup_op(theory, i)
    update_i = update_op(theory, i)
    laws = [
        Equation(Mode.STRONG, Comp(update_i, lookup_i), Id(UNIT_T)),
        Equation(Mode.STRONG,
                 PairSeq(lookup_i, lookup_i),
                 Comp(copy_term(v_i), lookup_i)),
        Equation(Mode.STRONG,
                 seq_then(Comp(update_i, Proj1(v_i, v_i)),
                          Comp(update_i, Proj2(v_i, v_i))),
                 Comp(update_i, Proj2(v_i, v_i))),
        Equation(Mode.WEAK, Comp(lookup_i, update_i), Id(v_i)),
    ]
    if j is None:
        return laws
    v_j = Base(theory.locations[j])
    lookup_j = lookup_op(theory, j)
    update_j = update_op(theory, j)
    laws.append(Equation(
        Mode.STRONG,
        PairSeq(lookup_i, lookup_j),
        Comp(swap_term(v_j, v_i), PairSeq(lookup_j, lookup_i))))
    laws.append(Equation(
        Mode.STRONG,
        seq_then(Comp(update_i, Proj1(v_i, v_j)),
                 Comp(update_j, Proj2(v_i, v_j))),
        seq_then(Comp(update_j, Proj2(v_i, v_j)),
                 Comp(update_i, Proj1(v_i, v_j)))))
    laws.append(Equation(
        Mode.STRONG,
        Comp(lookup_j, update_i),
        Comp(Proj1(v_j, UNIT_T),
             PairSeq(Comp(lookup_j, Bang(v_i)), update_i))))
    return laws


# ---------------------------------------------------------------------------
# Duality


_DUAL_PREFIX = {"lookup": "tag", "update": "untag", "tag": "lookup", "untag": "update"}
_DUAL_LABEL_PREFIX = {"st_": "ex_", "ex_": "st_"}


def _dual_symbol(symbol: OpSymbol) -> OpSymbol:
    prefix, _, rest = symbol.name.partition("_")
    if prefix not in _DUAL_PREFIX or not rest:
        raise TheoryError(f"operation {symbol.name!r} has no dual")
    return OpSymbol(
        f"{_DUAL_PREFIX[prefix]}_{rest}",
        dual_type(symbol.target),
        dual_type(symbol.source),
        Decoration(symbol.decoration.exc, symbol.decoration.state),
    )


def dualize_term(term: DecoratedTerm | ObjType,
                 symbol_map: dict[str, OpSymbol]) -> DecoratedTerm | ObjType:
    """The mirror of a term or a type, by `FORMS`: products and sums,
    unit and empty, pairing and case split, projections and injections,
    and bang and absurd swap, composition swaps its factors, and each
    operation maps to its dual symbol.  Constant points have no dual.
    Iterative, so terms and types of any depth dualize."""
    done: list = []
    # A node dualizes; a (build, n) entry builds from the last n results.
    stack: list = [term]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            build, n = item
            args = done[-n:]
            del done[-n:]
            done.append(build(*args))
            continue
        cls = type(item)
        form = FORMS.get(cls)
        if form is None:
            raise TypeError(f"not a term or type: {item!r}")
        if cls is Op:
            dual = symbol_map.get(item.symbol.name)
            if dual is None:
                raise TheoryError(f"operation {item.symbol.name!r} has no dual")
            done.append(Op(dual))
        elif form.mirror is None:
            raise TheoryError("constant points have no dual")
        elif not form.kinds:
            done.append(item if form.mirror is cls else form.mirror())
        else:
            args = form.args(item)
            stack.append((form.mirror, len(args)))
            stack += args if cls is Comp else args[::-1]
    return done[0]


def dual_type(ty: ObjType) -> ObjType:
    """Swap products with sums and unit with empty, at any depth."""
    return dualize_term(ty, {})


def dual_symbol_map(theory: Theory) -> dict[str, OpSymbol]:
    return {name: _dual_symbol(symbol) for name, symbol in theory.signature.items()}


def dualize_equation(eq: Equation, symbol_map: dict[str, OpSymbol]) -> Equation:
    return Equation(eq.mode,
                    dualize_term(eq.lhs, symbol_map),
                    dualize_term(eq.rhs, symbol_map))


def _dual_label(label: str) -> str:
    for prefix, dual in _DUAL_LABEL_PREFIX.items():
        if label.startswith(prefix):
            return dual + label[len(prefix):]
    return label


def dualize(theory: Theory) -> Theory:
    """The mirror theory: states become exceptions and back.

    Lookup becomes tag (raise with parameter), update becomes untag
    (match-and-extract, re-raise on mismatch).  Axioms and observational
    rules are transported along; applying dualize twice restores the
    original theory exactly.
    """
    if theory.flavor == "states":
        new_flavor = "exceptions"
        new_locations: dict[str, str] = {}
        new_exceptions = dict(theory.locations)
    elif theory.flavor == "exceptions":
        new_flavor = "states"
        new_locations = dict(theory.exceptions)
        new_exceptions = {}
    else:
        raise WrongFlavor("only a single-effect theory can be dualized")
    symbol_map = dual_symbol_map(theory)
    signature = {dual.name: dual for dual in
                 (symbol_map[name] for name in theory.signature)}
    axioms = {
        _dual_label(label): dualize_equation(eq, symbol_map)
        for label, eq in theory.axioms.items()
    }
    obs_rules = tuple(
        ObsRule(
            "exceptions" if rule.direction == "states" else "states",
            tuple(dualize_term(obs, symbol_map) for obs in rule.observers),
        )
        for rule in theory.obs_rules
    )
    return Theory(
        flavor=new_flavor,
        signature=signature,
        axioms=axioms,
        obs_rules=obs_rules,
        locations=new_locations,
        exceptions=new_exceptions,
        carriers=dict(theory.carriers),
    )


def combine(st: Theory, ex: Theory) -> Theory:
    """Merge a states theory with an exceptions theory.

    Signatures, axioms and observational rules are unioned;
    decorations already live on separate axes, so symbols keep their
    declared pairs.  No cross-effect axioms are added."""
    if st.flavor != "states" or ex.flavor != "exceptions":
        raise WrongFlavor("combine expects a states theory and an exceptions theory")
    clash = set(st.signature) & set(ex.signature)
    if clash:
        raise NameClash(f"operations declared twice: {sorted(clash)}")
    label_clash = set(st.axioms) & set(ex.axioms)
    if label_clash:
        raise NameClash(f"axiom labels declared twice: {sorted(label_clash)}")
    return Theory(
        flavor="combined",
        signature={**st.signature, **ex.signature},
        axioms={**st.axioms, **ex.axioms},
        obs_rules=st.obs_rules + ex.obs_rules,
        locations=dict(st.locations),
        exceptions=dict(ex.exceptions),
        carriers={**st.carriers, **ex.carriers},
    )


def extend_theory(theory: Theory, symbols: list[OpSymbol]) -> Theory:
    """A copy of `theory` with extra operations (no new axioms)."""
    clash = [s.name for s in symbols if s.name in theory.signature]
    if clash:
        raise NameClash(f"operations declared twice: {clash}")
    signature = dict(theory.signature)
    for symbol in symbols:
        signature[symbol.name] = symbol
    return replace(theory, signature=signature)


def theory_from_config(config) -> Theory:
    """Build the natural theory for a model description: states over
    its locations, exceptions over its exception names, combined when
    both are present."""
    if config.locations and config.exceptions:
        return combine(states_theory(config.locations),
                       dualize(states_theory(config.exceptions)))
    if config.locations:
        return states_theory(config.locations)
    if config.exceptions:
        return dualize(states_theory(config.exceptions))
    raise TheoryError("the model declares neither locations nor exceptions")


# ---------------------------------------------------------------------------
# Theory dumps


def dump_theory(theory: Theory) -> str:
    from .model import print_model_config
    from .syntax import print_lines

    return print_lines([("theory", (theory.flavor,))]) + print_model_config(theory) + print_lines([
        *(("op", (name, symbol.source, symbol.target, symbol.decoration))
          for name, symbol in theory.signature.items()),
        *(("axiom", item) for item in theory.axioms.items()),
        *(("obs", (rule.direction, rule.observers)) for rule in theory.obs_rules),
    ])


def parse_theory(text: str) -> Theory:
    """Parse a theory dump.

    A finite model interprets each parsed operation from its
    `family_arg` name, as it does the operations of a built theory; an
    operation of no known family parses fine but cannot be
    instantiated by `build_model`.
    """
    return _read_theory(text, model_file=False)


def load_theory(text: str) -> Theory:
    """The theory of a theory dump, or `theory_from_config` of a model
    file: a text is a dump exactly when it has a `theory` line."""
    return _read_theory(text, model_file=True)


def _read_theory(text: str, model_file: bool) -> Theory:
    from .model import config_from_lines
    from .syntax import ParseError, read_lines
    from .terms import canonical_key

    flavor, signature, axioms, obs_rules, model = None, {}, {}, {}, []
    for lineno, head, values in read_lines(text, "theory", signature):
        if head == "theory":
            if flavor is not None:
                raise ParseError("second `theory` header", lineno, 1)
            flavor = values[0]
        elif head == "obs":
            rule = ObsRule(*values)
            key = (rule.direction, *map(canonical_key, rule.observers))
            if key in obs_rules:
                raise ParseError("obs line repeated", lineno, 1)
            obs_rules[key] = rule
        elif head == "op":
            signature[values[0]] = OpSymbol(*values)
        elif head == "axiom":
            axioms[values[0]] = values[1]
        else:
            model.append((lineno, head, values))
    if flavor is None:
        if not model_file or signature or axioms or obs_rules:
            raise ParseError("missing `theory` header", 1, 1)
        return theory_from_config(config_from_lines(model))
    config = config_from_lines(model, bases_declared=False)
    return Theory(flavor, signature, axioms, tuple(obs_rules.values()),
                  config.locations, config.exceptions, config.carriers)
