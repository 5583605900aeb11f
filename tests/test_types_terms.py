"""Types, term construction, decoration inference, typechecking."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from declogic import syntax
from declogic.generate import GenerationError, random_term, type_pool
from declogic.model import build_model
from declogic.terms import (
    CHILDREN,
    FORMS,
    MEETS,
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    Decoration,
    Id,
    Inj1,
    Inj2,
    Op,
    OpSymbol,
    PairSeq,
    Proj1,
    Proj2,
    PURE,
    canonical_key,
    chain_factors,
    compose_chain,
    copy_term,
    infer_decoration,
    seq_then,
    shield,
    swap_term,
    typecheck,
)
from declogic.theory import combine, dual_type, dualize, states_theory
from declogic.types import (EMPTY_T, UNIT_T, Base, Empty, Prod, Sum, Unit,
                            numbered_type)
from reference_keys import canonical_key as reference_key

V = Base("V")
W = Base("W")

LOOKUP = OpSymbol("lookup_x", UNIT_T, V, Decoration(1, 0))
UPDATE = OpSymbol("update_x", V, UNIT_T, Decoration(2, 0))
TAG = OpSymbol("tag_e", V, EMPTY_T, Decoration(0, 1))
UNTAG = OpSymbol("untag_e", EMPTY_T, V, Decoration(0, 2))
SIGNATURE = {s.name: s for s in (LOOKUP, UPDATE, TAG, UNTAG)}


def leq(low: Decoration, high: Decoration) -> bool:
    """The componentwise order on decorations."""
    return low.state <= high.state and low.exc <= high.exc


class TestDecoration:
    def test_join_is_componentwise_max(self):
        assert Decoration(1, 0).join(Decoration(0, 2)) == Decoration(1, 2)
        assert Decoration(2, 1).join(Decoration(1, 2)) == Decoration(2, 2)

    def test_join_returns_a_shared_instance(self):
        joined = Decoration(1, 0).join(Decoration(0, 2))
        assert joined is Decoration(0, 2).join(Decoration(1, 1))
        assert joined == Decoration(1, 2) and joined is not Decoration(1, 2)
        assert PURE.join(PURE) is PURE
        assert Comp(Op(UPDATE), Op(LOOKUP)).decoration is \
            Decoration(2, 0).join(PURE)

    def test_leq_is_componentwise(self):
        assert leq(Decoration(0, 0), Decoration(2, 2))
        assert leq(Decoration(1, 1), Decoration(1, 1))
        assert not leq(Decoration(2, 0), Decoration(1, 2))
        assert not leq(Decoration(0, 2), Decoration(2, 1))

    def test_str(self):
        assert str(Decoration(2, 1)) == "(2,1)"


class TestTypes:
    def test_dual_swaps_connectives(self):
        ty = Prod(Sum(UNIT_T, V), EMPTY_T)
        assert dual_type(ty) == Sum(Prod(EMPTY_T, V), UNIT_T)

    def test_dual_is_involutive(self):
        ty = Sum(Prod(V, W), Sum(UNIT_T, EMPTY_T))
        assert dual_type(dual_type(ty)) == ty

    def test_numbered_type_finds_a_type_by_its_number(self):
        types = [UNIT_T, EMPTY_T, V, Prod(V, Sum(W, UNIT_T)), Base("numbered_only_here")]
        assert len({ty.number for ty in types}) == len(types)
        for ty in types:
            assert numbered_type(str(ty.number)) is ty
        last = Base("numbered_last").number
        for text in ("", "x", "-1", "+1", "1_0", " 1", "٣", f"0{last}",
                     str(last + 1), "9" * 5000):
            assert numbered_type(text) is None, text

    def test_equal_types_are_one_object(self):
        assert Prod(Base("V"), UNIT_T) is Prod(Base("V"), UNIT_T)
        assert Sum(V, W) is not Sum(W, V) and Sum(V, W) is not Prod(V, W)
        for cls in (Unit, Empty, Base, Prod, Sum):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    def test_deep_types_hash_and_compare(self):
        def deep(bottom):
            ty = bottom
            for _ in range(100_000):
                ty = Prod(ty, V)
            return ty

        ty = deep(V)
        assert ty == deep(V) and hash(ty) == hash(deep(V))
        assert {ty: "found"}[deep(V)] == "found"
        assert ty != deep(W)

    def test_repr_is_the_printed_form(self):
        ty = Prod(V, Sum(UNIT_T, EMPTY_T))
        assert repr(ty) == str(ty) == "prod(V, sum(unit, empty))"
        assert repr(Id(ty)) == "Id(at=prod(V, sum(unit, empty)))"

    def test_types_and_records_copy_and_pickle(self):
        ty = Prod(V, Sum(UNIT_T, EMPTY_T))
        assert copy.deepcopy(ty) is ty and pickle.loads(pickle.dumps(ty)) is ty
        symbol = OpSymbol("lookup_x", UNIT_T, V, Decoration(1, 0))
        for value in (symbol, Op(symbol), Comp(Op(symbol), Bang(ty))):
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(AttributeError):
            symbol.name = "update_x"


class TestSourcesAndTargets:
    def test_structural_nodes(self):
        assert Id(V).source == V and Id(V).target == V
        assert Proj1(V, W).source == Prod(V, W) and Proj1(V, W).target == V
        assert Proj2(V, W).target == W
        assert Inj1(V, W).source == V and Inj1(V, W).target == Sum(V, W)
        assert Inj2(V, W).source == W
        assert Bang(V).target == UNIT_T
        assert Absurd(V).source == EMPTY_T
        assert Const(0, V).source == UNIT_T and Const(0, V).target == V

    def test_composite_nodes(self):
        f = Op(LOOKUP)
        g = Op(UPDATE)
        assert Comp(g, f).source == UNIT_T and Comp(g, f).target == UNIT_T
        p = PairSeq(f, f)
        assert p.source == UNIT_T and p.target == Prod(V, V)
        c = CaseSeq(g, Id(UNIT_T))
        assert c.source == Sum(V, UNIT_T) and c.target == UNIT_T

    def test_helper_types(self):
        assert copy_term(V).source == V and copy_term(V).target == Prod(V, V)
        sw = swap_term(V, W)
        assert sw.source == Prod(V, W) and sw.target == Prod(W, V)
        s = seq_then(Op(UPDATE), Op(LOOKUP))
        assert s.source == V and s.target == V
        sh = shield(Op(UNTAG))
        assert sh.source == EMPTY_T and sh.target == V


class TestDecorationInference:
    def test_leaves_are_pure(self):
        for leaf in (Id(V), Proj1(V, W), Inj2(V, W), Bang(V), Absurd(V),
                     Const(1, V)):
            assert infer_decoration(leaf) == PURE

    def test_ops_carry_their_declaration(self):
        assert infer_decoration(Op(LOOKUP)) == Decoration(1, 0)
        assert infer_decoration(Op(UNTAG)) == Decoration(0, 2)

    def test_composites_join(self):
        t = Comp(Op(TAG), Comp(Op(LOOKUP), Op(UPDATE)))
        assert infer_decoration(t) == Decoration(2, 1)
        p = PairSeq(Op(LOOKUP), Comp(Op(UNTAG), Op(TAG)))
        assert infer_decoration(p) == Decoration(1, 2)

    @given(st.data())
    def test_join_matches_max_of_children(self, data):
        terms = [Op(LOOKUP), Op(UPDATE), Op(TAG), Op(UNTAG), Id(V), Const(0, V)]
        f = data.draw(st.sampled_from(terms))
        g = data.draw(st.sampled_from(terms))
        combined = PairSeq(f, g)
        assert combined.decoration.state == max(f.decoration.state, g.decoration.state)
        assert combined.decoration.exc == max(f.decoration.exc, g.decoration.exc)


class TestTypecheck:
    def test_well_typed(self):
        t = Comp(Op(UPDATE), Op(LOOKUP))
        report = typecheck(t, SIGNATURE)
        assert report.ok
        assert report.source == UNIT_T and report.target == UNIT_T
        assert report.decoration == Decoration(2, 0)

    def test_composition_mismatch(self):
        bad = Comp(Op(LOOKUP), Op(LOOKUP))  # V does not feed unit
        report = typecheck(bad)
        assert not report.ok
        assert report.issues[0].kind == "source-target-mismatch"

    def test_pair_source_mismatch(self):
        bad = PairSeq(Op(UPDATE), Op(LOOKUP))
        report = typecheck(bad)
        assert [i.kind for i in report.issues] == ["pair-source-mismatch"]

    def test_case_target_mismatch(self):
        bad = CaseSeq(Op(LOOKUP), Id(UNIT_T))
        report = typecheck(bad)
        assert [i.kind for i in report.issues] == ["case-target-mismatch"]

    def test_unknown_symbol(self):
        ghost = OpSymbol("ghost", V, V, PURE)
        report = typecheck(Op(ghost), SIGNATURE)
        assert [i.kind for i in report.issues] == ["unknown-symbol"]

    def test_symbol_disagreeing_with_declaration(self):
        forged = OpSymbol("lookup_x", UNIT_T, W, Decoration(1, 0))
        report = typecheck(Op(forged), SIGNATURE)
        assert [i.kind for i in report.issues] == ["symbol-mismatch"]

    def test_nested_issue_paths(self):
        bad = PairSeq(Comp(Op(LOOKUP), Op(LOOKUP)), Id(UNIT_T))
        report = typecheck(bad)
        kinds = {(i.kind, i.path) for i in report.issues}
        assert ("source-target-mismatch", ("first",)) in kinds

    def test_no_signature_skips_symbol_checks(self):
        ghost = OpSymbol("ghost", V, V, PURE)
        assert typecheck(Op(ghost)).ok

    GHOST = Op(OpSymbol("ghost", UNIT_T, V, PURE))
    FORGED = Op(OpSymbol("lookup_x", UNIT_T, W, Decoration(1, 0)))
    # Ill-typed at both children, and reached at two paths of different
    # lengths below.
    SHARED = PairSeq(Comp(Op(LOOKUP), Op(LOOKUP)), GHOST)

    @pytest.mark.parametrize("term,text", [
        (Comp(Op(LOOKUP), Op(LOOKUP)),
         "ill-typed: unit -> V @ (1,0)\n"
         "  source-target-mismatch at <root>: inner produces V but outer expects unit"),
        (PairSeq(Op(UPDATE), Op(LOOKUP)),
         "ill-typed: V -> prod(unit, V) @ (2,0)\n"
         "  pair-source-mismatch at <root>: first reads V but second reads unit"),
        (CaseSeq(Op(LOOKUP), Id(UNIT_T)),
         "ill-typed: sum(unit, unit) -> V @ (1,0)\n"
         "  case-target-mismatch at <root>: left branch yields V but right branch yields unit"),
        (Op(OpSymbol("ghost", V, V, PURE)),
         "ill-typed: V -> V @ (0,0)\n"
         "  unknown-symbol at <root>: operation 'ghost' is not declared"),
        (FORGED,
         "ill-typed: unit -> W @ (1,0)\n"
         "  symbol-mismatch at <root>: operation 'lookup_x' disagrees with its declaration"),
        (CaseSeq(Comp(Proj1(V, V), SHARED), PairSeq(Comp(Proj2(V, V), SHARED), FORGED)),
         "ill-typed: sum(unit, unit) -> V @ (1,0)\n"
         "  case-target-mismatch at <root>: left branch yields V but right branch yields prod(V, W)\n"
         "  source-target-mismatch at left.inner.first: inner produces V but outer expects unit\n"
         "  unknown-symbol at left.inner.second: operation 'ghost' is not declared\n"
         "  source-target-mismatch at right.first.inner.first: inner produces V but outer expects unit\n"
         "  unknown-symbol at right.first.inner.second: operation 'ghost' is not declared\n"
         "  symbol-mismatch at right.second: operation 'lookup_x' disagrees with its declaration"),
    ], ids=["comp", "pair", "case", "unknown", "mismatch", "shared"])
    def test_issue_texts(self, term, text):
        """Every issue kind's text, and a shared ill-typed subterm reported
        at each path that reaches it."""
        assert typecheck(term, SIGNATURE).describe() == text

    def test_deep_term_checks_without_recursion(self):
        t = Id(UNIT_T)
        for _ in range(5000):
            t = Comp(Id(UNIT_T), t)
        assert typecheck(t).ok


def test_two_child_tables_cover_exactly_the_two_child_forms():
    """`CHILDREN` and `MEETS` describe every form that `FORMS` gives two
    term arguments, and no other, each with two path steps, so no such
    form is described in one table and missed in the other."""
    two_child = {cls for cls, form in FORMS.items() if form.kinds == "tt"}
    assert two_child == {Comp, PairSeq, CaseSeq}
    assert set(CHILDREN) == set(MEETS) == two_child
    for _, _, _, steps in MEETS.values():
        assert len(steps) == 2
    node = PairSeq(Op(LOOKUP), Id(UNIT_T))
    assert CHILDREN[PairSeq](node) == (node.first, node.second)
    assert MEETS[PairSeq][0](node) == (UNIT_T, UNIT_T)


class TestCanonicalForm:
    def test_identity_factors_drop(self):
        f = Op(LOOKUP)
        assert canonical_key(Comp(Id(V), f)) == canonical_key(f)
        assert canonical_key(Comp(f, Id(UNIT_T))) == canonical_key(f)

    def test_associativity_collapses(self):
        f, g = Op(LOOKUP), Op(UPDATE)
        h = Op(TAG)
        left = Comp(Comp(h, g), f)
        right = Comp(h, Comp(g, f))
        assert canonical_key(left) == canonical_key(right)

    def test_empty_chain_is_identity(self):
        assert canonical_key(Comp(Id(V), Id(V))) == canonical_key(Id(V))

    def test_distinct_terms_distinct_keys(self):
        assert canonical_key(Op(LOOKUP)) != canonical_key(Op(UPDATE))
        assert canonical_key(PairSeq(Id(V), Id(V))) != canonical_key(Id(V))

    def test_canonicalization_reaches_into_pairs(self):
        inner_a = PairSeq(Comp(Id(V), Op(UPDATE)), Op(UPDATE))
        inner_b = PairSeq(Op(UPDATE), Comp(Op(UPDATE), Id(V)))
        assert canonical_key(inner_a) == canonical_key(inner_b)

    def test_chain_factors_and_rebuild(self):
        f, g = Op(LOOKUP), Op(UPDATE)
        t = Comp(Comp(g, f), Id(UNIT_T))
        factors = chain_factors(t)
        assert factors == [f, g]
        rebuilt = compose_chain(factors, t.source)
        assert canonical_key(rebuilt) == canonical_key(t)
        assert compose_chain([], V) == Id(V)


_ST = states_theory({"x": "V", "y": "V"})
KEY_THEORY = combine(_ST, dualize(_ST))
KEY_MODEL = build_model(KEY_THEORY, {"V": (0, 1)})
KEY_POOL = type_pool(KEY_THEORY)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 4))
def test_cached_key_matches_reference(rng, depth):
    terms = []
    for _ in range(4):
        src, tgt = rng.choice(KEY_POOL), rng.choice(KEY_POOL)
        try:
            terms.append(random_term(rng, KEY_THEORY, KEY_MODEL, src, tgt, depth))
        except GenerationError:
            continue
    # Composites of keyed terms read ids stored on their parts.
    terms += [built for a in terms for b in terms
              for built in (Comp(b, a), PairSeq(a, b), CaseSeq(b, Comp(a, Id(V))))]
    ids = [canonical_key(term) for term in terms]  # computed and stored
    assert all(isinstance(i, int) for i in ids)
    assert [canonical_key(term) for term in terms] == ids  # read back
    # Over every pair of terms, ids are equal exactly when reference keys
    # are: each reference key has one id, and each id one reference key.
    id_of, key_of = {}, {}
    for term, got in zip(terms, ids):
        want = reference_key(term)
        assert id_of.setdefault(want, got) == got
        assert key_of.setdefault(got, want) == want


def test_a_parsed_constant_is_keyed_by_the_literal_it_was_parsed_from(monkeypatch):
    """Keying a parsed constant prints nothing: the parser hands it the
    literal it printed.  A constant built by hand is keyed by printing its
    value, and gets the same id."""
    parsed = syntax.parse_term("const((1, l(0)), prod(V, sum(V, V)))")
    built = Const((1, ("L", 0)), Prod(V, Sum(V, V)))
    with monkeypatch.context() as patch:
        patch.setattr(syntax, "_print", None)
        got = canonical_key(parsed)
    assert canonical_key(built) == got
    assert reference_key(parsed) == reference_key(built)


class TestShield:
    def test_shield_preserves_type(self):
        body = Comp(Op(UNTAG), Op(TAG))
        sh = shield(body)
        assert sh.source == body.source and sh.target == body.target
        assert typecheck(sh, SIGNATURE).ok


@pytest.mark.parametrize("term,expected", [
    (Comp(Op(UPDATE), Op(LOOKUP)), Decoration(2, 0)),
    (Comp(Op(UNTAG), Op(TAG)), Decoration(0, 2)),
    (CaseSeq(Id(UNIT_T), Comp(Op(UPDATE), Op(LOOKUP))), Decoration(2, 0)),
])
def test_decoration_examples(term, expected):
    assert infer_decoration(term) == expected
