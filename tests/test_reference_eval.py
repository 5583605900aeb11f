"""`eval_term` and `eval_points` against the independent evaluator in
reference_eval.

Every term is compared at every state and every input, ordinary and
exceptional, in the states, exceptions and combined models: random
well-typed terms from `random_term`, and the elaborated programs of the
imp test corpus.  `eval_points` walks all those points at once, with
`eval_term` made to raise, so it cannot lean on the point walk.
"""

import random

import pytest

from declogic.generate import GenerationError, random_term, type_pool
from declogic.imp import elaborate, parse_command
from declogic import model as model_module
from declogic.model import Outcome, build_model, enumerate_points, eval_points, eval_term
from declogic.theory import combine, dualize, states_theory
from declogic.types import UNIT_T
from reference_eval import reference_outcome
import test_imp


def _theory(flavor):
    states = states_theory({"x": "V", "y": "V"})
    exceptions = dualize(states_theory({"e": "V", "f": "V"}))
    return {"states": states, "exceptions": exceptions,
            "combined": combine(states_theory({"x": "V"}),
                                dualize(states_theory({"e": "V"})))}[flavor]


def _refuse(*args):
    raise AssertionError("eval_points called the point walk")


def _assert_agree(term, model, source):
    inputs = enumerate_points(source, model) + list(model.exc_values)
    points = [(value, state) for state in model.states for value in inputs]
    expected = [reference_outcome(term, model, value, state) for value, state in points]
    for (value, state), want in zip(points, expected):
        assert eval_term(term, model, value, state) == want, (term, value, state)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "eval_term", _refuse)
        results = eval_points(term, model, points)
    assert len(results) == len(points)
    for (value, state), want, got in zip(points, expected, results):
        assert Outcome(*got) == want, (term, value, state)


@pytest.mark.parametrize("flavor", ["states", "exceptions", "combined"])
def test_random_terms_agree(flavor):
    theory = _theory(flavor)
    model = build_model(theory, {"V": (0, 1, 2)})
    rng = random.Random(f"reference-eval:{flavor}")
    pool = type_pool(theory)
    made = 0
    while made < 400:
        source, target = rng.choice(pool), rng.choice(pool)
        try:
            term = random_term(rng, theory, model, source, target,
                               depth=rng.randrange(1, 5))
        except GenerationError:
            continue
        made += 1
        _assert_agree(term, model, source)


def test_corpus_programs_agree():
    for _, left, right, fuel, _ in test_imp.CORPUS:
        for source in (left, right):
            term = elaborate(parse_command(source), test_imp.THEORY, fuel=fuel)
            _assert_agree(term, test_imp.MODEL, UNIT_T)
