"""Equational reasoning for programs with global state and exceptions.

Decorated terms carry effect upper bounds instead of effect-widened
types; finite models decide strong and weak equality exhaustively; a
small proof checker validates equational derivations; an imperative
frontend compiles while-programs with throw/try-catch down to terms.
"""

from .model import (
    UNIT,
    Counterexample,
    Exc,
    FiniteModel,
    ModelConfig,
    Outcome,
    build_model,
    check_both_eq,
    check_strong_eq,
    check_weak_eq,
    enumerate_points,
    eval_term,
    parse_model_config,
    print_model_config,
    validate_model,
)
from .derivations import ScriptBuilder, all_law_scripts, law_script
from .generate import GenerationError, random_term, type_pool
from . import imp
from .probes import (
    UNSOUND_VARIANTS,
    ProbeContext,
    ProbeReport,
    ProbeViolation,
    probe_all,
    probe_variant,
    soundness_probe,
)
from .proofs import (
    ProofScript,
    ProofStep,
    ScriptReport,
    check_script,
    check_step,
    dualize_script,
    parse_script,
    print_script,
)
from .rules import (
    DUAL_RULE,
    RULES,
    PremiseShapeMismatch,
    RuleError,
    SideConditionViolated,
    UnknownRule,
    check_rule,
)
from .terms import (
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    DecoratedTerm,
    Decoration,
    Equation,
    Id,
    Inj1,
    Inj2,
    Mode,
    Op,
    OpSymbol,
    PairSeq,
    Proj1,
    Proj2,
    TypedReport,
    copy_term,
    infer_decoration,
    seq_then,
    shield,
    swap_term,
    typecheck,
)
from .theory import (
    ObsRule,
    Theory,
    combine,
    dualize,
    dualize_equation,
    dualize_term,
    dump_theory,
    parse_theory,
    seven_laws,
    states_theory,
    theory_from_config,
)
from .types import EMPTY_T, UNIT_T, Base, Empty, ObjType, Prod, Sum, Unit

__all__ = [name for name in dir() if not name.startswith("_")]
