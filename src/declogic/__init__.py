"""Equational reasoning for programs with global state and exceptions.

Decorated terms carry effect upper bounds instead of effect-widened
types; finite models decide strong and weak equality exhaustively; a
small proof checker validates equational derivations; an imperative
frontend compiles while-programs with throw/try-catch down to terms.

`import declogic` loads the checker core: types, terms, syntax,
theories, models, rules, proofs, term generation and probes.  The
imperative frontend `declogic.imp` and the law derivations
(`ScriptBuilder`, `all_law_scripts`, `law_script`) load on first use.
The core stays eager because benchmark tracing wraps functions by the
module that binds them, and a module first imported after the wrap
would bind the wrapper instead.
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
from .generate import GenerationError, random_term, type_pool
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

# Names loaded on first use, by the module that defines them.
_LAZY = {"imp": None, "derivations": None, "ScriptBuilder": "derivations",
         "all_law_scripts": "derivations", "law_script": "derivations"}

# The public names: what the modules above export, the modules themselves
# but for the record helper, and the names loaded on first use.
__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 - {"record"} | set(_LAZY))


def __getattr__(name: str):
    import importlib

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _LAZY[name]
    module = importlib.import_module(f".{home or name}", __name__)
    value = module if home is None else getattr(module, name)
    globals()[name] = value
    return value
