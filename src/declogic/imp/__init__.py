"""An imperative language with exceptions, compiled to decorated terms."""

from types import ModuleType as _Module

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
    print_aexp,
    print_bexp,
    print_command,
)
from .elaborate import (
    BOOL_T,
    FUEL_EXCEPTION,
    ElaborationError,
    UndeclaredException,
    UndeclaredLocation,
    build_imp_theory,
    default_carriers,
    dist_symbol,
    elaborate,
)
from .equiv import FUEL_EXHAUSTED, NOT_EQUAL, STRONG, WEAK, Verdict, check_equiv
from .parser import parse_aexp, parse_bexp, parse_command

# The public names: what the modules above export, but not the modules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
