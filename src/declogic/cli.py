"""Command-line checks over terms, laws, proof scripts, and programs.

Five subcommands: `check` typechecks a term file and reports its
decoration; `laws` verifies the seven state laws and their duals over
a model file; `prove` replays a proof script against a theory;
`dualize` prints the mirror theory; `imp-equiv` compares two programs
over a model.  Exit codes: 0 when everything checked out, 1 when a
check rejected or the programs differ, 2 on usage or file errors.

Only `imp-equiv` loads the imperative frontend `declogic.imp`; the other
subcommands run on the checker core alone.
"""
from __future__ import annotations

import argparse
import sys

from .model import (
    build_model,
    check_both_eq,
    parse_model_config,
    render_counterexample,
)
from .proofs import check_script, parse_script
from .syntax import ParseError, parse_term
from .terms import Mode, typecheck
from .theory import (
    TheoryError,
    dual_symbol_map,
    dualize,
    dualize_equation,
    dump_theory,
    load_theory,
    seven_laws,
    states_theory,
    theory_from_config,
)


class InputError(Exception):
    """A file argument is missing, unreadable, or malformed."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None


def _load_model(path: str):
    config = parse_model_config(_read(path))
    theory = theory_from_config(config)
    return config, theory, build_model(theory, config.carriers)


def _cmd_check(args: argparse.Namespace) -> int:
    signature = None
    if args.theory is not None:
        signature = load_theory(_read(args.theory)).signature
    term = parse_term(_read(args.term_file), signature)
    report = typecheck(term, signature)
    print(report.describe())
    return 0 if report.ok else 1


def _law_lines(locations, model, dual: bool):
    """Verdict lines for every law instantiation, plus a failure count."""
    theory = states_theory(locations)
    symbol_map = dual_symbol_map(theory) if dual else None
    names = list(locations)
    pairs = [(i, j) for i in names for j in names if i != j]
    if not pairs:
        pairs = [(names[0], None)]
    lines = []
    failures = 0
    for i, j in pairs:
        for number, law in enumerate(seven_laws(theory, i, j), start=1):
            if dual:
                law = dualize_equation(law, symbol_map)
            where = i if j is None else f"{i},{j}"
            prefix = f"{'DUAL ' if dual else ''}LAW {number} @ {where}"
            weak, strong = check_both_eq(law.lhs, law.rhs, model)
            expect_strong = law.mode is Mode.STRONG
            ok = weak is None and ((strong is None) == expect_strong)
            if not ok:
                failures += 1
            weak_part = "WEAK ok" if weak is None else "WEAK FAIL"
            strong_part = (
                "STRONG ok" if strong is None
                else "STRONG counterexample: " + render_counterexample(strong, model)
            )
            status = "ok" if ok else "FAIL"
            lines.append(f"{prefix} {weak_part} {strong_part} [{status}]")
    return lines, failures


def _cmd_laws(args: argparse.Namespace) -> int:
    model_config, _, model = _load_model(args.model)
    failures = 0
    if model_config.locations:
        lines, failed = _law_lines(model_config.locations, model, dual=False)
        failures += failed
        for line in lines:
            print(line)
    if model_config.exceptions:
        lines, failed = _law_lines(model_config.exceptions, model, dual=True)
        failures += failed
        for line in lines:
            print(line)
    if failures:
        print(f"{failures} law instantiations FAILED")
        return 1
    print("all law instantiations passed")
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    theory = load_theory(_read(args.theory))
    script = parse_script(_read(args.script), theory.signature)
    report = check_script(script, theory)
    if args.verbosity:
        print(f"{len(script.steps)} steps toward "
              f"{script.goal.mode.value} goal")
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_dualize(args: argparse.Namespace) -> int:
    theory = load_theory(_read(args.theory))
    sys.stdout.write(dump_theory(dualize(theory)))
    return 0


def _cmd_imp_equiv(args: argparse.Namespace) -> int:
    from .imp import (STRONG, WEAK, ElaborationError, build_imp_theory,
                      check_equiv, default_carriers, parse_command)

    model_config = parse_model_config(_read(args.model))
    if not model_config.locations:
        raise InputError("program models need at least one location")
    for base, values in model_config.carriers.items():
        if values != tuple(range(len(values))):
            raise InputError(
                f"program arithmetic needs carrier 0..{len(values) - 1} "
                f"for type {base!r}")
    sizes = {base: len(values) for base, values in model_config.carriers.items()}
    try:
        theory = build_imp_theory(model_config.locations,
                                  model_config.exceptions, sizes)
        model = build_model(theory, default_carriers(theory))
        left = parse_command(_read(args.programs[0]))
        right = parse_command(_read(args.programs[1]))
        verdict = check_equiv(left, right, theory, model, fuel=args.fuel)
    except ElaborationError as err:
        raise InputError(str(err)) from None
    print(verdict.describe(model))
    return 0 if verdict.kind in (STRONG, WEAK) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="declogic",
        description="Equational checks for programs with state and exceptions.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        dest="verbosity")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    check = commands.add_parser(
        "check", help="typecheck a term file and report its decoration")
    check.add_argument("term_file")
    check.add_argument("--theory", help="theory dump or model file declaring "
                                        "the operations the term may use")
    check.set_defaults(handler=_cmd_check)

    laws = commands.add_parser(
        "laws", help="verify the seven state laws and their duals over a model")
    laws.add_argument("--model", required=True)
    laws.set_defaults(handler=_cmd_laws)

    prove = commands.add_parser(
        "prove", help="replay a proof script against a theory")
    prove.add_argument("script")
    prove.add_argument("--theory", required=True)
    prove.set_defaults(handler=_cmd_prove)

    dual = commands.add_parser(
        "dualize", help="print the mirror theory of a theory")
    dual.add_argument("--theory", required=True)
    dual.set_defaults(handler=_cmd_dualize)

    equiv = commands.add_parser(
        "imp-equiv", help="compare two programs over every initial state")
    equiv.add_argument("programs", nargs=2)
    equiv.add_argument("--model", required=True)
    equiv.add_argument("--fuel", type=int, default=64)
    equiv.set_defaults(handler=_cmd_imp_equiv)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fuel", 64) < 1:
        parser.error("--fuel must be a positive integer")
    try:
        return args.handler(args)
    except (InputError, ParseError, TheoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
