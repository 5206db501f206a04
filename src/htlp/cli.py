"""Command-line front end.

Subcommands: models, countermodels, equilibrium, to-program, to-dnf,
check-equiv, count.  Text output is line oriented and deterministic;
--format structured emits one JSON document with the signature, the
command, the results and the verification status.

Exit codes: 0 success, 1 failed verification or non-equivalence witness,
2 input/parse errors, 3 a bound exceeded: the enumeration cap, the count
bound, or a rule budget of to-program --method syntactic
(rewriting.RAW_RULE_BUDGET without --simplify, rewriting.SIMPLIFY_RULE_BUDGET
with it).
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
from collections.abc import Callable

from .counting import CountBoundExceededError, count_formula, factor_table
from .countermodels import theory_to_dnf, theory_to_dnf_clauses, theory_to_program_cm
from .formula import (
    Program,
    Signature,
    Theory,
    disj,
    program_to_text,
    to_text,
)
from .parser import ParseError, parse_theory
from .rewriting import (
    RewriteTrace,
    RuleBudgetExceededError,
    theory_to_program_syn,
)
from .semantics import (
    DEFAULT_CAP,
    CapExceededError,
    HtInterpretation,
    _models_and_countermodels,
    equilibrium_models,
    format_atom_set,
    ht_countermodels,
    ht_equivalent,
    ht_models,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CAP_EXCEEDED = 3

#: Caps beyond this need an explicit acknowledgment flag.
CAP_ACK_LIMIT = 20


def _atom_count(text: str) -> int:
    """argparse's int for a number of atoms, which cannot be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number of atoms, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htlp",
        description="Here-and-there logic toolkit: models, equilibrium "
        "models, strongly equivalent programs, normal forms and counts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_theory_command(name: str, help_text: str, func, n_inputs: str = "*"):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        cmd.add_argument(
            "inputs", nargs=n_inputs, metavar="FILE",
            help="theory file ('-' or nothing reads standard input)",
        )
        cmd.add_argument(
            "--signature", default="",
            help="extra atoms for the signature, space or comma separated",
        )
        cmd.add_argument(
            "--format", dest="fmt", choices=("text", "structured"),
            default="text", help="output format",
        )
        cmd.add_argument(
            "--cap", type=_atom_count, default=DEFAULT_CAP,
            help=f"enumeration cap in atoms (default {DEFAULT_CAP})",
        )
        cmd.add_argument(
            "--allow-large", action="store_true",
            help=f"acknowledge a cap beyond {CAP_ACK_LIMIT} atoms",
        )
        return cmd

    add_theory_command("models", "list the here-and-there models", _cmd_model_listing)
    add_theory_command(
        "countermodels", "list the here-and-there countermodels", _cmd_model_listing
    )
    add_theory_command(
        "equilibrium", "list the equilibrium models (answer sets)", _cmd_equilibrium
    )

    to_program = add_theory_command(
        "to-program", "translate into a strongly equivalent program", _cmd_to_program
    )
    to_program.add_argument(
        "--method", choices=("syntactic", "countermodel"), required=True,
        help="translation method",
    )
    to_program.add_argument(
        "--mode", choices=("whole", "per_formula"), default="whole",
        help="countermodel method: one construction over the whole "
        "signature, or per formula over its own atoms",
    )
    to_program.add_argument(
        "--simplify", action="store_true",
        help="clean rules up (preserves the model set exactly)",
    )
    to_program.add_argument(
        "--verify", action="store_true",
        help="re-check equivalence with the input and report VERIFIED/FAILED",
    )
    to_program.add_argument(
        "--trace", action="store_true",
        help="log the syntactic rewrite steps to standard error",
    )

    to_dnf = add_theory_command(
        "to-dnf", "build the model-based disjunctive normal form", _cmd_to_dnf
    )
    to_dnf.add_argument("--verify", action="store_true",
                        help="re-check equivalence with the input")
    to_dnf.add_argument("--annotate", action="store_true",
                        help="one clause per line with its source interpretation")

    add_theory_command(
        "check-equiv", "decide strong equivalence of two theories",
        _cmd_check_equiv, n_inputs=2,
    )

    count = sub.add_parser(
        "count", help="count programs modulo strong equivalence"
    )
    count.set_defaults(func=_cmd_count)
    count.add_argument("n", type=_atom_count, help="number of atoms")
    count.add_argument("--verbose", action="store_true",
                       help="also print the per-size factor table")
    count.add_argument("--format", dest="fmt", choices=("text", "structured"),
                       default="text")
    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_input(path: str, override: Signature) -> Theory:
    try:
        return parse_theory(_read_source(path), override)
    except ParseError as error:
        error.source = path if path != "-" else "<stdin>"
        raise


def _override(args: argparse.Namespace) -> Signature:
    return Signature(args.signature.replace(",", " ").split())


def _load_theory(args: argparse.Namespace) -> Theory:
    override = _override(args)
    theory = Theory((), override)
    for path in args.inputs or ("-",):
        theory = theory.union(_parse_input(path, override))
    return theory


def _interp_json(interp: HtInterpretation) -> dict:
    return {"here": sorted(interp.here), "there": sorted(interp.there)}


def _emit_structured(args: argparse.Namespace, sig: Signature, results: dict,
                     verification: str | None = None) -> None:
    import json  # only --format structured pays for it

    document = {
        "command": args.subcommand,
        "signature": list(sig),
        "results": results,
        "verification": verification,
    }
    print(json.dumps(document, indent=2))


def _cmd_model_listing(args: argparse.Namespace) -> int:
    theory = _load_theory(args)
    if args.fmt == "structured":
        models, countermodels = _models_and_countermodels(theory, args.cap)
        _emit_structured(args, theory.signature, {
            "models": [_interp_json(m) for m in models],
            "countermodels": [_interp_json(m) for m in countermodels],
        })
    else:
        compute = ht_models if args.subcommand == "models" else ht_countermodels
        for line in compute(theory, args.cap).display_lines():
            print(line)
    return EXIT_OK


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    theory = _load_theory(args)
    answer_sets = equilibrium_models(theory, args.cap)
    if args.fmt == "structured":
        _emit_structured(args, theory.signature, {
            "equilibrium_models": [sorted(y) for y in answer_sets],
        })
    else:
        for y in answer_sets:
            print(format_atom_set(y))
    return EXIT_OK


def _translate(args: argparse.Namespace, theory: Theory) -> Program:
    # Not every method enumerates the whole signature, so check it here.
    if len(theory.signature) > args.cap:
        raise CapExceededError(len(theory.signature), args.cap)
    if args.method == "countermodel":
        # Already in simplify()'s normal form, so --simplify changes nothing.
        return theory_to_program_cm(theory, args.mode, args.cap)
    trace = RewriteTrace() if args.trace else None
    program = theory_to_program_syn(theory, args.simplify, trace, args.cap)
    if trace is not None and trace.steps:
        print("\n".join(trace.lines()), file=sys.stderr)
    return program


def _verify(
    args: argparse.Namespace, theory: Theory, translated: Callable[[], Theory]
) -> tuple[str | None, int]:
    """--verify's verdict on the translation of theory, and the exit code."""
    if not args.verify:
        return None, EXIT_OK
    if ht_equivalent(theory, translated(), args.cap).equivalent:
        return "VERIFIED", EXIT_OK
    return "FAILED", EXIT_CHECK_FAILED


def _cmd_to_program(args: argparse.Namespace) -> int:
    theory = _load_theory(args)
    program = _translate(args, theory)
    verification, code = _verify(args, theory, program.to_theory)
    if args.fmt == "structured":
        _emit_structured(args, theory.signature, {
            "method": args.method,
            "mode": args.mode if args.method == "countermodel" else "per_formula",
            "rule_count": len(program),
            "rules": program_to_text(program).splitlines(),
        }, verification)
    else:
        text = program_to_text(program)
        if text:
            print(text)
        if verification is not None:
            print(verification)
    return code


def _cmd_to_dnf(args: argparse.Namespace) -> int:
    theory = _load_theory(args)
    records = args.fmt == "structured" or args.annotate  # plain text keeps none
    clauses = theory_to_dnf_clauses(theory, args.cap) if records else ()
    formula = disj(c.clause for c in clauses) if records else theory_to_dnf(theory, args.cap)
    verification, code = _verify(
        args, theory, lambda: Theory((formula,), theory.signature)
    )
    if args.fmt == "structured":
        _emit_structured(args, theory.signature, {
            "dnf": to_text(formula),
            "clauses": [
                {"clause": to_text(c.clause), "source": _interp_json(c.source)}
                for c in clauses
            ],
        }, verification)
    else:
        if args.annotate:
            for i, c in enumerate(clauses, start=1):
                print(f"{to_text(c.clause)}  % clause {i}: {c.source.display()}")
        else:
            print(to_text(formula))
        if verification is not None:
            print(verification)
    return code


def _cmd_check_equiv(args: argparse.Namespace) -> int:
    first, second = (_parse_input(path, _override(args)) for path in args.inputs)
    outcome = ht_equivalent(first, second, args.cap)
    if args.fmt == "structured":
        _emit_structured(args, first.signature | second.signature, {
            "equivalent": outcome.equivalent,
            "witness": _interp_json(outcome.witness) if outcome.witness else None,
        })
    elif outcome.equivalent:
        print("EQUIVALENT")
    else:
        print(f"WITNESS {outcome.witness.display()}")
    return EXIT_OK if outcome.equivalent else EXIT_CHECK_FAILED


def _decimal(value: int) -> str:
    """value in decimal, past the interpreter's int-to-str digit limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # builds without the limit
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_count(args: argparse.Namespace) -> int:
    result = count_formula(args.n)
    if args.fmt == "structured":
        _emit_structured(args, Signature(), {
            "n": result.n,
            "value": _decimal(result.value),
            "factors": [
                {"i": i, "binomial": binom, "factor": str(factor)}
                for i, binom, factor in factor_table(args.n)
            ],
        })
        return EXIT_OK
    if args.verbose:
        for i, binom, factor in factor_table(args.n):
            print(f"i={i} binomial={binom} factor={factor}")
    print(_decimal(result.value))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if getattr(args, "cap", 0) > CAP_ACK_LIMIT and not args.allow_large:
        print(
            f"error: --cap {args.cap} exceeds {CAP_ACK_LIMIT}; "
            "pass --allow-large to confirm",
            file=sys.stderr,
        )
        return EXIT_PARSE_ERROR
    try:
        return args.func(args)
    except ParseError as error:
        source = getattr(error, "source", None)
        prefix = f"{source}: " if source else ""
        print(f"error: {prefix}{error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (
        CapExceededError, CountBoundExceededError, RuleBudgetExceededError
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except RecursionError:  # the parser and printers recurse on nesting
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE_ERROR


def run() -> None:
    # A reader that closes the pipe early ends htlp quietly, as it ends cat.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # Formula trees hold no cycles, so the cyclic collector finds nothing
    # to free; left on, it rescans the growing output over and over.
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    run()
