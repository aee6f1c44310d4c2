"""Command-line interface.

Subcommands
    eval      evaluate an expression to an element
    coprod    coproduct of an expression (shuffle side or deconcatenation)
    antipode  antipode in either Hopf algebra
    psi       apply the character-induced morphism
    psi-inv   apply its inverse
    matrix    weight-graded matrix of the morphism
    mzv       truncated multiple zeta series of one composition
    verify    run the property suites

Exit codes
    0  success
    2  command-line usage error
    3  expression syntax error
    4  domain error (bad composition, divergent series, unit term, product
       too deep to compute, input too large for memory, ...)
    5  character table does not cover the requested weight
    6  singular character (no inverse)
    7  a verification check failed
    8  invalid character file
    9  I/O failure
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import morphisms, numeric, quasi_shuffle, shuffle_algebra, verify
from .compositions import Composition
from .elements import Element, TensorElement
from .expressions import ExpressionSyntaxError, evaluate_expression
from .numeric import TruncationConfig

__all__ = ["main", "entry"]


def _emit(x: Element | TensorElement, fmt: str) -> None:
    if fmt != "json":
        print(x)
    elif isinstance(x, TensorElement):
        print(json.dumps({"kind": "tensor", "rank": x.rank, "terms": x.to_records()}))
    else:
        print(json.dumps({"kind": "element", "terms": x.to_records()}))


def _parse_composition_arg(text: str) -> Composition:
    body = text.strip()
    # a bare 1 is the unit, while [1] is the composition with one part 1
    if body in ("", "1", "[]"):
        raise ValueError("expected a nonempty composition like [2,1]")
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        parts = tuple(int(p) for p in body.split(","))
    except ValueError:
        raise ValueError(f"cannot read {text!r} as a composition") from None
    return Composition(parts)


def _load_character(args) -> morphisms.Character:
    if getattr(args, "char_file", None):
        return morphisms.read_character_file(args.char_file)
    return morphisms.factorial_character(args.horizon)


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output encoding (default json)",
    )


def _add_character_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--char", choices=("factorial",), default="factorial",
        help="built-in character (default: factorial, 1/weight!)",
    )
    group.add_argument(
        "--char-file", metavar="PATH",
        help="JSON character table; validated on load",
    )
    p.add_argument(
        "--horizon", type=int, default=12, metavar="N",
        help="weight horizon for the built-in character (default 12)",
    )


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_eval(args) -> int:
    _emit(evaluate_expression(args.expr), args.format)
    return 0


def _cmd_coprod(args) -> int:
    side = shuffle_algebra if args.side == "shuffle" else quasi_shuffle
    _emit(side.coproduct(evaluate_expression(args.expr)), args.format)
    return 0


def _cmd_antipode(args) -> int:
    algebra = shuffle_algebra if args.algebra == "shuffle" else quasi_shuffle
    _emit(algebra.antipode(evaluate_expression(args.expr)), args.format)
    return 0


def _cmd_psi(args) -> int:
    chi = _load_character(args)
    e = evaluate_expression(args.expr)
    _emit(morphisms.induced_morphism_fast(chi, e), args.format)
    return 0


def _cmd_psi_inv(args) -> int:
    chi = _load_character(args)
    e = evaluate_expression(args.expr)
    _emit(morphisms.preimage(chi, e), args.format)
    return 0


def _cmd_matrix(args) -> int:
    chi = _load_character(args)
    mat = morphisms.morphism_matrix(chi, args.weight)
    if args.format == "table":
        print(mat.to_table())
    elif args.format == "csv":
        print(mat.to_csv(), end="")
    else:
        print(json.dumps({
            "weight": mat.weight,
            "basis": [list(c) for c in mat.basis],
            "entries": mat.cells(),
        }))
    return 0


def _cmd_mzv(args) -> int:
    c = _parse_composition_arg(args.composition)
    config = TruncationConfig(terms=args.terms)
    value = numeric.zeta_truncated(c, config)
    if args.format == "json":
        print(json.dumps({"composition": list(c), "terms": args.terms, "value": value}))
    else:
        print(value)
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, args.max_weight)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.suite}/{r.name}"
        if not r.passed:
            failures += 1
            if r.detail:
                line += f" -- {r.detail}"
        print(line)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in results], fh, indent=2)
            fh.write("\n")
    return 7 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzhopf",
        description="Exact shuffle/quasi-shuffle Hopf algebra on compositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr", help="e.g. '[2] sh [3] - 2*[1,2] st [2]'")
    _add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("coprod", help="coproduct of an expression")
    p.add_argument("expr")
    p.add_argument(
        "--side", choices=("shuffle", "dec"), default="shuffle",
        help="shuffle-side coproduct or deconcatenation (default shuffle)",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_coprod)

    p = sub.add_parser("antipode", help="antipode of an expression")
    p.add_argument("expr")
    p.add_argument(
        "--algebra", choices=("shuffle", "qsh"), default="shuffle",
        help="which Hopf algebra (default shuffle)",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_antipode)

    p = sub.add_parser("psi", help="apply the character-induced morphism")
    p.add_argument("expr")
    _add_character_options(p)
    _add_format(p)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("psi-inv", help="apply the inverse morphism")
    p.add_argument("expr")
    _add_character_options(p)
    _add_format(p)
    p.set_defaults(func=_cmd_psi_inv)

    p = sub.add_parser("matrix", help="graded matrix of the morphism")
    p.add_argument("--weight", type=int, required=True, metavar="N")
    _add_character_options(p)
    p.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output encoding (default table)",
    )
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("mzv", help="truncated multiple zeta series")
    p.add_argument("composition", help="admissible composition, e.g. [2,1]")
    p.add_argument(
        "--terms", type=int, default=100_000, metavar="N",
        help="truncation cutoff (default 100000, at most 1000000000)",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_mzv)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument(
        "--suite", choices=verify.SUITE_NAMES, default="all",
        help="which suite (default all)",
    )
    p.add_argument(
        "--max-weight", type=int, default=None, metavar="W",
        help="cap every per-check weight bound at W",
    )
    p.add_argument(
        "--report", metavar="PATH",
        help="also write the results as JSON to PATH",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


# The first entry that matches wins, so each subclass comes before its base.
# Every domain error (bad composition or word, divergent series, unit term)
# is a ValueError, and so are the first three entries; CoverageError is not.
# A product too deep for the recursion limit is a domain error as well, and
# so is an input too large for memory, such as a graded matrix at a large
# ``matrix --horizon``.
_EXIT_CODES = {
    ExpressionSyntaxError: 3,
    morphisms.SingularCharacterError: 6,
    morphisms.InvalidCharacterError: 8,
    morphisms.CoverageError: 5,
    ValueError: 4,
    RecursionError: 4,
    MemoryError: 4,
    OSError: 9,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        # only MemoryError can come without a message (Python's own has none)
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
