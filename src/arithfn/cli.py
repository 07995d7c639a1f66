"""Command-line front end: factor, eval, convolve, verify, series, list-identities.

Exit codes: 0 success (identity holds / check passes), 1 verification failure
(exact mismatch or tolerance breach), 2 usage error (unknown name, malformed
input, out-of-domain point, a window that does not fit in memory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from .convolution import (
    VerificationReport,
    convolve_at,
    dirichlet_convolve,
    fraction_to_str,
    list_identity_presets,
    parse_expression,
    resolve_builtin,
    tabulate,
    verify_all,
    verify_identity,
)
from .errors import OutOfDomainError, ParseError, UnknownNameError
from .factor import build_sieve, factorize, factorize_rational
from .ladditive import eval_rational, l_additive_by_token
from .series import check_series_identity, list_series_presets

_LIMIT_HELP = (
    "table window [1, N]; memory is about one and a half machine words per integer up to N "
    "(the int32 sieve and its int32 split arrays)"
)


def _rational_arg(text: str) -> tuple[int, int]:
    num, sep, den = text.partition("/")
    try:
        p = int(num)
        q = int(den) if sep else 1
    except ValueError:
        raise argparse.ArgumentTypeError(f"rational must look like <p>/<q>, got {text!r}")
    if p < 1 or q < 1:
        raise argparse.ArgumentTypeError("rational parts must be positive integers")
    return p, q


def _complex_arg(text: str) -> complex:
    re, sep, im = text.partition(",")
    try:
        return complex(float(re), float(im) if sep else 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"point must look like <real> or <real>,<imag>, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return v


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError("value must be finite and > 0")
    return v


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text, like every other error."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # one tree per process: building it costs about 25 parses
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output encoding (default: table)",
    )

    parser = _ArgumentParser(
        prog="arithfn",
        description="Exact arithmetic-function identities and Dirichlet series checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", parents=[common], help="prime factorization of n or p/q")
    p.add_argument("n", nargs="?", type=_positive_int, help="natural number to factor")
    p.add_argument("--rational", type=_rational_arg, metavar="P/Q", help="positive rational to factor")

    p = sub.add_parser("eval", parents=[common], help="evaluate a function at n or p/q")
    p.add_argument(
        "fn",
        help="a builtin name, as in expressions (tau, id_-1, mangoldt:ld); "
        "--rational takes delta, delta_p:<prime>, ld and big_omega",
    )
    p.add_argument("n", nargs="?", type=_positive_int, help="natural argument")
    p.add_argument("--rational", type=_rational_arg, metavar="P/Q", help="rational argument")

    p = sub.add_parser("convolve", parents=[common], help="Dirichlet-convolve two expressions")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument("--limit", type=_positive_int, default=100, help=_LIMIT_HELP + " (default: 100)")
    p.add_argument(
        "--at",
        type=_positive_int,
        default=None,
        metavar="N",
        help="evaluate (a*b)(N) only, by direct divisor enumeration",
    )

    p = sub.add_parser("verify", parents=[common], help="check an identity preset exactly")
    p.add_argument("identity", help="a preset name, or 'all'")
    p.add_argument("--limit", type=_positive_int, default=10000, help=_LIMIT_HELP + " (default: 10000)")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the randomized presets (compmult-distr); default 0",
    )

    p = sub.add_parser("series", parents=[common], help="check a Dirichlet-series identity")
    p.add_argument("preset", help="a series preset name (see list-identities)")
    p.add_argument("--s", type=_complex_arg, required=True, metavar="RE[,IM]", help="evaluation point")
    p.add_argument(
        "--limit", type=_positive_int, default=100000, help="coefficient cutoff N (default: 100000)"
    )
    p.add_argument(
        "--primes", type=_positive_int, default=100000, help="prime cutoff for F (default: 100000)"
    )
    p.add_argument("--tol", type=_positive_float, default=1e-6, help="absolute tolerance (default: 1e-6)")
    p.add_argument("--k", type=int, default=2, help="power for cor-sigmak (default: 2)")

    sub.add_parser("list-identities", parents=[common], help="list every preset with its formula")

    return parser


def _emit(fmt: str, table: str, header: list, rows: list, obj) -> None:
    """Print one result as table text, as CSV rows under a header row, or as one JSON document."""
    if fmt == "table":
        print(table)
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
    else:
        print(json.dumps(obj))


def _emit_factors(kind: str, text_input: str, fact, fmt: str) -> int:
    pairs = [(p, a) for p, a in fact]
    body = " * ".join(str(p) if a == 1 else f"{p}^{a}" for p, a in pairs) or "1"
    _emit(fmt, f"{text_input} = {body}", ["prime", "exponent"], pairs, {"input": text_input, "kind": kind, "factors": pairs})
    return 0


def _cmd_factor(args) -> int:
    if (args.n is None) == (args.rational is None):
        raise ValueError("factor takes either a natural number or --rational P/Q")
    if args.n is not None:
        return _emit_factors("natural", str(args.n), factorize(args.n), args.format)
    p, q = args.rational
    return _emit_factors("rational", f"{p}/{q}", factorize_rational(p, q), args.format)


def _cmd_eval(args) -> int:
    if (args.n is None) == (args.rational is None):
        raise ValueError("eval takes either a natural number or --rational P/Q")
    token = args.fn
    impl = resolve_builtin(token)
    if args.n is not None:
        value, argument = impl.at(args.n), str(args.n)
    else:
        try:
            fn = l_additive_by_token(token)
        except UnknownNameError:
            raise ValueError(f"{token} is defined on natural numbers only") from None
        p, q = args.rational
        value, argument = eval_rational(fn, p, q), f"{p}/{q}"
    header, row = ["function", "argument", "value"], [token, argument, fraction_to_str(value)]
    _emit(args.format, str(value), header, [row], dict(zip(header, row)))
    return 0


def _cmd_convolve(args) -> int:
    expr_a = parse_expression(args.expr_a)
    expr_b = parse_expression(args.expr_b)
    if args.at is not None:
        value = convolve_at(expr_a, expr_b, args.at)
        obj = {"expression": f"({expr_a}) * ({expr_b})", "n": args.at, "value": fraction_to_str(value)}
        _emit(args.format, str(value), ["n", "value"], [[args.at, obj["value"]]], obj)
        return 0
    sieve = build_sieve(max(args.limit, 2))
    a = tabulate(expr_a, args.limit, sieve)
    b = tabulate(expr_b, args.limit, sieve)
    c = dirichlet_convolve(a, b)
    # The whole table is rendered before anything is printed (to_csv writes it in one
    # piece), so a value that cannot be rendered leaves no partial output.
    if args.format == "table":
        print("\n".join(f"{n}\t{c[n]}" for n in range(1, c.limit + 1)))
    elif args.format == "csv":
        c.to_csv(sys.stdout)
    else:
        expression = json.dumps(f"({expr_a}) * ({expr_b})")
        print(f'{c.to_json()[:-1]}, "expression": {expression}}}')  # one more key before the final "}"
    return 0


def _verify_line(r: VerificationReport) -> str:
    if r.holds:
        return f"{r.identity}: holds on [1, {r.limit}]  ({r.elapsed_s:.2f} s)"
    return (
        f"{r.identity}: MISMATCH at n = {r.mismatch_n} in [{r.case}]: "
        f"lhs = {r.lhs}, rhs = {r.rhs}  ({r.elapsed_s:.2f} s)"
    )


_VERIFY_CSV_COLUMNS = ["identity", "range", "holds", "mismatch_n", "case", "lhs", "rhs", "elapsed_s"]


def _cmd_verify(args) -> int:
    if args.identity == "all":
        reports = verify_all(args.limit, seed=args.seed)
    else:
        reports = [verify_identity(args.identity, args.limit, seed=args.seed)]
    lines = [_verify_line(r) for r in reports]
    if args.identity == "all":
        lines.append(f"{sum(r.holds for r in reports)}/{len(reports)} identities hold on [1, {args.limit}]")
    dicts = [r.to_dict() for r in reports]
    rows = [[d[k] for k in _VERIFY_CSV_COLUMNS] for d in dicts]
    _emit(args.format, "\n".join(lines), _VERIFY_CSV_COLUMNS, rows, dicts if args.identity == "all" else dicts[0])
    return 0 if all(r.holds for r in reports) else 1


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.17g}"
    return f"{z.real:.17g} + {z.imag:.17g}i"


def _cmd_series(args) -> int:
    r = check_series_identity(args.preset, args.s, args.limit, args.primes, args.tol, k=args.k)
    c = _format_complex
    row = [r.name, c(r.s), r.limit, r.prime_limit, c(r.lhs), c(r.rhs), f"{r.abs_error:.17g}", f"{r.tolerance:.17g}"]
    labels = ["identity", "s", "N", "prime limit", "lhs", "rhs", "abs error", "tolerance", "result"]
    table = "\n".join(f"{k + ':':<13}{v}" for k, v in zip(labels, [*row, "PASS" if r.passed else "FAIL"]))
    header = ["name", "s", "N", "prime_limit", "lhs", "rhs", "abs_error", "tolerance", "pass"]
    _emit(args.format, table, header, [[*row, r.passed]], r.to_dict())
    return 0 if r.passed else 1


def _cmd_list_identities(args) -> int:
    exact, ser = list_identity_presets(), list_series_presets()
    rows = [["exact", n, d] for n, d in exact] + [["series", n, d] for n, d in ser]
    table = ["exact identities (verify):", *(f"  {n:<18} {d}" for n, d in exact)]
    table += ["series identities (series):", *(f"  {n:<18} {d}" for n, d in ser)]
    obj = {"identities": [{"layer": layer, "name": n, "formula": d} for layer, n, d in rows]}
    _emit(args.format, "\n".join(table), ["layer", "name", "formula"], rows, obj)
    return 0


_HANDLERS = {
    "factor": _cmd_factor,
    "eval": _cmd_eval,
    "convolve": _cmd_convolve,
    "verify": _cmd_verify,
    "series": _cmd_series,
    "list-identities": _cmd_list_identities,
}


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except UnknownNameError as e:
        name = e.args[0] if e.args else "?"
        print(f"error: unknown name {name!r}; see 'arithfn list-identities'", file=sys.stderr)
        return 2
    except (ParseError, OutOfDomainError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller --limit", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
