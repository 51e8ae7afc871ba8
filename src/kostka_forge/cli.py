"""Command-line front end: polynomial/matrix computation, verification
suites and golden-table generation with canonical, byte-stable output.

Exit codes: 0 success, 2 validation error, 3 expansion not in span,
4 integrality violation, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import KostkaForgeError, NotInSpan
from .macdonald import (
    BasisExpansion,
    expand_in_partial_t_monomials,
    expand_in_t_monomials,
    kostka_matrix,
    nonsym_E,
    nonsym_calE,
    sym_J,
    sym_calJ,
)
from .verify import SUITES, run_suite
from .weights import compositions, is_partition, length, weight
from .zpoly import ZPolynomial

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_IN_SPAN = 3
EXIT_INTEGRALITY = 4
EXIT_VERIFY_FAILED = 5


# --parallel and KOSTKA_FORGE_THREADS are accepted for compatibility and
# ignored: the computation is pure Python under the interpreter lock, so
# threads cannot speed it up.
_PARALLEL_HELP = "accepted for compatibility; has no effect (runs serially)"


class ValidationError(Exception):
    pass


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(kind, message, code):
    sys.stderr.write(canonical_json({"error": {"type": kind, "message": message}}))
    return code


def _require_at_least(args, name, least):
    value = getattr(args, name)
    if value < least:
        raise ValidationError(f"--{name} must be at least {least}, got {value}")


def _parse_lambda(text, n):
    try:
        lam = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse composition {text!r}")
    if len(lam) != n:
        raise ValidationError(f"composition {lam} does not have {n} parts")
    if any(x < 0 for x in lam):
        raise ValidationError(f"composition {lam} has negative parts")
    return lam


def _parse_specialize(text):
    values = {}
    for frag in text.split(","):
        if "=" not in frag:
            raise ValidationError(f"bad specialization {frag!r}; expected var=value")
        var, val = frag.split("=", 1)
        var = var.strip()
        if var not in ("q", "t"):
            raise ValidationError(f"unknown variable {var!r} in specialization")
        try:
            values[var] = Fraction(val)
        except ValueError:
            raise ValidationError(f"bad value {val!r} in specialization")
    return values.get("q"), values.get("t")


# ---------------------------------------------------------------------------
# latex emitters
# ---------------------------------------------------------------------------


def poly_to_latex(f):
    if not f.terms:
        return "0"
    frags = []
    for e, c in sorted(f.terms.items(), reverse=True):
        mono = "".join(
            f"z_{{{i + 1}}}" + (f"^{{{p}}}" if p != 1 else "")
            for i, p in enumerate(e)
            if p
        )
        cs = str(c)
        frags.append(f"\\left({cs}\\right){mono}" if mono and cs != "1" else (mono or cs))
    return " + ".join(frags)


def matrix_to_latex(km):
    rows = [" & ".join(str(c) for c in row) + r" \\" for row in km.entries]
    header = ", ".join(str(list(l)) for l in km.labels)
    body = "\n".join(rows)
    return f"% rows/columns: {header}\n\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}\n"


def matrix_to_csv(km):
    lines = ["," + ",".join("".join(map(str, l)) for l in km.labels)]
    for lam, row in zip(km.labels, km.entries):
        lines.append("".join(map(str, lam)) + "," + ",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_expand(args):
    lam = _parse_lambda(args.lam, args.n)
    form = args.form
    if form in ("J", "calJ") and not is_partition(lam):
        raise ValidationError(f"{form} requires a partition, got {lam}")
    builders = {"E": nonsym_E, "calE": nonsym_calE, "J": sym_J, "calJ": sym_calJ}
    f = builders[form](lam)
    if args.basis == "monomial":
        if args.format == "latex":
            _write(poly_to_latex(f) + "\n", args.output)
        else:
            _write(canonical_json({"form": form, "lambda": list(lam), "polynomial": f.to_json_dict()}), args.output)
        return EXIT_OK
    if args.basis == "tmon":
        coeffs = expand_in_t_monomials(f)
        labels = sorted(coeffs)
        exp = BasisExpansion("t_monomial", labels, [coeffs[l] for l in labels])
    else:
        m = args.m if args.m is not None else length(lam)
        if not 0 <= m <= args.n:
            raise ValidationError(f"m={m} out of range for n={args.n}")
        exp = expand_in_partial_t_monomials(f, m, augmented=(args.basis == "tmon-aug"))
        exp.sort()
    payload = {"form": form, "lambda": list(lam)}
    payload.update(exp.to_json_dict())
    _write(canonical_json(payload), args.output)
    return EXIT_OK


def cmd_kostka(args):
    _require_at_least(args, "degree", 0)
    if args.n is None:
        args.n = args.degree
    if args.n < args.degree:
        raise ValidationError(f"kostka needs n >= degree ({args.n} < {args.degree})")
    km = kostka_matrix(args.degree, args.n)
    violations = not km.all_integral()
    out = km
    if args.specialize:
        qv, tv = _parse_specialize(args.specialize)
        out = km.specialize(qv, tv)
    if args.format == "csv":
        _write(matrix_to_csv(out), args.output)
    elif args.format == "latex":
        _write(matrix_to_latex(out), args.output)
    else:
        _write(canonical_json(out.to_json_dict()), args.output)
    if violations:
        return _emit_error(
            "IntegralityViolation",
            "a Kostka entry has a non-unit denominator",
            EXIT_INTEGRALITY,
        )
    return EXIT_OK


def cmd_verify(args):
    if args.suite not in SUITES:
        raise ValidationError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    _require_at_least(args, "n", 1)
    _require_at_least(args, "maxdeg", 0)
    _require_at_least(args, "trials", 1)
    report = run_suite(
        args.suite, n=args.n, maxdeg=args.maxdeg, trials=args.trials, seed=args.seed
    )
    _write(canonical_json(report), args.output)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_table(args):
    _require_at_least(args, "n", 1)
    _require_at_least(args, "maxdeg", 0)
    lams = []
    for d in range(args.maxdeg + 1):
        lams.extend(compositions(d, args.n))
    lams.sort(key=lambda l: (weight(l), l))
    entries = [{"lambda": list(lam), "calE": nonsym_calE(lam).to_json_dict()} for lam in lams]
    payload = {"n": args.n, "maxdeg": args.maxdeg, "entries": entries}
    _write(canonical_json(payload), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kostka-forge",
        description="Exact Macdonald-polynomial computations: expansions, "
        "two-variable Kostka matrices, verification suites and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="compute a polynomial and expand it in a basis")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--lambda", dest="lam", required=True, help="composition, e.g. 1,0")
    p.add_argument("--form", choices=["E", "calE", "J", "calJ"], default="calE")
    p.add_argument(
        "--basis",
        choices=["monomial", "tmon", "tmon-partial", "tmon-aug"],
        default="monomial",
    )
    p.add_argument("--m", type=int, default=None, help="symmetrization level (default l(lambda))")
    p.add_argument("--format", choices=["json", "latex"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("kostka", help="two-variable Kostka matrix for a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="number of variables (default: degree)")
    p.add_argument("--specialize", default=None, help="e.g. q=0,t=0")
    p.add_argument("--format", choices=["json", "csv", "latex"], default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--parallel", type=int, default=None, help=_PARALLEL_HELP)
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--maxdeg", type=int, default=4)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="table of integral-form polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maxdeg", type=int, required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--parallel", type=int, default=None, help=_PARALLEL_HELP)
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        return _emit_error("ValidationError", str(exc), EXIT_VALIDATION)
    except NotInSpan as exc:
        return _emit_error("NotInSpan", str(exc), EXIT_NOT_IN_SPAN)
    except KostkaForgeError as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
