"""Command-line front end: polynomial/matrix computation, verification
suites and golden-table generation with canonical, byte-stable output.

Exit codes: 0 success, 2 validation error (an unwritable --output
included, refused before any computation) or a computation that ran out
of memory, 3 expansion not in span, 4 integrality violation,
5 verification failure.  Every nonzero exit writes a JSON error to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_IN_SPAN = 3
EXIT_INTEGRALITY = 4
EXIT_VERIFY_FAILED = 5

_MAX_VALUE_DIGITS = 10_000  # for each --specialize value

# Size caps: an input above them would not finish in about a minute, so it
# is refused before anything is computed.  Each cap is the largest size
# whose slowest case took under a minute in single runs on a 2-vCPU x86
# host: `kostka --degree 7 --n 8` took 44 s, and expand's slowest case,
# `--form J --basis tmon` at lambda = (|lambda|, 0, ..., 0), took 30 to
# 48 s at the caps for n = 2, 3, 5 and 8 (one more unit of weight took
# 60 s at n = 4 and over 75 s at n = 6).  `table` took 10 to 57 s at its
# caps, within a 3 GB address space; one more degree took 65 s at n = 1
# and ran out of that space after 40 to 53 s at n = 3 to 8 (README has
# each time).
_MAX_KOSTKA_DEGREE = 7
_MAX_KOSTKA_N = 8
_MAX_EXPAND_WEIGHT = {1: 24, 2: 24, 3: 16, 4: 10, 5: 8, 6: 6, 7: 5, 8: 5}  # n -> |lambda|
_MAX_TABLE_DEGREE = {1: 105, 2: 28, 3: 14, 4: 10, 5: 7, 6: 6, 7: 5, 8: 5}  # n -> --maxdeg


# --parallel and KOSTKA_FORGE_THREADS are accepted for compatibility and
# ignored: the computation is pure Python under the interpreter lock, so
# threads cannot speed it up.
_PARALLEL_HELP = "accepted for compatibility; has no effect (runs serially)"


class ValidationError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError, so they are reported as JSON."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@contextlib.contextmanager
def _output(path):
    """The --output file, opened before the computation so that a path that
    cannot be written is refused at once; stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def _emit_error(kind, message, code, **extra):
    sys.stderr.write(canonical_json({"error": {"type": kind, "message": message, **extra}}))
    return code


def _require_at_least(args, name, least):
    value = getattr(args, name)
    if value < least:
        raise ValidationError(f"--{name} must be at least {least}, got {value}")


def _require_at_most(args, name, most):
    value = getattr(args, name)
    if value > most:
        raise ValidationError(f"--{name} must be at most {most}, got {value}")


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
        if var in values:
            raise ValidationError(f"variable {var!r} specialized twice")
        values[var] = _parse_value(val)
    return values.get("q"), values.get("t")


def _parse_value(val):
    """A rational literal, refused before Fraction expands an exponent that
    would give it more than _MAX_VALUE_DIGITS digits."""
    mantissa, _, exp = val.lower().partition("e")
    try:
        if len(mantissa) + abs(int(exp or 0)) > _MAX_VALUE_DIGITS:
            raise ValidationError(
                f"value {val!r} in specialization has more than {_MAX_VALUE_DIGITS} digits"
            )
        return Fraction(val)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad value {val!r} in specialization")


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
    _require_at_most(args, "n", max(_MAX_EXPAND_WEIGHT))
    lam = _parse_lambda(args.lam, args.n)
    if weight(lam) > _MAX_EXPAND_WEIGHT[args.n]:
        raise ValidationError(
            f"|lambda| must be at most {_MAX_EXPAND_WEIGHT[args.n]} for n={args.n}, got {weight(lam)}"
        )
    form = args.form
    if form in ("J", "calJ") and not is_partition(lam):
        raise ValidationError(f"{form} requires a partition, got {lam}")
    if args.format == "latex" and args.basis != "monomial":
        raise ValidationError(f"--format latex needs --basis monomial, got --basis {args.basis}")
    m = args.m if args.m is not None else length(lam)
    if args.basis in ("tmon-partial", "tmon-aug") and not 0 <= m <= args.n:
        raise ValidationError(f"m={m} out of range for n={args.n}")
    builders = {"E": nonsym_E, "calE": nonsym_calE, "J": sym_J, "calJ": sym_calJ}
    with _output(args.output) as fh:
        f = builders[form](lam)
        if args.basis == "monomial":
            if args.format == "latex":
                fh.write(poly_to_latex(f) + "\n")
            else:
                fh.write(canonical_json({"form": form, "lambda": list(lam), "polynomial": f.to_json_dict()}))
            return EXIT_OK
        if args.basis == "tmon":
            coeffs = expand_in_t_monomials(f)
            labels = sorted(coeffs)
            exp = BasisExpansion("t_monomial", labels, [coeffs[l] for l in labels])
        else:
            exp = expand_in_partial_t_monomials(f, m, augmented=(args.basis == "tmon-aug"))
            exp.sort()
        payload = {"form": form, "lambda": list(lam)}
        payload.update(exp.to_json_dict())
        fh.write(canonical_json(payload))
    return EXIT_OK


def cmd_kostka(args):
    _require_at_least(args, "degree", 0)
    _require_at_most(args, "degree", _MAX_KOSTKA_DEGREE)
    if args.n is None:
        args.n = args.degree
    if args.n < args.degree:
        raise ValidationError(f"kostka needs n >= degree ({args.n} < {args.degree})")
    _require_at_most(args, "n", _MAX_KOSTKA_N)
    qv, tv = _parse_specialize(args.specialize) if args.specialize else (None, None)
    with _output(args.output) as fh:
        km = kostka_matrix(args.degree, args.n)
        violations = not km.all_integral()
        out = km.specialize(qv, tv) if args.specialize else km
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # specialized entries can be longer
        try:
            if args.format == "csv":
                fh.write(matrix_to_csv(out))
            elif args.format == "latex":
                fh.write(matrix_to_latex(out))
            else:
                fh.write(canonical_json(out.to_json_dict()))
        finally:
            sys.set_int_max_str_digits(limit)
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
    with _output(args.output) as fh:
        report = run_suite(
            args.suite, n=args.n, maxdeg=args.maxdeg, trials=args.trials, seed=args.seed
        )
        fh.write(canonical_json(report))
    if report["passed"]:
        return EXIT_OK
    checks = report["checks"]
    if not checks:
        message, failed = f"suite {args.suite} ran no checks", "no checks ran"
    else:
        failed = [c["name"] for c in checks if not c["passed"]]
        message = f"suite {args.suite}: {len(failed)} of {len(checks)} checks failed"
    return _emit_error("VerificationFailed", message, EXIT_VERIFY_FAILED, failed=failed)


def cmd_table(args):
    _require_at_least(args, "n", 1)
    _require_at_most(args, "n", max(_MAX_TABLE_DEGREE))
    _require_at_least(args, "maxdeg", 0)
    if args.maxdeg > _MAX_TABLE_DEGREE[args.n]:
        raise ValidationError(
            f"--maxdeg must be at most {_MAX_TABLE_DEGREE[args.n]} for n={args.n}, got {args.maxdeg}"
        )
    lams = []
    for d in range(args.maxdeg + 1):
        lams.extend(compositions(d, args.n))
    lams.sort(key=lambda l: (weight(l), l))
    with _output(args.output) as fh:
        # every form before any entry: serializing between creation steps
        # mixes short-lived JSON objects into the recursion's heap (~3 % slower)
        forms = [nonsym_calE(lam) for lam in lams]
        # entry by entry, the same bytes as canonical_json of the whole payload
        fh.write('{"entries":[')
        for k, (lam, f) in enumerate(zip(lams, forms)):
            entry = canonical_json({"lambda": list(lam), "calE": f.to_json_dict()})
            fh.write("," + entry[:-1] if k else entry[:-1])
        fh.write(f'],"maxdeg":{args.maxdeg},"n":{args.n}}}\n')
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = _ArgumentParser(
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
    # The cyclic collector is paused for the run.  Exact-algebra values
    # (QTPolynomial, ExactScalar, ZPolynomial) are acyclic trees freed by
    # reference counting, so its passes find no garbage; they only rescan
    # the growing memo tables.  The caller's setting is restored on exit.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        return _emit_error("ValidationError", str(exc), EXIT_VALIDATION)
    except NotInSpan as exc:
        return _emit_error("NotInSpan", str(exc), EXIT_NOT_IN_SPAN)
    except KostkaForgeError as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_VALIDATION)
    except OSError as exc:  # an --output path that cannot be written
        return _emit_error(type(exc).__name__, str(exc), EXIT_VALIDATION)
    except MemoryError as exc:
        return _emit_error("MemoryError", str(exc) or "out of memory", EXIT_VALIDATION)
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
