"""The benchmark's workloads: CLI invocations, their output checks and the
layers each one is expected to load or bypass.

DESIGN.md beside this file records why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

# sha256 of each invocation's stdout, pinned from the code the benchmark was
# written against.  The seeded hecke-relations run is pinned at seed 0 only;
# at other seeds its report is checked by `"passed": true` alone.
PINNED = {
    "kostka --degree 5": "c471f00b1a8cccc3a88665cf907fba6e6f826870fd6c3a9a1784099c317c0a4f",
    "kostka --degree 4 --n 6": "848ea6c693b098677ae1dffb2337d817c6dd5ce19e3c64a590908a39441520d5",
    "table --n 4 --maxdeg 7": "a4193c08a20ffb1a13e647c5c22a1e2e807cf244678ecdbf198490374e39efac",
    "verify --suite oracle --n 3 --maxdeg 5": "5441e69fddccf2d70a87fe16d740010e49573914eb86986fbc91fd7d318fac46",
    "verify --suite hecke-relations --n 4 --trials 50 --seed 0": "78479793a487df373cbf8b6144b993842dc8d2c8bd8db70980b10a06c3aa5d98",
    "verify --suite integrality --n 4 --maxdeg 5": "9514faa63f911fdbfa492cd1386a79331d788cfb7a95063d113b3ba0ad9a20bd",
    "verify --suite jack --n 4 --maxdeg 5": "9a4674bd2250069ddbeb4187796a3b802d2738ba8855ed4ed0e77d6556b800a3",
}


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    check: Callable[[bytes], list]

    @property
    def label(self):
        return " ".join(self.argv)

    def failures(self, data):
        """Failure messages for this invocation's stdout bytes."""
        pinned = PINNED.get(self.label)
        errors = checks.check_sha256(data, pinned) if pinned else []
        return errors + self.check(data)


def _kostka(degree, n=None):
    argv = ("kostka", "--degree", str(degree)) + (("--n", str(n)) if n else ())
    return Invocation(argv, partial(checks.check_kostka, degree=degree, n=n or degree))


def _table(n, maxdeg):
    argv = ("table", "--n", str(n), "--maxdeg", str(maxdeg))
    return Invocation(argv, partial(checks.check_table, n=n, maxdeg=maxdeg))


def _verify(suite, *options):
    argv = ("verify", "--suite", suite) + tuple(str(x) for x in options)
    return Invocation(argv, partial(checks.check_verify, suite=suite))


def invocations(workload, seed, smoke=False):
    """The workload's invocations, in run order; smoke=True gives the
    smallest sizes, for the harness self-tests."""
    if workload == "kostka":
        return [_kostka(3)] if smoke else [_kostka(5), _kostka(4, 6)]
    if workload == "table":
        return [_table(2, 2)] if smoke else [_table(4, 7)]
    if workload == "oracle":
        if smoke:
            return [
                _verify("oracle", "--n", 2, "--maxdeg", 2),
                _verify("hecke-relations", "--n", 2, "--trials", 2, "--seed", seed),
            ]
        return [
            _verify("oracle", "--n", 3, "--maxdeg", 5),
            _verify("hecke-relations", "--n", 4, "--trials", 50, "--seed", seed),
        ]
    if workload == "expand":
        size = ("--n", 2, "--maxdeg", 2) if smoke else ("--n", 4, "--maxdeg", 5)
        return [_verify("integrality", *size), _verify("jack", *size)]
    raise KeyError(workload)


WORKLOADS = ["kostka", "table", "oracle", "expand"]

# Span names (see tracer.LAYERS) that must record calls on a workload.  Every
# traced span is expected on at least one workload, so a wrapper that never
# fires fails the traced run instead of reading as zero cost.
EXPECTED_LOADS = {
    "kostka": {
        "qt.gcd", "qt.exact_divide", "qt.poly_mul", "qt.scalar_add", "qt.scalar_mul",
        "zpoly.add", "zpoly.scalar_mul", "zpoly.substitute", "zpoly.exact_divide",
        "hecke.apply_hecke", "hecke.apply_delta", "hecke.apply_X_lambda", "hecke.hecke_symmetrize",
        "macdonald.nonsym_calE", "macdonald.sym_calJ", "macdonald.solve",
        "symfunc.t_schur", "symfunc.bialternant", "symfunc.msym_coords", "cli.serialize",
    },
    "table": {
        "qt.gcd", "qt.exact_divide", "qt.poly_mul", "zpoly.scalar_mul", "zpoly.substitute",
        "hecke.apply_delta", "hecke.apply_X_lambda", "macdonald.nonsym_calE", "cli.serialize",
    },
    "oracle": {
        "qt.gcd", "qt.exact_divide", "qt.poly_mul", "qt.scalar_add", "qt.scalar_mul",
        "weights.order_leq", "hecke.apply_hecke", "hecke.apply_xi",
        "macdonald.eigen_oracle_E", "verify.run_suite", "cli.serialize",
    },
    "expand": {
        "zpoly.add", "zpoly.eval_float", "weights.order_leq", "weights.distinct_permutations",
        "hecke.hecke_symmetrize", "macdonald.expand", "macdonald.t_monomial_partial",
        "macdonald.sym_calJ", "jack.jack_nonsym", "jack.jack_sym", "jack.numeric_limit_check",
        "verify.run_suite", "cli.serialize",
    },
}

# Span names predicted to record no calls on a workload.  A miss is
# reported, not failed: it means the layer map in DESIGN.md is out of date.
PREDICTED_BYPASS = {
    "kostka": {"macdonald.eigen_oracle_E", "jack.jack_nonsym", "jack.jack_sym", "jack.numeric_limit_check"},
    "table": {
        "hecke.hecke_symmetrize", "symfunc.t_schur", "macdonald.eigen_oracle_E",
        "jack.jack_nonsym", "jack.jack_sym", "jack.numeric_limit_check",
    },
    "oracle": {"hecke.hecke_symmetrize", "symfunc.t_schur", "jack.jack_nonsym", "jack.jack_sym", "jack.numeric_limit_check"},
    "expand": {"macdonald.eigen_oracle_E"},
}
