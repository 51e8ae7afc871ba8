"""Classical symmetric-function helpers used as independent oracles:
Schur polynomials via the ratio of alternants, power sums, and exact
power-sum expansions of Schur functions over Q; and the one exact solver
for a change of basis in monomial-symmetric coordinates.

These deliberately avoid the Hecke machinery so they can cross-check it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import NotAPartition, SingularSystem, TooFewVariables
from .qt import ExactScalar, QTPolynomial
from .weights import is_partition, pad, partitions
from .zpoly import ZPolynomial


def schur_bialternant(mu, n):
    """Schur polynomial s_mu in n variables as a ratio of alternants.

    a_delta is the product of the z_i - z_j, i < j (Macdonald I (3.1)), so
    a_{mu+delta} is divided by one monic linear factor at a time, with
    integer coefficients that become ExactScalars only at the end.
    """
    mu = pad(tuple(mu), n)
    if len(mu) > n:
        raise TooFewVariables(f"{mu} needs more than {n} variables")
    exps = [m + n - 1 - i for i, m in enumerate(mu)]
    terms = {}
    for w in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        terms[tuple(exps[i] for i in w)] = -1 if inv % 2 else 1
    f = ZPolynomial(n, terms)
    for i, j in itertools.combinations(range(n), 2):
        zi = [0] * n
        zj = [0] * n
        zi[i] = zj[j] = 1
        f = f.exact_divide(ZPolynomial(n, {tuple(zi): 1, tuple(zj): -1}))
    return ZPolynomial(n, {e: ExactScalar.from_int(c) for e, c in f.terms.items()})


def power_sum(r, n):
    """p_r = z_1^r + ... + z_n^r."""
    return power_sum_product((r,), n)


def _integer_power_sum_product(rho, n):
    """p_rho in n variables, with int coefficients."""
    f = ZPolynomial(n, {(0,) * n: 1})
    for r in rho:
        f = f * ZPolynomial(n, {tuple(r if j == i else 0 for j in range(n)): 1 for i in range(n)})
    return f


def power_sum_product(rho, n):
    f = _integer_power_sum_product(rho, n)
    return ZPolynomial(n, {e: ExactScalar.from_int(c) for e, c in f.terms.items()})


def msym_coords(f, n):
    """Monomial-symmetric coordinates of a symmetric polynomial.

    Keys are padded partitions; the coordinate on m_rho is the coefficient
    of the dominant monomial z^rho.
    """
    out = {}
    for e, c in f.terms.items():
        key = tuple(sorted(e, reverse=True))
        if key == e:
            out[key] = c
    return out


def msym_vector(f, labels):
    """Monomial-symmetric coordinates of a symmetric polynomial at the
    given padded partitions, as a list (zero where f has no term)."""
    coords = msym_coords(f, f.n)
    return [coords.get(rho, ExactScalar.zero()) for rho in labels]


def _solve_scalar_system(basis, targets):
    """Coordinates of each target vector in the basis vectors, exactly over
    Q(q,t): one Gauss-Jordan elimination on [A | B], where A's columns are
    the basis vectors and B's the targets.  A is square: there are as many
    basis vectors as coordinates.  Returns one row per target."""
    size = len(basis)
    m = [list(row) for row in zip(*basis, *targets)]
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            raise SingularSystem("singular coefficient matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col].inverse()
        m[col] = [x * inv for x in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [[m[r][size + k] for r in range(size)] for k in range(len(targets))]


@functools.lru_cache(maxsize=None)
def _power_sum_basis(d):
    """{mu: {rho: c_rho}}, s_mu = sum_rho c_rho p_rho for every partition mu
    of d: one solve per degree, in msym coordinates in d variables, with the
    p_rho as basis and every s_mu as a target."""
    labels = sorted(partitions(d, d), reverse=True)
    coords = [pad(p, d) for p in labels]
    basis = [msym_vector(power_sum_product(rho, d), coords) for rho in labels]
    targets = [msym_vector(schur_bialternant(mu, d), coords) for mu in labels]
    return {mu: dict(zip(labels, sol)) for mu, sol in zip(labels, _solve_scalar_system(basis, targets))}


def schur_power_sum_expansion(mu, n):
    """s_mu = sum_rho c_rho p_rho with exact rational c_rho.

    Valid (and unique) for n >= |mu|, where the c_rho do not depend on n;
    so they are read off the table of degree |mu| (_power_sum_basis).
    """
    mu = tuple(x for x in mu if x)
    d = sum(mu)
    if n < d:
        raise TooFewVariables(f"power-sum basis needs n >= {d}")
    if not is_partition(mu):
        raise NotAPartition(f"{mu} is not a partition")
    out = {}
    for rho, c in _power_sum_basis(d)[mu].items():
        if not (c.num.is_const() and c.den.is_const()):
            raise SingularSystem("non-constant coefficient in a Q-expansion")
        if c:
            out[rho] = Fraction(c.num.const_value(), c.den.const_value())
    return out


def t_schur_polynomial(mu, n):
    """S_mu(z;t): the Schur function with p_r rescaled to (1-t^r) p_r.

    The sum over rho runs in Z[t], scaled by the common denominator D of
    the power-sum expansion; each coefficient is divided by D once.
    """
    mu = tuple(x for x in mu if x)
    if n < sum(mu):
        raise TooFewVariables(f"t-Schur construction needs n >= {sum(mu)}")
    expansion = schur_power_sum_expansion(mu, n)
    den = math.lcm(*(c.denominator for c in expansion.values()))
    num = {}
    for rho, c in expansion.items():
        factor = QTPolynomial.const(c.numerator * (den // c.denominator))
        for r in rho:
            factor = factor * (QTPolynomial.one() - QTPolynomial.t(r))
        for e, k in _integer_power_sum_product(rho, n).terms.items():
            num[e] = num[e] + factor.scale(k) if e in num else factor.scale(k)
    den = QTPolynomial.const(den)
    return ZPolynomial(n, {e: ExactScalar(p, den) for e, p in num.items()})
