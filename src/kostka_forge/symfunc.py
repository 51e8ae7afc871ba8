"""Classical symmetric-function helpers used as independent oracles:
Schur polynomials via the ratio of alternants, power sums, and exact
power-sum expansions of Schur functions over Q; and the one exact solver
for a change of basis in monomial-symmetric coordinates.

These deliberately avoid the Hecke machinery so they can cross-check it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import SingularSystem, TooFewVariables
from .qt import ExactScalar, QTPolynomial
from .weights import pad, partitions
from .zpoly import ZPolynomial


def schur_bialternant(mu, n):
    """Schur polynomial s_mu in n variables as a ratio of alternants."""
    mu = pad(tuple(mu), n)
    if len(mu) > n:
        raise TooFewVariables(f"{mu} needs more than {n} variables")
    delta = tuple(range(n - 1, -1, -1))

    def alternant(exps):
        terms = {}
        for w in itertools.permutations(range(n)):
            sign = 1
            wl = list(w)
            # inversion parity
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if wl[i] > wl[j])
            sign = -1 if inv % 2 else 1
            key = tuple(exps[w[i]] for i in range(n))
            c = terms.get(key, ExactScalar.zero()) + ExactScalar.from_int(sign)
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]
        return ZPolynomial(n, terms)

    num = alternant(tuple(m + d for m, d in zip(mu, delta)))
    den = alternant(delta)
    return num.exact_divide(den)


def power_sum(r, n):
    """p_r = z_1^r + ... + z_n^r."""
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = r
        terms[tuple(e)] = ExactScalar.one()
    return ZPolynomial(n, terms)


def power_sum_product(rho, n):
    f = ZPolynomial.one(n)
    for r in rho:
        f = f * power_sum(r, n)
    return f


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


def schur_power_sum_expansion(mu, n):
    """s_mu = sum_rho c_rho p_rho with exact rational c_rho.

    Valid (and unique) for n >= |mu|, where the c_rho do not depend on n;
    so the system is solved in |mu| variables, in monomial-symmetric
    coordinates against the p_rho basis.
    """
    mu = tuple(x for x in mu if x)
    d = sum(mu)
    if n < d:
        raise TooFewVariables(f"power-sum basis needs n >= {d}")
    labels = sorted(partitions(d, d), reverse=True)
    coords = [pad(p, d) for p in labels]
    basis = [msym_vector(power_sum_product(rho, d), coords) for rho in labels]
    target = msym_vector(schur_bialternant(mu, d), coords)
    (sol,) = _solve_scalar_system(basis, [target])
    out = {}
    for rho, c in zip(labels, sol):
        if not (c.num.is_const() and c.den.is_const()):
            raise SingularSystem("non-constant coefficient in a Q-expansion")
        if c:
            out[rho] = Fraction(c.num.const_value(), c.den.const_value())
    return out


def t_schur_polynomial(mu, n):
    """S_mu(z;t): the Schur function with p_r rescaled to (1-t^r) p_r."""
    mu = tuple(x for x in mu if x)
    if n < sum(mu):
        raise TooFewVariables(f"t-Schur construction needs n >= {sum(mu)}")
    expansion = schur_power_sum_expansion(mu, n)
    out = ZPolynomial.zero(n)
    for rho, c in expansion.items():
        factor = QTPolynomial.one()
        for r in rho:
            factor = factor * (QTPolynomial.one() - QTPolynomial.t(r))
        scalar = ExactScalar.from_fraction(c) * ExactScalar.from_poly(factor)
        out = out + power_sum_product(rho, n).scalar_mul(scalar)
    return out
