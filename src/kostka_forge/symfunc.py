"""Classical symmetric-function helpers used as independent oracles:
Schur polynomials via the ratio of alternants, power sums, and exact
power-sum expansions of Schur functions over Q.

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


def _solve_fraction_system(matrix, rhs):
    """Exact Gaussian elimination over Q; matrix is list of rows."""
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    size = len(m)
    width = len(m[0]) - 1
    if size < width:
        raise SingularSystem("underdetermined system")
    col = 0
    pivots = []
    for col in range(width):
        piv = next((r for r in range(len(pivots), size) if m[r][col]), None)
        if piv is None:
            raise SingularSystem("singular coefficient matrix")
        r0 = len(pivots)
        m[r0], m[piv] = m[piv], m[r0]
        inv = Fraction(1) / m[r0][col]
        m[r0] = [x * inv for x in m[r0]]
        for r in range(size):
            if r != r0 and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[r0])]
        pivots.append(col)
    for r in range(width, size):
        if m[r][width]:
            raise SingularSystem("inconsistent system")
    return [m[r][width] for r in range(width)]


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
    coords = sorted({pad(p, d) for p in labels}, reverse=True)

    def coord_vector(f):
        cs = msym_coords(f, d)
        out = []
        for key in coords:
            c = cs.get(key)
            if c is None:
                out.append(Fraction(0))
            else:
                # coefficients here are integers embedded in Q(q,t)
                if not c.den.is_one() or not c.num.is_const():
                    raise SingularSystem("non-constant coordinate in Q-expansion")
                out.append(Fraction(c.num.const_value()))
        return out

    columns = [coord_vector(power_sum_product(rho, d)) for rho in labels]
    matrix = [[columns[j][i] for j in range(len(labels))] for i in range(len(coords))]
    rhs = coord_vector(schur_bialternant(mu, d))
    sol = _solve_fraction_system(matrix, rhs)
    return {rho: c for rho, c in zip(labels, sol) if c}


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
