"""Classical symmetric-function helpers used as independent oracles:
Schur polynomials as the ratio of alternants, computed by divided
differences on a single monomial, power sums, and exact power-sum
expansions of Schur functions over Q; and the one exact solver for a
change of basis in monomial-symmetric coordinates.

These deliberately avoid the Hecke machinery so they can cross-check it:
the divided differences here are exact divisions, not hecke's operators.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import NotAPartition, SingularSystem, TooFewVariables
from .qt import ExactScalar, QTPolynomial
from .weights import conjugate, distinct_permutations, is_partition, pad, partitions
from .zpoly import ZPolynomial


def schur_bialternant(mu, n):
    """Schur polynomial s_mu in n variables, as ∂_{w0} z^{mu+delta}.

    ∂_i f = (f - s_i f) / (z_i - z_{i+1}) is the divided difference, and
    ∂_{w0} = a_delta^{-1} sum_w sgn(w) w (Lascoux, CBMS 99, 2003), so this
    is the ratio of alternants a_{mu+delta} / a_delta (Macdonald I (3.1)),
    without the n!-term alternant: z^{mu+delta} goes through one exact
    division by z_i - z_{i+1} for each letter of the reduced word
    (s_1)(s_2 s_1)...(s_{n-1}...s_1) of w0, rightmost letter first, with
    integer coefficients that become ExactScalars only at the end.  For a
    composition mu the result carries the straightening sign, and it is 0
    when mu+delta has a repeated entry.

    For a partition mu in n > d = |mu| variables it is built in d
    variables only: s_mu = sum_nu K_mu,nu m_nu (Macdonald I §6) and its
    msym coordinates K_mu,nu do not depend on the number of variables, so
    each one is written on every distinct rearrangement of nu padded to n.
    """
    mu = pad(tuple(mu), n)
    if len(mu) > n:
        raise TooFewVariables(f"{mu} needs more than {n} variables")
    d = sum(mu)
    if n > d and is_partition(mu):
        return _from_msym_coords(msym_coords(schur_bialternant(mu[:d], d), d), n)
    f = ZPolynomial(n, {tuple(m + n - 1 - i for i, m in enumerate(mu)): 1})
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    for k in range(n - 1, 0, -1):
        for i in range(k):
            s_i = [*range(i), i + 1, i, *range(i + 2, n)]
            f = (f - f.permute(s_i)).exact_divide(ZPolynomial(n, {unit[i]: 1, unit[i + 1]: -1}))
    return ZPolynomial(n, {e: ExactScalar.from_int(c) for e, c in f.terms.items()})


def power_sum(r, n):
    """p_r = z_1^r + ... + z_n^r."""
    return power_sum_product((r,), n)


@functools.cache
def _integer_power_sum_product(rho, n):
    """p_rho in n variables, with int coefficients (rho a tuple); memoized,
    so the result is shared and must not be changed."""
    f = ZPolynomial(n, {(0,) * n: 1})
    for r in rho:
        f = f * ZPolynomial(n, {tuple(r if j == i else 0 for j in range(n)): 1 for i in range(n)})
    return f


def power_sum_product(rho, n):
    f = _integer_power_sum_product(tuple(rho), n)
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


def _from_msym_coords(coords, n):
    """The symmetric polynomial in n variables with the given
    monomial-symmetric coordinates: each one written on every distinct
    rearrangement of its partition, padded to n."""
    return ZPolynomial(n, {e: c for nu, c in coords.items() for e in distinct_permutations(pad(nu, n))})


def msym_vector(f, labels):
    """Monomial-symmetric coordinates of a symmetric polynomial at the
    given padded partitions, as a list (zero where f has no term)."""
    return [f.terms.get(rho, ExactScalar.zero()) for rho in labels]


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


@functools.cache
def _power_sum_basis(d):
    """{mu: {rho: c_rho}}, s_mu = sum_rho c_rho p_rho for every partition mu
    of d, the nonzero c_rho as Fractions: one solve per degree over integer
    msym coordinates in d variables, with the p_rho as basis, so every c_rho
    is constant.

    Only half the s_mu are built and solved for.  The involution omega
    takes s_mu to s_mu' and p_rho to eps_rho p_rho, with
    eps_rho = (-1)^{|rho| - l(rho)} (Macdonald I (2.13), (3.8)), so
    c_rho(mu') = eps_rho c_rho(mu).  The targets are the mu that come no
    earlier than mu' in the labels, which `partitions` yields in decreasing
    lexicographic order; those lie lower in dominance, where s_mu is
    small.  Each other row is its partner's row with the signs eps_rho."""
    labels = list(partitions(d, d))
    idx = {mu: i for i, mu in enumerate(labels)}
    conj = [idx[conjugate(mu)] for mu in labels]
    solved = [i for i in range(len(labels)) if i >= conj[i]]
    coords = [pad(p, d) for p in labels]
    ints = [_integer_power_sum_product(rho, d).terms for rho in labels]
    basis = [[ExactScalar.from_int(p.get(e, 0)) for e in coords] for p in ints]
    targets = [msym_vector(schur_bialternant(labels[i], d), coords) for i in solved]
    rows = {
        i: {rho: Fraction(c.num.const_value(), c.den.const_value()) for rho, c in zip(labels, sol) if c}
        for i, sol in zip(solved, _solve_scalar_system(basis, targets))
    }
    return {
        mu: rows[i] if i in rows else {rho: (-1) ** (d - len(rho)) * c for rho, c in rows[conj[i]].items()}
        for i, mu in enumerate(labels)
    }


def schur_power_sum_expansion(mu, n):
    """s_mu = sum_rho c_rho p_rho with exact rational c_rho.

    Valid (and unique) for n >= |mu|, where the c_rho do not depend on n;
    so they are a copy of the table of degree |mu| (_power_sum_basis).
    """
    mu = tuple(x for x in mu if x)
    d = sum(mu)
    if n < d:
        raise TooFewVariables(f"power-sum basis needs n >= {d}")
    if not is_partition(mu):
        raise NotAPartition(f"{mu} is not a partition")
    return dict(_power_sum_basis(d)[mu])


def t_schur_polynomial(mu, n):
    """S_mu(z;t): the Schur function with p_r rescaled to (1-t^r) p_r.

    The sum over rho runs in Z[t] on ints, scaled by the common denominator
    D of the power-sum expansion: each coefficient is a dict {b: int} of
    t-powers.  Each is then reduced against D by one integer gcd, which is
    its gcd with D in Z[q,t], so no polynomial gcd runs.

    Each p_rho is symmetric, and so is S_mu, so the sum runs over the
    dominant (non-increasing) exponents only, and each reduced coefficient
    is written on every distinct rearrangement of its exponent, as in
    schur_bialternant for n > |mu|.  The c_rho come from _power_sum_basis,
    which reads half of them off the other half by omega
    (Macdonald I (2.13), (3.8)).
    """
    mu = tuple(x for x in mu if x)
    if n < sum(mu):
        raise TooFewVariables(f"t-Schur construction needs n >= {sum(mu)}")
    expansion = schur_power_sum_expansion(mu, n)
    den = math.lcm(*(c.denominator for c in expansion.values()))
    num = {}
    for rho, c in expansion.items():
        factor = {0: c.numerator * (den // c.denominator)}
        for r in rho:
            # times (1 - t^r)
            shifted = dict(factor)
            for b, k in factor.items():
                shifted[b + r] = shifted.get(b + r, 0) - k
            factor = shifted
        for e, k in msym_coords(_integer_power_sum_product(rho, n), n).items():
            acc = num.setdefault(e, {})
            for b, v in factor.items():
                acc[b] = acc.get(b, 0) + k * v
    coords = {}
    for e, acc in num.items():
        terms = {(0, b): v for b, v in acc.items() if v}
        if terms:
            g = math.gcd(den, *terms.values())
            p = QTPolynomial._of({k: v // g for k, v in terms.items()})
            coords[e] = ExactScalar(p, QTPolynomial.const(den // g), _reduced=True)
    return _from_msym_coords(coords, n)
