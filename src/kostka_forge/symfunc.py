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
from .weights import conjugate, distinct_permutations, is_partition, length, pad, partitions
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
    when mu+delta has a repeated entry.  Zero parts beyond n are dropped.

    For a partition mu in n > d = |mu| variables it is built in d
    variables only: s_mu = sum_nu K_mu,nu m_nu (Macdonald I §6) and its
    msym coordinates K_mu,nu do not depend on the number of variables, so
    each one is written on every distinct rearrangement of nu padded to n.
    """
    mu = tuple(mu)
    if length(mu) > n:
        raise TooFewVariables(f"{mu} needs more than {n} variables")
    mu = pad(mu[:n], n)
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
    """p_r = z_1^r + ... + z_n^r, so p_0 = n."""
    if r == 0:
        return ZPolynomial.monomial(n, (0,) * n, ExactScalar.from_int(n))
    return ZPolynomial(n, {tuple(r if j == i else 0 for j in range(n)): ExactScalar.one() for i in range(n)})


def power_sum_product(rho, n):
    return math.prod((power_sum(r, n) for r in rho), start=ZPolynomial.one(n))


@functools.cache
def _power_sum_coefficient(rho, kappa):
    """The coefficient of z^kappa in p_rho (rho, kappa partitions of one
    weight, no zero parts): the ways to send each part of rho to a position
    of kappa so that each position's parts sum to its entry.  What is left
    of kappa is kept sorted and without zeros: the count is symmetric."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for i, k in enumerate(kappa):
        if k >= r:
            left = sorted((*kappa[:i], k - r, *kappa[i + 1:]), reverse=True)
            total += _power_sum_coefficient(rest, tuple(x for x in left if x))
    return total


def msym_coords(f, n):
    """Monomial-symmetric coordinates of a symmetric polynomial.

    Keys are padded partitions; the coordinate on m_rho is the coefficient
    of the dominant monomial z^rho.
    """
    return {e: c for e, c in f.terms.items() if is_partition(e)}


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
    """Coordinates of each target vector in the basis vectors, over Q(q,t)
    or Q: one Gauss-Jordan elimination on [A | B], where A's columns are
    the basis vectors and B's the targets.  A is square: there are as many
    basis vectors as coordinates.  Returns one row per target."""
    size = len(basis)
    m = [list(row) for row in zip(*basis, *targets)]
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            raise SingularSystem("singular coefficient matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col] ** -1
        m[col] = [x * inv for x in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [[m[r][size + k] for r in range(size)] for k in range(len(targets))]


@functools.cache
def _power_sum_basis(d):
    """{mu: {rho: c_rho}}, s_mu = sum_rho c_rho p_rho for every partition mu
    of d, the nonzero c_rho as Fractions: one solve per degree over Q, with
    the counted msym coordinates of the p_rho (_power_sum_coefficient) as
    basis and the Kostka numbers of the s_mu as targets.

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
    basis = [[Fraction(_power_sum_coefficient(rho, kappa)) for kappa in labels] for rho in labels]
    targets = [
        [Fraction(c.num.const_value()) for c in msym_vector(schur_bialternant(labels[i], d), coords)] for i in solved
    ]
    rows = {
        i: {rho: c for rho, c in zip(labels, sol) if c} for i, sol in zip(solved, _solve_scalar_system(basis, targets))
    }
    return {
        mu: rows[i] if i in rows else {rho: (-1) ** (d - len(rho)) * c for rho, c in rows[conj[i]].items()}
        for i, mu in enumerate(labels)
    }


def schur_power_sum_expansion(mu, n):
    """s_mu = sum_rho c_rho p_rho with exact rational c_rho.

    Valid (and unique) for n >= |mu|, where the c_rho do not depend on n;
    so they are a copy of the table of degree |mu| (_power_sum_basis).
    Trailing zeros of mu are dropped; other zeros make it no partition.
    """
    mu = tuple(mu)
    d = sum(mu)
    if n < d:
        raise TooFewVariables(f"power-sum basis needs n >= {d}")
    if not is_partition(mu):
        raise NotAPartition(f"{mu} is not a partition")
    return dict(_power_sum_basis(d)[mu[: length(mu)]])


def t_schur_polynomial(mu, n):
    """S_mu(z;t): the Schur function with p_r rescaled to (1-t^r) p_r.

    S_mu has coefficients in Z[t] (Macdonald III §4, a determinant in the
    q_r(z;t)).  So with D the common denominator of the c_rho, its msym
    coordinate at a partition kappa of |mu| with at most n parts is the sum
    over rho of the count of z^kappa in p_rho (_power_sum_coefficient)
    times D c_rho prod_i (1 - t^rho_i), divided exactly by D once.

    The coordinates do not depend on n; each is written on every distinct
    rearrangement of kappa padded to n, as in schur_bialternant for
    n > |mu|.  The c_rho come from _power_sum_basis, which reads half of
    them off the other half by omega (Macdonald I (2.13), (3.8)).
    """
    mu = tuple(mu)
    expansion = schur_power_sum_expansion(mu, n)
    d = sum(mu)
    den = math.lcm(*(c.denominator for c in expansion.values()))
    factors = {
        rho: math.prod((QTPolynomial.one() - QTPolynomial.t(r) for r in rho), start=QTPolynomial.const(c * den))
        for rho, c in expansion.items()
    }
    coords = {}
    for kappa in partitions(d, n):
        num = sum((f.scale(_power_sum_coefficient(rho, kappa)) for rho, f in factors.items()), QTPolynomial.zero())
        if num:
            coords[kappa] = ExactScalar.from_poly(num.exact_divide(QTPolynomial.const(den)))
    return _from_msym_coords(coords, n)
