"""Nonsymmetric and symmetric Macdonald polynomials and their bases.

The main construction is the box-adding creation recursion for the
integral form calE, iterated along the star chain; everything else
(eigen-oracle, t-monomials, partial symmetrizations, Hall-Littlewood
polynomials, t-Schur functions, Kostka matrices) hangs off it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import (
    IndexOutOfRange,
    NotInSpan,
    PreconditionViolated,
    TailNotPartition,
    TooFewVariables,
)
from .hecke import (
    _ONE_MINUS_T,
    _coset_chain_sum,
    _run_packed,
    _Widen,
    apply_delta,
    apply_hecke,
    apply_X_lambda,
    hecke_symmetrize,
)
from .qt import ExactScalar
from .symfunc import _from_msym_coords, _solve_scalar_system, msym_coords, msym_vector, t_schur_polynomial as t_schur
from .weights import (
    _require_partition,
    _transpose,
    b_factor,
    compositions,
    conjugate,
    is_partition,
    length,
    length_stat,
    norm_factor,
    order_leq,
    pad,
    partitions,
    spectral_vector,
    star_step,
    t_factorial,
    weight,
)
from .zpoly import ZPolynomial

# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


@dataclass
class BasisExpansion:
    """Coefficients of a polynomial in a labelled basis, with integrality flags."""

    basis: str
    labels: list
    coeffs: list
    m: int | None = None

    @property
    def integral(self):
        return [c.is_integral() for c in self.coeffs]

    def all_integral(self):
        return all(self.integral)

    def as_dict(self):
        return dict(zip(self.labels, self.coeffs))

    def to_json_dict(self):
        d = {
            "basis": self.basis,
            "labels": [list(l) for l in self.labels],
            "coeffs": [c.to_json() for c in self.coeffs],
            "integral": self.integral,
        }
        if self.m is not None:
            d["m"] = self.m
        return d


# ---------------------------------------------------------------------------
# the creation recursion
# ---------------------------------------------------------------------------


def nonsym_calE(lam):
    """Integral form calE_lam, built division-free along the star chain."""
    return _nonsym_calE(tuple(lam))


@functools.cache
def _nonsym_calE(lam):
    if any(x < 0 for x in lam):
        raise PreconditionViolated(f"composition {lam} has a negative part")
    if weight(lam) == 0:
        return ZPolynomial.one(len(lam))
    return apply_X_lambda(nonsym_calE(star_step(lam)), lam)


def nonsym_E(lam):
    """Monic nonsymmetric Macdonald polynomial E_lam = calE_lam / norm factor."""
    lam = tuple(lam)
    return nonsym_calE(lam).scalar_mul(norm_factor(lam, "nonsymmetric").inverse())


@functools.cache
def _xi_on_monomial(n, i, mu):
    """t^{n-1} xi_i z^mu by its word Hbar_{i-1}...Hbar_1 Delta^{-1} H_{n-1}...H_i
    in ExactScalar steps: the oracle shares no packed code with apply_xi.
    Delta^{-1} puts q^{mu_n} on z^mu and the H steps have coefficients in
    Z[t], so the result lies in Z[q,t]."""
    g = ZPolynomial.monomial(n, mu)
    for j in range(i, n):
        g = apply_hecke(g, j, "H")
    g = apply_delta(g, "inverse")
    for j in range(1, i):
        g = apply_hecke(g, j, "Hbar")
    return g


def _order_key(mu):
    """A key that strictly extends the order: mu < nu gives key(mu) <
    key(nu).  Dominance implies lex order on the sorted parts, and within
    one orbit a strict Bruhat step lengthens w_min(mu), whose length is
    length_stat(mu)."""
    return sorted(mu, reverse=True), -length_stat(mu)


def _span_below(lam):
    """Compositions mu <= lam of the same weight, in a linear extension of
    the order (decreasing: every element precedes everything below it),
    sorted by _order_key.
    """
    lam = tuple(lam)
    members = [
        mu
        for mu in compositions(weight(lam), len(lam))
        if mu == lam or order_leq(mu, lam) == "less"
    ]
    return sorted(
        members,
        key=_order_key,
        reverse=True,
    )


def eigen_oracle_E(lam):
    """Independent construction of E_lam from the joint eigenvector equations.

    Solves xi_i(E) = lambda-bar_i E coefficient by coefficient in a linear
    extension of the support order, using triangularity of the xi_i.

    The solve is seeded with d_lam (the norm factor) at lam, so it solves
    for calE_lam = d_lam E_lam, whose coefficients lie in Z[q,t] by Knop's
    integrality theorem.  It reads the integral t^{n-1} xi_i off
    _xi_on_monomial, so each sum it forms lies in Z[q,t], and divides it
    by t^{n-1} times the eigenvalue gap, a binomial in Z[q,t] (each
    spectral t-exponent is at least 1 - n).  Each division is one exact
    division of the numerators (ExactScalar's /), which falls back to
    Q(q,t) where it does not divide.  It divides by d_lam once, at the end.
    """
    lam = tuple(lam)
    n = len(lam)
    span = _span_below(lam)
    lam_spec = spectral_vector(lam).exponents
    d = norm_factor(lam, "nonsymmetric")
    coeffs = {lam: d}
    for mu in span:
        if mu == lam:
            continue
        mu_spec = spectral_vector(mu).exponents
        # the q-exponents are the parts: some differ, and the gap is nonzero
        i = next(j + 1 for j in range(n) if mu_spec[j] != lam_spec[j])
        acc = ExactScalar.zero()
        for nu, c in coeffs.items():
            entry = _xi_on_monomial(n, i, nu).coeff(mu)
            if entry is not None and nu != mu:
                acc = acc + entry * c
        (a, b), (a_mu, b_mu) = lam_spec[i - 1], mu_spec[i - 1]
        gap = ExactScalar.qt_monomial(a, b + n - 1) - ExactScalar.qt_monomial(a_mu, b_mu + n - 1)
        c_mu = acc / gap
        if c_mu:
            coeffs[mu] = c_mu
    return ZPolynomial(n, coeffs).scalar_mul(d.inverse())


def haction_step(e_swapped, lam, i):
    """Recover E_lam from E_{s_i(lam)} when lam_i > lam_{i+1}.

    x E_lam = [x H_i + 1 - t] E_{s_i(lam)} with x = 1 - lbar_i / lbar_{i+1}.
    """
    lam = tuple(lam)
    if not 1 <= i <= len(lam) - 1:
        raise IndexOutOfRange(f"index {i} out of range")
    if lam[i - 1] <= lam[i]:
        raise PreconditionViolated("needs lam_i > lam_{i+1}")
    sv = spectral_vector(lam)
    x = ExactScalar.one() - sv.scalar(i) / sv.scalar(i + 1)
    rhs = apply_hecke(e_swapped, i, "H").scalar_mul(x) + e_swapped.scalar_mul(_ONE_MINUS_T)
    return rhs.scalar_mul(x.inverse())


# ---------------------------------------------------------------------------
# t-monomials
# ---------------------------------------------------------------------------


def t_monomial(lam):
    """The Hecke-twisted monomial: the Hbar-word of the shortest sorting
    permutation applied to the antidominant monomial."""
    return _t_monomial(tuple(lam))


@functools.cache
def _t_monomial(lam):
    n = len(lam)
    desc = next((i for i in range(1, n) if lam[i - 1] > lam[i]), None)
    if desc is None:
        return ZPolynomial.monomial(n, lam)
    return apply_hecke(t_monomial(_transpose(lam, desc)), desc, "Hbar")


def t_monomial_hecke_action(lam, i, variant="H"):
    """The one- or two-term case table for H_i / Hbar_i on a t-monomial."""
    lam = tuple(lam)
    swapped = _transpose(lam, i)
    t = ExactScalar.t()
    one = ExactScalar.one()
    a, b = lam[i - 1], lam[i]
    if variant == "H":
        if a >= b:
            labels, coeffs = [swapped], [t]
        else:
            labels, coeffs = [swapped, lam], [one, t - one]
    elif variant == "Hbar":
        if a > b:
            labels, coeffs = [swapped, lam], [t, one - t]
        else:
            labels, coeffs = [swapped], [one]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BasisExpansion("t_monomial", labels, coeffs)


def t_monomial_partial(lam, m, augmented=False):
    """Partially symmetric t-monomial over the tail beyond position m: the
    sum of t^L(nu) t_monomial(head + nu) over the distinct rearrangements
    nu of the tail, which must be a partition.  It is one Hecke symmetrizer
    on positions m+1, ..., n, (sum_{w in S_{n-m}} H_w) t_monomial(head +
    rev(tail)) / prod_{i>=0} [m_i(tail)]_t!, which at m = 0 is P_lam
    (Macdonald, SFHP III (2.2)).  The coset chain skips the zeros, which
    rev(tail) puts first, so only repeated nonzero parts divide.  The
    augmented form is b_tail = (1-t)^l(tail) prod_{i>=1} [m_i(tail)]_t!
    times it: (1-t)^l(tail) times the chain sum (III (2.11)).
    """
    lam = tuple(lam)
    n = len(lam)
    if not 0 <= m <= n:
        raise IndexOutOfRange(f"m={m} out of range")
    head, tail = lam[:m], lam[m:]
    if not is_partition(tail):
        raise TailNotPartition(f"tail {tail} is not a partition")
    total = _coset_chain_sum(t_monomial(head + tail[::-1]), apply_hecke, tail.count(0), m)
    if augmented:
        return total.scalar_mul(_ONE_MINUS_T ** length(tail))
    parts = set(tail) - {0}
    if len(parts) == length(tail):
        return total
    divisor = math.prod((t_factorial(tail.count(x)) for x in parts), start=ExactScalar.one()).num
    return ZPolynomial(n, {e: ExactScalar.from_poly(c.num.exact_divide(divisor)) for e, c in total.terms.items()})


# ---------------------------------------------------------------------------
# expansions in t-monomial bases
# ---------------------------------------------------------------------------


def _peel(f, element):
    """Coefficients {mu: c} of f in a basis whose element(mu) is z^mu plus
    monomials below mu, with coefficients in Z[t]: peel off c * element(mu)
    for a maximal monomial mu of the remainder.  Every leading coefficient
    is 1, so nothing divides.

    The scan for mu passes over the remainder and moves mu to nu wherever
    mu < nu.  It calls order_leq(mu, nu) only where _order_key(nu) exceeds
    mu's key: the key strictly extends the order, so mu < nu needs that,
    and the scan picks what a test of every nu would.  The keys are
    memoized per exponent for the word.

    The peel is Q(q,t)-linear in f, so it runs as one word of
    hecke._run_packed: on L f over Z[q,t], with each coefficient one
    Kronecker-packed int, and the runner divides the coefficients by L.
    Each coefficient of element(mu) has a few terms, so c times its image
    is a sum of shifted copies of c (Kronecker.pack_times), with no product
    of c by a many-digit int; it is the same int as that product.

    The digits must fit, and the word's running bound S sees to it.  It
    starts from the runner's bound, L1(L f) here (no Hecke step), with L1
    the sum of the absolute values of all integer coefficients, and each
    step adds L1(c) L1(element(mu)).  The digits of a product c e are
    bounded by L1(c) L1(e), so every digit of the remainder, and of each
    coefficient c read off it, is at most S.  The word raises _Widen(S)
    before a step that would take S to 2^(B-1), so every zero test and
    every digit it reads is exact; the elements lie in Z[t], so the
    q-degree never passes deg_q(L f).  The rerun repeats the same steps
    with the same S, under B larger by at least 64 bits, so it passes the
    step that raised.
    """

    def word(rem, codec, bound):
        coeffs = {}
        key = functools.cache(_order_key)
        while rem:
            support = iter(rem)
            mu = next(support)
            top_key = key(mu)
            for nu in support:
                nu_key = key(nu)
                if nu_key > top_key and order_leq(mu, nu) == "less":
                    mu, top_key = nu, nu_key
            if any(x < 0 for x in mu):
                raise NotInSpan("Laurent support cannot be expanded in t-monomials")
            terms = element(mu).terms
            c = coeffs[mu] = rem[mu]
            bound += codec.unpack(c).num.norm1() * sum(e.num.norm1() for e in terms.values())
            if not codec.holds(bound):
                raise _Widen(bound)
            for nu, e in terms.items():
                s = rem.get(nu, 0) - codec.pack_times(e.num, c)
                if s:
                    rem[nu] = s
                else:
                    del rem[nu]
        return coeffs

    return _run_packed(f, word, 0, 0, 0).terms


def expand_in_t_monomials(f):
    """Exact expansion {mu: coefficient} of f in the full t-monomial basis,
    peeled greedily: t_monomial(mu) is z^mu plus monomials below mu."""
    return _peel(f, t_monomial)


def expand_in_partial_t_monomials(f, m, augmented=True):
    """Expansion in (augmented) partially symmetric t-monomials.

    Peels f in the plain level-m basis, which is unitriangular: every
    rearrangement head + nu of a partition tail lies below head + tail.
    A maximal remainder monomial without a partition tail is outside the
    span.  Augmented coefficients are divided by the tail's b-factor, an
    exact division of the numerators wherever it divides (ExactScalar's /).
    The labels come in lexicographic order.
    """
    if not 0 <= m <= f.n:
        raise IndexOutOfRange(f"m={m} out of range")

    def element(mu):
        if not is_partition(mu[m:]):
            raise NotInSpan("nonzero residual outside the partial t-monomial span")
        return t_monomial_partial(mu, m)

    coeffs = _peel(f, element)
    labels = sorted(coeffs)
    values = [coeffs[mu] / b_factor(mu[m:]) if augmented else coeffs[mu] for mu in labels]
    basis_tag = f"t_monomial_{'augmented' if augmented else 'partial'}"
    return BasisExpansion(basis_tag, labels, values, m=m)


# ---------------------------------------------------------------------------
# the symmetric theory
# ---------------------------------------------------------------------------


def _rotated_seed(lam, form):
    """Each term of form(lam0), lam0 = (lam_m - 1, ..., lam_1 - 1, 0, ..., 0),
    rotated m times by Phi_1, as (exponent, coefficient, moved weight):
    z^e goes to z^(e_{m+1}, ..., e_n, e_1 + 1, ..., e_m + 1), onto the
    antidominant (0, ..., 0, lam_m, ..., lam_1), and the moved weight is
    e_1 + ... + e_m.  The seeds of calJ_lam and of the Jack calJ_lam(alpha).
    """
    n, m = len(lam), length(lam)
    lam0 = tuple(x - 1 for x in reversed(lam[:m])) + (0,) * (n - m)
    for e, c in form(lam0).terms.items():
        yield e[m:] + tuple(x + 1 for x in e[:m]), c, sum(e[:m])


def _calJ_seed(lam):
    """The calE seed that sym_calJ symmetrizes: Phi^m calE_lam0 times
    q^{|lam| - m}, where Phi^m z^e = q^{-(e_1 + ... + e_m)} times the
    Phi_1 rotation of z^e (_rotated_seed).

    Its n - m leading variables carry the zero parts, and it is
    t-symmetric in them: H_i seed = t seed for i < n - m.
    """
    shift = weight(lam) - length(lam)
    terms = _rotated_seed(lam, nonsym_calE)
    return ZPolynomial(len(lam), {e: c * ExactScalar.q(shift - moved) for e, c, moved in terms})


def sym_calJ(lam):
    """Integral form calJ_lam = (1-t)^m sum_w H_w(seed) / [n-m]_t!.

    The sum over w in S_n runs over the minimal coset representatives of
    the seed's S_{n-m} stabilizer only (hecke_symmetrize with
    t_symmetric_in = n - m), so the [n-m]_t! is never multiplied in and
    never divided out.

    The seed is integral: calE_lam0 is, and it is homogeneous of degree
    |lam| - m, so no power of q in _calJ_seed is negative.  So the
    symmetrizer's sums and products run no gcd.  calJ_lam is symmetric, a
    combination of the monomial symmetric m_mu (Macdonald I §2), so the
    closing (1-t)^m multiplies its msym coordinates only, and each product
    is written on every distinct rearrangement of its exponent.
    """
    lam = tuple(lam)
    _require_partition(lam)
    n, m = len(lam), length(lam)
    factor = _ONE_MINUS_T**m
    coords = msym_coords(hecke_symmetrize(_calJ_seed(lam), n - m))
    return _from_msym_coords({nu: c * factor for nu, c in coords.items()}, n)


def sym_J(lam):
    """Monic symmetric Macdonald polynomial J_lam."""
    lam = tuple(lam)
    return sym_calJ(lam).scalar_mul(norm_factor(lam, "symmetric").inverse())


def hall_littlewood(lam, kind="P", n=None):
    """Hall-Littlewood P (plain) or Q = b_lam P (augmented) in n variables
    (default len(lam)), zero parts beyond n dropped: the level-0 partial
    t-monomials, sum_w H_w z^rev(lam) / prod_{i>=0} [m_i(lam)]_t! for P
    (Macdonald, SFHP III (2.2), (2.11))."""
    lam = tuple(lam)
    if n is None:
        n = len(lam)
    _require_partition(lam)
    if length(lam) > n:
        raise TooFewVariables(f"{lam} needs more than {n} variables")
    lam = pad(lam[:n], n)
    if kind == "P":
        return t_monomial_partial(lam, 0, augmented=False)
    if kind == "Q":
        return t_monomial_partial(lam, 0, augmented=True)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Kostka matrices
# ---------------------------------------------------------------------------


@dataclass
class KostkaMatrix:
    """Transition matrix from calJ to the t-Schur basis, rows lam, columns mu."""

    degree: int
    n: int
    labels: list
    entries: list = field(default_factory=list)

    @property
    def integral(self):
        return [[c.is_integral() for c in row] for row in self.entries]

    def all_integral(self):
        return all(all(r) for r in self.integral)

    def entry(self, lam, mu):
        return self.entries[self.labels.index(tuple(lam))][self.labels.index(tuple(mu))]

    def specialize(self, qv=None, tv=None):
        out = KostkaMatrix(self.degree, self.n, list(self.labels))
        out.entries = [[c.specialize(qv, tv) for c in row] for row in self.entries]
        return out

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "n": self.n,
            "labels": [list(l) for l in self.labels],
            "entries": [[c.to_json() for c in row] for row in self.entries],
            "integral": self.integral,
        }


def kostka_matrix(degree, n):
    """Two-variable Kostka matrix for all partitions of `degree` in n variables:
    row lam holds the coordinates of calJ_lam in the t-Schur basis, in
    monomial-symmetric coordinates.

    Only half the rows are solved for.  K_lam,mu(q,t) = K_lam',mu'(t,q)
    (Macdonald, SFHP VI (8.15)), so calJ_lam is built, and its row solved
    (all in one solve), only for the lam that come no earlier than lam' in
    the labels, which `partitions` yields in decreasing lexicographic
    order; those lie lower in dominance, where calJ is cheap.  Each other
    row is its partner's row with q and t swapped and the columns read
    at mu'.

    calJ_lam and S_mu are stable under z_{n+1} = 0, and for n >= degree
    the S_mu are linearly independent (Macdonald, SFHP VI (8.11)), so the
    matrix in n > degree variables is the one in degree variables with its
    labels padded."""
    if n < degree:
        raise TooFewVariables("Kostka computation needs n >= degree")
    if n > degree:
        km = kostka_matrix(degree, degree)
        return KostkaMatrix(degree, n, [pad(lam, n) for lam in km.labels], km.entries)
    labels = [pad(p, n) for p in partitions(degree, n)]
    idx = {lam: i for i, lam in enumerate(labels)}
    conj = [idx[pad(conjugate(lam), n)] for lam in labels]
    solved = [i for i in range(len(labels)) if i >= conj[i]]
    basis = [msym_vector(t_schur(mu, n), labels) for mu in labels]
    targets = [msym_vector(sym_calJ(labels[i]), labels) for i in solved]
    rows = dict(zip(solved, _solve_scalar_system(basis, targets)))
    entries = [
        rows[i] if i in rows else [rows[conj[i]][j].swap_qt() for j in conj]
        for i in range(len(labels))
    ]
    return KostkaMatrix(degree, n, labels, entries)
