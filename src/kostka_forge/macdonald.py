"""Nonsymmetric and symmetric Macdonald polynomials and their bases.

The main construction is the box-adding creation recursion for the
integral form calE, iterated along the star chain; everything else
(eigen-oracle, t-monomials, partial symmetrizations, Hall-Littlewood
polynomials, t-Schur functions, Kostka matrices) hangs off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    IndexOutOfRange,
    NotAPartition,
    NotInSpan,
    PreconditionViolated,
    SingularSystem,
    TailNotPartition,
    TooFewVariables,
)
from .hecke import (
    _ONE_MINUS_T,
    apply_hecke,
    apply_X_lambda,
    apply_xi,
    hecke_symmetrize,
)
from .qt import ExactScalar
from .symfunc import _solve_scalar_system, msym_vector, t_schur_polynomial as t_schur
from .weights import (
    b_factor,
    compositions,
    is_partition,
    length,
    length_stat,
    distinct_permutations,
    norm_factor,
    order_leq,
    pad,
    partitions,
    spectral_vector,
    star_step,
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

    def sort(self):
        order = sorted(range(len(self.labels)), key=lambda i: self.labels[i])
        self.labels = [self.labels[i] for i in order]
        self.coeffs = [self.coeffs[i] for i in order]
        return self


# ---------------------------------------------------------------------------
# the creation recursion
# ---------------------------------------------------------------------------

_CALE_CACHE = {}
_TMONO_CACHE = {}
_XI_MONO_CACHE = {}


def nonsym_calE(lam):
    """Integral form calE_lam, built division-free along the star chain."""
    lam = tuple(lam)
    key = lam
    cached = _CALE_CACHE.get(key)
    if cached is not None:
        return cached
    if weight(lam) == 0:
        out = ZPolynomial.one(len(lam))
    else:
        out = apply_X_lambda(nonsym_calE(star_step(lam)), lam)
    _CALE_CACHE.setdefault(key, out)
    return out


def nonsym_E(lam):
    """Monic nonsymmetric Macdonald polynomial E_lam = calE_lam / norm factor."""
    lam = tuple(lam)
    return nonsym_calE(lam).scalar_mul(norm_factor(lam, "nonsymmetric").inverse())


def _xi_on_monomial(n, i, mu):
    key = (n, i, mu)
    out = _XI_MONO_CACHE.get(key)
    if out is None:
        out = apply_xi(ZPolynomial.monomial(n, mu), i, "forward")
        _XI_MONO_CACHE.setdefault(key, out)
    return out


def _span_below(lam):
    """Compositions mu <= lam of the same weight, in a linear extension of
    the order (decreasing: every element precedes everything below it).

    The key extends the order: dominance implies lex order on the sorted
    parts, and within one orbit a strict Bruhat step lengthens w_min(mu),
    whose length is length_stat(mu).
    """
    lam = tuple(lam)
    members = [
        mu
        for mu in compositions(weight(lam), len(lam))
        if mu == lam or order_leq(mu, lam) == "less"
    ]
    return sorted(
        members,
        key=lambda mu: (sorted(mu, reverse=True), -length_stat(mu)),
        reverse=True,
    )


def eigen_oracle_E(lam):
    """Independent construction of E_lam from the joint eigenvector equations.

    Solves xi_i(E) = lambda-bar_i E coefficient by coefficient in a linear
    extension of the support order, using triangularity of the xi_i.
    """
    lam = tuple(lam)
    n = len(lam)
    span = _span_below(lam)
    lam_spec = spectral_vector(lam).exponents
    coeffs = {lam: ExactScalar.one()}
    for mu in span:
        if mu == lam:
            continue
        mu_spec = spectral_vector(mu).exponents
        i = next(
            (j + 1 for j in range(n) if mu_spec[j] != lam_spec[j]),
            None,
        )
        if i is None:  # pragma: no cover - spectral vectors are injective
            raise SingularSystem(f"equal spectral vectors for {mu} and {lam}")
        acc = ExactScalar.zero()
        for nu, c in coeffs.items():
            entry = _xi_on_monomial(n, i, nu).coeff(mu)
            if entry is not None and nu != mu:
                acc = acc + entry * c
        denom = ExactScalar.qt_monomial(*mu_spec[i - 1]) - ExactScalar.qt_monomial(
            *lam_spec[i - 1]
        )
        if not denom:  # pragma: no cover
            raise SingularSystem("vanishing eigenvalue gap")
        c_mu = -(acc / denom)
        if c_mu:
            coeffs[mu] = c_mu
    return ZPolynomial(n, coeffs)


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
    lam = tuple(lam)
    cached = _TMONO_CACHE.get(lam)
    if cached is not None:
        return cached
    n = len(lam)
    desc = next((i for i in range(n - 1) if lam[i] > lam[i + 1]), None)
    if desc is None:
        out = ZPolynomial.monomial(n, lam)
    else:
        swapped = list(lam)
        swapped[desc], swapped[desc + 1] = swapped[desc + 1], swapped[desc]
        out = apply_hecke(t_monomial(tuple(swapped)), desc + 1, "Hbar")
    _TMONO_CACHE.setdefault(lam, out)
    return out


def t_monomial_hecke_action(lam, i, variant="H"):
    """The one- or two-term case table for H_i / Hbar_i on a t-monomial."""
    lam = tuple(lam)
    if not 1 <= i <= len(lam) - 1:
        raise IndexOutOfRange(f"index {i} out of range")
    swapped = list(lam)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    swapped = tuple(swapped)
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
    """Partially symmetric t-monomial over the tail beyond position m.

    The tail must be a partition; the sum runs over its distinct
    rearrangements weighted by t^L; the augmented version multiplies by
    the b-factor of the tail.
    """
    lam = tuple(lam)
    n = len(lam)
    if not 0 <= m <= n:
        raise IndexOutOfRange(f"m={m} out of range")
    head, tail = lam[:m], lam[m:]
    if not is_partition(tail):
        raise TailNotPartition(f"tail {tail} is not a partition")
    out = ZPolynomial.zero(n)
    for mu in distinct_permutations(tail):
        out = out + t_monomial(head + mu).scalar_mul(ExactScalar.t(length_stat(mu)))
    if augmented:
        out = out.scalar_mul(b_factor(tail))
    return out


# ---------------------------------------------------------------------------
# expansions in t-monomial bases
# ---------------------------------------------------------------------------


def _peel(f, element):
    """Coefficients {mu: c} of f in a basis whose element(mu) is z^mu plus
    monomials below mu: peel off c * element(mu) for a maximal monomial mu
    of the remainder.  Every leading coefficient is 1, so nothing divides."""
    coeffs = {}
    rem = f
    while rem:
        support = iter(rem.terms)
        mu = next(support)
        for nu in support:
            if order_leq(mu, nu) == "less":
                mu = nu
        if any(x < 0 for x in mu):
            raise NotInSpan("Laurent support cannot be expanded in t-monomials")
        c = rem.terms[mu]
        coeffs[mu] = c
        rem = rem - element(mu).scalar_mul(c)
    return coeffs


def expand_in_t_monomials(f):
    """Exact expansion {mu: coefficient} of f in the full t-monomial basis,
    peeled greedily: t_monomial(mu) is z^mu plus monomials below mu."""
    return _peel(f, t_monomial)


def expand_in_partial_t_monomials(f, m, augmented=True):
    """Expansion in (augmented) partially symmetric t-monomials.

    Peels f in the plain level-m basis, which is unitriangular: every
    rearrangement head + nu of a partition tail lies below head + tail.
    A maximal remainder monomial without a partition tail is outside the
    span.  Augmented coefficients are divided by the tail's b-factor.
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


def _calJ_seed(lam):
    """The calE seed that sym_calJ symmetrizes: calE_lam0 for
    lam0 = (lam_m - 1, ..., lam_1 - 1, 0, ..., 0), rotated m times by Phi
    onto the antidominant (0, ..., 0, lam_m, ..., lam_1), times q^{|lam| - m}:
    Phi^m z^e = q^{-(e_1 + ... + e_m)} z^(e_{m+1}, ..., e_n, e_1 + 1, ..., e_m + 1).

    Its n - m leading variables carry the zero parts, and it is
    t-symmetric in them: H_i seed = t seed for i < n - m.
    """
    n = len(lam)
    m = length(lam)
    lam0 = tuple(lam[i] - 1 for i in range(m - 1, -1, -1)) + (0,) * (n - m)
    shift = weight(lam) - m
    out = {}
    for e, c in nonsym_calE(lam0).terms.items():
        out[e[m:] + tuple(x + 1 for x in e[:m])] = c * ExactScalar.q(shift - sum(e[:m]))
    return ZPolynomial(n, out)


def sym_calJ(lam):
    """Integral form calJ_lam = (1-t)^m sum_w H_w(seed) / [n-m]_t!.

    The sum over w in S_n runs over the minimal coset representatives of
    the seed's S_{n-m} stabilizer only (hecke_symmetrize with
    t_symmetric_in = n - m), so the [n-m]_t! is never multiplied in and
    never divided out.
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise NotAPartition(f"{lam} is not a partition")
    m = length(lam)
    total = hecke_symmetrize(_calJ_seed(lam), len(lam) - m)
    return total.scalar_mul(_ONE_MINUS_T**m)


def sym_J(lam):
    """Monic symmetric Macdonald polynomial J_lam."""
    lam = tuple(lam)
    return sym_calJ(lam).scalar_mul(norm_factor(lam, "symmetric").inverse())


def hall_littlewood(lam, kind="P", n=None):
    """Hall-Littlewood P (plain) or Q (augmented) as full t-symmetrizations
    in n variables (default len(lam)); zero parts beyond n are dropped."""
    lam = tuple(lam)
    if n is None:
        n = len(lam)
    if not is_partition(lam):
        raise NotAPartition(f"{lam} is not a partition")
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
    row lam holds the coordinates of calJ_lam in the t-Schur basis, solved
    for every row at once in monomial-symmetric coordinates."""
    if n < degree:
        raise TooFewVariables("Kostka computation needs n >= degree")
    labels = sorted((pad(p, n) for p in partitions(degree, n)), reverse=True)
    basis = [msym_vector(t_schur(mu, n), labels) for mu in labels]
    targets = [msym_vector(sym_calJ(lam), labels) for lam in labels]
    return KostkaMatrix(degree, n, labels, _solve_scalar_system(basis, targets))
