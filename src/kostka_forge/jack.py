"""Jack-polynomial degeneration: the t -> 1 limit of the q,t theory.

Polynomials here are ZPolynomial instances whose coefficients are
AlphaPolynomial values (the class is duck-typed over its coefficient
ring).  The creation recursion degenerates to a sum of permutation
words ending in Phi_1 = z_n s_{n-1} ... s_1, so no Hecke arithmetic
survives the limit.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import NotInSpan
from .hecke import _coset_chain_sum, apply_phi, apply_reflection
from .macdonald import _rotated_seed, nonsym_calE
from .weights import (
    _require_partition,
    distinct_permutations,
    is_partition,
    length,
    multiplicity,
    spectral_vector,
    star_step,
    weight,
)
from .zpoly import AlphaPolynomial, ZPolynomial, _float_monomial_sum


def _alpha_one(n):
    return ZPolynomial(n, {(0,) * n: AlphaPolynomial.one()})


def _creation_step(f, lam):
    """The limiting creation operator applied to f = calE_{lam*}(alpha).

    Sum over i of s_m ... (omit s_i) ... s_{n-1} Phi_1, plus
    (alpha*lam_m - k + m) times the full word s_m ... s_{n-1} Phi_1, with
    (lam_m, -k) the m-th entry of the spectral vector: the t -> 1 limit
    of (lambda-bar_m t^m - 1)/(t - 1), where lambda-bar_m t^m =
    q^{lam_m} t^{m-k} and q = t^alpha (Knop; Macdonald, SFHP VI §10).
    """
    lam = tuple(lam)
    n = len(lam)
    m = length(lam)
    a, minus_k = spectral_vector(lam).exponents[m - 1]
    g = apply_phi(f, "Phi_one")
    total = ZPolynomial.zero(n)
    # one chain: with g = s_{j+1} ... s_{n-1} Phi_1 f, the words from s_j on
    # that leave out one s_i are g and s_j of those from s_{j+1} on
    for j in range(n - 1, m - 1, -1):
        total = g + apply_reflection(total, j)
        g = apply_reflection(g, j)
    return total + g.scalar_mul(AlphaPolynomial((m + minus_k, a)))


def jack_nonsym(lam):
    """Nonsymmetric Jack polynomial calE_lam(z; alpha) (integral form)."""
    return _jack_nonsym(tuple(lam))


@functools.cache
def _jack_nonsym(lam):
    if weight(lam) == 0:
        return _alpha_one(len(lam))
    return _creation_step(jack_nonsym(star_step(lam)), lam)


def _jack_seed(lam):
    """The seed that jack_sym symmetrizes: jack_nonsym of lam0 rotated m
    times by Phi_1, the rotation of macdonald's seed (_rotated_seed).

    Its n - m leading variables carry the zero parts, and it is symmetric
    in them: s_i seed = seed for i < n - m.
    """
    return ZPolynomial(len(lam), {e: c for e, c, _ in _rotated_seed(lam, jack_nonsym)})


def jack_sym(lam):
    """Symmetric Jack polynomial calJ_lam(z; alpha) (integral form).

    The plain sum of w(seed) over S_n, divided by (n-m)!, the order of
    the seed's stabilizer.  The sum runs over the minimal coset
    representatives of that stabilizer only, so the (n-m)! is never
    multiplied in and never divided out.
    """
    lam = tuple(lam)
    _require_partition(lam)
    return _coset_chain_sum(_jack_seed(lam), apply_reflection, len(lam) - length(lam))


def u_factor(mu):
    """u_mu = product over part sizes i >= 1 of m_i(mu)!."""
    out = 1
    for i in set(x for x in mu if x >= 1):
        out *= math.factorial(multiplicity(mu, i))
    return out


def limit_basis_element(mu, m):
    """The t -> 1 limit of the augmented partial t-monomial: u_{mu''}
    times the sum of monomials over distinct rearrangements of the tail."""
    mu = tuple(mu)
    n = len(mu)
    head, tail = mu[:m], mu[m:]
    if not is_partition(tail):
        raise NotInSpan(f"tail {tail} is not a partition")
    u = AlphaPolynomial.const(u_factor(tail))
    return ZPolynomial(n, {head + nu: u for nu in distinct_permutations(tail)})


def expand_in_limit_basis(f, m):
    """Expansion of an alpha-polynomial in the limit basis at level m.

    The basis elements have disjoint supports, the rearrangements of one
    partition tail behind a fixed head, with coefficient u on each.  So f
    is in the span iff every term whose tail is a partition has its
    coefficient on each rearrangement of that tail, and f has no other
    terms; otherwise NotInSpan is raised.
    """
    labels, coeffs = [], []
    covered = 0
    for mu, c in sorted(f.terms.items()):
        head, tail = mu[:m], mu[m:]
        if not is_partition(tail):
            continue
        for nu in distinct_permutations(tail):
            if f.terms.get(head + nu) != c:
                raise NotInSpan("nonzero residual outside the limit-basis span")
            covered += 1
        labels.append(mu)
        coeffs.append(c.scale(Fraction(1, u_factor(tail))))
    if covered != len(f.terms):
        raise NotInSpan("nonzero residual outside the limit-basis span")
    return list(zip(labels, coeffs))


def positivity_report(expansion, alphas=(0, 1, 2)):
    """For each coefficient: natural-coefficient flag and integrality of
    its values at the given alpha sample points."""
    report = []
    for label, c in expansion:
        values = [c.evaluate(a) for a in alphas]
        report.append(
            {
                "label": label,
                "natural": c.is_natural(),
                "integer_values": all(v.denominator == 1 and v >= 0 for v in values),
            }
        )
    return report


def _default_grid(n):
    """Small fixed evaluation grid, deterministic across runs."""
    return [tuple(p) for p in itertools.product((1.0, 0.5, 1.5), repeat=n)]


def numeric_limit_check(lam, alpha0, t0=0.999, grid=None):
    """Worst-case gap between calE_lam(z; t0^alpha0, t0)/(1-t0)^{|lam|}
    and the alpha-polynomial calE_lam(z; alpha0) over the grid.

    The limit is approached linearly in 1 - t, with a slope that grows
    with the box exponents, so a single evaluation at t0 cannot meet a
    degree-independent tolerance.  We therefore Richardson-extrapolate
    from t0 and the midpoint 1 - (1 - t0)/2, which cancels the linear
    term (a wrong limit still shows up as an O(1) gap), and normalize
    each gap by max(1, |target|).
    """
    lam = tuple(lam)
    n = len(lam)
    if grid is None:
        grid = _default_grid(n)
    qt_side = nonsym_calE(lam)
    alpha_side = jack_nonsym(lam)
    d = weight(lam)
    t1 = 1.0 - (1.0 - t0) / 2.0
    alpha_terms = [(e, float(c.evaluate(alpha0))) for e, c in alpha_side.terms.items()]
    worst = 0.0
    for z in grid:
        a0 = qt_side.eval_float(t0**alpha0, t0, z) / (1.0 - t0) ** d
        a1 = qt_side.eval_float(t1**alpha0, t1, z) / (1.0 - t1) ** d
        a = 2.0 * a1 - a0
        b = _float_monomial_sum(alpha_terms, z)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst
