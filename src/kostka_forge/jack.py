"""Jack-polynomial degeneration: the t -> 1 limit of the q,t theory.

Polynomials here are ZPolynomial instances whose coefficients are
AlphaPolynomial values (the class is duck-typed over its coefficient
ring).  The creation recursion degenerates to a sum of permutation
words ending in Phi_1 = z_n s_{n-1} ... s_1, so no Hecke arithmetic
survives the limit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import NotAPartition, NotInSpan
from .hecke import _coset_chain_sum, apply_phi, apply_reflection
from .weights import (
    distinct_permutations,
    is_partition,
    length,
    multiplicity,
    star_step,
    weight,
)
from .zpoly import AlphaPolynomial, ZPolynomial

_JACK_CACHE = {}


def _alpha_one(n):
    return ZPolynomial(n, {(0,) * n: AlphaPolynomial.one()})


def _creation_step(f, lam):
    """The limiting creation operator applied to f = calE_{lam*}(alpha).

    Sum over i of s_m ... (omit s_i) ... s_{n-1} Phi_1, plus
    (alpha*lam_m - k + m) times the full word s_m ... s_{n-1} Phi_1,
    where k counts the earlier parts that are >= lam_m.
    """
    lam = tuple(lam)
    n = len(lam)
    m = length(lam)
    k = sum(1 for i in range(m - 1) if lam[i] >= lam[m - 1])
    base = apply_phi(f, "Phi_one")
    # partial products g_j = s_j ... s_{n-1} (base), built from the right
    suffix = {n: base}
    for j in range(n - 1, m - 1, -1):
        suffix[j] = apply_reflection(suffix[j + 1], j)
    out = ZPolynomial.zero(n)
    for i in range(m, n):
        # s_m ... s_{i-1} applied to (omit s_i) s_{i+1} ... s_{n-1} base
        g = suffix[i + 1]
        for j in range(i - 1, m - 1, -1):
            g = apply_reflection(g, j)
        out = out + g
    scale = AlphaPolynomial((m - k, lam[m - 1]))
    return out + suffix[m].scalar_mul(scale)


def jack_nonsym(lam):
    """Nonsymmetric Jack polynomial calE_lam(z; alpha) (integral form)."""
    lam = tuple(lam)
    cached = _JACK_CACHE.get(lam)
    if cached is not None:
        return cached
    if weight(lam) == 0:
        out = _alpha_one(len(lam))
    else:
        out = _creation_step(jack_nonsym(star_step(lam)), lam)
    _JACK_CACHE.setdefault(lam, out)
    return out


def _jack_seed(lam):
    """The seed that jack_sym symmetrizes: jack_nonsym of
    lam0 = (lam_m - 1, ..., lam_1 - 1, 0, ..., 0), rotated m times by Phi_1.

    Its n - m leading variables carry the zero parts, and it is symmetric
    in them: s_i seed = seed for i < n - m.
    """
    n = len(lam)
    m = length(lam)
    lam0 = tuple(lam[i] - 1 for i in range(m - 1, -1, -1)) + (0,) * (n - m)
    seed = jack_nonsym(lam0)
    for _ in range(m):
        seed = apply_phi(seed, "Phi_one")
    return seed


def jack_sym(lam):
    """Symmetric Jack polynomial calJ_lam(z; alpha) (integral form).

    The plain sum of w(seed) over S_n, divided by (n-m)!, the order of
    the seed's stabilizer.  The sum runs over the minimal coset
    representatives of that stabilizer only, so the (n-m)! is never
    multiplied in and never divided out.
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise NotAPartition(f"{lam} is not a partition")
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
    out = ZPolynomial.zero(n)
    for nu in distinct_permutations(tail):
        out = out + ZPolynomial.monomial(n, head + nu, AlphaPolynomial.one())
    return out.scalar_mul(u)


def expand_in_limit_basis(f, m):
    """Expansion of an alpha-polynomial in the limit basis at level m.

    Coefficients are read off the monomial whose tail is the decreasing
    rearrangement (which lies in exactly one basis element, with
    coefficient u); a nonzero residual raises NotInSpan.
    """
    labels, coeffs = [], []
    recon = ZPolynomial.zero(f.n)
    for mu, c in sorted(f.terms.items()):
        tail = mu[m:]
        if is_partition(tail):
            coeff = c.scale(Fraction(1, u_factor(tail)))
            labels.append(mu)
            coeffs.append(coeff)
            recon = recon + limit_basis_element(mu, m).scalar_mul(coeff)
    if recon != f:
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


def _eval_alpha_poly(f, alpha, z):
    total = 0.0
    for e, c in f.terms.items():
        v = float(c.evaluate(alpha))
        for zi, p in zip(z, e):
            v *= zi**p
        total += v
    return total


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
    from .macdonald import nonsym_calE

    lam = tuple(lam)
    n = len(lam)
    if grid is None:
        grid = _default_grid(n)
    qt_side = nonsym_calE(lam)
    alpha_side = jack_nonsym(lam)
    d = weight(lam)
    t1 = 1.0 - (1.0 - t0) / 2.0
    worst = 0.0
    for z in grid:
        a0 = qt_side.eval_float(t0**alpha0, t0, z) / (1.0 - t0) ** d
        a1 = qt_side.eval_float(t1**alpha0, t1, z) / (1.0 - t1) ** d
        a = 2.0 * a1 - a0
        b = _eval_alpha_poly(alpha_side, alpha0, z)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst
