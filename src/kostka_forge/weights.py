"""Combinatorics of compositions: orbits, the extended order, diagrams,
spectral vectors, t-numerology and the box-removal recursion chain.

Compositions are plain tuples of naturals of length n.  Permutations are
tuples of 0-based images: w[i] is the position that entry i is sent to,
so acting on a composition gives (w(mu))[w[i]] = mu[i].
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import ge

from .errors import DimensionMismatch, IndexOutOfRange, NotAPartition, ZeroComposition
from .qt import ExactScalar, QTPolynomial

# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def weight(lam):
    return sum(lam)


def length(lam):
    """Index of the last nonzero part (0 for the zero composition)."""
    m = 0
    for i, x in enumerate(lam):
        if x:
            m = i + 1
    return m


def is_partition(lam):
    return all(map(ge, lam, lam[1:]))


def _require_partition(lam):
    if not is_partition(lam):
        raise NotAPartition(f"{lam} is not a partition")


def compositions(total, n):
    """All compositions of `total` into n parts, lexicographically."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, n - 1):
            yield (first,) + rest


def partitions(total, max_parts):
    """Partitions of `total` with at most max_parts parts (no padding), in
    decreasing lexicographic order.  No part is below ceil(rem / parts),
    the least that the parts still allowed can complete, so every
    partition begun is yielded."""
    def rec(rem, largest, parts):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, largest), (rem - 1) // parts, -1):
            for rest in rec(rem - first, first, parts - 1):
                yield (first,) + rest
    if total == 0 <= max_parts or min(total, max_parts) > 0:
        yield from rec(total, total, max_parts)


def pad(lam, n):
    return tuple(lam) + (0,) * (n - len(lam))


def _transpose(seq, i):
    """s_i on a tuple: entries i and i + 1 (1-based) swapped."""
    if not 1 <= i < len(seq):
        raise IndexOutOfRange(f"index {i} out of range for n={len(seq)}")
    return (*seq[: i - 1], seq[i], seq[i - 1], *seq[i + 1 :])


def _unit(n, j):
    """The exponent vector of z_{j+1} in n variables (j 0-based)."""
    return tuple(int(k == j) for k in range(n))


def conjugate(lam):
    """The conjugate partition lam' (unpadded): its j-th part counts the
    parts of lam larger than j - 1.  Zero parts of lam are ignored."""
    lam = tuple(lam)
    return tuple(sum(1 for x in lam if x > j) for j in range(max(lam, default=0)))


# ---------------------------------------------------------------------------
# orbit data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitData:
    lambda_plus: tuple
    lambda_minus: tuple
    w_min: tuple       # shortest w with w(lambda_plus) = lambda
    w_tilde: tuple     # shortest w with w(lambda_minus) = lambda


def _sorting_perm(lam, reverse):
    """Shortest w with w(sorted) = lam; stable sort keeps it minimal."""
    idx = sorted(range(len(lam)), key=lambda i: (-lam[i] if reverse else lam[i], i))
    # idx[r] = original position of the r-th entry of the sorted vector;
    # so sorted[r] must be placed at position idx[r]: w[r] = idx[r].
    return tuple(idx)


def orbit_data(lam):
    lam = tuple(lam)
    lam_plus = tuple(sorted(lam, reverse=True))
    lam_minus = tuple(sorted(lam))
    return OrbitData(lam_plus, lam_minus, _sorting_perm(lam, True), _sorting_perm(lam, False))


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def dominance_cmp(lam, mu):
    """Dominance comparison of two partitions of equal weight.

    Returns 'less', 'equal', 'greater' or 'incomparable'.
    """
    le = ge = True
    sa = sb = 0
    for a, b in zip(lam, mu):
        sa += a
        sb += b
        if sa < sb:
            ge = False
        elif sa > sb:
            le = False
    if le and ge:
        return "equal"
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


def order_leq(mu, lam):
    """Extended order comparison; 'less' means mu < lam.

    mu < lam if mu+ < lam+ in dominance, or if mu+ = lam+ and w_lam < w_mu in
    Bruhat order (w sorting the composition).  In one orbit, mu <= lam iff
    every prefix of mu, sorted decreasingly, is componentwise <= that of lam:
    the tableau criterion (Bjorner and Brenti, Combinatorics of Coxeter
    Groups, Thm 2.6.3) on minimal coset representatives.
    """
    mu, lam = tuple(mu), tuple(lam)
    if len(mu) != len(lam):
        raise DimensionMismatch("compositions of different lengths")
    if mu == lam:
        return "equal"
    if weight(mu) != weight(lam):
        return "incomparable"
    mp = tuple(sorted(mu, reverse=True))
    lp = tuple(sorted(lam, reverse=True))
    if mp != lp:
        return dominance_cmp(mp, lp)
    # both prefixes, sorted increasingly (which pairs the same parts as
    # sorting decreasingly) and grown by one part per step: mu <= lam holds
    # while no part of mu's prefix exceeds lam's, and lam <= mu likewise
    below = above = True
    ms, ls = [], []
    for x, y in zip(mu[:-1], lam[:-1]):
        insort(ms, x)
        insort(ls, y)
        for a, b in zip(ms, ls):
            if a > b:
                below = False
            elif a < b:
                above = False
        if not (below or above):
            return "incomparable"
    return "less" if below else "greater"


# ---------------------------------------------------------------------------
# spectral vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralVector:
    exponents: tuple   # pairs (lam_i, -k_i) meaning q^{lam_i} t^{-k_i}

    @property
    def scalars(self):
        return tuple(ExactScalar.qt_monomial(a, b) for a, b in self.exponents)

    def scalar(self, i):
        """Entry i (1-based) as an ExactScalar."""
        a, b = self.exponents[i - 1]
        return ExactScalar.qt_monomial(a, b)


def spectral_vector(lam):
    lam = tuple(lam)
    n = len(lam)
    exps = []
    for i in range(n):
        k = sum(1 for j in range(i) if lam[j] >= lam[i]) + sum(
            1 for j in range(i + 1, n) if lam[j] > lam[i]
        )
        exps.append((lam[i], -k))
    return SpectralVector(tuple(exps))


# ---------------------------------------------------------------------------
# diagrams, arms and legs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxStats:
    row: int           # i, 1-based
    col: int           # j, 1-based
    arm: int
    leg_upper: int     # l'(s)
    leg_lower: int     # l''(s)

    @property
    def leg(self):
        return self.leg_upper + self.leg_lower


def box_stats(lam):
    """Per-box statistics, row-major."""
    lam = tuple(lam)
    n = len(lam)
    out = []
    for i in range(1, n + 1):
        li = lam[i - 1]
        for j in range(1, li + 1):
            arm = li - j
            lu = sum(1 for k in range(1, i) if j <= lam[k - 1] + 1 <= li)
            ll = sum(1 for k in range(i + 1, n + 1) if j <= lam[k - 1] <= li)
            out.append(BoxStats(i, j, arm, lu, ll))
    return out


def norm_factor(lam, kind="nonsymmetric"):
    """Product over boxes of (1 - q^{a+1} t^{l+1}) or (1 - q^a t^{l+1})."""
    if kind not in ("nonsymmetric", "symmetric"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "symmetric":
        _require_partition(lam)
    shift = 1 if kind == "nonsymmetric" else 0
    prod = QTPolynomial.one()
    for s in box_stats(lam):
        prod = prod * (QTPolynomial.one() - QTPolynomial.monomial(s.arm + shift, s.leg + 1))
    return ExactScalar.from_poly(prod)


# ---------------------------------------------------------------------------
# t-numerology
# ---------------------------------------------------------------------------


def phi_k(k):
    """(1-t)(1-t^2)...(1-t^k)."""
    prod = QTPolynomial.one()
    for j in range(1, k + 1):
        prod = prod * (QTPolynomial.one() - QTPolynomial.t(j))
    return ExactScalar.from_poly(prod)


def t_factorial(k):
    """[k]! = phi_k / (1-t)^k = prod_j (1 + t + ... + t^{j-1})."""
    prod = QTPolynomial.one()
    for j in range(1, k + 1):
        prod = prod * QTPolynomial({(0, b): 1 for b in range(j)})
    return ExactScalar.from_poly(prod)


def multiplicity(mu, i):
    """m_i(mu): number of parts equal to i."""
    return sum(1 for x in mu if x == i)


def b_factor(mu):
    """b_mu(t) = prod_{i>=1} phi_{m_i(mu)}(t)."""
    prod = ExactScalar.one()
    for i in set(x for x in mu if x >= 1):
        prod = prod * phi_k(multiplicity(mu, i))
    return prod


def length_stat(lam):
    """L(lam) = number of pairs i<j with lam_i < lam_j."""
    return sum(
        1
        for i in range(len(lam))
        for j in range(i + 1, len(lam))
        if lam[i] < lam[j]
    )


# ---------------------------------------------------------------------------
# recursion chain
# ---------------------------------------------------------------------------


def star_step(lam):
    """One box-removal step: (lam_m - 1, lam_1, ..., lam_{m-1}, 0, ..., 0)."""
    lam = tuple(lam)
    m = length(lam)
    if m == 0:
        raise ZeroComposition("star_step needs a nonzero composition")
    out = (lam[m - 1] - 1,) + lam[: m - 1] + (0,) * (len(lam) - m)
    return out


def star_chain(lam):
    """The chain lam, lam*, lam**, ..., 0 (|lam| + 1 entries)."""
    out = [tuple(lam)]
    while weight(out[-1]) > 0:
        out.append(star_step(out[-1]))
    return out


def distinct_permutations(tail):
    """Distinct rearrangements of a tuple, in sorted order.

    Lexicographic next-permutation steps from the sorted tuple: one step
    per distinct rearrangement, not n! with repeats.
    """
    perm = sorted(tail)
    out = [tuple(perm)]
    while True:
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])
        out.append(tuple(perm))
