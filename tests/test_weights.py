"""Composition combinatorics: orbits, orders, diagrams, spectral vectors."""

import itertools

import pytest
from hypothesis import example, given, strategies as st

from kostka_forge.errors import IndexOutOfRange, NotAPartition, ZeroComposition
from kostka_forge.qt import ExactScalar, QTPolynomial
from kostka_forge.weights import (
    _transpose,
    b_factor,
    box_stats,
    compositions,
    conjugate,
    distinct_permutations,
    dominance_cmp,
    is_partition,
    length_stat,
    multiplicity,
    norm_factor,
    orbit_data,
    order_leq,
    partitions,
    phi_k,
    spectral_vector,
    star_chain,
    star_step,
    t_factorial,
    weight,
)

ONE = QTPolynomial.one()
T = QTPolynomial.t()


def perm_inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x] = i
    return tuple(out)


def perm_apply(w, mu):
    """Place mu_i at position w[i]."""
    out = [0] * len(w)
    for i, x in enumerate(mu):
        out[w[i]] = x
    return tuple(out)


def perm_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def up_sets(orbit):
    """For each composition of one orbit, the compositions above it: the
    transitive closure of swapping mu_i < mu_j with i < j."""
    def steps(mu):
        for i, j in itertools.combinations(range(len(mu)), 2):
            if mu[i] < mu[j]:
                nu = list(mu)
                nu[i], nu[j] = nu[j], nu[i]
                yield tuple(nu)

    out = {}
    for mu in orbit:
        seen, todo = set(), [mu]
        while todo:
            for nu in steps(todo.pop()):
                if nu not in seen:
                    seen.add(nu)
                    todo.append(nu)
        out[mu] = seen
    return out


class TestOrbitData:
    def test_simple_swap(self):
        od = orbit_data((0, 1))
        assert od.lambda_plus == (1, 0)
        assert od.lambda_minus == (0, 1)
        assert od.w_min == (1, 0)       # the transposition s_1
        assert od.w_tilde == (0, 1)     # identity

    def test_dominant_ties_keep_identity(self):
        od = orbit_data((2, 2))
        assert od.lambda_plus == (2, 2)
        assert od.w_min == (0, 1)

    def test_minimality_by_brute_force(self):
        lam = (0, 2, 0, 1)
        od = orbit_data(lam)
        assert od.lambda_plus == (2, 1, 0, 0)
        assert od.lambda_minus == (0, 0, 1, 2)
        candidates = [
            w
            for w in itertools.permutations(range(4))
            if perm_apply(w, od.lambda_plus) == lam
        ]
        assert perm_apply(od.w_min, od.lambda_plus) == lam
        assert perm_length(od.w_min) == min(perm_length(w) for w in candidates)

    def test_w_tilde_minimality_everywhere(self):
        for lam in compositions(4, 3):
            od = orbit_data(lam)
            candidates = [
                w
                for w in itertools.permutations(range(3))
                if perm_apply(w, od.lambda_minus) == lam
            ]
            assert perm_apply(od.w_tilde, od.lambda_minus) == lam
            assert perm_length(od.w_tilde) == min(perm_length(w) for w in candidates)


class TestOrder:
    def test_orbit_maximum(self):
        assert order_leq((0, 1), (1, 0)) == "less"

    def test_dominance_on_partitions(self):
        assert order_leq((1, 1), (2, 0)) == "less"

    def test_bruhat_refinement(self):
        # same sorted orbit (1,1,0); the sorting word for (1,0,1) is shorter
        assert order_leq((0, 1, 1), (1, 0, 1)) == "less"

    def test_partial_order_sanity(self):
        comps = list(compositions(3, 3))
        for a, b in itertools.permutations(comps, 2):
            if order_leq(a, b) == "less":
                assert order_leq(b, a) == "greater"
        for a, b, c in itertools.product(comps, repeat=3):
            if order_leq(a, b) == "less" and order_leq(b, c) == "less":
                assert order_leq(a, c) == "less"

    def test_matches_transposition_closure(self):
        pairs = 0
        for n in range(1, 6):
            for d in range(6):
                orbits = {}
                for mu in compositions(d, n):
                    orbits.setdefault(tuple(sorted(mu)), []).append(mu)
                for orbit in orbits.values():
                    above = up_sets(orbit)
                    for mu, lam in itertools.permutations(orbit, 2):
                        if lam in above[mu]:
                            expected = "less"
                        elif mu in above[lam]:
                            expected = "greater"
                        else:
                            expected = "incomparable"
                        assert order_leq(mu, lam) == expected, (mu, lam)
                        pairs += 1
        assert pairs == 6166

    def test_orbit_maximum_everywhere(self):
        for lam in compositions(4, 3):
            plus = tuple(sorted(lam, reverse=True))
            if lam != plus:
                assert order_leq(lam, plus) == "less"


class TestSpectralVector:
    def test_row_creation(self):
        assert spectral_vector((1, 0)).exponents == ((1, 0), (0, -1))

    def test_zero_composition(self):
        assert spectral_vector((0, 0, 0)).exponents == ((0, 0), (0, -1), (0, -2))

    def test_column_creation(self):
        assert spectral_vector((0, 1)).exponents == ((0, -1), (1, 0))

    def test_scalar_realization(self):
        assert spectral_vector((1, 0)).scalar(1) == ExactScalar.q()
        assert spectral_vector((1, 0)).scalar(2) == ExactScalar.t(-1)

    def test_injectivity(self):
        for n in (2, 3, 4):
            seen = {}
            for d in range(6):
                for lam in compositions(d, n):
                    key = spectral_vector(lam).exponents
                    assert key not in seen, (lam, seen.get(key))
                    seen[key] = lam


class TestInterchangeConstant:
    """verify's oracle reads its exponents off spectral_vector: the
    interchange constant as an eigenvalue ratio, and the Phi' step's t^{-k_n}."""

    @staticmethod
    def counted_texp(lam, a, b):
        n = len(lam)
        return (
            a
            - sum(1 for j in range(a - 1) if lam[j] >= lam[a - 1])
            + sum(1 for j in range(b, n) if 1 <= lam[j] <= lam[a - 1])
        )

    def test_ratio_of_eigenvalues_is_the_counted_constant(self):
        checked = 0
        for n in range(2, 6):
            for d in range(6):
                for lam in compositions(d, n):
                    for a in range(1, n):
                        b = a + 1
                        while lam[a - 1] and b <= n and lam[b - 1] == 0:
                            mu = lam[: a - 1] + (0,) + lam[a : b - 1] + (lam[a - 1],) + lam[b:]
                            c = spectral_vector(lam).scalar(a) / spectral_vector(mu).scalar(a)
                            assert c == ExactScalar.qt_monomial(lam[a - 1], self.counted_texp(lam, a, b)), (lam, a, b)
                            checked += 1
                            b += 1
        assert checked == 600

    def test_last_exponent_counts_earlier_parts_at_least_the_last(self):
        for n in range(1, 6):
            for d in range(6):
                for lam in compositions(d, n):
                    a = sum(1 for i in range(n - 1) if lam[i] >= lam[-1])
                    assert spectral_vector(lam).exponents[-1] == (lam[-1], -a), lam


class TestNormFactorRatios:
    """d_lam / d_nu at each step the oracle suite takes, nu = lam*, s_i lam
    or the interchange's mu, is a ratio of at most two binomials; the suite
    decides its Phi, H-action and interchange checks on calE by them."""

    ONE = ExactScalar.one()

    @staticmethod
    def compositions_to(n_max, d_max):
        for n in range(1, n_max + 1):
            for d in range(d_max + 1):
                yield from compositions(d, n)

    def test_phi_step(self):
        checked = 0
        for lam in self.compositions_to(5, 5):
            n = len(lam)
            if lam[-1]:
                star = (lam[-1] - 1,) + lam[:-1]
                ratio = self.ONE - spectral_vector(lam).scalar(n) * ExactScalar.t(n)
                assert norm_factor(lam) / norm_factor(star) == ratio, lam
                checked += 1
        assert checked == 251

    def test_hecke_step(self):
        checked = 0
        for lam in self.compositions_to(5, 5):
            sv = spectral_vector(lam)
            for i in range(1, len(lam)):
                if lam[i - 1] > lam[i]:
                    rho = sv.scalar(i) / sv.scalar(i + 1)
                    ratio = (self.ONE - rho) / (self.ONE - ExactScalar.t() * rho)
                    assert norm_factor(lam) / norm_factor(_transpose(lam, i)) == ratio, (lam, i)
                    checked += 1
        assert checked == 535

    def test_interchange_step(self):
        checked = 0
        for lam in self.compositions_to(5, 5):
            for a in range(1, len(lam)):
                b = a + 1
                while lam[a - 1] and b <= len(lam) and lam[b - 1] == 0:
                    mu = lam[: a - 1] + (0,) + lam[a : b - 1] + (lam[a - 1],) + lam[b:]
                    c = spectral_vector(lam).scalar(a) / spectral_vector(mu).scalar(a)
                    ratio = (self.ONE - c) / (self.ONE - ExactScalar.t(b - a) * c)
                    assert norm_factor(lam) / norm_factor(mu) == ratio, (lam, a, b)
                    checked += 1
                    b += 1
        assert checked == 600


def test_transpose_swaps_entries_i_and_i_plus_one():
    assert _transpose((5, 6, 7), 1) == (6, 5, 7)
    assert _transpose((5, 6, 7), 2) == (5, 7, 6)
    assert _transpose(range(4), 3) == (0, 1, 3, 2)
    for n in range(2, 6):
        for i in range(1, n):
            assert _transpose(_transpose(tuple(range(n)), i), i) == tuple(range(n))


@pytest.mark.parametrize("seq, i", [((5, 6, 7), 0), ((5, 6, 7), 3), ((5,), 1), ((), 0)])
def test_transpose_refuses_an_index_out_of_range(seq, i):
    with pytest.raises(IndexOutOfRange):
        _transpose(seq, i)


class TestBoxStats:
    def test_single_box_row_one(self):
        (s,) = box_stats((1, 0))
        assert (s.arm, s.leg_upper, s.leg_lower) == (0, 0, 0)

    def test_single_box_row_two(self):
        (s,) = box_stats((0, 1))
        assert (s.arm, s.leg_upper, s.leg_lower) == (0, 1, 0)

    def test_hook_shape(self):
        stats = {(s.row, s.col): s for s in box_stats((2, 1))}
        assert (stats[(1, 1)].arm, stats[(1, 1)].leg_upper, stats[(1, 1)].leg_lower) == (1, 0, 1)
        assert (stats[(1, 2)].arm, stats[(1, 2)].leg) == (0, 0)
        assert (stats[(2, 1)].arm, stats[(2, 1)].leg) == (0, 0)

    def test_partitions_have_no_upper_leg(self):
        for d in range(6):
            for p in partitions(d, 4):
                lam = p + (0,) * (4 - len(p))
                assert all(s.leg_upper == 0 for s in box_stats(lam))

    def test_box_pairing_with_increasing_rearrangement(self):
        # for a partition lam and w the stable sort of lam into increasing
        # order, the box map (i,j) -> (w(i), j+1) preserves legs and drops
        # the arm by exactly one
        for d in range(6):
            for p in partitions(d, 4):
                lam = p + (0,) * (4 - len(p))
                lam_minus = tuple(sorted(lam))
                w = perm_inverse(orbit_data(lam).w_tilde)
                stats = {(s.row, s.col): s for s in box_stats(lam)}
                minus_stats = {(s.row, s.col): s for s in box_stats(lam_minus)}
                for (i, j), s in stats.items():
                    if j >= lam[i - 1]:
                        continue
                    sm = minus_stats[(w[i - 1] + 1, j + 1)]
                    assert s.arm == sm.arm + 1
                    assert s.leg == sm.leg


class TestNormFactor:
    def test_single_box_nonsymmetric(self):
        assert norm_factor((1, 0)) == ExactScalar.from_poly(
            ONE - QTPolynomial.monomial(1, 1)
        )

    def test_single_box_symmetric(self):
        assert norm_factor((1, 0), "symmetric") == ExactScalar.from_poly(ONE - T)

    def test_empty_diagram(self):
        assert norm_factor((0,)).is_one()

    def test_symmetric_needs_partition(self):
        with pytest.raises(NotAPartition):
            norm_factor((0, 1), "symmetric")


class TestTNumbers:
    def test_phi_two(self):
        assert phi_k(2) == ExactScalar.from_poly((ONE - T) * (ONE - QTPolynomial.t(2)))

    def test_t_factorial_two(self):
        assert t_factorial(2) == ExactScalar.from_poly(ONE + T)

    def test_phi_over_power(self):
        denom = ExactScalar.from_poly((ONE - T) * (ONE - T))
        assert phi_k(2) / denom == t_factorial(2)

    def test_length_stat_and_b_factor(self):
        assert length_stat((0, 1)) == 1
        assert length_stat((2, 0, 1)) == 1
        assert b_factor((1, 0)) == ExactScalar.from_poly(ONE - T)
        assert multiplicity((2, 2, 1, 0), 2) == 2


class TestStarChain:
    def test_column_step(self):
        assert star_step((0, 1)) == (0, 0)

    def test_row_step(self):
        assert star_step((1, 0)) == (0, 0)

    def test_rotation_step(self):
        assert star_step((0, 2, 0, 1)) == (0, 0, 2, 0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroComposition):
            star_step((0, 0))

    def test_chain_length(self):
        for lam in compositions(5, 3):
            chain = star_chain(lam)
            assert len(chain) == weight(lam) + 1
            assert all(
                weight(a) == weight(b) + 1 for a, b in zip(chain, chain[1:])
            )


def test_dominance_cmp_basic():
    assert dominance_cmp((2, 0), (1, 1)) == "greater"
    assert dominance_cmp((2, 1, 1), (2, 1, 1)) == "equal"
    assert dominance_cmp((3, 1, 1, 1), (2, 2, 2, 0)) == "incomparable"


@given(st.lists(st.integers(-3, 3), max_size=6), st.booleans())
@example([], True)
@example([], False)
@example([4], True)
@example([-2], False)
@example([2, 2, -1], True)
@example([1, 2], False)
def test_is_partition_is_the_sorted_comparison(parts, as_tuple):
    """Non-increasing, on tuples and lists, empty, one-part and negative
    entries included."""
    lam = tuple(parts) if as_tuple else parts
    assert is_partition(lam) == (tuple(sorted(lam, reverse=True)) == tuple(lam))


def test_distinct_permutations_match_the_set_of_all_permutations():
    for tail in [(), (0,), (1, 1), (2, 1, 1, 0), (3, 3, 1, 1, 0, 0), (0, 0, 0, 0), (2, 2, 2, 1)]:
        assert distinct_permutations(tail) == sorted(set(itertools.permutations(tail)))


def test_conjugate():
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    assert conjugate((3, 1, 1)) == (3, 1, 1)
    assert conjugate((4, 2, 0, 0)) == (2, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((0, 0)) == ()
    for d in range(9):
        for lam in partitions(d, d):
            lam_c = conjugate(lam)
            assert weight(lam_c) == d
            assert conjugate(lam_c) == lam
            assert conjugate(lam + (0,) * 3) == lam_c


def _partitions_unbounded(d, largest):
    """Every partition of d with parts at most largest, as a set."""
    if d == 0:
        return {()}
    return {
        (first,) + rest
        for first in range(1, min(d, largest) + 1)
        for rest in _partitions_unbounded(d - first, first)
    }


def test_partitions_match_generate_and_filter():
    for d in range(15):
        every = _partitions_unbounded(d, d)
        for k in range(17):
            out = list(partitions(d, k))
            assert out == sorted((p for p in every if len(p) <= k), reverse=True), (d, k)


def test_partitions_at_the_edges():
    assert list(partitions(0, 0)) == [()]
    assert list(partitions(3, 0)) == []
    assert list(partitions(0, 3)) == [()]
    assert list(partitions(3, 1)) == [(3,)]


def test_partitions_build_only_what_they_yield():
    # p(200) is about 4e12, so this finishes only if the part bound prunes
    out = list(partitions(200, 2))
    assert len(out) == 101
    assert out[0] == (200,) and out[-1] == (100, 100)


def test_compositions_come_by_weight_then_lexicographically():
    # n = 0 too: compositions(0, 0) is [()] and compositions(2, 0) is empty
    for n in range(5):
        lams = [lam for d in range(7) for lam in compositions(d, n)]
        every = (c for c in itertools.product(range(7), repeat=n) if sum(c) <= 6)
        assert lams == sorted(every, key=lambda c: (sum(c), c))
