"""Sparse Laurent polynomials in z and the alpha-coefficient ring."""

import contextlib
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kostka_forge.errors import DimensionMismatch, NotDivisible
from kostka_forge.hecke import apply_divided_difference
from kostka_forge.qt import ExactScalar
from kostka_forge.zpoly import AlphaPolynomial, ZPolynomial


def z(n, i):
    return ZPolynomial.variable(n, i)


class TestArithmetic:
    def test_monomial_product(self):
        assert z(2, 1) * z(2, 2) == ZPolynomial.monomial(2, (1, 1))

    def test_monomial_mul_shift(self):
        f = ZPolynomial.one(3).monomial_mul((0, 0, 1))
        assert f == z(3, 3)

    def test_binomial_square(self):
        lhs = (z(2, 1) + z(2, 2)) ** 2
        two = ExactScalar.from_int(2)
        rhs = (
            ZPolynomial.monomial(2, (2, 0))
            + ZPolynomial.monomial(2, (1, 1), two)
            + ZPolynomial.monomial(2, (0, 2))
        )
        assert lhs == rhs

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            z(2, 1) + z(3, 1)

    def test_laurent_exponents(self):
        f = z(2, 1).monomial_mul((-2, 0))
        assert f == ZPolynomial.monomial(2, (-1, 0))


class TestSubstitution:
    def test_rotation_image(self):
        # z1 -> q^{-1} z2 (the n=2 rotation)
        images = [(ExactScalar.q(-1), (0, 1)), (None, (1, 0))]
        assert z(2, 1).substitute(images) == ZPolynomial.monomial(
            2, (0, 1), ExactScalar.q(-1)
        )

    def test_swap(self):
        images = [(None, (0, 1)), (None, (1, 0))]
        assert z(2, 2).substitute(images) == z(2, 1)

    def test_symmetric_fixed_point(self):
        f = z(2, 1) * z(2, 2)
        images = [(None, (0, 1)), (None, (1, 0))]
        assert f.substitute(images) == f

    def test_permute(self):
        f = ZPolynomial.monomial(3, (2, 1, 0))
        assert f.permute((2, 0, 1)) == ZPolynomial.monomial(3, (1, 0, 2))


class TestDivision:
    # z1 - z2; a divisor whose terms share their z1-exponent, so the division
    # starts at z2; a divisor whose top z1-slice has two terms
    divisors = [
        z(2, 1) - z(2, 2),
        z(3, 1) ** 2 * (z(3, 2) - z(3, 3).scalar_mul(ExactScalar.from_int(3)) + z(3, 3) ** 2),
        z(3, 1) * z(3, 2) + z(3, 1) * z(3, 3) - ZPolynomial.one(3),
    ]

    def test_laurent_quotient(self):
        for g in self.divisors:
            n = g.n
            f = (z(n, 1) + z(n, 2) ** 2).monomial_mul((-1, 2) + (0,) * (n - 2))
            assert (f * g).exact_divide(g) == f

    def test_missing_quotient_is_refused(self):
        # every lead-term step would emit a smaller Laurent term, forever
        for g in self.divisors:
            with pytest.raises(NotDivisible):
                ZPolynomial.one(g.n).exact_divide(g)

    def test_remainder_is_refused(self):
        for g in self.divisors:
            with pytest.raises(NotDivisible):
                (g * g + z(g.n, 1)).exact_divide(g)


class TestEvaluation:
    def test_single_variable(self):
        assert z(2, 1).eval_float(0.3, 0.7, (2.0, 5.0)) == 2.0

    def test_coefficient_specialization(self):
        c = ExactScalar(
            ExactScalar.one().num - ExactScalar.t().num,
            ExactScalar.one().num - (ExactScalar.q() * ExactScalar.t()).num,
        )
        f = ZPolynomial.monomial(2, (0, 1), c)
        assert f.eval_float(0.0, 0.0, (1.0, 3.0)) == 3.0

    def test_vanishing_factor(self):
        c = ExactScalar.one() - ExactScalar.q() * ExactScalar.t()
        f = ZPolynomial.monomial(2, (1, 0), c)
        assert f.eval_float(1.0, 1.0, (7.0, 0.0)) == 0.0


def test_json_round_trip():
    c = ExactScalar(
        (ExactScalar.one() - ExactScalar.t()).num,
        (ExactScalar.one() - ExactScalar.q() * ExactScalar.t()).num,
    )
    f = ZPolynomial(2, {(1, 0): ExactScalar.one(), (0, 1): c})
    assert ZPolynomial.from_json_dict(f.to_json_dict()) == f


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

coeffs = st.integers(-5, 5).filter(bool).map(ExactScalar.from_int)
exps3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
zpolys = st.dictionaries(exps3, coeffs, max_size=4).map(lambda t: ZPolynomial(3, t))


@settings(deadline=None, max_examples=80)
@given(zpolys, zpolys, zpolys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(deadline=None, max_examples=80)
@given(zpolys, zpolys)
def test_exact_divide_inverts_product(f, g):
    if g:
        assert (f * g).exact_divide(g) == f


ONE, Q, T = ExactScalar.one(), ExactScalar.q(), ExactScalar.t()
# coefficients in Q(q,t), none of them 1, so a divisor's leading term is not monic
non_units = st.sampled_from(
    [ExactScalar.from_int(k) for k in (-3, -2, -1, 2, 5)]
    + [Q, ONE - T, ExactScalar.from_fraction(Fraction(2, 3)), ONE / (ONE - Q * T)]
)
laurent_exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
laurent = st.dictionaries(laurent_exps, st.one_of(st.just(ONE), non_units), min_size=1, max_size=4)


@settings(deadline=None, max_examples=60)
@given(laurent, laurent, non_units)
def test_exact_divide_laurent_non_monic(a, b, lead):
    a, b = ZPolynomial(3, a), ZPolynomial(3, {**b, max(b): lead})
    assert (a * b).exact_divide(b) == a


@settings(deadline=None, max_examples=80)
@given(laurent, laurent)
def test_difference_is_sum_of_negative(a, b):
    a, b = ZPolynomial(3, a), ZPolynomial(3, b)
    assert a - b == a + (-b)
    assert not (a - a).terms
    assert (a - b) + b == a


# one coefficient strategy per ring ZPolynomial takes
ring_coeffs = {
    "int": st.integers(-3, 3).filter(bool),
    "alpha": st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(AlphaPolynomial).filter(bool),
    "exact": st.one_of(st.just(ONE), non_units),
}


@pytest.mark.parametrize("ring", sorted(ring_coeffs))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_difference_is_the_termwise_difference(ring, data):
    """f - g over int, alpha and ExactScalar coefficients: the termwise
    difference, equal to f + (-g), with no zero coefficient stored, and
    f - f is zero.  g takes some of f's terms as they are, so that
    cancelling terms are common."""
    polys = st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1), (-1, 2)]), ring_coeffs[ring], max_size=4)
    f = ZPolynomial(2, data.draw(polys))
    shared = data.draw(st.sets(st.sampled_from(sorted(f.terms)))) if f else set()
    g = ZPolynomial(2, {**data.draw(polys), **{k: f.terms[k] for k in shared}})
    expected = {}
    for k in f.terms.keys() | g.terms.keys():
        if k not in g.terms:
            expected[k] = f.terms[k]
        elif k not in f.terms:
            expected[k] = -g.terms[k]
        elif f.terms[k] != g.terms[k]:
            expected[k] = f.terms[k] - g.terms[k]
    h = f - g
    assert h.terms == expected
    assert h == f + (-g)
    assert no_zero_coefficient(h)
    assert (f - f).terms == {}


def test_difference_needs_equal_dimensions():
    with pytest.raises(DimensionMismatch):
        z(2, 1) - z(3, 1)


# each variable's image: a coefficient (q^{+-1}, t or None) and a unit vector
images3 = st.lists(
    st.tuples(
        st.sampled_from([None, ExactScalar.q(1), ExactScalar.q(-1), T]),
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ),
    min_size=3,
    max_size=3,
)


def substitute_per_term(f, images):
    """The substitution with coeff**power computed afresh for every term."""
    out = ZPolynomial(f.n)
    for e, c in f.terms.items():
        k = [0] * f.n
        for (coeff, vec), power in zip(images, e):
            k = [x + s * power for x, s in zip(k, vec)]
            if coeff is not None:
                c = c * coeff**power
        out = out + ZPolynomial.monomial(f.n, k, c)
    return out


@settings(deadline=None, max_examples=80)
@given(laurent, images3)
def test_substitute_matches_per_term_powers(terms, images):
    f = ZPolynomial(3, terms)
    assert f.substitute(images) == substitute_per_term(f, images)


def no_zero_coefficient(f):
    return all(f.terms.values())


class TestNoZeroCoefficients:
    """The ring operations leave zero-coefficient removal to the
    constructor; where terms cancel, none may be left behind."""

    def test_difference_with_itself(self):
        f = ZPolynomial(2, {(1, 0): Q, (0, 1): ONE - T})
        assert (f - f).terms == {}
        assert (f + (-f)).terms == {}

    def test_product_cancels_the_cross_terms(self):
        # (z1 - z2)(z1 + z2) = z1^2 - z2^2
        prod = (z(2, 1) - z(2, 2)) * (z(2, 1) + z(2, 2))
        assert prod.terms == {(2, 0): ONE, (0, 2): -ONE}

    def test_substitution_merges_two_terms(self):
        # z1 - z2 under z1, z2 -> z1: the two images cancel
        f = z(2, 1) - z(2, 2)
        assert f.substitute([(None, (1, 0)), (None, (1, 0))]).terms == {}
        g = z(2, 1) + z(2, 2).scalar_mul(Q)
        assert g.substitute([(Q, (0, 1)), (None, (0, 1))]).terms == {(0, 1): Q + Q}

    def test_divided_difference_of_a_symmetric_polynomial(self):
        # N_1 kills what s_1 fixes, though its geometric sums overlap
        f = z(3, 1) ** 2 * z(3, 2) + z(3, 1) * z(3, 2) ** 2 + z(3, 1) * z(3, 3)
        f = f + z(3, 2) * z(3, 3)
        assert apply_divided_difference(f, 1).terms == {}
        g = f + z(3, 1) ** 3
        assert apply_divided_difference(g, 1) == apply_divided_difference(z(3, 1) ** 3, 1)

    @settings(deadline=None, max_examples=60)
    @given(laurent, laurent, images3, st.sampled_from([1, 2]))
    def test_results_hold_no_zero_coefficient(self, a, b, images, i):
        f, g = ZPolynomial(3, a), ZPolynomial(3, b)
        for h in (f + g, f - g, f - f, f * g, (f - g) * (f + g), f.substitute(images)):
            assert no_zero_coefficient(h)
        assert no_zero_coefficient(apply_divided_difference(f, i))
        assert no_zero_coefficient(apply_divided_difference(f + f.permute([1, 0, 2]), 1))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block if it runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_negative_power_is_refused():
    with time_limit(1), pytest.raises(ValueError):
        z(2, 1) ** -1


@pytest.mark.parametrize(
    "coeffs",
    [
        (2, 1, -3),
        (AlphaPolynomial((1, 2)), AlphaPolynomial.one(), AlphaPolynomial((0, -1, 1))),
        (ExactScalar.q(), ExactScalar.from_int(-3), ExactScalar.t(-1) + ExactScalar.one()),
    ],
    ids=["int", "alpha", "exact"],
)
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_power_is_the_repeated_product(coeffs, e):
    """** needs only the coefficients' *, so it works over every ring."""
    f = ZPolynomial(2, dict(zip([(1, 0), (0, 1), (-1, 2)], coeffs)))
    product = f
    for _ in range(e - 1):
        product = product * f
    assert f**e == product


@pytest.mark.parametrize(
    "c, one",
    [(2, 1), (AlphaPolynomial((1, 2)), AlphaPolynomial.one()), (ExactScalar.q(), ExactScalar.one())],
    ids=["int", "alpha", "exact"],
)
def test_power_zero_is_the_one_of_the_coefficient_ring(c, one):
    f = ZPolynomial(2, {(1, 0): c})
    assert f**0 == ZPolynomial(2, {(0, 0): one})
    assert (f**0) * f == f and f * (f**0) == f


def test_power_zero_of_zero_is_the_exact_one():
    assert ZPolynomial.zero(3) ** 0 == ZPolynomial.one(3)


@settings(deadline=None, max_examples=60)
@given(laurent, laurent, laurent_exps, non_units)
def test_exact_divide_refuses_an_extra_term(a, b, e, c):
    # only a monomial divides a monomial, so b needs two terms
    assume(len(b) >= 2)
    a, b = ZPolynomial(3, a), ZPolynomial(3, b)
    p = a * b
    assume(e not in p.terms)
    with time_limit(2), pytest.raises(NotDivisible):
        (p + ZPolynomial.monomial(3, e, c)).exact_divide(b)


# divisors of three or more terms
three_or_more_terms = st.dictionaries(
    laurent_exps, st.one_of(st.just(ONE), non_units), min_size=3, max_size=4
)


@settings(deadline=None, max_examples=60)
@given(laurent, three_or_more_terms)
def test_exact_divide_inverts_product_by_three_or_more_terms(a, b):
    a, b = ZPolynomial(3, a), ZPolynomial(3, b)
    assert (a * b).exact_divide(b) == a


@settings(deadline=None, max_examples=60)
@given(laurent, three_or_more_terms, laurent_exps, non_units)
def test_exact_divide_refuses_an_extra_term_by_three_or_more_terms(a, b, e, c):
    a, b = ZPolynomial(3, a), ZPolynomial(3, b)
    p = a * b
    assume(e not in p.terms)
    with time_limit(2), pytest.raises(NotDivisible):
        (p + ZPolynomial.monomial(3, e, c)).exact_divide(b)


class TestDivisionByTwoTerms:
    """Divisors of exactly two terms, c1 z^a + c2 z^b, like the z_i - z_{i+1}
    of a divided difference: the product's terms lie on chains m + j(a - b)."""

    # exactly two terms, Laurent exponents, any leading coefficient
    binomials = st.lists(laurent_exps, min_size=2, max_size=2, unique=True).flatmap(
        lambda es: st.tuples(st.one_of(st.just(ONE), non_units), non_units).map(
            lambda cs: ZPolynomial(3, dict(zip(es, cs)))
        )
    )
    int_laurent = st.dictionaries(laurent_exps, st.integers(-4, 4).filter(bool), max_size=4)
    int_binomials = st.lists(laurent_exps, min_size=2, max_size=2, unique=True).flatmap(
        lambda es: st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=2).map(
            lambda cs: ZPolynomial(3, dict(zip(es, cs)))
        )
    )

    @settings(deadline=None, max_examples=80)
    @given(laurent, binomials)
    def test_inverts_product(self, a, b):
        a = ZPolynomial(3, a)
        assert (a * b).exact_divide(b) == a

    @settings(deadline=None, max_examples=80)
    @given(int_laurent, int_binomials)
    def test_inverts_an_integer_product(self, a, b):
        a = ZPolynomial(3, a)
        quot = (a * b).exact_divide(b)
        assert quot == a
        assert all(type(c) is int for c in quot.terms.values())

    @settings(deadline=None, max_examples=60)
    @given(laurent, binomials, laurent_exps, non_units)
    def test_refuses_an_extra_term(self, a, b, e, c):
        p = ZPolynomial(3, a) * b
        assume(e not in p.terms)
        with pytest.raises(NotDivisible):
            (p + ZPolynomial.monomial(3, e, c)).exact_divide(b)

    def test_gaps_inside_a_chain(self):
        # every term of the product lies on the one chain z1^(4-j) z2^j,
        # and level j = 2 is missing from it
        g = ZPolynomial(2, {(1, 0): 1, (0, 1): -1})
        f = ZPolynomial(2, {(3, 0): 1, (0, 3): 1})
        prod = g * f
        assert prod.terms == {(4, 0): 1, (3, 1): -1, (1, 3): 1, (0, 4): -1}
        assert prod.exact_divide(g) == f

    def test_a_wide_gap_inside_a_chain(self):
        # the product's z1-exponents are N + 1, N, 1 and 0, with N = 10^6;
        # the work must not grow with the empty levels between
        g = ZPolynomial(2, {(1, 0): 1, (0, 1): -1})
        f = ZPolynomial(2, {(10**6, 0): 1, (0, 10**6): 1})
        prod = g * f
        with time_limit(1):
            assert prod.exact_divide(g) == f

    def test_a_step_with_entries_other_than_one(self):
        # z1^2 z3 - 5 z2^3 steps by (2, -3, 1) along each chain
        g = ZPolynomial(3, {(2, 0, 1): 1, (0, 3, 0): -5})
        f = ZPolynomial(3, {(1, 0, 0): 2, (0, 1, -1): 3, (0, 0, 0): -1, (4, 0, 2): 1})
        assert (g * f).exact_divide(g) == f

    def test_laurent_exponents(self):
        g = ZPolynomial(2, {(-1, 2): ONE, (-2, 0): -T})
        f = ZPolynomial(2, {(3, -1): Q, (0, 0): ONE, (-3, -3): ONE - T})
        assert (g * f).exact_divide(g) == f

    def test_non_monic_integer_leading_coefficient(self):
        g = ZPolynomial(2, {(1, 0): 3, (0, 1): -2})
        f = ZPolynomial(2, {(2, 0): 5, (1, 1): -1, (0, 2): 4})
        quot = (g * f).exact_divide(g)
        assert quot == f
        assert all(type(c) is int for c in quot.terms.values())

    def test_non_monic_exact_scalar_leading_coefficient(self):
        g = ZPolynomial(2, {(1, 0): ONE - Q * T, (0, 1): Q})
        f = ZPolynomial(2, {(2, 0): T, (0, 1): ExactScalar.from_int(-2), (0, 0): ONE})
        assert (g * f).exact_divide(g) == f

    def test_alpha_polynomial_coefficients(self):
        # AlphaPolynomial has no /, so the divisor is monic: z1 - alpha z2
        alpha, one = AlphaPolynomial.alpha(), AlphaPolynomial.one()
        g = ZPolynomial(2, {(1, 0): one, (0, 1): -alpha})
        f = ZPolynomial(2, {(2, 0): alpha + one, (1, 1): AlphaPolynomial.const(3), (0, 0): alpha})
        assert (g * f).exact_divide(g) == f
        with pytest.raises(NotDivisible):
            ZPolynomial(2, {(1, 0): one, (0, 1): alpha}).exact_divide(g)

    def test_a_one_level_chain_is_refused(self):
        with pytest.raises(NotDivisible):
            ZPolynomial(2, {(0, 0): 1}).exact_divide(ZPolynomial(2, {(1, 0): 1, (0, 1): -1}))

    def test_a_bottom_residual_is_refused(self):
        # z1^2 - 2 z2^2 solves down to a quotient z1 + z2 with -z2^2 left over
        with pytest.raises(NotDivisible):
            ZPolynomial(2, {(2, 0): 1, (0, 2): -2}).exact_divide(
                ZPolynomial(2, {(1, 0): 1, (0, 1): -1})
            )

    def test_a_fractional_integer_quotient_is_refused(self):
        # (2 z1^2 - 2 z2^2) / (4 z1 - 4 z2) = (z1 + z2) / 2 is not over Z
        with pytest.raises(NotDivisible):
            ZPolynomial(2, {(2, 0): 2, (0, 2): -2}).exact_divide(
                ZPolynomial(2, {(1, 0): 4, (0, 1): -4})
            )


def test_exact_divide_by_a_monic_divisor_keeps_integers():
    f = ZPolynomial(2, {(2, 0): 3, (0, 2): -3})
    g = ZPolynomial(2, {(1, 0): 1, (0, 1): -1})
    quot = f.exact_divide(g)
    assert quot.terms == {(1, 0): 3, (0, 1): 3}
    assert all(type(c) is int for c in quot.terms.values())


def test_exact_divide_by_a_non_monic_divisor_keeps_integers():
    two_z = ZPolynomial(1, {(1,): 2})
    assert two_z.exact_divide(two_z).terms == {(0,): 1}
    a = ZPolynomial(2, {(1, 0): 3, (0, 1): 1})
    b = ZPolynomial(2, {(1, 0): -2, (0, 1): 3, (0, 0): 5})
    quot = (a * b).exact_divide(b)
    assert quot == a
    assert all(type(c) is int for c in quot.terms.values())
    with pytest.raises(NotDivisible):
        ZPolynomial(1, {(1,): 3, (0,): 1}).exact_divide(two_z)


@settings(deadline=None, max_examples=80)
@given(zpolys, zpolys)
def test_eval_float_homomorphism(f, g):
    point = (0.37, 0.61, (1.3, 0.8, 1.9))
    lhs = (f * g).eval_float(point[0], point[1], point[2])
    rhs = f.eval_float(*point) * g.eval_float(*point)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


class TestAlphaPolynomial:
    def test_arithmetic(self):
        a = AlphaPolynomial.alpha()
        one = AlphaPolynomial.one()
        assert (a + one) * (a - one) == AlphaPolynomial((-1, 0, 1))

    def test_trailing_zeros_trimmed(self):
        assert AlphaPolynomial((1, 2, 0, 0)) == AlphaPolynomial((1, 2))

    def test_evaluate(self):
        p = AlphaPolynomial((1, 2, 3))  # 1 + 2a + 3a^2
        assert p.evaluate(2) == 17
        assert p.evaluate(Fraction(1, 2)) == Fraction(11, 4)

    def test_is_natural(self):
        assert AlphaPolynomial((0, 2, 1)).is_natural()
        assert not AlphaPolynomial((-1, 2)).is_natural()
        assert not AlphaPolynomial((Fraction(1, 2),)).is_natural()

    def test_ints_and_equal_fractions_agree(self):
        # int coefficients stay ints, and a Fraction equal to an int gives
        # an equal polynomial with an equal hash
        ints = AlphaPolynomial((3, 0, -2))
        fracs = AlphaPolynomial((Fraction(6, 2), Fraction(0), Fraction(-2)))
        assert all(type(c) is int for c in ints.coeffs)
        assert ints == fracs and hash(ints) == hash(fracs)
        assert {ints: 1}[fracs] == 1
        assert AlphaPolynomial((Fraction(1),)).is_one() and AlphaPolynomial.one().is_one()
        assert all(type(c) is int for c in (ints * ints + ints).coeffs)
        half = ints.scale(Fraction(1, 2))
        assert half == AlphaPolynomial((Fraction(3, 2), 0, -1))
