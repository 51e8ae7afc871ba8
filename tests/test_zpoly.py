"""Sparse Laurent polynomials in z and the alpha-coefficient ring."""

import contextlib
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kostka_forge.errors import DimensionMismatch, NotDivisible
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
    def test_laurent_quotient(self):
        g = z(2, 1) - z(2, 2)
        f = (z(2, 1) + z(2, 2) ** 2).monomial_mul((-1, 2))
        assert (f * g).exact_divide(g) == f

    def test_missing_quotient_is_refused(self):
        # every lead-term step would emit a smaller Laurent term, forever
        with pytest.raises(NotDivisible):
            ZPolynomial.one(2).exact_divide(z(2, 1) - z(2, 2))

    def test_remainder_is_refused(self):
        g = z(2, 1) - z(2, 2)
        with pytest.raises(NotDivisible):
            (g * g + z(2, 1)).exact_divide(g)


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


def test_exact_divide_by_a_monic_divisor_keeps_integers():
    f = ZPolynomial(2, {(2, 0): 3, (0, 2): -3})
    g = ZPolynomial(2, {(1, 0): 1, (0, 1): -1})
    quot = f.exact_divide(g)
    assert quot.terms == {(1, 0): 3, (0, 1): 3}
    assert all(type(c) is int for c in quot.terms.values())


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
