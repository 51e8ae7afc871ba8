"""Exact arithmetic in Z[q,t] and Q(q,t): canonical forms, gcd, fractions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kostka_forge.errors import DivisionByZero, NotDivisible, PoleAtSpecialization
from kostka_forge.qt import ExactScalar, QTPolynomial


def P(terms):
    return QTPolynomial(terms)


ONE = QTPolynomial.one()
T = QTPolynomial.t()
Q = QTPolynomial.q()


# ---------------------------------------------------------------------------
# hand examples
# ---------------------------------------------------------------------------


class TestPolynomialArithmetic:
    def test_difference_of_squares(self):
        assert (ONE - T) * (ONE + T) == ONE - QTPolynomial.t(2)

    def test_additive_identity(self):
        p = P({(1, 2): 3, (0, 0): -1})
        assert p + QTPolynomial.zero() == p

    def test_cross_product(self):
        # (1 - qt)(1 - t) = 1 - t - qt + qt^2
        lhs = (ONE - Q * T) * (ONE - T)
        rhs = P({(0, 0): 1, (0, 1): -1, (1, 1): -1, (1, 2): 1})
        assert lhs == rhs
        assert lhs.evaluate(2, 3) == (1 - 2 * 3) * (1 - 3)

    def test_exact_divide_geometric(self):
        assert (ONE - QTPolynomial.t(2)).exact_divide(ONE - T) == ONE + T

    def test_exact_divide_zero_numerator(self):
        assert QTPolynomial.zero().exact_divide(ONE - T) == QTPolynomial.zero()

    def test_exact_divide_cross(self):
        prod = P({(0, 0): 1, (0, 1): -1, (1, 1): -1, (1, 2): 1})
        assert prod.exact_divide(ONE - T) == ONE - Q * T

    def test_exact_divide_rejects_remainder(self):
        with pytest.raises(NotDivisible):
            (ONE - T).exact_divide(ONE - Q)

    def test_substitute_partial(self):
        p = P({(1, 1): 1, (0, 0): 1})  # 1 + qt
        poly, den = p.substitute(qv=Fraction(1, 2))
        assert den == 2
        assert poly == P({(0, 1): 1, (0, 0): 2})


class TestScalarArithmetic:
    def test_zero_plus_x(self):
        x = ExactScalar(ONE - T, ONE - Q * T)
        assert ExactScalar.zero() + x == x

    def test_reciprocal_product(self):
        x = ExactScalar(ONE - T, ONE - Q * T)
        y = ExactScalar(ONE - Q * T, ONE - T)
        assert (x * y).is_one()

    def test_integer_denominator_normalization(self):
        x = ExactScalar.one() - ExactScalar.q() * ExactScalar.t()
        assert x == ExactScalar.from_poly(ONE - Q * T)
        assert x.is_integral()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ExactScalar.one() / ExactScalar.zero()
        with pytest.raises(DivisionByZero):
            ExactScalar(ONE, QTPolynomial.zero())

    def test_negative_monomial_powers(self):
        x = ExactScalar.qt_monomial(2, -3)
        assert x.num == QTPolynomial.q(2)
        assert x.den == QTPolynomial.t(3)

    def test_denominator_sign_normalized(self):
        # (1) / (t - 1) must carry the sign into the numerator
        x = ExactScalar(ONE, T - ONE)
        assert x.den.leading()[1] > 0
        assert x == ExactScalar(-ONE, ONE - T)

    def test_specialize(self):
        x = ExactScalar(ONE - T, ONE - Q * T)
        assert x.specialize(qv=0, tv=0).is_one()
        y = x.specialize(tv=Fraction(1, 2))
        assert y == ExactScalar(P({(0, 0): 1}), P({(0, 0): 2, (1, 0): -1}))

    def test_specialize_at_a_pole(self):
        x = ExactScalar(ONE, ONE - T)
        with pytest.raises(PoleAtSpecialization):
            x.specialize(tv=1)
        with pytest.raises(PoleAtSpecialization):
            ExactScalar(ONE, ONE - Q * T).specialize(qv=1, tv=1)

    def test_json_round_trip(self):
        x = ExactScalar(ONE - T, ONE - Q * T)
        assert ExactScalar.from_json(x.to_json()) == x


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, st.integers(-6, 6), max_size=5).map(QTPolynomial)
nonzero_polys = polys.filter(bool)
scalars = st.tuples(polys, nonzero_polys).map(lambda p: ExactScalar(p[0], p[1]))


def is_canonical(x):
    if not x.num:
        return x.den.is_one()
    return QTPolynomial.gcd(x.num, x.den).is_one() and x.den.leading()[1] > 0


@settings(deadline=None, max_examples=150)
@given(scalars)
def test_canonical_idempotence(x):
    assert ExactScalar(x.num, x.den) == x
    assert is_canonical(x)


@settings(deadline=None, max_examples=100)
@given(polys, polys, polys)
def test_ring_axioms_polynomials(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(deadline=None, max_examples=80)
@given(scalars, scalars, scalars)
def test_field_axioms_scalars(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == ExactScalar.zero()
    if y:
        assert (x / y) * y == x


@settings(deadline=None, max_examples=150)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = QTPolynomial.gcd(a, b)
    qa = a.exact_divide(g)
    qb = b.exact_divide(g)
    assert qa * g == a and qb * g == b
    # and the quotients are coprime, so g is the greatest divisor
    assert QTPolynomial.gcd(qa, qb).is_one()


@settings(deadline=None, max_examples=100)
@given(polys, polys)
def test_evaluation_homomorphism(a, b):
    qv, tv = Fraction(2, 3), Fraction(5, 7)
    assert (a * b).evaluate(qv, tv) == a.evaluate(qv, tv) * b.evaluate(qv, tv)
    assert (a + b).evaluate(qv, tv) == a.evaluate(qv, tv) + b.evaluate(qv, tv)
