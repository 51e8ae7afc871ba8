"""Exact arithmetic in Z[q,t] and Q(q,t): canonical forms, gcd, fractions."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kostka_forge import qt
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


# ---------------------------------------------------------------------------
# one-term operands: multiplication and division as exponent shifts
# ---------------------------------------------------------------------------


def double_loop_product(a, b):
    out = {}
    for (x1, y1), c1 in a.terms():
        for (x2, y2), c2 in b.terms():
            k = (x1 + x2, y1 + y2)
            out[k] = out.get(k, 0) + c1 * c2
    return QTPolynomial(out)


one_terms = st.builds(
    QTPolynomial.monomial, st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6).filter(bool)
)


@settings(deadline=None, max_examples=150)
@given(polys, one_terms)
def test_one_term_product_and_quotient(p, m):
    expected = double_loop_product(p, m)
    assert p * m == expected and m * p == expected
    assert 0 not in (p * m)._terms.values()
    assert (p * m).exact_divide(m) == p


@settings(deadline=None, max_examples=150)
@given(polys, polys)
def test_sum_negation_and_product_hold_no_zero_terms(a, b):
    for p in (a + b, -a, a - b, a * b, a - a):
        assert 0 not in p._terms.values()
    assert not (a - a)


@settings(deadline=None, max_examples=150)
@given(polys, polys)
def test_integral_product_is_the_reduced_product(a, b):
    x, y = ExactScalar.from_poly(a), ExactScalar.from_poly(b)
    product = x * y
    assert product == ExactScalar(a * b, ONE)
    assert product.den.is_one()
    assert is_canonical(product)


def test_one_term_divisor_refuses_a_remainder():
    with pytest.raises(NotDivisible):
        (Q + T).exact_divide(Q)  # t has no factor q
    with pytest.raises(NotDivisible):
        (Q + T).exact_divide(T)  # q has no factor t
    with pytest.raises(NotDivisible):
        (Q.scale(2) + ONE.scale(3)).exact_divide(ONE.scale(2))  # 3 is odd


# ---------------------------------------------------------------------------
# Kronecker substitution
# ---------------------------------------------------------------------------

wide_polys = st.dictionaries(
    exponents, st.integers(-(2**130), 2**130).filter(bool), min_size=1, max_size=5
).map(QTPolynomial)


@settings(deadline=None, max_examples=150)
@given(wide_polys, wide_polys, st.integers(-6, 3), st.integers(-6, 3), st.integers(0, 2), st.integers(0, 2))
def test_kronecker_sums_and_shifts_decode(a, b, qshift, tshift, qa, tb):
    """pack is additive, a shift multiplies by q^qa t^tb, and unpack gives
    back the product by q^qshift t^tshift, over a monomial where an
    exponent is negative."""
    expected = a + b * P({(qa, tb): 1})
    bound = max(max(map(abs, p._terms.values()), default=0) for p in (a, b, expected))
    codec = qt.Kronecker(bound, max(a.deg_q(), b.deg_q() + qa) + 1, qshift, tshift)
    # B is the least multiple of 64 that holds the bound
    assert codec.B % 64 == 0 and bound < 2 ** (codec.B - 1)
    assert codec.B == 64 or bound >= 2 ** (codec.B - 65)
    v = codec.pack(a) + (codec.pack(b) << codec.B * (qa + codec.Q * tb))
    if expected:
        assert codec.unpack(v) == ExactScalar(expected) * ExactScalar.qt_monomial(qshift, tshift)
    else:
        assert v == 0


# ---------------------------------------------------------------------------
# gcd against an independent reference
# ---------------------------------------------------------------------------

Q_SYM, T_SYM = sympy.symbols("q t")


def sympy_gcd(a, b):
    """Gcd over Z[q,t] by sympy, content included, lex-leading coefficient positive."""

    def poly(p):
        expr = sum((c * Q_SYM**x * T_SYM**y for (x, y), c in p.terms()), sympy.Integer(0))
        return sympy.Poly(expr, Q_SYM, T_SYM, domain="ZZ")

    g = QTPolynomial({m: int(c) for m, c in sympy.gcd(poly(a), poly(b)).terms()})
    return -g if g.leading()[1] < 0 else g


factor_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9), min_size=1, max_size=4
).map(QTPolynomial).filter(bool)
contents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 6)).map(
    lambda m: QTPolynomial.monomial(*m)
)


@settings(deadline=None, max_examples=150)
@given(factor_polys, factor_polys, factor_polys, contents, contents)
def test_gcd_matches_sympy_on_planted_factor(g, a, b, ca, cb):
    a, b = g * a * ca, g * b * cb
    assert QTPolynomial.gcd(a, b) == sympy_gcd(a, b)


Y_SYM = sympy.Symbol("y")


def upoly(f):
    """Z[y] tuple (low to high) as a sympy Poly."""
    return sympy.Poly(list(reversed(f)) or [0], Y_SYM, domain="ZZ")


def sympy_ugcd(f, g):
    """Gcd over Z[y] by sympy, content included, leading coefficient positive."""
    return qt._utrim(tuple(int(c) for c in reversed(sympy.gcd(upoly(f), upoly(g)).all_coeffs())))


def umul(f, g):
    return qt._utrim(tuple(int(c) for c in reversed((upoly(f) * upoly(g)).all_coeffs())))


upolys = st.lists(st.integers(-40, 40), min_size=1, max_size=5).map(qt._utrim).filter(bool)


@settings(deadline=None, max_examples=150)
@given(upolys, upolys, upolys)
def test_univariate_heuristic_matches_sympy(g, a, b):
    a, b = umul(g, a), umul(g, b)
    assert qt._uheu_gcd(a, b) == sympy_ugcd(a, b)


def test_heuristic_after_a_rejected_point():
    # at the first point xi = 31 the images of y - 1 and 1 - 29791 y share
    # the factor 30, whose digits read back as y - 1, which does not
    # divide 1 - 29791 y; the next point finds the gcd 1
    assert qt._uheu_gcd((-1, 1), (1, -29791)) == sympy_ugcd((-1, 1), (1, -29791)) == (1,)
    assert QTPolynomial.gcd(T - ONE, ONE - T.scale(29791)) == ONE


def test_heuristic_with_a_zero_image():
    # the first point is xi = 2 * 1 + 29 = 31, a root of t - 31 and of y - 31
    a, b = T - ONE.scale(31), T + ONE
    assert QTPolynomial.gcd(a, b) == sympy_gcd(a, b) == ONE
    assert str(ExactScalar(a, b)) == "(t - 31)/(t + 1)"
    assert qt._uheu_gcd((-31, 1), (1, 1)) == sympy_ugcd((-31, 1), (1, 1)) == (1,)
    assert qt._uheu_gcd((), (2, 4)) == qt._uheu_gcd((-2, -4), ()) == (2, 4)
    assert qt._uheu_gcd((), ()) == ()
    a, b = (Q - ONE.scale(31)) * (T + ONE), (Q + ONE) * (T + ONE)
    assert QTPolynomial.gcd(a, b) == sympy_gcd(a, b) == T + ONE


# the points _heu tries when the smaller max norm is 1: 2 * 1 + 29, then
# each one times the floor of its fourth root, times 73794 / 27011
POINTS = [
    31, 169, 1385, 22702, 744261, 58966268, 14015328567, 13171708628261, 68551582381583973,
]


@pytest.mark.parametrize("k", [6, 7, 8])
def test_heuristic_past_six_points(k, monkeypatch):
    # xi - 1 divides N at each of the first k points, so there the images of
    # y - 1 and y + N - 1 share the factor xi - 1, which reads back as y - 1
    # and is rejected; the next point finds the gcd 1
    n = math.lcm(*(xi - 1 for xi in POINTS[:k]))
    ueval, uheu_gcd = qt._ueval, qt._uheu_gcd
    points, image_gcds = [], []
    monkeypatch.setattr(qt, "_ueval", lambda p, x: points.append(x) or ueval(p, x))
    f, g = (-1, 1), (n - 1, 1)
    assert qt._uheu_gcd(f, g) == sympy_ugcd(f, g) == (1,)
    assert sorted(set(points)) == POINTS[: k + 1]
    # one level up, one image gcd per point
    monkeypatch.setattr(qt, "_uheu_gcd", lambda f, g: image_gcds.append(f) or uheu_gcd(f, g))
    a, b = T - ONE, T + ONE.scale(n - 1)
    assert QTPolynomial.gcd(a, b) == sympy_gcd(a, b) == ONE
    assert len(image_gcds) == k + 1
    # the same pairs times a planted factor, at both levels
    planted = (Q + T + ONE) * (Q - T.scale(3))
    assert QTPolynomial.gcd(a * planted, b * planted) == sympy_gcd(a * planted, b * planted)
    h = (5, -3, 2)
    assert uheu_gcd(umul(f, h), umul(g, h)) == sympy_ugcd(umul(f, h), umul(g, h)) == h
