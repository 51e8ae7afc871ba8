"""Exact arithmetic in Z[q,t] and Q(q,t): canonical forms, gcd, fractions."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

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

    def test_items_are_the_terms_unsorted(self):
        p = P({(1, 2): 3, (0, 0): -1, (2, 0): 5})
        assert list(p.items()) == [((1, 2), 3), ((0, 0), -1), ((2, 0), 5)]
        assert sorted(p.items()) == p.terms()

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


class TestPowers:
    @pytest.mark.parametrize(
        "x", [P({(1, 0): 2, (0, 1): -1, (0, 0): 3}), ExactScalar(ONE - T, ONE + Q)], ids=["poly", "scalar"]
    )
    @pytest.mark.parametrize("e", range(6))
    def test_power_is_the_repeated_product(self, x, e):
        product = type(x).one()
        for _ in range(e):
            product = product * x
        assert x**e == product

    @pytest.mark.parametrize("e", range(1, 5))
    def test_negative_scalar_power_is_the_inverse_power(self, e):
        # the inverse (1 + q)/(1 - t) is renormalized to (-1 - q)/(t - 1)
        x = ExactScalar(ONE - T, ONE + Q)
        assert x**-e == x.inverse() ** e
        assert (x**-e * x**e).is_one()

    def test_negative_polynomial_power_is_refused(self):
        with pytest.raises(ValueError):
            (ONE - T) ** -1

    def test_negative_power_of_zero_is_refused(self):
        with pytest.raises(DivisionByZero):
            ExactScalar.zero() ** -1

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_q_and_t_powers_are_monomials(self, k):
        assert ExactScalar.q(k) == ExactScalar.qt_monomial(k, 0) == ExactScalar.q() ** k
        assert ExactScalar.t(k) == ExactScalar.qt_monomial(0, k) == ExactScalar.t() ** k


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, st.integers(-6, 6), max_size=5).map(QTPolynomial)
nonzero_polys = polys.filter(bool)
scalars = st.tuples(polys, nonzero_polys).map(lambda p: ExactScalar(p[0], p[1]))


@given(polys, st.integers(1, 12))
def test_content_is_the_gcd_of_the_coefficients(p, k):
    """Nonnegative, 0 for zero, and a common factor k of every coefficient
    shows in it."""
    kp = P({e: k * c for e, c in p._terms.items()})
    assert p.content() == math.gcd(*p._terms.values())
    assert kp.content() == k * p.content()


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


@settings(deadline=None, max_examples=100)
@given(polys)
def test_product_by_one_is_the_other_operand(p):
    assert p * QTPolynomial.one() is p
    assert QTPolynomial.one() * p is p


@settings(deadline=None, max_examples=100)
@given(polys)
def test_json_terms_are_the_sorted_terms(p):
    assert p.to_json_terms() == [[a, b, str(c)] for (a, b), c in sorted(p.items())]


@settings(deadline=None, max_examples=100)
@example(QTPolynomial.zero())
@given(st.dictionaries(st.tuples(st.integers(-3, 4), st.integers(-3, 4)), st.integers(-6, 6), max_size=5).map(P))
def test_deg_q_is_the_largest_q_exponent(p):
    assert p.deg_q() == max((a for a, _ in p._terms), default=-1)


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


@settings(deadline=None, max_examples=150)
@given(scalars, scalars.filter(bool), polys, nonzero_polys, one_terms)
def test_quotient_is_the_product_by_the_inverse(x, y, p, d, m):
    # a random numerator, one that y's numerator divides, and zero, each
    # over y and over y's numerator on a monomial denominator
    planted = ExactScalar(y.num * p, d)
    over_monomial = ExactScalar(y.num, m)
    for a in (x, planted, ExactScalar.zero()):
        for b in (y, over_monomial):
            quot = a / b
            assert quot == a * b.inverse()
            assert is_canonical(quot)


def substitute_in_fractions(p, qv, tv):
    """The substitution with every coefficient and power as a Fraction."""
    acc = {}
    for (a, b), c in p.terms():
        v = Fraction(c)
        if qv is not None:
            v *= Fraction(qv) ** a
            a = 0
        if tv is not None:
            v *= Fraction(tv) ** b
            b = 0
        acc[(a, b)] = acc.get((a, b), Fraction(0)) + v
    den = math.lcm(1, *(v.denominator for v in acc.values()))
    return QTPolynomial({k: int(v * den) for k, v in acc.items()}), den


values = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)


@settings(deadline=None, max_examples=150)
@given(polys, values, values)
def test_substitute_matches_fraction_arithmetic(p, qv, tv):
    poly, den = p.substitute(qv, tv)
    assert (poly, den) == substitute_in_fractions(p, qv, tv)
    assert type(den) is int and all(type(c) is int for _, c in poly.terms())
    if all(v is None or Fraction(v).denominator == 1 for v in (qv, tv)):
        assert den == 1


points = st.one_of(
    st.integers(-3, 3),
    st.floats(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)


@settings(deadline=None, max_examples=200)
@given(st.one_of(scalars, polys.map(ExactScalar.from_poly)), points, points)
def test_evaluate_is_the_quotient_of_the_evaluations(x, qv, tv):
    """The value at a float, int or Fraction point (or a mix) is
    num(qv, tv) / den(qv, tv) in value and type, bit for bit, whether or
    not the denominator is 1; a vanishing denominator is a pole."""
    d = x.den.evaluate(qv, tv)
    if d == 0:
        with pytest.raises(PoleAtSpecialization):
            x.evaluate(qv, tv)
        return
    expected = x.num.evaluate(qv, tv) / d
    got = x.evaluate(qv, tv)
    assert (type(got), repr(got)) == (type(expected), repr(expected))


def test_substitute_a_negative_power_of_an_integer():
    # 3 q^-1 t^2 at q = 2, t = -1
    poly, den = P({(-1, 2): 3}).substitute(qv=2, tv=-1)
    assert (poly, den) == (P({(0, 0): 3}), 2)


def swapped(p):
    return QTPolynomial({(b, a): c for (a, b), c in p.terms()})


@settings(deadline=None, max_examples=150)
@given(scalars)
def test_swap_qt_is_the_reduced_swap_and_an_involution(x):
    y = x.swap_qt()
    assert y.swap_qt() == x
    assert y == ExactScalar(swapped(x.num), swapped(x.den))
    assert is_canonical(y)
    for qv, tv in [(Fraction(2, 3), Fraction(5, 7)), (Fraction(-3), Fraction(1, 2)), (Fraction(4, 5), Fraction(-7, 3))]:
        if x.den.evaluate(tv, qv):
            assert y.evaluate(qv, tv) == x.evaluate(tv, qv)


def test_swap_qt_renormalizes_the_sign():
    # 1/(t - q) is stored as -1/(q - t); swapped, the denominator t - q
    # leads with -q again, so the signs flip back: 1/(q - t)
    x = ExactScalar(ONE, T - Q)
    assert (x.num, x.den) == (-ONE, Q - T)
    y = x.swap_qt()
    assert (y.num, y.den) == (ONE, Q - T)
    assert y == -x


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
    packed = codec.pack(a)
    assert packed == _image(a, codec.B, codec.Q)
    v = packed + (codec.pack(b) << codec.B * (qa + codec.Q * tb))
    if expected:
        assert codec.unpack(v) == ExactScalar(expected) * ExactScalar.qt_monomial(qshift, tshift)
    else:
        assert v == 0


def _image(p, B, Q):
    """sum a 2^(B(i + Qj)) over the terms a q^i t^j of p."""
    return sum(a * 2 ** (B * (i + Q * j)) for (i, j), a in p._terms.items())


@pytest.mark.parametrize("bound", [2**62, 2**100], ids=["B64", "B128"])
@pytest.mark.parametrize("shape", ["sparse", "three-term", "dense"])
def test_kronecker_pack_is_the_image_sparse_or_dense(monkeypatch, bound, shape):
    """A sparse input (two terms over 155 digit slots) is packed as the sum
    of its shifted terms; a three-term one and a dense one (every slot
    filled) through the array of digits.  Each gives the image and decodes
    back, negative coefficients and the extreme digits included."""
    Q, top = 5, 30
    if shape == "dense":
        terms = {(i, j): (-1) ** (i + j) * (i + 7 * j + 1) for i in range(Q) for j in range(top + 1)}
        terms[0, 0], terms[Q - 1, top] = bound, -bound
    elif shape == "three-term":
        terms = {(0, 0): -bound, (2, 11): 3, (Q - 1, top): bound}
    else:
        terms = {(0, 0): -bound, (Q - 1, top): bound}
    p = P(terms)
    codec = qt.Kronecker(bound, Q)
    assert codec.B == (64 if bound < 2**63 else 128)
    arrays = []
    offset_of = qt.Kronecker._offset_of
    monkeypatch.setattr(qt.Kronecker, "_offset_of", lambda self, n: arrays.append(n) or offset_of(self, n))
    v = codec.pack(p)
    assert len(arrays) == (shape != "sparse")
    assert v == _image(p, codec.B, Q)
    assert codec.unpack(v) == ExactScalar.from_poly(p)
    assert codec.unpack(-v) == ExactScalar.from_poly(-p)


@pytest.mark.parametrize("B", [64, 128])
def test_kronecker_unpack_reads_the_extreme_digits_in_key_order(B):
    """Digits of +-(2^(B-1) - 1) decode as signed words, and the terms come
    back t-row by t-row, q within a row, whatever order p stored them in."""
    top = 2 ** (B - 1) - 1
    p = P({(2, 2): top, (0, 0): -top, (1, 1): -1, (2, 0): top, (0, 2): 1, (1, 0): -top})
    codec = qt.Kronecker(top, 3)
    assert codec.B == B
    for v in (codec.pack(p), -codec.pack(p)):
        out = codec.unpack(v)
        assert out == ExactScalar.from_poly(p if v > 0 else -p)
        assert list(out.num.items()) == sorted(out.num.items(), key=lambda kv: kv[0][::-1])


def _pack_times_polys(B):
    """Constants, monomials, Z[t] and mixed q,t polynomials with q-degree
    below 5, over coefficients +-1, small ones and +-(2^(B-1) - 1)."""
    top = 2 ** (B - 1) - 1
    coeffs = st.sampled_from([1, -1, top, -top]) | st.integers(-6, 6).filter(bool)
    return st.one_of(
        coeffs.map(lambda a: P({(0, 0): a})),
        st.builds(lambda e, a: P({e: a}), exponents, coeffs),
        st.dictionaries(st.tuples(st.just(0), st.integers(0, 6)), coeffs, min_size=1, max_size=6).map(P),
        st.dictionaries(exponents, coeffs, min_size=1, max_size=6).map(P),
    )


@pytest.mark.parametrize("B", [64, 128])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_kronecker_pack_times_is_the_product_by_the_image(B, data):
    """pack_times(p, v) is the int v * pack(p), for any v; where the
    product's digits fit, it unpacks to v p."""
    top = 2 ** (B - 1) - 1
    p = data.draw(_pack_times_polys(B))
    codec = qt.Kronecker(top, 5)
    assert codec.B == B
    v = data.draw(st.integers(-(2**300), 2**300))
    assert codec.pack_times(p, v) == v * codec.pack(p)
    most = top // max(map(abs, p._terms.values()))
    v = data.draw(st.integers(-most, most).filter(bool))
    assert codec.unpack(codec.pack_times(p, v)) == ExactScalar.from_poly(p * P({(0, 0): v}))


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
