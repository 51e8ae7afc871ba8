"""Exact arithmetic in Z[q,t] and its fraction field Q(q,t).

QTPolynomial is a sparse bivariate polynomial with arbitrary-precision
integer coefficients, keyed by exponent pairs (a, b) for q^a * t^b and
kept in canonical form (no zero coefficients).  ExactScalar is a reduced
fraction of two QTPolynomials; reduction happens eagerly after every
operation so that equality is syntactic and integrality can be read off
the denominator.

The bivariate gcd is the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
J. Symbolic Comput. 7 (1989) 31-48): evaluate t at a large integer xi,
take the gcd of the images in Z[q] with QTPolynomial.gcd itself (which
evaluates q the same way, so one level down the images are integers),
read the result back in symmetric base-xi digits and accept it only if
it divides both operands exactly; with xi at least 2 * min(|a|, |b|) + 2
(max norms) an accepted candidate is the gcd.  A rejected point moves on
to a larger one, and a large enough point is always accepted (see
_heu_gcd), so the heuristic is the only gcd algorithm.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import compress
from math import gcd as _igcd
from math import isqrt

from .errors import DivisionByZero, NotDivisible, PoleAtSpecialization

# ---------------------------------------------------------------------------
# heuristic gcd: evaluate, gcd of the images, interpolate, check by division
# ---------------------------------------------------------------------------


def _digits(n, xi):
    """Symmetric base-xi digits of the integer n, low to high."""
    out = []
    half = xi // 2
    while n:
        d = n % xi
        if d > half:
            d -= xi
        out.append(d)
        n = (n - d) // xi
    return out


def _heu_gcd(a, b):
    """Gcd of primitive a, b in Z[q,t] with two or more terms each,
    lex-leading coefficient positive, by GCDHEU: evaluate the last variable
    that occurs (t, or q when neither operand has t) at xi, take the gcd of
    the images with QTPolynomial.gcd, read it back in symmetric base-xi
    digits in that variable as a primitive candidate h, and accept h if it
    divides a and b exactly; otherwise move on to a larger xi.  Every xi is
    at least 2 * min(|a|_inf, |b|_inf) + 2, so an accepted candidate is the
    gcd.  The gcd of the images has a positive lex-leading coefficient, and
    the top symmetric digit of a positive integer is positive, so an
    accepted candidate has one too.

    The loop ends.  Write a = G*A and b = G*B with G the gcd and A, B
    coprime; the gcd of the images at xi is gamma * G(xi), gamma the gcd of
    the cofactor images.  With q evaluated, gamma is an integer dividing
    res(A, B), a fixed nonzero integer.  With t evaluated, once xi is none
    of the finitely many roots of res_q(A, B)(t) or of the leading
    q-coefficients, gamma is an integer, and it divides a fixed nonzero
    integer because the contents of A and B are coprime.  So once xi >
    2 * |gamma| * |G|_inf the digits give back gamma * G, whose primitive
    part G is accepted.  The points grow like xi^(5/4), so reaching any
    such bound takes O(log log bound) points."""
    on_t = a.deg_t() > 0 or b.deg_t() > 0
    xi = 2 * min(max(map(abs, a._terms.values())), max(map(abs, b._terms.values()))) + 29
    while True:
        at = (None, xi) if on_t else (xi, None)
        g = QTPolynomial.gcd(a.substitute(*at)[0], b.substitute(*at)[0])
        terms = {}
        for (x, y), n in g._terms.items():
            for j, d in enumerate(_digits(n, xi)):
                if d:
                    terms[(x, j) if on_t else (j, y)] = d
        h = QTPolynomial._of(terms)
        cont = h.content()
        if cont > 1:
            h = QTPolynomial._of({k: v // cont for k, v in terms.items()})
        try:
            if not h.is_one():
                a.exact_divide(h)
                b.exact_divide(h)
            return h
        except NotDivisible:
            pass
        # the next point, xi * floor(xi^(1/4)) * 73794 / 27011
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


# ---------------------------------------------------------------------------
# QTPolynomial
# ---------------------------------------------------------------------------


class QTPolynomial:
    """Sparse polynomial in Z[q,t]; terms map (a, b) -> nonzero int."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in terms.items():
                if c:
                    t[k] = c
        self._terms = t
        self._hash = None

    @classmethod
    def _of(cls, terms):
        """Wrap terms that hold no zero coefficient, without a copy."""
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return _QT_ZERO

    @classmethod
    def one(cls):
        return _QT_ONE

    @classmethod
    def const(cls, c):
        return cls({(0, 0): int(c)})

    @classmethod
    def q(cls, power=1):
        return cls({(power, 0): 1})

    @classmethod
    def t(cls, power=1):
        return cls({(0, power): 1})

    @classmethod
    def monomial(cls, a, b, c=1):
        return cls({(a, b): c})

    # -- structure ----------------------------------------------------------

    def terms(self):
        """Terms as ((a, b), coeff) in increasing lexicographic order."""
        return sorted(self._terms.items())

    def items(self):
        """Terms as ((a, b), coeff) in storage order: a view, not sorted."""
        return self._terms.items()

    def __bool__(self):
        return bool(self._terms)

    def is_one(self):
        return self._terms == {(0, 0): 1}

    def const_value(self):
        return self._terms.get((0, 0), 0)

    def deg_q(self):
        # the lex-largest key has the largest q-exponent
        return max(self._terms)[0] if self._terms else -1

    def deg_t(self):
        return max((b for _, b in self._terms), default=-1)

    def norm1(self):
        """Sum of the absolute values of the coefficients."""
        return sum(map(abs, self._terms.values()))

    def leading(self):
        """Lexicographically largest term ((a, b), coeff); q before t."""
        k = max(self._terms)
        return k, self._terms[k]

    def content(self):
        return _igcd(*self._terms.values())

    def __eq__(self, other):
        if not isinstance(other, QTPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return QTPolynomial._of(out)

    def __neg__(self):
        return QTPolynomial._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # by 1: the types are immutable, so the other operand is the product; one() * p is p for p = 1 too
        if other._terms == _QT_ONE._terms and self is not _QT_ONE:
            return self
        if self._terms == _QT_ONE._terms:
            return other
        if len(self._terms) == 1:
            self, other = other, self
        if len(other._terms) == 1:
            # by c q^a t^b: every exponent shifts, every coefficient scales
            (((a, b), c),) = other._terms.items()
            return QTPolynomial._of({(x + a, y + b): v * c for (x, y), v in self._terms.items()})
        out = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return QTPolynomial._of(out)

    def scale(self, c):
        if not c:
            return _QT_ZERO
        return QTPolynomial({k: v * c for k, v in self._terms.items()})

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return _repeated_squaring(self, e) if e else _QT_ONE

    # -- division and gcd ---------------------------------------------------

    def exact_divide(self, other):
        """Quotient self / other in Z[q,t]; raises NotDivisible otherwise."""
        if not other._terms:
            raise NotDivisible("division by zero")
        if len(other._terms) == 1:
            # by c q^a t^b: each term divides on its own, or nothing does
            (((la, lb), lc),) = other._terms.items()
            quot = {}
            for (x, y), v in self._terms.items():
                if x < la or y < lb or v % lc:
                    raise NotDivisible("remainder is nonzero")
                quot[(x - la, y - lb)] = v // lc
            return QTPolynomial._of(quot)
        (la, lb), lc = other.leading()
        rem = dict(self._terms)
        quot = {}
        while rem:
            (a, b) = max(rem)
            c = rem[(a, b)]
            if a < la or b < lb or c % lc:
                raise NotDivisible("remainder is nonzero")
            k = (a - la, b - lb)
            qc = c // lc
            quot[k] = qc
            for (a2, b2), c2 in other._terms.items():
                kk = (k[0] + a2, k[1] + b2)
                s = rem.get(kk, 0) - qc * c2
                if s:
                    rem[kk] = s
                elif kk in rem:
                    del rem[kk]
        return QTPolynomial(quot)

    @staticmethod
    def gcd(a, b):
        """Gcd in Z[q,t], content included, lex-leading coefficient positive."""
        if not a._terms:
            return b._positive()
        if not b._terms:
            return a._positive()
        if len(b._terms) == 1:
            a, b = b, a
        if len(a._terms) == 1:
            # against a single term the gcd is a monomial, and 1 against +-1
            (((mq, mt), c),) = a._terms.items()
            c = abs(c)
            if c == 1 and not mq and not mt:
                return QTPolynomial.one()
            for (x, y), v in b._terms.items():
                if x < mq:
                    mq = x
                if y < mt:
                    mt = y
                if c != 1:
                    c = _igcd(c, v)
            return QTPolynomial.monomial(mq, mt, c)
        # split off the monomial and integer contents on each side
        a, aq, at, ca = a._primitive()
        b, bq, bt, cb = b._primitive()
        g = _heu_gcd(a, b)
        mq, mt, c = min(aq, bq), min(at, bt), _igcd(ca, cb)
        if mq or mt or c != 1:
            g = QTPolynomial({(x + mq, y + mt): v * c for (x, y), v in g._terms.items()})
        return g

    def _primitive(self):
        """(p, e, f, c) with self = c * q^e * t^f * p, where p has integer
        content 1 and is divisible by neither q nor t."""
        e = min(x for x, _ in self._terms)
        f = min(y for _, y in self._terms)
        c = self.content()
        if not e and not f and c == 1:
            return self, 0, 0, 1
        return QTPolynomial({(x - e, y - f): v // c for (x, y), v in self._terms.items()}), e, f, c

    def _positive(self):
        if self._terms and self.leading()[1] < 0:
            return -self
        return self

    # -- evaluation and specialization --------------------------------------

    def evaluate(self, qv, tv):
        return sum(c * qv**a * tv**b for (a, b), c in self._terms.items())

    def substitute(self, qv=None, tv=None):
        """Partially substitute rational values; returns (poly, denominator).

        The result is num_poly / denominator with num_poly in Z[q,t] (a
        surviving variable keeps its exponents) and denominator a positive int.
        Integer values (ints, or Fractions with denominator 1) keep the
        arithmetic in ints, and the denominator is 1.
        """
        qv, tv = _exact_value(qv), _exact_value(tv)
        acc = {}
        for (a, b), c in self._terms.items():
            if qv is not None:
                c *= _power(qv, a)
                a = 0
            if tv is not None:
                c *= _power(tv, b)
                b = 0
            acc[(a, b)] = acc.get((a, b), 0) + c
        den = 1
        for v in acc.values():
            den = den * v.denominator // _igcd(den, v.denominator)
        terms = {k: int(v * den) for k, v in acc.items() if v}
        return QTPolynomial(terms), den

    # -- serialization ------------------------------------------------------

    def to_json_terms(self):
        t = self._terms
        return [[*k, str(t[k])] for k in sorted(t)]

    @classmethod
    def from_json_terms(cls, data):
        return cls({(int(a), int(b)): int(c) for a, b, c in data})

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (a, b), c in sorted(self._terms.items(), reverse=True):
            mono = "*".join(
                ([f"q^{a}" if a > 1 else "q"] if a else [])
                + ([f"t^{b}" if b > 1 else "t"] if b else [])
            )
            if not mono:
                frag = str(abs(c))
            elif abs(c) == 1:
                frag = mono
            else:
                frag = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + frag)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self):
        return f"QTPolynomial({self})"


_QT_ZERO = QTPolynomial()
_QT_ONE = QTPolynomial({(0, 0): 1})


def _exact_value(v):
    """A value to substitute: an int if it is an integer, else a Fraction."""
    if v is None:
        return None
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _power(v, e):
    """v**e exactly; a negative power of an int is a Fraction."""
    return Fraction(v) ** e if e < 0 else v**e


def _repeated_squaring(x, e):
    """x**e for e >= 1 by repeated squaring.  Only powers of x are
    multiplied, so x's ring needs no one; each __pow__ (QTPolynomial,
    ExactScalar, ZPolynomial) handles e <= 0 itself."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else out * x
        e >>= 1
        if not e:
            return out
        x = x * x


# ---------------------------------------------------------------------------
# ExactScalar: reduced fractions in Q(q,t)
# ---------------------------------------------------------------------------


def _cancel(a, b):
    """g = gcd(a, b) and the cofactors a/g and b/g; no division when g = 1."""
    g = QTPolynomial.gcd(a, b)
    if g.is_one():
        return g, a, b
    return g, a.exact_divide(g), b.exact_divide(g)


def _positive_den(num, den):
    """(num, den) with the denominator's lex-leading coefficient positive."""
    if den.leading()[1] < 0:
        return -num, -den
    return num, den


class ExactScalar:
    """Element of Q(q,t) as a reduced fraction of integer polynomials.

    Invariants: the denominator is nonzero, gcd(num, den) = 1 in Z[q,t]
    (integer content included) and the denominator's lex-leading
    coefficient is positive.  Zero is (0, 1).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = _QT_ONE
        if not den:
            raise DivisionByZero("zero denominator")
        if not _reduced:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num, den):
        if not num:
            return _QT_ZERO, _QT_ONE
        if not den.is_one():
            _, num, den = _cancel(num, den)
        return _positive_den(num, den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ES_ZERO

    @classmethod
    def one(cls):
        return _ES_ONE

    @classmethod
    def from_int(cls, c):
        return cls(QTPolynomial.const(c), _QT_ONE, _reduced=c != 0)

    @classmethod
    def from_fraction(cls, f):
        try:
            f = Fraction(f)
        except ZeroDivisionError:
            raise DivisionByZero(f"zero denominator in {f!r}") from None
        return cls(QTPolynomial.const(f.numerator), QTPolynomial.const(f.denominator))

    @classmethod
    def from_poly(cls, p):
        return cls(p, _QT_ONE, _reduced=True)

    @classmethod
    def q(cls, power=1):
        return cls.qt_monomial(power, 0)

    @classmethod
    def t(cls, power=1):
        return cls.qt_monomial(0, power)

    @classmethod
    def qt_monomial(cls, a, b):
        """q^a * t^b with a, b in Z."""
        num = QTPolynomial.monomial(max(a, 0), max(b, 0))
        den = QTPolynomial.monomial(max(-a, 0), max(-b, 0))
        return cls(num, den, _reduced=True)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_integral(self):
        """True iff the reduced denominator is a unit of Z[q,t]."""
        return self.den.is_one()

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        if not other:
            return self
        if not self:
            return other
        d1, d2 = self.den, other.den
        if d1 == d2:
            num = self.num + other.num
            if not num:
                return _ES_ZERO
            if d1.is_one():
                return ExactScalar(num, d1, _reduced=True)
            _, num, den = _cancel(num, d1)
            return ExactScalar(num, den, _reduced=True)
        # with both operands reduced, a common factor of the combined numerator
        # and denominator divides g = gcd(d1, d2), and d1 != d2 makes the sum nonzero
        g, d1g, d2g = _cancel(d1, d2)
        num = self.num * d2g + other.num * d1g
        _, num, g = _cancel(num, g)
        return ExactScalar(num, d1g * d2g * g, _reduced=True)

    def __neg__(self):
        return ExactScalar(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self or not other:
            return _ES_ZERO
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1.is_one() and d2.is_one():
            return ExactScalar(n1 * n2, _QT_ONE, _reduced=True)
        # cross-cancel so the products below are already coprime
        if not d2.is_one():
            _, n1, d2 = _cancel(n1, d2)
        if not d1.is_one():
            _, n2, d1 = _cancel(n2, d1)
        return ExactScalar(n1 * n2, d1 * d2, _reduced=True)

    def __truediv__(self, other):
        """Where other's numerator divides self's in Z[q,t], the quotient
        times other's denominator, over self's denominator (reduced by
        gcds against self's denominator only); otherwise self times
        other's inverse."""
        if not other:
            raise DivisionByZero("division by zero scalar")
        if not self:
            return _ES_ZERO
        try:
            quot = self.num.exact_divide(other.num)
        except NotDivisible:
            return self * other.inverse()
        return ExactScalar(quot if other.den.is_one() else quot * other.den, self.den)

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        return ExactScalar(*_positive_den(self.den, self.num), _reduced=True)

    def __pow__(self, e):
        if e < 0:
            return _repeated_squaring(self.inverse(), -e)
        return _repeated_squaring(self, e) if e else _ES_ONE

    def swap_qt(self):
        """The image under q <-> t: (a, b) -> (b, a) in the numerator and
        the denominator.  The swap keeps gcd(num, den) = 1 but moves the
        lex-leading term, so only the sign is normalized again."""
        num = QTPolynomial._of({(b, a): c for (a, b), c in self.num._terms.items()})
        den = QTPolynomial._of({(b, a): c for (a, b), c in self.den._terms.items()})
        return ExactScalar(*_positive_den(num, den), _reduced=True)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, qv, tv):
        if self.den.is_one():
            # qv**0 * tv**0 is the 1 that den.evaluate gives, of its type:
            # a zero numerator over it stays a Fraction at a Fraction point
            return self.num.evaluate(qv, tv) / (qv**0 * tv**0)
        d = self.den.evaluate(qv, tv)
        if d == 0:
            raise PoleAtSpecialization(f"denominator vanishes at q={qv}, t={tv}")
        return self.num.evaluate(qv, tv) / d

    def specialize(self, qv=None, tv=None):
        """Substitute rational values for q and/or t, staying exact."""
        n, nd = self.num.substitute(qv, tv)
        d, dd = self.den.substitute(qv, tv)
        if not d:
            raise PoleAtSpecialization(f"denominator vanishes at q={qv}, t={tv}")
        return ExactScalar(n.scale(dd), d.scale(nd))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"num": self.num.to_json_terms(), "den": self.den.to_json_terms()}

    @classmethod
    def from_json(cls, data):
        return cls(
            QTPolynomial.from_json_terms(data["num"]),
            QTPolynomial.from_json_terms(data["den"]),
        )

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"ExactScalar({self})"


_ES_ZERO = ExactScalar(_QT_ZERO, _QT_ONE, _reduced=True)
_ES_ONE = ExactScalar(_QT_ONE, _QT_ONE, _reduced=True)


# ---------------------------------------------------------------------------
# Kronecker substitution: a polynomial in Z[q,t] as one int
# ---------------------------------------------------------------------------

_WORDS_ARE_LITTLE = sys.byteorder == "little"


class Kronecker:
    """Z[q,t] in Z by the substitution q -> 2^B, t -> 2^(B*Q):
    sum a_ij q^i t^j maps to sum a_ij 2^(B*(i + Q*j)).

    The map is a ring homomorphism, so a sum is one int addition, a
    product by q^a t^b is a left shift by B*(a + Q*b) (times; 1 - t in
    one_minus_t), and v times the image of a sparse p is a sum of shifted
    copies of v (pack_times).  An int decodes back to the polynomial it
    is the image of whenever that polynomial has q-degree below Q and
    coefficients in (-2^(B-1), 2^(B-1)) (holds): they are then its
    balanced base-2^B digits.
    Both directions go through bytes against an offset whose digits are
    all 2^(B-1) (adding it makes every digit nonnegative without a
    carry), so each is linear in the size.
    """

    __slots__ = ("B", "Q", "_qshift", "_tshift", "_nbytes", "_half", "_ndigits", "_offset", "_keys")

    def __init__(self, bound, Q, qshift=0, tshift=0):
        """B is the least multiple of 64 with bound < 2^(B-1), so digits of
        absolute value at most bound decode; unpack multiplies by
        q^qshift t^tshift."""
        self.B = 64 * ((bound.bit_length() + 64) // 64)
        self.Q = Q
        self._qshift = qshift
        self._tshift = tshift
        self._nbytes = self.B // 8
        self._half = 1 << (self.B - 1)
        self._ndigits = 0
        self._offset = 0
        self._keys = []

    def _offset_of(self, ndigits):
        """The offset with ndigits digits, all 2^(B-1); grows the stored
        offset and the table of decoded exponents to cover them."""
        B = self.B
        if ndigits > self._ndigits:
            self._ndigits = max(ndigits, 2 * self._ndigits)
            self._offset = self._half * ((1 << (B * self._ndigits)) - 1) // ((1 << B) - 1)
            Q, s, u = self.Q, self._qshift, self._tshift
            self._keys = [(i + s, j + u) for j in range(-(-self._ndigits // Q)) for i in range(Q)]
        return self._offset >> (B * (self._ndigits - ndigits))

    def pack(self, p):
        """The image of a nonzero p with q-degree below Q and coefficients
        inside the digit bound.

        A p with at most two terms is packed as the sum of its shifted
        terms, pack_times(p, 1); any other through the array of its digits,
        which touches each digit slot once."""
        terms = p._terms
        if len(terms) <= 2:
            return self.pack_times(p, 1)
        Q, half, nbytes = self.Q, self._half, self._nbytes
        ndigits = Q * (max(j for _, j in terms) + 1)
        offset = self._offset_of(ndigits)
        if nbytes == 8 and _WORDS_ARE_LITTLE:
            words = array("Q", [half]) * ndigits
            for (i, j), a in terms.items():
                words[i + Q * j] = a + half
            return int.from_bytes(words, "little") - offset
        buf = bytearray(offset.to_bytes(ndigits * nbytes, "little"))
        for (i, j), a in terms.items():
            k = (i + Q * j) * nbytes
            buf[k : k + nbytes] = (a + half).to_bytes(nbytes, "little")
        return int.from_bytes(buf, "little") - offset

    def times(self, v, a, b=0):
        """v times q^a t^b, for a, b >= 0."""
        return v << self.B * (a + self.Q * b)

    def one_minus_t(self, v):
        """(1 - t) v."""
        return v - (v << self.B * self.Q)

    def holds(self, bound):
        """True iff digits of absolute value at most bound decode."""
        return bound < self._half

    def pack_times(self, p, v):
        """v times the image of p, as the sum of (a*v) << B*(i + Q*j) over
        the terms a q^i t^j of p: a product by each small a and a shift, in
        place of a product of v by the many-digit image of p."""
        B, Q = self.B, self.Q
        w = 0
        for (i, j), a in p._terms.items():
            w += a * v << B * (i + Q * j)
        return w

    def unpack(self, v):
        """q^qshift t^tshift times the polynomial whose image is the nonzero
        int v, as a reduced ExactScalar: the negative q- and t-exponents
        that the shifts leave go to a monomial denominator, with no gcd.

        Each digit of v + offset is d + 2^(B-1) for the digit d of v, so
        xor with the offset flips its top bit and leaves d as a signed
        B-bit word: at B = 64 the words are read in C by one cast, and
        compress keeps the nonzero ones with their exponents without a
        Python-level test per slot.  The terms come in the order of the
        table of exponents, t-row by t-row, so the first has the least
        t-exponent."""
        B, nbytes = self.B, self._nbytes
        # a top digit d != 0 over lower digits below 2^(B-1) gives |v| >=
        # 2^(B*top - 2), so this many digits hold all of v
        ndigits = (abs(v).bit_length() + 1) // B + 1
        offset = self._offset_of(ndigits)
        buf = ((v + offset) ^ offset).to_bytes(ndigits * nbytes, "little")
        if nbytes == 8 and _WORDS_ARE_LITTLE:
            words = memoryview(buf).cast("q").tolist()
        else:
            words = [int.from_bytes(buf[k : k + nbytes], "little", signed=True) for k in range(0, len(buf), nbytes)]
        terms = dict(compress(zip(self._keys, words), words))
        dq = max(-min(terms)[0], 0) if self._qshift < 0 else 0
        dt = max(-next(iter(terms))[1], 0) if self._tshift < 0 else 0
        if dq or dt:
            num = QTPolynomial._of({(i + dq, j + dt): a for (i, j), a in terms.items()})
            # num has a q^0 term if dq > 0 and a t^0 term if dt > 0, so it
            # is coprime to the monomial denominator
            return ExactScalar(num, QTPolynomial.monomial(dq, dt), _reduced=True)
        return ExactScalar(QTPolynomial._of(terms), _QT_ONE, _reduced=True)
