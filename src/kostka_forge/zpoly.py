"""Sparse Laurent polynomials in z_1..z_n and rational alpha-polynomials.

ZPolynomial keeps a dict from exponent vectors (tuples in Z^n) to
coefficients.  The coefficient type is ExactScalar throughout the q,t
theory; the Jack degeneration reuses the same class with AlphaPolynomial
coefficients, and the Schur polynomials' divided differences with int
coefficients (any ring element with +, -, * and truthiness works;
exact_divide also needs / by a divisor's leading coefficient unless that
is 1, or // on ints).  f ** e for e >= 1 multiplies only powers of f, so
it works over every such ring; f ** 0 is the one of f's coefficient ring
(with an ExactScalar coefficient for the zero polynomial), and a negative
exponent is refused with ValueError.

ZPolynomial.exact_divide is classical division in the recursive
representation (Knuth, TAOCP vol. 2, 4.6.1): the dividend and the divisor
are cut into slices by the exponent of one variable, and the remainder's
top slice is divided by the divisor's top slice one variable further in.
A quotient that would need a level below the dividend's lowest is refused,
and the remainder's top level falls at every step, so the division ends.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, sub

from .errors import DimensionMismatch, NotDivisible
from .qt import ExactScalar, QTPolynomial, _repeated_squaring


class ZPolynomial:
    """Laurent polynomial in n variables with exact coefficients.

    The constructor drops zero coefficients, so no stored coefficient is
    zero; the ring operations sum into a plain dict and rely on it.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * n: ExactScalar.one()})

    @classmethod
    def monomial(cls, n, exps, coeff=None):
        if coeff is None:
            coeff = ExactScalar.one()
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def variable(cls, n, i):
        """z_i, 1-based."""
        e = [0] * n
        e[i - 1] = 1
        return cls.monomial(n, e)

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def coeff(self, exps):
        return self.terms.get(tuple(exps))

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} != {other.n} variables")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return ZPolynomial(self.n, out)

    def __neg__(self):
        return ZPolynomial(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(e1, e2))
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
        return ZPolynomial(self.n, out)

    def scalar_mul(self, c):
        if not c:
            return ZPolynomial(self.n)
        return ZPolynomial(self.n, {k: c * v for k, v in self.terms.items()})

    def monomial_mul(self, shift, coeff=None):
        """Multiply by coeff * z^shift; shift may have negative entries."""
        if len(shift) != self.n:
            raise DimensionMismatch("shift vector has wrong length")
        out = {}
        for e, c in self.terms.items():
            k = tuple(a + b for a, b in zip(e, shift))
            out[k] = c if coeff is None else coeff * c
        return ZPolynomial(self.n, out)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if e:
            return _repeated_squaring(self, e)
        c = next(iter(self.terms.values()), ExactScalar.one())
        return ZPolynomial.monomial(self.n, (0,) * self.n, c.one() if hasattr(c, "one") else 1)

    # -- substitution -------------------------------------------------------

    def substitute(self, images):
        """Replace each variable by a scaled monomial.

        images is a list of n pairs (coeff, exponent-vector): variable i
        maps to coeff_i * z^{vec_i}.  Sufficient for permutations and the
        rotation substitutions; recanonicalizes the result.
        """
        if len(images) != self.n:
            raise DimensionMismatch("need one image per variable")
        powers = {}  # (i, power) -> coeff_i**power, built once per call
        out = {}
        for e, c in self.terms.items():
            k = [0] * self.n
            v = c
            for i, power in enumerate(e):
                if power == 0:
                    continue
                coeff, vec = images[i]
                for j, s in enumerate(vec):
                    k[j] += s * power
                if coeff is not None and not coeff.is_one():
                    p = powers.get((i, power))
                    if p is None:
                        p = powers[(i, power)] = coeff**power
                    v = v * p
            k = tuple(k)
            out[k] = out[k] + v if k in out else v
        return ZPolynomial(self.n, out)

    def permute(self, w):
        """Apply the permutation w (0-based images: position i -> w[i])."""
        if self.n < 2:  # itemgetter of one index returns no tuple
            return ZPolynomial(self.n, self.terms)
        # the exponent at position j comes from position w^{-1}(j)
        inverse = itemgetter(*sorted(range(self.n), key=w.__getitem__))
        return ZPolynomial(self.n, {inverse(e): c for e, c in self.terms.items()})

    def exact_divide(self, other):
        """Exact division by another ZPolynomial; NotDivisible if other
        does not divide self.

        A one-term divisor divides each term on its own.  Otherwise, with
        p the first variable in which other's exponents differ, the
        remainder's top z_p-slice (level j) is divided by other's top slice
        (level top) recursively, and the quotient slice times each lower
        slice of other is subtracted.  No quotient level is below
        lo - bottom (lo the dividend's lowest level, bottom other's), so a
        step with j - top + bottom < lo is refused, as is a refused slice
        division.  Each step empties level j and adds only lower levels, so
        the top level falls and the loop ends.  The recursion ends at
        other's lex-leading term, the only coefficient divided by."""
        self._check(other)
        if not other:
            raise NotDivisible("division by zero")
        if not self:
            return ZPolynomial(self.n)
        return ZPolynomial(self.n, _divide(self.terms, other.terms))

    # -- evaluation ---------------------------------------------------------

    def eval_float(self, qv, tv, z):
        """Float evaluation; coefficients evaluated as num/den at (qv, tv)."""
        if len(z) != self.n:
            raise DimensionMismatch("need one value per variable")
        return _float_monomial_sum(((e, float(c.evaluate(qv, tv))) for e, c in self.terms.items()), z)

    # -- specialization -----------------------------------------------------

    def specialize(self, qv=None, tv=None):
        return ZPolynomial(self.n, {e: c.specialize(qv, tv) for e, c in self.terms.items()})

    # -- serialization (canonical JSON interchange form) --------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "terms": [
                {"z": list(e), "num": c.num.to_json_terms(), "den": c.den.to_json_terms()}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        terms = {}
        for item in data["terms"]:
            c = ExactScalar(
                QTPolynomial.from_json_terms(item["num"]),
                QTPolynomial.from_json_terms(item["den"]),
            )
            terms[tuple(int(x) for x in item["z"])] = c
        return cls(int(data["n"]), terms)

    def __str__(self):
        if not self.terms:
            return "0"
        frags = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"z{i + 1}" + (f"^{p}" if p != 1 else "")
                for i, p in enumerate(e)
                if p
            )
            cs = str(c)
            if mono:
                frags.append(mono if cs == "1" else f"({cs})*{mono}")
            else:
                frags.append(cs)
        return " + ".join(frags)

    def __repr__(self):
        return f"ZPolynomial({self})"


def _float_monomial_sum(terms, z):
    """Sum of v z^e over (exponent, float coefficient) pairs (e, v)."""
    total = 0.0
    for e, v in terms:
        for zi, p in zip(z, e):
            v *= zi**p
        total += v
    return total


def _divide(f, g):
    """ZPolynomial.exact_divide on the term dicts f and g, g not empty."""
    if len(g) == 1:
        ((b, lc),) = g.items()
        monic = _is_one(lc)
        return {tuple(map(sub, e, b)): c if monic else _coefficient_quotient(c, lc) for e, c in f.items()}
    p = next(i for i, col in enumerate(zip(*g)) if min(col) != max(col))
    g_slices = _slices(g, p)
    top, bottom = max(g_slices), min(g_slices)
    lead = g_slices.pop(top)
    rem = _slices(f, p)
    lo = min(rem)
    quot = {}
    while rem:
        j = max(rem)
        if j - top + bottom < lo:
            raise NotDivisible("remainder is nonzero")
        q = _divide(rem.pop(j), lead)
        quot.update(q)
        for k, g_slice in g_slices.items():
            level = j - top + k
            r = rem.setdefault(level, {})
            for e1, c1 in q.items():
                for e2, c2 in g_slice.items():
                    m = tuple(map(add, e1, e2))
                    if m in r:
                        s = r[m] - c1 * c2
                        if s:
                            r[m] = s
                        else:
                            del r[m]
                    else:
                        r[m] = -(c1 * c2)
            if not r:
                del rem[level]
    return quot


def _slices(terms, p):
    """terms grouped by the exponent of variable p: level -> term dict."""
    out = {}
    for e, c in terms.items():
        out.setdefault(e[p], {})[e] = c
    return out


def _is_one(c):
    """Whether c is its ring's 1: is_one() where the ring has it, else == 1."""
    return c.is_one() if hasattr(c, "is_one") else c == 1


def _coefficient_quotient(c, lc):
    """c / lc exactly: divmod on ints (NotDivisible on a remainder), else /."""
    if isinstance(c, int):
        c, r = divmod(c, lc)
        if r:
            raise NotDivisible("remainder is nonzero")
        return c
    return c / lc


class AlphaPolynomial:
    """Polynomial in alpha with rational coefficients (dense, trimmed)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def alpha(cls):
        return cls((0, 1))

    def __bool__(self):
        return bool(self.coeffs)

    def is_one(self):
        return self.coeffs == (Fraction(1),)

    def __eq__(self, other):
        if not isinstance(other, AlphaPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AlphaPolynomial(out)

    def __neg__(self):
        return AlphaPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return AlphaPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return AlphaPolynomial(out)

    def scale(self, c):
        return AlphaPolynomial([a * Fraction(c) for a in self.coeffs])

    def evaluate(self, alpha):
        v = Fraction(0)
        for c in reversed(self.coeffs):
            v = v * alpha + c
        return v

    def is_natural(self):
        """True iff all coefficients are non-negative integers."""
        return all(c.denominator == 1 and c >= 0 for c in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        frags = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            if not mono:
                frags.append(str(c))
            elif c == 1:
                frags.append(mono)
            else:
                frags.append(f"{c}*{mono}")
        return " + ".join(reversed(frags))

    def __repr__(self):
        return f"AlphaPolynomial({self})"
