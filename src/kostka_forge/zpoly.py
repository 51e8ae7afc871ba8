"""Sparse Laurent polynomials in z_1..z_n and rational alpha-polynomials.

ZPolynomial keeps a dict from exponent vectors (tuples in Z^n) to
coefficients.  The coefficient type is ExactScalar throughout the q,t
theory; the Jack degeneration reuses the same class with AlphaPolynomial
coefficients, and the Schur bialternant with int coefficients (any ring
element with +, -, * and truthiness works; exact_divide also needs / by
a divisor's leading coefficient unless that is 1, or // on ints).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, le, neg, sub

from .errors import DimensionMismatch, NotDivisible
from .qt import ExactScalar, QTPolynomial


class ZPolynomial:
    """Laurent polynomial in n variables with exact coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        t = {}
        if terms:
            for k, c in terms.items():
                if c:
                    t[k] = c
        self.terms = t

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
            s = out[k] + c if k in out else c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return ZPolynomial(self.n, out)

    def __neg__(self):
        return ZPolynomial(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out[k] - c if k in out else -c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return ZPolynomial(self.n, out)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(e1, e2))
                s = out[k] + c1 * c2 if k in out else c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
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
        out = ZPolynomial.one(self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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
            s = out[k] + v if k in out else v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return ZPolynomial(self.n, out)

    def permute(self, w):
        """Apply the permutation w (0-based images: position i -> w[i])."""
        out = {}
        for e, c in self.terms.items():
            k = [0] * self.n
            for i, power in enumerate(e):
                k[w[i]] = power
            out[tuple(k)] = c
        return ZPolynomial(self.n, out)

    def exact_divide(self, other):
        """Exact division by another ZPolynomial: lex leading-term
        elimination, with the remainder's exponents kept in a max-heap
        (Monagan and Pearce, J. Symbolic Comput. 46, 2011), so each step
        finds the leading term without rescanning the remainder."""
        self._check(other)
        if not other:
            raise NotDivisible("division by zero")
        if not self:
            return ZPolynomial(self.n)
        lead = max(other.terms)
        lc = other.terms[lead]
        rest = [(e, c) for e, c in other.terms.items() if e != lead]
        # degrees in each variable add, so every quotient exponent k has
        # min_j(self) - min_j(other) <= k_j <= max_j(self) - max_j(other)
        cols = list(zip(zip(*self.terms), zip(*other.terms)))
        lo = [min(a) - min(b) for a, b in cols]
        hi = [max(a) - max(b) for a, b in cols]
        rem = dict(self.terms)
        # heapq is a min-heap: negated exponents pop in decreasing lex order.
        # A key cancelled from rem stays behind and is skipped when popped.
        heap = [tuple(map(neg, e)) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            m = tuple(map(neg, heapq.heappop(heap)))
            if m not in rem:
                continue
            k = tuple(map(sub, m, lead))
            if not (all(map(le, lo, k)) and all(map(le, k, hi))):
                raise NotDivisible("remainder is nonzero")
            qc = rem.pop(m)
            if lc != 1:  # a monic divisor divides nothing
                qc, r = divmod(qc, lc) if isinstance(qc, int) else (qc / lc, 0)
                if r:
                    raise NotDivisible("remainder is nonzero")
            quot[k] = qc
            # every k + e2 is lex-below m, since e2 is lex-below lead
            for e2, c2 in rest:
                kk = tuple(map(add, k, e2))
                if kk in rem:
                    s = rem[kk] - qc * c2
                    if s:
                        rem[kk] = s
                    else:
                        del rem[kk]
                else:
                    rem[kk] = -(qc * c2)
                    heapq.heappush(heap, tuple(map(neg, kk)))
        return ZPolynomial(self.n, quot)

    # -- evaluation ---------------------------------------------------------

    def eval_float(self, qv, tv, z):
        """Float evaluation; coefficients evaluated as num/den at (qv, tv)."""
        if len(z) != self.n:
            raise DimensionMismatch("need one value per variable")
        total = 0.0
        for e, c in self.terms.items():
            v = float(c.evaluate(qv, tv))
            for zi, p in zip(z, e):
                v *= zi**p
            total += v
        return total

    # -- specialization -----------------------------------------------------

    def specialize(self, qv=None, tv=None):
        out = {}
        for e, c in self.terms.items():
            s = c.specialize(qv, tv)
            if s:
                out[e] = s
        return ZPolynomial(self.n, out)

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
