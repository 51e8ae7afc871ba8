"""Operator calculus on ZPolynomial: reflections, divided differences,
Hecke operators and inverses, the rotation Delta, the creation operators
Phi / Phi' / Phi_1, Cherednik operators xi_i, the box-adding step X_lambda
and the Hecke symmetrizer.

All operators are pure functions; indices are 1-based as in the usual
algebraic notation (s_i swaps z_i and z_{i+1}).
"""

from __future__ import annotations

from .errors import DimensionMismatch, IndexOutOfRange, PreconditionViolated, ZeroComposition
from .qt import ExactScalar, Kronecker, QTPolynomial
from .weights import _transpose, _unit, length, spectral_vector
from .zpoly import ZPolynomial

_ONE_MINUS_T = ExactScalar.from_poly(QTPolynomial.one() - QTPolynomial.t())


def apply_reflection(f, i):
    """s_i: swap z_i and z_{i+1}."""
    return f.permute(_transpose(range(f.n), i))


def apply_divided_difference(f, i):
    """N_i = (z_i - z_{i+1})^{-1} (1 - s_i), as one exact division.

    f - s_i f is antisymmetric in z_i, z_{i+1}, so z_i - z_{i+1} divides
    it and the result is always a (Laurent) polynomial.  The divisor's
    coefficients are the one of f's coefficient ring (f ** 0).
    """
    zi = (f ** 0).monomial_mul(_unit(f.n, i - 1))
    return (f - apply_reflection(f, i)).exact_divide(zi - apply_reflection(zi, i))


def _hecke_terms(terms, i, bar, times_one_minus_t):
    """H_i (bar false) or Hbar_i (bar true) on a dict from exponent vectors
    to coefficients, in one pass: the reflection goes straight to the
    output while the divided difference, N_i z_i or z_{i+1} N_i, is summed
    into corr by the per-term geometric sum; then (1-t) corr is subtracted.

    Coefficients need only +, -, truthiness and times_one_minus_t, so the
    same body runs on ExactScalars and on Kronecker-packed ints.
    """
    ii = i - 1
    up = 1 if bar else 0
    out = {}
    corr = {}
    for e, c in terms.items():
        k = list(e)
        a, b = k[ii], k[i]
        k[ii], k[i] = b, a
        out[tuple(k)] = c  # s_i is a bijection on exponents
        # N_i z_i sums over (x, y) = (a + 1, b), z_{i+1} N_i over (a, b)
        # and then multiplies by w = z_{i+1}; for x > y,
        # (z^x w^y - z^y w^x)/(z - w) = sum_{s < x-y} z^(x-1-s) w^(y+s)
        x, y = a + 1 - up, b
        if x == y:
            continue
        if x < y:
            x, y, c = y, x, -c
        for s in range(x - y):
            k[ii], k[i] = x - 1 - s, y + s + up
            key = tuple(k)
            corr[key] = corr[key] + c if key in corr else c
    for key, c in corr.items():
        if not c:
            continue
        c = times_one_minus_t(c)
        s = out[key] - c if key in out else -c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _times_one_minus_t(c):
    return c * _ONE_MINUS_T


def apply_hecke(f, i, variant="H"):
    """H_i, Hbar_i and their closed-form inverses.

    H_i = s_i - (1-t) N_i z_i,  Hbar_i = s_i - (1-t) z_{i+1} N_i;
    the quadratic relation gives H_i^{-1} = t^{-1} Hbar_i and
    Hbar_i^{-1} = t^{-1} H_i.
    """
    if not 1 <= i < f.n:
        raise IndexOutOfRange(f"reflection index {i} out of range for n={f.n}")
    if variant == "H_inv":
        return apply_hecke(f, i, "Hbar").scalar_mul(ExactScalar.t(-1))
    if variant == "Hbar_inv":
        return apply_hecke(f, i, "H").scalar_mul(ExactScalar.t(-1))
    if variant not in ("H", "Hbar"):
        raise ValueError(f"unknown Hecke variant {variant!r}")
    return ZPolynomial(f.n, _hecke_terms(f.terms, i, variant == "Hbar", _times_one_minus_t))


def apply_delta(f, direction="forward"):
    """Delta f(z_1,...,z_n) = f(q^{-1} z_n, z_1, ..., z_{n-1})."""
    n = f.n
    if direction == "forward":
        images = [(ExactScalar.q(-1), _unit(n, n - 1))] + [(None, _unit(n, j)) for j in range(n - 1)]
    elif direction == "inverse":
        images = [(None, _unit(n, j)) for j in range(1, n)] + [(ExactScalar.q(1), _unit(n, 0))]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return f.substitute(images)


def apply_phi(f, variant="Phi"):
    """Phi = z_n Delta;  Phi' = t^{1-n} z_n H_{n-1}...H_1;  Phi_1 = z_n s_{n-1}...s_1,
    where s_{n-1}...s_1 rotates each exponent vector left by one place."""
    n = f.n
    zn = _unit(n, n - 1)
    if variant == "Phi":
        return apply_delta(f, "forward").monomial_mul(zn)
    if variant == "Phi_prime":
        g = f
        for i in range(1, n):
            g = apply_hecke(g, i, "H")
        return g.monomial_mul(zn).scalar_mul(ExactScalar.t(1 - n))
    if variant == "Phi_one":
        return ZPolynomial(n, {e[1:] + (e[0] + 1,): c for e, c in f.terms.items()})
    raise ValueError(f"unknown Phi variant {variant!r}")


def apply_xi(f, i, direction="forward"):
    """Cherednik operator xi_i (forward) or its displayed inverse word.

    xi_i^{-1} = Hbar_i ... Hbar_{n-1} Delta H_1 ... H_{i-1}, applied
    right-to-left; the forward direction is the inverse-word composition,
    with eigenvalue lambda-bar_i on E_lambda.  As H_j^{-1} = t^{-1} Hbar_j
    and Hbar_j^{-1} = t^{-1} H_j, it is
    xi_i = t^{1-n} Hbar_{i-1} ... Hbar_1 Delta^{-1} H_{n-1} ... H_i.

    Both words are Q(q,t)-linear, so each runs once on Kronecker-packed
    ints (_run_packed).  Delta puts q^{-e_1} on the term z^e and
    Delta^{-1} puts q^{e_n}; with lo and hi the least and the largest
    z-exponent of f, these run as codec.times by q^{hi - e_1} and
    q^{e_n - lo}, and q^{-hi} (Delta) or q^{lo} t^{1-n} (Delta^{-1}) is
    applied while unpacking.
    """
    n = f.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"xi index {i} out of range for n={n}")
    lo, hi = _z_range(f.terms)
    if direction == "forward":
        hs, hbars, offset = range(i, n), range(1, i), (lo, 1 - n)

        def rotate(e, v, codec):  # Delta^{-1}, times q^{-lo}
            return e[-1:] + e[:-1], codec.times(v, e[-1] - lo)

    elif direction == "inverse":
        hs, hbars, offset = range(i - 1, 0, -1), range(n - 1, i - 1, -1), (-hi, 0)

        def rotate(e, v, codec):  # Delta, times q^{hi}
            return e[1:] + e[:1], codec.times(v, hi - e[0])

    else:
        raise ValueError(f"unknown direction {direction!r}")

    def word(g, codec, bound):
        for j in hs:
            g = _hecke_terms(g, j, False, codec.one_minus_t)
        g = dict(rotate(e, v, codec) for e, v in g.items())
        for j in hbars:
            g = _hecke_terms(g, j, True, codec.one_minus_t)
        return g

    return _run_packed(f, word, n - 1, hi - lo, *offset)


def apply_X_lambda(f, lam):
    """The normalized creation step q^{lam_m - 1} (Abar_m - lambda-bar_m t^m A_m).

    The step is Q(q,t)-linear.  With D the largest z_1-exponent in f, the
    chains run on q^D Phi f, computed as Phi(q^D f): Delta puts q^{-a} on
    the term with z_1-exponent a, so each rotated coefficient carries
    q^{D-a} and has no q-power denominator.  _run_packed clears the
    remaining denominators (none on any calE_mu) and runs the Hecke
    chains, and the multiple by lambda-bar_m t^m = q^{lam_m} t^j with
    j >= 1 as one shift, on Kronecker-packed ints; the closing factor
    becomes q^{lam_m - 1 - D}.  On calE_mu the result is calE_lam,
    integral by Knop's theorem, so where that power is negative it
    divides each coefficient exactly; for any other f it is the same
    product in Q(q,t).
    """
    lam = tuple(lam)
    n = f.n
    if len(lam) != n:
        raise DimensionMismatch(f"composition {lam} has {len(lam)} parts for n={n}")
    if any(x < 0 for x in lam):
        raise PreconditionViolated(f"composition {lam} has a negative part")
    m = length(lam)
    if m == 0:
        raise ZeroComposition("X_lambda needs a nonzero composition")
    d = max((e[0] for e in f.terms), default=0)
    qa, tb = spectral_vector(lam).exponents[m - 1]
    tb += m

    # A_m = H_m...H_{n-1} Phi and Abar_m = Hbar_m...Hbar_{n-1} Phi share Phi f
    def word(a, codec, bound):
        abar = a
        for i in range(n - 1, m - 1, -1):
            a = _hecke_terms(a, i, False, codec.one_minus_t)
            abar = _hecke_terms(abar, i, True, codec.one_minus_t)
        a = {e: codec.times(v, qa, tb) for e, v in a.items()}
        return (ZPolynomial(n, abar) - ZPolynomial(n, a)).terms

    g = apply_phi(f.scalar_mul(ExactScalar.q(d)))
    return _run_packed(g, word, n - m, qa, lam[m - 1] - 1 - d, runs=2)


def _z_range(terms):
    """The least and the largest z-exponent in terms, over all variables."""
    return min(map(min, terms), default=0), max(map(max, terms), default=0)


class _Widen(Exception):
    """_Widen(S): a packed word's running digit bound S reached 2^(B-1);
    _run_packed re-packs under a codec for S and runs the word again."""


def _run_packed(f, word, hecke_steps, q_growth, qshift, tshift=0, runs=1):
    """word(f) for a Q(q,t)-linear word on Kronecker-packed ints.

    With L the lcm of the coefficient denominators of f (1 if f is
    integral), L f has coefficients in Z[q,t]; it is packed by a
    qt.Kronecker codec, word(packed, codec, bound) maps the dict of
    packed ints to the dict of the result's packed ints through the
    codec's times, one_minus_t and holds, with bound the digit bound
    below, and the result is unpacked, times
    q^qshift t^tshift, and divided by L.  Where L is a monomial q^a t^b
    with coefficient 1 (1 on every calE_mu), the division is part of the
    unpacking, which multiplies by q^(qshift - a) t^(tshift - b); any
    other L is divided out by one closing scalar product.  The word may
    run hecke_steps steps H_i or Hbar_i (_hecke_terms), any number of
    rotations of the exponent vectors and of products by monomials
    q^a t^b with a, b >= 0 whose q-exponents on any one term add up to at
    most q_growth, and a sum or difference of `runs` such runs.

    The digits must fit.  Let G = hi - lo + 1, with lo and hi the least
    and the largest z-exponent in L f (_z_range).  H_i keeps every
    z-exponent within [lo, hi]: s_i permutes them, and the geometric sum
    stays between the two exponents it starts from; a rotation permutes
    them too.  A term c z^e gives at most G terms of size |c| in
    N_i z_i g or z_{i+1} N_i g, which (1-t) at most doubles, so with L1
    the sum of the absolute values of all integer coefficients,
    L1(H_i g) <= (1 + 2G) L1(g), and the same for Hbar_i.  A rotation maps
    distinct exponent vectors to distinct ones and a monomial multiple
    keeps each coefficient's L1, so every output digit is at most
    bound = runs (1 + 2G)^hecke_steps L1(L f) in absolute value, and B is
    chosen with that below 2^(B-1); it is widened past 64 bits when
    needed.  Only the monomial multiples raise the q-degree, so
    Q = deg_q(L f) + q_growth + 1.  Packing is a ring homomorphism, so
    intermediate ints need no bound.

    A word whose growth is not known in advance may instead keep its own
    running bound S on the digits, from bound up, and raise _Widen(S)
    once the codec no longer holds S; the runner then re-packs L f under
    a codec for S and runs the word again with the same bound.
    """
    dens = {c.den for c in f.terms.values()}
    den = QTPolynomial.one()
    for d in dens:
        if not d.is_one():
            den = den * d.exact_divide(QTPolynomial.gcd(den, d))
    cofactors = {QTPolynomial.one(): den}  # L / c.den for each c.den
    nums = {}
    for e, c in f.terms.items():
        k = cofactors.get(c.den)
        if k is None:
            k = cofactors[c.den] = den.exact_divide(c.den)
        nums[e] = c.num if k.is_one() else c.num * k
    # a monomial L = q^a t^b (1 included) divides while unpacking
    ((a, b), lc), *rest = den.terms()
    monomial = not rest and lc == 1
    if monomial:
        qshift, tshift = qshift - a, tshift - b
    lo, hi = _z_range(nums)
    polys = nums.values()
    bound = runs * (3 + 2 * (hi - lo)) ** hecke_steps * sum(p.norm1() for p in polys)
    Q = max((p.deg_q() for p in polys), default=0) + q_growth + 1
    width = bound
    while True:
        codec = Kronecker(width, Q, qshift, tshift)
        try:
            packed = word({e: codec.pack(p) for e, p in nums.items()}, codec, bound)
        except _Widen as widen:
            (width,) = widen.args
        else:
            break
    out = ZPolynomial(f.n, {e: codec.unpack(v) for e, v in packed.items()})
    return out if monomial else out.scalar_mul(ExactScalar.from_poly(den).inverse())


def hecke_symmetrize(f, t_symmetric_in=0):
    """Sum of H_w(f) over all w in S_n, by coset factorization.

    sum_{w in S_n} H_w = C_n ... C_2, where
    C_k = 1 + H_{k-1} + H_{k-2} H_{k-1} + ... + H_1 ... H_{k-1}
    sums over the minimal left coset representatives of S_{k-1} in S_k.
    C_k is one chain h <- H_i h for i = k-1, ..., 1 that adds up every h:
    n(n-1)/2 Hecke applications in all, not n! - 1.

    If f is t-symmetric in its first k = t_symmetric_in variables
    (H_i f = t f for i < k), the factors C_2 ... C_k would only multiply f
    by [k]_t!; they are skipped, so the result is the full sum / [k]_t!.
    """
    n = f.n
    if not 0 <= t_symmetric_in <= n:
        raise IndexOutOfRange(f"t_symmetric_in={t_symmetric_in} out of range for n={n}")
    return _coset_chain_sum(f, apply_hecke, t_symmetric_in)


def _coset_chain_sum(f, step, skip, first=0):
    """C_{n-j} ... C_{skip+1} f with j = first, where C_k = 1 + T_{j+k-1}
    + T_{j+k-2} T_{j+k-1} + ... + T_{j+1} ... T_{j+k-1} for the generator
    step(h, i) = T_i h: a sum over the S_{n-j} of positions j+1, ..., n.

    With T_i = H_i this is the Hecke symmetrizer; with T_i = s_i it is the
    plain sum.  The factors C_2 ... C_skip are left out.
    """
    for k in range(max(2, skip + 1), f.n - first + 1):
        h = total = f
        for i in range(first + k - 1, first, -1):
            h = step(h, i)
            total = total + h
        f = total
    return f
