"""Operator calculus on ZPolynomial: reflections, divided differences,
Hecke operators and inverses, the rotation Delta, the creation operators
Phi / Phi' / Phi_1, Cherednik operators xi_i, the box-adding step X_lambda
and the Hecke symmetrizer.

All operators are pure functions; indices are 1-based as in the usual
algebraic notation (s_i swaps z_i and z_{i+1}).
"""

from __future__ import annotations

from .errors import IndexOutOfRange, ZeroComposition
from .qt import ExactScalar, Kronecker, QTPolynomial
from .weights import length, spectral_vector
from .zpoly import ZPolynomial

_ONE_MINUS_T = ExactScalar.from_poly(QTPolynomial.one() - QTPolynomial.t())


def _check_reflection_index(f, i):
    if not 1 <= i <= f.n - 1:
        raise IndexOutOfRange(f"reflection index {i} out of range for n={f.n}")


def apply_reflection(f, i):
    """s_i: swap z_i and z_{i+1}."""
    _check_reflection_index(f, i)
    out = {}
    for e, c in f.terms.items():
        k = list(e)
        k[i - 1], k[i] = k[i], k[i - 1]
        out[tuple(k)] = c
    return ZPolynomial(f.n, out)


def apply_divided_difference(f, i):
    """N_i = (z_i - z_{i+1})^{-1} (1 - s_i), via the per-term geometric sum.

    (z^a w^b - z^b w^a)/(z - w) expands exactly, so no polynomial division
    is needed and the result is always a (Laurent) polynomial.
    """
    _check_reflection_index(f, i)
    out = {}
    ii = i - 1
    for e, c in f.terms.items():
        a, b = e[ii], e[ii + 1]
        if a == b:
            continue
        neg = a < b
        if neg:
            a, b = b, a
            c = -c
        base = list(e)
        for k in range(a - b):
            base[ii], base[ii + 1] = a - 1 - k, b + k
            key = tuple(base)
            s = out[key] + c if key in out else c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return ZPolynomial(f.n, out)


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
    _check_reflection_index(f, i)
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
    qinv = ExactScalar.q(-1)
    qpos = ExactScalar.q(1)

    def unit(j):
        e = [0] * n
        e[j] = 1
        return tuple(e)

    if direction == "forward":
        images = [(qinv, unit(n - 1))] + [(None, unit(j - 2)) for j in range(2, n + 1)]
    elif direction == "inverse":
        images = [(None, unit(j)) for j in range(1, n)] + [(qpos, unit(0))]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return f.substitute(images)


def apply_phi(f, variant="Phi"):
    """Phi = z_n Delta;  Phi' = t^{1-n} z_n H_{n-1}...H_1;  Phi_1 = z_n s_{n-1}...s_1."""
    n = f.n
    zn = [0] * n
    zn[n - 1] = 1
    if variant == "Phi":
        return apply_delta(f, "forward").monomial_mul(zn)
    if variant == "Phi_prime":
        g = f
        for i in range(1, n):
            g = apply_hecke(g, i, "H")
        return g.monomial_mul(zn).scalar_mul(ExactScalar.t(1 - n))
    if variant == "Phi_one":
        g = f
        for i in range(1, n):
            g = apply_reflection(g, i)
        return g.monomial_mul(zn)
    raise ValueError(f"unknown Phi variant {variant!r}")


def apply_xi(f, i, direction="forward"):
    """Cherednik operator xi_i (forward) or its displayed inverse word.

    xi_i^{-1} = Hbar_i ... Hbar_{n-1} Delta H_1 ... H_{i-1}, applied
    right-to-left; the forward direction is the inverse-word composition,
    with eigenvalue lambda-bar_i on E_lambda.  As H_j^{-1} = t^{-1} Hbar_j
    and Hbar_j^{-1} = t^{-1} H_j, it is
    xi_i = t^{1-n} Hbar_{i-1} ... Hbar_1 Delta^{-1} H_{n-1} ... H_i.

    Both words are Q(q,t)-linear, so each runs once on Kronecker-packed
    ints (_pack) on L f, with L the lcm of the coefficient denominators of
    f, and the result is divided by L.  Delta puts q^{-e_1} on the term
    z^e and Delta^{-1} puts q^{e_n}; with lo and hi the least and the
    largest z-exponent of f, these run as the left shifts by q^{hi - e_1}
    and q^{e_n - lo}, and q^{-hi} (Delta) or q^{lo} t^{1-n} (Delta^{-1})
    is applied while unpacking.
    """
    n = f.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"xi index {i} out of range for n={n}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    den = _denominator_lcm(f)
    cofactors = {QTPolynomial.one(): den}  # L / c.den for each c.den
    nums = {}
    for e, c in f.terms.items():
        k = cofactors.get(c.den)
        if k is None:
            k = cofactors[c.den] = den.exact_divide(c.den)
        nums[e] = c.num if k.is_one() else c.num * k
    lo, hi = _z_range(nums)
    if direction == "forward":
        codec, g, one_minus_t = _pack(nums, n - 1, hi - lo, lo, 1 - n)
        for j in range(i, n):
            g = _hecke_terms(g, j, False, one_minus_t)
        B = codec.B
        g = {e[-1:] + e[:-1]: v << B * (e[-1] - lo) for e, v in g.items()}
        for j in range(1, i):
            g = _hecke_terms(g, j, True, one_minus_t)
    else:
        codec, g, one_minus_t = _pack(nums, n - 1, hi - lo, -hi)
        for j in range(i - 1, 0, -1):
            g = _hecke_terms(g, j, False, one_minus_t)
        B = codec.B
        g = {e[1:] + e[:1]: v << B * (hi - e[0]) for e, v in g.items()}
        for j in range(n - 1, i - 1, -1):
            g = _hecke_terms(g, j, True, one_minus_t)
    out = _unpack(codec, n, g)
    return out if den.is_one() else out.scalar_mul(ExactScalar.from_poly(den).inverse())


def apply_X_lambda(f, lam):
    """The normalized creation step q^{lam_m - 1} (Abar_m - lambda-bar_m t^m A_m).

    The step is Q(q,t)-linear, so denominators are cleared once, at entry:
    with L the lcm of the coefficient denominators of f (1 on every
    calE_mu) and D the largest z_1-exponent in f, the chains run on
    q^D Phi(L f), computed as Phi(L q^D f).  Delta puts q^{-a} on the term
    with z_1-exponent a, so each rotated coefficient carries q^{D-a} and
    is integral as soon as it is formed.  Since lambda-bar_m t^m is a
    monomial q^{lam_m} t^j with j >= 1, the Hecke chains and the multiple
    by it stay in Z[q,t] and run on Kronecker-packed ints
    (_packed_creation).  The closing factor becomes q^{lam_m - 1 - D},
    and the result is divided by L.  On calE_mu the result is calE_lam,
    integral by Knop's theorem, so where that power is negative it divides
    each coefficient exactly; for any other f it is the same product in
    Q(q,t).
    """
    lam = tuple(lam)
    m = length(lam)
    if m == 0:
        raise ZeroComposition("X_lambda needs a nonzero composition")
    d = max((e[0] for e in f.terms), default=0)
    den = _denominator_lcm(f)
    scale = ExactScalar.q(d) if den.is_one() else ExactScalar.from_poly(den) * ExactScalar.q(d)
    # A_m = H_m...H_{n-1} Phi and Abar_m = Hbar_m...Hbar_{n-1} Phi share Phi f
    out = _packed_creation(apply_phi(f.scalar_mul(scale)), lam, d)
    return out if den.is_one() else out.scalar_mul(ExactScalar.from_poly(den).inverse())


def _packed_creation(g, lam, d):
    """apply_X_lambda's chains on g = q^D Phi(L f) over Z[q,t], packed by
    _pack: H_i and Hbar_i by _hecke_terms, the multiple by
    lambda-bar_m t^m = q^{lam_m} t^j one shift, and q^{lam_m - 1 - D}
    applied while unpacking."""
    n = g.n
    m = length(lam)
    qa, tb = spectral_vector(lam).exponents[m - 1]
    tb += m
    nums = {e: c.num for e, c in g.terms.items()}
    codec, a, one_minus_t = _pack(nums, n - m, qa, lam[m - 1] - 1 - d, runs=2)
    abar = a
    for i in range(n - 1, m - 1, -1):
        a = _hecke_terms(a, i, False, one_minus_t)
        abar = _hecke_terms(abar, i, True, one_minus_t)
    ev_shift = codec.B * (qa + codec.Q * tb)
    out = dict(abar)
    for e, v in a.items():
        s = out[e] - (v << ev_shift) if e in out else -(v << ev_shift)
        if s:
            out[e] = s
        else:
            del out[e]
    return _unpack(codec, n, out)


def _denominator_lcm(f):
    """The lcm of the coefficient denominators of f, 1 if f is integral."""
    den = QTPolynomial.one()
    for c in f.terms.values():
        if not c.den.is_one():
            den = den * c.den.exact_divide(QTPolynomial.gcd(den, c.den))
    return den


def _z_range(terms):
    """The least and the largest z-exponent in terms, over all variables."""
    return min(map(min, terms), default=0), max(map(max, terms), default=0)


def _pack(nums, hecke_steps, q_growth, qshift, tshift=0, runs=1):
    """Kronecker-pack nums, a dict from exponent vectors to polynomials in
    Z[q,t], for a run of hecke_steps steps H_i or Hbar_i (_hecke_terms),
    any number of rotations of the exponent vectors and of products by
    monomials q^a t^b with a, b >= 0 whose q-exponents on any one term add
    up to at most q_growth, and a sum or difference of `runs` such runs.
    Returns the codec (qt.Kronecker; its unpack multiplies by
    q^qshift t^tshift), the dict of packed ints and (1-t) on a packed int,
    c - (c << B*Q).

    The digits must fit.  Let G = hi - lo + 1, with lo and hi the least
    and the largest z-exponent in nums (_z_range).  H_i keeps every
    z-exponent within [lo, hi]: s_i permutes them, and the geometric sum
    stays between the two exponents it starts from; a rotation permutes
    them too.  A term c z^e gives at most G terms of size |c| in
    N_i z_i g or z_{i+1} N_i g, which (1-t) at most doubles, so with L1
    the sum of the absolute values of all integer coefficients,
    L1(H_i g) <= (1 + 2G) L1(g), and the same for Hbar_i.  A rotation maps
    distinct exponent vectors to distinct ones and a monomial multiple
    keeps each coefficient's L1, so every output digit is at most
    runs (1 + 2G)^hecke_steps L1(nums) in absolute value, and B is chosen
    with that below 2^(B-1); it is widened past 64 bits when needed.  Only
    the monomial multiples raise the q-degree, so
    Q = deg_q(nums) + q_growth + 1.  Packing is a ring homomorphism, so
    intermediate ints need no bound.
    """
    lo, hi = _z_range(nums)
    polys = nums.values()
    bound = runs * (3 + 2 * (hi - lo)) ** hecke_steps * sum(p.norm1() for p in polys)
    Q = max((p.deg_q() for p in polys), default=0) + q_growth + 1
    codec = Kronecker(bound, Q, qshift, tshift)
    t_shift = codec.B * Q

    def one_minus_t(c):
        return c - (c << t_shift)

    return codec, {e: codec.pack(p) for e, p in nums.items()}, one_minus_t


def _unpack(codec, n, packed):
    """The ZPolynomial of the packed ints, each unpacked by codec."""
    return ZPolynomial(n, {e: codec.unpack(v) for e, v in packed.items()})


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


def _coset_chain_sum(f, step, skip):
    """C_n ... C_{skip+1} f, where C_k = 1 + T_{k-1} + T_{k-2} T_{k-1} + ...
    + T_1 ... T_{k-1} for the generator step(h, i) = T_i h.

    With T_i = H_i this is the Hecke symmetrizer; with T_i = s_i it is the
    plain sum over S_n.  The factors C_2 ... C_skip are left out.
    """
    for k in range(max(2, skip + 1), f.n + 1):
        h = total = f
        for i in range(k - 1, 0, -1):
            h = step(h, i)
            total = total + h
        f = total
    return f
