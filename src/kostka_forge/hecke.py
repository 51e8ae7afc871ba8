"""Operator calculus on ZPolynomial: reflections, divided differences,
Hecke operators and inverses, the rotation Delta, the creation operators
Phi / Phi' / Phi_1, Cherednik operators xi_i, the box-adding step X_lambda
and the Hecke symmetrizer.

All operators are pure functions; indices are 1-based as in the usual
algebraic notation (s_i swaps z_i and z_{i+1}).
"""

from __future__ import annotations

from .errors import IndexOutOfRange, ZeroComposition
from .qt import ExactScalar
from .weights import length, spectral_vector
from .qt import QTPolynomial
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
    if variant == "H":
        zi = [0] * f.n
        zi[i - 1] = 1
        corr = apply_divided_difference(f.monomial_mul(zi), i)
    elif variant == "Hbar":
        zi1 = [0] * f.n
        zi1[i] = 1
        corr = apply_divided_difference(f, i).monomial_mul(zi1)
    else:
        raise ValueError(f"unknown Hecke variant {variant!r}")
    return apply_reflection(f, i) - corr.scalar_mul(_ONE_MINUS_T)


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
    with eigenvalue lambda-bar_i on E_lambda.
    """
    n = f.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"xi index {i} out of range for n={n}")
    if direction == "inverse":
        g = f
        for j in range(i - 1, 0, -1):
            g = apply_hecke(g, j, "H")
        g = apply_delta(g, "forward")
        for j in range(n - 1, i - 1, -1):
            g = apply_hecke(g, j, "Hbar")
        return g
    if direction == "forward":
        g = f
        for j in range(i, n):
            g = apply_hecke(g, j, "Hbar_inv")
        g = apply_delta(g, "inverse")
        for j in range(1, i):
            g = apply_hecke(g, j, "H_inv")
        return g
    raise ValueError(f"unknown direction {direction!r}")


def apply_X_lambda(f, lam):
    """The normalized creation step q^{lam_m - 1} (Abar_m - lambda-bar_m t^m A_m)."""
    lam = tuple(lam)
    m = length(lam)
    if m == 0:
        raise ZeroComposition("X_lambda needs a nonzero composition")
    n = len(lam)
    ev = spectral_vector(lam).scalar(m) * ExactScalar.t(m)
    # A_m = H_m...H_{n-1} Phi and Abar_m = Hbar_m...Hbar_{n-1} Phi share Phi f
    a = abar = apply_phi(f)
    for i in range(n - 1, m - 1, -1):
        a = apply_hecke(a, i, "H")
        abar = apply_hecke(abar, i, "Hbar")
    out = abar - a.scalar_mul(ev)
    return out.scalar_mul(ExactScalar.q(lam[m - 1] - 1))


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
