"""Operator calculus: reflections, divided differences, Hecke operators,
rotation, creation operators, Cherednik operators, the box-adding step
and the symmetrizer."""

import random

import pytest

from kostka_forge import hecke
from kostka_forge.errors import IndexOutOfRange, ZeroComposition
from kostka_forge.hecke import (
    apply_delta,
    apply_divided_difference,
    apply_hecke,
    apply_phi,
    apply_reflection,
    apply_X_lambda,
    apply_xi,
    hecke_symmetrize,
)
from kostka_forge.qt import ExactScalar, QTPolynomial
from kostka_forge.verify import random_zpoly
from kostka_forge.weights import t_factorial
from kostka_forge.zpoly import ZPolynomial

ONE_MINUS_T = ExactScalar.from_poly(QTPolynomial.one() - QTPolynomial.t())


def z(n, i):
    return ZPolynomial.variable(n, i)


def mono(n, exps, coeff=None):
    return ZPolynomial.monomial(n, exps, coeff)


class TestReflection:
    def test_swap(self):
        assert apply_reflection(z(2, 2), 1) == z(2, 1)

    def test_symmetric_fixed(self):
        f = z(2, 1) * z(2, 2)
        assert apply_reflection(f, 1) == f

    def test_constant(self):
        one = ZPolynomial.one(2)
        assert apply_reflection(one, 1) == one

    def test_index_range(self):
        with pytest.raises(IndexOutOfRange):
            apply_reflection(z(2, 1), 2)


class TestDividedDifference:
    def test_linear(self):
        assert apply_divided_difference(z(2, 1), 1) == ZPolynomial.one(2)

    def test_symmetric_kernel(self):
        assert not apply_divided_difference(z(2, 1) * z(2, 2), 1)

    def test_square(self):
        assert apply_divided_difference(mono(2, (2, 0)), 1) == z(2, 1) + z(2, 2)


class TestHecke:
    def test_constant_eigenvalue(self):
        one = ZPolynomial.one(2)
        assert apply_hecke(one, 1, "H") == one.scalar_mul(ExactScalar.t())

    def test_h_on_z2(self):
        assert apply_hecke(z(2, 2), 1, "H") == z(2, 1)

    def test_hbar_on_z2(self):
        expected = z(2, 1) + z(2, 2).scalar_mul(ONE_MINUS_T)
        assert apply_hecke(z(2, 2), 1, "Hbar") == expected

    def test_inverses(self):
        rng = random.Random(3)
        for _ in range(5):
            f = random_zpoly(rng, 3)
            for i in (1, 2):
                assert apply_hecke(apply_hecke(f, i, "H_inv"), i, "H") == f
                assert apply_hecke(apply_hecke(f, i, "Hbar"), i, "Hbar_inv") == f


class TestDelta:
    def test_constant(self):
        one = ZPolynomial.one(3)
        assert apply_delta(one) == one

    def test_first_variable(self):
        assert apply_delta(z(2, 1)) == mono(2, (0, 1), ExactScalar.q(-1))

    def test_inverse_law(self):
        f = mono(3, (2, 1, 0))
        assert apply_delta(apply_delta(f), "inverse") == f


class TestPhi:
    def test_phi_on_one(self):
        for n in (1, 2, 3):
            e = [0] * n
            e[n - 1] = 1
            assert apply_phi(ZPolynomial.one(n)) == mono(n, e)

    def test_phi_one_on_z2(self):
        assert apply_phi(z(2, 2), "Phi_one") == z(2, 1) * z(2, 2)

    def test_phi_prime_matches_inverse_word(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_zpoly(rng, 3)
            g = f
            for i in range(1, 3):
                g = apply_hecke(g, i, "Hbar_inv")
            assert g.monomial_mul((0, 0, 1)) == apply_phi(f, "Phi_prime")


class TestXi:
    def test_fixes_constants(self):
        one = ZPolynomial.one(2)
        assert apply_xi(one, 1) == one

    def test_zero_weight_spectrum(self):
        one = ZPolynomial.one(2)
        assert apply_xi(one, 2) == one.scalar_mul(ExactScalar.t(-1))

    def test_forward_inverts_displayed_word(self):
        rng = random.Random(7)
        for _ in range(5):
            f = random_zpoly(rng, 3)
            for i in (1, 2, 3):
                g = apply_xi(apply_xi(f, i, "forward"), i, "inverse")
                assert g == f


class TestXLambda:
    def test_column_box(self):
        out = apply_X_lambda(ZPolynomial.one(2), (0, 1))
        coeff = ExactScalar.from_poly(
            QTPolynomial.one() - QTPolynomial.monomial(1, 2)
        )
        assert out == mono(2, (0, 1), coeff)

    def test_row_box(self):
        out = apply_X_lambda(ZPolynomial.one(2), (1, 0))
        c1 = ExactScalar.from_poly(QTPolynomial.one() - QTPolynomial.monomial(1, 1))
        assert out == mono(2, (1, 0), c1) + z(2, 2).scalar_mul(ONE_MINUS_T)

    def test_one_variable(self):
        out = apply_X_lambda(ZPolynomial.one(1), (1,))
        c = ExactScalar.from_poly(QTPolynomial.one() - QTPolynomial.monomial(1, 1))
        assert out == mono(1, (1,), c)

    def test_zero_rejected(self):
        with pytest.raises(ZeroComposition):
            apply_X_lambda(ZPolynomial.one(2), (0, 0))

    def test_phi_applied_once(self, monkeypatch):
        # A_m and Abar_m share Phi f, so one Delta substitution per box
        calls = []

        def counting_delta(f, direction="forward"):
            calls.append(direction)
            return apply_delta(f, direction)

        monkeypatch.setattr(hecke, "apply_delta", counting_delta)
        f = random_zpoly(random.Random(17), 3)
        for lam in [(0, 0, 1), (0, 1, 1), (1, 1, 1)]:
            calls.clear()
            apply_X_lambda(f, lam)
            assert calls == ["forward"]


def test_hecke_symmetrize_is_invariant():
    rng = random.Random(13)
    t = ExactScalar.t()
    for _ in range(3):
        f = random_zpoly(rng, 3)
        g = hecke_symmetrize(f)
        for i in (1, 2):
            assert apply_hecke(g, i, "H") == g.scalar_mul(t)


def _weak_order_sum(f, k):
    """sum of H_w(f) over w in S_k acting on the first k variables, one
    Hecke application per permutation along weak order: w -> s_i w."""
    start = tuple(range(k))
    layer = {start: f}
    total = f
    while layer:
        nxt = {}
        for w, hw in layer.items():
            for i in range(1, k):
                # l(s_i w) = l(w) + 1 iff i-1 appears before i in w
                a, b = w.index(i - 1), w.index(i)
                if a < b:
                    v = list(w)
                    v[a], v[b] = i, i - 1
                    v = tuple(v)
                    if v not in nxt:
                        nxt[v] = apply_hecke(hw, i, "H")
        for hw in nxt.values():
            total = total + hw
        layer = nxt
    return total


def test_weak_order_oracle_counts_all_permutations():
    one = ZPolynomial.one(4)
    t = ExactScalar.t()
    # H_w(1) = t^{l(w)}, so the sum is the Poincare polynomial [4]_t!
    assert _weak_order_sum(one, 4) == one.scalar_mul(t_factorial(4))
    assert hecke_symmetrize(one) == one.scalar_mul(t_factorial(4))


def test_hecke_symmetrize_matches_weak_order_oracle():
    rng = random.Random(29)
    for n in range(2, 6):
        for _ in range(2):
            f = random_zpoly(rng, n, maxdeg=3, max_terms=3)
            assert hecke_symmetrize(f) == _weak_order_sum(f, n)


def test_hecke_symmetrize_skips_the_stabilizer():
    rng = random.Random(31)
    t = ExactScalar.t()
    for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        g = _weak_order_sum(random_zpoly(rng, n, maxdeg=3, max_terms=3), k)
        for i in range(1, k):
            assert apply_hecke(g, i, "H") == g.scalar_mul(t)
        full = hecke_symmetrize(g)
        assert hecke_symmetrize(g, t_symmetric_in=k).scalar_mul(t_factorial(k)) == full


def test_hecke_symmetrize_rejects_bad_prefix():
    with pytest.raises(IndexOutOfRange):
        hecke_symmetrize(ZPolynomial.one(3), t_symmetric_in=4)
