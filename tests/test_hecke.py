"""Operator calculus: reflections, divided differences, Hecke operators,
rotation, creation operators, Cherednik operators, the box-adding step
and the symmetrizer."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kostka_forge import hecke, macdonald
from kostka_forge.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    PreconditionViolated,
    ZeroComposition,
)
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
from kostka_forge.weights import compositions, length, spectral_vector, t_factorial
from kostka_forge.zpoly import AlphaPolynomial, ZPolynomial

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

    def test_zero_is_zero(self):
        for n in (2, 3):
            for i in range(1, n):
                assert apply_divided_difference(ZPolynomial.zero(n), i) == ZPolynomial.zero(n)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_index_out_of_range(self, i):
        with pytest.raises(IndexOutOfRange):
            apply_divided_difference(z(3, 1), i)
        with pytest.raises(IndexOutOfRange):
            apply_divided_difference(ZPolynomial.zero(3), i)


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


def hecke_reference(f, i, variant):
    """apply_hecke from its definition, by apply_reflection and
    apply_divided_difference: H_i = s_i - (1-t) N_i z_i and
    Hbar_i = s_i - (1-t) z_{i+1} N_i, with H_i^{-1} = t^{-1} Hbar_i and
    Hbar_i^{-1} = t^{-1} H_i."""
    if variant.endswith("_inv"):
        other = "Hbar" if variant == "H_inv" else "H"
        return hecke_reference(f, i, other).scalar_mul(ExactScalar.t(-1))
    zi, zi1 = [0] * f.n, [0] * f.n
    zi[i - 1], zi1[i] = 1, 1
    if variant == "H":
        corr = apply_divided_difference(f.monomial_mul(zi), i)
    else:
        corr = apply_divided_difference(f, i).monomial_mul(zi1)
    return apply_reflection(f, i) - corr.scalar_mul(ONE_MINUS_T)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3
).map(QTPolynomial)
fractions = st.tuples(small_polys, small_polys.filter(bool)).map(lambda p: ExactScalar(*p))


@st.composite
def laurent_zpolys(draw, coeffs):
    n = draw(st.integers(2, 4))
    exps = st.lists(st.integers(-2, 3), min_size=n, max_size=n).map(tuple)
    return ZPolynomial(n, draw(st.dictionaries(exps, coeffs, max_size=4)))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_fused_hecke_matches_its_definition(data):
    f = data.draw(laurent_zpolys(fractions))
    i = data.draw(st.integers(1, f.n - 1))
    for variant in ("H", "Hbar", "H_inv", "Hbar_inv"):
        assert apply_hecke(f, i, variant) == hecke_reference(f, i, variant)
    assert apply_hecke(apply_hecke(f, i, "H"), i, "H_inv") == f
    assert apply_hecke(apply_hecke(f, i, "Hbar"), i, "Hbar_inv") == f


def divided_difference_by_geometric_sum(f, i):
    """N_i term by term: for a > b, (z^a w^b - z^b w^a)/(z - w) is
    sum_{k < a-b} z^(a-1-k) w^(b+k), with z = z_i and w = z_{i+1}."""
    out = {}
    for e, c in f.terms.items():
        a, b = e[i - 1], e[i]
        if a < b:
            a, b, c = b, a, -c
        for k in range(a - b):
            key = e[: i - 1] + (a - 1 - k, b + k) + e[i + 1 :]
            out[key] = out[key] + c if key in out else c
    return ZPolynomial(f.n, out)


@pytest.mark.parametrize(
    "coeffs",
    [st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=3).map(AlphaPolynomial), fractions],
    ids=["int", "alpha", "exact"],
)
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_divided_difference_is_the_geometric_sum(coeffs, data):
    f = data.draw(laurent_zpolys(coeffs))
    i = data.draw(st.integers(1, f.n - 1))
    assert apply_divided_difference(f, i) == divided_difference_by_geometric_sum(f, i)


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

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_phi_one_is_the_reflection_word(self, data):
        # Phi_1 = z_n s_{n-1} ... s_1, on Laurent inputs too
        f = data.draw(laurent_zpolys(fractions))
        g = f
        for i in range(1, f.n):
            g = apply_reflection(g, i)
        zn = (0,) * (f.n - 1) + (1,)
        assert apply_phi(f, "Phi_one") == g.monomial_mul(zn)

    def test_phi_one_makes_no_reflection(self, monkeypatch):
        def refuse(f, i):
            raise AssertionError("Phi_1 is one rotation")

        monkeypatch.setattr(hecke, "apply_reflection", refuse)
        f = mono(3, (2, -1, 0)) + mono(3, (0, 0, 4), ExactScalar.q(-1))
        assert apply_phi(f, "Phi_one") == mono(3, (-1, 0, 3)) + mono(3, (0, 4, 1), ExactScalar.q(-1))
        assert apply_phi(mono(1, (-2,)), "Phi_one") == mono(1, (-1,))

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


def xi_reference(f, i, direction):
    """apply_xi as its word of ExactScalar steps: xi_i^{-1} =
    Hbar_i ... Hbar_{n-1} Delta H_1 ... H_{i-1} and xi_i =
    Hbar_{i-1}^{-1} ... Hbar_1^{-1} Delta^{-1} H_{n-1}^{-1} ... H_i^{-1},
    with H_j^{-1} = t^{-1} Hbar_j and Hbar_j^{-1} = t^{-1} H_j."""
    n = f.n
    tinv = ExactScalar.t(-1)
    if direction == "inverse":
        for j in range(i - 1, 0, -1):
            f = apply_hecke(f, j, "H")
        f = apply_delta(f, "forward")
        for j in range(n - 1, i - 1, -1):
            f = apply_hecke(f, j, "Hbar")
        return f
    for j in range(i, n):
        f = apply_hecke(f, j, "H").scalar_mul(tinv)
    f = apply_delta(f, "inverse")
    for j in range(1, i):
        f = apply_hecke(f, j, "Hbar").scalar_mul(tinv)
    return f


_Q, _T = QTPolynomial.q(), QTPolynomial.t()
xi_coeffs = st.one_of(
    fractions,
    st.integers(-(2**40), 2**40).filter(bool).map(ExactScalar.from_int),
    st.tuples(small_polys, st.integers(1, 9), st.integers(0, 3)).map(
        lambda a: ExactScalar(a[0], QTPolynomial.monomial(a[2], 0, a[1]))
    ),
    small_polys.map(lambda p: ExactScalar(p, QTPolynomial.one() - _Q * _T)),
)


class TestPackedXi:
    """apply_xi's packed word against the ExactScalar word."""

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_matches_the_exact_word(self, data):
        # Laurent exponents; integer, fractional, q-power and 1 - qt
        # denominators; then xi again on a xi output
        f = data.draw(laurent_zpolys(xi_coeffs))
        for direction in ("forward", "inverse"):
            for i in range(1, f.n + 1):
                g = apply_xi(f, i, direction)
                assert g == xi_reference(f, i, direction)
        j = data.draw(st.integers(1, f.n))
        second = data.draw(st.sampled_from(["forward", "inverse"]))
        assert apply_xi(g, j, second) == xi_reference(g, j, second)

    @pytest.mark.parametrize(
        "exps, c",
        [((1, 0), 2**62 + 1), ((1, 0), -(2**63)), ((1, 0), 2**63 + 5), ((0, 4, 0, 0), 2**62 - 1)],
    )
    def test_digits_past_64_bits(self, monkeypatch, exps, c):
        # the bound (1 + 2G)^(n-1) |c| is past 2^63 each time; in the last
        # case |c| is below 2^62 but xi_1 puts 3c on some q^a t^b
        widths = []
        kronecker = hecke.Kronecker

        def spy(*args):
            codec = kronecker(*args)
            widths.append(codec.B)
            return codec

        monkeypatch.setattr(hecke, "Kronecker", spy)
        n = len(exps)
        f = mono(n, exps, ExactScalar.from_int(c))
        for direction in ("forward", "inverse"):
            for i in range(1, n + 1):
                assert apply_xi(f, i, direction) == xi_reference(f, i, direction)
        assert widths == [128] * (2 * n)

    @staticmethod
    def closing_products(monkeypatch):
        """The scalars ZPolynomial.scalar_mul is called with, from now on."""
        calls = []
        scalar_mul = ZPolynomial.scalar_mul
        monkeypatch.setattr(ZPolynomial, "scalar_mul", lambda f, c: calls.append(c) or scalar_mul(f, c))
        return calls

    def test_a_monomial_denominator_divides_while_unpacking(self, monkeypatch):
        # L = q^2 t: the runner shifts the decode by q^-2 t^-1 and makes
        # no closing scalar product
        f = mono(3, (1, 0, 2), ExactScalar(QTPolynomial.const(3) + _Q, QTPolynomial.monomial(2, 1)))
        f = f + mono(3, (0, 2, -1), ExactScalar.t(-1)) + mono(3, (0, 0, 1), ExactScalar.from_int(-5))
        cases = [(i, d) for i in range(1, 4) for d in ("forward", "inverse")]
        expected = [xi_reference(f, i, d) for i, d in cases]
        calls = self.closing_products(monkeypatch)
        assert [apply_xi(f, i, d) for i, d in cases] == expected
        assert calls == []

    @pytest.mark.parametrize(
        "f",
        [
            mono(2, (0, 0), ExactScalar.from_fraction(Fraction(1, 2))),
            mono(3, (1, 0, 2), ExactScalar(_Q + _T, QTPolynomial.one() - _Q * _T)) + mono(3, (0, 1, 0)),
        ],
        ids=["L=2", "L=1-qt"],
    )
    def test_any_other_denominator_keeps_the_closing_product(self, monkeypatch, f):
        cases = [(i, d) for i in range(1, f.n + 1) for d in ("forward", "inverse")]
        expected = [xi_reference(f, i, d) for i, d in cases]
        calls = self.closing_products(monkeypatch)
        assert [apply_xi(f, i, d) for i, d in cases] == expected
        assert len(calls) == len(cases)

    def test_runs_no_exact_step(self, monkeypatch):
        rng = random.Random(41)
        cases = [macdonald.nonsym_E(lam) for lam in [(1, 0, 2), (0, 2, 1), (2, 0)]]
        cases += [random_zpoly(rng, n).scalar_mul(ExactScalar.q(-1)) for n in (1, 2, 3)]
        expected = [
            [xi_reference(f, i, d) for i in range(1, f.n + 1) for d in ("forward", "inverse")]
            for f in cases
        ]

        def no_exact_step(*args, **kwargs):
            raise AssertionError("ExactScalar Hecke or Delta step reached")

        monkeypatch.setattr(hecke, "apply_hecke", no_exact_step)
        monkeypatch.setattr(hecke, "apply_delta", no_exact_step)
        for f, want in zip(cases, expected):
            got = [apply_xi(f, i, d) for i in range(1, f.n + 1) for d in ("forward", "inverse")]
            assert got == want


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

    @pytest.mark.parametrize(
        "lam, error",
        [
            ((1, 0), DimensionMismatch),
            ((0, 0, 0, 1), DimensionMismatch),
            ((2, -1, 0), PreconditionViolated),
        ],
    )
    def test_malformed_composition_rejected(self, lam, error):
        with pytest.raises(error):
            apply_X_lambda(ZPolynomial.one(3), lam)

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

    @staticmethod
    def scaled_after_phi(f, lam, d):
        """q^{lam_m - 1 - d} (Abar_m - lambda-bar_m t^m A_m) on q^d Phi f."""
        m, n = length(lam), len(lam)
        a = abar = apply_phi(f).scalar_mul(ExactScalar.q(d))
        for i in range(n - 1, m - 1, -1):
            a = apply_hecke(a, i, "H")
            abar = apply_hecke(abar, i, "Hbar")
        ev = spectral_vector(lam).scalar(m) * ExactScalar.t(m)
        return (abar - a.scalar_mul(ev)).scalar_mul(ExactScalar.q(lam[m - 1] - 1 - d))

    def test_matches_the_unscaled_formula(self, monkeypatch):
        rng = random.Random(29)
        q, t = QTPolynomial.q(), QTPolynomial.t()
        fracs = [
            ExactScalar(q + QTPolynomial.const(2), t * (QTPolynomial.one() - q * t)),
            ExactScalar.from_fraction(Fraction(2, 3)),
            ExactScalar.q(-2),
        ]
        cases = []
        for n in (2, 3):
            inputs = [ZPolynomial.zero(n)]
            for frac in fracs:
                for k in range(1, 6):
                    # fractional coefficients on terms with z_1-exponent down
                    # to -k; for even k every z_1-exponent is negative
                    shift = [-k] + [0] * (n - 1)
                    g = random_zpoly(rng, n, maxdeg=3, max_terms=3).scalar_mul(frac).monomial_mul(shift)
                    inputs.append(g if k % 2 == 0 else g + random_zpoly(rng, n, maxdeg=3, max_terms=3))
            for lam in itertools.product(range(3), repeat=n):
                if any(lam):
                    # no q^D at all
                    cases.extend((f, lam, self.scaled_after_phi(f, lam, 0)) for f in inputs)

        def no_exact_chain(f, i, variant="H"):
            raise AssertionError(f"ExactScalar Hecke chain reached: H_{i} {variant}")

        # fractional input clears its denominators and takes the packed chains
        monkeypatch.setattr(hecke, "apply_hecke", no_exact_chain)
        for f, lam, expected in cases:
            assert apply_X_lambda(f, lam) == expected

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_scaling_before_phi_matches_scaling_after(self, data):
        n = data.draw(st.integers(2, 3))
        weights = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
        mu = data.draw(weights)
        lam = data.draw(weights.filter(any))
        # E_mu has fractional coefficients once mu is not zero
        f = macdonald.nonsym_E(mu)
        d = max(e[0] for e in f.terms)
        assert apply_X_lambda(f, lam) == self.scaled_after_phi(f, lam, d)

    def test_creation_chains_stay_integral(self, monkeypatch, cold_caches):
        # every nonzero-weight creation step runs its Hecke chains on
        # packed ints, entered with an integral q^D Phi f; the ExactScalar
        # chain (apply_hecke) is never reached
        creation_step = macdonald.apply_X_lambda
        run_packed = hecke._run_packed
        step = []
        entered = []

        def tagged_step(f, lam):
            step[:] = [lam]
            return creation_step(f, lam)

        def integral_packed(g, *args, **kwargs):
            entered.append(step[0])
            assert all(c.is_integral() for c in g.terms.values())
            return run_packed(g, *args, **kwargs)

        def no_fallback(f, i, variant="H"):
            raise AssertionError(f"ExactScalar Hecke chain reached: H_{i} {variant}")

        monkeypatch.setattr(macdonald, "apply_X_lambda", tagged_step)
        monkeypatch.setattr(hecke, "_run_packed", integral_packed)
        monkeypatch.setattr(hecke, "apply_hecke", no_fallback)
        steps = []
        for n in (1, 2, 3):
            for d in range(5):
                for lam in compositions(d, n):
                    macdonald.nonsym_calE(lam)
                    if d:
                        steps.append(lam)
        assert sorted(entered) == sorted(steps)


integral_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.integers(-5, 5), st.integers(-(2**66), 2**66)).filter(bool),
    min_size=1,
    max_size=3,
).map(lambda t: ExactScalar.from_poly(QTPolynomial(t)))


class TestPackedCreation:
    """apply_X_lambda's packed chains against the ExactScalar chains."""

    @staticmethod
    def exact_chains(f, lam):
        d = max((e[0] for e in f.terms), default=0)
        return TestXLambda.scaled_after_phi(f, lam, d)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_the_exact_chains(self, data):
        # Laurent z-exponents, negative and wide coefficients; a large
        # z_1-exponent makes q^{lam_m - 1 - D} leave powers of q below
        f = data.draw(laurent_zpolys(integral_coeffs))
        lam = data.draw(st.lists(st.integers(0, 3), min_size=f.n, max_size=f.n).filter(any))
        assert apply_X_lambda(f, lam) == self.exact_chains(f, tuple(lam))

    @pytest.mark.parametrize("c", [2**62 + 1, -(2**63), 2**63 + 5])
    def test_digits_past_64_bits(self, monkeypatch, c):
        # with m = n there is no Hecke step and the bound is 2 * L1 = 2|c|,
        # just over 2^63 for the first c; the other two have a digit of
        # 2^63 or more, which 64-bit digits cannot hold
        widths = []
        kronecker = hecke.Kronecker

        def spy(*args):
            codec = kronecker(*args)
            widths.append(codec.B)
            return codec

        monkeypatch.setattr(hecke, "Kronecker", spy)
        f = mono(3, (2, 0, 1), ExactScalar.from_int(c))
        assert apply_X_lambda(f, (1, 0, 1)) == self.exact_chains(f, (1, 0, 1))
        assert widths == [128]

    def test_closing_power_leaves_powers_of_q_below(self):
        # D = 4 > lam_m - 1, and the term at z_1^4 has a q^0 digit
        f = mono(2, (4, 0)) + mono(2, (1, 1), ExactScalar.q(2))
        out = apply_X_lambda(f, (1, 1))
        assert out == self.exact_chains(f, (1, 1))
        assert {c.den for c in out.terms.values()} >= {QTPolynomial.q(4)}


def test_run_packed_widens_and_runs_the_word_again():
    # the word asks for 2^200, past the 64-bit digits of the first codec;
    # f is dense, so the 256-bit re-pack takes Kronecker.pack's byte path
    dense = ExactScalar.from_poly(QTPolynomial({(i, j): i - 2 * j for i in range(8) for j in range(8)}))
    f = ZPolynomial(2, {(1, 0): dense, (0, 2): ExactScalar.q(3) - dense})
    codecs = []

    def word(packed, codec, bound):
        codecs.append(codec)
        if 2**200 >= 2 ** (codec.B - 1):
            raise hecke._Widen(2**200)
        return packed

    assert hecke._run_packed(f, word, 0, 0, 0) == f
    assert len(codecs) == 2
    assert 2**200 < 2 ** (codecs[1].B - 1)


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
