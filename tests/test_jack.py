"""The t -> 1 degeneration: alpha-coefficient polynomials, the limit
monomial basis and positivity of expansion coefficients."""

import itertools
import math
from fractions import Fraction

import pytest

from kostka_forge import jack
from kostka_forge.errors import NotAPartition, NotInSpan
from kostka_forge.hecke import apply_phi, apply_reflection
from kostka_forge.jack import (
    _creation_step,
    _jack_seed,
    expand_in_limit_basis,
    jack_nonsym,
    jack_sym,
    limit_basis_element,
    numeric_limit_check,
    positivity_report,
    u_factor,
)
from kostka_forge.weights import compositions, is_partition, length, pad, partitions, star_step
from kostka_forge.zpoly import AlphaPolynomial, ZPolynomial


def amono(n, exps, coeffs=(1,)):
    return ZPolynomial.monomial(n, exps, AlphaPolynomial(coeffs))


def _rebuild_expansion(f, m):
    """Reference: read the coefficients off the partition-tail terms,
    rebuild f from them and compare."""
    out = []
    recon = ZPolynomial.zero(f.n)
    for mu, c in sorted(f.terms.items()):
        if is_partition(mu[m:]):
            coeff = c.scale(Fraction(1, u_factor(mu[m:])))
            out.append((mu, coeff))
            recon = recon + limit_basis_element(mu, m).scalar_mul(coeff)
    if recon != f:
        raise NotInSpan("nonzero residual outside the limit-basis span")
    return out


def _outcome(expand, f, m):
    try:
        return expand(f, m)
    except NotInSpan:
        return NotInSpan


def _creation_reference(f, lam):
    """The creation step as its words, each applied from scratch: the sum
    over i of s_m ... (omit s_i) ... s_{n-1} Phi_1 f, plus
    (alpha lam_m - k + m) s_m ... s_{n-1} Phi_1 f."""
    n, m = len(lam), length(lam)
    k = sum(1 for i in range(m - 1) if lam[i] >= lam[m - 1])
    base = apply_phi(f, "Phi_one")

    def word(skip):
        g = base
        for j in range(n - 1, m - 1, -1):
            if j != skip:
                g = apply_reflection(g, j)
        return g

    out = ZPolynomial.zero(n)
    for i in range(m, n):
        out = out + word(i)
    return out + word(None).scalar_mul(AlphaPolynomial((m - k, lam[m - 1])))


class TestCreationStep:
    def test_matches_the_word_sum(self):
        for n in range(1, 6):
            for d in range(1, 5):
                for lam in compositions(d, n):
                    f = jack_nonsym(star_step(lam))
                    assert _creation_step(f, lam) == _creation_reference(f, lam), lam

    def test_one_chain_of_reflections(self, monkeypatch):
        calls = []

        def counting(f, i):
            calls.append(i)
            return apply_reflection(f, i)

        monkeypatch.setattr(jack, "apply_reflection", counting)
        for lam in [(1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 0, 1)]:
            m = length(lam)
            calls.clear()
            _creation_step(jack_nonsym(star_step(lam)), lam)
            assert len(calls) == 2 * (len(lam) - m), lam

    def test_seed_is_the_rotated_nonsymmetric_form(self):
        for n in range(1, 6):
            for d in range(6):
                for part in partitions(d, n):
                    lam = pad(part, n)
                    m = length(lam)
                    seed = jack_nonsym(tuple(lam[i] - 1 for i in range(m - 1, -1, -1)) + (0,) * (n - m))
                    for _ in range(m):
                        seed = apply_phi(seed, "Phi_one")
                    assert _jack_seed(lam) == seed, lam


class TestNonsym:
    def test_zero_composition(self):
        f = jack_nonsym((0, 0, 0))
        assert f == ZPolynomial(3, {(0, 0, 0): AlphaPolynomial.one()})

    def test_row(self):
        # (alpha + 1) z1 + z2
        expected = amono(2, (1, 0), (1, 1)) + amono(2, (0, 1))
        assert jack_nonsym((1, 0)) == expected

    def test_column(self):
        assert jack_nonsym((0, 1)) == amono(2, (0, 1), (2, 1))

    def test_positivity_small(self):
        for lam in [(2, 0), (1, 1), (2, 1, 0), (0, 2, 1)]:
            f = jack_nonsym(lam)
            m = max((i + 1 for i, x in enumerate(lam) if x), default=0)
            report = positivity_report(expand_in_limit_basis(f, m))
            assert all(r["natural"] and r["integer_values"] for r in report)


class TestSym:
    def test_single_row(self):
        assert jack_sym((1, 0)) == amono(2, (1, 0)) + amono(2, (0, 1))

    def test_single_column(self):
        assert jack_sym((1, 1)) == amono(2, (1, 1), (2,))

    def test_three_variables(self):
        expected = amono(3, (1, 0, 0)) + amono(3, (0, 1, 0)) + amono(3, (0, 0, 1))
        assert jack_sym((1, 0, 0)) == expected

    def test_needs_partition(self):
        with pytest.raises(NotAPartition):
            jack_sym((0, 1))

    def test_matches_plain_symmetrization(self):
        # the plain n! sum over-counts each orbit element by (n-m)!, the
        # order of the seed's stabilizer
        for n in range(1, 5):
            for d in range(5):
                for part in partitions(d, n):
                    lam = tuple(part) + (0,) * (n - len(part))
                    seed = _jack_seed(lam)
                    total = ZPolynomial.zero(n)
                    for w in itertools.permutations(range(n)):
                        total = total + seed.permute(w)
                    inv = Fraction(1, math.factorial(n - length(lam)))
                    assert jack_sym(lam) == total.scalar_mul(AlphaPolynomial.const(inv))


class TestLimitBasis:
    def test_u_factor(self):
        assert u_factor((1, 0)) == 1
        assert u_factor((2, 2, 1)) == 2
        assert u_factor((3, 3, 3, 1, 1, 0)) == 12

    def test_basis_element(self):
        # level 0, mu = (1,1): u = 2! times the single monomial z1 z2
        assert limit_basis_element((1, 1), 0) == amono(2, (1, 1), (2,))
        # level 1, mu = (1, 1, 0): head (1), tail (1,0) has two rearrangements
        el = limit_basis_element((1, 1, 0), 1)
        assert el == amono(3, (1, 1, 0)) + amono(3, (1, 0, 1))

    def test_expand_round_trip(self):
        f = jack_sym((2, 1, 0))
        exp = expand_in_limit_basis(f, 0)
        recon = ZPolynomial.zero(3)
        for mu, c in exp:
            recon = recon + limit_basis_element(mu, 0).scalar_mul(c)
        assert recon == f

    def test_not_in_span(self):
        g = amono(2, (0, 1))  # tail (0,1) of level 0 is not a partition
        with pytest.raises(NotInSpan):
            expand_in_limit_basis(g, 0)

    def test_matches_rebuild_reference(self):
        cases = []
        for n in range(1, 4):
            for d in range(5):
                for lam in compositions(d, n):
                    cases += [(jack_nonsym(lam), m) for m in range(length(lam), n + 1)]
                for p in partitions(d, n):
                    cases.append((jack_sym(pad(p, n)), 0))
        # outside the span: a rearrangement missing, and unequal coefficients
        cases += [(amono(2, (1, 0)), 0), (amono(2, (1, 0)) + amono(2, (0, 1), (2,)), 0)]
        outside = 0
        for f, m in cases:
            expected = _outcome(_rebuild_expansion, f, m)
            outside += expected is NotInSpan
            assert _outcome(expand_in_limit_basis, f, m) == expected, (f, m)
        assert outside == 2


class TestNumericLimit:
    def test_zero_composition_exact(self):
        assert numeric_limit_check((0, 0), 1) == 0.0

    def test_small_cases_within_tolerance(self):
        for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            for alpha in (1, 2):
                assert numeric_limit_check(lam, alpha, 0.999) < 5e-3
