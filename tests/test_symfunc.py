"""Independent symmetric-function oracles: Schur bialternants and the
power-sum expansion machinery behind the t-Schur construction."""

from fractions import Fraction

from kostka_forge.qt import ExactScalar
from kostka_forge.symfunc import (
    msym_coords,
    power_sum,
    power_sum_product,
    schur_bialternant,
    schur_power_sum_expansion,
)
from kostka_forge.zpoly import ZPolynomial


def z(n, i):
    return ZPolynomial.variable(n, i)


def test_schur_single_row():
    assert schur_bialternant((1,), 2) == z(2, 1) + z(2, 2)


def test_schur_single_column():
    assert schur_bialternant((1, 1), 2) == z(2, 1) * z(2, 2)


def test_schur_hook():
    # s_(2,1) in 3 variables: sum over monomials, m_(2,1) + 2 m_(1,1,1)
    s = schur_bialternant((2, 1), 3)
    assert s.coeff((2, 1, 0)) == ExactScalar.one()
    assert s.coeff((1, 2, 0)) == ExactScalar.one()
    assert s.coeff((1, 1, 1)) == ExactScalar.from_int(2)


def test_power_sum():
    assert power_sum(2, 2) == ZPolynomial.monomial(2, (2, 0)) + ZPolynomial.monomial(
        2, (0, 2)
    )


def test_schur_power_sum_expansion_classic():
    # s_(2) = p_(1,1)/2 + p_(2)/2 and s_(1,1) = p_(1,1)/2 - p_(2)/2
    exp = schur_power_sum_expansion((2,), 2)
    assert exp == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    exp = schur_power_sum_expansion((1, 1), 2)
    assert exp == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}


def test_expansion_reconstructs_schur():
    for mu in [(2, 1), (3,), (1, 1, 1)]:
        n = 3
        exp = schur_power_sum_expansion(mu, n)
        recon = ZPolynomial.zero(n)
        for rho, c in exp.items():
            recon = recon + power_sum_product(rho, n).scalar_mul(
                ExactScalar.from_fraction(c)
            )
        assert recon == schur_bialternant(mu, n)


def test_msym_coords_reads_dominant_monomials():
    f = schur_bialternant((2, 1), 3)
    coords = msym_coords(f, 3)
    assert coords[(2, 1, 0)] == ExactScalar.one()
    assert coords[(1, 1, 1)] == ExactScalar.from_int(2)


def test_power_sum_expansion_does_not_depend_on_n():
    for mu in [(1,), (2, 1), (3,), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]:
        d = sum(mu)
        assert schur_power_sum_expansion(mu, d) == schur_power_sum_expansion(mu, d + 2)
