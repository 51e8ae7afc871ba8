"""Independent symmetric-function oracles: Schur bialternants and the
power-sum expansion machinery behind the t-Schur construction."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from kostka_forge import macdonald, symfunc
from kostka_forge.errors import SingularSystem
from kostka_forge.qt import ExactScalar, QTPolynomial
from kostka_forge.symfunc import (
    _solve_scalar_system,
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


def _partitions(d, largest=None):
    """Partitions of d with parts at most largest, in decreasing order."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def _kostka_number(shape, content):
    """Semistandard tableaux of the given shape and content, counted by
    removing the cells of the largest entry: a horizontal strip, so each
    row i keeps between shape[i + 1] and shape[i] cells."""
    shape = tuple(x for x in shape if x)
    if not content:
        return 1 if not shape else 0
    *rest, last = content
    if sum(shape) != sum(content):
        return 0
    total = 0
    for inner in itertools.product(
        *(range(shape[i + 1] if i + 1 < len(shape) else 0, shape[i] + 1) for i in range(len(shape)))
    ):
        if sum(shape) - sum(inner) == last:
            total += _kostka_number(inner, tuple(rest))
    return total


def test_kostka_numbers_by_tableaux():
    assert _kostka_number((2, 1), (1, 1, 1)) == 2
    assert _kostka_number((3, 2), (2, 2, 1)) == 2
    assert _kostka_number((2, 2), (3, 1)) == 0
    assert [_kostka_number(mu, (1,) * 4) for mu in _partitions(4)] == [1, 3, 2, 3, 1]


@pytest.mark.parametrize("d", range(7))
def test_bialternant_coefficients_are_kostka_numbers(d):
    # s_mu = sum_nu K_{mu nu} m_nu: the coefficient of every z^e is the
    # number of tableaux of shape mu whose content is e sorted
    for mu in _partitions(d):
        s = schur_bialternant(mu, d)
        for e, c in s.terms.items():
            assert c == ExactScalar.from_int(_kostka_number(mu, tuple(sorted(e, reverse=True))))
        for nu in _partitions(d):
            k = _kostka_number(mu, nu)
            key = nu + (0,) * (d - len(nu))
            assert s.coeff(key) == (ExactScalar.from_int(k) if k else None)


def test_power_sum_basis_is_built_once_per_degree():
    symfunc._power_sum_basis.cache_clear()
    for mu in [(3,), (2, 1), (1, 1, 1)]:
        schur_power_sum_expansion(mu, 4)
    assert symfunc._power_sum_basis.cache_info().misses == 1


def test_power_sum_expansion_does_not_depend_on_n():
    for mu in [(1,), (2, 1), (3,), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]:
        d = sum(mu)
        assert schur_power_sum_expansion(mu, d) == schur_power_sum_expansion(mu, d + 2)


# ---------------------------------------------------------------------------
# the exact solver
# ---------------------------------------------------------------------------

Q_SYM, T_SYM = sympy.symbols("q t")
QT_FIELD = sympy.QQ.frac_field(Q_SYM, T_SYM)


def random_scalar(rng):
    """A sparse random element of Q(q,t): zero about one time in four,
    otherwise a linear numerator over 1, q or 1 - q t."""
    if rng.random() < 0.25:
        return ExactScalar.zero()
    num = QTPolynomial(
        {(0, 0): rng.randint(-3, 3), (1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2)}
    )
    den = rng.choice([QTPolynomial.one(), QTPolynomial.q(), QTPolynomial.one() - QTPolynomial.monomial(1, 1)])
    return ExactScalar(num, den) if num else ExactScalar.one()


def dense_scalar(rng):
    """A dense random element of Q(q,t): numerator and denominator each
    have three terms of total degree at most 2."""

    def poly():
        exps = rng.sample([(a, b) for a in range(3) for b in range(3 - a)], 3)
        return QTPolynomial({e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in exps})

    return ExactScalar(poly(), poly())


def to_field(c):
    ring = QT_FIELD.field.ring
    return QT_FIELD.field((ring.from_dict(dict(c.num.terms())), ring.from_dict(dict(c.den.terms()))))


def sympy_columns(vectors):
    """The matrix over Q(q,t) whose columns are the given vectors."""
    rows = [[to_field(v[i]) for v in vectors] for i in range(len(vectors[0]))]
    return DomainMatrix(rows, (len(rows), len(vectors)), QT_FIELD)


def assert_solves_like_sympy(basis, targets):
    a = sympy_columns(basis)
    assert a.det() != QT_FIELD.zero
    expected = a.lu_solve(sympy_columns(targets)).to_list()
    rows = _solve_scalar_system(basis, targets)
    assert len(rows) == len(targets)
    for k, row in enumerate(rows):
        assert [to_field(c) for c in row] == [expected[j][k] for j in range(len(basis))]


@pytest.mark.parametrize("size", [3, 4])
def test_solver_matches_sympy(size):
    rng = random.Random(size)
    for _ in range(3):
        basis = [[random_scalar(rng) for _ in range(size)] for _ in range(size)]
        targets = [[random_scalar(rng) for _ in range(size)] for _ in range(3)]
        assert_solves_like_sympy(basis, targets)


def test_solver_matches_sympy_dense():
    rng = random.Random(3)
    basis = [[dense_scalar(rng) for _ in range(3)] for _ in range(3)]
    targets = [[dense_scalar(rng) for _ in range(3)] for _ in range(3)]
    assert_solves_like_sympy(basis, targets)


def test_solver_singular_raises():
    rng = random.Random(7)
    v = [random_scalar(rng) for _ in range(3)]
    w = [random_scalar(rng) for _ in range(3)]
    twice = [c + c for c in v]
    with pytest.raises(SingularSystem):
        _solve_scalar_system([v, w, twice], [w])


def test_kostka_matrix_solves_once(monkeypatch):
    calls = []

    def counting(basis, targets):
        calls.append(len(targets))
        return _solve_scalar_system(basis, targets)

    monkeypatch.setattr(macdonald, "_solve_scalar_system", counting)
    km = macdonald.kostka_matrix(3, 3)
    assert calls == [3]
    assert len(km.entries) == 3
