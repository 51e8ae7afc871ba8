"""Independent symmetric-function oracles: Schur bialternants and the
power-sum expansion machinery behind the t-Schur construction."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from kostka_forge import macdonald, symfunc
from kostka_forge.errors import NotAPartition, SingularSystem
from kostka_forge.qt import ExactScalar, QTPolynomial
from kostka_forge.symfunc import (
    _solve_scalar_system,
    msym_coords,
    msym_vector,
    power_sum,
    power_sum_product,
    schur_bialternant,
    schur_power_sum_expansion,
    t_schur_polynomial,
)
from kostka_forge.zpoly import ZPolynomial


def z(n, i):
    return ZPolynomial.variable(n, i)


def test_schur_single_row():
    assert schur_bialternant((1,), 2) == z(2, 1) + z(2, 2)
    # zero parts beyond n are dropped, as hall_littlewood drops them
    assert schur_bialternant((1, 0, 0), 2) == z(2, 1) + z(2, 2)


def test_schur_single_column():
    assert schur_bialternant((1, 1), 2) == z(2, 1) * z(2, 2)


def test_schur_hook():
    # s_(2,1) in 3 variables: sum over monomials, m_(2,1) + 2 m_(1,1,1)
    s = schur_bialternant((2, 1), 3)
    assert s.coeff((2, 1, 0)) == ExactScalar.one()
    assert s.coeff((1, 2, 0)) == ExactScalar.one()
    assert s.coeff((1, 1, 1)) == ExactScalar.from_int(2)


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_power_sum_of_degree_zero_is_n(n):
    # z_1^0 + ... + z_n^0 = n, and so p_(1,0) = n p_1
    assert power_sum(0, n) == ZPolynomial.one(n).scalar_mul(ExactScalar.from_int(n))
    assert power_sum_product((1, 0), n) == power_sum(1, n).scalar_mul(ExactScalar.from_int(n))


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
    for d in range(7):
        n = max(d, 1)
        for mu in _partitions(d):
            recon = ZPolynomial.zero(n)
            for rho, c in schur_power_sum_expansion(mu, n).items():
                recon = recon + power_sum_product(rho, n).scalar_mul(ExactScalar.from_fraction(c))
            assert recon == schur_bialternant(mu, n), mu


def _t_schur_reference(mu, n):
    """sum_rho c_rho prod_i (1 - t^rho_i) p_rho, on ExactScalars throughout."""
    out = ZPolynomial.zero(n)
    for rho, c in schur_power_sum_expansion(mu, n).items():
        coeff = ExactScalar.from_fraction(c)
        for r in rho:
            coeff = coeff * ExactScalar.from_poly(QTPolynomial.one() - QTPolynomial.t(r))
        out = out + power_sum_product(rho, n).scalar_mul(coeff)
    return out


@pytest.mark.parametrize("d", range(1, 6))
def test_t_schur_sum_in_zt_matches_the_scalar_sum(d):
    for mu in _partitions(d):
        for n in (d, d + 1):
            s = t_schur_polynomial(mu, n)
            assert s == _t_schur_reference(mu, n), (mu, n)
            assert all(c == ExactScalar(c.num, c.den) for c in s.terms.values())


def test_power_sum_expansion_needs_a_partition():
    # a zero counts where it stands: only trailing zeros pass
    for mu in [(1, 2), (0, 1), (2, 0, 1)]:
        with pytest.raises(NotAPartition):
            schur_power_sum_expansion(mu, 3)
        with pytest.raises(NotAPartition):
            t_schur_polynomial(mu, 3)
    assert schur_power_sum_expansion((2, 1, 0), 3) == schur_power_sum_expansion((2, 1), 3)
    assert t_schur_polynomial((2, 1, 0), 3) == t_schur_polynomial((2, 1), 3)


def test_msym_coords_reads_dominant_monomials():
    f = schur_bialternant((2, 1), 3)
    coords = msym_coords(f)
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


def _divide_by_difference(f, i, j):
    """f / (z_i - z_j) for an int polynomial {exponent: coefficient} that
    it divides: in each block of terms that differ only in how the degree
    deg of z_i z_j splits, the quotient's coefficient of z_i^k z_j^(deg-1-k)
    is minus the sum of f's coefficients of z_i^m, m <= k."""
    blocks = {}
    for e, c in f.items():
        rest = e[:i] + e[i + 1:j] + e[j + 1:]
        blocks.setdefault((rest, e[i] + e[j]), {})[e[i]] = c
    out = {}
    for (rest, deg), coeffs in blocks.items():
        acc = 0
        for k in range(min(coeffs), max(coeffs)):
            acc -= coeffs.get(k, 0)
            if acc:
                e = list(rest)
                e.insert(i, k)
                e.insert(j, deg - 1 - k)
                out[tuple(e)] = acc
        assert acc == coeffs[max(coeffs)], "not divisible"
    return out


def _full_alternant_schur(mu, n):
    """a_{mu+delta} / a_delta in all n variables: the n!-term alternant,
    divided by each z_i - z_j, i < j."""
    exps = [m + n - 1 - i for i, m in enumerate(mu + (0,) * (n - len(mu)))]
    f = {}
    for w in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
        f[tuple(exps[a] for a in w)] = -1 if inv % 2 else 1
    for i, j in itertools.combinations(range(n), 2):
        f = _divide_by_difference(f, i, j)
    return ZPolynomial(n, {e: ExactScalar.from_int(c) for e, c in f.items()})


@pytest.mark.parametrize("d", range(5))
def test_bialternant_in_more_variables_matches_the_full_alternant(d):
    # for n > |mu| the Schur polynomial is built from the |mu|-variable one
    for mu in _partitions(d):
        for n in range(d + 1, 8):
            assert schur_bialternant(mu, n) == _full_alternant_schur(mu, n), (mu, n)


def _compositions_up_to(d, n):
    return [mu for mu in itertools.product(range(d + 1), repeat=n) if sum(mu) <= d]


def _has_distinct_shifted_parts(mu):
    shifted = [m + len(mu) - 1 - i for i, m in enumerate(mu)]
    return len(set(shifted)) == len(shifted)


@pytest.mark.parametrize("n", range(1, 6))
def test_divided_differences_match_the_full_alternant(n):
    # every composition, so straightening signs are compared too
    for mu in filter(_has_distinct_shifted_parts, _compositions_up_to(4, n)):
        assert schur_bialternant(mu, n) == _full_alternant_schur(mu, n), mu


@pytest.mark.parametrize("n", range(2, 6))
def test_schur_is_zero_when_mu_plus_delta_repeats_an_entry(n):
    # a_{mu+delta} = 0 there, as for (0, 1) in 2 variables; the alternant
    # as a dict of terms could not cancel its equal exponent vectors
    repeated = [mu for mu in _compositions_up_to(4, n) if not _has_distinct_shifted_parts(mu)]
    assert repeated
    for mu in repeated:
        assert not schur_bialternant(mu, n), mu


@pytest.mark.parametrize("mu", [(0, 1), (1, 0, 2), (2, 1, 1, 0), (3, 2, 1, 1, 0), (2, 2, 0, 1, 0)])
def test_schur_makes_one_division_by_an_adjacent_difference_per_letter_of_w0(monkeypatch, mu):
    n = len(mu)
    divisors = []
    exact_divide = ZPolynomial.exact_divide

    def spy(self, other):
        divisors.append(other)
        return exact_divide(self, other)

    monkeypatch.setattr(ZPolynomial, "exact_divide", spy)
    schur_bialternant(mu, n)
    assert len(divisors) == n * (n - 1) // 2
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    adjacent = [{unit[i]: 1, unit[i + 1]: -1} for i in range(n - 1)]
    for other in divisors:
        assert other.terms in adjacent


def test_power_sum_basis_is_built_once_per_degree(monkeypatch):
    # one solve, with the s_mu that omega does not give as targets: (2, 1)
    # and (1, 1, 1), whose omega image is s_(3)
    calls = []

    def counting(basis, targets):
        calls.append(len(targets))
        return _solve_scalar_system(basis, targets)

    monkeypatch.setattr(symfunc, "_solve_scalar_system", counting)
    symfunc._power_sum_basis.cache_clear()
    for mu in [(3,), (2, 1), (1, 1, 1)]:
        schur_power_sum_expansion(mu, 4)
    assert symfunc._power_sum_basis.cache_info().misses == 1
    assert calls == [2]


def _power_sum_basis_by_full_solve(d):
    """The table with every s_mu of degree d as a target of one solve."""
    labels = list(_partitions(d))
    coords = [tuple(p) + (0,) * (d - len(p)) for p in labels]
    basis = [msym_vector(power_sum_product(rho, d), coords) for rho in labels]
    targets = [msym_vector(schur_bialternant(mu, d), coords) for mu in labels]
    return {
        mu: {rho: Fraction(c.num.const_value(), c.den.const_value()) for rho, c in zip(labels, sol) if c}
        for mu, sol in zip(labels, _solve_scalar_system(basis, targets))
    }


@pytest.mark.parametrize("d", range(7))
def test_power_sum_basis_by_omega_matches_the_full_solve(d):
    got = symfunc._power_sum_basis(d)
    want = _power_sum_basis_by_full_solve(d)
    assert got == want
    assert list(got) == list(want)
    for mu in want:
        assert list(got[mu]) == list(want[mu]), mu


def _t_schur_by_full_rho_sum(mu, n):
    """S_mu from the sum over every exponent of every p_rho, in Z[t] on ints."""
    expansion = schur_power_sum_expansion(mu, n)
    den = math.lcm(*(c.denominator for c in expansion.values()))
    num = {}
    for rho, c in expansion.items():
        factor = {0: c.numerator * (den // c.denominator)}
        for r in rho:
            shifted = dict(factor)
            for b, k in factor.items():
                shifted[b + r] = shifted.get(b + r, 0) - k
            factor = shifted
        for e, k in power_sum_product(rho, n).terms.items():
            acc = num.setdefault(e, {})
            for b, v in factor.items():
                acc[b] = acc.get(b, 0) + k.num.const_value() * v
    out = {}
    for e, acc in num.items():
        terms = {(0, b): v for b, v in acc.items() if v}
        if terms:
            g = math.gcd(den, *terms.values())
            out[e] = ExactScalar(QTPolynomial({k: v // g for k, v in terms.items()}), QTPolynomial.const(den // g))
    return ZPolynomial(n, out)


@pytest.mark.parametrize("d", range(6))
def test_t_schur_on_dominant_exponents_matches_the_full_rho_sum(d):
    for mu in _partitions(d):
        for n in (max(d, 1), d + 2):
            assert t_schur_polynomial(mu, n) == _t_schur_by_full_rho_sum(mu, n), (mu, n)


@pytest.mark.parametrize("d", range(8))
def test_power_sum_coefficient_is_the_coefficient_in_the_product(d):
    # the multiplied-out p_rho is the reference for the count
    for rho in _partitions(d):
        p = power_sum_product(rho, d)
        for kappa in _partitions(d):
            k = symfunc._power_sum_coefficient(rho, kappa)
            assert p.coeff(kappa + (0,) * (d - len(kappa))) == (ExactScalar.from_int(k) if k else None), (rho, kappa)


def test_kostka_path_multiplies_out_no_polynomial(monkeypatch, cold_caches):
    def refuse(self, other):
        raise AssertionError("ZPolynomial product")

    monkeypatch.setattr(ZPolynomial, "__mul__", refuse)
    macdonald.kostka_matrix(5, 5)
    t_schur_polynomial((2, 1), 8)


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
    # an integer system solves over Q, on Fractions, as it does over Q(q,t);
    # the basis is diagonally dominant, so regular
    basis = [[rng.randint(-3, 3) + 10 * (i == j) for i in range(size)] for j in range(size)]
    targets = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(2)]
    scalars = [[ExactScalar.from_int(c) for c in v] for v in basis + targets]
    assert_solves_like_sympy(scalars[:size], scalars[size:])
    rows = _solve_scalar_system([[Fraction(c) for c in v] for v in basis], [[Fraction(c) for c in v] for v in targets])
    assert [[ExactScalar.from_fraction(c) for c in row] for row in rows] == _solve_scalar_system(
        scalars[:size], scalars[size:]
    )


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
    # rows (2,1) and (1,1,1) are solved; (3) is the swap of (1,1,1)'s row
    assert calls == [2]
    assert len(km.entries) == 3
