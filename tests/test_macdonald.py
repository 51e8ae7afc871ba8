"""The polynomial bases: E / calE, the eigen-oracle, t-monomials and their
symmetrizations, calJ, Hall-Littlewood, t-Schur and Kostka matrices."""

from fractions import Fraction

import pytest

from kostka_forge.errors import (
    IndexOutOfRange,
    NotAPartition,
    NotInSpan,
    PreconditionViolated,
    TailNotPartition,
    TooFewVariables,
)
from kostka_forge import macdonald
from kostka_forge.hecke import apply_hecke, apply_phi
from kostka_forge.macdonald import (
    _calJ_seed,
    _span_below,
    eigen_oracle_E,
    expand_in_partial_t_monomials,
    expand_in_t_monomials,
    haction_step,
    hall_littlewood,
    kostka_matrix,
    nonsym_calE,
    nonsym_E,
    sym_calJ,
    sym_J,
    t_monomial,
    t_monomial_hecke_action,
    t_monomial_partial,
    t_schur,
)
from kostka_forge.qt import ExactScalar, QTPolynomial
from kostka_forge.symfunc import msym_coords, schur_bialternant
from kostka_forge.weights import (
    b_factor,
    compositions,
    is_partition,
    length,
    norm_factor,
    order_leq,
    pad,
    partitions,
)
from kostka_forge.zpoly import ZPolynomial

ONE = QTPolynomial.one()
T = QTPolynomial.t()
Q = QTPolynomial.q()


def poly(p):
    return ExactScalar.from_poly(p)


def z(n, i):
    return ZPolynomial.variable(n, i)


def mono(n, exps, coeff=None):
    return ZPolynomial.monomial(n, exps, coeff)


class TestNonsymE:
    def test_zero_composition(self):
        assert nonsym_E((0, 0, 0)) == ZPolynomial.one(3)

    def test_column(self):
        assert nonsym_E((0, 1)) == z(2, 2)

    def test_row(self):
        c = ExactScalar(ONE - T, ONE - Q * T)
        assert nonsym_E((1, 0)) == z(2, 1) + z(2, 2).scalar_mul(c)

    def test_calE_values(self):
        assert nonsym_calE((0, 1)) == mono(2, (0, 1), poly(ONE - Q * QTPolynomial.t(2)))
        expected = mono(2, (1, 0), poly(ONE - Q * T)) + mono(2, (0, 1), poly(ONE - T))
        assert nonsym_calE((1, 0)) == expected

    def test_calE_is_scaled_E(self):
        for lam in [(2, 1), (0, 2, 1), (1, 1, 0)]:
            scaled = nonsym_E(lam).scalar_mul(norm_factor(lam, "nonsymmetric"))
            assert nonsym_calE(lam) == scaled

    def test_eigen_oracle_values(self):
        assert eigen_oracle_E((0, 0)) == ZPolynomial.one(2)
        assert eigen_oracle_E((0, 1)) == z(2, 2)
        assert eigen_oracle_E((1, 0)) == nonsym_E((1, 0))

    def test_span_below_is_a_linear_extension(self):
        for n in range(1, 5):
            for d in range(6):
                for lam in compositions(d, n):
                    span = _span_below(lam)
                    assert span[0] == lam
                    assert sorted(span) == sorted(
                        mu for mu in compositions(d, n) if mu == lam or order_leq(mu, lam) == "less"
                    )
                    for i, mu in enumerate(span):
                        assert all(order_leq(mu, nu) != "less" for nu in span[i + 1 :]), (lam, mu)

    def test_oracle_agreement_sample(self):
        for lam in [(2, 0), (1, 2), (0, 1, 2), (2, 0, 1), (1, 1, 1)]:
            assert nonsym_E(lam) == eigen_oracle_E(lam)


class TestHActionStep:
    def test_simple_swap(self):
        assert haction_step(nonsym_E((0, 1)), (1, 0), 1) == nonsym_E((1, 0))

    def test_degree_two(self):
        assert haction_step(nonsym_E((0, 2)), (2, 0), 1) == nonsym_E((2, 0))

    def test_three_variables(self):
        assert haction_step(nonsym_E((0, 1, 0)), (1, 0, 0), 1) == nonsym_E((1, 0, 0))

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            haction_step(nonsym_E((1, 0)), (0, 1), 1)


class TestTMonomial:
    def test_antidominant_is_plain(self):
        assert t_monomial((0, 1, 2)) == mono(3, (0, 1, 2))

    def test_row(self):
        expected = z(2, 1) + z(2, 2).scalar_mul(poly(ONE - T))
        assert t_monomial((1, 0)) == expected

    def test_leading_term_unitriangular(self):
        f = t_monomial((2, 1))
        assert f.coeff((2, 1)) == ExactScalar.one()
        # direct construction: Hbar_1 applied to z^(1,2)
        assert f == apply_hecke(mono(2, (1, 2)), 1, "Hbar")

    def test_case_table(self):
        act = t_monomial_hecke_action((1, 0), 1, "H")
        assert act.labels == [(0, 1)] and act.coeffs == [ExactScalar.t()]
        act = t_monomial_hecke_action((0, 1), 1, "H")
        assert act.as_dict() == {
            (1, 0): ExactScalar.one(),
            (0, 1): ExactScalar.t() - ExactScalar.one(),
        }
        act = t_monomial_hecke_action((0, 1), 1, "Hbar")
        assert act.labels == [(1, 0)] and act.coeffs == [ExactScalar.one()]

    def test_case_table_matches_operator(self):
        for lam in [(1, 0), (0, 1), (2, 1), (1, 2), (1, 1)]:
            for variant in ("H", "Hbar"):
                exp = t_monomial_hecke_action(lam, 1, variant)
                recon = ZPolynomial.zero(2)
                for mu, c in exp.as_dict().items():
                    recon = recon + t_monomial(mu).scalar_mul(c)
                assert recon == apply_hecke(t_monomial(lam), 1, variant)


class TestPartialTMonomials:
    def test_full_symmetrization(self):
        assert t_monomial_partial((1, 0), 0) == z(2, 1) + z(2, 2)

    def test_augmented(self):
        expected = (z(2, 1) + z(2, 2)).scalar_mul(poly(ONE - T))
        assert t_monomial_partial((1, 0), 0, augmented=True) == expected

    def test_level_n_is_plain(self):
        for lam in [(1, 0), (2, 1), (1, 2)]:
            assert t_monomial_partial(lam, 2) == t_monomial(lam)
            assert t_monomial_partial(lam, 2, augmented=True) == t_monomial(lam)

    def test_tail_must_be_partition(self):
        with pytest.raises(TailNotPartition):
            t_monomial_partial((0, 1), 0)


def _two_phase_expansion(f, m, augmented):
    """Reference: read the partition-tail coefficients off the full
    t-monomial expansion, then rebuild f from them and compare."""
    labels, coeffs = [], []
    recon = ZPolynomial.zero(f.n)
    for mu, c in sorted(expand_in_t_monomials(f).items()):
        tail = mu[m:]
        if is_partition(tail):
            coeff = c / b_factor(tail) if augmented else c
            labels.append(mu)
            coeffs.append(coeff)
            recon = recon + t_monomial_partial(mu, m, augmented).scalar_mul(coeff)
    if recon != f:
        raise NotInSpan("nonzero residual")
    return labels, coeffs


def _partial_outcome(f, m, augmented):
    try:
        exp = expand_in_partial_t_monomials(f, m, augmented)
    except NotInSpan:
        return NotInSpan
    return exp.labels, exp.coeffs


class TestExpansions:
    def test_row_expansion(self):
        exp = expand_in_partial_t_monomials(nonsym_calE((1, 0)), 1)
        assert exp.as_dict() == {
            (1, 0): poly(ONE - Q * T),
            (0, 1): poly(Q * T),
        }
        assert exp.all_integral()

    def test_basis_element_round_trip(self):
        f = t_monomial_partial((2, 1, 0), 1, augmented=True)
        exp = expand_in_partial_t_monomials(f, 1)
        assert exp.as_dict() == {(2, 1, 0): ExactScalar.one()}

    def test_zero_polynomial(self):
        exp = expand_in_partial_t_monomials(ZPolynomial.zero(2), 0)
        assert exp.labels == [] and exp.coeffs == []

    def test_not_in_span(self):
        with pytest.raises(NotInSpan):
            expand_in_partial_t_monomials(nonsym_calE((0, 1)), 0)

    @pytest.mark.parametrize(
        "f, m",
        [
            (nonsym_calE((1, 0)), 3),
            (nonsym_calE((0, 1)), -1),
            (nonsym_calE((0, 1)), -2),
            (ZPolynomial.zero(2), 5),
        ],
    )
    def test_level_out_of_range(self, f, m):
        with pytest.raises(IndexOutOfRange):
            expand_in_partial_t_monomials(f, m)

    def test_matches_two_phase_reference(self):
        # every m, so inputs outside the span (m < l(lam)) are covered too
        outside = 0
        for n in range(1, 4):
            for d in range(5):
                for lam in compositions(d, n):
                    f = nonsym_calE(lam)
                    for m in range(n + 1):
                        for augmented in (False, True):
                            try:
                                expected = _two_phase_expansion(f, m, augmented)
                            except NotInSpan:
                                expected = NotInSpan
                                outside += 1
                            assert _partial_outcome(f, m, augmented) == expected, (lam, m)
        assert outside > 0
        assert _partial_outcome(nonsym_calE((0, 1)), 0, True) is NotInSpan

    def test_partial_does_not_go_through_the_full_basis(self, monkeypatch):
        cases = [(nonsym_calE((1, 0)), 1), (nonsym_calE((0, 2, 1)), 2), (sym_calJ((2, 1, 0)), 0)]
        expected = [expand_in_partial_t_monomials(f, m) for f, m in cases]

        def refuse(f):
            raise AssertionError("full t-monomial expansion called")

        monkeypatch.setattr(macdonald, "expand_in_t_monomials", refuse)
        for (f, m), exp in zip(cases, expected):
            assert expand_in_partial_t_monomials(f, m) == exp

    def test_full_t_monomial_expansion(self):
        coeffs = expand_in_t_monomials(nonsym_calE((1, 0)))
        recon = ZPolynomial.zero(2)
        for mu, c in coeffs.items():
            recon = recon + t_monomial(mu).scalar_mul(c)
        assert recon == nonsym_calE((1, 0))


class TestSymmetric:
    def test_single_row(self):
        expected = (z(2, 1) + z(2, 2)).scalar_mul(poly(ONE - T))
        assert sym_calJ((1, 0)) == expected

    def test_single_column(self):
        c = poly((ONE - T) * (ONE - QTPolynomial.t(2)))
        assert sym_calJ((1, 1)) == mono(2, (1, 1), c)

    def test_monic_normalization(self):
        for lam in [(1, 0), (1, 1), (2, 0), (2, 1, 0)]:
            j = sym_J(lam)
            assert msym_coords(j, len(lam)).get(lam) == ExactScalar.one()

    def test_needs_partition(self):
        with pytest.raises(NotAPartition):
            sym_calJ((0, 1))

    def test_seed_is_the_rotated_integral_form(self):
        # m steps of Phi from calE_lam0, times q^{|lam| - m}
        for n in range(1, 6):
            for d in range(6):
                for part in partitions(d, n):
                    lam = pad(part, n)
                    m = length(lam)
                    seed = nonsym_calE(tuple(lam[i] - 1 for i in range(m - 1, -1, -1)) + (0,) * (n - m))
                    for _ in range(m):
                        seed = apply_phi(seed, "Phi")
                    assert _calJ_seed(lam) == seed.scalar_mul(ExactScalar.q(d - m)), lam

    def test_seed_is_t_symmetric_in_its_zero_parts(self):
        # sym_calJ relies on this to skip the S_{n-m} stabilizer
        t = ExactScalar.t()
        for n, lam in [(3, (1, 0, 0)), (4, (2, 1, 0, 0)), (5, (1, 1, 0, 0, 0)), (5, (3, 1, 0, 0, 0))]:
            seed = _calJ_seed(lam)
            for i in range(1, n - length(lam)):
                assert apply_hecke(seed, i, "H") == seed.scalar_mul(t)


class TestHallLittlewood:
    def test_p_single_row(self):
        assert hall_littlewood((1,), "P", 2) == z(2, 1) + z(2, 2)

    def test_q_single_row(self):
        expected = (z(2, 1) + z(2, 2)).scalar_mul(poly(ONE - T))
        assert hall_littlewood((1,), "Q", 2) == expected

    def test_extra_zero_parts_dropped(self):
        assert hall_littlewood((1, 1, 0), "P", 2) == mono(2, (1, 1))
        assert hall_littlewood((2, 0, 0), "Q", 1) == mono(1, (2,), poly(ONE - T))

    def test_too_few_variables(self):
        with pytest.raises(TooFewVariables):
            hall_littlewood((1, 1, 1), "P", 2)
        with pytest.raises(TooFewVariables):
            hall_littlewood((2, 1), "Q", 1)

    def test_t0_is_schur(self):
        assert hall_littlewood((2, 1), "P", 3).specialize(tv=0) == schur_bialternant(
            (2, 1), 3
        )


class TestTSchur:
    def test_degree_one(self):
        assert t_schur((1,), 3) == hall_littlewood((1,), "Q", 3)

    def test_t0_is_schur(self):
        for mu in [(1,), (2,), (1, 1), (2, 1)]:
            assert t_schur(mu, 3).specialize(tv=0) == schur_bialternant(mu, 3)

    def test_too_few_variables(self):
        with pytest.raises(TooFewVariables):
            t_schur((2, 1), 2)


class TestKostka:
    def test_degree_one(self):
        km = kostka_matrix(1, 1)
        assert km.labels == [(1,)]
        assert km.entries == [[ExactScalar.one()]]

    def test_degree_two_hand_value(self):
        km = kostka_matrix(2, 2)
        assert km.labels == [(2, 0), (1, 1)]
        assert km.entry((2, 0), (2, 0)).is_one()
        assert km.entry((2, 0), (1, 1)) == ExactScalar.q()
        assert km.entry((1, 1), (2, 0)) == ExactScalar.t()
        assert km.entry((1, 1), (1, 1)).is_one()

    def test_integrality_and_diagonal(self):
        # the diagonal is 1 only at q = 0 (already for d = 3 the middle
        # entry is 1 + qt, matching the classical two-parameter tables)
        for d in (2, 3):
            km = kostka_matrix(d, d)
            assert km.all_integral()
            at_q0 = km.specialize(qv=0)
            for lam in km.labels:
                assert at_q0.entry(lam, lam).is_one()

    def test_degree_three_classical_table(self):
        km = kostka_matrix(3, 3)
        q, t = ExactScalar.q(), ExactScalar.t()
        one = ExactScalar.one()
        expected = {
            ((3, 0, 0), (3, 0, 0)): one,
            ((3, 0, 0), (2, 1, 0)): q + q * q,
            ((3, 0, 0), (1, 1, 1)): q**3,
            ((2, 1, 0), (3, 0, 0)): t,
            ((2, 1, 0), (2, 1, 0)): one + q * t,
            ((2, 1, 0), (1, 1, 1)): q,
            ((1, 1, 1), (3, 0, 0)): t**3,
            ((1, 1, 1), (2, 1, 0)): t + t * t,
            ((1, 1, 1), (1, 1, 1)): one,
        }
        for (lam, mu), value in expected.items():
            assert km.entry(lam, mu) == value

    def test_schur_degeneration(self):
        km = kostka_matrix(3, 3).specialize(qv=0, tv=0)
        for i, lam in enumerate(km.labels):
            for j, mu in enumerate(km.labels):
                expected = ExactScalar.one() if i == j else ExactScalar.zero()
                assert km.entries[i][j] == expected

    def test_q0_is_one_variable_kostka_foulkes(self):
        # at q=0 the matrix collapses to the t-transition between the
        # q=0 Macdonald basis and the t-Schur basis: zero unless the
        # column label dominates the row label
        from kostka_forge.weights import dominance_cmp

        km = kostka_matrix(3, 3).specialize(qv=0)
        for i, lam in enumerate(km.labels):
            for j, mu in enumerate(km.labels):
                if km.entries[i][j] and lam != mu:
                    assert dominance_cmp(mu, lam) == "greater"

    def test_too_few_variables(self):
        with pytest.raises(TooFewVariables):
            kostka_matrix(3, 2)

    def test_specialized_fraction_point(self):
        km = kostka_matrix(2, 2).specialize(qv=Fraction(1, 2), tv=Fraction(1, 3))
        assert km.entry((2, 0), (1, 1)) == ExactScalar.from_fraction(Fraction(1, 2))


def test_clear_caches_empties_every_table(monkeypatch):
    import kostka_forge
    from kostka_forge import jack, symfunc

    tables = {
        "macdonald._CALE_CACHE": (macdonald, "_CALE_CACHE"),
        "macdonald._TMONO_CACHE": (macdonald, "_TMONO_CACHE"),
        "macdonald._XI_MONO_CACHE": (macdonald, "_XI_MONO_CACHE"),
        "jack._JACK_CACHE": (jack, "_JACK_CACHE"),
    }
    for module, attr in tables.values():
        monkeypatch.setattr(module, attr, {})
    lam = (0, 1, 1)

    def values():
        return nonsym_calE(lam), t_monomial(lam), jack.jack_nonsym(lam)

    before = values()
    eigen_oracle_E((1, 0))
    kostka_matrix(2, 2)
    sizes = {name: len(getattr(module, attr)) for name, (module, attr) in tables.items()}
    sizes["symfunc._power_sum_basis"] = symfunc._power_sum_basis.cache_info().currsize
    assert all(sizes.values())
    assert kostka_forge.clear_caches() == sizes
    assert all(not getattr(module, attr) for module, attr in tables.values())
    assert symfunc._power_sum_basis.cache_info().currsize == 0
    assert values() == before
