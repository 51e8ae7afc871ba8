"""The polynomial bases: E / calE, the eigen-oracle, t-monomials and their
symmetrizations, calJ, Hall-Littlewood, t-Schur and Kostka matrices."""

from fractions import Fraction

import pytest

import kostka_forge
from kostka_forge.errors import (
    IndexOutOfRange,
    NotAPartition,
    NotInSpan,
    PreconditionViolated,
    TailNotPartition,
    TooFewVariables,
)
from kostka_forge import hecke, macdonald
from kostka_forge.hecke import apply_hecke, apply_phi
from kostka_forge.macdonald import (
    _calJ_seed,
    _rotated_seed,
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
from kostka_forge.symfunc import _solve_scalar_system, msym_coords, msym_vector, schur_bialternant
from kostka_forge.weights import (
    _transpose,
    b_factor,
    compositions,
    conjugate,
    distinct_permutations,
    is_partition,
    length,
    length_stat,
    norm_factor,
    order_leq,
    pad,
    partitions,
    spectral_vector,
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

    @pytest.mark.parametrize("lam", [(1, -1), (2, -1, 0)])
    def test_calE_rejects_a_negative_part(self, cold_caches, lam):
        with pytest.raises(PreconditionViolated):
            nonsym_calE(lam)

    def test_calE_is_scaled_E(self):
        for lam in [(2, 1), (0, 2, 1), (1, 1, 0)]:
            scaled = nonsym_E(lam).scalar_mul(norm_factor(lam, "nonsymmetric"))
            assert nonsym_calE(lam) == scaled

    def test_eigen_oracle_values(self):
        assert eigen_oracle_E((0, 0)) == ZPolynomial.one(2)
        assert eigen_oracle_E((0, 1)) == z(2, 2)
        assert eigen_oracle_E((1, 0)) == nonsym_E((1, 0))

    @pytest.mark.parametrize(
        "acc",
        [
            # (1 + q) / t^2: the gap's numerator 1 - q t^2 does not divide 1 + q
            ExactScalar(ONE + Q, T * T),
            # a multiple of the gap, over a monomial
            ExactScalar((ONE - Q * T * T) * (ONE + Q), Q * T),
            # a numerator the gap divides, over a denominator that is no monomial
            ExactScalar((ONE - Q * T * T) * T, ONE + Q),
        ],
    )
    def test_exact_quotient_is_the_field_quotient(self, acc):
        gap = ExactScalar.qt_monomial(1, 0) - ExactScalar.qt_monomial(0, -2)
        assert acc / gap == acc * gap.inverse()

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

    def test_oracle_shares_no_packed_code(self, monkeypatch, cold_caches):
        # the oracle's xi_i run in ExactScalar steps: with every packed word
        # refused, it still rebuilds E_lam from cold caches
        lams = [(2, 0, 1), (0, 1, 2), (1, 2, 0), (1, 1, 1)]
        expected = [nonsym_E(lam) for lam in lams]
        kostka_forge.clear_caches()

        def refused(*args, **kwargs):
            raise AssertionError("the oracle reached hecke._run_packed")

        monkeypatch.setattr(hecke, "_run_packed", refused)
        assert [eigen_oracle_E(lam) for lam in lams] == expected


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


class TestIntegralIdentities:
    """The oracle suite's Phi, H-action and interchange identities on the
    integral forms, E_lam's identities times d_lam, for n <= 4, |lam| <= 4."""

    ONE = ExactScalar.one()

    @staticmethod
    def compositions_to(n_max, d_max):
        for n in range(1, n_max + 1):
            for d in range(d_max + 1):
                yield from compositions(d, n)

    def test_phi(self):
        # calE_lam = q^{lam_n - 1} (1 - lbar_n t^n) Phi calE_{lam*}
        checked = 0
        for lam in self.compositions_to(4, 4):
            n = len(lam)
            if lam[-1]:
                star = (lam[-1] - 1,) + lam[:-1]
                x = ExactScalar.q(lam[-1] - 1) * (self.ONE - spectral_vector(lam).scalar(n) * ExactScalar.t(n))
                assert apply_phi(nonsym_calE(star), "Phi").scalar_mul(x) == nonsym_calE(lam), lam
                checked += 1
        assert checked == 69

    def test_hecke(self):
        # (1 - t rho) calE_lam = [(1 - rho) H_i + 1 - t] calE_{s_i lam}
        t = ExactScalar.t()
        checked = 0
        for lam in self.compositions_to(4, 4):
            sv = spectral_vector(lam)
            for i in range(1, len(lam)):
                if lam[i - 1] > lam[i]:
                    rho = sv.scalar(i) / sv.scalar(i + 1)
                    s = nonsym_calE(_transpose(lam, i))
                    rhs = apply_hecke(s, i, "H").scalar_mul(self.ONE - rho) + s.scalar_mul(self.ONE - t)
                    assert nonsym_calE(lam).scalar_mul(self.ONE - t * rho) == rhs, (lam, i)
                    checked += 1
        assert checked == 104

    def test_interchange(self):
        # (1 - t^{b-a} c) calE_lam = [Hbar_a ... Hbar_{b-1} - c H_a ... H_{b-1}] calE_mu
        checked = 0
        for lam in self.compositions_to(4, 4):
            for a in range(1, len(lam)):
                b = a + 1
                while lam[a - 1] and b <= len(lam) and lam[b - 1] == 0:
                    mu = lam[: a - 1] + (0,) + lam[a : b - 1] + (lam[a - 1],) + lam[b:]
                    c = spectral_vector(lam).scalar(a) / spectral_vector(mu).scalar(a)
                    g = h = nonsym_calE(mu)
                    for j in range(b - 1, a - 1, -1):
                        g, h = apply_hecke(g, j, "Hbar"), apply_hecke(h, j, "H")
                    lhs = nonsym_calE(lam).scalar_mul(self.ONE - ExactScalar.t(b - a) * c)
                    assert lhs == g - h.scalar_mul(c), (lam, a, b)
                    checked += 1
                    b += 1
        assert checked == 112


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

    @pytest.mark.parametrize("augmented", [False, True])
    def test_matches_the_exact_scalar_sum(self, augmented):
        """Values equal a ZPolynomial sum of t^L(nu) times
        t_monomial(head + nu), times b_tail(t) when augmented.  The terms
        may come in another order; TestPackedPeel checks what the order
        can change."""
        checked = 0
        for n, maxdeg in [(1, 5), (2, 5), (3, 5), (4, 5), (5, 4)]:
            for d in range(maxdeg + 1):
                for lam in compositions(d, n):
                    for m in range(n + 1):
                        if is_partition(lam[m:]):
                            got = t_monomial_partial(lam, m, augmented)
                            assert got == _reference_t_monomial_partial(lam, m, augmented), (lam, m)
                            checked += 1
        assert checked > 1000

    def test_one_memo_entry_per_seed(self, cold_caches):
        """The symmetrizer starts from the one t-monomial head + rev(tail),
        not from every rearrangement of the tail: the memo holds that seed
        and the t-monomials its Hbar-word passes through."""
        import kostka_forge

        hall_littlewood((2, 2, 1, 0, 0), "P")
        assert kostka_forge.clear_caches()["macdonald._t_monomial"] == 1
        t_monomial_partial((1, 0, 2, 1, 1, 0), 2)
        assert kostka_forge.clear_caches()["macdonald._t_monomial"] == 3


def _reference_t_monomial_partial(lam, m, augmented=False):
    """The partial t-monomial as the sum over the tail's rearrangements, in
    the order distinct_permutations yields them."""
    head, tail = lam[:m], lam[m:]
    out = ZPolynomial.zero(len(lam))
    for nu in distinct_permutations(tail):
        out = out + t_monomial(head + nu).scalar_mul(ExactScalar.t(length_stat(nu)))
    return out.scalar_mul(b_factor(tail)) if augmented else out


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


def _reference_peel(f, element):
    """The peel on exact scalars: the reference for the packed one."""
    coeffs = {}
    rem = f
    while rem:
        support = iter(rem.terms)
        mu = next(support)
        for nu in support:
            if order_leq(mu, nu) == "less":
                mu = nu
        if any(x < 0 for x in mu):
            raise NotInSpan("Laurent support cannot be expanded in t-monomials")
        c = rem.terms[mu]
        coeffs[mu] = c
        rem = rem - element(mu).scalar_mul(c)
    return coeffs


def _partial(f, m, augmented):
    exp = expand_in_partial_t_monomials(f, m, augmented)
    return exp.labels, exp.coeffs


def _reference_t_monomials(f):
    return _reference_peel(f, t_monomial)


def _reference_partial(f, m, augmented):
    def element(mu):
        if not is_partition(mu[m:]):
            raise NotInSpan("nonzero residual outside the partial t-monomial span")
        return _reference_t_monomial_partial(mu, m)

    coeffs = _reference_peel(f, element)
    labels = sorted(coeffs)
    return labels, [coeffs[mu] / b_factor(mu[m:]) if augmented else coeffs[mu] for mu in labels]


def _outcome(run):
    """run()'s result, or the message of the NotInSpan it raised."""
    try:
        return run()
    except NotInSpan as err:
        return NotInSpan, str(err)


def _peeled(expand, f):
    """expand(f)'s (label, coefficient) pairs in peel order, or the message
    of the NotInSpan it raised."""
    return _outcome(lambda: list(expand(f).items()))


class TestPackedPeel:
    @pytest.mark.parametrize("form", [nonsym_E, nonsym_calE])
    def test_matches_the_exact_scalar_peel(self, form):
        # every m, so inputs outside the partial span are covered too
        outside = fractional = 0
        for n in range(1, 4):
            for d in range(5):
                for lam in compositions(d, n):
                    f = form(lam)
                    fractional += not all(c.is_integral() for c in f.terms.values())
                    got = _peeled(expand_in_t_monomials, f)
                    assert got == _peeled(_reference_t_monomials, f), lam
                    for m in range(n + 1):
                        for augmented in (False, True):
                            got = _outcome(lambda: _partial(f, m, augmented))
                            expected = _outcome(lambda: _reference_partial(f, m, augmented))
                            assert got == expected, (lam, m, augmented)
                            outside += got[0] is NotInSpan
        assert outside > 0
        assert fractional > 0 if form is nonsym_E else fractional == 0

    @pytest.mark.parametrize(
        "f",
        [
            mono(2, (-1, 2)),
            mono(2, (1, 0)) + mono(2, (2, -1)),
            mono(2, (1, 0)) + mono(2, (0, -1)),
            mono(3, (1, 2, -1), poly(ONE - T)) + nonsym_calE((0, 1, 1)),
        ],
    )
    def test_laurent_support_is_refused_as_before(self, f):
        expected = _peeled(_reference_t_monomials, f)
        assert expected == (NotInSpan, "Laurent support cannot be expanded in t-monomials")
        assert _peeled(expand_in_t_monomials, f) == expected

    def test_laurent_coefficients(self):
        # q^-2 t^-1 on every coefficient: the runner clears it as L = q^2 t
        f = nonsym_calE((1, 0, 2)).scalar_mul(ExactScalar.qt_monomial(-2, -1))
        got = _peeled(expand_in_t_monomials, f)
        assert got == _peeled(_reference_t_monomials, f)
        assert not all(c.is_integral() for _, c in got)

    def test_digits_past_64_bits_are_repacked(self, monkeypatch):
        widths = []

        class Spy(hecke.Kronecker):
            def __init__(self, *args):
                super().__init__(*args)
                widths.append(self.B)

        monkeypatch.setattr(hecke, "Kronecker", Spy)
        # L1 = 2^62 fits 64-bit digits, but the peel's digits reach 2^64
        f = mono(3, (2, 1, 0), ExactScalar.from_int(2**62))
        got = _peeled(expand_in_t_monomials, f)
        assert got == _peeled(_reference_t_monomials, f)
        assert widths == [64, 128]

    @pytest.mark.parametrize(
        "peel, f, runs",
        [
            (expand_in_t_monomials, nonsym_calE((1, 0, 2)), 1),
            (lambda f: expand_in_partial_t_monomials(f, 1), sym_calJ((2, 1, 0)), 1),
            (expand_in_t_monomials, mono(3, (2, 1, 0), ExactScalar.from_int(2**62)), 2),
        ],
        ids=["full", "partial", "repacked"],
    )
    def test_only_the_runner_packs(self, monkeypatch, peel, f, runs):
        """The word subtracts shifted copies of each c (pack_times) and
        packs no element: the runner's one pack per coefficient of L f, once
        per codec, is every pack."""
        packed = []

        class Spy(hecke.Kronecker):
            def pack(self, p):
                packed.append(p)
                return super().pack(p)

        monkeypatch.setattr(hecke, "Kronecker", Spy)
        peel(f)
        assert len(packed) == runs * len(f.terms)


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
            assert msym_coords(j).get(lam) == ExactScalar.one()

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

    def test_seed_matches_the_term_map_written_by_hand(self):
        # reference: lam0 built and every term rotated and shifted by hand
        def by_hand(lam):
            n = len(lam)
            m = length(lam)
            lam0 = tuple(lam[i] - 1 for i in range(m - 1, -1, -1)) + (0,) * (n - m)
            shift = sum(lam) - m
            out = {}
            for e, c in nonsym_calE(lam0).terms.items():
                out[e[m:] + tuple(x + 1 for x in e[:m])] = c * ExactScalar.q(shift - sum(e[:m]))
            return ZPolynomial(n, out)

        for n in range(1, 5):
            for d in range(6):
                for part in partitions(d, n):
                    lam = pad(part, n)
                    assert _calJ_seed(lam) == by_hand(lam), lam

    def test_rotated_seed_asks_for_lam0_and_gives_the_moved_weight(self):
        asked = []

        def form(lam0):
            asked.append(lam0)
            return ZPolynomial(4, {(2, 1, 0, 5): 7, (0, 0, 1, 0): -1})

        assert list(_rotated_seed((3, 1, 0, 0), form)) == [((0, 5, 3, 2), 7, 3), ((1, 0, 1, 1), -1, 0)]
        assert list(_rotated_seed((0, 0), lambda lam0: asked.append(lam0) or ZPolynomial.one(2))) == [
            ((0, 0), ExactScalar.one(), 0)
        ]
        assert asked == [(0, 2, 0, 0), (0, 0)]

    def test_seed_is_integral(self):
        # every denominator is q^0: sym_calJ relies on this to symmetrize
        # integral data, on which ExactScalar runs no gcd
        for n in range(1, 6):
            for d in range(6):
                for part in partitions(d, n):
                    assert all(c.is_integral() for c in _calJ_seed(pad(part, n)).terms.values()), part

    def test_matches_the_symmetrizer_times_one_minus_t_to_the_m(self):
        for n in range(1, 6):
            for d in range(6):
                for part in partitions(d, n):
                    lam = pad(part, n)
                    m = length(lam)
                    total = hecke.hecke_symmetrize(_calJ_seed(lam), n - m)
                    assert sym_calJ(lam) == total.scalar_mul(ExactScalar.from_poly(ONE - T) ** m), lam

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

    @staticmethod
    def direct_rows(d, n):
        """Labels and every row solved from its own calJ_lam in n variables."""
        labels = sorted((pad(p, n) for p in partitions(d, n)), reverse=True)
        basis = [msym_vector(t_schur(mu, n), labels) for mu in labels]
        targets = [msym_vector(sym_calJ(lam), labels) for lam in labels]
        return labels, _solve_scalar_system(basis, targets)

    @pytest.mark.parametrize("d, n", [(d, n) for d in range(1, 5) for n in range(d + 1, 7)])
    def test_more_variables_than_the_degree(self, d, n):
        # the n-variable route: S_mu and calJ_lam in n variables, one solve
        labels, direct = self.direct_rows(d, n)
        km = kostka_matrix(d, n)
        assert (km.degree, km.n, km.labels) == (d, n, labels)
        assert km.entries == direct

    @pytest.mark.parametrize("d", range(2, 7))
    def test_rows_filled_by_duality_match_the_direct_solve(self, d):
        # every row solved from its own calJ_lam, none filled from a partner
        labels, direct = self.direct_rows(d, d)
        assert kostka_matrix(d, d).entries == direct
        # Macdonald VI (8.15), K_lam,mu(q,t) = K_lam',mu'(t,q), on those rows
        conj = [labels.index(pad(conjugate(lam), d)) for lam in labels]
        for i, row in enumerate(direct):
            for j, entry in enumerate(row):
                assert entry == direct[conj[i]][conj[j]].swap_qt()

    def test_too_few_variables(self):
        with pytest.raises(TooFewVariables):
            kostka_matrix(3, 2)

    def test_specialized_fraction_point(self):
        km = kostka_matrix(2, 2).specialize(qv=Fraction(1, 2), tv=Fraction(1, 3))
        assert km.entry((2, 0), (1, 1)) == ExactScalar.from_fraction(Fraction(1, 2))


def test_clear_caches_empties_every_table(cold_caches):
    import kostka_forge
    from kostka_forge import jack

    lam = (0, 1, 1)

    def values():
        return nonsym_calE(lam), t_monomial(lam), jack.jack_nonsym(lam)

    before = values()
    eigen_oracle_E((1, 0))
    kostka_matrix(2, 2)
    memos = kostka_forge._MEMOS
    sizes = {name: memo.cache_info().currsize for name, memo in memos.items()}
    assert sorted(sizes) == [
        "jack._jack_nonsym",
        "macdonald._nonsym_calE",
        "macdonald._t_monomial",
        "macdonald._xi_on_monomial",
        "symfunc._power_sum_basis",
        "symfunc._power_sum_coefficient",
    ]
    assert all(sizes.values())
    assert kostka_forge.clear_caches() == sizes
    assert all(memo.cache_info().currsize == 0 for memo in memos.values())
    assert values() == before


def test_every_memo_is_registered(cold_caches):
    # a module-level cached function left out of the registry would escape
    # clear_caches(); each registry key names the attribute its memo is
    import importlib
    import pkgutil

    import kostka_forge

    registry = kostka_forge._MEMOS
    for name, memo in registry.items():
        module, attr = name.split(".")
        assert getattr(importlib.import_module(f"kostka_forge.{module}"), attr) is memo
    modules = [kostka_forge] + [
        importlib.import_module(f"kostka_forge.{info.name}") for info in pkgutil.iter_modules(kostka_forge.__path__)
    ]
    memos = [v for m in modules for v in vars(m).values() if hasattr(v, "cache_clear")]
    assert all(any(v is memo for memo in registry.values()) for v in memos)
    nonsym_calE((1, 0))
    kostka_matrix(2, 2)
    assert any(v.cache_info().currsize for v in memos)
    kostka_forge.clear_caches()
    assert all(v.cache_info().currsize == 0 for v in memos)
