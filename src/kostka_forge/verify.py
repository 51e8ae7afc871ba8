"""Named verification suites: executable forms of the operator identities,
triangularity/integrality statements and degeneration facts the library is
built on.  Each suite returns a JSON-ready report; the CLI fronts them.

All randomness is drawn from a seeded random.Random so failures are
reproducible from the reported options.
"""

from __future__ import annotations

import random

from .errors import NotInSpan
from .hecke import (
    _coset_chain_sum,
    apply_delta,
    apply_hecke,
    apply_phi,
    apply_reflection,
    apply_xi,
)
from .jack import (
    expand_in_limit_basis,
    jack_nonsym,
    jack_sym,
    numeric_limit_check,
)
from .macdonald import (
    eigen_oracle_E,
    expand_in_partial_t_monomials,
    haction_step,
    hall_littlewood,
    nonsym_calE,
    sym_calJ,
    t_monomial,
    t_monomial_partial,
    t_schur,
)
from .qt import ExactScalar
from .symfunc import (
    _solve_scalar_system,
    msym_coords,
    msym_vector,
    schur_bialternant,
)
from .weights import (
    compositions,
    dominance_cmp,
    is_partition,
    length,
    norm_factor,
    order_leq,
    pad,
    partitions,
    spectral_vector,
)
from .zpoly import ZPolynomial

# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


def random_zpoly(rng, n, maxdeg=4, max_terms=5, coeff_bound=5):
    """Up to max_terms random terms with nonzero int coefficients; those on
    one exponent are summed as ints, each nonzero sum becomes one
    ExactScalar, and the result is the constant 1 if every sum is zero."""
    sums = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(n)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(exps)
        s = sums[key] = sums.get(key, 0) + c
        if not s:
            del sums[key]
    terms = {e: ExactScalar.from_int(c) for e, c in sums.items()}
    return ZPolynomial(n, terms or {(0,) * n: ExactScalar.one()})


def _all_compositions(n, maxdeg):
    for d in range(maxdeg + 1):
        yield from compositions(d, n)


def _all_partitions(n, maxdeg):
    """Partitions of weight at most maxdeg in at most n parts, padded to n."""
    for d in range(maxdeg + 1):
        yield from (pad(p, n) for p in partitions(d, n))


# ---------------------------------------------------------------------------
# failure records
# ---------------------------------------------------------------------------


def _to_json(value):
    if isinstance(value, ExactScalar):
        return value.to_json()
    if isinstance(value, tuple):  # a composition
        return list(value)
    return value.to_json_dict() if hasattr(value, "to_json_dict") else value


class _Failures:
    """Each check's failing items, in order, and its first counterexample,
    serialized when it is recorded."""

    def __init__(self):
        self.items, self.examples = {}, {}

    def add(self, name, item, example):
        if name not in self.items:
            self.items[name] = []
            self.examples[name] = {k: _to_json(v) for k, v in example.items()}
        self.items[name].append(item)
        return False

    def equal(self, name, lam, lhs, rhs, **where):
        """lhs == rhs, or a failure of (lambda, *where) holding both sides."""
        return lhs == rhs or self.mismatch(name, lam, lhs, rhs, **where)

    def mismatch(self, name, lam, lhs, rhs, **where):
        """A failure of (lambda, *where) holding the two sides shown."""
        item = (lam, *where.values()) if where else lam
        return self.add(name, item, {"lambda": lam, **where, "lhs": lhs, "rhs": rhs})

    def entry(self, name, detail):
        out = {"name": name, "passed": name not in self.items, "detail": detail}
        if name in self.items:
            out["counterexample"] = self.examples[name]
        return out

    def tally(self, name, total=None, first=False):
        """The entry whose detail counts the failures (of total) and, with
        first, names the first one."""
        items = self.items.get(name, [])
        detail = f"{len(items)} failures" + (f" / {total}" if total is not None else "")
        return self.entry(name, detail + (f"; first: {items[0]}" if first and items else ""))


# ---------------------------------------------------------------------------
# suite: hecke-relations
# ---------------------------------------------------------------------------


def _mul_z(f, i):
    e = [0] * f.n
    e[i - 1] = 1
    return f.monomial_mul(e)


def _hecke_relation_checks(n):
    """(name, predicate(f)) pairs; each predicate is an exact identity."""
    t = ExactScalar.t()
    one = ExactScalar.one()
    q = ExactScalar.q()
    H = lambda f, i: apply_hecke(f, i, "H")
    Hb = lambda f, i: apply_hecke(f, i, "Hbar")
    D = lambda f: apply_delta(f, "forward")
    Phi = lambda f: apply_phi(f, "Phi")
    xi = lambda f, i: apply_xi(f, i, "forward")

    checks = []

    def add(name, pred):
        checks.append((name, pred))

    for i in range(1, n):
        add(
            f"quadratic_H{i}",
            lambda f, i=i: H(H(f, i), i) + H(f, i).scalar_mul(one - t)
            - f.scalar_mul(t) == ZPolynomial.zero(n),
        )
        add(
            f"difference_H{i}",
            lambda f, i=i: H(f, i) - Hb(f, i) == f.scalar_mul(t - one),
        )
        add(f"product_H{i}", lambda f, i=i: H(Hb(f, i), i) == f.scalar_mul(t))
        add(
            f"inverse_H{i}",
            lambda f, i=i: apply_hecke(apply_hecke(f, i, "H_inv"), i, "H") == f,
        )
        add(
            f"cross_z_H{i}",
            lambda f, i=i: _mul_z(H(f, i), i + 1) == Hb(_mul_z(f, i), i),
        )
        add(
            f"cross_H_z{i}",
            lambda f, i=i: H(_mul_z(f, i + 1), i) == _mul_z(Hb(f, i), i),
        )
    for i in range(1, n - 1):
        add(
            f"braid_{i}",
            lambda f, i=i: H(H(H(f, i), i + 1), i) == H(H(H(f, i + 1), i), i + 1),
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            add(f"commute_H{i}_H{j}", lambda f, i=i, j=j: H(H(f, j), i) == H(H(f, i), j))
    # Delta relations
    for i in range(1, n):
        add(
            f"delta_z{i + 1}",
            lambda f, i=i: D(_mul_z(f, i + 1)) == _mul_z(D(f), i),
        )
    add("delta_z1", lambda f: D(_mul_z(f, 1)) == _mul_z(D(f), n).scalar_mul(q.inverse()))
    for i in range(1, n - 1):
        add(f"delta_H{i + 1}", lambda f, i=i: D(H(f, i + 1)) == H(D(f), i))
    if n >= 2:
        add("delta2_H1", lambda f: D(D(H(f, 1))) == H(D(D(f)), n - 1))
        add("phi2_H1", lambda f: Phi(Phi(H(f, 1))) == H(Phi(Phi(f)), n - 1))
    # Phi relations
    for i in range(1, n):
        add(f"phi_z{i + 1}", lambda f, i=i: Phi(_mul_z(f, i + 1)) == _mul_z(Phi(f), i))
        add(f"phi_xi{i + 1}", lambda f, i=i: Phi(xi(f, i + 1)) == xi(Phi(f), i))
    for i in range(1, n - 1):
        add(f"phi_H{i + 1}", lambda f, i=i: Phi(H(f, i + 1)) == H(Phi(f), i))
    # with the eigenvalue-consistent orientation of xi the scalar is 1/q:
    # q * Phi xi_1 = xi_n Phi  (checked against the spectral values)
    add("phi_xi1", lambda f: Phi(xi(f, 1)).scalar_mul(q) == xi(Phi(f), n))
    # xi relations
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(f"xi_commute_{i}_{j}", lambda f, i=i, j=j: xi(xi(f, j), i) == xi(xi(f, i), j))
    for i in range(1, n):
        add(f"xi_H_{i}", lambda f, i=i: xi(H(f, i), i + 1) == Hb(xi(f, i), i))
        add(f"H_xi_{i}", lambda f, i=i: H(xi(f, i + 1), i) == xi(Hb(f, i), i))
        for j in range(1, n):
            if i not in (j, j + 1):
                add(f"xi{i}_H{j}", lambda f, i=i, j=j: xi(H(f, j), i) == H(xi(f, i), j))
    # Phi' equality
    if n >= 2:
        def phi_prime_eq(f):
            g = f
            for i in range(1, n):
                g = apply_hecke(g, i, "Hbar_inv")
            zn = [0] * n
            zn[n - 1] = 1
            return g.monomial_mul(zn) == apply_phi(f, "Phi_prime")

        add("phi_prime_word", phi_prime_eq)
    # invariance criterion on symmetrized input
    def invariance(f):
        g = _coset_chain_sum(f, apply_reflection, 0)
        return all(
            H(g, i) == g.scalar_mul(t) and Hb(g, i) == g for i in range(1, n)
        )

    add("invariance_symmetric", invariance)
    return checks


def suite_hecke_relations(n=3, trials=50, seed=0, maxdeg=4):
    rng = random.Random(seed)
    rec = _Failures()
    checks = _hecke_relation_checks(n)
    for name, pred in checks:
        for trial in range(trials):
            f = random_zpoly(rng, n, maxdeg)
            if not pred(f):
                rec.add(name, trial, {"trial": trial, "f": f})
    for trial in range(trials):
        lam = tuple(rng.randint(0, maxdeg) for _ in range(n))
        i = rng.randint(1, n)
        z = ZPolynomial.monomial(n, lam)
        diff = apply_xi(z, i, "forward") - z.scalar_mul(spectral_vector(lam).scalar(i))
        if not all(order_leq(mu, lam) == "less" for mu in diff.terms):
            rec.add("xi_triangularity", trial, {"trial": trial, "lambda": lam, "i": i})
    return [rec.tally(name, f"{trials} trials") for name in [c[0] for c in checks] + ["xi_triangularity"]]


# ---------------------------------------------------------------------------
# suite: oracle (the E-polynomial theorems)
# ---------------------------------------------------------------------------


def suite_oracle(n=3, maxdeg=4, seed=0, trials=None):
    """The E-polynomial theorems, each an equality lhs == rhs per composition.
    A failing check's counterexample holds the first failing lambda (with i,
    or a and b, where the check has them) and both sides.

    The eigenvalue, fixpoint and support checks are decided on the integral
    form calE_lam = d_lam E_lam, whose coefficients lie in Z[q,t], so their
    arithmetic meets no denominator but a monomial; a failure still shows
    both sides on E_lam.  Each E_lam is built once, as calE_lam / d_lam,
    and kept while checks of its weight or the next one may use it."""
    rec = _Failures()
    lams = list(_all_compositions(n, maxdeg))
    forms = {}
    t = ExactScalar.t()

    def monic(lam):
        e = forms.get(lam)
        if e is None:
            e = forms[lam] = nonsym_calE(lam).scalar_mul(norm_factor(lam).inverse())
        return e

    weight = 0
    for lam in lams:
        if sum(lam) > weight:
            # the checks at lam use E of weight |lam| and |lam| - 1 only
            weight = sum(lam)
            forms = {mu: f for mu, f in forms.items() if sum(mu) == weight - 1}
        cal, d, e = nonsym_calE(lam), norm_factor(lam), monic(lam)
        rec.equal("oracle_oracle", lam, e, eigen_oracle_E(lam))
        sv = spectral_vector(lam)
        for i in range(1, n + 1):
            if apply_xi(cal, i, "forward") != cal.scalar_mul(sv.scalar(i)):
                rec.mismatch("oracle_eigen", lam, apply_xi(e, i, "forward"), e.scalar_mul(sv.scalar(i)), i=i)
        if cal.coeff(lam) != d or not all(mu == lam or order_leq(mu, lam) == "less" for mu in cal.terms):
            # the shape the check asks for: z^lam plus the terms of e below lam
            shape = ZPolynomial.monomial(n, lam) + ZPolynomial(
                n, {mu: c for mu, c in e.terms.items() if order_leq(mu, lam) == "less"}
            )
            rec.mismatch("oracle_support", lam, e, shape)
        for i in range(1, n):
            if lam[i - 1] == lam[i]:
                if apply_hecke(cal, i, "H") != cal.scalar_mul(t):
                    rec.mismatch("oracle_fixpoint", lam, apply_hecke(e, i, "H"), e.scalar_mul(t), i=i)
                elif apply_hecke(cal, i, "Hbar") != cal:
                    rec.mismatch("oracle_fixpoint", lam, apply_hecke(e, i, "Hbar"), e, i=i)
        if lam[-1] != 0:
            # E_lam = q^{lam_n - 1} Phi(E_{lam*}): the q-power compensates
            # the q^{-1} that Phi's rotation puts on the leading monomial
            prev = (lam[-1] - 1,) + lam[:-1]
            scaled = apply_phi(monic(prev), "Phi").scalar_mul(
                ExactScalar.q(lam[-1] - 1)
            )
            rec.equal("oracle_phi", lam, scaled, e)
        for i in range(1, n):
            if lam[i - 1] > lam[i]:
                swapped = list(lam)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                rec.equal("oracle_haction", lam, haction_step(monic(tuple(swapped)), lam, i), e, i=i)
        # interchange of a nonzero part with the end of a following zero run:
        # (1 - c) E_lam = [Hbar_a ... Hbar_{b-1} - c H_a ... H_{b-1}] E_hashed
        # where c = lbar_a t^a when nothing nonzero follows position b; in
        # general the t-exponent ignores later parts larger than lam_a and
        # picks up one t per later nonzero part that is at most lam_a
        for a in range(1, n):
            if lam[a - 1] == 0:
                continue
            b = a + 1
            while b <= n and lam[b - 1] == 0:
                texp = (
                    a
                    - sum(1 for j in range(a - 1) if lam[j] >= lam[a - 1])
                    + sum(1 for j in range(b, n) if 1 <= lam[j] <= lam[a - 1])
                )
                c = ExactScalar.qt_monomial(lam[a - 1], texp)
                if all(x == 0 for x in lam[a:]):
                    rec.equal("oracle_interchange", lam, c, sv.scalar(a) * ExactScalar.t(a), a=a, b=b, part="scalar")
                lhs = e.scalar_mul(ExactScalar.one() - c)
                g = h = monic(
                    lam[: a - 1] + (0,) + lam[a : b - 1] + (lam[a - 1],) + lam[b:]
                )
                for j in range(b - 1, a - 1, -1):
                    g = apply_hecke(g, j, "Hbar")
                    h = apply_hecke(h, j, "H")
                rec.equal("oracle_interchange", lam, lhs, g - h.scalar_mul(c), a=a, b=b)
                b += 1
    return [
        rec.tally(f"oracle_{key}", f"{len(lams)} compositions", first=True)
        for key in ("oracle", "eigen", "support", "fixpoint", "phi", "haction", "interchange")
    ]


# ---------------------------------------------------------------------------
# suite: integrality
# ---------------------------------------------------------------------------


def suite_integrality(n=3, maxdeg=4, seed=0, trials=None):
    """Integrality of calE_lam and of its partial t-monomial expansions, and
    of calJ_lam's t-monomial expansion.  A failing check's counterexample
    holds the first failing lambda (with m where the check has it), the
    form and, where one was computed, its expansion."""
    rec = _Failures()
    lams = list(_all_compositions(n, maxdeg))
    for lam in lams:
        cal = nonsym_calE(lam)
        if not all(c.is_integral() for c in cal.terms.values()):
            rec.add("calE_coefficients_integral", lam, {"lambda": lam, "form": cal})
        for m in range(length(lam), n + 1):
            try:
                exp = expand_in_partial_t_monomials(cal, m)
            except NotInSpan:
                rec.add("partial_tmono_in_span", (lam, m), {"lambda": lam, "m": m, "form": cal})
                continue
            if not exp.all_integral():
                rec.add("partial_tmono_integral", (lam, m), {"lambda": lam, "m": m, "form": cal, "expansion": exp})
    parts = list(_all_partitions(n, maxdeg))
    for lam in parts:
        calj = sym_calJ(lam)
        exp = expand_in_partial_t_monomials(calj, 0)
        if not exp.all_integral():
            rec.add("calJ_tmono_integral", lam, {"lambda": lam, "form": calj, "expansion": exp})
    return [
        rec.tally("calE_coefficients_integral", len(lams)),
        rec.tally("partial_tmono_in_span"),
        rec.tally("partial_tmono_integral"),
        rec.tally("calJ_tmono_integral", f"{len(parts)} partitions"),
    ]


# ---------------------------------------------------------------------------
# suite: degeneration
# ---------------------------------------------------------------------------


def suite_degeneration(n=3, maxdeg=4, seed=0, trials=None):
    rec = _Failures()
    lams = list(_all_compositions(n, maxdeg))
    for lam in lams:
        rec.equal("calE_q0_is_tmonomial", lam, nonsym_calE(lam).specialize(qv=0), t_monomial(lam))
        if lam[-1] != 0:
            prev = (lam[-1] - 1,) + lam[:-1]
            # the exponent counts earlier parts >= lam_n (ties included:
            # the weak inequality is what the braid-recursion produces)
            a = sum(1 for i in range(n - 1) if lam[i] >= lam[-1])
            lhs = apply_phi(t_monomial(prev), "Phi_prime")
            rec.equal("phi_prime_tmonomial_step", lam, lhs, t_monomial(lam).scalar_mul(ExactScalar.t(-a)))
        # each augmented level-m basis element expands at level m+1 with Z[t] coefficients
        m = length(lam)
        if m < n and is_partition(lam[m:]):
            f = t_monomial_partial(lam, m, augmented=True)
            example = {"lambda": lam, "m": m + 1, "form": f}
            try:
                exp = expand_in_partial_t_monomials(f, m + 1)
            except NotInSpan:
                rec.add("augmented_level_ladder", lam, example)
            else:
                if not exp.all_integral():
                    rec.add("augmented_level_ladder", lam, {**example, "expansion": exp})
    for lam in _all_partitions(n, maxdeg):
        lhs = sym_calJ(lam).specialize(qv=0)
        rec.equal("calJ_q0_is_augmented_hl", lam, lhs, t_monomial_partial(lam, 0, augmented=True))
    return [
        rec.tally("calE_q0_is_tmonomial", len(lams)),
        rec.tally("phi_prime_tmonomial_step"),
        rec.tally("augmented_level_ladder"),
        rec.tally("calJ_q0_is_augmented_hl"),
    ]


# ---------------------------------------------------------------------------
# suite: hall-littlewood
# ---------------------------------------------------------------------------


def suite_hall_littlewood(n=3, maxdeg=4, seed=0, trials=None):
    rec = _Failures()
    parts = list(_all_partitions(n, maxdeg))
    for lam in parts:
        hl = hall_littlewood(lam, "P", n)
        for i in range(1, n):
            if not rec.equal("hl_symmetric", lam, apply_reflection(hl, i), hl, i=i):
                break
        coords = {lam: ExactScalar.zero(), **msym_coords(hl, n)}
        for rho, c in coords.items():
            if (c != ExactScalar.one() if rho == lam else dominance_cmp(rho, lam) != "less"):
                rec.add("hl_unitriangular", lam, {"lambda": lam, "rho": rho, "coefficient": c})
                break
        rec.equal("hl_t0_is_schur", lam, hl.specialize(tv=0), schur_bialternant(lam, n))
    return [
        rec.tally("hl_symmetric", f"{len(parts)} partitions"),
        rec.tally("hl_unitriangular"),
        rec.tally("hl_t0_is_schur"),
    ]


# ---------------------------------------------------------------------------
# suite: t-schur
# ---------------------------------------------------------------------------


def t_schur_in_hl_q(degree, n):
    """Transition matrix expressing each S_mu in the Q basis (rows mu)."""
    labels = [pad(p, n) for p in partitions(degree, n)]
    basis = [msym_vector(hall_littlewood(lam, "Q", n), labels) for lam in labels]
    targets = [msym_vector(t_schur(mu, n), labels) for mu in labels]
    return labels, _solve_scalar_system(basis, targets)


def suite_t_schur(n=4, maxdeg=4, seed=0, trials=None):
    rec = _Failures()
    results = []
    for d in range(1, maxdeg + 1):
        name = f"t_schur_unitriangular_d{d}"
        labels, rows = t_schur_in_hl_q(d, n)
        for i, mu in enumerate(labels):
            for j, lam in enumerate(labels):
                entry = rows[i][j]
                # 1 on the diagonal; off it, support strictly above mu in dominance
                if entry != ExactScalar.one() if i == j else entry and dominance_cmp(lam, mu) != "greater":
                    rec.add(name, (mu, lam), {"degree": d, "mu": mu, "lambda": lam, "entry": entry})
        results.append(rec.entry(name, f"{len(labels)} partitions"))
    return results


# ---------------------------------------------------------------------------
# suite: jack
# ---------------------------------------------------------------------------


def _check_positive(rec, name, lam, exp):
    for label, c in exp:
        if not c.is_natural():
            rec.add(name, (lam, label), {"lambda": lam, "label": label, "coefficient": str(c)})


def suite_jack(n=3, maxdeg=4, seed=0, trials=None):
    rec = _Failures()
    lams = list(_all_compositions(n, maxdeg))
    for lam in lams:
        try:
            exp = expand_in_limit_basis(jack_nonsym(lam), length(lam))
        except NotInSpan:
            rec.add("jack_nonsym_in_span", lam, {"lambda": lam, "m": length(lam)})
            continue
        _check_positive(rec, "jack_nonsym_positive", lam, exp)
    for lam in _all_partitions(n, maxdeg):
        _check_positive(rec, "jack_sym_positive", lam, expand_in_limit_basis(jack_sym(lam), 0))
    worst, where = 0.0, None
    for lam in _all_compositions(n, min(maxdeg, 3)):
        for a in (1, 2):
            gap = numeric_limit_check(lam, a, 0.999)
            if gap > worst:
                worst, where = gap, (lam, a)
    if worst >= 5e-3:
        rec.add("jack_numeric_limit", where, {"lambda": where[0], "alpha": where[1], "gap": worst})
    return [
        rec.tally("jack_nonsym_in_span", len(lams)),
        rec.tally("jack_nonsym_positive", first=True),
        rec.tally("jack_sym_positive"),
        rec.entry("jack_numeric_limit", f"worst normalized gap {worst:.2e} (tolerance 5e-3)"),
    ]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

SUITES = {
    "hecke-relations": suite_hecke_relations,
    "oracle": suite_oracle,
    "integrality": suite_integrality,
    "degeneration": suite_degeneration,
    "hall-littlewood": suite_hall_littlewood,
    "t-schur": suite_t_schur,
    "jack": suite_jack,
}


def run_suite(name, n=3, maxdeg=4, trials=50, seed=0):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks = SUITES[name](n=n, maxdeg=maxdeg, seed=seed, trials=trials)
    return {
        "suite": name,
        "options": {"n": n, "maxdeg": maxdeg, "trials": trials, "seed": seed},
        "checks": checks,
        "passed": bool(checks) and all(c["passed"] for c in checks),
    }
