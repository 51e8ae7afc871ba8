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
    positivity_report,
)
from .macdonald import (
    eigen_oracle_E,
    expand_in_partial_t_monomials,
    haction_step,
    hall_littlewood,
    nonsym_E,
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
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, maxdeg)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(exps)
        prev = terms.get(key, ExactScalar.zero())
        s = prev + ExactScalar.from_int(c)
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    if not terms:
        terms = {(0,) * n: ExactScalar.one()}
    return ZPolynomial(n, terms)


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


def _xi_triangularity(rng, n, maxdeg):
    lam = tuple(rng.randint(0, maxdeg) for _ in range(n))
    i = rng.randint(1, n)
    f = apply_xi(ZPolynomial.monomial(n, lam), i, "forward")
    ev = spectral_vector(lam).scalar(i)
    diff = f - ZPolynomial.monomial(n, lam, ev)
    return all(order_leq(mu, lam) == "less" for mu in diff.terms)


def suite_hecke_relations(n=3, trials=50, seed=0, maxdeg=4):
    rng = random.Random(seed)
    results = []
    for name, pred in _hecke_relation_checks(n):
        failures = 0
        for _ in range(trials):
            if not pred(random_zpoly(rng, n, maxdeg)):
                failures += 1
        results.append({"name": name, "passed": failures == 0, "detail": f"{failures} failures / {trials} trials"})
    tri_fail = sum(1 for _ in range(trials) if not _xi_triangularity(rng, n, maxdeg))
    results.append({"name": "xi_triangularity", "passed": tri_fail == 0, "detail": f"{tri_fail} failures / {trials} trials"})
    return results


# ---------------------------------------------------------------------------
# suite: oracle (the E-polynomial theorems)
# ---------------------------------------------------------------------------


def _all_compositions(n, maxdeg):
    for d in range(maxdeg + 1):
        yield from compositions(d, n)


def _to_json(value):
    return value.to_json() if isinstance(value, ExactScalar) else value.to_json_dict()


def _check(name, items, detail, counterexample):
    """A report entry; a failing one also carries its first counterexample."""
    out = {"name": name, "passed": not items, "detail": detail}
    if items:
        out["counterexample"] = counterexample
    return out


def suite_oracle(n=3, maxdeg=4, seed=0, trials=None):
    """The E-polynomial theorems, each an equality lhs == rhs per composition.
    A failing check's counterexample holds the first failing lambda (with i,
    or a and b, where the check has them) and both sides."""
    results = []
    bad = {"oracle": [], "eigen": [], "support": [], "fixpoint": [], "phi": [], "haction": [], "interchange": []}
    examples = {}
    count = 0

    def holds(key, item, lhs, rhs, **where):
        if lhs == rhs:
            return True
        bad[key].append(item)
        if key not in examples:
            examples[key] = {"lambda": list(lam), **where, "lhs": _to_json(lhs), "rhs": _to_json(rhs)}
        return False

    for lam in _all_compositions(n, maxdeg):
        count += 1
        e = nonsym_E(lam)
        holds("oracle", lam, e, eigen_oracle_E(lam))
        sv = spectral_vector(lam)
        for i in range(1, n + 1):
            holds("eigen", (lam, i), apply_xi(e, i, "forward"), e.scalar_mul(sv.scalar(i)), i=i)
        if e.coeff(lam) != ExactScalar.one() or not all(
            mu == lam or order_leq(mu, lam) == "less" for mu in e.terms
        ):
            # the shape the check asks for: z^lam plus the terms of e below lam
            shape = ZPolynomial.monomial(n, lam) + ZPolynomial(
                n, {mu: c for mu, c in e.terms.items() if order_leq(mu, lam) == "less"}
            )
            holds("support", lam, e, shape)
        t = ExactScalar.t()
        for i in range(1, n):
            if lam[i - 1] == lam[i]:
                if holds("fixpoint", (lam, i), apply_hecke(e, i, "H"), e.scalar_mul(t), i=i):
                    holds("fixpoint", (lam, i), apply_hecke(e, i, "Hbar"), e, i=i)
        if lam[-1] != 0:
            # E_lam = q^{lam_n - 1} Phi(E_{lam*}): the q-power compensates
            # the q^{-1} that Phi's rotation puts on the leading monomial
            prev = (lam[-1] - 1,) + lam[:-1]
            scaled = apply_phi(nonsym_E(prev), "Phi").scalar_mul(
                ExactScalar.q(lam[-1] - 1)
            )
            holds("phi", lam, scaled, e)
        for i in range(1, n):
            if lam[i - 1] > lam[i]:
                swapped = list(lam)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                holds("haction", (lam, i), haction_step(nonsym_E(tuple(swapped)), lam, i), e, i=i)
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
                    holds("interchange", (lam, a, b, "scalar"), c, sv.scalar(a) * ExactScalar.t(a), a=a, b=b)
                lhs = e.scalar_mul(ExactScalar.one() - c)
                g = h = nonsym_E(
                    lam[: a - 1] + (0,) + lam[a : b - 1] + (lam[a - 1],) + lam[b:]
                )
                for j in range(b - 1, a - 1, -1):
                    g = apply_hecke(g, j, "Hbar")
                    h = apply_hecke(h, j, "H")
                holds("interchange", (lam, a, b), lhs, g - h.scalar_mul(c), a=a, b=b)
                b += 1
    for key, items in bad.items():
        results.append(
            _check(
                f"oracle_{key}",
                items,
                f"{len(items)} failures / {count} compositions"
                + (f"; first: {items[0]}" if items else ""),
                examples.get(key),
            )
        )
    return results


# ---------------------------------------------------------------------------
# suite: integrality
# ---------------------------------------------------------------------------


def suite_integrality(n=3, maxdeg=4, seed=0, trials=None):
    """Integrality of calE_lam and of its partial t-monomial expansions, and
    of calJ_lam's t-monomial expansion.  A failing check's counterexample
    holds the first failing lambda (with m where the check has it), the
    form and, where one was computed, its expansion."""
    results = []
    cale_bad, expand_bad, span_bad = [], [], []
    examples = {}
    count = 0
    for lam in _all_compositions(n, maxdeg):
        count += 1
        cal = nonsym_calE(lam)
        if not all(c.is_integral() for c in cal.terms.values()):
            cale_bad.append(lam)
            examples.setdefault("cale", {"lambda": list(lam), "form": cal.to_json_dict()})
        for m in range(length(lam), n + 1):
            try:
                exp = expand_in_partial_t_monomials(cal, m)
            except NotInSpan:
                span_bad.append((lam, m))
                examples.setdefault("span", {"lambda": list(lam), "m": m, "form": cal.to_json_dict()})
                continue
            if not exp.all_integral():
                expand_bad.append((lam, m))
                examples.setdefault(
                    "expand",
                    {"lambda": list(lam), "m": m, "form": cal.to_json_dict(), "expansion": exp.to_json_dict()},
                )
    results.append(_check("calE_coefficients_integral", cale_bad, f"{len(cale_bad)} failures / {count}", examples.get("cale")))
    results.append(_check("partial_tmono_in_span", span_bad, f"{len(span_bad)} failures", examples.get("span")))
    results.append(_check("partial_tmono_integral", expand_bad, f"{len(expand_bad)} failures", examples.get("expand")))
    calj_bad = []
    pcount = 0
    for d in range(maxdeg + 1):
        for p in partitions(d, n):
            pcount += 1
            lam = pad(p, n)
            calj = sym_calJ(lam)
            exp = expand_in_partial_t_monomials(calj, 0)
            if not exp.all_integral():
                calj_bad.append(lam)
                examples.setdefault(
                    "calj", {"lambda": list(lam), "form": calj.to_json_dict(), "expansion": exp.to_json_dict()}
                )
    results.append(_check("calJ_tmono_integral", calj_bad, f"{len(calj_bad)} failures / {pcount} partitions", examples.get("calj")))
    return results


# ---------------------------------------------------------------------------
# suite: degeneration
# ---------------------------------------------------------------------------


def suite_degeneration(n=3, maxdeg=4, seed=0, trials=None):
    results = []
    q0_bad, phip_bad, ladder_bad, calj_bad = [], [], [], []
    count = 0
    for lam in _all_compositions(n, maxdeg):
        count += 1
        if nonsym_calE(lam).specialize(qv=0) != t_monomial(lam):
            q0_bad.append(lam)
        if lam[-1] != 0:
            prev = (lam[-1] - 1,) + lam[:-1]
            # the exponent counts earlier parts >= lam_n (ties included:
            # the weak inequality is what the braid-recursion produces)
            a = sum(1 for i in range(n - 1) if lam[i] >= lam[-1])
            lhs = apply_phi(t_monomial(prev), "Phi_prime")
            if lhs != t_monomial(lam).scalar_mul(ExactScalar.t(-a)):
                phip_bad.append(lam)
        # each augmented level-m basis element expands at level m+1 with Z[t] coefficients
        m = length(lam)
        if m < n and is_partition(lam[m:]):
            f = t_monomial_partial(lam, m, augmented=True)
            try:
                exp = expand_in_partial_t_monomials(f, min(m + 1, n))
            except NotInSpan:
                ladder_bad.append(lam)
            else:
                if not exp.all_integral():
                    ladder_bad.append(lam)
    results.append({"name": "calE_q0_is_tmonomial", "passed": not q0_bad, "detail": f"{len(q0_bad)} failures / {count}"})
    results.append({"name": "phi_prime_tmonomial_step", "passed": not phip_bad, "detail": f"{len(phip_bad)} failures"})
    results.append({"name": "augmented_level_ladder", "passed": not ladder_bad, "detail": f"{len(ladder_bad)} failures"})
    for d in range(maxdeg + 1):
        for p in partitions(d, n):
            lam = pad(p, n)
            if sym_calJ(lam).specialize(qv=0) != t_monomial_partial(lam, 0, augmented=True):
                calj_bad.append(lam)
    results.append({"name": "calJ_q0_is_augmented_hl", "passed": not calj_bad, "detail": f"{len(calj_bad)} failures"})
    return results


# ---------------------------------------------------------------------------
# suite: hall-littlewood
# ---------------------------------------------------------------------------


def _is_symmetric(f):
    return all(apply_reflection(f, i) == f for i in range(1, f.n))


def suite_hall_littlewood(n=3, maxdeg=4, seed=0, trials=None):
    results = []
    sym_bad, tri_bad, schur_bad = [], [], []
    count = 0
    for d in range(maxdeg + 1):
        for p in partitions(d, n):
            count += 1
            lam = pad(p, n)
            hl = hall_littlewood(lam, "P", n)
            if not _is_symmetric(hl):
                sym_bad.append(lam)
            coords = msym_coords(hl, n)
            diag = coords.get(lam)
            ok = diag is not None and diag == ExactScalar.one()
            for rho, c in coords.items():
                if rho != lam and dominance_cmp(rho, lam) != "less":
                    ok = False
            if not ok:
                tri_bad.append(lam)
            if hl.specialize(tv=0) != schur_bialternant(p, n):
                schur_bad.append(lam)
    results.append({"name": "hl_symmetric", "passed": not sym_bad, "detail": f"{len(sym_bad)} failures / {count} partitions"})
    results.append({"name": "hl_unitriangular", "passed": not tri_bad, "detail": f"{len(tri_bad)} failures"})
    results.append({"name": "hl_t0_is_schur", "passed": not schur_bad, "detail": f"{len(schur_bad)} failures"})
    return results


# ---------------------------------------------------------------------------
# suite: t-schur
# ---------------------------------------------------------------------------


def t_schur_in_hl_q(degree, n):
    """Transition matrix expressing each S_mu in the Q basis (rows mu)."""
    labels = sorted((pad(p, n) for p in partitions(degree, n)), reverse=True)
    basis = [msym_vector(hall_littlewood(lam, "Q", n), labels) for lam in labels]
    targets = [msym_vector(t_schur(mu, n), labels) for mu in labels]
    return labels, _solve_scalar_system(basis, targets)


def suite_t_schur(n=4, maxdeg=4, seed=0, trials=None):
    results = []
    for d in range(1, maxdeg + 1):
        labels, rows = t_schur_in_hl_q(d, n)
        ok = True
        for i, mu in enumerate(labels):
            if rows[i][i] != ExactScalar.one():
                ok = False
            for j, lam in enumerate(labels):
                # off-diagonal support sits strictly above mu in dominance
                if rows[i][j] and lam != mu and dominance_cmp(lam, mu) != "greater":
                    ok = False
        results.append({"name": f"t_schur_unitriangular_d{d}", "passed": ok, "detail": f"{len(labels)} partitions"})
    return results


# ---------------------------------------------------------------------------
# suite: jack
# ---------------------------------------------------------------------------


def suite_jack(n=3, maxdeg=4, seed=0, trials=None):
    results = []
    nonsym_bad, span_bad = [], []
    count = 0
    for lam in _all_compositions(n, maxdeg):
        count += 1
        f = jack_nonsym(lam)
        try:
            exp = expand_in_limit_basis(f, length(lam))
        except NotInSpan:
            span_bad.append(lam)
            continue
        for item in positivity_report(exp):
            if not (item["natural"] and item["integer_values"]):
                nonsym_bad.append((lam, item["label"]))
    results.append({"name": "jack_nonsym_in_span", "passed": not span_bad, "detail": f"{len(span_bad)} failures / {count}"})
    results.append({"name": "jack_nonsym_positive", "passed": not nonsym_bad, "detail": f"{len(nonsym_bad)} failures" + (f"; first: {nonsym_bad[0]}" if nonsym_bad else "")})
    sym_bad = []
    for d in range(maxdeg + 1):
        for p in partitions(d, n):
            lam = pad(p, n)
            exp = expand_in_limit_basis(jack_sym(lam), 0)
            for item in positivity_report(exp):
                if not (item["natural"] and item["integer_values"]):
                    sym_bad.append((lam, item["label"]))
    results.append({"name": "jack_sym_positive", "passed": not sym_bad, "detail": f"{len(sym_bad)} failures"})
    worst = 0.0
    for lam in _all_compositions(n, min(maxdeg, 3)):
        for a in (1, 2):
            worst = max(worst, numeric_limit_check(lam, a, 0.999))
    results.append({"name": "jack_numeric_limit", "passed": worst < 5e-3, "detail": f"worst normalized gap {worst:.2e} (tolerance 5e-3)"})
    return results


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
