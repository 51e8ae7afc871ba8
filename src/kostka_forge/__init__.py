"""kostka-forge: exact computation of nonsymmetric and symmetric Macdonald
polynomials, their t-monomial / Hall-Littlewood / t-Schur expansions, the
two-variable Kostka matrix K(q,t), and the Jack (alpha) degeneration.

Everything is computed over the exact field Q(q,t); equality of results is
syntactic equality of canonical forms.
"""

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    IndexOutOfRange,
    KostkaForgeError,
    NotAPartition,
    NotDivisible,
    NotInSpan,
    PoleAtSpecialization,
    PreconditionViolated,
    SingularSystem,
    TailNotPartition,
    TooFewVariables,
    ZeroComposition,
)
from .qt import ExactScalar, QTPolynomial
from .zpoly import AlphaPolynomial, ZPolynomial
from .weights import (
    BoxStats,
    OrbitData,
    SpectralVector,
    b_factor,
    box_stats,
    compositions,
    conjugate,
    is_partition,
    length,
    length_stat,
    multiplicity,
    norm_factor,
    orbit_data,
    order_leq,
    partitions,
    phi_k,
    spectral_vector,
    star_chain,
    star_step,
    t_factorial,
    weight,
)
from .hecke import (
    apply_X_lambda,
    apply_delta,
    apply_divided_difference,
    apply_hecke,
    apply_phi,
    apply_reflection,
    apply_xi,
    hecke_symmetrize,
)
from .macdonald import (
    BasisExpansion,
    KostkaMatrix,
    eigen_oracle_E,
    expand_in_partial_t_monomials,
    expand_in_t_monomials,
    haction_step,
    hall_littlewood,
    kostka_matrix,
    nonsym_E,
    nonsym_calE,
    sym_J,
    sym_calJ,
    t_monomial,
    t_monomial_hecke_action,
    t_monomial_partial,
    t_schur,
)
from .jack import (
    expand_in_limit_basis,
    jack_nonsym,
    jack_sym,
    numeric_limit_check,
    positivity_report,
)
from .verify import SUITES, run_suite
from . import jack, macdonald, symfunc

__version__ = "1.0.0"


# Every memo table, keyed "module.function".  These are the private cached
# functions behind the public ones, so rebinding a public name leaves them
# in place.
_MEMOS = {
    f"{memo.__module__.removeprefix('kostka_forge.')}.{memo.__name__}": memo
    for memo in (
        macdonald._nonsym_calE,
        macdonald._t_monomial,
        macdonald._xi_on_monomial,
        jack._jack_nonsym,
        symfunc._power_sum_basis,
        symfunc._power_sum_coefficient,
    )
}


def clear_caches():
    """Empty the memo tables and return how many entries each held.

    The tables only grow; a long-running process that has built what it
    needs can call this to release them.  Later calls rebuild equal values.
    """
    sizes = {name: memo.cache_info().currsize for name, memo in _MEMOS.items()}
    for memo in _MEMOS.values():
        memo.cache_clear()
    return sizes
