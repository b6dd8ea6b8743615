"""Quadratic Dirichlet character sums made executable.

Five layers: exact integer kernels (arith), real characters with odd
squarefree modulus (characters), partial sums and mean functionals (sums),
the experiment drivers (experiments), and a caching CLI (cli); workers
forks the helper processes that sums, experiments and cli share work with.
"""

from .arith import (
    SearchExhaustedError,
    build_spf,
    is_prime,
    kronecker,
    liouville,
    sieve_primes,
    smallest_prime_above,
)
from .characters import (
    QuadraticCharacter,
    bulk_values,
    evaluate,
    legendre_character,
    product_character,
)
from .experiments import (
    BurgessPoint,
    CounterexampleHits,
    CounterexampleRecord,
    DeltaEstimate,
    LemmaBgAudit,
    WitnessReport,
    burgess_scan,
    choose_ell,
    counterexample_search,
    estimate_delta,
    least_nonresidue,
    lemma_b_report,
    theorem_a_pipeline,
    verify_lemma_bg,
)
from .sums import (
    CONSTANTS,
    CompletelyMultiplicativeFunction,
    Constants,
    MeansReport,
    SumProfile,
    character_log_sum,
    conv_mean,
    gs_bound,
    ht_u,
    log_mean,
    max_partial_sum,
    mean,
    partial_sum,
    pv_ratios,
    restricted_log_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BurgessPoint",
    "CONSTANTS",
    "CompletelyMultiplicativeFunction",
    "Constants",
    "CounterexampleHits",
    "CounterexampleRecord",
    "DeltaEstimate",
    "LemmaBgAudit",
    "MeansReport",
    "QuadraticCharacter",
    "SearchExhaustedError",
    "SumProfile",
    "WitnessReport",
    "build_spf",
    "bulk_values",
    "burgess_scan",
    "character_log_sum",
    "choose_ell",
    "conv_mean",
    "counterexample_search",
    "estimate_delta",
    "evaluate",
    "gs_bound",
    "ht_u",
    "is_prime",
    "kronecker",
    "least_nonresidue",
    "legendre_character",
    "lemma_b_report",
    "liouville",
    "log_mean",
    "max_partial_sum",
    "mean",
    "partial_sum",
    "product_character",
    "pv_ratios",
    "restricted_log_sum",
    "sieve_primes",
    "smallest_prime_above",
    "theorem_a_pipeline",
    "verify_lemma_bg",
]
