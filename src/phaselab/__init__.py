"""phaselab: a numerical laboratory for the phase-state distinguishing game.

A sign family ``R`` assigns one of ``K`` functions ``[N] -> {+1, -1}`` to each
key; each function determines a real unit "phase state" whose amplitudes are
its values over ``sqrt(N)``.  A one-query adversary (an isometry ``V``, an
accepting projector ``Pi``, and a sign pattern ``f`` applied between the two)
tries to tell a phase state drawn from the family apart from one drawn
uniformly at random.  This package measures and bounds that distinguishing
advantage: exact kernels and maximizers, an isometry rescaling decomposition
with its width statistic, spectral relaxations, concrete attacks, workspace
compression for one-query circuits, and Monte Carlo validators for the
concentration bounds the analysis relies on.
"""

from .numerics import (
    CapacityError,
    DERIVED_TOL,
    RngStream,
    STRUCTURAL_TOL,
    ZERO_WEIGHT_TOL,
    isometry_weights,
    operator_norm,
    parallel_blocks,
    random_isometry,
    random_projector,
    thread_count,
    tv_distance,
)
from .game import (
    AdversarySpec,
    BRUTEFORCE_CUTOFF,
    acceptance_probability,
    advantage_given_f,
    advantage_kernel,
    haar_average_acceptance,
    kernel_quadratic_form,
    max_advantage_bruteforce,
    max_advantage_localsearch,
    phase_state,
    random_family,
    simulate_game,
)
from .decomposition import (
    is_b_bounded,
    rescaling_diagonals,
    truncate_values,
    width,
)
from .relaxations import (
    decoupled_advantage_given_f,
    decoupled_kernel,
    decoupled_spectral_relaxation,
    max_decoupled_bruteforce,
    spectral_relaxation,
    subset_norm_conjecture,
    truncated_spectral_relaxation,
)
from .attacks import (
    BV_DIMENSION_CAP,
    HadamardAttackReport,
    advice_state_adversary,
    bv_query_dimension,
    fwht,
    hadamard_attack_exact_advantage,
    hadamard_attack_report,
    hadamard_game_encoding,
    hadamard_outcome_distribution,
    omniscient_advantage,
    omniscient_distinguisher,
    x_statistic,
)
from .compression import (
    compress_isometry,
    extend_to_isometry,
    measurement_operators,
    verify_one_query_simulation,
)
from .bench import (
    TailReport,
    advantage_tail_bench,
    complex_hoeffding_bench,
    default_suite,
    matrix_hoeffding_bench,
    rademacher_series_bench,
    truncated_conjugation_sampler,
    width_tail_bench,
)

__version__ = "0.22.0"

__all__ = [
    "__version__",
    # numerics
    "CapacityError",
    "DERIVED_TOL",
    "RngStream",
    "STRUCTURAL_TOL",
    "ZERO_WEIGHT_TOL",
    "isometry_weights",
    "operator_norm",
    "parallel_blocks",
    "random_isometry",
    "random_projector",
    "thread_count",
    "tv_distance",
    # game
    "AdversarySpec",
    "BRUTEFORCE_CUTOFF",
    "acceptance_probability",
    "advantage_given_f",
    "advantage_kernel",
    "haar_average_acceptance",
    "kernel_quadratic_form",
    "max_advantage_bruteforce",
    "max_advantage_localsearch",
    "phase_state",
    "random_family",
    "simulate_game",
    # decomposition
    "is_b_bounded",
    "rescaling_diagonals",
    "truncate_values",
    "width",
    # relaxations
    "decoupled_advantage_given_f",
    "decoupled_kernel",
    "decoupled_spectral_relaxation",
    "max_decoupled_bruteforce",
    "spectral_relaxation",
    "subset_norm_conjecture",
    "truncated_spectral_relaxation",
    # attacks
    "BV_DIMENSION_CAP",
    "HadamardAttackReport",
    "advice_state_adversary",
    "bv_query_dimension",
    "fwht",
    "hadamard_attack_exact_advantage",
    "hadamard_attack_report",
    "hadamard_game_encoding",
    "hadamard_outcome_distribution",
    "omniscient_advantage",
    "omniscient_distinguisher",
    "x_statistic",
    # compression
    "compress_isometry",
    "extend_to_isometry",
    "measurement_operators",
    "verify_one_query_simulation",
    # bench
    "TailReport",
    "advantage_tail_bench",
    "complex_hoeffding_bench",
    "default_suite",
    "matrix_hoeffding_bench",
    "rademacher_series_bench",
    "truncated_conjugation_sampler",
    "width_tail_bench",
]
