"""Numerical laboratory for heat-kernel estimates of stable-like processes.

The package computes transition densities of rotationally invariant stable,
truncated stable, and Levy-driven Ornstein-Uhlenbeck processes, simulates
their increments reproducibly, and empirically verifies Harnack-type
inequalities (power Harnack, log-Harnack, density ratio bounds) while
fitting the existential constants those inequalities only assert to exist.

Import rule: one function imports scipy, in its own body:
``levy_core.sphere_cf`` imports ``scipy.special`` for J_nu at d >= 2.
No CLI command reaches it, so importing the package and running any command
load numpy alone: the stable density tables, bounded Brent, the tail LP,
the Gauss-Jacobi rule, the matrix exponential, Psi_t and the KDE's filter
are numpy code.  On a 2-core x86-64 host a fresh process importing numpy
takes about 0.13 s, and scipy.special would add about 0.22 s.
"""

__version__ = "0.1.0"

from .levy_core import (
    OUSpec,
    QuadratureError,
    StableSpec,
    TruncatedStableSpec,
    compute_c0,
    compute_sigma,
    describe_spec,
    symbol,
    symbol_radial,
    time_integrated_symbol,
)
from .sampling import (
    JumpDecomposition,
    SeedSpec,
    default_small_jump_cutoff,
    empirical_cf,
    make_jump_decomposition,
    sample_increment,
    sample_rot_stable,
    sample_sym_stable_1d,
    sample_truncated_stable,
)
from .density import (
    BoundConstants,
    DensityEstimateError,
    DensityGrid,
    TruncatedBoundConstants,
    check_truncated_bounds,
    estimate_bound_constants,
    kde_1d,
    phi_envelope,
    stable_cdf_1d,
    stable_density,
    stable_density_grid,
    tail_convexity_profile,
    truncated_density,
    truncated_density_estimate,
)
from .ou_semigroup import (
    FactorizationReport,
    SemigroupSampler,
    TestFunction,
    ball_indicator,
    constant,
    exp_cap,
    factorization_check,
    gaussian_bump,
    matrix_exp,
    ou_noise,
    sample_ou,
)
from .harnack_lab import (
    InequalityReport,
    INEQUALITY_IDS,
    Node,
    NodeResult,
    RatioCase,
    classify_case,
    default_comparison_grid,
    default_ratio_grid,
    fit_constant,
    harnack_shape,
    jensen_suite,
    lemma_ratio_bound,
    truncated_ratio_bound,
    verify_harnack,
    verify_log_harnack,
    verify_p_harnack,
    verify_ratio_lemma,
    verify_truncated_ratio,
    young_suite,
)
from .reports import (
    canonical_json,
    read_samples_dump,
    validate_config,
    validate_report,
    write_report,
    write_samples_dump,
)
