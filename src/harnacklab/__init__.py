"""Numerical laboratory for heat-kernel estimates of stable-like processes.

The package computes transition densities of rotationally invariant stable,
truncated stable, and Levy-driven Ornstein-Uhlenbeck processes, simulates
their increments reproducibly, and empirically verifies Harnack-type
inequalities (power Harnack, log-Harnack, density ratio bounds) while
fitting the existential constants those inequalities only assert to exist.

Import rule: no module imports scipy at module scope.  Each function that
calls scipy imports the submodule it needs in its own body, where a call
sits in a hot scalar loop as ``import scipy.special``, which costs less per
call than ``from scipy import special``.  So importing the package,
building the CLI parser and checking a config load numpy only, and a
command pays at cold start for the scipy it runs and no more.  On a 2-core
x86-64 host a fresh process importing numpy takes about 0.13 s; scipy.special
adds about 0.22 s, linalg 0.24 s, ndimage 0.28 s, optimize and integrate
about 0.5 s each (they load linalg and special), and interpolate 0.28 s on
top of special.

Which commands load what: the stable density path loads no scipy submodule
(the mixture tables' spline, series coefficients and log Phi are numpy
code), so neither does ``density`` on a stable driver, ``stable_cdf_1d`` or
any check that evaluates p_t; a truncated driver's ``verify``, ``density``,
``sample`` and ``estimate`` load none either (bounded Brent, the tail LP and
the Gauss-Jacobi rule are numpy code), nor do the Monte Carlo checks and
``estimate`` of a stable driver with a diagonal drift.  What still loads
scipy: ``sphere_cf``'s Bessel functions, which truncated symbols in d >= 2
take from special; ``matrix_exp`` on a non-diagonal drift (linalg);
``kde_1d`` (ndimage); and ``time_integrated_symbol`` (integrate and linalg).
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
