"""Endpoint simulation, semigroup estimation, and the factorization probe."""

import gc
import math
import re
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from harnacklab import (
    OUSpec,
    SeedSpec,
    SemigroupSampler,
    StableSpec,
    TruncatedStableSpec,
    ball_indicator,
    compute_c0,
    constant,
    empirical_cf,
    exp_cap,
    factorization_check,
    gaussian_bump,
    matrix_exp,
    ou_noise,
    sample_increment,
    sample_ou,
    symbol_radial,
    time_integrated_symbol,
)
from harnacklab import ou_semigroup
from harnacklab.harnack_lab import default_comparison_grid, validation_comparison_grid
from harnacklab.ou_semigroup import TestFunction as ParametricFunction
from harnacklab.levy_core import compute_sigma, sphere_surface, taylor_expm
from harnacklab.ou_semigroup import _gramian_factor, _jump_weigher
from harnacklab.sampling import SPLIT_CF_ERROR, _jump_part, _split_cutoff


def mp_expm(A, t):
    """e^{tA} by mpmath at 40 digits, rounded to doubles."""
    with mpmath.workdps(40):
        return np.array((mpmath.expm(mpmath.matrix(A.tolist()) * t)).tolist(), dtype=float)


def stable_ou(A, d=1, alpha=1.0, c=1.0):
    return OUSpec(A=np.asarray(A, dtype=float), driver=StableSpec(d=d, alpha=alpha, c=c))


def endpoints(sampler, x, t):
    """The n endpoints from x at time t on the sampler's stream of t, which
    its blocks read: :func:`sample_ou` with the substream of t's bits."""
    bits = int(np.float64(t).view(np.uint64))
    stream = sampler.seed.substream(bits >> 32, bits & 0xFFFFFFFF)
    return sample_ou(sampler.spec, x, t, sampler.n, stream)


class TestMatrixExp:
    def test_diagonal(self):
        out = matrix_exp(np.diag([0.5, -1.0]), 2.0)
        assert np.allclose(out, np.diag([math.e, math.exp(-2.0)]), rtol=1e-13)

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(matrix_exp(A, 3.0), np.array([[1.0, 3.0], [0.0, 1.0]]), atol=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3)) * 0.4
        ab = matrix_exp(A, 0.3) @ matrix_exp(A, 0.7)
        assert np.allclose(ab, matrix_exp(A, 1.0), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.inf]]))
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            matrix_exp(np.array([[710.0]]), 1.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_is_one_clean_error(self, t):
        # refused before expm, so neither a RuntimeWarning nor scipy's
        # LinAlgError reaches the caller
        spec = stable_ou(0.5 * np.eye(2), d=2, alpha=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time must be finite"):
                matrix_exp(spec.A, t)
            with pytest.raises(ValueError, match="time must be finite"):
                sample_ou(spec, [0.0, 0.0], t, 10, SeedSpec(1))

    def test_overflow_message_does_not_warn(self):
        # ||tA|| itself overflows a double: the message says inf, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="= inf"):
                matrix_exp(np.array([[1e10]]), 1e300)

    # ou-mc's drift 0.5 I at the nine times of its default and validation grids
    OU_MC_TIMES = sorted({nd.t for nd in default_comparison_grid(2) + validation_comparison_grid(2)})

    @pytest.mark.parametrize(
        "A, times",
        [
            ([[0.5]], [0.3, -2.0]),
            ([[-1.5]], [1.0]),
            (np.diag([0.5, 0.5]), OU_MC_TIMES),
            (np.diag([0.5, -1.0, 0.0]), [0.7, -0.7]),
            (np.diag([-0.25, 1.0, 2.0, -3.0]), [1.3]),
            (np.diag([1e-3, -1e-3, 5.0, 0.0, -7.5]), [2.0]),
            ([[0.5, -0.0], [-0.0, -0.5]], [1.0, -1.0]),
            ([[-2.0, 0.0, -0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, 3.0]], [0.5, -0.5]),
        ],
    )
    def test_diagonal_input_gives_expm_bits(self, A, times):
        A = np.asarray(A, dtype=float)
        for t in times:
            assert matrix_exp(A, t).tobytes() == expm(t * A).tobytes()

    def test_diagonal_overflow_raises_the_same_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"overflowed for \|\|tA\|\| = 750$"):
                matrix_exp(0.5 * np.eye(2), 1500.0)

    @pytest.mark.parametrize(
        "A",
        [
            0.5 * np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]]),
            -0.25 * np.eye(3) + np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]]),
            [[0.5, 1.0], [0.0, -0.5]],
        ],
    )
    def test_other_input_is_expm(self, A):
        # scaling and squaring of the Taylor kernel, against mpmath at 40 digits
        A = np.asarray(A, dtype=float)
        for t in (0.1, 1.0, -2.0):
            want = mp_expm(A, t)
            assert np.abs(matrix_exp(A, t) - want).max() <= 1e-14 * np.abs(want).max()

    def test_strongly_contracting_triangular_drift(self):
        # e^{-400 t} next to e^{-t}, through up to ten squarings
        A = np.array([[-400.0, 3.0], [0.0, -1.0]])
        for t in (0.01, 0.5, 1.0, 2.0):
            want = mp_expm(A, t)
            assert np.abs(matrix_exp(A, t) - want).max() <= 1e-13 * np.abs(want).max()

    def test_kernel_is_the_taylor_polynomial(self):
        # e^{hA} cols to degree 3, term by term, with one h per column
        A = np.array([[0.5, 1.0], [-2.0, 0.25]])
        cols, h = np.array([[1.0, -0.5], [2.0, 3.0]]), np.array([0.1, -0.3])
        want = sum(np.stack([np.linalg.matrix_power(hi * A, k) @ c for hi, c in zip(h, cols.T)], axis=1)
                   / math.factorial(k) for k in range(4))
        assert np.allclose(taylor_expm(A, h, cols.copy(), 3), want, rtol=1e-15, atol=1e-15)


class TestSampleOU:
    def test_zero_drift_single_step_is_exact_increment(self):
        driver = StableSpec(d=1, alpha=1.5, c=1.0)
        spec = OUSpec(A=np.zeros((1, 1)), driver=driver)
        seed = SeedSpec(81)
        got = sample_ou(spec, np.array([2.0]), 0.7, 500, seed)
        want = sample_increment(driver, 0.7, 500, seed.rng(0)) + 2.0
        assert np.array_equal(got, want)

    def test_skew_drift_is_one_increment_at_t(self):
        # A = 0.3 times a rotation generator: A + A^T = 0, so W_t is the
        # driver's increment at t itself, and the start moves by e^{tA}
        driver = StableSpec(d=2, alpha=1.0, c=1.0)
        A = np.array([[0.0, 0.3], [-0.3, 0.0]])
        spec = OUSpec(A=A, driver=driver)
        seed = SeedSpec(82)
        t = 0.5
        got = sample_ou(spec, np.array([1.0, -1.0]), t, 200, seed)
        dz = sample_increment(driver, t, 200, seed.rng(0))
        want = matrix_exp(A, t) @ np.array([1.0, -1.0]) + dz
        assert np.array_equal(got, want)

    def test_deterministic_across_calls(self):
        spec = stable_ou([[-0.5]])
        a = sample_ou(spec, [0.0], 1.0, 100, SeedSpec(83))
        b = sample_ou(spec, [0.0], 1.0, 100, SeedSpec(83))
        assert np.array_equal(a, b)

    def test_ou_noise_wrapper(self):
        spec = stable_ou([[-0.5]])
        a = ou_noise(spec, 1.0, 50, SeedSpec(84))
        b = sample_ou(spec, [0.0], 1.0, 50, SeedSpec(84))
        assert np.array_equal(a, b)

    def test_increment_additivity_in_law(self):
        # endpoints over [0, s+t] and the sum of independent endpoints over
        # [0, s], [0, t] share the cf exp(-(s+t) psi)
        for d, alpha, s, t in [(1, 1.3, 0.4, 0.6), (1, 0.7, 0.2, 0.3)]:
            driver = StableSpec(d=d, alpha=alpha, c=1.0)
            spec = OUSpec(A=np.zeros((d, d)), driver=driver)
            n = 2 * 10**4
            summed = (
                ou_noise(spec, s, n, SeedSpec(85).substream(1))
                + ou_noise(spec, t, n, SeedSpec(85).substream(2))
            )
            radii = np.array([0.5, 1.0])
            means, ses = empirical_cf(summed, radii[:, None])
            target = np.exp(-(s + t) * symbol_radial(driver, radii))
            assert np.all(np.abs(means - target) < 4.0 * ses)

    def test_validation(self):
        spec = stable_ou([[0.0]])
        with pytest.raises(ValueError):
            sample_ou(spec, [0.0], 1.0, 0, SeedSpec(0))
        with pytest.raises(ValueError):
            ou_noise(stable_ou([[0.5]]), 0.0, 10, SeedSpec(0))


def effective_time(alpha, a, t):
    """integral of e^{alpha a s} over [0, t]."""
    return math.expm1(alpha * a * t) / (alpha * a)


class TestExactNoise:
    """W_t against its exact characteristic function exp(-time_integrated_symbol)."""

    @pytest.mark.parametrize("driver", [
        StableSpec(d=2, alpha=1.5),
        TruncatedStableSpec(d=1, alpha=1.2, c=1.0, r=1.0),
    ])
    def test_zero_drift_is_the_driver_increment(self, driver):
        spec = OUSpec(A=np.zeros((driver.d, driver.d)), driver=driver)
        got = ou_noise(spec, 0.8, 300, SeedSpec(71))
        assert np.array_equal(got, sample_increment(driver, 0.8, 300, SeedSpec(71).rng(0)))

    @pytest.mark.parametrize("A, a", [
        ([[0.5]], 0.5),
        ([[-1.0]], -1.0),
        ([[0.5, 0.8], [-0.8, 0.5]], 0.5),
    ])
    def test_conformal_drift_is_one_draw_at_effective_time(self, A, a):
        driver = StableSpec(d=len(A), alpha=1.5)
        spec = OUSpec(A=np.array(A), driver=driver)
        t = 0.8
        got = ou_noise(spec, t, 300, SeedSpec(72))
        tau = effective_time(1.5, a, t)
        assert np.array_equal(got, sample_increment(driver, tau, 300, SeedSpec(72).rng(0)))
        # tau psi(xi) is the exact exponent, whatever the skew part
        xi = np.array([0.7, -0.4][: len(A)])
        exponent = time_integrated_symbol(spec, xi, t)
        psi = symbol_radial(driver, float(np.linalg.norm(xi)))[0]
        assert tau * psi == pytest.approx(exponent, rel=1e-10)

    @pytest.mark.parametrize("A", [
        [[0.5, 1.0], [0.0, -0.5]],
        [[0.0, 1.0], [0.0, 0.0]],  # defective
        [[-2.0, 3.0, 0.0], [-1.0, 0.3, 0.5], [0.0, 0.2, 1.1]],
    ])
    def test_jump_weights_match_matrix_exp(self, A):
        A = np.array(A)
        spec = OUSpec(A=A, driver=StableSpec(d=len(A), alpha=1.5))
        t = 1.7
        rng = np.random.default_rng(3)
        u = rng.random(500)
        jumps = rng.standard_normal((500, len(A)))
        want = np.stack([matrix_exp(A, ui * t) @ j for ui, j in zip(u, jumps)])
        got = _jump_weigher(spec, t)(u, jumps.copy())
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("A, t", [
        ([[0.5, 1.0], [0.0, -0.5]], 1.3),
        ([[-1.0]], 1.3),
        ([[-2.0, 3.0], [-1.0, 0.4]], 2.5),  # ||tA|| > 1: doubled up to t
    ])
    def test_gramian_factor_matches_quadrature(self, A, t):
        A = np.array(A)
        gram, _ = integrate.quad_vec(
            lambda s: matrix_exp(A, s) @ matrix_exp(A, s).T, 0.0, t, epsabs=0.0, epsrel=1e-13
        )
        factor = _gramian_factor(A, t)
        assert np.allclose(factor @ factor.T, gram, rtol=1e-12, atol=0.0)

    def test_strongly_contracting_drift(self):
        # e^{-tA} = e^{800} would overflow; the Gramian is (1 - e^{-1600}) / 800
        A = np.array([[-400.0]])
        assert _gramian_factor(A, 2.0)[0, 0] ** 2 == pytest.approx(1.0 / 800.0, rel=1e-13)
        spec = OUSpec(A=A, driver=TruncatedStableSpec(d=1, alpha=1.2, c=1.0, r=1.0))
        w = ou_noise(spec, 2.0, 1000, SeedSpec(76))
        assert np.all(np.isfinite(w)) and np.std(w) < 1.0

    @pytest.mark.parametrize("t", [1e5, 1e300, 1e308])
    def test_non_conformal_overflow_is_one_clean_error(self, t):
        # the Gramian's doubling loop overflows quietly, and it runs before the
        # split cutoff, whose float powers overflow with a bare errno message
        spec = stable_ou([[0.5, 1.0], [0.0, -0.5]], d=2, alpha=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="OU noise covariance overflowed"):
                ou_noise(spec, t, 10, SeedSpec(1))

    @pytest.mark.parametrize("t", [math.inf, 1.7e308, np.float64(1.7e308)], ids=["inf", "1.7e308", "np1.7e308"])
    def test_non_finite_time_times_norm_is_one_clean_error(self, t):
        # t ||A|| = inf would reach the log2 of the Gramian's doubling count
        spec = stable_ou([[0.5, 1.0], [0.0, -0.5]], d=2, alpha=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"OU noise needs a finite t \|\|A\|\|"):
                ou_noise(spec, t, 10, SeedSpec(1))

    @pytest.mark.parametrize("d, alpha, t, c", [(2, 1.5, 0.7, 1.0), (3, 1.9, 1.0, 2.0), (5, 1.2, 0.4, 1.0)])
    def test_split_cutoff_meets_its_cf_error(self, d, alpha, t, c):
        # at A = 0 the small-jump Gaussian changes the cf exponent by
        # t c |S| int_0^eps (|xi|^2 rho^2 / (2d) - 1 + E cos(|xi| rho theta_1)) rho^(-1-alpha),
        # summed here from the Bessel series of E cos(s theta_1); times the cf
        # it peaks at the tolerance, so the cutoff is no smaller than needed
        spec = StableSpec(d=d, alpha=alpha, c=c)
        eps = _split_cutoff(spec, t)
        psi = t * c * compute_sigma(d, alpha)

        def error(x):
            exponent = sum(
                (-1) ** k * (x / 2.0) ** (2 * k) * math.gamma(d / 2.0)
                / (math.factorial(k) * math.gamma(k + d / 2.0)) * eps ** (2 * k - alpha) / (2 * k - alpha)
                for k in range(2, 40)
            )
            return math.exp(-psi * x**alpha) * t * c * sphere_surface(d) * exponent

        peak = (4.0 / (alpha * psi)) ** (1.0 / alpha)
        worst = max(error(x) for x in peak * np.geomspace(0.25, 4.0, 201))
        assert 0.9 * SPLIT_CF_ERROR < worst <= SPLIT_CF_ERROR

    # (driver, A, the measure whose small jumps become a Gaussian, or None)
    CASES = {
        "stable-1d-expanding": (StableSpec(d=1, alpha=1.5), [[0.5]], None),
        "stable-1d-contracting": (StableSpec(d=1, alpha=1.5), [[-1.0]], None),
        "stable-2d-skew": (StableSpec(d=2, alpha=1.5), [[0.5, 0.8], [-0.8, 0.5]], None),
        "stable-2d-general": (
            StableSpec(d=2, alpha=1.5),
            [[0.5, 1.0], [0.0, -0.5]],
            StableSpec(d=2, alpha=1.5),
        ),
        "truncated-1d": (
            TruncatedStableSpec(d=1, alpha=1.2, c=1.0, r=1.0),
            [[-0.5]],
            TruncatedStableSpec(d=1, alpha=1.2, c=1.0, r=1.0),
        ),
        "truncated-2d-nilpotent": (
            TruncatedStableSpec(d=2, alpha=1.2, c=1.0, r=1.0),
            [[0.0, 1.0], [0.0, 0.0]],
            TruncatedStableSpec(d=2, alpha=1.2, c=1.0, r=1.0),
        ),
    }

    @staticmethod
    def proxy_error(spec, split, t, xi):
        """Bound on the relative cf error of the small-jump Gaussian of ``split``.

        1 - cos x - x^2/2 lies in [-x^4/24, 0] and E theta_1^4 = 3/(d(d+2)), so
        the exponent errs by at most m4/(8d(d+2)) times the integral of
        |e^{sA^T} xi|^4 over [0, t], m4 the fourth moment of the jumps below eps.
        """
        eps = _split_cutoff(split, t)
        d, a = split.d, split.alpha
        m4 = split.c * sphere_surface(d) * eps ** (4.0 - a) / (4.0 - a)
        quartic, _ = integrate.quad(
            lambda s: float(np.linalg.norm(matrix_exp(spec.A, s).T @ xi)) ** 4, 0.0, t
        )
        return m4 * quartic / (8.0 * d * (d + 2))

    @pytest.mark.parametrize("case", list(CASES))
    def test_cf_matches_time_integrated_symbol(self, case):
        driver, A, split = self.CASES[case]
        spec = OUSpec(A=np.array(A, dtype=float), driver=driver)
        t, n = 0.5, 2 * 10**5
        if driver.d == 1:
            xis = np.array([[0.3], [0.7], [1.5]])
        else:
            xis = np.array([[0.3, 0.0], [0.5, 0.5], [0.6, -0.6]])
        means, ses = empirical_cf(ou_noise(spec, t, n, SeedSpec(73)), xis)
        for xi, mean, se in zip(xis, means, ses):
            target = math.exp(-time_integrated_symbol(spec, xi, t))
            slack = 4.0 * se
            if split is not None:
                slack += target * self.proxy_error(spec, split, t, xi)
            assert abs(mean - target) < slack, (case, xi, mean, target, slack)

    def test_general_drift_at_high_alpha_and_dimension(self):
        # d = 3, alpha = 1.9 under a non-conformal drift with a skew part, at
        # the verifiers' default n: a few jumps per sample, where a cutoff at
        # t^(1/alpha)/10 would take 525 and overrun the jump budget per chunk
        A = np.array([[0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.1]])
        A += np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.3], [0.0, -0.3, 0.0]])
        driver = StableSpec(d=3, alpha=1.9)
        spec = OUSpec(A=A, driver=driver)
        t, n = 1.0, 10**5
        intensity, _, _ = _jump_part(driver, t)
        assert t * intensity < 5.0
        xis = np.array([[0.1, 0.0, 0.0], [0.1, -0.1, 0.1], [0.0, 0.1, 0.15]])
        means, ses = empirical_cf(ou_noise(spec, t, n, SeedSpec(75)), xis)
        for xi, mean, se in zip(xis, means, ses):
            target = math.exp(-time_integrated_symbol(spec, xi, t))
            assert 0.2 < target < 0.9
            slack = 4.0 * se + target * self.proxy_error(spec, driver, t, xi)
            assert abs(mean - target) < slack, (xi, mean, target, slack)

class TestTestFunctions:
    def test_ball_indicator_values(self):
        f = ball_indicator([1.0, 0.0], 0.5)
        pts = np.array([[1.0, 0.0], [1.0, 0.5], [1.0, 0.51], [-2.0, 0.0]])
        assert f(pts).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert f.min_value == 0.0
        assert not f.geq_one

    def test_gaussian_bump_values(self):
        f = gaussian_bump(0.0, 2.0)
        assert f(np.array([[0.0]]))[0] == 1.0
        assert f(np.array([[2.0]]))[0] == pytest.approx(math.exp(-0.5))

    def test_constant(self):
        f = constant(2.5)
        pts = np.random.default_rng(0).normal(size=(7, 3))
        assert np.all(f(pts) == 2.5)
        assert f.min_value == 2.5 and f.geq_one

    def test_exp_cap_range_and_endpoints(self):
        level = 100.0
        f = exp_cap(level, center=0.0, width=2.0)
        pts = np.linspace(-8.0, 8.0, 41)[:, None]
        vals = f(pts)
        assert np.all(vals >= 1.0)
        assert np.all(vals <= level)
        assert f(np.array([[0.0]]))[0] == pytest.approx(level)
        assert f(np.array([[50.0]]))[0] == pytest.approx(1.0, abs=1e-12)
        assert f.geq_one and f.min_value == 1.0

    def test_shifted(self):
        # x -> f(x + v) is the same family with its center moved by -v
        f = ball_indicator([0.0], 1.0)
        g = ball_indicator(np.array([0.0]) - 2.0, 1.0)
        x = np.array([[0.5], [-1.5], [-3.5]])
        assert np.array_equal(g(x), f(x + 2.0))
        assert g.center == (-2.0,)

    def test_tags(self):
        assert constant(2.0).tag == "constant(2)"
        assert ball_indicator([0.0], 1.0).tag == "ball_indicator(center=[0],scale=1)"
        assert exp_cap(math.e, 0.0, 1.0).tag.startswith("exp_cap(center=[0],scale=1,level=")

    # each family's value as a function of the squared distance to its centre
    KINDS = {
        "ball_indicator": (
            lambda c: ball_indicator(c, 1.5),
            lambda dist2: (dist2 <= 1.5**2).astype(float),
        ),
        "gaussian_bump": (
            lambda c: gaussian_bump(c, 0.8),
            lambda dist2: np.exp(-dist2 / (2.0 * 0.8**2)),
        ),
        "constant": (lambda c: constant(2.5), lambda dist2: np.full(dist2.shape, 2.5)),
        "exp_cap": (
            lambda c: exp_cap(20.0, c, 1.2),
            lambda dist2: np.minimum(20.0, np.exp(math.log(20.0) * np.exp(-dist2 / (2.0 * 1.2**2)))),
        ),
    }

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_values_do_not_depend_on_the_point_layout(self, kind, d):
        # the squared distance has the bits of numpy's row sums, which add
        # fewer than 8 coordinates left to right, for C- and F-ordered points
        make, from_dist2 = self.KINDS[kind]
        rng = np.random.default_rng(100 + d)
        pts = 1.5 * rng.standard_normal((4000, d))
        center = rng.standard_normal(d)
        f = make(center)
        expected = from_dist2(np.sum((pts - center) ** 2, axis=1))
        for layout in (pts, np.asfortranarray(pts)):
            assert np.array_equal(f(layout), expected)

    @staticmethod
    def written_out(f, points):
        """The values as computed before the in-place buffers, step by step."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if f.kind == "constant":
            return np.full(pts.shape[0], f.value)
        center = np.broadcast_to(np.asarray(f.center, dtype=float), pts.shape[1:])
        dist2 = (pts[:, 0] - center[0]) ** 2
        for j in range(1, pts.shape[1]):
            dist2 += (pts[:, j] - center[j]) ** 2
        if f.kind == "ball_indicator":
            return (dist2 <= f.scale**2).astype(float)
        bump = np.exp(-dist2 / (2.0 * f.scale**2))
        if f.kind == "gaussian_bump":
            return bump
        return np.minimum(f.value, np.exp(math.log(f.value) * bump))

    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("kind", ["ball_indicator", "gaussian_bump", "constant", "exp_cap"])
    def test_values_have_the_bits_of_the_written_out_expressions(self, kind, d):
        rng = np.random.default_rng(200 + d)
        center = tuple(rng.standard_normal(d).tolist())
        f = ParametricFunction(kind, center=center, scale=0.9, value=7.5)
        pts = 1.5 * rng.standard_normal((5000, d)) + np.array(center)
        pts[:3] = np.array(center)  # at the centre: distance +0.0, bump 1, cap at its level
        pts[3] = np.array(center) + np.eye(d)[0] * 0.9  # on the ball's boundary
        for layout in (pts, np.asfortranarray(pts), pts[0]):
            expected = self.written_out(f, layout)
            dist2 = f.dist2(layout)
            kept = dist2.copy()
            # radial leaves the squared distances as they are, so one array
            # serves every function with this centre, this one twice
            for got in (f(layout), f.radial(dist2), f.radial(dist2)):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            assert dist2.tobytes() == kept.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            ParametricFunction("nope")
        with pytest.raises(ValueError):
            ball_indicator([0.0], 0.0)
        with pytest.raises(ValueError):
            exp_cap(0.5)

    @pytest.mark.parametrize("scale", [1.5e154, 1e154, 1e200, 1e-162, 1e-200, 5e-324])
    @pytest.mark.parametrize(
        "make", [ball_indicator, gaussian_bump, lambda c, s: exp_cap(2.0, c, s)], ids=["ball", "bump", "cap"]
    )
    def test_a_scale_whose_square_leaves_the_double_range_is_refused(self, make, scale):
        # 2 scale^2 overflows from about 9.5e153 and is 0 below about 1.1e-162
        with pytest.raises(ValueError, match=re.escape(f"got {scale:g}") + "$"):
            make([0.0], scale)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 9e153])
    def test_an_extreme_bump_is_its_limit_without_warnings(self, scale):
        # 2 scale^2 is a subnormal or near the top of the double range: the
        # quotient overflows to -inf off the centre, where exp gives 0
        pts = np.array([[0.0], [1e-170], [1e-150], [1.0], [1e150], [1e200]])
        for f in (gaussian_bump([0.0], scale), exp_cap(3.0, [0.0], scale)):
            values = f(pts)
            assert np.all(np.isfinite(values)) and values[0] == f.value
            assert values[-1] == f.min_value


class TestSemigroupSampler:
    @pytest.mark.parametrize(
        "A", [[[0.0]], [[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.2, 0.0], [0.0, -0.3, 0.0], [0.1, 0.0, 0.2]]],
        ids=["d1", "d2-conformal", "d3-general"],
    )
    def test_noise_is_ou_noise_on_the_stream_of_t(self, A):
        # the stream of time t comes from the bits of t; the draw holds
        # ou_noise's values, one contiguous column per coordinate
        spec = stable_ou(A, d=len(A), alpha=1.5)
        t, n, seed = 0.5, 500, SeedSpec(99)
        w = SemigroupSampler(spec, n, seed).noise(t)
        bits = int(np.float64(t).view(np.uint64))
        assert np.array_equal(w, ou_noise(spec, t, n, seed.substream(bits >> 32, bits & 0xFFFFFFFF)))
        assert w.shape == (n, spec.d)
        assert w.flags.f_contiguous

    def test_noise_order_independent(self):
        spec = stable_ou([[-1.0]])
        a = SemigroupSampler(spec, 100, SeedSpec(92))
        b = SemigroupSampler(spec, 100, SeedSpec(92))
        a05, a10 = a.noise(0.5), a.noise(1.0)
        b10, b05 = b.noise(1.0), b.noise(0.5)
        assert np.array_equal(a05, b05)
        assert np.array_equal(a10, b10)

    def test_a_walk_draws_once_per_grid_and_time(self, monkeypatch):
        # functions that share a centre read one |X - c|^2 block per (grid,
        # time): one ou_noise draw and one flow each, and a time asked for
        # again after another is drawn again
        draws, flows = [], []

        def drawn(spec, t, n, seed):
            draws.append(t)
            return ou_noise(spec, t, n, seed)

        def formed(A, t=1.0):
            flows.append(t)
            return matrix_exp(A, t)

        monkeypatch.setattr("harnacklab.ou_semigroup.ou_noise", drawn)
        monkeypatch.setattr("harnacklab.ou_semigroup.matrix_exp", formed)
        # a conformal drift: the draw itself forms no matrix exponential
        s = SemigroupSampler(stable_ou([[0.5, 0.2], [-0.2, 0.5]], d=2, alpha=1.5), 500, SeedSpec(104))
        f_set = [ball_indicator([0.5, 0.0], 1.0), gaussian_bump([0.5, 0.0], 2.0), exp_cap(3.0, [0.5, 0.0])]
        grids = [np.array([[0.0, 0.0], [1.0, -1.0]]), np.array([[2.0, 0.0]])]
        walk = [(t, points) for t in (0.5, 1.0, 0.5) for points in grids]
        for t, points in walk:
            for f in f_set:
                s.moments(f, points, t, (2.0,), [(0, None, 0, 2.0)])
        assert draws == flows == [t for t, _ in walk]
        # with A = 0 the flow is the identity, and no exponential is formed
        free = SemigroupSampler(stable_ou(np.zeros((2, 2)), d=2, alpha=1.5), 500, SeedSpec(104))
        free.moments(f_set[0], grids[0], 0.5)
        assert len(draws) == len(walk) + 1 and len(flows) == len(walk)

    def test_no_noise_outlives_a_moments_call(self, monkeypatch):
        # the noise and the flow of a time are dropped once its block is
        # formed: after each call no array ou_noise, the sampler's noise or
        # matrix_exp returned is alive, by reference counting alone
        tracked = []

        def track(make):
            def made(*args, **kwargs):
                out = make(*args, **kwargs)
                tracked.append(weakref.ref(out))
                return out

            return made

        monkeypatch.setattr("harnacklab.ou_semigroup.ou_noise", track(ou_noise))
        monkeypatch.setattr("harnacklab.ou_semigroup.matrix_exp", track(matrix_exp))
        monkeypatch.setattr(SemigroupSampler, "noise", track(SemigroupSampler.noise))
        s = SemigroupSampler(stable_ou([[0.5, 0.0], [0.0, 0.5]], d=2, alpha=1.5), 50, SeedSpec(105))
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        enabled = gc.isenabled()
        gc.disable()
        try:
            for t in np.linspace(0.1, 4.0, 10):
                for f in (gaussian_bump([0.0, 0.0], 1.0), ball_indicator([1.0, 0.0], 1.0)):
                    s.moments(f, points, t, (2.0,))
                    assert tracked and all(ref() is None for ref in tracked)
        finally:
            if enabled:
                gc.enable()
        assert len(tracked) == 3 * 20

    def test_unit_function_exact(self):
        s = SemigroupSampler(stable_ou([[0.0]]), 2000, SeedSpec(93))
        estimate = s.estimate(constant(1.0), [3.0], 0.5)
        assert estimate.mean == 1.0
        assert estimate.std_err == 0.0

    def test_translation_covariance(self):
        # common random numbers make P_t f(. + v)(x) and P_t f(x + v) agree
        # exactly at x = 0 (identical float arrays) and to rounding elsewhere
        spec = stable_ou([[0.0]], alpha=1.5)
        s = SemigroupSampler(spec, 3000, SeedSpec(94))
        f = gaussian_bump(0.0, 1.0)
        v = np.array([1.7])
        shifted = gaussian_bump(np.array([0.0]) - v, 1.0)
        a = s.estimate(shifted, [0.0], 1.0)
        b = s.estimate(f, v, 1.0)
        assert a.mean == b.mean
        assert a.std_err == b.std_err
        c = s.estimate(shifted, [0.3], 1.0)
        d = s.estimate(f, np.array([0.3]) + v, 1.0)
        assert c.mean == pytest.approx(d.mean, rel=1e-12)

    def test_cauchy_ball_closed_form(self):
        # A = 0, alpha = 1, c = 1/pi: P_t 1_[-1,1](0) = 2 arctan(1/t) / pi
        spec = stable_ou([[0.0]], alpha=1.0, c=1.0 / math.pi)
        s = SemigroupSampler(spec, 10**5, SeedSpec(95))
        estimate = s.estimate(ball_indicator([0.0], 1.0), [0.0], 1.0)
        assert abs(estimate.mean - 0.5) < 4.0 * estimate.std_err

    def test_validation(self):
        spec = stable_ou([[0.0]])
        with pytest.raises(ValueError):
            SemigroupSampler(spec, 0, SeedSpec(0))
        s = SemigroupSampler(spec, 100, SeedSpec(0))
        for f in (constant(1.0), ball_indicator([0.0], 1.0)):
            for t in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="time must be positive"):
                    s.estimate(f, [0.0], t)
                with pytest.raises(ValueError, match="time must be positive"):
                    s.moments(f, [[0.0], [1.0]], t)
            with pytest.raises(ValueError):
                s.estimate(f, [0.0, 0.0], 0.5)
            with pytest.raises(ValueError, match="points must have shape"):
                s.moments(f, [0.0, 1.0], 0.5)

    def test_one_distance_block_per_centre(self, monkeypatch):
        # functions that share a centre read one |X - c|^2 block per time,
        # which reads the noise; a constant reads none and draws no noise
        calls = []
        noise = SemigroupSampler.noise

        def counted(self, t):
            calls.append(t)
            return noise(self, t)

        monkeypatch.setattr(SemigroupSampler, "noise", counted)
        s = SemigroupSampler(stable_ou([[0.5]]), 1000, SeedSpec(100))
        points = np.array([[0.5], [-1.0]])
        s.moments(constant(2.0), points, 0.5, (2.0,), [(0, None, 1, 2.0)])
        assert calls == []
        ball, bump = ball_indicator([0.0], 1.0), gaussian_bump([0.0], 2.0)
        blocks = [s.values(ball, points, 0.5), s.values(bump, points, 0.5)]
        s.moments(ball, points, 0.5, (2.0,))
        assert calls == [0.5]
        s.moments(gaussian_bump([1.0], 2.0), points, 0.5)
        assert calls == [0.5, 0.5]
        for f, block in zip((ball, bump), blocks):
            for x, row in zip(points, block):
                assert row.tobytes() == f(endpoints(s, x, 0.5)).tobytes()

    def test_a_time_is_freed_before_the_next_draw(self, monkeypatch):
        # no noise of an earlier time is alive when the next time's noise is
        # drawn, by reference counting alone, and the walk reuses its buffers
        spec = stable_ou([[0.5, 0.2], [0.0, -0.3]], d=2)
        rng = np.random.default_rng(101)
        tracked = []

        def stub(spec, t, n, seed):
            assert all(ref() is None for ref in tracked)
            out = np.asfortranarray(rng.standard_normal((n, 2)))  # the sampler's own layout: no copy
            tracked.append(weakref.ref(out))
            return out

        monkeypatch.setattr("harnacklab.ou_semigroup.ou_noise", stub)
        f_set = [
            ball_indicator([0.0, 0.0], 1.0),
            gaussian_bump([0.0, 0.0], 1.0),
            constant(2.0),
            exp_cap(3.0, [1.0, 0.0]),
        ]
        points = np.array([[0.0, 0.0], [1.0, -1.0]])
        pairs = [(0, 2.0, 1, None), (1, 0.5, 0, 2.0)]
        s = SemigroupSampler(spec, 1000, SeedSpec(102))
        work = {}
        enabled = gc.isenabled()
        gc.disable()
        try:
            for t in (0.5, 1.0, 0.5, 2.0):
                for f in f_set:
                    s.moments(f, points, t, (2.0, 0.5), pairs)
                work = work or dict(s._work)
        finally:
            if enabled:
                gc.enable()
        assert len(tracked) == 4 * 2  # one draw per time for each of the two centres
        assert s._work.keys() == work.keys() and all(s._work[k] is v for k, v in work.items())

    def test_truncated_driver_endpoint_moments(self):
        driver = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        spec = OUSpec(A=np.zeros((1, 1)), driver=driver)
        t, n = 0.5, 4 * 10**4
        w = SemigroupSampler(spec, n, SeedSpec(97)).noise(t).ravel()
        target = 2.0 * t  # t * integral z^2 over the truncated measure
        fourth = 3.0 * target**2 + t * 2.0 / 3.0
        se = math.sqrt((fourth - target**2) / n)
        assert abs(np.var(w) - target) < 3.0 * se


def reference_moments(sampler, f, points, t, transforms, pairs):
    """:meth:`SemigroupSampler.moments` in plain numpy, one point at a time:
    f on fresh endpoints, ``v ** a`` and ``np.log(v)``, and each moment
    written out on its own n-length arrays.  A one-valued array has its
    value as mean and centres to zeros."""
    n = sampler.n
    rows = {}
    for i, x in enumerate(points):
        v = f(endpoints(sampler, x, t))
        rows[i, None] = v
        for a in transforms:
            rows[i, a] = np.log(v) if a == "log" else v**a
    one = {key: v.min() == v.max() for key, v in rows.items()}
    means = {key: float(v[0]) if one[key] else float(v.mean()) for key, v in rows.items()}
    centred = {key: np.zeros(n) if one[key] else v - v.mean() for key, v in rows.items()}

    def moments(key):
        c = centred[key]
        var = float(np.add.reduce(c * c)) / (n - 1)
        return means[key], var, math.sqrt(var) / math.sqrt(n)

    at = [{a: moments((i, a)) for a in (None, *transforms)} for i in range(len(points))]
    covs = [float(np.add.reduce(centred[i, a] * centred[j, b])) / (n - 1) for i, a, j, b in pairs]
    return at, covs


def float_bits(values) -> list[str]:
    """float.hex of each value, nested lists and dicts flattened in order."""
    if isinstance(values, dict):
        return [h for key in values for h in float_bits(values[key])]
    if isinstance(values, (list, tuple)):
        return [h for v in values for h in float_bits(v)]
    return [float(values).hex()]


class TestBlockMoments:
    """The sampler's block moments have the bits of a plain per-point numpy
    computation, for every f family, the powers and the log, d = 1..3, an odd
    n, and times with different numbers of points."""

    SPECS = {
        1: stable_ou([[0.0]], alpha=1.2),
        2: stable_ou([[0.5, 0.0], [0.0, 0.5]], d=2, alpha=1.5),
        3: stable_ou([[0.5, 0.2, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.3]], d=3, alpha=1.5),
    }
    FAMILIES = {
        "ball": lambda c: ball_indicator(c, 1.2),
        "bump": lambda c: gaussian_bump(c, 0.8),
        "exp_cap": lambda c: exp_cap(5.0, c, 1.1),
        "constant": lambda c: constant(2.5),
        # most endpoints fall where the bump underflows to +0.0 or a subnormal
        "narrow_bump": lambda c: gaussian_bump(c, 0.05),
        # a level far above 1: values and their log span many orders
        "high_cap": lambda c: exp_cap(1e6, c, 0.3),
    }
    # (time, number of points): the walk's blocks grow, shrink and grow again
    TIMES = ((0.3, 3), (4.0, 5), (0.7, 2), (1.1, 4))

    @pytest.mark.parametrize("n", [129, 2001])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bits_match_the_per_point_reference(self, family, d, n):
        rng = np.random.default_rng(300 + d)
        f = self.FAMILIES[family](tuple(rng.standard_normal(d).tolist()))
        transforms = (1.5, 2.0, 4.0, 2, 1.0 + 1e-6, *(("log",) if f.geq_one else ()))
        sampler = SemigroupSampler(self.SPECS[d], n, SeedSpec(310 + d))
        kept = []
        for t, count in self.TIMES:
            points = 1.5 * rng.standard_normal((count, d))
            points[-1] = points[0]  # a repeated point, as x = y nodes have
            keys = (None, *transforms)
            pairs = [
                (int(rng.integers(count)), keys[k % len(keys)], int(rng.integers(count)), keys[(3 * k) % len(keys)])
                for k in range(12)
            ]
            got = sampler.moments(f, points, t, transforms, pairs)
            # log(0), and powers of the far field's zeros, warn on both sides alike
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = reference_moments(sampler, f, points, t, transforms, pairs)
            assert float_bits(got) == float_bits(expected)
            kept.append((got, float_bits(got)))
        # floats returned at one time are not views the later times overwrite
        for got, bits in kept:
            assert float_bits(got) == bits

    def test_estimate_is_the_one_point_walk(self):
        spec = self.SPECS[2]
        for f in (ball_indicator([0.5, 0.0], 1.0), gaussian_bump([0.0, 0.0], 1.0), constant(2.0)):
            a = SemigroupSampler(spec, 3001, SeedSpec(320)).estimate(f, [0.25, -0.5], 0.5)
            at, _ = SemigroupSampler(spec, 3001, SeedSpec(320)).moments(f, [[1.0, 1.0], [0.25, -0.5]], 0.5)
            assert float_bits(a) == float_bits(at[1][None])

    def test_indicator_powers_are_its_own_row(self, monkeypatch):
        # an indicator takes +0.0 and 1.0, which every power
        # p > 0 maps to themselves: its powers 1.5, 2 and 4 are read off its
        # own row, and the powers -1 and 0.0 and the log, which move 0.0 or
        # 1.0, are computed, each with the bits of v ** a and np.log(v)
        computed = []
        transform = ou_semigroup._transform

        def counted(v, a, out):
            computed.append(a)
            return transform(v, a, out)

        monkeypatch.setattr(ou_semigroup, "_transform", counted)
        sampler = SemigroupSampler(self.SPECS[2], 2001, SeedSpec(323))
        f = ball_indicator([0.3, -0.2], 1.2)
        points = np.array([[0.0, 0.0], [1.5, 0.5], [0.0, 0.0]])
        transforms = (1.5, 2.0, 4, -1.0, 0.0, "log")
        pairs = [(0, 1.5, 1, -1.0), (1, 0.0, 2, "log"), (2, 4, 0, None), (0, 2.0, 1, 1.5)]
        # 0 ** -1 and log 0 divide by zero, and centring their infinities is invalid
        with np.errstate(divide="ignore", invalid="ignore"):
            at, covs = sampler.moments(f, points, 0.5, transforms, pairs)
            expected = reference_moments(sampler, f, points, 0.5, transforms, pairs)
        assert computed == [-1.0, 0.0, "log"]
        in_order = [{a: point[a] for a in (None, *transforms)} for point in at]
        assert float_bits((in_order, covs)) == float_bits(expected)

    def test_one_sample_has_no_spread(self):
        at, covs = SemigroupSampler(self.SPECS[1], 1, SeedSpec(321)).moments(
            gaussian_bump([0.0], 1.0), [[0.0], [0.5]], 0.5, (2.0,), [(0, None, 1, 2.0)]
        )
        assert all(m.var == m.std_err == 0.0 for point in at for m in point.values())
        assert covs == [0.0]

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 127, 128, 129, 2000, 20001])
    def test_a_constant_has_exact_moments(self, n):
        # mean f^a, variance 0 and covariances 0, whatever n; the sizes cross
        # numpy's pairwise-sum blocks of 8 and 128 values, whose sums of n
        # copies of 1/3 or 1e305 are off by ulps
        sampler = SemigroupSampler(self.SPECS[1], n, SeedSpec(322))
        points = np.array([[0.0], [2.0]])
        pairs = [(0, None, 1, None), (0, 1.5, 1, 2.0), (1, 4.0, 0, None)]
        for value in (0.0, -0.0, 5e-324, 1.0 / 3.0, 1.5, 2.0, 1e305, 1e308):
            # the powers of 1e308 overflow to inf, with variance 0
            with np.errstate(over="ignore"):
                powers = {a: np.float64(value) ** a for a in (1.5, 2.0, 4.0)}
                at, covs = sampler.moments(constant(value), points, 1.0, (1.5, 2.0, 4.0), pairs)
            for point in at:
                assert float_bits(point) == float_bits([(value, 0.0, 0.0), *((p, 0.0, 0.0) for p in powers.values())])
            assert float_bits(covs) == float_bits([0.0] * len(pairs))

    def test_a_one_valued_row_has_the_moments_of_its_constant(self):
        # a ball of radius 1e6 is 1.0 at every endpoint, and one of radius 1
        # 1e12 away is 0.0, whose power -1 is inf and log -inf: the block path
        # gives each such row the moments the constant path gives its value
        sampler = SemigroupSampler(self.SPECS[1], 2001, SeedSpec(324))
        points = np.array([[0.0], [0.5]])
        transforms = (1.5, 2.0, 4.0, -1.0, "log")
        pairs = [(0, None, 1, None), (0, 1.5, 1, "log"), (1, -1.0, 0, 2.0)]
        for f, value in ((ball_indicator([0.0], 1e6), 1.0), (ball_indicator([1e12], 1.0), 0.0)):
            with np.errstate(divide="ignore"):
                got, got_covs = sampler.moments(f, points, 1.0, transforms, pairs)
                expected, covs = sampler.moments(constant(value), points, 1.0, transforms, pairs)
            in_order = [{a: point[a] for a in (None, *transforms)} for point in got]
            assert float_bits((in_order, got_covs)) == float_bits((expected, covs)), f.tag


@pytest.mark.parametrize("a", [1.5, 4.0, 1.0 + 1e-6, 3.0, 300.0, 2, 2.0, 0.5, 0.0, -1.0])
def test_transform_power_has_the_bits_of_v_to_the_a(a):
    # _transform sets a positive value below 2^(-1100/a) to +0.0 before the
    # power; the narrow bump's values at normal points, most of them +0.0 or
    # subnormal, and values a few ulps either side of that threshold, of the
    # threshold's square root and of 2^(-1075/a), where a power starts to
    # round to the smallest subnormal, all keep the bits of v ** a
    rng = np.random.default_rng(330)
    bump = gaussian_bump((0.3, -0.2), 0.05)(1.5 * rng.standard_normal((4001, 2)))
    edges = [2.0 ** (-e / a) for e in (1100.0, 550.0, 1075.0, 1074.0) if a > 0.0]
    near = [np.nextafter(x, sign * np.inf, dtype=float) for x in edges for sign in (-1, 1)]
    near += [np.nextafter(np.nextafter(x, 0.0), 0.0) for x in edges] + edges
    special = [0.0, -0.0, 5e-324, 1e-320, 1.0, -1e-300, np.nan, np.inf]
    v = np.concatenate([bump, near, special])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        got = ou_semigroup._transform(v, a, np.empty(len(v)))
        assert got.tobytes() == (v**a).tobytes()
    # over a third of the bump's values are positive and set to +0.0 before a 4th power
    assert np.mean((bump > 0.0) & (bump < 2.0 ** (-1100.0 / 4.0))) > 0.3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [1e308, 1e200])
def test_an_overflowing_sum_is_refused_without_a_warning(level):
    # exp_cap's values near 1e308 sum past the double range, and the centred
    # squares of values near 1e200 do: estimate refuses in one ValueError, and
    # numpy warns of no overflow on the way
    sampler = SemigroupSampler(stable_ou([[0.0]]), 1000, SeedSpec(106))
    with pytest.raises(ValueError, match=re.escape(f"level={level:g}) over n = 1000 samples")):
        sampler.estimate(exp_cap(level, 0.0, 1.0), [0.0], 0.01)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "f",
    [
        ball_indicator([0.0], 1.0),
        gaussian_bump([0.0], 1.0),
        constant(2.0),
        exp_cap(3.0),
    ],
    ids=lambda f: f.kind,
)
def test_huge_time_is_the_far_field_without_warnings(f):
    # at t = 1e300 every |X - c|^2 leaves the double range: each f reads its
    # far-field value there, and nothing warns on the way
    estimate = SemigroupSampler(stable_ou([[0.0]]), 2000, SeedSpec(103)).estimate(f, [0.0], 1e300)
    assert estimate.mean == f.min_value


class TestFactorization:
    def test_zero_drift_stable(self):
        spec = stable_ou([[0.0]], alpha=1.0, c=1.0)
        rep = factorization_check(spec, 1.0)
        assert rep.passed
        assert rep.max_excess <= 1e-8
        assert rep.probes.shape == (10, 1)
        assert np.allclose(np.abs(np.linalg.norm(rep.probes, axis=1)), np.geomspace(1, 8, 10))
        # with A = 0 the exact marginal cf is exp(-t psi)
        for xi, mu in zip(rep.probes, rep.mu_hat):
            psi = symbol_radial(StableSpec(d=1, alpha=1.0, c=1.0), abs(float(xi[0])))[0]
            assert mu == pytest.approx(math.exp(-psi), rel=1e-9)
        # and the subtracted factor is exp(-t c0 c |xi|^alpha) by definition
        c0 = compute_c0(0.0, 1)
        for xi, sf in zip(rep.probes, rep.stable_factor):
            assert sf == pytest.approx(math.exp(-c0 * abs(float(xi[0]))), rel=1e-12)

    def test_drift_and_truncated(self):
        spec = OUSpec(A=np.array([[-0.5]]), driver=TruncatedStableSpec(d=1, alpha=1.0, r=1.0))
        rep = factorization_check(spec, 0.5)
        assert rep.passed
        assert rep.c0 == pytest.approx(compute_c0(0.5, 1), rel=1e-12)
        assert rep.op_norm == 0.5

    def test_time_domain(self):
        spec = stable_ou([[0.0]])
        with pytest.raises(ValueError):
            factorization_check(spec, 1.5)
        with pytest.raises(ValueError):
            factorization_check(spec, 0.0)
