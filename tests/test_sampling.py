"""Samplers: exact transforms, compound-Poisson splits, and seed discipline.

Distributional checks compare against closed forms (Cauchy CDF, Laplace
transforms, jump-measure moments) or the quadrature CDF oracle from helpers,
never against the sampler's own machinery.
"""

import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from helpers import cdf_interpolant, ks_statistic, ks_threshold, small_jump_cf_error_bound
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from harnacklab import (
    SeedSpec,
    StableSpec,
    TruncatedStableSpec,
    default_small_jump_cutoff,
    empirical_cf,
    make_jump_decomposition,
    sample_increment,
    sample_rot_stable,
    sample_sym_stable_1d,
    sample_truncated_stable,
    symbol_radial,
)
from harnacklab import sampling
from harnacklab.levy_core import _truncated_series, compute_sigma, sphere_surface
from harnacklab.sampling import CHUNK, _one_sided_stable


class TestSeedSpec:
    def test_reproducible(self):
        a = SeedSpec(123, 4).rng().standard_normal(100)
        b = SeedSpec(123, 4).rng().standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeedSpec(123, 0).rng().standard_normal(100)
        b = SeedSpec(123, 1).rng().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substream_path_sensitive(self):
        s = SeedSpec(9)
        assert s.substream(1).substream(2) != s.substream(2).substream(1)
        assert s.substream(1, 2) == s.substream(1).substream(2)
        assert s.substream(0) != s

    def test_rng_extra_indices(self):
        s = SeedSpec(9)
        a = s.rng(3).standard_normal(10)
        b = s.rng(3).standard_normal(10)
        c = s.rng(4).standard_normal(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)
        with pytest.raises(ValueError):
            SeedSpec(0).substream(-2)

    def test_generator_passthrough(self):
        spec = StableSpec(d=1, alpha=1.0)
        rng = SeedSpec(5).rng()
        a = sample_rot_stable(spec, 1.0, 50, rng)
        b = sample_rot_stable(spec, 1.0, 50, SeedSpec(5))
        assert np.array_equal(a, b)
        with pytest.raises(TypeError):
            sample_rot_stable(spec, 1.0, 50, "seed")


class TestSymmetricStable1d:
    def test_cauchy_closed_form_ks(self):
        # alpha = 1 draws are exactly scale * tan(uniform); KS against the
        # arctan CDF needs no numerics at all
        scale = 1.7
        x = sample_sym_stable_1d(1.0, scale, 10**5, SeedSpec(11))
        D = ks_statistic(x, lambda v: 0.5 + np.arctan(v / scale) / np.pi)
        assert D < ks_threshold(10**5, 0.01)

    @pytest.mark.parametrize("alpha", [0.8, 1.2])
    def test_ks_against_quadrature_cdf(self, alpha):
        spec = StableSpec(d=1, alpha=alpha, c=1.0)
        F = cdf_interpolant(spec, 1.0)
        x = sample_rot_stable(spec, 1.0, 2 * 10**4, SeedSpec(12)).ravel()
        assert ks_statistic(x, F) < ks_threshold(2 * 10**4, 0.01)

    def test_characteristic_function(self):
        alpha, scale, n = 1.5, 2.0, 10**5
        x = sample_sym_stable_1d(alpha, scale, n, SeedSpec(13))
        xis = np.array([[0.2], [0.5], [1.0]])
        means, ses = empirical_cf(x, xis)
        target = np.exp(-((scale * xis.ravel()) ** alpha))
        assert np.all(np.abs(means - target) < 3.0 * ses)

    def test_symmetry_in_law(self):
        x = sample_sym_stable_1d(0.7, 1.0, 10**5, SeedSpec(14))
        assert abs(np.mean(x > 0.0) - 0.5) < 3.0 * 0.5 / math.sqrt(10**5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_sym_stable_1d(2.0, 1.0, 10, SeedSpec(0))
        with pytest.raises(ValueError):
            sample_sym_stable_1d(1.0, 0.0, 10, SeedSpec(0))
        with pytest.raises(ValueError):
            sample_sym_stable_1d(1.0, 1.0, 0, SeedSpec(0))


class TestOneSidedStable:
    @pytest.mark.parametrize("beta", [0.5, 0.75])
    def test_laplace_transform(self, beta):
        s = _one_sided_stable(beta, 10**5, SeedSpec(21).rng())
        assert np.all(s > 0.0)
        for lam in (0.5, 1.0, 2.0):
            vals = np.exp(-lam * s)
            mean = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(mean - math.exp(-(lam**beta))) < 3.0 * se

    def test_levy_half_closed_form(self):
        # beta = 1/2 is the Levy law with CDF erfc(1 / (2 sqrt(s)))
        from scipy.special import erfc

        s = _one_sided_stable(0.5, 10**5, SeedSpec(22).rng())
        D = ks_statistic(s, lambda v: erfc(1.0 / (2.0 * np.sqrt(np.maximum(v, 1e-300)))))
        assert D < ks_threshold(10**5, 0.01)


class TestRotStable:
    def test_time_scaling_exact(self):
        # scaling the time multiplies every draw by (t2/t1)^(1/alpha)
        spec = StableSpec(d=2, alpha=1.5, c=0.3)
        a = sample_rot_stable(spec, 1.0, 1000, SeedSpec(31))
        b = sample_rot_stable(spec, 2.0, 1000, SeedSpec(31))
        assert np.allclose(b, a * 2.0 ** (1.0 / 1.5), rtol=1e-14)

    def test_d2_rotation_invariance(self):
        spec = StableSpec(d=2, alpha=1.0, c=1.0)
        x = sample_rot_stable(spec, 1.0, 10**5, SeedSpec(32))
        radius = 0.8
        angles = [0.0, 0.7, 1.9, 2.6]
        xis = np.array([[radius * math.cos(a), radius * math.sin(a)] for a in angles])
        means, ses = empirical_cf(x, xis)
        for i in range(1, len(angles)):
            assert abs(means[i] - means[0]) < 3.0 * (ses[i] + ses[0])

    def test_d2_matches_symbol(self):
        spec = StableSpec(d=2, alpha=1.0, c=1.0)
        t = 0.7
        x = sample_rot_stable(spec, t, 10**5, SeedSpec(33))
        radii = np.array([0.4, 1.0, 1.8])
        xis = np.column_stack([radii, np.zeros(3)])
        means, ses = empirical_cf(x, xis)
        target = np.exp(-t * symbol_radial(spec, radii))
        assert np.all(np.abs(means - target) < 3.0 * ses)

    @pytest.mark.parametrize("d, alpha", [(1, 1.0), (1, 0.5), (2, 1.5), (3, 1.9)])
    def test_standard_draw_matches_its_cf(self, d, alpha):
        # the subordinator scale is analytic, not fitted, so this guards the
        # transforms: 1e6 draws at a fixed seed, three probe frequencies, 3 SE
        key = int(round(alpha * 10**9))
        rng = np.random.default_rng(np.random.SeedSequence(0xA11CE5EED, spawn_key=(d, key)))
        x = sampling._standard_rot_stable(d, alpha, 10**6, rng)
        for radius in (0.4, 1.0, 2.2):
            xi = np.zeros((1, d))
            xi[0, 0] = radius
            re, se = empirical_cf(x, xi)
            assert abs(re[0] - math.exp(-(radius**alpha))) <= 3.0 * se[0]

    def test_validation(self):
        spec = StableSpec(d=1, alpha=1.0)
        with pytest.raises(ValueError):
            sample_rot_stable(spec, 0.0, 10, SeedSpec(0))
        with pytest.raises(ValueError):
            sample_rot_stable(spec, 1.0, 0, SeedSpec(0))


class TestJumpDecomposition:
    def test_closed_form_example(self):
        spec = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        decomp = make_jump_decomposition(spec, 0.5)
        assert decomp.poisson_intensity == pytest.approx(2.0, rel=1e-14)
        assert decomp.gaussian_sd_per_coord == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("d,alpha,c,r,eps", [(1, 1.0, 1.0, 1.0, 0.3), (2, 0.8, 0.5, 2.0, 0.4)])
    def test_against_numeric_integrals(self, d, alpha, c, r, eps):
        spec = TruncatedStableSpec(d=d, alpha=alpha, c=c, r=r)
        decomp = make_jump_decomposition(spec, eps)

        intensity, _ = integrate.quad(lambda rho: c * rho ** (-1.0 - alpha), eps, r)
        var_total, _ = integrate.quad(lambda rho: c * rho ** (1.0 - alpha), 0.0, eps)
        surf = sphere_surface(d)
        assert decomp.poisson_intensity == pytest.approx(surf * intensity, rel=1e-10)
        assert decomp.gaussian_sd_per_coord == pytest.approx(
            math.sqrt(surf * var_total / d), rel=1e-10
        )

    def test_cutoff_validation(self):
        spec = TruncatedStableSpec(d=1, alpha=1.0, r=1.0)
        with pytest.raises(ValueError):
            make_jump_decomposition(spec, 1.0)
        with pytest.raises(ValueError):
            make_jump_decomposition(spec, 0.0)

    def test_default_cutoff(self):
        spec = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        assert default_small_jump_cutoff(spec, 4.0) == pytest.approx(0.1)
        assert default_small_jump_cutoff(spec, 0.25) == pytest.approx(0.025)
        with pytest.raises(ValueError):
            default_small_jump_cutoff(spec, 0.0)


class TestTruncatedSampler:
    SPEC = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)

    def test_chunk_prefix_invariance(self):
        # draw order is fixed per logical chunk, so a longer run reproduces a
        # shorter one bit-for-bit on the shared prefix
        short = sample_truncated_stable(self.SPEC, 0.5, 0.2, CHUNK, SeedSpec(41))
        long = sample_truncated_stable(self.SPEC, 0.5, 0.2, CHUNK + 977, SeedSpec(41))
        assert np.array_equal(short, long[:CHUNK])

    def test_second_moment(self):
        # the Gaussian proxy matches the small-jump variance exactly, so the
        # sample variance targets t * integral of z^2 over the full measure
        t, n = 1.0, 4 * 10**4
        x = sample_truncated_stable(self.SPEC, t, None, n, SeedSpec(42)).ravel()
        target = 2.0 * t  # 2 c r^(2-alpha) / (2-alpha) with these parameters
        fourth = 3.0 * target**2 + t * 2.0 / 3.0  # + t int z^4 measure(dz)
        se = math.sqrt((fourth - target**2) / n)
        assert abs(np.var(x) - target) < 3.0 * se

    def test_fourth_moment_window(self):
        t, n = 1.0, 10**5
        x = sample_truncated_stable(self.SPEC, t, None, n, SeedSpec(43)).ravel()
        target = 3.0 * (2.0 * t) ** 2 + t * 2.0 / 3.0
        assert 0.8 < np.mean(x**4) / target < 1.25

    def test_cf_matches_symbol_within_proxy_bound(self):
        t, n = 0.5, 10**5
        eps = 0.05
        x = sample_truncated_stable(self.SPEC, t, eps, n, SeedSpec(44)).ravel()
        radii = np.array([0.5, 1.0, 2.0])
        means, ses = empirical_cf(x, radii[:, None])
        target = np.exp(-t * symbol_radial(self.SPEC, radii))
        for i, xi in enumerate(radii):
            bound = small_jump_cf_error_bound(self.SPEC, t, eps, xi)
            assert abs(means[i] - target[i]) < 3.0 * ses[i] + bound

    def test_cutoff_halving_leaves_law_fixed(self):
        # epsilon is an implementation knob; halving it moves the cf by less
        # than the proxy error bounds plus Monte Carlo noise
        t, n = 0.5, 4 * 10**4
        a = sample_truncated_stable(self.SPEC, t, 0.08, n, SeedSpec(45)).ravel()
        b = sample_truncated_stable(self.SPEC, t, 0.04, n, SeedSpec(46)).ravel()
        xis = np.array([[0.5], [1.5], [3.0]])
        ma, sa = empirical_cf(a, xis)
        mb, sb = empirical_cf(b, xis)
        for i, xi in enumerate(xis.ravel()):
            slack = 3.0 * (sa[i] + sb[i]) + small_jump_cf_error_bound(
                self.SPEC, t, 0.08, xi
            ) + small_jump_cf_error_bound(self.SPEC, t, 0.04, xi)
            assert abs(ma[i] - mb[i]) < slack

    def test_jump_budget_refuses_before_allocating(self):
        # r = 1e-3 at t = 1 cuts at 1e-4: about 4.1e7 jumps per sample, so ten
        # samples would need about 4e8 jumps in one chunk
        spec = TruncatedStableSpec(d=1, alpha=1.9, c=1.0, r=1e-3)
        with pytest.raises(ValueError, match="budget"):
            sample_truncated_stable(spec, 1.0, None, 10, SeedSpec(49))

    def test_jump_budget_shrinks_the_chunk(self, monkeypatch):
        # a rate that would put more than the budget into a CHUNK-sample chunk
        # draws chunks of budget // rate samples; only a rate above the budget,
        # a single sample expecting more, is refused
        monkeypatch.setattr(sampling, "MAX_CHUNK_JUMPS", 1000)
        spec = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        rate = make_jump_decomposition(spec, 0.9).poisson_intensity
        size = int(1000 // rate)
        assert size < CHUNK
        chunks = []
        draw_chunk = sampling._compound_poisson_chunk

        def recorded(rng, m, *args):
            sums, counts = draw_chunk(rng, m, *args)
            chunks.append(counts)
            return sums, counts

        monkeypatch.setattr(sampling, "_compound_poisson_chunk", recorded)
        x = sample_truncated_stable(spec, 1.0, 0.9, 3 * size + 7, SeedSpec(50))
        monkeypatch.setattr(sampling, "_compound_poisson_chunk", draw_chunk)
        assert x.shape == (3 * size + 7, 1)
        assert [len(c) for c in chunks] == [size, size, size, 7]
        counts = np.concatenate(chunks)
        assert abs(counts.mean() - rate) < 4.0 * math.sqrt(rate / len(counts))
        first = sample_truncated_stable(spec, 1.0, 0.9, size, SeedSpec(50))
        assert np.array_equal(x[:size], first)
        with pytest.raises(ValueError, match="budget"):
            sample_truncated_stable(spec, 1001.0 / rate, 0.9, 10, SeedSpec(50))

    def test_bounded_jumps_light_tail(self):
        # all jumps have radius <= r, so excursions beyond k r need k jumps;
        # crude check that nothing wildly exceeds the Gaussian + few-jump range
        x = sample_truncated_stable(self.SPEC, 0.25, None, 10**4, SeedSpec(48)).ravel()
        assert np.max(np.abs(x)) < 25.0


class TestSampleIncrement:
    def test_stable_dispatch_identical(self):
        spec = StableSpec(d=1, alpha=1.5)
        a = sample_increment(spec, 0.7, 100, SeedSpec(61))
        b = sample_rot_stable(spec, 0.7, 100, SeedSpec(61))
        assert np.array_equal(a, b)

    def test_truncated_dispatch_identical(self):
        spec = TruncatedStableSpec(d=1, alpha=1.0, r=1.0)
        a = sample_increment(spec, 0.7, 100, SeedSpec(62))
        b = sample_truncated_stable(spec, 0.7, sampling._split_cutoff(spec, 0.7), 100, SeedSpec(62))
        assert np.array_equal(a, b)

    def test_unknown_driver(self):
        with pytest.raises(TypeError):
            sample_increment(object(), 1.0, 10, SeedSpec(0))


@functools.lru_cache(maxsize=None)
def _cos_coefficients(d):
    return [
        (-1) ** k * math.gamma(d / 2.0) / (4**k * math.factorial(k) * math.gamma(k + d / 2.0))
        for k in range(24)
    ]


def _cos_series(d, u, first):
    """Sum over k >= first of (-1)^k (u/2)^(2k) Gamma(d/2) / (k! Gamma(k + d/2)),
    the tail of the series of E cos(u theta_1), theta uniform on the unit
    sphere of R^d (used below u = 2, where 24 terms are plenty)."""
    x = u * u
    return sum(c * x**k for k, c in enumerate(_cos_coefficients(d)) if k >= first)


def _one_minus_mean_cos(d, u):
    """1 - E cos(u theta_1), by its series below u = 2 and by Bessel J above."""
    if u < 2.0:
        return -_cos_series(d, u, 1)
    if d == 1:
        return 1.0 - math.cos(u)
    nu = d / 2.0 - 1.0
    return 1.0 - math.gamma(d / 2.0) * (2.0 / u) ** nu * special.jv(nu, u)


class TestSemigroupCutoff:
    """The truncated parts of ``sample_increment`` are cut at the cf budget."""

    WORKLOAD = TruncatedStableSpec(d=1, alpha=1.8, c=1.0, r=0.5)

    @staticmethod
    def cf_error(spec, t, eps, s):
        """The Gaussian's exact change of the time-t cf at |xi| = s, by quadrature.

        The cf is e^{-t psi}; the Gaussian raises the exponent by t c |S| times
        the integral over [0, eps] of (s^2 rho^2 / (2d) - 1 + E cos(s rho
        theta_1)) rho^(-1-alpha).
        """
        d, a = spec.d, spec.alpha
        scale = t * spec.c * sphere_surface(d)

        def psi(rho):
            return _one_minus_mean_cos(d, s * rho) * rho ** (-1.0 - a)

        def excess(rho):
            u = s * rho
            gap = _cos_series(d, u, 2) if u < 2.0 else u * u / (2.0 * d) - _one_minus_mean_cos(d, u)
            return gap * rho ** (-1.0 - a)

        cf = math.exp(-scale * integrate.quad(psi, 0.0, spec.r, limit=400)[0])
        return cf * -math.expm1(-scale * integrate.quad(excess, 0.0, eps, limit=400)[0])

    @pytest.mark.parametrize(
        "d, alpha, r, t",
        [
            (1, 1.8, 0.5, 1e-3),
            (1, 1.8, 0.5, 0.1),
            (1, 1.8, 0.5, 1.0),
            (1, 1.8, 0.5, 2.0),
            (2, 1.2, 1.0, 0.5),
            (3, 1.9, 0.5, 1e-2),
        ],
    )
    def test_cutoff_meets_its_cf_error_at_the_peak(self, d, alpha, r, t):
        # the cutoff is below r here, so the worst exact cf error over all
        # frequencies sits at the budget: met, and not by a needlessly small cutoff
        spec = TruncatedStableSpec(d=d, alpha=alpha, c=1.0, r=r)
        eps = sampling._split_cutoff(spec, t)
        assert eps < r
        coarse = np.geomspace(1e-2, 1e2, 61) / r
        errors = [self.cf_error(spec, t, eps, s) for s in coarse]
        i = int(np.argmax(errors))
        fine = np.geomspace(coarse[max(i - 1, 0)], coarse[min(i + 1, 60)], 41)
        worst = max(self.cf_error(spec, t, eps, s) for s in fine)
        assert 0.9 * sampling.SPLIT_CF_ERROR <= worst <= sampling.SPLIT_CF_ERROR

    def test_series_matches_the_symbol(self):
        for spec in (self.WORKLOAD, TruncatedStableSpec(d=2, alpha=1.2, c=1.0, r=1.0)):
            s = np.array([0.05, 1.0, 7.0, sampling.SERIES_REACH / spec.r])
            coeffs = _truncated_series(spec.d, spec.alpha)
            series = sphere_surface(spec.d) * spec.r**-spec.alpha * np.polynomial.polynomial.polyval(
                (spec.r * s) ** 2, coeffs
            )
            assert np.allclose(series, symbol_radial(spec, s), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize(
        "d, alpha, r", [(1, 1.8, 0.5), (2, 1.2, 1.0), (1, 0.3, 1.0), (3, 1.9, 0.5)]
    )
    def test_tail_bounds_hold_past_the_series(self, d, alpha, r):
        # the two lower bounds on F(v) = psi / (c |S| r^(-alpha)) that
        # _truncated_log_peak uses past V = SERIES_REACH, against quadrature
        spec = TruncatedStableSpec(d=d, alpha=alpha, c=1.0, r=r)
        surf, reach = sphere_surface(d), sampling.SERIES_REACH
        v = np.array([50.0, 300.0, 3000.0])
        F = symbol_radial(spec, v / r) / (surf * r**-alpha)
        F_reach = np.polynomial.polynomial.polyval(reach**2, _truncated_series(d, alpha))
        assert np.all(F >= compute_sigma(d, alpha) / surf * v**alpha - 2.0 / alpha)
        assert np.all(F >= F_reach * (v / reach) ** alpha)

    def test_cutoff_reaches_r_and_draws_no_jumps(self):
        # at t = 5 the law is Gaussian enough that the whole measure becomes
        # the Gaussian: variance t c |S| r^(2-alpha) / (2-alpha), no jumps
        spec, t, n = self.WORKLOAD, 5.0, 4 * 10**4
        assert sampling._split_cutoff(spec, t) == spec.r
        intensity, _, sd = sampling._jump_part(spec, t)
        assert intensity == 0.0
        var = 2.0 * spec.r**0.2 / 0.2
        assert sd**2 == pytest.approx(var, rel=1e-14)
        x = sample_increment(spec, t, n, SeedSpec(65)).ravel()
        assert np.array_equal(x, sd * math.sqrt(t) * SeedSpec(65).rng().standard_normal(n))

    @pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
    def test_increment_cf_within_the_bound(self, t):
        spec, n = self.WORKLOAD, 2 * 10**5
        eps = sampling._split_cutoff(spec, t)
        x = sample_increment(spec, t, n, SeedSpec(66)).ravel()
        radii = np.array([0.5, 1.0, 2.0, 3.0])
        means, ses = empirical_cf(x, radii[:, None])
        target = np.exp(-t * symbol_radial(spec, radii))
        for i, xi in enumerate(radii):
            bound = small_jump_cf_error_bound(spec, t, eps, xi)
            assert abs(means[i] - target[i]) < 4.0 * ses[i] + bound, (xi, means[i], target[i])

    def test_few_jumps_per_sample(self):
        for t in np.geomspace(0.1, 2.0, 25):
            intensity, _, _ = sampling._jump_part(self.WORKLOAD, t)
            assert t * intensity <= 6.0, t

    @pytest.mark.parametrize("d, r", [(1, 1e-3), (2, 1.0), (3, 1e3)])
    def test_small_alpha_at_long_times_stays_finite(self, d, r):
        # alpha = 0.1 at t = 100: the stable comparison alone past the series'
        # reach bounds the sup by e^(2 t c |S| r^(-alpha) / alpha), which made
        # the cutoff underflow to 0
        spec = TruncatedStableSpec(d=d, alpha=0.1, c=1.0, r=r)
        t = 100.0
        eps = sampling._split_cutoff(spec, t)
        assert 0.0 < eps <= r
        intensity, _, _ = sampling._jump_part(spec, t)
        assert t * intensity < 200.0

    def test_density_sampler_keeps_its_cutoff(self):
        # sample_truncated_stable feeds density estimates and keeps
        # default_small_jump_cutoff; these bytes are its output before the
        # semigroup's parts took the cf-budget cutoff
        x = sample_truncated_stable(self.WORKLOAD, 1.0, None, 20000, SeedSpec(7))
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "375397b9fe83498f077c2b977d3f629d510f91dfef2f80c7b4e6b15aff3e1af8"
        )


class TestCompoundPoissonMemory:
    def test_bytes_per_jump_at_d3(self):
        # the jumps (24 B), their owners (8 B) and one column (8 B) at a time
        icdf = sampling._power_radius_icdf(1.5, 0.01, 1.0)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            _, counts = sampling._compound_poisson_chunk(rng, 2000, 500.0, icdf, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / counts.sum() < 44.0


class TestCfErrorBound:
    def test_truncated_closed_form(self):
        spec = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        # t |xi|^4 / (8 d (d + 2)) * c * surf * eps^(4-alpha) / (4-alpha)
        assert small_jump_cf_error_bound(spec, 2.0, 0.1, 1.5) == pytest.approx(
            2.0 * 1.5**4 / 24.0 * 2.0 * 0.1**3 / 3.0, rel=1e-12
        )

    @given(
        eps=st.floats(min_value=1e-3, max_value=0.5),
        xi=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_cutoff_and_frequency(self, eps, xi):
        spec = TruncatedStableSpec(d=1, alpha=1.2, c=1.0, r=1.0)
        b = small_jump_cf_error_bound(spec, 1.0, eps, xi)
        assert b >= 0.0
        assert small_jump_cf_error_bound(spec, 1.0, min(2.0 * eps, 0.9), xi) >= b
        assert small_jump_cf_error_bound(spec, 1.0, eps, 2.0 * xi) >= b

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            small_jump_cf_error_bound(StableSpec(d=1, alpha=1.0), 1.0, 0.1, 1.0)

    @pytest.mark.parametrize("d, alpha, r, t", [(1, 1.8, 0.5, 0.1), (1, 0.3, 1.0, 1.0), (2, 1.2, 1.0, 0.5)])
    def test_split_cutoff_puts_the_bound_at_its_budget(self, d, alpha, r, t):
        # the sampler's cutoff is where this bound, times the measure's own cf,
        # peaks at SPLIT_CF_ERROR over all frequencies
        spec = TruncatedStableSpec(d=d, alpha=alpha, c=1.0, r=r)
        eps = sampling._split_cutoff(spec, t)
        assert eps < r
        xi = np.geomspace(1e-2, 1e3, 4001) / r
        worst = np.max(small_jump_cf_error_bound(spec, t, eps, xi) * np.exp(-t * symbol_radial(spec, xi)))
        assert 0.999 * sampling.SPLIT_CF_ERROR <= worst <= sampling.SPLIT_CF_ERROR * (1.0 + 1e-9)


    @pytest.mark.parametrize("t", [0.1, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.2, 1.8])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["stable", "truncated"])
    def test_split_cutoff_bounds_the_cf_error(self, kind, d, alpha, t):
        # the package's cutoff against the bound its docstring states, with no
        # helper in between: t |xi|^4 m4(eps) / (8 d (d + 2)) |phi_t(xi)| stays
        # within SPLIT_CF_ERROR, m4(eps) = c |S| eps^(4 - alpha) / (4 - alpha);
        # a stable cutoff puts the sup at the budget
        if kind == "stable":
            spec = StableSpec(d=d, alpha=alpha, c=1.0)
        else:
            spec = TruncatedStableSpec(d=d, alpha=alpha, c=1.0, r=0.5)
        eps = sampling._split_cutoff(spec, t)
        m4 = spec.c * sphere_surface(d) * eps ** (4.0 - alpha) / (4.0 - alpha)
        xi = np.geomspace(1e-3, 1e5, 6001)
        bound = t * xi**4 * m4 / (8.0 * d * (d + 2)) * np.exp(-t * symbol_radial(spec, xi))
        i = int(np.argmax(bound))
        assert 0 < i < len(xi) - 1
        assert bound[i] <= sampling.SPLIT_CF_ERROR * (1.0 + 1e-9)
        if kind == "stable":
            assert bound[i] >= 0.999 * sampling.SPLIT_CF_ERROR


class TestEmpiricalCf:
    def test_exact_on_point_mass(self):
        x = np.zeros((50, 2))
        means, ses = empirical_cf(x, np.array([[1.0, 0.0], [0.3, 0.4]]))
        assert np.allclose(means, 1.0)
        assert np.allclose(ses, 0.0)

    def test_one_dim_vector_input(self):
        x = np.array([1.0, -1.0])
        means, _ = empirical_cf(x, np.array([[math.pi / 2.0]]))
        assert means[0] == pytest.approx(0.0, abs=1e-15)
