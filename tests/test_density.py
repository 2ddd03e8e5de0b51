"""Stable densities and CDFs from the mixture integrals, the d=1 truncated density,
envelope constants, and KDE machinery.

Closed-form references (Cauchy in one and two dimensions, the origin value,
the Gaussian endpoint, the convergent jump-tail series) are evaluated from
textbook formulas with the normalization constant taken from its own closed
form, so none of them route through the package quadrature being tested.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import bergstrom_density, grid_mass, tail_complement_series

from harnacklab import (
    DensityEstimateError,
    DensityGrid,
    SeedSpec,
    StableSpec,
    TruncatedStableSpec,
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
import harnacklab
from harnacklab import density
from harnacklab.density import _fit_tail_envelope
from harnacklab.levy_core import bounded_minimum, sphere_surface


def sigma_closed_form(d: int, alpha: float) -> float:
    return (
        2.0 ** (1.0 - alpha)
        * math.pi ** (d / 2.0)
        * math.gamma(1.0 - alpha / 2.0)
        / (alpha * math.gamma((d + alpha) / 2.0))
    )


class TestClosedForms:
    def test_cauchy_1d(self):
        # cf exp(-a|xi|) inverts to a / (pi (a^2 + x^2))
        c = 1.0 / math.pi
        spec = StableSpec(d=1, alpha=1.0, c=c)
        for t in (0.5, 1.0, 2.0):
            a = t * sigma_closed_form(1, 1.0) * c
            for x in (-5.0, -0.7, 0.0, 0.3, 2.0, 9.0):
                ref = a / (math.pi * (a * a + x * x))
                assert stable_density(spec, t, x) == pytest.approx(ref, rel=1e-9)

    def test_cauchy_2d(self):
        # cf exp(-a|xi|) in the plane inverts to a / (2 pi (a^2 + |x|^2)^(3/2))
        c = 0.35
        spec = StableSpec(d=2, alpha=1.0, c=c)
        t = 0.8
        a = t * sigma_closed_form(2, 1.0) * c
        for xv in ([0.0, 0.0], [1.0, 0.0], [0.6, -0.8], [3.0, 4.0]):
            r2 = xv[0] ** 2 + xv[1] ** 2
            ref = a / (2.0 * math.pi * (a * a + r2) ** 1.5)
            assert stable_density(spec, t, np.array(xv)) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("d,alpha", [(1, 0.7), (1, 1.5), (2, 1.2), (3, 0.9)])
    def test_origin_value(self, d, alpha):
        c = 0.8
        spec = StableSpec(d=d, alpha=alpha, c=c)
        t = 1.3
        tb = t * sigma_closed_form(d, alpha) * c
        ref = (
            (2.0 * math.pi) ** (-d)
            * sphere_surface(d)
            * math.gamma(d / alpha)
            / (alpha * tb ** (d / alpha))
        )
        assert stable_density(spec, t, np.zeros(d)) == pytest.approx(ref, rel=1e-11)
        g = stable_density_grid(spec, t, np.zeros((1, d)))
        assert g.meta["method_counts"] == {"origin": 1}

    @pytest.mark.parametrize("d", [3, 5])
    def test_small_alpha_near_origin(self, d):
        # the s^(d-1) weight puts the integrand's mass at u = t b s^alpha ~ d/alpha,
        # beyond u = 45 when d/alpha = 50; a cutoff there lost 75 % of p_t at d=5
        spec = StableSpec(d=d, alpha=0.1, c=1.0)
        near = stable_density(spec, 1.0, _axis_points(d, [1e-3])[0])
        assert near / stable_density(spec, 1.0, np.zeros(d)) == pytest.approx(1.0, abs=1e-6)

    def test_origin_value_past_overflow(self):
        # Gamma(50) / (t b)^50 at t = 1e4: the power alone overflows a double
        spec = StableSpec(d=5, alpha=0.1, c=1.0)
        tb = 1e4 * sigma_closed_form(5, 0.1)
        log_ref = (
            math.log(sphere_surface(5) / 0.1)
            - 5 * math.log(2.0 * math.pi)
            + math.lgamma(50.0)
            - 50.0 * math.log(tb)
        )
        val = stable_density(spec, 1e4, np.zeros(5))
        assert 0.0 < val < 1e-250
        assert math.log(val) == pytest.approx(log_ref, rel=1e-12)

    def test_gaussian_endpoint(self):
        # at alpha near 2 the law approaches N(0, 2 t b); the remaining gap is
        # a few percent at this alpha, which is what the tolerance encodes
        alpha = 1.95
        spec = StableSpec(d=1, alpha=alpha, c=1.0)
        var = 2.0 * sigma_closed_form(1, alpha)
        sd = math.sqrt(var)
        for x in np.linspace(0.0, 1.5 * sd, 7):
            ref = math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
            assert stable_density(spec, 1.0, x) == pytest.approx(ref, rel=0.05)


class TestScalingAndSymmetry:
    @pytest.mark.parametrize("d,alpha", [(1, 0.8), (2, 1.3)])
    def test_self_similarity(self, d, alpha):
        spec = StableSpec(d=d, alpha=alpha, c=1.0)
        rng = np.random.default_rng(7)
        for _ in range(15):
            t = float(rng.uniform(0.2, 2.0))
            x = rng.normal(size=d) * 2.0
            lhs = stable_density(spec, t, x)
            rhs = t ** (-d / alpha) * stable_density(spec, 1.0, t ** (-1.0 / alpha) * x)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rotation_invariance(self):
        spec = StableSpec(d=2, alpha=1.5, c=1.0)
        p1 = stable_density(spec, 1.0, np.array([5.0, 0.0]))
        p2 = stable_density(spec, 1.0, np.array([3.0, 4.0]))
        assert p1 == pytest.approx(p2, rel=1e-11)

    def test_input_validation(self):
        spec = StableSpec(d=2, alpha=1.0)
        with pytest.raises(ValueError):
            stable_density(spec, 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            stable_density(spec, 1.0, np.zeros(3))


def tail_envelope(spec: StableSpec, t: float, r: float) -> float:
    """t c r^(-d-alpha): the mass one large jump deposits near radius r."""
    return t * spec.c * r ** (-(spec.d + spec.alpha))


class TestTailAsymptote:
    def test_quadrature_approaches_asymptote_heavy_tail(self):
        spec = StableSpec(d=1, alpha=0.5, c=1.0)
        g = stable_density_grid(spec, 1.0, [[3e3], [3e4]])
        assert g.meta["method_counts"] == {"quadrature": 2}
        rels = [abs(p / tail_envelope(spec, 1.0, r) - 1.0) for r, p in zip((3e3, 3e4), g.values)]
        assert rels[0] < 0.1
        assert rels[1] < 0.04
        assert rels[1] < rels[0]

    def test_quadrature_approaches_asymptote_light_tail(self):
        spec = StableSpec(d=1, alpha=1.5, c=1.0)
        rels = []
        for r in (20.0, 80.0):
            p = stable_density(spec, 1.0, r)
            rels.append(abs(p / tail_envelope(spec, 1.0, r) - 1.0))
        assert rels[0] < 0.2
        assert rels[1] < 0.05
        assert rels[1] < rels[0]

    def test_method_tags(self):
        spec = StableSpec(d=1, alpha=1.0, c=1.0)
        g = stable_density_grid(spec, 1.0, [[0.0], [1.0]])
        assert g.meta["method_counts"] == {"origin": 1, "quadrature": 1}

    def test_far_radius_is_quadrature(self):
        # a million length scales out the value is the series', not the envelope's
        spec = StableSpec(d=1, alpha=0.5, c=1.0)
        g = stable_density_grid(spec, 1.0, [[1e6]])
        assert g.meta["method_counts"] == {"quadrature": 1}
        assert g.values[0] == pytest.approx(bergstrom_density(0.5, 1e6), rel=1e-10, abs=0.0)

    def test_segment_exhaustion_near_origin_raises(self):
        # inside 4 (t b)^(1/alpha) the mixture rule has no budget to exhaust:
        # the density is answered and matches the series
        spec = StableSpec(d=1, alpha=0.5, c=1.0)
        assert stable_density(spec, 1.0, 2.0) == pytest.approx(bergstrom_density(0.5, 2.0), rel=1e-10, abs=0.0)
        g = stable_density_grid(spec, 1.0, [[2.0]])
        assert g.meta["method_counts"] == {"quadrature": 1}

    def test_fallback_starts_at_four_length_scales(self):
        # (t b)^(1/alpha) = 25 t^(1/alpha) here; on either side of four length
        # scales the tail envelope overstates the density up to 8x, so no
        # radius switches to it
        spec = StableSpec(d=1, alpha=0.5, c=1.0)
        reach = 4.0 * sigma_closed_form(1, 0.5) ** 2.0
        radii = [0.99 * reach, 1.01 * reach]
        g = stable_density_grid(spec, 1.0, _axis_points(1, radii))
        assert g.meta["method_counts"] == {"quadrature": 2}
        for r, p in zip(radii, g.values):
            assert p == pytest.approx(bergstrom_density(0.5, r), rel=1e-10, abs=0.0)


class TestCdf1d:
    def test_cauchy_oracle(self):
        c = 1.0 / math.pi
        spec = StableSpec(d=1, alpha=1.0, c=c)
        for t in (0.5, 2.0):
            for x in (-4.0, -0.5, 0.0, 1.0, 7.0):
                ref = 0.5 + math.atan(x / t) / math.pi
                assert stable_cdf_1d(spec, t, x) == pytest.approx(ref, abs=1e-10)

    def test_symmetry(self):
        spec = StableSpec(d=1, alpha=1.3, c=1.0)
        for x in (0.4, 2.0, 11.0):
            assert stable_cdf_1d(spec, 1.0, x) + stable_cdf_1d(spec, 1.0, -x) == pytest.approx(
                1.0, abs=1e-11
            )

    def test_monotone(self):
        spec = StableSpec(d=1, alpha=0.7, c=1.0)
        xs = np.linspace(-20.0, 20.0, 41)
        vals = [stable_cdf_1d(spec, 0.5, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_series_cross_validation(self):
        # quadrature inversion and the independent jump-tail series must agree
        # where both are accurate; this anchors the sampler-test oracle
        spec = StableSpec(d=1, alpha=0.5, c=1.0)
        tb = sigma_closed_form(1, 0.5)
        x = 50.0 * tb**2.0
        quad_tail = 1.0 - stable_cdf_1d(spec, 1.0, x)
        series_tail = tail_complement_series(0.5, tb, x)
        assert quad_tail == pytest.approx(series_tail, abs=1e-10)

    def test_far_radius_tail(self):
        # F(-x) carries the tail mass without cancellation, to relative accuracy
        spec = StableSpec(d=1, alpha=0.5, c=1.0)
        tb = sigma_closed_form(1, 0.5)
        for x in (1e6, 1e12):
            series = tail_complement_series(0.5, tb, x)
            assert stable_cdf_1d(spec, 1.0, -x) == pytest.approx(series, rel=1e-10)
            assert stable_cdf_1d(spec, 1.0, x) == 1.0 - stable_cdf_1d(spec, 1.0, -x)

    def test_far_radius_memory_bounded(self):
        # a sine inversion would need ~2.9e5 half-periods here
        import tracemalloc

        spec = StableSpec(d=1, alpha=1.0, c=1.0 / math.pi)
        tracemalloc.start()
        try:
            val = stable_cdf_1d(spec, 1.0, 2e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert val == pytest.approx(0.5 + math.atan(2e4) / math.pi, abs=1e-12)
        assert peak < 32 << 20

    def test_d2_rejected(self):
        with pytest.raises(ValueError):
            stable_cdf_1d(StableSpec(d=2, alpha=1.0), 1.0, 1.0)


class TestEnvelope:
    def test_phi_formula_and_kink(self):
        d, alpha, t = 1, 1.0, 0.25
        r = np.array([0.01, 0.25, 0.3, 5.0])
        expect = np.minimum(t ** (-d / alpha), t * r ** (-(d + alpha)))
        assert np.allclose(phi_envelope(d, alpha, t, r), expect, rtol=1e-14)
        # the two branches cross exactly at radius t^(1/alpha)
        kink = t ** (1.0 / alpha)
        assert t ** (-d / alpha) == pytest.approx(t * kink ** (-(d + alpha)), rel=1e-12)

    def test_zero_radius(self):
        assert phi_envelope(1, 1.0, 2.0, 0.0) == pytest.approx(0.5)

    def test_constants_bracket_ratio(self):
        spec = StableSpec(d=1, alpha=1.0, c=1.0)
        x_grid = np.linspace(0.0, 6.0, 13)[1:, None]
        bc = estimate_bound_constants(spec, [0.5, 1.0], x_grid)
        assert 0.0 < bc.c1_hat <= bc.c2_hat
        for t in (0.5, 1.0):
            for x in x_grid.ravel():
                ratio = stable_density(spec, t, x) / float(phi_envelope(1, 1.0, t, x))
                assert bc.c1_hat <= ratio <= bc.c2_hat

    def test_refined_constants_certify_off_grid_nodes(self):
        spec = StableSpec(d=1, alpha=1.5, c=1.0)
        train = np.linspace(0.0, 8.0, 9)[1:, None]
        bc = estimate_bound_constants(spec, [1.0], train)
        hi = bc.grid_meta["certified_scaled_radius"]
        assert hi == pytest.approx(1.1 * bc.grid_meta["max_scaled_radius"])
        rng = np.random.default_rng(3)
        for _ in range(25):
            t = float(rng.uniform(0.3, 1.8))
            scaled = float(rng.uniform(0.05, hi))
            x = scaled * t ** (1.0 / 1.5)
            p = stable_density(spec, t, x)
            phi = float(phi_envelope(1, 1.5, t, x))
            assert bc.c1_hat * phi <= p * (1.0 + 1e-9)
            assert p <= bc.c2_hat * phi * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "d, alpha, radii, t_grid, c1, c2",
        [
            (1, 1.0, np.linspace(0.0, 6.0, 13)[1:], [0.5, 1.0], 0.09199965915040842, 0.9463928728259742),
            (2, 1.5, np.linspace(0.0, 40.0, 8)[1:], [1.0], 0.008652513015089637, 1.7777110742855025),
            # certified to scaled radius 0.55: the bulk piece alone
            (3, 0.8, np.linspace(0.0, 0.5, 6)[1:], [1.0, 2.0], 2.2278881910232467e-05, 2.2365968101294513e-05),
        ],
        ids=["d1-cauchy", "d2-alpha1.5", "d3-alpha0.8-bulk"],
    )
    def test_refined_constants_pinned(self, d, alpha, radii, t_grid, c1, c2):
        spec = StableSpec(d=d, alpha=alpha, c=1.0)
        bc = estimate_bound_constants(spec, t_grid, _axis_points(d, radii))
        assert (bc.c1_hat, bc.c2_hat) == (c1, c2)

    def test_empty_grid_rejected(self):
        spec = StableSpec(d=1, alpha=1.0)
        with pytest.raises(ValueError):
            estimate_bound_constants(spec, [], np.array([[1.0]]))
        with pytest.raises(ValueError):
            estimate_bound_constants(spec, [1.0], np.zeros((0, 1)))

    @pytest.mark.parametrize("far", [1e200, 1e100])
    def test_far_point_is_one_worded_error(self, far):
        # |x|^2 overflows at 1e200; at 1e100 density and envelope both underflow to 0
        spec = StableSpec(d=2, alpha=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DensityEstimateError, match=re.escape(f"x=[{far!r}, 0.0]")):
                estimate_bound_constants(spec, [1.0], np.array([[far, 0.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [[1e160], [1e200, 0.0], [3.0, 1e160]])
def test_a_point_whose_norm_overflows_is_refused_by_name(x):
    # |x|^2 leaves the double range: one error that names the point, no warning
    spec = StableSpec(d=len(x), alpha=1.5)
    with pytest.raises(DensityEstimateError, match=re.escape(f"x={x!r} has a norm whose square overflows")):
        stable_density(spec, 1.0, x)
    with pytest.raises(DensityEstimateError, match=re.escape(f"x={x!r} has a norm whose square overflows")):
        stable_density_grid(spec, 1.0, np.array([np.zeros(len(x)), x]))


def _axis_points(d: int, radii) -> np.ndarray:
    points = np.zeros((len(radii), d))
    points[:, 0] = radii
    return points


class TestBatchedInversion:
    @pytest.mark.parametrize("d,alpha,t", [(1, 1.0, 1.0), (2, 1.5, 0.25)])
    def test_batch_values_bit_identical_to_single(self, d, alpha, t):
        spec = StableSpec(d=d, alpha=alpha, c=1.0)
        radii = np.concatenate([np.geomspace(1e-3, 10.0, 20), np.geomspace(100.0, 1e7, 20)])
        single = np.array([stable_density(spec, t, x) for x in _axis_points(d, radii)])
        batch = stable_density_grid(spec, t, _axis_points(d, radii)).values
        assert np.array_equal(batch, single)
        # neither the order of a batch nor its other members change a value
        order = np.random.default_rng(5).permutation(len(radii))
        shuffled = stable_density_grid(spec, t, _axis_points(d, radii[order])).values
        assert np.array_equal(shuffled, single[order])
        assert np.array_equal(stable_density_grid(spec, t, _axis_points(d, radii[::3])).values, single[::3])

    def test_radii_blocks_keep_the_bits(self, monkeypatch):
        spec = StableSpec(d=2, alpha=1.5, c=1.0)
        radii = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 300)])
        assert len(radii) <= density.RADII_BLOCK
        one_block = density._log_radial_densities(spec, 0.5, radii)
        monkeypatch.setattr(density, "RADII_BLOCK", 7)
        assert density._log_radial_densities(spec, 0.5, radii).tobytes() == one_block.tobytes()

    def test_radii_blocks_bound_the_memory(self, tmp_path):
        # 10,000 radii at d=2, alpha=1.5 grew the peak RSS by 222 MB when the
        # rule held every radius's panel terms at once; in blocks, by 23 MB
        code = (
            "import resource, numpy as np\n"
            "from harnacklab import density, StableSpec\n"
            "spec = StableSpec(d=2, alpha=1.5, c=1.0)\n"
            "density._log_radial_densities(spec, 1.0, np.array([0.5, 1.0]))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "density._log_radial_densities(spec, 1.0, np.logspace(-2.0, 3.0, 10000))\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0)\n"
        )
        src = str(Path(harnacklab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 64.0

    def test_grid_meta_counts_methods_and_clamps(self):
        spec = StableSpec(d=1, alpha=0.5, c=1.0)
        radii = [0.0, 0.5, 30.0, 1e6, 3e6]
        g = stable_density_grid(spec, 1.0, _axis_points(1, radii))
        assert g.meta == {"method_counts": {"origin": 1, "quadrature": 4}, "clamped": 0}
        for x, v in zip(g.points, g.values):
            assert v == stable_density(spec, 1.0, x)

    def test_tiny_alpha_radii_memory_bounded(self):
        # at d=2, alpha=0.1 the length scale is 2e13, where a Hankel inversion
        # would need ~1e18 Bessel zeros at one length scale
        import tracemalloc

        spec = StableSpec(d=2, alpha=0.1, c=1.0)
        scale = sigma_closed_form(2, 0.1) ** 10.0
        radii = [scale, 1e2 * scale, 1e4 * scale]
        stable_density(spec, 1.0, np.array([scale, 0.0]))  # builds the table
        tracemalloc.start()
        try:
            g = stable_density_grid(spec, 1.0, _axis_points(2, radii))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.meta["method_counts"] == {"quadrature": 3}
        for r, p in zip(radii, g.values):
            assert p == pytest.approx(bergstrom_density(0.1, r, d=2), rel=1e-10, abs=0.0)
        assert peak < 1 << 20


def dense_scan_extrema(g, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) of g on [lo, hi] by a linear scan of REFINE_SCAN points, each
    interior local extremum of the scan refined between its two neighbours by
    bounded Brent."""
    xs = np.linspace(lo, hi, density.REFINE_SCAN)
    vals = np.asarray(g(xs), dtype=float)
    gmin, gmax = float(vals.min()), float(vals.max())
    for sign in (1.0, -1.0):
        v = sign * vals
        for i in range(1, len(xs) - 1):
            if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
                val = sign * bounded_minimum(
                    lambda x: sign * float(g(x)[0]), xs[i - 1], xs[i + 1], 1e-9 * max(1.0, hi)
                )
                gmin, gmax = min(gmin, val), max(gmax, val)
    return gmin, gmax


BULK_SPECS = [(d, alpha) for d in (1, 2, 3, 5) for alpha in (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.8, 1.95)]


class TestBulkPieceFromItsEnds:
    """On scaled radius s <= 1 the envelope phi(1, s) is 1, so the envelope
    ratio there is p_1(s), which is radially nonincreasing: its extrema are its
    values at the two ends.  estimate_bound_constants takes them from there
    instead of a dense scan of the piece."""

    @pytest.mark.parametrize("d, alpha", BULK_SPECS)
    def test_ends_equal_the_dense_scan(self, d, alpha):
        spec = StableSpec(d=d, alpha=alpha, c=1.0)
        g = lambda s: density._scaled_ratio_profile(spec, s)
        for hi in (0.4, 1.0, 11.09, 50.0):
            top = min(1.0, hi)
            ends = g([0.0, top])
            assert (float(ends[1]), float(ends[0])) == dense_scan_extrema(g, 0.0, top)

    @pytest.mark.parametrize("d, alpha", BULK_SPECS)
    def test_density_does_not_increase_on_the_bulk(self, d, alpha):
        values = density._radial_densities(StableSpec(d=d, alpha=alpha, c=1.0), 1.0, np.linspace(0.0, 1.0, 241))
        assert np.all(np.diff(values) <= 0.0)


def _log_table_every_part(table, y) -> np.ndarray:
    """A mixture table evaluated with all three parts called on every input."""
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape)
    low, high = y < table.lo, y > table.hi
    mid = ~(low | high)
    out[low], out[high], out[mid] = table.below(y[low]), table.above(y[high]), table.spline(y[mid])
    return out


class TestLogTableParts:
    @pytest.mark.parametrize(
        "rule",
        [
            lambda: density._density_rule(1, 1.0),
            lambda: density._density_rule(2, 1.5),
            lambda: density._cdf_rule(0.8),
            lambda: density._cdf_rule(1.5),
        ],
        ids=["J-d1-alpha1", "J-d2-alpha1.5", "C-alpha0.8", "C-alpha1.5"],
    )
    def test_bytes_equal_every_part_evaluated(self, rule):
        table = rule().table
        lo, hi = table.lo, table.hi
        inside = np.linspace(lo, hi, 35)
        inputs = [
            np.linspace(lo - 20.0, lo - 1e-3, 11),
            np.linspace(hi + 1e-3, hi + 20.0, 11),
            inside,
            np.concatenate([[lo - 3.0, hi + 3.0], inside, [lo, hi]]).reshape(3, 13),
            np.empty(0),
            np.empty((0, 4)),
            np.float64(0.5 * (lo + hi)),
            np.float64(lo - 2.0),
            np.float64(hi + 2.0),
            0.5 * (lo + hi),
        ]
        for y in inputs:
            got, want = table(y), _log_table_every_part(table, y)
            assert got.shape == want.shape == np.shape(y)
            assert got.tobytes() == want.tobytes()

    def test_a_wide_table_is_built_without_a_square_matrix(self):
        # alpha = 0.05 takes a table of 6,268 nodes, whose n x n collocation
        # matrix alone would hold 314 MB; the banded solve and the power form
        # take O(n) memory, so the build peaks at its trapezoid chunks
        tracemalloc.start()
        try:
            table = density._log_j_table(1, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nodes = len(table.left) + 9
        assert nodes > 6000
        assert peak < 16e6 < 8.0 * nodes**2


class TestBox:
    """Every (d, alpha, t) of the box d <= 5, alpha in [0.1, 1.99], t in [1e-4, 1e4]
    and every radius from 1e-3 to 1e6 length scales gets a quadrature value.

    A Gaussian scale mixture is radially decreasing, so the densities must not
    increase with r; the CDF must be a distribution function, symmetric about 0.
    At d = 5, alpha = 0.1, t = 1e4 the density falls below the smallest double
    from about 1e-3 length scales on, so positivity is asserted on its log, which
    the values are the exponentials of.
    """

    SCALED = np.logspace(-3.0, 6.0, 37)
    TIMES = (1e-4, 1.0, 1e4)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 1.0, 1.5, 1.9, 1.99])
    def test_density_positive_and_decreasing(self, d, alpha):
        spec = StableSpec(d=d, alpha=alpha)
        for t in self.TIMES:
            scale = (t * sigma_closed_form(d, alpha)) ** (1.0 / alpha)
            radii = np.concatenate(([0.0], scale * self.SCALED))
            g = stable_density_grid(spec, t, _axis_points(d, radii))
            assert g.meta["method_counts"] == {"origin": 1, "quadrature": len(self.SCALED)}
            logs = density._log_radial_densities(spec, t, radii)
            assert np.all(np.isfinite(logs))
            assert np.all(np.diff(logs) <= 0.0), (t, logs)
            assert np.array_equal(g.values, np.exp(logs))
            assert g.meta["clamped"] == np.count_nonzero(g.values == 0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 1.0, 1.5, 1.9, 1.99])
    def test_cdf_is_a_symmetric_distribution_function(self, alpha):
        spec = StableSpec(d=1, alpha=alpha)
        for t in self.TIMES:
            scale = (t * sigma_closed_form(1, alpha)) ** (1.0 / alpha)
            x = scale * self.SCALED
            right = np.array([stable_cdf_1d(spec, t, v) for v in x])
            left = np.array([stable_cdf_1d(spec, t, -v) for v in x])
            assert np.all((left >= 0.0) & (left <= 0.5) & (right >= 0.5) & (right <= 1.0))
            assert np.all(np.diff(right) >= 0.0) and np.all(np.diff(left) <= 0.0)
            assert np.array_equal(left + right, np.ones_like(x))


class TestDensityGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityGrid(t=1.0, points=np.zeros((3, 1)), values=np.zeros(2))
        with pytest.raises(ValueError):
            DensityGrid(t=1.0, points=np.zeros((2, 1)), values=np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            DensityGrid(t=1.0, points=np.zeros((2, 1)), values=np.array([1.0, np.nan]))

    def test_properties(self):
        g = DensityGrid(t=1.0, points=np.array([[3.0, 4.0], [0.0, 1.0]]), values=np.ones(2))
        assert g.d == 2
        assert np.allclose(g.radii(), [5.0, 1.0])

    def test_grid_thread_invariance(self):
        spec = StableSpec(d=1, alpha=1.0, c=1.0)
        pts = np.linspace(-3.0, 3.0, 25)[:, None]
        g1 = stable_density_grid(spec, 0.5, pts)
        g3 = stable_density_grid(spec, 0.5, pts)
        assert np.array_equal(g1.values, g3.values)
        assert g1.meta["method_counts"] == g3.meta["method_counts"]
        assert sum(g1.meta["method_counts"].values()) == 25

    def test_grid_mass(self):
        pts = np.linspace(-1.0, 1.0, 201)
        vals = np.maximum(1.0 - np.abs(pts), 0.0)  # triangle density, mass 1
        g = DensityGrid(t=1.0, points=pts[:, None], values=vals)
        assert grid_mass(g) == pytest.approx(1.0, rel=1e-12)
        g2 = DensityGrid(t=1.0, points=np.zeros((2, 2)), values=np.ones(2))
        with pytest.raises(ValueError):
            grid_mass(g2)


class TestKde:
    def test_gaussian_recovery(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(10**5)
        centers, density, se, h, dropped = kde_1d(x)
        step = centers[1] - centers[0]
        assert density.sum() * step + dropped == pytest.approx(1.0, abs=1e-6)
        peak = density[np.argmin(np.abs(centers))]
        assert peak == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=0.03)
        assert h > 0.0
        assert np.all(se >= 0.0)
        assert np.any(se > 0.0)

    def test_range(self):
        x = np.random.default_rng(16).standard_normal(5000)
        centers, density, _, h, dropped = kde_1d(x, lo=-2.0, hi=2.0)
        assert centers[0] > -2.0 and centers[-1] < 2.0
        assert dropped > 0.0  # mass beyond +-2 exists and is reported

    def test_validation(self):
        with pytest.raises(ValueError):
            kde_1d(np.array([1.0]))

    @pytest.mark.parametrize("sigma, size", [(0.7, 512), (4.2, 512), (300.0, 512), (4.2, 20)])
    def test_filter_matches_ndimage(self, sigma, size):
        # the numpy filter against scipy's, which the test extra provides as an
        # oracle; sigma = 300 and 20 bins at 4.2 give a kernel longer than the bins
        from scipy.ndimage import gaussian_filter1d

        counts = np.random.default_rng(17).poisson(50.0, size).astype(float)
        want = gaussian_filter1d(counts, sigma, mode="constant", truncate=8.0)
        got = density._gaussian_filter(counts, sigma)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestTruncatedDensity:
    SPEC = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)

    @pytest.mark.parametrize(
        "alpha,c,r", [(0.5, 4.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (1.8, 1.0, 0.5)]
    )
    @pytest.mark.parametrize("t", [0.25, 1.0])
    def test_mass_is_one(self, alpha, c, r, t):
        # 32-node Gauss-Legendre panels, geometric from 1e-3 out to |x| = 40,
        # where every one of these densities is below 1e-30 of its peak
        spec = TruncatedStableSpec(d=1, alpha=alpha, c=c, r=r)
        edges = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 48)])
        nodes, weights = np.polynomial.legendre.leggauss(32)
        half = 0.5 * np.diff(edges)[:, None]
        x = edges[:-1, None] + half * (1.0 + nodes)
        p = truncated_density(spec, t, x)
        assert p[-1, -1] < 1e-30 * p[0, 0]
        assert 2.0 * float(np.sum(p * half * weights)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha,c,r", [(0.5, 4.0, 1.0), (1.0, 1.0, 1.0), (1.8, 1.0, 0.5), (1.99, 0.1, 1.0)])
    def test_chapman_kolmogorov_in_the_far_tail(self, alpha, c, r):
        # p_2t(x) = int p_t(y) p_t(x - y) dy, on 64-node Gauss panels of width
        # 0.25; out at |x| = 40 each tilt level's xi-range is cut short by its
        # own bound, and the two sides read different levels and times
        spec = TruncatedStableSpec(d=1, alpha=alpha, c=c, r=r)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for x in (5.0, 20.0, 40.0):
            edges = np.arange(-10.0, x + 10.25, 0.25)
            half = 0.5 * np.diff(edges)[:, None]
            y = edges[:-1, None] + half * (1.0 + nodes)
            conv = np.sum(truncated_density(spec, 0.25, y) * truncated_density(spec, 0.25, x - y) * half * weights)
            assert truncated_density(spec, 0.5, x) == pytest.approx(conv, rel=1e-12, abs=0.0)

    def test_symmetric_and_shaped(self):
        x = np.array([[0.3, -1.7], [2.5, 0.0]])
        p = truncated_density(self.SPEC, 0.5, x)
        assert p.shape == x.shape
        assert np.array_equal(truncated_density(self.SPEC, 0.5, -x), p)
        # alone, its tilt level's rule may differ: the same value to rounding
        assert truncated_density(self.SPEC, 0.5, 2.5) == pytest.approx(p[1, 0], rel=1e-13, abs=0.0)
        assert isinstance(truncated_density(self.SPEC, 0.5, 2.5), float)

    @pytest.mark.parametrize(
        "alpha,r,t,hexes",
        [
            (1.8, 0.5, 0.5, ["0x1.163d34801c7a2p-4", "0x1.87de7dcaaa938p-3", "0x1.850efc801fbc8p-3",
                             "0x1.5d3e60855d5cfp-3", "0x1.ee844a918feeap-4", "0x1.f1ffaeff2f990p-6",
                             "0x1.089a3556184d4p-13"]),
            (1.8, 0.5, 2.0, ["0x1.2e6c64e1317efp-4", "0x1.87ad7e0c6ce5dp-4", "0x1.86f9919da0600p-4",
                             "0x1.7c9526da15b08p-4", "0x1.5d2605859762fp-4", "0x1.eea6c2290d1bep-5",
                             "0x1.f272aa6c91140p-7"]),
            (1.5, 1.0, 0.5, ["0x1.e058c0a962e0ap-6", "0x1.249214e1c7783p-2", "0x1.1fcbe4406df95p-2",
                             "0x1.c23fe31d20c6fp-3", "0x1.a03d62bf1450ap-4", "0x1.6bf3deb43864ep-8",
                             "0x1.2cfd9822a80a3p-22"]),
            (1.5, 1.0, 2.0, ["0x1.48517b5433f3fp-4", "0x1.21c615a127f95p-3", "0x1.20a136faba8dfp-3",
                             "0x1.10018391d9421p-3", "0x1.c20b57e5844c0p-4", "0x1.a6db4057a7a6ap-5",
                             "0x1.59373d8dbf691p-9"]),
        ],
    )
    def test_values_of_many_levels_pinned(self, alpha, r, t, hexes):
        # the truncated-mc driver and alpha = 1.5 with c = r = 1; each call
        # spans three to five tilt levels
        spec = TruncatedStableSpec(d=1, alpha=alpha, c=1.0, r=r)
        p = truncated_density(spec, t, np.array([-3.0, 0.0, 0.25, 1.0, 2.0, 4.0, 8.0]))
        assert [v.hex() for v in p.tolist()] == hexes

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.8, 1.99])
    def test_exponent_is_computed_node_by_node(self, alpha):
        # the levels' nodes share one _exponent call, so G at a node must not
        # depend on the other nodes of the call: in the series, the
        # Gauss-Jacobi rule and the far asymptote alike
        rng = np.random.default_rng(11)
        reached = np.zeros(3, dtype=bool)  # series, rule, asymptote
        for _ in range(20):
            n = int(rng.integers(2, 400))
            w = np.geomspace(0.01, 120.0, n)[rng.permutation(n)] * np.exp(0.5j * math.pi * rng.random(n))
            size = np.abs(w)
            far = (size >= 48.0) & (size - w.real >= 40.0)
            reached |= [np.any(size <= 8.0), np.any((size > 8.0) & ~far), np.any(far)]
            whole = density._exponent(alpha, w)
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 12), replace=False))
            parts = np.concatenate([density._exponent(alpha, part) for part in np.split(w, cuts)])
            assert parts.tobytes() == whole.tobytes()
        assert reached.all()
        singles = np.concatenate([density._exponent(alpha, w[i : i + 1]) for i in range(0, n, 7)])
        assert singles.tobytes() == whole[::7].tobytes()

    def test_values_below_the_smallest_double_are_zero(self):
        p = truncated_density(self.SPEC, 0.5, np.array([0.0, 1e3, 1e300]))
        assert p[0] > 0.0 and p[1] == 0.0 and p[2] == 0.0

    def test_refusals(self):
        with pytest.raises(NotImplementedError):
            truncated_density(TruncatedStableSpec(d=2, alpha=1.0, c=1.0, r=1.0), 0.5, 0.0)
        for bad_t, bad_x in ((0.0, 1.0), (-1.0, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError):
                truncated_density(self.SPEC, bad_t, bad_x)
        for c, r, t in ((1e300, 1e-300, 1.0), (1e-300, 1e300, 1e-300)):
            with pytest.raises(OverflowError):
                truncated_density(TruncatedStableSpec(d=1, alpha=1.0, c=c, r=r), t, 0.0)
        # t psi reaches 45 only past xi ~ 1e60 (alpha = 0.1, t = 0.01), or past
        # the largest double (alpha = 0.01, t = 1e-8)
        for alpha, t in ((0.1, 0.01), (0.01, 1e-8)):
            with pytest.raises(density.QuadratureError, match="xi-nodes"):
                truncated_density(TruncatedStableSpec(d=1, alpha=alpha, c=1.0, r=1.0), t, 1.0)


class TestTruncatedEstimate:
    SPEC = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)

    def test_basic_estimate(self):
        g = truncated_density_estimate(self.SPEC, 0.5, 3 * 10**4, seed=SeedSpec(71))
        assert 0.98 <= g.meta["mass"] <= 1.02
        assert grid_mass(g) == pytest.approx(1.0, abs=0.02)
        assert g.t == 0.5
        for key in ("se", "bandwidth", "bin_width", "n", "dropped_fraction"):
            assert key in g.meta
        # symmetric law: compare the two sides of the KDE loosely
        mid = np.interp([0.6, -0.6], g.points[:, 0], g.values)
        assert mid[0] == pytest.approx(mid[1], rel=0.15)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            truncated_density_estimate(self.SPEC, 0.5, 10**3)

    def test_d2_unimplemented(self):
        spec = TruncatedStableSpec(d=2, alpha=1.0, c=1.0, r=1.0)
        with pytest.raises(NotImplementedError):
            truncated_density_estimate(spec, 0.5, 10**4)


@pytest.fixture(scope="module")
def estimates():
    spec = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
    return [
        truncated_density_estimate(spec, t, 4 * 10**4, seed=SeedSpec(72).substream(i))
        for i, t in enumerate((0.5, 1.0))
    ]


class TestTruncatedBounds:
    SPEC = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)

    def test_fit_and_recount(self, estimates):
        tb = check_truncated_bounds(self.SPEC, [0.5, 1.0], estimates)
        assert 0.0 < tb.c2 <= tb.c1
        assert tb.c7 > 0.0
        assert tb.grid_meta["bulk_violations"] == 0
        assert tb.grid_meta["tail_fit"] == "ok"
        assert tb.grid_meta["tail_violations"] == {"upper": 0, "lower": 0}
        assert set(tb.grid_meta["per_t_c7"]) == {0.5, 1.0}

    def test_argument_validation(self, estimates):
        with pytest.raises(ValueError):
            check_truncated_bounds(self.SPEC, [0.5], estimates)
        with pytest.raises(ValueError):
            check_truncated_bounds(self.SPEC, [0.5, 2.0], estimates)
        with pytest.raises(ValueError):
            check_truncated_bounds(self.SPEC, [1.0, 0.5], estimates)

    def test_unreliable_tail_falls_back(self):
        # a grid with no support beyond |x| = 1 cannot inform the tail fit
        pts = np.linspace(-0.9, 0.9, 301)
        vals = np.maximum(1.0 - np.abs(pts) / 0.9, 0.0) / 0.9
        g = DensityGrid(
            t=0.5,
            points=pts[:, None],
            values=vals,
            meta={"se": np.full(301, 1e-4), "bin_width": pts[1] - pts[0], "n": 10**4},
        )
        tb = check_truncated_bounds(self.SPEC, [0.5], [g])
        assert tb.grid_meta["tail_fit"] == "unreliable"
        assert (tb.c3, tb.c4, tb.c5, tb.c6) == (1.0, 1.0, 1.0, 1.0)


class TestTailEnvelopeFit:
    def test_affine_data_recovered_exactly(self):
        u = -np.array([1.0, 2.0, 3.0, 4.0])
        logp = 0.3 + 0.7 * u
        for side in ("upper", "lower"):
            C, k = _fit_tail_envelope(u, logp, side)
            assert math.log(C) == pytest.approx(0.3, abs=1e-9)
            assert k == pytest.approx(0.7, abs=1e-9)

    def test_envelopes_bracket_data(self):
        rng = np.random.default_rng(8)
        u = -np.sort(rng.uniform(0.5, 5.0, 40))
        logp = 1.2 * u - 0.4 + 0.05 * np.sin(7.0 * u)
        cu, ku = _fit_tail_envelope(u, logp, "upper")
        cl, kl = _fit_tail_envelope(u, logp, "lower")
        assert np.all(math.log(cu) + ku * u >= logp - 1e-9)
        assert np.all(math.log(cl) + kl * u <= logp + 1e-9)

    @staticmethod
    def _assert_solves_the_lp(u, logp, side):
        """The closed form against HiGHS on the LP it replaces: feasible to
        1e-12 and an objective within 1e-12 relative of HiGHS's."""
        from scipy.optimize import linprog

        m, s = len(u), 1.0 if side == "upper" else -1.0
        # upper: min sum(L + k u - logp), L + k u >= logp; lower: max sum(L + k u), L + k u <= logp
        res = linprog(
            c=[s * m, s * float(u.sum())],
            A_ub=-s * np.column_stack([np.ones(m), u]),
            b_ub=-s * logp,
            bounds=[(None, None), (0.0, None)],
            method="highs",
        )
        assert res.success, res.message
        c, k = _fit_tail_envelope(u, logp, side)
        log_c = math.log(c)
        assert k >= 0.0
        assert np.all(s * (log_c + k * u - logp) >= -1e-12)
        gap, highs_gap = (s * float(np.sum(a + b * u - logp)) for a, b in ((log_c, k), tuple(res.x)))
        assert gap == pytest.approx(highs_gap, rel=1e-12, abs=1e-12 * float(np.sum(np.abs(logp))))
        return log_c, k

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps_match_highs(self, seed, side):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 400))
        u = -rng.uniform(0.01, 10.0, m)
        logp = rng.uniform(-2.0, 2.0) * u + rng.normal(0.0, 10.0 ** rng.uniform(-3, 1), m)
        self._assert_solves_the_lp(u, logp, side)

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize(
        "u, logp",
        [
            # logp falls with u: every supporting line has k < 0, so k = 0
            (-np.array([1.0, 2.0, 3.0, 4.0]), np.array([-3.0, -1.0, 0.5, 2.0])),
            # tied u values
            (-np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), np.array([0.1, -0.4, -1.0, -1.7, -2.2, -2.9])),
            # every u tied: every k is optimal
            (-np.full(4, 2.5), np.array([-1.0, -2.0, -0.5, -3.0])),
            # two points, and collinear points
            (-np.array([1.5, 4.0]), np.array([-0.7, -2.9])),
            (-np.linspace(0.5, 6.0, 12), 0.25 - 0.9 * np.linspace(0.5, 6.0, 12)),
        ],
        ids=["k-zero", "tied-u", "all-tied", "two-points", "collinear"],
    )
    def test_edge_cases_match_highs(self, u, logp, side):
        self._assert_solves_the_lp(u, logp, side)

    @pytest.mark.parametrize(
        "side, logp, least_k",
        [
            # upper hull edges of slope 2 and 0.5 meet at u_bar = -2: k in [0.5, 2]
            ("upper", np.array([-3.0, -1.0, -0.5]), 0.5),
            # lower hull edges of slope 0.5 and 1.5 meet there: k in [0.5, 1.5]
            ("lower", np.array([-2.0, -1.5, 0.0]), 0.5),
            # upper edges of slope 1 and -1: k in [0, 1]
            ("upper", np.array([0.0, 1.0, 0.0]), 0.0),
        ],
    )
    def test_a_tie_at_a_hull_vertex_takes_the_least_k(self, side, logp, least_k):
        u = -np.array([3.0, 2.0, 1.0])
        assert u.mean() == -2.0
        log_c, k = self._assert_solves_the_lp(u, logp, side)
        assert k == least_k
        # the line passes through the vertex
        assert log_c == pytest.approx(logp[1] + 2.0 * least_k, abs=1e-15)


class TestConvexityProfile:
    def _grid(self, f):
        pts = np.linspace(-4.0, 4.0, 801)
        return DensityGrid(t=0.5, points=pts[:, None], values=f(pts))

    def test_exponential_type_tail_is_increasing(self):
        g = self._grid(lambda x: np.exp(-(x**2)))
        radii, prof, se = tail_convexity_profile(g)
        assert np.all(np.diff(prof) > 0.0)
        assert np.allclose(radii, [1.5, 2.0, 3.0])
        assert np.allclose(se, 0.0)  # no se in meta -> zeros

    def test_polynomial_tail_is_decreasing(self):
        g = self._grid(lambda x: (1.0 + np.abs(x)) ** -3.0)
        _, prof, _ = tail_convexity_profile(g)
        assert np.all(np.diff(prof) < 0.0)

    def test_vanishing_probe_raises(self):
        pts = np.linspace(-1.0, 1.0, 101)
        g = DensityGrid(t=0.5, points=pts[:, None], values=np.ones(101))
        with pytest.raises(DensityEstimateError):
            tail_convexity_profile(g)

    def test_refuses_a_grid_beyond_d1(self):
        g = DensityGrid(t=0.5, points=np.zeros((2, 2)), values=np.ones(2))
        with pytest.raises(ValueError, match="d=1"):
            tail_convexity_profile(g)
