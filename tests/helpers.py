"""Shared test utilities: an accurate stable CDF oracle, KS machinery and the
jump-tail series of the stable density.

The CDF oracle is deliberately independent of the package's density code in
the tail: beyond a switch radius it uses the classical convergent series for
the symmetric stable survival function (alpha <= 1), so sampler tests are
anchored to two separately-derived computations that must agree where they
overlap.  ``bergstrom_density`` sums the density's series in mpmath and uses
no package code.  ``compute_mu_hat``, ``grid_mass`` and
``small_jump_cf_error_bound`` are small closed forms that only the tests use.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.interpolate import PchipInterpolator

from harnacklab import (
    DensityGrid,
    OUSpec,
    StableSpec,
    TruncatedStableSpec,
    compute_sigma,
    stable_cdf_1d,
    time_integrated_symbol,
)
from harnacklab.levy_core import sphere_surface


def tail_complement_series(alpha: float, tb: float, x: float, kmax: int = 400) -> float:
    """1 - F(x) for cf exp(-tb s^alpha), via the jump-tail series.

    The expansion sum_k (-1)^(k+1) (tb)^k Gamma(k alpha) sin(k pi alpha/2)
    x^(-k alpha) / (pi k!) converges for all x > 0 when alpha < 1 and for
    x > tb when alpha = 1 (it is the arctan series there).  Only useful in
    the far tail where it converges fast; callers pick the switch point.
    """
    if alpha > 1.0:
        raise ValueError("series oracle applies to alpha <= 1")
    total = 0.0
    log_tb, log_x = math.log(tb), math.log(x)
    for k in range(1, kmax + 1):
        s = math.sin(k * math.pi * alpha / 2.0)
        if s == 0.0:
            continue
        log_mag = k * log_tb + math.lgamma(k * alpha) - math.lgamma(k + 1) - k * alpha * log_x
        term = (-1.0) ** (k + 1) * s * math.exp(log_mag)
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1e-300) and k > 4:
            break
    return total / math.pi


def cdf_interpolant(spec: StableSpec, t: float, q_tail: float = 1e-6):
    """Monotone-cubic CDF of the symmetric stable marginal, fast to evaluate.

    Core radii are handled by the package quadrature CDF; for alpha <= 1 the
    far tail switches to the independent series oracle so heavy-tailed
    quantiles out to 1 - q_tail are still covered.  Interpolation error is
    far below KS resolution at n = 1e5.
    """
    alpha = spec.alpha
    scale = (t * compute_sigma(spec.d, alpha) * spec.c) ** (1.0 / alpha)
    # scaled radius of the q_tail quantile, from the first-order tail mass
    c_tail = math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi
    y_q = 2.0 * (c_tail / q_tail) ** (1.0 / alpha)
    tb = t * compute_sigma(spec.d, alpha) * spec.c

    if alpha <= 1.0:
        y_switch = 50.0
        core = np.geomspace(1e-3, y_switch, 700)
        tail = np.geomspace(y_switch * 1.05, max(y_q, y_switch * 2), 220)
        xs_core = scale * core
        xs_tail = scale * tail
        cdf_core = np.array([stable_cdf_1d(spec, t, float(x)) for x in xs_core])
        cdf_tail = np.array(
            [1.0 - tail_complement_series(alpha, tb, float(x)) for x in xs_tail]
        )
        # the two oracles must agree where they meet
        seam = 1.0 - tail_complement_series(alpha, tb, float(xs_core[-1]))
        assert abs(seam - cdf_core[-1]) < 1e-8, (seam, cdf_core[-1])
        xs = np.concatenate([xs_core, xs_tail])
        cdf = np.concatenate([cdf_core, cdf_tail])
    else:
        xs = scale * np.geomspace(1e-3, max(y_q, 10.0), 900)
        cdf = np.array([stable_cdf_1d(spec, t, float(x)) for x in xs])

    xs = np.concatenate([-xs[::-1], [0.0], xs])
    cdf = np.concatenate([1.0 - cdf[::-1], [0.5], cdf])
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    pchip = PchipInterpolator(xs, cdf, extrapolate=False)
    lo, hi = xs[0], xs[-1]

    def F(points):
        pts = np.asarray(points, dtype=float)
        out = np.empty(pts.shape)
        inside = (pts >= lo) & (pts <= hi)
        out[inside] = np.clip(pchip(pts[inside]), 0.0, 1.0)
        out[pts < lo] = 0.0
        out[pts > hi] = 1.0
        return out

    return F


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic."""
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    n = xs.size
    F = cdf(xs)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(grid_hi - F), np.abs(F - grid_lo))))


def ks_threshold(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value: c(level) / sqrt(n), c(0.01) = 1.628."""
    coeff = {0.1: 1.224, 0.05: 1.358, 0.01: 1.628}[level]
    return coeff / math.sqrt(n)


def sigma_mp(d: int, alpha):
    """sigma(d, alpha) from its closed form, in mpmath."""
    return (
        2 ** (1 - alpha)
        * mp.pi ** (mp.mpf(d) / 2)
        * mp.gamma(1 - alpha / 2)
        / (alpha * mp.gamma((d + alpha) / 2))
    )


def exact_alpha(alpha: float):
    """alpha as the nearest small-denominator fraction (0.1 -> 1/10) and as an mpf."""
    q = Fraction(alpha).limit_denominator(1000)
    return q, mp.mpf(q.numerator) / q.denominator


def bergstrom_density(alpha: float, x: float, d: int = 1) -> float:
    """The stable density at radius x > 0 in R^d at t = c = 1, for alpha < 1:

    (pi^(-d/2-1) / x^d) sum over k >= 1 of (-1)^(k+1) / k! 2^(k alpha)
    Gamma(k alpha/2 + 1) Gamma((k alpha + d)/2) sin(k pi alpha/2) (tb x^(-alpha))^k,

    tb = sigma(d, alpha); at d = 1 this is Bergstrom's series.  alpha is exact,
    so the terms where k alpha / 2 is an integer vanish exactly.  From one
    length scale tb^(1/alpha) on, the sine-free term size falls with k; the sum
    stops once that size is negligible, so a vanishing term is skipped rather
    than ending the sum.
    """
    with mp.workdps(50):
        q, a = exact_alpha(alpha)
        x = mp.mpf(x)
        y = 2**a * sigma_mp(d, a) * x**-a
        total, k = mp.mpf(0), 0
        while True:
            k += 1
            size = mp.gamma(k * a / 2 + 1) * mp.gamma((k * a + d) / 2) / mp.factorial(k) * y**k
            if size < mp.mpf(10) ** -60 * abs(total):
                return float(total / (mp.pi ** (mp.mpf(d) / 2 + 1) * x**d))
            if (k * q / 2).denominator != 1:
                total += (-1) ** (k + 1) * size * mp.sinpi(k * a / 2)


def compute_mu_hat(spec: OUSpec, xi, t: float) -> float:
    """Characteristic function of the time-t OU noise integral (started at 0).

    Real-valued in (0, 1] because every driver here is symmetric.
    """
    return math.exp(-time_integrated_symbol(spec, xi, t))


def grid_mass(grid: DensityGrid) -> float:
    """Trapezoidal mass of a 1-d grid (sorted points assumed)."""
    if grid.d != 1:
        raise ValueError("mass computation implemented for d=1 grids")
    xs = grid.points[:, 0]
    return float(np.trapezoid(grid.values, xs))


def small_jump_cf_error_bound(
    measure: TruncatedStableSpec,
    t: float,
    epsilon: float,
    xi_radius: float,
) -> float:
    """Bound on the cf error from replacing sub-epsilon jumps by a Gaussian.

    The measure is symmetric and isotropic, so the bound is fourth
    order: 1 - cos x - x^2/2 lies in [-x^4/24, 0] and E theta_1^4 = 3 / (d
    (d + 2)), so the Gaussian raises the cf exponent by at most t |xi|^4 m4 /
    (8 d (d + 2)), m4 the integral of |z|^4 over |z| < epsilon.  The
    Gaussian's cf lies below the true one, so this bounds the cf error too.
    """
    if not isinstance(measure, TruncatedStableSpec):
        raise TypeError(f"unsupported measure {type(measure).__name__}")
    d, a = measure.d, measure.alpha
    fourth = measure.c * sphere_surface(d) * min(epsilon, measure.r) ** (4.0 - a) / (4.0 - a)
    return t * xi_radius**4 * fourth / (8.0 * d * (d + 2))
