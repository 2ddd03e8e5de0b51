"""Transition densities: the stable law as a Gaussian scale mixture, the truncated law
in d=1 by tilted Fourier inversion, and KDE estimation.

The stable law with characteristic function exp(-t b |xi|^alpha) is
X = sqrt(2 S) G, G standard normal in R^d, S positive beta-stable (beta =
alpha/2).  Kanter's representation S = (A_t(phi)/E)^(1/m), with phi uniform on
(0, pi), E standard exponential, m = beta/(1 - beta), k = 1/(1 - beta),
A(phi) = sin(beta phi)^m sin((1 - beta) phi) / sin(phi)^k and A_t = (t b)^k A,
gives integrals whose integrands are positive:

    p_t(r) = (m/pi) (4 pi)^(-d/2) int_0^pi A_t^(-d/(2m)) J(r^2 A_t^(-1/m) / 4) dphi,
    J(rho) = int_0^inf v^(m + d/2 - 1) exp(-v^m - rho v) dv,
    1 - F_t(x) = (1/pi) int_0^pi C(x A_t^(-1/(2m))) dphi,  C(q) = E Phi(-q sqrt(E^(1/m)/2)),

so every value keeps its relative accuracy, at any radius and at the native
(t, x).  log J and log C are tabulated once per (d, alpha), on first use and in
a bounded cache, on a uniform grid in log rho or log q (trapezoid rule in a log
variable, exponentially accurate for these log-concave integrands) and read
by a degree-7 spline; past each table end a truncated series takes over, from
where its first omitted term is below 1e-17 of its first.

One phi-rule serves all radii of a call.  With theta = pi - phi, A_t grows like
theta^(-k), and a radius r keeps its mass in a layer near
theta ~ (r / (t b)^(1/alpha))^(-alpha): Gauss-Legendre panels of one width in
log theta cover each radius's layer below theta = 1, and panels in phi cover
theta in [1, pi]; the width comes from the curvature of the tabulated
integrand.  log A is summed from log-sines, so nothing overflows as alpha -> 2
or underflows as alpha -> 0.  Each radius sums its own nodes exactly
(math.fsum), so a value never depends on the other radii of its call.

Truncated-stable densities have no such mixture.  In d=1 they come from a
saddlepoint-tilted Fourier inversion (:func:`truncated_density`); a binned
Gaussian KDE of Monte Carlo samples (:func:`truncated_density_estimate`)
estimates them too, which checks the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .levy_core import (
    QuadratureError,
    StableSpec,
    TruncatedStableSpec,
    _truncated_series,
    bounded_minimum,
    compute_sigma,
    sphere_surface,
)
from .sampling import SeedSpec, sample_truncated_stable

__all__ = [
    "DensityGrid",
    "BoundConstants",
    "TruncatedBoundConstants",
    "DensityEstimateError",
    "stable_density",
    "stable_cdf_1d",
    "phi_envelope",
    "stable_density_grid",
    "truncated_density",
    "estimate_bound_constants",
    "kde_1d",
    "truncated_density_estimate",
    "check_truncated_bounds",
    "tail_convexity_profile",
]

# A series past a table end takes over where its first omitted term is below
# exp(-SERIES_LOG_TOL) ~ 1e-17 of its first; it has at most SERIES_TERMS terms.
SERIES_LOG_TOL = 39.2
SERIES_TERMS = 8
# Table step in log rho or log q (halved where m > 1, where log J bends faster)
# and trapezoid step of the tabulated integrals, which are analytic in a strip
# of half-width pi/4 or more: the rule's error is about exp(-pi^2 / (2 step)).
TABLE_STEP = 0.05
TRAPEZOID_STEP = 0.15
# A table's cost bounds: alpha -> 0 widens tables, alpha -> 2 the integrals' windows.
TABLE_POINTS = 1 << 16
TRAPEZOID_NODES = 1 << 27
# Windows leave out what lies PEAK_DROP below an integrand's peak (e^-45 ~ 3e-20).
PEAK_DROP = 45.0
# phi-panels: 8 Gauss-Legendre nodes each, one curvature scale of the
# tabulated integrand wide in log rho (or log q).
_GL = np.polynomial.legendre.leggauss(8)


class DensityEstimateError(RuntimeError):
    """A density estimate failed a structural check (mass, support, fit)."""


# ---------------------------------------------------------------------------
# stable density and CDF as Gaussian scale mixtures


def _log_origin_density(d: int, alpha: float, log_tb: float) -> float:
    """log p_t(0) = log((2 pi)^(-d) |S^(d-1)| Gamma(d/alpha) / (alpha (t b)^(d/alpha))),
    summed in log space, where Gamma(d/alpha) and (t b)^(d/alpha) can each overflow."""
    lead = math.log(sphere_surface(d) / alpha) - d * math.log(2.0 * math.pi)
    return lead + math.lgamma(d / alpha) - (d / alpha) * log_tb


def _kanter_exponents(alpha: float) -> tuple[float, float, float]:
    """(beta, m, k) = (alpha/2, beta/(1 - beta), 1/(1 - beta))."""
    beta = alpha / 2.0
    return beta, beta / (1.0 - beta), 1.0 / (1.0 - beta)


def _log_a_theta(beta: float, u: np.ndarray) -> np.ndarray:
    """log A at theta = pi - phi = e^u: sin(beta phi) = sin(pi (1 - beta) + beta theta),
    and log sin(theta) = u + log(sin(theta)/theta) stays finite where e^u underflows."""
    m, k = beta / (1.0 - beta), 1.0 / (1.0 - beta)
    theta = np.exp(u)
    return (
        m * np.log(np.sin(math.pi * (1.0 - beta) + beta * theta))
        + np.log(np.sin((1.0 - beta) * (math.pi - theta)))
        - k * (u + np.log(np.sinc(theta / math.pi)))
    )


class _EndSeries:
    """A table's closed-form end: the truncation of log sum_n sign_n exp(coef_n + slope_n y)
    (sign_0 = +1) that reaches closest to the table, from y = ``reach`` on.

    Term n relative to term 0 is exp(dc_n + ds_n y); N terms serve where term N
    is below exp(-SERIES_LOG_TOL) and term 1 does not exceed term 0.  The
    series are alternating, with remainders bounded by their first omitted term
    (Taylor series of completely monotone functions).  Every ds_n is a whole
    multiple of ds_1, so the sum is exp(coef_0 + slope_0 y) (1 + P(w)), P a
    polynomial in w = exp(ds_1 (y - reach)), which is at most 1 past the reach.
    """

    def __init__(self, coef, slope, sign, lower: bool):
        dc, ds = coef - coef[0], slope - slope[0]
        first = -dc[1] / ds[1]
        ends = [(min if lower else max)((-SERIES_LOG_TOL - dc[n]) / ds[n], first) for n in range(1, len(coef))]
        n = int(np.argmax(ends) if lower else np.argmin(ends)) + 1
        self.reach, self.lead, self.slope, self.rate = ends[n - 1], coef[0], slope[0], ds[1]
        powers = np.rint(ds[:n] / ds[1]).astype(int)
        self.poly = np.zeros(powers[-1] + 1)
        self.poly[powers[1:]] = sign[1:n] * np.exp(dc[1:n] + ds[1:n] * self.reach)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        w = np.exp(self.rate * (y - self.reach))
        return self.lead + self.slope * y + np.log1p(np.polynomial.polynomial.polyval(w, self.poly))


class _LogTable:
    """log f on y = log rho or log q: a degree-7 spline through ``log_values`` on a
    uniform grid of ``step`` between the reaches of two end series, the series outside."""

    def __init__(self, log_values, below: _EndSeries, above: _EndSeries, step: float):
        from scipy.interpolate import make_interp_spline

        self.below, self.above, self.lo, self.hi = below, above, below.reach, above.reach
        n = math.ceil((self.hi - self.lo) / step) + 9
        if n > TABLE_POINTS:
            raise QuadratureError(f"a mixture table needs {n} points (cap {TABLE_POINTS}): alpha is too close to 0")
        y = self.lo - 4.0 * step + step * np.arange(n)
        self.spline = make_interp_spline(y, log_values(y), k=7)

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape)
        low, high = y < self.lo, y > self.hi
        mid = ~(low | high)
        for part, f in ((low, self.below), (high, self.above), (mid, self.spline)):
            if part.any():
                out[part] = f(y[part])
        return out


def _log_trapezoid(log_integrand, params: np.ndarray) -> np.ndarray:
    """log of the integral over s of exp(log_integrand(s, p)), for each p in ``params``.

    The log-integrand must be concave in s.  A golden-section search finds each
    peak within |s| < 1e6 and bisection the window where it has fallen
    PEAK_DROP below; the trapezoid rule at TRAPEZOID_STEP covers the window,
    a few parameters at a time.  More than TRAPEZOID_NODES nodes in all raise.
    """
    g = lambda s: log_integrand(s, params)
    lo, hi = np.full(len(params), -1e6), np.full(len(params), 1e6)
    for _ in range(90):
        a, b = hi - 0.618034 * (hi - lo), lo + 0.618034 * (hi - lo)
        rising = g(a) < g(b)
        lo, hi = np.where(rising, a, lo), np.where(rising, hi, b)
    mode = 0.5 * (lo + hi)
    peak = g(mode)
    ends = []
    for far in (-1e6, 1e6):
        inside, outside = mode, np.full(len(params), far)
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            kept = g(mid) > peak - PEAK_DROP
            inside, outside = np.where(kept, mid, inside), np.where(kept, outside, mid)
        ends.append(outside)
    nodes = (ends[1] - ends[0]) / TRAPEZOID_STEP + 2
    if np.any(np.abs(ends) == 1e6) or nodes.sum() > TRAPEZOID_NODES:
        raise QuadratureError("mixture table integrals exceed their node budget: alpha is too close to 2")
    out, chunk = np.empty(len(params)), max(1, int(TRAPEZOID_NODES // 512 // nodes.max()))
    for i in range(0, len(params), chunk):
        rows = slice(i, i + chunk)
        s = ends[0][rows, None] + TRAPEZOID_STEP * np.arange(int(nodes[rows].max()))
        vals = log_integrand(s, params[rows, None]) - peak[rows, None]
        out[rows] = peak[rows] + np.log(TRAPEZOID_STEP * np.exp(vals).sum(axis=1))
    return out


def _log_j_table(d: int, alpha: float) -> _LogTable:
    """log J(e^y) with J(rho) = int_0^inf v^(m + d/2 - 1) exp(-v^m - rho v) dv."""
    from scipy import special

    _, m, _ = _kanter_exponents(alpha)
    h, n = d / 2.0, np.arange(SERIES_TERMS + 1)
    sign = (-1.0) ** n
    # rho -> 0: (1/m) sum (-rho)^n Gamma(1 + (h + n)/m) / n!
    lg = special.gammaln(1.0 + (h + n) / m) - special.gammaln(n + 1.0) - math.log(m)
    below = _EndSeries(lg, n.astype(float), sign, lower=True)
    # rho -> inf: sum (-1)^n Gamma(m + h + n m) / n! rho^(-(m + h + n m))
    lg = special.gammaln(m + h + n * m) - special.gammaln(n + 1.0)
    above = _EndSeries(lg, -(m + h + n * m), sign, lower=False)
    # integrate in s = log v (m <= 1) or s = log v^m (m > 1), so that both
    # exponentials in s have rates p1, p2 at most 1
    if m <= 1.0:
        a, p1, p2, shift = m + h, m, 1.0, 0.0
    else:
        a, p1, p2, shift = 1.0 + h / m, 1.0, 1.0 / m, -math.log(m)

    def log_integrand(s, y):
        # capped exponents: e^700 already puts a node far below its peak
        return shift + a * s - np.exp(np.minimum(p1 * s, 700.0)) - np.exp(np.minimum(y + p2 * s, 700.0))

    step = TABLE_STEP if m <= 1.0 else TABLE_STEP / 2.0
    return _LogTable(lambda y: _log_trapezoid(log_integrand, y), below, above, step)


def _log_c_table(alpha: float) -> _LogTable:
    """log C(e^y) with C(q) = E Phi(-q sqrt(W/2)), W = E^(1/m), E standard exponential."""
    from scipy import special

    _, m, _ = _kanter_exponents(alpha)
    n = np.arange(SERIES_TERMS)
    # q -> 0: 1/2 - K(q), K(q) = sum (-1)^n q^(2n+1) E (W/2)^(n+1/2) / (sqrt(2 pi) 2^n n! (2n+1))
    j = 2.0 * n + 1.0
    lg = special.gammaln(1.0 + j / (2.0 * m)) - (j / 2.0 + n) * math.log(2.0) - special.gammaln(n + 1.0)
    lg -= np.log(j) + 0.5 * math.log(2.0 * math.pi)
    below = _EndSeries(
        np.append(-math.log(2.0), lg), np.append(0.0, j), np.append(1.0, -((-1.0) ** n)), lower=True
    )
    # q -> inf: sum_{n >= 1} (-1)^(n+1) (4/q^2)^(n m) Gamma(n m + 1/2) / (2 sqrt(pi) n!)
    n = n + 1.0
    lg = n * m * math.log(4.0) + special.gammaln(n * m + 0.5) - special.gammaln(n + 1.0)
    above = _EndSeries(lg - math.log(2.0 * math.sqrt(math.pi)), -2.0 * m * n, (-1.0) ** (n + 1), lower=False)
    if m >= 1.0:
        # s = log E: C = int exp(s - e^s) Phi(-q e^(s/(2m)) / sqrt 2) ds
        def log_integrand(s, y):
            w = np.exp(np.minimum(y + s / (2.0 * m), 300.0)) / math.sqrt(2.0)
            return s - np.exp(np.minimum(s, 700.0)) + special.log_ndtr(-w)
    else:
        # s = log z, z = q sqrt(W/2): C = int z phi(z) (1 - exp(-(sqrt 2 z/q)^(2m))) ds
        def log_integrand(s, y):
            v = np.clip(2.0 * m * (s - y) + m * math.log(2.0), -700.0, 50.0)
            gauss = s - 0.5 * np.exp(np.minimum(2.0 * s, 700.0)) - 0.5 * math.log(2.0 * math.pi)
            return gauss + np.log(-np.expm1(-np.exp(v)))

    step = TABLE_STEP if m <= 1.0 else TABLE_STEP / 2.0
    return _LogTable(lambda y: _log_trapezoid(log_integrand, y), below, above, step)


class _MixtureRule:
    """The phi-rule for I(c) = int_0^pi A_t^(-lam) f(c - log A_t / mu) dphi, f = e^table.

    In y = c - log A_t / mu the integrand, weighted by dphi, behaves like
    H(y) = exp(gamma y) f(e^y) near theta = pi - phi = 0, where log A_t is
    linear in log theta: H rises like exp(gamma y), peaks at ``y_peak`` and has
    fallen PEAK_DROP below its peak at ``y_right``.  Log-theta panels of width
    ``du``, from the curvature of log H, run from theta = 1 down to where a
    radius's H has fallen PEAK_DROP below its largest value on theta <= 1;
    fixed phi-panels, no wider in y, cover theta in [1, pi].
    """

    def __init__(self, table: _LogTable, beta: float, lam: float, mu: float):
        self.table, self.beta, self.lam, self.mu = table, beta, lam, mu
        self.k = k = 1.0 / (1.0 - beta)
        self.gamma = gamma = lam * mu + mu / k
        y = np.arange(table.lo - 1.0, max(table.hi, table.lo) + 20.0, 0.01)
        log_h = gamma * y + table(y)
        top = int(np.argmax(log_h))
        peak = float(log_h[top])
        below = np.flatnonzero(log_h[top:] < peak - PEAK_DROP)
        end = top + below[0] + 1 if len(below) else len(y)
        # past the y grid the leading term of the upper series sets H's slope
        overrun = (log_h[-1] - peak + PEAK_DROP) / -(gamma + table.above.slope)
        self.y_right = float(y[end - 1] if len(below) else y[-1] + overrun)
        self.y_peak = float(y[top])
        self.rise_y, self.rise_log_h = y[: top + 1], np.maximum.accumulate(log_h[: top + 1])
        start = max(0, int(np.searchsorted(self.rise_log_h, peak - PEAK_DROP)) - 1)
        curvature = np.abs(np.diff(log_h[start:end], 2)).max() / 0.01**2
        dy = min(1.0 / math.sqrt(curvature), 3.0 / gamma)
        self.du = mu / k * dy
        # log A departs from its theta -> 0 line k (log sin(pi beta) - u) by at most this
        self.log_sin = math.log(math.sin(math.pi * (1.0 - beta)))
        u = np.linspace(-30.0, 0.0, 301)
        self.u_margin = np.abs(_log_a_theta(beta, u) - k * (self.log_sin - u)).max() / k + self.du
        self.log_a_one = float(_log_a_theta(beta, np.zeros(1))[0])
        edge = math.pi - 1.0
        log_a_edges = _log_a_theta(beta, np.log([math.pi - 1e-6, 1.0]))
        n = max(2, math.ceil(float(np.ptp(log_a_edges)) / mu / dy))
        x, w = _GL
        half = 0.5 * edge / n
        phi = ((2.0 * np.arange(n) + 1.0)[:, None] + x[None, :]) * half
        self.phi_log_a = _log_a_theta(beta, np.log(math.pi - phi)).ravel()
        self.phi_log_w = np.log(half * np.tile(w, n))

    def log_integrals(self, log_tb: float, c: np.ndarray) -> np.ndarray:
        """log I(c) for each entry of c, with log A_t = k log(t b) + log A."""
        k, mu, lam, log_sin = self.k, self.mu, self.lam, self.log_sin
        c = np.asarray(c, dtype=float)
        # theta in [1, pi]
        phi_terms = (
            -lam * (k * log_tb + self.phi_log_a)[None, :]
            + self.table(c[:, None] - self.phi_log_a[None, :] / mu)
            + self.phi_log_w[None, :]
        )
        # theta <= 1: y = c - log A / mu ~ c + (k u - k log sin(pi beta)) / mu
        top = np.minimum(self.y_peak, c - self.log_a_one / mu)
        target = self.gamma * top + self.table(top) - PEAK_DROP
        y_left = np.interp(target, self.rise_log_h, self.rise_y)
        past = target < self.rise_log_h[0]
        y_left[past] = self.rise_y[0] + (target[past] - self.rise_log_h[0]) / self.gamma
        to_u = mu / k
        u_left = to_u * (y_left - c) + log_sin - self.u_margin
        u_right = to_u * (self.y_right - c) + log_sin + self.u_margin
        first = np.maximum(0, np.floor(-u_right / self.du)).astype(np.int64)
        counts = np.maximum(first, np.ceil(-u_left / self.du).astype(np.int64)) - first
        owner = np.repeat(np.arange(len(c)), counts)
        starts = np.cumsum(counts) - counts
        panel = np.arange(int(counts.sum())) - np.repeat(starts - first, counts)
        # log A and log weights on the panels any radius uses, computed once
        j0 = int(panel.min()) if len(panel) else 0
        x, w = _GL
        u = -(np.arange(j0, int(panel.max()) + 1 if len(panel) else 0)[:, None] + 0.5) * self.du
        u = u + 0.5 * self.du * x[None, :]
        log_a = _log_a_theta(self.beta, u)[panel - j0]
        theta_terms = (
            -lam * (k * log_tb + log_a)
            + self.table(c[owner][:, None] - log_a / mu)
            + (u + math.log(0.5 * self.du) + np.log(w)[None, :])[panel - j0]
        )
        # each radius sums its own terms exactly, scaled by its largest
        peak = phi_terms.max(axis=1)
        np.maximum.at(peak, owner, theta_terms.max(axis=1, initial=-np.inf))
        phi_vals = np.exp(phi_terms - peak[:, None]).tolist()
        theta_vals = np.exp(theta_terms - peak[owner][:, None]).ravel().tolist()
        sums = [
            math.fsum(phi_vals[i] + theta_vals[8 * a : 8 * (a + n)])
            for i, (a, n) in enumerate(zip(starts.tolist(), counts.tolist()))
        ]
        return peak + np.log(sums)


@lru_cache(maxsize=32)
def _density_rule(d: int, alpha: float) -> _MixtureRule:
    beta, m, _ = _kanter_exponents(alpha)
    return _MixtureRule(_log_j_table(d, alpha), beta, lam=d / (2.0 * m), mu=m)


@lru_cache(maxsize=32)
def _cdf_rule(alpha: float) -> _MixtureRule:
    beta, m, _ = _kanter_exponents(alpha)
    return _MixtureRule(_log_c_table(alpha), beta, lam=0.0, mu=2.0 * m)


def _log_tb(spec: StableSpec, t: float) -> float:
    """log(t b), b = sigma(d, alpha) c; a t b that overflows a double raises OverflowError."""
    if not t > 0.0:
        raise ValueError("time must be positive")
    tb = t * compute_sigma(spec.d, spec.alpha) * spec.c
    if not math.isfinite(tb):
        raise OverflowError(f"t sigma c overflows a double at t={t:g}, c={spec.c:g}")
    return math.log(tb)


def _log_radial_densities(spec: StableSpec, t: float, radii) -> np.ndarray:
    """log p_t at each of ``radii``, all radii under one phi-rule.

    Radius 0 takes the closed form, the rest the mixture integral; a density
    below the smallest double still has a finite log.  A t b that overflows a
    double raises OverflowError.
    """
    log_tb = _log_tb(spec, t)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all(np.isfinite(radii) & (radii >= 0.0)):
        raise ValueError("radii must be finite and nonnegative")
    d, alpha = spec.d, spec.alpha
    logs = np.empty(len(radii))
    at_origin = radii == 0.0
    logs[at_origin] = _log_origin_density(d, alpha, log_tb)
    r = radii[~at_origin]
    if len(r):
        _, m, k = _kanter_exponents(alpha)
        c = 2.0 * np.log(r) - math.log(4.0) - k * log_tb / m
        log_const = math.log(m / math.pi) - 0.5 * d * math.log(4.0 * math.pi)
        logs[~at_origin] = log_const + _density_rule(d, alpha).log_integrals(log_tb, c)
    return logs


def _radial_densities(spec: StableSpec, t: float, radii) -> np.ndarray:
    """p_t at each of ``radii``: the closed form at radius 0, the mixture
    integral elsewhere."""
    return np.exp(_log_radial_densities(spec, t, radii))


def stable_density(spec: StableSpec, t: float, x) -> float:
    """Transition density p_t(x) of the rotationally invariant stable process.

    Evaluates the mixture integral at the native (t, x); nothing is rescaled
    internally, which keeps the self-similarity law a genuine test rather
    than an identity.  The value is bit-identical to the one
    :func:`stable_density_grid` gives for the same radius in any batch; that
    function also reports how each value was obtained.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.size != spec.d:
        raise ValueError(f"x has {xv.size} coordinates, expected d={spec.d}")
    with np.errstate(over="ignore"):
        radius = np.linalg.norm(xv)
    return float(_radial_densities(spec, t, _finite_norms(xv[None, :], radius[None]))[0])


def _finite_norms(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """radii, the norms of points taken under errstate(over="ignore"), once
    no point has a norm whose square overflows a double; the first that
    does is refused in one line that names it."""
    far = np.flatnonzero(radii == math.inf)
    if len(far):
        raise DensityEstimateError(f"x={points[far[0]].tolist()} has a norm whose square overflows a double")
    return radii


def stable_cdf_1d(spec: StableSpec, t: float, x: float) -> float:
    """CDF of the one-dimensional stable marginal, from the mixture integral of 1 - F.

    F(-x) = 1 - F(x) holds exactly.  A t b that overflows a double raises
    OverflowError.
    """
    if spec.d != 1:
        raise ValueError("cdf implemented for d=1 only")
    log_tb = _log_tb(spec, t)
    x = float(x)
    if x == 0.0:
        return 0.5
    _, m, k = _kanter_exponents(spec.alpha)
    c = math.log(abs(x)) - k * log_tb / (2.0 * m)
    upper = min(math.exp(_cdf_rule(spec.alpha).log_integrals(log_tb, np.array([c]))[0]) / math.pi, 0.5)
    return 1.0 - upper if x > 0.0 else upper


def phi_envelope(d: int, alpha: float, t: float, radius) -> np.ndarray:
    """Two-sided envelope shape min(t^(-d/alpha), t * radius^(-d-alpha))."""
    radius = np.asarray(radius, dtype=float)
    bulk = t ** (-d / alpha)
    with np.errstate(divide="ignore"):
        tail = t * radius ** (-(d + alpha))
    return np.minimum(bulk, tail)


# ---------------------------------------------------------------------------
# truncated-stable density in d=1 by saddlepoint-tilted Fourier inversion
#
# The truncated measure has every exponential moment, so kappa(theta) = log E
# e^(theta X_1) = tau G(theta r), tau = 2 c r^(-alpha), G(w) = int_0^1 (cosh(w u)
# - 1) u^(-1-alpha) du, is entire, and p_t(y) = (1/pi) int_0^inf Re exp(t
# kappa(eta + i xi) - (eta + i xi) y) dxi for every real eta.  At the saddle
# point t kappa'(eta) = y (Daniels 1954) the integrand is a bump of width
# 1/sqrt(t kappa''(eta)) around xi = 0, so values keep their relative accuracy
# in the superexponential tail.

# Tilts eta r stop at TILT_REACH, where the real series still holds to 1e-16.
# A level's xi-rule ends where its integrand is below e^-CF_DROP (~3e-20 of
# its peak); a level whose rule needs more than XI_NODES nodes raises
# QuadratureError.
TILT_REACH, CF_DROP, XI_NODES = 50.0, 45.0, 1 << 16


def _gauss_jacobi_head(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes v and weights of the n-point Gauss rule for int_0^1 f(v) v^a (1 - v)^b
    dv, accurate to about 4e-15 relative in the nodes and weights of its lower half.

    Golub-Welsch (Golub & Welsch 1969) on the weight |s|^(2a+1) (1 - s^2)^b of
    [-1, 1], whose 2n-point rule has v = s^2 at its positive nodes s and half
    the weights there.  That weight is even, so its Jacobi matrix has a zero
    diagonal and off-diagonals sqrt(g_k), k = 1, 2, ..., with g_k = (m+a+1)
    (m+a+b+1) / ((k+a+b)(k+a+b+1)) at odd k = 2m+1 and m (m+b) / ((k+a+b)
    (k+a+b+1)) at even k = 2m.  Its three-term recurrence, s p_k = sqrt(g_k+1)
    p_k+1 + sqrt(g_k) p_k-1, has no shift of s to round, so small nodes keep
    their relative precision.  Each eigenvalue from np.linalg.eigvalsh takes
    one Newton step on that orthonormal recurrence, and each weight is the
    Christoffel number 1 / sum_k p_k(s)^2 at the polished node.
    """
    k = np.arange(1.0, 2 * n + 1.0)
    m = np.floor(0.5 * k)
    g = np.where(k % 2 == 1, (m + a + 1.0) * (m + a + b + 1.0), m * (m + b)) / ((k + a + b) * (k + a + b + 1.0))
    off = np.sqrt(g)
    mass = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))

    def walk(s):
        """(p_2n(s) / p_2n'(s), sum of p_k(s)^2 over k < 2n)"""
        p_prev, p = np.zeros_like(s), np.full_like(s, 1.0 / math.sqrt(mass))
        dp_prev, dp, total = np.zeros_like(s), np.zeros_like(s), np.zeros_like(s)
        for j in range(2 * n):
            total += p * p
            below = off[j - 1] if j else 0.0
            p_prev, p = p, (s * p - below * p_prev) / off[j]
            dp_prev, dp = dp, (p_prev + s * dp - below * dp_prev) / off[j]
        return p / dp, total

    s = np.linalg.eigvalsh(np.diag(off[:-1], -1))[n:]
    s = s - walk(s)[0]
    return s * s, 2.0 / walk(s)[1]


@lru_cache(maxsize=32)
def _exponent_rule(alpha: float) -> tuple:
    """(G as a polynomial in w^2; Gauss-Jacobi nodes u and weights for int_0^1 f(u)
    u^(1-alpha) du; the saddle table: a = eta r on [0, TILT_REACH], G, G', sqrt(G'')
    and the running integral of sqrt(G'') there; 16-node Gauss-Legendre nodes and
    weights for the xi-panels).

    The 64-node rule takes its 32 nodes nearest 0 from
    :func:`_gauss_jacobi_head` in u and its 32 nearest 1 from it in 1 - u,
    so each keeps its precision at its own end: about 4e-15 relative per
    weight, where scipy.special.roots_jacobi is 8e-10 off at alpha = 1.99.
    """
    poly = np.polynomial.Polynomial(np.abs(_truncated_series(1, alpha)))
    head, head_w = _gauss_jacobi_head(64, 1.0 - alpha, 0.0)
    foot, foot_w = _gauss_jacobi_head(64, 0.0, 1.0 - alpha)
    u = np.concatenate([head[:32], 1.0 - foot[31::-1]])
    w = np.concatenate([head_w[:32], foot_w[31::-1]])
    a = np.linspace(0.0, TILT_REACH, 2001)
    d1, d2 = poly.deriv()(a * a), poly.deriv(2)(a * a)
    root = np.sqrt(2.0 * d1 + 4.0 * a * a * d2)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (root[1:] + root[:-1]) * np.diff(a))])
    table = (a, poly(a * a), 2.0 * a * d1, root, cum)
    return poly, u, w, table, np.polynomial.legendre.leggauss(16)


def _exponent(alpha: float, w: np.ndarray) -> np.ndarray:
    """G(w) at complex w with Re w, Im w >= 0.

    The series serves |w| <= 8, and the Gauss-Jacobi rule |w| below 48 or
    below Re w + 40.  Past both, G = -pi |w|^alpha e^(i alpha (arg w - pi/2)) /
    (2 Gamma(1 + alpha) sin(pi alpha / 2)) + 1/alpha - (E(w) + E(-w)) / 2,
    E(z) = int_1^inf e^(-z u) u^(-1-alpha) du (continued from Re z > 0) by 41
    terms of e^(-z)/z sum_k (-1)^k (alpha + 1)_k z^(-k); what they leave out
    is below e^-40 of e^(Re w).
    """
    poly, u, weights, _, _ = _exponent_rule(alpha)
    out, size = np.empty_like(w), np.abs(w)
    far = (size >= 48.0) & (size - w.real >= 40.0)
    mid = (size > 8.0) & ~far
    out[size <= 8.0] = poly(w[size <= 8.0] ** 2)
    h = np.sinh(0.5 * np.multiply.outer(w[mid], u))
    out[mid] = (2.0 * h * h / u**2) @ weights
    wf, tail = w[far], 0.0
    for z in (wf, -wf):
        term = total = np.ones_like(z)
        for k in range(1, 41):
            term = term * (-(alpha + k) / z)
            total = total + term
        tail = tail + np.exp(-z) / z * total
    stable = np.abs(wf) ** alpha * np.exp(1j * alpha * (np.angle(wf) - math.pi / 2.0))
    out[far] = 1.0 / alpha - 0.5 * tail - math.pi * stable / (
        2.0 * math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0)
    )
    return out


def truncated_density(spec: TruncatedStableSpec, t: float, x):
    """Transition density p_t(x) of the d=1 truncated stable process, to about 1e-12.

    ``x`` is a scalar or an array; the result has its shape.  Each point's
    saddle tilt is read from a table and rounded to whole saddle widths, so
    kappa is evaluated once per level.  Each level has its own Gauss-Legendre
    rule in xi: 16-node panels that double in width from half its saddle width
    up to 2.5 periods of its fastest oscillation, then stay that wide up to
    where its integrand is below e^-CF_DROP.  That oscillation is its largest
    |x| plus r, for the symbol's edge ripple e^(i xi r), plus up to 4 r for the
    ripple's harmonics, which carry weight once 2 t c r^(-alpha) cosh(eta r)
    nears 1 (checked against panels four times finer).  A point whose Chernoff
    bound p(0) e^(t kappa(eta) - eta |x|) underflows is 0 and is not
    integrated.  A value depends on the other points of its call only through
    its level's largest |x|, at the level of rounding (about 1e-15).  A t c
    r^(-alpha), or a density, outside the range of a double raises
    OverflowError; an |x| past the tilt table or an integral that lost its
    accuracy raises QuadratureError, and so does a level whose rule needs more
    than XI_NODES nodes: where t c r^(-alpha) and alpha are both small, e^(-t
    psi) decays so slowly that the bulk needs frequencies far past that
    (alpha = 0.1, c = r = 1, t = 0.25: xi r ~ 1e10).
    """
    if spec.d != 1:
        raise NotImplementedError("the truncated density is implemented for d=1")
    xv = np.asarray(x, dtype=float)
    y = np.abs(xv).ravel()
    if not (t > 0.0 and np.all(np.isfinite(y))):
        raise ValueError("time must be positive and points finite")
    alpha, r = spec.alpha, spec.r
    log_ttau = math.log(2.0 * spec.c) + math.log(t) - alpha * math.log(r)
    if not -700.0 < log_ttau < 709.0:
        raise OverflowError(f"t c r^(-alpha) leaves the range of a double at t={t:g}, c={spec.c:g}, r={r:g}")
    # in units of r, u = |x| / r and b = xi r: p = q(u) / r, with t kappa(eta) =
    # ttau G(a), a = eta r, and q(u) = (1/pi) int_0^inf Re exp(ttau G(a + ib) - (a + ib) u) db
    ttau = math.exp(log_ttau)
    with np.errstate(over="ignore"):
        u = y / r
    poly, _, _, (a_tab, g_tab, g1_tab, root, cum), (gl_x, gl_w) = _exponent_rule(alpha)
    # past reach, t psi >= CF_DROP by one of two lower bounds on F(b) = t psi / ttau
    # that grow with b: sigma b^alpha / 2 - 2 / alpha (the jumps past r move the stable
    # symbol by at most that), and 2 b^2 min(1, pi / b)^(2 - alpha) / (pi^2 (2 - alpha))
    # (1 - cos v >= 2 v^2 / pi^2 on |v| <= pi); summed in logs, as ttau may be far from 1
    stable = np.logaddexp(math.log(CF_DROP) - log_ttau, math.log(2.0 / alpha))
    stable = (stable + math.log(2.0 / compute_sigma(1, alpha))) / alpha
    need = math.log(CF_DROP * (2.0 - alpha) / 2.0) - log_ttau
    gauss = math.log(math.pi) + (0.5 * need if need <= 0.0 else need / alpha)
    reach = math.exp(min(stable, gauss)) if min(stable, gauss) < 700.0 else math.inf
    # saddles from the table u(a) = ttau G'(a), levels from s(a) = int sqrt(ttau G'') da
    s_tab = math.sqrt(ttau) * cum
    with np.errstate(over="ignore", invalid="ignore"):  # past a double: inf, or nan and not live
        u_tab = np.minimum(ttau * g1_tab, np.finfo(float).max)
        a_star = np.interp(u, u_tab, a_tab)
        bound = ttau * np.interp(a_star, a_tab, g_tab) - a_star * u  # >= its value at a_star
    live = np.flatnonzero(bound > -746.0 - math.log(2.0 * reach / math.pi))
    log_p = np.full(len(y), -np.inf)
    if len(live) and u[live].max() > u_tab[-1]:
        raise QuadratureError(f"|x|={y[live].max():g} lies past the truncated density's tilt table at t={t:g}")
    levels, level = np.unique(np.rint(np.interp(u[live], u_tab, s_tab)), return_inverse=True)
    for q, a in enumerate(np.interp(levels, s_tab, a_tab)):
        idx, g0 = live[level == q], float(poly(a * a))
        # the level's integrand is below e^-CF_DROP past end: Re G(a + ib) - G(a) <= a^alpha G(3)
        # + 2 (cosh a - 1) / b - G(a), as (cosh au - 1) u^(-1-alpha) rises on [3 / a, 1] (second
        # mean value theorem there) and integrates to a^alpha G(3) on [0, 3 / a]
        excess = g0 - a**alpha * float(poly(9.0)) - CF_DROP / ttau
        end = min(reach, 4.0 * math.sinh(0.5 * a) ** 2 / excess) if a >= 3.0 and excess > 0.0 else reach
        width = 5.0 * math.pi / (float(u[idx].max()) + 1.0 + 4.0 * min(1.0, ttau * math.cosh(a)))
        edges = [0.0, min(0.5 / (math.sqrt(ttau) * float(np.interp(a, a_tab, root))), end)]
        while edges[-1] < end and len(edges) * 16 <= XI_NODES:
            edges.append(edges[-1] + min(edges[-1], width))
        if not edges[-1] >= end:
            raise QuadratureError(
                f"the truncated density at t={t:g} needs more than {XI_NODES} xi-nodes "
                f"(alpha={alpha:g}, c={spec.c:g}, r={r:g}, |x|={y[idx].max():g})"
            )
        half = 0.5 * np.diff(edges)[:, None]
        nodes = (np.array(edges[:-1])[:, None] + half * (1.0 + gl_x)).ravel()
        z = ttau * (_exponent(alpha, a + 1j * nodes) - g0)
        mag = np.exp(z.real) * (half * gl_w).ravel()
        keep = mag > 0.0
        mag, phase, nodes = mag[keep], z.imag[keep], nodes[keep]
        step = max(1, (1 << 22) // len(nodes))
        for part in (idx[lo : lo + step] for lo in range(0, len(idx), step)):
            vals = np.cos(phase - np.multiply.outer(u[part], nodes)) @ mag
            if not np.all(vals > 1e-6 * mag.sum()):  # cancelled to 1e-6 of its |integrand|
                raise QuadratureError(f"the truncated density lost its accuracy at t={t:g}")
            log_p[part] = ttau * g0 - a * u[part] + np.log(vals / math.pi) - math.log(r)
    if np.any(np.isnan(log_p) | (log_p > 709.0)):
        raise OverflowError(f"the truncated density at t={t:g} leaves the range of a double")
    values = np.exp(log_p)
    return values.reshape(xv.shape) if xv.ndim else float(values[0])


# ---------------------------------------------------------------------------
# grids and envelope constants


@dataclass
class DensityGrid:
    """Density values tabulated at points for one time slice."""

    t: float
    points: np.ndarray  # (m, d)
    values: np.ndarray  # (m,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.points.shape[0] != self.values.shape[0]:
            raise ValueError("points and values length mismatch")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("density values must be nonnegative")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)


def stable_density_grid(spec: StableSpec, t: float, points: np.ndarray) -> DensityGrid:
    """Evaluate the stable density on points, tracking methods and underflows.

    All radii share one phi-rule; ``meta["method_counts"]`` counts the
    'origin' and 'quadrature' values, and ``meta["clamped"]`` the values that
    underflow to 0, densities below the smallest double.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != spec.d:
        raise ValueError(f"x has {points.shape[1]} coordinates, expected d={spec.d}")
    with np.errstate(over="ignore"):
        radii = _finite_norms(points, np.linalg.norm(points, axis=1))
    values = _radial_densities(spec, t, radii)
    at_origin = int(np.count_nonzero(radii == 0.0))
    counts = {"origin": at_origin, "quadrature": len(radii) - at_origin}
    meta = {
        "method_counts": {tag: count for tag, count in counts.items() if count},
        "clamped": int(np.count_nonzero(values == 0.0)),
    }
    return DensityGrid(t=t, points=points, values=values, meta=meta)


@dataclass(frozen=True)
class BoundConstants:
    """Envelope constants: c1_hat * phi <= p <= c2_hat * phi on the fitted range."""

    c1_hat: float
    c2_hat: float
    grid_meta: dict

    def __post_init__(self) -> None:
        if not (0.0 < self.c1_hat <= self.c2_hat):
            raise ValueError(f"need 0 < c1_hat <= c2_hat, got {self.c1_hat}, {self.c2_hat}")


def _scaled_ratio_profile(spec: StableSpec, scaled_radii) -> np.ndarray:
    """p_1(x) / phi(1, |x|) at each |x| in ``scaled_radii``: by self-similarity this
    is the envelope ratio at every (t, x) with |x| = scaled_radius * t^(1/alpha)."""
    radii = np.atleast_1d(np.asarray(scaled_radii, dtype=float))
    return _radial_densities(spec, 1.0, radii) / phi_envelope(spec.d, spec.alpha, 1.0, radii)


# points of _refine_extrema's scan
REFINE_SCAN = 241


def _refine_extrema(g, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) of g on [lo, hi], lo > 0, by a log-spaced scan plus local refinement.

    ``g`` maps an array of points (or one point) to an array of values; the
    scan evaluates it once on all REFINE_SCAN points, and each interior local
    extremum of the scan is refined between its two neighbours by
    :func:`~harnacklab.levy_core.bounded_minimum` (bounded Brent, no scipy).
    The log spacing keeps resolution near lo when hi/lo is large; the
    profile varies on a multiplicative scale there.
    :func:`estimate_bound_constants` scans only the envelope's tail piece with
    it, which can have an interior extremum; the bulk piece is monotone.
    """
    xs = np.geomspace(lo, hi, REFINE_SCAN)
    vals = np.asarray(g(xs), dtype=float)
    gmin, gmax = float(vals.min()), float(vals.max())
    for sign in (1.0, -1.0):
        v = sign * vals
        for i in range(1, REFINE_SCAN - 1):
            if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
                val = sign * bounded_minimum(
                    lambda x: sign * float(g(x)[0]), xs[i - 1], xs[i + 1], 1e-9 * max(1.0, hi)
                )
                gmin, gmax = min(gmin, val), max(gmax, val)
    return gmin, gmax


def estimate_bound_constants(
    spec: StableSpec, t_grid: Sequence[float], x_grid: np.ndarray
) -> BoundConstants:
    """Fit the two-sided envelope constants as extrema of p / phi.

    The extrema are taken over the (t, x) product grid, matching the
    uniform-bound character of the constants (no regression), and are also
    located on the scaled-radius profile (the ratio depends on
    |x|/t^(1/alpha) alone) by 1-d minimization up to 1.1x the largest scaled
    radius seen; the constants get a 1e-7 relative widening, so they certify
    every node in that scaled range (``certified_scaled_radius`` in their
    grid_meta) up to quadrature error, not just the grid.  On the bulk piece,
    scaled radius at most 1, the envelope is 1 and the profile is p_1, which
    a Gaussian scale mixture makes radially nonincreasing, so its extrema are
    its values at the piece's two ends; only the tail piece is scanned and
    refined.
    """
    t_grid = list(t_grid)
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if not t_grid or len(x_grid) == 0:
        raise ValueError("t_grid and x_grid must be nonempty")
    with np.errstate(over="ignore"):
        radii = _finite_norms(x_grid, np.linalg.norm(x_grid, axis=1))
    c1, c2 = math.inf, -math.inf
    max_scaled = 0.0
    for t in t_grid:
        max_scaled = max(max_scaled, float(radii.max()) / t ** (1.0 / spec.alpha))
        dens, phi = _radial_densities(spec, t, radii), phi_envelope(spec.d, spec.alpha, t, radii)
        with np.errstate(divide="ignore", invalid="ignore"):  # both underflow to 0 far out: refused below
            ratios = dens / phi
        bad = np.flatnonzero(~(np.isfinite(ratios) & (ratios > 0.0)))
        if len(bad):
            raise DensityEstimateError(
                f"non-usable envelope ratio {float(ratios[bad[0]])!r} "
                f"at t={t}, x={x_grid[bad[0]].tolist()}"
            )
        c1, c2 = min(c1, float(ratios.min())), max(c2, float(ratios.max()))
    meta = {
        "t_grid": t_grid,
        "n_x": len(x_grid),
        "max_scaled_radius": max_scaled,
    }
    hi = 1.1 * max_scaled
    g = lambda s: _scaled_ratio_profile(spec, s)
    # the envelope has a kink at scaled radius 1; treat the pieces separately:
    # the bulk piece is p_1, nonincreasing, so its extrema are at its ends
    ends = g([0.0, min(1.0, hi)])
    c1, c2 = min(c1, float(ends[1])), max(c2, float(ends[0]))
    if hi > 1.0:
        hi_min, hi_max = _refine_extrema(g, 1.0, hi)
        c1, c2 = min(c1, hi_min), max(c2, hi_max)
    c1 *= 1.0 - 1e-7
    c2 *= 1.0 + 1e-7
    meta["certified_scaled_radius"] = hi
    return BoundConstants(c1_hat=c1, c2_hat=c2, grid_meta=meta)


# ---------------------------------------------------------------------------
# KDE for the truncated process


def kde_1d(
    samples: np.ndarray,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Binned Gaussian KDE: (centers, density, se, bandwidth, dropped fraction).

    The bandwidth is Silverman's rule evaluated on the central 98% of the
    sample; a global rule on the full sample would be wrecked by the heavy
    tails that are the whole point here.  Counts are binned once and smoothed
    by an FFT-free Gaussian filter, so the cost is independent of n.
    """
    from scipy.ndimage import gaussian_filter1d

    x = np.asarray(samples, dtype=float).ravel()
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 samples")
    q01, q25, q75, q99 = np.quantile(x, [0.01, 0.25, 0.75, 0.99])
    core = x[(x >= q01) & (x <= q99)]
    spread = min(core.std(), (q75 - q25) / 1.349)
    if spread <= 0.0:
        spread = max(core.std(), 1e-12)
    h = 0.9 * spread * n ** (-0.2)
    if lo is None:
        lo = float(x.min()) - 3.0 * h
    if hi is None:
        hi = float(x.max()) + 3.0 * h
    n_bins = int(min(1 << 15, max(512, math.ceil((hi - lo) / (h / 4.0)))))
    counts, edges = np.histogram(x, bins=n_bins, range=(lo, hi))
    step = edges[1] - edges[0]
    dropped = 1.0 - counts.sum() / n
    smoothed = gaussian_filter1d(counts.astype(float), sigma=h / step, mode="constant", truncate=8.0)
    density = smoothed / (n * step)
    centers = 0.5 * (edges[:-1] + edges[1:])
    se = np.sqrt(np.maximum(density, 0.0) / (n * h * 2.0 * math.sqrt(math.pi)))
    return centers, density, se, h, float(dropped)


def truncated_density_estimate(
    spec: TruncatedStableSpec,
    t: float,
    n: int,
    seed: SeedSpec | None = None,
) -> DensityGrid:
    """KDE of the truncated-stable time-t density from n Monte Carlo samples.

    The samples use the sampler's default small-jump cutoff and the KDE its
    Silverman bandwidth.  The grid spans the central bulk and at least
    |x| <= max(3, 2r); total estimated mass must come out as 1 within 2e-2 or
    the estimate is rejected.
    """
    if n < 10**4:
        raise ValueError("density estimation needs n >= 1e4 samples")
    if seed is None:
        seed = SeedSpec(0)
    samples = sample_truncated_stable(spec, t, None, n, seed)
    if spec.d != 1:
        raise NotImplementedError("KDE estimation is implemented for d=1")
    x = samples[:, 0]
    # provisional bandwidth fixes the grid reach before the real pass
    _, _, _, h0, _ = kde_1d(x[: min(n, 10**5)])
    reach = max(3.0, 2.0 * spec.r, float(np.quantile(np.abs(x), 1.0 - 1e-4)) + 6.0 * h0)
    centers, density, se, h, dropped = kde_1d(x, lo=-reach, hi=reach)
    step = centers[1] - centers[0]
    mass = float(density.sum() * step) + max(dropped, 0.0)
    if not 0.98 <= mass <= 1.02:
        raise DensityEstimateError(f"KDE mass {mass:.4f} outside [0.98, 1.02]")
    return DensityGrid(
        t=t,
        points=centers[:, None],
        values=np.maximum(density, 0.0),
        meta={
            "se": se,
            "bandwidth": h,
            "bin_width": float(step),
            "n": n,
            "dropped_fraction": float(max(dropped, 0.0)),
            "mass": mass,
        },
    )


# ---------------------------------------------------------------------------
# truncated-bound constants


@dataclass(frozen=True)
class TruncatedBoundConstants:
    """Fitted constants of the truncated-density bounds.

    Bulk regime |x| <= 1: c2 * phi <= p <= c1 * phi (c1 upper, c2 lower).
    Tail regime |x| > 1:  c5 (t/|x|)^(c6 |x|) <= p <= c3 (t/|x|)^(c4 |x|).
    Global cap: p <= c7 t^(-d/alpha).
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    grid_meta: dict

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c7"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.c2 > self.c1:
            raise ValueError("bulk constants must satisfy c2 <= c1")


def _reliable_mask(grid: DensityGrid) -> np.ndarray:
    se = grid.meta.get("se")
    good = grid.values > 0.0
    if se is not None:
        good &= se <= 0.3 * np.maximum(grid.values, 1e-300)
    return good


def _fit_tail_envelope(u: np.ndarray, logp: np.ndarray, side: str) -> tuple[float, float]:
    """LP fit of log C + k*u against logp (u = |x| log(t/|x|) < 0), in closed form.

    side "upper": smallest total gap with log C + k u >= logp;
    side "lower": with log C + k u <= logp; k >= 0 on both.  Returns (C, k).

    The total gap is m times the line's height at u_bar = mean(u), less a
    constant, so the optimum is the line supporting the upper convex hull of
    the points (u, logp) at u_bar (the lower hull for "lower"): the slope of
    the hull edge over u_bar, or k = 0 where that slope is negative, with log
    C the least (greatest) intercept that keeps every point on its side.
    Where several k are optimal (u_bar at a hull vertex, or all u equal) the
    least one is returned.  The lower fit is the upper fit of the points
    reflected through the origin, which keeps k and negates log C.
    """
    sign = 1.0 if side == "upper" else -1.0
    x, y = sign * u, sign * logp
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    top = np.append(xs[1:] != xs[:-1], True)  # the highest point at each x
    hull = []  # upper hull left to right (Andrew's monotone chain)
    for px, py in zip(xs[top].tolist(), ys[top].tolist()):
        while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (py - hull[-2][1]) >= (
            hull[-1][1] - hull[-2][1]
        ) * (px - hull[-2][0]):
            hull.pop()
        hull.append((px, py))
    k = 0.0
    if len(hull) > 1:
        # the edge [x_j, x_j+1) that holds x_bar: at a vertex, the edge right
        # of it, whose slope is the least optimal k (in u, the lower fit's
        # edge left of it)
        hx = [px for px, _ in hull]
        j = min(max(int(np.searchsorted(hx, x.mean(), side="right")) - 1, 0), len(hull) - 2)
        (x0, y0), (x1, y1) = hull[j], hull[j + 1]
        k = max((y1 - y0) / (x1 - x0), 0.0)
    return math.exp(sign * float(np.max(y - k * x))), k


def check_truncated_bounds(
    spec: TruncatedStableSpec,
    t_grid: Sequence[float],
    estimates: Sequence[DensityGrid],
) -> TruncatedBoundConstants:
    """Fit c1..c7 against density grids and verify zero violations at fit.

    A grid with an ``se`` entry in its meta is a KDE (:func:`truncated_density_estimate`):
    its bins whose standard error exceeds 30% of the estimate are dropped from
    the fits (far-tail noise), and if fewer than ~100 effective samples land
    beyond |x| = 1 the tail fit is marked unreliable in grid_meta and the tail
    constants fall back to 1.  A grid without one holds exact values (as
    :func:`truncated_density` gives them): only its zero values are dropped,
    and its tail is fitted whenever it has points beyond |x| = 1.
    """
    t_grid = list(t_grid)
    if len(t_grid) != len(estimates):
        raise ValueError("one estimate per t required")
    for t, g in zip(t_grid, estimates):
        if not 0.0 < t <= 1.0:
            raise ValueError("truncated bounds are fitted on t in (0, 1]")
        if abs(g.t - t) > 1e-12:
            raise ValueError("estimate built at different t than requested")

    d, alpha = spec.d, spec.alpha
    c7 = 0.0
    bulk_ratios = []
    tail_u, tail_logp = [], []
    tail_samples = 0.0
    per_t_c7 = {}
    for t, g in zip(t_grid, estimates):
        radii = g.radii()
        good = _reliable_mask(g)
        c7_t = float(np.max(g.values[good] * t ** (d / alpha)))
        per_t_c7[t] = c7_t
        c7 = max(c7, c7_t)

        bulk = good & (radii <= 1.0)
        if bulk.any():
            phi = phi_envelope(d, alpha, t, radii[bulk])
            bulk_ratios.append(g.values[bulk] / phi)

        tail = good & (radii > 1.0)
        if tail.any():
            r = radii[tail]
            tail_u.append(r * np.log(t / r))
            tail_logp.append(np.log(g.values[tail]))
            step = g.meta.get("bin_width", 0.0)
            tail_samples += float(g.values[tail].sum() * step * g.meta.get("n", 0))

    if not bulk_ratios:
        raise DensityEstimateError("no reliable bulk nodes: cannot fit c1, c2")
    bulk_all = np.concatenate(bulk_ratios)
    c1 = float(bulk_all.max())
    c2 = float(bulk_all.min())
    if c2 <= 0.0:
        raise DensityEstimateError("bulk lower constant collapsed to zero")

    exact = all("se" not in g.meta for g in estimates)
    meta: dict = {
        "t_grid": t_grid,
        "per_t_c7": per_t_c7,
        "tail_effective_samples": None if exact else tail_samples,
        "tail_fit": "ok",
    }
    if tail_u and (exact or tail_samples >= 100.0):
        u = np.concatenate(tail_u)
        logp = np.concatenate(tail_logp)
        c3, c4 = _fit_tail_envelope(u, logp, "upper")
        c5, c6 = _fit_tail_envelope(u, logp, "lower")
        upper_viol = int(np.sum(logp > math.log(c3) + c4 * u + 1e-9))
        lower_viol = int(np.sum(logp < math.log(c5) + c6 * u - 1e-9))
        meta["tail_violations"] = {"upper": upper_viol, "lower": lower_viol}
        if upper_viol or lower_viol:
            raise DensityEstimateError("tail envelope violated at its own fit")
    else:
        c3 = c4 = c5 = c6 = 1.0
        meta["tail_fit"] = "unreliable"

    # violation counts at the fitted constants are zero by construction; keep
    # an explicit recount as a tripwire against fit regressions
    bulk_viol = int(np.sum(bulk_all > c1 * (1 + 1e-12))) + int(np.sum(bulk_all < c2 * (1 - 1e-12)))
    meta["bulk_violations"] = bulk_viol
    return TruncatedBoundConstants(
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, grid_meta=meta
    )


def tail_convexity_profile(
    grid: DensityGrid, radii: Sequence[float] = (1.5, 2.0, 3.0)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(radii, g, se_g) with g(|x|) = -log p(|x|) / |x| on the symmetrized KDE.

    Increasing g across the probe radii witnesses the superlinear decay of
    the exponential-type tail (the (t/|x|)^(k|x|) shape); a polynomial tail
    would make g decreasing.
    """
    if grid.d != 1:
        raise ValueError("interpolation implemented for d=1 grids")
    radii = np.asarray(radii, dtype=float)
    xs = grid.points[:, 0]
    p_plus = np.interp(radii, xs, grid.values, left=0.0, right=0.0)
    p_minus = np.interp(-radii, xs, grid.values, left=0.0, right=0.0)
    p = 0.5 * (p_plus + p_minus)
    if np.any(p <= 0.0):
        raise DensityEstimateError("KDE vanishes at a convexity probe radius")
    se_arr = grid.meta.get("se")
    if se_arr is not None:
        se = 0.5 * (
            np.interp(radii, xs, se_arr) + np.interp(-radii, xs, se_arr)
        ) / math.sqrt(2.0)
    else:
        se = np.zeros_like(radii)
    g = -np.log(p) / radii
    se_g = se / (p * radii)
    return radii, g, se_g
