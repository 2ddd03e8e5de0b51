"""Transition densities: characteristic-function inversion and KDE estimation.

The stable density is recovered from exp(-t psi) by radial Fourier inversion,
and the one-dimensional CDF by a sine inversion of the same exponential; one
routine computes every such integral of exp(-t b s^alpha) K(s r) s^power.
All of them oscillate (cosine kernel in one dimension, Bessel kernel above,
sine for the CDF), so the integration range is split at the kernel's zeros.
The head segment [0, first zero] is covered by Gauss-Legendre panels graded
geometrically toward s = 0, where the s^alpha in exp(-t psi) is not smooth;
its error is estimated by doubling the panel order.  Fixed-order panels
cover the remaining half-periods up to the exponential cutoff of exp(-t psi).
Every radius of one time slice goes through a single vectorised pass: the
panels of all radii are laid end to end and evaluated a fixed number of
nodes at a time, and each radius sums its own panels exactly (math.fsum), so
a value never depends on which other radii share its batch.  Densities past
their segment cap fall back to the tail asymptote from 4 (t b)^(1/alpha) on;
the CDF has no fallback and refuses.
Truncated-stable densities have no usable inversion (their symbol decays too
slowly); they are estimated from samples by a binned Gaussian KDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import special
from scipy.ndimage import gaussian_filter1d
from scipy.optimize import OptimizeResult, linprog, minimize_scalar

from .levy_core import (
    QuadratureError,
    StableSpec,
    TruncatedStableSpec,
    bessel_zeros,
    compute_sigma,
    sphere_cf,
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
    "tail_asymptotic",
    "phi_envelope",
    "stable_density_grid",
    "estimate_bound_constants",
    "kde_1d",
    "truncated_density_estimate",
    "check_truncated_bounds",
    "tail_convexity_profile",
    "grid_interp",
    "grid_mass",
]

# In u = t b s^alpha an inversion integrand exp(-t b s^alpha) K(s r) s^power
# with |K| <= 1 is bounded by a multiple of the Gamma(k) density
# exp(-u) u^(k - 1), k = (power + 1)/alpha (k = d/alpha for a density), so the
# frequency cutoff sits where that law's upper tail drops below TAIL_MASS:
# u = max(TAIL_EXPONENT, gammainccinv(k, TAIL_MASS)), which is TAIL_EXPONENT
# while k <= 2.5.  The CDF's sin(s r)/s has k = 0 and stays at TAIL_EXPONENT:
# beyond it |sin(s r)|/s <= 1/s leaves at most E1(45)/alpha ~ 6e-22/alpha.
TAIL_EXPONENT = 45.0
TAIL_MASS = 1e-17

# half-period panels of the oscillating tail
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)

# Head panels [H q^(k+1), H q^k] shrink toward s = 0 by HEAD_RATIO down to
# 10^(-10/(n+alpha)) of the smaller of H and the decay scale (t b)^(-1/alpha),
# where the integrand grows like s^(n-1) near 0: n = d for a density, n = 1 for
# the CDF, whose sin(s r)/s tends to r.  On the last panel [0, H q^m] the
# non-smooth factor 1 - t b s^alpha differs from 1 by at most (s/scale)^alpha,
# over a share (s/scale)^n of the head, so what a panel rule can miss there
# stays below 1e-10 of the head.  The head is integrated at two orders; their
# relative gap must stay under HEAD_RTOL.
HEAD_RATIO = 0.25
HEAD_RTOL = 1e-10
_HEAD_RULES = (
    np.polynomial.legendre.leggauss(16),
    np.polynomial.legendre.leggauss(32),
)

# Panels are evaluated this many nodes at a time, whatever the number of radii
# and panels, which bounds the memory of one pass.
CHUNK_NODES = 1 << 16

# Oscillation segments one radius may take, checked before anything is
# allocated for it: densities fall back to the tail asymptote past theirs, the
# CDF has no fallback and refuses.
DENSITY_MAX_SEGMENTS = 40_000
CDF_MAX_SEGMENTS = 2_000_000

# Kernel key of sin(u), the CDF's kernel; a key d >= 1 is the radial Fourier
# kernel of dimension d.
SINE = 0


class DensityEstimateError(RuntimeError):
    """A density estimate failed a structural check (mass, clamping, support)."""


# ---------------------------------------------------------------------------
# stable density by inversion


def _origin_density(d: int, alpha: float, tb: float) -> float:
    """p_t(0) in closed form: (2 pi)^(-d) |S^(d-1)| Gamma(d/alpha) / (alpha (t b)^(d/alpha)).

    Summed in log space: Gamma(d/alpha) and (t b)^(d/alpha) can each overflow
    where their quotient is still a double.
    """
    return math.exp(
        math.log(sphere_surface(d) / alpha)
        - d * math.log(2.0 * math.pi)
        + math.lgamma(d / alpha)
        - (d / alpha) * math.log(tb)
    )


def _kernel(kernel: int, u):
    """Inversion kernel K(u) at u = s r: sin for ``SINE``, else the radial
    Fourier kernel of dimension ``kernel`` (cos at 1, Bessel above)."""
    if kernel == SINE:
        return np.sin(u)
    if kernel == 1:
        return np.cos(u)
    return sphere_cf(kernel, u)


@lru_cache(maxsize=None)
def _vanishes_at_zero(kernel: int) -> bool:
    """Whether K(0) = 0, which lifts the integrand's order at s = 0 by one."""
    return bool(_kernel(kernel, 0.0) == 0.0)


def _unit_kernel_zeros(kernel: int, limit: float) -> np.ndarray:
    """The positive zeros of K below ``limit`` and at least one past it."""
    if kernel in (SINE, 1):
        offset = 1.0 if kernel == SINE else 0.5
        return (np.arange(int(limit / math.pi) + 2) + offset) * math.pi
    nu = kernel / 2.0 - 1.0
    return bessel_zeros(nu, max(8, int(limit / math.pi - nu / 2.0 + 6.0)))


def _panel_sums(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    counts: np.ndarray,
    bounds: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    rule: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per-owner sums of Gauss-Legendre panel integrals, CHUNK_NODES nodes at a time.

    Owner j holds ``counts[j]`` consecutive panels; ``bounds(j, k)`` gives the
    (lo, hi) of panels k of owners j, and ``integrand(s, j)`` the integrand at
    nodes s (one row per panel).  Each panel integral is computed row by row
    and each owner's panels are summed with math.fsum, so a sum does not depend
    on how the panels fall into chunks.
    """
    x, w = rule
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    total = int(offsets[-1])
    step = max(1, CHUNK_NODES // len(x))
    sums = np.zeros(len(counts))
    open_parts: dict[int, list[np.ndarray]] = {}
    for p0 in range(0, total, step):
        p1 = min(p0 + step, total)
        panel = np.arange(p0, p1)
        owner = np.searchsorted(offsets, panel, side="right") - 1
        lo, hi = bounds(owner, panel - offsets[owner])
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        vals = half * (integrand(nodes, owner) * w).sum(axis=1)
        first, last = int(owner[0]), int(owner[-1])
        pieces = np.split(vals, offsets[first + 1 : last + 1] - p0)
        for j, piece in zip(range(first, last + 1), pieces):
            open_parts.setdefault(j, []).append(piece)
            if offsets[j + 1] <= p1:
                sums[j] = math.fsum(np.concatenate(open_parts.pop(j)).tolist())
    return sums


def _inversion_integrals(
    kernel: int, power: float, alpha: float, tb: float, radii: np.ndarray, max_segments: int
) -> tuple[np.ndarray, dict[int, str]]:
    """integral over [0, inf) of exp(-tb s^alpha) K(s r) s^power ds for every r in ``radii``.

    K is :func:`_kernel` of ``kernel``.  Returns the integrals (NaN where a
    radius failed) and, per failed index, the reason: more than
    ``max_segments`` oscillation segments (checked before anything is
    allocated for that radius) or a head error estimate above HEAD_RTOL.
    Radii must be positive.
    """
    radii = np.asarray(radii, dtype=float)
    shape = (power + 1.0) / alpha  # the Gamma(k) bound of the TAIL_EXPONENT comment
    u_max = TAIL_EXPONENT
    if shape > 0.0:
        u_max = max(u_max, float(special.gammainccinv(shape, TAIL_MASS)))
    upper = (u_max / tb) ** (1.0 / alpha)
    approx = upper * radii / math.pi
    errors = {
        int(j): f"inversion would need ~{approx[j]:.0f} oscillation segments (cap {max_segments})"
        for j in np.flatnonzero(approx > max_segments)
    }
    ok = approx <= max_segments
    r = radii[ok]
    out = np.full(len(radii), np.nan)
    if len(r) == 0:
        return out, errors

    zeros = _unit_kernel_zeros(kernel, float(upper * r.max()))
    n_zeros = np.searchsorted(zeros, upper * r)  # kernel zeros below the cutoff
    head = np.where(n_zeros > 0, zeros[0] / r, upper)

    def integrand(s, owner):
        return np.exp(-tb * s**alpha) * _kernel(kernel, s * r[owner][:, None]) * s**power

    # head: graded panels, m of them shrinking geometrically plus [0, H q^m];
    # near s = 0 the integrand grows like s^(n-1), one order above s^power where K(0) = 0
    n = power + 1.0 + (1.0 if _vanishes_at_zero(kernel) else 0.0)
    floor = 10.0 ** (-10.0 / (n + alpha)) * np.minimum(head, tb ** (-1.0 / alpha))
    levels = np.ceil(np.log(head / floor) / -math.log(HEAD_RATIO)).astype(np.int64)

    def head_bounds(owner, k):
        h, m = head[owner], levels[owner]
        hi = h * HEAD_RATIO**k
        lo = np.where(k < m, h * HEAD_RATIO ** (k + 1), 0.0)
        return lo, hi

    coarse, fine = (_panel_sums(integrand, levels + 1, head_bounds, rule) for rule in _HEAD_RULES)

    # tail: one panel per half-period from the first zero, the last ending at the cutoff
    last = len(zeros) - 1

    def tail_bounds(owner, k):
        ro = r[owner]
        nxt = np.minimum(k + 1, last)
        hi = np.where(k + 1 < n_zeros[owner], zeros[nxt] / ro, upper)
        return zeros[k] / ro, hi

    tail = _panel_sums(integrand, n_zeros, tail_bounds, (_GL_X, _GL_W))

    idx = np.flatnonzero(ok)
    gap = np.abs(fine - coarse)
    for j, g, f in zip(idx, gap, fine):
        if not g <= HEAD_RTOL * abs(f):
            errors[int(j)] = (
                f"head segment error estimate {g:.2e} exceeds {HEAD_RTOL:g} x {abs(f):.3e}"
            )
    out[idx] = fine + tail
    return out, errors


def tail_asymptotic(spec: StableSpec, t: float, x) -> float:
    """Far-field envelope t * c * |x|^(-d-alpha): the leading jump-tail term.

    This is the mass a single large jump deposits near x, and the function
    whose min with t^(-d/alpha) forms the two-sided envelope.  It is an
    envelope, not the exact density; accuracy improves as |x| grows, and it
    is refused inside 4 (t b)^(1/alpha).
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    radius = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    # (t b)^(1/alpha), b = sigma(d, alpha) c, is where p_t turns from bulk to tail
    reach = 4.0 * (t * compute_sigma(spec.d, spec.alpha) * spec.c) ** (1.0 / spec.alpha)
    if radius < reach:
        raise ValueError(
            f"tail asymptote requires |x| >= 4 (t b)^(1/alpha) = {reach:.6g}, got |x| = {radius:.6g}"
        )
    return t * spec.c * radius ** (-(spec.d + spec.alpha))


def _radial_densities(spec: StableSpec, t: float, radii) -> tuple[np.ndarray, list[str]]:
    """p_t at each of ``radii`` with its method tag, all radii in one inversion pass.

    Radius 0 takes the closed form ('origin'); the rest are inverted together
    ('quadrature').  A radius whose inversion fails (DENSITY_MAX_SEGMENTS,
    head error estimate, or a negative value beyond the clamp tolerance)
    falls back to :func:`tail_asymptotic` ('asymptotic') when it is at least
    4 (t b)^(1/alpha), and otherwise raises :class:`QuadratureError`.
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    d, alpha = spec.d, spec.alpha
    tb = t * compute_sigma(d, alpha) * spec.c
    origin = _origin_density(d, alpha, tb)
    reach = 4.0 * tb ** (1.0 / alpha)
    values = np.empty(len(radii))
    at_origin = radii == 0.0
    values[at_origin] = origin
    tags = ["origin" if o else "quadrature" for o in at_origin.tolist()]
    quad = np.flatnonzero(~at_origin)
    integrals, errors = _inversion_integrals(
        d, d - 1.0, alpha, tb, radii[quad], DENSITY_MAX_SEGMENTS
    )
    vals = (2.0 * math.pi) ** (-d) * sphere_surface(d) * integrals
    neg_tol = 1e-10 * max(1.0, origin)
    for i, (j, val) in enumerate(zip(quad.tolist(), vals.tolist())):
        radius = float(radii[j])
        reason = errors.get(i)
        if reason is None and val < -neg_tol:
            reason = f"inversion produced {val:.3e} at t={t}, |x|={radius} (beyond clamp tolerance)"
        if reason is None:
            values[j] = max(val, 0.0)
        elif radius >= reach:
            values[j], tags[j] = tail_asymptotic(spec, t, radius), "asymptotic"
        else:
            raise QuadratureError(reason)
    return values, tags


def stable_density(spec: StableSpec, t: float, x) -> float:
    """Transition density p_t(x) of the rotationally invariant stable process.

    Evaluates the inversion integral at the native (t, x); nothing is
    rescaled internally, which keeps the self-similarity law a genuine test
    rather than an identity.  The asymptote is only a fallback, far out
    where the oscillation budget is exhausted.  The value is bit-identical
    to the one :func:`stable_density_grid` gives for the same radius in any
    batch; that function also reports how each value was obtained.
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.size != spec.d:
        raise ValueError(f"x has {xv.size} coordinates, expected d={spec.d}")
    values, _ = _radial_densities(spec, t, [float(np.linalg.norm(xv))])
    return float(values[0])


def stable_cdf_1d(spec: StableSpec, t: float, x: float) -> float:
    """CDF of the one-dimensional stable marginal: 1/2 + (1/pi) int exp(-t b s^alpha) sin(s x)/s ds.

    The sine integral goes through the same batched inversion as the
    densities, capped at CDF_MAX_SEGMENTS oscillation segments.
    """
    if spec.d != 1:
        raise ValueError("cdf inversion implemented for d=1 only")
    if t <= 0.0:
        raise ValueError("time must be positive")
    x = float(x)
    if x == 0.0:
        return 0.5
    tb = t * compute_sigma(1, spec.alpha) * spec.c
    integrals, errors = _inversion_integrals(
        SINE, -1.0, spec.alpha, tb, np.array([abs(x)]), CDF_MAX_SEGMENTS
    )
    if errors:
        raise QuadratureError(f"cdf at |x|={abs(x):.3g}: {errors[0]}")
    out = 0.5 + math.copysign(float(integrals[0]) / math.pi, x)
    return min(max(out, 0.0), 1.0)


def phi_envelope(d: int, alpha: float, t: float, radius) -> np.ndarray:
    """Two-sided envelope shape min(t^(-d/alpha), t * radius^(-d-alpha))."""
    radius = np.asarray(radius, dtype=float)
    bulk = t ** (-d / alpha)
    with np.errstate(divide="ignore"):
        tail = t * radius ** (-(d + alpha))
    return np.minimum(bulk, tail)


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
    """Evaluate the stable density on points, tracking method and clamp counts.

    All radii go through one vectorised inversion pass; ``meta["method_counts"]``
    counts the 'origin', 'quadrature' and 'asymptotic' values.  More than 1%
    clamped (negative -> 0) nodes aborts.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != spec.d:
        raise ValueError(f"x has {points.shape[1]} coordinates, expected d={spec.d}")
    values, tags = _radial_densities(spec, t, np.linalg.norm(points, axis=1))
    clamped = int(np.count_nonzero(values == 0.0))
    meta = {
        "method_counts": {tag: tags.count(tag) for tag in set(tags)},
        "clamped": clamped,
    }
    if clamped > 0.01 * len(points):
        raise DensityEstimateError(
            f"{clamped}/{len(points)} grid nodes clamped to zero: quadrature breakdown"
        )
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
    values, _ = _radial_densities(spec, 1.0, radii)
    return values / phi_envelope(spec.d, spec.alpha, 1.0, radii)


def _refine_extrema(
    g, lo: float, hi: float, n_scan: int = 241, log: bool = False
) -> tuple[float, float]:
    """(min, max) of g on [lo, hi] by dense scan plus local refinement.

    ``g`` maps an array of points (or one point) to an array of values; the
    scan evaluates it once on all points.  A log-spaced scan keeps resolution near lo when
    hi/lo is large; the profile varies on a multiplicative scale there.
    """
    xs = np.geomspace(lo, hi, n_scan) if log else np.linspace(lo, hi, n_scan)
    vals = np.asarray(g(xs), dtype=float)
    gmin, gmax = float(vals.min()), float(vals.max())
    for sign in (1.0, -1.0):
        v = sign * vals
        for i in range(1, n_scan - 1):
            if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
                res: OptimizeResult = minimize_scalar(
                    lambda x: sign * float(g(x)[0]),
                    bounds=(xs[i - 1], xs[i + 1]),
                    method="bounded",
                    options={"xatol": 1e-9 * max(1.0, hi)},
                )
                val = sign * float(res.fun)
                gmin, gmax = min(gmin, val), max(gmax, val)
    return gmin, gmax


def estimate_bound_constants(
    spec: StableSpec,
    t_grid: Sequence[float],
    x_grid: np.ndarray,
    refine: bool = False,
) -> BoundConstants:
    """Fit the two-sided envelope constants as grid extrema of p / phi.

    Plain mode takes min/max over the (t, x) product grid, matching the
    uniform-bound character of the constants (no regression).  With
    ``refine`` the extrema are additionally located on the scaled-radius
    profile (the ratio depends on |x|/t^(1/alpha) alone) by 1-d minimization
    up to 1.1x the largest scaled radius seen, and the constants get a 1e-7
    relative widening; the result then certifies every node in that scaled
    range up to quadrature error, not just the grid.
    """
    t_grid = list(t_grid)
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if not t_grid or len(x_grid) == 0:
        raise ValueError("t_grid and x_grid must be nonempty")
    radii = np.linalg.norm(x_grid, axis=1)
    c1, c2 = math.inf, -math.inf
    max_scaled = 0.0
    for t in t_grid:
        max_scaled = max(max_scaled, float(radii.max()) / t ** (1.0 / spec.alpha))
        values, _ = _radial_densities(spec, t, radii)
        ratios = values / phi_envelope(spec.d, spec.alpha, t, radii)
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
        "refined": bool(refine),
    }
    if refine:
        hi = 1.1 * max_scaled
        g = lambda s: _scaled_ratio_profile(spec, s)
        # the envelope has a kink at scaled radius 1; treat the pieces separately
        lo_min, lo_max = _refine_extrema(g, 0.0, min(1.0, hi))
        c1, c2 = min(c1, lo_min), max(c2, lo_max)
        if hi > 1.0:
            hi_min, hi_max = _refine_extrema(g, 1.0, hi, log=True)
            c1, c2 = min(c1, hi_min), max(c2, hi_max)
        c1 *= 1.0 - 1e-7
        c2 *= 1.0 + 1e-7
        meta["certified_scaled_radius"] = hi
    return BoundConstants(c1_hat=c1, c2_hat=c2, grid_meta=meta)


# ---------------------------------------------------------------------------
# KDE for the truncated process


def kde_1d(
    samples: np.ndarray,
    bandwidth="auto",
    lo: float | None = None,
    hi: float | None = None,
    max_bins: int = 1 << 15,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Binned Gaussian KDE: (centers, density, se, bandwidth, bin width).

    Bandwidth "auto" is Silverman's rule evaluated on the central 98% of the
    sample; a global rule on the full sample would be wrecked by the heavy
    tails that are the whole point here.  Counts are binned once and smoothed
    by an FFT-free Gaussian filter, so the cost is independent of n.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 samples")
    if bandwidth == "auto":
        q01, q25, q75, q99 = np.quantile(x, [0.01, 0.25, 0.75, 0.99])
        core = x[(x >= q01) & (x <= q99)]
        spread = min(core.std(), (q75 - q25) / 1.349)
        if spread <= 0.0:
            spread = max(core.std(), 1e-12)
        h = 0.9 * spread * n ** (-0.2)
    else:
        h = float(bandwidth)
    if h <= 0.0:
        raise ValueError("bandwidth must be positive")
    if lo is None:
        lo = float(x.min()) - 3.0 * h
    if hi is None:
        hi = float(x.max()) + 3.0 * h
    n_bins = int(min(max_bins, max(512, math.ceil((hi - lo) / (h / 4.0)))))
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
    bandwidth="auto",
    seed: SeedSpec | None = None,
    epsilon: float | None = None,
) -> DensityGrid:
    """KDE of the truncated-stable time-t density from n Monte Carlo samples.

    The grid spans the central bulk and at least |x| <= max(3, 2r); total
    estimated mass must come out as 1 within 2e-2 or the estimate is
    rejected.
    """
    if n < 10**4:
        raise ValueError("density estimation needs n >= 1e4 samples")
    if seed is None:
        seed = SeedSpec(0)
    samples = sample_truncated_stable(spec, t, epsilon, n, seed)
    if spec.d != 1:
        raise NotImplementedError("KDE estimation is implemented for d=1")
    x = samples[:, 0]
    # provisional bandwidth fixes the grid reach before the real pass
    _, _, _, h0, _ = kde_1d(x[: min(n, 10**5)], bandwidth)
    reach = max(3.0, 2.0 * spec.r, float(np.quantile(np.abs(x), 1.0 - 1e-4)) + 6.0 * h0)
    centers, density, se, h, dropped = kde_1d(x, bandwidth, lo=-reach, hi=reach)
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
            "epsilon": epsilon,
        },
    )


def grid_interp(grid: DensityGrid, points) -> np.ndarray:
    """Linear interpolation of a 1-d DensityGrid; zero outside its range."""
    if grid.d != 1:
        raise ValueError("interpolation implemented for d=1 grids")
    xs = grid.points[:, 0]
    pts = np.asarray(points, dtype=float).ravel()
    return np.interp(pts, xs, grid.values, left=0.0, right=0.0)


def grid_mass(grid: DensityGrid) -> float:
    """Trapezoidal mass of a 1-d grid (sorted points assumed)."""
    if grid.d != 1:
        raise ValueError("mass computation implemented for d=1 grids")
    xs = grid.points[:, 0]
    return float(np.trapezoid(grid.values, xs))


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
    """LP fit of log C + k*u against logp (u = |x| log(t/|x|) < 0).

    side "upper": smallest total gap with log C + k u >= logp;
    side "lower": with log C + k u <= logp.  Returns (C, k).
    """
    m = len(u)
    if side == "upper":
        # minimize sum(L + k u - logp) s.t. L + k u >= logp, k >= 0
        res = linprog(
            c=[m, float(u.sum())],
            A_ub=np.column_stack([-np.ones(m), -u]),
            b_ub=-logp,
            bounds=[(None, None), (0.0, None)],
            method="highs",
        )
    else:
        # maximize sum(L + k u) s.t. L + k u <= logp, k >= 0
        res = linprog(
            c=[-m, -float(u.sum())],
            A_ub=np.column_stack([np.ones(m), u]),
            b_ub=logp,
            bounds=[(None, None), (0.0, None)],
            method="highs",
        )
    if not res.success:
        raise DensityEstimateError(f"tail envelope LP failed: {res.message}")
    log_c, k = res.x
    return math.exp(log_c), float(k)


def check_truncated_bounds(
    spec: TruncatedStableSpec,
    t_grid: Sequence[float],
    estimates: Sequence[DensityGrid],
) -> TruncatedBoundConstants:
    """Fit c1..c7 against the KDE estimates and verify zero violations at fit.

    Bins whose KDE standard error exceeds 30% of the estimate are dropped
    from the fits (far-tail noise).  If fewer than ~100 effective samples
    land beyond |x| = 1, the tail fit is marked unreliable in grid_meta and
    the tail constants fall back to 1.
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

    meta: dict = {
        "t_grid": t_grid,
        "per_t_c7": per_t_c7,
        "tail_effective_samples": tail_samples,
        "tail_fit": "ok",
    }
    if tail_u and tail_samples >= 100.0:
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
    radii = np.asarray(radii, dtype=float)
    p_plus = grid_interp(grid, radii)
    p_minus = grid_interp(grid, -radii)
    p = 0.5 * (p_plus + p_minus)
    if np.any(p <= 0.0):
        raise DensityEstimateError("KDE vanishes at a convexity probe radius")
    se_arr = grid.meta.get("se")
    if se_arr is not None:
        xs = grid.points[:, 0]
        se = 0.5 * (
            np.interp(radii, xs, se_arr) + np.interp(-radii, xs, se_arr)
        ) / math.sqrt(2.0)
    else:
        se = np.zeros_like(radii)
    g = -np.log(p) / radii
    se_g = se / (p * radii)
    return radii, g, se_g
