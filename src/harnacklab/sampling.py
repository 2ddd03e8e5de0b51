"""Random variate generation for stable, truncated-stable, and residual noises.

Exact transforms (Chambers-Mallows-Stuck in one dimension, Gaussian
subordination through a Kanter one-sided draw in higher dimensions) cover the
rotationally invariant stable family.  Truncated and residual measures have
no exact sampler; they use the standard compound-Poisson construction with a
variance-matched Gaussian standing in for the jumps below a cutoff epsilon,
whose characteristic-function error is bounded by
:func:`small_jump_cf_error_bound`.

Everything is deterministic given a :class:`SeedSpec`: draws happen in fixed
logical chunks in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy import integrate

from .levy_core import (
    DominatingLevySpec,
    ResidualLevyMeasure,
    StableSpec,
    TruncatedStableSpec,
    compute_sigma,
    sphere_surface,
    split_levy_measure,
)

__all__ = [
    "SeedSpec",
    "JumpDecomposition",
    "CalibrationError",
    "TailMassError",
    "sample_sym_stable_1d",
    "sample_rot_stable",
    "make_jump_decomposition",
    "default_small_jump_cutoff",
    "sample_truncated_stable",
    "sample_residual",
    "sample_increment",
    "empirical_cf",
    "small_jump_cf_error_bound",
]

# Samplers draw per logical chunk of this many output samples, so the draw
# sequence is a pure function of (seed, n) and the temporary jump arrays are
# those of one chunk.
CHUNK = 1 << 16


class CalibrationError(RuntimeError):
    """A sampler failed its characteristic-function self-check."""


class TailMassError(ValueError):
    """Neglected jump mass beyond the tabulation radius is too large."""


@dataclass(frozen=True)
class SeedSpec:
    """Addressable randomness: one master seed, one stream per independent use.

    Identical (master_seed, stream_id) reproduce output bit-for-bit; distinct
    stream_ids give statistically independent streams via the SeedSequence
    spawn mechanism.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

    def seed_sequence(self, *extra: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id, *extra))

    def rng(self, *extra: int) -> np.random.Generator:
        """Generator for this stream; ``extra`` indices derive child streams."""
        return np.random.default_rng(self.seed_sequence(*extra))

    def substream(self, *extra: int) -> "SeedSpec":
        """A SeedSpec addressing a deterministic child stream.

        Children are identified by hashing the index path into a fresh
        stream id, so substream(i) of substream(j) never collides with a
        sibling for the index ranges used here (< 2^20 per level).
        """
        sid = self.stream_id
        for k in extra:
            if k < 0:
                raise ValueError("substream indices must be nonnegative")
            sid = (sid * 1048573 + k + 1) % (2**63)
        return SeedSpec(self.master_seed, sid)


def _as_rng(seed: Union[SeedSpec, np.random.Generator]) -> np.random.Generator:
    if isinstance(seed, SeedSpec):
        return seed.rng()
    if isinstance(seed, np.random.Generator):
        return seed
    raise TypeError(f"seed must be SeedSpec or Generator, got {type(seed).__name__}")


# ---------------------------------------------------------------------------
# exact stable samplers


def sample_sym_stable_1d(
    alpha: float,
    scale: float,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
) -> np.ndarray:
    """n draws with characteristic function exp(-(scale |xi|)^alpha ... ).

    Precisely: E exp(i xi X) = exp(-scale^alpha |xi|^alpha).  Uses the
    Chambers-Mallows-Stuck transform, which is exact; alpha = 1 reduces to a
    scaled Cauchy via tan.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (0, 2), got {alpha}")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _as_rng(seed)
    phi = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    if abs(alpha - 1.0) < 1e-12:
        return scale * np.tan(phi)
    w = rng.exponential(1.0, n)
    x = (
        np.sin(alpha * phi)
        / np.cos(phi) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
    )
    return scale * x


def _one_sided_stable(beta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Kanter draw of the positive beta-stable law with Laplace transform e^(-lam^beta)."""
    u = rng.random(n)
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    w = rng.exponential(1.0, n)
    pu = math.pi * u
    return (
        np.sin(beta * pu)
        / np.sin(pu) ** (1.0 / beta)
        * (np.sin((1.0 - beta) * pu) / w) ** ((1.0 - beta) / beta)
    )


def _standard_rot_stable(d: int, alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) draws with characteristic function exp(-|xi|^alpha)."""
    if d == 1:
        return sample_sym_stable_1d(alpha, 1.0, n, rng).reshape(n, 1)
    # subordinated Gaussian: X = sqrt(2 S) G with S one-sided (alpha/2)-stable
    s = _one_sided_stable(alpha / 2.0, n, rng)
    g = rng.standard_normal((n, d))
    return np.sqrt(2.0 * s)[:, None] * g


@lru_cache(maxsize=None)
def _rot_stable_self_check(d: int, alpha_key: int) -> bool:
    """One-off characteristic-function gate for the (d, alpha) sampler.

    The subordinator scale is analytic, not fitted; this check only guards
    against transform bugs.  Fixed internal seed makes it deterministic: it
    either always passes or always fails for a given numpy version.
    """
    alpha = alpha_key / 10**9
    n = 10**6
    rng = np.random.default_rng(np.random.SeedSequence(0xA11CE5EED, spawn_key=(d, alpha_key)))
    x = _standard_rot_stable(d, alpha, n, rng)
    for radius in (0.4, 1.0, 2.2):
        xi = np.zeros(d)
        xi[0] = radius
        re, se = empirical_cf(x, xi[None, :])
        target = math.exp(-(radius**alpha))
        if abs(re[0] - target) > 3.0 * se[0]:
            raise CalibrationError(
                f"rotational stable sampler (d={d}, alpha={alpha}) misses its "
                f"characteristic function at |xi|={radius}: "
                f"{re[0]:.6f} vs {target:.6f} (se {se[0]:.2e})"
            )
    return True


def sample_rot_stable(
    spec: StableSpec,
    t: float,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
) -> np.ndarray:
    """(n, d) increments of the rotationally invariant stable process at time t.

    The time-t marginal has characteristic function exp(-t sigma(d, alpha) c
    |xi|^alpha), so the standard draw is scaled by (t sigma c)^(1/alpha).
    The first call for each (d, alpha) runs a characteristic-function
    self-check at three probe frequencies (n = 1e6, fixed internal seed) and
    raises CalibrationError beyond 3 Monte Carlo standard errors.
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    _rot_stable_self_check(spec.d, int(round(spec.alpha * 10**9)))
    rng = _as_rng(seed)
    mult = (t * compute_sigma(spec.d, spec.alpha) * spec.c) ** (1.0 / spec.alpha)
    return mult * _standard_rot_stable(spec.d, spec.alpha, n, rng)


# ---------------------------------------------------------------------------
# compound-Poisson machinery for truncated and residual measures


@dataclass(frozen=True)
class JumpDecomposition:
    """Split of a finite-range Levy measure at radius epsilon.

    poisson_intensity is the total mass on epsilon <= |z| <= (outer radius);
    gaussian_sd_per_coord^2 = (1/d) * integral of |z|^2 over |z| < epsilon.
    """

    epsilon: float
    poisson_intensity: float
    gaussian_sd_per_coord: float


def default_small_jump_cutoff(spec: TruncatedStableSpec, t: float) -> float:
    """Cutoff min(r/10, t^(1/alpha)/10): keeps the Gaussian-proxy cf error
    below Monte Carlo noise at the default sample sizes."""
    if t <= 0.0:
        raise ValueError("time must be positive")
    return min(spec.r / 10.0, t ** (1.0 / spec.alpha) / 10.0)


def make_jump_decomposition(spec: TruncatedStableSpec, epsilon: float) -> JumpDecomposition:
    """Closed-form intensity and small-jump Gaussian scale for the truncated measure."""
    if not 0.0 < epsilon < spec.r:
        raise ValueError(f"cutoff must lie in (0, r={spec.r}), got {epsilon}")
    surf = sphere_surface(spec.d)
    a = spec.alpha
    intensity = spec.c * surf * (epsilon**-a - spec.r**-a) / a
    var_total = spec.c * surf * epsilon ** (2.0 - a) / (2.0 - a)
    return JumpDecomposition(
        epsilon=epsilon,
        poisson_intensity=intensity,
        gaussian_sd_per_coord=math.sqrt(var_total / spec.d),
    )


def _power_radius_icdf(alpha: float, lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse CDF of the radius density ~ rho^(-1-alpha) on [lo, hi]."""
    a, b = lo**-alpha, hi**-alpha

    def icdf(u: np.ndarray) -> np.ndarray:
        return (a - u * (a - b)) ** (-1.0 / alpha)

    return icdf


def _random_directions(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    if d == 1:
        return (rng.integers(0, 2, count) * 2 - 1).astype(float).reshape(count, 1)
    g = rng.standard_normal((count, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms < 1e-300] = 1.0
    return g / norms[:, None]


def _compound_poisson_chunk(
    rng: np.random.Generator,
    m: int,
    rate: float,
    icdf: Callable[[np.ndarray], np.ndarray],
    d: int,
) -> tuple[np.ndarray, np.ndarray]:
    """m compound-Poisson sums (and their jump counts) for one chunk."""
    counts = rng.poisson(rate, m)
    total = int(counts.sum())
    sums = np.zeros((m, d))
    if total > 0:
        radii = icdf(rng.random(total))
        dirs = _random_directions(rng, total, d)
        jumps = radii[:, None] * dirs
        owner = np.repeat(np.arange(m), counts)
        for j in range(d):
            sums[:, j] = np.bincount(owner, weights=jumps[:, j], minlength=m)
    return sums, counts


def _compound_poisson_gaussian(
    rng: np.random.Generator,
    n: int,
    d: int,
    rate: float,
    icdf: Callable[[np.ndarray], np.ndarray],
    gaussian_sd: float,
    return_counts: bool = False,
):
    out = np.empty((n, d))
    counts = np.empty(n, dtype=np.int64) if return_counts else None
    for start in range(0, n, CHUNK):
        stop = min(n, start + CHUNK)
        m = stop - start
        sums, cnt = _compound_poisson_chunk(rng, m, rate, icdf, d)
        if gaussian_sd > 0.0:
            sums += gaussian_sd * rng.standard_normal((m, d))
        out[start:stop] = sums
        if return_counts:
            counts[start:stop] = cnt
    if return_counts:
        return out, counts
    return out


def sample_truncated_stable(
    spec: TruncatedStableSpec,
    t: float,
    epsilon: float | None,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
    return_counts: bool = False,
) -> np.ndarray:
    """(n, d) increments of the truncated stable process at time t.

    Compound Poisson over jumps with radius in (epsilon, r] plus a Gaussian
    with the small-jump variance.  ``epsilon=None`` selects the default
    cutoff.  With ``return_counts`` the per-sample Poisson jump counts come
    back too (useful for diagnostics).
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if epsilon is None:
        epsilon = default_small_jump_cutoff(spec, t)
    decomp = make_jump_decomposition(spec, epsilon)
    rng = _as_rng(seed)
    return _compound_poisson_gaussian(
        rng,
        n,
        spec.d,
        rate=t * decomp.poisson_intensity,
        icdf=_power_radius_icdf(spec.alpha, epsilon, spec.r),
        gaussian_sd=decomp.gaussian_sd_per_coord * math.sqrt(t),
        return_counts=return_counts,
    )


def _tabulated_radius_icdf(
    density: Callable[[np.ndarray], np.ndarray],
    d: int,
    lo: float,
    hi: float,
    n_nodes: int = 1200,
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Inverse CDF (by table) of radius ~ density(rho) rho^(d-1) on [lo, hi].

    Returns (icdf, total unnormalized mass without surface factor).
    """
    grid = np.geomspace(lo, hi, n_nodes)
    vals = np.asarray(density(grid), dtype=float) * grid ** (d - 1)
    increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(increments)])
    total = cdf[-1]
    if total <= 0.0:
        return (lambda u: np.full_like(u, lo)), 0.0
    cdf /= total

    def icdf(u: np.ndarray) -> np.ndarray:
        return np.interp(u, cdf, grid)

    return icdf, total


def sample_residual(
    residual: ResidualLevyMeasure,
    t: float,
    epsilon: float,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
    r_max: float = 1e3,
    return_counts: bool = False,
) -> np.ndarray:
    """(n, d) increments of the Levy process with the residual measure.

    Jumps with radius in (epsilon, r_max] are compound Poisson from a
    tabulated inverse CDF; jumps below epsilon become a variance-matched
    Gaussian.  Raises TailMassError if the mass neglected beyond r_max
    exceeds 1e-4 of the total jump mass.
    """
    if t <= 0.0 or epsilon <= 0.0:
        raise ValueError("time and cutoff must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    d = residual.d
    surf = sphere_surface(d)
    dens = residual.radial_density

    icdf, body_mass = _tabulated_radius_icdf(dens, d, epsilon, r_max)
    tail_mass, _ = integrate.quad(
        lambda rho: float(dens(np.array([rho]))[0]) * rho ** (d - 1), r_max, np.inf, limit=200
    )
    intensity = surf * body_mass
    if body_mass > 0.0 and tail_mass > 1e-4 * (body_mass + tail_mass):
        raise TailMassError(
            f"neglected jump mass beyond r_max={r_max} is {tail_mass / (body_mass + tail_mass):.2e} "
            "of the total; increase r_max"
        )

    var_total, _ = integrate.quad(
        lambda rho: float(dens(np.array([rho]))[0]) * rho ** (d + 1), 0.0, epsilon, limit=200
    )
    gaussian_sd = math.sqrt(surf * var_total / d)

    rng = _as_rng(seed)
    if intensity == 0.0 and gaussian_sd == 0.0:
        out = np.zeros((n, d))
        if return_counts:
            return out, np.zeros(n, dtype=np.int64)
        return out
    return _compound_poisson_gaussian(
        rng,
        n,
        d,
        rate=t * intensity,
        icdf=icdf,
        gaussian_sd=gaussian_sd * math.sqrt(t),
        return_counts=return_counts,
    )


def sample_increment(
    driver,
    t: float,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
    epsilon: float | None = None,
) -> np.ndarray:
    """Time-t increment of any supported driver, dispatched by spec type.

    A dominating measure splits into its exact stable floor plus the residual
    compound-Poisson part (one r_max = 1e3 tabulation; the floor carries the
    heavy tail, so the residual neglect check concerns only the excess).
    """
    if isinstance(driver, StableSpec):
        return sample_rot_stable(driver, t, n, seed)
    if isinstance(driver, TruncatedStableSpec):
        return sample_truncated_stable(driver, t, epsilon, n, seed)
    if isinstance(driver, DominatingLevySpec):
        residual = split_levy_measure(driver)
        rng = _as_rng(seed)
        floor_part = sample_rot_stable(driver.stable_floor, t, n, rng)
        eps = epsilon
        if eps is None:
            eps = t ** (1.0 / driver.stable_floor.alpha) / 10.0
        res_part = sample_residual(residual, t, eps, n, rng)
        return floor_part + res_part
    raise TypeError(f"unsupported driver {type(driver).__name__}")


# ---------------------------------------------------------------------------
# diagnostics


def empirical_cf(samples: np.ndarray, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real part of the empirical characteristic function with standard errors.

    ``samples`` is (n, d) (or (n,) in one dimension), ``xis`` is (m, d).
    The imaginary part is omitted: all target laws here are symmetric, so it
    carries no signal beyond noise.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    proj = x @ xis.T  # (n, m)
    c = np.cos(proj)
    n = x.shape[0]
    means = c.mean(axis=0)
    ses = c.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(xis))
    return means, ses


def small_jump_cf_error_bound(
    measure: Union[TruncatedStableSpec, ResidualLevyMeasure],
    t: float,
    epsilon: float,
    xi_radius: float,
) -> float:
    """Bound on the cf error from replacing sub-epsilon jumps by a Gaussian.

    Third-order bound: |error in the cf exponent| <= t |xi|^3 / 6 * integral
    of |z|^3 over |z| < epsilon, which also bounds the multiplicative error
    of the characteristic function itself while the exponent error is small.
    """
    if isinstance(measure, TruncatedStableSpec):
        a = measure.alpha
        third = measure.c * sphere_surface(measure.d) * epsilon ** (3.0 - a) / (3.0 - a)
    elif isinstance(measure, ResidualLevyMeasure):
        third, _ = integrate.quad(
            lambda rho: float(measure.radial_density(np.array([rho]))[0]) * rho ** (measure.d + 2),
            0.0,
            epsilon,
            limit=200,
        )
        third *= sphere_surface(measure.d)
    else:
        raise TypeError(f"unsupported measure {type(measure).__name__}")
    return t * xi_radius**3 * third / 6.0
