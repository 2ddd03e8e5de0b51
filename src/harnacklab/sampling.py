"""Random variate generation for stable and truncated-stable noises.

Exact transforms (Chambers-Mallows-Stuck in one dimension, Gaussian
subordination through a Kanter one-sided draw in higher dimensions) cover the
rotationally invariant stable family.  Truncated measures have no exact
sampler; they use the standard compound-Poisson construction with a
variance-matched Gaussian standing in for the jumps below a cutoff, whose
characteristic-function error is fourth order in the frequency (see
:func:`_split_cutoff`).

Which cutoff applies depends on what reads the draws:

- :func:`sample_increment`, which feeds the semigroup (P_t f through
  ``ou_noise``), cuts stable and truncated measures at :func:`_split_cutoff`,
  the largest cutoff whose Gaussian moves the time-t characteristic function
  by at most SPLIT_CF_ERROR.  P_t f of a smooth bounded f is an integral of
  the characteristic function, so that budget bounds what it reads, with a
  few jumps per sample at any t.
- :func:`sample_truncated_stable` keeps :func:`default_small_jump_cutoff`.
  It feeds the kernel density estimates, whose tails a characteristic-function
  budget does not bound (at a cutoff of r the law would be a Gaussian with
  Gaussian tails), so it keeps the jumps that carry the tail.

Everything is deterministic given a :class:`SeedSpec`: draws happen in fixed
logical chunks in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .levy_core import (
    StableSpec,
    TruncatedStableSpec,
    _truncated_series,
    bounded_minimum,
    compute_sigma,
    sphere_surface,
)

__all__ = [
    "SeedSpec",
    "JumpDecomposition",
    "sample_sym_stable_1d",
    "sample_rot_stable",
    "make_jump_decomposition",
    "default_small_jump_cutoff",
    "sample_truncated_stable",
    "sample_increment",
    "empirical_cf",
]

# Samplers draw per logical chunk of this many output samples, so the draw
# sequence is a pure function of (seed, n) and the temporary jump arrays are
# those of one chunk.
CHUNK = 1 << 16
# Most Poisson jumps one chunk may expect, which keeps its jump arrays within a
# few GB: a compound-Poisson sampler whose rate needs it draws chunks of fewer
# than CHUNK samples, and one whose single sample expects more fails with
# ValueError instead of exhausting memory.
MAX_CHUNK_JUMPS = 2**25
# Largest change a stable measure's small-jump Gaussian may make to the
# characteristic function without drift (see _split_cutoff).
SPLIT_CF_ERROR = 1e-4


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


def sample_rot_stable(
    spec: StableSpec,
    t: float,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
) -> np.ndarray:
    """(n, d) increments of the rotationally invariant stable process at time t.

    The time-t marginal has characteristic function exp(-t sigma(d, alpha) c
    |xi|^alpha), so the standard draw is scaled by (t sigma c)^(1/alpha).
    A t sigma c that overflows a double raises OverflowError.
    """
    if not t > 0.0:
        raise ValueError("time must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    tb = t * compute_sigma(spec.d, spec.alpha) * spec.c
    if not math.isfinite(tb):
        raise OverflowError(f"t sigma c overflows a double at t={t:g}, c={spec.c:g}")
    rng = _as_rng(seed)
    mult = tb ** (1.0 / spec.alpha)
    return mult * _standard_rot_stable(spec.d, spec.alpha, n, rng)


# ---------------------------------------------------------------------------
# compound-Poisson machinery for truncated measures


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
    """Cutoff min(r/10, t^(1/alpha)/10) of :func:`sample_truncated_stable`.

    It keeps the Gaussian-proxy cf error below Monte Carlo noise at the
    default sample sizes and leaves every jump above a tenth of the typical
    step, so the density tails the kernel density estimates read stay those
    of the jumps.  The semigroup's draws cut at :func:`_split_cutoff` instead.
    """
    if not t > 0.0:
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
    """(count, d) uniform unit vectors; temporaries stay within CHUNK rows."""
    if d == 1:
        return (rng.integers(0, 2, count) * 2 - 1).astype(float).reshape(count, 1)
    g = rng.standard_normal((count, d))
    for lo in range(0, count, CHUNK):
        block = g[lo : lo + CHUNK]
        norms = np.linalg.norm(block, axis=1)
        norms[norms < 1e-300] = 1.0
        block /= norms[:, None]
    return g


def _compound_poisson_chunk(
    rng: np.random.Generator,
    m: int,
    rate: float,
    icdf: Callable[[np.ndarray], np.ndarray],
    d: int,
    weigh: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """m compound-Poisson sums (and their jump counts) for one chunk.

    ``weigh(u, jumps)``, if given, weights the jumps in place given each
    jump's time as a fraction u of the horizon, drawn uniform after the jumps.
    The radii go once they have scaled the jumps, so at most the jumps, their
    owners and the one contiguous column bincount copies are held at once:
    8 (d + 2) bytes per jump.
    """
    counts = rng.poisson(rate, m)
    total = int(counts.sum())
    sums = np.zeros((m, d))
    if total > 0:
        radii = icdf(rng.random(total))
        jumps = _random_directions(rng, total, d)
        jumps *= radii[:, None]
        del radii
        if weigh is not None:
            jumps = weigh(rng.random(total), jumps)
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
    gaussian: float | np.ndarray,
    weigh: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """n compound-Poisson sums (Poisson ``rate`` per sample) plus a Gaussian.

    ``gaussian`` is the Gaussian's standard deviation per coordinate, or a
    (d, d) factor L of its covariance L L^T.  Chunks hold CHUNK samples, or
    as many as expect at most MAX_CHUNK_JUMPS jumps; a rate above the budget
    raises ValueError before anything is allocated.  A zero rate draws no
    Poisson counts: the output is the Gaussian alone.
    """
    if rate > MAX_CHUNK_JUMPS:
        raise ValueError(
            f"compound-Poisson sampling expects {rate:.3g} jumps per sample, "
            f"over the budget of {MAX_CHUNK_JUMPS} per chunk"
        )
    size = CHUNK if rate * CHUNK <= MAX_CHUNK_JUMPS else int(MAX_CHUNK_JUMPS // rate)
    out = np.empty((n, d))
    for start in range(0, n, size):
        stop = min(n, start + size)
        m = stop - start
        if rate > 0.0:
            sums = _compound_poisson_chunk(rng, m, rate, icdf, d, weigh)[0]
        else:
            sums = np.zeros((m, d))
        if np.ndim(gaussian) == 2:
            sums += rng.standard_normal((m, d)) @ gaussian.T
        elif gaussian > 0.0:
            sums += gaussian * rng.standard_normal((m, d))
        out[start:stop] = sums
    return out


def _truncated_part(spec: TruncatedStableSpec, epsilon: float) -> tuple:
    """(jump intensity, radius inverse CDF, small-jump sd per coordinate).

    At epsilon >= r every jump is small: the part is the Gaussian with the
    whole variance, c |S| r^(2-alpha) / (2-alpha) over d per coordinate, and
    draws no jumps.
    """
    if epsilon >= spec.r:
        var_total = spec.c * sphere_surface(spec.d) * spec.r ** (2.0 - spec.alpha) / (2.0 - spec.alpha)
        return 0.0, None, math.sqrt(var_total / spec.d)
    decomp = make_jump_decomposition(spec, epsilon)
    icdf = _power_radius_icdf(spec.alpha, epsilon, spec.r)
    return decomp.poisson_intensity, icdf, decomp.gaussian_sd_per_coord


def sample_truncated_stable(
    spec: TruncatedStableSpec,
    t: float,
    epsilon: float | None,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
) -> np.ndarray:
    """(n, d) increments of the truncated stable process at time t.

    Compound Poisson over jumps with radius in (epsilon, r] plus a Gaussian
    with the small-jump variance.  ``epsilon=None`` selects the default
    cutoff.
    """
    if not t > 0.0:
        raise ValueError("time must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if epsilon is None:
        epsilon = default_small_jump_cutoff(spec, t)
    intensity, icdf, sd = _truncated_part(spec, epsilon)
    return _compound_poisson_gaussian(
        _as_rng(seed), n, spec.d, t * intensity, icdf, sd * math.sqrt(t)
    )


def _split_cutoff(spec: StableSpec | TruncatedStableSpec, t: float) -> float:
    """Cutoff at which a stable or truncated measure becomes jumps plus a
    small-jump Gaussian.

    The largest epsilon, at most r for a measure truncated at r, whose Gaussian
    changes the time-t characteristic function by at most SPLIT_CF_ERROR at
    every frequency when there is no drift (Asmussen-Rosinski).  The measure
    is symmetric, so the Gaussian's exponent errs by at most t |xi|^4 m4 /
    (8 d (d + 2)) (1 - cos x - x^2/2 lies in [-x^4/24, 0] and E theta_1^4 =
    3 / (d (d + 2))), m4 = c |S| eps^(4 - alpha) / (4 - alpha) the fourth
    moment of the jumps below epsilon, and
    the cutoff puts the sup of that times the measure's own |cf| at the
    budget.  For a stable measure the sup is at |xi|^alpha = 4 / (alpha t c
    sigma); the cutoff scales as (t c)^(1/alpha), so the expected jumps per
    sample depend on d and alpha alone (at most about 17 for d <= 10).  For
    a truncated one it is :func:`_truncated_log_peak`; a cutoff of r makes
    the whole measure Gaussian, with no jumps.
    """
    d, a, tc = spec.d, spec.alpha, t * spec.c
    budget = SPLIT_CF_ERROR * 8.0 * d * (d + 2) * (4.0 - a) / (tc * sphere_surface(d))
    if isinstance(spec, StableSpec):
        peak = (a * math.e * tc * compute_sigma(d, a) / 4.0) ** (4.0 / a)
        return (budget * peak) ** (1.0 / (4.0 - a))
    log_eps = (math.log(budget) - _truncated_log_peak(spec, t)) / (4.0 - a)
    return spec.r if log_eps >= math.log(spec.r) else math.exp(log_eps)


# The truncated symbol's power series (levy_core._truncated_series) is summed
# up to v = r |xi| = SERIES_REACH, where its cancellation costs about 1e-9.
SERIES_REACH = 20.0


def _truncated_log_peak(spec: TruncatedStableSpec, t: float) -> float:
    """log of the sup over every |xi| = s > 0 of s^4 e^{-t psi(s)}, psi the
    truncated symbol.

    With v = r s and tau = t c |S| r^(-alpha), the log is 4 log v - tau F(v)
    - 4 log r (see :func:`_truncated_series`).  It rises while v^2 < 4 d (2 -
    alpha) / tau, because psi'(s) <= s c |S| r^(2-alpha) / (d (2 - alpha)),
    so the sup over v <= SERIES_REACH is sought from there on a log grid and
    refined by :func:`~harnacklab.levy_core.bounded_minimum` (bounded Brent,
    no scipy).  Beyond V = SERIES_REACH two lower bounds hold,
    and the smaller of their sups bounds the rest:

    - the jumps past r change the stable symbol by at most 2 c |S| r^(-alpha)
      / alpha, so F(v) >= (sigma / |S|) v^alpha - 2 / alpha;
    - F(v) / v^alpha, the integral of u^(-1-alpha) (1 - E cos(u theta_1))
      over [0, v], grows with v, so F(v) >= F(V) (v / V)^alpha.  This one
      keeps small alpha at long times from a vacuous sup.
    """
    d, a = spec.d, spec.alpha
    surf = sphere_surface(d)
    tau = t * spec.c * surf * spec.r**-a
    coeffs = _truncated_series(d, a)

    def log_quartic(log_v):
        return 4.0 * log_v - tau * np.polynomial.polynomial.polyval(np.exp(2.0 * log_v), coeffs)

    reach = math.log(SERIES_REACH)
    rise = 0.5 * math.log(4.0 * d * (2.0 - a) / tau)
    grid = np.linspace(min(rise, reach), reach, 512)
    values = log_quartic(grid)
    i = int(np.argmax(values))
    best = float(values[i])
    # the sup lies within a grid step of the best node, on either side; at
    # the first node, where the rise ends, it lies past it
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    if lo < hi:
        best = max(best, -float(bounded_minimum(lambda x: -log_quartic(x), lo, hi, 1e-10)))
    # with F >= growth v^alpha - offset, 4 log v - tau F falls past v^alpha =
    # 4 / (alpha tau growth): its bound there, or at the reach if later,
    # bounds the rest
    tails = []
    for growth, offset in (
        (compute_sigma(d, a) / surf, 2.0 / a),
        (np.polynomial.polynomial.polyval(SERIES_REACH**2, coeffs) / SERIES_REACH**a, 0.0),
    ):
        far = max(reach, math.log(4.0 / (a * tau * growth)) / a)
        tails.append(4.0 * far - tau * (growth * math.exp(a * far) - offset))
    return max(best, min(tails)) - 4.0 * math.log(spec.r)


def _jump_part(driver, t: float) -> tuple:
    """The compound-Poisson part of ``driver`` at horizon t: (jump intensity,
    radius inverse CDF, small-jump sd per coordinate), the intensity and the
    Gaussian's variance per unit time, cut at :func:`_split_cutoff` (a few
    jumps per sample, none once the cutoff reaches a truncated driver's r).

    A stable driver is cut as a truncated measure of infinite radius; callers
    that can draw it exactly do so instead.
    """
    if isinstance(driver, StableSpec):
        whole = TruncatedStableSpec(driver.d, driver.alpha, driver.c, math.inf)
        return _truncated_part(whole, _split_cutoff(driver, t))
    if isinstance(driver, TruncatedStableSpec):
        return _truncated_part(driver, _split_cutoff(driver, t))
    raise TypeError(f"unsupported driver {type(driver).__name__}")


def sample_increment(
    driver,
    t: float,
    n: int,
    seed: Union[SeedSpec, np.random.Generator],
) -> np.ndarray:
    """Time-t increment of a stable or truncated driver, as the semigroup reads it.

    A stable driver is drawn exactly.  A truncated driver is its
    :func:`_jump_part`: compound-Poisson jumps plus a small-jump
    Gaussian, cut at :func:`_split_cutoff`, so its characteristic function
    stays within SPLIT_CF_ERROR, which bounds P_t f for smooth bounded f,
    with a few jumps per sample.  Its tails are not those of the law once the
    cutoff nears r, so density estimates draw through
    :func:`sample_truncated_stable` instead.
    """
    if not t > 0.0:
        raise ValueError("time must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _as_rng(seed)
    if isinstance(driver, StableSpec):
        return sample_rot_stable(driver, t, n, rng)
    intensity, icdf, sd = _jump_part(driver, t)
    return _compound_poisson_gaussian(rng, n, driver.d, t * intensity, icdf, sd * math.sqrt(t))


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
