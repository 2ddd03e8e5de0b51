"""Levy measures and characteristic exponents of the isotropic stable family.

The noises handled here are rotationally invariant alpha-stable measures
c |z|^(-d-alpha) dz, their truncations to a centred ball, and user-supplied
isotropic measures that dominate a stable floor.  Everything downstream
(density inversion, exact samplers, semigroup estimation) consumes the types
and symbol routines defined in this module.

Sign convention: for a symmetric driver the characteristic function of the
time-t marginal is exp(-t * symbol(xi)), so the symbol is real and
nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy import integrate, special
from scipy.linalg import expm

__all__ = [
    "StableSpec",
    "TruncatedStableSpec",
    "DominatingLevySpec",
    "OUSpec",
    "ResidualLevyMeasure",
    "DominationError",
    "QuadratureError",
    "describe_spec",
    "sphere_surface",
    "one_minus_cos",
    "sphere_cf",
    "one_minus_sphere_cf",
    "bessel_zeros",
    "sum_alternating",
    "compute_sigma",
    "symbol",
    "symbol_radial",
    "compute_c0",
    "split_levy_measure",
    "time_integrated_symbol",
    "compute_mu_hat",
]


class QuadratureError(RuntimeError):
    """An adaptive integration step failed to reach its tolerance."""


class DominationError(ValueError):
    """A user-supplied Levy density fails to dominate the stable floor."""


# ---------------------------------------------------------------------------
# parameter types


@dataclass(frozen=True)
class StableSpec:
    """Rotationally invariant alpha-stable noise with measure c |z|^(-d-alpha) dz."""

    d: int
    alpha: float
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"stability index must lie in (0, 2), got {self.alpha}")
        if not self.c > 0.0:
            raise ValueError(f"intensity must be positive, got {self.c}")


@dataclass(frozen=True)
class TruncatedStableSpec:
    """Stable noise with jumps truncated to the ball of radius r.

    The Levy measure is c |z|^(-d-alpha) 1{|z| <= r} dz.  The process has all
    exponential moments; its transition density decays like (t/|x|)^(k|x|)
    rather than polynomially.
    """

    d: int
    alpha: float
    c: float = 1.0
    r: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"stability index must lie in (0, 2), got {self.alpha}")
        if not self.c > 0.0:
            raise ValueError(f"intensity must be positive, got {self.c}")
        if not self.r > 0.0:
            raise ValueError(f"truncation radius must be positive, got {self.r}")


@dataclass(frozen=True)
class DominatingLevySpec:
    """Isotropic Levy measure m(|z|) dz dominating a stable floor.

    ``radial_density`` maps an array of radii to the (Lebesgue) density value
    m(rho) >= 0 and must be vectorized.  Domination means
    m(rho) >= floor.c * rho^(-d-alpha) for all rho > 0; it is verified on a
    logarithmic grid by :func:`split_levy_measure`.
    """

    d: int
    radial_density: Callable[[np.ndarray], np.ndarray]
    stable_floor: StableSpec

    def __post_init__(self) -> None:
        if self.d != self.stable_floor.d:
            raise ValueError(
                f"dimension mismatch: spec has d={self.d}, floor has d={self.stable_floor.d}"
            )


DriverSpec = Union[StableSpec, TruncatedStableSpec, DominatingLevySpec]


def describe_spec(spec) -> dict:
    """JSON-friendly description of any spec object, for report headers."""
    if isinstance(spec, StableSpec):
        return {"driver": "stable", "d": spec.d, "alpha": spec.alpha, "c": spec.c}
    if isinstance(spec, TruncatedStableSpec):
        return {
            "driver": "truncated_stable",
            "d": spec.d,
            "alpha": spec.alpha,
            "c": spec.c,
            "r": spec.r,
        }
    if isinstance(spec, DominatingLevySpec):
        return {
            "driver": "dominating",
            "d": spec.d,
            "stable_floor": describe_spec(spec.stable_floor),
        }
    if isinstance(spec, OUSpec):
        doc = describe_spec(spec.driver)
        doc["A"] = np.asarray(spec.A).tolist()
        doc["op_norm"] = spec.op_norm
        return doc
    raise TypeError(f"not a spec object: {type(spec).__name__}")


@dataclass(frozen=True, eq=False)
class OUSpec:
    """Ornstein-Uhlenbeck dynamics dX = A X dt + dZ with Levy driver Z.

    ``A`` is the drift matrix (d x d).  A zero matrix recovers the pure Levy
    process, which is how the non-drift experiments are routed through the
    same machinery.
    """

    A: np.ndarray
    driver: DriverSpec

    def __post_init__(self) -> None:
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"drift matrix must be square, got shape {A.shape}")
        if A.shape[0] != self.driver.d:
            raise ValueError(
                f"drift matrix is {A.shape[0]}x{A.shape[0]} but driver has d={self.driver.d}"
            )
        if not np.all(np.isfinite(A)):
            raise ValueError("drift matrix has non-finite entries")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "_op_norm", float(np.linalg.norm(A, 2)))

    @property
    def d(self) -> int:
        return self.driver.d

    @property
    def op_norm(self) -> float:
        """Spectral norm of the drift matrix (computed once; A is read-only)."""
        return self._op_norm


# ---------------------------------------------------------------------------
# geometric helpers


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 pi^(d/2) / Gamma(d/2))."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def one_minus_cos(u):
    """1 - cos(u) computed as 2 sin^2(u/2), accurate near u = 0."""
    u = np.asarray(u, dtype=float)
    s = np.sin(0.5 * u)
    return 2.0 * s * s


def sphere_cf(d: int, u):
    """Characteristic function of one coordinate of a uniform point on S^(d-1).

    Equals Gamma(d/2) (2/u)^(d/2-1) J_{d/2-1}(u); cos(u) when d = 1.  Radial
    Fourier kernels reduce to this function, so it shows up in every symbol
    and density integral below.
    """
    u = np.asarray(u, dtype=float)
    if d == 1:
        return np.cos(u)
    shape = u.shape
    u = np.atleast_1d(u)
    nu = d / 2.0 - 1.0
    out = np.ones_like(u)
    big = np.abs(u) > 1e-6
    ub = u[big]
    if d == 2:
        out[big] = special.j0(ub)  # agrees with jv(0, .) to ~2e-15, about 5x faster
    else:
        out[big] = math.gamma(d / 2.0) * (2.0 / ub) ** nu * special.jv(nu, ub)
    # series 1 - u^2/(2d) + u^4/(8 d (d+2)) below the switch point
    us = u[~big]
    out[~big] = 1.0 - us * us / (2.0 * d) + us**4 / (8.0 * d * (d + 2.0))
    return out.reshape(shape)


def one_minus_sphere_cf(d: int, u):
    """1 - sphere_cf(d, u) without cancellation for small arguments."""
    u = np.asarray(u, dtype=float)
    if d == 1:
        return one_minus_cos(u)
    shape = u.shape
    u = np.atleast_1d(u)
    out = np.empty_like(u)
    small = np.abs(u) < 0.1
    us = u[small]
    u2 = us * us
    out[small] = (
        u2 / (2.0 * d)
        - u2 * u2 / (8.0 * d * (d + 2.0))
        + u2 * u2 * u2 / (48.0 * d * (d + 2.0) * (d + 4.0))
    )
    out[~small] = 1.0 - sphere_cf(d, u[~small])
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# oscillatory-tail machinery
#
# Radial integrands here carry a J_{d/2-1} factor, so naive infinite-range
# quadrature stalls or silently misconverges.  All tails are summed segment
# by segment between consecutive Bessel zeros and accelerated with the
# Cohen-Villegas-Zagier transform for alternating series.

_ZERO_CACHE: dict[float, np.ndarray] = {}
_NEWTON_STEPS = 12


def bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_nu, for any real order nu > -1.

    McMahon's expansion seeds every missing zero at once and vectorised
    Newton steps (J_nu' = (nu/x) J_nu - J_{nu+1}) refine the whole array; the
    half-integer orders that odd dimensions produce are exact cases of the
    expansion.  Raises QuadratureError if the refinement does not settle on
    strictly increasing zeros.
    """
    key = float(nu)
    zeros = _ZERO_CACHE.get(key, np.empty(0))
    if len(zeros) < count:
        mu = 4.0 * nu * nu
        beta = (np.arange(len(zeros) + 1, count + 1) + 0.5 * nu - 0.25) * math.pi
        x = beta - (mu - 1.0) / (8.0 * beta) - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (
            3.0 * (8.0 * beta) ** 3
        )
        for _ in range(_NEWTON_STEPS):
            j = special.jv(nu, x)
            step = j / (nu / x * j - special.jv(nu + 1.0, x))
            x -= step
            if np.all(np.abs(step) <= 1e-15 * x):
                break
        else:
            raise QuadratureError(f"Newton refinement of the zeros of J_{nu} did not converge")
        zeros = np.concatenate([zeros, x])
        if not (zeros[0] > 0.0 and np.all(np.diff(zeros) > 0.0)):
            raise QuadratureError(f"zeros of J_{nu} are not strictly increasing")
        _ZERO_CACHE[key] = zeros
    return zeros[:count].copy()


def sum_alternating(magnitudes: np.ndarray) -> float:
    """Sum of sum((-1)^k a_k) from the first terms, via the CVZ acceleration.

    ``magnitudes`` holds a_0, a_1, ... (nonnegative).  Convergence is
    geometric at rate (3 + sqrt(8))^(-n), so ~20 terms deliver near machine
    precision for the smooth tails this module produces.
    """
    a = np.asarray(magnitudes, dtype=float)
    n = len(a)
    if n == 0:
        return 0.0
    dd = (3.0 + math.sqrt(8.0)) ** n
    dd = 0.5 * (dd + 1.0 / dd)
    b, c, s = -1.0, -dd, 0.0
    for k in range(n):
        c = b - c
        s += c * a[k]
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / dd


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _segment_integrals(f, breakpoints: np.ndarray) -> np.ndarray:
    """Fixed-order Gauss-Legendre integrals of f over consecutive segments."""
    lo = breakpoints[:-1]
    hi = breakpoints[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # nodes: (n_seg, 24)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(x.ravel()).reshape(x.shape)
    return half * (vals @ _GL_WEIGHTS)


def _oscillatory_tail(d: int, power: float, n_segments: int = 24) -> tuple[float, float]:
    """(start, integral of rho^power * sphere_cf(d, rho) over [start, inf)).

    ``start`` is a zero of the oscillating kernel so consecutive segment
    integrals alternate in sign; the alternating series is CVZ-accelerated.
    Requires power < (d - 1) / 2 for convergence (always true here).
    """
    nu = d / 2.0 - 1.0
    zeros = bessel_zeros(nu, n_segments + 12)
    # skip the first few zeros so the bulk integral absorbs the non-asymptotic region
    z = zeros[zeros > 10.0]
    if len(z) < n_segments + 1:
        z = zeros[-(n_segments + 1):]
    z = z[: n_segments + 1]

    def f(rho):
        return rho**power * sphere_cf(d, rho)

    segs = _segment_integrals(f, z)
    total = sum_alternating(np.abs(segs))
    # restore the sign of the first segment
    if segs[0] < 0.0:
        total = -total
    return float(z[0]), float(total)


def _bulk_quad(f, lo: float, hi: float, d: int, epsrel: float = 1e-12) -> float:
    """Adaptive integral of f on [lo, hi] with breakpoints at kernel zeros."""
    nu = d / 2.0 - 1.0
    pts = []
    k = 8
    while True:
        z = bessel_zeros(nu, k)
        inside = z[(z > lo) & (z < hi)]
        if len(z) == 0 or z[-1] >= hi:
            pts = list(inside)
            break
        k *= 2
        if k > 4096:
            pts = list(inside)
            break
    # quad spends one subinterval per breakpoint before it bisects any, so
    # its limit grows with them (r |xi| past about 1,250 has over 400)
    val, err = integrate.quad(
        f, lo, hi, points=pts or None, limit=400 + len(pts), epsabs=0.0, epsrel=epsrel
    )
    if not math.isfinite(val):
        raise QuadratureError(f"bulk quadrature diverged on [{lo}, {hi}]")
    return val


# ---------------------------------------------------------------------------
# symbols


@lru_cache(maxsize=None)
def compute_sigma(d: int, alpha: float) -> float:
    """Normalization sigma(d, alpha) = integral of (1 - cos z_1) |z|^(-d-alpha) dz.

    Computed by adaptive quadrature: a bulk integral up to a Bessel zero, the
    exact power-law tail of the constant part, and a CVZ-accelerated
    alternating series for the oscillatory remainder.  The closed form
    2^(1-alpha) pi^(d/2) Gamma(1 - alpha/2) / (alpha Gamma((d+alpha)/2))
    serves as an independent oracle in the test suite and is deliberately not
    used here.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (0, 2), got {alpha}")

    def bulk(rho):
        return rho ** (-1.0 - alpha) * one_minus_sphere_cf(d, rho)

    start, tail_osc = _oscillatory_tail(d, -1.0 - alpha)
    bulk_val = _bulk_quad(bulk, 0.0, start, d)
    radial = bulk_val + start ** (-alpha) / alpha - tail_osc
    return sphere_surface(d) * radial


@lru_cache(maxsize=None)
def _truncated_radial_tail_zeros(d: int) -> np.ndarray:
    return bessel_zeros(d / 2.0 - 1.0, 2048)


def _incomplete_exponent(d: int, alpha: float, v: float) -> float:
    """integral of u^(-1-alpha) (1 - sphere_cf(d, u)) du over [0, v]."""
    if v <= 0.0:
        return 0.0

    def f(u):
        return u ** (-1.0 - alpha) * one_minus_sphere_cf(d, u)

    split = min(v, 2.0)
    val, _ = integrate.quad(f, 0.0, split, limit=200, epsabs=0.0, epsrel=1e-11)
    if v > split:
        val += _bulk_quad(f, split, v, d, epsrel=1e-11)
    return val


def symbol_radial(spec: DriverSpec, s) -> np.ndarray:
    """Levy symbol evaluated at radius s = |xi| (symbols here are radial)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s < 0.0):
        raise ValueError("radius must be nonnegative")
    if isinstance(spec, StableSpec):
        return compute_sigma(spec.d, spec.alpha) * spec.c * s**spec.alpha
    if isinstance(spec, TruncatedStableSpec):
        surf = sphere_surface(spec.d)
        out = np.empty_like(s)
        for i, si in enumerate(s):
            if si == 0.0:
                out[i] = 0.0
            else:
                out[i] = (
                    spec.c
                    * surf
                    * si**spec.alpha
                    * _incomplete_exponent(spec.d, spec.alpha, spec.r * si)
                )
        return out
    if isinstance(spec, DominatingLevySpec):
        return _dominating_symbol_radial(spec, s)
    raise TypeError(f"unknown driver spec {type(spec).__name__}")


def _dominating_symbol_radial(spec: DominatingLevySpec, s: np.ndarray) -> np.ndarray:
    d = spec.d
    surf = sphere_surface(d)
    out = np.empty_like(s)
    for i, si in enumerate(s):
        if si == 0.0:
            out[i] = 0.0
            continue

        def f(rho, si=si):
            return one_minus_sphere_cf(d, rho * si) * spec.radial_density(rho) * rho ** (d - 1)

        # beyond rho_max the kernel factor is bounded by 2, so the tail is
        # controlled by the measure's own tail mass
        rho_max = max(50.0 / si, 50.0)
        zeros = _truncated_radial_tail_zeros(d) / si
        pts = list(zeros[(zeros > 0.0) & (zeros < rho_max)])[:900]
        val, _ = integrate.quad(f, 0.0, rho_max, points=pts or None, limit=1000,
                                epsabs=0.0, epsrel=1e-9)
        # for rho > rho_max the kernel is ~1 (its oscillation has died out at
        # radius rho_max * si >= 50), so the remainder is the plain tail mass
        tail_mass, _ = integrate.quad(
            lambda rho: spec.radial_density(rho) * rho ** (d - 1), rho_max, np.inf, limit=200
        )
        if not math.isfinite(tail_mass) or surf * tail_mass > 0.05 * abs(surf * val):
            raise QuadratureError(
                f"dominating measure decays too slowly beyond rho={rho_max:.3g} "
                "for reliable symbol quadrature"
            )
        out[i] = surf * (val + tail_mass)
    return out


def symbol(spec: DriverSpec, xi) -> np.ndarray:
    """Levy symbol psi(xi) with E exp(i<xi, X_t>) = exp(-t psi(xi)).

    ``xi`` is a vector of length d or an array of shape (..., d); the result
    drops the last axis.  All drivers here are isotropic, so this is a thin
    wrapper over :func:`symbol_radial`.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != spec.d:
        raise ValueError(f"xi has last axis {xi.shape[-1]}, expected d={spec.d}")
    radius = np.linalg.norm(np.atleast_2d(xi), axis=-1)
    vals = symbol_radial(spec, radius.ravel()).reshape(radius.shape)
    return vals.reshape(xi.shape[:-1])


@lru_cache(maxsize=None)
def compute_c0(op_norm: float, d: int) -> float:
    """Small-ball cosine constant: integral of (1 - cos z_1)|z|^(-d) dz over |z| <= e^(-op_norm).

    This is the largest coefficient kappa such that an isotropic measure
    dominating |z|^(-d-alpha) 1{|z| <= e^(-op_norm)} dz contributes at least
    kappa |xi|^alpha to the symbol for |xi| >= 1.  Used to peel a rotationally
    invariant stable factor off an Ornstein-Uhlenbeck transition operator.
    """
    if op_norm < 0.0:
        raise ValueError("operator norm must be nonnegative")
    upper = math.exp(-op_norm)

    def f(rho):
        return one_minus_sphere_cf(d, rho) / rho

    val, _ = integrate.quad(f, 0.0, upper, limit=200, epsabs=0.0, epsrel=1e-12)
    return sphere_surface(d) * val


# ---------------------------------------------------------------------------
# measure splitting


@dataclass(frozen=True)
class ResidualLevyMeasure:
    """What remains of a dominating measure after removing its stable floor."""

    d: int
    floor: StableSpec
    radial_density: Callable[[np.ndarray], np.ndarray]
    grid: np.ndarray
    worst_relative_residual: float


def split_levy_measure(
    spec: DominatingLevySpec,
    grid: np.ndarray | None = None,
    rel_tol: float = 1e-9,
) -> ResidualLevyMeasure:
    """Split m(|z|) dz into the stable floor plus a nonnegative residual.

    Domination is verified pointwise on ``grid`` (default: 400 log-spaced
    radii in [1e-6, 1e3]).  The floor spans many orders of magnitude there,
    so the check is relative: residual >= -rel_tol * floor.  Negative values
    inside that tolerance are rounding noise from the caller's own arithmetic
    and the returned residual density clamps them to zero.
    """
    if grid is None:
        grid = np.geomspace(1e-6, 1e3, 400)
    grid = np.asarray(grid, dtype=float)
    floor = spec.stable_floor

    def floor_density(rho: np.ndarray) -> np.ndarray:
        return floor.c * rho ** (-(floor.d + floor.alpha))

    m = np.asarray(spec.radial_density(grid), dtype=float)
    f = floor_density(grid)
    rel = (m - f) / f
    worst = float(rel.min())
    if worst < -rel_tol:
        idx = int(np.argmin(rel))
        raise DominationError(
            f"density fails to dominate the stable floor at rho={grid[idx]:.6g}: "
            f"m={m[idx]:.6g} < floor={f[idx]:.6g} (relative deficit {rel[idx]:.3e})"
        )

    def residual(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        diff = np.asarray(spec.radial_density(rho), dtype=float) - floor_density(rho)
        return np.maximum(diff, 0.0)

    return ResidualLevyMeasure(
        d=spec.d,
        floor=floor,
        radial_density=residual,
        grid=grid,
        worst_relative_residual=worst,
    )


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck characteristic functions


def time_integrated_symbol(spec: OUSpec, xi, t: float) -> float:
    """integral of psi(e^(s A^T) xi) ds over [0, t].

    The time-t marginal of the OU process started at x has characteristic
    function exp(i <xi, e^(tA) x>) * exp(-time_integrated_symbol(xi, t)).
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    xi = np.asarray(xi, dtype=float).reshape(spec.d)
    if t == 0.0:
        return 0.0
    At = np.ascontiguousarray(spec.A.T)

    def f(s):
        return float(symbol(spec.driver, expm(s * At) @ xi))

    val, _ = integrate.quad(f, 0.0, t, limit=200, epsabs=0.0, epsrel=1e-11)
    return val


def compute_mu_hat(spec: OUSpec, xi, t: float) -> float:
    """Characteristic function of the time-t OU noise integral (started at 0).

    Real-valued in (0, 1] because every driver here is symmetric.
    """
    return math.exp(-time_integrated_symbol(spec, xi, t))
