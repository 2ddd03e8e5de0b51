"""Levy measures and characteristic exponents of the isotropic stable family.

The noises handled here are rotationally invariant alpha-stable measures
c |z|^(-d-alpha) dz and their truncations to a centred ball.  Everything
downstream (stable densities, exact samplers, semigroup estimation) consumes
the types and symbol routines defined in this module.

Sign convention: for a symmetric driver the characteristic function of the
time-t marginal is exp(-t * symbol(xi)), so the symbol is real and
nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import integrate, special
from scipy.linalg import expm

__all__ = [
    "StableSpec",
    "TruncatedStableSpec",
    "OUSpec",
    "QuadratureError",
    "describe_spec",
    "sphere_surface",
    "one_minus_cos",
    "sphere_cf",
    "one_minus_sphere_cf",
    "bessel_zeros",
    "compute_sigma",
    "symbol",
    "symbol_radial",
    "compute_c0",
    "time_integrated_symbol",
]


class QuadratureError(RuntimeError):
    """An adaptive integration step failed to reach its tolerance."""


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


DriverSpec = Union[StableSpec, TruncatedStableSpec]


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
    integral below.
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
# kernel zeros
#
# Radial integrands here carry a J_{d/2-1} factor; between consecutive zeros of
# it they are smooth, so a fixed Gauss rule per half-oscillation integrates them.

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


# ---------------------------------------------------------------------------
# symbols


@lru_cache(maxsize=None)
def compute_sigma(d: int, alpha: float) -> float:
    """Normalization sigma(d, alpha) = integral of (1 - cos z_1) |z|^(-d-alpha) dz.

    Closed form 2^(1-alpha) pi^(d/2) Gamma(1 - alpha/2) / (alpha Gamma((d+alpha)/2));
    the test suite checks it against the defining integral in mpmath.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (0, 2), got {alpha}")
    return (
        2.0 ** (1.0 - alpha)
        * math.pi ** (d / 2.0)
        * math.gamma(1.0 - alpha / 2.0)
        / (alpha * math.gamma((d + alpha) / 2.0))
    )


def symbol_radial(spec: DriverSpec, s) -> np.ndarray:
    """Levy symbol evaluated at radius s = |xi| (symbols here are radial)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s < 0.0):
        raise ValueError("radius must be nonnegative")
    if isinstance(spec, StableSpec):
        return compute_sigma(spec.d, spec.alpha) * spec.c * s**spec.alpha
    if isinstance(spec, TruncatedStableSpec):
        # psi(s) = c |S| s^alpha I(r s), I(v) = int_0^v u^(-1-alpha) (1 - sphere_cf(d, u)) du:
        # the power series up to SERIES_HEAD, then 16-node Gauss panels between kernel zeros
        d, a, v = spec.d, spec.alpha, spec.r * s
        head = np.minimum(v, SERIES_HEAD)
        total = head ** (2.0 - a) * np.polynomial.polynomial.polyval(head**2, _truncated_series(d, a)[1:])
        far = v > SERIES_HEAD
        if np.any(far):
            if not v.max() <= SYMBOL_REACH:
                raise QuadratureError(f"truncated symbol at r |xi| = {v.max():g} is past {SYMBOL_REACH:g}")
            zeros = bessel_zeros(d / 2.0 - 1.0, int(v.max() / math.pi) + 2)
            edges = np.concatenate([[SERIES_HEAD], zeros[(zeros > SERIES_HEAD) & (zeros < v.max())]])
            x, w = np.polynomial.legendre.leggauss(16)

            def panels(lo, hi):
                half = 0.5 * (hi - lo)[:, None]
                u = lo[:, None] + half * (1.0 + x)
                return (u ** (-1.0 - a) * one_minus_sphere_cf(d, u) * half) @ w

            cum = np.concatenate([[0.0], np.cumsum(panels(edges[:-1], edges[1:]))])
            j = np.searchsorted(edges, v[far], side="right") - 1
            total[far] += cum[j] + panels(edges[j], v[far])
        return spec.c * sphere_surface(d) * s**a * total
    raise TypeError(f"unknown driver spec {type(spec).__name__}")


# Terms, in v^2, of the truncated symbol's power series, and the v = r |xi| up
# to which symbol_radial sums it (its cancellation costs about 1e-13 there);
# past SYMBOL_REACH (2^16 kernel half-oscillations) the symbol is refused.
SERIES_TERMS, SERIES_HEAD, SYMBOL_REACH = 60, 8.0, 2.0e5


def _truncated_series(d: int, alpha: float) -> np.ndarray:
    """Coefficients, in x = v^2, of F(v) = sum over k >= 1 of (-1)^(k+1)
    v^(2k) / (4^k k! (d/2)_k (2k - alpha)).

    The truncated symbol is psi(xi) = c |S| r^(-alpha) F(r |xi|): the series
    of 1 - E cos(v theta_1) integrated against rho^(-1-alpha) on [0, r].  At
    d = 1, 4^k k! (1/2)_k = (2k)!, and the cumulant kappa(theta) = log E
    e^(theta X_1) = -c |S| r^(-alpha) F(-i r theta) is the same series.
    """
    k = np.arange(1, SERIES_TERMS + 1)
    signed = -np.cumprod(-1.0 / (4.0 * k * (d / 2.0 + k - 1.0)))
    return np.concatenate([[0.0], signed / (2.0 * k - alpha)])


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
    # the truncated symbol's series at alpha = 0, with r |xi| = e^(-op_norm) <= 1
    series = np.polynomial.polynomial.polyval(math.exp(-2.0 * op_norm), _truncated_series(d, 0.0))
    return sphere_surface(d) * float(series)


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
