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
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union

import numpy as np

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
    "compute_sigma",
    "symbol",
    "symbol_radial",
    "compute_c0",
    "time_integrated_symbol",
    "matrix_exp",
    "bounded_minimum",
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
        StableSpec.__post_init__(self)
        if not self.r > 0.0:
            raise ValueError(f"truncation radius must be positive, got {self.r}")


DriverSpec = Union[StableSpec, TruncatedStableSpec]


def describe_spec(spec) -> dict:
    """JSON-friendly description of any spec object, for report headers."""
    if isinstance(spec, (StableSpec, TruncatedStableSpec)):
        kind = "stable" if isinstance(spec, StableSpec) else "truncated_stable"
        return {"driver": kind, **{f.name: getattr(spec, f.name) for f in fields(spec)}}
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
            raise ValueError(f"drift matrix is {A.shape[0]}x{A.shape[0]} but driver has d={self.driver.d}")
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
    import scipy.special

    shape = u.shape
    u = np.atleast_1d(u)
    nu = d / 2.0 - 1.0
    out = np.ones_like(u)
    big = np.abs(u) > 1e-6
    ub = u[big]
    if d == 2:
        out[big] = scipy.special.j0(ub)  # agrees with jv(0, .) to ~2e-15, about 5x faster
    else:
        out[big] = math.gamma(d / 2.0) * (2.0 / ub) ** nu * scipy.special.jv(nu, ub)
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
        # the power series up to SERIES_HEAD, then 16-node Gauss panels every pi.  The
        # integrand is entire and nonnegative, so the panel edges need sit at no zeros.
        d, a, v = spec.d, spec.alpha, spec.r * s
        head = np.minimum(v, SERIES_HEAD)
        total = head ** (2.0 - a) * np.polynomial.polynomial.polyval(head**2, _truncated_series(d, a)[1:])
        far = v > SERIES_HEAD
        if np.any(far):
            if not v.max() <= SYMBOL_REACH:
                raise QuadratureError(f"truncated symbol at r |xi| = {v.max():g} is past {SYMBOL_REACH:g}")
            edges = np.arange(SERIES_HEAD, v.max(), math.pi)
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
# past SYMBOL_REACH (about 2^16 pi-wide panels) the symbol is refused.
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
    return symbol_radial(spec, np.linalg.norm(xi, axis=-1).ravel()).reshape(xi.shape[:-1])


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

# Gauss-Legendre nodes per panel of the Psi_t rule, the most nodes in s it
# takes for one xi, and about the most (xi, node) pairs it holds at once.
PSI_NODES, PSI_NODE_CAP, PSI_BLOCK = 24, 1 << 16, 1 << 20


def time_integrated_symbol(spec: OUSpec, xi, t: float):
    """Psi_t(xi) = integral of psi(e^(s A^T) xi) ds over [0, t], by a fixed rule.

    The OU marginal from x has characteristic function exp(i <xi, e^(tA) x>
    - Psi_t(xi)).  ``xi`` of shape (..., d) gives one value per vector, each
    with the bits of its own call.  [0, t] is cut into equal panels of ||A||
    width at most 1/2, PSI_NODES Gauss-Legendre nodes each; a truncated
    driver's psi wiggles with period about pi in r |xi|, so each panel is
    also cut, per xi, into ceil(V / pi) equal parts, V the variation of
    r |e^(s A^T) xi| read at the panel's ends and nodes.  :func:`symbol`
    takes the vectors in blocks of about PSI_BLOCK.  Raises ValueError for a
    negative or non-finite t, OverflowError where e^(sA) leaves the double
    range, QuadratureError past PSI_NODE_CAP nodes.
    """
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (spec.d,):
        raise ValueError(f"xi must have last axis d={spec.d}, got shape {xi.shape}")
    flat = xi.reshape(-1, spec.d)

    def images(flows, rows):  # e^(s A^T) xi, shape (len(rows), len(flows), d), summed in a fixed order
        return sum(flows[:, :, j] * flat[rows, j][:, None, None] for j in range(spec.d))

    def blocks(rows, flows):
        return np.array_split(rows, 1 + len(rows) * len(flows) // PSI_BLOCK)

    def refuse_past_cap(nodes):
        if nodes > PSI_NODE_CAP:
            raise QuadratureError(f"Psi_t needs {nodes:.3g} nodes in s, past the cap of {PSI_NODE_CAP}")

    refuse_past_cap(2.0 * spec.op_norm * t * PSI_NODES)
    edges = np.linspace(0.0, t, 1 + max(1, math.ceil(2.0 * spec.op_norm * t)))
    x, w = np.polynomial.legendre.leggauss(PSI_NODES)
    cuts = np.ones((len(flat), len(edges) - 1), dtype=int)
    if isinstance(spec.driver, TruncatedStableSpec):
        ends = matrix_exp(spec.A.T, (edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (1.0 + np.r_[-1.0, x, 1.0])).ravel())
        for rows in blocks(np.arange(len(flat)), ends):
            reach = spec.driver.r * np.linalg.norm(images(ends, rows), axis=-1).reshape(len(rows), len(edges) - 1, -1)
            cuts[rows] = np.maximum(1, np.ceil(np.abs(np.diff(reach, axis=-1)).sum(axis=-1) / math.pi))
    refuse_past_cap(PSI_NODES * cuts.sum(axis=1).max(initial=0))
    out = np.zeros(len(flat))
    patterns, which = np.unique(cuts, axis=0, return_inverse=True)
    for k, cut in enumerate(patterns):
        lo = np.concatenate([np.linspace(a, b, c, endpoint=False) for a, b, c in zip(edges, edges[1:], cut)])
        half = 0.5 * np.diff(np.append(lo, t))
        flows = matrix_exp(spec.A.T, (lo[:, None] + half[:, None] * (1.0 + x)).ravel())
        for rows in blocks(np.flatnonzero(which.ravel() == k), flows):
            out[rows] = (symbol(spec.driver, images(flows, rows)) * (half[:, None] * w).ravel()).sum(axis=-1)
    return out.reshape(xi.shape[:-1])[()]


# ---------------------------------------------------------------------------
# the matrix exponential

# Taylor terms of e^X at ||X||_1 < 1: the first one left out is below 1/19!,
# under half an ulp of e^X >= e^(-1) I.
EXPM_TERMS = 18


def taylor_expm(A: np.ndarray, h, cols: np.ndarray, terms: int) -> np.ndarray:
    """e^(hA) cols by Horner's form cols + hA (cols + hA/2 (cols + ...)) of its
    degree-``terms`` Taylor polynomial, h broadcasting against cols (a time per
    column or per stacked matrix), cols unwritten.  What is left out is below
    (h ||A||)^(terms+1) / (terms+1)! e^(h ||A||)."""
    acc = cols
    for j in range(terms, 0, -1):
        acc = (A / j) @ acc
        acc *= h
        acc += cols
    return acc


def matrix_exp(A: np.ndarray, t=1.0) -> np.ndarray:
    """e^(tA), stacked over the shape of t.

    A diagonal A gives diag(e^(t A_ii)), the rule and bits of scipy's expm on
    diagonal input.  Otherwise :func:`taylor_expm` to EXPM_TERMS terms at
    h = t / 2^k, the first with ||hA||_1 < 1, is squared k times.  Raises
    ValueError for a non-finite t or matrix entry, and OverflowError when the
    result leaves the double range, the only failure mode for finite square
    input.
    """
    A, t = np.asarray(A, dtype=float), np.asarray(t, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"time must be finite, got {t}")
    d, times = len(A), t.reshape(-1, 1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
            out = np.exp(times * np.diagonal(A)) * np.eye(d)  # an inf makes NaNs off the diagonal
        else:
            k = np.maximum(np.frexp(np.abs(times) * np.abs(A).sum(axis=0).max())[1], 0)
            out = taylor_expm(A, np.ldexp(times, -k), np.broadcast_to(np.eye(d), (len(times), d, d)), EXPM_TERMS)
            for j in range(k.max(initial=0)):
                square = k[:, 0, 0] > j
                out[square] = out[square] @ out[square]
    if not np.all(np.isfinite(out)):
        norm = float(np.abs(t).max(initial=0.0)) * float(np.linalg.norm(A, 2))
        raise OverflowError(f"matrix exponential overflowed for ||tA|| = {norm:.3g}")
    return out.reshape(t.shape + (d, d))


# ---------------------------------------------------------------------------
# bounded scalar minimization


def bounded_minimum(func, lo: float, hi: float, xatol: float) -> float:
    """The least value of ``func`` that Brent's golden-section and parabolic
    search (Brent 1973) finds on [lo, hi], stopped once x is known to xatol
    or after 500 evaluations.

    A step-for-step port of scipy.optimize.minimize_scalar(method="bounded"),
    so it returns that method's ``fun`` bit for bit without loading
    scipy.optimize.
    """
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = func(xf)
    rat = e = 0.0
    num = 1
    xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(xf) + xatol / 3.0
    while abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a) and num < 500:
        golden = True
        if abs(e) > tol1:  # try the parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden, rat = False, p / q
                x = xf + rat
                if x - a < 2.0 * tol1 or b - x < 2.0 * tol1:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(xf) + xatol / 3.0
    return fx
