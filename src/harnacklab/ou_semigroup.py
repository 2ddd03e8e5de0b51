"""Ornstein-Uhlenbeck dynamics and Monte Carlo semigroup estimation.

The process solves dX_t = A X_t dt + dZ_t, so the endpoint decomposes as
X_t = e^{tA} x0 + (stochastic convolution of the driver).  The convolution is
simulated on a uniform grid with exact driver increments and left-point
matrix weights; only the weighting is discretized.  A = 0 collapses to the
pure Levy process with a single exact increment.

The estimator class keeps one noise array per time and reuses it for every
starting point (common random numbers).  That makes the Harnack-type
comparisons below exact at x = y and strongly variance-reduced elsewhere,
which is what lets fitted constants behave like constants instead of noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .levy_core import (
    OUSpec,
    StableSpec,
    TruncatedStableSpec,
    compute_c0,
    time_integrated_symbol,
)
from .sampling import SeedSpec, sample_increment

__all__ = [
    "OUPathConfig",
    "TestFunction",
    "SemigroupEstimate",
    "SemigroupSampler",
    "FactorizationReport",
    "matrix_exp",
    "default_n_steps",
    "sample_ou",
    "ou_noise",
    "estimate_Ptf",
    "factorization_check",
    "ball_indicator",
    "gaussian_bump",
    "constant",
    "exp_cap",
]


def matrix_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{tA} by scaling-and-squaring Pade (scipy.linalg.expm).

    Raises OverflowError when the result leaves the double range, which is
    the only failure mode for finite square input.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    out = expm(t * A)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed for ||tA|| = {np.linalg.norm(t * A, 2):.3g}")
    return out


@dataclass(frozen=True)
class OUPathConfig:
    """Discretization of the stochastic convolution: n_steps increments to horizon t."""

    n_steps: int
    t: float

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.t <= 0.0:
            raise ValueError("horizon must be positive")


def default_n_steps(op_norm: float, t: float) -> int:
    """ceil(50 ||A|| t), at least 1: keeps the weight discretization bias ~1%."""
    return max(1, math.ceil(50.0 * op_norm * t))


def sample_ou(
    spec: OUSpec,
    x0,
    cfg: OUPathConfig,
    n: int,
    seed: SeedSpec,
    epsilon: float | None = None,
) -> np.ndarray:
    """(n, d) endpoints X_t = e^{tA} x0 + sum_k e^{(t - t_k)A} dZ_k.

    Increments are exact in law for each step (the drivers have no Gaussian
    part beyond the controlled small-jump proxy); the left-point weights
    carry the O(||A|| t / n_steps) discretization error.  Step k draws from
    the child stream seed.rng(k), so the output is fully determined by
    (seed, cfg, n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = spec.d
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).reshape(d)
    t, steps = cfg.t, cfg.n_steps
    dt = t / steps
    identity_weights = spec.op_norm == 0.0
    acc = np.zeros((n, d))
    for k in range(steps):
        dz = sample_increment(spec.driver, dt, n, seed.rng(k), epsilon=epsilon)
        if identity_weights:
            acc += dz
        else:
            w = matrix_exp(spec.A, t - k * dt)
            acc += dz @ w.T
    if identity_weights:
        return acc + x0
    return acc + matrix_exp(spec.A, t) @ x0


def ou_noise(
    spec: OUSpec,
    t: float,
    n: int,
    seed: SeedSpec,
    n_steps: int | None = None,
    epsilon: float | None = None,
) -> np.ndarray:
    """Endpoint noise (the x0 = 0 endpoint): reusable for any starting point."""
    steps = n_steps if n_steps is not None else default_n_steps(spec.op_norm, t)
    return sample_ou(spec, None, OUPathConfig(n_steps=steps, t=t), n, seed, epsilon=epsilon)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Bounded nonnegative test function, one of four parametric families.

    kind 'ball_indicator': offset + 1{|x - center| <= scale}
    kind 'gaussian_bump' : offset + exp(-|x - center|^2 / (2 scale^2))
    kind 'constant'      : value
    kind 'exp_cap'       : min(value, exp(log(value) * gaussian bump)), value >= 1

    exp_cap interpolates between 1 (far field) and the cap level, so it is
    both bounded and >= 1: the shape log-Harnack testing needs.
    """

    kind: str
    center: tuple[float, ...] = (0.0,)
    scale: float = 1.0
    value: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("ball_indicator", "gaussian_bump", "constant", "exp_cap"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if self.kind != "constant" and self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.offset < 0.0 or self.value < 0.0:
            raise ValueError("test functions must be nonnegative")
        if self.kind == "exp_cap" and self.value < 1.0:
            raise ValueError("exp_cap level must be >= 1")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.full(pts.shape[0], self.value)
        center = np.asarray(self.center, dtype=float)
        dist2 = np.sum((pts - center[None, :]) ** 2, axis=1)
        if self.kind == "ball_indicator":
            return self.offset + (dist2 <= self.scale**2).astype(float)
        bump = np.exp(-dist2 / (2.0 * self.scale**2))
        if self.kind == "gaussian_bump":
            return self.offset + bump
        return np.minimum(self.value, np.exp(math.log(self.value) * bump))

    @property
    def bound(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "exp_cap":
            return self.value
        return self.offset + 1.0

    @property
    def min_value(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "exp_cap":
            return 1.0
        return self.offset

    @property
    def geq_one(self) -> bool:
        return self.min_value >= 1.0 - 1e-12

    @property
    def tag(self) -> str:
        if self.kind == "constant":
            return f"constant({self.value:g})"
        c = ",".join(f"{v:g}" for v in self.center)
        base = f"{self.kind}(center=[{c}],scale={self.scale:g}"
        base += f",level={self.value:g})" if self.kind == "exp_cap" else ")"
        if self.offset:
            base += f"+{self.offset:g}"
        return base

    def shifted(self, delta) -> "TestFunction":
        """x -> f(x + delta): the center moves by -delta."""
        if self.kind == "constant":
            return self
        delta = np.asarray(delta, dtype=float).reshape(len(self.center))
        new_center = tuple(np.asarray(self.center) - delta)
        return TestFunction(self.kind, new_center, self.scale, self.value, self.offset)


def _center_tuple(center, d: int | None) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(center, dtype=float))
    if d is not None and arr.size == 1 and d > 1:
        arr = np.full(d, float(arr[0]))
    return tuple(float(v) for v in arr)


def ball_indicator(center, radius: float, offset: float = 0.0, d: int | None = None) -> TestFunction:
    return TestFunction("ball_indicator", _center_tuple(center, d), radius, 1.0, offset)


def gaussian_bump(center, width: float, offset: float = 0.0, d: int | None = None) -> TestFunction:
    return TestFunction("gaussian_bump", _center_tuple(center, d), width, 1.0, offset)


def constant(value: float) -> TestFunction:
    return TestFunction("constant", (0.0,), 1.0, value, 0.0)


def exp_cap(level: float, center=0.0, width: float = 1.0, d: int | None = None) -> TestFunction:
    return TestFunction("exp_cap", _center_tuple(center, d), width, level, 0.0)


# ---------------------------------------------------------------------------
# semigroup estimation


@dataclass(frozen=True)
class SemigroupEstimate:
    """Monte Carlo value of P_t f(x) with its standard error."""

    mean: float
    std_err: float
    n: int
    t: float
    x: tuple[float, ...]
    f_tag: str

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "x": list(self.x),
            "f_tag": self.f_tag,
            "mean": self.mean,
            "std_err": self.std_err,
            "n": self.n,
        }


class SemigroupSampler:
    """P_t f(x) estimator sharing one noise array per time across all x.

    P_t f(x) = E f(e^{tA} x + W_t) with W_t the stochastic convolution from
    zero, so W_t is independent of x and can be drawn once.  Every estimate
    at the same t then uses literally the same W_t (common random numbers):
    comparisons between starting points are exact at x = y and tightly
    correlated elsewhere.  The per-t noise stream is derived from the bit
    pattern of t, so results do not depend on evaluation order.
    """

    def __init__(
        self,
        spec: OUSpec,
        n: int,
        seed: SeedSpec,
        n_steps: int | None = None,
        epsilon: float | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        self.spec = spec
        self.n = n
        self.seed = seed
        self.n_steps = n_steps
        self.epsilon = epsilon
        self._noise: dict[float, np.ndarray] = {}

    def noise(self, t: float) -> np.ndarray:
        key = float(t)
        cached = self._noise.get(key)
        if cached is None:
            bits = int(np.float64(key).view(np.uint64))
            stream = self.seed.substream(bits >> 32, bits & 0xFFFFFFFF)
            cached = ou_noise(
                self.spec, key, self.n, stream, n_steps=self.n_steps, epsilon=self.epsilon
            )
            cached.setflags(write=False)
            self._noise[key] = cached
        return cached

    def endpoints(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(self.spec.d)
        shift = x if self.spec.op_norm == 0.0 else matrix_exp(self.spec.A, t) @ x
        return shift[None, :] + self.noise(t)

    def values(self, f: Callable[[np.ndarray], np.ndarray], x, t: float) -> np.ndarray:
        return np.asarray(f(self.endpoints(x, t)), dtype=float)

    def estimate(self, f: TestFunction, x, t: float) -> SemigroupEstimate:
        vals = self.values(f, x, t)
        se = vals.std(ddof=1) / math.sqrt(self.n) if self.n > 1 else 0.0
        return SemigroupEstimate(
            mean=float(vals.mean()),
            std_err=float(se),
            n=self.n,
            t=float(t),
            x=tuple(np.asarray(x, dtype=float).reshape(self.spec.d)),
            f_tag=getattr(f, "tag", repr(f)),
        )


def estimate_Ptf(
    spec: OUSpec,
    f: TestFunction,
    x,
    t: float,
    n: int,
    seed: SeedSpec,
    n_steps: int | None = None,
    epsilon: float | None = None,
) -> SemigroupEstimate:
    """One-shot Monte Carlo estimate of P_t f(x)."""
    if n < 10**3:
        raise ValueError("semigroup estimation needs n >= 1e3")
    return SemigroupSampler(spec, n, seed, n_steps=n_steps, epsilon=epsilon).estimate(f, x, t)


# ---------------------------------------------------------------------------
# characteristic-function factorization


@dataclass(frozen=True)
class FactorizationReport:
    """Residual-factor check for peeling a stable component off the OU noise.

    pi_hat(xi) = mu_hat(xi) * exp(+t kappa |xi|^alpha) with kappa = c0 * c
    must stay within modulus 1 for the peeled remainder to be a candidate
    probability measure.  This necessary condition is what is checkable; full
    positive-definiteness of the remainder is not, and is not claimed.
    """

    t: float
    probes: np.ndarray
    mu_hat: np.ndarray
    stable_factor: np.ndarray
    pi_hat: np.ndarray
    max_excess: float
    passed: bool
    c0: float
    op_norm: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "probes": self.probes.tolist(),
            "mu_hat": self.mu_hat.tolist(),
            "stable_factor": self.stable_factor.tolist(),
            "pi_hat": self.pi_hat.tolist(),
            "max_excess": self.max_excess,
            "passed": self.passed,
            "c0": self.c0,
            "op_norm": self.op_norm,
        }


def _default_probes(d: int, count: int = 10) -> np.ndarray:
    radii = np.geomspace(1.0, 8.0, count)
    probes = np.zeros((count, d))
    if d == 1:
        probes[:, 0] = radii * np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    else:
        angles = 2.0 * math.pi * np.arange(count) / count
        probes[:, 0] = radii * np.cos(angles)
        probes[:, 1] = radii * np.sin(angles)
    return probes


def factorization_check(
    spec: OUSpec,
    t: float,
    probe_xis: np.ndarray | None = None,
    tol: float = 1e-8,
) -> FactorizationReport:
    """Check |pi_hat_t(xi)| <= 1 + tol at each probe frequency.

    The subtracted component is the rotationally invariant stable symbol with
    coefficient c0(||A||) * c, where c0 integrates (1 - cos z_1)|z|^(-d) over
    the ball of radius e^{-||A||}.  The argument behind the subtraction needs
    |xi| >= 1, so the default probes live on radii in [1, 8].
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("factorization check is defined for t in (0, 1]")
    driver = spec.driver
    if isinstance(driver, (StableSpec, TruncatedStableSpec)):
        c_floor, alpha = driver.c, driver.alpha
    else:
        c_floor, alpha = driver.stable_floor.c, driver.stable_floor.alpha
    d = spec.d
    probes = _default_probes(d) if probe_xis is None else np.atleast_2d(np.asarray(probe_xis, float))
    c0 = compute_c0(spec.op_norm, d)
    mu, sf, pi = [], [], []
    for xi in probes:
        integral = time_integrated_symbol(spec, xi, t)
        stable_exp = t * c0 * c_floor * float(np.linalg.norm(xi)) ** alpha
        mu.append(math.exp(-integral))
        sf.append(math.exp(-stable_exp))
        pi.append(math.exp(stable_exp - integral))
    pi = np.array(pi)
    max_excess = float(np.max(pi - 1.0))
    return FactorizationReport(
        t=t,
        probes=probes,
        mu_hat=np.array(mu),
        stable_factor=np.array(sf),
        pi_hat=pi,
        max_excess=max_excess,
        passed=bool(max_excess <= tol),
        c0=c0,
        op_norm=spec.op_norm,
    )
