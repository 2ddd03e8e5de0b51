"""Ornstein-Uhlenbeck dynamics and Monte Carlo semigroup estimation.

The process solves dX_t = A X_t dt + dZ_t, so the endpoint decomposes as
X_t = e^{tA} x0 + W_t with W_t the stochastic convolution, equal in law to
the integral of e^{sA} dZ_s over [0, t].  W_t is drawn exactly in time, with
no grid (see :func:`ou_noise`): A = 0 is one driver increment, a stable part
under a drift A + A^T = 2aI is one stable draw at an effective time, and
every other part is compound-Poisson jumps at uniform times with matrix
weights plus a small-jump Gaussian with the exact OU covariance.

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
    compute_c0,
    time_integrated_symbol,
)
from .sampling import (
    SeedSpec,
    _compound_poisson_gaussian,
    _jump_parts,
    sample_increment,
    sample_rot_stable,
)

__all__ = [
    "TestFunction",
    "SemigroupEstimate",
    "SemigroupSampler",
    "FactorizationReport",
    "matrix_exp",
    "sample_ou",
    "ou_noise",
    "estimate_Ptf",
    "factorization_check",
    "ball_indicator",
    "gaussian_bump",
    "constant",
    "exp_cap",
]

# Time buckets are at most 1/(BUCKETS_PER_UNIT ||A||) wide, so the Taylor series
# of e^{hA} inside one has h ||A|| <= 1/16; TAYLOR_TERMS terms of it leave a
# relative truncation error below (1/16)^9 / 9! ~ 4e-17.
BUCKETS_PER_UNIT = 16
TAYLOR_TERMS = 8
# Jumps weighted per pass: the pass's arrays stay in cache and its temporaries small.
WEIGH_SLICE = 1 << 14


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
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(t * A)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed for ||tA|| = {np.linalg.norm(t * A, 2):.3g}")
    return out


def _jump_weigher(spec: OUSpec, t: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """weigh(u, jumps): row i of jumps times e^{u_i t A}, for u in [0, 1).

    [0, t] is cut into equal buckets; the weight is :func:`matrix_exp` at the
    start of the jump's bucket times the Taylor series of e^{hA} for the time
    h past that start, evaluated on whole coordinate arrays.
    """
    A = spec.A
    buckets = max(1, math.ceil(BUCKETS_PER_UNIT * spec.op_norm * t))
    width = t / buckets
    starts = np.stack([matrix_exp(A, k * width) for k in range(buckets)])

    def weigh(u: np.ndarray, jumps: np.ndarray) -> np.ndarray:
        for lo in range(0, len(u), WEIGH_SLICE):
            part = slice(lo, lo + WEIGH_SLICE)
            pos = u[part] * buckets
            k = np.minimum(pos.astype(np.intp), buckets - 1)
            h = (pos - k) * width
            cols = jumps[part].T
            acc = cols  # Horner: J + (hA/1)(J + (hA/2)(J + ...))
            for j in range(TAYLOR_TERMS, 0, -1):
                acc = (A / j) @ acc
                acc *= h
                acc += cols
            cols[:] = np.einsum("mij,jm->im", starts[k], acc)
        return jumps

    return weigh


def _gramian_factor(A: np.ndarray, t: float) -> np.ndarray:
    """Cholesky factor of the Gramian G(t), the integral of e^{sA} e^{sA^T} over [0, t].

    G(h) comes from one 2d x 2d exponential at h = t / 2^k, the first with
    h ||A|| <= 1: that of [[-A, I], [0, A^T]] holds e^{hA^T} in its lower
    right block and the integral of e^{-(h-s)A} e^{sA^T} in its upper right
    one, and e^{hA} times the latter is G(h) (Van Loan 1978).  k doublings
    G(2h) = G(h) + e^{hA} G(h) e^{hA^T} then reach t, so e^{-sA}, which
    overflows for a strongly contracting A, is only ever formed at s <= h.
    """
    d = len(A)
    k = max(0, math.ceil(math.log2(t * np.linalg.norm(A, 2))))
    F = matrix_exp(np.block([[-A, np.eye(d)], [np.zeros((d, d)), A.T]]), t / 2**k)
    flow = F[d:, d:].T
    gram = flow @ F[:d, d:]
    for _ in range(k):
        gram = gram + flow @ gram @ flow.T
        flow = flow @ flow
    if not np.all(np.isfinite(gram)):
        raise OverflowError(f"OU noise covariance overflowed for ||tA|| = {t * np.linalg.norm(A, 2):.3g}")
    return np.linalg.cholesky(0.5 * (gram + gram.T))


def ou_noise(spec: OUSpec, t: float, n: int, seed: SeedSpec) -> np.ndarray:
    """(n, d) draws of the endpoint noise W_t (the x0 = 0 endpoint), exact in time.

    W_t equals the integral of e^{sA} dZ_s over [0, t] in law, and is built
    from the driver's parts, all drawn from seed.rng(0):

    - A = 0: the driver's increment ``sample_increment(driver, t, n, rng)``.
    - A stable driver when A + A^T = 2aI (every d = 1 drift; a I plus a skew
      part): by rotational invariance, one stable draw at the effective time
      (e^{alpha a t} - 1)/(alpha a).
    - Otherwise the measure is split into Pareto jumps and a Gaussian
      (Asmussen-Rosinski).  The jumps fall at uniform times s with weights
      e^{sA}; the small-jump Gaussian with variance v per unit time gets the
      covariance v times the integral of e^{sA} e^{sA^T}.

    The measure is cut at ``sampling._split_cutoff``, where, without drift,
    the Gaussian moves the cf by at most 1e-4: a few jumps per sample, and
    none for a truncated measure once the cutoff reaches r.  The noise only
    feeds P_t f, an integral of the cf for smooth bounded f, so the cf budget
    bounds what it reads; density estimates, which read tails, draw through
    ``sample_truncated_stable`` instead.
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    driver = spec.driver
    if spec.op_norm == 0.0:
        return sample_increment(driver, t, n, seed.rng(0))
    rng = seed.rng(0)
    sym = spec.A + spec.A.T  # 2aI when A is conformal
    conformal = isinstance(driver, StableSpec) and np.array_equal(sym, sym[0, 0] * np.eye(spec.d))
    noise = np.zeros((n, spec.d))
    if conformal:
        rate = 0.5 * driver.alpha * sym[0, 0]
        noise = sample_rot_stable(driver, t if rate == 0.0 else math.expm1(rate * t) / rate, n, rng)
    parts = _jump_parts(driver, t, split_stable=not conformal)
    if parts:
        weigh = _jump_weigher(spec, t)
        factor = _gramian_factor(spec.A, t)
        for intensity, icdf, sd in parts:
            noise = noise + _compound_poisson_gaussian(
                rng, n, spec.d, t * intensity, icdf, sd * factor, weigh=weigh
            )
    return noise


def _flow(spec: OUSpec, x, t: float) -> np.ndarray:
    """e^{tA} x; x itself when A = 0, without a matrix exponential."""
    x = np.asarray(x, dtype=float).reshape(spec.d)
    return x if spec.op_norm == 0.0 else matrix_exp(spec.A, t) @ x


def sample_ou(spec: OUSpec, x0, t: float, n: int, seed: SeedSpec) -> np.ndarray:
    """(n, d) endpoints X_t = e^{tA} x0 + W_t, with W_t from :func:`ou_noise`.

    Exact in law: there is no time grid.  The output is a pure function of
    (spec, x0, t, n, seed).
    """
    return _flow(spec, x0, t) + ou_noise(spec, t, n, seed)


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

    |x - center|^2 is summed one coordinate column at a time, left to right,
    which for d < 8 has the bits of numpy's row sum in either memory layout;
    a column of F-ordered points is contiguous.
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
        center = np.broadcast_to(np.asarray(self.center, dtype=float), pts.shape[1:])
        dist2 = (pts[:, 0] - center[0]) ** 2
        for j in range(1, pts.shape[1]):
            dist2 += (pts[:, j] - center[j]) ** 2
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
    pattern of t, so results do not depend on evaluation order.  e^{tA} is
    likewise computed once per t.

    The cached noise is a read-only copy of :func:`ou_noise`'s array in
    Fortran order, so each coordinate is one contiguous column of n values;
    :class:`TestFunction` reads it a column at a time, and its values do not
    depend on the layout.
    """

    def __init__(self, spec: OUSpec, n: int, seed: SeedSpec) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        self.spec = spec
        self.n = n
        self.seed = seed
        self._noise: dict[float, np.ndarray] = {}
        self._flow: dict[float, np.ndarray] = {}

    def noise(self, t: float) -> np.ndarray:
        key = float(t)
        cached = self._noise.get(key)
        if cached is None:
            bits = int(np.float64(key).view(np.uint64))
            stream = self.seed.substream(bits >> 32, bits & 0xFFFFFFFF)
            cached = np.asfortranarray(ou_noise(self.spec, key, self.n, stream))
            cached.setflags(write=False)
            self._noise[key] = cached
        return cached

    def endpoints(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(self.spec.d)
        if self.spec.op_norm != 0.0:
            key = float(t)
            flow = self._flow.get(key)
            if flow is None:
                flow = self._flow[key] = matrix_exp(self.spec.A, key)
            x = flow @ x
        return x[None, :] + self.noise(t)

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
) -> SemigroupEstimate:
    """One-shot Monte Carlo estimate of P_t f(x)."""
    if n < 10**3:
        raise ValueError("semigroup estimation needs n >= 1e3")
    return SemigroupSampler(spec, n, seed).estimate(f, x, t)


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
    c, alpha = spec.driver.c, spec.driver.alpha
    d = spec.d
    probes = _default_probes(d) if probe_xis is None else np.atleast_2d(np.asarray(probe_xis, float))
    c0 = compute_c0(spec.op_norm, d)
    mu, sf, pi = [], [], []
    for xi in probes:
        integral = time_integrated_symbol(spec, xi, t)
        stable_exp = t * c0 * c * float(np.linalg.norm(xi)) ** alpha
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
