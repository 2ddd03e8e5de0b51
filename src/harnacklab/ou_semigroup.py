"""Ornstein-Uhlenbeck dynamics and Monte Carlo semigroup estimation.

The process solves dX_t = A X_t dt + dZ_t, so the endpoint decomposes as
X_t = e^{tA} x0 + W_t with W_t the stochastic convolution, equal in law to
the integral of e^{sA} dZ_s over [0, t].  W_t is drawn exactly in time, with
no grid (see :func:`ou_noise`): A = 0 is one driver increment, a stable part
under a drift A + A^T = 2aI is one stable draw at an effective time, and
every other part is compound-Poisson jumps at uniform times with matrix
weights plus a small-jump Gaussian with the exact OU covariance.

:class:`SemigroupSampler` is the one estimator of P_t f(x): it holds the
current time's noise array and reuses it for every starting point (common
random numbers).  That makes the Harnack-type comparisons exact at x = y and
strongly variance-reduced elsewhere, which is what lets fitted constants
behave like constants instead of noise.  Each of its samples carries its
moments (:class:`_Moments`), the mean and standard error that both the CLI's
``estimate`` and the inequality verifiers read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    _jump_part,
    sample_increment,
    sample_rot_stable,
)

__all__ = [
    "TestFunction",
    "SemigroupSampler",
    "FactorizationReport",
    "matrix_exp",
    "sample_ou",
    "ou_noise",
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
    if conformal:
        rate = 0.5 * driver.alpha * sym[0, 0]
        return sample_rot_stable(driver, t if rate == 0.0 else math.expm1(rate * t) / rate, n, rng)
    intensity, icdf, sd = _jump_part(driver, t)
    factor = _gramian_factor(spec.A, t)
    return _compound_poisson_gaussian(
        rng, n, spec.d, t * intensity, icdf, sd * factor, weigh=_jump_weigher(spec, t)
    )


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

    f(x) is ``radial(dist2(x))``, and ``radial`` does not write to
    |x - center|^2, so one array serves every f with that center.  It is
    summed one coordinate column at a time, left to right, which for d < 8
    has the bits of numpy's row sum in either memory layout; a column of
    F-ordered points is contiguous.  The squares, the bump and the cap are
    computed in place in at most two n-length buffers, which changes no bit:
    squaring is one multiply, -|x-c|^2 / s is written |x-c|^2 / (-s), and a
    zero offset is not added (0.0 + v == v for every v >= +0.0).
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
        return self.radial(self.dist2(points))

    def dist2(self, points: np.ndarray) -> np.ndarray:
        """|x - center|^2 of each point; +inf where it leaves the double
        range, which every f maps to its far-field value."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        center = np.broadcast_to(np.asarray(self.center, dtype=float), pts.shape[1:])
        with np.errstate(over="ignore"):
            dist2 = pts[:, 0] - center[0]
            np.multiply(dist2, dist2, out=dist2)
            if pts.shape[1] > 1:
                sq = np.empty_like(dist2)
                for j in range(1, pts.shape[1]):
                    np.subtract(pts[:, j], center[j], out=sq)
                    np.multiply(sq, sq, out=sq)
                    dist2 += sq
        return dist2

    def radial(self, dist2: np.ndarray) -> np.ndarray:
        """f at the points whose :meth:`dist2` is given."""
        if self.kind == "constant":
            return np.full(dist2.shape[0], self.value)
        if self.kind == "ball_indicator":
            out = (dist2 <= self.scale**2).astype(float)
        else:
            out = np.divide(dist2, -(2.0 * self.scale**2))
            np.exp(out, out=out)
            if self.kind == "exp_cap":
                out *= math.log(self.value)
                np.exp(out, out=out)
                return np.minimum(out, self.value, out=out)
        if self.offset:
            out += self.offset
        return out

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


@lru_cache(maxsize=1024)
def _level_sum(bits: bytes, n: int) -> float:
    """``np.add.reduce`` of n copies of one value, keyed by its bits, not by
    equality, which would merge 0.0 and -0.0."""
    return float(np.add.reduce(np.full(n, np.frombuffer(bits)[0])))


def _sum(v: np.ndarray, n: int) -> float:
    """Pairwise sum of n values: those of v, or n copies of v's one value."""
    return float(np.add.reduce(v)) if v.size == n else _level_sum(v.tobytes(), n)


class _Moments:
    """A sample of n values and its moments, each computed on first use.

    ``v`` holds the n values, or, for a sample whose n values are one value
    bit for bit, that value alone: its moments then come from scalars, and
    numpy broadcasting pairs it with an n-value sample.  Either way the bits
    are those of the full array.  Sums of products are numpy's pairwise
    sums, not BLAS dot products, which OpenBLAS splits across threads on
    long arrays: the moments, and the reports built on them, do not depend
    on the BLAS thread count.  The mean is ``np.add.reduce(v) / n``, the bits
    of ``ndarray.mean`` without its Python wrapper.
    """

    def __init__(self, v: np.ndarray, n: int | None = None) -> None:
        self.v = v
        self.n = v.size if n is None else n

    @cached_property
    def mean(self) -> float:
        return _sum(self.v, self.n) / self.n

    @cached_property
    def centered(self) -> np.ndarray:
        return self.v - self.mean

    @cached_property
    def var(self) -> float:
        return _sum(self.centered * self.centered, self.n) / (self.n - 1)

    @cached_property
    def exact_mean(self) -> float:
        """Mean that is exact for constant arrays.

        np.mean of n identical values can be off by an ulp (the sum rounds),
        which matters only where an inequality holds with equality; returning
        the common value keeps those degenerate nodes exactly on the boundary.
        """
        lo, hi = float(self.v.min()), float(self.v.max())
        return lo if lo == hi else self.mean

    @cached_property
    def std_err(self) -> float:
        return math.sqrt(self.var) / math.sqrt(self.n)


class _PointSample(_Moments):
    """f at the n endpoints from one point, with its p-th powers and its log.

    Each transform is derived once per point, however many nodes and
    statistics use it.  A sample that holds one or two distinct values, bit
    for bit (a constant f, a ball indicator), is transformed on those levels
    only and mapped back: a one-level sample stays one value, and two levels
    go through ``np.where`` on the mask of the second.  A flat sample is
    held as its one value once its levels are found.  The levels go through
    the very expression the whole array would (``levels**p``,
    ``np.log(levels)``), so the result has the bits of ``v**p`` and
    ``np.log(v)``; a transform that maps every level to itself (an
    indicator's powers) returns the sample itself, and any other sample is
    transformed whole.  Values are compared bit for bit, so +0.0 and -0.0
    are two values; a third value among the first 64 rules levels out
    before any pass over the whole sample.
    """

    def __init__(self, v: np.ndarray, n: int | None = None) -> None:
        super().__init__(v, n)
        self._powers: dict[float, _Moments] = {}

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """(levels, mask of levels[1] or None for one level), or None."""
        bits = self.v.view(np.int64)
        head = bits[:64]
        rest = head[head != head[0]]
        if rest.size and (rest != rest[0]).any():
            return None  # three values among the first 64
        first = bits == bits[0]
        n_first = int(np.count_nonzero(first))
        if n_first == bits.size:
            self.v = self.v[:1].copy()
            return self.v, None
        i = int(np.argmin(first))  # the first value unlike v[0]
        second = bits == bits[i]
        if n_first + int(np.count_nonzero(second)) != bits.size:
            return None
        return self.v[[0, i]], second

    def _transform(self, op: Callable[[np.ndarray], np.ndarray]) -> _Moments:
        found = self._levels
        if found is None:
            return _Moments(op(self.v))
        levels, second = found
        out = op(levels)
        if out.tobytes() == levels.tobytes():
            return self
        if second is None:
            return _Moments(out, self.n)
        return _Moments(np.where(second, out[1], out[0]))

    def power(self, p: float) -> _Moments:
        m = self._powers.get(p)
        if m is None:
            m = self._transform(lambda v: v**p)
            if m is not self:  # holding itself would keep the block alive until a GC pass
                self._powers[p] = m
        return m

    @cached_property
    def log(self) -> _Moments:
        return self._transform(np.log)


class SemigroupSampler:
    """The estimator of P_t f(x): f at n endpoints on the current time's noise.

    P_t f(x) = E f(e^{tA} x + W_t) with W_t the stochastic convolution from
    zero, so W_t is independent of x and can be drawn once.  Every sample
    at the same t then uses literally the same W_t (common random numbers):
    comparisons between starting points are exact at x = y and tightly
    correlated elsewhere.  The per-t noise stream is derived from the bit
    pattern of t, so results do not depend on evaluation order.  e^{tA} is
    computed once per t.

    :meth:`sample` returns f at the endpoints from x as a
    :class:`_PointSample`, whose moments are the estimate and its standard
    error.  The sampler keeps what it reads off one time's noise: the
    squared distances |X - c|^2 of each (point, centre), shared by every f
    with that centre, and the samples of the last (f, t) asked for, so each
    (f, t, point) is computed once while a caller walks a time's functions
    in turn.  A constant f is held as its one value and draws no noise.

    The sampler holds the current time's noise only: a call at another time
    drops it, with the distances and samples read off it, before drawing
    that time's, so memory does not grow with the number of times, and a
    time asked for again is drawn again, with the same values.  The held
    noise is a read-only copy of :func:`ou_noise`'s array in Fortran order,
    so each coordinate is one contiguous column of n values;
    :class:`TestFunction` reads it a column at a time, and its values do not
    depend on the layout.
    """

    def __init__(self, spec: OUSpec, n: int, seed: SeedSpec) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        self.spec = spec
        self.n = n
        self.seed = seed
        self._noise: tuple[float, np.ndarray] | None = None
        self._flow: dict[float, np.ndarray] = {}
        # read off the held noise: |X - c|^2 per (t, point, centre), and the
        # samples of one (f, t) per point
        self._dist2: dict[tuple[float, bytes, tuple[float, ...]], np.ndarray] = {}
        self._samples: tuple[tuple, dict[bytes, _PointSample]] = ((), {})

    def noise(self, t: float) -> np.ndarray:
        key = float(t)
        if self._noise is not None and self._noise[0] == key:
            return self._noise[1]
        # the draw is where memory peaks, so nothing of the last time is held through it
        self._noise = None
        self._dist2.clear()
        self._samples[1].clear()
        bits = int(np.float64(key).view(np.uint64))
        stream = self.seed.substream(bits >> 32, bits & 0xFFFFFFFF)
        held = np.asfortranarray(ou_noise(self.spec, key, self.n, stream))
        held.setflags(write=False)
        self._noise = (key, held)
        return held

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

    def sample(self, f: TestFunction, x, t: float) -> _PointSample:
        """f at the n endpoints from x at time t, the same object while (f, t)
        is the last pair asked for."""
        if not 0.0 < t < math.inf:
            raise ValueError(f"time must be positive and finite, got {t}")
        x = np.asarray(x, dtype=float).reshape(self.spec.d)
        t = float(t)
        if self._samples[0] != (f, t):
            self._samples = ((f, t), {})
        point = x.tobytes()
        got = self._samples[1].get(point)
        if got is None:
            if f.kind == "constant":
                got = _PointSample(np.array([f.value], dtype=float), self.n)
            else:
                key = (t, point, f.center)
                dist2 = self._dist2.get(key)
                if dist2 is None:
                    dist2 = self._dist2[key] = self.values(f.dist2, x, t)
                got = _PointSample(f.radial(dist2))
            self._samples[1][point] = got
        return got


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


def _default_probes(d: int) -> np.ndarray:
    radii = np.geomspace(1.0, 8.0, 10)
    probes = np.zeros((10, d))
    if d == 1:
        probes[:, 0] = radii * np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    else:
        angles = 2.0 * math.pi * np.arange(10) / 10
        probes[:, 0] = radii * np.cos(angles)
        probes[:, 1] = radii * np.sin(angles)
    return probes


def factorization_check(
    spec: OUSpec,
    t: float,
    probe_xis: np.ndarray | None = None,
) -> FactorizationReport:
    """Check |pi_hat_t(xi)| <= 1 + 1e-8 at each probe frequency.

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
        passed=bool(max_excess <= 1e-8),
        c0=c0,
        op_norm=spec.op_norm,
    )
