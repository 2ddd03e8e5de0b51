"""Ornstein-Uhlenbeck dynamics and Monte Carlo semigroup estimation.

The process solves dX_t = A X_t dt + dZ_t, so the endpoint decomposes as
X_t = e^{tA} x0 + W_t with W_t the stochastic convolution, equal in law to
the integral of e^{sA} dZ_s over [0, t].  W_t is drawn exactly in time, with
no grid (see :func:`ou_noise`): A = 0 is one driver increment, a stable part
under a drift A + A^T = 2aI is one stable draw at an effective time, and
every other part is compound-Poisson jumps at uniform times with matrix
weights plus a small-jump Gaussian with the exact OU covariance.

:class:`SemigroupSampler` is the one estimator of P_t f(x): each time's
noise is drawn from a stream of its own and serves every starting point
(common random numbers), with the flow e^{tA} from ``_flow``, the one place
that forms it.  That makes the Harnack-type comparisons exact at x = y and
strongly variance-reduced elsewhere, which is what lets fitted constants
behave like constants instead of noise.  It answers one (t, f) for all of a
time's points at once, as floats (:class:`Moments`, and covariances of pairs
of points), from (points x n) blocks it allocates at its first time and
reuses at every later one; the CLI's ``estimate`` asks it for one point and
the inequality verifiers for each time's points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .levy_core import OUSpec, StableSpec, compute_c0, matrix_exp, taylor_expm, time_integrated_symbol
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
    "Moments",
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


def _jump_weigher(spec: OUSpec, t: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """weigh(u, jumps): row i of jumps becomes e^{u_i t A} times it, for u in [0, 1).

    [0, t] is cut into equal buckets; the weight is :func:`matrix_exp` at the
    start of the jump's bucket times e^{hA} for the time h past that start,
    by :func:`taylor_expm` on whole coordinate arrays, TAYLOR_TERMS terms at
    h ||A|| <= 1/16.
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
            acc = taylor_expm(A, h, cols, TAYLOR_TERMS)
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
    F = matrix_exp(np.block([[-A, np.eye(d)], [np.zeros((d, d)), A.T]]), math.ldexp(t, -k))
    flow = F[d:, d:].T
    gram = flow @ F[:d, d:]
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not t > 0.0:
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
        try:  # expm1 raises past e^709.78, and passes an infinite rate * t through
            tau = t if rate == 0.0 else math.expm1(rate * t) / rate
        except OverflowError:
            tau = math.inf
        if tau == math.inf:
            raise OverflowError(f"OU noise needs a finite effective time, got t = {float(t):g}, alpha a = {rate:g}")
        return sample_rot_stable(driver, tau, n, rng)
    if not math.isfinite(float(t) * spec.op_norm):  # in Python floats, which overflow without a warning
        raise OverflowError(
            f"OU noise needs a finite t ||A||, got t = {float(t):g} and ||A|| = {spec.op_norm:g}"
        )
    factor = _gramian_factor(spec.A, t)  # refuses an overflowing t before the cutoff's powers do
    intensity, icdf, sd = _jump_part(driver, t)
    return _compound_poisson_gaussian(
        rng, n, spec.d, t * intensity, icdf, sd * factor, weigh=_jump_weigher(spec, t)
    )


def _flow(spec: OUSpec, t: float) -> np.ndarray | None:
    """e^{tA}, or None when A = 0, where no matrix exponential is formed."""
    return None if spec.op_norm == 0.0 else matrix_exp(spec.A, t)


def sample_ou(spec: OUSpec, x0, t: float, n: int, seed: SeedSpec) -> np.ndarray:
    """(n, d) endpoints X_t = e^{tA} x0 + W_t, with W_t from :func:`ou_noise`.

    Exact in law: there is no time grid.  The output is a pure function of
    (spec, x0, t, n, seed).
    """
    x0, flow = np.asarray(x0, dtype=float).reshape(spec.d), _flow(spec, t)
    return (x0 if flow is None else flow @ x0) + ou_noise(spec, t, n, seed)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Bounded nonnegative test function, one of four parametric families.

    kind 'ball_indicator': 1{|x - center| <= scale}
    kind 'gaussian_bump' : exp(-|x - center|^2 / (2 scale^2))
    kind 'constant'      : value
    kind 'exp_cap'       : min(value, exp(log(value) * gaussian bump)), value >= 1

    exp_cap interpolates between 1 (far field) and the cap level, so it is
    both bounded and >= 1: the shape log-Harnack testing needs.  A scale
    for which 2 scale^2 is 0 or leaves the double range is refused.

    f(x) is ``radial(dist2(x))``, and ``radial`` does not write to
    |x - center|^2, so one array serves every f with that center.  It is
    summed one coordinate column at a time, left to right, which for d < 8
    has the bits of numpy's row sum in either memory layout; a column of
    F-ordered points is contiguous.  The squares, the bump and the cap are
    computed in place, in a fresh buffer or the one ``radial`` is given
    (the sampler's block of f values), which changes no bit: squaring is one
    multiply, and -|x-c|^2 / s is written |x-c|^2 / (-s).
    """

    kind: str
    center: tuple[float, ...] = (0.0,)
    scale: float = 1.0
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("ball_indicator", "gaussian_bump", "constant", "exp_cap"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if not all(map(math.isfinite, (*self.center, self.scale, self.value))):
            raise ValueError("test function center, scale and value must be finite")
        # the bump divides by 2 scale^2, formed in Python floats, which overflow without a warning
        twice_square = 2.0 * float(self.scale) * float(self.scale)
        if self.kind != "constant" and not (self.scale > 0.0 and 0.0 < twice_square < math.inf):
            raise ValueError(f"scale must be positive with 2 scale^2 in the double range, got {self.scale:g}")
        if self.value < 0.0:
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

    def radial(self, dist2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f at the points whose :meth:`dist2` is given, in out (of dist2's
        shape, not dist2 itself) when given."""
        if out is None:
            out = np.empty(dist2.shape)
        if self.kind == "constant":
            out.fill(self.value)
        elif self.kind == "ball_indicator":
            np.less_equal(dist2, self.scale**2, out=out)
        else:
            # a quotient past the double range is -inf, where exp gives the bump's 0
            with np.errstate(over="ignore"):
                np.divide(dist2, -(2.0 * self.scale**2), out=out)
            np.exp(out, out=out)
            if self.kind == "exp_cap":
                out *= math.log(self.value)
                np.exp(out, out=out)
                np.minimum(out, self.value, out=out)
        return out

    @property
    def min_value(self) -> float:
        return {"constant": self.value, "exp_cap": 1.0}.get(self.kind, 0.0)

    @property
    def geq_one(self) -> bool:
        return self.min_value >= 1.0 - 1e-12

    @property
    def tag(self) -> str:
        if self.kind == "constant":
            return f"constant({self.value:g})"
        c = ",".join(f"{v:g}" for v in self.center)
        level = f",level={self.value:g}" if self.kind == "exp_cap" else ""
        return f"{self.kind}(center=[{c}],scale={self.scale:g}{level})"


def _center(center) -> tuple[float, ...]:
    return tuple(np.atleast_1d(np.asarray(center, dtype=float)).tolist())


def ball_indicator(center, radius: float) -> TestFunction:
    return TestFunction("ball_indicator", _center(center), radius)


def gaussian_bump(center, width: float) -> TestFunction:
    return TestFunction("gaussian_bump", _center(center), width)


def constant(value: float) -> TestFunction:
    return TestFunction("constant", value=value)


def exp_cap(level: float, center=0.0, width: float = 1.0) -> TestFunction:
    return TestFunction("exp_cap", _center(center), width, level)


# ---------------------------------------------------------------------------
# semigroup estimation


class Moments(NamedTuple):
    """Mean, variance and standard error of n sampled values.

    When the n values are one value (min == max), the mean is that value and
    the variance 0, as they are exactly: the Harnack-type inequalities hold
    with equality at x = y, where a sum of n equal values, off by an ulp,
    would move a fitted constant.  Otherwise the mean is
    ``np.add.reduce(v) / n`` and the variance the pairwise sum of the
    centred squares over n - 1 (0.0 at n = 1).
    """

    mean: float
    var: float
    std_err: float


def _transform(v: np.ndarray, a: float | str, out: np.ndarray) -> np.ndarray:
    """``np.log(v)`` for a = "log", else ``v ** a``, written to out.

    The power is the in-place operator on a copy, which takes the fast paths
    (``v ** 2`` is a square) that ``v ** a`` takes, so out has its bits.  For
    a > 0 other than 2, a positive value below 2^(-1100/a) is set to +0.0
    first: its power lies 25 binades below half the smallest subnormal, so it
    rounds to +0.0 as the power of +0.0 does, and pow's slow path for an
    underflowing result (75-250 ns a value, against 25 ns at +0.0) is never
    taken.
    """
    if a == "log":
        return np.log(v, out=out)
    np.copyto(out, v)
    if a > 0.0 and a != 2:
        out[(out > 0.0) & (out < 2.0 ** (-1100.0 / a))] = 0.0
    out **= a
    return out


def _moments(mean: float, squares: float | None, n: int) -> Moments:
    """From the mean and the sum of centred squares (None at n = 1)."""
    var = squares / (n - 1) if n > 1 else 0.0
    return Moments(mean, var, math.sqrt(var) / math.sqrt(n))


def _time(t) -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    return t


class SemigroupSampler:
    """The estimator of P_t f(x): f at n endpoints on one draw of a time's noise.

    P_t f(x) = E f(e^{tA} x + W_t) with W_t the stochastic convolution from
    zero, so W_t is independent of x and can be drawn once per time.  Every
    point at the same t then uses literally the same W_t (common random
    numbers): comparisons between starting points are exact at x = y and
    tightly correlated elsewhere.  The per-t noise stream is derived from the
    bit pattern of t, so results do not depend on evaluation order, and a
    row of a block has the bits of f at :func:`sample_ou` from its point on
    that stream.

    :meth:`moments` answers one (t, f) for all of a time's points in one
    call and returns floats only: each point's :class:`Moments` of f and of
    each transform asked for (a power p, or "log"), and the covariance of
    each pair of (point, transform) asked for.  The n-length arrays behind
    them live in buffers the sampler owns: a (points x n) block of |X - c|^2,
    a (transforms x points x n) block of f and its transforms, which is
    centred in place, and one n-length row that takes each centred square
    and each pair's product in turn and is summed while it is in cache.  Each
    is a view of one flat buffer per role, allocated at the first time and
    reused at every later one, and grown only when a time has more points or
    transforms than any before, so a walk over many times allocates its
    buffers once.  The |X - c|^2 block remembers which (t, points, centre)
    it holds, so functions that share a centre draw the noise and form the
    flow once per time; :meth:`values` reads f off it into the rows it is
    given.  The noise and the flow are dropped once the block is formed, so
    the sampler's only state is its buffers and that tag, and no array it
    may overwrite ever leaves it.  A ball indicator takes +0.0 and 1.0 only,
    which every positive power maps to themselves, so its positive powers
    are read off its own rows.  A constant f draws no noise: it is one
    value, whose moments (see :class:`Moments`) come from that value alone.
    """

    def __init__(self, spec: OUSpec, n: int, seed: SeedSpec) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        self.spec = spec
        self.n = n
        self.seed = seed
        # one flat float64 buffer per block role, and what the |X - c|^2 block holds
        self._work: dict[str, np.ndarray] = {}
        self._dist2_of: tuple | None = None

    def noise(self, t: float) -> np.ndarray:
        """(n, d) draws of W_t on the stream of t's bits, in Fortran order,
        so each coordinate is one contiguous column of n values."""
        t = float(t)
        bits = int(np.float64(t).view(np.uint64))
        stream = self.seed.substream(bits >> 32, bits & 0xFFFFFFFF)
        return np.asfortranarray(ou_noise(self.spec, t, self.n, stream))

    def values(self, f: TestFunction, points, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """f at the n endpoints from each of the (P, d) points at time t, one
        row per point, written to out when given."""
        t, points = _time(t), self._points(points)
        if out is None:
            out = np.empty((len(points), self.n))
        return f.radial(self._dist2(f.center, points, t, scratch=out), out=out)

    def _points(self, points) -> np.ndarray:
        points = np.ascontiguousarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.spec.d:
            raise ValueError(f"points must have shape (P, {self.spec.d}), got {points.shape}")
        return points

    def _block(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous view of the role's buffer, grown only when too small."""
        size = math.prod(shape)
        buf = self._work.get(role)
        if buf is None or buf.size < size:
            self._work.pop(role, None)
            buf = self._work[role] = np.empty(size)
        return buf[:size].reshape(shape)

    def _dist2(
        self, center: tuple[float, ...], points: np.ndarray, t: float, scratch: np.ndarray
    ) -> np.ndarray:
        """|e^{tA} x + W_t - c|^2 of each point, one row each.

        Each element is summed over coordinates left to right from the
        written-out expression, so a row has the bits of
        ``TestFunction.dist2`` of the point's :func:`sample_ou` endpoints;
        subtracting a zero centre coordinate is skipped, which changes no
        square.
        """
        out = self._block("dist2", (len(points), self.n))
        key = (t, center, points.tobytes())  # a block grown for more points has a new key
        if self._dist2_of == key:
            return out
        noise, flow = self.noise(t), _flow(self.spec, t)
        flowed = points if flow is None else np.array([flow @ x for x in points]).reshape(points.shape)
        center = np.broadcast_to(np.asarray(center, dtype=float), (self.spec.d,))
        with np.errstate(over="ignore"):
            for j in range(self.spec.d):
                part = out if j == 0 else scratch
                np.add(flowed[:, j, None], noise[:, j], out=part)
                if center[j]:
                    part -= center[j]
                np.multiply(part, part, out=part)
                if j:
                    out += part
        self._dist2_of = key
        return out

    def moments(
        self,
        f: TestFunction,
        points,
        t: float,
        transforms: Sequence[float | str] = (),
        pairs: Sequence[tuple] = (),
    ) -> tuple[list[dict], list[float]]:
        """f at the n endpoints from each of the (P, d) points at time t.

        Returns (at, covs): ``at[i][None]`` is the :class:`Moments` of f at
        point i and ``at[i][a]`` that of transform a (a power, or "log"),
        for every a in transforms; ``covs[k]`` is the covariance of pair k,
        (i, a, j, b), transform a at point i against b at point j (None is f
        itself), the pairwise sum of the products of the centred values over
        n - 1 (0.0 at n = 1).  A one-valued row centres to exact zeros; every
        sum is ``np.add.reduce`` along one contiguous row, which has the bits
        of the sum of a 1-D array, and one past the double range reads inf.
        """
        t, points = _time(t), self._points(points)
        if f.kind == "constant":
            return self._level_moments(f.value, (None, *transforms), len(points), pairs)
        n = self.n
        # the rows of a transform that fixes every value of f are f's own
        # (+0.0 ** p is +0.0 and 1.0 ** p is 1.0 for every p > 0, by IEEE pow)
        indicator = f.kind == "ball_indicator"
        same = [a for a in transforms if indicator and a != "log" and a > 0]
        computed = [a for a in transforms if a not in same]
        row = {None: 0, **{a: k for k, a in enumerate(computed, 1)}, **dict.fromkeys(same, 0)}
        block = self._block("values", (1 + len(computed), len(points), n))
        self.values(f, points, t, out=block[0])
        for a, out in zip(computed, block[1:]):
            _transform(block[0], a, out)
        lo = np.minimum.reduce(block, axis=-1)
        one = lo == np.maximum.reduce(block, axis=-1)
        # sums and products past the double range read inf, which estimate refuses
        with np.errstate(over="ignore"):
            means = np.where(one, lo, np.add.reduce(block, axis=-1) / n)
            # a one-valued row centres to exact zeros, an infinite one too (inf - inf is NaN)
            block -= np.where(one, 0.0, means)[..., None]
            block[one] = 0.0
            means = means.tolist()
            # sums of products of centred rows: each row's squares, then each pair's
            sums = dict.fromkeys((i, k, i, k) for k in range(len(block)) for i in range(len(points)))
            sums.update(dict.fromkeys((i, row[a], j, row[b]) for i, a, j, b in pairs))
            if n > 1:
                product = self._block("product", (n,))
                for i, a, j, b in sums:
                    np.multiply(block[a, i], block[b, j], out=product)
                    sums[i, a, j, b] = float(np.add.reduce(product))
        at = [
            {a: _moments(means[k][i], sums[i, k, i, k], n) for a, k in row.items()}
            for i in range(len(points))
        ]
        return at, [sums[i, row[a], j, row[b]] / (n - 1) if n > 1 else 0.0 for i, a, j, b in pairs]

    def _level_moments(self, value: float, keys, count: int, pairs: Sequence[tuple]):
        """:meth:`moments` of a constant f: each transform of its value, with
        variance and covariances 0.0; a power past the double range is inf,
        without a warning."""
        v = np.array([value], dtype=float)
        with np.errstate(over="ignore"):
            levels = {a: float((v if a is None else _transform(v, a, np.empty(1)))[0]) for a in keys}
        return [{a: Moments(m, 0.0, 0.0) for a, m in levels.items()} for _ in range(count)], [0.0] * len(pairs)

    def estimate(self, f: TestFunction, x, t: float) -> Moments:
        """P_t f(x), with its standard error: :meth:`moments` at one point.

        Raises ValueError, naming f and n, where the moments leave the double
        range: the sum of n values, or of their centred squares, overflows.
        """
        x = np.asarray(x, dtype=float).reshape(self.spec.d)
        at = self.moments(f, x[None, :], t)[0][0][None]
        if not (math.isfinite(at.mean) and math.isfinite(at.std_err)):
            raise ValueError(f"{f.tag} over n = {self.n} samples: its moments leave the double range")
        return at


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


def factorization_check(spec: OUSpec, t: float) -> FactorizationReport:
    """Check |pi_hat_t(xi)| <= 1 + 1e-8 at each probe frequency.

    The subtracted component is the rotationally invariant stable symbol with
    coefficient c0(||A||) * c, where c0 integrates (1 - cos z_1)|z|^(-d) over
    the ball of radius e^{-||A||}.  The argument behind the subtraction needs
    |xi| >= 1, so the probes live on radii in [1, 8].
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("factorization check is defined for t in (0, 1]")
    c, alpha = spec.driver.c, spec.driver.alpha
    d = spec.d
    radii = np.geomspace(1.0, 8.0, 10)
    probes = np.zeros((10, d))
    if d == 1:
        probes[:, 0] = radii * np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    else:
        angles = 2.0 * math.pi * np.arange(10) / 10
        probes[:, 0] = radii * np.cos(angles)
        probes[:, 1] = radii * np.sin(angles)
    c0 = compute_c0(spec.op_norm, d)
    integral = time_integrated_symbol(spec, probes, t)
    stable_exp = t * c0 * c * radii**alpha
    pi = np.exp(stable_exp - integral)
    max_excess = float(np.max(pi - 1.0))
    return FactorizationReport(
        t=t,
        probes=probes,
        mu_hat=np.exp(-integral),
        stable_factor=np.exp(-stable_exp),
        pi_hat=pi,
        max_excess=max_excess,
        passed=bool(max_excess <= 1e-8),
        c0=c0,
        op_norm=spec.op_norm,
    )
