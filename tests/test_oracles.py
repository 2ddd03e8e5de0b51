"""Independent mpmath oracles for the stable density, the 1-d CDF and the
d=1 truncated-stable density.

Each density reference is a finite-range ``mp.quad`` of the radial inversion
integral in 30-digit arithmetic, split at the zeros of its kernel: the cosine
transform (1/pi) int exp(-tb s^alpha) cos(s r) ds in one dimension and the
Hankel transform (1/(2 pi)) int exp(-tb s^alpha) J_0(s r) s ds in two.  The
CDF reference is 1/2 + (1/pi) int exp(-tb s^alpha) sin(s x)/s ds, split at
the zeros k pi/x.  For alpha < 1 the one-dimensional density has a third,
quadrature-free reference: Bergstrom's convergent series in x^(-k alpha - 1),
summed in 50-digit arithmetic (``helpers.bergstrom_density``).  The
normalization sigma(d, alpha) comes from its closed form.  The truncated
reference is the cosine transform (1/pi) int exp(-t psi(s)) cos(s x) ds in
30-digit arithmetic, with psi from its incomplete-gamma closed form rather
than the power series the package sums; the same closed form checks the d=1
truncated symbol.  In d = 2 and 3 the truncated symbol's reference sums its
series on [0, 1] in 60-digit arithmetic and integrates the rest with
Gauss-Legendre ``mp.quad`` on panels split every pi.  The Gauss-Jacobi rule
behind the truncated exponent is checked against Golub-Welsch in 40-digit
arithmetic.  The numpy log Phi(-w) behind the CDF table is checked against
mpmath's ncdf, and the spline through each mixture table against scipy's
make_interp_spline(k=7), which the package no longer calls.  Nothing here uses
harnacklab except the function under test and its spec argument.
"""

import mpmath as mp
import numpy as np
import pytest
from helpers import bergstrom_density, exact_alpha, sigma_mp

from harnacklab import (
    StableSpec,
    TruncatedStableSpec,
    stable_cdf_1d,
    stable_density,
    stable_density_grid,
    symbol_radial,
    truncated_density,
)

# exp(-70) ~ 4e-31: the integrand beyond this cutoff is below the working precision
CUTOFF_EXPONENT = 70


def _oracle_density(d: int, alpha: float, c: float, t: float, r: float) -> float:
    with mp.workdps(30):
        a, r = mp.mpf(alpha), mp.mpf(r)
        tb = mp.mpf(t) * mp.mpf(c) * sigma_mp(d, a)
        cutoff = (CUTOFF_EXPONENT / tb) ** (1 / a)
        zeros = []
        k = 1
        while True:
            z = ((k - mp.mpf(0.5)) * mp.pi if d == 1 else mp.besseljzero(0, k)) / r
            if z >= cutoff:
                break
            zeros.append(z)
            k += 1
        if d == 1:
            integral = mp.quad(lambda s: mp.exp(-tb * s**a) * mp.cos(s * r), [0] + zeros + [cutoff])
            return float(integral / mp.pi)
        integral = mp.quad(
            lambda s: mp.exp(-tb * s**a) * mp.besselj(0, s * r) * s, [0] + zeros + [cutoff]
        )
        return float(integral / (2 * mp.pi))


@pytest.mark.parametrize(
    "d,alpha,c,t,r",
    [
        (1, 0.5, 1.0, 1.0, 0.3),
        (1, 0.5, 1.0, 2.0, 3.0),
        (1, 1.5, 1.0, 0.5, 0.7),
        (1, 1.5, 0.7, 1.0, 5.0),
        (2, 0.5, 1.0, 1.0, 0.4),
        (2, 0.5, 1.0, 1.0, 2.5),
        (2, 1.5, 1.0, 1.0, 2.0),
        (2, 1.5, 1.0, 0.25, 6.0),
    ],
)
def test_stable_density_matches_mpmath(d, alpha, c, t, r):
    x = np.zeros(d)
    x[0] = r
    got = stable_density(StableSpec(d=d, alpha=alpha, c=c), t, x)
    assert got == pytest.approx(_oracle_density(d, alpha, c, t, r), rel=1e-10, abs=0.0)


# beyond u = 30 the sine integrand is below exp(-30)/s: E1(30)/alpha ~ 3e-15/alpha
CDF_CUTOFF_EXPONENT = 30
# after the head, Gauss-Legendre covers this many half-periods per interval
CDF_GROUP = 8


def _oracle_cdf(alpha: float, c: float, t: float, x: float) -> float:
    with mp.workdps(20):
        a, x = mp.mpf(alpha), mp.mpf(x)
        tb = mp.mpf(t) * mp.mpf(c) * sigma_mp(1, a)
        cutoff = (CDF_CUTOFF_EXPONENT / tb) ** (1 / a)
        n = int(cutoff * x / mp.pi)
        breaks = [k * mp.pi / x for k in range(1, n + 1, CDF_GROUP)]

        def f(s):
            return mp.exp(-tb * s**a) * mp.sin(s * x) / s

        head = mp.quad(f, [0, breaks[0]])  # tanh-sinh copes with s^alpha at 0
        tail = mp.quad(f, breaks + [cutoff], method="gauss-legendre")
        return float(mp.mpf(0.5) + (head + tail) / mp.pi)


@pytest.mark.parametrize(
    "alpha,c,t,x",
    [
        # length scale (t b)^(1/alpha): 25 at alpha=0.5, c=t=1; 2.2 at alpha=1.5
        (0.5, 1.0, 1.0, 0.3),
        (0.5, 0.7, 2.0, 25.0),
        (0.5, 1.0, 1.0, 251.0),
        (1.5, 1.0, 0.5, 0.7),
        (1.5, 0.7, 1.0, 22.0),
        (1.5, 1.0, 1.0, 2230.0),
    ],
)
def test_stable_cdf_matches_mpmath(alpha, c, t, x):
    spec = StableSpec(d=1, alpha=alpha, c=c)
    ref = _oracle_cdf(alpha, c, t, x)
    assert stable_cdf_1d(spec, t, x) == pytest.approx(ref, rel=0.0, abs=1e-10)
    assert stable_cdf_1d(spec, t, -x) == pytest.approx(1.0 - ref, rel=0.0, abs=1e-10)


@pytest.mark.parametrize(
    "alpha,scales",
    [(a, m) for a in (0.1, 0.3, 0.5) for m in (1, 10, 1e2, 1e3, 1e4, 1e6)],
)
def test_stable_density_matches_bergstrom_series(alpha, scales):
    # the radius is `scales` length scales (t b)^(1/alpha), at t = c = 1
    with mp.workdps(50):
        _, a = exact_alpha(alpha)
        x = float(scales * sigma_mp(1, a) ** (1 / a))
    grid = stable_density_grid(StableSpec(d=1, alpha=alpha), 1.0, np.array([[x]]))
    assert grid.values[0] == pytest.approx(bergstrom_density(alpha, x), rel=1e-10, abs=0.0)


# the truncated reference drops what lies below exp(-55) ~ 1e-24 of its peak,
# summed on 32-node Gauss-Legendre panels of width at most 16 / max |x|
TRUNCATED_DROP = 55
TRUNCATED_PANEL = 32


def _truncated_symbol_mp(a, c, r, s):
    """psi(s) = 2c int_0^r (1 - cos s z) z^(-1-a) dz = c sigma s^a - 2c r^(-a)/a
    + 2c int_r^inf cos(s z) z^(-1-a) dz, the last term as (-is)^a Gamma(-a, -isr)
    or, at a = 1, where that incomplete gamma is slow, by the sine integral."""
    sigma = mp.pi / (mp.gamma(1 + a) * mp.sin(mp.pi * a / 2))
    if a == 1:
        far = mp.cos(s * r) / r - s * (mp.pi / 2 - mp.si(s * r))
    else:
        far = mp.re((-1j * s) ** a * mp.gammainc(-a, -1j * s * r))
    return c * sigma * s**a - 2 * c * r**-a / a + 2 * c * far


def _oracle_truncated(alpha: float, c: float, r: float, t: float, xs) -> np.ndarray:
    with mp.workdps(30):
        a, c, r, t = mp.mpf(alpha), mp.mpf(c), mp.mpf(r), mp.mpf(t)
        sigma = mp.pi / (mp.gamma(1 + a) * mp.sin(mp.pi * a / 2))
        # past psi's lower bound c sigma s^a - 2c r^(-a)/a reaching DROP / t
        cutoff = ((TRUNCATED_DROP / t + 2 * c * r**-a / a) / (sigma * c)) ** (1 / a)
        width = min(mp.pi / r, 16 / max(max(xs), 1))
        nodes, weights = mp.gauss_quadrature(TRUNCATED_PANEL, "legendre")
        sums = [mp.mpf(0)] * len(xs)
        lo = mp.mpf(0)
        while lo < cutoff:
            for u, w in zip(nodes, weights):
                s = lo + width * (u + 1) / 2
                f = w * width / 2 * mp.exp(-t * _truncated_symbol_mp(a, c, r, s))
                for i, x in enumerate(xs):
                    sums[i] += f * mp.cos(s * mp.mpf(x))
            lo += width
        return np.array([float(v / mp.pi) for v in sums])


@pytest.mark.parametrize(
    "alpha,c,r",
    # c = 4 at alpha = 0.5 keeps the reference's cutoff at s ~ 130; at c = 1 it
    # would be ~2,000, with ~35,000 incomplete-gamma calls
    [(0.5, 4.0, 1.0), (1.0, 1.0, 1.0), (1.8, 1.0, 0.5)],
)
@pytest.mark.parametrize("t", [0.25, 1.0])
def test_truncated_density_matches_mpmath(alpha, c, r, t):
    # seven points from 0 out to where p falls below 1e-12 p(0)
    spec = TruncatedStableSpec(d=1, alpha=alpha, c=c, r=r)
    scan = np.linspace(0.0, 40.0, 1601)
    p = truncated_density(spec, t, scan)
    xs = np.linspace(0.0, scan[np.argmax(p < 1e-12 * p[0])], 7)
    ref = _oracle_truncated(alpha, c, r, t, list(xs))
    assert ref[-1] < 2e-12 * ref[0]
    assert truncated_density(spec, t, xs) == pytest.approx(ref, rel=1e-10, abs=0.0)


def _gauss_jacobi_mp(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule for int_0^1 f(u) u^beta du by Golub-Welsch in
    40-digit arithmetic, sorted by node.

    The nodes are the eigenvalues (mp.eigsy) of the Jacobi matrix of the
    shifted Jacobi polynomials on [0, 1], and each weight is mu_0 q_0^2, q the
    unit eigenvector at that node.  The eigenvector comes from its own
    three-term recurrence at the eigenvalue, v_0 = 1, so q_0^2 = 1 / sum v_k^2;
    a full mp.eigsy takes about 6 s a matrix here, its eigenvalues alone 0.7 s.
    """
    with mp.workdps(40):
        b = mp.mpf(beta)
        diag = [(b + 1) / (b + 2)] + [
            mp.mpf(1) / 2 + b**2 / (2 * (2 * k + b) * (2 * k + b + 2)) for k in range(1, n)
        ]
        off = [k * (k + b) / ((2 * k + b) * mp.sqrt((2 * k + b) ** 2 - 1)) for k in range(1, n)]
        jacobi = mp.diag(diag)
        for k in range(n - 1):
            jacobi[k, k + 1] = jacobi[k + 1, k] = off[k]
        nodes = sorted(mp.eigsy(jacobi, eigvals_only=True))
        weights = []
        for x in nodes:
            v = [mp.mpf(1), (x - diag[0]) / off[0]]
            for k in range(1, n - 1):
                v.append(((x - diag[k]) * v[k] - off[k - 1] * v[k - 1]) / off[k])
            weights.append(1 / ((b + 1) * mp.fsum(e * e for e in v)))
        return np.array([float(x) for x in nodes]), np.array([float(w) for w in weights])


@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.8, 1.99])
def test_truncated_exponent_rule_matches_mpmath(alpha):
    # the 64-node rule for int_0^1 f(u) u^(1-alpha) du behind the truncated
    # exponent G at mid-range |w|
    from harnacklab.density import _exponent_rule
    from scipy import special

    _, nodes, weights, _, _ = _exponent_rule(alpha)
    ref_nodes, ref_weights = _gauss_jacobi_mp(64, 1.0 - alpha)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    assert np.max(np.abs(weights / ref_weights - 1.0)) <= 1e-13
    # the rule this one replaced, scipy.special.roots_jacobi, is off by up to
    # 2e-12 relative per weight at alpha = 0.1, 1e-12 at 1.0, 7e-12 at 1.8
    # and 8e-10 at 1.99 (scipy 1.17.1); that it agrees to 1e-8 checks the
    # reference itself
    x, w = special.roots_jacobi(64, 0.0, 1.0 - alpha)
    assert np.max(np.abs(0.5 * (1.0 + x) - ref_nodes)) <= 1e-15
    assert np.max(np.abs(w * 2.0 ** (alpha - 2.0) / ref_weights - 1.0)) <= 1e-8


def test_truncated_density_point_alone_matches_mpmath():
    # each point alone in its call, so its tilt level's xi-panels are sized by
    # that point only; t c r^(-alpha) = 0.0025 leaves the edge ripple e^(i xi r)
    # of the symbol, not the point, as the fastest oscillation
    spec = TruncatedStableSpec(d=1, alpha=1.5, c=0.005, r=1.0)
    xs = [0.1, 0.5, 1.0]
    got = [truncated_density(spec, 0.25, x) for x in xs]
    assert got == pytest.approx(_oracle_truncated(1.5, 0.005, 1.0, 0.25, xs), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
def test_truncated_symbol_matches_mpmath(alpha):
    # r |xi| from the series head out past the 2^16 kernel half-oscillations' reach
    spec = TruncatedStableSpec(d=1, alpha=alpha, c=0.8, r=1.0)
    s = np.array([0.5, 7.9, 8.1, 100.0, 3000.0, 1.5e5])
    with mp.workdps(30):
        ref = [float(_truncated_symbol_mp(mp.mpf(alpha), mp.mpf(0.8), mp.mpf(1), mp.mpf(v))) for v in s]
    assert symbol_radial(spec, s) == pytest.approx(ref, rel=1e-12, abs=0.0)


def _truncated_symbol_radial_mp(d: int, alpha: float, c: float, s: float) -> float:
    """psi(s) = c |S| s^a int_0^s u^(-1-a) (1 - E cos(u theta_1)) du at r = 1.

    On [0, 1] the integral is the series sum over k >= 1 of (-1)^(k+1) /
    (4^k k! (d/2)_k (2k - a)), which avoids quadrature at the u^(1-a) endpoint;
    past 1 the integrand is smooth and mp.quad takes it on panels split every pi.
    """
    with mp.workdps(60):
        a, half = mp.mpf(alpha), mp.mpf(d) / 2
        head = mp.fsum(
            (-1) ** (k + 1) / (4**k * mp.factorial(k) * mp.rf(half, k) * (2 * k - a))
            for k in range(1, 41)
        )
    with mp.workdps(20):
        nu, v = half - 1, mp.mpf(s)

        def kernel(u):
            cf = mp.sin(u) / u if d == 3 else mp.gamma(half) * (2 / u) ** nu * mp.besselj(nu, u)
            return u ** (-1 - a) * (1 - cf)

        edges = [mp.mpf(1)] + [k * mp.pi for k in range(1, int(v / mp.pi) + 1)] + [v]
        body = mp.quad(kernel, edges, method="gauss-legendre")
        surface = 2 * mp.pi**half / mp.gamma(half)
        return float(mp.mpf(c) * surface * v**a * (head + body))


@pytest.mark.parametrize("alpha", [0.3, 1.8])
@pytest.mark.parametrize("d, radii", [(2, (8.1, 100.0, 300.0)), (3, (8.1, 100.0, 1000.0))])
def test_truncated_symbol_matches_mpmath_in_higher_dimensions(d, radii, alpha):
    spec = TruncatedStableSpec(d=d, alpha=alpha, c=0.8, r=1.0)
    ref = [_truncated_symbol_radial_mp(d, alpha, 0.8, v) for v in radii]
    assert symbol_radial(spec, np.array(radii)) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_log_normal_tail_matches_mpmath():
    # log Phi(x) for -1e130 <= x <= 0, the range the CDF table's integrand
    # reaches, on both sides of the switch to the asymptotic series
    from harnacklab.density import NDTR_SERIES_FROM, _log_normal_tail

    switch = NDTR_SERIES_FROM
    w = np.concatenate(
        [
            [0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0],
            np.linspace(0.0, 45.0, 451),
            np.nextafter(switch, 0.0) - np.arange(4) * 1e-13,
            switch + np.arange(4) * 1e-13,
            np.geomspace(45.0, 1e130, 120),
        ]
    )
    with mp.workdps(40):
        ref = np.array([float(mp.log(mp.ncdf(-mp.mpf(v)))) for v in w])
    assert np.max(np.abs(_log_normal_tail(w) / ref - 1.0)) <= 1e-14


def _table_spline(monkeypatch, build):
    """The nodes, values and B-spline coefficients of the spline of the table
    ``build()`` makes, and the table."""
    from harnacklab import density

    seen, solve = [], density._spline_coefficients

    def recorded(values):
        seen.append((values, solve(values)))
        return seen[-1][1]

    monkeypatch.setattr(density, "_spline_coefficients", recorded)
    table = build()
    values, coef = seen[0]
    return table.lo - 4.0 * table.step + table.step * np.arange(len(values)), values, coef, table


# every density table (d, alpha) and CDF table (alpha) that the acceptance
# criteria and the benchmark build, alpha = 1.2 and d = 3, alpha = 0.8 from the
# unit tests, and the widest table here (alpha = 0.1)
@pytest.mark.parametrize(
    "kind,args",
    [("density", (d, a)) for d, a in ((1, 0.5), (1, 1.0), (1, 1.2), (1, 1.5), (2, 1.0), (2, 1.5), (3, 0.8), (1, 0.1))]
    + [("cdf", (a,)) for a in (0.5, 1.0, 1.2, 1.5)],
)
def test_table_spline_matches_make_interp_spline(monkeypatch, kind, args):
    from scipy.interpolate import make_interp_spline

    from harnacklab.density import _log_c_table, _log_j_table

    build = (lambda: _log_j_table(*args)) if kind == "density" else (lambda: _log_c_table(*args))
    y, values, coef, table = _table_spline(monkeypatch, build)
    ref = make_interp_spline(y, values, k=7)
    # a log f crosses 0 where f crosses 1, so coefficients and values are
    # measured against the table's largest
    scale = np.max(np.abs(ref.c))
    assert np.max(np.abs(coef - ref.c)) <= 1e-13 * scale
    u = np.linspace(table.lo, table.hi, 4001)
    assert np.max(np.abs(table(u) - ref(u))) <= 1e-13 * scale
