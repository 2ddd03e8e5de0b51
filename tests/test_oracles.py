"""Independent mpmath oracles for the stable density and the 1-d CDF.

Each density reference is a finite-range ``mp.quad`` of the radial inversion
integral in 30-digit arithmetic, split at the zeros of its kernel: the cosine
transform (1/pi) int exp(-tb s^alpha) cos(s r) ds in one dimension and the
Hankel transform (1/(2 pi)) int exp(-tb s^alpha) J_0(s r) s ds in two.  The
CDF reference is 1/2 + (1/pi) int exp(-tb s^alpha) sin(s x)/s ds, split at
the zeros k pi/x.  The normalization sigma(d, alpha) comes from its closed
form.  Nothing here uses harnacklab except the function under test and its
StableSpec argument.
"""

import mpmath as mp
import numpy as np
import pytest

from harnacklab import StableSpec, stable_cdf_1d, stable_density

# exp(-70) ~ 4e-31: the integrand beyond this cutoff is below the working precision
CUTOFF_EXPONENT = 70


def _sigma(d: int, alpha):
    return (
        2 ** (1 - alpha)
        * mp.pi ** (mp.mpf(d) / 2)
        * mp.gamma(1 - alpha / 2)
        / (alpha * mp.gamma((d + alpha) / 2))
    )


def _oracle_density(d: int, alpha: float, c: float, t: float, r: float) -> float:
    with mp.workdps(30):
        a, r = mp.mpf(alpha), mp.mpf(r)
        tb = mp.mpf(t) * mp.mpf(c) * _sigma(d, a)
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
        tb = mp.mpf(t) * mp.mpf(c) * _sigma(1, a)
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
