"""Symbols, geometric kernels, and process specifications.

Frozen numeric oracles here were produced from closed forms evaluated
independently of the package quadrature (classical Fourier identities for the
stable normalization and the cosine-integral form of the small-ball constant),
so agreement is evidence, not circularity.  The package computes the stable
normalization from its closed form; the defining integral, summed in mpmath,
is the oracle for it.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from helpers import compute_mu_hat
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from harnacklab import (
    OUSpec,
    QuadratureError,
    StableSpec,
    TruncatedStableSpec,
    compute_c0,
    compute_sigma,
    describe_spec,
    symbol,
    symbol_radial,
    time_integrated_symbol,
)
from harnacklab.levy_core import (
    bounded_minimum,
    one_minus_cos,
    one_minus_sphere_cf,
    sphere_cf,
    sphere_surface,
)


def sigma_closed_form(d: int, alpha: float) -> float:
    # classical normalization of the isotropic stable symbol
    return (
        2.0 ** (1.0 - alpha)
        * math.pi ** (d / 2.0)
        * math.gamma(1.0 - alpha / 2.0)
        / (alpha * math.gamma((d + alpha) / 2.0))
    )


def sigma_integral(d: int, alpha: float) -> float:
    """sigma(d, alpha) = int (1 - cos z_1) |z|^(-d-alpha) dz in mpmath, by Fubini.

    With z = (z_1, |z_1| w), w in R^(d-1), it is W I: W = |S^(d-2)| int_0^inf
    rho^(d-2) (1 + rho^2)^(-(d+alpha)/2) drho (W = 1 at d = 1) and I = 2 int_0^inf
    (1 - cos z) z^(-1-alpha) dz.  I is summed on [0, pi] as 2 sin^2(z/2) z^(-1-alpha)
    in w = z^(2-alpha), where it is smooth, and past pi as pi^(-alpha)/alpha minus
    int_pi^inf cos(z) z^(-1-alpha) dz = Re(i^(-alpha) Gamma(-alpha, -i pi)).
    """
    with mp.workdps(20):
        a = mp.mpf(alpha)
        p = 1 / (2 - a)
        head = mp.quad(lambda w: 2 * mp.sin(w**p / 2) ** 2 * w ** (-2 * p) * p, [0, 1])
        head += mp.quad(lambda z: 2 * mp.sin(z / 2) ** 2 * z ** (-1 - a), [1, mp.pi])
        tail = mp.re(mp.j ** (-a) * mp.gammainc(-a, -mp.j * mp.pi))
        total = 2 * (head + mp.pi ** (-a) / a - tail)
        if d > 1:
            surface = 2 * mp.pi ** (mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d - 1) / 2)
            total *= surface * mp.quad(
                lambda r: r ** (d - 2) * (1 + r * r) ** (-(d + a) / 2), [0, 1, mp.inf]
            )
        return float(total)


class TestSigma:
    def test_frozen_values(self):
        assert compute_sigma(1, 1.0) == pytest.approx(math.pi, rel=1e-13)
        assert compute_sigma(1, 0.5) == pytest.approx(5.013256549262001, rel=1e-12)
        assert compute_sigma(1, 1.5) == pytest.approx(3.342171032841334, rel=1e-12)
        assert compute_sigma(2, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-11)
        assert compute_sigma(1, 1.99) == pytest.approx(100.92921005825319, rel=1e-11)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.3, 1.7, 1.9])
    def test_matches_closed_form(self, d, alpha):
        # the closed form, and the defining integral it stands for
        assert compute_sigma(d, alpha) == pytest.approx(sigma_closed_form(d, alpha), rel=1e-14)
        assert compute_sigma(d, alpha) == pytest.approx(sigma_integral(d, alpha), rel=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            compute_sigma(1, 2.0)
        with pytest.raises(ValueError):
            compute_sigma(1, 0.0)


class TestSmallBallConstant:
    def test_one_dimensional_closed_form(self):
        # in d = 1 the integrand is 2 (1 - cos rho)/rho, whose primitive is
        # the entire cosine integral Cin
        for op_norm in (0.0, 0.3, 0.5, 1.2):
            u = math.exp(-op_norm)
            _, ci = special.sici(u)
            cin = np.euler_gamma + math.log(u) - ci
            assert compute_c0(op_norm, 1) == pytest.approx(2.0 * cin, rel=1e-12)

    def test_frozen_values(self):
        assert compute_c0(0.0, 1) == pytest.approx(0.4796234840011294, rel=1e-10)
        assert compute_c0(0.5, 1) == pytest.approx(0.1811431718932499, rel=1e-10)
        assert compute_c0(0.0, 2) == pytest.approx(0.7613036996602107, rel=1e-10)

    def test_decreasing_in_op_norm(self):
        vals = [compute_c0(b, 2) for b in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            compute_c0(-0.1, 1)


class TestGeometry:
    def test_sphere_surface(self):
        assert sphere_surface(1) == pytest.approx(2.0, rel=1e-15)
        assert sphere_surface(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_surface(3) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_sphere_cf_low_dims(self):
        u = np.linspace(0.05, 30.0, 400)
        assert np.allclose(sphere_cf(1, u), np.cos(u), rtol=0, atol=1e-14)
        assert np.allclose(sphere_cf(2, u), special.jv(0, u), rtol=0, atol=1e-12)
        assert np.allclose(sphere_cf(3, u), np.sin(u) / u, rtol=0, atol=1e-12)

    def test_sphere_cf_preserves_shape(self):
        u = np.linspace(0.0, 5.0, 12).reshape(3, 4)
        for d in (1, 2, 3, 5):
            assert sphere_cf(d, u).shape == (3, 4)
            assert one_minus_sphere_cf(d, u).shape == (3, 4)

    def test_one_minus_variants_avoid_cancellation(self):
        # naive 1 - cf underflows to 0 at u = 1e-9; the stable form keeps
        # full relative accuracy
        u = 1e-9
        assert one_minus_cos(u) == pytest.approx(u * u / 2.0, rel=1e-12)
        for d in (2, 3, 6):
            got = one_minus_sphere_cf(d, np.array([u]))[0]
            assert got == pytest.approx(u * u / (2.0 * d), rel=1e-9)

    def test_one_minus_consistent_with_direct(self):
        u = np.linspace(0.5, 20.0, 100)
        for d in (1, 2, 4):
            assert np.allclose(one_minus_sphere_cf(d, u), 1.0 - sphere_cf(d, u), atol=1e-13)


class TestSymbols:
    def test_stable_closed_form(self):
        spec = StableSpec(d=2, alpha=1.3, c=0.7)
        s = np.array([0.0, 0.5, 1.0, 3.0])
        expect = compute_sigma(2, 1.3) * 0.7 * s**1.3
        assert np.allclose(symbol_radial(spec, s), expect, rtol=1e-14)

    def test_symbol_is_radial(self):
        spec = StableSpec(d=2, alpha=1.5, c=1.0)
        v = symbol(spec, np.array([3.0, 4.0]))
        assert float(v) == pytest.approx(symbol_radial(spec, 5.0)[0], rel=1e-14)

    def test_symbol_batch_shape(self):
        spec = StableSpec(d=3, alpha=1.0, c=1.0)
        xi = np.random.default_rng(0).normal(size=(7, 3))
        out = symbol(spec, xi)
        assert out.shape == (7,)
        with pytest.raises(ValueError):
            symbol(spec, np.zeros((7, 2)))

    def test_truncated_below_stable(self):
        stable = StableSpec(d=1, alpha=1.0, c=1.0)
        trunc = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
        s = np.geomspace(0.05, 50.0, 40)
        ps = symbol_radial(stable, s)
        pt = symbol_radial(trunc, s)
        assert np.all(pt < ps)
        assert np.all(pt > 0.0)
        # removing only far jumps: agreement improves as frequency grows
        assert pt[-1] / ps[-1] > pt[0] / ps[0]
        assert pt[-1] / ps[-1] > 0.98
        assert pt[0] / ps[0] < 0.2

    def test_truncated_symbol_direct_quadrature(self):
        # independent evaluation of 2 c int (1 - cos(s z)) z^(-1-alpha) dz over (0, r]
        spec = TruncatedStableSpec(d=1, alpha=1.5, c=0.8, r=2.0)
        for s in (0.3, 1.0, 4.0):
            ref, _ = integrate.quad(
                lambda z: 2.0 * spec.c * (1.0 - math.cos(s * z)) * z ** (-1.0 - spec.alpha),
                0.0,
                spec.r,
                limit=400,
            )
            assert symbol_radial(spec, s)[0] == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("d, v", [(1, 3e3), (2, 3e3), (3, 3e3), (1, 1e4)])
    def test_truncated_symbol_at_far_frequency(self, d, v):
        # past r |xi| of about 1,250 the bulk integral takes over 400 pi-wide
        # panels; far out the symbol is the stable one less the mass of the
        # jumps past r, c |S| r^(-alpha) / alpha
        spec = TruncatedStableSpec(d=d, alpha=1.0, c=1.0, r=1.0)
        far = compute_sigma(d, 1.0) * v - sphere_surface(d)
        assert symbol_radial(spec, v)[0] == pytest.approx(far, rel=1e-6)

    def test_truncated_monotone_and_zero_at_origin(self):
        trunc = TruncatedStableSpec(d=2, alpha=0.8, c=1.0, r=1.0)
        s = np.linspace(0.0, 10.0, 30)
        v = symbol_radial(trunc, s)
        assert v[0] == 0.0
        assert np.all(np.diff(v) > 0.0)

    def test_truncated_symbol_refused_past_its_reach(self):
        # past about 2^16 pi-wide panels the panel rule would grow without
        # bound: one QuadratureError instead
        spec = TruncatedStableSpec(d=2, alpha=1.0, c=1.0, r=1.0)
        with pytest.raises(QuadratureError, match="past"):
            symbol_radial(spec, np.array([1.0, 3e5]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.8])
    def test_truncated_symbol_independent_of_its_batch(self, d, alpha):
        # each value alone equals, bit for bit, the same frequency in a batch
        # that reaches 1.5e5
        spec = TruncatedStableSpec(d=d, alpha=alpha, c=0.8, r=1.0)
        s = np.array([0.5, 7.9, 8.1, 100.0, 3000.0])
        batch = symbol_radial(spec, np.append(s, 1.5e5))
        for k, v in enumerate(s):
            assert symbol_radial(spec, v)[0] == batch[k]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            symbol_radial(StableSpec(d=1, alpha=1.0), np.array([-1.0]))

class TestOUCharacteristics:
    def test_zero_drift_reduces_to_symbol(self):
        driver = StableSpec(d=2, alpha=1.5, c=0.5)
        spec = OUSpec(A=np.zeros((2, 2)), driver=driver)
        xi = np.array([0.7, -1.1])
        t = 1.7
        assert time_integrated_symbol(spec, xi, t) == pytest.approx(
            t * float(symbol(driver, xi)), rel=1e-10
        )
        assert compute_mu_hat(spec, xi, t) == pytest.approx(
            math.exp(-t * float(symbol(driver, xi))), rel=1e-10
        )

    def test_scalar_drift_closed_form(self):
        # d = 1, A = (a): integral of sigma c |e^(s a) xi|^alpha ds has the
        # elementary primitive (e^(alpha a t) - 1) / (alpha a)
        a, alpha, c, xi, t = 0.5, 1.5, 1.0, 1.3, 0.7
        driver = StableSpec(d=1, alpha=alpha, c=c)
        spec = OUSpec(A=np.array([[a]]), driver=driver)
        base = compute_sigma(1, alpha) * c * abs(xi) ** alpha
        expect = base * (math.exp(alpha * a * t) - 1.0) / (alpha * a)
        assert time_integrated_symbol(spec, np.array([xi]), t) == pytest.approx(expect, rel=1e-9)

    def test_time_zero(self):
        spec = OUSpec(A=np.zeros((1, 1)), driver=StableSpec(d=1, alpha=1.0))
        assert time_integrated_symbol(spec, np.array([1.0]), 0.0) == 0.0
        with pytest.raises(ValueError):
            time_integrated_symbol(spec, np.array([1.0]), -0.5)


class TestSpecs:
    def test_stable_validation(self):
        with pytest.raises(ValueError):
            StableSpec(d=0, alpha=1.0)
        with pytest.raises(ValueError):
            StableSpec(d=1, alpha=2.0)
        with pytest.raises(ValueError):
            StableSpec(d=1, alpha=0.0)
        with pytest.raises(ValueError):
            StableSpec(d=1, alpha=1.0, c=-1.0)

    def test_truncated_validation(self):
        with pytest.raises(ValueError):
            TruncatedStableSpec(d=1, alpha=1.0, r=0.0)
        with pytest.raises(ValueError):
            TruncatedStableSpec(d=1, alpha=1.0, r=-2.0)

    def test_ou_validation(self):
        driver = StableSpec(d=2, alpha=1.0)
        with pytest.raises(ValueError):
            OUSpec(A=np.zeros((2, 3)), driver=driver)
        with pytest.raises(ValueError):
            OUSpec(A=np.zeros((3, 3)), driver=driver)
        with pytest.raises(ValueError):
            OUSpec(A=np.full((2, 2), np.nan), driver=driver)

    def test_ou_matrix_read_only_and_norm(self):
        spec = OUSpec(A=np.array([[0.0, 1.0], [0.0, 0.0]]), driver=StableSpec(d=2, alpha=1.0))
        assert spec.d == 2
        assert spec.op_norm == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            spec.A[0, 0] = 5.0

    def test_describe_spec_forms(self):
        assert describe_spec(StableSpec(d=1, alpha=1.5, c=2.0)) == {
            "driver": "stable",
            "d": 1,
            "alpha": 1.5,
            "c": 2.0,
        }
        assert describe_spec(TruncatedStableSpec(d=2, alpha=0.7, c=1.0, r=3.0)) == {
            "driver": "truncated_stable",
            "d": 2,
            "alpha": 0.7,
            "c": 1.0,
            "r": 3.0,
        }
        ou = OUSpec(A=np.array([[-0.5]]), driver=StableSpec(d=1, alpha=1.0))
        doc = describe_spec(ou)
        assert doc["A"] == [[-0.5]]
        assert doc["op_norm"] == pytest.approx(0.5)
        with pytest.raises(TypeError):
            describe_spec("not a spec")


class TestBoundedMinimum:
    """levy_core.bounded_minimum is scipy's bounded Brent loop, step for step."""

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
        lo=st.floats(-20.0, 20.0),
        width=st.floats(0.0, 30.0),
        log_xatol=st.floats(-12.0, 0.0),
    )
    def test_matches_scipy_bit_for_bit(self, coeffs, lo, width, log_xatol):
        a, b, c, w, phase = coeffs

        def func(x):
            # float(x): scipy hands numpy scalars, the port Python floats
            x = float(x)
            return a * math.sin(w * x + phase) + b * x * x + c * math.exp(-x * x)

        hi, xatol = lo + width, 10.0**log_xatol
        ref = optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        assert bounded_minimum(func, lo, hi, xatol) == ref.fun

    def test_finds_an_interior_minimum(self):
        assert bounded_minimum(lambda x: (x - 0.3) ** 2 + 1.0, -1.0, 2.0, 1e-10) == pytest.approx(1.0, abs=1e-15)
