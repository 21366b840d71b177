"""Special functions against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from acsusy import (
    InvalidChannel,
    PoleB,
    RangeExceeded,
    bessel_j,
    kummer_1f1,
    spin_orbit_eigenvalue,
)

mpmath.mp.dps = 50


def test_kummer_exponential_identity():
    for z in np.linspace(-30.0, 30.0, 121):
        assert kummer_1f1(1.0, 1.0, float(z)) == pytest.approx(
            math.exp(float(z)), rel=1e-10
        )


def test_kummer_trivial_arguments():
    assert kummer_1f1(0.0, 2.5, 17.0) == 1.0
    assert kummer_1f1(3.7, 1.2, 0.0) == 1.0


def test_kummer_against_mpmath():
    # the documented range: |z| <= 2e4, here with a in [-20, 20] and
    # b in [0.3, 20]; values beyond float64 must be infinite with the
    # function's sign
    rng = np.random.default_rng(20260816)
    finite = 0
    for _ in range(3000):
        a = float(rng.uniform(-20.0, 20.0))
        b = float(rng.uniform(0.3, 20.0))
        z = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, math.log10(2.0e4)))
        exact = mpmath.hyp1f1(a, b, z)
        got = kummer_1f1(a, b, z)
        if abs(exact) > mpmath.mpf(np.finfo(float).max):
            assert got == math.copysign(math.inf, float(mpmath.sign(exact))), (a, b, z)
            continue
        finite += 1
        assert got == pytest.approx(float(exact), rel=3e-11, abs=1e-280), (a, b, z)
    assert finite > 2500


def test_kummer_polynomial_case():
    # a = -n terminates: 1F1(-2, b, z) = 1 - 2z/b + z^2/(b(b+1))
    b, z = 1.5, 4.0
    want = 1 - 2 * z / b + z * z / (b * (b + 1))
    assert kummer_1f1(-2.0, b, z) == pytest.approx(want, rel=1e-12)


def test_kummer_contiguous_relation():
    # (b-a) M(a-1,b,z) + (2a-b+z) M(a,b,z) - a M(a+1,b,z) = 0
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = float(rng.uniform(-5.0, 5.0))
        b = float(rng.uniform(0.5, 8.0))
        z = float(rng.uniform(-25.0, 25.0))
        m_m = kummer_1f1(a - 1, b, z)
        m_0 = kummer_1f1(a, b, z)
        m_p = kummer_1f1(a + 1, b, z)
        lhs = (b - a) * m_m + (2 * a - b + z) * m_0 - a * m_p
        scale = abs((b - a) * m_m) + abs((2 * a - b + z) * m_0) + abs(a * m_p)
        assert abs(lhs) <= 1e-8 * max(scale, 1e-300)


def test_kummer_domain_errors():
    with pytest.raises(PoleB):
        kummer_1f1(1.0, 0.0, 1.0)
    with pytest.raises(PoleB):
        kummer_1f1(1.0, -3.0, 1.0)
    with pytest.raises(RangeExceeded):
        kummer_1f1(1.0, 1.0, 2.5e4)
    with pytest.raises(ValueError):
        kummer_1f1(float("nan"), 1.0, 1.0)


def test_bessel_small_arguments():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    # leading behavior (x/2)^nu/nu!
    assert bessel_j(2, 1e-4) == pytest.approx((0.5e-4) ** 2 / 2, rel=1e-7)


def test_bessel_against_mpmath_both_branches():
    # series branch (x <= 8) and downward-recurrence branch (x > 8)
    for nu in range(0, 9):
        for x in (0.3, 2.0, 7.7, 7.99, 8.01, 11.9, 19.5, 44.0, 87.3):
            want = float(mpmath.besselj(nu, x))
            assert bessel_j(nu, x) == pytest.approx(want, rel=1e-11, abs=1e-14), (nu, x)


def test_bessel_three_term_recurrence():
    rng = np.random.default_rng(11)
    for _ in range(200):
        nu = int(rng.integers(1, 10))
        x = float(rng.uniform(0.1, 60.0))
        lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
        rhs = (2.0 * nu / x) * bessel_j(nu, x)
        scale = abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-8 * max(scale, 1e-30)


def test_bessel_sum_rule():
    # J0^2 + 2 sum_{k>=1} Jk^2 = 1
    for x in (0.5, 3.0, 10.0, 25.0):
        total = bessel_j(0, x) ** 2 + 2 * sum(bessel_j(k, x) ** 2 for k in range(1, 60))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_bessel_rejects_bad_orders():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -2.0)


def test_spin_orbit_eigenvalue_both_alignments():
    assert spin_orbit_eigenvalue(0, 0.5) == 0
    assert spin_orbit_eigenvalue(1, 1.5) == 1
    assert spin_orbit_eigenvalue(1, 0.5) == -2
    assert spin_orbit_eigenvalue(3, 3.5) == 3
    assert spin_orbit_eigenvalue(3, 2.5) == -4


def test_spin_orbit_eigenvalue_rejects_bad_channels():
    with pytest.raises(InvalidChannel):
        spin_orbit_eigenvalue(0, -0.5)  # no j = l - 1/2 at l = 0
    with pytest.raises(InvalidChannel):
        spin_orbit_eigenvalue(2, 2.0)
    with pytest.raises(InvalidChannel):
        spin_orbit_eigenvalue(-1, 0.5)
