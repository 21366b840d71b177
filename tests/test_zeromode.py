"""Closed-form ground profiles and the normalizability verdict."""

import math

import mpmath
import numpy as np
import pytest

from acsusy import (
    Cylinder,
    DEFAULT_CONSTANTS,
    InadmissibleK,
    NonconfiningSign,
    Slab,
    Sphere,
    beta_cylinder,
    coupling_eta,
    cylinder_zero_mode,
    lambda_threshold,
    norm_integral,
    slab_zero_mode,
    sphere_zero_mode,
    susy_status,
    zero_mode_residual,
)


# --- sphere -----------------------------------------------------------

def test_sphere_value_continuity_and_matching_constant():
    beta, r0 = 2.3, 1.4
    f = sphere_zero_mode(beta, r0)
    d = 1e-9 * r0
    assert f(r0 - d) == pytest.approx(f(r0 + d), rel=1e-7)
    # ratio of interior to exterior amplitude
    assert f.matching_constants[0] == pytest.approx(math.exp(-beta * r0**2 / 2), rel=1e-14)


def test_sphere_amplitude_ratio_over_random_couplings():
    rng = np.random.default_rng(3)
    for _ in range(50):
        beta = float(rng.uniform(-6.0, 6.0))
        r0 = float(rng.uniform(0.2, 3.0))
        f = sphere_zero_mode(beta, r0)
        assert f.matching_constants[0] == pytest.approx(
            math.exp(-beta * r0**2 / 2.0), rel=1e-12
        )


def test_sphere_mode_has_the_documented_derivative_kink():
    # the displayed two-piece mode is value-continuous but its log-slope
    # jumps by exactly 2|beta| r0 at the surface; kept verbatim
    beta, r0 = 1.7, 1.1
    f = sphere_zero_mode(beta, r0)
    inner = f.drift_at(r0 * (1 - 1e-12))
    outer = f.drift_at(r0 * (1 + 1e-12))
    assert inner == pytest.approx(-beta * r0, rel=1e-9)
    assert outer == pytest.approx(+beta * r0, rel=1e-9)
    assert abs(inner - outer) == pytest.approx(2 * abs(beta) * r0, rel=1e-9)


def test_sphere_norm_always_divergent():
    for beta in (-4.0, -0.3, 0.8, 5.0):
        rep = norm_integral(sphere_zero_mode(beta, 1.0), 50.0)
        assert rep.verdict == "Divergent"
        assert math.isinf(rep.value)
        assert rep.tail_exponent == 2.0  # constant tail under r^2 dr


# --- cylinder ---------------------------------------------------------

def test_cylinder_mode_is_c1_at_surface():
    beta, r0 = -2.6, 0.9
    f = cylinder_zero_mode(beta, r0)
    d = 1e-9 * r0
    assert f(r0 - d) == pytest.approx(f(r0 + d), rel=1e-7)
    assert f.drift_at(r0 - d) == pytest.approx(f.drift_at(r0 + d), rel=1e-6)
    assert f.drift_at(r0) == pytest.approx(beta * r0, rel=1e-12)


def test_cylinder_tail_exponent_and_norm_value():
    # beta r0^2 = -3: interior (1 - e^{-3})/6, exterior e^{-3}/4 under r dr
    f = cylinder_zero_mode(-3.0, 1.0)
    assert f.d == 1
    assert f.tail_power == pytest.approx(-3.0)
    rep = norm_integral(f, 200.0)
    want = (1 - math.exp(-3.0)) / 6.0 + math.exp(-3.0) / 4.0
    assert rep.verdict == "Finite"
    assert rep.value == pytest.approx(want, rel=1e-6)


def test_cylinder_norm_threshold_at_tail_exponent():
    # tail r^{2p+1}: finite iff 2p + 1 < -1 iff p < -1
    assert norm_integral(cylinder_zero_mode(-1.2, 1.0), 100.0).verdict == "Finite"
    assert norm_integral(cylinder_zero_mode(-0.8, 1.0), 100.0).verdict == "Divergent"


def test_tail_exponent_is_2q_plus_d_for_every_profile_kind():
    # |phi|^2 r^d ~ r^(2q + d) for a tail phi ~ r^q: the sphere's constant
    # tail in r^2 dr, the cylinder's r^p in r dr, the slab's exponential
    # and the free slab's constant on the line
    eta = coupling_eta(DEFAULT_CONSTANTS)
    k = 0.5 * math.sqrt(4.0 * math.pi * eta * 2.0e6)
    cases = [
        (sphere_zero_mode(0.7, 1.0), 2.0, "Divergent"),
        (cylinder_zero_mode(-3.0, 1.0), 2 * -3.0 + 1, "Finite"),
        (cylinder_zero_mode(-0.8, 1.0), 2 * -0.8 + 1, "Divergent"),
        (slab_zero_mode(k, 2.0e6, 1.0), -math.inf, "Finite"),
        (slab_zero_mode(0.0, 0.0, 1.0), 0.0, "Divergent"),
    ]
    for f, exponent, verdict in cases:
        rep = norm_integral(f, 20.0)
        assert rep.tail_exponent == exponent, f.params
        assert rep.verdict == verdict, f.params


def test_truncated_norms_match_mpmath_quadrature():
    # the closed-form truncated norms against adaptive quadrature of the
    # profiles' own region functions, split at every boundary
    eta = coupling_eta(DEFAULT_CONSTANTS)
    cases = [(cylinder_zero_mode(b, r0), 20.0 * r0, lambda x: x)
             for b, r0 in ((-3.0, 1.0), (-0.05, 7.0), (-300.0, 0.2))]
    for rho0, L, frac in ((2.0e6, 1.0, 0.5), (3.0e4, 6.0, 0.9), (1.0e8, 0.2, 0.1)):
        k = frac * math.sqrt(4.0 * math.pi * eta * rho0)
        for consistent in (False, True):
            f = slab_zero_mode(k, rho0, L, consistent_gaussian=consistent)
            cases.append((f, 12.0 * L, lambda x: 1.0))
    for f, r_max, weight in cases:
        total = 0.0
        for reg in f.regions:
            lo = max(reg.lo, -r_max if f.d == 0 else 0.0)
            hi = min(reg.hi, r_max)
            with mpmath.workdps(20):
                total += mpmath.quad(lambda x: reg.evaluate(float(x)) ** 2 * weight(float(x)),
                                     mpmath.linspace(lo, hi, 40))
        rep = norm_integral(f, r_max)
        assert rep.verdict == "Finite"
        assert rep.value == pytest.approx(float(total), rel=1e-9), f.params


def test_norm_integral_requires_wide_window():
    with pytest.raises(ValueError):
        norm_integral(cylinder_zero_mode(-3.0, 1.0), 5.0)


# --- slab -------------------------------------------------------------

def test_slab_printed_pieces_and_continuity_defect():
    eta = coupling_eta(DEFAULT_CONSTANTS)
    rho0, L = 2.0e6, 1.0
    k = 1.0
    f = slab_zero_mode(k, rho0, L)
    assert f.params["variant"] == "as_displayed"
    # displayed exterior was written for half-width L: pieces meet at
    # |z| = L, so at |z| = L/2 there is a recorded value jump
    assert len(f.continuity_defects) == 2
    assert max(f.continuity_defects) > 1e-3
    assert f.params["k_bound_sq"] == pytest.approx(4 * math.pi * eta * rho0, rel=1e-13)


def test_slab_consistent_variant_is_value_matched():
    f = slab_zero_mode(1.0, 2.0e6, 1.0, consistent_gaussian=True)
    assert max(f.continuity_defects) < 1e-12
    d = 1e-10
    assert f(0.5 - d) == pytest.approx(f(0.5 + d), rel=1e-7)


def test_slab_admissibility_window():
    rho0 = 2.0e6
    k_max = math.sqrt(4 * math.pi * coupling_eta(DEFAULT_CONSTANTS) * rho0)
    slab_zero_mode(0.999 * k_max, rho0, 1.0)  # fine
    with pytest.raises(InadmissibleK):
        slab_zero_mode(k_max * (1 + 1e-9), rho0, 1.0)
    with pytest.raises(InadmissibleK):
        slab_zero_mode(1.5 * k_max, rho0, 1.0)
    with pytest.raises(NonconfiningSign):
        slab_zero_mode(0.5, -rho0, 1.0)


def test_slab_free_particle_special_case():
    f = slab_zero_mode(0.0, 0.0, 1.0)
    assert f.params["variant"] == "free"
    for z in (-3.0, 0.0, 2.5):
        assert f(z) == 1.0
        assert f.drift_at(z) == 0.0


# --- first-order equation residuals -----------------------------------

def test_first_order_residual_small_everywhere():
    rng = np.random.default_rng(5)
    r0 = 1.0
    pts = [float(r) for r in np.linspace(0.02, 4.0, 400) if abs(r - r0) > 5e-3]
    sphere = Sphere(rho0=2.0e6, r0=r0)
    res = zero_mode_residual(sphere_zero_mode(2.0, r0), sphere, DEFAULT_CONSTANTS, pts)
    assert res < 1e-8
    cyl = Cylinder(rho=2.0e7, r0=r0)
    res = zero_mode_residual(cylinder_zero_mode(-3.0, r0), cyl, DEFAULT_CONSTANTS, pts)
    assert res < 1e-8
    del rng


def test_residual_rejects_interface_samples():
    f = sphere_zero_mode(1.0, 1.0)
    with pytest.raises(ValueError):
        zero_mode_residual(f, Sphere(rho0=2.0e6, r0=1.0), DEFAULT_CONSTANTS, [1.0])


# --- verdicts ----------------------------------------------------------

def test_sphere_verdict_always_broken():
    for rho0 in (1.0e3, 2.0e6, 9.0e9):
        for r0 in (0.1, 1.0, 10.0):
            v = susy_status(Sphere(rho0=rho0, r0=r0), DEFAULT_CONSTANTS)
            assert v.status == "Broken"
            assert math.isinf(v.norm_value)


def test_cylinder_verdict_tracks_line_density_threshold():
    lam_c = lambda_threshold(DEFAULT_CONSTANTS)
    for frac, expect in ((0.5, "Broken"), (0.99, "Broken"), (1.01, "Unbroken"), (4.0, "Unbroken")):
        lam = frac * lam_c
        for r0 in (0.3, 1.0, 2.5):
            rho = lam / (math.pi * r0**2)
            v = susy_status(Cylinder(rho=rho, r0=r0), DEFAULT_CONSTANTS)
            assert v.status == expect, (frac, r0)
            # verdict must match norm finiteness exactly
            assert (v.status == "Unbroken") == math.isfinite(v.norm_value)


def test_cylinder_verdict_depends_only_on_line_density():
    lam = 1.7 * lambda_threshold(DEFAULT_CONSTANTS)
    configs = [Cylinder(rho=lam / (math.pi * r0**2), r0=r0) for r0 in (0.2, 1.0, 5.0)]
    keys = set()
    for cfg in configs:
        v = susy_status(cfg, DEFAULT_CONSTANTS)
        beta = beta_cylinder(cfg.rho, DEFAULT_CONSTANTS)
        keys.add((v.status, round(beta * cfg.r0**2, 10)))
    assert len(keys) == 1  # same tail power, same verdict


def test_slab_verdict():
    v = susy_status(Slab(rho0=2.0e6, L=1.0), DEFAULT_CONSTANTS)
    assert v.status == "Unbroken"
    assert math.isfinite(v.norm_value)
    v0 = susy_status(Slab(rho0=0.0, L=1.0), DEFAULT_CONSTANTS)
    assert v0.status == "Broken"
    vneg = susy_status(Slab(rho0=-2.0e6, L=1.0), DEFAULT_CONSTANTS)
    assert vneg.status == "Broken"
