"""Source fields: values, continuity, Gauss-law diagnostics."""

import copy
import math
import re

import numpy as np
import pytest

from acsusy import (
    BoundaryPoint,
    Cylinder,
    Slab,
    Sphere,
    boundary_distance,
    charge_density,
    divergence_check,
    efield,
)

RHO = 2.0e6


def test_sphere_interior_field_is_linear():
    cfg = Sphere(rho0=RHO, r0=2.0)
    x = (0.3, -0.5, 0.7)
    expect = 4.0 * math.pi * RHO / 3.0 * np.asarray(x)
    assert np.allclose(efield(cfg, x), expect, rtol=1e-14)


def test_sphere_exterior_matches_enclosed_charge():
    cfg = Sphere(rho0=RHO, r0=2.0)
    x = np.array([3.0, 0.0, 4.0])  # r = 5
    q = 4.0 * math.pi * RHO * cfg.r0**3 / 3.0
    assert np.allclose(efield(cfg, x), q * x / 125.0, rtol=1e-14)


def test_sphere_field_continuous_at_surface():
    cfg = Sphere(rho0=RHO, r0=1.5)
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    inner = efield(cfg, (cfg.r0 - 1e-12) * n)
    outer = efield(cfg, (cfg.r0 + 1e-12) * n)
    assert np.allclose(inner, outer, rtol=1e-9)


def test_slab_interior_and_exterior_values():
    cfg = Slab(rho0=RHO, L=2.0)
    assert np.allclose(efield(cfg, (5.0, -3.0, 0.4)), [0, 0, 4 * math.pi * RHO * 0.4])
    # displayed exterior doubles the face value; strict halves it back
    e_disp = efield(cfg, (0, 0, 3.0))[2]
    e_strict = efield(cfg, (0, 0, 3.0), strict_gauss=True)[2]
    assert e_disp == pytest.approx(4 * math.pi * RHO * cfg.L, rel=1e-14)
    assert e_strict == pytest.approx(2 * math.pi * RHO * cfg.L, rel=1e-14)
    assert efield(cfg, (0, 0, -3.0))[2] == pytest.approx(-e_disp, rel=1e-14)


def test_strict_slab_exterior_is_continuous_displayed_is_not():
    cfg = Slab(rho0=RHO, L=2.0)
    face = efield(cfg, (0, 0, cfg.L / 2))[2]
    just_out_strict = efield(cfg, (0, 0, cfg.L / 2 + 1e-12), strict_gauss=True)[2]
    just_out_disp = efield(cfg, (0, 0, cfg.L / 2 + 1e-12))[2]
    assert just_out_strict == pytest.approx(face, rel=1e-9)
    assert just_out_disp == pytest.approx(2 * face, rel=1e-9)


def test_cylinder_field_is_planar_and_axial_free():
    cfg = Cylinder(rho=RHO, r0=1.0)
    e = efield(cfg, (0.3, 0.4, 7.0))
    assert e[2] == 0.0
    assert np.allclose(efield(cfg, (0.0, 0.0, 1.0)), 0.0)


def test_cylinder_displayed_vs_strict_amplitude():
    cfg = Cylinder(rho=RHO, r0=1.0)
    x = (0.25, 0.0, 0.0)
    assert efield(cfg, x)[0] == pytest.approx(RHO / 2.0 * 0.25, rel=1e-14)
    assert efield(cfg, x, strict_gauss=True)[0] == pytest.approx(
        2 * math.pi * RHO * 0.25, rel=1e-14
    )


def test_divergence_check_strict_is_gauss_consistent():
    h = 1e-5
    for cfg, x in (
        (Sphere(rho0=RHO, r0=1.0), (0.2, 0.1, 0.3)),
        (Sphere(rho0=RHO, r0=1.0), (1.2, 0.0, 1.1)),
        (Slab(rho0=RHO, L=1.0), (0.0, 0.0, 0.2)),
        (Cylinder(rho=RHO, r0=1.0), (0.3, 0.2, 0.0)),
        (Cylinder(rho=RHO, r0=1.0), (1.4, 0.3, 2.0)),
    ):
        defect = divergence_check(cfg, x, h, strict_gauss=True)
        assert abs(defect) < 1e-4 * 4 * math.pi * RHO


def test_divergence_check_sees_displayed_cylinder_defect():
    cfg = Cylinder(rho=RHO, r0=1.0)
    defect = divergence_check(cfg, (0.3, 0.2, 0.0), 1e-5, strict_gauss=False)
    # div of rho*s/2 radial field is rho, short of 4 pi rho
    assert defect == pytest.approx(RHO * (1 - 4 * math.pi), rel=1e-3)


def test_divergence_check_refuses_straddling_stencil():
    cfg = Sphere(rho0=RHO, r0=1.0)
    with pytest.raises(BoundaryPoint):
        divergence_check(cfg, (1.0, 0.0, 0.0), 1e-3)


def test_charge_density_indicator():
    s = Sphere(rho0=RHO, r0=1.0)
    assert charge_density(s, (0.5, 0, 0)) == RHO
    assert charge_density(s, (1.5, 0, 0)) == 0.0
    c = Cylinder(rho=RHO, r0=1.0)
    assert charge_density(c, (0.5, 0, 9.0)) == RHO  # z does not matter
    sl = Slab(rho0=RHO, L=1.0)
    assert charge_density(sl, (8.0, 8.0, 0.49)) == RHO
    assert charge_density(sl, (0.0, 0.0, 0.51)) == 0.0


def test_boundary_distance():
    assert boundary_distance(Sphere(rho0=RHO, r0=2.0), (0, 0, 0.5)) == pytest.approx(1.5)
    assert boundary_distance(Slab(rho0=RHO, L=2.0), (4, 4, 0.2)) == pytest.approx(0.8)
    assert boundary_distance(Cylinder(rho=RHO, r0=1.0), (2, 0, 9)) == pytest.approx(1.0)


def test_configuration_validation():
    with pytest.raises(ValueError):
        Sphere(rho0=RHO, r0=0.0)
    with pytest.raises(ValueError):
        Slab(rho0=RHO, L=-1.0)
    with pytest.raises(ValueError):
        Cylinder(rho=float("inf"), r0=1.0)
    # zero density is allowed (free-particle limiting case)
    Slab(rho0=0.0, L=1.0)


@pytest.mark.parametrize(
    "cfg",
    [Sphere(rho0=RHO, r0=1.0), Slab(rho0=RHO, L=1.0), Cylinder(rho=RHO, r0=1.0)],
    ids=lambda cfg: cfg.kind,
)
def test_sources_are_frozen_values(cfg):
    # the value semantics of the former frozen dataclasses
    cls = type(cfg)
    same = cls(cfg.density, cfg.size)
    assert same == cfg
    assert hash(same) == hash(cfg)
    assert cls(**{cfg.density_name: cfg.density, cfg.size_name: 2.0}) != cfg
    assert repr(cfg) == f"{cls.__name__}({cfg.density_name}=2000000.0, {cfg.size_name}=1.0)"
    assert eval(repr(cfg), {cls.__name__: cls}) == cfg
    assert copy.deepcopy(cfg) == cfg
    with pytest.raises(AttributeError):
        setattr(cfg, cfg.size_name, 2.0)
    with pytest.raises(AttributeError):
        delattr(cfg, cfg.size_name)
    assert cfg.size == 1.0


def test_sources_of_different_kinds_are_unequal():
    assert Sphere(rho0=1.0, r0=1.0) != Cylinder(rho=1.0, r0=1.0)
    assert Sphere(rho0=1.0, r0=1.0) != Slab(rho0=1.0, L=1.0)


@pytest.mark.parametrize(
    "cls,args,message",
    [
        (Sphere, (math.nan, 1.0), "rho0 must be finite"),
        (Sphere, (RHO, 0.0), "r0 must be positive and finite"),
        (Slab, (math.inf, 1.0), "rho0 must be finite"),
        (Slab, (RHO, -1.0), "L must be positive and finite"),
        (Cylinder, (-math.inf, 1.0), "rho must be finite"),
        (Cylinder, (RHO, math.inf), "r0 must be positive and finite"),
    ],
)
def test_invalid_source_arguments_keep_their_messages(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)
