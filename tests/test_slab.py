"""Slab ground family: planar Bessel factor, degeneracy band, residuals."""

import math

import numpy as np
import pytest

from acsusy.errors import InadmissibleK, InvalidChannel, NonconfiningSign
from acsusy.fields import Slab
from acsusy.slab import build_slab_solution, degeneracy_family, slab_residual
from acsusy.specfun import bessel_j

RHO = 2.0e6  # esu/cm^3


def slab_cfg(L=1.0, rho0=RHO):
    return Slab(rho0=rho0, L=L)


def k_edge(rho0=RHO):
    return math.sqrt(slab_cfg(rho0=rho0).k_bound_sq())


def test_ground_family_planar_wavenumber_equals_k():
    # spectral parameter vanishes on the ground family, so k' = k
    cfg = slab_cfg()
    for k in (0.0, 1.2, 0.9 * k_edge()):
        sol = build_slab_solution(0, k, cfg)
        assert sol.k == k
        assert sol.radial_value(0.7) == bessel_j(0, k * 0.7)


def test_radial_factor_satisfies_bessel_ode():
    # f'' + f'/r + (k'^2 - nu^2/r^2) f = 0, checked by central differences
    cfg = slab_cfg()
    k = 0.5 * k_edge()
    for nu, r in [(0, 1.3), (1, 0.3), (1, 0.9), (2, 2.1)]:
        sol = build_slab_solution(nu, k, cfg)
        h = 1e-4
        f0 = sol.radial_value(r)
        fp = (sol.radial_value(r + h) - sol.radial_value(r - h)) / (2 * h)
        fpp = (sol.radial_value(r + h) - 2 * f0 + sol.radial_value(r - h)) / h**2
        res = fpp + fp / r + (k * k - nu * nu / (r * r)) * f0
        scale = abs(fpp) + abs(fp / r) + (k * k + nu * nu / (r * r)) * abs(f0)
        assert abs(res) < 1e-6 * scale


def test_radial_factor_recurrence_across_orders():
    # 2 nu J_nu(x) / x = J_{nu-1}(x) + J_{nu+1}(x) ties different orders
    cfg = slab_cfg()
    k = 1.7
    sols = [build_slab_solution(nu, k, cfg) for nu in range(4)]
    for nu in (1, 2):
        for r in (0.4, 1.1, 2.6):
            x = k * r
            lhs = 2 * nu / x * sols[nu].radial_value(r)
            rhs = sols[nu - 1].radial_value(r) + sols[nu + 1].radial_value(r)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_radial_factor_at_origin():
    cfg = slab_cfg()
    assert build_slab_solution(0, 1.0, cfg).radial_value(0.0) == 1.0
    assert build_slab_solution(1, 1.0, cfg).radial_value(0.0) == 0.0
    assert build_slab_solution(3, 1.0, cfg).radial_value(0.0) == 0.0


def test_band_edge_is_thickness_independent():
    fams = [degeneracy_family(slab_cfg(L=L), n_samples=6) for L in (0.1, 1.0, 10.0)]
    assert fams[0] == fams[1] == fams[2]


def test_degeneracy_family_samples():
    cfg = slab_cfg()
    edge = k_edge()
    fam = degeneracy_family(cfg, n_samples=8)
    assert len(fam) == 8
    assert fam[0] == 0.0
    assert all(b > a for a, b in zip(fam, fam[1:]))
    assert all(k < edge for k in fam)  # endpoint k_max itself is excluded
    assert fam[-1] == pytest.approx(edge * 7 / 8, rel=1e-12)
    assert degeneracy_family(cfg, n_samples=1) == [0.0]
    with pytest.raises(ValueError):
        degeneracy_family(cfg, n_samples=0)


def test_degeneracy_family_wrong_sign_density():
    with pytest.raises(NonconfiningSign):
        degeneracy_family(slab_cfg(rho0=-RHO))
    with pytest.raises(NonconfiningSign):
        degeneracy_family(slab_cfg(rho0=0.0))


def test_invalid_azimuthal_numbers():
    cfg = slab_cfg()
    with pytest.raises(InvalidChannel):
        build_slab_solution(True, 1.0, cfg)
    with pytest.raises(InvalidChannel):
        build_slab_solution(1.5, 1.0, cfg)
    with pytest.raises(InvalidChannel):
        build_slab_solution(-1, 1.0, cfg)
    sol = build_slab_solution(np.int64(2), 1.0, cfg)
    assert sol.nu == 2


def test_inadmissible_k_propagates():
    cfg = slab_cfg()
    with pytest.raises(InadmissibleK):
        build_slab_solution(0, k_edge() * (1 + 1e-9), cfg)
    with pytest.raises(InadmissibleK):
        build_slab_solution(0, 1.5 * k_edge(), cfg)
    with pytest.raises(ValueError):
        build_slab_solution(0, -0.5, cfg)


def test_residual_structure_displayed_vs_consistent():
    cfg = slab_cfg()
    k = 0.5 * k_edge()
    disp = slab_residual(build_slab_solution(1, k, cfg), cfg)
    cons = slab_residual(build_slab_solution(1, k, cfg, consistent_gaussian=True), cfg)
    # displayed Gaussian has the wrong interior rate: O(1) leftover
    assert disp["interior"] > 0.9
    assert disp["interior"] <= 1.0
    # both exterior exponentials solve their equation identically
    assert disp["exterior"] == 0.0
    assert cons["exterior"] == 0.0
    # consistent rate leaves only the constant -k^2 inside
    assert cons["interior"] == pytest.approx(0.0527154543940, rel=1e-6)
    assert cons["interior"] < disp["interior"]


def test_residual_free_case_exact():
    cfg = slab_cfg(rho0=0.0)
    sol = build_slab_solution(0, 0.0, cfg)
    assert sol.z_profile.params["variant"] == "free"
    assert slab_residual(sol, cfg) == {"interior": 0.0, "exterior": 0.0}


def test_tabulate_shapes_and_symmetry():
    cfg = slab_cfg()
    sol = build_slab_solution(0, 1.0, cfg)
    zs = sol.tabulate_z(51, 2.0)
    assert len(zs) == 51
    assert zs[0][0] == -2.0 and zs[-1][0] == 2.0
    vals = [v for _, v in zs]
    for a, b in zip(vals, vals[::-1]):  # even profile in z
        assert a == pytest.approx(b, rel=1e-12)
    rs = sol.tabulate_radial(41, 5.0)
    assert len(rs) == 41
    assert rs[0][0] == 0.0 and rs[-1][0] == 5.0
