"""Acceptance suite: ten numbered criteria, one test and one line each.

Each test prints "CRITERION n: PASS" with a short summary when it
succeeds (visible under pytest -s; the pytest -v line carries the same
number). Tolerances and runtime caps are part of the criteria and are
asserted, not just reported.
"""

import json
import math
import time

import numpy as np
import pytest

from acsusy import (
    DEFAULT_CONSTANTS,
    Cylinder,
    Sphere,
    RadialProblem,
    bessel_j,
    build_grid_hamiltonian,
    build_susy_pair,
    coupling_eta,
    cylinder_zero_mode,
    find_spectrum,
    kummer_1f1,
    lambda_threshold,
    lowest_eigenvalues,
    richardson_pair,
    slab_zero_mode,
    sphere_zero_mode,
    susy_algebra_check,
    susy_status,
    zero_mode_residual,
)
from acsusy.cli import main
from acsusy.fields import Slab

RHO_REF = 2.0e6  # esu/cm^3, the density every published slab number uses


def _ok(n: int, msg: str) -> None:
    print(f"CRITERION {n}: PASS - {msg}")


def test_criterion_01_slab_bound_matches_published_number():
    t0 = time.perf_counter()
    computed = 4.0 * math.pi * coupling_eta(DEFAULT_CONSTANTS) * RHO_REF
    rel = abs(computed - 15.28) / 15.28
    elapsed = time.perf_counter() - t0
    assert rel < 0.015
    assert elapsed < 1.0
    _ok(1, f"4 pi eta rho = {computed:.6g} cm^-2 vs published 15.28 ({rel * 100:.2f}%)")


def test_criterion_02_critical_line_density_vs_published(tmp_path, capsys):
    # independent hand arithmetic with the frozen constants
    hand = 4.0 * math.pi * 1.5053e-3 / (4.8032e-10 * 1.9130)
    lam = lambda_threshold(DEFAULT_CONSTANTS)
    assert lam == pytest.approx(hand, rel=1e-12)
    assert abs(lam - 2.06e7) <= 0.02e7
    assert main(["reproduce-paper", "--out", str(tmp_path), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    rows = json.loads((tmp_path / "reproduce_paper.json").read_text())["rows"]
    line_row = next(r for r in rows if "line density" in r["quantity"])
    assert line_row["flag"].startswith("MISMATCH")
    _ok(2, f"lambda_min = {lam:.6g} esu/cm; published 60.62e6 flagged MISMATCH")


def test_criterion_03_breaking_dichotomy_random_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    n_cases = 0
    n_unbroken = 0
    for _ in range(220):
        r0 = 10.0 ** float(rng.uniform(-1.0, 1.0))
        magnitude = 10.0 ** float(rng.uniform(4.0, 9.0))
        rho = float(rng.choice([-1.0, 1.0])) * magnitude
        if rng.random() < 0.4:
            cfg = Sphere(rho0=rho, r0=r0)
            expected = "Broken"  # every density, every radius
        else:
            cfg = Cylinder(rho=rho, r0=r0)
            p = -coupling_eta(DEFAULT_CONSTANTS) * rho / 4.0 * r0**2
            expected = "Unbroken" if p < -1.0 else "Broken"
        verdict = susy_status(cfg)
        assert verdict.status == expected
        assert (verdict.status == "Unbroken") == math.isfinite(verdict.norm_value)
        n_cases += 1
        n_unbroken += verdict.status == "Unbroken"
    elapsed = time.perf_counter() - t0
    assert n_cases >= 200
    assert n_unbroken > 10  # the sweep exercises both branches
    assert elapsed < 30.0
    _ok(3, f"{n_cases} configs, {n_unbroken} unbroken, verdict == norm finiteness, {elapsed:.1f}s")


def test_criterion_04_first_order_residuals_three_geometries():
    pts = [float(r) for r in np.linspace(0.013, 4.0, 1000) if abs(r - 1.0) > 2e-3]
    worst = {}
    sphere = Sphere(rho0=RHO_REF, r0=1.0)
    beta_s = coupling_eta(DEFAULT_CONSTANTS) * 4.0 * math.pi / 3.0 * RHO_REF
    worst["sphere"] = zero_mode_residual(
        sphere_zero_mode(beta_s, 1.0), sphere, DEFAULT_CONSTANTS, pts
    )
    cyl = Cylinder(rho=2.0e7, r0=1.0)
    beta_c = -coupling_eta(DEFAULT_CONSTANTS) * 2.0e7 / 4.0
    worst["cylinder"] = zero_mode_residual(
        cylinder_zero_mode(beta_c, 1.0), cyl, DEFAULT_CONSTANTS, pts
    )
    slab = Slab(rho0=RHO_REF, L=1.0)
    k = 0.5 * math.sqrt(4.0 * math.pi * coupling_eta(DEFAULT_CONSTANTS) * RHO_REF)
    zpts = [float(z) for z in np.linspace(-3.0, 3.0, 1000) if abs(abs(z) - 0.5) > 2e-3]
    worst["slab"] = zero_mode_residual(
        slab_zero_mode(k, RHO_REF, 1.0), slab, DEFAULT_CONSTANTS, zpts
    )
    for kind, res in worst.items():
        assert res < 1e-8, f"{kind} residual {res}"
    _ok(4, "max residuals: " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_05_sphere_matching_constant():
    rng = np.random.default_rng(42)
    for _ in range(50):
        beta = float(rng.uniform(-8.0, 8.0))
        r0 = 10.0 ** float(rng.uniform(-0.7, 0.7))
        f = sphere_zero_mode(beta, r0)
        assert f.matching_constants[0] == pytest.approx(
            math.exp(-beta * r0**2 / 2.0), rel=1e-12
        )
    _ok(5, "amplitude ratio equals exp(-beta r0^2/2) to 1e-12 for 50 random (beta, r0)")


def test_criterion_06_dual_method_spectrum_agreement():
    t0 = time.perf_counter()
    gaps = []
    for beta in (-2.5, -3.0520566, -3.5, -4.5, -6.0):
        p = RadialProblem(geometry="cylinder", l=0, w=0, beta=beta, r0=1.0)
        report = find_spectrum(p, n_grid=120, rtol=1e-9)
        assert report.zero_mode is not None
        target = 0.0  # the matched level; bound_states stays empty
        oracle = float(richardson_pair(p, 600, 20.0, 1)["extrapolated"][0])
        rel = abs(target - oracle) / max(abs(target), abs(oracle), abs(beta))
        assert rel < 1e-4
        gaps.append(rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(6, f"5 cylinder configs, worst relative gap {max(gaps):.2e}, {elapsed:.0f}s")


def test_criterion_07_sphere_has_no_bound_states():
    channels = [(0, 0), (1, 1), (1, -2), (2, 2), (2, -3), (3, 3), (3, -4)]
    checked = 0
    for beta in (-10.0, -3.0, 3.0, 10.0):
        for l, w in channels:
            p = RadialProblem(geometry="sphere", l=l, w=w, beta=beta, r0=1.0)
            report = find_spectrum(p, n_grid=100, rtol=1e-8)
            assert len(report.bound_states) == 0
            assert report.zero_mode is None
            assert "NoBoundStates" in report.classification_notes
            checked += 1
    # grid oracle concurs: spectrum bounded below by -1e-6 * scale
    for beta in (-10.0, 10.0):
        for l, w in ((0, 0), (3, 3), (2, -3)):
            p = RadialProblem(geometry="sphere", l=l, w=w, beta=beta, r0=1.0)
            H = build_grid_hamiltonian(p, 400, 8.0)
            lam = float(lowest_eigenvalues(H, 1)[0])
            assert lam >= -1e-6 * H.scale()
    _ok(7, f"{checked} channels over l <= 3, |beta| r0^2 <= 10: NoBoundStates everywhere")


def test_criterion_08_grid_algebra_and_zero_mode_convergence():
    # (a) positive semidefinite anticommutator in both sectors
    for kind, beta, r_max in (("sphere", 3.0, 8.0), ("cylinder", -3.0520566, 20.0)):
        pair = build_susy_pair(kind, beta, 1.0, 400, r_max)
        H = build_grid_hamiltonian(pair.problem, pair.n, pair.r_max)
        chk = susy_algebra_check(pair, H)
        scale = float(pair.h_minus_bands()[0].max())
        assert chk["q2_norm"] == 0.0
        assert chk["min_eig_minus"] >= -1e-9 * scale
        assert chk["min_eig_plus"] >= -1e-9 * scale
    # (b) unbroken cylinder: lowest level -> 0 at second order in h
    p = RadialProblem(geometry="cylinder", l=0, w=0, beta=-3.0520566, r0=1.0)
    lams = [
        float(lowest_eigenvalues(build_grid_hamiltonian(p, n, 20.0), 1)[0])
        for n in (200, 400, 800)
    ]
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    assert 3.2 < ratio < 4.8  # consistent with O(h^2)
    assert abs(lams[2]) < 0.01
    # (c) broken sphere: lowest level stays away from 0 as the box grows
    ps = RadialProblem(geometry="sphere", l=0, w=0, beta=3.0, r0=1.0)
    for r_max in (10.0, 20.0, 40.0):
        H = build_grid_hamiltonian(ps, int(40 * r_max), r_max)
        lam = float(lowest_eigenvalues(H, 1)[0])
        assert lam * r_max**2 > 1.0
    _ok(8, f"PSD both sectors; cylinder order ratio {ratio:.2f}; sphere gap persists")


def test_criterion_09_special_function_identities():
    for z in np.linspace(-30.0, 30.0, 601):
        assert kummer_1f1(1.0, 1.0, float(z)) == pytest.approx(
            math.exp(float(z)), rel=1e-10
        )
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = float(rng.uniform(-8.0, 8.0))
        b = float(rng.uniform(0.3, 9.0))
        z = float(rng.uniform(-40.0, 40.0))
        t1 = (b - a) * kummer_1f1(a - 1.0, b, z)
        t2 = (2.0 * a - b + z) * kummer_1f1(a, b, z)
        t3 = -a * kummer_1f1(a + 1.0, b, z)
        scale = abs(t1) + abs(t2) + abs(t3)
        if scale > 0.0:
            assert abs(t1 + t2 + t3) < 1e-8 * scale
    for _ in range(500):
        nu = int(rng.integers(1, 9))
        x = float(rng.uniform(0.1, 40.0))
        lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
        rhs = 2.0 * nu / x * bessel_j(nu, x)
        scale = abs(lhs) + abs(rhs)
        if scale > 0.0:
            assert abs(lhs - rhs) < 1e-8 * scale
    _ok(9, "Kummer exponential identity, contiguous relation, Bessel recurrence all hold")


def test_criterion_10_band_edge_thickness_independence():
    bounds = [
        slab_zero_mode(0.0, RHO_REF, L).params["k_bound_sq"] for L in (0.1, 1.0, 10.0)
    ]
    assert bounds[0] == bounds[1] == bounds[2]  # exact float equality
    k_max = math.sqrt(bounds[0])
    _ok(10, f"k_max = {k_max:.6g} cm^-1 identical for L = 0.1, 1, 10 cm")
