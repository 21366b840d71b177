"""Grid cross-check route: discretization, eigenvalues, SUSY algebra."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from acsusy import (
    GridTooCoarse,
    RadialProblem,
    build_grid_hamiltonian,
    build_susy_pair,
    cylinder_zero_mode,
    eigenvector,
    grid_mode_overlap,
    lowest_eigenvalues,
    richardson_pair,
    susy_algebra_check,
)


def free_problem(geometry="sphere", l=0):
    return RadialProblem(geometry=geometry, l=l, w=l, beta=0.0, r0=1.0)


def test_box_spectrum_sphere_l0():
    # beta = 0, l = 0 on [0, pi] with an outer wall: eigenvalues m^2
    H = build_grid_hamiltonian(free_problem(), 2000, math.pi)
    eigs = lowest_eigenvalues(H, 3)
    for m, lam in enumerate(eigs, start=1):
        assert lam == pytest.approx(m * m, rel=1e-5)


def test_richardson_removes_h2_error():
    p = free_problem()
    pair = richardson_pair(p, 800, math.pi, 2)
    assert pair["extrapolated"][0] == pytest.approx(1.0, abs=1e-9)
    assert pair["extrapolated"][1] == pytest.approx(4.0, abs=1e-8)


def test_convergence_order_is_two():
    p = RadialProblem(geometry="cylinder", l=0, w=0, beta=-3.0, r0=1.0)
    lams = [lowest_eigenvalues(build_grid_hamiltonian(p, n, 20.0), 1)[0]
            for n in (200, 400, 800)]
    # truncation level at r_max = 20 is ~1e-6, far below the h^2 term here
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    assert ratio == pytest.approx(4.0, abs=0.25)


def test_matches_dense_eigensolver():
    # lowest_eigenvalues is LAPACK bisection on the bands; the reference
    # is a dense symmetric eigensolve of the assembled matrix
    p = RadialProblem(geometry="sphere", l=1, w=-2, beta=1.5, r0=1.0)
    H = build_grid_hamiltonian(p, 500, 10.0)
    mine = lowest_eigenvalues(H, 5)
    dense = np.diag(H.diag) + np.diag(H.offdiag, 1) + np.diag(H.offdiag, -1)
    ref = np.linalg.eigvalsh(dense)[:5]
    assert np.allclose(mine, ref, rtol=0.0, atol=1e-12 * H.scale())


def test_interior_oscillator_spacing():
    # deep aligned sphere channel: low levels sit in the interior
    # harmonic well, spacing approaches 4 beta
    p = RadialProblem(geometry="sphere", l=0, w=0, beta=20.0, r0=2.0)
    H = build_grid_hamiltonian(p, 2000, 4.0)
    eigs = lowest_eigenvalues(H, 3)
    assert abs(eigs[0]) < 1e-2  # ground level of the well sits near zero
    gaps = np.diff(eigs)
    assert gaps[0] == pytest.approx(4 * 20.0, rel=2e-2)
    assert gaps[1] == pytest.approx(4 * 20.0, rel=2e-2)


def test_eigenvector_matches_closed_form_zero_mode():
    p = RadialProblem(geometry="cylinder", l=0, w=0, beta=-3.0, r0=1.0)
    H = build_grid_hamiltonian(p, 800, 20.0)
    overlap = grid_mode_overlap(H, cylinder_zero_mode(-3.0, 1.0))
    assert overlap > 0.999


def test_eigenvector_is_normalized_eigenpair():
    p = RadialProblem(geometry="sphere", l=0, w=0, beta=1.0, r0=1.0)
    H = build_grid_hamiltonian(p, 400, 8.0)
    lam = lowest_eigenvalues(H, 1)[0]
    v = eigenvector(H)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    Hv = H.diag * v
    Hv[:-1] += H.offdiag * v[1:]
    Hv[1:] += H.offdiag * v[:-1]
    assert np.linalg.norm(Hv - lam * v) < 1e-6 * H.scale()


def test_grid_too_coarse_guard():
    p = RadialProblem(geometry="sphere", l=0, w=0, beta=100.0, r0=1.0)
    with pytest.raises(GridTooCoarse):
        build_grid_hamiltonian(p, 100, 10.0)
    build_grid_hamiltonian(p, 2000, 5.0)  # fine resolution passes
    # n = 1573 is the smallest grid with h^2 max|V| <= 0.1 at r_max = 5
    # (0.0999 there, 0.101 at n = 1572)
    build_grid_hamiltonian(p, 1573, 5.0)
    with pytest.raises(GridTooCoarse, match=r"= 0\.101 > 0\.1"):
        build_grid_hamiltonian(p, 1572, 5.0)


def test_grid_handles_centrifugal_channels():
    # the l > 0 singular part must not trip the resolution guard
    p = RadialProblem(geometry="sphere", l=3, w=3, beta=0.0, r0=1.0)
    H = build_grid_hamiltonian(p, 300, math.pi)
    # lowest l = 3 box state: (x_{3,1}/r_max)^2 with j_3 zero x_31 = 6.9879...
    lam = lowest_eigenvalues(H, 1)[0]
    assert lam == pytest.approx((6.987932 / math.pi) ** 2, rel=5e-3)


def algebra_check(pair):
    return susy_algebra_check(pair, build_grid_hamiltonian(pair.problem, pair.n, pair.r_max))


def test_susy_pair_gram_structure():
    pair = build_susy_pair("cylinder", -2.5, 1.0, 300, 15.0)
    chk = algebra_check(pair)
    assert chk["q2_norm"] == 0.0
    assert chk["nonneg_spectrum_flag"]
    scale = pair.h_minus_bands()[0].max()
    assert chk["min_eig_minus"] > -1e-9 * scale
    assert chk["min_eig_plus"] > -1e-9 * scale


def test_anticommutator_agrees_with_flux_hamiltonian():
    # drift-free case: the Gram product reproduces the kinetic bands to
    # rounding (sqrt(x)^2 vs x costs one ulp per entry)
    pair0 = build_susy_pair("cylinder", 0.0, 1.0, 200, 10.0)
    assert algebra_check(pair0)["anticommutator_vs_h_residual"] < 1e-14
    # with drift the band difference is O(W^2 h^2) relative
    pair = build_susy_pair("cylinder", -3.0, 1.0, 400, 20.0)
    res = algebra_check(pair)["anticommutator_vs_h_residual"]
    assert res < 2e-2
    finer = build_susy_pair("cylinder", -3.0, 1.0, 1600, 20.0)
    res_fine = algebra_check(finer)["anticommutator_vs_h_residual"]
    assert res_fine < res / 8  # shrinks at second order


def test_algebra_check_refuses_a_grid_of_another_channel():
    pair = build_susy_pair("cylinder", -3.0, 1.0, 200, 20.0)
    for p, n, r_max in ((pair.problem, 400, 20.0), (pair.problem, 200, 10.0),
                        (RadialProblem("cylinder", 0, 0, -2.0, 1.0), 200, 20.0)):
        with pytest.raises(ValueError, match="flux assembly"):
            susy_algebra_check(pair, build_grid_hamiltonian(p, n, r_max))


def test_partner_spectra_share_nonzero_levels():
    # SUSY pairing: A is square bidiagonal here, so A^T A and A A^T are
    # similar and their spectra coincide elementwise, near-zero level
    # included (the continuum staggering needs a non-square factor)
    pair = build_susy_pair("cylinder", -2.0, 1.0, 600, 15.0)
    dm, om = pair.h_minus_bands()
    dp, op = pair.h_plus_bands()
    em = eigh_tridiagonal(dm, om, select="i", select_range=(0, 4))[0]
    ep = eigh_tridiagonal(dp, op, select="i", select_range=(0, 4))[0]
    scale = dm.max()
    assert em[0] < 1e-4 * scale  # the discretized zero mode
    for a, b in zip(em, ep):
        assert a == pytest.approx(b, abs=1e-8 * scale)


def test_richardson_payload_shape():
    p = free_problem("cylinder")
    out = richardson_pair(p, 150, 10.0, 2)
    assert out["n"] == 150
    assert len(out["eigs_n"]) == 2
    assert len(out["eigs_2n"]) == 2
    assert len(out["extrapolated"]) == 2


def test_grid_validation():
    p = free_problem()
    with pytest.raises(ValueError):
        build_grid_hamiltonian(p, 50, 10.0)  # n too small
    with pytest.raises(ValueError):
        build_grid_hamiltonian(p, 200, 0.5)  # r_max inside the source
    H = build_grid_hamiltonian(p, 200, 10.0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(H, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(H, 11)
