"""Channel ODEs: potentials, shooting, matching, spectra."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import sparse, special
from scipy.integrate import solve_ivp

from acsusy import oracle, radial
from acsusy import (
    Cylinder,
    InvalidChannel,
    NoDecaySeed,
    Overflow,
    RangeExceeded,
    RadialProblem,
    Sphere,
    coupling_eta,
    cylinder_zero_mode,
    effective_potential,
    efield,
    find_spectrum,
    frobenius_exponent,
    shoot_exterior,
    shoot_interior,
    superpotential,
)
from acsusy.radial import (
    BoundState,
    SpectrumReport,
    _auto_epsilon_lo,
    _exterior_zero_energy,
    _scan_sign_changes,
)


def sphere_problem(l=0, w=None, beta=1.0, r0=1.0):
    return RadialProblem(geometry="sphere", l=l, w=l if w is None else w, beta=beta, r0=r0)


def cylinder_problem(l=0, w=None, beta=-2.0, r0=1.0):
    return RadialProblem(geometry="cylinder", l=l, w=l if w is None else w, beta=beta, r0=r0)


# the spectrum command's default (l, w) channels
SPHERE_DEFAULTS = ((0, 0), (1, 1), (1, -2), (2, 2), (2, -3))
CYLINDER_DEFAULTS = ((0, 0), (1, 1), (1, -1), (2, 2), (2, -2))


# --- problem validation -------------------------------------------------

def test_channel_validation():
    with pytest.raises(InvalidChannel):
        RadialProblem(geometry="sphere", l=1, w=0, beta=1.0, r0=1.0)
    RadialProblem(geometry="sphere", l=1, w=-2, beta=1.0, r0=1.0)
    with pytest.raises(InvalidChannel):
        RadialProblem(geometry="cylinder", l=2, w=1, beta=1.0, r0=1.0)
    RadialProblem(geometry="cylinder", l=2, w=-2, beta=1.0, r0=1.0)
    with pytest.raises(ValueError):
        RadialProblem(geometry="sphere", l=0, w=0, beta=1.0, r0=-1.0)
    with pytest.raises(ValueError):
        RadialProblem(geometry="moebius", l=0, w=0, beta=1.0, r0=1.0)
    # the one rule |2w + d - 1| = 2l + d - 1 admits exactly the Dirac
    # channels w = l, -(l+1) of the ball and w = +-nu of the cylinder
    allowed = {"sphere": lambda l, w: w in (l, -(l + 1)), "cylinder": lambda l, w: abs(w) == l}
    for geometry, l, w in itertools.product(allowed, range(5), range(-6, 7)):
        if allowed[geometry](l, w):
            assert RadialProblem(geometry=geometry, l=l, w=w, beta=1.0, r0=1.0).w == w
        else:
            with pytest.raises(InvalidChannel):
                RadialProblem(geometry=geometry, l=l, w=w, beta=1.0, r0=1.0)


def test_frobenius_exponents():
    # psi ~ r^(l+1) in r^2 dr, r^(nu+1/2) in r dr
    for l in range(4):
        for w in {l, -(l + 1)}:
            assert frobenius_exponent(sphere_problem(l=l, w=w)) == l + 1.0
        for w in {l, -l}:
            assert frobenius_exponent(cylinder_problem(l=l, w=w)) == l + 0.5


# --- effective potentials ------------------------------------------------

def test_sphere_potential_piecewise_values():
    # interior constant -2 beta (w + 3/2), by hand: the aligned channel
    # is attractive for beta > 0; then every default channel at both signs
    r0, r_in, r_out = 1.5, 0.5, 3.0
    cases = [(1, 1, 2.0, -10.0), (1, -2, 2.0, 2.0)]
    for (l, w), beta in itertools.product(SPHERE_DEFAULTS, (2.0, -2.0)):
        cases.append((l, w, beta, -2.0 * beta * (w + 1.5)))
    for l, w, beta, shift in cases:
        p = sphere_problem(l=l, w=w, beta=beta, r0=r0)
        cent = l * (l + 1)
        want_in = cent / r_in**2 + shift + beta**2 * r_in**2
        assert effective_potential(p, r_in) == pytest.approx(want_in, rel=1e-13), (l, w)
        want_out = (
            cent / r_out**2
            - 2 * beta * w * r0**3 / r_out**3
            + beta**2 * r0**6 / r_out**4
        )
        assert effective_potential(p, r_out) == pytest.approx(want_out, rel=1e-13), (l, w)


def test_cylinder_potential_piecewise_values():
    # interior constant +2 beta (w + 1), by hand; it vanishes at w = -1
    r_in, r_out = 0.25, 4.0
    cases = [(1, -1, -2.0, 0.0), (0, 0, -3.0, -6.0), (1, -1, -3.0, 0.0), (1, 1, -2.0, -8.0)]
    for (l, w), beta in itertools.product(CYLINDER_DEFAULTS, (-2.0, 2.0)):
        cases.append((l, w, beta, 2.0 * beta * (w + 1)))
    for l, w, beta, shift in cases:
        p = cylinder_problem(l=l, w=w, beta=beta, r0=1.0)
        cent = l * l - 0.25
        want_in = cent / r_in**2 + shift + beta**2 * r_in**2
        assert effective_potential(p, r_in) == pytest.approx(want_in, rel=1e-13), (l, w, beta)
        want_out = (cent + 2 * beta * w + beta**2) / r_out**2
        assert effective_potential(p, r_out) == pytest.approx(want_out, rel=1e-13), (l, w, beta)


def test_superpotential_is_the_field_coupling():
    # W = -eta E_r for the ball and -eta E_r / 2 for the as-displayed
    # cylinder (beta_cylinder = -eta rho / 4 against E_r = rho r / 2),
    # inside, on and outside the surface, for either density sign
    eta = coupling_eta()
    for density, r0 in itertools.product((2.0e6, -3.0e7), (0.4, 1.0, 2.5)):
        for cfg, factor in ((Sphere(rho0=density, r0=r0), -1.0),
                            (Cylinder(rho=density, r0=r0), -0.5)):
            p = RadialProblem(geometry=cfg.kind, l=0, w=0, beta=cfg.beta(), r0=r0)
            for r in (0.3 * r0, r0, 1.7 * r0, 6.0 * r0):
                e_r = efield(cfg, (r, 0.0, 0.0))[0]
                assert float(superpotential(p, r)) == pytest.approx(
                    factor * eta * e_r, rel=1e-13), (cfg, r)


def test_potential_surface_jump_matches_source_discontinuity():
    # the density step at r0 leaves a finite jump in the channel potential
    ps = sphere_problem(l=0, w=0, beta=1.3)
    d = 1e-10
    jump_s = effective_potential(ps, 1 - d) - effective_potential(ps, 1 + d)
    assert jump_s == pytest.approx(-3 * 1.3, rel=1e-4)
    pc = cylinder_problem(l=0, w=0, beta=-2.2)
    jump_c = effective_potential(pc, 1 - d) - effective_potential(pc, 1 + d)
    assert jump_c == pytest.approx(2 * (-2.2), rel=1e-4)


def test_potential_array_and_domain():
    p = sphere_problem()
    rs = np.array([0.5, 1.0, 2.0])
    vals = effective_potential(p, rs)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(effective_potential(p, 0.5))
    with pytest.raises(ValueError):
        effective_potential(p, 0.0)
    with pytest.raises(ValueError):
        effective_potential(p, np.array([1.0, -2.0]))


# --- shooting against exact free solutions -------------------------------

def test_interior_free_particle_log_derivative():
    # beta = 0, l = 0: u = sinh(kappa r), u'/u = kappa coth(kappa r0)
    p = sphere_problem(l=0, w=0, beta=0.0, r0=1.0)
    eps = -2.25
    kappa = 1.5
    got = shoot_interior(p, eps).log_derivative
    assert got == pytest.approx(kappa / math.tanh(kappa), rel=1e-10)


def test_interior_free_particle_higher_channel():
    # beta = 0, l = 1: regular solution u = r i_1(kappa r), i.e.
    # (kappa r cosh - sinh)/r up to normalization
    p = sphere_problem(l=1, w=1, beta=0.0, r0=1.0)
    kappa = 2.0
    res = shoot_interior(p, -4.0)
    v = kappa * math.cosh(kappa) - math.sinh(kappa)
    dv = kappa**2 * math.sinh(kappa)
    want = dv / v - 1.0  # minus 1/r0 from the 1/r factor, r0 = 1
    assert res.log_derivative == pytest.approx(want, rel=1e-10)


def test_exterior_free_particle_log_derivative():
    p = sphere_problem(l=0, w=0, beta=0.0, r0=1.0)
    eps = -4.0
    res = shoot_exterior(p, eps, rtol=1e-12)
    assert res.log_derivative == pytest.approx(-2.0, rel=1e-10)


def test_exterior_r_max_independence():
    # the cylinder exterior is closed form and ignores r_max; the sphere's
    # is integrated from r_max, here at 30 and 60, both >= 20/kappa = 11.5
    eps = -3.0
    for p in (cylinder_problem(l=1, w=1, beta=-1.5, r0=1.0),
              sphere_problem(l=1, w=-2, beta=-3.0, r0=1.0),
              sphere_problem(l=2, w=2, beta=3.0, r0=1.0)):
        a = shoot_exterior(p, eps, r_max=30.0, rtol=1e-12).log_derivative
        b = shoot_exterior(p, eps, r_max=60.0, rtol=1e-12).log_derivative
        assert a == pytest.approx(b, rel=1e-9), p


def test_free_sphere_exterior_matches_riccati_bessel():
    # beta = 0: psi = r k_l(kappa r), so the log-derivative at r0 is
    # 1/r0 + kappa k_l'(kappa r0) / k_l(kappa r0); for l >= 1 the
    # centrifugal term makes the factored u = e^{kappa r} psi vary
    for l in range(4):
        for r0 in (0.1, 1.0, 10.0):
            for x in np.geomspace(1e-3, 30.0, 9).tolist():
                kappa = x / r0
                got = shoot_exterior(sphere_problem(l=l, w=l, beta=0.0, r0=r0), -kappa * kappa)
                want = 1.0 / r0 + kappa * special.spherical_kn(l, x, derivative=True) / (
                    special.spherical_kn(l, x))
                assert abs(got.log_derivative - want) <= 2e-9 * (abs(want) + 1.0 / r0), (l, r0, x)


def _radau_exterior_log_derivatives(problems, energies):
    """Decaying sphere exterior log-derivatives at r0, from scipy's Radau.

    An independent route to shoot_exterior: an implicit method on the
    linear equation psi'' = (V + kappa^2) psi, not DOP853 on the Riccati
    one. psi = exp(-integral g) phi with g = sqrt(c4/r^4 + kappa^2) takes
    out the growth that |beta| r0^2 and kappa set, so
    phi'' = 2 g phi' + (cent/r^2 + c3/r^3 + g') phi varies slowly. All
    cases share one solve in s = ln(r/r_max) / ln(r0/r_max), seeded like
    shoot_exterior: psi'/psi = -kappa at r_max = max(25/kappa, 3 r0).
    """
    n = len(problems)
    r0 = np.array([p.r0 for p in problems])
    kappa = np.sqrt(-np.array(energies))
    r_max = np.maximum(25.0 / kappa, 3.0 * r0)
    cent = np.array([p.l * (p.l + 1.0) for p in problems])
    c3 = np.array([-2.0 * p.beta * p.w * p.r0**3 for p in problems])
    c4 = np.array([(p.beta * p.r0**3) ** 2 for p in problems])
    for p, a, b, c in zip(problems, cent, c3, c4):
        r = 2.0 * p.r0
        assert a / r**2 + b / r**3 + c / r**4 == pytest.approx(effective_potential(p, r), rel=1e-13)
    log_span = np.log(r0 / r_max)

    def coefficients(s):
        r = r_max * np.exp(s * log_span)
        g = np.sqrt(c4 / r**4 + kappa**2)
        return r * log_span, cent / r**2 + c3 / r**3 - 2.0 * c4 / (r**5 * g), 2.0 * g, g

    def fun(s, y):
        drds, a, b, _ = coefficients(s)
        return np.concatenate([drds * y[n:], drds * (a * y[:n] + b * y[n:])])

    def jac(s, y):
        drds, a, b, _ = coefficients(s)
        return sparse.bmat([[None, sparse.diags(drds)],
                            [sparse.diags(drds * a), sparse.diags(drds * b)]], format="csc")

    y0 = np.concatenate([np.ones(n), coefficients(0.0)[3] - kappa])
    # at rtol 1e-10 the reference is within 2e-10 of shoot_exterior, well
    # inside the test's 1e-8; 1e-12 takes three times as many steps
    atol = np.concatenate([np.full(n, 1e-300), 1e-10 / r0])
    sol = solve_ivp(fun, (0.0, 1.0), y0, method="Radau", rtol=1e-10, atol=atol, jac=jac)
    assert sol.success, sol.message
    return -coefficients(1.0)[3] + sol.y[n:, -1] / sol.y[:n, -1]


def test_sphere_exterior_matches_radau():
    # beta != 0 at eps < 0, where no closed form exists. Shallower energies
    # than 1e-3 of the window floor are left out: in attractive channels
    # (e.g. (1, -2) at beta r0^2 = -10) psi peaks outside r0, so any inward
    # integration, this reference included, amplifies its local errors by
    # (psi_max / psi(r0))^2 there
    problems, energies = [], []
    channels = [(0, 0), (1, 1), (1, -2), (2, 2), (2, -3), (3, 3), (3, -4)]
    for (l, w), x in itertools.product(channels, (0.5, 3.0, 10.0, 1e3)):
        for sign, r0 in ((1.0, 0.3), (-1.0, 2.0)):
            p = sphere_problem(l=l, w=w, beta=sign * x / r0**2, r0=r0)
            lo = _auto_epsilon_lo(p)
            for eps in np.geomspace(-lo, 1e-3 * -lo, 3).tolist():
                problems.append(p)
                energies.append(-eps)
    want = _radau_exterior_log_derivatives(problems, energies)
    for p, eps, ref in zip(problems, energies, want.tolist()):
        got = shoot_exterior(p, eps).log_derivative
        assert abs(got - ref) <= 1e-8 * (abs(ref) + 1.0 / p.r0), (p, eps)
    # the cylinder's counterpart of the helper's coefficient check: outside
    # r0, V_eff is the (mu^2 - 1/4)/r^2 of shoot_exterior's K_mu, with
    # mu = |w + beta r0^2|; w != 0 makes it see the sign of W
    for (l, w), x in itertools.product(((1, 1), (1, -1), (2, 2), (2, -2)), (0.5, 3.0, 1e3)):
        for sign, r0 in ((1.0, 0.3), (-1.0, 2.0)):
            p = cylinder_problem(l=l, w=w, beta=sign * x / r0**2, r0=r0)
            mu = abs(w + p.beta * r0**2)
            for r in (1.5 * r0, 4.0 * r0):
                assert effective_potential(p, r) == pytest.approx(
                    (mu**2 - 0.25) / r**2, rel=1e-13, abs=1e-13 * (l * l + mu**2) / r**2), (p, r)


def test_strong_coupling_exterior_step_count():
    # at eps = eps_lo / 2 the Cash-Karp integration of u = e^{kappa r} psi
    # that the Riccati form replaced took 132891 accepted steps for (1, -2)
    # at beta r0^2 = -1e4 and 130808 for (0, 0) at +1e4: it resolved
    # ~|beta| r0^2 e-folds of psi, where the log-derivative stays smooth
    for (l, w, beta), cash_karp_steps in (((1, -2, -1.0e4), 132891), ((0, 0, 1.0e4), 130808)):
        p = sphere_problem(l=l, w=w, beta=beta, r0=1.0)
        res = shoot_exterior(p, _auto_epsilon_lo(p) / 2.0)
        assert res.steps < cash_karp_steps / 5, res.steps


def test_sphere_exterior_stays_on_python_floats(monkeypatch):
    # numpy scalars make every integrator stage several times slower
    p = sphere_problem(l=1, w=-2, beta=-7.4 / 0.86**2, r0=0.86)
    for eps in (-0.01, -3.0):
        got = shoot_exterior(p, np.float64(eps))
        want = shoot_exterior(p, eps)
        assert type(got.log_derivative) is float
        assert got.log_derivative == want.log_derivative
    seen = []
    real = radial.shoot_exterior

    def spy(p, eps, **kw):
        seen.append(type(eps))
        return real(p, eps, **kw)

    monkeypatch.setattr(radial, "shoot_exterior", spy)
    find_spectrum(p, n_grid=8)
    assert len(seen) >= 8 and set(seen) == {float}


def test_exterior_needs_negative_epsilon():
    p = sphere_problem()
    with pytest.raises(NoDecaySeed):
        shoot_exterior(p, 0.0)
    with pytest.raises(NoDecaySeed):
        shoot_exterior(p, 1.0)


def _mp_log_derivative(psi, r0):
    return float(mpmath.diff(psi, mpmath.mpf(r0)) / psi(mpmath.mpf(r0)))


def _mp_interior(geometry, l, w, beta, eps):
    """Regular interior solution built in mpmath from the channel constants."""
    mp = mpmath.mpf
    alpha = l + (mp(1) if geometry == "sphere" else mp(1) / 2)
    if beta == 0.0:
        if eps == 0.0:
            return lambda r: r**alpha
        kap = mpmath.sqrt(-mp(eps))
        return lambda r: mpmath.sqrt(r) * mpmath.besseli(alpha - mp(1) / 2, kap * r)
    om = abs(mp(beta))
    if geometry == "sphere":
        b, shift = l + mp(3) / 2, -2 * mp(beta) * (w + mp(3) / 2)
    else:
        b, shift = mp(l + 1), 2 * mp(beta) * (w + 1)
    a = b / 2 - (mp(eps) - shift) / (4 * om)
    return lambda r: r**alpha * mpmath.exp(-om * r * r / 2) * mpmath.hyp1f1(a, b, om * r * r)


def test_closed_form_log_derivatives_match_mpmath():
    # independent route: mpmath builds each solution from its own
    # hyp1f1 / besseli / besselk and differentiates numerically, over
    # |beta| r0^2 <= 30, l <= 3, both signs and the CLI's auto window
    with mpmath.workdps(30):
        rng = np.random.default_rng(20261017)
        channels = [("sphere", l, w) for l in range(4) for w in (l, -(l + 1))]
        channels += [("cylinder", l, w) for l in range(4) for w in sorted({l, -l})]
        for geometry, l, w in channels:
            for sign in (1.0, -1.0, 0.0):
                r0 = float(rng.choice([0.3, 1.0, 2.5]))
                beta = sign * float(rng.uniform(0.1, 30.0)) / r0**2
                p = RadialProblem(geometry=geometry, l=l, w=w, beta=beta, r0=r0)
                lo = _auto_epsilon_lo(p)
                for eps in [0.0] + [-float(g) for g in np.geomspace(-lo, 1e-6 * -lo, 5)]:
                    want = _mp_log_derivative(_mp_interior(geometry, l, w, beta, eps), r0)
                    got = shoot_interior(p, eps)
                    assert got.steps == 0
                    assert got.log_derivative == pytest.approx(want, rel=1e-10, abs=1e-12 / r0), (p, eps)
                    if geometry == "sphere" or eps == 0.0:
                        continue
                    mu = abs(w + mpmath.mpf(beta) * r0**2)
                    kap = mpmath.sqrt(-mpmath.mpf(eps))
                    psi = lambda r: mpmath.sqrt(r) * mpmath.besselk(mu, kap * r)
                    got = shoot_exterior(p, eps)
                    assert got.steps == 0
                    assert got.log_derivative == pytest.approx(
                        _mp_log_derivative(psi, r0), rel=1e-10, abs=1e-12 / r0
                    ), (p, eps)
        # sphere exterior at eps = 0: with t = 1/r, psi = r M_{k, l+1/2}(2 s t)
        # (mpmath's Whittaker M), s = |beta| r0^3, k = sign(beta) w; the
        # ODE residual at 2 r0 checks that reduction against V_eff itself
        mp = mpmath.mpf
        for l, w in [(0, 0), (1, 1), (1, -2), (2, 2), (2, -3), (3, 3), (3, -4)]:
            for x, r0 in itertools.product((0.5, 3.0, 10.0, 40.0, 1.0e4), (0.1, 1.0, 10.0)):
                for beta in (x / r0**2, -x / r0**2):
                    p = RadialProblem(geometry="sphere", l=l, w=w, beta=beta, r0=r0)
                    s, k = abs(mp(beta)) * mp(r0) ** 3, (1 if beta > 0 else -1) * w
                    psi = lambda r: r * mpmath.whitm(k, l + mp(1) / 2, 2 * s / r)
                    r2 = 2 * mp(r0)
                    v = effective_potential(p, float(r2))
                    assert abs(mpmath.diff(psi, r2, 2) - v * psi(r2)) <= 1e-12 * abs(v * psi(r2))
                    got = _exterior_zero_energy(p)
                    assert got.steps == 0
                    assert got.log_derivative == pytest.approx(
                        _mp_log_derivative(psi, r0), rel=1e-10, abs=1e-12 / r0
                    ), (p, 0.0)
    # (1, -2) at beta r0^2 = -10: a = 0, psi = r^-1 e^{-10 r0 / r}, by hand 9/r0
    for r0 in (0.1, 1.0, 10.0):
        got = _exterior_zero_energy(sphere_problem(l=1, w=-2, beta=-10.0 / r0**2, r0=r0))
        assert got.log_derivative == pytest.approx(9.0 / r0, rel=1e-14)


# strong-coupling configs where direct hyp1f1 overflows, so the ratio
# M(a+1, b+1, z)/M(a, b, z) comes from Kummer's transformation
STRONG_COUPLING = [
    ("cylinder", 0, 0, 400.0),
    ("cylinder", 0, 0, -400.0),
    ("cylinder", 1, -1, -800.0),
    ("sphere", 0, 0, 800.0),
    ("sphere", 1, -2, -800.0),
]


def test_strong_coupling_interior_matches_mpmath():
    cases = []
    for geometry, l, w, beta in STRONG_COUPLING:
        lo = _auto_epsilon_lo(RadialProblem(geometry=geometry, l=l, w=w, beta=beta, r0=1.0))
        for eps in [0.0] + [-float(g) for g in np.geomspace(-lo, 1e-6 * -lo, 12)]:
            cases.append((geometry, l, w, beta, eps))
    # a = 141 > b = 1: M(a, b, z) overflows while M(a+1, b+1, z) does not
    cases.append(("cylinder", 0, 0, 392.6050291516406, -220077.10930605643))
    with mpmath.workdps(40):
        for geometry, l, w, beta, eps in cases:
            p = RadialProblem(geometry=geometry, l=l, w=w, beta=beta, r0=1.0)
            want = _mp_log_derivative(_mp_interior(geometry, l, w, beta, eps), 1.0)
            got = shoot_interior(p, eps).log_derivative
            # rounding b - a costs ulp(b)/a: 2e-10 at a = 8e-7 in sphere (0, 0)
            assert got == pytest.approx(want, rel=1e-9), (p, eps)
    # a = 3e-304: the transformed denominator e^-z M(a, b, z) underflows to 0
    with pytest.raises(Overflow):
        shoot_interior(sphere_problem(l=0, w=0, beta=800.0), -1e-300)


def test_strong_coupling_cylinder_spectrum_is_finite():
    # direct hyp1f1 overflows from |beta| r0^2 ~ 342 (l = 0) and ~ 710 (l >= 1)
    for l, w, beta, hosts in ((0, 0, 400.0, False), (0, 0, -400.0, True), (1, -1, -800.0, False),
                              (2, 2, -1.0e4, True)):
        rep = find_spectrum(cylinder_problem(l=l, w=w, beta=beta), n_grid=60)
        assert rep.bound_states == ()
        assert (rep.zero_mode is not None) == hosts, (l, w, beta)


def test_interior_outside_node_free_range_is_refused():
    # a < 0 needs eps above the eps <= 0 windows every caller uses
    with pytest.raises(RangeExceeded):
        shoot_interior(cylinder_problem(l=0, w=0, beta=-3.0), 20.0)
    with pytest.raises(RangeExceeded):
        shoot_interior(sphere_problem(beta=0.0), 1.0)


# --- root-scan helpers ----------------------------------------------------

def test_scan_sign_changes_on_tabulated_cosine():
    xs = np.linspace(0.0, 10.0, 41)
    hits = _scan_sign_changes(np.cos(xs).tolist())
    # cos has roots at pi/2, 3pi/2, 5pi/2 within [0, 10]: three sign flips
    assert len(hits) == 3


def test_coarse_scan_signs_equal_rtol_signs():
    # the sphere scan reads each grid point's sign, that of li - le, from an
    # exterior at _SCAN_RTOL; outside the guard band
    # |li - le| < _SIGN_GUARD (|le| + 1/r0) that sign is the rtol one as long
    # as le's scale-aware error stays well below _SIGN_GUARD. The worst case
    # here is the shallow end of the attractive (1, -2) at beta r0^2 = -10
    # and r0 = 0.3, where psi peaks outside r0 (about 1e-6)
    channels = [(0, 0), (1, 1), (1, -2), (2, 2), (2, -3), (3, 3), (3, -4)]
    for (l, w), x, sign, r0 in itertools.product(channels, (0.05, 10.0, 1e3), (1.0, -1.0),
                                                 (0.3, 3.0)):
        p = sphere_problem(l=l, w=w, beta=sign * x / r0**2, r0=r0)
        lo = _auto_epsilon_lo(p)
        for eps in (lo, 1e-3 * lo, 1e-6 * lo):
            li = shoot_interior(p, eps).log_derivative
            coarse = shoot_exterior(p, eps, rtol=radial._SCAN_RTOL).log_derivative
            ref = shoot_exterior(p, eps).log_derivative
            assert abs(coarse - ref) <= radial._SIGN_GUARD / 100 * (abs(ref) + 1.0 / r0), (p, eps)
            f_coarse = radial._wronskian_mismatch(li, coarse, r0)
            assert (f_coarse > 0.0) == (radial._wronskian_mismatch(li, ref, r0) > 0.0), (p, eps)


def _spy_exterior(monkeypatch, fail=lambda eps, rtol: False):
    """Record (eps, rtol, result) of every shoot_exterior call; raise Overflow where fail says."""
    calls = []
    real = radial.shoot_exterior

    def spy(p, eps, **kw):
        if fail(eps, kw["rtol"]):
            calls.append((eps, kw["rtol"], None))
            raise Overflow("planted")
        res = real(p, eps, **kw)
        calls.append((eps, kw["rtol"], res))
        return res

    monkeypatch.setattr(radial, "shoot_exterior", spy)
    return calls


def _scan_grid(p, n_grid):
    mag = abs(_auto_epsilon_lo(p))
    return [-g for g in np.geomspace(mag, 1.0e-6 * mag, n_grid).tolist()]


def _in_guard_band(p, eps):
    li = shoot_interior(p, eps).log_derivative
    le = shoot_exterior(p, eps, rtol=radial._SCAN_RTOL).log_derivative
    return abs(li - le) < radial._SIGN_GUARD * (abs(le) + 1.0 / p.r0)


def test_sphere_scan_integrates_only_guard_band_points_at_rtol(monkeypatch):
    # sphere (0, 0) at beta r0^2 = 8 nearly matches at eps = 0 (gap 1.2e-7),
    # so the log-derivatives of its shallow grid points lie in the guard band
    p = sphere_problem(l=0, beta=8.0)
    grid = _scan_grid(p, 24)
    calls = _spy_exterior(monkeypatch)
    assert find_spectrum(p, n_grid=24, rtol=1e-10).bound_states == ()
    want, band = [], 0
    for e in grid:
        want.append((e, radial._SCAN_RTOL))
        if _in_guard_band(p, e):
            want.append((e, 1e-10))
            band += 1
    assert [(eps, tol) for eps, tol, _ in calls] == want
    assert 0 < band < 24

    # at strong coupling both log-derivatives are large and the band is
    # relative to them: one coarse pass, where |f| r0 < 1e-3 at every point
    strong = sphere_problem(l=0, beta=1.0e4)
    calls.clear()
    find_spectrum(strong, n_grid=2, rtol=1e-10)
    assert [(eps, tol) for eps, tol, _ in calls] == [(e, radial._SCAN_RTOL) for e in _scan_grid(strong, 2)]

    # an rtol at or above the coarse tolerance leaves one pass at rtol
    calls.clear()
    find_spectrum(p, n_grid=24, rtol=1e-8)
    assert [(eps, tol) for eps, tol, _ in calls] == [(e, 1e-8) for e in grid]

    # a coarse pass that raises falls back to rtol; an rtol pass that
    # raises raises as it would alone
    calls = _spy_exterior(monkeypatch, lambda eps, tol: eps == grid[3] and tol > 1e-10)
    find_spectrum(p, n_grid=24, rtol=1e-10)
    assert [(eps, tol) for eps, tol, _ in calls][3:5] == [(grid[3], 1e-8), (grid[3], 1e-10)]
    _spy_exterior(monkeypatch, lambda eps, tol: eps == grid[3])
    with pytest.raises(Overflow, match="planted"):
        find_spectrum(p, n_grid=24, rtol=1e-10)


def test_cylinder_scan_is_one_rtol_call_per_point(monkeypatch):
    # the cylinder exterior is closed form and ignores rtol: a second pass
    # would only add cost
    p = cylinder_problem(l=0, w=0, beta=-3.0, r0=1.0)
    calls = _spy_exterior(monkeypatch)
    find_spectrum(p, n_grid=24, rtol=1e-10)
    assert [(eps, tol) for eps, tol, _ in calls] == [(e, 1e-10) for e in _scan_grid(p, 24)]


def test_sphere_scan_step_count(monkeypatch):
    # integrating every grid point at rtol, as the scan did before its
    # coarse pass, took 2741 accepted exterior steps here
    calls = _spy_exterior(monkeypatch)
    find_spectrum(sphere_problem(l=1, w=-2, beta=-5.0), n_grid=24)
    steps = sum(res.steps for *_, res in calls)
    assert steps < 0.6 * 2741, steps


# --- spectra ---------------------------------------------------------------

def test_report_accepts_ascending_states_without_node_counts():
    # find_spectrum gives every state node_count 0; two ascending bound
    # states must not trip a node-ordering check
    states = tuple(BoundState(epsilon=e, node_count=0, match_residual=0.0) for e in (-2.0, -1.0))
    rep = SpectrumReport(problem=sphere_problem(), epsilon_lo=-3.0,
                         bound_states=states, zero_mode=None, classification_notes="")
    assert [s.epsilon for s in rep.bound_states] == [-2.0, -1.0]
    assert [row[3] for row in rep.csv_rows()] == [0, 0]


def test_sphere_spectrum_is_empty_everywhere_sampled():
    rng = np.random.default_rng(17)
    for _ in range(6):
        l = int(rng.integers(0, 3))
        w = l if rng.random() < 0.5 or l == 0 else -(l + 1)
        beta = float(rng.uniform(-4.0, 4.0))
        p = sphere_problem(l=l, w=w, beta=beta)
        rep = find_spectrum(p, epsilon_lo=-8.0 - abs(beta) * 6, n_grid=90, rtol=1e-9)
        assert rep.bound_states == ()
        assert rep.zero_mode is None
        assert "NoBoundStates" in rep.classification_notes


def test_zero_mode_match_tolerance_splits_sphere_margins():
    # the eps = 0 gap of sphere (0, 0) is 3.8e-4 at beta r0^2 = 4 and
    # 1.2e-7 at 8; the match tolerance 1e-6 lies between them
    far = find_spectrum(sphere_problem(l=0, beta=4.0), n_grid=2).classification_notes
    assert "does not match the bounded exterior solution" in far
    near = find_spectrum(sphere_problem(l=0, beta=8.0), n_grid=2).classification_notes
    assert "endpoint matches the bounded exterior solution" in near
    assert near.endswith("no zero mode.")


def test_unbroken_cylinder_reports_zero_mode():
    p = cylinder_problem(l=0, w=0, beta=-3.0, r0=1.0)
    rep = find_spectrum(p, epsilon_lo=-10.0, n_grid=110, rtol=1e-9)
    assert rep.bound_states == ()
    assert rep.zero_mode is not None
    assert rep.zero_mode.epsilon == 0.0
    assert rep.zero_mode.match_residual < 1e-6
    assert rep.zero_mode.node_count == 0


def test_strongly_coupled_cylinder_keeps_its_zero_mode():
    # outward shooting lost this mode from |beta| r0^2 ~ 17.5 on; the
    # closed-form interior truncates to the Gaussian (a = 0) and matches.
    # l >= 1 at -100 also needs K_mu(kappa r0) with mu ~ 100 >> kappa r0
    for l, x, r0 in itertools.product((0, 1, 2), (-20.0, -40.0, -100.0), (0.1, 1.0)):
        if l == 0 or x == -100.0:
            p = cylinder_problem(l=l, w=l, beta=x / r0**2, r0=r0)
            rep = find_spectrum(p, n_grid=120)
            assert rep.bound_states == ()
            assert rep.zero_mode is not None, (l, x, r0)
            assert rep.zero_mode.node_count == 0
            assert rep.zero_mode.match_residual < 1e-6


def test_hosting_channels_sit_exactly_at_kummer_a_zero():
    # a = b/2 - (eps - shift)/(4 |beta|) must not round below 0 at eps = 0
    rng = np.random.default_rng(4)
    for _ in range(200):
        l = int(rng.integers(0, 4))
        r0 = float(10.0 ** rng.uniform(-1.0, 1.0))
        beta = -float(10.0 ** rng.uniform(-1.0, 2.0)) / r0**2
        for p in (cylinder_problem(l=l, w=l, beta=beta, r0=r0),
                  sphere_problem(l=l, w=l, beta=-beta, r0=r0)):
            got = shoot_interior(p, 0.0).log_derivative
            want = frobenius_exponent(p) / r0 - abs(beta) * r0
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13 / r0)


def test_broken_cylinder_has_no_zero_mode():
    p = cylinder_problem(l=0, w=0, beta=-0.5, r0=1.0)  # beta r0^2 > -1
    rep = find_spectrum(p, epsilon_lo=-6.0, n_grid=90, rtol=1e-9)
    assert rep.zero_mode is None
    assert rep.bound_states == ()


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_planted_bound_state_is_found_by_the_scan_and_the_oracle(monkeypatch, delta):
    # lowering the exterior order mu = |w + beta r0^2| to mu - delta adds
    # ((mu - delta)^2 - mu^2)/r^2 outside r0: an attractive tail that
    # binds one state below eps = 0. Both layers get the same potential,
    # shooting through its closed-form K_mu exterior and the grid through
    # its smooth potential, so the scan's bracketing and refinement must
    # land on the oracle's level.
    p = cylinder_problem(l=0, w=0, beta=-3.0, r0=1.0)
    assert find_spectrum(p, epsilon_lo=-10.0, n_grid=60).bound_states == ()
    mu = radial._cylinder_mu(p)
    planted = mu - delta

    def smooth(q, r):
        extra = np.where(r > q.r0, (planted**2 - mu**2) / r**2, 0.0)
        return radial._smooth_potential(q, r) + extra

    monkeypatch.setattr(radial, "_cylinder_mu", lambda q: planted)
    monkeypatch.setattr(oracle, "_smooth_potential", smooth)
    rep = find_spectrum(p, epsilon_lo=-10.0, n_grid=60)
    assert len(rep.bound_states) == 1
    assert rep.zero_mode is None
    assert rep.classification_notes.startswith("1 bound state(s) located by sign-change")
    state = rep.bound_states[0]
    want = float(oracle.richardson_pair(p, 1600, 40.0, 1)["extrapolated"][0])
    assert state.epsilon == pytest.approx(want, rel=1e-6)
    assert rep.csv_rows() == [(0, 0, state.epsilon, 0, state.match_residual, "bound")]
    assert rep.to_json_dict()["bound_states"] == [state.to_json_dict()]


def test_zero_energy_log_derivative_matches_profile_drift():
    # u = sqrt(r) phi: interior log-slope at r0 is 1/(2 r0) + beta r0
    beta, r0 = -3.0, 1.0
    p = cylinder_problem(l=0, w=0, beta=beta, r0=r0)
    res = shoot_interior(p, 0.0)
    drift = cylinder_zero_mode(beta, r0).drift_at(r0)
    want = 0.5 / r0 + drift
    assert abs(res.log_derivative - want) <= 1e-9 * abs(want)


def test_spectrum_report_serialization():
    p = cylinder_problem(l=0, w=0, beta=-3.0, r0=1.0)
    rep = find_spectrum(p, epsilon_lo=-5.0, n_grid=60, rtol=1e-8)
    d = rep.to_json_dict()
    assert d["geometry"] == "cylinder"
    assert d["zero_mode"] is not None
    assert d["scan"]["n_grid"] == 60
    rows = rep.csv_rows()
    assert rows[-1][-1] == "zero_mode"


def test_find_spectrum_window_validation():
    p = sphere_problem()
    with pytest.raises(ValueError):
        find_spectrum(p, epsilon_lo=1.0)
    with pytest.raises(ValueError):
        find_spectrum(p, epsilon_lo=-1.0, n_grid=1)
