"""Radial eigenvalue machinery: channel potentials, shooting, matching.

Conventions. The working wavefunction is the reduced one: psi = r phi
for the ball geometry (measure r^2 dr) and u = sqrt(r) phi for the
cylinder (measure r dr), so both obey psi'' = (V_eff - eps) psi with no
first-derivative term.

Every channel is a reduction of the first-order operator
sigma.(grad - W), with radial measure r^d dr: d = 2 (ball) or 1
(cylinder), one entry of _REDUCTION per geometry. The channel is the
square of d/dr - W, with W from superpotential, and
    V_eff = cent/r^2 + W^2 + 2 w W/r + r^-d (r^d W)',
    cent = w(w + d - 1) + d(d - 2)/4,
i.e. l(l+1) for the ball and nu^2 - 1/4 for the cylinder.
Inside the source that is the oscillator beta^2 r^2 plus the constant
-2 beta (w + 3/2) (ball) or +2 beta (w + 1) (cylinder). Every channel
Hamiltonian is a square, hence nonnegative: no eps < 0 bound states
exist, and the scan machinery's job is to certify emptiness and to
recognize the eps = 0 zero-mode endpoint where one exists. The Kummer
parameters and exterior coefficients below are written out by hand,
not from W, so that shooting checks W.

Matching uses closed forms wherever the paper's potentials admit them.
The interior (both geometries) is the Kummer function
r^alpha e^{-omega r^2/2} M(a, b, omega r^2), or sqrt(r) I(kappa r) at
beta = 0. The cylinder exterior potential is exactly C/r^2, so its
decaying solution is sqrt(r) K_mu(kappa r). The sphere exterior at
eps = 0 is r^-l e^{-s/r} M(a, 2l+2, 2s/r) (Whittaker's equation in
1/r). Only the sphere exterior at eps < 0, with its 1/r^3 and 1/r^4
tails, is integrated: adaptive DOP853 on the Riccati equation for the
log-derivative psi'/psi, which stays smooth where psi itself changes by
e^{|beta| r0^2}. The sphere scan reads the sign of each grid point from
an integration at a coarse tolerance, and integrates at the caller's
rtol only near a zero of the mismatch and to refine a root.

Energies and potentials are cm^-2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ._lazy import np, optimize, special
from .errors import InvalidChannel, NoDecaySeed, Overflow, RangeExceeded
from .specfun import kummer_1f1

__all__ = [
    "RadialProblem",
    "ShootResult",
    "BoundState",
    "SpectrumReport",
    "effective_potential",
    "superpotential",
    "frobenius_exponent",
    "shoot_interior",
    "shoot_exterior",
    "find_spectrum",
]

# geometry -> (d, sigma): the radial measure is r^d dr, and W = sigma beta r
# inside the source (finding B's sign of W against beta)
_REDUCTION = {"sphere": (2, -1.0), "cylinder": (1, 1.0)}


@dataclass(frozen=True)
class RadialProblem:
    """One angular channel of one geometry.

    l is the orbital quantum number (3D) or |nu| (2D). w is the
    spin-orbit eigenvalue (3D: w = l or -(l+1)) or the signed in-plane
    angular number entering the polarization coupling (2D: w = +-l).
    Both are the one rule |2w + d - 1| = 2l + d - 1. d, the power of
    the radial measure r^d dr, is set from the geometry.
    """

    geometry: str
    l: int
    w: int
    beta: float
    r0: float
    d: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.geometry not in _REDUCTION:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        d = _REDUCTION[self.geometry][0]
        object.__setattr__(self, "d", d)
        if not isinstance(self.l, int) or self.l < 0:
            raise InvalidChannel(f"l must be a nonnegative integer, got {self.l!r}")
        if not isinstance(self.w, int):
            raise InvalidChannel(f"w must be an integer, got {self.w!r}")
        if abs(2 * self.w + d - 1) != 2 * self.l + d - 1:
            raise InvalidChannel(
                f"{self.geometry} channel needs |2w + d - 1| = 2l + d - 1 with d = {d} "
                f"(sphere: w = l or -(l+1); cylinder: |w| = l); got l={self.l}, w={self.w}"
            )
        if not (self.r0 > 0.0 and math.isfinite(self.r0)):
            raise ValueError("r0 must be positive and finite")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")


def frobenius_exponent(p: RadialProblem) -> float:
    """Regular-origin exponent alpha with psi ~ r^alpha: l + d/2."""
    return p.l + p.d / 2


def _phi_centrifugal(p: RadialProblem) -> float:
    """Centrifugal coefficient w(w + d - 1) of the phi picture."""
    return float(p.w * (p.w + p.d - 1))


def _centrifugal(p: RadialProblem) -> float:
    """The psi picture's: d(d - 2)/4 more than the phi picture's."""
    return _phi_centrifugal(p) + p.d * (p.d - 2) / 4


def _cylinder_mu(p: RadialProblem) -> float:
    """mu = |w + beta r0^2|: outside r0 a cylinder's V_eff is (mu^2 - 1/4)/r^2."""
    return abs(p.w + p.beta * p.r0**2)


def superpotential(p: RadialProblem, r) -> np.ndarray:
    """W(r) of the channel's first-order operator d/dr - W, as an array.

    sigma beta r inside r0 and sigma beta r0^(d+1)/r^d outside, which is
    continuous at r0: -beta r and -beta r0^3/r^2 for the ball, beta r
    and beta r0^2/r for the cylinder.
    """
    rr = np.asarray(r, dtype=float)
    d, sigma = _REDUCTION[p.geometry]
    b, r0 = sigma * p.beta, p.r0
    return np.where(rr <= r0, b * rr, b * r0 ** (d + 1) / rr**d)


def _smooth_potential(p: RadialProblem, r: np.ndarray) -> np.ndarray:
    """V_eff less its centrifugal part: W^2 + 2 w W/r + r^-d (r^d W)'.

    W is linear in r inside r0, so r^-d (r^d W)' = (d + 1) W/r there;
    outside, r^d W is constant.
    """
    w = superpotential(p, r)
    return w * w + (2.0 * p.w + (p.d + 1) * (r <= p.r0)) * w / r


def effective_potential(p: RadialProblem, r):
    """Channel potential V_eff(r) in the reduced picture; array-aware."""
    rr = np.asarray(r, dtype=float)
    if np.any(rr <= 0.0):
        raise ValueError("r must be positive")
    out = _centrifugal(p) / rr**2 + _smooth_potential(p, rr)
    if np.isscalar(r) or getattr(r, "ndim", 1) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ShootResult:
    """A reduced wavefunction at the matching radius r0, as psi'/psi.

    The log-derivative is all that matching needs, and it is finite
    because no solution this module builds has a node: the interior
    Kummer series sums positive terms on eps <= 0, and the decaying
    exterior of a squared channel has none at eps < 0. steps counts the
    accepted integrator steps of the sphere exterior at eps < 0 and is 0
    for closed forms.
    """

    log_derivative: float
    steps: int


# Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving
# ODEs I, 2nd ed., 1993, sec. II.10), the values scipy's DOP853 uses:
# stage nodes, the nonzero entries of each stage row, the 8th-order
# weights and the 5th-order error weights. Stages 2-5 carry no weight.
# Unrolled below for speed (the integrator dominates a sphere spectrum).
_C2, _C3, _C4, _C5 = 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726
_C6, _C7, _C8, _C9 = 0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513
_C10, _C11 = 0.6, 0.8571428571428571
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E1, _E6, _E7, _E8, _E9, _E10, _E11, _E12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)


def _integrate(
    cent: float,
    c3: float,
    c4: float,
    kappa: float,
    r_from: float,
    r_to: float,
    rtol: float,
) -> tuple[float, int]:
    """Log-derivative at r_to of the sphere exterior solution at eps = -kappa^2.

    Integrates the Riccati equation y' = V + kappa^2 - y^2 for
    y = psi'/psi, V = cent/r^2 + c3/r^3 + c4/r^4, inward from the decaying
    seed y = -kappa at r_from > r_to, with DOP853, keeping the 8th-order
    solution. The decaying solution has no node at eps < 0 (Sturm), so y
    stays finite; a non-finite step raises Overflow. An error made at r
    reaches r_to scaled by (psi(r) / psi(r_to))^2: damped where psi
    falls outward, amplified where it peaks outside r_to (attractive
    1/r^3 tails at shallow eps).

    Each step's error is the 5th-order embedded estimate h sum(E_i k_i),
    which bounds the kept solution's error, tested against
    rtol (|y| + 1/r_to): the scale of the scale-aware error
    |dy| / (|y| + 1/r0) that results are judged by. The step size follows
    it with exponent 1/6. Hairer's blend with the 3rd-order estimate (the
    usual DOP853 norm) shrinks the estimate by about 10 |e5/e3| and, on
    steps too long for that asymptotic ratio, accepted errors far above
    rtol next to r0.

    Every argument must be a Python float: the loop is pure scalar
    arithmetic, and numpy scalars would make each stage several times
    slower. Returns (y, accepted steps).
    """
    kappa2 = kappa * kappa
    scale = 1.0 / r_to
    r, y = r_from, -kappa
    h = -1.0e-3 * (r_from - r_to)
    q = 1.0 / r
    f = q * q * (cent + q * (c3 + q * c4))
    steps = 0
    max_steps = 500_000
    end_tol = 1.0e-14 * r_from
    while True:
        rem = r_to - r
        if rem >= -end_tol:
            break
        if h < rem:
            h = rem
        elif -h < 1.0e-15 * max(1.0, r):
            raise Overflow(f"step size collapse near r = {r:g}")
        k1 = f
        yi = y + h * (_A2_1 * k1)
        q = 1.0 / (r + _C2 * h)
        k2 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A3_1 * k1 + _A3_2 * k2)
        q = 1.0 / (r + _C3 * h)
        k3 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A4_1 * k1 + _A4_3 * k3)
        q = 1.0 / (r + _C4 * h)
        k4 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A5_1 * k1 + _A5_3 * k3 + _A5_4 * k4)
        q = 1.0 / (r + _C5 * h)
        k5 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A6_1 * k1 + _A6_4 * k4 + _A6_5 * k5)
        q = 1.0 / (r + _C6 * h)
        k6 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A7_1 * k1 + _A7_4 * k4 + _A7_5 * k5 + _A7_6 * k6)
        q = 1.0 / (r + _C7 * h)
        k7 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A8_1 * k1 + _A8_4 * k4 + _A8_5 * k5 + _A8_6 * k6 + _A8_7 * k7)
        q = 1.0 / (r + _C8 * h)
        k8 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A9_1 * k1 + _A9_4 * k4 + _A9_5 * k5 + _A9_6 * k6 + _A9_7 * k7
                      + _A9_8 * k8)
        q = 1.0 / (r + _C9 * h)
        k9 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A10_1 * k1 + _A10_4 * k4 + _A10_5 * k5 + _A10_6 * k6 + _A10_7 * k7
                      + _A10_8 * k8 + _A10_9 * k9)
        q = 1.0 / (r + _C10 * h)
        k10 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A11_1 * k1 + _A11_4 * k4 + _A11_5 * k5 + _A11_6 * k6 + _A11_7 * k7
                      + _A11_8 * k8 + _A11_9 * k9 + _A11_10 * k10)
        q = 1.0 / (r + _C11 * h)
        k11 = q * q * (cent + q * (c3 + q * c4)) + kappa2 - yi * yi
        yi = y + h * (_A12_1 * k1 + _A12_4 * k4 + _A12_5 * k5 + _A12_6 * k6 + _A12_7 * k7
                      + _A12_8 * k8 + _A12_9 * k9 + _A12_10 * k10 + _A12_11 * k11)
        q = 1.0 / (r + h)
        v_end = q * q * (cent + q * (c3 + q * c4)) + kappa2
        k12 = v_end - yi * yi

        y_new = y + h * (_B1 * k1 + _B6 * k6 + _B7 * k7 + _B8 * k8 + _B9 * k9 + _B10 * k10
                         + _B11 * k11 + _B12 * k12)
        err_y = h * (_E1 * k1 + _E6 * k6 + _E7 * k7 + _E8 * k8 + _E9 * k9 + _E10 * k10
                     + _E11 * k11 + _E12 * k12)
        err = abs(err_y) / (rtol * (abs(y_new) + scale))
        if not math.isfinite(err):
            raise Overflow(f"non-finite state during integration near r = {r:g}")
        if err <= 1.0:
            r += h
            y = y_new
            f = v_end - y * y  # first stage of the next step
            steps += 1
            if steps > max_steps:
                raise Overflow("step budget exhausted; pathological parameters")
        grow = 0.9 * err ** (-1.0 / 6.0) if err > 0.0 else 10.0
        h *= min(10.0, max(0.2, grow))
    return y, steps


def _state_at_r0(p: RadialProblem, log_derivative: float, what: str,
                  steps: int = 0) -> ShootResult:
    if not math.isfinite(log_derivative):
        raise Overflow(f"{what} log-derivative is not finite for {p}")
    return ShootResult(log_derivative=float(log_derivative), steps=steps)


def _kummer_parameters(p: RadialProblem, epsilon: float) -> tuple[float, float, float]:
    """(omega, a, b) of the interior Kummer solution; beta != 0.

    The interior constant of V_eff over 4 omega is the half-integer
    multiple of sign(beta) written out below (by hand, not from W), so a
    is exactly 0 at eps = 0 in a hosting channel.
    """
    omega = abs(p.beta)
    if p.geometry == "sphere":
        bpar, half_shift = p.l + 1.5, -(p.w + 1.5) / 2.0
    else:
        bpar, half_shift = p.l + 1.0, (p.w + 1.0) / 2.0
    if p.beta < 0.0:
        half_shift = -half_shift
    return omega, bpar / 2.0 + half_shift - epsilon / (4.0 * omega), bpar


def shoot_interior(p: RadialProblem, epsilon: float) -> ShootResult:
    """Regular interior solution at r0, in closed form.

    For beta != 0 the solution is r^alpha e^{-omega r^2/2} M(a, b, omega r^2)
    with (omega, a, b) from _kummer_parameters; its log-derivative uses
    M'(a, b, z) = (a/b) M(a+1, b+1, z)
    (DLMF 13.3.15). For beta = 0 it is sqrt(r) I_{alpha-1/2}(kappa r),
    kappa^2 = -eps, evaluated through the scaled ive (r^alpha at eps = 0).
    On every eps <= 0 window a >= 0, so M sums positive terms and the
    solution has no node in (0, r0]. Where M overflows, the ratio comes
    from Kummer's transformation (_kummer_ratio). a < 0 (or eps > 0 at
    beta = 0) raises RangeExceeded; a non-finite log-derivative raises
    Overflow.
    """
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    alpha = frobenius_exponent(p)
    r0 = p.r0
    if p.beta == 0.0:
        if epsilon > 0.0:
            raise RangeExceeded(f"eps = {epsilon:g} > 0: free interior oscillates")
        if epsilon == 0.0:
            return _state_at_r0(p, alpha / r0, "interior")
        kappa = math.sqrt(-epsilon)
        x = kappa * r0
        nu = alpha - 0.5
        return _state_at_r0(
            p, alpha / r0 + kappa * special.ive(nu + 1.0, x) / special.ive(nu, x), "interior"
        )
    omega, a, bpar = _kummer_parameters(p, epsilon)
    if a < 0.0:
        raise RangeExceeded(
            f"Kummer parameter a = {a:g} < 0 at eps = {epsilon:g}: outside the node-free range"
        )
    z = omega * r0 * r0
    # at a = 0 the ratio's coefficient a/b is 0; skipping it also skips
    # the transformed denominator, which underflows to 0 at large z
    ratio = 0.0 if a == 0.0 else _kummer_ratio(a, bpar, z)
    return _state_at_r0(p, alpha / r0 - omega * r0 + 2.0 * omega * r0 * (a / bpar) * ratio,
                         "interior")


def _kummer_ratio(a: float, b: float, z: float) -> float:
    """M(a+1, b+1, z) / M(a, b, z).

    Where either function overflows (from z of a few hundred on; for
    a > b the denominator can overflow alone, which would read as a
    ratio of 0), Kummer's transformation M(a, b, z) = e^z M(b-a, b, -z)
    (DLMF 13.2.39) cancels the common e^z.
    """
    top, bottom = kummer_1f1(a + 1.0, b + 1.0, z), kummer_1f1(a, b, z)
    if math.isinf(top) or math.isinf(bottom):
        top, bottom = kummer_1f1(b - a, b + 1.0, -z), kummer_1f1(b - a, b, -z)
    if bottom == 0.0:
        raise Overflow(f"1F1 ratio denominator underflows at a = {a:g}, b = {b:g}, z = {z:g}")
    return top / bottom


def _bessel_k_ratio(mu: float, x: float) -> float:
    """K_{mu-1}(x) / K_mu(x) for mu >= 0, x > 0.

    K_mu itself overflows once mu >> x, so the ratio is carried up by
    q_{v+1} = 1 / (q_v + 2 v / x) (from K_{v+1} = K_{v-1} + (2v/x) K_v)
    starting at an order in [0, 1); K is the dominant solution of that
    recurrence, so upward recursion is stable.
    """
    nu = mu - math.floor(mu)
    q = special.kve(nu - 1.0, x) / special.kve(nu, x)
    while nu + 0.5 < mu:
        q = 1.0 / (q + 2.0 * nu / x)
        nu += 1.0
    return q


def shoot_exterior(
    p: RadialProblem,
    epsilon: float,
    r_max: Optional[float] = None,
    rtol: float = 1.0e-10,
) -> ShootResult:
    """Decaying exterior solution at r0; needs eps < 0 (else NoDecaySeed).

    Cylinder: the exterior potential is exactly (mu^2 - 1/4)/r^2 with
    mu = |w + beta r0^2|, so the solution is sqrt(r) K_mu(kappa r) in
    closed form (K' from DLMF 10.29, K_{mu-1}/K_mu from
    _bessel_k_ratio); r_max and rtol are unused. Sphere: the
    log-derivative is integrated inward from r_max, seeded with the
    decaying exp(-kappa r), i.e. psi'/psi = -kappa (see _integrate);
    r_max defaults to max(25/kappa, 3 r0) and must satisfy
    r_max >= 20/kappa when given explicitly. The result holds Python
    floats whatever the float type of epsilon.
    """
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon >= 0.0:
        raise NoDecaySeed(
            f"eps = {epsilon:g} >= 0: exterior solutions oscillate; no decaying seed"
        )
    kappa = math.sqrt(-epsilon)
    if p.geometry == "cylinder":
        mu = _cylinder_mu(p)
        return _state_at_r0(
            p, (0.5 - mu) / p.r0 - kappa * _bessel_k_ratio(mu, kappa * p.r0), "exterior"
        )
    if r_max is None:
        r_max = max(25.0 / kappa, 3.0 * p.r0)
    if r_max < 20.0 / kappa:
        raise ValueError(f"r_max = {r_max:g} below the asymptotic region 20/kappa = {20.0 / kappa:g}")
    if r_max <= p.r0:
        raise ValueError("r_max must exceed r0")
    r0, b = float(p.r0), float(p.beta)
    y, steps = _integrate(
        _centrifugal(p), -2.0 * b * p.w * r0**3, b * b * r0**6, kappa, float(r_max), r0, float(rtol)
    )
    return _state_at_r0(p, y, "exterior", steps)


def _exterior_zero_energy(p: RadialProblem) -> ShootResult:
    """Bounded exterior solution at eps = 0, as a state at r0, in closed form.

    The cylinder exterior potential is exactly C/r^2, so the bounded
    solution is the power r^q with q = 1/2 - |w + beta r0^2|. In the
    ball exterior, t = 1/r and psi = phi/t turn the equation into
    Whittaker's in x = 2 s t with s = |beta| r0^3 (DLMF 13.14), so the
    bounded solution is psi = r^-l e^{-s/r} M(a, 2l+2, 2s/r) with
    k = sign(beta) w and a = l + 1 - k in {0, 1, 2l+1, 2l+2}. Its
    log-derivative takes M' from DLMF 13.3.15; at a = 0, M = 1.
    """
    r0 = p.r0
    if p.geometry == "cylinder":
        return _state_at_r0(p, (0.5 - _cylinder_mu(p)) / r0, "exterior")
    s = abs(p.beta) * r0**3
    a = p.l + 1.0 - math.copysign(1.0, p.beta) * p.w
    b = 2.0 * p.l + 2.0
    # at a = 0 the term is 0; skipping it, as in shoot_interior, also skips
    # the transformed denominator, which underflows to 0 at large z
    ratio = 0.0 if a == 0.0 else _kummer_ratio(a, b, 2.0 * s / r0)
    return _state_at_r0(p, (s / r0 - p.l - 2.0 * s / r0 * (a / b) * ratio) / r0, "exterior")


@dataclass(frozen=True)
class BoundState:
    """A matched state: a bound state, or the eps = 0 zero-mode endpoint.

    node_count is 0: no node count is computed yet. The field stays so
    that the JSON and CSV artifacts keep their node_count column.
    """

    epsilon: float
    node_count: int
    match_residual: float

    def to_json_dict(self) -> dict:
        return {
            "epsilon_cm2": self.epsilon,
            "node_count": self.node_count,
            "match_residual": self.match_residual,
        }


@dataclass(frozen=True)
class SpectrumReport:
    """Matching results for one channel over the window [epsilon_lo, 0].

    bound_states holds strictly negative eigenvalues (none exist for
    these squared-operator channels; the field stays empty and the scan
    certifies that). A zero-energy normalizable match, when present, is
    reported in zero_mode. classification_notes explains the outcome.
    The JSON form writes the window as [epsilon_lo, 0] and the continuum
    threshold as 0: every channel's continuum starts at eps = 0.
    """

    problem: RadialProblem
    epsilon_lo: float
    bound_states: tuple[BoundState, ...]
    zero_mode: Optional[BoundState]
    classification_notes: str
    scan_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        eps = [s.epsilon for s in self.bound_states]
        if any(e >= 0.0 for e in eps):
            raise ValueError("bound-state energies must be strictly negative")
        if eps != sorted(eps) or len(set(eps)) != len(eps):
            raise ValueError("bound-state energies must be strictly ascending")

    def to_json_dict(self) -> dict:
        return {
            "geometry": self.problem.geometry,
            "l": self.problem.l,
            "w": self.problem.w,
            "beta_cm2": self.problem.beta,
            "r0_cm": self.problem.r0,
            "epsilon_window_cm2": [self.epsilon_lo, 0.0],
            "continuum_threshold_cm2": 0.0,
            "bound_states": [s.to_json_dict() for s in self.bound_states],
            "zero_mode": None if self.zero_mode is None else self.zero_mode.to_json_dict(),
            "classification_notes": self.classification_notes,
            "scan": dict(self.scan_meta),
        }

    def csv_rows(self) -> list[tuple]:
        labelled = [(s, "bound") for s in self.bound_states]
        if self.zero_mode is not None:
            labelled.append((self.zero_mode, "zero_mode"))
        return [
            (self.problem.l, self.problem.w, s.epsilon, s.node_count, s.match_residual, kind)
            for s, kind in labelled
        ]


def _wronskian_mismatch(li: float, le: float, r0: float) -> float:
    """Scale-free mismatch of two log-derivatives at r0; sign changes locate eigenvalues."""
    return (li - le) / ((1.0 + r0 * abs(li)) * (1.0 + r0 * abs(le)))


def _scan_sign_changes(fvals: list[float]) -> list[int]:
    hits = []
    for i in range(len(fvals) - 1):
        a, b = fvals[i], fvals[i + 1]
        if a == 0.0:
            continue
        if b == 0.0:
            hits.append(i)
        elif (a > 0.0) != (b > 0.0):
            hits.append(i)
    return hits


_ZERO_MODE_MATCH_TOL = 1.0e-6
_ROOT_RTOL = 4.0 * 2.0**-52  # the tightest rtol brentq accepts
# The sphere scan reads a grid point's sign, that of li - le, from an
# exterior le integrated at _SCAN_RTOL, and integrates it again at rtol
# only when |li - le| < _SIGN_GUARD (|le| + 1/r0). At _SCAN_RTOL le errs
# by less than 2e-6 (|le| + 1/r0) over the CLI's range, so outside that
# band the coarse sign is the rtol one
_SCAN_RTOL = 1.0e-8
_SIGN_GUARD = 1.0e-3


def _auto_epsilon_lo(p: RadialProblem) -> float:
    """find_spectrum's default window floor, cm^-2."""
    rs = np.geomspace(1.0e-3 * p.r0, 10.0 * p.r0, 1024)
    vmin = float(np.min(effective_potential(p, rs)))
    if vmin < 0.0:
        return 1.05 * vmin
    return -(abs(p.beta) + 1.0 / p.r0**2)


def find_spectrum(
    p: RadialProblem,
    epsilon_lo: Optional[float] = None,
    n_grid: int = 400,
    rtol: float = 1.0e-10,
) -> SpectrumReport:
    """Scan the matching mismatch over the window [epsilon_lo, 0].

    The window always ends at the continuum threshold eps = 0. The
    negative floor epsilon_lo defaults to 1.05 times the minimum of
    V_eff over (1e-3 r0, 10 r0), or -(|beta| + 1/r0^2) when that minimum
    is not negative.

    The grid runs log-spaced in |eps| from |epsilon_lo| to
    1e-6 |epsilon_lo|, so shallow states near the threshold are
    resolved; its points are Python floats. Each bracketed sign change
    is refined by scipy's brentq to about 4 ulp. The endpoint eps = 0 is
    checked separately against the bounded zero-energy exterior
    solution, in closed form for both geometries (a power law for the
    cylinder, a Kummer function of 1/r for the sphere), and reported as
    a zero mode only when the log-derivatives agree AND the matched state
    is a square-integrable kernel state of the first-order operator;
    that combination occurs for cylinders below the coupling threshold
    and never for spheres. Only the sphere's eps < 0 exterior is
    integrated (DOP853 on the log-derivative, see _integrate). The scan
    needs only each grid point's sign, so a sphere point is integrated at
    max(rtol, 1e-8) first, and again at rtol only when the interior and
    exterior log-derivatives agree to within 1e-3 (|L| + 1/r0), L the
    exterior one, or when the first pass overflows. rtol thus sets the
    integration of those guard-band points and of every brentq
    refinement; the cylinder exterior is closed form and ignores it.
    """
    if epsilon_lo is None:
        epsilon_lo = _auto_epsilon_lo(p)
    if not epsilon_lo < 0.0:
        raise ValueError("window floor epsilon_lo must be negative")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")

    # Python floats: numpy scalars would slow every integrator stage
    mag = abs(epsilon_lo)
    grid = [-g for g in np.geomspace(mag, 1.0e-6 * mag, n_grid).tolist()]

    def mismatch(eps: float) -> float:
        li = shoot_interior(p, eps).log_derivative
        le = shoot_exterior(p, eps, rtol=rtol).log_derivative
        return _wronskian_mismatch(li, le, p.r0)

    # the cylinder exterior is closed form and ignores rtol
    coarse = max(rtol, _SCAN_RTOL)
    one_pass = p.geometry == "cylinder" or coarse == rtol

    def scan_point(eps: float) -> float:
        li = shoot_interior(p, eps).log_derivative
        try:
            le = shoot_exterior(p, eps, rtol=coarse).log_derivative
            if abs(li - le) >= _SIGN_GUARD * (abs(le) + 1.0 / p.r0):
                return _wronskian_mismatch(li, le, p.r0)
        except Overflow:  # the one error a tolerance decides: the rtol pass raises or not
            pass
        le = shoot_exterior(p, eps, rtol=rtol).log_derivative
        return _wronskian_mismatch(li, le, p.r0)

    fvals = [mismatch(e) if one_pass else scan_point(e) for e in grid]
    states = []
    for i in _scan_sign_changes(fvals):
        # brentq's default xtol (2e-12 absolute) is coarse beside a small
        # |eps|; grid[i + 1] is the bracket end nearer eps = 0
        xtol = -_ROOT_RTOL * grid[i + 1]
        root = optimize.brentq(mismatch, grid[i], grid[i + 1], xtol=xtol, rtol=_ROOT_RTOL)
        li = shoot_interior(p, root).log_derivative
        le = shoot_exterior(p, root, rtol=rtol).log_derivative
        states.append(BoundState(epsilon=root, node_count=0, match_residual=abs(li - le)))

    # A zero mode must be a kernel state of the first-order operator,
    # not merely an eps = 0 solution of the squared equation, and a
    # matched eps = 0 endpoint alone cannot tell the two apart: every
    # attractive cylinder matches identically (interior log-slope
    # 1/(2 r0) + beta r0 equals the exterior one for all couplings),
    # and strongly coupled aligned sphere channels match the decaying
    # second solution to ~exp(-beta r0^2) accuracy. The cylinder kernel
    # state is the matched power tail itself, square-integrable in the
    # u picture exactly when its exponent is < -1/2; the sphere kernel
    # state grows like r^(l+1) outside, so no sphere channel has one.
    if p.geometry == "cylinder":
        tail_exponent = 0.5 - _cylinder_mu(p)
        kernel_candidate = tail_exponent < -0.5
    else:
        tail_exponent = float(-p.l)
        kernel_candidate = False

    zero_mode = None
    li = shoot_interior(p, 0.0).log_derivative
    le = _exterior_zero_energy(p).log_derivative
    rel = abs(li - le) / (abs(li) + abs(le) + 1.0 / p.r0)
    if rel < _ZERO_MODE_MATCH_TOL and kernel_candidate:
        zero_mode = BoundState(epsilon=0.0, node_count=0, match_residual=rel)
        zero_note = (
            " The eps = 0 endpoint matches the bounded exterior solution "
            f"(relative log-derivative gap {rel:.3g}) and the tail "
            f"r^{tail_exponent:g} is square-integrable: normalizable zero mode."
        )
    elif rel < _ZERO_MODE_MATCH_TOL:
        if p.geometry == "cylinder":
            reason = f"but its tail r^{tail_exponent:g} is not square-integrable"
        else:
            reason = (
                f"but the first-order kernel solution grows like r^{p.l + 1} "
                "outside the source, so the matched state is not a "
                "supercharge kernel state"
            )
        zero_note = (
            " The eps = 0 endpoint matches the bounded exterior solution "
            f"(relative log-derivative gap {rel:.3g}) {reason}: no zero mode."
        )
    else:
        zero_note = (
            " The eps = 0 endpoint does not match the bounded exterior solution "
            f"(relative log-derivative gap {rel:.3g})."
        )

    if states:
        note = f"{len(states)} bound state(s) located by sign-change bracketing."
    else:
        note = (
            "NoBoundStates: the matching mismatch has no sign change in the window; "
            "consistent with a nonnegative (squared-operator) channel Hamiltonian."
        )
    return SpectrumReport(
        problem=p,
        epsilon_lo=epsilon_lo,
        bound_states=tuple(states),
        zero_mode=zero_mode,
        classification_notes=note + zero_note,
        scan_meta={"n_grid": n_grid, "rtol": rtol, "grid_kind": "log|eps|"},
    )
