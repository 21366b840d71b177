"""Separated solutions for the charged slab: Bessel radial factor,
transverse confinement family, degeneracy bound.

The slab admits a one-parameter family of ground solutions labeled by a
transverse wavenumber k: a planar Bessel factor J_nu(k' r) times the
z-profile from the zeromode module. For the ground family the spectral
parameter vanishes, so k' = k. Admissible k fill the continuous band
0 <= k < sqrt(4 pi eta rho0) -- an infinite degeneracy whose upper edge
depends only on the density, not the thickness L.

The z-profile pieces are kept exactly as displayed; slab_residual
substitutes them into the transverse equation
    phi'' + (4 pi eta rho0 - k^2 - (4 pi eta rho0)^2 z^2) phi = 0
inside, and phi'' - k^2 phi = 0 outside, and reports per-region maxima
of the relative leftover instead of asserting zero. The displayed
interior Gaussian exp(-k^2 z^2/2) leaves
(k^4 - omega^2) z^2 + (omega - 2 k^2), omega = 4 pi eta rho0; the
consistent_gaussian variant leaves the constant -k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .errors import InvalidChannel, NonconfiningSign
from .fields import Slab
from .specfun import bessel_j
from .units import DEFAULT_CONSTANTS, PhysicalConstants
from .zeromode import PiecewiseRadialFunction, slab_zero_mode

__all__ = [
    "SlabSolution",
    "build_slab_solution",
    "degeneracy_family",
    "slab_residual",
]


@dataclass(frozen=True)
class SlabSolution:
    """One member of the slab ground family.

    nu is the integer azimuthal number of the planar factor and k the
    degeneracy parameter in cm^-1. k is also the planar wavenumber k':
    the spectral parameter is zero on the ground family. z_profile
    carries the piecewise transverse closed form.
    """

    nu: int
    k: float
    z_profile: PiecewiseRadialFunction

    def radial_value(self, r: float) -> float:
        """Planar factor J_nu(k r)."""
        return bessel_j(self.nu, self.k * r)

    def tabulate_z(self, n: int, z_max: float) -> list[tuple[float, float]]:
        """(z, phi_k(z)) samples on a symmetric uniform grid."""
        zs = np.linspace(-z_max, z_max, n)
        return [(float(z), self.z_profile(float(z))) for z in zs]

    def tabulate_radial(self, n: int, r_max: float) -> list[tuple[float, float]]:
        """(r, J_nu(k r)) samples on a uniform grid from 0."""
        rs = np.linspace(0.0, r_max, n)
        return [(float(r), self.radial_value(float(r))) for r in rs]


def build_slab_solution(
    nu: int,
    k: float,
    cfg: Slab,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    consistent_gaussian: bool = False,
) -> SlabSolution:
    """Assemble the ground-family member with azimuthal number nu.

    nu must be a nonnegative integer (single-valuedness of the planar
    factor). k must be admissible; InadmissibleK / NonconfiningSign
    propagate from the transverse builder. The chargeless k = 0 case
    degenerates to the free constant solution.
    """
    if isinstance(nu, bool) or not isinstance(nu, (int, np.integer)):
        raise InvalidChannel(f"nu must be an integer, got {nu!r}")
    if nu < 0:
        raise InvalidChannel(f"nu must be nonnegative, got {nu}")
    profile = slab_zero_mode(
        k, cfg.rho0, cfg.L, constants=constants, consistent_gaussian=consistent_gaussian
    )
    return SlabSolution(nu=int(nu), k=k, z_profile=profile)


def degeneracy_family(
    cfg: Slab,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    n_samples: int = 8,
) -> list[float]:
    """n_samples admissible k values spanning [0, k_max).

    The family is a continuum (infinite degeneracy); this returns a
    uniform sample of it, never the endpoint k_max itself. The band
    edge k_max = sqrt(4 pi eta rho0) carries no L dependence.
    Raises NonconfiningSign when eta * rho0 <= 0: then no transverse
    wavenumber is admissible at all (the Gaussian weight grows).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    bound = cfg.k_bound_sq(constants)
    if bound <= 0.0:
        raise NonconfiningSign(
            f"slab with eta*rho0 <= 0 admits no normalizable family (4 pi eta rho0 = {bound:.6g})"
        )
    k_max = math.sqrt(bound)
    return [float(v) for v in np.linspace(0.0, k_max, n_samples, endpoint=False)]


def _second_log_derivative(profile: PiecewiseRadialFunction, z: float) -> float:
    """phi''/phi from the region drift: W^2 + W', with W' by central FD."""
    idx = profile.region_index(z)
    reg = profile.regions[idx]
    w = reg.drift(z)
    span = abs(z) + abs(reg.lo if math.isfinite(reg.lo) else 0.0) + 1.0
    h = 1.0e-6 * span
    dist = min(abs(z - reg.lo), abs(reg.hi - z))
    if dist > 0.0:
        h = min(h, 0.4 * dist)
    wp = (reg.drift(z + h) - reg.drift(z - h)) / (2.0 * h)
    return w * w + wp


def slab_residual(
    sol: SlabSolution,
    cfg: Slab,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> dict:
    """Per-region max relative leftover of the transverse equation.

    Interior: phi'' + (omega - k^2 - omega^2 z^2) phi with
    omega = 4 pi eta rho0, evaluated through the analytic phi''/phi of
    the stored piece. Exterior: phi'' - k^2 phi (the displayed
    exponential satisfies it identically). Normalization is global per
    region, max |leftover| / max(|phi''/phi| + |potential term|), so an
    exact piece reads 0 and a wrong decay rate reads O(1) instead of
    saturating wherever the curvature crosses zero. The chargeless free
    profile returns zeros.
    """
    profile = sol.z_profile
    k2 = sol.k * sol.k
    if profile.params.get("variant") == "free":
        return {"interior": 0.0, "exterior": 0.0}
    omega = cfg.k_bound_sq(constants)
    half = cfg.L / 2.0

    def region_max(samples, potential_of) -> float:
        worst = 0.0
        scale = 0.0
        for z in samples:
            z = float(z)
            curv = _second_log_derivative(profile, z)
            potential = potential_of(z)
            worst = max(worst, abs(curv + potential))
            scale = max(scale, abs(curv) + abs(potential))
        if scale == 0.0:
            return 0.0
        return worst / scale

    interior = region_max(
        np.linspace(-0.92 * half, 0.92 * half, 201),
        lambda z: omega - k2 - omega**2 * z * z,
    )
    exterior = region_max(
        np.concatenate(
            [np.linspace(1.05 * half, half + 3.0 * cfg.L, 101),
             np.linspace(-half - 3.0 * cfg.L, -1.05 * half, 101)]
        ),
        lambda z: -k2,
    )
    return {"interior": interior, "exterior": exterior}
