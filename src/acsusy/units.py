"""Physical constants and coupling strengths, Gaussian CGS throughout.

Unit conventions used by every module downstream:

    length              cm
    charge              esu            (esu^2 = erg cm)
    volume density      esu / cm^3
    line density        esu / cm
    electric field      esu / cm^2
    rest energy         erg
    eta                 cm / esu       (so eta * E is cm^-1)
    beta, epsilon       cm^-2

Energies enter the radial problems only through the shifted eigenvalue
epsilon = E^2 - M^2 expressed in cm^-2, on the same footing as beta^2 r^2
and the Laplacian. No hbar*c conversions happen inside the package; all
spectra and potentials stay in cm^-2.

Sign conventions. The moment coupling kappa is stored as a bare number
whose sign propagates everywhere: eta is odd in kappa, beta_sphere
and the slab bound (fields.Slab.k_bound_sq) are odd in
(kappa * rho0), beta_cylinder is odd in (kappa * rho). The default
constant set uses kappa = +1.9130, the magnitude convention under
which a positive sphere or slab charge density gives a confining
Gaussian weight. Callers who prefer the signed-moment convention pass
their own PhysicalConstants; every formula here is covariant under
(kappa, rho) -> (-kappa, -rho).

PhysicalConstants and the source geometries in fields are Frozen
records, plain __slots__ classes rather than frozen dataclasses:
importing dataclasses pulls in inspect, about 11 ms at every start of
the command line, and reading a config needs neither.
"""

from __future__ import annotations

import math

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "coupling_eta",
    "beta_sphere",
    "beta_cylinder",
    "lambda_threshold",
]


class Frozen:
    """Immutable value record with the semantics of a frozen dataclass.

    A subclass names its fields in __slots__, in constructor order, and
    its __init__ validates the arguments and stores them with _set.
    Records are equal when they have the same type and field values,
    hash by those values, repr as Name(field=value, ...) and raise
    AttributeError on assignment.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which revalidates
        return type(self), self._values()


class PhysicalConstants(Frozen):
    """Inputs every coupling derives from.

    e_esu       elementary charge, esu
    kappa_n     anomalous moment number, dimensionless (see module doc)
    m_c2_erg    rest energy of the particle, erg
    """

    __slots__ = ("e_esu", "kappa_n", "m_c2_erg")

    def __init__(
        self, e_esu: float = 4.8032e-10, kappa_n: float = 1.9130, m_c2_erg: float = 1.5053e-3
    ) -> None:
        if not (e_esu > 0.0 and math.isfinite(e_esu)):
            raise ValueError("e_esu must be positive and finite")
        if not (m_c2_erg > 0.0 and math.isfinite(m_c2_erg)):
            raise ValueError("m_c2_erg must be positive and finite")
        if not math.isfinite(kappa_n) or kappa_n == 0.0:
            raise ValueError("kappa_n must be finite and nonzero")
        self._set(e_esu, kappa_n, m_c2_erg)


DEFAULT_CONSTANTS = PhysicalConstants()


def coupling_eta(constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Moment-to-field coupling eta = e * kappa / (M c^2), in cm/esu.

    eta * E is an inverse length for E in esu/cm^2. Odd in kappa.
    """
    return constants.e_esu * constants.kappa_n / constants.m_c2_erg


def beta_sphere(rho0: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Quadratic well strength (4 pi / 3) eta rho0 for a uniform ball, cm^-2.

    Positive beta means the interior weight exp(-beta r^2 / 2) decays.
    Any sign of rho0 is accepted; the verdict machinery reads the sign.
    """
    if not math.isfinite(rho0):
        raise ValueError("rho0 must be finite")
    return (4.0 * math.pi / 3.0) * coupling_eta(constants) * rho0


def beta_cylinder(rho: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Cylinder coupling -eta * rho / 4 for volume density rho, cm^-2.

    The interior weight is exp(+beta r^2 / 2), so normalizable behavior
    needs beta < 0, i.e. kappa * rho > 0. Opposite sign convention from
    beta_sphere: equal densities give the exact ratio -16 pi / 3.
    """
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    return -coupling_eta(constants) * rho / 4.0


def lambda_threshold(constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Critical line density 4 pi M c^2 / |e kappa|, esu/cm.

    For a cylinder of volume density rho and radius r0, the line density
    is lambda = pi r0^2 rho and |beta| r0^2 = |eta| lambda / (4 pi), so
    |beta| r0^2 > 1 is exactly lambda > lambda_threshold, independent of
    r0. Always positive; |kappa| enters, not its sign.
    """
    return 4.0 * math.pi * constants.m_c2_erg / abs(constants.e_esu * constants.kappa_n)
