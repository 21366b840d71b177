"""The three source geometries and their piecewise electric fields.

Each source class is the one place its geometry is defined: its kind
name, density and size, field, interface coordinate and, for sphere and
cylinder, the coupling beta and the default radial grid box. Callers
read these instead of testing the configuration's type.

The default expressions follow the source analysis verbatim, including
two places where they are not Gauss-law consistent: the cylinder
normalization (rho x / 2 where Gauss gives 2 pi rho x) and the slab
exterior magnitude (4 pi rho0 L where the interior reaches 2 pi rho0 L
at the face). Pass strict_gauss=True to substitute the self-consistent
values. Both conventions stay testable; divergence_check reports the
residual against 4 pi rho either way.

Boundary points evaluate through the interior branch (regions are
closed on the inside).

The sources are Frozen records (see units), not dataclasses: reading a
config builds them, and dataclasses and typing would slow every start.
"""

from __future__ import annotations

import math

from ._lazy import np
from .errors import BoundaryPoint
from .units import DEFAULT_CONSTANTS, Frozen, PhysicalConstants, beta_cylinder, beta_sphere, coupling_eta

__all__ = [
    "Sphere",
    "Slab",
    "Cylinder",
    "ChargeConfiguration",
    "GEOMETRIES",
    "efield",
    "charge_density",
    "divergence_check",
    "boundary_distance",
]


class _Source(Frozen):
    """What the three uniform sources share.

    Each source has a kind name and two fields, density then size, named
    by the class attributes kind, density_name and size_name (the size
    name is also its config and JSON key). It measures positions by one
    coordinate: distance from the center, the mid-plane or the axis.
    The interface sits where that coordinate equals edge.
    """

    __slots__ = ()

    def __init__(self, density: float, size: float) -> None:
        if not math.isfinite(density):
            raise ValueError(f"{self.density_name} must be finite")
        if not (size > 0.0 and math.isfinite(size)):
            raise ValueError(f"{self.size_name} must be positive and finite")
        self._set(density, size)

    @property
    def density(self) -> float:
        """Charge density, esu/cm^3."""
        return getattr(self, self.density_name)

    @property
    def size(self) -> float:
        """Radius or thickness, cm."""
        return getattr(self, self.size_name)

    @property
    def edge(self) -> float:
        return self.size


class Sphere(_Source):
    """Uniform ball of charge: density rho0 [esu/cm^3] inside radius r0 [cm]."""

    __slots__ = ("rho0", "r0")
    kind, density_name, size_name = "sphere", "rho0", "r0"

    def __init__(self, rho0: float, r0: float) -> None:
        super().__init__(rho0, r0)

    def beta(self, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
        return beta_sphere(self.rho0, constants)

    @property
    def default_r_max(self) -> float:
        """Outer wall of the default radial grid box, cm."""
        return 10.0 * self.r0

    def coordinate(self, pos: np.ndarray) -> float:
        return float(np.linalg.norm(pos))

    def field(self, pos: np.ndarray, strict_gauss: bool) -> np.ndarray:
        r = self.coordinate(pos)
        if r <= self.r0:
            return (4.0 * math.pi * self.rho0 / 3.0) * pos
        return (4.0 * math.pi * self.rho0 * self.r0**3 / 3.0) * pos / r**3


class Slab(_Source):
    """Uniform slab: density rho0 [esu/cm^3], thickness L [cm], centered on z = 0."""

    __slots__ = ("rho0", "L")
    kind, density_name, size_name = "slab", "rho0", "L"

    def __init__(self, rho0: float, L: float) -> None:
        super().__init__(rho0, L)

    def k_bound_sq(self, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
        """Confinement bound 4 pi eta rho0 on k^2, cm^-2; any sign."""
        return 4.0 * math.pi * coupling_eta(constants) * self.rho0

    @property
    def edge(self) -> float:
        return self.L / 2.0

    def coordinate(self, pos: np.ndarray) -> float:
        return abs(float(pos[2]))

    def field(self, pos: np.ndarray, strict_gauss: bool) -> np.ndarray:
        z = pos[2]
        if self.coordinate(pos) <= self.edge:
            ez = 4.0 * math.pi * self.rho0 * z
        else:
            # face value of the interior formula is 2*pi*rho0*L; the
            # verbatim exterior doubles it, strict_gauss keeps it
            scale = 2.0 * math.pi if strict_gauss else 4.0 * math.pi
            ez = scale * self.rho0 * self.L * math.copysign(1.0, z)
        return np.array([0.0, 0.0, ez])


class Cylinder(_Source):
    """Uniform infinite cylinder along z: density rho [esu/cm^3], radius r0 [cm]."""

    __slots__ = ("rho", "r0")
    kind, density_name, size_name = "cylinder", "rho", "r0"

    def __init__(self, rho: float, r0: float) -> None:
        super().__init__(rho, r0)

    def beta(self, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
        return beta_cylinder(self.rho, constants)

    @property
    def default_r_max(self) -> float:
        """Outer wall of the default radial grid box, cm."""
        return 20.0 * self.r0

    @property
    def line_density(self) -> float:
        """Charge per unit length pi r0^2 rho, esu/cm."""
        return self.rho * math.pi * self.r0**2

    def coordinate(self, pos: np.ndarray) -> float:
        return math.hypot(float(pos[0]), float(pos[1]))

    def field(self, pos: np.ndarray, strict_gauss: bool) -> np.ndarray:
        perp = np.array([pos[0], pos[1], 0.0])
        s = self.coordinate(pos)
        amp = 2.0 * math.pi * self.rho if strict_gauss else self.rho / 2.0
        if s <= self.r0:
            return amp * perp
        return amp * self.r0**2 * perp / s**2


ChargeConfiguration = Sphere | Slab | Cylinder

# config kind -> source class, in the order the CLI lists the kinds
GEOMETRIES = {cls.kind: cls for cls in (Sphere, Slab, Cylinder)}


def efield(
    cfg: ChargeConfiguration,
    x: "np.ndarray | list[float] | tuple[float, float, float]",
    strict_gauss: bool = False,
) -> np.ndarray:
    """Electric field at point x, as a length-3 array in esu/cm^2.

    Finite everywhere including boundaries and the symmetry center/axis.
    """
    pos = np.asarray(x, dtype=float)
    if pos.shape != (3,):
        raise ValueError("x must be a 3-vector")
    return cfg.field(pos, strict_gauss)


def charge_density(cfg: ChargeConfiguration, x) -> float:
    """Source density at x: the configuration's density inside, 0 outside."""
    inside = cfg.coordinate(np.asarray(x, dtype=float)) <= cfg.edge
    return cfg.density if inside else 0.0


def boundary_distance(cfg: ChargeConfiguration, x) -> float:
    """Distance from x to the nearest region interface."""
    return abs(cfg.coordinate(np.asarray(x, dtype=float)) - cfg.edge)


def divergence_check(
    cfg: ChargeConfiguration,
    x,
    h: float,
    strict_gauss: bool = False,
) -> float:
    """Central-difference div E minus 4 pi rho at x.

    The residual is 0 up to rounding inside regions where the implemented
    field is Gauss-consistent, and O(rho) where it is not (the verbatim
    cylinder normalization). Raises BoundaryPoint when the +-h stencil
    could straddle an interface.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive and finite")
    pos = np.asarray(x, dtype=float)
    if boundary_distance(cfg, pos) <= h:
        raise BoundaryPoint(
            f"stencil of half-width {h:g} straddles an interface near {pos.tolist()}"
        )
    div = 0.0
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        e_plus = efield(cfg, pos + step, strict_gauss=strict_gauss)
        e_minus = efield(cfg, pos - step, strict_gauss=strict_gauss)
        div += (e_plus[axis] - e_minus[axis]) / (2.0 * h)
    return div - 4.0 * math.pi * charge_density(cfg, pos)
