"""Supersymmetric analysis of a neutral spin-1/2 magnetic moment in static
charged sources: closed-form ground profiles, normalizability verdicts,
radial spectra, and an independent grid cross-check.

All quantities are Gaussian CGS; lengths in cm, densities in esu/cm^3,
couplings beta in cm^-2, spectral shifts epsilon = E^2 - M^2 c^4 (in units
where they carry cm^-2).

Importing the package loads none of its modules: each exported name, and
each submodule (``acsusy.radial`` and so on), is imported the first time
it is read (see ``acsusy._lazy``).
"""

from ._lazy import load_on_first_use

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "AcsusyError",
        "BoundaryPoint",
        "ConfigError",
        "GridTooCoarse",
        "InadmissibleK",
        "InvalidChannel",
        "NoDecaySeed",
        "NonconfiningSign",
        "Overflow",
        "PoleB",
        "RangeExceeded",
    ),
    "fields": (
        "Cylinder",
        "Slab",
        "Sphere",
        "boundary_distance",
        "charge_density",
        "divergence_check",
        "efield",
    ),
    "oracle": (
        "DiscreteSusyPair",
        "GridHamiltonian",
        "build_grid_hamiltonian",
        "build_susy_pair",
        "eigenvector",
        "grid_mode_overlap",
        "lowest_eigenvalues",
        "richardson_pair",
        "susy_algebra_check",
    ),
    "radial": (
        "BoundState",
        "RadialProblem",
        "ShootResult",
        "SpectrumReport",
        "effective_potential",
        "find_spectrum",
        "frobenius_exponent",
        "shoot_exterior",
        "shoot_interior",
        "superpotential",
    ),
    "slab": ("SlabSolution", "build_slab_solution", "degeneracy_family", "slab_residual"),
    "specfun": ("bessel_j", "kummer_1f1", "spin_orbit_eigenvalue"),
    "units": (
        "DEFAULT_CONSTANTS",
        "PhysicalConstants",
        "beta_cylinder",
        "beta_sphere",
        "coupling_eta",
        "lambda_threshold",
        "slab_k_bound",
    ),
    "zeromode": (
        "NormReport",
        "PiecewiseRadialFunction",
        "SusyVerdict",
        "TailBehavior",
        "cylinder_zero_mode",
        "norm_integral",
        "slab_zero_mode",
        "sphere_zero_mode",
        "susy_status",
        "zero_mode_residual",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

__getattr__ = load_on_first_use(
    globals(),
    {name: home for home, names in _EXPORTS.items() for name in names}
    | {module: module for module in _SUBMODULES},
)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
