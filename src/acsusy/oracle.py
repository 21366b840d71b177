"""Independent grid check for the radial channels.

Discretizes the full (non-reduced) radial operator
    H phi = -(1/r^d) (r^d phi')' + V phi,   d = 2 (ball) or 1 (cylinder)
with a conservative flux scheme on cell centers r_j = (j - 1/2) h,
h = r_max / n, interfaces at j h. The inner interface flux is zero
(regularity), the outer is Dirichlet. Symmetrizing by sqrt(r^d h)
gives a real symmetric tridiagonal matrix whose eigenvalues converge
at second order in h; Richardson extrapolation of an n / 2n pair
removes the leading error term.

This route is independent of shooting: it builds V from
radial.superpotential W, where shooting uses hand-derived Kummer
parameters and exterior coefficients, and it uses a different variable
(phi, not the reduced psi), a different discretization and a different
eigenvalue algorithm (LAPACK tridiagonal eigensolves through
scipy.linalg.eigh_tridiagonal, not closed-form matching and root
bracketing).

The same machinery exposes the factorized pair: a discrete first-order
operator Q built from the same W gives H_minus = Q^T Q and
H_plus = Q Q^T, both nonnegative by construction, with H_minus equal to
the flux discretization up to truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import linalg, np
from .errors import GridTooCoarse
from .radial import GEOM_SPHERE, RadialProblem, _smooth_potential, superpotential

__all__ = [
    "GridHamiltonian",
    "DiscreteSusyPair",
    "build_grid_hamiltonian",
    "lowest_eigenvalues",
    "eigenvector",
    "richardson_pair",
    "build_susy_pair",
    "susy_algebra_check",
    "grid_mode_overlap",
]


@dataclass(frozen=True)
class GridHamiltonian:
    """Symmetric tridiagonal grid operator for one channel."""

    problem: RadialProblem
    n: int
    r_max: float
    h: float
    diag: np.ndarray
    offdiag: np.ndarray
    cells: np.ndarray
    measure_power: int

    def scale(self) -> float:
        """Magnitude bound used for eigenvalue tolerances."""
        off = np.abs(self.offdiag)
        return float(np.max(np.abs(self.diag)) + 2.0 * (np.max(off) if off.size else 0.0))


def _grid(p: RadialProblem, n: int, r_max: float):
    """Checked grid of one channel: (d, h, cell centers, faces).

    Face j sits between cells j and j+1, so faces[0] pairs with cell 1.
    """
    if n < 100:
        raise ValueError("n must be at least 100")
    if not (r_max > p.r0):
        raise ValueError("r_max must exceed r0")
    d = 2 if p.geometry == GEOM_SPHERE else 1
    h = r_max / n
    j = np.arange(1, n + 1, dtype=float)
    return d, h, (j - 0.5) * h, j * h


def build_grid_hamiltonian(p: RadialProblem, n: int, r_max: float) -> GridHamiltonian:
    """Assemble the conservative flux discretization.

    Requires n >= 100 and r_max > r0. The phi-picture potential is
    C/r^2 plus the smooth part of V_eff, with C = l(l+1) (ball) or nu^2
    (cylinder). Raises GridTooCoarse when the grid cannot resolve the
    smooth part: h^2 max_j |V_phi(r_j) - C/r_j^2| > 0.1 (the singular
    part is handled exactly by the scheme's geometry factors).
    """
    d, h, rc, ri = _grid(p, n, r_max)
    smooth = _smooth_potential(p, rc)
    resolution = h * h * float(np.max(np.abs(smooth)))
    if resolution > 0.1:
        raise GridTooCoarse(
            f"h^2 max|V| = {resolution:.3g} > 0.1; increase n or shrink r_max"
        )
    cent = float(p.l * (p.l + 1)) if p.geometry == GEOM_SPHERE else float(p.l * p.l)
    vphi = cent / rc**2 + smooth

    rid = ri**d
    rcd = rc**d
    # flux through the inner face of cell j is rid[j-1]; cell 1 has zero inner flux
    inner_face = np.concatenate(([0.0], rid[:-1]))
    outer_face = rid.copy()
    # Dirichlet wall at the face r_max: half-cell one-sided gradient,
    # not a ghost cell center (which would park the wall at r_max + h/2
    # and cost first-order accuracy for wall-filling states)
    outer_face[-1] *= 2.0
    diag = (outer_face + inner_face) / (rcd * h * h) + vphi
    off = -rid[:-1] / (np.sqrt(rcd[:-1] * rcd[1:]) * h * h)
    return GridHamiltonian(
        problem=p, n=n, r_max=r_max, h=h, diag=diag, offdiag=off,
        cells=rc, measure_power=d,
    )


def lowest_eigenvalues(H: GridHamiltonian, m: int) -> np.ndarray:
    """m smallest eigenvalues, ascending (LAPACK stebz bisection)."""
    if not (1 <= m <= 10):
        raise ValueError("m must be between 1 and 10")
    if m > H.n:
        raise ValueError("m exceeds the matrix dimension")
    return linalg.eigh_tridiagonal(H.diag, H.offdiag, eigvals_only=True, select="i",
                                   select_range=(0, m - 1))


def eigenvector(H: GridHamiltonian) -> np.ndarray:
    """Unit eigenvector of the grid ground state.

    LAPACK stebz plus stein inverse iteration; the sign is fixed so the
    largest-magnitude component is positive.
    """
    x = linalg.eigh_tridiagonal(H.diag, H.offdiag, select="i", select_range=(0, 0))[1][:, 0]
    if x[np.argmax(np.abs(x))] < 0.0:
        x = -x
    return x


def richardson_pair(p: RadialProblem, n: int, r_max: float, m: int) -> dict:
    """n and 2n eigenvalues plus the second-order extrapolation."""
    e_n = lowest_eigenvalues(build_grid_hamiltonian(p, n, r_max), m)
    e_2n = lowest_eigenvalues(build_grid_hamiltonian(p, 2 * n, r_max), m)
    extrap = e_2n + (e_2n - e_n) / 3.0
    return {"n": n, "eigs_n": e_n, "eigs_2n": e_2n, "extrapolated": extrap}


@dataclass(frozen=True)
class DiscreteSusyPair:
    """Factorized pair H_minus = Q^T Q, H_plus = Q Q^T on the same grid.

    Q maps cell values to interface values; its two coefficient vectors
    are stored per cell (main) and per interior interface (upper).
    """

    problem: RadialProblem
    n: int
    r_max: float
    q_main: np.ndarray
    q_upper: np.ndarray

    def h_minus_bands(self) -> tuple[np.ndarray, np.ndarray]:
        diag = self.q_main**2
        diag[1:] += self.q_upper**2
        off = self.q_main[:-1] * self.q_upper
        return diag, off

    def h_plus_bands(self) -> tuple[np.ndarray, np.ndarray]:
        diag = self.q_main**2
        diag[:-1] += self.q_upper**2
        off = self.q_upper * self.q_main[1:]
        return diag, off


def build_susy_pair(
    geometry: str, beta: float, r0: float, n: int, r_max: float
) -> DiscreteSusyPair:
    """Assemble the discrete factorized pair in the zero-mode channel.

    The first-order operator acts on cell values and produces interface
    values: (Q x)_i = main_i x_i + upper_i x_{i+1}, with geometry
    weights folded in so that Q^T Q is the symmetrized flux form of
    -(1/r^d)(r^d phi')' + (W^2 + W' + d W / r) up to a band difference
    of second order in h, which susy_algebra_check reports.
    """
    p = RadialProblem(geometry=geometry, l=0, w=0, beta=beta, r0=r0)
    d, h, rc, ri = _grid(p, n, r_max)
    w_if = superpotential(p, ri)
    rid = ri**d
    rcd = rc**d
    main = np.sqrt(rid / rcd) * (-1.0 / h - 0.5 * w_if)
    upper = np.sqrt(rid[:-1] / rcd[1:]) * (1.0 / h - 0.5 * w_if[:-1])
    # mirror the flux form's face-located Dirichlet wall (factor 2 on
    # the last outer-face flux); the W cross-term it doubles is O(W h)
    # relative to the 1/h^2 band scale at that single cell
    main[-1] *= math.sqrt(2.0)
    return DiscreteSusyPair(problem=p, n=n, r_max=r_max, q_main=main, q_upper=upper)


def _tri_lowest(diag: np.ndarray, off: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric tridiagonal."""
    return float(linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(0, 0))[0])


def susy_algebra_check(pair: DiscreteSusyPair, H: GridHamiltonian) -> dict:
    """Structural identities of the factorized pair.

    H is the independent flux assembly of the same channel on the same
    grid, build_grid_hamiltonian(pair.problem, pair.n, pair.r_max); a
    caller that also needs its spectrum builds it once for both.

    q2_norm is identically zero: the pair stores one operator Q and its
    transpose, so Q composed with itself is never formed; the entry
    records that the nilpotency holds by construction. The residual
    compares H_minus = Q^T Q against H (relative infinity norm over both
    bands, excluding the wall cell's diagonal: the Dirichlet face
    treatment leaves a drift cross-term there that has no tridiagonal
    Gram counterpart, O(W h) relative and irrelevant to the bulk
    agreement this diagnostic measures). Both ground eigenvalues are
    reported; nonnegativity is exact up to roundoff because each matrix
    is an explicit Gram form.
    """
    if (H.problem, H.n, H.r_max) != (pair.problem, pair.n, pair.r_max):
        raise ValueError("H must be the flux assembly of the pair's channel and grid")
    dm, om = pair.h_minus_bands()
    denom = max(float(np.max(np.abs(H.diag))), float(np.max(np.abs(H.offdiag))), 1.0e-300)
    res = max(
        float(np.max(np.abs(dm[:-1] - H.diag[:-1]))),
        float(np.max(np.abs(om - H.offdiag))),
    ) / denom
    scale = float(np.max(np.abs(dm))) + 2.0 * float(np.max(np.abs(om)))
    dp, op = pair.h_plus_bands()
    scale_p = float(np.max(np.abs(dp))) + 2.0 * float(np.max(np.abs(op)))
    min_minus = _tri_lowest(dm, om)
    min_plus = _tri_lowest(dp, op)
    tol = 1.0e-9 * max(scale, scale_p)
    return {
        "q2_norm": 0.0,
        "anticommutator_vs_h_residual": res,
        "min_eig_minus": min_minus,
        "min_eig_plus": min_plus,
        "nonneg_spectrum_flag": bool(min_minus > -tol and min_plus > -tol),
    }


def grid_mode_overlap(H: GridHamiltonian, profile) -> float:
    """Overlap of a radial profile with the grid ground state.

    Samples profile(r) at the cell centers, weights by the volume
    measure sqrt(r^d h), normalizes, and returns the absolute inner
    product with the unit ground eigenvector. 1 means the sampled
    profile is the ground state.
    """
    vals = np.array([float(profile(r)) for r in H.cells])
    weights = np.sqrt(H.cells**H.measure_power * H.h)
    x = vals * weights
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("profile vanishes on the grid")
    x /= nrm
    return float(abs(np.dot(x, eigenvector(H))))
