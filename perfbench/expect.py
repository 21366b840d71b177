"""Independent expectations for each op's output.

Nothing here imports the package. The couplings are recomputed from a
frozen copy of the constants table, and the dichotomy rule is the one
the acceptance suite states (criterion 3): a sphere is always Broken, a
cylinder is Unbroken exactly when beta r0^2 < -1, and a slab is
Unbroken exactly when eta rho > 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

E_ESU = 4.8032e-10
KAPPA_N = 1.9130
M_C2_ERG = 1.5053e-3
ETA = E_ESU * KAPPA_N / M_C2_ERG  # cm/esu

# criterion 7: a grid level below -1e-6 x the band scale of its grid
# (the finer one, for a Richardson level) is a negative level
GRID_FLOOR = 1.0e-6

# Two program defects are known. Ops that show them count as failed and
# are listed, but do not make a run incorrect; any other failure does.
#
# 1. ROADMAP item 3: outward shooting into exp(beta r^2 / 2) picks up
#    the growing branch, and the hosting cylinder channel misses its
#    zero mode. At the spectrum ops' n_grid the onset bisects to
#    |beta| r0^2 in [17.477, 17.481] at r0 = 0.1, 0.5, 1, 2 and 10 cm.
KNOWN_DEFECT_ONSET = 17.47
MISSED_ZERO_MODE = "hosting channel reports no zero mode where the rule says Unbroken"
# 2. The documented resolution gate (h^2 max|V| <= 0.1) accepts grids
#    on which criterion 7 fails: at the smallest n it accepts, the
#    grid's lowest level falls below -1e-6 x scale although every
#    channel's spectrum starts at 0. level / scale depends on beta r0^2
#    and the channel only, not on r0. Fine sweeps over the drawn ranges
#    gave worst values of -1.40e-4 for the Richardson-extrapolated level
#    of `spectrum --verify` and -8.76e-4 for the flux-grid level that
#    `verify` reports. The limits sit just past those; a lower level is
#    not this defect.
OVERSHOOT_LIMIT = 1.5e-4
GROUND_LIMIT = 9.0e-4

# typed refusals the CLI documents for out-of-domain slab input
SLAB_REFUSAL = "admits no normalizable family"


def r_max_default(kind: str, r0: float) -> float:
    """The CLI's grid box when the config gives no r_max."""
    return 10.0 * r0 if kind == "sphere" else 20.0 * r0


def beta_cylinder(rho: float) -> float:
    return -ETA * rho / 4.0


def beta_sphere(rho: float) -> float:
    return (4.0 * math.pi / 3.0) * ETA * rho


def beta_of(kind: str, geometry: dict) -> float:
    rho = float(geometry["rho"])
    return beta_sphere(rho) if kind == "sphere" else beta_cylinder(rho)


def expected_status(kind: str, geometry: dict) -> str:
    rho = float(geometry["rho"])
    if kind == "sphere" or rho == 0.0:
        return "Broken"
    if kind == "cylinder":
        return "Unbroken" if beta_cylinder(rho) * float(geometry["r0"]) ** 2 < -1.0 else "Broken"
    return "Unbroken" if 4.0 * math.pi * ETA * rho > 0.0 else "Broken"


@dataclass
class OpResult:
    exits: list  # exit code per command
    stdout: list  # captured stdout per command
    stderr: list  # captured stderr per command
    artifacts: dict  # file name -> bytes written into the op's out dir


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    known: list = field(default_factory=list)  # the failures that are known defects
    oracle_gap: float | None = None  # shooting vs grid, ops with a zero mode
    n_grid: int = 0  # scan points the op's spectrum used
    n_states: int = 0  # bound states the scan located

    def fail(self, message: str, known: bool = False) -> None:
        self.failures.append(message)
        if known:
            self.known.append(message)

    @property
    def unexplained(self) -> list:
        return [f for f in self.failures if f not in self.known]


def _json(result: OpResult, name: str, verdict: Verdict):
    blob = result.artifacts.get(name)
    if blob is None:
        verdict.fail(f"artifact {name} missing")
        return None
    return json.loads(blob)


def smooth_potential(kind: str, w: int, beta: float, r0: float, r: np.ndarray) -> np.ndarray:
    """Channel potential of the grid picture minus its centrifugal term."""
    if kind == "sphere":
        inner = -2.0 * beta * (w + 1.5) + beta * beta * r * r
        outer = -2.0 * beta * w * r0**3 / r**3 + beta * beta * r0**6 / r**4
    else:
        inner = 2.0 * beta * (w + 1.0) + beta * beta * r * r
        outer = (2.0 * beta * r0**2 * w + beta * beta * r0**4) / r**2
    return np.where(r <= r0, inner, outer)


def band_scale(kind: str, l: int, w: int, beta: float, r0: float, n: int, r_max: float) -> float:
    """max|diag| + 2 max|offdiag| of the conservative flux grid on n cells.

    Cells sit at (j - 1/2) h, faces at j h; the inner face of cell 1
    carries no flux and the wall face r_max counts twice.
    """
    d = 2 if kind == "sphere" else 1
    h = r_max / n
    rc = (np.arange(1, n + 1) - 0.5) * h
    ri = np.arange(1, n + 1) * h
    cent = l * (l + 1) if kind == "sphere" else l * l
    inner_face = np.concatenate(([0.0], ri[:-1] ** d))
    outer_face = ri**d
    outer_face[-1] *= 2.0
    diag = (inner_face + outer_face) / (rc**d * h * h) + cent / rc**2
    diag += smooth_potential(kind, w, beta, r0, rc)
    off = ri[:-1] ** d / (np.sqrt(rc[:-1] ** d * rc[1:] ** d) * h * h)
    return float(np.max(np.abs(diag)) + 2.0 * np.max(off))


def _check_spectrum(op, result: OpResult, v: Verdict) -> None:
    if result.exits[0] != 0:
        v.fail(f"spectrum exited {result.exits[0]}: {result.stderr[0].strip()}")
        return
    kind = op.kind
    l, w = op.channel
    data = _json(result, f"spectrum_{kind}_l{l}_w{w}.json", v)
    if f"spectrum_{kind}.csv" not in result.artifacts:
        v.fail(f"artifact spectrum_{kind}.csv missing")
    if data is None:
        return
    v.n_grid = int(data["scan"]["n_grid"])
    v.n_states = len(data["bound_states"])
    if data["bound_states"]:
        eps = [s["epsilon_cm2"] for s in data["bound_states"]]
        v.fail(f"bound state(s) below 0 at {eps} although H = A^dagger A")
    oracle = data["oracle"]
    n = int(oracle["n"])
    lowest = float(oracle["lowest_epsilon_cm2"])
    geometry = op.config["geometry"]
    scale = band_scale(kind, l, w, beta_of(kind, geometry), float(geometry["r0"]), 2 * n,
                       float(oracle["r_max_cm"]))
    has_zero = data["zero_mode"] is not None
    if has_zero:
        v.oracle_gap = float(oracle["relative_gap"])
    unbroken = expected_status(kind, geometry) == "Unbroken"
    hosting = (l, w) == (0, 0)
    if hosting and has_zero and not unbroken:
        v.fail("hosting channel reports a zero mode where the rule says Broken")
    elif hosting and unbroken and not has_zero:
        v.fail(MISSED_ZERO_MODE, known=kind == "cylinder" and abs(op.x) >= KNOWN_DEFECT_ONSET)
    _check_floor("oracle lowest level", lowest, scale, OVERSHOOT_LIMIT, v)


def _check_floor(what: str, level: float, scale: float, known_limit: float, v: Verdict) -> None:
    """Criterion 7; a level no lower than -known_limit x scale is known defect 2."""
    if level < -GRID_FLOOR * scale:
        v.fail(f"{what} {level:.6g} cm^-2 is {level / scale:.3g} x scale, below -{GRID_FLOOR:g}",
               known=level >= -known_limit * scale)


def _expect_refusal(result: OpResult, i: int, cmd: str, v: Verdict) -> None:
    if result.exits[i] != 2 or SLAB_REFUSAL not in result.stderr[i]:
        v.fail(
            f"{cmd} on a nonconfining slab should refuse with exit 2, got exit "
            f"{result.exits[i]}: {result.stderr[i].strip()}"
        )


def _check_verify_sweep(op, result: OpResult, v: Verdict) -> None:
    geometry = op.config["geometry"]
    want = expected_status(op.kind, geometry)
    refuses = op.kind == "slab" and want == "Broken"
    for i, cmd in enumerate(op.commands):
        if refuses and cmd in ("verify", "slab"):
            _expect_refusal(result, i, cmd, v)
        elif result.exits[i] != 0:
            v.fail(f"{cmd} exited {result.exits[i]}: {result.stderr[i].strip()}")
    if v.failures:
        return
    status = _json(result, "susy_status.json", v)
    if status is not None and status["status"] != want:
        v.fail(f"susy-status says {status['status']}, the rule says {want}")
    printed = result.stdout[op.commands.index("zero-mode")]
    if f"supersymmetry: {want}\n" not in printed:
        v.fail(f"zero-mode verdict disagrees with the rule ({want})")
    if op.kind == "slab":
        if not refuses:
            slab = _json(result, "slab.json", v)
            k_max = math.sqrt(4.0 * math.pi * ETA * float(geometry["rho"]))
            if slab is not None and abs(slab["k_max_cm1"] - k_max) > 1.0e-12 * k_max:
                v.fail(f"slab k_max {slab['k_max_cm1']!r} differs from {k_max!r}")
        return
    check = _json(result, "verify.json", v)
    if check is None:
        return
    if not check["algebra"]["nonneg_spectrum_flag"]:
        v.fail("verify reports nonneg_spectrum_flag = false")
    r0 = float(geometry["r0"])
    scale = band_scale(op.kind, 0, 0, beta_of(op.kind, geometry), r0,
                       int(op.config["oracle_n"]), r_max_default(op.kind, r0))
    _check_floor("grid ground level", float(check["grid_ground_epsilon_cm2"]), scale,
                 GROUND_LIMIT, v)


def check(op, result: OpResult) -> Verdict:
    """Compare one op's exit codes and artifacts with the expectation."""
    v = Verdict()
    if op.commands == ["spectrum"]:
        _check_spectrum(op, result, v)
    else:
        _check_verify_sweep(op, result, v)
    return v
