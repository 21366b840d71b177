"""Seeded op generators for the three benchmark workloads.

An op is a list of CLI invocations on one generated JSON config. The
generator is pure stdlib and numpy arithmetic: it never calls the
package, so the inputs of a seed do not change when the program does.

Couplings and signs come from one low-discrepancy sequence per channel
(or per geometry), and channels or geometries cycle in shuffled blocks,
so every run of a given length sees nearly the same mix of cheap and
expensive inputs. Each single draw still has the distribution the
workload names, so this reduces run-to-run spread without narrowing any
range.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from expect import ETA, beta_cylinder, beta_sphere, r_max_default, smooth_potential

# default channels of `acsusy spectrum`, as (l, w) pairs
CYLINDER_CHANNELS = [(0, 0), (1, 1), (1, -1), (2, 2), (2, -2)]
SPHERE_CHANNELS = [(0, 0), (1, 1), (1, -2), (2, 2), (2, -3)]

# scan points per spectrum op; the CLI default (400) costs ~25 s per
# cylinder l = 0 op, too slow to average many ops inside one run
SPECTRUM_N_GRID = 24

GATE = 0.1  # documented GridTooCoarse limit on h^2 max|V_smooth|

# ops come in blocks of BLOCK: one op per channel, or two sphere, two
# cylinder and one slab op; op i ends a block when (i + 1) % BLOCK == 0
BLOCK = 5

WORKLOADS = ("cylinder-spectrum", "sphere-spectrum", "verify-sweep")


@dataclass
class Op:
    index: int
    kind: str  # sphere | cylinder | slab
    commands: list  # CLI subcommands run in order on the config
    config: dict
    channel: tuple = (0, 0)  # (l, w) of the op's channel; (0, 0) for verify ops
    x: float = 0.0  # beta r0^2 as drawn (sphere, cylinder)
    flags: list = field(default_factory=list)  # extra CLI flags

    def describe(self) -> str:
        cmds = " ".join([" + ".join(self.commands), *self.flags])
        return f"op {self.index}: {cmds} config={json.dumps(self.config, sort_keys=True)}"


def gate_accepts(kind: str, w: int, beta: float, r0: float, n: int, r_max: float) -> bool:
    h = r_max / n
    rc = (np.arange(1, n + 1, dtype=float) - 0.5) * h
    return h * h * float(np.max(np.abs(smooth_potential(kind, w, beta, r0, rc)))) <= GATE


def smallest_oracle_n(kind: str, w: int, beta: float, r0: float) -> int:
    """Smallest n >= 100 that the documented grid-resolution gate accepts."""
    r_max = r_max_default(kind, r0)
    if gate_accepts(kind, w, beta, r0, 100, r_max):
        return 100
    lo, hi = 100, 200
    while not gate_accepts(kind, w, beta, r0, hi, r_max):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gate_accepts(kind, w, beta, r0, mid, r_max):
            hi = mid
        else:
            lo = mid
    return hi


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _Spread:
    """(t, sign) draws from a randomly shifted golden-ratio sequence.

    t_k = frac(u + k g), with u uniform from the seed, so every single
    draw is uniform on [0, 1), while any run of consecutive draws covers
    [0, 1) almost evenly, whatever its length. With signs = 2, the lower
    half of [0, 1) gives +1 and the upper half -1, each stretched back
    onto [0, 1).
    """

    def __init__(self, rng: random.Random, signs: int = 1):
        self.t = rng.random()
        self.signs = signs

    def next(self) -> tuple[float, float]:
        t, self.t = self.t, (self.t + GOLDEN) % 1.0
        if self.signs == 1:
            return t, 1.0
        upper, t = divmod(2.0 * t, 1.0)
        return t, -1.0 if upper else 1.0


def _log_uniform(t: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * t)


def _channel_entry(kind: str, l: int, w: int) -> dict:
    if kind == "cylinder":
        return {"nu": l, "w": w}
    return {"l": l, "j": l + 0.5 if w == l else l - 0.5}


def _spectrum_ops(kind: str, seed: int):
    rng = random.Random(f"{kind}-spectrum:{seed}")
    channels = CYLINDER_CHANNELS if kind == "cylinder" else SPHERE_CHANNELS
    draws = {c: _Spread(rng, 1 if kind == "cylinder" else 2) for c in channels}
    index = 0
    while True:
        order = list(channels)  # every block of five ops covers the five channels
        rng.shuffle(order)
        for l, w in order:
            r0 = _log_uniform(rng.random(), 0.1, 10.0)
            t, s = draws[l, w].next()
            if kind == "cylinder":
                lam = _log_uniform(t, 1.5, 30.0)  # lambda / lambda_min
                rho = 4.0 * lam / (ETA * r0 * r0)
                beta = beta_cylinder(rho)
            else:
                mag = 0.5 + 9.5 * t
                rho = s * mag * 3.0 / (4.0 * math.pi * ETA * r0 * r0)
                beta = beta_sphere(rho)
            config = {
                "geometry": {"kind": kind, "rho": rho, "r0": r0},
                "channels": [_channel_entry(kind, l, w)],
                "n_grid": SPECTRUM_N_GRID,
                "oracle_n": smallest_oracle_n(kind, w, beta, r0),
            }
            yield Op(index, kind, ["spectrum"], config, (l, w), beta * r0 * r0, ["--verify"])
            index += 1


def _verify_ops(seed: int):
    rng = random.Random(f"verify-sweep:{seed}")
    draws = {kind: _Spread(rng, 2) for kind in ("sphere", "cylinder", "slab")}
    index = 0
    while True:
        kinds = ["sphere", "sphere", "cylinder", "cylinder", "slab"]
        rng.shuffle(kinds)
        for kind in kinds:
            t, s = draws[kind].next()
            if kind == "slab":
                rho = s * _log_uniform(rng.random(), 2.0e4, 2.0e8)
                length = _log_uniform(rng.random(), 0.1, 10.0)
                config = {"geometry": {"kind": "slab", "rho": rho, "L": length}}
                cmds = ["susy-status", "zero-mode", "verify", "slab"]
                yield Op(index, "slab", cmds, config)
            else:
                x = s * _log_uniform(t, 0.1, 30.0)  # beta r0^2
                r0 = _log_uniform(rng.random(), 0.1, 10.0)
                if kind == "sphere":
                    rho = x * 3.0 / (4.0 * math.pi * ETA * r0 * r0)
                    beta = beta_sphere(rho)
                else:
                    rho = -4.0 * x / (ETA * r0 * r0)
                    beta = beta_cylinder(rho)
                config = {
                    "geometry": {"kind": kind, "rho": rho, "r0": r0},
                    "oracle_n": smallest_oracle_n(kind, 0, beta, r0),
                }
                yield Op(index, kind, ["susy-status", "zero-mode", "verify"], config,
                         (0, 0), beta * r0 * r0)
            index += 1


def generate(workload: str, seed: int):
    """Endless op stream of one workload; the same seed gives the same ops."""
    if workload == "cylinder-spectrum":
        return _spectrum_ops("cylinder", seed)
    if workload == "sphere-spectrum":
        return _spectrum_ops("sphere", seed)
    if workload == "verify-sweep":
        return _verify_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
