"""Spans at the CLI's layer boundaries, and direct probes of single layers.

The tracer replaces, for the duration of a traced run, each layer
function in the namespace of ``acsusy.cli`` (the names the CLI looks up
when it runs) with a wrapper that records one span per call. Calls the
layers make among themselves go through their own modules and are not
wrapped, so spans never nest below the layer boundary. Times are
integer nanoseconds, so a ``cli.main`` span splits exactly into its
children plus the CLI's own time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# layer -> functions acsusy.cli imports from it
LAYER_FUNCTIONS = {
    "radial": ["find_spectrum"],
    "oracle": [
        "richardson_pair",
        "build_grid_hamiltonian",
        "lowest_eigenvalues",
        "build_susy_pair",
        "susy_algebra_check",
        "grid_mode_overlap",
    ],
    "zeromode": ["susy_status", "sphere_zero_mode", "cylinder_zero_mode", "slab_zero_mode"],
    "fields": ["divergence_check"],
    "slab": ["degeneracy_family", "build_slab_solution", "slab_residual"],
}


def _cells(name: str, args: tuple) -> int:
    """Grid cells a wrapped oracle call assembles."""
    if name == "build_grid_hamiltonian":
        return int(args[1])
    if name == "build_susy_pair":
        return int(args[3])
    if name == "richardson_pair":
        return 3 * int(args[1])  # an n grid and a 2n grid
    if name == "susy_algebra_check":
        return int(args[0].n)  # assembles the flux grid it compares against
    return 0


@dataclass
class Span:
    op: int
    parent: int | None
    layer: str
    name: str
    start_ns: int
    end_ns: int = 0
    error: str | None = None
    cells: int = 0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans in memory while installed on a module namespace."""

    def __init__(self, error_type: type):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._error_type = error_type
        self._saved: dict = {}

    def _wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            span = Span(self.op, self._stack[-1] if self._stack else None, layer, name, 0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.cells = _cells(name, args)
            span.start_ns = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except self._error_type as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def install(self, cli_module) -> None:
        targets = [("cli", "main")] + [
            (layer, name) for layer, names in LAYER_FUNCTIONS.items() for name in names
        ]
        for layer, name in targets:
            fn = getattr(cli_module, name)
            self._saved[name] = fn
            setattr(cli_module, name, self._wrap(layer, name, fn))

    def uninstall(self, cli_module) -> None:
        for name, fn in self._saved.items():
            setattr(cli_module, name, fn)
        self._saved.clear()

    def self_ns(self) -> dict:
        """Span index -> its duration minus what its direct children cover."""
        own = {i: s.ns for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ns
        return own


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op busy time, calls, cells and errors at each layer boundary."""
    spans = tracer.spans
    per = max(n_ops, 1)

    def busy(names) -> float:
        return sum(s.ns for s in spans if s.name in names) * 1e-9 / per

    out = {
        "radial.find_spectrum.s": busy({"find_spectrum"}),
        "radial.find_spectrum.calls": sum(s.name == "find_spectrum" for s in spans) / per,
        "oracle.richardson_pair.s": busy({"richardson_pair"}),
        "oracle.build_grid_hamiltonian.s": busy({"build_grid_hamiltonian"}),
        "oracle.lowest_eigenvalues.s": busy({"lowest_eigenvalues"}),
        "oracle.build_susy_pair.s": busy({"build_susy_pair"}),
        "oracle.susy_algebra_check.s": busy({"susy_algebra_check"}),
        "oracle.grid_mode_overlap.s": busy({"grid_mode_overlap"}),
        "oracle.grid_cells": sum(s.cells for s in spans) / per,
        "zeromode.susy_status.s": busy({"susy_status"}),
        "zeromode.zero_mode.s": busy({"sphere_zero_mode", "cylinder_zero_mode", "slab_zero_mode"}),
        "fields.divergence_check.s": busy({"divergence_check"}),
        "slab.degeneracy_family.s": busy({"degeneracy_family"}),
        "slab.build_slab_solution.s": busy({"build_slab_solution"}),
        "slab.slab_residual.s": busy({"slab_residual"}),
        "cli.self_s": sum(
            ns for i, ns in tracer.self_ns().items() if spans[i].name == "main"
        ) * 1e-9 / per,
    }
    for layer in LAYER_FUNCTIONS:
        out[f"{layer}.errors"] = sum(s.layer == layer and s.error is not None for s in spans)
    return out


def _per_call(fn, calls: list, error_type: type, repeats: int = 3) -> tuple[float, int]:
    """Median over repeats of seconds per call, and typed refusals in one pass."""
    times = []
    errors = 0
    for _ in range(repeats):
        errors = 0
        t0 = time.perf_counter()
        for args in calls:
            try:
                fn(*args)
            except error_type:
                errors += 1
        times.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(times), errors


def probe_radial(acsusy, channels: list) -> dict:
    """One interior plus one exterior shot at 0.5 and 1e-4 of each window's floor.

    channels holds (kind, l, w, beta, r0, epsilon_lo) tuples.
    """
    radial = acsusy.radial
    times, inner, outer = [], [], []
    for kind, l, w, beta, r0, lo in channels:
        p = radial.RadialProblem(geometry=kind, l=l, w=w, beta=beta, r0=r0)
        for eps in (0.5 * lo, 1.0e-4 * lo):
            t0 = time.perf_counter()
            a = radial.shoot_interior(p, eps)
            b = radial.shoot_exterior(p, eps)
            times.append(time.perf_counter() - t0)
            inner.append(a.steps)
            outer.append(b.steps)
    return {
        "radial.mismatch.s": statistics.median(times),
        "radial.shoot_interior.steps": sum(inner) / len(inner),
        "radial.shoot_exterior.steps": sum(outer) / len(outer),
    }


def kummer_arguments(kind: str, l: int, w: int, beta: float, r0: float, lo: float) -> list:
    """(a, b, z) of the closed-form interior over 16 points of the window."""
    omega = abs(beta)
    b = l + 1.5 if kind == "sphere" else l + 1.0
    shift = -2.0 * beta * (w + 1.5) if kind == "sphere" else 2.0 * beta * (w + 1.0)
    return [
        (b / 2.0 - (-e - shift) / (4.0 * omega), b, omega * r0 * r0)
        for e in np.geomspace(abs(lo), 1.0e-6 * abs(lo), 16)
    ]


def probe_specfun(acsusy, kummer_args: list, bessel_args: list) -> dict:
    kummer_s, kummer_err = _per_call(acsusy.specfun.kummer_1f1, kummer_args, acsusy.AcsusyError)
    bessel_s, bessel_err = _per_call(acsusy.specfun.bessel_j, bessel_args, acsusy.AcsusyError)
    return {
        "specfun.kummer_1f1.s": kummer_s,
        "specfun.bessel_j.s": bessel_s,
        "specfun.errors": kummer_err + bessel_err,
    }


def probe_eigensolve(acsusy, n: int = 1200, repeats: int = 3) -> float:
    """lowest_eigenvalues on the README cylinder (rho 2e7, r0 1, l = 0) at n cells."""
    oracle = acsusy.oracle
    beta = acsusy.units.beta_cylinder(2.0e7)
    p = acsusy.radial.RadialProblem(geometry="cylinder", l=0, w=0, beta=beta, r0=1.0)
    H = oracle.build_grid_hamiltonian(p, n, 20.0)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        oracle.lowest_eigenvalues(H, 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
