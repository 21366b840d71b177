"""Special-function kernel: Kummer 1F1, integer-order Bessel J, channel algebra.

kummer_1f1 wraps scipy.special.hyp1f1 and adds the package's typed
domain errors and overflow signs; bessel_j wraps scipy.special.jv with
the package's argument checks. Tests check both against mpmath at high
precision.

Accuracy targets, real arguments only:
    kummer_1f1   relative error <= 1e-10 for |z| <= 2e4 (values that
                 overflow float64 return +/-inf honestly); the sphere's
                 zero-energy exterior takes z = 2 |beta| r0^2, so this
                 covers |beta| r0^2 <= 1e4 there
    bessel_j     absolute error <= 1e-10 for x >= 0
"""

from __future__ import annotations

import math

from ._lazy import special
from .errors import InvalidChannel, PoleB, RangeExceeded

__all__ = [
    "kummer_1f1",
    "bessel_j",
    "spin_orbit_eigenvalue",
]

_Z_RANGE = 2.0e4


def _tail_sign(a: float, b: float, z: float) -> float:
    """Sign of 1F1 where it overflows, i.e. far beyond its last zero.

    There the series is dominated by its tail, whose terms share the
    sign of (a)_n / (b)_n: one factor -1 per negative factor. For z < 0
    the Kummer transform e^z 1F1(b-a; b; -z) gives the same rule with
    b - a in place of a.
    """
    top = b - a if z < 0.0 else a
    flips = (math.ceil(-top) if top < 0.0 else 0) + (math.ceil(-b) if b < 0.0 else 0)
    return -1.0 if flips % 2 else 1.0


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z) for real arguments.

    Raises ValueError for non-finite arguments, PoleB for b a
    nonpositive integer and RangeExceeded for |z| > 2e4. Values beyond
    float64 return +/-inf with the sign of the function (scipy's
    overflow value is always +inf).
    """
    for name, val in (("a", a), ("b", b), ("z", z)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite")
    if b <= 0.0 and abs(b - round(b)) < 1.0e-9:
        raise PoleB(f"1F1 undefined at nonpositive integer b = {b}")
    if abs(z) > _Z_RANGE:
        raise RangeExceeded(f"|z| = {abs(z):g} outside documented range {_Z_RANGE:g}")
    value = float(special.hyp1f1(a, b, z))
    if math.isinf(value):
        return math.copysign(math.inf, _tail_sign(a, b, z))
    if math.isnan(value):
        raise RangeExceeded(f"1F1 evaluation failed at a={a}, b={b}, z={z}")
    return value


def bessel_j(nu: int, x: float) -> float:
    """Bessel function of the first kind, integer order nu >= 0, x >= 0.

    scipy.special.jv with the package's argument checks: a non-integer
    or negative order, or a negative or non-finite x, raises ValueError.
    """
    if not isinstance(nu, int):
        if isinstance(nu, float) and nu.is_integer():
            nu = int(nu)
        else:
            raise ValueError(f"order must be a nonnegative integer, got {nu!r}")
    if nu < 0:
        raise ValueError(f"order must be nonnegative, got {nu}")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return float(special.jv(nu, x))


def spin_orbit_eigenvalue(l: int, j: float) -> int:
    """Eigenvalue w of the spin-orbit operator on the (l, j) channel.

    w = l for j = l + 1/2 and w = -(l + 1) for j = l - 1/2. Raises
    InvalidChannel for any other (l, j) combination.
    """
    if not isinstance(l, int):
        if isinstance(l, float) and l.is_integer():
            l = int(l)
        else:
            raise InvalidChannel(f"l must be a nonnegative integer, got {l!r}")
    if l < 0:
        raise InvalidChannel(f"l must be nonnegative, got {l}")
    if not math.isfinite(j) or j < 0.5 - 1.0e-12:
        raise InvalidChannel(f"j must be a half-integer >= 1/2, got {j}")
    if abs(j - (l + 0.5)) < 1.0e-9:
        return l
    if abs(j - (l - 0.5)) < 1.0e-9:
        return -(l + 1)
    raise InvalidChannel(f"j = {j} is not l +- 1/2 for l = {l}")
