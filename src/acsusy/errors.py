"""Exception types shared across the package.

Every raisable condition gets its own class so callers can discriminate
without string matching. An empty spectrum is not an error and is reported
through SpectrumReport notes, never raised.
"""


class AcsusyError(Exception):
    """Base class for all package errors."""


class ConfigError(AcsusyError):
    """Bad or unknown key, wrong type, or missing field in a CLI config."""


class NonconfiningSign(AcsusyError):
    """Coupling sign puts the Gaussian factor on the growing branch."""


class InadmissibleK(AcsusyError):
    """Transverse wavenumber outside the normalizable slab family."""


class BoundaryPoint(AcsusyError):
    """Finite-difference stencil would straddle a field discontinuity."""


class PoleB(AcsusyError):
    """Confluent hypergeometric lower parameter at a nonpositive integer."""


class RangeExceeded(AcsusyError):
    """Argument outside the domain the series evaluator guarantees."""


class InvalidChannel(AcsusyError):
    """Quantum numbers violate the coupling rules of the channel algebra."""


class Overflow(AcsusyError):
    """A solution evaluation failed: the integrated sphere exterior (a
    non-finite step, a step-size collapse or the step budget), or a
    closed form at extreme arguments."""


class NoDecaySeed(AcsusyError):
    """No decaying asymptotic solution exists at the requested energy."""


class GridTooCoarse(AcsusyError):
    """Grid spacing cannot resolve the potential it was asked to sample."""
