"""Exception and warning types shared across the package.

The command line maps an exception to its exit status by class alone:

* :class:`NumericalError` and ``ArithmeticError`` -- a numerical
  failure -- exit 3 (the package re-raises numpy's ``LinAlgError`` as
  a :class:`NumericalError`);
* every other :class:`GravfringeError`, plus ``OSError`` (an unusable
  path), ``UnicodeDecodeError`` (a file that is not UTF-8) and
  ``MemoryError`` (a size that cannot be allocated) -- an input
  problem -- exit 2.

No input may end in a traceback (exit 1).  Library functions raise
``ValueError`` or ``TypeError`` when a caller breaks an argument
contract (a negative evolution time, an object that is no dynamics
model); the command line checks its flags first, or re-raises such an
error as a :class:`ConfigValidationError` naming the flag.

Warnings signal degraded-but-usable results and never interrupt a
computation.
"""

from __future__ import annotations

__all__ = [
    "GravfringeError",
    "ConfigParseError",
    "ConfigValidationError",
    "DomainError",
    "GridError",
    "RecordError",
    "NumericalError",
    "PositivityWarning",
    "CoherenceGrowthWarning",
]


class GravfringeError(Exception):
    """Base class for the package's input and numerical errors."""


# ---------------------------------------------------------------- inputs


class ConfigParseError(GravfringeError):
    """A configuration document is malformed: unreadable syntax, an
    unknown key, a duplicated key, a missing required key, or a value
    that does not parse as a number.  The message names the offending
    key or line."""


class ConfigValidationError(GravfringeError):
    """A syntactically valid configuration violates a physical
    invariant (overlapping bodies, non-positive mass, overlapping wave
    packets, ...).  The message names the violated invariant."""


class DomainError(GravfringeError):
    """A coordinate or parameter lies outside the mathematical domain
    of the requested quantity, e.g. evaluating the two-body potential at
    or beyond a source-mass centre, or a non-positive density."""


class GridError(GravfringeError):
    """A phase-space grid or field is unusable for the requested
    operation: too small to contain the state, mismatched between
    operands, short of the potential derivatives a bracket needs, or a
    query point lies outside it."""


class RecordError(GravfringeError):
    """A fringe record is unusable: missing required track, unsorted
    times, values inconsistent with its noise declaration, or too short
    a span to constrain the fringe model."""


# ----------------------------------------------------------- numerics


class NumericalError(GravfringeError):
    """A computation on valid inputs broke down: an ODE integrator
    failed to reach the requested time, a trajectory or a grid
    generator left the float range, a grid evolution stopped conserving
    its integral, a linear-algebra routine failed, or the fringe fit
    did not converge.  The message carries the diagnostics."""


# ----------------------------------------------------------- warnings


class PositivityWarning(UserWarning):
    """An evolved state drifted outside the physical set (population
    outside [0, 1] or coherence exceeding the positivity bound) by more
    than the integration tolerance allows."""


class CoherenceGrowthWarning(UserWarning):
    """A general linear model has a growing coherence mode (an
    eigenvalue with positive real part), so long-time results are
    unphysical extrapolations."""
