"""Exception and warning types shared across the package.

Everything raised deliberately by this package derives from
:class:`GravfringeError`, split into two broad families that the command
line maps onto distinct exit codes:

* input problems (bad documents, bad parameters, infeasible geometry,
  unsupported model/operation combinations) -- exit code 2;
* numerical failures (integrator breakdown, norm drift, non-convergence)
  -- exit code 3.

Warnings signal degraded-but-usable results and never interrupt a
computation.
"""

from __future__ import annotations

__all__ = [
    "GravfringeError",
    "ConfigParseError",
    "ConfigValidationError",
    "DomainError",
    "InfeasibleGeometryError",
    "UnsupportedModelError",
    "GridError",
    "NonOrthogonalPacketsError",
    "DerivativeOrderError",
    "RecordError",
    "InsufficientSpanError",
    "NoSteadyStateError",
    "IntegrationError",
    "InstabilityError",
    "FitConvergenceError",
    "PositivityWarning",
    "CoherenceGrowthWarning",
]


class GravfringeError(Exception):
    """Base class for all deliberate errors raised by this package."""


# ---------------------------------------------------------------- inputs


class ConfigParseError(GravfringeError):
    """A configuration document is malformed: unreadable syntax, an
    unknown key, a duplicated key, a missing required key, or a value
    that does not parse as a number.  The message names the offending
    key or line."""


class ConfigValidationError(GravfringeError):
    """A syntactically valid configuration violates a physical
    invariant (overlapping bodies, non-positive mass, ...).  The message
    names the violated invariant."""


class DomainError(GravfringeError):
    """A coordinate or parameter lies outside the mathematical domain
    of the requested quantity, e.g. evaluating the two-body potential at
    or beyond a source-mass centre, or a non-positive density."""


class InfeasibleGeometryError(GravfringeError):
    """A solved-for geometry cannot be realised, e.g. a nulling
    distance that would place a source ball inside an interferometer
    arm."""


class UnsupportedModelError(GravfringeError):
    """The requested operation has no meaning for the given dynamics
    model, e.g. asking for the closed-form steady state of a general
    linear law that couples the coherence to its conjugate."""


class GridError(GravfringeError):
    """A phase-space grid is unusable for the requested operation:
    too small to contain the state, mismatched between operands, or a
    query point lies outside it."""


class NonOrthogonalPacketsError(GravfringeError):
    """The two wave packets overlap too strongly for the two-arm
    description to apply (their inner product exceeds the orthogonality
    threshold)."""


class DerivativeOrderError(GravfringeError):
    """A bracket expansion needs higher potential derivatives than the
    Hamiltonian field carries."""


class RecordError(GravfringeError):
    """A fringe record is unusable: missing required track, unsorted
    times, or values inconsistent with its noise declaration."""


class InsufficientSpanError(GravfringeError):
    """A record is too short to constrain the fringe model (fewer than
    two oscillation periods at the seeded frequency)."""


class NoSteadyStateError(GravfringeError):
    """The coherence does not decay, so the late-time population limit
    does not exist."""


# ----------------------------------------------------------- numerics


class IntegrationError(GravfringeError):
    """An ODE integrator failed to reach the requested time within its
    tolerance (step-size underflow or internal failure)."""


class InstabilityError(GravfringeError):
    """A grid evolution stopped conserving its integral."""


class FitConvergenceError(GravfringeError):
    """The fringe fit optimiser failed to converge; the message carries
    the optimiser diagnostics."""


# ----------------------------------------------------------- warnings


class PositivityWarning(UserWarning):
    """An evolved state drifted outside the physical set (population
    outside [0, 1] or coherence exceeding the positivity bound) by more
    than the integration tolerance allows."""


class CoherenceGrowthWarning(UserWarning):
    """A general linear model has a growing coherence mode (an
    eigenvalue with positive real part), so long-time results are
    unphysical extrapolations."""
