"""Two-ball gravitational potential and interference phase frequencies.

The probe particle moves on the axis through both ball centres.  With
the left ball centre at ``-d1`` and the right at ``+d2``, a particle at
position ``x`` (midpoint at the origin) feels

    V(x) = -g1/(d1 + x) - g2/(d2 - x),      g_i = G m M_i,

valid on the open interval (-d1, d2).  All derivatives are closed-form:

    V^(k)(x) = -g1 (-1)^k k!/(d1 + x)^(k+1) - g2 k!/(d2 - x)^(k+1).

Two phase frequencies of the arm coherence follow from this potential:

* the classical frequency, driven by the force at the midpoint,

      omega_C = dx * V'(0) / hbar,

* the quantum frequency, driven by the potential difference between
  the arm positions +-dx/2,

      omega_Q = (V(dx/2) - V(-dx/2)) / hbar.

They differ because the potential is anharmonic; equating them is
exactly the question of whether gravity pulls on the local probability
density (classical response) or on the amplitudes at the two arms
(quantum response).  Either frequency can be nulled by choosing the
ball distances, and the two null conditions are distinct whenever the
ball masses differ -- that distinctness is what makes the geometry a
discriminating measurement rather than a calibration.

The units-free helpers (``two_ball_potential`` and friends, couplings
``g_i`` passed directly) also serve the scaled phase-space oracle; the
config-facing functions wrap them with SI couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.optimize import bisect

from .config import ExperimentConfig, ball_radius, with_updates
from .errors import (
    ConfigValidationError,
    DomainError,
    InfeasibleGeometryError,
)

__all__ = [
    "two_ball_potential",
    "two_ball_derivative",
    "PotentialProfile",
    "potential",
    "omega_classical",
    "omega_quantum",
    "solve_null_distance",
    "solve_null_quantum_distance",
    "frequency_report",
]


def _check_domain(x, d1: float, d2: float):
    x = np.asarray(x, dtype=float)
    if np.any(x <= -d1) or np.any(x >= d2):
        raise DomainError(
            f"position outside the open interval (-{d1!r}, {d2!r}) "
            "between the ball centres"
        )
    return x


def two_ball_potential(x, g1: float, g2: float, d1: float, d2: float):
    """Potential energy -g1/(d1+x) - g2/(d2-x) on the open interval.

    ``x`` may be a scalar or an array; the return matches.  Positions
    at or beyond a ball centre raise :class:`DomainError` (the potential
    diverges there and the point particle model has already failed at
    the ball surface).
    """
    xv = _check_domain(x, d1, d2)
    out = -g1 / (d1 + xv) - g2 / (d2 - xv)
    return out if out.ndim else float(out)


def two_ball_derivative(x, g1: float, g2: float, d1: float, d2: float, order: int = 1):
    """``order``-th spatial derivative of the two-ball potential.

    Closed form for any order >= 0; ``order=0`` returns the potential.
    """
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if order == 0:
        return two_ball_potential(x, g1, g2, d1, d2)
    xv = _check_domain(x, d1, d2)
    k = order
    sign = -1.0 if k % 2 else 1.0  # (-1)^k
    fact = float(math.factorial(k))
    out = -g1 * sign * fact / (d1 + xv) ** (k + 1) - g2 * fact / (d2 - xv) ** (k + 1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PotentialProfile:
    """The axis potential of one configuration, with derivatives.

    Thin wrapper binding the SI couplings ``g_i = G * m * M_i`` of a
    configuration to the units-free closed forms.
    """

    config: ExperimentConfig

    @property
    def coupling_left(self) -> float:
        c = self.config
        return c.constants.G * c.particle_mass * c.mass_left

    @property
    def coupling_right(self) -> float:
        c = self.config
        return c.constants.G * c.particle_mass * c.mass_right

    def potential(self, x):
        """V(x) in joules; scalar or array."""
        c = self.config
        return two_ball_potential(
            x, self.coupling_left, self.coupling_right, c.dist_left, c.dist_right
        )

    def derivative(self, x, order: int = 1):
        """k-th derivative of V at x, J/m^k; scalar or array."""
        c = self.config
        return two_ball_derivative(
            x,
            self.coupling_left,
            self.coupling_right,
            c.dist_left,
            c.dist_right,
            order=order,
        )


def potential(config: ExperimentConfig, x):
    """Potential energy of a configuration at x (J)."""
    return PotentialProfile(config).potential(x)


def omega_classical(config: ExperimentConfig) -> float:
    """Classical fringe frequency, rad/s.

    omega_C = (G m dx / hbar) * (M1/d1^2 - M2/d2^2), the arm-separation
    times the midpoint force over hbar.  Positive when the left ball
    dominates.
    """
    c = config
    return (
        c.constants.G
        * c.particle_mass
        * c.arm_separation
        / c.constants.hbar
        * (c.mass_left / c.dist_left**2 - c.mass_right / c.dist_right**2)
    )


def omega_quantum(config: ExperimentConfig) -> float:
    """Quantum fringe frequency, rad/s.

    omega_Q = (V(dx/2) - V(-dx/2)) / hbar, which reduces to

        (G m dx / hbar) * (M1/(d1^2 - dx^2/4) - M2/(d2^2 - dx^2/4)).

    Requires each ball centre to clear the arms (d_i > dx/2), which
    configuration validation already guarantees.
    """
    c = config
    quarter = c.arm_separation**2 / 4.0
    return (
        c.constants.G
        * c.particle_mass
        * c.arm_separation
        / c.constants.hbar
        * (
            c.mass_left / (c.dist_left**2 - quarter)
            - c.mass_right / (c.dist_right**2 - quarter)
        )
    )


_Side = Literal["dist_left", "dist_right"]


def _null_feasibility(config: ExperimentConfig, which: _Side, value: float) -> None:
    """Re-validate geometry with one distance replaced; translate
    validation failures into :class:`InfeasibleGeometryError`."""
    try:
        with_updates(config, **{which: value})
    except ConfigValidationError as exc:
        raise InfeasibleGeometryError(
            f"nulling distance {which} = {value:.6g} m is not realisable: {exc}"
        ) from exc


def solve_null_distance(
    config: ExperimentConfig,
    which: _Side = "dist_right",
    method: Literal["closed_form", "bisection"] = "closed_form",
) -> float:
    """Distance that nulls the classical frequency, holding the rest.

    Closed form: omega_C = 0 at d2 = d1 * sqrt(M2/M1) (and symmetrically
    for d1).  ``method="bisection"`` solves the same root with a generic
    bracketing solver instead; the two agree to solver tolerance and the
    bisection path stays available for potentials without a closed form.

    The returned distance is checked against the ball-overlap invariants
    and :class:`InfeasibleGeometryError` is raised if the nulling
    geometry cannot be built.
    """
    c = config
    if which == "dist_right":
        target = c.dist_left * math.sqrt(c.mass_right / c.mass_left)
    elif which == "dist_left":
        target = c.dist_right * math.sqrt(c.mass_left / c.mass_right)
    else:
        raise ValueError(f"which must be 'dist_left' or 'dist_right', got {which!r}")

    if method == "bisection":

        def residual(d: float) -> float:
            if which == "dist_right":
                return c.mass_left / c.dist_left**2 - c.mass_right / d**2
            return c.mass_left / d**2 - c.mass_right / c.dist_right**2

        # Bracket around the closed-form estimate; the residual is
        # monotone in d so any sign-changing bracket works.
        lo, hi = target * 0.5, target * 2.0
        target = float(bisect(residual, lo, hi, xtol=1e-15, rtol=8.9e-16))
    elif method != "closed_form":
        raise ValueError(f"unknown method {method!r}")

    _null_feasibility(config, which, target)
    return target


def solve_null_quantum_distance(config: ExperimentConfig) -> float:
    """Right-ball distance that nulls the quantum frequency.

    omega_Q = 0 at d2^2 = dx^2/4 + (M2/M1) * (d1^2 - dx^2/4).  Distinct
    from the classical null whenever M1 != M2.  Raises
    :class:`InfeasibleGeometryError` when the resulting geometry is not
    realisable.
    """
    c = config
    quarter = c.arm_separation**2 / 4.0
    d2_sq = quarter + (c.mass_right / c.mass_left) * (c.dist_left**2 - quarter)
    target = math.sqrt(d2_sq)
    _null_feasibility(config, "dist_right", target)
    return target


def frequency_report(config: ExperimentConfig) -> dict[str, float]:
    """All headline numbers for one configuration, as a flat dict.

    Includes both the configured geometry and a variant with the left
    distance rounded to the nearest millimetre (geometries are usually
    quoted rounded; the quantum frequency is sensitive at the percent
    level to that rounding, so both values are reported rather than
    blessing one).
    """
    report = {
        "omega_classical_rad_s": omega_classical(config),
        "omega_quantum_rad_s": omega_quantum(config),
        "radius_left_m": config.radius_left,
        "radius_right_m": config.radius_right,
        "dist_left_m": config.dist_left,
        "dist_right_m": config.dist_right,
        "null_classical_dist_right_m": config.dist_left
        * math.sqrt(config.mass_right / config.mass_left),
        "null_quantum_dist_right_m": math.sqrt(
            config.arm_separation**2 / 4.0
            + (config.mass_right / config.mass_left)
            * (config.dist_left**2 - config.arm_separation**2 / 4.0)
        ),
    }
    d1_mm = round(config.dist_left, 3)
    half = config.arm_separation / 2.0
    if d1_mm - half > ball_radius(config.mass_left, config.source_density):
        rounded = with_updates(
            config,
            dist_left=d1_mm,
            dist_right=d1_mm * math.sqrt(config.mass_right / config.mass_left),
        )
        report["dist_left_rounded_mm_m"] = rounded.dist_left
        report["omega_quantum_rounded_rad_s"] = omega_quantum(rounded)
        report["omega_classical_rounded_rad_s"] = omega_classical(rounded)
    return report
