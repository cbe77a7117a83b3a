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

The units-free helper ``two_ball_derivative`` evaluates V^(k) for any
k >= 0 (k = 0 is the potential itself); it takes the couplings ``g_i``
directly and builds the scaled phase-space oracle's field.  The two
frequencies reduce to one closed form, which the config-facing functions
evaluate in SI units and the oracle in its own units.
"""

from __future__ import annotations

import math

import numpy as np

from .config import G, HBAR, ExperimentConfig, with_updates
from .errors import ConfigValidationError, DomainError

__all__ = [
    "two_ball_derivative",
    "omega_classical",
    "omega_quantum",
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


def two_ball_derivative(x, g1: float, g2: float, d1: float, d2: float, order: int = 1):
    """``order``-th spatial derivative of the two-ball potential.

    Closed form for orders 0..170, since 171! is past the largest float;
    any other order raises ``ValueError``.  ``order=0`` is the potential
    energy -g1/(d1+x) - g2/(d2-x) itself.  ``x`` may be a scalar or an
    array; the return matches.  Positions at or beyond a ball centre raise
    :class:`DomainError` (the potential diverges there and the point
    particle model has already failed at the ball surface).
    """
    if not 0 <= order <= 170:
        raise ValueError(f"derivative order must lie in 0..170, got {order!r}")
    xv = _check_domain(x, d1, d2)
    k = order
    sign = -1.0 if k % 2 else 1.0  # (-1)^k
    fact = float(math.factorial(k))
    with np.errstate(over="ignore"):
        # a far ball's power overflows to inf, and its term is then 0
        out = -g1 * sign * fact / (d1 + xv) ** (k + 1) - g2 * fact / (d2 - xv) ** (k + 1)
    return out if out.ndim else float(out)


def _frequencies(
    scale: float, w1: float, w2: float, d1: float, d2: float, dx: float
) -> tuple[float, float]:
    """(omega_C, omega_Q) of a two-ball field, in the units ``scale`` sets.

    The one home of the reduced closed forms

        omega_C = scale * (w1/d1^2 - w2/d2^2),
        omega_Q = scale * (w1/(d1^2 - dx^2/4) - w2/(d2^2 - dx^2/4)),

    which are dx V'(0) / hbar and (V(dx/2) - V(-dx/2)) / hbar for
    ``scale = dx/hbar`` and weights ``w_i = g_i``.  SI callers pass
    ``scale = G m dx / hbar`` with the ball masses as weights.  Each ball
    centre must clear the arms (d_i > dx/2).
    """
    quarter = dx**2 / 4.0
    return (
        scale * (w1 / d1**2 - w2 / d2**2),
        scale * (w1 / (d1**2 - quarter) - w2 / (d2**2 - quarter)),
    )


def _si_frequencies(config: ExperimentConfig) -> tuple[float, float]:
    """(omega_C, omega_Q) of a configuration, rad/s."""
    c = config
    return _frequencies(
        G * c.particle_mass * c.arm_separation / HBAR,
        c.mass_left,
        c.mass_right,
        c.dist_left,
        c.dist_right,
        c.arm_separation,
    )


def omega_classical(config: ExperimentConfig) -> float:
    """Classical fringe frequency, rad/s.

    omega_C = (G m dx / hbar) * (M1/d1^2 - M2/d2^2), the arm-separation
    times the midpoint force over hbar.  Positive when the left ball
    dominates.
    """
    return _si_frequencies(config)[0]


def omega_quantum(config: ExperimentConfig) -> float:
    """Quantum fringe frequency, rad/s.

    omega_Q = (V(dx/2) - V(-dx/2)) / hbar, which reduces to

        (G m dx / hbar) * (M1/(d1^2 - dx^2/4) - M2/(d2^2 - dx^2/4)).

    Requires each ball centre to clear the arms (d_i > dx/2), which
    configuration validation already guarantees.
    """
    return _si_frequencies(config)[1]


def _classical_null(d_fixed: float, m_fixed: float, m_moved: float) -> float:
    """Distance of the moved ball that nulls omega_C: M_f/d_f^2 = M_m/d^2."""
    return d_fixed * math.sqrt(m_moved / m_fixed)


def _quantum_null(config: ExperimentConfig) -> float:
    """Right-ball distance with d2^2 = dx^2/4 + (M2/M1) (d1^2 - dx^2/4)."""
    c = config
    quarter = c.arm_separation**2 / 4.0
    return math.sqrt(
        quarter + (c.mass_right / c.mass_left) * (c.dist_left**2 - quarter)
    )


def frequency_report(config: ExperimentConfig) -> dict[str, float]:
    """All headline numbers for one configuration, as a flat dict.

    Includes both the configured geometry and, when its balls clear the
    arms, a classically nulled variant with the left distance rounded to
    the nearest millimetre (geometries are usually quoted rounded; the
    quantum frequency is sensitive at the percent level to that
    rounding, so both values are reported rather than blessing one).
    """
    report = {
        "omega_classical_rad_s": omega_classical(config),
        "omega_quantum_rad_s": omega_quantum(config),
        "radius_left_m": config.radius_left,
        "radius_right_m": config.radius_right,
        "dist_left_m": config.dist_left,
        "dist_right_m": config.dist_right,
        "null_classical_dist_right_m": _classical_null(
            config.dist_left, config.mass_left, config.mass_right
        ),
        "null_quantum_dist_right_m": _quantum_null(config),
    }
    d1_mm = round(config.dist_left, 3)
    try:
        rounded = with_updates(
            config,
            dist_left=d1_mm,
            dist_right=_classical_null(d1_mm, config.mass_left, config.mass_right),
        )
    except ConfigValidationError:  # a ball of the rounded geometry meets an arm
        return report
    report["dist_left_rounded_mm_m"] = rounded.dist_left
    report["omega_quantum_rounded_rad_s"] = omega_quantum(rounded)
    report["omega_classical_rounded_rad_s"] = omega_classical(rounded)
    return report
