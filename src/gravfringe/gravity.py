"""The two potentials the package knows, and the interference frequencies.

Each potential kind is one private frozen value, and every caller reads
it: :class:`_TwoBall` (the experiment) and :class:`_Quadratic` (the
oracle's control case, for which classical and quantum transport agree
exactly).  A value gives two views:

* ``derivative(x, order)``, the closed-form V^(k) for k >= 0 (k = 0 is
  V itself), which the phase-space field samples on its q axis;
* ``frequencies(dx, hbar)``, the pair (omega_C, omega_Q) of arms at
  +-dx/2: omega_C = dx V'(0) / hbar is driven by the force at the
  midpoint, omega_Q = (V(dx/2) - V(-dx/2)) / hbar by the potential
  difference between the arms.  Each comes from its reduced closed form
  rather than from two values of V, which would lose digits on nulled
  geometries.

The two frequencies differ because the two-ball potential is
anharmonic; equating them is exactly the question of whether gravity
pulls on the local probability density (classical response) or on the
amplitudes at the two arms (quantum response).  Either frequency can be
nulled by choosing the ball distances, and the two null conditions are
distinct whenever the ball masses differ -- that distinctness is what
makes the geometry a discriminating measurement rather than a
calibration.

One value serves every unit system: the config-facing functions below
build it in SI units and the oracle in its own nondimensional units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import G, HBAR, ExperimentConfig, with_updates
from .errors import ConfigValidationError, DomainError

__all__ = [
    "omega_classical",
    "omega_quantum",
    "frequency_report",
]


@dataclass(frozen=True)
class _TwoBall:
    """V(x) = -g1/(d1 + x) - g2/(d2 - x), with couplings g_i = unit * w_i.

    The left ball centre sits at -d1 and the right at +d2, the midpoint
    of the arms at the origin; V is defined on the open interval
    (-d1, d2).  SI values keep G m apart from the ball masses (weights
    M_i, ``unit = G m``), so omega's scale is ((G m) dx)/hbar; folding
    G m into the weights would move omega's last bits.  Oracle values
    take the couplings as weights and ``unit = 1.0``, for which
    ``1.0 * x`` is exact.
    """

    w1: float
    w2: float
    d1: float
    d2: float
    unit: float = 1.0

    def derivative(self, x, order: int):
        """V^(order) at ``x`` (a scalar or an array; the return matches).

        Closed form for orders 0..170, since 171! is past the largest
        float; any other order raises ``ValueError``.  Positions at or
        beyond a ball centre raise :class:`DomainError` (the potential
        diverges there and the point particle model has already failed
        at the ball surface).
        """
        if not 0 <= order <= 170:
            raise ValueError(f"derivative order must lie in 0..170, got {order!r}")
        xv = np.asarray(x, dtype=float)
        d1, d2 = self.d1, self.d2
        if np.any(xv <= -d1) or np.any(xv >= d2):
            raise DomainError(
                f"position outside the open interval (-{d1!r}, {d2!r}) "
                "between the ball centres"
            )
        k = order
        sign = -1.0 if k % 2 else 1.0  # (-1)^k
        fact = float(math.factorial(k))
        g1, g2 = self.unit * self.w1, self.unit * self.w2
        with np.errstate(over="ignore"):
            # a far ball's power overflows to inf, and its term is then 0
            out = -g1 * sign * fact / (d1 + xv) ** (k + 1) - g2 * fact / (d2 - xv) ** (k + 1)
        return out if out.ndim else float(out)

    def frequencies(self, dx: float, hbar: float) -> tuple[float, float]:
        """(omega_C, omega_Q), each ball centre clearing the arms (d_i > dx/2)."""
        scale = self.unit * dx / hbar
        quarter = dx**2 / 4.0
        w1, w2, d1, d2 = self.w1, self.w2, self.d1, self.d2
        return (
            scale * (w1 / d1**2 - w2 / d2**2),
            scale * (w1 / (d1**2 - quarter) - w2 / (d2**2 - quarter)),
        )


@dataclass(frozen=True)
class _Quadratic:
    """V(x) = curvature * x^2 + slope * x: V^(k) is exactly 0 for k >= 3."""

    curvature: float
    slope: float

    def derivative(self, x, order: int):
        """V^(order) at ``x`` (a scalar or an array; the return matches)."""
        xv = np.asarray(x, dtype=float)
        if order == 0:
            out = self.curvature * xv**2 + self.slope * xv
        elif order == 1:
            out = 2.0 * self.curvature * xv + self.slope
        else:
            out = np.full_like(xv, 2.0 * self.curvature if order == 2 else 0.0)
        return out if out.ndim else float(out)

    def frequencies(self, dx: float, hbar: float) -> tuple[float, float]:
        """(omega_C, omega_Q), which coincide: V' is linear."""
        omega = dx * self.slope / hbar
        return omega, omega


def _si_two_ball(config: ExperimentConfig) -> _TwoBall:
    """A configuration's potential in SI units (joules, metres)."""
    c = config
    return _TwoBall(
        c.mass_left, c.mass_right, c.dist_left, c.dist_right, unit=G * c.particle_mass
    )


def omega_classical(config: ExperimentConfig) -> float:
    """Classical fringe frequency dx V'(0) / hbar, rad/s.

    Positive when the left ball dominates.
    """
    return _si_two_ball(config).frequencies(config.arm_separation, HBAR)[0]


def omega_quantum(config: ExperimentConfig) -> float:
    """Quantum fringe frequency (V(dx/2) - V(-dx/2)) / hbar, rad/s.

    Requires each ball centre to clear the arms (d_i > dx/2), which
    configuration validation already guarantees.
    """
    return _si_two_ball(config).frequencies(config.arm_separation, HBAR)[1]


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
