"""Desk-scale validation of the two-state reduction on the full grid.

The physical cesium-scale parameters put ~10^30 interference-fringe
oscillations across any storable momentum grid, so the phase-space
check runs in nondimensionalized units (hbar = 1, order-unity lengths)
where the fringe ridge is resolvable.  The argument being validated is
scale-covariant: if the reduction from full phase-space transport to
the two-frequency picture holds structurally at these parameters, the
SI frequencies computed by :mod:`gravfringe.gravity` inherit it.

A validation run evolves the held two-packet state twice — once with
classical transport only, once with the quantum-corrected bracket —
extracts the interference phase at snapshot times through the
position-kernel transform, and compares the fitted phase velocities
against the closed-form frequencies for the same potential.  Held rows
evolve independently and the kernel at the packet centres reads the
one W row at q = 0, so each snapshot propagates that row alone; the
full grid is built, checked and range-checked once.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .config import (
    _MAX_ARRAY_SIZE,
    _check_keys,
    _parse_flat_document,
    _render_flat,
    _write_atomic,
)
from .errors import ConfigParseError, ConfigValidationError, NumericalError
from .gravity import _frequencies
from .phasespace import (
    BracketOrder,
    HamiltonianField,
    WignerGrid,
    _held_kernel_series,
    wigner_from_two_packets,
)

__all__ = [
    "OracleConfig",
    "OracleReport",
    "default_scaled_config",
    "load_oracle_config",
    "parse_oracle_config",
    "run_validation",
]

TWO_BALL = "two_ball"
QUADRATIC = "quadratic"
_POTENTIAL_KINDS = (TWO_BALL, QUADRATIC)

#: Coherence of the prepared state; 0.5 is the pure equal superposition,
#: giving maximal fringe contrast for the phase extraction.
INITIAL_COHERENCE = 0.5

_TWO_BALL_KEYS = ("coupling_left", "coupling_right", "dist_left", "dist_right")
_QUADRATIC_KEYS = ("quad_curvature", "quad_slope")
#: Allowed range of each integer key.  n_max stops at 84 because the
#: generator divides by (2 n_max + 1)!, and 171! is past the largest float.
_INT_RANGES = {
    "n_q": (8, _MAX_ARRAY_SIZE),
    "n_p": (8, _MAX_ARRAY_SIZE),
    "n_max": (0, 84),
    "n_snapshots": (3, _MAX_ARRAY_SIZE),
}
_SPAN_KEYS = ("q_lo", "q_hi", "p_lo", "p_hi")


@dataclass(frozen=True)
class OracleConfig:
    """Nondimensional parameters of one validation run.

    ``potential`` selects the field: ``"two_ball"`` (the experiment's
    1/r pair, taking the four coupling/distance fields) or
    ``"quadratic"`` (V = quad_curvature * q**2 + quad_slope * q, for
    which classical and quantum transport must agree exactly).  Spans
    default to q in +-1.5 separations and p in +-8 hbar/width, the grid
    that resolves the fringe wavevector with >= 4 points per
    oscillation.
    """

    potential: str
    arm_separation: float
    packet_width: float
    hbar: float = 1.0
    mass: float = 1.0
    coupling_left: float | None = None
    coupling_right: float | None = None
    dist_left: float | None = None
    dist_right: float | None = None
    quad_curvature: float | None = None
    quad_slope: float | None = None
    n_q: int = 512
    n_p: int = 512
    n_max: int = 3
    n_snapshots: int = 9
    hold_time: float = 4.0
    q_lo: float | None = None
    q_hi: float | None = None
    p_lo: float | None = None
    p_hi: float | None = None

    def __post_init__(self) -> None:
        if self.potential not in _POTENTIAL_KINDS:
            raise ConfigValidationError(
                f"unknown potential kind {self.potential!r}; "
                f"expected one of {', '.join(_POTENTIAL_KINDS)}"
            )
        for f in fields(self):
            # ahead of the range checks, which would misname an inf (the
            # unwrapping check reads it as snapshots too sparse); ints
            # cannot be non-finite
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigValidationError(f"{f.name} must be finite")
        for name in ("hbar", "mass", "arm_separation", "packet_width", "hold_time"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0.0):
                raise ConfigValidationError(f"{name} must be positive, got {value!r}")
        for name, (low, high) in _INT_RANGES.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigValidationError(f"{name} must be an integer")
            if not low <= value <= high:
                raise ConfigValidationError(
                    f"{name!r} must lie in {low}..{high}, got {value!r}"
                )
        if self.potential == TWO_BALL:
            required, forbidden = _TWO_BALL_KEYS, _QUADRATIC_KEYS
        else:
            required, forbidden = ("quad_slope",), _TWO_BALL_KEYS
        for name in required:
            if getattr(self, name) is None:
                raise ConfigValidationError(
                    f"{self.potential} potential requires {name}"
                )
        for name in forbidden:
            if getattr(self, name) is not None:
                raise ConfigValidationError(
                    f"{name} does not apply to the {self.potential} potential"
                )
        if self.potential == TWO_BALL:
            for name in _TWO_BALL_KEYS:
                if getattr(self, name) <= 0.0:
                    raise ConfigValidationError(f"{name} must be positive")
            half = self.arm_separation / 2.0
            for name in ("dist_left", "dist_right"):
                value = getattr(self, name)
                # the closed forms divide by d^2 - dx^2/4 and square d
                if not value > half:
                    raise ConfigValidationError(
                        f"{name!r} = {value!r} must exceed arm_separation/2 = "
                        f"{half!r}: the ball centre meets an arm"
                    )
                if not math.isfinite(value * value):
                    raise ConfigValidationError(
                        f"{name!r} = {value!r} is too large: its square is not "
                        "a finite float"
                    )
        elif self.quad_curvature is None:
            object.__setattr__(self, "quad_curvature", 0.0)
        half_q = 1.5 * self.arm_separation
        half_p = 8.0 * self.hbar / self.packet_width
        defaults = (-half_q, half_q, -half_p, half_p)
        for name, fallback in zip(_SPAN_KEYS, defaults):
            if getattr(self, name) is None:
                object.__setattr__(self, name, fallback)
        if not (self.q_lo < self.q_hi and self.p_lo < self.p_hi):
            raise ConfigValidationError("grid spans must have lo < hi")
        dp = (self.p_hi - self.p_lo) / self.n_p
        limit = math.pi * self.hbar / (2.0 * self.arm_separation)
        if dp > limit * (1.0 + 1e-12):
            # at coarser sampling the conjugate fringe line aliases into
            # the band the phase readout integrates over and drags the
            # measured slope; four samples per oscillation plus packet
            # orthogonality push that alias into the envelope's dead tail
            raise ConfigValidationError(
                f"momentum spacing {dp!r} too coarse for phase extraction: "
                f"need at least four samples per fringe oscillation "
                f"(dp <= {limit!r})"
            )
        step = self.hold_time / (self.n_snapshots - 1)
        turn = max(map(abs, self.predicted_frequencies())) * step
        if turn >= math.pi / 2.0:
            # np.unwrap folds phase steps beyond pi, so a coarser snapshot
            # spacing would report an aliased slope as a failed validation
            raise ConfigValidationError(
                f"snapshots too sparse for phase unwrapping: the predicted "
                f"phase turns {turn:.3g} rad between snapshots (must stay "
                f"below pi/2); lower hold_time or raise n_snapshots"
            )

    # ------------------------------------------------------- derived pieces

    def predicted_frequencies(self) -> tuple[float, float]:
        """Closed-form (omega_classical, omega_quantum) for this field.

        omega_classical = dx * V'(0) / hbar (midpoint-force route) and
        omega_quantum = [V(dx/2) - V(-dx/2)] / hbar (potential-difference
        route), the two-ball pair from the reduced forms that
        :mod:`gravfringe.gravity` evaluates in SI units; for a quadratic
        potential the two coincide identically.
        """
        if self.potential == TWO_BALL:
            return _frequencies(
                self.arm_separation / self.hbar,
                self.coupling_left,
                self.coupling_right,
                self.dist_left,
                self.dist_right,
                self.arm_separation,
            )
        diff = self.quad_slope * self.arm_separation
        return self.arm_separation * self.quad_slope / self.hbar, diff / self.hbar

    def field_on(self, q_axis: np.ndarray) -> HamiltonianField:
        """Hamiltonian field carrying derivatives for the configured order."""
        max_order = max(3, 2 * self.n_max + 1)
        if self.potential == TWO_BALL:
            return HamiltonianField.from_two_ball(
                q_axis,
                self.mass,
                self.coupling_left,
                self.coupling_right,
                self.dist_left,
                self.dist_right,
                max_order=max_order,
            )
        return HamiltonianField.from_quadratic(
            q_axis,
            self.mass,
            curvature=self.quad_curvature,
            slope=self.quad_slope,
            max_order=max_order,
        )

    def initial_state(self) -> WignerGrid:
        """The prepared two-packet state on the configured grid."""
        return wigner_from_two_packets(
            self.arm_separation,
            self.packet_width,
            INITIAL_COHERENCE,
            hbar=self.hbar,
            n_q=self.n_q,
            n_p=self.n_p,
            q_span=(self.q_lo, self.q_hi),
            p_span=(self.p_lo, self.p_hi),
        )


def default_scaled_config() -> OracleConfig:
    """The stock validation geometry: nulled classical transport.

    Couplings in the exact ratio 2:1 with distances in the ratio
    sqrt(2):1 cancel the midpoint force identically, while the
    finite-separation quantum frequency stays near 0.3 per unit time
    (dx * (g1/(d1^2 - dx^2/4) - g2/(d2^2 - dx^2/4)) with the numbers
    below).  The geometry leaves the near ball centre 11.5 units past
    the grid edge: the truncated correction series then still converges
    at the grid's extreme momentum wavenumber (pi/dp ~ 20, half of
    which stays inside that pole distance), so the generator stays a
    faithful truncation of the potential difference on every mode.
    """
    return OracleConfig(
        potential=TWO_BALL,
        arm_separation=8.0,
        packet_width=0.25,
        coupling_left=705.0,
        coupling_right=1410.0,
        dist_left=20.0,
        dist_right=20.0 * math.sqrt(2.0),
        q_lo=-8.5,
        q_hi=8.5,
        p_lo=-40.0,
        p_hi=40.0,
    )


# ----------------------------------------------------------------- parsing

_ALL_KEYS = frozenset(f.name for f in fields(OracleConfig))
_REQUIRED_KEYS = tuple(f.name for f in fields(OracleConfig) if f.default is MISSING)


def parse_oracle_config(text: str) -> OracleConfig:
    """Parse a flat ``key = value`` oracle document.

    Same format and failure discipline as the experiment config;
    ``potential`` is the single string-valued key.
    """
    values = _parse_flat_document(text, "oracle config", text_keys={"potential"})
    _check_keys(values, "oracle config", _ALL_KEYS, _REQUIRED_KEYS)
    for key in _INT_RANGES:
        if key in values:
            if not values[key].is_integer():
                raise ConfigParseError(f"oracle config key {key!r} must be an integer")
            values[key] = int(values[key])
    return OracleConfig(**values)


def load_oracle_config(path: str | Path) -> OracleConfig:
    """Read and parse an oracle configuration file."""
    return parse_oracle_config(Path(path).read_text(encoding="utf-8"))


def serialize_oracle_config(config: OracleConfig) -> str:
    """Round-trippable flat document for an oracle configuration."""
    return _render_flat((f.name, getattr(config, f.name)) for f in fields(config))


# -------------------------------------------------------------- validation


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one validation run, ready for key/value rendering.

    The measured values are phase-velocity slopes fitted to the
    unwrapped interference phase over the snapshot times; errors are
    absolute differences from the closed-form predictions, judged
    against ``tolerance * reference_scale`` where the reference is the
    larger predicted frequency magnitude (or 1 when both predictions
    vanish, making the comparison absolute).

    The packets are held, so the order-n_max slope is Omega at the
    ridge row q = 0 and wavenumber dx/hbar: the Taylor partial sum
    S_n = (2/hbar) sum_{j<=n} V^(2j+1)(0) a^(2j+1) / (2j+1)!, a = dx/2,
    of omega_quantum.  ``moyal_abs_error`` is therefore the measured
    truncation error |S_n - omega_quantum|, not an estimate.
    """

    config: OracleConfig
    tolerance: float
    omega_classical_predicted: float
    omega_quantum_predicted: float
    omega_poisson_measured: float
    omega_moyal_measured: float
    reference_scale: float
    poisson_abs_error: float
    moyal_abs_error: float
    coherence_initial: float
    coherence_final: float
    poisson_pass: bool
    moyal_pass: bool

    @property
    def passed(self) -> bool:
        return self.poisson_pass and self.moyal_pass

    def lines(self) -> list[str]:
        """Flat ``key = value`` rendering, config echo included."""
        measured = [
            (f.name, getattr(self, f.name)) for f in fields(self) if f.name != "config"
        ]
        measured.append(("passed", self.passed))
        text = serialize_oracle_config(self.config) + _render_flat(measured)
        return text.splitlines()


def _phase_slope(
    config: OracleConfig,
    h: HamiltonianField,
    w0: WignerGrid,
    order: BracketOrder,
) -> tuple[float, float, float]:
    """(fitted phase velocity, |c| first, |c| last) for one bracket order.

    The state is held (kinetic streaming masked), so each snapshot is
    the exact propagator applied to ``w0`` at its own time; the
    coherence is read off the recovered position kernel at the packet
    centres, the transform route the reduction argument itself uses.
    The kernel reads only the W row at the midpoint q = 0, and held
    rows evolve independently, so only that row is propagated when it
    is a grid node (every row otherwise); the generator is still
    range-checked on every row.  A phase fit that breaks down raises
    :class:`NumericalError`.
    """
    a = config.arm_separation / 2.0
    scale = config.packet_width * math.sqrt(2.0 * math.pi)
    times = np.linspace(0.0, config.hold_time, config.n_snapshots)
    kernels = _held_kernel_series(h, w0, order, -a, a, times)
    magnitudes = scale * np.abs(kernels)
    phases = np.unwrap(np.angle(kernels))
    try:
        slope = float(np.polyfit(times, phases, 1)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"phase fit failed: {exc}") from None
    return slope, float(magnitudes[0]), float(magnitudes[-1])


def run_validation(config: OracleConfig, tolerance: float = 0.05) -> OracleReport:
    """Run both transport laws and compare against the closed forms.

    The quantum-corrected run must reproduce omega_quantum and the
    classical run omega_classical, each within ``tolerance`` of the
    dominant predicted frequency; for nulled geometries the classical
    check therefore demands a phase velocity below the resolution
    floor.
    """
    if not 0.0 < tolerance < math.inf:
        raise ConfigValidationError(
            f"tolerance must be positive and finite, got {tolerance!r}"
        )
    w0 = config.initial_state()
    h = config.field_on(w0.q_axis)
    omega_c, omega_q = config.predicted_frequencies()

    moyal_slope, c_first, c_last = _phase_slope(
        config, h, w0, BracketOrder(config.n_max)
    )
    poisson_slope, _, _ = _phase_slope(config, h, w0, BracketOrder(0))

    reference = max(abs(omega_c), abs(omega_q))
    if reference == 0.0:
        reference = 1.0
    moyal_err = abs(moyal_slope - omega_q)
    poisson_err = abs(poisson_slope - omega_c)
    return OracleReport(
        config=config,
        tolerance=tolerance,
        omega_classical_predicted=omega_c,
        omega_quantum_predicted=omega_q,
        omega_poisson_measured=poisson_slope,
        omega_moyal_measured=moyal_slope,
        reference_scale=reference,
        poisson_abs_error=poisson_err,
        moyal_abs_error=moyal_err,
        coherence_initial=c_first,
        coherence_final=c_last,
        poisson_pass=bool(poisson_err <= tolerance * reference),
        moyal_pass=bool(moyal_err <= tolerance * reference),
    )


def write_report(report: OracleReport, path: str | Path) -> None:
    """Write the validation report as flat key/value text."""
    with _write_atomic(path) as handle:
        handle.write("\n".join(report.lines()) + "\n")
