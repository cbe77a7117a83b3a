"""Experiment configuration: physical constants, geometry, and I/O.

A configuration describes one interferometer setup: a particle of mass
``m`` held in a superposition of two arms separated by ``arm_separation``,
with a source ball on each side at centre distances ``dist_left`` and
``dist_right`` from the midpoint.  Distances are measured from the
superposition midpoint to the ball centres, so the left arm sits at
``-arm_separation/2`` and the left ball centre at ``-dist_left``.

Configurations are stored as flat ``key = value`` text documents with
``#`` comments.  Parsing is fail-closed: unknown keys, duplicate keys,
missing required keys, and values that are not finite numbers are all
named errors, so a typo cannot silently fall back to a default.  Masses
of the probe particle are given in atomic mass units in the document and
converted to kilograms on load; everything in memory is SI.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigParseError, ConfigValidationError, DomainError

__all__ = [
    "PhysicalConstants",
    "ExperimentConfig",
    "ball_radius",
    "parse_config",
    "load_config",
    "serialize_config",
    "save_config",
    "cesium_tungsten_config",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in SI units.

    Defaults are the 2018 CODATA recommended values.  They can be
    overridden through the optional configuration keys (for sensitivity
    studies) but are otherwise fixed.
    """

    G: float = 6.67430e-11  # gravitational constant, m^3 kg^-1 s^-2
    hbar: float = 1.054571817e-34  # reduced Planck constant, J s
    amu: float = 1.66053906660e-27  # atomic mass unit, kg

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigValidationError(
                    f"physical constant {f.name} must be finite"
                )
            if not value > 0.0:
                raise ConfigValidationError(
                    f"physical constant {f.name} must be strictly positive"
                )


@dataclass(frozen=True)
class ExperimentConfig:
    """One interferometer geometry, SI units throughout.

    Invariants enforced at construction:

    * every float field is finite,
    * all masses, distances and the density are strictly positive,
    * ``hold_time`` is non-negative,
    * each ball centre lies outside the superposition span and the ball
      surface clears the nearer arm (no overlap between a source ball
      and an interferometer arm).
    """

    particle_mass: float  # kg
    arm_separation: float  # m
    mass_left: float  # kg
    mass_right: float  # kg
    dist_left: float  # m, midpoint to left ball centre
    dist_right: float  # m, midpoint to right ball centre
    source_density: float = 19300.0  # kg/m^3, tungsten by default
    hold_time: float = 60.0  # s
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "constants" and not math.isfinite(getattr(self, f.name)):
                raise ConfigValidationError(f"{f.name} must be finite")
        positive = {
            "particle_mass": self.particle_mass,
            "arm_separation": self.arm_separation,
            "mass_left": self.mass_left,
            "mass_right": self.mass_right,
            "dist_left": self.dist_left,
            "dist_right": self.dist_right,
            "source_density": self.source_density,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise ConfigValidationError(f"{name} must be strictly positive")
        if not self.hold_time >= 0.0:
            raise ConfigValidationError("hold_time must be non-negative")
        half = self.arm_separation / 2.0
        for side, dist, mass in (
            ("left", self.dist_left, self.mass_left),
            ("right", self.dist_right, self.mass_right),
        ):
            radius = ball_radius(mass, self.source_density)
            if dist - half <= radius:
                raise ConfigValidationError(
                    f"{side} ball overlaps the near arm: "
                    f"dist_{side} - arm_separation/2 = {dist - half:.6g} m "
                    f"must exceed the ball radius {radius:.6g} m"
                )

    @property
    def radius_left(self) -> float:
        """Radius of the left source ball, m."""
        return ball_radius(self.mass_left, self.source_density)

    @property
    def radius_right(self) -> float:
        """Radius of the right source ball, m."""
        return ball_radius(self.mass_right, self.source_density)


def ball_radius(mass: float, density: float) -> float:
    """Radius of a homogeneous ball of the given mass and density.

    Raises :class:`DomainError` for non-positive density or negative
    mass.
    """
    if not density > 0.0:
        raise DomainError("density must be strictly positive")
    if mass < 0.0:
        raise DomainError("mass must be non-negative")
    return (3.0 * mass / (4.0 * math.pi * density)) ** (1.0 / 3.0)


# ------------------------------------------------------------------ I/O

# Schema: document key -> (required, description).  Mass of the probe is
# the only key whose unit differs between document (amu) and memory (kg).
_REQUIRED_KEYS = (
    "particle_mass_amu",
    "arm_separation_m",
    "mass_left_kg",
    "mass_right_kg",
    "dist_left_m",
    "dist_right_m",
)
_OPTIONAL_KEYS = (
    "source_density_kg_m3",
    "hold_time_s",
    "gravitational_constant_si",
    "hbar_js",
    "atomic_mass_unit_kg",
)
_ALL_KEYS = frozenset(_REQUIRED_KEYS) | frozenset(_OPTIONAL_KEYS)


def _parse_flat_document(
    text: str, context: str, text_keys: frozenset[str] | set[str] = frozenset()
) -> dict[str, float | str]:
    """Parse ``key = value`` lines into a dict, fail-closed.

    The one reader of every flat document the package writes; ``context``
    names the document kind in error messages.  Keys in ``text_keys``
    keep their value as a string; every other value must be a finite
    number, so ``nan`` and ``inf`` are rejected naming the key and line.
    """
    values: dict[str, float | str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"{context} line {lineno}: expected 'key = value', got {raw!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigParseError(f"{context} line {lineno}: empty key")
        if key in values:
            raise ConfigParseError(f"{context} line {lineno}: duplicate key {key!r}")
        if key in text_keys:
            values[key] = value
            continue
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ConfigParseError(
                f"{context} line {lineno}: value for {key!r} is not a finite "
                f"number: {value!r}"
            )
        values[key] = number
    return values


def _render_flat(pairs: Iterable[tuple[str, object]]) -> str:
    """Render ``(key, value)`` pairs as ``key = value`` lines.

    The one writer of every flat document: ``None`` values are skipped,
    bools print as ``true``/``false``, ints and strings print unchanged
    and everything else as ``repr(float(value))``, which reads back
    bit-exactly.
    """
    lines = []
    for key, value in pairs:
        if value is None:
            continue
        if isinstance(value, bool):
            rendered = str(value).lower()
        elif isinstance(value, (int, str)):
            rendered = str(value)
        else:
            rendered = repr(float(value))
        lines.append(f"{key} = {rendered}\n")
    return "".join(lines)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a configuration document into an :class:`ExperimentConfig`.

    Unknown keys and missing required keys raise
    :class:`ConfigParseError` naming the key; invariant violations raise
    :class:`ConfigValidationError`.
    """
    values = _parse_flat_document(text, "config")
    unknown = sorted(set(values) - _ALL_KEYS)
    if unknown:
        raise ConfigParseError(f"unknown config key(s): {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED_KEYS if k not in values)
    if missing:
        raise ConfigParseError(f"missing required config key(s): {', '.join(missing)}")

    constants = PhysicalConstants(
        G=values.get("gravitational_constant_si", PhysicalConstants.G),
        hbar=values.get("hbar_js", PhysicalConstants.hbar),
        amu=values.get("atomic_mass_unit_kg", PhysicalConstants.amu),
    )
    return ExperimentConfig(
        particle_mass=values["particle_mass_amu"] * constants.amu,
        arm_separation=values["arm_separation_m"],
        mass_left=values["mass_left_kg"],
        mass_right=values["mass_right_kg"],
        dist_left=values["dist_left_m"],
        dist_right=values["dist_right_m"],
        source_density=values.get("source_density_kg_m3", 19300.0),
        hold_time=values.get("hold_time_s", 60.0),
        constants=constants,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    return parse_config(Path(path).read_text())


def _amu_value(mass_kg: float, amu: float) -> float:
    """Mass in amu whose reload reproduces ``mass_kg`` bit-exactly.

    ``(m/a)*a == m`` holds for most doubles; when rounding breaks it, one
    of the two neighbouring representables is usually an exact preimage.
    Some kg values have no preimage at all; they reload one ulp off.
    """
    r = mass_kg / amu
    if r * amu == mass_kg:
        return r
    for candidate in (math.nextafter(r, math.inf), math.nextafter(r, -math.inf)):
        if candidate * amu == mass_kg:
            return candidate
    return r


def serialize_config(config: ExperimentConfig) -> str:
    """Render a configuration as a document that reloads identically.

    ``load_config`` of the result reproduces ``config`` exactly,
    including the stored SI particle mass whenever that mass is some
    double times ``constants.amu``, as every loaded or built-in
    config's is (see :func:`_amu_value` for the other case).
    """
    c = config.constants
    defaults = PhysicalConstants()
    return "# interferometer configuration\n" + _render_flat(
        [
            ("particle_mass_amu", _amu_value(config.particle_mass, c.amu)),
            ("arm_separation_m", config.arm_separation),
            ("mass_left_kg", config.mass_left),
            ("mass_right_kg", config.mass_right),
            ("dist_left_m", config.dist_left),
            ("dist_right_m", config.dist_right),
            ("source_density_kg_m3", config.source_density),
            ("hold_time_s", config.hold_time),
            ("gravitational_constant_si", c.G if c.G != defaults.G else None),
            ("hbar_js", c.hbar if c.hbar != defaults.hbar else None),
            ("atomic_mass_unit_kg", c.amu if c.amu != defaults.amu else None),
        ]
    )


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    """Write a configuration document to ``path``."""
    Path(path).write_text(serialize_config(config))


def cesium_tungsten_config(rounded_distances: bool = False) -> ExperimentConfig:
    """Benchmark geometry: a caesium atom between tungsten balls.

    A 133 amu particle split over 10 cm, a 20 g ball on the left and a
    40 g ball on the right.  The left gap is 5 cm of clearance plus the
    ball radius plus 1 mm; the right distance nulls the classical
    frequency exactly (``dist_right = dist_left * sqrt(2)``), leaving
    the two-arm phase running at the quantum frequency alone,
    about 0.22 rad/s.

    With ``rounded_distances`` the left distance is rounded to the
    nearest millimetre first (the headline geometry is usually quoted
    that way); the quantum frequency then comes out near 0.233 rad/s.
    """
    density = 19300.0
    mass_left = 0.020
    mass_right = 0.040
    dist_left = 0.05 + ball_radius(mass_left, density) + 0.001
    if rounded_distances:
        dist_left = round(dist_left, 3)
    dist_right = dist_left * math.sqrt(mass_right / mass_left)
    constants = PhysicalConstants()
    return ExperimentConfig(
        particle_mass=133.0 * constants.amu,
        arm_separation=0.1,
        mass_left=mass_left,
        mass_right=mass_right,
        dist_left=dist_left,
        dist_right=dist_right,
        source_density=density,
        hold_time=60.0,
        constants=constants,
    )


def with_updates(config: ExperimentConfig, **changes: float) -> ExperimentConfig:
    """Copy a configuration with some fields replaced, re-validating."""
    return replace(config, **changes)
