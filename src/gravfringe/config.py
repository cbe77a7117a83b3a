"""Experiment configuration: geometry, physical constants, and I/O.

A configuration describes one interferometer setup: a particle of mass
``m`` held in a superposition of two arms separated by ``arm_separation``,
with a source ball on each side at centre distances ``dist_left`` and
``dist_right`` from the midpoint.  Distances are measured from the
superposition midpoint to the ball centres, so the left arm sits at
``-arm_separation/2`` and the left ball centre at ``-dist_left``.

Configurations are stored as flat ``key = value`` text documents with
``#`` comments.  Parsing is fail-closed: unknown keys, duplicate keys,
missing required keys, and values that are not finite numbers are all
named errors, so a typo cannot silently fall back to a default.  The
probe mass is kept in atomic mass units, in the document and in memory
alike, so a configuration reloads bit for bit; every other quantity is
SI.  The physical constants are the module constants :data:`G`,
:data:`HBAR` and :data:`AMU` (CODATA 2018), not configuration values.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import TextIO

from .errors import ConfigParseError, ConfigValidationError, DomainError

__all__ = [
    "ExperimentConfig",
    "ball_radius",
    "parse_config",
    "load_config",
    "serialize_config",
    "cesium_tungsten_config",
]

#: Gravitational constant, m^3 kg^-1 s^-2 (CODATA 2018).
G = 6.67430e-11
#: Reduced Planck constant, J s (CODATA 2018).
HBAR = 1.054571817e-34
#: Atomic mass unit, kg (CODATA 2018).
AMU = 1.66053906660e-27

#: Largest element count that any array of the package may be asked for.
#: Past it a complex array's byte count overflows the index type, and
#: numpy raises ValueError or IndexError where a smaller impossible size
#: raises MemoryError.
_MAX_ARRAY_SIZE = sys.maxsize // 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One interferometer geometry, SI units apart from the probe mass.

    Invariants enforced at construction:

    * every float field is finite,
    * all masses, distances and the density are strictly positive,
    * every length (``arm_separation``, ``dist_left``, ``dist_right``)
      has a finite cube, so no frequency formula overflows,
    * ``hold_time`` is non-negative,
    * each ball centre lies outside the superposition span and the ball
      surface clears the nearer arm (no overlap between a source ball
      and an interferometer arm).
    """

    particle_mass_amu: float  # probe mass, atomic mass units
    arm_separation: float  # m
    mass_left: float  # kg
    mass_right: float  # kg
    dist_left: float  # m, midpoint to left ball centre
    dist_right: float  # m, midpoint to right ball centre
    source_density: float = 19300.0  # kg/m^3, tungsten by default
    hold_time: float = 60.0  # s

    def __post_init__(self) -> None:
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        for name, value in values:
            if not math.isfinite(value):
                raise ConfigValidationError(f"{name} must be finite")
        for name, value in values:
            if name != "hold_time" and not value > 0.0:
                raise ConfigValidationError(f"{name} must be strictly positive")
        if not self.hold_time >= 0.0:
            raise ConfigValidationError("hold_time must be non-negative")
        for name in ("arm_separation", "dist_left", "dist_right"):
            value = getattr(self, name)
            # a product overflows to inf, where float ** raises
            if not math.isfinite(value * value * value):
                raise ConfigValidationError(
                    f"{name} = {value!r} m is too large: its cube is not a "
                    "finite float"
                )
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
    def particle_mass(self) -> float:
        """Probe mass, kg."""
        return self.particle_mass_amu * AMU

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

#: Document key of each ``ExperimentConfig`` field, in document order.
_FIELD_KEYS = {
    "particle_mass_amu": "particle_mass_amu",
    "arm_separation": "arm_separation_m",
    "mass_left": "mass_left_kg",
    "mass_right": "mass_right_kg",
    "dist_left": "dist_left_m",
    "dist_right": "dist_right_m",
    "source_density": "source_density_kg_m3",
    "hold_time": "hold_time_s",
}
_REQUIRED_KEYS = tuple(
    _FIELD_KEYS[f.name] for f in fields(ExperimentConfig) if f.default is MISSING
)


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


@contextmanager
def _write_atomic(path: str | Path) -> Iterator[TextIO]:
    """Open ``<name>.tmp`` beside ``path`` for UTF-8 text, then rename.

    The one writer of every file the package produces: the body writes
    to the yielded handle, in one piece or in blocks.  A clean exit
    renames the temporary file over ``path`` in one step; any exception
    unlinks it, so a write that fails midway leaves a previous file at
    ``path`` intact and no ``.tmp`` behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            yield handle
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_keys(
    values: dict[str, object],
    context: str,
    allowed: Iterable[str],
    required: Iterable[str],
) -> None:
    """Raise :class:`ConfigParseError` naming unknown, then missing, keys.

    The one key check of every flat document reader; ``context`` names
    the document kind in the message.
    """
    unknown = sorted(set(values) - set(allowed))
    if unknown:
        raise ConfigParseError(f"unknown {context} key(s): {', '.join(unknown)}")
    missing = sorted(k for k in required if k not in values)
    if missing:
        raise ConfigParseError(
            f"missing required {context} key(s): {', '.join(missing)}"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse a configuration document into an :class:`ExperimentConfig`.

    Unknown keys and missing required keys raise
    :class:`ConfigParseError` naming the key; omitted optional keys
    take the dataclass defaults; invariant violations raise
    :class:`ConfigValidationError`.
    """
    values = _parse_flat_document(text, "config")
    _check_keys(values, "config", _FIELD_KEYS.values(), _REQUIRED_KEYS)
    return ExperimentConfig(
        **{name: values[key] for name, key in _FIELD_KEYS.items() if key in values}
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    return parse_config(Path(path).read_text(encoding="utf-8"))


def serialize_config(config: ExperimentConfig) -> str:
    """Render a configuration as a document that reloads identically.

    ``load_config`` of the result reproduces ``config`` exactly: every
    value is written as stored.
    """
    pairs = [(key, getattr(config, name)) for name, key in _FIELD_KEYS.items()]
    return "# interferometer configuration\n" + _render_flat(pairs)


def cesium_tungsten_config() -> ExperimentConfig:
    """Benchmark geometry: a caesium atom between tungsten balls.

    A 133 amu particle split over 10 cm, a 20 g ball on the left and a
    40 g ball on the right.  The left gap is 5 cm of clearance plus the
    ball radius plus 1 mm; the right distance nulls the classical
    frequency exactly (``dist_right = dist_left * sqrt(2)``), leaving
    the two-arm phase running at the quantum frequency alone,
    about 0.22 rad/s.  :func:`gravfringe.gravity.frequency_report`
    also reports the variant with the left distance rounded to the
    millimetre, as the headline geometry is usually quoted.
    """
    mass_left = 0.020
    mass_right = 0.040
    dist_left = 0.05 + ball_radius(mass_left, ExperimentConfig.source_density) + 0.001
    dist_right = dist_left * math.sqrt(mass_right / mass_left)
    return ExperimentConfig(
        particle_mass_amu=133.0,
        arm_separation=0.1,
        mass_left=mass_left,
        mass_right=mass_right,
        dist_left=dist_left,
        dist_right=dist_right,
    )


def with_updates(config: ExperimentConfig, **changes: float) -> ExperimentConfig:
    """Copy a configuration with some fields replaced, re-validating."""
    return replace(config, **changes)
