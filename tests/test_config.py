"""Configuration parsing, validation, and round-trip behaviour."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravfringe.config import (
    ExperimentConfig,
    PhysicalConstants,
    _parse_flat_document,
    _render_flat,
    _write_atomic,
    ball_radius,
    cesium_tungsten_config,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)
from gravfringe.errors import ConfigParseError, ConfigValidationError, DomainError
from gravfringe.gravity import frequency_report

GOOD_DOC = """
# benchmark geometry
particle_mass_amu = 133
arm_separation_m = 0.1
mass_left_kg = 0.020
mass_right_kg = 0.040
dist_left_m = 0.0572776152
dist_right_m = 0.0810027802
source_density_kg_m3 = 19300
hold_time_s = 60
"""


def test_parse_good_document():
    cfg = parse_config(GOOD_DOC)
    assert cfg.particle_mass == pytest.approx(133 * 1.66053906660e-27, rel=1e-15)
    assert cfg.arm_separation == 0.1
    assert cfg.mass_left == 0.020
    assert cfg.dist_right == 0.0810027802
    assert cfg.hold_time == 60.0


def test_defaults_apply_when_optional_keys_absent():
    doc = "\n".join(
        line
        for line in GOOD_DOC.splitlines()
        if not line.startswith(("source_density", "hold_time"))
    )
    cfg = parse_config(doc)
    assert cfg.source_density == 19300.0
    assert cfg.hold_time == 60.0


def test_missing_required_key_names_it():
    doc = "\n".join(
        line for line in GOOD_DOC.splitlines() if not line.startswith("mass_right")
    )
    with pytest.raises(ConfigParseError, match="mass_right_kg"):
        parse_config(doc)


def test_unknown_key_rejected():
    with pytest.raises(ConfigParseError, match="mass_middle_kg"):
        parse_config(GOOD_DOC + "\nmass_middle_kg = 1.0\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_config(GOOD_DOC + "\nhold_time_s = 10\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigParseError, match="arm_separation_m"):
        parse_config(GOOD_DOC.replace("= 0.1", "= ten_cm"))


def test_malformed_line_rejected():
    with pytest.raises(ConfigParseError, match="line"):
        parse_config("just some words\n")


def test_ball_overlap_rejected():
    # left ball radius ~6.3 mm; a 5 cm centre distance with 5 cm arms
    # puts the arm inside the ball
    with pytest.raises(ConfigValidationError, match="overlap"):
        parse_config(GOOD_DOC.replace("dist_left_m = 0.0572776152", "dist_left_m = 0.055"))


def test_negative_mass_rejected():
    with pytest.raises(ConfigValidationError, match="mass_left"):
        parse_config(GOOD_DOC.replace("mass_left_kg = 0.020", "mass_left_kg = -0.020"))


def test_constants_positive():
    with pytest.raises(ConfigValidationError):
        PhysicalConstants(G=0.0)


def test_constants_overridable_via_config():
    cfg = parse_config(GOOD_DOC + "\ngravitational_constant_si = 6.7e-11\n")
    assert cfg.constants.G == 6.7e-11
    assert cfg.constants.hbar == PhysicalConstants().hbar


def test_ball_radius_value_and_scaling():
    # 20 g of tungsten: r = (3 m / 4 pi rho)^(1/3)
    r = ball_radius(0.020, 19300.0)
    assert r == pytest.approx((3 * 0.020 / (4 * math.pi * 19300.0)) ** (1 / 3))
    # mass scaling m^(1/3): doubling the mass scales r by 2^(1/3)
    assert ball_radius(0.040, 19300.0) == pytest.approx(r * 2 ** (1 / 3), rel=1e-14)


def test_ball_radius_domain():
    with pytest.raises(DomainError):
        ball_radius(0.02, 0.0)
    with pytest.raises(DomainError):
        ball_radius(-0.02, 19300.0)


def test_roundtrip_is_identity(tmp_path):
    rng = np.random.default_rng(42)
    for _ in range(25):
        doc = GOOD_DOC.replace("= 133", f"= {rng.uniform(1, 300)!r}")
        cfg = parse_config(doc)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
    # and through the filesystem
    cfg = cesium_tungsten_config()
    path = tmp_path / "geometry.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_mass_off_the_kg_amu_lattice_round_trips():
    # 6.603554144849853e-21 kg is no double times the default amu, so a
    # probe mass stored in kg reloaded one ulp off; stored in amu it is
    # written and read back as is
    cfg = dataclasses.replace(
        cesium_tungsten_config(),
        particle_mass_amu=6.603554144849853e-21 / PhysicalConstants.amu,
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_failed_write_leaves_previous_file_intact(tmp_path):
    path = tmp_path / "geometry.cfg"
    save_config(cesium_tungsten_config(), path)
    before = path.read_bytes()
    # a lone surrogate has no encoding, so this write fails after the
    # target would have been opened and truncated
    with pytest.raises(UnicodeEncodeError):
        _write_atomic(path, "particle_mass_amu = 1.0\n\udc80\n")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["geometry.cfg"]


def test_cesium_tungsten_benchmark_values():
    cfg = cesium_tungsten_config()
    assert cfg.dist_left == pytest.approx(0.0572776152, abs=1e-9)
    assert cfg.dist_right == pytest.approx(cfg.dist_left * math.sqrt(2), rel=1e-15)
    assert frequency_report(cfg)["dist_left_rounded_mm_m"] == 0.057


def test_shipped_config_is_the_builtin_geometry():
    path = Path(__file__).resolve().parents[1] / "configs" / "cesium_tungsten.cfg"
    builtin = cesium_tungsten_config()
    assert path.read_text().endswith(serialize_config(builtin))
    assert load_config(path) == builtin


def test_direct_construction_validates():
    with pytest.raises(ConfigValidationError, match="hold_time"):
        ExperimentConfig(
            particle_mass_amu=133.0,
            arm_separation=0.1,
            mass_left=0.02,
            mass_right=0.04,
            dist_left=0.06,
            dist_right=0.09,
            hold_time=-1.0,
        )


FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "constants"
]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_infinite_field_rejected_naming_it(name):
    with pytest.raises(ConfigValidationError, match=f"^{name} must be finite$"):
        dataclasses.replace(cesium_tungsten_config(), **{name: math.inf})


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PhysicalConstants)])
def test_infinite_constant_rejected_naming_it(name):
    with pytest.raises(ConfigValidationError, match=f"constant {name} must be finite"):
        PhysicalConstants(**{name: math.inf})


# ------------------------------------------------------------------ codec

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
flat_keys = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True)
flat_values = st.one_of(
    finite_floats,
    st.integers(-(2**53) + 1, 2**53 - 1),
    st.booleans(),
    st.from_regex(r"[a-z_]+", fullmatch=True),
)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(flat_keys, flat_values, max_size=12))
def test_flat_document_round_trips(pairs):
    text_keys = {k for k, v in pairs.items() if isinstance(v, (bool, str))}
    back = _parse_flat_document(_render_flat(pairs.items()), "doc", text_keys)
    assert list(back) == list(pairs)
    for key, value in pairs.items():
        if isinstance(value, bool):
            assert back[key] == ("true" if value else "false")
        elif isinstance(value, float):
            assert back[key].hex() == value.hex()  # bit-exact, signed zero too
        else:
            assert back[key] == value


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(flat_keys, finite_floats, min_size=1, max_size=8),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.data(),
)
def test_non_finite_value_rejected_naming_its_key(pairs, bad, data):
    key = data.draw(st.sampled_from(sorted(pairs)))
    pairs[key] = bad
    with pytest.raises(ConfigParseError, match=re.escape(repr(key))):
        _parse_flat_document(_render_flat(pairs.items()), "doc")


def test_render_flat_skips_none_and_spells_bools():
    pairs = [("a", None), ("b", True), ("c", 2), ("d", np.float64(0.1))]
    assert _render_flat(pairs) == "b = true\nc = 2\nd = 0.1\n"


@st.composite
def experiment_configs(draw):
    positive = st.floats(1e-3, 1e3)
    constants = draw(
        st.just(PhysicalConstants())
        | st.builds(
            PhysicalConstants,
            G=st.floats(1e-12, 1e-9),
            hbar=st.floats(1e-35, 1e-33),
            amu=st.floats(1e-28, 1e-26),
        )
    )
    density = draw(st.floats(1e2, 1e5))
    arm = draw(st.floats(1e-3, 1.0))
    mass_left, mass_right = draw(positive), draw(positive)
    gap = st.floats(1e-3, 1.0)
    return ExperimentConfig(
        particle_mass_amu=draw(st.floats(1.0, 1e6)),
        arm_separation=arm,
        mass_left=mass_left,
        mass_right=mass_right,
        dist_left=arm / 2 + ball_radius(mass_left, density) + draw(gap),
        dist_right=arm / 2 + ball_radius(mass_right, density) + draw(gap),
        source_density=density,
        hold_time=draw(st.floats(0.0, 1e4)),
        constants=constants,
    )


@settings(max_examples=50, deadline=None)
@given(experiment_configs())
def test_serialize_parse_is_identity(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
