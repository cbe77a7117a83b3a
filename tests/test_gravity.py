"""Potential closed forms, frequencies, and nulling geometry."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gravfringe.config import G, HBAR, cesium_tungsten_config, with_updates
from gravfringe.errors import ConfigValidationError, DomainError
from gravfringe.gravity import (
    _Quadratic,
    _TwoBall,
    _classical_null,
    _quantum_null,
    frequency_report,
    omega_classical,
    omega_quantum,
)


@pytest.fixture(scope="module")
def cfg():
    return cesium_tungsten_config()


def two_ball_potential(x, *args):
    """V itself: the order-0 closed form."""
    return _TwoBall(*args).derivative(x, 0)


def si_args(config):
    """(g1, g2, d1, d2) of a configuration, with SI couplings G m M_i."""
    gm = G * config.particle_mass
    return (
        gm * config.mass_left,
        gm * config.mass_right,
        config.dist_left,
        config.dist_right,
    )


def test_potential_frozen_value(cfg):
    # Extended-precision reference for V(0), computed once at 50 digits
    # from the exact decimal inputs (mpmath):
    #   -G*m*(M1/d1 + M2/d2) with d1 = 0.05 + (3*0.02/(4*pi*19300))**(1/3) + 0.001
    assert two_ball_potential(0.0, *si_args(cfg)) == pytest.approx(
        -1.2425881724596989e-35, rel=1e-12
    )


def test_potential_matches_pointwise_sum(cfg):
    # independent evaluation straight from Newton's law at scattered points
    rng = np.random.default_rng(3)
    for x in rng.uniform(-0.04, 0.04, 20):
        expected = -G * cfg.particle_mass * (
            cfg.mass_left / (cfg.dist_left + x)
            + cfg.mass_right / (cfg.dist_right - x)
        )
        assert two_ball_potential(x, *si_args(cfg)) == pytest.approx(
            expected, rel=1e-15
        )


def test_derivatives_match_finite_differences(cfg):
    args = si_args(cfg)
    h = 1e-5
    for order in (1, 2, 3):
        for x in (-0.03, 0.0, 0.02):
            stencil = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
            vals = two_ball_potential(stencil, *args)
            if order == 1:
                fd = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
            elif order == 2:
                fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
                    12 * h * h
                )
            else:
                fd = (-vals[0] + 2 * vals[1] - 2 * vals[3] + vals[4]) / (-2 * h**3)
            assert _TwoBall(*args).derivative(x, order) == pytest.approx(
                fd, rel=1e-6
            )


def test_derivative_order_zero_is_potential(cfg):
    g1, g2, d1, d2 = args = si_args(cfg)
    value = _TwoBall(*args).derivative(0.01, 0)
    assert isinstance(value, float)
    assert value == -g1 / (d1 + 0.01) - g2 / (d2 - 0.01)  # bit for bit
    xs = np.linspace(-0.04, 0.04, 101)
    values = _TwoBall(*args).derivative(xs, 0)
    assert np.array_equal(values, -g1 / (d1 + xs) - g2 / (d2 - xs))


def test_domain_errors():
    with pytest.raises(DomainError):
        two_ball_potential(-1.0, 1.0, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        two_ball_potential(2.0, 1.0, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        _TwoBall(1.0, 1.0, 1.0, 2.0).derivative(5.0, 3)


def test_array_input(cfg):
    xs = np.linspace(-0.02, 0.02, 7)
    vals = two_ball_potential(xs, *si_args(cfg))
    assert vals.shape == xs.shape
    assert np.all(vals < 0)


def test_omega_classical_equals_force_route(cfg):
    # omega_C = dx * V'(0) / hbar: the formula and the derivative route
    # must agree (checked away from the null, where omega_C is O(0.1)
    # and a relative comparison means something)
    lopsided = with_updates(cfg, dist_right=0.09)
    direct = omega_classical(lopsided)
    via_force = (
        lopsided.arm_separation
        * _TwoBall(*si_args(lopsided)).derivative(0.0, 1)
        / HBAR
    )
    assert abs(direct) > 1e-3
    assert direct == pytest.approx(via_force, rel=1e-12)


def test_omega_quantum_equals_potential_difference(cfg):
    args = si_args(cfg)
    half = cfg.arm_separation / 2
    expected = (
        two_ball_potential(half, *args) - two_ball_potential(-half, *args)
    ) / HBAR
    assert omega_quantum(cfg) == pytest.approx(expected, rel=1e-12)


def test_headline_frequencies(cfg):
    # nulled geometry: omega_Q ~ 0.2204, omega_C numerically zero
    wq = omega_quantum(cfg)
    assert wq == pytest.approx(0.2204047502, rel=1e-8)
    assert abs(omega_classical(cfg)) < 1e-12 * wq


def test_small_separation_limit(cfg):
    # omega_Q / dx -> V'(0) / hbar as dx -> 0, away from the null
    # (at the nulled geometry both sides vanish and the ratio is noise)
    tiny = with_updates(cfg, arm_separation=1e-6, dist_right=0.09)
    ratio = omega_quantum(tiny) / (
        tiny.arm_separation
        * _TwoBall(*si_args(tiny)).derivative(0.0, 1)
        / HBAR
    )
    assert abs(ratio - 1.0) < 1e-8


def test_earth_limit_frequencies_agree():
    # a single distant dominant source: quantum and classical coincide
    # to |omega_Q/omega_C - 1| < 1e-7 once dx/d1 < 1e-4
    cfg = cesium_tungsten_config()
    earth = with_updates(
        cfg,
        mass_left=5.97e24,
        mass_right=1e-6,
        dist_left=6.5e6,
        dist_right=1.0,
        source_density=5500.0,
    )
    assert abs(omega_quantum(earth) / omega_classical(earth) - 1.0) < 1e-7


def test_null_classical_closed_form(cfg):
    d2 = frequency_report(cfg)["null_classical_dist_right_m"]
    assert d2 == pytest.approx(cfg.dist_left * math.sqrt(2), rel=1e-15)
    nulled = with_updates(cfg, dist_right=d2)
    assert abs(omega_classical(nulled)) < 1e-15 * abs(omega_quantum(nulled))


def test_null_quantum_distance(cfg):
    report = frequency_report(cfg)
    d2 = report["null_quantum_dist_right_m"]
    nulled = with_updates(cfg, dist_right=d2)
    assert abs(omega_quantum(nulled)) < 1e-12 * abs(omega_classical(nulled))
    # distinct from the classical null since M1 != M2
    assert d2 != pytest.approx(report["null_classical_dist_right_m"], rel=1e-6)


def _feasible(config, **updates):
    """``with_updates(config, **updates)``, or None if no ball fits."""
    try:
        return with_updates(config, **updates)
    except ConfigValidationError:
        return None


@settings(max_examples=50, deadline=None)
@given(
    mass_left=st.floats(0.005, 0.5),
    # away from 1: at M1 = M2 the two nulls coincide
    mass_ratio=st.floats(1.5, 8.0) | st.floats(1 / 8.0, 1 / 1.5),
    dist_left=st.floats(0.05, 0.5),
    dist_right=st.floats(0.05, 1.0),
    # dx/d1 bounded away from 2, where d1^2 - dx^2/4 cancels
    separation_share=st.floats(0.2, 1.2),
)
# the classical null, and so the rounded variant, puts the right ball on the arm
@example(
    mass_left=0.5, mass_ratio=0.25, dist_left=0.5, dist_right=0.6, separation_share=1.0
)
def test_frequency_report_nulls_zero_their_frequencies(
    cfg, mass_left, mass_ratio, dist_left, dist_right, separation_share
):
    config = _feasible(
        cfg,
        mass_left=mass_left,
        mass_right=mass_left * mass_ratio,
        dist_left=dist_left,
        dist_right=dist_right,
        arm_separation=separation_share * dist_left,
    )
    assume(config is not None)
    report = frequency_report(config)
    classical = report["null_classical_dist_right_m"]
    quantum = report["null_quantum_dist_right_m"]
    assert classical == pytest.approx(
        config.dist_left * math.sqrt(config.mass_right / config.mass_left), rel=1e-15
    )
    assert classical != pytest.approx(quantum, rel=1e-6)
    # the config's own omega_Q is the scale, so keep its dist_right off the null
    assume(abs(config.dist_right - quantum) > 0.1 * quantum)

    nulled = _feasible(config, dist_right=classical)
    if nulled is not None:
        assert abs(omega_classical(nulled)) <= 1e-12 * abs(omega_quantum(nulled))
    nulled = _feasible(config, dist_right=quantum)
    assume(nulled is not None)
    assert abs(omega_quantum(nulled)) <= 1e-12 * abs(omega_quantum(config))


def test_frequency_report_keys(cfg):
    report = frequency_report(cfg)
    assert report["omega_quantum_rad_s"] == pytest.approx(0.2204047502, rel=1e-8)
    assert report["omega_quantum_rounded_rad_s"] == pytest.approx(0.23338648, rel=1e-6)
    assert report["radius_left_m"] == pytest.approx(6.2776152e-3, rel=1e-6)
    assert report["radius_right_m"] == pytest.approx(7.9092996e-3, rel=1e-6)
    assert report["dist_left_rounded_mm_m"] == 0.057


# ------------------------------------------------- metamorphic properties


@st.composite
def two_balls(draw):
    """(potential, dx): a two-ball value whose centres clear arms at +-dx/2."""
    dx = draw(st.floats(0.01, 10.0))
    clearance = st.floats(1.01, 50.0)
    weight = st.floats(1e-3, 1e3)
    potential = _TwoBall(
        draw(weight),
        draw(weight),
        draw(clearance) * dx / 2.0,
        draw(clearance) * dx / 2.0,
        unit=draw(st.just(1.0) | st.floats(1e-3, 1e3)),
    )
    return potential, dx


def _mirrored(p):
    return _TwoBall(p.w2, p.w1, p.d2, p.d1, unit=p.unit)


@settings(max_examples=100, deadline=None)
@given(two_balls(), st.floats(1e-3, 1e3), st.floats(-0.99, 0.99), st.integers(0, 40))
def test_mirror_swap_negates_frequencies_and_reflects_derivatives(
    potential_dx, hbar, share, order
):
    # swapping the balls reflects the line: V_m(x) = V(-x), so V_m^(k)(x) =
    # (-1)^k V^(k)(-x), and both frequencies change sign, all exactly
    potential, dx = potential_dx
    mirror = _mirrored(potential)
    omega_c, omega_q = potential.frequencies(dx, hbar)
    assert mirror.frequencies(dx, hbar) == (-omega_c, -omega_q)
    x = share * (potential.d2 if share > 0 else potential.d1)
    sign = -1.0 if order % 2 else 1.0
    assert potential.derivative(x, order) == sign * mirror.derivative(-x, order)


@settings(max_examples=100, deadline=None)
@given(two_balls(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_frequencies_scale_inversely_with_lengths_and_with_the_weights(
    potential_dx, hbar, s
):
    # V(x) -> V(x/s)/s under lengths times s, and V -> s V under weights
    # times s; each ball's own term sets the size, since the two cancel on
    # nulled geometries
    p, dx = potential_dx
    base = np.array(p.frequencies(dx, hbar))
    size = np.abs(_TwoBall(p.w1, 0.0, p.d1, p.d2, p.unit).frequencies(dx, hbar)) + (
        np.abs(_TwoBall(0.0, p.w2, p.d1, p.d2, p.unit).frequencies(dx, hbar))
    )
    longer = _TwoBall(p.w1, p.w2, s * p.d1, s * p.d2, p.unit).frequencies(s * dx, hbar)
    heavier = _TwoBall(s * p.w1, s * p.w2, p.d1, p.d2, p.unit).frequencies(dx, hbar)
    assert np.all(np.abs(longer - base / s) <= 1e-13 * size / s)
    assert np.all(np.abs(heavier - base * s) <= 1e-13 * size * s)


@settings(max_examples=100, deadline=None)
@given(
    mass_left=st.floats(0.005, 0.5),
    mass_ratio=st.floats(1 / 8.0, 8.0),
    dist_left=st.floats(0.05, 0.5),
    dist_right=st.floats(0.05, 1.0),
    separation_share=st.floats(0.2, 1.2),
    s=st.floats(1e-3, 1e3),
)
def test_null_distances_scale_with_the_lengths(
    cfg, mass_left, mass_ratio, dist_left, dist_right, separation_share, s
):
    # every length times s, the ball radii too (density over s^3, masses
    # kept): both nulls are lengths, so they scale by s
    config = _feasible(
        cfg,
        mass_left=mass_left,
        mass_right=mass_left * mass_ratio,
        dist_left=dist_left,
        dist_right=dist_right,
        arm_separation=separation_share * dist_left,
    )
    assume(config is not None)
    scaled = _feasible(
        config,
        dist_left=s * config.dist_left,
        dist_right=s * config.dist_right,
        arm_separation=s * config.arm_separation,
        source_density=config.source_density / s**3,
    )
    assume(scaled is not None)
    classical = _classical_null(config.dist_left, config.mass_left, config.mass_right)
    assert _classical_null(
        scaled.dist_left, scaled.mass_left, scaled.mass_right
    ) == pytest.approx(s * classical, rel=1e-13)
    assert _quantum_null(scaled) == pytest.approx(s * _quantum_null(config), rel=1e-13)


def test_quadratic_frequencies_are_the_force_and_the_potential_difference():
    p, dx, hbar = _Quadratic(0.7, -0.3), 2.5, 0.9
    omega_c, omega_q = p.frequencies(dx, hbar)
    assert omega_c == omega_q == dx * p.derivative(0.0, 1) / hbar
    difference = (p.derivative(dx / 2.0, 0) - p.derivative(-dx / 2.0, 0)) / hbar
    assert omega_q == pytest.approx(difference, rel=1e-15)
