"""Scaled-oracle configuration, parsing, and validation runs.

The two-ball validation here runs at 256^2 so the file stays in the
seconds range; the stock 512^2 geometry is exercised end to end in the
acceptance suite.
"""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravfringe.errors import ConfigParseError, ConfigValidationError, DomainError
from gravfringe.gravity import _TwoBall
from gravfringe.phasespace import BracketOrder, evolve_wigner, weyl_density_matrix
from gravfringe.oracle import (
    _phase_slope,
    OracleConfig,
    default_scaled_config,
    load_oracle_config,
    parse_oracle_config,
    run_validation,
    serialize_oracle_config,
    write_report,
)

TWO_BALL_DOC = """
# scaled two-ball validation geometry
potential = two_ball
arm_separation = 8.0
packet_width = 0.25
coupling_left = 705.0
coupling_right = 1410.0
dist_left = 20.0
dist_right = 28.284271247461902
q_lo = -8.5
q_hi = 8.5
p_lo = -40.0
p_hi = 40.0
"""

QUADRATIC_DOC = """
potential = quadratic   # classical and quantum transport must coincide
arm_separation = 8.0
packet_width = 0.25
quad_slope = 0.0375
quad_curvature = 0.02
n_q = 128
n_p = 128
n_snapshots = 7
hold_time = 3.0
q_lo = -8.5
q_hi = 8.5
p_lo = -12.0
p_hi = 12.0
"""


def quadratic_config():
    return parse_oracle_config(QUADRATIC_DOC)


# ----------------------------------------------------------------- parsing


def test_parse_two_ball_document():
    cfg = parse_oracle_config(TWO_BALL_DOC)
    assert cfg.potential == "two_ball"
    assert cfg.coupling_right == 1410.0
    assert cfg.dist_right == pytest.approx(20.0 * math.sqrt(2.0))
    assert cfg.quad_slope is None
    # unset keys take their dataclass defaults
    assert cfg.n_q == 512 and cfg.n_max == 3 and cfg.hbar == 1.0


def test_parse_quadratic_document():
    cfg = quadratic_config()
    assert cfg.potential == "quadratic"
    assert cfg.quad_curvature == 0.02
    assert cfg.coupling_left is None
    assert cfg.n_q == 128 and cfg.n_snapshots == 7


def test_parse_missing_potential():
    doc = TWO_BALL_DOC.replace("potential = two_ball", "")
    with pytest.raises(ConfigParseError, match="potential"):
        parse_oracle_config(doc)


def test_parse_duplicate_potential():
    doc = TWO_BALL_DOC + "potential = quadratic\n"
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_oracle_config(doc)


def test_parse_unknown_key():
    with pytest.raises(ConfigParseError, match="wobble"):
        parse_oracle_config(TWO_BALL_DOC + "wobble = 3\n")


def test_parse_missing_required_scalar():
    doc = TWO_BALL_DOC.replace("arm_separation = 8.0", "")
    with pytest.raises(ConfigParseError, match="arm_separation"):
        parse_oracle_config(doc)


def test_parse_fractional_grid_size_rejected():
    doc = TWO_BALL_DOC + "n_q = 512.5\n"
    with pytest.raises(ConfigParseError, match="integer"):
        parse_oracle_config(doc)


def test_parse_whole_float_grid_size_coerced():
    cfg = parse_oracle_config(TWO_BALL_DOC + "n_q = 256.0\n")
    assert cfg.n_q == 256 and isinstance(cfg.n_q, int)


def test_unknown_potential_kind_rejected():
    doc = TWO_BALL_DOC.replace("potential = two_ball", "potential = cubic")
    with pytest.raises(ConfigValidationError, match="cubic"):
        parse_oracle_config(doc)


def test_key_for_wrong_kind_rejected():
    with pytest.raises(ConfigValidationError, match="quad_slope"):
        parse_oracle_config(TWO_BALL_DOC + "quad_slope = 0.1\n")


def test_missing_kind_requirement_rejected():
    doc = TWO_BALL_DOC.replace("dist_right = 28.284271247461902", "")
    with pytest.raises(ConfigValidationError, match="dist_right"):
        parse_oracle_config(doc)


def test_shipped_config_is_the_stock_geometry():
    path = Path(__file__).resolve().parents[1] / "configs" / "oracle_two_ball.cfg"
    stock = default_scaled_config()
    lines = path.read_text().splitlines(keepends=True)
    assert "".join(l for l in lines if not l.startswith("#")) == (
        serialize_oracle_config(stock)
    )
    assert load_oracle_config(path) == stock


def test_span_defaults_fill_in():
    cfg = OracleConfig(
        potential="quadratic",
        arm_separation=8.0,
        packet_width=0.25,
        quad_slope=0.01,
    )
    assert cfg.q_lo == -12.0 and cfg.q_hi == 12.0  # 1.5 separations
    assert cfg.p_lo == -32.0 and cfg.p_hi == 32.0  # 8 hbar / width
    # default grid resolves the fringe with >= 4 samples per oscillation
    dp = (cfg.p_hi - cfg.p_lo) / cfg.n_p
    assert dp <= math.pi * cfg.hbar / (2.0 * cfg.arm_separation)


def test_coarse_momentum_grid_rejected():
    with pytest.raises(ConfigValidationError, match="four samples"):
        OracleConfig(
            potential="quadratic",
            arm_separation=8.0,
            packet_width=0.25,
            quad_slope=0.01,
            n_p=128,
            p_lo=-32.0,
            p_hi=32.0,
        )


def test_too_few_snapshots_rejected():
    with pytest.raises(ConfigValidationError, match="snapshots"):
        dataclasses.replace(default_scaled_config(), n_snapshots=2)


def test_sparse_snapshots_that_alias_the_phase_rejected():
    # omega_Q ~ 0.3 over 20 time units between snapshots turns the phase
    # by ~6 rad; np.unwrap would fold it into a wrong slope
    with pytest.raises(ConfigValidationError, match="hold_time.*n_snapshots"):
        dataclasses.replace(default_scaled_config(), hold_time=40.0, n_snapshots=3)


def test_infinite_hold_time_named_as_such():
    # the unwrapping check would read inf as snapshots too sparse
    with pytest.raises(ConfigValidationError, match="^hold_time must be finite$"):
        dataclasses.replace(default_scaled_config(), hold_time=math.inf)


def test_serialize_parse_round_trip(tmp_path):
    cfg = default_scaled_config()
    path = tmp_path / "oracle.cfg"
    path.write_text(serialize_oracle_config(cfg))
    assert load_oracle_config(path) == cfg
    # quadratic configs round-trip too, including the filled curvature
    quad = quadratic_config()
    assert parse_oracle_config(serialize_oracle_config(quad)) == quad


@st.composite
def oracle_configs(draw):
    kind = draw(st.sampled_from(["two_ball", "quadratic"]))
    arm = draw(st.floats(0.5, 10.0))
    hbar = draw(st.floats(0.1, 10.0))
    n_p = draw(st.integers(8, 1024))
    # explicit momentum span inside the four-samples-per-fringe limit
    half_p = draw(st.floats(0.05, 1.0)) * n_p * math.pi * hbar / (4.0 * arm)
    if kind == "two_ball":
        gap = st.floats(0.5, 50.0)
        field = {
            "coupling_left": draw(st.floats(1e-3, 1e3)),
            "coupling_right": draw(st.floats(1e-3, 1e3)),
            "dist_left": arm / 2 + draw(gap),
            "dist_right": arm / 2 + draw(gap),
        }
    else:
        field = {
            "quad_slope": draw(st.floats(-10.0, 10.0)),
            "quad_curvature": draw(st.none() | st.floats(-10.0, 10.0)),
        }
    q_span = draw(st.none() | st.tuples(st.floats(-50.0, -1.0), st.floats(1.0, 50.0)))
    probe = OracleConfig(
        potential=kind,
        arm_separation=arm,
        packet_width=draw(st.floats(0.01, 2.0)),
        hbar=hbar,
        mass=draw(st.floats(0.1, 10.0)),
        n_q=draw(st.integers(8, 1024)),
        n_p=n_p,
        n_max=draw(st.integers(0, 6)),
        n_snapshots=draw(st.integers(3, 30)),
        hold_time=1e-9,
        q_lo=None if q_span is None else q_span[0],
        q_hi=None if q_span is None else q_span[1],
        p_lo=-half_p,
        p_hi=half_p,
        **field,
    )
    # a hold time whose snapshots stay inside the phase-unwrapping limit
    fastest = max(map(abs, probe.predicted_frequencies()))
    limit = 1e4
    if fastest > 0.0:
        limit = min(limit, math.pi / 2 * (probe.n_snapshots - 1) / fastest)
    return dataclasses.replace(probe, hold_time=draw(st.floats(0.01, 0.99)) * limit)


@settings(max_examples=50, deadline=None)
@given(oracle_configs())
def test_serialize_parse_is_identity(cfg):
    assert parse_oracle_config(serialize_oracle_config(cfg)) == cfg


# ---------------------------------------------------------------- defaults


def test_default_geometry_predictions():
    cfg = default_scaled_config()
    omega_c, omega_q = cfg.predicted_frequencies()
    expected = 8.0 * (705.0 / (400.0 - 16.0) - 1410.0 / (800.0 - 16.0))
    assert omega_q == pytest.approx(expected, rel=1e-12)
    # couplings 2:1 with distances sqrt(2):1 null the midpoint force
    assert abs(omega_c) < 1e-12


def test_quadratic_predictions_coincide():
    cfg = quadratic_config()
    omega_c, omega_q = cfg.predicted_frequencies()
    assert omega_c == omega_q == pytest.approx(0.0375 * 8.0)


def potential_routes(cfg):
    """(dx V'(0) / hbar, [V(a) - V(-a)] / hbar) from the potential itself.

    The routes the reduced closed forms are derived from, kept here as
    their reference: the midpoint force and the potential difference
    between the arms at +-a, a = dx/2.
    """
    a = cfg.arm_separation / 2.0
    args = (cfg.coupling_left, cfg.coupling_right, cfg.dist_left, cfg.dist_right)
    potential = _TwoBall(*args)
    slope = potential.derivative(0.0, 1)
    diff = potential.derivative(a, 0) - potential.derivative(-a, 0)
    return cfg.arm_separation * slope / cfg.hbar, diff / cfg.hbar


@settings(max_examples=100, deadline=None)
@given(oracle_configs().filter(lambda cfg: cfg.potential == "two_ball"))
def test_predicted_frequencies_match_the_potential_routes(cfg):
    # relative to the size of each ball's term, since a nulled geometry
    # cancels them to rounding
    g1, g2, d1, d2 = (cfg.coupling_left, cfg.coupling_right,
                      cfg.dist_left, cfg.dist_right)
    scale = cfg.arm_separation / cfg.hbar
    quarter = cfg.arm_separation**2 / 4.0
    sizes = (
        scale * (g1 / d1**2 + g2 / d2**2),
        scale * (g1 / (d1**2 - quarter) + g2 / (d2**2 - quarter)),
    )
    for got, want, size in zip(cfg.predicted_frequencies(), potential_routes(cfg), sizes):
        assert abs(got - want) <= 1e-12 * size


def nulled_oracle_config(seed):
    """The benchmark's seeded nulled geometry: d2 = d1 sqrt(g2/g1)."""
    ratio = random.Random(seed).uniform(1.8, 2.2)
    return dataclasses.replace(
        default_scaled_config(),
        coupling_right=705.0 * ratio,
        dist_right=20.0 * math.sqrt(ratio),
        hold_time=0.5,
        n_snapshots=5,
    )


@pytest.mark.parametrize("seed", range(1, 21))
def test_predicted_omega_quantum_is_exact_to_rounding(seed):
    cfg = nulled_oracle_config(seed)
    dx, g1, g2, d1, d2 = map(Fraction, (
        cfg.arm_separation, cfg.coupling_left, cfg.coupling_right,
        cfg.dist_left, cfg.dist_right))
    quarter = dx**2 / 4
    exact = dx / Fraction(cfg.hbar) * (g1 / (d1**2 - quarter) - g2 / (d2**2 - quarter))
    got = cfg.predicted_frequencies()[1]
    assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * abs(exact)


# -------------------------------------------------------------- validation


def test_quadratic_run_transport_laws_agree_exactly():
    report = run_validation(quadratic_config(), tolerance=0.05)
    assert report.passed
    # zero cubic-and-higher derivatives: the corrected tangent is the
    # classical tangent bitwise, so both laws miss by the same amount
    assert report.omega_moyal_measured == report.omega_poisson_measured
    assert report.moyal_abs_error == report.poisson_abs_error
    assert report.omega_moyal_measured == pytest.approx(0.3, rel=1e-6)


def small_two_ball_config(**changes):
    """The stock nulled geometry on a 256^2 grid with a shorter hold."""
    return dataclasses.replace(
        default_scaled_config(),
        n_q=256,
        n_p=256,
        p_lo=-24.0,
        p_hi=24.0,
        hold_time=2.5,
        n_snapshots=6,
        **changes,
    )


def test_two_ball_run_recovers_both_frequencies():
    report = run_validation(small_two_ball_config(), tolerance=0.05)
    assert report.passed
    # n_max = 3 leaves a truncation error of 1.2e-4 omega_Q
    assert 0.0 < report.moyal_abs_error < 5e-4 * report.omega_quantum_predicted
    assert abs(report.omega_poisson_measured) < 1e-8
    assert report.coherence_initial == pytest.approx(0.5, abs=1e-6)
    assert report.coherence_final == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("n_max", range(5))
def test_held_slope_is_the_taylor_partial_sum(n_max):
    # held packets read Omega at q = 0, k = dx/hbar, which is the partial
    # sum S_n = (2/hbar) sum_{j<=n} V^(2j+1)(0) a^(2j+1) / (2j+1)!, so the
    # report's error is the measured truncation error |S_n - omega_Q|
    cfg = small_two_ball_config(n_max=n_max)
    a = cfg.arm_separation / 2.0
    args = (cfg.coupling_left, cfg.coupling_right, cfg.dist_left, cfg.dist_right)
    partial = 2.0 / cfg.hbar * sum(
        _TwoBall(*args).derivative(0.0, 2 * j + 1)
        * a ** (2 * j + 1)
        / math.factorial(2 * j + 1)
        for j in range(n_max + 1)
    )
    report = run_validation(cfg)
    omega_q = report.omega_quantum_predicted
    if n_max == 0:
        # S_0 = omega_C is nulled to rounding, so compare absolutely
        assert abs(report.omega_moyal_measured - partial) <= 1e-12 * omega_q
    else:
        assert report.omega_moyal_measured == pytest.approx(partial, rel=1e-12)
    assert report.moyal_abs_error == pytest.approx(
        abs(partial - omega_q), rel=0.0, abs=1e-12 * omega_q
    )


# ------------------------------------------------------- held row readout


def full_grid_phase_slope(cfg, h, w0, order):
    """``_phase_slope``'s three numbers by whole-grid evolution.

    Every snapshot evolves the whole grid and reads the kernel through
    the public Weyl transform; then the same unwrap and phase fit.
    """
    a = cfg.arm_separation / 2.0
    times = np.linspace(0.0, cfg.hold_time, cfg.n_snapshots)
    kernels = [
        weyl_density_matrix(evolve_wigner(h, w0, order, float(t), hold_packets=True), -a, a)
        for t in times
    ]
    magnitudes = cfg.packet_width * math.sqrt(2.0 * math.pi) * np.abs(kernels)
    slope = float(np.polyfit(times, np.unwrap(np.angle(kernels)), 1)[0])
    return slope, float(magnitudes[0]), float(magnitudes[-1])


@st.composite
def valid_oracle_runs(draw):
    """Configs whose runs pass the initial-state and field checks.

    The stock packets (dx = 8, sigma = 0.25) on varied grids: odd and
    even n_q, a symmetric q span (0 is a node when n_q is even) or a
    shifted one (0 is no node), n_p = 512 or a smaller grid whose p span
    still holds four samples per fringe.
    """
    n_p = draw(st.sampled_from([512]) | st.integers(128, 256))
    half_p = 12.0 + draw(st.floats(0.0, 1.0)) * (n_p * math.pi / 32.0 - 12.0)
    shift = draw(st.sampled_from([0.0]) | st.floats(-0.5, 0.5))
    if draw(st.booleans()):
        g1 = draw(st.floats(100.0, 1000.0))
        field = {"coupling_left": g1, "coupling_right": draw(st.floats(1.5, 2.5)) * g1,
                 "dist_left": 20.0, "dist_right": draw(st.floats(25.0, 32.0))}
    else:
        field = {"quad_slope": draw(st.floats(-0.1, 0.1)),
                 "quad_curvature": draw(st.floats(-0.05, 0.05))}
    probe = OracleConfig(
        potential="two_ball" if "dist_left" in field else "quadratic",
        arm_separation=8.0,
        packet_width=0.25,
        n_q=draw(st.integers(120, 160)),
        n_p=n_p,
        n_max=draw(st.integers(0, 6)),
        n_snapshots=draw(st.integers(3, 8)),
        hold_time=1e-9,
        q_lo=-8.5 + shift,
        q_hi=8.5 + shift,
        p_lo=-half_p,
        p_hi=half_p,
        **field,
    )
    fastest = max(map(abs, probe.predicted_frequencies())) or 1.0
    limit = min(20.0, math.pi / 2 * (probe.n_snapshots - 1) / fastest)
    return dataclasses.replace(probe, hold_time=draw(st.floats(0.01, 0.99)) * limit)


@settings(max_examples=40, deadline=None)
@given(valid_oracle_runs())
def test_row_readout_matches_the_full_grid_route(cfg):
    # held rows evolve independently, so propagating only the rows the
    # kernel reads must give the whole grid's numbers: bit for bit on the
    # 512-point p axes of the stock and benchmark runs, and to rounding on
    # any grid (a vectorised loop may round a one-row tail differently);
    # a nulled slope is judged against the larger predicted frequency
    w0 = cfg.initial_state()
    h = cfg.field_on(w0.q_axis)
    for order in (BracketOrder(cfg.n_max), BracketOrder(0)):
        rows = _phase_slope(cfg, h, w0, order)
        grid = full_grid_phase_slope(cfg, h, w0, order)
        if cfg.n_p == 512:
            assert rows == grid
        scales = (max(map(abs, cfg.predicted_frequencies())) or 1.0, *grid[1:])
        for got, want, scale in zip(rows, grid, scales):
            assert abs(got - want) <= 1e-14 * scale


def test_held_run_peaks_below_three_grids():
    # each snapshot propagates the one row the kernel reads, so no
    # snapshot allocates a grid; the peak is the initial state's build
    cfg = nulled_oracle_config(12)
    tracemalloc.start()
    try:
        run_validation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * cfg.n_q * cfg.n_p * 8


def test_unreachable_tolerance_fails_honestly():
    report = run_validation(quadratic_config(), tolerance=1e-18)
    assert not report.passed
    assert not report.moyal_pass


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigValidationError, match="tolerance"):
        run_validation(quadratic_config(), tolerance=0.0)


@pytest.mark.parametrize("tolerance", [math.inf, math.nan])
def test_non_finite_tolerance_rejected(tolerance):
    # an infinite tolerance would pass every validation
    with pytest.raises(ConfigValidationError, match="tolerance"):
        run_validation(quadratic_config(), tolerance=tolerance)


def test_grid_reaching_ball_centre_rejected():
    cfg = dataclasses.replace(
        default_scaled_config(), dist_left=8.0, coupling_left=1.0, coupling_right=2.0
    )
    with pytest.raises(DomainError):
        run_validation(cfg)


def test_report_file_format(tmp_path):
    report = run_validation(quadratic_config(), tolerance=0.05)
    path = tmp_path / "oracle_report.txt"
    write_report(report, path)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "potential = quadratic"
    assert lines[-1] == "passed = true"
    keys = {line.split(" = ")[0] for line in lines}
    for needed in (
        "omega_quantum_predicted",
        "omega_moyal_measured",
        "omega_poisson_measured",
        "moyal_abs_error",
        "poisson_pass",
        "moyal_pass",
        "tolerance",
    ):
        assert needed in keys
    # the report carries the measured truncation error, not an estimate
    assert "truncation_tail" not in keys
    # held propagation is exact: the report carries no step size
    assert "dt" not in keys
    assert "steps_per_segment" not in keys
    # every value renders on a single key = value line
    assert all(" = " in line for line in lines)
