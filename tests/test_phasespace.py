"""Wigner construction, brackets, evolution, and transforms.

Module-level physics tests run on reduced grids (256^2 and below) so
the whole file stays fast; the full-resolution validation lives in the
acceptance suite.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravfringe.errors import ConfigValidationError, DomainError, GridError, NumericalError
from gravfringe.gravity import _TwoBall
from gravfringe.phasespace import (
    BracketOrder,
    HamiltonianField,
    WignerGrid,
    _generator,
    _held_kernel_series,
    evolve_wigner,
    moyal_bracket,
    poisson_bracket,
    potential_bracket,
    potential_commutator_term,
    weyl_density_matrix,
    wigner_from_two_packets,
)

# scaled two-arm geometry used throughout: orthogonal packets, fringes
# resolvable on modest grids
DX = 8.0
SIGMA = 0.25
HBAR = 1.0


def small_state(coherence, n=256, span=8.5):
    return wigner_from_two_packets(
        DX,
        SIGMA,
        coherence,
        hbar=HBAR,
        n_q=n,
        n_p=n,
        q_span=(-span, span),
        p_span=(-32.0, 32.0),
    )


# 64^2: the smallest grid that still resolves the fringe
TINY_GRID = {"n_q": 64, "n_p": 64, "q_span": (-8.5, 8.5), "p_span": (-12.0, 12.0)}


def tiny_state():
    return wigner_from_two_packets(DX, SIGMA, 0.4, **TINY_GRID)


def two_ball_field(q_axis, g1=705.0, d1=20.0, max_order=7):
    # couplings in the exact 2:1 ratio with distances in sqrt(2) ratio:
    # the classical midpoint force cancels identically
    return HamiltonianField.from_two_ball(
        q_axis, 1.0, g1, 2.0 * g1, d1, d1 * math.sqrt(2.0), max_order=max_order
    )


# dx*(g1/(d1^2-a^2) - g2/(d2^2-a^2)) with a = dx/2: about 0.2997
OMEGA_Q_SCALED = DX * (705.0 / (20.0**2 - DX**2 / 4) - 1410.0 / (2 * 20.0**2 - DX**2 / 4))


def kernel_coherence(w):
    """The oracle's readout: rho(-dx/2, +dx/2) * sqrt(2 pi sigma^2) = c."""
    return weyl_density_matrix(w, -DX / 2, DX / 2) * math.sqrt(2 * math.pi * SIGMA**2)


# ------------------------------------------------------------ two packets


def test_incoherent_state_is_nonnegative_and_normalised():
    w = small_state(0.0)
    assert w.norm() == pytest.approx(1.0, abs=1e-9)
    assert w.values.min() >= -1e-9


def test_coherent_state_goes_negative():
    w = small_state(0.5)
    assert w.norm() == pytest.approx(1.0, abs=1e-9)
    assert w.values.min() < -0.1 / (math.pi * HBAR)


def test_closed_form_matches_independent_expression():
    # reimplementation of the closed form, point by point
    c = 0.3 + 0.15j
    w = small_state(c)
    rng = np.random.default_rng(5)
    iq = rng.integers(0, w.q_axis.size, 30)
    ip = rng.integers(0, w.p_axis.size, 30)
    a = DX / 2
    for i, j in zip(iq, ip):
        q, p = w.q_axis[i], w.p_axis[j]
        env = math.exp(-2 * SIGMA**2 * p**2 / HBAR**2)
        lobes = 0.5 * (
            math.exp(-((q + a) ** 2) / (2 * SIGMA**2))
            + math.exp(-((q - a) ** 2) / (2 * SIGMA**2))
        )
        ridge = 2 * math.exp(-(q**2) / (2 * SIGMA**2)) * (
            c * np.exp(1j * p * DX / HBAR)
        ).real
        expected = (lobes + ridge) * env / (math.pi * HBAR)
        assert w.values[i, j] == pytest.approx(expected, abs=1e-15)


def test_overlapping_packets_rejected():
    with pytest.raises(ConfigValidationError, match="arm overlap"):
        wigner_from_two_packets(1.0, 0.25, 0.5, **TINY_GRID)  # overlap e^-2


def test_too_small_span_rejected():
    with pytest.raises(GridError, match="span"):
        wigner_from_two_packets(DX, SIGMA, 0.5, **{**TINY_GRID, "q_span": (-6.0, 6.0)})
    # [-6, 6] fails the cover-[-dx, dx] rule for dx = 8


def test_coherence_magnitude_capped():
    with pytest.raises(ValueError, match="coherence"):
        wigner_from_two_packets(DX, SIGMA, 0.7, **TINY_GRID)


def test_aliasing_momentum_grid_rejected():
    # dp = 0.5 > pi/8: the fringe e^{ip dx} would fold onto a wrong
    # wavevector and every later phase readout would silently lie
    with pytest.raises(GridError, match="fringe"):
        wigner_from_two_packets(
            DX, SIGMA, 0.5, n_q=128, n_p=128, q_span=(-8.5, 8.5), p_span=(-32, 32)
        )


# -------------------------------------------------------------- brackets


def test_constant_field_has_zero_bracket():
    w = small_state(0.25)
    flat = WignerGrid(w.q_axis, w.p_axis, np.full_like(w.values, 0.3), hbar=HBAR)
    h = two_ball_field(w.q_axis)
    assert np.abs(poisson_bracket(h, flat)).max() == 0.0


def test_free_gaussian_bracket_matches_analytic():
    # V = 0: tangent is -(p/m) dW/dq, analytic for a Gaussian blob
    n = 128
    q = -6.0 + 12.0 * np.arange(n) / n
    p = -6.0 + 12.0 * np.arange(n) / n
    qq, pp = q[:, None], p[None, :]
    blob = np.exp(-(qq**2) / 0.5 - (pp - 1.0) ** 2 / 0.8)
    w = WignerGrid(q, p, blob, hbar=1.0)
    h = HamiltonianField.from_quadratic(q, mass=2.0)
    expected = -(pp / 2.0) * blob * (-2.0 * qq / 0.5)
    got = poisson_bracket(h, w)
    assert np.allclose(got, expected, atol=1e-10 * np.abs(expected).max())


def test_bracket_conserves_total_probability():
    w = small_state(0.4 + 0.2j)
    h = two_ball_field(w.q_axis)
    for tangent in (
        poisson_bracket(h, w),
        moyal_bracket(h, w, BracketOrder(3)),
        moyal_bracket(h, w, BracketOrder(2), include_kinetic=False),
    ):
        assert abs(tangent.sum() * w.dq * w.dp) < 1e-12


def test_moyal_zero_order_is_poisson_bitwise():
    w = small_state(0.3)
    h = two_ball_field(w.q_axis)
    assert np.array_equal(moyal_bracket(h, w, BracketOrder(0)), poisson_bracket(h, w))


def test_quadratic_potential_collapses_to_classical():
    w = small_state(0.5)
    h = HamiltonianField.from_quadratic(w.q_axis, 1.0, curvature=0.7, slope=-0.3)
    for n_max in (1, 2, 3):
        assert np.array_equal(
            moyal_bracket(h, w, BracketOrder(n_max)), poisson_bracket(h, w)
        )
        # every correction adds exact zeros to the generator
        assert np.array_equal(_generator(h, w, n_max), _generator(h, w, 0))


def test_correction_terms_decay_geometrically():
    w = small_state(0.5)
    h = two_ball_field(w.q_axis)
    brackets = [moyal_bracket(h, w, n, include_kinetic=False) for n in range(4)]
    terms = [upper - lower for lower, upper in zip(brackets, brackets[1:])]
    norms = [float(np.abs(t).sum()) for t in terms]
    assert norms[1] < 0.5 * norms[0]
    assert norms[2] < 0.5 * norms[1]
    # the last kept correction against the whole order-3 tangent
    assert 0.0 < norms[2] / np.abs(brackets[3]).sum() < 0.05


def test_insufficient_derivative_order():
    w = small_state(0.3)
    h = two_ball_field(w.q_axis, max_order=3)
    moyal_bracket(h, w, BracketOrder(1))  # needs V^(3): fine
    with pytest.raises(GridError, match=r"V\^\(5\)"):
        moyal_bracket(h, w, BracketOrder(2))


def test_misaligned_grids_rejected():
    w = small_state(0.3)
    other_axis = w.q_axis + 0.01
    h = two_ball_field(other_axis)
    with pytest.raises(GridError, match="axes"):
        poisson_bracket(h, w)


def test_field_inside_ball_centres():
    q = -12.0 + 24.0 * np.arange(64) / 64
    with pytest.raises(DomainError):
        HamiltonianField.from_two_ball(q, 1.0, 1.0, 2.0, 5.0, 40.0)  # d1 < span


def test_field_rows_are_the_closed_forms_bit_for_bit():
    # criterion 8's bitwise quadratic collapse needs exact zeros above V''
    q = -8.5 + 17.0 * np.arange(64) / 64
    args = (705.0, 1410.0, 20.0, 20.0 * math.sqrt(2.0))
    h = HamiltonianField.from_two_ball(q, 1.0, *args, max_order=9)
    for k in range(1, 10):
        assert h.derivative(k).tobytes() == _TwoBall(*args).derivative(q, k).tobytes()
    for max_order in (1, 2, 7):
        h = HamiltonianField.from_quadratic(q, 1.0, 0.7, -0.3, max_order=max_order)
        expected = np.zeros((max_order, q.size))
        expected[0] = 2.0 * 0.7 * q + -0.3
        expected[1:2] = 2.0 * 0.7
        assert h.derivatives.tobytes() == expected.tobytes()


def test_bracket_order_validation():
    with pytest.raises(ValueError):
        BracketOrder(-1)
    with pytest.raises(ValueError):
        BracketOrder(1.5)
    assert BracketOrder(2).highest_derivative == 5


# -------------------------------------------------------------- evolution


def test_free_streaming_matches_analytic_shear():
    n = 128
    q = -8.0 + 16.0 * np.arange(n) / n
    p = -4.0 + 8.0 * np.arange(n) / n
    qq, pp = q[:, None], p[None, :]
    mass, t = 2.0, 0.8

    def blob(qv, pv):
        return np.exp(-(qv**2) / 0.6 - (pv**2) / 0.9)

    w0 = WignerGrid(q, p, blob(qq, pp), hbar=1.0)
    h = HamiltonianField.from_quadratic(q, mass=mass)
    out = evolve_wigner(h, w0, BracketOrder(0), t, dt=0.01)
    expected = blob(qq - pp * t / mass, pp)
    # the kinetic shear is exact and V = 0 makes the potential steps the
    # identity, so only rounding separates the grid from the closed form
    assert np.allclose(out.values, expected, atol=1e-12)
    assert out.time == pytest.approx(t)


def test_held_quadratic_order_zero_is_the_analytic_kick():
    # held classical transport dW/dt = V'(q) dW/dp shifts every row in p:
    # W(q, p, t) = W0(q, p + V'(q) t)
    n = 128
    q = -6.0 + 12.0 * np.arange(n) / n
    p = -8.0 + 16.0 * np.arange(n) / n
    qq, pp = q[:, None], p[None, :]
    curvature, slope, t = 0.1, 0.3, 1.0

    def blob(qv, pv):
        return np.exp(-(qv**2) / 0.5 - (pv - 0.5) ** 2 / 0.8)

    w0 = WignerGrid(q, p, blob(qq, pp), hbar=1.0)
    h = HamiltonianField.from_quadratic(q, 1.0, curvature=curvature, slope=slope)
    out = evolve_wigner(h, w0, BracketOrder(0), t, hold_packets=True)
    force = 2.0 * curvature * qq + slope
    assert np.allclose(out.values, blob(qq, pp + force * t), rtol=0.0, atol=1e-10)


def test_held_propagation_composes_exactly():
    w = wigner_from_two_packets(
        DX, SIGMA, 0.4 + 0.1j, n_q=128, n_p=128, q_span=(-8.5, 8.5), p_span=(-24, 24)
    )
    h = two_ball_field(w.q_axis)
    t1, t2 = 0.7, 1.9
    stepped = evolve_wigner(
        h,
        evolve_wigner(h, w, BracketOrder(3), t1, hold_packets=True),
        BracketOrder(3),
        t2,
        hold_packets=True,
    )
    direct = evolve_wigner(h, w, BracketOrder(3), t1 + t2, hold_packets=True)
    assert np.allclose(stepped.values, direct.values, rtol=0.0, atol=1e-12)
    assert stepped.time == pytest.approx(direct.time)


def test_step_size_belongs_to_streaming_runs_only():
    w = tiny_state()
    h = two_ball_field(w.q_axis)
    with pytest.raises(ValueError, match="dt"):
        evolve_wigner(h, w, BracketOrder(1), 1.0, dt=0.1, hold_packets=True)
    with pytest.raises(ValueError, match="dt"):
        evolve_wigner(h, w, BracketOrder(1), 1.0)


def test_held_two_ball_coherence_rotates_at_quantum_frequency():
    w = small_state(0.5)
    h = two_ball_field(w.q_axis)
    hold = 3.0
    n_snap = 7
    ts = np.linspace(0.0, hold, n_snap)
    phases = []
    current = w
    for k in range(1, n_snap):
        current = evolve_wigner(
            h, current, BracketOrder(3), float(ts[k] - ts[k - 1]), hold_packets=True
        )
        phases.append(np.angle(kernel_coherence(current)))
    slope = np.polyfit(ts[1:], np.unwrap(phases), 1)[0]
    assert slope == pytest.approx(OMEGA_Q_SCALED, rel=1e-3)
    # and the classical transport accumulates (nulled geometry) nothing
    poisson_end = evolve_wigner(h, w, BracketOrder(0), hold, hold_packets=True)
    assert abs(np.angle(kernel_coherence(poisson_end))) < 1e-12


def test_held_evolution_conserves_norm_and_coherence_modulus():
    w = small_state(0.5)
    h = two_ball_field(w.q_axis)
    out = evolve_wigner(h, w, BracketOrder(3), 2.0, hold_packets=True)
    assert out.norm() == pytest.approx(1.0, abs=1e-9)
    # held evolution multiplies each q row by a unimodular phase, so the
    # centre-row readout keeps its modulus
    assert abs(kernel_coherence(out)) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(min_value=0, max_value=3),
    t=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
def test_held_propagator_is_unitary(n_max, t):
    w = tiny_state()
    h = two_ball_field(w.q_axis)
    propagator = np.exp(1j * t * _generator(h, w, n_max))
    assert np.abs(np.abs(propagator) - 1.0).max() < 1e-14
    out = evolve_wigner(h, w, BracketOrder(n_max), t, hold_packets=True)
    assert abs(out.norm() - w.norm()) < 1e-12


def test_ridge_readout_fails_for_an_overflow_on_an_outer_row():
    # only the ridge row q = 0 is propagated, but Omega is range-checked
    # on every row, so t |Omega| leaving the float range on the first row
    # still stops the readout
    w = tiny_state()
    slope = np.zeros(w.q_axis.size)
    slope[0] = 1e300
    h = HamiltonianField(1.0, w.q_axis, slope[None, :])
    a = DX / 2.0
    with pytest.raises(NumericalError, match=re.escape(f"q row {w.q_axis[0]!r}")):
        _held_kernel_series(h, w, 0, -a, a, np.array([0.0, 1e10]))
    # within range, the ridge's zero generator leaves its kernel unmoved
    kernels = _held_kernel_series(h, w, 0, -a, a, np.array([0.0, 1.0]))
    assert abs(kernels[1] - kernels[0]) < 1e-12


def test_mirror_symmetry_preserved():
    # symmetric potential, real coherence: W is even under (q,p) -> (-q,-p);
    # evolution must keep it so.  On an endpoint-exclusive axis the mirror
    # partner of index k >= 1 is n - k, so compare with row/col 0 dropped.
    n = 128
    q = -8.5 + 17.0 * np.arange(n) / n
    w0 = wigner_from_two_packets(
        DX, SIGMA, 0.4, n_q=n, n_p=n, q_span=(-8.5, 8.5), p_span=(-24, 24)
    )
    h = HamiltonianField.from_two_ball(q, 1.0, 705.0, 705.0, 20.0, 20.0)
    out = evolve_wigner(h, w0, BracketOrder(2), 1.0, hold_packets=True)
    core = out.values[1:, 1:]
    assert np.allclose(core, core[::-1, ::-1], atol=1e-12)


# ------------------------------------------------------------- transforms


def test_weyl_diagonal_is_position_density():
    w = small_state(0.5)
    xs = w.q_axis[::31]
    diag = weyl_density_matrix(w, xs, xs)
    assert np.abs(diag.imag).max() < 1e-12
    marginal_interp = np.interp(xs, w.q_axis, w.values.sum(axis=1) * w.dp)
    assert np.allclose(diag.real, marginal_interp, atol=1e-6)
    assert diag.real.min() > -1e-6


def test_weyl_cross_kernel_carries_coherence():
    # rho(-a, +a) ~ c * |g(0)|^2 = c / sqrt(2 pi sigma^2)
    c = 0.3 - 0.2j
    assert kernel_coherence(small_state(c)) == pytest.approx(c, abs=1e-12)


def test_trace_rule_recovers_input_coherence():
    # the coherence written into W is read back by the kernel readout,
    # the program's one coherence readout
    for c in (0.5, 0.0, 0.31 + 0.17j, -0.2 - 0.4j):
        assert kernel_coherence(small_state(c)) == pytest.approx(complex(c), abs=1e-12)


def test_on_grid_readout_is_the_stored_row():
    # a midpoint on a q node reads that row of W as stored, bit for bit,
    # alone and inside a batch
    w = small_state(0.3 - 0.2j)
    nodes = [0, 77, 128, 255]
    xs = w.q_axis[nodes] - 0.75
    ys = w.q_axis[nodes] + 0.75
    assert np.array_equal(0.5 * (xs + ys), w.q_axis[nodes])
    batch = weyl_density_matrix(w, xs, ys)
    for k, i in enumerate(nodes):
        phases = np.exp(1j * np.multiply.outer(xs[k] - ys[k], w.p_axis) / w.hbar)
        expected = (w.values[i] * phases).sum(-1) * w.dp
        assert weyl_density_matrix(w, xs[k], ys[k]) == expected
        assert batch[k] == expected


@settings(max_examples=50, deadline=None)
@given(
    n_q=st.integers(8, 64),
    n_p=st.integers(8, 64),
    q_lo=st.floats(-10.0, 10.0),
    length=st.floats(1.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.005, 0.995), min_size=1, max_size=5),
)
def test_off_grid_readout_is_exact_for_band_limited_rows(
    n_q, n_p, q_lo, length, seed, fractions
):
    # W(q, p) = sum over q-wavenumbers below Nyquist of a_m(p) cos + b_m(p) sin
    # is its own trigonometric interpolant, so the kernel read at any
    # midpoint equals the p sum of the closed form there
    rng = np.random.default_rng(seed)
    q_axis = q_lo + length * np.arange(n_q) / n_q
    p_axis = -3.0 + 6.0 * np.arange(n_p) / n_p
    modes = np.arange((n_q - 1) // 2 + 1)  # 2 max(modes) < n_q
    cos_part, sin_part = rng.uniform(-1.0, 1.0, (2, modes.size, n_p))

    def closed_form(q):
        angle = 2.0 * math.pi / length * np.multiply.outer(q - q_lo, modes)
        return np.cos(angle) @ cos_part + np.sin(angle) @ sin_part

    w = WignerGrid(q_axis, p_axis, closed_form(q_axis), hbar=0.7)
    mid = q_axis[0] + np.array(fractions) * (q_axis[-1] - q_axis[0])
    sep = rng.uniform(-2.0, 2.0, mid.size)
    xs, ys = mid + 0.5 * sep, mid - 0.5 * sep
    got = weyl_density_matrix(w, xs, ys)
    phases = np.exp(1j * np.multiply.outer(xs - ys, p_axis) / w.hbar)
    rows = closed_form(0.5 * (xs + ys))
    expected = (rows * phases).sum(-1) * w.dp
    scale = np.abs(cos_part).sum() + np.abs(sin_part).sum()
    assert np.abs(got - expected).max() <= 1e-12 * scale * w.dp


def test_weyl_outside_grid_rejected():
    w = small_state(0.3)
    with pytest.raises(GridError, match="midpoint"):
        weyl_density_matrix(w, 9.0, 9.0)
    # the commutator term reads its midpoint by the same rule
    h = two_ball_field(w.q_axis)
    with pytest.raises(GridError, match="midpoint"):
        potential_commutator_term(h, lambda x, y: 0j, 9.0, 9.0)


def test_commutator_identity_against_bracket_transform():
    # Weyl image of V'(q) dW/dp must equal (x-y)/(i hbar) V'((x+y)/2)
    # rho(x,y); both routes go through the same grid, so what is being
    # tested is the transform pair, not the sampling
    c = 0.3 + 0.2j
    w = small_state(c)
    h = two_ball_field(w.q_axis)
    tangent = WignerGrid(w.q_axis, w.p_axis, potential_bracket(h, w), hbar=HBAR)

    rng = np.random.default_rng(8)
    xs = rng.uniform(-4.5, 4.5, 20)
    ys = rng.uniform(-4.5, 4.5, 20)
    lhs = weyl_density_matrix(tangent, xs, ys)
    rhs = potential_commutator_term(
        h, lambda x, y: weyl_density_matrix(w, x, y), xs, ys, hbar=HBAR
    )
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-3 * scale
