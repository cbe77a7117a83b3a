"""Two-level dynamics: closed forms, integration, spectral solution."""

import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm_cond
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravfringe.errors import CoherenceGrowthWarning, PositivityWarning
from gravfringe.twostate import (
    PLUS_STATE,
    ClassicalPoisson,
    GeneralLinear,
    Schrodinger,
    TilloyDiosi,
    TwoLevelState,
    _augmented_exp,
    _generator,
    coherence_matrix,
    eigenvalue_branch,
    evolve,
    spectral_solution,
    spectral_trajectory,
    trajectory,
)

unit = st.floats(-1.0, 1.0)
rates = st.floats(0.0, 1.0)
named_models = st.one_of(
    st.builds(Schrodinger, unit),
    st.builds(ClassicalPoisson, unit),
    st.builds(TilloyDiosi, rates, unit),
)
general_models = st.builds(
    GeneralLinear,
    st.complex_numbers(max_magnitude=0.2),
    st.complex_numbers(max_magnitude=1.0),
    st.complex_numbers(max_magnitude=1.0),
)
sorted_times = st.lists(st.floats(0.0, 120.0), min_size=1, max_size=20).map(sorted)


@st.composite
def states(draw):
    """Physical states: |rho_LR|^2 <= rho_LL (1 - rho_LL)."""
    rho_ll = draw(st.floats(0.0, 1.0))
    radius = draw(st.floats(0.0, 1.0)) * np.sqrt(rho_ll * (1.0 - rho_ll))
    phase = draw(st.floats(-np.pi, np.pi))
    return TwoLevelState(rho_ll, radius * np.exp(1j * phase))


def _coherence_rate(model) -> complex:
    """-lambda + i omega of a named model, written out per law."""
    if isinstance(model, Schrodinger):
        return 1j * model.omega_q
    if isinstance(model, ClassicalPoisson):
        return 1j * model.omega_c
    return complex(-model.lam, model.omega_g)


def test_state_validation():
    TwoLevelState(0.5, 0.5)  # pure |+><+| sits on the boundary
    with pytest.raises(ValueError, match="positive"):
        TwoLevelState(0.5, 0.6)
    with pytest.raises(ValueError, match="positive"):
        TwoLevelState(1.2, 0.0)
    # relaxed construction for integrator output
    s = TwoLevelState(0.5, 0.6, check=False)
    assert s.positivity_defect() > 0


@settings(max_examples=40, deadline=None)
@given(general_models | named_models, states())
def test_derivative_matches_component_formulas(model, state):
    # the law as the module docstring writes it, independent of B
    if isinstance(model, GeneralLinear):
        g = model
    else:
        g = GeneralLinear(0j, _coherence_rate(model))
    mu1, mu2 = g.a_lr.real, g.a_lr.imag
    z = state.rho_lr
    d = _generator(model) @ np.array([state.rho_ll, z.real, z.imag])
    assert abs(d[0] - 2.0 * (mu1 * z.real - mu2 * z.imag)) <= 1e-15
    assert abs(complex(d[1], d[2]) - (g.b_lr * z + g.b_rl * z.conjugate())) <= 1e-15


def test_tilloy_diosi_rejects_negative_rate():
    with pytest.raises(ValueError):
        TilloyDiosi(lam=-0.1, omega_g=0.2)
    with pytest.raises(ValueError):
        TilloyDiosi(lam=float("nan"), omega_g=0.2)


def test_spectral_trajectory_named_forms():
    ts = np.linspace(0, 20, 7)
    _, c_s = spectral_trajectory(Schrodinger(0.22), PLUS_STATE, ts)
    assert np.allclose(c_s, 0.5 * np.exp(1j * 0.22 * ts), rtol=1e-15)
    assert np.allclose(np.abs(c_s), 0.5)  # unitary: modulus frozen

    _, c_td = spectral_trajectory(TilloyDiosi(0.05, 0.22), PLUS_STATE, ts)
    assert np.allclose(c_td, 0.5 * np.exp((-0.05 + 0.22j) * ts), rtol=1e-15)
    assert np.all(np.diff(np.abs(c_td)) < 0)  # monotone decay

    # zero-decay limit is bitwise the unitary law
    _, c_td0 = spectral_trajectory(TilloyDiosi(0.0, 0.22), PLUS_STATE, ts)
    assert np.array_equal(c_td0, c_s)


@settings(max_examples=40, deadline=None)
@given(named_models, sorted_times, st.floats(-np.pi, np.pi))
def test_spectral_trajectory_matches_named_exponential(model, times, phase):
    initial = TwoLevelState(0.5, 0.5 * np.exp(1j * phase))
    ts = np.array(times)
    rho_ll, rho_lr = spectral_trajectory(model, initial, ts)
    expected = initial.rho_lr * np.exp(_coherence_rate(model) * ts)
    assert np.all(rho_ll == 0.5)
    assert np.max(np.abs(rho_lr - expected)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(unit, states(), sorted_times)
def test_reversed_rotation_conjugates_the_coherence(omega, initial, times):
    # Schrodinger(-omega) from the conjugate state is Schrodinger(omega)
    # conjugated: every sample equal bit for bit, up to the sign of a zero
    mirrored = TwoLevelState(initial.rho_ll, initial.rho_lr.conjugate())
    rho_ll, rho_lr = spectral_trajectory(Schrodinger(omega), initial, times)
    back_ll, back_lr = spectral_trajectory(Schrodinger(-omega), mirrored, times)
    assert np.array_equal(back_ll, rho_ll)
    assert np.array_equal(back_lr, rho_lr.conjugate())


@given(general_models, states(), sorted_times)
def test_spectral_solution_is_one_row_of_the_trajectory(model, initial, times):
    with warnings.catch_warnings():
        # random laws may grow or leave the physical set; only the
        # agreement between the two views is under test
        warnings.simplefilter("ignore")
        rho_ll, rho_lr = spectral_trajectory(model, initial, times)
        for t, ll, lr in zip(times, rho_ll, rho_lr):
            single = spectral_solution(model, initial, t)
            assert single.rho_ll == ll
            assert single.rho_lr == lr


def _mpmath_top_row(a, t):
    """[exp(A t) | INT_0^t exp(A s) ds] from a 40-digit exponential of
    the augmented block [[A, I], [0, 0]] t."""
    with mpmath.workdps(40):
        m = mpmath.zeros(4, 4)
        for i in range(2):
            for j in range(2):
                m[i, j] = mpmath.mpf(float(a[i, j])) * mpmath.mpf(float(t))
            m[i, i + 2] = mpmath.mpf(float(t))
        e = mpmath.expm(m)
        return np.array([[float(e[i, j]) for j in range(4)] for i in range(2)])


def _relative_error(a, ts):
    """Worst entry error of the batched top row, each time's error taken
    over the largest entry of its 40-digit row."""
    errors = []
    for t, row in zip(ts, _augmented_exp(a, np.asarray(ts, dtype=float))):
        exact = _mpmath_top_row(a, t)
        errors.append(np.max(np.abs(row - exact)) / np.max(np.abs(exact)))
    return max(errors)


def _conditioned_error(a, t):
    """Unit roundoff times the relative condition number of the
    augmented exponential: the error any exponential may make at t."""
    m = np.zeros((4, 4))
    m[:2, :2] = a
    m[[0, 1], [2, 3]] = 1.0
    return 2.0**-53 * expm_cond(m * t)


@settings(max_examples=50, deadline=None)
@given(general_models, st.lists(st.floats(0.0, 120.0), min_size=1, max_size=4))
# non-normal A (eigenvalues +-0.166i): error 1.1e-13, conditioned error 7.3e-12
@example(GeneralLinear(0j, -1j, 0.69140625 + 0.703125j), [35.0])
def test_batched_exponential_matches_mpmath_reference(model, times):
    # Pade-13 with per-sample scaling meets a fixed bound where the
    # exponential is well conditioned; a growing mode amplifies the
    # rounding of the squaring phase, so it gets the looser one.  A far
    # from normal A is ill conditioned, and there the bound is the
    # conditioned error, which the error stayed under by a factor of 5
    a = coherence_matrix(model)
    growing = np.max(np.linalg.eigvals(a).real) > 0.0
    fixed = 1e-11 if growing else 1e-13
    for t in times:
        assert _relative_error(a, [t]) <= max(fixed, _conditioned_error(a, t))


def test_batched_exponential_exact_and_degenerate_cases():
    a = coherence_matrix(GeneralLinear(0.1j, -0.3 + 1.1j, 0.2 - 0.4j))
    assert np.array_equal(_augmented_exp(a, np.zeros(3)), np.tile(np.eye(2, 4), (3, 1, 1)))
    ts = [0.25, 3.0, 50.0, 120.0]
    assert _relative_error(np.zeros((2, 2)), ts) <= 1e-15
    assert _relative_error(np.array([[-1.0, 1.0], [0.0, -1.0]]), ts) <= 1e-15


def test_blocks_do_not_change_bits():
    model = GeneralLinear(0.004 - 0.003j, -0.05 + 0.22j, 0.01 + 0.02j)
    ts = np.linspace(0.0, 120.0, 5000)
    whole = spectral_trajectory(model, PLUS_STATE, ts)
    halves = [spectral_trajectory(model, PLUS_STATE, part) for part in (ts[:2500], ts[2500:])]
    for whole_part, *split in zip(whole, *halves):
        assert np.array_equal(whole_part, np.concatenate(split))


def test_spectral_trajectory_warns_once_per_call():
    # strong population coupling overshoots rho_LL past 1 at many samples
    model = GeneralLinear(a_lr=2.0 + 0j, b_lr=-0.05 + 0j, b_rl=0j)
    with pytest.warns(PositivityWarning) as caught:
        spectral_trajectory(model, PLUS_STATE, np.linspace(0.0, 40.0, 50))
    assert len(caught) == 1
    assert "worst defect" in str(caught[0].message)


def test_times_must_be_sorted_and_non_negative():
    for bad in ([], [1.0, 0.5], [-1.0, 2.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="times"):
            spectral_trajectory(Schrodinger(0.2), PLUS_STATE, bad)
        with pytest.raises(ValueError, match="times"):
            trajectory(Schrodinger(0.2), PLUS_STATE, bad)


def test_evolve_matches_closed_form():
    model = TilloyDiosi(lam=0.13, omega_g=0.7)
    out = evolve(model, PLUS_STATE, 12.0)
    assert out.rho_lr == pytest.approx(
        0.5 * np.exp((-0.13 + 0.7j) * 12.0), abs=1e-11
    )
    assert out.rho_ll == pytest.approx(0.5, abs=1e-11)


def test_evolve_tolerance_domain():
    with pytest.raises(ValueError):
        evolve(Schrodinger(0.2), PLUS_STATE, 1.0, tolerance=0.0)
    with pytest.raises(ValueError):
        evolve(Schrodinger(0.2), PLUS_STATE, 1.0, tolerance=1e-2)
    evolve(Schrodinger(0.2), PLUS_STATE, 1.0, tolerance=1e-3)  # boundary ok


def test_trajectory_matches_pointwise_evolve():
    model = GeneralLinear(a_lr=0.05 + 0.02j, b_lr=-0.2 + 0.9j, b_rl=0.03 - 0.01j)
    ts = np.linspace(0.0, 8.0, 9)
    lls, lrs = trajectory(model, PLUS_STATE, ts)
    for t, ll, lr in zip(ts[::4], lls[::4], lrs[::4]):
        single = evolve(model, PLUS_STATE, float(t))
        assert ll == pytest.approx(single.rho_ll, abs=1e-10)
        assert lr == pytest.approx(single.rho_lr, abs=1e-10)


def test_unitary_models_preserve_modulus():
    ts = np.linspace(0, 30, 40)
    for model in (Schrodinger(0.22), ClassicalPoisson(0.1)):
        _, lrs = trajectory(model, PLUS_STATE, ts)
        assert np.allclose(np.abs(lrs), 0.5, atol=1e-10)


def test_coherence_matrix_embeddings():
    # Tilloy-Diosi embeds as the rotation-with-decay block
    a = coherence_matrix(GeneralLinear(0j, -0.5 + 1.2j, 0j))
    assert np.allclose(a, [[-0.5, -1.2], [1.2, -0.5]])
    eigs = np.linalg.eigvals(a)
    assert sorted(np.round(eigs.imag, 12)) == [-1.2, 1.2]
    # b_rl mixes in the conjugate and breaks the rotation structure
    a2 = coherence_matrix(GeneralLinear(0j, -0.5 + 1.2j, 0.2 + 0.1j))
    assert np.allclose(a2, [[-0.3, -1.1], [1.3, -0.7]])


def test_eigenvalue_branches():
    assert eigenvalue_branch(np.array([[-0.5, -1.2], [1.2, -0.5]])) == "complex-pair"
    assert eigenvalue_branch(np.array([[-1.0, 0.0], [0.0, -2.0]])) == "real-distinct"
    assert eigenvalue_branch(np.array([[-1.0, 1.0], [0.0, -1.0]])) == "repeated"


def test_spectral_matches_tilloy_diosi_closed_form():
    lam, wg = 0.11, 0.62
    model = GeneralLinear(0j, complex(-lam, wg), 0j)
    for t in (0.0, 1.7, 9.3):
        out = spectral_solution(model, PLUS_STATE, t)
        assert out.rho_lr == pytest.approx(0.5 * np.exp(complex(-lam, wg) * t), abs=1e-14)
        assert out.rho_ll == pytest.approx(0.5, abs=1e-14)


def test_spectral_matches_integration_all_branches():
    cases = {
        # complex pair
        "complex-pair": GeneralLinear(0.04 + 0.01j, -0.3 + 1.1j, 0.05j),
        # real distinct: diagonal A via b_lr real-diff trick
        "real-distinct": GeneralLinear(0.03 + 0.02j, -1.5 + 0j, 0.5 + 0j),
        # repeated: b_lr = -l, b_rl = 0 gives A = -l I exactly
        "repeated": GeneralLinear(0.02 - 0.01j, -0.8 + 0j, 0j),
    }
    for branch, model in cases.items():
        assert eigenvalue_branch(coherence_matrix(model)) == branch
        for t in (2.0, 7.5):
            spectral = spectral_solution(model, PLUS_STATE, t)
            integrated = evolve(model, PLUS_STATE, t, tolerance=1e-10)
            assert spectral.rho_ll == pytest.approx(integrated.rho_ll, abs=1e-8)
            assert spectral.rho_lr == pytest.approx(integrated.rho_lr, abs=1e-8)


def test_population_conservation_in_trace():
    # rho_RR = 1 - rho_LL by construction; what must hold is that a
    # vanished coherence freezes the population
    model = GeneralLinear(0.1 + 0.1j, -2.0 + 0j, 0j)
    late = spectral_solution(model, PLUS_STATE, 200.0)
    later = spectral_solution(model, PLUS_STATE, 400.0)
    assert later.rho_ll == pytest.approx(late.rho_ll, abs=1e-12)


def test_growing_mode_warns():
    model = GeneralLinear(0j, +0.2 + 1.0j, 0j)
    # growth also pushes |rho_LR| past the positivity bound; both warn
    with pytest.warns((CoherenceGrowthWarning, PositivityWarning)):
        spectral_solution(model, PLUS_STATE, 1.0)


def test_positivity_warning_on_unphysical_coupling():
    # strong population coupling with slow decay overshoots rho_LL past 1
    model = GeneralLinear(a_lr=2.0 + 0j, b_lr=-0.05 + 0j, b_rl=0j)
    with pytest.warns(PositivityWarning):
        spectral_solution(model, PLUS_STATE, 40.0)


def test_steady_state_matches_long_integration():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu1, mu2 = rng.uniform(-0.05, 0.05, 2)
        lam = rng.uniform(0.2, 1.0)
        wg = rng.uniform(0.0, 1.0)
        model = GeneralLinear(complex(mu1, mu2), complex(-lam, wg), 0j)
        target = 0.5 + (mu1 * lam - mu2 * wg) / (lam**2 + wg**2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PositivityWarning)
            out = evolve(model, PLUS_STATE, 30.0 / lam)
        assert out.rho_ll == pytest.approx(target, abs=1e-7)
