"""Two-level reduced dynamics of the arm populations and coherence.

Once the particle is frozen in a superposition of two narrow packets
(arms L and R), every candidate dynamical law reduces to a linear system
for the 2x2 density matrix in the arm basis.  The package compares four
such laws:

* :class:`Schrodinger` -- unitary evolution; the coherence rotates at
  the quantum frequency omega_Q and the populations never move.
* :class:`ClassicalPoisson` -- the same reduction applied to classical
  (Poisson-bracket) transport of the phase-space distribution; the
  coherence rotates at the classical frequency omega_C instead.
* :class:`TilloyDiosi` -- a classical gravitational field sourced by a
  continuously monitored mass density; the coherence additionally decays
  at a rate lambda, giving d/dt rho_LR = (-lambda + i omega_G) rho_LR.
* :class:`GeneralLinear` -- the most general linear, trace-preserving,
  hermiticity-preserving law whose populations are stationary whenever
  the coherence vanishes (so it contains all of the above):

      d/dt rho_LL = 2 (mu1 Re rho_LR - mu2 Im rho_LR)
      d/dt rho_LR = b_LR rho_LR + b_RL conj(rho_LR)

  with mu1 = Re a_LR and mu2 = Im a_LR.  Trace preservation and
  hermiticity force the remaining coefficients (the diagonal couplings
  vanish and a_RL is determined by a_LR), so the three complex numbers
  (a_LR, b_LR, b_RL) parameterise the whole class.  Couplings with
  mu != 0 move population, yet the interferometric signal
  1/2 + Re rho_LR depends on the coherence alone -- the degeneracy that
  motivates measuring populations as well as fringes.

The coherence subsystem in the real pair f = (Re rho_LR, Im rho_LR) is
f' = A f with

    A = [[Re(b_LR + b_RL), -Im(b_LR - b_RL)],
         [Im(b_LR + b_RL),  Re(b_LR - b_RL)]],

and the population integrates the linear functional 2 (mu1, -mu2) . f,
so everything has a closed (matrix-exponential) solution; a generic ODE
integrator is kept alongside as an independent route.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass
from typing import Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import (
    CoherenceGrowthWarning,
    IntegrationError,
    NoSteadyStateError,
    PositivityWarning,
    UnsupportedModelError,
)

__all__ = [
    "TwoLevelState",
    "PLUS_STATE",
    "Schrodinger",
    "ClassicalPoisson",
    "TilloyDiosi",
    "GeneralLinear",
    "DynamicsModel",
    "derivative",
    "evolve",
    "trajectory",
    "analytic_coherence",
    "coherence_matrix",
    "eigenvalue_branch",
    "spectral_solution",
    "steady_state_population",
]

_DEFAULT_TOLERANCE = 1e-10
_MAX_TOLERANCE = 1e-3


@dataclass(frozen=True)
class TwoLevelState:
    """Arm-basis density matrix: rho = [[rho_LL, rho_LR], [conj, 1-rho_LL]].

    ``check=True`` (the default) enforces the physical set at
    construction: rho_LL in [0, 1] and |rho_LR|^2 <= rho_LL (1 - rho_LL)
    up to a small numerical slack.  Integrator outputs are built with
    ``check=False`` and report drift through warnings instead, so a
    slightly unphysical model parameterisation can still be simulated
    and inspected.
    """

    rho_ll: float
    rho_lr: complex
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        object.__setattr__(self, "rho_ll", float(self.rho_ll))
        object.__setattr__(self, "rho_lr", complex(self.rho_lr))
        if check:
            defect = self.positivity_defect()
            if defect > 1e-12:
                raise ValueError(
                    f"state is not positive semi-definite (defect {defect:.3g}); "
                    "pass check=False to build it anyway"
                )

    def positivity_defect(self) -> float:
        """How far the state sits outside the physical set (0 if inside).

        max of the population's excursion outside [0, 1] and the excess
        of |rho_LR|^2 over rho_LL (1 - rho_LL).
        """
        pop = max(-self.rho_ll, self.rho_ll - 1.0, 0.0)
        coh = abs(self.rho_lr) ** 2 - self.rho_ll * (1.0 - self.rho_ll)
        return max(pop, coh, 0.0)


#: Equal superposition (|L> + |R>)/sqrt(2): the post-split initial state.
PLUS_STATE = TwoLevelState(0.5, 0.5 + 0.0j)


@dataclass(frozen=True)
class Schrodinger:
    """Unitary arm dynamics: coherence rotates at ``omega_q`` (rad/s)."""

    omega_q: float


@dataclass(frozen=True)
class ClassicalPoisson:
    """Classical-transport arm dynamics: rotation at ``omega_c`` (rad/s)."""

    omega_c: float


@dataclass(frozen=True)
class TilloyDiosi:
    """Monitored-source classical gravity: decay ``lam`` >= 0 (1/s) plus
    rotation ``omega_g`` (rad/s)."""

    lam: float
    omega_g: float

    def __post_init__(self) -> None:
        if self.lam < 0.0:
            raise ValueError("decay rate lam must be non-negative")


@dataclass(frozen=True)
class GeneralLinear:
    """General linear coherence-driven law, see module docstring.

    ``a_lr`` couples the coherence into the populations (mu1 = Re,
    mu2 = Im); ``b_lr`` and ``b_rl`` drive the coherence itself.  The
    remaining matrix elements of the general law are fixed by trace
    preservation, hermiticity preservation, and stationarity of
    decohered states, so they are not exposed.
    """

    a_lr: complex
    b_lr: complex
    b_rl: complex = 0.0 + 0.0j


DynamicsModel = Union[Schrodinger, ClassicalPoisson, TilloyDiosi, GeneralLinear]


@dataclass(frozen=True)
class StateDerivative:
    """Tangent of a two-level state: d/dt of (rho_LL, rho_LR)."""

    d_rho_ll: float
    d_rho_lr: complex


def _as_general(model: DynamicsModel) -> GeneralLinear:
    """Embed any supported model into the general linear class."""
    if isinstance(model, Schrodinger):
        return GeneralLinear(0.0j, 1j * model.omega_q, 0.0j)
    if isinstance(model, ClassicalPoisson):
        return GeneralLinear(0.0j, 1j * model.omega_c, 0.0j)
    if isinstance(model, TilloyDiosi):
        return GeneralLinear(0.0j, complex(-model.lam, model.omega_g), 0.0j)
    if isinstance(model, GeneralLinear):
        return model
    raise UnsupportedModelError(f"unknown dynamics model {model!r}")


def derivative(model: DynamicsModel, state: TwoLevelState) -> StateDerivative:
    """Instantaneous time derivative of the state under a model."""
    g = _as_general(model)
    mu1, mu2 = g.a_lr.real, g.a_lr.imag
    d_ll = 2.0 * (mu1 * state.rho_lr.real - mu2 * state.rho_lr.imag)
    d_lr = g.b_lr * state.rho_lr + g.b_rl * state.rho_lr.conjugate()
    return StateDerivative(d_ll, d_lr)


def _validate_tolerance(tolerance: float) -> float:
    if not (0.0 < tolerance <= _MAX_TOLERANCE):
        raise ValueError(
            f"tolerance must lie in (0, {_MAX_TOLERANCE}], got {tolerance!r}"
        )
    return float(tolerance)


def _warn_if_unphysical(state: TwoLevelState, slack: float) -> TwoLevelState:
    defect = state.positivity_defect()
    if defect > slack:
        warnings.warn(
            f"evolved state left the physical set (defect {defect:.3g}); "
            "the model parameterisation is not completely positive",
            PositivityWarning,
            stacklevel=3,
        )
    return state


def _rhs(g: GeneralLinear):
    mu1, mu2 = g.a_lr.real, g.a_lr.imag
    b_lr, b_rl = g.b_lr, g.b_rl

    def rhs(t: float, y: np.ndarray) -> list[float]:
        re, im = y[1], y[2]
        d_lr = b_lr * complex(re, im) + b_rl * complex(re, -im)
        return [2.0 * (mu1 * re - mu2 * im), d_lr.real, d_lr.imag]

    return rhs


def evolve(
    model: DynamicsModel,
    initial: TwoLevelState,
    t: float,
    tolerance: float = _DEFAULT_TOLERANCE,
) -> TwoLevelState:
    """Integrate the model numerically to time ``t``.

    Adaptive high-order Runge-Kutta with relative tolerance
    ``tolerance`` (must lie in (0, 1e-3]).  Raises
    :class:`IntegrationError` if the integrator cannot reach ``t``;
    emits :class:`PositivityWarning` when the result drifts outside the
    physical set by more than the tolerance allows.
    """
    tol = _validate_tolerance(tolerance)
    if t < 0.0:
        raise ValueError("evolution time must be non-negative")
    if t == 0.0:
        return initial
    g = _as_general(model)
    y0 = [initial.rho_ll, initial.rho_lr.real, initial.rho_lr.imag]
    sol = solve_ivp(
        _rhs(g), (0.0, t), y0, method="DOP853", rtol=tol, atol=tol * 1e-3
    )
    if not sol.success:
        raise IntegrationError(
            f"integrator failed before reaching t={t!r}: {sol.message}"
        )
    y = sol.y[:, -1]
    out = TwoLevelState(y[0], complex(y[1], y[2]), check=False)
    return _warn_if_unphysical(out, slack=100.0 * tol)


def trajectory(
    model: DynamicsModel,
    initial: TwoLevelState,
    times: np.ndarray,
    tolerance: float = _DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate once and sample the state at the given times.

    ``times`` must be non-negative and non-decreasing.  Returns arrays
    ``(rho_ll, rho_lr)`` aligned with ``times``.
    """
    tol = _validate_tolerance(tolerance)
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if ts[0] < 0.0 or np.any(np.diff(ts) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")
    if ts[-1] == 0.0:
        n = ts.size
        return (
            np.full(n, initial.rho_ll),
            np.full(n, initial.rho_lr, dtype=complex),
        )
    g = _as_general(model)
    y0 = [initial.rho_ll, initial.rho_lr.real, initial.rho_lr.imag]
    sol = solve_ivp(
        _rhs(g),
        (0.0, float(ts[-1])),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-3,
        t_eval=ts,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    rho_ll = sol.y[0]
    rho_lr = sol.y[1] + 1j * sol.y[2]
    final = TwoLevelState(rho_ll[-1], rho_lr[-1], check=False)
    _warn_if_unphysical(final, slack=100.0 * tol)
    return rho_ll, rho_lr


def analytic_coherence(model: DynamicsModel, initial: TwoLevelState, t):
    """Closed-form coherence for models with decoupled rho_LR.

    Supported for :class:`Schrodinger`, :class:`ClassicalPoisson`, and
    :class:`TilloyDiosi`, whose coherence obeys
    d/dt rho_LR = (-lambda + i omega) rho_LR with lambda = 0 for the
    first two:

        rho_LR(t) = rho_LR(0) * exp((-lambda + i omega) t).

    ``t`` may be a scalar or an array.  The general model couples
    rho_LR to its conjugate, so it has no single-exponential form and
    raises :class:`UnsupportedModelError`; use
    :func:`spectral_solution`.
    """
    if isinstance(model, GeneralLinear):
        raise UnsupportedModelError(
            "the general linear model mixes rho_LR with its conjugate; "
            "use spectral_solution instead"
        )
    rate = _as_general(model).b_lr
    tv = np.asarray(t, dtype=float)
    out = initial.rho_lr * np.exp(rate * tv)
    return out if out.ndim else complex(out)


def coherence_matrix(model: GeneralLinear) -> np.ndarray:
    """Real 2x2 generator of f = (Re rho_LR, Im rho_LR), f' = A f."""
    if not isinstance(model, GeneralLinear):
        model = _as_general(model)
    b_sum = model.b_lr + model.b_rl
    b_diff = model.b_lr - model.b_rl
    return np.array(
        [[b_sum.real, -b_diff.imag], [b_sum.imag, b_diff.real]], dtype=float
    )


def eigenvalue_branch(a: np.ndarray, rtol: float = 1e-9) -> str:
    """Classify the coherence generator's spectrum for reporting.

    Returns ``"real-distinct"``, ``"complex-pair"``, or ``"repeated"``
    (the last when the eigenvalues agree within ``rtol`` times the
    matrix scale).  The solution itself never branches on this; it is a
    human-readable label for which primitive (two exponentials,
    exponential times sine/cosine, or exponential times polynomial)
    the closed form reduces to.
    """
    a = np.asarray(a, dtype=float)
    eigs = np.linalg.eigvals(a)
    scale = max(1.0, float(np.linalg.norm(a)))
    if abs(eigs[0] - eigs[1]) <= rtol * scale:
        return "repeated"
    if abs(eigs[0].imag) > rtol * scale:
        return "complex-pair"
    return "real-distinct"


def _warn_if_growing(a: np.ndarray) -> None:
    growth = float(np.max(np.linalg.eigvals(a).real))
    if growth > 1e-12 * max(1.0, float(np.linalg.norm(a))):
        warnings.warn(
            f"coherence generator has a growing mode (max Re eigenvalue "
            f"{growth:.3g}); long-time results are unphysical",
            CoherenceGrowthWarning,
            stacklevel=3,
        )


def spectral_solution(
    model: GeneralLinear, initial: TwoLevelState, t: float
) -> TwoLevelState:
    """Closed-form state at time ``t`` for the general linear model.

    The coherence pair evolves as f(t) = exp(A t) f(0) and the
    population integrates it:

        rho_LL(t) = rho_LL(0) + 2 (mu1, -mu2) . INT_0^t exp(A s) ds f(0).

    Both the propagator and its integral come from one matrix
    exponential of the augmented block matrix [[A, I], [0, 0]] (the
    integral is its upper-right block), which is branch-free across
    real-distinct, complex-pair, and repeated spectra; see
    :func:`eigenvalue_branch` for the report-only classification.
    """
    if not isinstance(model, GeneralLinear):
        raise UnsupportedModelError(
            "spectral_solution applies to the general linear model; "
            "closed forms for the named models come from analytic_coherence"
        )
    if t < 0.0:
        raise ValueError("evolution time must be non-negative")
    a = coherence_matrix(model)
    _warn_if_growing(a)
    augmented = np.zeros((4, 4))
    augmented[:2, :2] = a
    augmented[:2, 2:] = np.eye(2)
    propagated = expm(augmented * t)
    f0 = np.array([initial.rho_lr.real, initial.rho_lr.imag])
    f_t = propagated[:2, :2] @ f0
    integral = propagated[:2, 2:] @ f0
    mu1, mu2 = model.a_lr.real, model.a_lr.imag
    rho_ll = initial.rho_ll + 2.0 * (mu1 * integral[0] - mu2 * integral[1])
    out = TwoLevelState(rho_ll, complex(f_t[0], f_t[1]), check=False)
    return _warn_if_unphysical(out, slack=1e-9)


def steady_state_population(model: GeneralLinear) -> float:
    """Late-time left population from the |+> initial state.

    For a decaying pure-exponential coherence (b_RL = 0, write
    b_LR = -lambda + i omega_G with lambda > 0) the population converges
    to

        1/2 + (mu1 lambda - mu2 omega_G) / (lambda^2 + omega_G^2),

    which for the symmetric coupling mu1 = mu2 = mu is the memorable
    1/2 - mu (omega_G - lambda) / (lambda^2 + omega_G^2).  The shift
    vanishes only on a measure-zero parameter line (mu1 lambda =
    mu2 omega_G), so a nonzero population shift is a generic signature
    of coherence-to-population coupling.

    Raises :class:`UnsupportedModelError` for b_RL != 0 (no
    single-exponential coherence) and :class:`NoSteadyStateError` for
    lambda <= 0 (the integral does not converge).
    """
    if not isinstance(model, GeneralLinear):
        model = _as_general(model)
    if model.b_rl != 0.0:
        raise UnsupportedModelError(
            "closed-form steady state requires b_rl = 0 "
            "(pure-exponential coherence)"
        )
    lam = -model.b_lr.real
    omega_g = model.b_lr.imag
    if lam <= 0.0:
        raise NoSteadyStateError(
            "coherence does not decay (lambda <= 0); the late-time "
            "population limit does not exist"
        )
    mu1, mu2 = model.a_lr.real, model.a_lr.imag
    return 0.5 + (mu1 * lam - mu2 * omega_g) / (lam**2 + omega_g**2)


def model_descriptor(model: DynamicsModel) -> str:
    """Short single-token description, e.g. for record headers.

    Uses ``;`` between parameters so the result stays comma-free.
    """
    if isinstance(model, Schrodinger):
        return f"schrodinger(omega_q={model.omega_q!r})"
    if isinstance(model, ClassicalPoisson):
        return f"classical(omega_c={model.omega_c!r})"
    if isinstance(model, TilloyDiosi):
        return f"tilloy-diosi(lambda={model.lam!r};omega_g={model.omega_g!r})"
    if isinstance(model, GeneralLinear):
        return (
            f"general(a_lr={model.a_lr!r};b_lr={model.b_lr!r};"
            f"b_rl={model.b_rl!r})"
        )
    raise UnsupportedModelError(f"unknown dynamics model {model!r}")
