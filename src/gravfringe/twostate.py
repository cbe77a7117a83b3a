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

Every law is one real linear system y' = B y for
y = (rho_LL, Re rho_LR, Im rho_LR), with the generator

    B = [[0, 2 mu1,  -2 mu2 ],
         [0, A[0,0], A[0,1]],
         [0, A[1,0], A[1,1]]],

    A = [[Re(b_LR + b_RL), -Im(b_LR - b_RL)],
         [Im(b_LR + b_RL),  Re(b_LR - b_RL)]].

The population row integrates the coherence and the coherence block A
drives f = (Re rho_LR, Im rho_LR) alone.  Everything follows from B:
:func:`spectral_trajectory` is the closed form, one matrix exponential
of the augmented coherence block per sample time, taken by a batched
numpy Padé scaling and squaring that needs no scipy; and
:func:`trajectory` (with its one-time view :func:`evolve`) integrates
y' = B y with an adaptive Runge-Kutta method.  That integrator is not
a second route to the answer but the independent cross-check the
acceptance gate requires.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, fields
from typing import ClassVar, Union, get_args

import numpy as np

from .errors import CoherenceGrowthWarning, NumericalError, PositivityWarning

__all__ = [
    "TwoLevelState",
    "PLUS_STATE",
    "Schrodinger",
    "ClassicalPoisson",
    "TilloyDiosi",
    "GeneralLinear",
    "DynamicsModel",
    "evolve",
    "trajectory",
    "coherence_matrix",
    "eigenvalue_branch",
    "spectral_solution",
    "spectral_trajectory",
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

        The unit-trace rho has eigenvalues 1/2 +- r with
        r = hypot(rho_LL - 1/2, |rho_LR|), so the defect is the size of
        its negative eigenvalue, max(r - 1/2, 0).  It is zero exactly
        where rho_LL lies in [0, 1] and |rho_LR|^2 <= rho_LL (1 - rho_LL);
        no entry is squared, so it overflows only where r itself does.
        """
        return float(_positivity_defect(self.rho_ll, self.rho_lr))


def _positivity_defect(rho_ll, rho_lr):
    """Elementwise :meth:`TwoLevelState.positivity_defect` of arrays."""
    return np.maximum(np.hypot(rho_ll - 0.5, np.abs(rho_lr)) - 0.5, 0.0)


#: Equal superposition (|L> + |R>)/sqrt(2): the post-split initial state.
PLUS_STATE = TwoLevelState(0.5, 0.5 + 0.0j)


@dataclass(frozen=True)
class Schrodinger:
    """Unitary arm dynamics: coherence rotates at ``omega_q`` (rad/s)."""

    name: ClassVar[str] = "schrodinger"
    omega_q: float


@dataclass(frozen=True)
class ClassicalPoisson:
    """Classical-transport arm dynamics: rotation at ``omega_c`` (rad/s)."""

    name: ClassVar[str] = "classical"
    omega_c: float


@dataclass(frozen=True)
class TilloyDiosi:
    """Monitored-source classical gravity: decay ``lam`` >= 0 (1/s) plus
    rotation ``omega_g`` (rad/s)."""

    name: ClassVar[str] = "tilloy-diosi"
    lam: float
    omega_g: float

    def __post_init__(self) -> None:
        if not self.lam >= 0.0:
            raise ValueError(f"decay rate lam must be non-negative, got {self.lam!r}")


@dataclass(frozen=True)
class GeneralLinear:
    """General linear coherence-driven law, see module docstring.

    ``a_lr`` couples the coherence into the populations (mu1 = Re,
    mu2 = Im); ``b_lr`` and ``b_rl`` drive the coherence itself.  The
    remaining matrix elements of the general law are fixed by trace
    preservation, hermiticity preservation, and stationarity of
    decohered states, so they are not exposed.
    """

    name: ClassVar[str] = "general"
    a_lr: complex
    b_lr: complex
    b_rl: complex = 0.0 + 0.0j


DynamicsModel = Union[Schrodinger, ClassicalPoisson, TilloyDiosi, GeneralLinear]

#: Each law of :data:`DynamicsModel` by its name.
_LAWS = {law.name: law for law in get_args(DynamicsModel)}
#: Spelling of a parameter where it differs from its field name.
_LABELS = {"lam": "lambda"}


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
    raise TypeError(f"unknown dynamics model {model!r}")


def coherence_matrix(model: DynamicsModel) -> np.ndarray:
    """Real 2x2 generator of f = (Re rho_LR, Im rho_LR), f' = A f."""
    model = _as_general(model)
    b_sum = model.b_lr + model.b_rl
    b_diff = model.b_lr - model.b_rl
    return np.array(
        [[b_sum.real, -b_diff.imag], [b_sum.imag, b_diff.real]], dtype=float
    )


def _generator(model: DynamicsModel) -> np.ndarray:
    """Real 3x3 B with y' = B y for y = (rho_LL, Re rho_LR, Im rho_LR).

    Raises :class:`NumericalError` when an entry is not finite."""
    g = _as_general(model)
    b = np.zeros((3, 3))
    b[0, 1:] = 2.0 * g.a_lr.real, -2.0 * g.a_lr.imag
    b[1:, 1:] = coherence_matrix(g)
    if not np.all(np.isfinite(b)):
        # finite parameters whose sums or doubles overflow
        raise NumericalError(
            f"the generator of {model_descriptor(g)} leaves the float range"
        )
    return b


def _validate_tolerance(tolerance: float) -> float:
    if not (0.0 < tolerance <= _MAX_TOLERANCE):
        raise ValueError(
            f"tolerance must lie in (0, {_MAX_TOLERANCE}], got {tolerance!r}"
        )
    return float(tolerance)


def _validate_times(times) -> np.ndarray:
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if not (ts[0] >= 0.0 and np.all(np.diff(ts) >= 0.0)):
        raise ValueError("times must be non-negative and non-decreasing")
    return ts


def _warn_if_unphysical(rho_ll: np.ndarray, rho_lr: np.ndarray, slack: float) -> None:
    defect = _positivity_defect(rho_ll, rho_lr)
    worst = int(np.argmax(defect))
    if defect[worst] > slack:
        warnings.warn(
            f"evolved state left the physical set (worst defect "
            f"{defect[worst]:.3g}, at sample {worst}); the model "
            "parameterisation is not completely positive",
            PositivityWarning,
            stacklevel=3,
        )


def trajectory(
    model: DynamicsModel,
    initial: TwoLevelState,
    times: np.ndarray,
    tolerance: float = _DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = B y once and sample the state at the given times.

    Adaptive high-order Runge-Kutta with relative tolerance
    ``tolerance`` (must lie in (0, 1e-3]).  ``times`` must be
    non-negative and non-decreasing.  Returns arrays
    ``(rho_ll, rho_lr)`` aligned with ``times``.  Raises
    :class:`NumericalError` if the integrator cannot reach the last
    time; emits one :class:`PositivityWarning` when a sampled state
    drifts outside the physical set by more than the tolerance allows.
    """
    tol = _validate_tolerance(tolerance)
    ts = _validate_times(times)
    y0 = np.array([initial.rho_ll, initial.rho_lr.real, initial.rho_lr.imag])
    if ts[-1] == 0.0:
        y = np.repeat(y0[:, None], ts.size, axis=1)
    else:
        # library-only cross-check: no CLI path pays for scipy.integrate
        from scipy.integrate import solve_ivp

        b = _generator(model)
        sol = solve_ivp(
            lambda t, y: b @ y,
            (0.0, float(ts[-1])),
            y0,
            "DOP853",
            rtol=tol,
            atol=tol * 1e-3,
            t_eval=ts,
        )
        if not sol.success:
            raise NumericalError(
                f"integrator failed before reaching t={ts[-1]!r}: {sol.message}"
            )
        y = sol.y
    rho_ll, rho_lr = y[0], y[1] + 1j * y[2]
    _warn_if_unphysical(rho_ll, rho_lr, slack=100.0 * tol)
    return rho_ll, rho_lr


def evolve(
    model: DynamicsModel,
    initial: TwoLevelState,
    t: float,
    tolerance: float = _DEFAULT_TOLERANCE,
) -> TwoLevelState:
    """Integrated state at time ``t``: the last point of
    ``trajectory(model, initial, [t], tolerance)``."""
    rho_ll, rho_lr = trajectory(model, initial, [t], tolerance)
    return TwoLevelState(rho_ll[-1], rho_lr[-1], check=False)


def eigenvalue_branch(a: np.ndarray) -> str:
    """Classify the coherence generator's spectrum for reporting.

    Returns ``"real-distinct"``, ``"complex-pair"``, or ``"repeated"``
    (the last when the eigenvalues agree within 1e-9 times the matrix
    scale).  The solution itself never branches on this; it is a
    human-readable label for which primitive (two exponentials,
    exponential times sine/cosine, or exponential times polynomial)
    the closed form reduces to.
    """
    a = np.asarray(a, dtype=float)
    eigs = np.linalg.eigvals(a)
    tol = 1e-9 * max(1.0, float(np.linalg.norm(a)))
    if abs(eigs[0] - eigs[1]) <= tol:
        return "repeated"
    if abs(eigs[0].imag) > tol:
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


#: Padé-13 coefficients b_0..b_13 and the 1-norm bound theta_13 below which
#: the approximant meets double precision (Higham, SIAM J. Matrix Anal.
#: Appl. 26, 1179 (2005)).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
#: least norm the squaring count takes: keeps c = t / 2^s finite in b_1 c
_NORM_FLOOR = 2.0**-900
#: samples per pass of the exponential: bounds the working set
_BLOCK = 2048


def _mul(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-sample product of (n, 2, 2) blocks with (n, 2, k) block rows.

    Written out elementwise so that each sample's bits do not depend on
    the batch it sits in.
    """
    return m[:, :, :1] * rows[:, None, 0] + m[:, :, 1:] * rows[:, None, 1]


def _solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per-sample solution of (n, 2, 2) systems, partial pivoting."""
    swap = (np.abs(m[:, 1, 0]) > np.abs(m[:, 0, 0]))[:, None, None]
    m = np.where(swap, m[:, ::-1], m)
    rhs = np.where(swap, rhs[:, ::-1], rhs)
    factor = (m[:, 1, 0] / m[:, 0, 0])[:, None]
    y1 = (rhs[:, 1] - factor * rhs[:, 0]) / (m[:, 1, 1:] - factor * m[:, 0, 1:])
    y0 = (rhs[:, 0] - m[:, 0, 1:] * y1) / m[:, 0, :1]
    return np.stack([y0, y1], axis=1)


def _augmented_exp(a: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Top block row [exp(A t) | INT_0^t exp(A s) ds] of exp(M t) for
    M = [[A, I], [0, 0]], one (2, 4) row per time.

    Scaling and squaring with the Padé-13 approximant, each sample with
    its own s = max(0, ceil(log2(t |A|_1 / theta_13))).  Every power of
    X = c M (c = t / 2^s) has the top row [x^k | c x^(k-1)] with x = c A,
    so only top rows are carried: the approximant reduces to a 2x2
    solve, and a squaring of [[E, F], [0, I]] is [[E^2, E F + F], [0, I]].
    The integral block is c times a divided difference of the same
    approximant in x, so the error depends on |x|_1 alone and s comes
    from A, not M: the identity block of M would set the scale of a slow
    law, and the extra squarings would make the result depend on the
    unit of time.  The norm has a floor of 2^-900, so c stays below
    about 4.5e271 and b_1 c I stays finite: A = 0 takes s = 0 and gives
    [I | t I] up to that time, and past it F doubles exactly per squaring.
    """
    b = _PADE13
    norm = max(float(np.abs(a).sum(axis=0).max()), _NORM_FLOOR)
    s = np.ceil(np.log2(np.maximum(ts * norm / _THETA13, 1.0)))
    s = np.where(np.isfinite(s), s, 0.0).astype(int)
    c = np.ldexp(ts, -s)[:, None, None]
    x = c * a
    eye = np.broadcast_to(np.eye(2), x.shape)
    x2 = _mul(x, np.concatenate([x, c * eye], axis=2))  # [x^2 | c x]
    x4 = _mul(x2[:, :, :2], x2)
    x6 = _mul(x4[:, :, :2], x2)
    ident = np.concatenate([eye, np.zeros_like(x)], axis=2)
    w = _mul(x6[:, :, :2], b[13] * x6 + b[11] * x4 + b[9] * x2)
    w += b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    u = _mul(x, w)
    u[:, :, 2:] += b[1] * c * eye  # the c I corner of X times w's b_1 I
    v = _mul(x6[:, :, :2], b[12] * x6 + b[10] * x4 + b[8] * x2)
    v += b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    rhs = np.concatenate([v[:, :, :2] + u[:, :, :2], 2.0 * u[:, :, 2:]], axis=2)
    top = _solve(v[:, :, :2] - u[:, :, :2], rhs)
    for k in range(int(s.max())):
        squared = _mul(top[:, :, :2], top)
        squared[:, :, 2:] += top[:, :, 2:]
        top = np.where((k < s)[:, None, None], squared, top)
    return top


def spectral_trajectory(
    model: DynamicsModel, initial: TwoLevelState, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form states at the given times; same contract as
    :func:`trajectory`, for every model.

    The coherence pair evolves as f(t) = exp(A t) f(0) and the
    population row of B integrates it:

        rho_LL(t) = rho_LL(0) + 2 (mu1, -mu2) . INT_0^t exp(A s) ds f(0).

    Both the propagator and its integral come from one matrix
    exponential of the augmented block matrix [[A, I], [0, 0]] per time
    (the integral is its upper-right block).  The exponentials are one
    batched Padé-13 scaling and squaring with a per-time scaling, run
    in blocks of ``_BLOCK`` times; each time's result has the same bits
    alone as in any batch.  The form is branch-free across
    real-distinct, complex-pair, and repeated spectra; see
    :func:`eigenvalue_branch` for the report-only classification.  Emits
    at most one :class:`CoherenceGrowthWarning` and one
    :class:`PositivityWarning` per call.
    """
    ts = _validate_times(times)
    b = _generator(model)
    a = b[1:, 1:]
    _warn_if_growing(a)
    top = np.concatenate(
        [_augmented_exp(a, ts[i : i + _BLOCK]) for i in range(0, ts.size, _BLOCK)]
    )
    f0 = np.array([initial.rho_lr.real, initial.rho_lr.imag])
    f_t = top[:, :, 0] * f0[0] + top[:, :, 1] * f0[1]
    integral = top[:, :, 2] * f0[0] + top[:, :, 3] * f0[1]
    rho_ll = initial.rho_ll + (b[0, 1] * integral[:, 0] + b[0, 2] * integral[:, 1])
    rho_lr = f_t[:, 0] + 1j * f_t[:, 1]
    _warn_if_unphysical(rho_ll, rho_lr, slack=1e-9)
    return rho_ll, rho_lr


def spectral_solution(
    model: DynamicsModel, initial: TwoLevelState, t: float
) -> TwoLevelState:
    """Closed-form state at one time ``t``: the one-time view of
    :func:`spectral_trajectory`."""
    rho_ll, rho_lr = spectral_trajectory(model, initial, [t])
    return TwoLevelState(rho_ll[0], rho_lr[0], check=False)


def model_descriptor(model: DynamicsModel) -> str:
    """Short single-token description, e.g. for record headers:
    ``name(label=value;...)`` over the law's fields, in field order.

    Uses ``;`` between parameters so the result stays comma-free.
    """
    params = ";".join(
        f"{_LABELS.get(f.name, f.name)}={getattr(model, f.name)!r}" for f in fields(model)
    )
    return f"{model.name}({params})"
