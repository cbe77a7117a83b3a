"""Phase-space (Wigner) representation and its grid dynamics.

Everything the two-state picture asserts can be rederived with no basis
truncation by evolving the Wigner function W(q, p) of the full state on
a grid.  For H = p^2/2m + V(q) the quantum (Moyal) tangent is the
classical Poisson bracket plus odd-derivative potential corrections,

    dW/dt = V'(q) dW/dp - (p/m) dW/dq
            + sum_{n>=1} (-1)^n hbar^(2n) / (4^n (2n+1)!)
              * V^(2n+1)(q) * d^(2n+1)W/dp^(2n+1),

truncated at order n_max (n_max = 0 is classical transport).

All grid dynamics follows from one object.  After an rfft along p,
every potential term is diagonal in (q, k_p): the truncated tangent is
the multiplier i Omega(q, k_p) with the real generator

    Omega = V'(q) k + sum_{n=1}^{n_max} hbar^(2n) / (4^n (2n+1)!)
                      * V^(2n+1)(q) * k^(2n+1),

the truncated expansion of [V(q + hbar k/2) - V(q - hbar k/2)] / hbar.
Likewise the streaming term is i times -k_q p / m after an rfft along
q.  Brackets apply i Omega; held packets (no streaming) evolve exactly
by exp(t i Omega), with no time step; streaming runs use the Strang
split of the two exact propagators (Feit, Fleck & Steiger 1982;
Cabrera, Bondar, Jacobs & Rabitz 2015).  Omega vanishes at k = 0, so
every row integral, and with it total probability, is conserved, and
every propagator has unit modulus.

The series terminates for quadratic potentials (quantum = classical
transport there, exactly: the corrections add zeros to Omega) and
converges geometrically for the two-ball potential, each order smaller
by roughly (arm separation / 2 distance)^2, so a small truncation order
suffices and the truncated tail is reported, not guessed.

The two-packet interferometer state has a closed-form Wigner function:
two Gaussian lobes at q = -+ dx/2 plus an interference ridge at q = 0
whose fringes in p carry the arm coherence.  The coherence is read back
out by the trace rule (overlap against the conjugate cross kernel), and
independently through the position-space kernel recovered by the
inverse (Weyl) transform

    rho(x, y) = INT dp exp(i p (x - y) / hbar) W((x + y)/2, p).

Axes are uniform and endpoint-exclusive (periodic FFT layout).  All
quantities are unit-agnostic: the desk-scale oracle runs in
nondimensional units where the fringes are resolvable; SI
configurations would put ~1e32 fringe periods across any feasible grid,
so the scaled route is the only honest one.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    DerivativeOrderError,
    DomainError,
    GridError,
    InstabilityError,
    NonOrthogonalPacketsError,
)
from .gravity import two_ball_derivative

__all__ = [
    "WignerGrid",
    "HamiltonianField",
    "BracketOrder",
    "wigner_from_two_packets",
    "poisson_bracket",
    "potential_bracket",
    "moyal_bracket",
    "truncation_tail_ratio",
    "evolve_wigner",
    "weyl_density_matrix",
    "arm_coherence",
    "coherence_from_kernel",
    "potential_commutator_term",
    "save_grid",
    "load_grid",
]

_ORTHOGONALITY_THRESHOLD = 1e-6
_NORMALIZATION_SLACK = 1e-6
_EVOLUTION_NORM_SLACK = 1e-5


def _check_uniform(axis: np.ndarray, name: str) -> float:
    steps = np.diff(axis)
    if axis.ndim != 1 or axis.size < 8:
        raise GridError(f"{name} axis must be 1-d with at least 8 points")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise GridError(f"{name} axis must be uniform")
    return float(steps[0])


@dataclass(frozen=True)
class WignerGrid:
    """A Wigner function sampled on a uniform rectangular grid.

    ``values[i, j]`` is W(q_axis[i], p_axis[j]).  Axes are uniform and
    endpoint-exclusive; ``hbar`` fixes the quantum scale of the state
    (transforms and Moyal corrections read it from here); ``time``
    stamps the snapshot.
    """

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    hbar: float = 1.0
    time: float = 0.0

    def __post_init__(self) -> None:
        q = np.asarray(self.q_axis, dtype=float)
        p = np.asarray(self.p_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "q_axis", q)
        object.__setattr__(self, "p_axis", p)
        object.__setattr__(self, "values", v)
        _check_uniform(q, "q")
        _check_uniform(p, "p")
        if v.shape != (q.size, p.size):
            raise GridError(
                f"values shape {v.shape} does not match axes "
                f"({q.size}, {p.size})"
            )
        if not self.hbar > 0.0:
            raise GridError("hbar must be strictly positive")

    @property
    def dq(self) -> float:
        return float(self.q_axis[1] - self.q_axis[0])

    @property
    def dp(self) -> float:
        return float(self.p_axis[1] - self.p_axis[0])

    def norm(self) -> float:
        """Total probability: the grid integral of W."""
        return float(self.values.sum() * self.dq * self.dp)

    def position_marginal(self) -> np.ndarray:
        """|psi(q)|^2 samples: integral of W over p."""
        return self.values.sum(axis=1) * self.dp

    def momentum_marginal(self) -> np.ndarray:
        return self.values.sum(axis=0) * self.dq


@dataclass(frozen=True)
class BracketOrder:
    """Truncation order of the Moyal correction series.

    ``n_max = 0`` keeps only the Poisson bracket; ``n_max = n`` keeps
    corrections up to the hbar^(2n) term (which involves the potential
    derivative of order 2n + 1).
    """

    n_max: int = 3

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, int) or self.n_max < 0:
            raise ValueError("n_max must be a non-negative integer")

    @property
    def highest_derivative(self) -> int:
        return 2 * self.n_max + 1


def _as_order(order: BracketOrder | int) -> BracketOrder:
    return order if isinstance(order, BracketOrder) else BracketOrder(int(order))


@dataclass(frozen=True)
class HamiltonianField:
    """H = p^2 / (2 mass) + V(q), carried by the derivatives of V.

    Transport only ever needs V' and higher, so ``derivatives[k - 1]``
    holds V^(k) on ``q_axis`` for k = 1 ... ``max_order`` and V itself
    is not stored.  Constructors fill the rows from closed forms.
    """

    mass: float
    q_axis: np.ndarray
    derivatives: np.ndarray  # shape (max_order, n_q)

    def __post_init__(self) -> None:
        q = np.asarray(self.q_axis, dtype=float)
        object.__setattr__(self, "q_axis", q)
        object.__setattr__(
            self, "derivatives", np.asarray(self.derivatives, dtype=float)
        )
        if not self.mass > 0.0:
            raise ValueError("mass must be strictly positive")
        _check_uniform(q, "q")
        if self.derivatives.ndim != 2 or self.derivatives.shape[1] != q.size:
            raise GridError("derivative rows must match the q axis")

    @property
    def max_order(self) -> int:
        return int(self.derivatives.shape[0])

    def derivative(self, order: int) -> np.ndarray:
        if not 1 <= order <= self.max_order:
            raise DerivativeOrderError(
                f"V^({order}) requested but the field carries orders "
                f"1..{self.max_order}"
            )
        return self.derivatives[order - 1]

    @classmethod
    def from_two_ball(
        cls,
        q_axis: np.ndarray,
        mass: float,
        coupling_left: float,
        coupling_right: float,
        dist_left: float,
        dist_right: float,
        max_order: int = 7,
    ) -> "HamiltonianField":
        """Two-ball field -g1/(d1+q) - g2/(d2-q) on the axis.

        The axis must lie strictly inside (-d1, d2); the closed-form
        derivative ladder is exact at every order.
        """
        q = np.asarray(q_axis, dtype=float)
        if q[0] <= -dist_left or q[-1] >= dist_right:
            raise DomainError(
                "grid reaches a ball centre: the q axis must lie inside "
                f"(-{dist_left!r}, {dist_right!r})"
            )
        rows = [
            two_ball_derivative(
                q, coupling_left, coupling_right, dist_left, dist_right, order=k
            )
            for k in range(1, max_order + 1)
        ]
        return cls(mass, q, np.vstack(rows))

    @classmethod
    def from_quadratic(
        cls,
        q_axis: np.ndarray,
        mass: float,
        curvature: float = 0.0,
        slope: float = 0.0,
        max_order: int = 7,
    ) -> "HamiltonianField":
        """V(q) = curvature * q^2 + slope * q (all higher derivatives 0)."""
        q = np.asarray(q_axis, dtype=float)
        rows = np.zeros((max_order, q.size))
        rows[0] = 2.0 * curvature * q + slope
        if max_order >= 2:
            rows[1] = 2.0 * curvature
        return cls(mass, q, rows)


def _require_aligned(h: HamiltonianField, w: WignerGrid) -> None:
    if h.q_axis.shape != w.q_axis.shape or not np.allclose(
        h.q_axis, w.q_axis, rtol=1e-12, atol=0.0
    ):
        raise GridError("Hamiltonian field and Wigner grid q axes differ")


# ------------------------------------------------------------ two packets


def wigner_from_two_packets(
    arm_separation: float,
    packet_width: float,
    coherence: complex,
    hbar: float = 1.0,
    n_q: int = 512,
    n_p: int = 512,
    q_span: tuple[float, float] | None = None,
    p_span: tuple[float, float] | None = None,
) -> WignerGrid:
    """Closed-form Wigner function of the two-arm state.

    The state is rho = (1/2)(|L><L| + |R><R|) + c |L><R| + conj(c)
    |R><L| with Gaussian packets of position spread ``packet_width`` at
    q = -+ ``arm_separation``/2 and ``c = coherence``:

        W(q, p) = (1/(2 pi hbar)) [G(q + a, p) + G(q - a, p)]
                  + (2/(pi hbar)) Re[c e^{i p dx / hbar}] G(q, p),

        G(q, p) = exp(-q^2/(2 sigma^2) - 2 sigma^2 p^2 / hbar^2),
        a = dx/2.

    Defaults: q spans +-1.5 dx, p spans +-8 hbar/sigma, 512 x 512.
    The arms must be effectively orthogonal (overlap <L|R> =
    exp(-dx^2 / (8 sigma^2)) below 1e-6), the q span must cover
    [-dx, dx], the p spacing must resolve the fringe wavevector
    dx/hbar at or above its Nyquist rate (a coarser grid would hold a
    silently aliased fringe), and the sampled grid must integrate to 1
    within 1e-6; each failure is a distinct error.
    """
    dx = float(arm_separation)
    sigma = float(packet_width)
    if dx <= 0.0 or sigma <= 0.0 or hbar <= 0.0:
        raise ValueError("arm_separation, packet_width, hbar must be positive")
    overlap = math.exp(-(dx * dx) / (8.0 * sigma * sigma))
    if overlap > _ORTHOGONALITY_THRESHOLD:
        raise NonOrthogonalPacketsError(
            f"arm overlap <L|R> = {overlap:.3g} exceeds "
            f"{_ORTHOGONALITY_THRESHOLD}; the two-arm description needs "
            "separated packets (increase arm_separation/packet_width)"
        )
    c = complex(coherence)
    if abs(c) > 0.5 + 1e-12:
        raise ValueError("|coherence| cannot exceed 1/2 for unit-trace states")
    if q_span is None:
        q_span = (-1.5 * dx, 1.5 * dx)
    if p_span is None:
        p_span = (-8.0 * hbar / sigma, 8.0 * hbar / sigma)
    q_lo, q_hi = map(float, q_span)
    if q_lo > -dx or q_hi < dx:
        raise GridError(
            f"q span [{q_lo!r}, {q_hi!r}] too small: it must cover "
            f"[-{dx!r}, {dx!r}] to contain both lobes"
        )
    q = q_lo + (q_hi - q_lo) * np.arange(n_q) / n_q
    p_lo, p_hi = map(float, p_span)
    dp = (p_hi - p_lo) / n_p
    fringe_limit = math.pi * hbar / dx
    if dp > fringe_limit * (1.0 + 1e-12):
        raise GridError(
            f"momentum spacing {dp!r} cannot resolve the interference "
            f"fringe: need dp <= pi*hbar/separation = {fringe_limit!r} "
            "(two samples per oscillation; the default grid gives four "
            "or more)"
        )
    p = p_lo + (p_hi - p_lo) * np.arange(n_p) / n_p

    a = dx / 2.0
    qq = q[:, None]
    pp = p[None, :]
    p_envelope = np.exp(-2.0 * sigma * sigma * pp * pp / (hbar * hbar))
    lobe_l = np.exp(-((qq + a) ** 2) / (2.0 * sigma * sigma))
    lobe_r = np.exp(-((qq - a) ** 2) / (2.0 * sigma * sigma))
    ridge = np.exp(-(qq * qq) / (2.0 * sigma * sigma))
    cross_phase = (c * np.exp(1j * pp * dx / hbar)).real
    values = (
        (0.5 * (lobe_l + lobe_r) + 2.0 * ridge * cross_phase)
        * p_envelope
        / (math.pi * hbar)
    )
    grid = WignerGrid(q, p, values, hbar=hbar)
    drift = abs(grid.norm() - 1.0)
    if drift > _NORMALIZATION_SLACK:
        raise GridError(
            f"sampled state integrates to 1{drift:+.2e}; the grid is too "
            "small or too coarse for this packet geometry"
        )
    return grid


# -------------------------------------------------------------- generator


def _wavenumbers(n: int, step: float) -> np.ndarray:
    """Angular rfft wavenumbers of an n-point axis, Nyquist mode zeroed.

    The Nyquist mode of an even-length real signal carries no sign
    information for odd derivatives, so it is given wavenumber 0: it
    neither enters a bracket nor moves under a propagator (standard
    choice; the fields here decay to ~1e-14 at the grid edge anyway).
    """
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=step)
    if n % 2 == 0:
        k[-1] = 0.0
    return k


def _along(values: np.ndarray, multiplier: np.ndarray, axis: int) -> np.ndarray:
    """irfft(rfft(values) * multiplier) along one axis."""
    n = values.shape[axis]
    spectrum = np.fft.rfft(values, axis=axis)
    return np.fft.irfft(spectrum * multiplier, n=n, axis=axis)


def _generator(
    h: HamiltonianField, w: WignerGrid, order: BracketOrder | int
) -> np.ndarray:
    """Real (n_q, n_p//2 + 1) generator Omega(q, k) of potential transport.

    After one rfft along p the potential part of the order-n_max
    bracket is the diagonal multiplier i Omega, with

        Omega = V'(q) k + sum_{n=1}^{n_max} hbar^(2n) / (4^n (2n+1)!)
                          * V^(2n+1)(q) * k^(2n+1),

    the truncated expansion of [V(q + hbar k/2) - V(q - hbar k/2)] / hbar.
    Corrections whose potential derivative vanishes add exact zeros,
    so for quadratic potentials every order returns the n_max = 0
    array bit for bit.  Raises :class:`DerivativeOrderError` if the
    field does not carry V^(2 n_max + 1).
    """
    _require_aligned(h, w)
    o = _as_order(order)
    if o.highest_derivative > h.max_order:
        raise DerivativeOrderError(
            f"n_max={o.n_max} needs V^({o.highest_derivative}) but the "
            f"field carries orders 1..{h.max_order}"
        )
    k = _wavenumbers(w.p_axis.size, w.dp)
    omega = h.derivative(1)[:, None] * k
    for n in range(1, o.n_max + 1):
        coefficient = w.hbar ** (2 * n) / (4.0**n * math.factorial(2 * n + 1))
        omega += (coefficient * h.derivative(2 * n + 1))[:, None] * k ** (2 * n + 1)
    return omega


def _shear_generator(h: HamiltonianField, w: WignerGrid) -> np.ndarray:
    """Real (n_q//2 + 1, n_p) generator -k_q p / m of free streaming.

    After one rfft along q the streaming term -(p/m) dW/dq of the
    bracket is the diagonal multiplier i times this array.
    """
    k = _wavenumbers(w.q_axis.size, w.dq)
    return -k[:, None] * (w.p_axis[None, :] / h.mass)


# -------------------------------------------------------------- brackets


def moyal_bracket(
    h: HamiltonianField,
    w: WignerGrid,
    order: BracketOrder | int = BracketOrder(),
    include_kinetic: bool = True,
) -> np.ndarray:
    """Quantum tangent: Poisson bracket plus Moyal corrections.

    irfft(rfft(W) * i Omega) along p, plus the streaming term unless
    ``include_kinetic=False`` (held packets: the trap freezes packet
    motion, leaving pure phase dynamics per q row).  ``n_max = 0`` is
    :func:`poisson_bracket`, and for potentials with vanishing third
    and higher derivatives every order returns the classical tangent
    bit for bit.
    """
    tangent = _along(w.values, 1j * _generator(h, w, order), axis=1)
    if include_kinetic:
        tangent += _along(w.values, 1j * _shear_generator(h, w), axis=0)
    return tangent


def potential_bracket(h: HamiltonianField, w: WignerGrid) -> np.ndarray:
    """Classical potential transport V'(q) dW/dp."""
    return moyal_bracket(h, w, 0, include_kinetic=False)


def poisson_bracket(h: HamiltonianField, w: WignerGrid) -> np.ndarray:
    """Classical Liouville tangent {H, W} (plain ndarray, W-shaped)."""
    return moyal_bracket(h, w, 0)


def truncation_tail_ratio(
    h: HamiltonianField,
    w: WignerGrid,
    order: BracketOrder | int,
    include_kinetic: bool = True,
) -> float:
    """Size of the last kept correction relative to the full tangent.

    L1-norm ratio ||term_{n_max}|| / ||tangent||, the term being the
    difference of the order-n_max and order-(n_max - 1) brackets; with
    the geometric decay of the series this bounds the discarded tail to
    within a factor ~1/(1 - ratio).  For n_max = 0 the first *discarded*
    term is reported instead (when the field carries V''').  Returns 0
    when corrections vanish identically (quadratic potentials).  Pass
    ``include_kinetic=False`` for held-packet runs so the streaming
    term does not dilute the denominator.
    """
    o = _as_order(order)
    tangent = moyal_bracket(h, w, o, include_kinetic=include_kinetic)
    scale = float(np.abs(tangent).sum())
    if scale == 0.0:
        return 0.0
    if o.n_max == 0:
        if h.max_order < 3:
            return 0.0
        last = moyal_bracket(h, w, 1, include_kinetic=include_kinetic) - tangent
    else:
        last = tangent - moyal_bracket(
            h, w, o.n_max - 1, include_kinetic=include_kinetic
        )
    return float(np.abs(last).sum() / scale)


# -------------------------------------------------------------- evolution


def evolve_wigner(
    h: HamiltonianField,
    w: WignerGrid,
    order: BracketOrder | int,
    t: float,
    dt: float | None = None,
    hold_packets: bool = False,
) -> WignerGrid:
    """Propagate dW/dt = bracket(H, W) for time ``t``.

    ``order`` selects the bracket (0 = classical transport, n >= 1 =
    quantum with corrections).  Both propagators are products of
    unit-modulus multipliers, so neither can blow up:

    * held packets (``hold_packets=True``): the exact solution
      irfft(rfft(W) * exp(t i Omega)) along p, one multiplication with
      no time step; passing ``dt`` is an error.
    * streaming: Strang splitting with step ``dt`` (required; shrunk
      to t / ceil(t / dt) so that equal steps tile ``t``).  Each step is
      a half potential step exp(dt/2 i Omega) in (q, k_p), the exact
      kinetic shear exp(-i k_q p dt / m) in (k_q, p), and another half
      potential step; the splitting error over a fixed time is O(dt^2).

    A final probability drift beyond 1e-5 raises
    :class:`InstabilityError`.
    """
    _require_aligned(h, w)
    if t < 0.0:
        raise ValueError("evolution time must be non-negative")
    if hold_packets and dt is not None:
        raise ValueError("dt applies to streaming runs only; held evolution is exact")
    if not hold_packets and (dt is None or not dt > 0.0):
        raise ValueError("streaming evolution needs a positive Strang step dt")
    if t == 0.0:
        return w
    omega = _generator(h, w, order)
    if hold_packets:
        values = _along(w.values, np.exp(1j * t * omega), axis=1)
    else:
        n_steps = max(1, math.ceil(t / dt - 1e-12))
        step = t / n_steps
        half = np.exp(0.5j * step * omega)
        shear = np.exp(1j * step * _shear_generator(h, w))
        values = w.values
        for _ in range(n_steps):
            values = _along(values, half, axis=1)
            values = _along(values, shear, axis=0)
            values = _along(values, half, axis=1)
    out = WignerGrid(w.q_axis, w.p_axis, values, hbar=w.hbar, time=w.time + t)
    drift = abs(out.norm() - w.norm())
    if not drift <= _EVOLUTION_NORM_SLACK:
        raise InstabilityError(
            f"evolution stopped conserving probability (drift {drift:.3g})"
        )
    return out


# ------------------------------------------------------------- transforms


def weyl_density_matrix(w: WignerGrid, x, y):
    """Position kernel rho(x, y) recovered from the grid.

    rho(x, y) = INT dp e^{i p (x - y)/hbar} W((x+y)/2, p), with the
    W row at (x+y)/2 obtained by cubic interpolation along q and the
    p integral done on the grid.  ``x`` and ``y`` broadcast; midpoints
    outside the q axis raise :class:`GridError`.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    mid = 0.5 * (xv + yv)
    sep = xv - yv
    if np.any(mid < w.q_axis[0]) or np.any(mid > w.q_axis[-1]):
        raise GridError(
            "midpoint (x+y)/2 outside the grid's q axis; the kernel there "
            "is not represented"
        )
    spline = CubicSpline(w.q_axis, w.values, axis=0)
    rows = spline(mid)  # (..., n_p)
    phases = np.exp(1j * np.multiply.outer(sep, w.p_axis) / w.hbar)
    out = (rows * phases).sum(axis=-1) * w.dp
    return out if out.ndim else complex(out)


def arm_coherence(
    w: WignerGrid, arm_separation: float, packet_width: float
) -> complex:
    """Read <L| rho |R> back off the grid by the trace rule.

    tr(rho |R><L|) = 2 pi hbar INT W_rho W_{|R><L|}, and the conjugate
    cross kernel is Gaussian, so

        c = 2 INT dq dp W(q, p) e^{-q^2/(2 sigma^2) - 2 sigma^2 p^2 /
            hbar^2} e^{-i p dx / hbar}.

    Exact (up to quadrature) for any state, not just two-packet ones;
    for the synthesised state it returns the input coherence.
    """
    dx = float(arm_separation)
    sigma = float(packet_width)
    qq = w.q_axis[:, None]
    pp = w.p_axis[None, :]
    kernel = np.exp(
        -(qq * qq) / (2.0 * sigma * sigma)
        - 2.0 * sigma * sigma * pp * pp / (w.hbar * w.hbar)
    ) * np.exp(-1j * pp * dx / w.hbar)
    return complex(2.0 * (w.values * kernel).sum() * w.dq * w.dp)


def coherence_from_kernel(
    w: WignerGrid,
    arm_separation: float,
    packet_width: float,
    n_quad: int = 96,
    half_width_sigmas: float = 6.0,
) -> complex:
    """Independent coherence probe through the position kernel.

    Computes <L| rho |R> = INT dx dy psi_L(x) rho(x, y) psi_R(y) with
    rho recovered by :func:`weyl_density_matrix` and trapezoid
    quadrature over +-``half_width_sigmas`` packet widths around each
    arm.  Slower than :func:`arm_coherence` and routed through the
    inverse transform instead of the trace rule, which is exactly what
    makes it a useful cross-check.
    """
    dx = float(arm_separation)
    sigma = float(packet_width)
    a = dx / 2.0
    half = half_width_sigmas * sigma
    xs = np.linspace(-a - half, -a + half, n_quad)
    ys = np.linspace(a - half, a + half, n_quad)
    norm = (2.0 * math.pi * sigma * sigma) ** -0.25
    psi_l = norm * np.exp(-((xs + a) ** 2) / (4.0 * sigma * sigma))
    psi_r = norm * np.exp(-((ys - a) ** 2) / (4.0 * sigma * sigma))
    kernel = weyl_density_matrix(w, xs[:, None], ys[None, :])
    integrand = psi_l[:, None] * kernel * psi_r[None, :]
    inner = np.trapezoid(integrand, ys, axis=1)
    return complex(np.trapezoid(inner, xs))


def potential_commutator_term(
    h: HamiltonianField,
    rho_kernel,
    x,
    y,
    hbar: float = 1.0,
):
    """Position-space image of the classical potential transport.

    (x - y) / (i hbar) * V'((x+y)/2) * rho(x, y): the first-order term
    of the von Neumann commutator [V, rho], which the Weyl transform of
    :func:`potential_bracket` must reproduce.  ``rho_kernel`` is any
    callable (x, y) -> complex; V' is interpolated from the field's
    samples.  Midpoints outside the axis raise :class:`DomainError`.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    mid = 0.5 * (xv + yv)
    if np.any(mid < h.q_axis[0]) or np.any(mid > h.q_axis[-1]):
        raise DomainError("midpoint (x+y)/2 outside the sampled potential axis")
    v1 = CubicSpline(h.q_axis, h.derivative(1))(mid)
    out = (xv - yv) / (1j * hbar) * v1 * rho_kernel(xv, yv)
    return out if np.ndim(out) else complex(out)


# ----------------------------------------------------------------- files

_MAGIC = b"WGRD"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQdddddd")  # magic, ver, n_q, n_p, q0,dq,p0,dp,hbar,time


def save_grid(w: WignerGrid, path: str | Path) -> None:
    """Write a grid as little-endian float64 with a fixed header.

    Layout: magic ``WGRD``, u32 version, u64 n_q, u64 n_p, f64 q0, dq,
    p0, dp, hbar, time, then n_q * n_p row-major f64 values.  A text
    sidecar ``<path>.meta`` mirrors the header for eyeballing.
    """
    path = Path(path)
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        w.q_axis.size,
        w.p_axis.size,
        float(w.q_axis[0]),
        w.dq,
        float(w.p_axis[0]),
        w.dp,
        w.hbar,
        w.time,
    )
    with path.open("wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(w.values, dtype="<f8").tobytes())
    sidecar = [
        f"format = WGRD v{_VERSION}",
        f"n_q = {w.q_axis.size}",
        f"n_p = {w.p_axis.size}",
        f"q_start = {float(w.q_axis[0])!r}",
        f"dq = {w.dq!r}",
        f"p_start = {float(w.p_axis[0])!r}",
        f"dp = {w.dp!r}",
        f"hbar = {w.hbar!r}",
        f"time = {w.time!r}",
        "layout = row-major float64 little-endian, q rows",
    ]
    Path(str(path) + ".meta").write_text("\n".join(sidecar) + "\n")


def load_grid(path: str | Path) -> WignerGrid:
    """Read a grid written by :func:`save_grid`."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise GridError(f"{path}: truncated header")
    magic, version, n_q, n_p, q0, dq, p0, dp, hbar, time = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise GridError(f"{path}: not a Wigner grid file (bad magic {magic!r})")
    if version != _VERSION:
        raise GridError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * n_q * n_p
    if len(raw) != expected:
        raise GridError(
            f"{path}: size {len(raw)} does not match header "
            f"({n_q} x {n_p} grid needs {expected})"
        )
    values = (
        np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
        .reshape(n_q, n_p)
        .astype(float)
    )
    q = q0 + dq * np.arange(n_q)
    p = p0 + dp * np.arange(n_p)
    return WignerGrid(q, p, values, hbar=hbar, time=time)
