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
suffices.

The two-packet interferometer state has a closed-form Wigner function:
two Gaussian lobes at q = -+ dx/2 plus an interference ridge at q = 0
whose fringes in p carry the arm coherence.  The coherence is read back
out through the position-space kernel recovered by the inverse (Weyl)
transform

    rho(x, y) = INT dp exp(i p (x - y) / hbar) W((x + y)/2, p).

The W row at a midpoint that is a q node is read straight off the grid
(the oracle's midpoint q = 0 is one); any other midpoint gets the
trigonometric interpolant along q, which is exact for the periodic
layout below.

Axes are uniform and endpoint-exclusive (periodic FFT layout).  All
quantities are unit-agnostic: the desk-scale oracle runs in
nondimensional units where the fringes are resolvable; SI
configurations would put ~1e32 fringe periods across any feasible grid,
so the scaled route is the only honest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValidationError, DomainError, GridError, NumericalError
from .gravity import two_ball_derivative

__all__ = [
    "WignerGrid",
    "HamiltonianField",
    "BracketOrder",
    "wigner_from_two_packets",
    "poisson_bracket",
    "potential_bracket",
    "moyal_bracket",
    "evolve_wigner",
    "weyl_density_matrix",
    "potential_commutator_term",
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
            raise GridError(
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

        The axis must lie strictly inside (-d1, d2), or the derivative
        raises :class:`DomainError`; the closed-form derivative ladder is
        exact at every order.
        """
        q = np.asarray(q_axis, dtype=float)
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
    *,
    n_q: int,
    n_p: int,
    q_span: tuple[float, float],
    p_span: tuple[float, float],
) -> WignerGrid:
    """Closed-form Wigner function of the two-arm state.

    The state is rho = (1/2)(|L><L| + |R><R|) + c |L><R| + conj(c)
    |R><L| with Gaussian packets of position spread ``packet_width`` at
    q = -+ ``arm_separation``/2 and ``c = coherence``:

        W(q, p) = (1/(2 pi hbar)) [G(q + a, p) + G(q - a, p)]
                  + (2/(pi hbar)) Re[c e^{i p dx / hbar}] G(q, p),

        G(q, p) = exp(-q^2/(2 sigma^2) - 2 sigma^2 p^2 / hbar^2),
        a = dx/2.

    The grid is ``n_q`` x ``n_p`` points over ``q_span`` x ``p_span``,
    endpoint-exclusive.  The arms must be effectively orthogonal
    (overlap <L|R> = exp(-dx^2 / (8 sigma^2)) below 1e-6), the q span
    must cover [-dx, dx], the p spacing must resolve the fringe
    wavevector dx/hbar at or above its Nyquist rate (a coarser grid
    would hold a silently aliased fringe), and the sampled grid must
    integrate to 1 within 1e-6.  Overlapping arms raise
    :class:`ConfigValidationError`; each other failure raises a
    :class:`GridError` that names it.
    """
    dx = float(arm_separation)
    sigma = float(packet_width)
    if dx <= 0.0 or sigma <= 0.0 or hbar <= 0.0:
        raise ValueError("arm_separation, packet_width, hbar must be positive")
    overlap = math.exp(-(dx * dx) / (8.0 * sigma * sigma))
    if overlap > _ORTHOGONALITY_THRESHOLD:
        raise ConfigValidationError(
            f"arm overlap <L|R> = {overlap:.3g} exceeds "
            f"{_ORTHOGONALITY_THRESHOLD}; the two-arm description needs "
            "separated packets (increase arm_separation/packet_width)"
        )
    c = complex(coherence)
    if abs(c) > 0.5 + 1e-12:
        raise ValueError("|coherence| cannot exceed 1/2 for unit-trace states")
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
            "(two samples per oscillation)"
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
    array bit for bit.  Raises :class:`GridError` if the field does not
    carry V^(2 n_max + 1).
    """
    _require_aligned(h, w)
    o = _as_order(order)
    if o.highest_derivative > h.max_order:
        raise GridError(
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
    :class:`NumericalError`.
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
        raise NumericalError(
            f"evolution stopped conserving probability (drift {drift:.3g})"
        )
    return out


# ------------------------------------------------------------- transforms


def _rows_at(w: WignerGrid, q: np.ndarray) -> np.ndarray:
    """W(q, p) rows at the points ``q``, shape ``q.shape + (n_p,)``.

    A point that equals a q node reads that row of ``w.values``.  Any
    other point takes the trigonometric interpolant along q: one rfft of
    W along q, then a (points, n_q//2 + 1) basis times the spectrum,
    with the Nyquist term of an even-length axis as a cosine.  That is
    exact for rows band-limited on the periodic, endpoint-exclusive
    axis.
    """
    flat = q.ravel()
    n = w.q_axis.size
    index = np.minimum(np.searchsorted(w.q_axis, flat), n - 1)
    on_grid = w.q_axis[index] == flat
    rows = np.empty((flat.size, w.p_axis.size))
    rows[on_grid] = w.values[index[on_grid]]
    if not on_grid.all():
        spectrum = np.fft.rfft(w.values, axis=0)  # (n//2 + 1, n_p)
        k = np.arange(spectrum.shape[0])
        steps = (flat[~on_grid] - w.q_axis[0]) / w.dq
        basis = np.exp(2j * math.pi / n * np.multiply.outer(steps, k))
        weight = np.full(k.size, 2.0 / n)
        weight[0] = 1.0 / n
        if n % 2 == 0:
            weight[-1] = 1.0 / n
            basis[:, -1] = basis[:, -1].real
        rows[~on_grid] = ((basis * weight) @ spectrum).real
    return rows.reshape(q.shape + (w.p_axis.size,))


def weyl_density_matrix(w: WignerGrid, x, y):
    """Position kernel rho(x, y) recovered from the grid.

    rho(x, y) = INT dp e^{i p (x - y)/hbar} W((x+y)/2, p), with the p
    integral done on the grid.  The W row at (x+y)/2 is the grid row
    when the midpoint is exactly a q node (bit for bit the stored
    values), and the trigonometric interpolant along q otherwise.
    ``x`` and ``y`` broadcast; midpoints outside the q axis raise
    :class:`GridError`.
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
    rows = _rows_at(w, mid)  # (..., n_p)
    phases = np.exp(1j * np.multiply.outer(sep, w.p_axis) / w.hbar)
    out = (rows * phases).sum(axis=-1) * w.dp
    return out if out.ndim else complex(out)


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
    callable (x, y) -> complex; V' is a cubic spline of the field's
    samples (V' is not periodic on the grid, so the trigonometric
    interpolant of :func:`weyl_density_matrix` would not fit it).
    Midpoints outside the axis raise :class:`DomainError`.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    mid = 0.5 * (xv + yv)
    if np.any(mid < h.q_axis[0]) or np.any(mid > h.q_axis[-1]):
        raise DomainError("midpoint (x+y)/2 outside the sampled potential axis")
    # library-only cross-check: no CLI path pays for scipy.interpolate
    from scipy.interpolate import CubicSpline

    v1 = CubicSpline(h.q_axis, h.derivative(1))(mid)
    out = (xv - yv) / (1j * hbar) * v1 * rho_kernel(xv, yv)
    return out if np.ndim(out) else complex(out)
