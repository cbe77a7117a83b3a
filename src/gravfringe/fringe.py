"""Fringe records: synthesis, storage, and damped-fringe estimation.

The interferometric observable is the probability of detecting the
particle in the symmetric output port,

    S(t) = 1/2 + Re rho_LR(t),

so every model in :mod:`gravfringe.twostate` predicts a damped fringe

    S(t) = 1/2 + (C/2) exp(-lambda t) cos(omega t + phi)

with contrast C, decay rate lambda and fringe frequency omega.  This
module synthesises such records (optionally with additive Gaussian
noise), writes and reads them as CSV, and recovers (lambda, omega, C)
with uncertainties by nonlinear least squares seeded from a
periodogram.  The CSV sample table streams both ways: the writer
formats fixed blocks of rows, and the reader hands the open file to
numpy's C tokenizer, so neither builds a Python object per sample.

Records are deterministic functions of (model, times, noise_sd, seed):
the same seed always reproduces the same noise stream, and a noiseless
record never touches the generator at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .config import _check_keys, _parse_flat_document, _render_flat, _write_atomic
from .errors import ConfigParseError, NumericalError, RecordError
from .twostate import (
    PLUS_STATE,
    DynamicsModel,
    GeneralLinear,
    model_descriptor,
    spectral_trajectory,
)

__all__ = [
    "FringeRecord",
    "FitResult",
    "synthesize_record",
    "write_record",
    "read_record",
    "fit_damped_fringe",
    "write_fit_result",
    "read_fit_result",
]


@dataclass(frozen=True)
class FringeRecord:
    """A sampled interferometer signal.

    ``population`` (the left-arm population track) is present only when
    the generating model moves populations, i.e. the general linear
    model.  ``model`` is a short descriptor string recorded for
    provenance; ``noise_sd`` is the standard deviation of the additive
    Gaussian noise (finite and non-negative, 0 for noiseless records) and
    ``seed`` the generator seed actually used (None for noiseless
    records).
    """

    times: np.ndarray
    signal: np.ndarray
    population: np.ndarray | None = None
    model: str = "unknown"
    seed: int | None = None
    noise_sd: float = 0.0

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        signal = np.asarray(self.signal, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "signal", signal)
        if times.ndim != 1 or times.size < 2:
            raise RecordError("a record needs a 1-d time axis with >= 2 samples")
        if signal.shape != times.shape:
            raise RecordError("signal and times must have matching shapes")
        columns = {"times": times, "signal": signal}
        if self.population is not None:
            population = np.asarray(self.population, dtype=float)
            object.__setattr__(self, "population", population)
            if population.shape != times.shape:
                raise RecordError("population and times must have matching shapes")
            columns["population"] = population
        for name, column in columns.items():
            if not np.all(np.isfinite(column)):
                raise RecordError(f"record {name} column holds non-finite values")
        if np.any(np.diff(times) <= 0.0):
            raise RecordError("record times must be strictly increasing")
        # the header line is comma-separated and its values are stripped
        if (
            "," in self.model
            or self.model != self.model.strip()
            or "".join(self.model.splitlines()) != self.model
        ):
            raise RecordError(
                f"record model {self.model!r} must hold no comma, no line "
                "break and no leading or trailing whitespace"
            )
        try:
            self.model.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError(
                f"record model {self.model!r} does not encode as UTF-8"
            ) from None
        if not 0.0 <= self.noise_sd < math.inf:
            raise RecordError(
                f"record noise_sd must be finite and non-negative, got "
                f"{self.noise_sd!r}"
            )
        if self.noise_sd == 0.0:
            # a noiseless signal is a probability
            if np.any(signal < -1e-9) or np.any(signal > 1.0 + 1e-9):
                raise RecordError(
                    "noiseless signal leaves [0, 1]; the record is inconsistent "
                    "with noise_sd = 0"
                )

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


def synthesize_record(
    model: DynamicsModel,
    times,
    noise_sd: float = 0.0,
    seed: int | None = None,
) -> FringeRecord:
    """Sample a model's fringe signal at the given times.

    The state starts in :data:`PLUS_STATE`, the equal superposition
    the interferometer prepares.  The closed form
    :func:`spectral_trajectory` gives every model's track in one call;
    the population track is included in the record for the general
    linear model only, the one law that moves it.
    Gaussian noise of standard deviation ``noise_sd`` is added from a
    fresh ``default_rng(seed)``; a ``noise_sd`` of zero produces a fully
    deterministic record and records ``seed=None``.  A trajectory that
    overflows the float range (a fast-growing mode over a long record)
    raises :class:`NumericalError` and emits no warning; otherwise the
    trajectory's :class:`CoherenceGrowthWarning` and
    :class:`PositivityWarning`, if any, are issued from the caller's line.
    """
    if not noise_sd >= 0.0:
        raise ValueError("noise_sd must be non-negative")
    ts = np.asarray(times, dtype=float)
    # an overflow is reported below, as the non-finite column it leaves;
    # the trajectory's warnings wait until the track is known to be finite,
    # whatever the caller's filters would do with them
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings(
        record=True
    ) as held:
        warnings.simplefilter("always")
        population, coherence = spectral_trajectory(model, PLUS_STATE, ts)
        signal = 0.5 + coherence.real
    if not isinstance(model, GeneralLinear):
        population = None
    for name, column in (("signal", signal), ("population", population)):
        if column is not None and not np.all(np.isfinite(column)):
            raise NumericalError(
                f"the {name} track of {model_descriptor(model)} leaves the "
                "float range within the record"
            )
    for caught in held:
        warnings.warn(caught.message, stacklevel=2)
    used_seed: int | None = None
    if noise_sd > 0.0:
        used_seed = 0 if seed is None else int(seed)
        rng = np.random.default_rng(used_seed)
        signal = signal + rng.normal(0.0, noise_sd, size=signal.shape)
    return FringeRecord(
        times=ts,
        signal=signal,
        population=population,
        model=model_descriptor(model),
        seed=used_seed,
        noise_sd=float(noise_sd),
    )


# ------------------------------------------------------------------ CSV

#: Rows formatted per write: bounds the text held in memory at once.
_BLOCK_ROWS = 1024


def write_record(record: FringeRecord, path: str | Path) -> None:
    """Write a record as CSV with a one-line metadata header.

    Layout: ``# model=...,seed=...,noise_sd=...`` then a column header
    ``t_s,signal[,population]`` and one row per sample, each value in
    ``%.17g``, which reads back bit-exactly.  Rows are formatted and
    written in blocks of :data:`_BLOCK_ROWS`, so the text in memory
    stays bounded whatever the record's length.  Identical records
    produce byte-identical files.
    """
    names = ["t_s", "signal"]
    columns = [record.times, record.signal]
    if record.population is not None:
        names.append("population")
        columns.append(record.population)
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with _write_atomic(path) as handle:
        handle.write(
            f"# model={record.model},seed={record.seed},"
            f"noise_sd={record.noise_sd!r}\n{','.join(names)}\n"
        )
        for start in range(0, record.times.size, _BLOCK_ROWS):
            rows = zip(*(c[start : start + _BLOCK_ROWS].tolist() for c in columns))
            handle.write("".join(row_format % row for row in rows))


_HEADER_KEYS = ("model", "seed", "noise_sd")
_COLUMNS = ["t_s", "signal", "population"]


def _first_bad_line(path: str | Path, width: int) -> str | None:
    """Where the sample table first breaks, as "line N: ..." or "line N,
    column J: ..."; None when every line parses.

    A line breaks when its count of comma-separated values is not
    ``width``, or when numpy's table parser, fed that line alone, rejects
    one of its values.  Empty lines are skipped, as the table parser
    skips them.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if lineno <= 2 or line == "\n":
                continue
            count = line.count(",") + 1
            if count != width:
                return (
                    f"line {lineno}: ragged sample table (the column header "
                    f"names {width} columns, the line holds {count})"
                )
            for column in range(width):
                try:
                    np.loadtxt([line], delimiter=",", comments=None, usecols=column)
                except ValueError:
                    value = line.split(",")[column].strip()
                    return (
                        f"line {lineno}, column {column + 1}: non-numeric "
                        f"sample value {value!r}"
                    )
    return None


def read_record(path: str | Path) -> FringeRecord:
    """Read a record written by :func:`write_record`, fail-closed.

    An unknown or repeated header key, a missing one, and any column
    header other than ``t_s,signal[,population]`` raise
    :class:`RecordError` naming the key or the column line.  The sample
    table streams from the open file through numpy's C tokenizer: one
    row per line, as many comma-separated values as columns, each an
    ASCII float literal that ``float`` reads to the same bits, with
    optional whitespace around it; empty lines are skipped.  A table
    without rows, a line with too few or too many values and a value
    that is not a number raise :class:`RecordError`, naming the first
    such line (and the value's column).
    """
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("#"):
            raise RecordError(f"{path}: missing metadata header line")
        meta: dict[str, str] = {}
        for item in first.lstrip("#").strip().split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise RecordError(f"{path}: unknown header key {key!r}")
            if key in meta:
                raise RecordError(f"{path}: repeated header key {key!r}")
            meta[key] = value.strip()
        for required in _HEADER_KEYS:
            if required not in meta:
                raise RecordError(f"{path}: header missing {required!r}")
        second = handle.readline()
        if not second:
            raise RecordError(f"{path}: missing column header")
        column_line = second.removesuffix("\n")
        columns = column_line.split(",")
        if columns not in (_COLUMNS[:2], _COLUMNS):
            raise RecordError(
                f"{path}: expected columns t_s,signal[,population], got "
                f"{column_line!r}"
            )
        has_population = columns == _COLUMNS
        error = None
        # a header-only file is reported below, not as loadtxt's warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
            except UnicodeDecodeError:  # a ValueError too; main names the file
                raise
            except ValueError as exc:
                error = exc
    if error is None and data.shape[0] == 0:
        raise RecordError(f"{path}: empty sample table")
    if error is not None or data.shape[1] != len(columns):
        where = _first_bad_line(path, len(columns))
        if where is not None:
            raise RecordError(f"{path} {where}")
        raise RecordError(f"{path}: non-numeric sample value ({error})")
    try:
        seed = None if meta["seed"] == "None" else int(meta["seed"])
    except ValueError:
        raise RecordError(
            f"{path}: header seed={meta['seed']!r} is neither an integer nor None"
        ) from None
    try:
        noise_sd = float(meta["noise_sd"])
    except ValueError:
        raise RecordError(
            f"{path}: header noise_sd={meta['noise_sd']!r} is not a number"
        ) from None
    return FringeRecord(
        times=data[:, 0],
        signal=data[:, 1],
        population=data[:, 2] if has_population else None,
        model=meta["model"],
        seed=seed,
        noise_sd=noise_sd,
    )


# ------------------------------------------------------------------ fit


@dataclass(frozen=True)
class FitResult:
    """Damped-fringe estimate with uncertainties.

    ``covariance`` is the 3x3 Gauss-Newton covariance of
    (lambda_hat, omega_hat, contrast_hat), marginalised over the phase.
    ``lambda_at_bound`` flags a fit pinned at lambda = 0: a record that
    would prefer negative damping (growing fringes) surfaces here
    instead of in an unphysical estimate.
    """

    lambda_hat: float
    omega_hat: float
    contrast_hat: float
    phase_hat: float
    covariance: np.ndarray
    residual_norm: float
    n_samples: int
    lambda_at_bound: bool = False

    @property
    def standard_errors(self) -> np.ndarray:
        """sqrt of the covariance diagonal: SE of (lambda, omega, contrast)."""
        return np.sqrt(np.diag(self.covariance))


def _fringe(params: np.ndarray, t: np.ndarray) -> np.ndarray:
    lam, omega, contrast, phase = params
    return 0.5 + 0.5 * contrast * np.exp(-lam * t) * np.cos(omega * t + phase)


def _periodogram_peak(times: np.ndarray, signal: np.ndarray) -> float:
    """Dominant angular frequency of the detrended signal.

    Uniform records use a zero-padded FFT with parabolic peak
    interpolation; non-uniform records fall back to a Lomb-Scargle scan.
    Returns omega in rad per unit time.
    """
    detrended = signal - signal.mean()
    dt = np.diff(times)
    span = times[-1] - times[0]
    if np.allclose(dt, dt[0], rtol=1e-8):
        n = len(times)
        padded = 8 * n
        amplitude = np.abs(np.fft.rfft(detrended, n=padded))
        freqs = 2.0 * math.pi * np.fft.rfftfreq(padded, d=float(dt[0]))
        k = int(np.argmax(amplitude[1:])) + 1  # skip the DC bin
        if 1 <= k < len(amplitude) - 1:
            a, b, c = amplitude[k - 1], amplitude[k], amplitude[k + 1]
            denom = a - 2 * b + c
            shift = 0.5 * (a - c) / denom if denom != 0.0 else 0.0
            return float(freqs[k] + shift * (freqs[1] - freqs[0]))
        return float(freqs[k])
    # non-uniform: scan up to the mean Nyquist rate; scipy.signal is
    # imported here because no other path of the package needs it
    from scipy.signal import lombscargle

    omega_max = math.pi / float(np.mean(dt))
    omegas = np.linspace(2.0 * math.pi / span / 4.0, omega_max, 4096)
    power = lombscargle(times, detrended, omegas)
    return float(omegas[np.argmax(power)])


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """Analytic signal of a real 1-d array, bit-identical to scipy's ``hilbert``.

    The one-sided spectrum comes from ``rfft``: the positive-frequency
    bins are doubled, DC and (for even lengths) Nyquist kept once, and
    the negative half left zero.
    """
    n = len(x)
    spectrum = np.zeros(n, dtype=complex)
    spectrum[: n // 2 + 1] = np.fft.rfft(x)
    spectrum[1 : (n + 1) // 2] *= 2.0
    return np.fft.ifft(spectrum)


def _envelope_seed(
    times: np.ndarray, signal: np.ndarray
) -> tuple[float, float]:
    """(lambda0, contrast0) from the analytic-signal envelope.

    Log-linear regression of the Hilbert envelope over the middle of
    the record, clipped to non-negative decay.  A regression that
    overflows or loses rank (times near 1e153 square past the largest
    float) raises :class:`NumericalError`.
    """
    detrended = signal - signal.mean()
    envelope = np.abs(_analytic_signal(detrended))
    n = len(times)
    inner = slice(n // 10, n - n // 10 or None)
    t_in = times[inner]
    env_in = np.clip(envelope[inner], 1e-12, None)
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error", np.exceptions.RankWarning)
        try:
            slope, intercept = np.polyfit(t_in, np.log(env_in), 1)
        except (
            np.linalg.LinAlgError, np.exceptions.RankWarning, FloatingPointError
        ) as exc:
            raise NumericalError(f"envelope seed fit failed: {exc}") from None
    lam0 = max(-float(slope), 0.0)
    contrast0 = float(np.clip(2.0 * math.exp(intercept), 1e-3, 2.0))
    return lam0, contrast0


#: ``xtol``, ``ftol`` and ``gtol`` of the least-squares fit.
_FIT_TOLERANCE = 1e-12
#: least_squares makes its start strictly feasible: a parameter within
#: this of a zero lower bound starts at this value instead.
_START_OFFSET = 1e-10


def fit_damped_fringe(record: FringeRecord) -> FitResult:
    """Estimate (lambda, omega, contrast, phase) from a record.

    The model is S(t) = 1/2 + (C/2) e^{-lambda t} cos(omega t + phi).
    Seeds come from a periodogram peak (omega), a Hilbert-envelope
    regression (lambda, C), and the first samples (phi).
    Bounded least squares keeps lambda >= 0; a record preferring
    growth pins the estimate at zero and sets ``lambda_at_bound``.

    The optimiser converges to a relative tolerance of 1e-12.  Raises
    :class:`RecordError` when the record covers fewer than two periods
    at the seeded frequency, and :class:`NumericalError` when the
    optimiser fails or the seeded frequency lies below its 1e-10 start
    offset (only records longer than about 1e11 time units reach it).
    """
    times = record.times
    signal = record.signal
    omega0 = _periodogram_peak(times, signal)
    if omega0 <= 0.0:
        raise RecordError("periodogram found no positive frequency")
    periods = record.span * omega0 / (2.0 * math.pi)
    if periods < 2.0:
        raise RecordError(
            f"record spans {periods:.2f} fringe periods at the seed frequency; "
            "at least 2 are needed to separate decay from frequency"
        )
    lam0, contrast0 = _envelope_seed(times, signal)
    if omega0 < _START_OFFSET:
        # the optimiser would start from the offset instead, and fit a
        # fringe the record does not hold
        raise NumericalError(
            f"seed frequency {omega0!r} lies below the fit's start offset "
            f"{_START_OFFSET!r}; express the record's times in larger units"
        )
    # phase from the dominant quadrature at t approx times[0]
    rotated = (signal - signal.mean()) * np.exp(-1j * omega0 * times)
    phase0 = float(-np.angle(np.mean(rotated)))

    def residuals(params: np.ndarray) -> np.ndarray:
        return _fringe(params, times) - signal

    x0 = np.array([lam0, omega0, contrast0, phase0])
    # least_squares' default trust-region-reflective method honours bounds
    try:
        result = least_squares(
            residuals,
            x0,
            bounds=(
                [0.0, 0.0, 0.0, -2.0 * math.pi],
                [np.inf, np.inf, 2.0, 2.0 * math.pi],
            ),
            xtol=_FIT_TOLERANCE,
            ftol=_FIT_TOLERANCE,
            gtol=_FIT_TOLERANCE,
        )
    except np.linalg.LinAlgError as exc:  # an SVD inside the trust region
        raise NumericalError(f"fringe fit failed: {exc}") from None
    if not result.success:
        raise NumericalError(
            f"fringe fit did not converge (status {result.status}): "
            f"{result.message}"
        )
    lam, omega, contrast, phase = result.x
    residual_norm = float(np.linalg.norm(result.fun))
    n = len(times)
    dof = max(n - 4, 1)
    sigma_sq = residual_norm**2 / dof
    jac = result.jac
    # Gauss-Newton covariance, pseudo-inverted for safety near the
    # lambda = 0 bound where the Jacobian can lose rank
    try:
        cov4 = sigma_sq * np.linalg.pinv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fit covariance failed: {exc}") from None
    cov4 = 0.5 * (cov4 + cov4.T)  # pinv symmetry only holds to rounding
    keep = [0, 1, 2]
    covariance = cov4[np.ix_(keep, keep)]
    return FitResult(
        lambda_hat=float(lam),
        omega_hat=float(omega),
        contrast_hat=float(contrast),
        phase_hat=float(math.remainder(phase, 2.0 * math.pi)),
        covariance=covariance,
        residual_norm=residual_norm,
        n_samples=n,
        lambda_at_bound=bool(lam == 0.0),
    )


_COV_NAMES = ("lambda", "omega", "contrast")
#: Document key of each upper-triangle covariance entry.
_COV_KEYS = {
    (i, j): f"cov_{a}_{b}"
    for i, a in enumerate(_COV_NAMES)
    for j, b in enumerate(_COV_NAMES[i:], start=i)
}
_SCALAR_FIELDS = [f.name for f in fields(FitResult) if f.name != "covariance"]
_FIT_KEYS = (*_SCALAR_FIELDS, *_COV_KEYS.values())


def write_fit_result(fit: FitResult, path: str | Path) -> None:
    """Serialise a fit as a flat key/value text block."""
    pairs = [(name, getattr(fit, name)) for name in _SCALAR_FIELDS]
    pairs += [(key, fit.covariance[ij]) for ij, key in _COV_KEYS.items()]
    with _write_atomic(path) as handle:
        handle.write(_render_flat(pairs))


def read_fit_result(path: str | Path) -> FitResult:
    """Read a fit result written by :func:`write_fit_result`, fail-closed.

    Every key the writer emits is required and no other is allowed;
    ``n_samples`` must be an integer and ``lambda_at_bound`` must read
    ``true`` or ``false``.  Each violation raises
    :class:`ConfigParseError` naming the key.
    """
    values = _parse_flat_document(
        Path(path).read_text(encoding="utf-8"),
        f"fit result {path}",
        text_keys={"lambda_at_bound"},
    )
    _check_keys(values, "fit result", _FIT_KEYS, _FIT_KEYS)
    if not values["n_samples"].is_integer():
        raise ConfigParseError("fit result key 'n_samples' must be an integer")
    if values["lambda_at_bound"] not in ("true", "false"):
        raise ConfigParseError(
            "fit result key 'lambda_at_bound' must be true or false, got "
            f"{values['lambda_at_bound']!r}"
        )
    covariance = np.zeros((3, 3))
    for (i, j), key in _COV_KEYS.items():
        covariance[i, j] = covariance[j, i] = values[key]
    return FitResult(
        lambda_hat=values["lambda_hat"],
        omega_hat=values["omega_hat"],
        contrast_hat=values["contrast_hat"],
        phase_hat=values["phase_hat"],
        covariance=covariance,
        residual_norm=values["residual_norm"],
        n_samples=int(values["n_samples"]),
        lambda_at_bound=values["lambda_at_bound"] == "true",
    )
