"""Record synthesis, CSV round-trips, and damped-fringe estimation."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravfringe.errors import ConfigParseError, InsufficientSpanError, RecordError
from gravfringe.fringe import (
    FitResult,
    FringeRecord,
    _analytic_signal,
    fit_damped_fringe,
    read_fit_result,
    read_record,
    synthesize_record,
    write_fit_result,
    write_record,
)
from gravfringe.twostate import GeneralLinear, Schrodinger, TilloyDiosi


def test_synthesize_noiseless_matches_closed_form():
    ts = np.linspace(0, 40, 101)
    rec = synthesize_record(TilloyDiosi(0.05, 0.22), ts)
    expected = 0.5 + 0.5 * np.exp(-0.05 * ts) * np.cos(0.22 * ts)
    assert np.allclose(rec.signal, expected, atol=1e-14)
    assert rec.population is None
    assert rec.seed is None
    assert rec.noise_sd == 0.0


def test_synthesize_general_includes_population():
    ts = np.linspace(0, 30, 61)
    model = GeneralLinear(a_lr=0.05 + 0.05j, b_lr=-0.2 + 0.6j)
    rec = synthesize_record(model, ts)
    assert rec.population is not None
    assert rec.population[0] == pytest.approx(0.5)
    assert abs(rec.population[-1] - 0.5) > 1e-4  # population actually moved


def test_synthesize_deterministic_by_seed():
    ts = np.linspace(0, 50, 120)
    a = synthesize_record(Schrodinger(0.3), ts, noise_sd=0.01, seed=7)
    b = synthesize_record(Schrodinger(0.3), ts, noise_sd=0.01, seed=7)
    c = synthesize_record(Schrodinger(0.3), ts, noise_sd=0.01, seed=8)
    assert np.array_equal(a.signal, b.signal)
    assert not np.array_equal(a.signal, c.signal)


def test_record_validation():
    with pytest.raises(RecordError, match="increasing"):
        FringeRecord(times=[0.0, 2.0, 1.0], signal=[0.5, 0.5, 0.5])
    with pytest.raises(RecordError, match="matching"):
        FringeRecord(times=[0.0, 1.0], signal=[0.5, 0.5, 0.5])
    with pytest.raises(RecordError, match="noise"):
        FringeRecord(times=[0.0, 1.0], signal=[0.5, 1.5], noise_sd=0.0)
    # the same out-of-range value is fine for a noisy record
    FringeRecord(times=[0.0, 1.0], signal=[0.5, 1.5], noise_sd=0.3)
    # non-finite samples are named by column, whatever the noise level
    with pytest.raises(RecordError, match="times"):
        FringeRecord(times=[0.0, np.inf], signal=[0.5, 0.5], noise_sd=0.1)
    with pytest.raises(RecordError, match="signal"):
        FringeRecord(times=[0.0, 1.0], signal=[0.5, np.nan], noise_sd=0.1)
    with pytest.raises(RecordError, match="population"):
        FringeRecord(
            times=[0.0, 1.0], signal=[0.5, 0.5], population=[0.5, np.nan]
        )


def test_csv_roundtrip_and_byte_identity(tmp_path):
    ts = np.linspace(0, 60, 200)
    model = GeneralLinear(a_lr=0.02 + 0.01j, b_lr=-0.08 + 0.25j)
    rec = synthesize_record(model, ts, noise_sd=0.01, seed=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_record(rec, p1)
    write_record(rec, p2)
    assert p1.read_bytes() == p2.read_bytes()

    back = read_record(p1)
    assert np.array_equal(back.times, rec.times)
    assert np.array_equal(back.signal, rec.signal)
    assert np.array_equal(back.population, rec.population)
    assert back.model == rec.model
    assert back.seed == rec.seed
    assert back.noise_sd == rec.noise_sd


def test_csv_header_format(tmp_path):
    ts = np.linspace(0, 50, 60)
    rec = synthesize_record(TilloyDiosi(0.05, 0.22), ts, noise_sd=0.01, seed=42)
    path = tmp_path / "rec.csv"
    write_record(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# model=tilloy-diosi")
    assert ",seed=42,noise_sd=0.01" in lines[0]
    assert lines[1] == "t_s,signal"


# every character at which str.splitlines ends a line
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize(
    "model",
    ["tilloy,diosi", " lead", "trail ", "a\nb", "a\rb", "a\x0cb", "a\x1cb",
     "a\x85b", "a\u2028b", "\ud800"],
)
def test_record_rejects_a_model_the_header_cannot_hold(model):
    with pytest.raises(RecordError, match="model"):
        FringeRecord(times=[0.0, 1.0], signal=[0.5, 0.5], model=model)


# any text the one-line, comma-separated, stripped header can carry
header_models = st.text(
    st.characters(codec="utf-8", exclude_characters=LINE_BREAKS + ",")
).filter(lambda m: m == m.strip())


@st.composite
def noisy_records(draw):
    """Small noisy records (any finite signal) in either column layout."""
    n = draw(st.integers(2, 50))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    column = hnp.arrays(float, n, elements=finite)
    # bounded so that no time step overflows in the increasing-times check
    times = draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n,
                          unique=True).map(sorted))
    return FringeRecord(
        times=np.array(times),
        signal=draw(column),
        population=draw(st.none() | column),
        model=draw(header_models),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        noise_sd=draw(st.floats(0.0, 1e300, exclude_min=True)),
    )


@settings(max_examples=50, deadline=None)
@given(noisy_records())
def test_write_read_record_is_identity(tmp_path_factory, rec):
    path = tmp_path_factory.mktemp("record") / "record.csv"
    write_record(rec, path)
    back = read_record(path)
    for name in ("times", "signal", "population"):
        ours, theirs = getattr(rec, name), getattr(back, name)
        if ours is None:
            assert theirs is None
        else:
            assert theirs.tobytes() == ours.tobytes()  # bit-exact, signed zero too
    assert (back.model, back.seed, back.noise_sd) == (rec.model, rec.seed, rec.noise_sd)


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,signal\n0,0.5\n1,0.5\n")  # no metadata header
    with pytest.raises(RecordError, match="header"):
        read_record(path)
    path.write_text("# model=x,seed=None,noise_sd=0.0\nt_s,signal\n0,oops\n1,2\n")
    with pytest.raises(RecordError, match="numeric"):
        read_record(path)


def test_fit_recovers_noiseless_parameters():
    lam, omega = 0.08, 0.31
    ts = np.linspace(0, 100, 400)
    rec = synthesize_record(TilloyDiosi(lam, omega), ts)
    fit = fit_damped_fringe(rec)
    assert fit.lambda_hat == pytest.approx(lam, rel=1e-6)
    assert fit.omega_hat == pytest.approx(omega, rel=1e-6)
    assert fit.contrast_hat == pytest.approx(1.0, rel=1e-6)
    assert fit.residual_norm < 1e-9
    assert not fit.lambda_at_bound


def test_fit_recovers_noiseless_parameters_from_jittered_times():
    # times jittered by up to +-10 % of the step take the Lomb-Scargle
    # branch of the frequency seed
    lam, omega = 0.08, 0.31
    step = 100 / 399
    jitter = np.random.default_rng(11).uniform(-0.1, 0.1, 400) * step
    ts = np.linspace(0, 100, 400) + jitter
    ts -= ts[0]
    rec = synthesize_record(TilloyDiosi(lam, omega), ts)
    dt = np.diff(ts)
    assert not np.allclose(dt, dt[0], rtol=1e-8)
    fit = fit_damped_fringe(rec)
    assert fit.omega_hat == pytest.approx(omega, rel=1e-6)
    assert fit.lambda_hat == pytest.approx(lam, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(2, 4096),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_analytic_signal_is_bitwise_scipy_hilbert(x):
    assert np.array_equal(_analytic_signal(x), scipy.signal.hilbert(x))


def test_fit_noiseless_undamped_pins_lambda_at_zero():
    ts = np.linspace(0, 120, 500)
    rec = synthesize_record(Schrodinger(0.22), ts)
    fit = fit_damped_fringe(rec)
    assert fit.lambda_hat < 1e-8
    assert fit.omega_hat == pytest.approx(0.22, rel=1e-7)


def test_fit_covariance_calibration():
    # repeated noisy draws: estimates should scatter like the reported SE
    lam, omega = 0.05, 0.22
    ts = np.linspace(0, 100, 200)
    hits = 0
    n_seeds = 50
    for seed in range(n_seeds):
        rec = synthesize_record(TilloyDiosi(lam, omega), ts, noise_sd=0.01, seed=seed)
        fit = fit_damped_fringe(rec)
        se = fit.standard_errors
        if (
            abs(fit.lambda_hat - lam) <= 3 * se[0]
            and abs(fit.omega_hat - omega) <= 3 * se[1]
        ):
            hits += 1
    assert hits >= 45


def test_fit_covariance_psd():
    ts = np.linspace(0, 80, 150)
    rec = synthesize_record(TilloyDiosi(0.1, 0.4), ts, noise_sd=0.02, seed=1)
    fit = fit_damped_fringe(rec)
    eigs = np.linalg.eigvalsh(fit.covariance)
    assert np.all(eigs >= -1e-18)


def test_fit_short_record_raises():
    ts = np.linspace(0, 20, 60)  # ~0.7 periods at omega = 0.22
    rec = synthesize_record(Schrodinger(0.22), ts)
    with pytest.raises(InsufficientSpanError, match="period"):
        fit_damped_fringe(rec)


def test_fit_result_roundtrip(tmp_path):
    ts = np.linspace(0, 100, 300)
    rec = synthesize_record(TilloyDiosi(0.06, 0.25), ts, noise_sd=0.01, seed=5)
    fit = fit_damped_fringe(rec)
    path = tmp_path / "fit.txt"
    write_fit_result(fit, path)
    back = read_fit_result(path)
    assert back.lambda_hat == fit.lambda_hat
    assert back.omega_hat == fit.omega_hat
    assert np.array_equal(back.covariance, fit.covariance)
    assert back.lambda_at_bound == fit.lambda_at_bound


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("cov_lambda_lambda = 0.0001\n", "", "cov_lambda_lambda"),
        ("n_samples = 300\n", "n_samples = 300\nbogus = 1\n", "bogus"),
        ("lambda_at_bound = false", "lambda_at_bound = maybe", "lambda_at_bound"),
        ("n_samples = 300\n", "n_samples = 300.7\n", "n_samples"),
    ],
    ids=["missing-key", "unknown-key", "non-boolean-flag", "fractional-count"],
)
def test_read_fit_result_fails_closed_naming_the_key(tmp_path, old, new, key):
    fit = FitResult(
        lambda_hat=0.05,
        omega_hat=0.22,
        contrast_hat=1.0,
        phase_hat=0.0,
        covariance=np.diag([1e-4, 1e-5, 1e-3]),
        residual_norm=0.1,
        n_samples=300,
    )
    path = tmp_path / "fit.txt"
    write_fit_result(fit, path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(ConfigParseError, match=key):
        read_fit_result(path)


def test_population_shift():
    ts = np.linspace(0, 200, 400)
    mu, lam, wg = 0.04, 0.3, 0.7
    model = GeneralLinear(complex(mu, mu), complex(-lam, wg))
    rec = synthesize_record(model, ts)
    expected = -mu * (wg - lam) / (lam**2 + wg**2)
    assert rec.population[-1] - 0.5 == pytest.approx(expected, abs=1e-6)

    # mu = 0: populations never move
    frozen = synthesize_record(GeneralLinear(0j, complex(-lam, wg)), ts)
    assert np.all(frozen.population == 0.5)

    # only the general law carries the track
    assert synthesize_record(TilloyDiosi(lam, wg), ts).population is None
