"""Record synthesis, CSV round-trips, and damped-fringe estimation."""

import contextlib
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravfringe import fringe
from gravfringe.errors import (
    CoherenceGrowthWarning,
    ConfigParseError,
    NumericalError,
    RecordError,
)
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


def test_synthesize_warns_only_for_a_finite_track(recwarn):
    ts = np.linspace(0.0, 1000.0, 50)
    with pytest.raises(NumericalError, match="float range"):
        synthesize_record(GeneralLinear(a_lr=0j, b_lr=5 + 1j), ts)
    assert not recwarn.list
    with pytest.warns(CoherenceGrowthWarning):
        synthesize_record(GeneralLinear(a_lr=0j, b_lr=0.05 + 0.2j), ts[:5], 0.01)


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


HEADER = "# model=x,seed=None,noise_sd=0.1\nt_s,signal\n"


@pytest.mark.parametrize(
    "table, message",
    [
        ("0,0.5\n1,0.5,0.5\n", "line 4: ragged sample table"),
        ("0,0.5,0.5\n1,0.5,0.5\n", "line 3: ragged sample table"),
        ("0,0.5\n# note\n1,0.5\n", "line 4: ragged sample table"),
        ("0,0.5\n#1,0.5\n", "non-numeric"),
        ("0,0.5\n   \n1,0.5\n", "line 4: ragged sample table"),
        ("0,0.5\n1_0,0.5\n", "non-numeric"),
        ("\n\n", "empty sample table"),
    ],
    ids=["long-row", "wide-table", "comment-line", "comment-row",
         "whitespace-line", "underscore-literal", "blank-lines"],
)
def test_read_rejects_a_malformed_table_naming_it(tmp_path, recwarn, table, message):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + table)
    with pytest.raises(RecordError, match=message):
        read_record(path)
    assert not recwarn.list  # loadtxt's "input contained no data" stays inside


def test_read_skips_empty_lines_and_accepts_every_line_ending(tmp_path):
    path = tmp_path / "rec.csv"
    for newline in ("\n", "\r\n", "\r"):
        text = HEADER + "0, 0.25\n\n1,\t0.75 \n"
        path.write_bytes(text.replace("\n", newline).encode())
        back = read_record(path)
        assert back.times.tolist() == [0.0, 1.0]
        assert back.signal.tolist() == [0.25, 0.75]


def reference_record_text(record):
    """The whole file as one string: the writer's output before it streamed."""
    columns = [record.times, record.signal]
    names = ["t_s", "signal"]
    if record.population is not None:
        columns.append(record.population)
        names.append("population")
    lines = [
        f"# model={record.model},seed={record.seed},noise_sd={record.noise_sd!r}",
        ",".join(names),
    ]
    row_format = ",".join(["%.17g"] * len(columns))
    lines += [row_format % row for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [2, fringe._BLOCK_ROWS, 2 * fringe._BLOCK_ROWS + 1])
@pytest.mark.parametrize("general", [False, True], ids=["two-column", "population"])
def test_block_writer_matches_the_one_string_reference(tmp_path, n, general):
    ts = np.linspace(0.0, 90.0, n)
    model = GeneralLinear(a_lr=0.02 + 0.01j, b_lr=-0.08 + 0.25j) if general else (
        TilloyDiosi(0.05, 0.22))
    rec = synthesize_record(model, ts, noise_sd=0.01, seed=5)
    path = tmp_path / "record.csv"
    write_record(rec, path)
    assert path.read_bytes() == reference_record_text(rec).encode()


#: values at the edges of the float64 range and of its subnormals
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0]


@st.composite
def float_tokens(draw):
    """A float literal ``float`` reads: shortest repr, %.17g, or any 17 digits."""
    kind = draw(st.sampled_from(["repr", "%.17g", "digits"]))
    if kind == "digits":
        digits = draw(st.text("0123456789", min_size=17, max_size=17))
        sign = draw(st.sampled_from(["", "-", "+"]))
        exponent = draw(st.integers(-340, 308))
        return f"{sign}{digits[0]}.{digits[1:]}e{exponent}"
    value = draw(st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False,
                                                          allow_infinity=False))
    return repr(value) if kind == "repr" else "%.17g" % value


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda width: st.lists(
    st.lists(float_tokens(), min_size=width - 1, max_size=width - 1),
    min_size=1, max_size=30)))
def test_parsed_values_are_float_of_the_token_bit_for_bit(tmp_path_factory, table):
    # the time column is a plain count, so only the drawn columns vary
    names = "t_s,signal" if len(table[0]) == 1 else "t_s,signal,population"
    rows = [",".join([str(i), *tokens]) for i, tokens in enumerate(table, start=1)]
    path = tmp_path_factory.mktemp("tokens") / "record.csv"
    path.write_text("# model=x,seed=None,noise_sd=1.0\n" + names + "\n"
                    + "\n".join(["0" + ",0" * len(table[0]), *rows]) + "\n")
    expected = np.array([[0.0] * len(table[0])]
                        + [[float(t) for t in tokens] for tokens in table])
    if not np.all(np.isfinite(expected)):  # 17 digits past the largest float
        with pytest.raises(RecordError, match="non-finite"):
            read_record(path)
        return
    back = read_record(path)
    parsed = [back.signal] + ([back.population] if back.population is not None else [])
    assert np.stack(parsed, axis=1).tobytes() == expected.tobytes()


def test_failed_write_leaves_the_previous_record_and_no_tmp(tmp_path, monkeypatch):
    path = tmp_path / "record.csv"
    old = synthesize_record(Schrodinger(0.3), np.linspace(0.0, 60.0, 50))
    write_record(old, path)
    before = path.read_bytes()
    real = fringe._write_atomic

    class FailingThirdWrite:
        """A handle whose third write fails: the header and one block landed."""

        def __init__(self, handle):
            self.handle, self.writes = handle, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError("No space left on device")
            return self.handle.write(text)

    @contextlib.contextmanager
    def failing(target):
        with real(target) as handle:
            yield FailingThirdWrite(handle)

    monkeypatch.setattr(fringe, "_write_atomic", failing)
    longer = synthesize_record(
        Schrodinger(0.3), np.linspace(0.0, 60.0, 3 * fringe._BLOCK_ROWS)
    )
    with pytest.raises(OSError, match="No space"):
        write_record(longer, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["record.csv"]


@pytest.mark.parametrize("direction", ["write", "read"])
def test_record_io_peaks_below_four_times_the_array_bytes(tmp_path, direction):
    ts = np.linspace(0.0, 120.0, 20000)
    model = GeneralLinear(a_lr=0.005 + 0.004j, b_lr=-0.05 + 0.22j)
    rec = synthesize_record(model, ts, noise_sd=0.02, seed=12)
    path = tmp_path / "record.csv"
    write_record(rec, path)
    array_bytes = 3 * ts.nbytes
    tracemalloc.start()
    try:
        if direction == "write":
            write_record(rec, path)
        else:
            read_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * array_bytes, f"{direction} peak {peak} B"


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
    with pytest.raises(RecordError, match="fringe periods"):
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
