"""Command-line behaviour: exits, manifests, files, end-to-end closure.

Invocations run in-process through ``main(argv)`` so exit codes and
outputs are observable without subprocess overhead; ``run_cli`` runs
``python -m gravfringe.cli`` where stderr's warnings or the way the
process ends are what a test checks.
"""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravfringe import cli, twostate
from gravfringe.cli import main
from gravfringe.config import cesium_tungsten_config, serialize_config
from gravfringe.errors import GravfringeError, NumericalError, PositivityWarning
from gravfringe.fringe import FringeRecord, fit_damped_fringe, read_fit_result, read_record
from gravfringe.oracle import load_oracle_config, serialize_oracle_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

QUADRATIC_ORACLE_DOC = """
potential = quadratic
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


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_with(tmp_path, name, key, value):
    """Copy of ``configs/<name>`` with one key's value replaced."""
    text, count = re.subn(
        rf"(?m)^{key} = .*$", f"{key} = {value}", (CONFIGS / name).read_text()
    )
    assert count == 1
    path = tmp_path / name
    path.write_text(text)
    return path


def read_sweep(path):
    rows = []
    for line in path.read_text().splitlines()[2:]:
        value, omega_c, omega_q, status = line.split(",")
        rows.append((float(value), float(omega_c), float(omega_q), status))
    return rows


# ------------------------------------------------------------------ basics


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(
        ["frequencies", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_frequencies_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["frequencies", "--out", str(out)]) == 0
    report = read_kv(out / "frequencies.txt")
    assert float(report["omega_quantum_rad_s"]) == pytest.approx(0.22, rel=0.02)
    assert abs(float(report["omega_classical_rad_s"])) < 1e-12
    assert float(report["radius_left_m"]) == pytest.approx(0.0063, rel=0.02)
    # the same report is printed
    assert "omega_quantum_rad_s" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "frequencies"
    assert manifest["outputs"] == ["frequencies.txt"]
    assert manifest["config"]["arm_separation_m"]


def test_frequencies_with_explicit_config(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(cesium_tungsten_config()))
    out = tmp_path / "run"
    assert main(["frequencies", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = read_kv(out / "frequencies.txt")
    assert float(report["omega_quantum_rad_s"]) == pytest.approx(
        0.2204047501758119, rel=1e-12
    )


# ---------------------------------------------------------------- simulate


def test_simulate_runs_are_byte_identical(tmp_path, capsys):
    argv = ["simulate", "--model", "schrodinger", "--duration", "60"]
    for name in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "record.csv").read_bytes() == (
        tmp_path / "b" / "record.csv"
    ).read_bytes()


def test_simulate_fringe_period_matches_frequency(tmp_path, capsys):
    out = tmp_path / "run"
    assert (
        main(
            ["simulate", "--model", "schrodinger", "--duration", "60",
             "--samples", "600", "--out", str(out)]
        )
        == 0
    )
    capsys.readouterr()
    record = read_record(out / "record.csv")
    # ~2.1 periods over 60 s at 0.22 rad/s: signal crosses its midline 4 times
    crossings = np.sum(np.diff(np.sign(record.signal - 0.5)) != 0)
    assert crossings == 4


def test_lambda_zero_matches_schrodinger_signal_column(tmp_path, capsys):
    omega = repr(0.2204047501758119)
    base = ["--duration", "60", "--samples", "200"]
    assert (
        main(["simulate", "--model", "schrodinger", "--omega-q", omega,
              *base, "--out", str(tmp_path / "s")])
        == 0
    )
    assert (
        main(["simulate", "--model", "tilloy-diosi", "--lambda", "0",
              "--omega-g", omega, *base, "--out", str(tmp_path / "t")])
        == 0
    )
    capsys.readouterr()

    def signal_column(path):
        return [line.split(",")[1] for line in path.read_text().splitlines()[2:]]

    assert signal_column(tmp_path / "s" / "record.csv") == signal_column(
        tmp_path / "t" / "record.csv"
    )


def test_general_model_writes_population_column(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["simulate", "--model", "general", "--a-lr", "0.1+0.05j",
         "--b-lr=-0.05+0.22j", "--duration", "40", "--samples", "50",
         "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    record = read_record(out / "record.csv")
    assert record.population is not None
    assert record.population[0] == pytest.approx(0.5)


def test_flag_for_wrong_model_exits_2(tmp_path, capsys):
    code = main(
        ["simulate", "--model", "schrodinger", "--lambda", "0.1",
         "--duration", "10", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--lambda" in capsys.readouterr().err


def test_model_choices_are_the_laws_by_name():
    [simulate] = [
        action.choices["simulate"] for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    [model] = [action for action in simulate._actions if action.dest == "model"]
    assert model.choices == tuple(twostate._LAWS)
    laws = [twostate.Schrodinger(0.5), twostate.ClassicalPoisson(0.5),
            twostate.TilloyDiosi(0.1, 0.5), twostate.GeneralLinear(0.1j, 0.2j)]
    assert [type(law) for law in laws] == list(twostate._LAWS.values())
    for name, law in zip(twostate._LAWS, laws):
        assert twostate.model_descriptor(law).startswith(name + "(")


def test_incomplete_model_flags_exit_2(tmp_path, capsys):
    code = main(
        ["simulate", "--model", "tilloy-diosi", "--lambda", "0.1",
         "--duration", "10", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--omega-g" in capsys.readouterr().err
    code = main(
        ["simulate", "--model", "general", "--duration", "10",
         "--out", str(tmp_path)]
    )
    assert code == 2


def test_noisy_simulation_uses_seed(tmp_path, capsys):
    argv = ["simulate", "--model", "schrodinger", "--duration", "30",
            "--noise-sd", "0.01"]
    assert main(argv + ["--seed", "11", "--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--seed", "11", "--out", str(tmp_path / "b")]) == 0
    assert main(argv + ["--seed", "12", "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "record.csv").read_bytes()
    assert a == (tmp_path / "b" / "record.csv").read_bytes()
    assert a != (tmp_path / "c" / "record.csv").read_bytes()


# ------------------------------------------------------------------- sweep


def test_sweep_crosses_null_once(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["sweep", "--parameter", "d2", "--min", "0.06", "--max", "0.11",
         "--steps", "26", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    rows = read_sweep(out / "sweep.csv")
    assert len(rows) == 26
    assert all(status == "ok" for *_, status in rows)
    omega_c = np.array([row[1] for row in rows])
    assert np.sum(np.diff(np.sign(omega_c)) != 0) == 1
    # crossing brackets the closed-form null distance d1*sqrt(M2/M1)
    null = 0.05727761521865918 * np.sqrt(2.0)
    values = np.array([row[0] for row in rows])
    flip = int(np.flatnonzero(np.diff(np.sign(omega_c)))[0])
    assert values[flip] < null < values[flip + 1]


def test_sweep_marks_infeasible_rows(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["sweep", "--parameter", "d2", "--min", "0.05", "--max", "0.11",
         "--steps", "13", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    rows = read_sweep(out / "sweep.csv")
    statuses = [status for *_, status in rows]
    assert "infeasible" in statuses and "ok" in statuses
    assert len(rows) == 13  # marked, not dropped
    for value, omega_c, omega_q, status in rows:
        if status == "infeasible":
            assert np.isnan(omega_c) and np.isnan(omega_q)


def test_sweep_row_past_the_float_range_is_infeasible(tmp_path, capsys):
    # d1 = 1.06e230 squares past the largest float; the row is marked,
    # not the whole sweep ended
    out = tmp_path / "run"
    code = main(
        ["sweep", "--parameter", "d1", "--min=0.222",
         "--max=1.0649052434772369e+230", "--steps=34", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    rows = read_sweep(out / "sweep.csv")
    assert len(rows) == 34
    assert rows[0][3] == "ok"
    assert all(status == "infeasible" for *_, status in rows[1:])


def test_sweep_arm_separation_scaled_frequency_increases(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["sweep", "--parameter", "dx", "--min", "0.05", "--max", "0.09",
         "--steps", "9", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    rows = read_sweep(out / "sweep.csv")
    ok = [(value, omega_q) for value, _, omega_q, status in rows if status == "ok"]
    assert len(ok) >= 5
    ratio = [omega_q / value for value, omega_q in ok]
    assert all(b > a for a, b in zip(ratio, ratio[1:]))


def test_sweep_zero_steps_exits_2(tmp_path, capsys):
    code = main(
        ["sweep", "--parameter", "d2", "--min", "0.06", "--max", "0.11",
         "--steps", "0", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds, named",
    [
        (["--min", "inf", "--max", "1"], "--min"),
        (["--min", "nan", "--max", "1"], "--min"),
        (["--min", "0.06", "--max=-inf"], "--max"),
        # each bound is finite, but their span is not
        (["--min=-1e308", "--max", "1e308"], "--max minus --min"),
    ],
)
def test_sweep_non_finite_bound_exits_2(tmp_path, capsys, recwarn, bounds, named):
    code = main(["sweep", "--parameter", "d1", *bounds, "--steps", "3",
                 "--out", str(tmp_path)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not recwarn.list
    assert not any(tmp_path.iterdir())


def test_sweep_unknown_parameter_exits_2(tmp_path, capsys):
    code = main(
        ["sweep", "--parameter", "d3", "--min", "0.06", "--max", "0.11",
         "--steps", "3", "--out", str(tmp_path)]
    )
    assert code == 2
    capsys.readouterr()


# --------------------------------------------------------- validate-oracle


def test_validate_oracle_quadratic_passes(tmp_path, capsys):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text(QUADRATIC_ORACLE_DOC)
    out = tmp_path / "run"
    code = main(["validate-oracle", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "passed = true" in capsys.readouterr().out
    report = read_kv(out / "oracle_report.txt")
    moyal = float(report["omega_moyal_measured"])
    poisson = float(report["omega_poisson_measured"])
    assert abs(moyal - poisson) <= 1e-10
    assert "moyal_abs_error" in report
    assert "truncation_tail" not in report
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["oracle_report.txt"]
    assert manifest["config"]["potential"] == "quadratic"


def test_validate_oracle_far_ball_leaves_stderr_empty(tmp_path, capsys, recwarn):
    # (1e50 + x)^(k+1) overflows to inf; the ball's term is correctly 0
    text = (CONFIGS / "oracle_two_ball.cfg").read_text()
    for key, value in [("dist_left", "1e50"), ("hold_time", "0.3"), ("n_q", "128"),
                       ("n_p", "128"), ("p_lo", "-12.0"), ("p_hi", "12.0")]:
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    cfg = tmp_path / "far.cfg"
    cfg.write_text(text)
    code = main(["validate-oracle", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert not recwarn.list


def test_validate_oracle_fail_exits_3(tmp_path, capsys):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text(QUADRATIC_ORACLE_DOC)
    out = tmp_path / "run"
    code = main(
        ["validate-oracle", "--config", str(cfg), "--tolerance", "1e-18",
         "--out", str(out)]
    )
    assert code == 3
    assert "FAILED" in capsys.readouterr().err
    # the report is still written and listed: failure is a result, not a crash
    assert (out / "oracle_report.txt").exists()


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
def test_validate_oracle_bad_tolerance_exits_2_before_the_manifest(
    tmp_path, capsys, tolerance
):
    # an infinite tolerance would pass every validation
    out = tmp_path / "run"
    code = main(["validate-oracle", "--config", str(CONFIGS / "oracle_quadratic.cfg"),
                 "--tolerance", tolerance, "--out", str(out)])
    assert code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# --------------------------------------------------------------------- fit


def test_fit_recovers_simulated_parameters(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert (
        main(
            ["simulate", "--model", "tilloy-diosi", "--lambda", "0.05",
             "--omega-g", "0.22", "--duration", "120", "--samples", "300",
             "--out", str(sim_out)]
        )
        == 0
    )
    fit_out = tmp_path / "fit"
    code = main(
        ["fit", str(sim_out / "record.csv"), "--out", str(fit_out)]
    )
    assert code == 0
    capsys.readouterr()
    fit = read_fit_result(fit_out / "fit.txt")
    assert fit.lambda_hat == pytest.approx(0.05, rel=1e-5)
    assert fit.omega_hat == pytest.approx(0.22, rel=1e-5)
    # covariance is part of the report schema
    assert fit.covariance.shape == (3, 3)
    manifest = json.loads((fit_out / "manifest.json").read_text())
    assert manifest["outputs"] == ["fit.txt"]


def test_fit_constant_record_exits_2_and_manifest_precedes_outputs(
    tmp_path, capsys
):
    sim_out = tmp_path / "sim"
    assert (
        main(
            ["simulate", "--model", "classical", "--omega-c", "0",
             "--duration", "60", "--out", str(sim_out)]
        )
        == 0
    )
    fit_out = tmp_path / "fit"
    code = main(["fit", str(sim_out / "record.csv"), "--out", str(fit_out)])
    assert code == 2
    capsys.readouterr()
    # manifest was written before the failing fit; no data file appeared
    manifest = json.loads((fit_out / "manifest.json").read_text())
    assert manifest["outputs"] == []
    assert not (fit_out / "fit.txt").exists()


def test_fit_non_finite_record_exits_2(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert (
        main(["simulate", "--model", "schrodinger", "--duration", "60",
              "--out", str(sim_out)])
        == 0
    )
    record = sim_out / "record.csv"
    lines = record.read_text().splitlines()
    t, _ = lines[10].split(",")
    lines[10] = f"{t},nan"
    record.write_text("\n".join(lines) + "\n")
    code = main(["fit", str(record), "--out", str(tmp_path / "fit")])
    assert code == 2
    assert "signal" in capsys.readouterr().err


RECORD_HEADER = "# model=x,seed=None,noise_sd=0.01\nt_s,signal\n"


@pytest.mark.parametrize(
    "table, message",
    [
        ("0,0.5\n1\n", " line 4: ragged sample table (the column header "
         "names 2 columns, the line holds 1)"),
        ("1\n", " line 3: ragged sample table (the column header names 2 "
         "columns, the line holds 1)"),
        ("", ": empty sample table"),
    ],
    ids=["short-row", "one-value-table", "header-only"],
)
def test_fit_malformed_table_exits_2_with_one_line(
    tmp_path, capsys, recwarn, table, message
):
    record = tmp_path / "record.csv"
    record.write_text(RECORD_HEADER + table)
    assert main(["fit", str(record), "--out", str(tmp_path / "fit")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"gravfringe: {record}{message}"]
    assert not recwarn.list


def test_fit_bad_utf8_past_the_read_buffer_exits_2(tmp_path, capsys):
    record = tmp_path / "record.csv"
    rows = "".join(f"{i},0.5\n" for i in range(20000))
    assert len(rows) > 65536
    record.write_bytes((RECORD_HEADER + rows).encode() + b"20000,0.\xff5\n")
    assert main(["fit", str(record), "--out", str(tmp_path / "fit")]) == 2
    assert f"cannot decode {record}" in capsys.readouterr().err


# ------------------------------------------------------ exit-code contract


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--model", "tilloy-diosi", "--lambda", "-1", "--omega-g", "0.2"],
         "--lambda"),
        (["--model", "schrodinger", "--noise-sd", "nan"], "--noise-sd"),
        (["--model", "schrodinger", "--omega-q", "nan"], "--omega-q"),
        (["--model", "general", "--a-lr", "0.1", "--b-lr=infj"], "--b-lr"),
        (["--model", "schrodinger", "--noise-sd", "inf"], "--noise-sd"),
        (["--model", "schrodinger", "--samples", "3", "--noise-sd", "0.1",
          "--seed=-5"], "--seed"),
    ],
)
def test_simulate_invalid_model_value_exits_2(tmp_path, capsys, flags, named):
    code = main(["simulate", *flags, "--duration", "10", "--out", str(tmp_path)])
    assert code == 2
    # the flag's own rule rejects the value as argparse parses it
    assert f"argument {named}: must " in capsys.readouterr().err
    assert not (tmp_path / "record.csv").exists()


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_simulate_non_finite_duration_exits_2(tmp_path, capsys, duration):
    code = main(["simulate", "--model", "schrodinger", "--duration", duration,
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--duration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "good, bad",
    [
        ("seed=None", "seed=abc"),
        ("noise_sd=0.0", "noise_sd=zz"),
        ("noise_sd=0.0", "noise_sd=nan"),
        ("noise_sd=0.0", "noise_sd=inf"),
        ("noise_sd=0.0", "noise_sd=-1.0"),
    ],
)
def test_fit_unparseable_header_value_exits_2(tmp_path, capsys, good, bad):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--model", "schrodinger", "--duration", "60",
                 "--out", str(sim_out)]) == 0
    record = sim_out / "record.csv"
    record.write_text(record.read_text().replace(good, bad, 1))
    code = main(["fit", str(record), "--out", str(tmp_path / "fit")])
    assert code == 2
    assert bad.partition("=")[0] in capsys.readouterr().err
    # the record is read before the manifest is written
    assert not (tmp_path / "fit" / "manifest.json").exists()


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("noise_sd=0.0\n", "noise_sd=0.0,bogus=1\n", "'bogus'"),
        ("noise_sd=0.0\n", "noise_sd=0.0,model=other\n", "'model'"),
        ("\nt_s,signal,population\n", "\nt_s,signal,populaton\n", "populaton"),
    ],
    ids=["unknown-header-key", "repeated-header-key", "misspelt-column"],
)
def test_fit_malformed_record_header_exits_2_naming_it(
    tmp_path, capsys, old, new, named
):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--model", "general", "--a-lr", "0.01",
                 "--b-lr=-0.05+0.22j", "--duration", "120", "--samples", "300",
                 "--out", str(sim_out)]) == 0
    record = sim_out / "record.csv"
    text = record.read_text()
    assert old in text
    record.write_text(text.replace(old, new, 1))
    code = main(["fit", str(record), "--out", str(tmp_path / "fit")])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "fit" / "fit.txt").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["fit", "{dir}"], "dir"),
        (["frequencies", "--config", "{dir}"], "dir"),
        (["fit", "{binary}"], "binary"),
        (["validate-oracle", "--config", "{binary}"], "binary"),
        (["frequencies", "--out", "{file}"], "file"),
    ],
    ids=["fit-directory", "config-directory", "non-utf8-record",
         "non-utf8-oracle-config", "out-is-a-file"],
)
def test_unusable_path_exits_2_naming_it(tmp_path, capsys, argv, key):
    paths = {
        "dir": tmp_path / "a_directory",
        "binary": tmp_path / "latin1.txt",
        "file": tmp_path / "plain_file",
    }
    paths["dir"].mkdir()
    paths["binary"].write_bytes(b"# model=caf\xe9\n")
    paths["file"].write_text("")
    argv = [arg.format(**paths) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert str(paths[key]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["frequencies"], "--seed", "99"),
        (["frequencies"], "--tolerance", "-7"),
        (["simulate", "--model", "schrodinger", "--duration", "10"],
         "--tolerance", "nan"),
        (["sweep", "--parameter", "d2", "--min", "0.06", "--max", "0.11",
          "--steps", "3"], "--seed", "4"),
        (["sweep", "--parameter", "d2", "--min", "0.06", "--max", "0.11",
          "--steps", "3"], "--tolerance", "0.1"),
        (["validate-oracle"], "--seed", "5"),
        (["fit", "record.csv"], "--config", "/does/not/exist"),
        (["fit", "record.csv"], "--seed", "4"),
        (["fit", "record.csv"], "--tolerance", "1e-9"),
    ],
    ids=["frequencies-seed", "frequencies-tolerance", "simulate-tolerance",
         "sweep-seed", "sweep-tolerance", "validate-oracle-seed", "fit-config",
         "fit-seed", "fit-tolerance"],
)
def test_flag_the_subcommand_does_not_read_exits_2(
    tmp_path, capsys, argv, flag, value
):
    out = tmp_path / "out"
    assert main([*argv, flag, value, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name, key, value, named",
    [
        (["validate-oracle"], "oracle_quadratic.cfg", "quad_slope", "nan",
         "'quad_slope'"),
        (["validate-oracle"], "oracle_quadratic.cfg", "quad_curvature", "nan",
         "'quad_curvature'"),
        (["validate-oracle"], "oracle_two_ball.cfg", "coupling_left", "nan",
         "'coupling_left'"),
        (["validate-oracle"], "oracle_two_ball.cfg", "dist_right", "nan",
         "'dist_right'"),
        (["validate-oracle"], "oracle_two_ball.cfg", "hbar", "inf", "'hbar'"),
        (["simulate", "--model", "schrodinger", "--duration", "10"],
         "cesium_tungsten.cfg", "particle_mass_amu", "inf", "'particle_mass_amu'"),
        (["frequencies"], "cesium_tungsten.cfg", "particle_mass_amu", "inf",
         "'particle_mass_amu'"),
        # the generator divides by (2 n_max + 1)!, past the largest float
        (["validate-oracle"], "oracle_two_ball.cfg", "n_max", "85", "'n_max'"),
        # a ball centre on an arm (dx = 8) or inside the span: the closed
        # forms divide by d^2 - dx^2/4
        (["validate-oracle"], "oracle_two_ball.cfg", "dist_left", "4.0",
         "'dist_left'"),
        (["validate-oracle"], "oracle_two_ball.cfg", "dist_left", "3.0",
         "'dist_left'"),
        # finite, but its square overflows in the frequency formulas
        (["frequencies"], "cesium_tungsten.cfg", "dist_left_m",
         "1.7976931348623157e+308", "dist_left ="),
    ],
    ids=["quad_slope", "quad_curvature", "coupling_left", "dist_right", "hbar",
         "simulate-particle_mass_amu", "frequencies-particle_mass_amu",
         "n_max-above-84", "dist_left-on-an-arm", "dist_left-inside-the-span",
         "frequencies-dist_left-overflows"],
)
def test_non_finite_config_value_exits_2_naming_it(
    tmp_path, capsys, argv, name, key, value, named
):
    path = config_with(tmp_path, name, key, value)
    code = main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert named in capsys.readouterr().err


# a growing mode of rate 5 over 1000 s leaves the float range
GROWING_RECORD = ["simulate", "--model", "general", "--a-lr=0j", "--duration",
                  "1000", "--samples", "50"]


@pytest.mark.parametrize(
    "argv, change, message",
    [
        # Omega overflows on the outer q rows; the held readout propagates
        # only the row at q = 0, so the generator's range check must fail
        (["validate-oracle"], ("quad_curvature", "1e306"), "conserving probability"),
        # sigma^2 underflows to 0 in the packet overlap
        (["validate-oracle"], ("packet_width", "1e-300"), "division by zero"),
        # snapshot times collapse and the phase fit's SVD breaks down
        (["validate-oracle"], ("hold_time", "1e-300"), "SVD"),
        (GROWING_RECORD + ["--b-lr=5+1j"], None, "float range"),
        # the same growth without rotation
        (GROWING_RECORD + ["--b-lr=5+0j"], None, "float range"),
        # each flag is finite, but b_lr + b_rl overflows in the generator
        (["simulate", "--model", "general", "--a-lr=0j", "--b-lr=1e308",
          "--b-rl=1e308", "--duration", "1", "--samples", "2"], None,
         "float range"),
        # both parts are finite, so the flag parses, though |b_lr| overflows
        (["simulate", "--model", "general", "--a-lr=0j", "--b-lr=1e308+1.5e308j",
          "--duration", "1", "--samples", "2"], None, "float range"),
    ],
    ids=["quad_curvature-1e306-conserving probability",
         "packet_width-1e-300-division by zero", "hold_time-1e-300-SVD",
         "simulate-growing-rotating", "simulate-growing",
         "simulate-generator-overflows", "simulate-finite-parts-overflow"],
)
def test_numerical_breakdown_exits_3(tmp_path, capsys, argv, change, message):
    if change is not None:
        path = config_with(tmp_path, "oracle_quadratic.cfg", *change)
        argv = [*argv, "--config", str(path)]
    with np.errstate(all="ignore"):
        code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err


def run_cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=None):
    """``python -m gravfringe.cli`` in a fresh process, as a shell runs it.

    The environment's ``PYTHON*`` settings are dropped, so warnings reach
    stderr and a piped stdout is block-buffered; ``env`` adds settings
    back on top.
    """
    src = Path(cli.__file__).resolve().parents[1]
    inherited = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return subprocess.run(
        [sys.executable, "-m", "gravfringe.cli", *argv],
        env={**inherited, "PYTHONPATH": str(src), **(env or {})},
        stdout=stdout,
        stderr=stderr,
        text=True,
    )


@pytest.mark.parametrize("b_lr", ["5+1j", "5+0j"], ids=["rotating", "still"])
def test_overflowing_simulate_prints_only_the_failure(tmp_path, b_lr):
    proc = run_cli(*GROWING_RECORD, f"--b-lr={b_lr}", "--out", str(tmp_path))
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("gravfringe: numerical failure: the signal track of")
    assert line.endswith("leaves the float range within the record")


def test_growing_simulate_that_succeeds_still_warns(tmp_path):
    proc = run_cli("simulate", "--model", "general", "--a-lr=0j", "--b-lr=0.05+0.2j",
                   "--duration", "10", "--samples", "50", "--noise-sd", "0.01",
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    assert "CoherenceGrowthWarning: coherence generator has a growing mode" in (
        proc.stderr
    )


def test_fit_seed_below_the_start_offset_exits_3(tmp_path, capsys):
    # about 90 periods at 3e-152 rad/s: the optimiser moved the seed up to
    # its 1e-10 start offset and reported omega = 3.0 with zero covariance
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "schrodinger", "--omega-q", "3e-152",
                 "--duration", "1.9e153", "--samples", "200", "--out", str(sim)]) == 0
    assert main(["fit", str(sim / "record.csv"), "--out", str(tmp_path / "fit")]) == 3
    assert "start offset" in capsys.readouterr().err
    record = read_record(sim / "record.csv")
    scaled = FringeRecord(times=record.times / 1.9e53, signal=record.signal)
    assert scaled.times[-1] == pytest.approx(1e100)
    with pytest.raises(NumericalError, match="start offset"):
        fit_damped_fringe(scaled)


def test_slow_unitary_law_over_a_long_record_prints_nothing(tmp_path):
    # the squaring count came from the augmented block's identity, and the
    # extra squarings drifted this unitary law off the physical set
    proc = run_cli("simulate", "--model", "schrodinger", "--omega-q", "3e-152",
                   "--duration", "1.9e153", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_still_general_law_over_the_float_range_writes_a_finite_record(
    tmp_path, capsys
):
    # its coherence block is zero, and b_1 c of the unfloored squaring
    # count overflowed the population track past t = 2.8e291
    out = tmp_path / "sim"
    # the population leaves [0, 1], and the warning names a finite defect
    with pytest.warns(PositivityWarning, match=r"worst defect 1e\+298,"):
        assert main(["simulate", "--model", "general", "--a-lr", "0.01+0j",
                     "--b-lr", "0j", "--duration", "1e300", "--out", str(out)]) == 0
    capsys.readouterr()
    record = read_record(out / "record.csv")
    assert np.all(record.signal == 1.0)
    assert np.all(np.isfinite(record.population))
    assert record.population[-1] == pytest.approx(1e298, rel=1e-15)


def test_aliased_simulate_exits_2_naming_the_sampling(tmp_path, capsys):
    # a 0.2204 rad/s fringe sampled every 20.7 s, above the pi/omega =
    # 14.25 s limit: its fit read the alias 0.0833 rad/s as a measurement
    out = tmp_path / "sim"
    code = main(["simulate", "--model", "schrodinger", "--duration", "600",
                 "--samples", "30", "--noise-sd", "0.01", "--seed", "1",
                 "--out", str(out)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "--samples 30" in line and "--duration 600.0" in line and "alias" in line
    assert not (out / "record.csv").exists()
    # the limit lies between 43 samples (step 14.29 s) and 44 (13.95 s)
    for samples, status in (("43", 2), ("44", 0)):
        assert main(["simulate", "--model", "schrodinger", "--duration", "600",
                     "--samples", samples, "--out", str(out)]) == status
    capsys.readouterr()


def test_failing_fit_covariance_exits_3(tmp_path, capsys, monkeypatch):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--model", "schrodinger", "--duration", "60",
                 "--out", str(sim_out)]) == 0

    def pinv(matrix):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", pinv)
    code = main(["fit", str(sim_out / "record.csv"), "--out", str(tmp_path / "fit")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: fit covariance failed: SVD did not converge" in err


SWEEP_STEPS = ["sweep", "--parameter", "d2", "--min", "0.06", "--max", "0.11",
               "--steps", "{size}"]
SIMULATE_SAMPLES = ["simulate", "--model", "schrodinger", "--duration", "10",
                    "--samples", "{size}"]


@pytest.mark.parametrize(
    "argv, key, size, named",
    [
        (SWEEP_STEPS, None, 10**17, "shape (100000000000000000,)"),
        (SIMULATE_SAMPLES, None, 10**17, "shape (100000000000000000,)"),
        ([], "n_q", 10**15, "shape (1000000000000000,)"),
        (SWEEP_STEPS, None, 2**62, "--steps"),
        (SIMULATE_SAMPLES, None, 2**62, "--samples"),
        ([], "n_p", 2**62, "'n_p'"),
    ],
    ids=["sweep-steps", "simulate-samples", "oracle-n_q", "sweep-steps-2**62",
         "simulate-samples-2**62", "oracle-n_p-2**62"],
)
def test_unallocatable_size_exits_2_naming_it(
    tmp_path, capsys, argv, key, size, named
):
    # numpy refuses these sizes without touching memory: up to 2**59 - 1
    # elements with a MemoryError naming the array's shape, beyond with a
    # ValueError that a range check preempts by naming the input.  Sizes
    # of 1e6 to 1e13 elements would allocate and must not be tried here.
    if key is not None:
        path = config_with(tmp_path, "oracle_quadratic.cfg", key, str(size))
        argv = ["validate-oracle", "--config", str(path)]
    argv = [arg.format(size=size) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


# ------------------------------------------------------------- process end


def _run_outputs(out):
    """A run's data files by name, and its manifest less the timestamp and
    the output directory; None when the run made no directory."""
    if not out.exists():
        return None
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["timestamp"], manifest["output_dir"]
    return files, manifest


@pytest.mark.parametrize(
    "argv, status",
    [
        (["frequencies"], 0),
        (["simulate", "--model", "general", "--a-lr=0.01+0.005j",
          "--b-lr=-0.05+0.22j", "--duration", "60", "--samples", "300",
          "--noise-sd", "0.02", "--seed", "9"], 0),
        (["sweep", "--parameter", "d2", "--min", "0.06", "--max", "0.11",
          "--steps", "26"], 0),
        (["validate-oracle", "--config", str(CONFIGS / "oracle_quadratic.cfg")], 0),
        (["validate-oracle", "--config", str(CONFIGS / "oracle_two_ball.cfg")], 0),
        (["fit", "RECORD"], 0),
        (["simulate", "--model", "schrodinger", "--duration", "0"], 2),
        (["simulate", "--model", "schrodinger", "--duration", "600",
          "--samples", "30"], 2),
        (["validate-oracle", "--config", str(CONFIGS / "oracle_quadratic.cfg"),
          "--tolerance", "1e-18"], 3),
    ],
    ids=["frequencies", "simulate", "sweep", "validate-oracle",
         "validate-oracle-two-ball", "fit", "usage-error", "aliased-simulate",
         "failed-validation"],
)
def test_process_entry_writes_what_main_writes(tmp_path, capsys, argv, status):
    record = tmp_path / "sim" / "record.csv"
    assert main(["simulate", "--model", "tilloy-diosi", "--lambda", "0.05",
                 "--omega-g", "0.22", "--duration", "60", "--samples", "300",
                 "--noise-sd", "0.01", "--seed", "4", "--out", str(record.parent)]) == 0
    argv = [str(record) if arg == "RECORD" else arg for arg in argv]
    inside, fresh = tmp_path / "main", tmp_path / "process"
    capsys.readouterr()
    assert main([*argv, "--out", str(inside)]) == status
    captured = capsys.readouterr()
    proc = run_cli(*argv, "--out", str(fresh))
    assert proc.returncode == status
    assert proc.stdout == captured.out.replace(str(inside), str(fresh))
    assert proc.stderr == captured.err.replace(str(inside), str(fresh))
    assert _run_outputs(fresh) == _run_outputs(inside)


@pytest.mark.parametrize(
    "env", [None, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"]
)
def test_closed_stdout_ends_with_status_120_and_no_traceback(tmp_path, env):
    # buffered, the report waits for the entry's flush; unbuffered, the
    # write inside main fails first: both end the same way
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(
            "frequencies", "--out", str(tmp_path), stdout=write_end, env=env
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    [line] = proc.stderr.splitlines()
    assert line.startswith("gravfringe: cannot write <stdout>: ")
    assert (tmp_path / "frequencies.txt").exists()


@pytest.mark.parametrize(
    "env", [None, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"]
)
def test_closed_stderr_ends_with_status_120_and_no_traceback(tmp_path, env):
    # the output directory cannot be made under a file, and the error
    # line cannot be written: an uncaught BrokenPipeError would end the
    # process with status 1 and a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(
            "frequencies", "--out", str(blocker / "out"), stderr=write_end, env=env
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert proc.stdout == ""


def test_main_returns_its_status_without_exiting(tmp_path, capsys, monkeypatch):
    def exit_process(status):
        raise AssertionError(f"main ended the process with status {status}")

    monkeypatch.setattr(os, "_exit", exit_process)
    assert main(["frequencies", "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--model", "schrodinger", "--duration", "0"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_script_entry_is_the_fast_exit():
    tomllib = pytest.importorskip("tomllib")
    with open(CONFIGS.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"gravfringe": "gravfringe.cli:run"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "error",
    [GravfringeError, *_subclasses(GravfringeError), ArithmeticError,
     OSError, MemoryError],
    ids=lambda error: error.__name__,
)
def test_exit_code_follows_from_the_class(tmp_path, capsys, monkeypatch, error):
    # numpy's LinAlgError is no class of this contract: each site that can
    # raise it re-raises a NumericalError (test_failing_fit_covariance_exits_3)
    def fail(args, out_dir):
        raise error("injected")

    monkeypatch.setitem(cli._DISPATCH, "frequencies", fail)
    numerical = issubclass(error, (NumericalError, ArithmeticError))
    assert main(["frequencies", "--out", str(tmp_path)]) == (3 if numerical else 2)
    assert "injected" in capsys.readouterr().err


# Sizes stay small (n_q, n_p <= 64, n_snapshots <= 9, samples <= 400,
# steps <= 50) or absurd (1e15 to 1e30 elements): a range check refuses
# such a size, or its first array exceeds the 48-bit address space and
# numpy refuses it without touching memory.  Sizes of 1e6 to 1e13
# elements would allocate and are never generated.
ABSURD = st.integers(10**15, 10**30)


def usually(valid, wild):
    """``valid`` three draws in four, ``wild`` otherwise."""
    return st.integers(0, 3).flatmap(lambda i: wild if i == 3 else valid)


FLOATS = usually(st.floats(-1.0, 1.0), st.floats())
FLAG_VALUES = {
    "--duration": usually(st.floats(1.0, 200.0), st.floats()),
    "--samples": usually(st.integers(2, 400), st.one_of(st.integers(-1, 1), ABSURD)),
    "--noise-sd": usually(st.floats(0.0, 0.1), st.floats()),
    "--seed": usually(st.integers(0, 2**70), st.integers(-(2**70), -1)),
    **dict.fromkeys(["--omega-q", "--omega-c", "--lambda", "--omega-g"], FLOATS),
    **dict.fromkeys(["--a-lr", "--b-lr", "--b-rl"], usually(
        st.complex_numbers(max_magnitude=1.0), st.complex_numbers())),
    **dict.fromkeys(["--min", "--max"], usually(st.floats(0.0, 1.0), st.floats())),
    "--steps": usually(st.integers(1, 50), st.one_of(st.integers(-1, 0), ABSURD)),
    "--tolerance": usually(st.floats(1e-12, 0.5), st.floats()),
}
MODEL_FLAGS = {
    "schrodinger": ["--omega-q"],
    "classical": ["--omega-c"],
    "tilloy-diosi": ["--lambda", "--omega-g"],
    "general": ["--a-lr", "--b-lr", "--b-rl"],
}


def flat(text):
    return dict(
        line.split(" = ") for line in text.splitlines()
        if line and not line.startswith("#")
    )


EXPERIMENT = flat((CONFIGS / "cesium_tungsten.cfg").read_text())
SMALL_ORACLES = [
    {**flat(text), "arm_separation": "4.0", "packet_width": "0.35", "n_q": "64",
     "n_p": "64", "q_lo": "-4.25", "q_hi": "4.25", "p_lo": "-12.0", "p_hi": "12.0"}
    for text in (QUADRATIC_ORACLE_DOC, (CONFIGS / "oracle_two_ball.cfg").read_text())
]
ORACLE_VALUES = {
    "potential": st.sampled_from(["quadratic", "two_ball", "cubic"]),
    **dict.fromkeys(["n_q", "n_p"], usually(st.integers(8, 64),
                                            st.one_of(st.integers(-1, 7), ABSURD))),
    "n_max": st.integers(-1, 200),
    "n_snapshots": usually(st.integers(3, 9), st.one_of(st.integers(0, 2), ABSURD)),
    **dict.fromkeys(
        ["arm_separation", "packet_width", "hbar", "mass", "hold_time", "quad_slope",
         "quad_curvature", "coupling_left", "coupling_right", "dist_left",
         "dist_right", "q_lo", "q_hi", "p_lo", "p_hi"],
        usually(st.floats(-100.0, 100.0), st.floats())),
}


@st.composite
def documents(draw, base, values):
    """``base`` with up to two values replaced, maybe a key dropped or added."""
    doc = dict(base)
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        doc[key] = draw(values[key])
    change = draw(st.sampled_from(["none", "none", "none", "drop", "unknown"]))
    if change == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif change == "unknown":
        doc["bogus"] = 1.0
    return "".join(f"{key} = {value}\n" for key, value in doc.items())


@st.composite
def runs(draw):
    """(argv, config document or None, fit or not, record edit or None)."""
    subcommand = draw(st.sampled_from(
        ["frequencies", "simulate", "sweep", "validate-oracle", "fit"]))
    doc = None
    if subcommand == "validate-oracle":
        doc = draw(documents(draw(st.sampled_from(SMALL_ORACLES)), ORACLE_VALUES))
    elif subcommand != "fit" and draw(st.booleans()):
        doc = draw(documents(EXPERIMENT, dict.fromkeys(
            EXPERIMENT, usually(st.floats(0.0, 1.0), st.floats()))))
    if subcommand in ("simulate", "fit"):
        model = draw(st.sampled_from(sorted(MODEL_FLAGS)))
        argv = ["simulate", "--model", model]
        # the model's own flags, maybe one meant for another model
        stray = st.sampled_from([name for names in MODEL_FLAGS.values()
                                 for name in names])
        names = ["--duration", *MODEL_FLAGS[model],
                 *draw(st.sets(st.sampled_from(["--samples", "--noise-sd", "--seed"]))),
                 *draw(usually(st.just([]), stray.map(lambda name: [name])))]
    elif subcommand == "sweep":
        parameter = draw(st.sampled_from(sorted(cli._SWEEP_FIELDS)))
        argv = ["sweep", "--parameter", parameter]
        names = ["--min", "--max", "--steps"]
    elif subcommand == "validate-oracle":
        argv = [subcommand]
        names = draw(st.sets(st.just("--tolerance")))
    else:
        argv, names = [subcommand], []
    argv += [f"{name}={draw(FLAG_VALUES[name])}" for name in names]
    edit = None
    if subcommand == "fit":
        # the record, maybe with one sample replaced and the rest cut
        edit = draw(usually(st.none(), st.tuples(
            st.integers(2, 401), usually(st.floats(0.0, 1.0), st.floats()))))
    return argv, doc, subcommand == "fit", edit


def assert_strict_json(path):
    """A manifest at ``path``, if any, is JSON without NaN or Infinity."""
    if path.exists():
        def reject(constant):
            raise AssertionError(f"{path} holds {constant}")

        json.loads(path.read_text(), parse_constant=reject)


SMALL_QUADRATIC = "".join(f"{key} = {value}\n" for key, value in SMALL_ORACLES[0].items())


@settings(max_examples=300, deadline=None)
@given(runs())
# a non-finite tolerance once ran, and left a manifest that is not JSON
@example((["validate-oracle", "--tolerance=inf"], SMALL_QUADRATIC, False, None))
@example((["validate-oracle", "--tolerance=nan"], SMALL_QUADRATIC, False, None))
# a flat record over 1.9e153 s: its fit's envelope regression once overflowed
@example((["simulate", "--model", "classical", "--duration=1.9228919614294086e+153",
           "--omega-c=0.0"], None, True, None))
# generated general models are often unphysical, and the package says so;
# any other warning numpy or the package raises here is a fault
@pytest.mark.filterwarnings("ignore::gravfringe.errors.PositivityWarning")
@pytest.mark.filterwarnings("ignore::gravfringe.errors.CoherenceGrowthWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_no_input_ends_in_a_traceback(run):
    argv, doc, fit, edit = run
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        tmp = Path(tmp)
        if doc is not None:
            (tmp / "doc.cfg").write_text(doc)
            argv = [*argv, "--config", str(tmp / "doc.cfg")]
        code = main([*argv, "--out", str(tmp / "out")])
        assert code in (0, 2, 3)
        assert_strict_json(tmp / "out" / "manifest.json")
        if fit and code == 0:
            record = tmp / "out" / "record.csv"
            if edit is not None:
                lines = record.read_text().splitlines()
                row, value = edit
                if row < len(lines):
                    lines[row] = f"{lines[row].split(',')[0]},{value}"
                record.write_text("\n".join(lines[: row + 2]) + "\n")
            code = main(["fit", str(record), "--out", str(tmp / "fit")])
            assert code in (0, 2, 3)
            assert_strict_json(tmp / "fit" / "manifest.json")


# ---------------------------------------------------------------- manifest


@pytest.mark.parametrize(
    "subcommand", ["frequencies", "simulate", "sweep", "validate-oracle", "fit"]
)
def test_manifest_config_echo_is_the_parsed_document(tmp_path, capsys, subcommand):
    simulate = ["simulate", "--model", "schrodinger", "--duration", "60",
                "--noise-sd", "0.01", "--seed", "3"]
    record = tmp_path / "sim" / "record.csv"
    argv = {
        "frequencies": ["frequencies"],
        "simulate": simulate,
        "sweep": ["sweep", "--parameter", "d2", "--min", "0.06", "--max", "0.11",
                  "--steps", "3"],
        "validate-oracle": ["validate-oracle", "--config",
                            str(CONFIGS / "oracle_quadratic.cfg")],
        "fit": ["fit", str(record)],
    }[subcommand]
    if subcommand == "fit":
        assert main([*simulate, "--out", str(tmp_path / "sim")]) == 0
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    # only simulate takes a seed
    assert manifest["seed"] == (3 if subcommand == "simulate" else None)
    # the options are the parsed flags, less those recorded elsewhere
    parsed = vars(cli._build_parser().parse_args([*argv, "--out", str(out)]))
    for key in ("subcommand", "out", "config", "seed"):
        parsed.pop(key, None)
    assert manifest["options"] == parsed
    echo = manifest["config"]
    assert not any(key.startswith("#") for key in echo)

    if subcommand == "fit":
        # the record header plus its sample count; no flat document
        back = read_record(record)
        resolved = {"model": back.model, "seed": back.seed,
                    "noise_sd": back.noise_sd, "n_samples": back.times.size}
        document = None
    elif subcommand == "validate-oracle":
        cfg = load_oracle_config(CONFIGS / "oracle_quadratic.cfg")
        resolved = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                    if getattr(cfg, f.name) is not None}
        document = serialize_oracle_config(cfg)
    else:
        cfg = cesium_tungsten_config()
        resolved = {
            "particle_mass_amu": cfg.particle_mass_amu,
            "arm_separation_m": cfg.arm_separation,
            "mass_left_kg": cfg.mass_left,
            "mass_right_kg": cfg.mass_right,
            "dist_left_m": cfg.dist_left,
            "dist_right_m": cfg.dist_right,
            "source_density_kg_m3": cfg.source_density,
            "hold_time_s": cfg.hold_time,
        }
        document = serialize_config(cfg)
    assert list(echo) == list(resolved)
    if document is not None:
        assert list(echo) == [line.split(" = ")[0] for line in document.splitlines()
                              if not line.startswith("#")]
    # JSON values, not strings: numbers stay numbers, text stays text
    assert echo == resolved
