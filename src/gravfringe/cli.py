"""Command-line front end: reports, records, sweeps, oracle runs, fits.

Each subcommand declares only the flags it reads.  Every subcommand but
``fit`` resolves its configuration (an explicit ``--config`` file or the
built-in benchmark geometry); each writes a ``manifest.json`` into the
output directory *before* any data file, produces its outputs, and
rewrites the manifest with the produced file names.  Identical
invocations, seed included, produce byte-identical data files; only the
manifest timestamp varies.  Each flag checks its value where it is
declared, so a bad value is an argparse usage error naming the flag,
and the manifest's options are the parsed flags.

Exit status: 0 on success, which for ``validate-oracle`` includes the
tolerance check passing, and 3 for a failed validation.  Every other
status follows from the class of the exception that ended the run, by
the rule stated in :mod:`gravfringe.errors`.

How the process ends: the ``gravfringe`` script and ``python -m
gravfringe.cli`` call :func:`run`, which calls :func:`main`, flushes
standard output and standard error, and ends the process with
``os._exit``.  The interpreter's finalization, which only frees what the
operating system reclaims anyway, is skipped; every file is written and
closed before :func:`main` returns.  A write to standard output that
fails (the reader closed the pipe), whether in :func:`main` or in the
final flush, prints one ``cannot write <stdout>`` line and ends with
status 120, the status the interpreter's own exit gives a failed flush.
A closed standard error ends the run with status 120 too, with no
traceback.
:func:`main` itself returns its status and never exits, so it can be
called in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, NoReturn

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    _MAX_ARRAY_SIZE,
    _parse_flat_document,
    _render_flat,
    _write_atomic,
    cesium_tungsten_config,
    load_config,
    serialize_config,
    with_updates,
)
from .errors import ConfigValidationError, GravfringeError, NumericalError
from .fringe import fit_damped_fringe, read_record, synthesize_record, write_fit_result, write_record
from .gravity import frequency_report, omega_classical, omega_quantum
from .oracle import (
    default_scaled_config,
    load_oracle_config,
    run_validation,
    serialize_oracle_config,
    write_report,
)
from .twostate import _LABELS, _LAWS, DynamicsModel, coherence_matrix

__all__ = ["main", "run"]

_SWEEP_FIELDS = {
    "d1": "dist_left",
    "d2": "dist_right",
    "m1": "mass_left",
    "m2": "mass_right",
    "dx": "arm_separation",
}

_FLOAT = "%.17g"


# ------------------------------------------------------------------ parser


def _checked(kind: Callable, rule: str, holds: Callable) -> Callable[[str], Any]:
    """argparse ``type=`` parsing ``kind`` whose value must satisfy ``holds``.

    A value that parses but breaks the rule is an argparse error naming
    the flag: "argument --duration: must be positive and finite, got 0.0".
    """

    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


_FINITE = _checked(float, "be finite", math.isfinite)
_POSITIVE = _checked(float, "be positive and finite", lambda v: 0.0 < v < math.inf)
_NON_NEGATIVE = _checked(float, "be non-negative and finite", lambda v: 0.0 <= v < math.inf)
# finite when both parts are, so 1e308+1e308j parses though its modulus overflows
_FINITE_COMPLEX = _checked(complex, "be finite", np.isfinite)


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        metavar="DIR",
        default="gravfringe-out",
        help="output directory (created if missing; default: %(default)s)",
    )
    configured = argparse.ArgumentParser(add_help=False, parents=[out])
    configured.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="configuration file (default: the subcommand's built-in geometry)",
    )

    parser = argparse.ArgumentParser(
        prog="gravfringe",
        description="Interferometric test of nonclassical dynamics in a "
        "gravitational field: frequencies, fringe records, sweeps, "
        "phase-space validation, and fits.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser(
        "frequencies",
        parents=[configured],
        help="report phase frequencies, radii, and nulling distances",
    )

    sim = sub.add_parser(
        "simulate",
        parents=[configured],
        help="synthesize a fringe record under one dynamics model",
    )
    sim.add_argument(
        "--seed", type=_checked(int, "be non-negative", lambda v: v >= 0),
        default=None, metavar="INT",
        help="random seed for the additive noise",
    )
    sim.add_argument(
        "--model",
        required=True,
        choices=tuple(_LAWS),
        help="dynamical law generating the record",
    )
    sim.add_argument(
        "--duration", type=_POSITIVE, required=True, metavar="SECONDS",
        help="record span in seconds",
    )
    sim.add_argument(
        "--samples",
        type=_checked(int, f"lie in 2..{_MAX_ARRAY_SIZE}",
                      lambda v: 2 <= v <= _MAX_ARRAY_SIZE),
        default=200, metavar="N",
        help="number of samples (default: %(default)s)",
    )
    sim.add_argument(
        "--noise-sd", type=_NON_NEGATIVE, default=0.0, metavar="SD",
        help="additive Gaussian noise standard deviation (default: 0)",
    )
    sim.add_argument(
        "--omega-q", type=_FINITE, default=None, metavar="RAD_S",
        help="schrodinger: rotation frequency (default: from the config)",
    )
    sim.add_argument(
        "--omega-c", type=_FINITE, default=None, metavar="RAD_S",
        help="classical: rotation frequency (default: from the config)",
    )
    sim.add_argument(
        "--lambda", dest="lam", type=_NON_NEGATIVE, default=None, metavar="PER_S",
        help="tilloy-diosi: coherence decay rate",
    )
    sim.add_argument(
        "--omega-g", type=_FINITE, default=None, metavar="RAD_S",
        help="tilloy-diosi: rotation frequency",
    )
    sim.add_argument(
        "--a-lr", type=_FINITE_COMPLEX, default=None, metavar="COMPLEX",
        help="general: coherence-to-population coupling (e.g. '0.1+0.05j')",
    )
    sim.add_argument(
        "--b-lr", type=_FINITE_COMPLEX, default=None, metavar="COMPLEX",
        help="general: coherence self-coupling; values starting with a "
        "minus sign need the --b-lr=-0.05+0.22j form",
    )
    sim.add_argument(
        "--b-rl", type=_FINITE_COMPLEX, default=None, metavar="COMPLEX",
        help="general: conjugate-coherence coupling (default: 0)",
    )

    swp = sub.add_parser(
        "sweep",
        parents=[configured],
        help="tabulate both frequencies across one geometry parameter",
    )
    swp.add_argument(
        "--parameter",
        required=True,
        type=str.lower,
        choices=sorted(_SWEEP_FIELDS),
        help="geometry field to vary",
    )
    swp.add_argument("--min", type=_FINITE, required=True,
                     metavar="VALUE", help="first parameter value")
    swp.add_argument("--max", type=_FINITE, required=True,
                     metavar="VALUE", help="last parameter value")
    swp.add_argument("--steps", required=True, metavar="N",
                     type=_checked(int, f"lie in 1..{_MAX_ARRAY_SIZE}",
                                   lambda v: 1 <= v <= _MAX_ARRAY_SIZE),
                     help="number of rows (must be positive)")

    val = sub.add_parser(
        "validate-oracle",
        parents=[configured],
        help="run the phase-space transport oracle against the "
        "closed-form frequencies",
    )
    val.add_argument(
        "--tolerance", type=_POSITIVE, default=0.05, metavar="FLOAT",
        help="pass threshold, relative to the larger predicted frequency "
        "(default: %(default)s)",
    )

    fit = sub.add_parser(
        "fit",
        parents=[out],
        help="estimate damped-fringe parameters from a record file",
    )
    fit.add_argument("record", metavar="RECORD_CSV", help="record file to fit")

    return parser


# ---------------------------------------------------------------- manifest


def _jsonable(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


#: Parsed flags that the manifest records outside ``options``, or not at all.
_NOT_OPTIONS = {"subcommand", "out", "config", "seed"}


class _Manifest:
    """Run manifest written before outputs, finalised with their names.

    ``options`` are the parsed flags, keyed by their argparse dests.
    """

    def __init__(
        self, out_dir: Path, args: argparse.Namespace, echo: dict[str, object]
    ) -> None:
        self.path = out_dir / "manifest.json"
        self.data = {
            "subcommand": args.subcommand,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "output_dir": str(out_dir),
            "seed": getattr(args, "seed", None),
            "config": echo,
            "options": {
                k: _jsonable(v) for k, v in vars(args).items() if k not in _NOT_OPTIONS
            },
            "outputs": [],
        }
        self._write()

    def _write(self) -> None:
        with _write_atomic(self.path) as handle:
            handle.write(json.dumps(self.data, indent=2) + "\n")

    def finalize(self, *output_names: str) -> None:
        self.data["outputs"] = list(output_names)
        self._write()


def _resolve_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is None:
        return cesium_tungsten_config()
    return load_config(args.config)


def _experiment_echo(config: ExperimentConfig) -> dict[str, object]:
    return _parse_flat_document(serialize_config(config), "config")


# ------------------------------------------------------------- subcommands


class _StdoutFailed(Exception):
    """A write to standard output failed (the reader closed the pipe)."""


def _say(text: str, end: str = "\n") -> None:
    try:
        print(text, end=end)
    except OSError as exc:
        raise _StdoutFailed(exc) from exc


#: exit status of a process whose write to stdout or stderr fails, as at
#: interpreter exit
_WRITE_FAILED = 120


def _complain(line: str, status: int) -> int:
    """Print ``line`` to standard error and return ``status``, or 120 when
    standard error is closed."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        return _WRITE_FAILED
    return status


def _cmd_frequencies(args: argparse.Namespace, out_dir: Path) -> int:
    config = _resolve_experiment_config(args)
    manifest = _Manifest(out_dir, args, _experiment_echo(config))
    report = _render_flat(frequency_report(config).items())
    with _write_atomic(out_dir / "frequencies.txt") as handle:
        handle.write(report)
    manifest.finalize("frequencies.txt")
    _say(report, end="")
    return 0


def _flag(name: str) -> str:
    """Command-line spelling of a law parameter."""
    return "--" + _LABELS.get(name, name).replace("_", "-")


def _model_from_flags(args: argparse.Namespace, config: ExperimentConfig) -> DynamicsModel:
    """The ``--model`` law, built from its own flags.

    A rotation frequency left unset comes from the config's closed form;
    a flag of another law, or a missing parameter without a default, is
    a :class:`ConfigValidationError` naming the flags.
    """
    law = _LAWS[args.model]
    own = {f.name: f for f in fields(law)}
    params = sorted({f.name for each in _LAWS.values() for f in fields(each)})
    given = {name: getattr(args, name) for name in params if getattr(args, name) is not None}
    stray = [name for name in given if name not in own]
    if stray:
        flags = ", ".join(_flag(name) for name in stray)
        raise ConfigValidationError(f"{flags} does not apply to --model {args.model}")
    for name, omega in (("omega_q", omega_quantum), ("omega_c", omega_classical)):
        if name in own and name not in given:
            given[name] = omega(config)
    missing = [name for name, f in own.items() if name not in given and f.default is MISSING]
    if missing:
        flags = ", ".join(_flag(name) for name in missing)
        raise ConfigValidationError(f"--model {args.model} requires {flags}")
    return law(**given)


def _check_sampling(model: DynamicsModel, args: argparse.Namespace) -> None:
    """Refuse a record whose step exceeds pi/|omega|, for omega the
    model's fastest rotation (|Im| of the coherence block's
    eigenvalues): its fringe would read as an alias."""
    omega = float(np.max(np.abs(np.linalg.eigvals(coherence_matrix(model)).imag)))
    step = args.duration / (args.samples - 1)
    if omega * step > math.pi:
        raise ConfigValidationError(
            f"--samples {args.samples} over --duration {args.duration!r} s "
            f"steps {step:.6g} s, longer than pi/|omega| = {math.pi / omega:.6g} s "
            f"for the model's fastest rotation {omega:.6g} rad/s; the record "
            "would alias"
        )


def _cmd_simulate(args: argparse.Namespace, out_dir: Path) -> int:
    config = _resolve_experiment_config(args)
    model = _model_from_flags(args, config)
    manifest = _Manifest(out_dir, args, _experiment_echo(config))
    times = np.linspace(0.0, args.duration, args.samples)
    record = synthesize_record(
        model, times, noise_sd=args.noise_sd, seed=args.seed
    )
    # after synthesis: a track that overflows is a numerical failure
    # however it is sampled
    _check_sampling(model, args)
    write_record(record, out_dir / "record.csv")
    manifest.finalize("record.csv")
    _say(f"wrote {out_dir / 'record.csv'} ({record.model}, {args.samples} samples)")
    return 0


def _cmd_sweep(args: argparse.Namespace, out_dir: Path) -> int:
    if not math.isfinite(args.max - args.min):
        raise ConfigValidationError(
            f"--max minus --min must be finite, got --min={args.min!r} "
            f"--max={args.max!r}"
        )
    config = _resolve_experiment_config(args)
    field = _SWEEP_FIELDS[args.parameter]
    manifest = _Manifest(out_dir, args, _experiment_echo(config))
    # closed-form evaluations at microsecond scale: computed in order,
    # which is already the deterministic ordering the output promises
    rows = [f"# parameter={args.parameter},field={field}"]
    rows.append("value,omega_classical_rad_s,omega_quantum_rad_s,status")
    for value in np.linspace(args.min, args.max, args.steps):
        try:
            varied = with_updates(config, **{field: float(value)})
            row = (
                f"{value:{_FLOAT[1:]}},{omega_classical(varied):{_FLOAT[1:]}},"
                f"{omega_quantum(varied):{_FLOAT[1:]}},ok"
            )
        except GravfringeError:
            row = f"{value:{_FLOAT[1:]}},nan,nan,infeasible"
        rows.append(row)
    with _write_atomic(out_dir / "sweep.csv") as handle:
        handle.write("\n".join(rows) + "\n")
    manifest.finalize("sweep.csv")
    _say(f"wrote {out_dir / 'sweep.csv'} ({args.steps} rows)")
    return 0


def _cmd_validate_oracle(args: argparse.Namespace, out_dir: Path) -> int:
    if args.config is None:
        config = default_scaled_config()
    else:
        config = load_oracle_config(args.config)
    echo = _parse_flat_document(
        serialize_oracle_config(config), "oracle config", text_keys={"potential"}
    )
    manifest = _Manifest(out_dir, args, echo)
    report = run_validation(config, tolerance=args.tolerance)
    write_report(report, out_dir / "oracle_report.txt")
    manifest.finalize("oracle_report.txt")
    _say("\n".join(report.lines()))
    if not report.passed:
        return _complain(
            "validation FAILED: measured phase velocities disagree with "
            "the closed-form frequencies beyond tolerance",
            3,
        )
    return 0


def _cmd_fit(args: argparse.Namespace, out_dir: Path) -> int:
    record = read_record(args.record)
    echo = {
        "model": record.model,
        "seed": record.seed,
        "noise_sd": record.noise_sd,
        "n_samples": record.times.size,
    }
    manifest = _Manifest(out_dir, args, echo)
    fit = fit_damped_fringe(record)
    write_fit_result(fit, out_dir / "fit.txt")
    manifest.finalize("fit.txt")
    _say((out_dir / "fit.txt").read_text(encoding="utf-8"), end="")
    return 0


_DISPATCH = {
    "frequencies": _cmd_frequencies,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "validate-oracle": _cmd_validate_oracle,
    "fit": _cmd_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.subcommand](args, out_dir)
    except _StdoutFailed as exc:
        return _complain(f"gravfringe: cannot write <stdout>: {exc}", _WRITE_FAILED)
    except (NumericalError, ArithmeticError) as exc:
        return _complain(f"gravfringe: numerical failure: {exc}", 3)
    except (GravfringeError, OSError, MemoryError) as exc:
        return _complain(f"gravfringe: {exc}", 2)
    except UnicodeDecodeError as exc:
        path = args.record if args.subcommand == "fit" else args.config
        return _complain(f"gravfringe: cannot decode {path}: {exc}", 2)


def run() -> NoReturn:
    """Process entry: :func:`main` on ``sys.argv``, flush, and ``os._exit``."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError) as exc:  # the reader closed the pipe
            if status != _WRITE_FAILED:  # main has not reported it already
                with contextlib.suppress(OSError, ValueError):
                    print(f"gravfringe: cannot write {stream.name}: {exc}",
                          file=sys.stderr, flush=True)
            status = _WRITE_FAILED
    os._exit(status)


if __name__ == "__main__":
    run()
