"""Command-line front end: reports, records, sweeps, oracle runs, fits.

Each subcommand declares only the flags it reads.  Every subcommand but
``fit`` resolves its configuration (an explicit ``--config`` file or the
built-in benchmark geometry); each writes a ``manifest.json`` into the
output directory *before* any data file, produces its outputs, and
rewrites the manifest with the produced file names.  Identical
invocations, seed included, produce byte-identical data files; only the
manifest timestamp varies.

Exit status: 0 on success, which for ``validate-oracle`` includes the
tolerance check passing, and 3 for a failed validation.  Every other
status follows from the class of the exception that ended the run, by
the rule stated in :mod:`gravfringe.errors`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

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
from .twostate import ClassicalPoisson, GeneralLinear, Schrodinger, TilloyDiosi

__all__ = ["main"]

_SWEEP_FIELDS = {
    "d1": "dist_left",
    "d2": "dist_right",
    "m1": "mass_left",
    "m2": "mass_right",
    "dx": "arm_separation",
}

_FLOAT = "%.17g"


# ------------------------------------------------------------------ parser


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
        "--seed", type=int, default=None, metavar="INT",
        help="random seed for the additive noise",
    )
    sim.add_argument(
        "--model",
        required=True,
        choices=("schrodinger", "classical", "tilloy-diosi", "general"),
        help="dynamical law generating the record",
    )
    sim.add_argument(
        "--duration", type=float, required=True, metavar="SECONDS",
        help="record span in seconds",
    )
    sim.add_argument(
        "--samples", type=int, default=200, metavar="N",
        help="number of samples (default: %(default)s)",
    )
    sim.add_argument(
        "--noise-sd", type=float, default=0.0, metavar="SD",
        help="additive Gaussian noise standard deviation (default: 0)",
    )
    sim.add_argument(
        "--omega-q", type=float, default=None, metavar="RAD_S",
        help="schrodinger: rotation frequency (default: from the config)",
    )
    sim.add_argument(
        "--omega-c", type=float, default=None, metavar="RAD_S",
        help="classical: rotation frequency (default: from the config)",
    )
    sim.add_argument(
        "--lambda", dest="lambda_", type=float, default=None, metavar="PER_S",
        help="tilloy-diosi: coherence decay rate",
    )
    sim.add_argument(
        "--omega-g", type=float, default=None, metavar="RAD_S",
        help="tilloy-diosi: rotation frequency",
    )
    sim.add_argument(
        "--a-lr", type=complex, default=None, metavar="COMPLEX",
        help="general: coherence-to-population coupling (e.g. '0.1+0.05j')",
    )
    sim.add_argument(
        "--b-lr", type=complex, default=None, metavar="COMPLEX",
        help="general: coherence self-coupling; values starting with a "
        "minus sign need the --b-lr=-0.05+0.22j form",
    )
    sim.add_argument(
        "--b-rl", type=complex, default=None, metavar="COMPLEX",
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
    swp.add_argument("--min", type=float, required=True, dest="lo",
                     metavar="VALUE", help="first parameter value")
    swp.add_argument("--max", type=float, required=True, dest="hi",
                     metavar="VALUE", help="last parameter value")
    swp.add_argument("--steps", type=int, required=True, metavar="N",
                     help="number of rows (must be positive)")

    val = sub.add_parser(
        "validate-oracle",
        parents=[configured],
        help="run the phase-space transport oracle against the "
        "closed-form frequencies",
    )
    val.add_argument(
        "--tolerance", type=float, default=0.05, metavar="FLOAT",
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


class _Manifest:
    """Run manifest written before outputs, finalised with their names."""

    def __init__(
        self,
        out_dir: Path,
        subcommand: str,
        config_echo: dict[str, object],
        seed: int | None,
        options: dict[str, object],
    ) -> None:
        self.out_dir = out_dir
        self.path = out_dir / "manifest.json"
        self.data = {
            "subcommand": subcommand,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "output_dir": str(out_dir),
            "seed": seed,
            "config": config_echo,
            "options": {k: _jsonable(v) for k, v in options.items()},
            "outputs": [],
        }
        self._write()

    def _write(self) -> None:
        _write_atomic(self.path, json.dumps(self.data, indent=2) + "\n")

    def finalize(self, *output_names: str) -> None:
        self.data["outputs"] = list(output_names)
        self._write()


def _resolve_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is None:
        return cesium_tungsten_config()
    return load_config(args.config)


# ------------------------------------------------------------- subcommands


def _cmd_frequencies(args: argparse.Namespace, out_dir: Path) -> int:
    config = _resolve_experiment_config(args)
    echo = _parse_flat_document(serialize_config(config), "config")
    manifest = _Manifest(out_dir, "frequencies", echo, None, {})
    report = _render_flat(frequency_report(config).items())
    _write_atomic(out_dir / "frequencies.txt", report)
    manifest.finalize("frequencies.txt")
    print(report, end="")
    return 0


def _flag(name: str) -> str:
    """Command-line spelling of a model-parameter attribute name."""
    return "--" + name.rstrip("_").replace("_", "-")


def _model_from_flags(
    args: argparse.Namespace, config: ExperimentConfig
) -> Schrodinger | ClassicalPoisson | TilloyDiosi | GeneralLinear:
    given = {
        name: getattr(args, name)
        for name in ("omega_q", "omega_c", "lambda_", "omega_g", "a_lr", "b_lr", "b_rl")
        if getattr(args, name) is not None
    }
    allowed = {
        "schrodinger": {"omega_q"},
        "classical": {"omega_c"},
        "tilloy-diosi": {"lambda_", "omega_g"},
        "general": {"a_lr", "b_lr", "b_rl"},
    }[args.model]
    stray = sorted(set(given) - allowed)
    if stray:
        flags = ", ".join(_flag(name) for name in stray)
        raise ConfigValidationError(
            f"{flags} does not apply to --model {args.model}"
        )
    for name, value in given.items():
        if not np.isfinite(value):
            raise ConfigValidationError(f"{_flag(name)} must be finite, got {value!r}")
    if args.model == "schrodinger":
        omega = given.get("omega_q", None)
        return Schrodinger(omega_quantum(config) if omega is None else omega)
    if args.model == "classical":
        omega = given.get("omega_c", None)
        return ClassicalPoisson(omega_classical(config) if omega is None else omega)
    if args.model == "tilloy-diosi":
        missing = sorted({"lambda_", "omega_g"} - set(given))
        if missing:
            flags = ", ".join(_flag(name) for name in missing)
            raise ConfigValidationError(f"--model tilloy-diosi requires {flags}")
        try:
            return TilloyDiosi(lam=given["lambda_"], omega_g=given["omega_g"])
        except ValueError as exc:
            raise ConfigValidationError(f"--lambda: {exc}") from None
    missing = sorted({"a_lr", "b_lr"} - set(given))
    if missing:
        flags = ", ".join(_flag(name) for name in missing)
        raise ConfigValidationError(f"--model general requires {flags}")
    return GeneralLinear(
        a_lr=given["a_lr"], b_lr=given["b_lr"], b_rl=given.get("b_rl", 0.0 + 0.0j)
    )


def _cmd_simulate(args: argparse.Namespace, out_dir: Path) -> int:
    if not 0.0 < args.duration < math.inf:
        raise ConfigValidationError("--duration must be positive and finite")
    if not 2 <= args.samples <= _MAX_ARRAY_SIZE:
        raise ConfigValidationError(
            f"--samples must lie in 2..{_MAX_ARRAY_SIZE}, got {args.samples}"
        )
    if not 0.0 <= args.noise_sd < math.inf:
        raise ConfigValidationError("--noise-sd must be non-negative and finite")
    if args.seed is not None and args.seed < 0:
        raise ConfigValidationError(f"--seed must be non-negative, got {args.seed}")
    config = _resolve_experiment_config(args)
    model = _model_from_flags(args, config)
    options = {
        "model": args.model,
        "duration_s": args.duration,
        "samples": args.samples,
        "noise_sd": args.noise_sd,
        "omega_q": args.omega_q,
        "omega_c": args.omega_c,
        "lambda": args.lambda_,
        "omega_g": args.omega_g,
        "a_lr": args.a_lr,
        "b_lr": args.b_lr,
        "b_rl": args.b_rl,
    }
    echo = _parse_flat_document(serialize_config(config), "config")
    manifest = _Manifest(out_dir, "simulate", echo, args.seed, options)
    times = np.linspace(0.0, args.duration, args.samples)
    record = synthesize_record(
        model, times, noise_sd=args.noise_sd, seed=args.seed
    )
    write_record(record, out_dir / "record.csv")
    manifest.finalize("record.csv")
    print(f"wrote {out_dir / 'record.csv'} ({record.model}, {args.samples} samples)")
    return 0


def _cmd_sweep(args: argparse.Namespace, out_dir: Path) -> int:
    if not 1 <= args.steps <= _MAX_ARRAY_SIZE:
        raise ConfigValidationError(
            f"--steps must lie in 1..{_MAX_ARRAY_SIZE}, got {args.steps}"
        )
    for flag, value in (("--min", args.lo), ("--max", args.hi)):
        if not math.isfinite(value):
            raise ConfigValidationError(f"{flag} must be finite, got {value!r}")
    if not math.isfinite(args.hi - args.lo):
        raise ConfigValidationError(
            f"--max minus --min must be finite, got --min={args.lo!r} "
            f"--max={args.hi!r}"
        )
    config = _resolve_experiment_config(args)
    field = _SWEEP_FIELDS[args.parameter]
    options = {
        "parameter": args.parameter,
        "field": field,
        "min": args.lo,
        "max": args.hi,
        "steps": args.steps,
    }
    echo = _parse_flat_document(serialize_config(config), "config")
    manifest = _Manifest(out_dir, "sweep", echo, None, options)
    # closed-form evaluations at microsecond scale: computed in order,
    # which is already the deterministic ordering the output promises
    rows = [f"# parameter={args.parameter},field={field}"]
    rows.append("value,omega_classical_rad_s,omega_quantum_rad_s,status")
    for value in np.linspace(args.lo, args.hi, args.steps):
        try:
            varied = with_updates(config, **{field: float(value)})
            row = (
                f"{value:{_FLOAT[1:]}},{omega_classical(varied):{_FLOAT[1:]}},"
                f"{omega_quantum(varied):{_FLOAT[1:]}},ok"
            )
        except GravfringeError:
            row = f"{value:{_FLOAT[1:]}},nan,nan,infeasible"
        rows.append(row)
    _write_atomic(out_dir / "sweep.csv", "\n".join(rows) + "\n")
    manifest.finalize("sweep.csv")
    print(f"wrote {out_dir / 'sweep.csv'} ({args.steps} rows)")
    return 0


def _cmd_validate_oracle(args: argparse.Namespace, out_dir: Path) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise ConfigValidationError(
            f"--tolerance must be positive and finite, got {args.tolerance!r}"
        )
    if args.config is None:
        config = default_scaled_config()
    else:
        config = load_oracle_config(args.config)
    echo = _parse_flat_document(
        serialize_oracle_config(config), "oracle config", text_keys={"potential"}
    )
    manifest = _Manifest(
        out_dir, "validate-oracle", echo, None, {"tolerance": args.tolerance}
    )
    report = run_validation(config, tolerance=args.tolerance)
    write_report(report, out_dir / "oracle_report.txt")
    manifest.finalize("oracle_report.txt")
    print("\n".join(report.lines()))
    if not report.passed:
        print(
            "validation FAILED: measured phase velocities disagree with "
            "the closed-form frequencies beyond tolerance",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_fit(args: argparse.Namespace, out_dir: Path) -> int:
    record = read_record(args.record)
    options = {"record": str(args.record)}
    config_echo = {
        "model": record.model,
        "seed": record.seed,
        "noise_sd": record.noise_sd,
        "n_samples": record.times.size,
    }
    manifest = _Manifest(out_dir, "fit", config_echo, None, options)
    fit = fit_damped_fringe(record)
    write_fit_result(fit, out_dir / "fit.txt")
    manifest.finalize("fit.txt")
    print((out_dir / "fit.txt").read_text(encoding="utf-8"), end="")
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
    except (NumericalError, ArithmeticError) as exc:
        print(f"gravfringe: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GravfringeError, OSError, MemoryError) as exc:
        print(f"gravfringe: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        path = args.record if args.subcommand == "fit" else args.config
        print(f"gravfringe: cannot decode {path}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
