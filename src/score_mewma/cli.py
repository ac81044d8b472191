"""Command line interface: fit, calibrate, study, monitor, simulate.

Exit codes are stable: 0 ok, 2 input or parse problem (including a
numerically singular chart covariance and a file that cannot be read or
written), 3 fit failure (non-convergence or complete separation), 4
calibration failure, 5 invalid shift, 130 interrupted (Ctrl-C), 141 the
reader of standard output closed it. Every output file embeds a run
manifest whose argv re-runs the command with byte-identical payload bytes
on the same machine and BLAS kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import io as fio
from .calibrate import calibrate_h
from .chart import ASYMPTOTIC, EXACT_RECURSIVE, ChartConfig, run_stream
from .errors import (
    CalibrationError,
    DataFormatError,
    FitError,
    ModelConfigError,
    ShiftError,
    SingularMatrixError,
)
from .likelihood import MIN_MC_SAMPLES, expected_score_covariance, fit_mle
from .mc import MAX_RL, MAX_THREADS, PatientGenerator, sample_patients, shutdown_pool
from .model import model_hash
from .shifts import (
    MEAN_ODDS,
    SHIFT_KINDS,
    ShiftSpec,
    StudyGrid,
    apply_shift,
    in_control_generator,
    run_arl_study,
    validate_shift_targets,
)
from .version import __version__

EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process that signal ends


def _err(msg: str) -> None:
    print(f"score-mewma: {msg}", file=sys.stderr)


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _float_where(accept, message: str):
    def parse(text: str) -> float:
        value = float(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = "float"  # argparse names the type in "invalid float value"
    return parse


_positive_finite = _float_where(lambda v: v > 0.0 and math.isfinite(v), "must be positive and finite")


def _chart(model, params, args, h):
    """The chart from the command's chart options, and those options' echo."""
    sigma = expected_score_covariance(
        model.spec,
        params,
        model.covariates,
        mc_samples=args.sigma_samples,
        seed=getattr(args, "seed", 0) or 0,
    )
    config = ChartConfig(
        sigma_s=sigma.values,
        r=args.r,
        h=h,
        covariance_mode=args.covariance_mode,
        warmup=args.warmup,
        coord_names=params.names,
    )
    echo = {"r": args.r, "warmup": args.warmup, "covariance_mode": args.covariance_mode,
            "sigma_s_mode": sigma.mode}
    if sigma.mc_samples:
        echo["sigma_samples"] = sigma.mc_samples
    return config, echo


def _load_model_and_params(args):
    model = fio.load_model_config(args.model_config)
    params = fio.load_params_file(args.params, model.spec)
    return model, params


def cmd_fit(args) -> int:
    model = fio.load_model_config(args.model_config)
    data = fio.read_patient_csv(args.data_csv, model.spec)
    fit = fit_mle(model.spec, data)
    payload = {
        "model_hash": model_hash(model),
        "n_records": len(data),
        "log_likelihood": fit.log_likelihood,
        "converged": fit.converged,
        "params": fit.params.as_dict(),
        "std_errors": {n: float(se) for n, se in zip(fit.params.names, fit.std_errors)},
        "nodes": {
            r.node_id: {
                "iterations": r.iterations,
                "converged": r.converged,
                "score_max": r.score_max,
                "estimator": r.estimator,
                "separation": r.separation,
            }
            for r in fit.node_reports
        },
    }
    manifest = fio.make_manifest("fit", args.argv, model_hash(model), seed=None, config={})
    fio.write_json_report(args.out, manifest, payload)
    return 0


def cmd_calibrate(args) -> int:
    model, params = _load_model_and_params(args)
    config, chart_echo = _chart(model, params, args, h=None)
    reps = args.reps
    # --reps is the final stage, so no stage runs more
    schedule = tuple(sorted({min(n, reps) for n in (max(100, reps // 10), max(500, reps // 3), reps)}))
    result = calibrate_h(
        in_control_generator(model),
        params,
        config,
        target_arl=args.target_arl,
        rel_tolerance=args.rel_tolerance,
        reps_schedule=schedule,
        seed=args.seed,
        max_rl=args.max_rl,
        threads=args.threads,
    )
    echo = {
        "target_arl": args.target_arl,
        **chart_echo,
        "rel_tolerance": args.rel_tolerance,
        "reps_schedule": list(schedule),
        "max_rl": result.achieved_arl.max_rl,
        "seed": args.seed,
    }
    payload = {
        "model_hash": model_hash(model),
        "h": result.h,
        "achieved_arl": result.achieved_arl.as_dict(),
        "iterations": result.iterations,
        "bracket": list(result.bracket),
        "config": echo,
    }
    manifest = fio.make_manifest("calibrate", args.argv, model_hash(model), seed=args.seed, config=echo)
    fio.write_json_report(args.out, manifest, payload)
    return 0


def _parse_targets(text: str) -> tuple[str, ...]:
    targets = tuple(t.strip() for t in text.split(",") if t.strip())
    if not targets:
        raise ShiftError("no shift targets given")
    return targets


def cmd_study(args) -> int:
    model, params = _load_model_and_params(args)
    targets = _parse_targets(args.targets)
    validate_shift_targets(model.spec, params, args.shift, targets)
    placeholder = 1.0 if args.shift == MEAN_ODDS else 0.0
    template = ShiftSpec(kind=args.shift, targets=targets, c=placeholder)
    c_values = fio.parse_c_grid(args.c_grid)
    config, chart_echo = _chart(model, params, args, h=args.h)
    grid = StudyGrid(shift=template, c_values=tuple(c_values), reps=args.reps, chart=config, max_rl=args.max_rl)
    rows = run_arl_study(in_control_generator(model), params, grid, seed=args.seed, threads=args.threads)
    echo = {
        "shift": args.shift,
        "targets": list(targets),
        "c_grid": args.c_grid,
        "reps": args.reps,
        "h": args.h,
        **chart_echo,
        "max_rl": args.max_rl,
        "seed": args.seed,
    }
    manifest = fio.make_manifest("study", args.argv, model_hash(model), seed=args.seed, config=echo)
    fio.write_study_csv(args.out, manifest, rows)
    if args.emit_plot_data:
        fio.write_plot_csv(args.emit_plot_data, manifest, rows)
    return 0


def cmd_monitor(args) -> int:
    model, params = _load_model_and_params(args)
    config, chart_echo = _chart(model, params, args, h=args.h)
    echo = {"h": args.h, **chart_echo}
    manifest = fio.make_manifest("monitor", args.argv, model_hash(model), seed=None, config=echo)

    with contextlib.ExitStack() as stack:
        infile, outfile = sys.stdin, sys.stdout
        if args.data_csv != "-":
            infile = stack.enter_context(open(args.data_csv, "r", encoding="utf-8"))
        if args.out != "-":
            outfile = stack.enter_context(open(args.out, "w", encoding="utf-8", newline="\n"))
        fio._write_manifest_line(outfile, manifest)
        outfile.write("t,t2,signal,post_signal\n")
        outfile.flush()
        records = fio.iter_patient_rows(infile, model.spec)
        signalled = False
        for t, t2, signal in run_stream(model.spec, params, config, records):
            outfile.write(f"{t},{t2!r},{int(signal)},{int(signalled)}\n")
            outfile.flush()
            signalled = signalled or signal
    return 0


def cmd_simulate(args) -> int:
    model, params = _load_model_and_params(args)
    # generation follows the supplied params, not the config's bundled values
    generator = PatientGenerator(spec=model.spec, params=params, covariates=model.covariates)
    echo = {"n": args.n, "seed": args.seed}
    if args.shift or args.targets or args.c is not None:
        if not (args.shift and args.targets and args.c is not None):
            raise ShiftError("--shift, --targets and --c must be given together")
        targets = _parse_targets(args.targets)
        validate_shift_targets(model.spec, params, args.shift, targets)
        generator = apply_shift(generator, ShiftSpec(kind=args.shift, targets=targets, c=args.c))
        echo.update(shift=args.shift, targets=list(targets), c=args.c)
    data = sample_patients(generator, args.n, np.random.default_rng(args.seed))
    manifest = fio.make_manifest("simulate", args.argv, model_hash(model), seed=args.seed, config=echo)
    fio.write_patient_csv(args.out, model.spec, data, manifest)
    return 0


def _add_chart_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=_float_where(lambda v: 0.0 < v <= 1.0, "smoothing weight must lie in (0, 1]"),
                   default=0.1, help="EWMA smoothing weight (default 0.1)")
    p.add_argument("--warmup", type=_int_at_least(1), default=1, help="patients before signals count")
    p.add_argument(
        "--covariance-mode",
        choices=[EXACT_RECURSIVE, ASYMPTOTIC],
        default=EXACT_RECURSIVE,
        help="chart covariance: time-varying recursion or its limit",
    )
    p.add_argument("--sigma-samples", type=_int_at_least(MIN_MC_SAMPLES), default=MIN_MC_SAMPLES,
                   help=f"Monte Carlo patients for a model above the enumeration limit (at least {MIN_MC_SAMPLES})")
    p.add_argument("--threads", type=_int_at_least(0, MAX_THREADS), default=None,
                   help=f"worker processes, 0 for auto, at most {MAX_THREADS} (default: SCORE_MEWMA_THREADS "
                   "or auto); never changes a result")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="score-mewma",
        description="Score-based MEWMA monitoring of multistage procedures with binary outcomes.",
    )
    parser.add_argument("--version", action="version", version=f"score-mewma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit reference coefficients to a patient CSV")
    p.add_argument("model_config")
    p.add_argument("data_csv")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("calibrate", help="find the control limit for a target in-control ARL")
    p.add_argument("model_config")
    p.add_argument("params")
    p.add_argument("--target-arl", required=True,
                   type=_float_where(lambda v: v > 1.0 and math.isfinite(v), "target ARL must be finite and exceed 1"))
    p.add_argument("--reps", type=_int_at_least(1), default=10_000, help="final-stage replications")
    p.add_argument("--rel-tolerance", type=_positive_finite, default=0.02)
    p.add_argument("--max-rl", type=_int_at_least(1, MAX_RL), default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_chart_options(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("study", help="out-of-control ARL table over a shift grid")
    p.add_argument("model_config")
    p.add_argument("params")
    p.add_argument("--shift", required=True, choices=SHIFT_KINDS)
    p.add_argument("--targets", required=True, help="comma-separated coefficient or outcome names")
    p.add_argument(
        "--c-grid", required=True, help=f"list a,b,c or range start:stop:step of at most {fio.MAX_C_GRID} points"
    )
    p.add_argument("--h", type=_positive_finite, required=True, help="calibrated control limit")
    p.add_argument("--reps", type=_int_at_least(1), default=5000)
    p.add_argument("--max-rl", type=_int_at_least(1, MAX_RL), default=4000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--emit-plot-data", metavar="PATH", default=None)
    _add_chart_options(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("monitor", help="stream a patient CSV through the chart")
    p.add_argument("model_config")
    p.add_argument("params")
    p.add_argument("data_csv", nargs="?", default="-", help="patient CSV path or - for stdin")
    p.add_argument("--h", type=_positive_finite, required=True)
    _add_chart_options(p)
    p.add_argument("-o", "--out", required=True, help="trace CSV path or - for stdout")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("simulate", help="write a synthetic patient CSV")
    p.add_argument("model_config")
    p.add_argument("params")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--shift", default=None, choices=SHIFT_KINDS)
    p.add_argument("--targets", default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def _stdout_to_devnull() -> None:
    """Point standard output's file descriptor at os.devnull, so that the
    interpreter's flush at exit meets no closed pipe (the recipe in the
    ``signal`` module's documentation). A stream without a descriptor is left
    as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = tuple(argv)
    try:
        return args.func(args)
    except (ModelConfigError, DataFormatError, SingularMatrixError) as exc:
        _err(str(exc))
        return 2
    except FileNotFoundError as exc:
        _err(f"file not found: {exc.filename}")
        return 2
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        shutdown_pool()  # workers ignore Ctrl-C; drop their queued chunks
        _err("interrupted")
        return EXIT_INTERRUPTED
    except OSError as exc:
        _err(f"{exc.filename}: {exc.strerror}" if exc.filename is not None else str(exc))
        return 2
    except FitError as exc:
        _err(str(exc))
        return 3
    except CalibrationError as exc:
        _err(str(exc))
        return 4
    except ShiftError as exc:
        _err(str(exc))
        return 5


def rerun_from_manifest(output_path: str, out: str) -> int:
    """Re-run the command recorded in an output file's manifest.

    The recorded argv is replayed with its output redirected to ``out``;
    on the same machine and BLAS kernel the payload comes out
    byte-identical.
    """
    manifest = fio.read_manifest(output_path)
    if manifest is None:
        raise DataFormatError(f"{output_path}: no run manifest found")
    argv = list(manifest["argv"])
    for flag in ("-o", "--out"):
        if flag in argv:
            argv[argv.index(flag) + 1] = out
            break
    else:
        argv += ["-o", out]
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
