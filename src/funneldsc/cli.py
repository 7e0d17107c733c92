"""Experiment runner CLI.

Runs a preset or a config file, writes the trajectory export and a
verification summary, and exits 0 exactly when both funnel bounds held.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import config as cfgmod
from .config import ExperimentConfig
from .controller import ControlMode
from .perf import PerfFunction
from .plants import PLANTS
from .sim import SimConfig, SimulationDivergenceError, run

OUT_DIR_ENV = "FUNNELDSC_OUT_DIR"

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 1
EXIT_ERROR = 2

# each per-run flag sets one config key, its text read as a config file's
PER_RUN_FLAGS = {
    "--mode": ("mode", "controller mode: " + " or ".join(m.value for m in ControlMode)),
    "--dt": ("sim.dt", "integration step, seconds"),
    "--t-end": ("sim.t_end", "simulation horizon, seconds"),
    "--x0": ("init.x0", "comma-separated initial plant state"),
    "--sign-smoothing": ("sign_smoothing", "replace sign(z) by tanh(z/eps); 0 keeps the discontinuity"),
}


def build_problem(cfg: ExperimentConfig):
    """Materialize plant, reference, perf function and sim config."""
    entry = PLANTS[cfg.plant]
    plant, reference = entry.plant(), entry.reference()
    perf = PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
    sim_cfg = SimConfig(
        dt=cfg.dt,
        t_end=cfg.t_end,
        x0=cfg.x0,
        mode=cfg.mode,
        record_every=cfg.record_every,
        exact_filter=cfg.exact_filter,
    )
    return plant, reference, perf, sim_cfg


def _print(text: str) -> None:
    """Print ``text`` and flush it.  A closed stdout (``| head -1``) does
    not change the exit status: this and every later write, the one at
    exit included, go to devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> int:
    """Run one experiment, write artifacts, return the process exit status.

    The run writes its rows to ``trajectory.csv`` block by block as it
    goes, and keeps none.  A run rejected or diverged raises and leaves no
    output: its partial CSV and every directory this call created are
    removed, and the artifacts of an earlier run in ``out`` stay as they
    were."""
    out = Path(out_dir or cfg.out or os.environ.get(OUT_DIR_ENV, "."))
    plant, reference, perf, sim_cfg = build_problem(cfg)
    created = list(itertools.takewhile(lambda p: not p.exists(), (out, *out.parents)))
    out.mkdir(parents=True, exist_ok=True)
    partial = out / "trajectory.csv.partial"
    try:
        with open(partial, "w", newline="") as fh:
            traj, report = run(
                plant,
                reference,
                cfg.gains,
                perf,
                sim_cfg,
                kind=cfg.transform_kind,
                sign_smoothing=cfg.sign_smoothing,
                csv_file=fh,
            )
    except BaseException:
        partial.unlink(missing_ok=True)
        for path in created:  # deepest first
            path.rmdir()
        raise

    (out / "config.txt").write_text(cfgmod.serialize_config(cfg))
    partial.replace(out / "trajectory.csv")
    summary = report.as_dict()
    summary["breach_time"] = traj.breach
    (out / "verification.json").write_text(json.dumps(summary, indent=2) + "\n")

    lines = [
        f"transient bound (|arctan(e)| < eta): {'PASS' if report.transient_ok else 'FAIL'}",
        f"steady bound (|e| < tan(c) after T): {'PASS' if report.steady_ok else 'FAIL'}",
        f"max |e|          : {report.max_abs_error:.6g}",
        f"max |e| after T  : {report.max_abs_error_after_T:.6g}",
        f"max |u|          : {report.max_abs_control:.6g}",
        f"peak |u| at t    : {report.peak_control_time:.6g}",
        f"min funnel margin: {report.min_funnel_margin:.6g} (recorded samples)",
        f"min margin at t  : {report.min_margin_time:.6g}",
    ]
    if traj.breach is not None:
        lines.append(f"funnel breach at t = {traj.breach:.6g}")
    text = "\n".join(lines)
    (out / "verification.txt").write_text(text + "\n")
    _print(text)
    return EXIT_OK if report.transient_ok and report.steady_ok else EXIT_BOUND_VIOLATED


def _guarded(load, out_dir):
    """``(exit status, error message)`` of running the config ``load()``
    returns; any exception is exit 2, an unexpected one with its type in
    the message, so it stays this run's and never reads as exit 1."""
    try:
        return run_experiment(load(), out_dir=out_dir), None
    except (ValueError, OSError, SimulationDivergenceError) as exc:
        return EXIT_ERROR, str(exc)
    except Exception as exc:
        return EXIT_ERROR, f"{type(exc).__name__}: {exc}"


def _sweep_worker(args):
    """Run one sweep config; returns (path, exit status, error message)."""
    path, out_root = args
    return path, *_guarded(lambda: cfgmod.load_config(path), Path(out_root) / Path(path).stem)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="funneldsc",
        description="Prescribed-time funnel tracking experiments on strict-feedback plants.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=sorted(cfgmod.PRESETS), help="built-in case study")
    source.add_argument("--config", help="flat key-value config file")
    for flag, (key, text) in PER_RUN_FLAGS.items():
        parser.add_argument(flag, dest=key, help=text)
    parser.add_argument("--out", help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
    source.add_argument("--sweep", nargs="+", metavar="CONFIG", help="run several config files in parallel workers")
    args = parser.parse_args(argv)
    args.overrides = {key: text for key, _ in PER_RUN_FLAGS.values() if (text := vars(args)[key]) is not None}
    if args.sweep and args.overrides:
        flags = " ".join(flag for flag, (key, _) in PER_RUN_FLAGS.items() if key in args.overrides)
        parser.error(f"argument --sweep: not allowed with {flags}; each config file sets its own run")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])

    if args.sweep:
        out_root = args.out or os.environ.get(OUT_DIR_ENV, "sweep-out")
        first = {}  # by file stem, which names a config's output directory
        for i, path in enumerate(args.sweep):
            if (j := first.setdefault(Path(path).stem, i)) != i:
                print(f"error: {args.sweep[j]} and {path} would both write {Path(out_root) / Path(path).stem}", file=sys.stderr)
                return EXIT_ERROR
        import multiprocessing  # only a sweep starts workers; a single run skips its import

        # each worker creates only its own directory, so one worker's failed
        # run never removes a directory that another writes into
        try:
            Path(out_root).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with multiprocessing.Pool(min(len(args.sweep), cores or 1)) as pool:
            results = pool.map(_sweep_worker, [(p, out_root) for p in args.sweep])
        status = EXIT_OK
        for path, code, message in results:
            _print(f"{path}: exit {code}")
            if message is not None:
                print(f"error: {path}: {message}", file=sys.stderr)
            status = max(status, code)
        return status

    if not (args.config or args.preset):
        print("error: one of --preset, --config or --sweep is required", file=sys.stderr)
        return EXIT_ERROR

    def load():
        cfg = cfgmod.load_config(args.config) if args.config else cfgmod.PRESETS[args.preset]()
        return cfgmod.override(cfg, args.overrides)

    code, message = _guarded(load, args.out)
    if message is not None:
        print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
