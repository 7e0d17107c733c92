"""Workload definitions, seed-drawn inputs and the golden-record check.

Shared by ``run.py``, the fresh interpreter that runs one
repetition (``child.py``) and the traced run (``layers.py``).  Every caller
puts the checkout's ``src`` directory on ``sys.path`` before importing this
module, so it only ever sees the program built from that checkout.

A *plan* is the JSON-serialisable description of one workload instance:
its name, its horizon profile and, for the sweep, the config files written
for it.  ``setup(plan)`` does what a user pays before the first simulation
call; ``execute(plan, state)`` runs the workload through the public API and
returns one observed record per simulation run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import time
from dataclasses import replace
from pathlib import Path

from funneldsc import cli, config, sim
from funneldsc.controller import ControlMode

HERE = Path(__file__).resolve().parent

WORKLOADS = ("em-fuzzy", "sl-recorded", "sweep-x0")

# Both horizons of the "full" profile end past the settling time T = 0.5 s,
# so the steady-state verdict is live: it reads PASS vacuously whenever
# t_end < T (see NOTES.md).  "smoke" is the tiny-horizon self-test profile;
# "short" is the baseline the traced run subtracts to count calls per step.
HORIZON = {"full": 0.6, "smoke": 0.02, "short": 0.005}

# Sweep inputs.  The electromechanical box is spanned by the paper's two
# starts (5, 3, 2) and (-500, -300, -200); the single-link box is pi +- 3
# in angle and +- 5 in rate.  The step sizes are the coarsest that pass at
# the parent commit of this benchmark; the weak-gain control must breach.
EM_BOX = ((-500.0, 5.0), (-300.0, 3.0), (-200.0, 2.0))
SL_BOX = ((math.pi - 3.0, math.pi + 3.0), (-5.0, 5.0))
FAR_START = (-500.0, -300.0, -200.0)
EM_DT, SL_DT, WEAK_DT = 2e-5, 5e-5, 1e-4

PEAKS = ("max_abs_error_after_T", "max_abs_control")
_EXIT_LINE = re.compile(r"^(?P<path>.+): exit (?P<code>-?\d+)$")


def single_config(workload: str, profile: str):
    """The fixed-x0 config of ``em-fuzzy`` or ``sl-recorded``."""
    t_end = HORIZON[profile]
    if workload == "em-fuzzy":
        return replace(config.electromechanical_preset(), t_end=t_end, record_every=10)
    if workload == "sl-recorded":
        return replace(config.single_link_preset(), t_end=t_end, record_every=1)
    raise ValueError(f"no single config for workload {workload!r}")


def sweep_configs(seed: int, profile: str) -> dict:
    """The eight sweep configs by run name, heaviest first.

    ``pool.map`` hands tasks out in this order, so the long electromechanical
    runs start first and the two workers finish close together.
    """
    rng = random.Random(seed)

    def draw(box):
        return tuple(rng.uniform(lo, hi) for lo, hi in box)

    t_end = HORIZON[profile]
    em = replace(config.electromechanical_preset(), dt=EM_DT, t_end=t_end)
    sl = replace(config.single_link_preset(), dt=SL_DT, t_end=t_end)
    fuzzy, free = ControlMode.FUZZY, ControlMode.APPROX_FREE
    return {
        "em-fuzzy-seed": replace(em, mode=fuzzy, x0=draw(EM_BOX)),
        "em-fuzzy-far": replace(em, mode=fuzzy, x0=FAR_START),
        "em-approx-seed": replace(em, mode=free, x0=draw(EM_BOX)),
        "sl-fuzzy-seed-a": replace(sl, mode=fuzzy, x0=draw(SL_BOX)),
        "sl-approx-seed-a": replace(sl, mode=free, x0=draw(SL_BOX)),
        "sl-fuzzy-seed-b": replace(sl, mode=fuzzy, x0=draw(SL_BOX)),
        "sl-approx-seed-b": replace(sl, mode=free, x0=draw(SL_BOX)),
        "weak-gain": replace(config.weak_gain_single_link(), dt=WEAK_DT, t_end=t_end, record_every=100),
    }


def make_plan(workload: str, seed: int, profile: str, work_dir: Path) -> dict:
    """Describe one workload instance; writes the sweep's config files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work_dir.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "profile": profile, "seed": seed, "out": str(work_dir / "out")}
    if workload == "sweep-x0":
        cfg_dir = work_dir / "configs"
        cfg_dir.mkdir(exist_ok=True)
        paths = []
        for name, cfg in sweep_configs(seed, profile).items():
            path = cfg_dir / f"{name}.cfg"
            path.write_text(config.serialize_config(cfg))
            paths.append(str(path))
        plan["configs"] = paths
    return plan


def setup(plan: dict) -> list:
    """Config load and ``build_problem`` for every run of the workload.

    Returns ``(name, cfg, problem)`` triples.  This is the work a user pays
    between interpreter start and the first simulation call.
    """
    if plan["workload"] == "sweep-x0":
        cfgs = [(Path(p).stem, config.load_config(p)) for p in plan["configs"]]
    else:
        cfgs = [(plan["workload"], single_config(plan["workload"], plan["profile"]))]
    return [(name, cfg, cli.build_problem(cfg)) for name, cfg in cfgs]


def _steps(cfg, breach) -> int:
    end = cfg.t_end if breach is None else breach
    return int(round(end / cfg.dt))


def _observed_from_artifacts(out_dir: Path, cfg, exit_code) -> dict:
    path = out_dir / "verification.json"
    if not path.is_file():
        return {"exit": exit_code, "error": f"no {path.name} written"}
    summary = json.loads(path.read_text())
    observed = {key: summary.get(key) for key in ("transient_ok", "steady_ok") + PEAKS}
    observed["exit"] = exit_code
    observed["steps"] = _steps(cfg, summary.get("breach_time"))
    return observed


def execute(plan: dict, state: list, serial: bool = False):
    """Run the workload once; returns ``(observed_by_run, steps, body_s)``.

    ``body_s`` is the wall time of the workload's public call: ``sim.run``
    for em-fuzzy, ``cli.run_experiment`` for sl-recorded and
    ``cli.main(["--sweep", ...])`` for sweep-x0.  With ``serial`` the sweep
    runs ``cli.main(["--config", ...])`` once per file in this process
    instead, which is what the profiler can follow.
    """
    workload = plan["workload"]
    out = Path(plan["out"])
    if workload == "em-fuzzy":
        name, cfg, (plant, reference, perf, sim_cfg) = state[0]
        start = time.perf_counter()
        try:
            traj, report = sim.run(
                plant, reference, cfg.gains, perf, sim_cfg,
                kind=cfg.transform_kind, sign_smoothing=cfg.sign_smoothing,
            )
        except Exception as exc:  # noqa: BLE001 - any raise is a failed run, reported by name
            return {name: {"error": f"{type(exc).__name__}: {exc}"}}, 0, time.perf_counter() - start
        body_s = time.perf_counter() - start
        observed = {key: getattr(report, key) for key in ("transient_ok", "steady_ok") + PEAKS}
        observed["steps"] = _steps(cfg, traj.breach)
        return {name: observed}, observed["steps"], body_s

    if workload == "sl-recorded":
        name, cfg, _ = state[0]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run_experiment(cfg, out_dir=out)
        body_s = time.perf_counter() - start
        observed = _observed_from_artifacts(out, cfg, code)
        csv_path = out / "trajectory.csv"
        if csv_path.is_file():
            with open(csv_path, "rb") as fh:
                observed["csv_rows"] = sum(1 for _ in fh) - 1
        return {name: observed}, observed.get("steps", 0), body_s

    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if serial:
            codes = {
                path: cli.main(["--config", path, "--out", str(out / Path(path).stem)])
                for path in plan["configs"]
            }
        else:
            cli.main(["--sweep", *plan["configs"], "--out", str(out)])
    body_s = time.perf_counter() - start
    if not serial:
        codes = {}
        for line in captured.getvalue().splitlines():
            m = _EXIT_LINE.match(line.strip())
            if m:
                codes[m["path"]] = int(m["code"])
    runs = {}
    for path, (name, cfg, _) in zip(plan["configs"], state):
        runs[name] = _observed_from_artifacts(out / name, cfg, codes.get(path))
    return runs, sum(r.get("steps", 0) for r in runs.values()), body_s


def load_golden(profile: str):
    """Golden records of ``profile`` by run name, and the relative tolerance."""
    data = json.loads((HERE / "golden.json").read_text())
    return data[profile], data["rtol"]


def check_runs(workload: str, runs: dict, golden: dict, rtol: float) -> list:
    """One line per run that disagrees with its golden record."""
    failures = []
    for run, observed in runs.items():
        key = workload if run == workload else f"{workload}/{run}"
        found = mismatches(observed, golden[key], rtol) if key in golden else ["no golden record"]
        if found:
            failures.append(f"{key}: " + "; ".join(found))
    return failures


def mismatches(observed: dict, expected: dict, rtol: float) -> list:
    """Every way ``observed`` disagrees with a golden record.

    Verdicts, exit codes and row counts must match exactly; the peaks in
    :data:`PEAKS` within ``rtol``.  Only the keys the golden record names
    are checked.
    """
    found = []
    if "error" in observed:
        found.append(f"raised {observed['error']}")
    for key, want in expected.items():
        got = observed.get(key)
        if key in PEAKS:
            ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)
        else:
            ok = got == want
        if not ok:
            found.append(f"{key} = {got!r}, golden {want!r}" + (f" (rtol {rtol:g})" if key in PEAKS else ""))
    return found
