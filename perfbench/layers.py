"""Per-module split of a workload: a cProfile run plus timed direct calls.

The profiler is started and stopped here, around the benchmark's own call
into the program; the program has no tracing hooks.  Self time (``tottime``)
and call counts are summed per module file of ``funneldsc`` and for the
``math`` and ``numpy`` builtins.  The sweep's pool workers are separate
processes the profiler cannot follow, so the traced sweep runs each config
file through ``cli.main(["--config", ...])`` on a pool of the benchmark's
own, with the profiler started inside each task.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import math
import multiprocessing
import os
import pstats
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from funneldsc import config, sim
from funneldsc.controller import ControllerChain
from funneldsc.fuzzy import GaussianGrid
from funneldsc.perf import ErrorTransform

import workloads

MODULES = ("perf", "fuzzy", "plants", "controller", "sim", "config", "cli")
BUILTINS = ("math", "numpy")
# Share of the traced wall time that the profiler's self times must cover.
RECONCILE_TOL = 0.05


def module_of(key) -> str:
    """Module a pstats entry ``(file, line, function)`` belongs to."""
    filename, _, func = key
    if filename == "~":
        if "numpy" in func:
            return "numpy"
        if func.startswith("<built-in method math."):
            return "math"
        return "other"
    path = Path(filename)
    if path.parent.name == "funneldsc" and path.stem in MODULES:
        return path.stem
    if "numpy" in path.parts:
        return "numpy"
    return "other"


def aggregate(stats: pstats.Stats) -> dict:
    """``{module: [self_s, calls]}`` over every profiled function."""
    out = {m: [0.0, 0] for m in MODULES + BUILTINS + ("other",)}
    for key, (_, ncalls, tottime, _, _) in stats.stats.items():
        entry = out[module_of(key)]
        entry[0] += tottime
        entry[1] += ncalls
    return out


def cumulative(stats: pstats.Stats, func: str) -> float:
    """Summed cumulative time of every program function named ``func``."""
    return sum((
        row[3] for (filename, _, name), row in stats.stats.items()
        if name == func and Path(filename).parent.name == "funneldsc"
    ), 0.0)


class _TableProbe:
    """Wraps ``ControllerChain.tabulate_basis`` to record its calls.

    Replaying the calls under ``tracemalloc`` afterwards gives the bytes
    the basis table holds without slowing the measured run.
    """

    def __init__(self):
        self.original = getattr(ControllerChain, "tabulate_basis", None)
        self.calls = []

    def __enter__(self):
        if self.original is not None:
            original, calls = self.original, self.calls

            def wrapper(chain, *args, **kwargs):
                calls.append((chain, args, kwargs))
                return original(chain, *args, **kwargs)

            ControllerChain.tabulate_basis = wrapper
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            ControllerChain.tabulate_basis = self.original

    def largest_mb(self) -> float:
        largest = 0
        for chain, args, kwargs in self.calls:
            tracemalloc.start()
            try:
                self.original(chain, *args, **kwargs)
                largest = max(largest, tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        self.calls.clear()
        return largest / 2**20


def _per_call(fn, args_list, repeats=5) -> float:
    """Median over ``repeats`` batches of the seconds per call of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(times)


def timed_probes(cfg, problem) -> dict:
    """Direct calls into each module's public functions, tracing off.

    A probe whose function no longer exists in this form reports 0 and
    names itself on stderr, so a refactor shows instead of stopping the run.
    """
    plant, reference, perf, _ = problem
    transform = ErrorTransform(perf=perf, kind=cfg.transform_kind)
    grid = GaussianGrid.reference_grid(dim=1)
    n = plant.n
    ts = [cfg.t_end * i / 2000 for i in range(2000)]
    x0 = list(cfg.x0)

    def chain_and_bundle():
        chain = ControllerChain(
            bounds=plant.bounds(), gains=cfg.gains, transform=transform,
            reference=reference, mode=cfg.mode, sign_smoothing=cfg.sign_smoothing,
        )
        state = chain.init_state(x0)
        theta = (np.array([w.theta_hat for w in state.theta_hat]) if state.theta_hat else np.zeros((0, 0)))
        return chain, state, (list(x0), list(state.filter_states), theta)

    def step_us():
        chain, _, bundle = chain_and_bundle()
        count = 400
        start = time.perf_counter()
        for k in range(count):
            bundle, _ = sim.step(plant, chain, bundle, k * cfg.dt, cfg.dt, cfg.exact_filter)
        return (time.perf_counter() - start) / count * 1e6

    def evaluate_us():
        chain, state, _ = chain_and_bundle()
        return _per_call(chain.evaluate, [(x0, state, t * 1e-2) for t in ts[:200]]) * 1e6

    text = config.serialize_config(cfg)
    probes = {
        "perf.eta_ns": lambda: _per_call(perf.eta, [(t,) for t in ts]) * 1e9,
        "perf.transform_ns": lambda: _per_call(
            transform.transform, [(0.01 * math.sin(t), t) for t in ts]) * 1e9,
        "fuzzy.basis_us": lambda: _per_call(grid.basis, [(reference.value(t),) for t in ts[:500]]) * 1e6,
        "plants.state_derivative_ns": lambda: _per_call(
            plant.state_derivative, [([reference.value(t)] * n, 1.0, t) for t in ts]) * 1e9,
        "controller.evaluate_us": evaluate_us,
        "sim.step_us": step_us,
        "config.parse_us": lambda: _per_call(config.parse_config, [(text,)] * 200) * 1e6,
    }
    out = {}
    for name, probe in probes.items():
        try:
            out[name] = probe()
        except (AttributeError, TypeError, ValueError) as exc:
            print(f"probe {name} unavailable: {type(exc).__name__}: {exc}", file=sys.stderr)
            out[name] = 0.0
    return out


def run_unit(plan: dict, traced: bool) -> dict:
    """Execute ``plan`` once in this process, traced or not.

    Returns its wall time, steps and observed runs; a traced unit adds the
    per-module aggregate and the cumulative times of the basis table and
    the export, an untraced one the bytes of the largest basis table.
    """
    state = workloads.setup(plan)
    if not traced:
        with _TableProbe() as table:
            start = time.perf_counter()
            runs, steps, _ = workloads.execute(plan, state, serial=True)
            wall = time.perf_counter() - start
        return {"wall": wall, "steps": steps, "runs": runs, "table_mb": table.largest_mb()}
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    runs, steps, _ = workloads.execute(plan, state, serial=True)
    profile.disable()
    wall = time.perf_counter() - start
    stats = pstats.Stats(profile)
    return {
        "wall": wall, "steps": steps, "runs": runs, "modules": aggregate(stats),
        "table_s": cumulative(stats, "tabulate_basis"), "export_s": cumulative(stats, "export_trajectory"),
    }


def _units(plan: dict) -> list:
    """The sweep as one plan per config file, any other workload as itself."""
    return [dict(plan, configs=[path]) for path in plan["configs"]] if "configs" in plan else [plan]


def _pass(units: list, traced: bool, pool):
    """Run every unit; returns ``(makespan_s, merged)``."""
    start = time.perf_counter()
    if pool is None:
        results = [run_unit(unit, traced) for unit in units]
    else:
        results = pool.map(functools.partial(run_unit, traced=traced), units, chunksize=1)
    makespan = time.perf_counter() - start
    merged = {
        "wall": sum(r["wall"] for r in results),
        "steps": sum(r["steps"] for r in results),
        "runs": {name: obs for r in results for name, obs in r["runs"].items()},
    }
    if traced:
        merged["modules"] = {
            m: [sum(r["modules"][m][i] for r in results) for i in (0, 1)] for m in results[0]["modules"]
        }
        merged["table_s"] = sum(r["table_s"] for r in results)
        merged["export_s"] = sum(r["export_s"] for r in results)
    else:
        merged["table_mb"] = max(r["table_mb"] for r in results)
    return makespan, merged


def traced_run(plan: dict, short_plan: dict, golden: dict, rtol: float):
    """One untraced and two traced executions of the workload.

    The sweep's config files run as separate units on a pool of
    ``os.cpu_count()`` workers, as ``cli.main(["--sweep", ...])`` runs them;
    shares are then taken of the summed traced time of the units.

    ``calls_per_step`` is the marginal count: the calls of a traced run of
    ``short_plan`` (the same workload over a shorter horizon) are taken
    off, so work done once per run, such as building the basis grid, does
    not show as a fraction of a call per step.

    Returns ``(metrics, attempted, failed, failures)``: ``metrics`` holds
    every per-layer metric as ``{name: (value, unit)}``, ``failed`` counts
    failed runs and ``failures`` describes them and any failed trace check.
    """
    failures = []
    attempted = failed = 0

    def check(result):
        nonlocal attempted, failed
        found = workloads.check_runs(plan["workload"], result["runs"], golden, rtol)
        attempted += len(result["runs"])
        failed += len(found)
        failures.extend(found)

    units = _units(plan)
    with contextlib.ExitStack() as stack:
        pool = None
        if len(units) > 1:
            # fork, as the CLI's own pool on Linux: a spawn pool starts a
            # resource tracker process that outlives this one
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(os.cpu_count()))
        _pass(_units(short_plan), False, pool)  # imports done in every process before timing
        untraced_s, untraced = _pass(units, False, pool)
        traced_s, first = _pass(units, True, pool)
        _, second = _pass(units, True, pool)
        _, short = _pass(_units(short_plan), True, pool)
    for result in (untraced, first, second):
        check(result)

    modules = first["modules"]
    for name in MODULES + BUILTINS:
        if modules[name][1] != second["modules"][name][1]:
            failures.append(
                f"trace: {name} made {modules[name][1]} then {second['modules'][name][1]} "
                "calls in two identical runs"
            )
    wall = first["wall"]
    accounted = sum(v[0] for v in modules.values()) / wall
    print(f"trace: self times cover {accounted:.4f} of the traced time {wall:.3f} s")
    if abs(accounted - 1.0) > RECONCILE_TOL:
        failures.append(f"trace: self times cover {accounted:.4f} of the traced time, not 1 +- {RECONCILE_TOL}")

    metrics = {}
    steps = first["steps"] - short["steps"]
    for name in MODULES + BUILTINS:
        self_s, calls = modules[name]
        metrics[f"{name}.self_share"] = (self_s / wall, "ratio")
        metrics[f"{name}.calls_per_step"] = ((calls - short["modules"][name][1]) / steps, "calls/step")
    metrics["controller.basis_table_s"] = (first["table_s"], "s")
    metrics["controller.basis_table_mb"] = (untraced["table_mb"], "MB")
    metrics["sim.export_s"] = (first["export_s"], "s")
    _, cfg, problem = workloads.setup(units[0])[0]
    for key, value in timed_probes(cfg, problem).items():
        metrics[key] = (value, key.rsplit("_", 1)[1])
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics, attempted, failed, failures
