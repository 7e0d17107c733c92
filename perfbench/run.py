"""funneldsc benchmark: one workload per call, result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload em-fuzzy --seed 1 --seconds 35 --trace 0

With ``--trace 0`` each repetition runs in a fresh interpreter and the
end-to-end metrics are medians over the repetitions that fit in
``--seconds``; ``setup_s`` is the median of its own fresh-interpreter
probes, three before each repetition.  Every timing is scaled to a
reference host speed sampled while it was taken (``hostspeed.py``); the
raw medians are printed beside the scaled ones.  With ``--trace 1`` the
workload runs in this process once untraced and twice under cProfile and
the per-layer metrics are reported.
Every simulation run is checked against ``golden.json``.  ``--smoke`` swaps
in the tiny-horizon profile the self-test uses.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Exit status 0 when a result was printed, 2 when the program's sources are
missing, 3 when the sweep would oversubscribe the cores, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
PROBES_PER_REP = 3
MIN_REPS = 3
# The whole run must end within 180 s of its start.
RUN_DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "us_per_step": "us", "runs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A repetition's interpreter exited badly or printed no result."""


def spawn(mode: str, plan: dict, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its result line.

    Adds ``wall_s`` (start until exit) and ``setup_s`` (start until the
    child's set-up was done), both on the system-wide monotonic clock.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, json.dumps(plan)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the group also holds the sweep's pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("timed out") from None
    wall = time.monotonic() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"exit {proc.returncode}: {tail[0]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["setup_s"] = result["t_setup"] - start
    return result


def measure(plan: dict, seconds: int, golden: dict, rtol: float, deadline: float):
    """Untraced repetitions; returns ``(samples, raw, attempted, failed, lines)``.

    ``samples`` holds the timings scaled to the reference host speed and
    ``raw`` the same timings unscaled.  Each repetition is preceded by
    set-up probes, so both kinds of sample spread over the whole measuring
    time.  Repetitions continue while the next one would end less than half
    a repetition past ``seconds``.
    """
    import hostspeed
    import workloads

    n_runs = len(plan.get("configs", [None]))
    start = time.monotonic()
    samples = {name: [] for name in E2E_UNITS}
    raw = {name: [] for name in E2E_UNITS}

    def add(name, value, scale):
        raw[name].append(value)
        samples[name].append(value * scale)

    attempted, failed, lines = 0, 0, []
    reps = 0
    while True:
        for _ in range(PROBES_PER_REP):
            probe = spawn("setup", plan, deadline)
            add("setup_s", probe["setup_s"], hostspeed.factor(probe["calib_s"]))
        try:
            rep = spawn("run", plan, deadline)
        except ChildFailed as exc:
            attempted += n_runs
            failed += n_runs
            lines.append(f"FAIL {plan['workload']}: repetition {reps + 1}: {exc}")
            break
        reps += 1
        found = workloads.check_runs(plan["workload"], rep["runs"], golden, rtol)
        attempted += len(rep["runs"])
        failed += len(found)
        lines.extend(f"FAIL {line}" for line in found)
        completed = sum("error" not in r for r in rep["runs"].values())
        scale = hostspeed.factor(rep["calib_s"])
        add("wall_s", rep["wall_s"], scale)
        add("peak_rss_mb", rep["maxrss_kb"] / 1024.0, 1.0)
        if rep["steps"] > 0:
            add("us_per_step", rep["body_s"] / rep["steps"] * 1e6, scale)
            add("runs_per_s", completed / rep["body_s"], 1.0 / scale)
        now = time.monotonic()
        if now + 1.5 * rep["wall_s"] > deadline:
            break
        if reps >= MIN_REPS and now - start + 0.5 * rep["wall_s"] > seconds:
            break
    return samples, raw, attempted, failed, lines


def _describe(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} (quartiles {q1:.6g}..{q3:.6g}, n={len(values)})"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_record() -> dict:
    import numpy

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        nproc = None
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("em-fuzzy", "sl-recorded", "sweep-x0"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="draws the sweep's x0 (default %(default)s)")
    parser.add_argument("--seconds", type=int, default=35, help="measurement time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 reports the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny horizons, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "funneldsc" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    record = machine_record()
    print("machine " + json.dumps(record))
    if args.workload == "sweep-x0" and record["cpu_count"] > record["affinity"]:
        print(
            f"error: refusing sweep-x0: the pool would start {record['cpu_count']} workers "
            f"on {record['affinity']} usable cores",
            file=sys.stderr,
        )
        return 3

    profile = "smoke" if args.smoke else "full"
    golden, rtol = workloads.load_golden(profile)
    work = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        plan = workloads.make_plan(args.workload, args.seed, profile, work)
        if args.trace:
            import layers

            short_plan = workloads.make_plan(args.workload, args.seed, "short", work / "short")
            metrics, attempted, failed, lines = layers.traced_run(plan, short_plan, golden, rtol)
            lines = [f"FAIL {line}" for line in lines]
            values = {name: value for name, (value, _) in metrics.items()}
            units = {name: unit for name, (_, unit) in metrics.items()}
            for name, value in values.items():
                print(f"{name}: {value:.6g} {units[name]}")
        else:
            samples, raw, attempted, failed, lines = measure(plan, args.seconds, golden, rtol, deadline)
            if not all(samples.values()):
                print("\n".join(lines + ["error: no repetition produced timings"]), file=sys.stderr)
                return 1
            values = {name: statistics.median(v) for name, v in samples.items()}
            units = E2E_UNITS
            for name, v in samples.items():
                print(f"{name}: {_describe(v)} {units[name]}; raw {_describe(raw[name])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    print(f"fail_rate: {failed}/{attempted}")
    result = {
        "correct": not lines,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
