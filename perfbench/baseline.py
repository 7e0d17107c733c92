"""One-off, ungated reproduction of the ROADMAP baseline.

Usage: ``python3 perfbench/baseline.py`` from the checkout root (about
1.5 minutes on a 2-core machine).  Runs each case in its own interpreter:
the 0.6 s horizons of electromechanical fuzzy, electromechanical
approx-free and single-link approx-free at the preset ``dt = 1e-5``, then
the full 300 k-step electromechanical fuzzy preset.  Prints one line per
case with the ``sim.run`` wall time, µs/step, process wall time, peak RSS
and both verdicts.  Nothing is compared; the figures go into NOTES.md.
"""

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# name: (preset, mode, t_end; None keeps the preset's 3 s)
CASES = {
    "em-fuzzy-0.6": ("electromechanical", "fuzzy", 0.6),
    "em-approx-free-0.6": ("electromechanical", "approx-free", 0.6),
    "sl-approx-free-0.6": ("single-link", "approx-free", 0.6),
    "em-fuzzy-preset": ("electromechanical", "fuzzy", None),
}


def run_case(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from funneldsc import cli, config, sim
    from funneldsc.controller import ControlMode

    preset, mode, t_end = CASES[name]
    cfg = replace(config.PRESETS[preset](), mode=ControlMode(mode))
    if t_end is not None:
        cfg = replace(cfg, t_end=t_end)
    plant, reference, perf, sim_cfg = cli.build_problem(cfg)
    start = time.perf_counter()
    _, report = sim.run(plant, reference, cfg.gains, perf, sim_cfg)
    run_s = time.perf_counter() - start
    steps = int(round(cfg.t_end / cfg.dt))
    return {
        "case": name, "steps": steps, "run_s": run_s, "us_per_step": run_s / steps * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "transient_ok": report.transient_ok, "steady_ok": report.steady_ok,
    }


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        print(json.dumps(run_case(sys.argv[2])))
        return 0
    for name in CASES:
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, __file__, "--case", name], cwd=ROOT, check=True,
            capture_output=True, text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        result["process_wall_s"] = time.monotonic() - start
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
