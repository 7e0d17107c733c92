"""One repetition of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py {setup|run} '<plan json>'`` with the
checkout's ``src`` on ``PYTHONPATH``.  Prints one JSON line:

- ``setup``: ``t_setup``, the ``time.monotonic()`` reading once imports,
  config load and ``build_problem`` are done, and ``calib_s``, the median
  of a burst of host-speed samples taken right after (``hostspeed.py``);
- ``run``: ``t_setup``, then the workload's body, its observed records, the
  integration steps, the body wall time, the peak RSS and ``calib_s``, the
  median of the host-speed samples taken while the body ran.  For the sweep
  the peak RSS is that of the largest pool worker and the samples are the
  pool workers'.

``time.monotonic()`` is system-wide on Linux, so ``run.py`` subtracts the
reading it took before starting this process.
"""

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import workloads


def main(argv) -> int:
    mode, plan = argv[0], json.loads(argv[1])
    state = workloads.setup(plan)
    result = {"t_setup": time.monotonic()}
    if mode == "setup":
        result["calib_s"] = hostspeed.burst()
    else:
        sweep = plan["workload"] == "sweep-x0"
        if sweep:
            sink = Path(plan["out"]) / f"hostspeed-{os.getpid()}"
            hostspeed.sample_forked_children(sink)
            runs, steps, body_s = workloads.execute(plan, state)
            samples = hostspeed.read_samples(sink)
            shutil.rmtree(sink)
        else:
            with hostspeed.Sampler() as sampler:
                runs, steps, body_s = workloads.execute(plan, state)
            samples = sampler.samples
        who = resource.RUSAGE_CHILDREN if sweep else resource.RUSAGE_SELF
        result.update(
            runs=runs, steps=steps, body_s=body_s,
            maxrss_kb=resource.getrusage(who).ru_maxrss,
            calib_s=statistics.median(samples) if samples else hostspeed.burst(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
