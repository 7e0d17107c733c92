"""Host-speed calibration, sampled on the core that does the work.

The shared host this benchmark runs on changes the speed of a core by up
to a factor of two within seconds, and a second core does not follow the
first.  So the benchmark times a fixed pure-Python loop (:func:`calibrate`)
inside the process that runs the workload: a ``SIGALRM`` handler runs it
every :data:`INTERVAL_S` while the workload runs, which costs about 1 % of
the workload's time.  Each timing is then scaled by
``REF_S / median(samples)``: it reads as if the host ran at the speed at
which one calibration takes :data:`REF_S`.

The loop lives in the benchmark's files, so a change to the program does
not change it.  Both ``child.py`` and the sweep's pool workers sample; the
workers append their samples to a file per process.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from pathlib import Path

ITERATIONS = 3000
INTERVAL_S = 0.1
# One calibration at the reference speed: about the median on a 2-core
# x86-64 VM, so that scaled timings read close to the raw ones there.
REF_S = 1.4e-3


def calibrate(n: int = ITERATIONS) -> float:
    """Integrate a small nonlinear ODE with Python floats; returns a checksum."""
    x, v, acc = 0.3, 0.1, 0.0
    for i in range(n):
        e = x - math.sin(i * 1e-3)
        v = v + 1e-3 * (-2.0 * v - 5.0 * e + math.tanh(e))
        x = x + 1e-3 * v
        acc += abs(e) if e < 0 else e * 0.5
    return acc


def sample() -> float:
    """Wall time of one :func:`calibrate` call."""
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start


def burst(count: int = 15) -> float:
    """Median of ``count`` back-to-back samples."""
    return statistics.median(sample() for _ in range(count))


def factor(calib_s: float) -> float:
    """Scale for a time measured while one calibration took ``calib_s``."""
    return REF_S / calib_s


class Sampler:
    """Samples every :data:`INTERVAL_S` in this process while active.

    With ``sink`` each sample is also appended to that file, so that a
    process ended by a signal, such as a pool worker, leaves its samples.
    """

    def __init__(self, sink: Path | None = None):
        self.samples: list[float] = []
        self._fd = None if sink is None else os.open(sink, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._previous = None

    def _on_alarm(self, signum, frame):
        s = sample()
        self.samples.append(s)
        if self._fd is not None:
            os.write(self._fd, f"{s!r}\n".encode())

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def sample_forked_children(sink_dir: Path) -> None:
    """Start a :class:`Sampler` in every process this one forks from now on."""
    sink_dir.mkdir(parents=True, exist_ok=True)
    os.register_at_fork(after_in_child=lambda: Sampler(sink_dir / f"{os.getpid()}.txt").start())


def read_samples(sink_dir: Path) -> list[float]:
    """Every sample the forked children wrote under ``sink_dir``."""
    return [float(line) for path in sorted(sink_dir.glob("*.txt")) for line in path.read_text().split()]
