"""Fixed-step closed-loop integration and performance-bound verification.

The augmented state couples the plant, the first-order filters of the
control chain and, in fuzzy mode, the adaptive weights.  :func:`run` takes
a plant, a reference, the stage gains, the performance function and a
:class:`SimConfig`, integrates the closed loop by RK4 over [0, t_end] and
returns the recorded :class:`Trajectory` and the
:class:`VerificationReport` of the funnel bounds, streamed as it goes.
:func:`export_trajectory` writes a trajectory as CSV.  :func:`step` takes
one RK4 step in plain form: ``chain.kernel`` and ``plant.rhs`` called per
stage, one list comprehension per stage quantity, numpy for the weights.

The plant takes the four RK4 stages; the weights take the same RK4 step of
their linear law in closed form (:func:`_step_constants`).  The filters
s' = (alpha - s)/lam move in one of two ways:

- exact filter (default): along their closed-form exponential toward the
  virtual control ``alpha`` frozen at the step start.  This removes the
  filter time constant from the step-size limit, but freezing ``alpha``
  caps the observed global order at about 1 (1.06 and 1.19 measured on
  the single-link case).
- ``exact_filter=False``: by the RK4 stages of their law, from the
  ``alpha`` the kernel returns at each stage; it needs dt <= lam_min / 5
  (:func:`check_explicit_step`).

What is the same, and why:

- ``run()`` and :func:`step`, float for float.  ``run()`` never calls
  ``step``: it compiles one function per run (:data:`_LOOP`, whose
  comment gives the mechanism), whose statements take ``step``'s float
  operations in the same order, each constant the float it names.  The
  tests hold the loop to a run rebuilt from ``step``, which shares no text
  with it.
- The report, whether the rows are kept in ``Trajectory.data`` or written
  to a ``csv_file``: it is reduced block by block by exact operations (the
  column peaks for the sup norms, the minimum funnel margin with its first
  time), so it does not depend on where blocks end.
- The bytes of the CSV, whichever way the rows are formatted (in this
  process, or block by block in a writer process while the loop runs):
  one text, :data:`_FORMAT`, writes the ``repr`` of each float, ``,``
  between fields and ``\\r\\n`` line ends, the bytes ``csv.writer``
  writes for them.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import struct
import sys
import textwrap
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .codegen import compile_function
from .controller import _TIME_INPUTS, ControlMode, ControllerChain, StageGains, inline_time_inputs
from .perf import ErrorTransform, FunnelBreachError, PerfFunction, TransformKind, _finite, _real
from .plants import ReferenceSignal, StrictFeedbackPlant

__all__ = [
    "SimConfig",
    "Trajectory",
    "VerificationReport",
    "SimulationDivergenceError",
    "step_count",
    "check_explicit_step",
    "step",
    "run",
    "export_trajectory",
]

# Rows per tabulated basis block in run().  A fixed block bounds the
# table's memory whatever the horizon, and each run tabulates every block
# into one set of buffers (GaussianGrid.buffers), so a refill allocates no
# (rows, m) array: 4098 rows of 11 rules are two 361 kB arrays.  Refilling
# costs one vectorised pass per 2048 steps.  1024 rows would hold a quarter
# of that at no measured cost in time, but then perfbench/selftest.py's
# short sl-recorded runs would count numpy calls per step where it expects
# none.
BASIS_BLOCK = 4096
# Rows per recorded block in run(), for the same reason: a run that writes
# its rows as it goes holds one block whatever its horizon.  A block of
# 4096 rows of 13 columns (single-link, approximator-free) is 425 984
# bytes.  Each block costs a few numpy reductions, so a run of up to 4096
# recorded rows, one block, makes the same numpy calls whatever its length:
# the benchmark counts numpy calls per step as the difference between runs
# of 501 and 2001 rows.
RECORD_BLOCK = 4096
# Rows per ``%`` where this process formats rows: a run that fills no
# block, and export_trajectory.  A whole block's text and its floats are
# a few MB at once, enough to raise a sweep worker's peak RSS by 1 MB; 128
# rows hold about 0.2 MB, and the time per row does not depend on the
# count.  The writer formats whole blocks.
_FORMAT_ROWS = 128
# Explicit RK4 stability margin for the fastest filter: dt <= lam_min / 5.
_EXPLICIT_STIFFNESS_FACTOR = 5.0
# Relative slack on t_end/dt that still counts as a whole number of steps;
# it absorbs the rounding of decimal inputs such as 0.6 / 1e-5.
_STEP_COUNT_RTOL = 1e-9


class SimulationDivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, t: float):
        super().__init__(f"simulation diverged at t={t:.6g}")
        self.t = t


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one closed-loop run.  A ValueError starts
    with the name of the failing setting."""

    dt: float
    t_end: float
    x0: tuple
    mode: ControlMode = ControlMode.FUZZY
    record_every: int = 1
    exact_filter: bool = True

    def __post_init__(self):
        for name in ("dt", "t_end"):
            value = getattr(self, name)
            if not _real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not _finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not isinstance(self.record_every, int) or isinstance(self.record_every, bool) or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")
        if not isinstance(self.mode, ControlMode):
            raise ValueError(f"mode must be a ControlMode, got {self.mode!r}")
        if not isinstance(self.exact_filter, bool):
            raise ValueError(f"exact_filter must be a bool, got {self.exact_filter!r}")
        step_count(self.t_end, self.dt)
        try:
            x0 = tuple(self.x0)
        except TypeError:
            x0 = None
        if x0 is None or isinstance(self.x0, (str, bytes)) or not all(map(_real, x0)):
            raise ValueError(f"x0 must be a sequence of numbers, got {self.x0!r}")
        if not all(map(_finite, x0)):
            raise ValueError(f"x0 must be finite, got {x0!r}")
        object.__setattr__(self, "x0", tuple(map(float, x0)))


def check_explicit_step(gains: Sequence[StageGains], dt: float) -> None:
    """Raise ValueError unless dt <= lam_min / 5, the explicit RK4 limit
    of the fastest filter (``exact_filter=False``)."""
    limit = min(g.lam for g in gains[1:]) / _EXPLICIT_STIFFNESS_FACTOR
    if dt > limit:
        raise ValueError(
            f"explicit stepping needs dt <= {limit:.3g} for the fastest filter "
            f"(got dt={dt:.3g}); set sim.exact_filter = true or lower dt"
        )


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt in [0, t_end]; raises ValueError unless
    t_end is a whole multiple of dt."""
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end/dt must be finite, got t_end={t_end!r}, dt={dt!r}")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > _STEP_COUNT_RTOL * ratio:
        raise ValueError(f"t_end={t_end!r} is not a whole multiple of dt={dt!r}")
    return n


@dataclass
class Trajectory:
    """Recorded samples of one run, one row of ``data`` per sample; ``names``
    labels the columns: those of ``trajectory.csv``, then ``z1..zn``, which
    are not exported.  ``breach`` holds the first breach time.  ``data``
    has no rows when ``run()`` wrote them to its ``csv_file``."""

    names: tuple
    data: np.ndarray
    breach: Optional[float] = None

    def column(self, name: str) -> np.ndarray:
        """The samples of one named column, as a view."""
        return self.data[:, self.names.index(name)]


@dataclass
class VerificationReport:
    """Outcome of the two funnel bounds plus boundedness diagnostics; the
    funnel margin eta - |arctan e| is its minimum over the recorded samples."""

    transient_ok: bool
    steady_ok: bool
    max_abs_error: float
    max_abs_error_after_T: float
    max_abs_control: float
    signal_sup_norms: dict
    min_funnel_margin: float
    min_margin_time: float
    peak_control_time: float

    def as_dict(self) -> dict:
        return asdict(self)


def _step_constants(gains: Sequence[StageGains], dt: float):
    """The coefficients of one RK4 step of the adaptive law in closed form,
    then the filter decays exp(-0.5*dt/lam) and exp(-dt/lam).

    Stage i's law theta' = mu*d(t)*b(t) - varpi*theta is linear in theta,
    so with a = varpi*dt/2 and h = dt/2 the drift estimates theta_k . b of
    RK stages 2..4 are scalar recurrences in the drives d1..d4, the
    projections P = theta.[b1, bh, b4] and the Gram products g of the rows:

        f2 = (1-a) Ph + h mu d1 g1h
        f3 = (1-a+a^2) Ph - a h mu d1 g1h + h mu d2 ghh
        f4 = (1-2a(1-a+a^2)) P4 + 2a^2 h mu d1 g14 + (dt mu d3 - 2a h mu d2) gh4

    and theta_new = A theta + C @ [b1, bh, b4], with A the RK4 polynomial
    1 - z + z^2/2 - z^3/6 + z^4/24 of z = varpi*dt and
    C = (dt/6) mu [d1 (1-2a+2a^2-2a^3), d2 (2-2a+2a^2) + d3 (2-2a), d4].

    Returns the per-stage factors of f2, f3, f4 and C, each in the order
    of the terms above, A as a column, then the decays of stages 2..n.
    """
    h = 0.5 * dt
    c2, c3, c4, cmix, growth = [], [], [], [], []
    for g in gains:
        a = g.varpi * h
        q = 1.0 - a + a * a
        hmu = h * g.mu
        e = dt / 6.0 * g.mu
        c2.append((1.0 - a, hmu))
        c3.append((q, -a * hmu, hmu))
        c4.append((1.0 - 2.0 * a * q, 2.0 * a * a * hmu, dt * g.mu, -2.0 * a * hmu))
        cmix.append((e * (1.0 - 2.0 * a * q), e * 2.0 * q, e * (2.0 - 2.0 * a), e))
        z = g.varpi * dt
        growth.append(1.0 - z + z * z / 2.0 - z**3 / 6.0 + z**4 / 24.0)
    growth = np.array(growth)[:, None]
    half = tuple(math.exp(-0.5 * dt / g.lam) for g in gains[1:])
    full = tuple(math.exp(-dt / g.lam) for g in gains[1:])
    return tuple(c2), tuple(c3), tuple(c4), tuple(cmix), growth, half, full


# The time inputs' locals at each stage time: the time, y_r, dy_r, eta and
# eta_dot.  The start's keep the kernel's own names, which a recorded row
# reads.
_START = _TIME_INPUTS
_MID = ("tm", "y_m", "dy_m", "eta_m", "etad_m")
_END = ("te", "y_e", "dy_e", "eta_e", "etad_e")

# The loop's buffers in fuzzy mode, allocated once per run: PROJ for the
# projections of theta on a step's three basis rows, DRIVES for the update's
# drive coefficients and MIX for their product with the rows; SQ and NORMS
# for a recorded row's weight norms, np.sqrt(np.add.reduce(theta * theta,
# axis=1)), the path np.linalg.norm takes.  thetaT is a view, so it follows
# theta's updates, which are in place.
_BUFFERS = """\
PROJ, DRIVES, MIX = empty((3, len(theta))), empty((len(theta), 3)), empty_like(theta)
thetaT = theta.T
SQ, NORMS = empty_like(theta), empty(len(theta))"""

# The run, one function compiled per run by _compile_loop under the name
# ``.../sim.py<run n=3 fuzzy sign exact>``, so profiles count the texts it
# inlines under this module and tracebacks show their lines.  It is
# straight-line Python: the kernel (ControllerChain.inline_kernel), the
# plant's right-hand side and the time inputs are inlined as text at each
# RK stage and every finite constant is a literal (codegen), so the loop
# calls no Python function per step, only math builtins and, in fuzzy mode,
# the weight step's numpy methods and struct.pack_into.
#
# Sample k opens step k: it reads rows 2k..2k+2 of the basis on the
# half-step grid i*dt/2, tabulated in blocks of BLOCK rows plus two of
# overlap, each into the run's one set of buffers BASIS, and evaluates the
# kernel at t ({opening}).  Its row takes e, arctan e, y_r, eta and z from
# that kernel's own locals and is packed into the next row of ``block``,
# BLOCK_ROWS rows of ROW_BYTES bytes; a full block goes to ``fold`` before
# the next row, and ``fold`` returns the block to fill next.  The last
# sample, at t_end, opens no step.  A breach at an RK stage ends the run
# after its step's row was recorded, before that step's max|e| and max|u|
# are updated.  The loop returns the rows of its last block, which run()
# folds.
#
# {step} is one RK4 step, stage by stage, in step()'s float operations and
# order.  Per RK stage k, x<k>_<j> is plant state j, s<k>_<i> filter i,
# u<k> the control, a<k>_<i> the alpha that filter i tracks, d<k>_<j> the
# drive and f<k>_<j> the drift estimate of stage j, and k<k>_<j> the plant
# derivative; the step leaves the new state in x1_<j> and s1_<i>.  The time
# inputs are evaluated once per stage time, t, tm and te (the locals of
# _START, _MID and _END), not read at the basis grid's (2k+1)*dt/2 and
# (2k+2)*dt/2: these differ by an ulp at some steps, enough to move the
# weak-gain run's golden peaks.  A step's inputs at te open the next step
# wherever (k+1)*dt is the float k*dt + dt.  In fuzzy mode the projections
# of theta on the three rows give every stage's drift estimate by the
# scalar recurrences of _step_constants, and theta = GROWTH * theta +
# drives @ rows is formed in place in the buffers of _BUFFERS.  The
# products are the ndarray.dot method: np.dot's dispatcher is a Python call
# per step, and np.matmul with ``out=`` is slower than ``@``.  The constants
# are globals, literals where they are numbers: HALF = 0.5*dt, DT,
# DT6 = dt/6.0, the _step_constants coefficients c2_<j>_<m>, c3_<j>_<m>,
# c4_<j>_<m>, m_<j>_<m> and GROWTH, the decays dh<i> and df<i>, the filter
# time constants lam<i> and the globals of the inlined texts.
_LOOP = """\
def run_loop(x, s, theta, block, fold, n_steps):
    {x1}, {s1} = x, s
{buffers}
    filled = 0
    max_err = max_err_after = max_u = peak_u_t = 0.0
    breach = te = None
    first = -BLOCK  # first row of the basis block; sample 0 fills one
    for k in range(n_steps + 1):
        t = k * DT
        closing = k == n_steps
        if 2 * k - first >= BLOCK:
            first = 2 * k
            energy = cross1 = cross2 = None  # the last block's lists go before the next's are made
            basis, energy, cross1, cross2 = tabulate([i * HALF for i in range(first, first + BLOCK + 2)], BASIS)
        row = 2 * k - first
        try:
            # the time inputs are pure functions of the float, so the last
            # step's end serves as this start wherever k*dt is that float
            if t == te:
                y_r, dy_r, eta_v, eta_d = y_e, dy_e, eta_e, etad_e
            else:
{inputs}
{opening}
            if closing or k % RECORD_EVERY == 0:
                if filled == BLOCK_ROWS:
                    block = fold()
                    filled = 0
{norms}
                pack_row(block, filled * ROW_BYTES, {sample})
                filled += 1
            if not closing:
                tm = t + HALF
                te = t + DT
{step}
        except FunnelBreachError as br:
            breach = br.t
            break
        except OverflowError as exc:
            raise SimulationDivergenceError(t) from exc
        # streaming verification at the sample
        ae = abs(e)
        if ae > max_err:
            max_err = ae
        if t >= AFTER_T and ae > max_err_after:
            max_err_after = ae
        if closing:
            break
        au = abs(u1)
        if au > max_u:
            max_u = au
            peak_u_t = t
        if not ({finite}):
            raise SimulationDivergenceError(t + DT)
    return filled, breach, max_err, max_err_after, max_u, peak_u_t
"""

# A fuzzy stage's drift estimate at RK stages 2..4 (see _step_constants).
_DRIFTS = {
    2: "f2_{i} = c2_{i}_0 * ph_{i} + c2_{i}_1 * d1_{i} * g1h",
    3: "f3_{i} = c3_{i}_0 * ph_{i} + c3_{i}_1 * d1_{i} * g1h + c3_{i}_2 * d2_{i} * ghh",
    4: "f4_{i} = c4_{i}_0 * p4_{i} + c4_{i}_1 * d1_{i} * g14 + (c4_{i}_2 * d3_{i} + c4_{i}_3 * d2_{i}) * gh4",
}


def _compile_loop(plant: StrictFeedbackPlant, chain: ControllerChain, config: SimConfig, blocks: _Blocks):
    """:data:`_LOOP` for one run of ``chain`` on ``plant``, with the run's
    constants bound in: ``run_loop(x, s, theta, block, fold, n_steps)``
    records into the blocks of ``blocks`` and returns the rows of its last
    block, the breach time and the streamed verification."""
    n, fuzzy, exact_filter, dt = plant.n, chain._fuzzy, config.exact_filter, config.dt
    reference, perf = chain.reference, chain.transform.perf
    states, filters = range(1, n + 1), range(2, n + 1)
    keep = ("e", "atan_e", "y_r", "eta_v", *(f"z{i}" for i in states))
    stage_inputs = (_START, _MID, _MID, _END)  # the time inputs of RK stages 1..4
    namespace = {}

    def inlined(statements, globals_):
        namespace.update(globals_)
        return statements

    def names(template, indices=states):
        return [template.format(i=i) for i in indices]

    def lines(*templates, indices=states):
        return "\n".join(line for template in templates for line in names(template, indices))

    def time_inputs(local_names):
        return inlined(*inline_time_inputs(reference, perf, local_names[0], local_names))

    def advanced(v, rate, k):
        """The template of v at RK stage k + 1 from the rates of stages
        1..k, or after stage 4 the step's new v."""
        if k < 4:
            return f"{v}{k + 1}_{{i}} = {v}1_{{i}} + {('HALF', 'HALF', 'DT')[k - 1]} * {rate}{k}_{{i}}"
        return (f"{v}1_{{i}} = {v}1_{{i}} + DT6 * "
                f"({rate}1_{{i}} + 2.0 * {rate}2_{{i}} + 2.0 * {rate}3_{{i}} + {rate}4_{{i}})")

    def kernel(k):
        filtered = (1, 2, 2, 4)[k - 1] if exact_filter else k  # exact: stages 2, 3 share s2
        drifts = names("p1_{i}" if k == 1 else f"f{k}_{{i}}") if fuzzy else ("en1", "enh", "enh", "en4")[k - 1]
        args = (names(f"x{k}_{{i}}"), names(f"s{filtered}_{{i}}", filters), drifts, stage_inputs[k - 1])
        outputs = (f"u{k}", names(f"a{k}_{{i}}", filters), names(f"d{k}_{{i}}") if fuzzy else None)
        return inlined(*chain.inline_kernel(str(k), args, outputs, keep if k == 1 else ()))

    def rhs(k):
        t = stage_inputs[k - 1][0]
        return inlined(*plant.inline_rhs(f"rhs{k}", names(f"x{k}_{{i}}"), f"u{k}", t, names(f"k{k}_{{i}}")))

    def filter_update(k):
        if exact_filter:  # toward the alpha frozen at t: s2 serves RK stages 2 and 3, s4 stage 4 and the step's end
            frozen = ("s2_{i} = a1_{i} + (s1_{i} - a1_{i}) * dh{i}", "s4_{i} = a1_{i} + (s1_{i} - a1_{i}) * df{i}")
            templates = {1: frozen, 4: ("s1_{i} = s4_{i}",)}.get(k, ())
        else:  # the RK4 stages of s' = (alpha - s)/lam, from each stage's alpha
            templates = (f"ks{k}_{{i}} = (a{k}_{{i}} - s{k}_{{i}}) / lam{{i}}", advanced("s", "ks", k))
        return lines(*templates, indices=filters)

    step = [time_inputs(_MID), time_inputs(_END)]
    for k in range(1, 5):
        if k == 1:  # the kernel at t is the opening's
            step += [filter_update(1), rhs(1)]
        else:
            drifts = lines(_DRIFTS[k]) if fuzzy else ""
            step += [lines(advanced("x", "k", k - 1)), drifts, kernel(k), rhs(k), filter_update(k)]
    step.append(lines(advanced("x", "k", 4)))
    x, s = names("x1_{i}"), names("s1_{i}", filters)
    sample = ["t", *x, "y_r", "e", "atan_e", "eta_v", "-eta_v", "u1", *s, *names("a1_{i}", filters)]
    buffers = norms = ""
    if fuzzy:
        unpacked = ", ".join(f"({', '.join(names(f'p{r}_{{i}}'))},)" for r in ("1", "h", "4"))
        opening = (
            "rows = basis[row:row + 3]\n"
            f"{unpacked} = rows.dot(thetaT, PROJ).tolist()\n"
            "g1h, ghh, g14, gh4 = cross1[row], energy[row + 1], cross2[row], cross1[row + 1]\n"
        )
        step.append(
            "pack_drives(DRIVES, 0, "
            + ", ".join(names("m_{i}_0 * d1_{i}, m_{i}_1 * d2_{i} + m_{i}_2 * d3_{i}, m_{i}_3 * d4_{i}")) + ")\n"
            "DRIVES.dot(rows, MIX)\n"
            "theta *= GROWTH\n"
            "theta += MIX"
        )
        buffers = _BUFFERS
        norms = "multiply(theta, theta, SQ)\nadd_reduce(SQ, 1, None, NORMS)\nsquare_root(NORMS, NORMS)"
        sample.append("*NORMS.tolist()")
    else:
        opening = "en1, enh, en4 = energy[row:row + 3]\n"
    sample += names("z{i}")
    source = _LOOP.format(
        x1=f"({', '.join(x)},)", s1=f"({', '.join(s)},)", sample=", ".join(sample),
        finite=" and ".join(f"isfinite({v})" for v in x),
        buffers=textwrap.indent(buffers, " " * 4), norms=textwrap.indent(norms, " " * 16),
        inputs=textwrap.indent(time_inputs(_START), " " * 16), opening=textwrap.indent(opening + kernel(1), " " * 12),
        step=textwrap.indent("\n".join(step), " " * 16),
    )
    c2, c3, c4, cmix, growth, half_decay, full_decay = _step_constants(chain.gains, dt)
    for prefix, table in (("c2", c2), ("c3", c3), ("c4", c4), ("m", cmix)):
        for j, coefficients in enumerate(table, start=1):
            namespace.update({f"{prefix}_{j}_{m}": c for m, c in enumerate(coefficients)})
    for i, (g, dh, df) in enumerate(zip(chain.gains[1:], half_decay, full_decay), start=2):
        namespace.update({f"lam{i}": g.lam, f"dh{i}": dh, f"df{i}": df})
    namespace.update(
        HALF=0.5 * dt, DT=dt, DT6=dt / 6.0, GROWTH=growth, pack_drives=struct.Struct(f"{3 * n}d").pack_into,
        empty=np.empty, empty_like=np.empty_like,
        BLOCK=BASIS_BLOCK, BLOCK_ROWS=blocks.size, ROW_BYTES=blocks.row.size, pack_row=blocks.row.pack_into,
        RECORD_EVERY=config.record_every, AFTER_T=perf.T,
        tabulate=chain.tabulate_basis, BASIS=chain.grid.buffers(BASIS_BLOCK + 2), isfinite=math.isfinite,
        multiply=np.multiply, add_reduce=np.add.reduce, square_root=np.sqrt,
        FunnelBreachError=FunnelBreachError, SimulationDivergenceError=SimulationDivergenceError,
    )
    sign = "tanh" if chain.sign_smoothing > 0.0 else "sign"
    filename = f"{__file__}<run n={n} {chain.mode.value} {sign} {'exact' if exact_filter else 'explicit'}>"
    return compile_function(source, filename, namespace)


def step(
    plant: StrictFeedbackPlant,
    chain: ControllerChain,
    bundle,
    t: float,
    dt: float,
    exact_filter: bool = True,
):
    """Advance the (x, filters, weights) bundle from t to t+dt by one RK4
    step, reading its basis rows from one ``ControllerChain.tabulate_basis``
    call at t, t+dt/2 and t+dt.

    Returns (new_bundle, start), ``start`` being the kernel output
    ``(u, alpha, drives)`` at (bundle, t).  The plant takes the RK4 stages
    and the weights the same RK4 step of their law in closed form
    (:func:`_step_constants`); ``exact_filter`` selects only the filter
    update (see the module docstring).  The caller's bundle stays as it
    was.

    This is the step in its plain form: ``chain.kernel`` and ``plant.rhs``
    called per RK stage, one list comprehension per stage quantity.
    ``run()`` never calls it; its loop is generated text that takes the
    same float operations in the same order, and the tests check that loop
    against this step float for float.
    """
    x, s, theta = bundle
    half = 0.5 * dt
    rows, energies, cross1, cross2 = chain.tabulate_basis([t, t + half, t + dt])
    kernel, rhs = chain.kernel, plant.rhs
    c2, c3, c4, cmix, growth, half_decay, full_decay = _step_constants(chain.gains, dt)
    mid, end = chain.time_inputs(t + half), chain.time_inputs(t + dt)

    def moved(v, h, dv):
        return [vi + h * di for vi, di in zip(v, dv)]

    def rk4(v, k1, k2, k3, k4):
        return [vi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d) for vi, a, b, c, d in zip(v, k1, k2, k3, k4)]

    def rate(alpha, sk):  # the filters' law s' = (alpha - s)/lam
        return [(a - si) / g.lam for a, si, g in zip(alpha, sk, chain.gains[1:])]

    if chain._fuzzy:
        p1, ph, p4 = (rows @ theta.T).tolist()  # theta . b at the three rows, per stage
        g1h, ghh, g14, gh4 = cross1[0], energies[1], cross2[0], cross1[1]
    else:
        p1, f2, f4 = energies
        f3 = f2
    start = u1, a1, d1 = kernel(x, s, p1, chain.time_inputs(t))
    if exact_filter:  # toward the alpha frozen at t
        s2 = s3 = [a + (si - a) * d for a, si, d in zip(a1, s, half_decay)]
        s4 = s_new = [a + (si - a) * d for a, si, d in zip(a1, s, full_decay)]
    else:
        ks1 = rate(a1, s)
        s2 = moved(s, half, ks1)
    kx1 = rhs(x, u1, t)
    x2 = moved(x, half, kx1)
    if chain._fuzzy:
        f2 = [k0 * p + k1 * da * g1h for (k0, k1), p, da in zip(c2, ph, d1)]
    u2, a2, d2 = kernel(x2, s2, f2, mid)
    kx2 = rhs(x2, u2, mid[0])
    x3 = moved(x, half, kx2)
    if not exact_filter:
        ks2 = rate(a2, s2)
        s3 = moved(s, half, ks2)
    if chain._fuzzy:
        f3 = [k0 * p + k1 * da * g1h + k2 * db * ghh for (k0, k1, k2), p, da, db in zip(c3, ph, d1, d2)]
    u3, a3, d3 = kernel(x3, s3, f3, mid)
    kx3 = rhs(x3, u3, mid[0])
    x4 = moved(x, dt, kx3)
    if not exact_filter:
        ks3 = rate(a3, s3)
        s4 = moved(s, dt, ks3)
    if chain._fuzzy:
        f4 = [k0 * p + k1 * da * g14 + (k2 * dc + k3 * db) * gh4
              for (k0, k1, k2, k3), p, da, db, dc in zip(c4, p4, d1, d2, d3)]
    u4, a4, d4 = kernel(x4, s4, f4, end)
    x_new = rk4(x, kx1, kx2, kx3, rhs(x4, u4, end[0]))
    if not exact_filter:
        s_new = rk4(s, ks1, ks2, ks3, rate(a4, s4))
    if chain._fuzzy:
        drives = [[k0 * da, k1 * db + k2 * dc, k3 * dd]
                  for (k0, k1, k2, k3), da, db, dc, dd in zip(cmix, d1, d2, d3, d4)]
        theta = growth * theta + np.array(drives) @ rows
    return (x_new, s_new, theta), start


def run(
    plant: StrictFeedbackPlant,
    reference: ReferenceSignal,
    gains: Sequence[StageGains],
    perf: PerfFunction,
    config: SimConfig,
    *,
    kind: TransformKind = TransformKind.SYMMETRIC_TAN,
    sign_smoothing: float = 0.0,
    csv_file: Optional[TextIO] = None,
):
    """Integrate the closed loop over [0, t_end] and verify the funnel bounds.

    Returns (Trajectory, VerificationReport), the trajectory from its
    sample at t = 0.  A funnel breach stops the run at the breach time and
    is reported, not raised; divergence, a non-finite plant state or a float
    overflow in the controller, raises :class:`SimulationDivergenceError`.
    An x0 whose error's arctan rounds to eta(0) = pi/2, |e(0)| of about
    2e15 or more, is an input error that the kernel finds at t = 0, after
    the checks of ``dt`` and ``csv_file``: a ValueError starting with
    ``x0``.  The steady bound holds if the transient one does and the
    streamed max|e| after T is below tan(c).

    By default ``Trajectory.data`` holds the recorded rows.  With
    ``csv_file``, a text file opened with ``newline=""`` (it must have a
    ``fileno()``, or a ValueError starting with ``csv_file`` is raised
    before the run starts), the rows are written to it block by block, in
    the bytes :func:`export_trajectory` writes, and none is kept:
    ``Trajectory.data`` holds no rows, and the rows take one block of
    memory whatever the horizon.  From the first full block on, a writer
    process formats the rows while the loop runs (see the module
    docstring); ``run()`` waits for it before it returns, raises OSError
    if it failed, and kills it if the run raises.  The report is the same
    float for float either way.
    """
    n = plant.n
    if len(config.x0) != n:
        raise ValueError(f"x0 must have {n} entries")
    if not config.exact_filter:
        check_explicit_step(gains, config.dt)
    if csv_file is not None:
        try:
            csv_file.fileno()
        except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
            raise ValueError(f"csv_file must be a file with a descriptor, such as open() returns, got {csv_file!r}") from None

    chain = ControllerChain(
        bounds=plant.bounds(),
        gains=gains,
        transform=ErrorTransform(perf=perf, kind=kind),
        reference=reference,
        mode=config.mode,
        sign_smoothing=sign_smoothing,
    )

    n_steps = step_count(config.t_end, config.dt)

    # one row of floats per recorded sample: the CSV columns, then z
    filters = [f"s{i}" for i in range(2, n + 1)]
    alphas = [f"alpha{i}" for i in range(1, n)]
    norms = [f"theta_norm{i}" for i in range(1, n + 1)] if config.mode is ControlMode.FUZZY else []
    zs = [f"z{i}" for i in range(1, n + 1)]
    names = (
        "t", *(f"x{i}" for i in range(1, n + 1)), "y_r", "e", "arctan_e", "eta", "neg_eta", "u",
        *filters, *alphas, *norms, *zs,
    )

    try:
        cstate = chain.init_state(config.x0)
    except FunnelBreachError as br:  # the kernel's own check of e(0) against eta(0)
        raise ValueError(f"x0 starts outside the funnel: arctan of the error e(0) = {br.e!r} "
                         f"rounds to eta(0) = {br.eta!r}") from None
    except OverflowError as exc:
        raise SimulationDivergenceError(0.0) from exc
    theta = np.array([w.theta_hat for w in cstate.theta_hat]) if cstate.theta_hat else np.zeros((0, 0))
    blocks = _Blocks(names, n_steps // config.record_every + 2, csv_file)
    try:
        run_loop = _compile_loop(plant, chain, config, blocks)
        rows, breach, max_err, max_err_after, max_u, peak_u_t = run_loop(
            config.x0, cstate.filter_states, theta, memoryview(blocks.block), blocks.fold, n_steps)
        transient_ok = breach is None
        # the sup norms skip the closing sample, which opens no step
        blocks.close(rows, rows - transient_ok)
    finally:
        blocks.stop()

    peaks = dict(zip(names[blocks.first:], np.maximum(blocks.high, -blocks.low).tolist()), u=max_u)
    sup = {
        name.replace("_norm", ""): peaks[name]
        for name in (*zs, *filters, *alphas, "u", *norms)
        if peaks[name] > 0.0
    }
    report = VerificationReport(
        transient_ok=transient_ok,
        # the loop raises on a non-finite state, so max|e| after T decides the bound
        steady_ok=transient_ok and max_err_after < math.tan(perf.c),
        max_abs_error=max_err,
        max_abs_error_after_T=max_err_after,
        max_abs_control=max_u,
        signal_sup_norms=sup,
        min_funnel_margin=blocks.margin,
        min_margin_time=blocks.margin_time,
        peak_control_time=peak_u_t,
    )
    return Trajectory(names, blocks.kept[:blocks.rows], breach), report


class _Blocks:
    """The recorded rows of one run, in blocks of at most
    :data:`RECORD_BLOCK` rows, and the report's reductions over them.

    The loop packs rows into ``block``.  ``fold()`` folds a full block, each
    row of which opened a step, into the minimum funnel margin and the
    column peaks after ``u`` (the loop streams u's), hands the rows on and
    returns the next block to fill, as a memoryview.  ``close(rows,
    opening)`` folds and hands on the last block, its first ``opening`` rows
    into the peaks.  Without ``csv_file`` each block is a window of
    ``kept``, one array for every row the run can record.  With it the
    header line goes to that file at once and ``kept`` holds no rows: the
    first full block starts a writer process (:data:`_WRITER`), which
    formats every block from then on while the loop goes on; a run that
    never fills a block formats its rows in this process.  ``stop()`` kills
    a writer that ``close`` did not end.
    """

    def __init__(self, names: tuple, capacity: int, csv_file: Optional[TextIO]):
        width = len(names)
        self.size = min(RECORD_BLOCK, capacity)
        self.row = struct.Struct(f"{width}d")
        self.first, self.eta, self.atan = names.index("u") + 1, names.index("eta"), names.index("arctan_e")
        self.high = self.low = np.zeros(width - self.first)
        self.margin = self.margin_time = None
        self.rows = 0  # rows folded so far
        self.csv_file, self.writer, self.pipe = csv_file, None, None
        if csv_file is None:
            self.kept = np.empty((capacity, width))
            self.block = self.kept[:self.size]
        else:
            self.fields = _csv_header(csv_file, names)
            self.kept, self.block = np.empty((0, width)), np.empty((self.size, width))

    def _reduce(self, rows: int, opening: int) -> np.ndarray:
        block = self.block[:rows]
        # max|v| as max(max v, -min v), exact like abs, without an |v| copy;
        # the maxima and minima of the blocks are those of the run
        cols = block[:opening, self.first:]
        self.high = np.maximum(self.high, cols.max(axis=0, initial=0.0))
        self.low = np.minimum(self.low, cols.min(axis=0, initial=0.0))
        margins = block[:, self.eta] - np.abs(block[:, self.atan])
        i = int(np.argmin(margins))
        if self.margin is None or margins[i] < self.margin:  # an equal later minimum keeps the first
            self.margin, self.margin_time = float(margins[i]), float(block[i, 0])
        self.rows += rows
        return block

    def fold(self) -> memoryview:
        block = self._reduce(self.size, self.size)
        if self.csv_file is None:
            self.block = self.kept[self.rows:self.rows + self.size]
        else:
            self._send(block)
        return memoryview(self.block)

    def close(self, rows: int, opening: int) -> None:
        block = self._reduce(rows, opening)
        if self.writer is not None:
            self._send(block)
            self._finish()
        elif self.csv_file is not None:
            _write_rows(self.csv_file, _row_format(block.shape[1], self.fields), block)

    def _send(self, block: np.ndarray) -> None:
        """The block's bytes to the writer, started at the first block."""
        if self.writer is None:
            self.csv_file.flush()  # the header goes first
            read, write = os.pipe()
            self.pipe = open(write, "wb", buffering=0)
            try:
                self.writer = os.posix_spawn(
                    sys.executable,
                    [sys.executable, "-I", "-S", "-c", _WRITER, "funneldsc-csv-writer",
                     *map(str, (block.shape[1], self.size, self.fields))],
                    os.environ,
                    # the file first: where stdin is closed, it may be descriptor 0
                    file_actions=[(os.POSIX_SPAWN_DUP2, self.csv_file.fileno(), 1), (os.POSIX_SPAWN_DUP2, read, 0)],
                )
            finally:
                os.close(read)
        try:
            data = memoryview(block).cast("B")
            while data:  # a signal handler can cut a write short
                data = data[self.pipe.write(data):]
        except BrokenPipeError:
            self._finish(unread=True)

    def _finish(self, unread: bool = False) -> None:
        """Close the writer's input and wait for it; OSError if it failed,
        or if it ended with rows ``unread``, whatever its status."""
        self.pipe.close()
        status = os.waitstatus_to_exitcode(os.waitpid(self.writer, 0)[1])
        self.writer = None
        if status or unread:
            raise OSError(f"{getattr(self.csv_file, 'name', 'csv_file')}: the CSV writer exited with status {status}"
                          + ("" if status else " before it read every row"))

    def stop(self) -> None:
        """Kill a writer that ``close`` did not end, and wait for it."""
        if self.writer is not None:
            os.kill(self.writer, signal.SIGKILL)
            os.waitpid(self.writer, 0)
            self.writer = None
        if self.pipe is not None:
            self.pipe.close()


# The lines of trajectory.csv for a block of recorded rows: the repr of
# each float (%r), "," between fields and "\r\n" after each row, of the
# first ``fields`` floats of each row of ``width``.  ``block`` is any
# C-ordered float64 buffer of whole rows: an array block, or the bytes
# that the writer reads.  One text, compiled in this process and run by
# the writer.
_FORMAT = """\
def row_format(width, fields):
    line = ",".join(["%r"] * fields) + "\\r\\n"
    keep = [True] * fields + [False] * (width - fields)

    def format_rows(block):
        values = memoryview(block).cast("B").cast("d")
        return (line * (len(values) // width)) % tuple(compress(values, cycle(keep)))

    return format_rows
"""

_row_format = compile_function(_FORMAT, f"{__file__}<format>", {"compress": itertools.compress, "cycle": itertools.cycle})

# The writer process: argv is the marker, the row width, the rows per block
# and the number of fields written.  It reads the floats of whole blocks
# from stdin, all full but the last, and writes their lines to stdout,
# until stdin closes.  It ignores SIGINT: a ^C reaches the run, whose
# ``finally`` kills the writer.
_WRITER = f"""\
import signal, sys
from itertools import compress, cycle
{_FORMAT}
signal.signal(signal.SIGINT, signal.SIG_IGN)
width, rows, fields = map(int, sys.argv[2:])
format_rows = row_format(width, fields)
read, write = sys.stdin.buffer.read, sys.stdout.buffer.write
while data := read(8 * width * rows):
    write(format_rows(data).encode())
sys.stdout.flush()
"""


def _csv_header(fh: TextIO, names: tuple) -> int:
    """Write the header line of :func:`export_trajectory` to ``fh``;
    returns the number of fields it names, those before ``z1``."""
    fields = names.index("z1")
    fh.write(",".join(names[:fields]) + "\r\n")
    return fields


def _write_rows(fh: TextIO, format_rows, data: np.ndarray) -> None:
    """Write the lines of the rows of ``data``, :data:`_FORMAT_ROWS` rows
    per ``format_rows`` call."""
    for start in range(0, len(data), _FORMAT_ROWS):
        fh.write(format_rows(data[start:start + _FORMAT_ROWS]))


def export_trajectory(traj: Trajectory, path) -> None:
    """Write a run as comma-separated text: a header of column names, then
    one row per recorded sample, without the z columns.  Each field is the
    ``repr`` of its float, fields are joined by ``,`` and every line ends
    in ``\\r\\n``: the bytes ``csv.writer`` writes for these rows, since no
    name or float repr needs quoting.  ``run()`` writes the same bytes to
    its ``csv_file``."""
    data = np.ascontiguousarray(traj.data, dtype=float)
    with open(path, "w", newline="") as fh:
        _write_rows(fh, _row_format(data.shape[1], _csv_header(fh, traj.names)), data)
