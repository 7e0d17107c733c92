"""Fixed-step closed-loop integration and performance-bound verification.

The augmented state couples the plant, the first-order filters of the
control chain, and (in fuzzy mode) the adaptive weights.  Each step
evaluates the plant's one right-hand side (its text ``plant.rhs_text``)
and the controller's one kernel (``ControllerChain.kernel``), which takes
numbers only.  Its basis input comes from one read per step of the basis
rows at t, t+dt/2 and t+dt, their energies and Gram products: the drift
estimates theta_i . basis in fuzzy mode, the energy basis . basis in
approximator-free mode.  ``run()`` tabulates the half-step grid i*dt/2 in
blocks of :data:`BASIS_BLOCK` rows plus two rows of overlap, and step k
reads rows 2k..2k+2 of the block that holds row 2k; a standalone
:func:`step` tabulates its own three rows.  Its time inputs (y_r, dy_r,
eta and eta_dot, by the texts of the reference and the envelope,
``controller.inline_time_inputs``) are evaluated once per stage time, into
locals: t (whose y_r the verifier reads too), t + 0.5*dt for RK stages 2
and 3, and t + dt.  At some steps these differ by an ulp from the grid's
(2k+1)*dt/2 and (2k+2)*dt/2, enough to move the weak-gain run's peaks
past the benchmark's golden records, so they stay off the grid until
those are re-recorded.

One RK4 step: the plant takes the four RK4 stages.  The weights take the
same RK4 step of their linear law in closed form, once per step: one
projection of theta on the step's three basis rows (t, t+dt/2, t+dt) gives
every stage's drift estimate as a scalar recurrence, and one update forms
the new weights.  The step's statements come from one text
(:func:`_step_text`), unrolled over the n stages as straight-line Python
with the closed-form coefficients and the filter decays of
:func:`_step_constants` bound in as globals, and the plant state and the
filters as scalar locals.  ``run()`` compiles one function per run,
:data:`_LOOP`: the whole step loop, that is each step's basis read and
opening kernel evaluation, the recorded row, the streaming verifier and
the RK4 step, with the chain's kernel text inlined at all four RK stages
(``ControllerChain.inline_kernel``), each copy's locals renamed per stage,
and so are the plant's right-hand side (``plant.inline_rhs``) and the
time inputs at each stage time.  The loop calls no Python function per
step: only ``math`` builtins and, in fuzzy mode, the numpy ops.  It is
compiled under the name ``.../sim.py<run n=3 fuzzy sign exact>``, so
profiles count the inlined texts' time under this module, and tracebacks
show their lines as inlined.  The standalone :func:`step` is the same
statements with ``chain.kernel`` called where the loop inlines it, on the
time inputs packed as a tuple per stage time, compiled under
``.../sim.py<step n=3 fuzzy exact>`` and cached by value: by the plant,
the reference and the envelope, which compare by their texts and names,
and the chain's constants.  Numpy ops stay numpy ops, as BLAS and pairwise
sums add in another order than a Python loop; the tests' oracle
``comprehension_step`` takes every float's operations in the step's
order, and ``oracle_run`` rebuilds ``run()`` from :func:`step`.  The
step's end passes its time inputs at t + dt to the next step wherever
(k+1)*dt is the float k*dt + dt.  The two steppers differ only in how the
filters s' = (alpha - s)/lam move:

- exact filter (default): along their closed-form exponential toward the
  virtual control ``alpha`` frozen at the step start.  This removes the
  filter time constant from the step-size limit, but freezing ``alpha``
  caps the observed global order at about 1 (1.06 and 1.19 measured on
  the single-link case).
- ``exact_filter=False``: by the RK4 stages of their law, from the
  ``alpha`` the kernel returns at each stage; it needs dt <= lam_min / 5
  (:func:`check_explicit_step`).

The loop runs over the n_steps + 1 sample times; sample k opens step k,
and the last, at t_end, is opened, recorded and verified like the others
but takes no step and adds nothing to max|u|.  A breach raised at an RK
stage state ends the run after its step's row was recorded, before that
step's max|e| and max|u| are updated.  Each recorded sample
(every ``record_every``-th step start, and t_end) is one row, packed by
one ``struct.pack_into`` into a block of :data:`RECORD_BLOCK` rows (fewer
when the run records fewer).  Each full block, and the last one after the
loop, is folded into the report's reductions, the column peaks for the
sup norms and the minimum funnel margin with its first time, and then
handed on: by default the block is a window of one array allocated for
every row the run can record, so ``Trajectory.data`` is the recorded
rows; a run given a ``csv_file`` writes each block's rows to it and reuses
the block.  The peaks and the margin are exact per block, so the report
does not depend on where blocks end.  A row takes u, alpha, y_r, eta, e,
arctan e and z_1..z_n from the opening kernel's own locals, so each value
is the kernel's float.  :func:`export_trajectory` and a ``csv_file`` write
the rows as the ``repr`` of each float, ``,`` between fields and
``\\r\\n`` line ends: the bytes ``csv.writer`` writes for them.
"""

from __future__ import annotations

import functools
import math
import struct
import textwrap
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .codegen import compile_function
from .controller import _TIME_INPUTS, ControlMode, ControllerChain, StageGains, inline_time_inputs
from .perf import ErrorTransform, FunnelBreachError, PerfFunction, TransformKind
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
# table's memory whatever the horizon (4096 rows of 11 rules is about
# 0.6 MB with the Gram products), while refilling costs one vectorised pass
# per 2048 steps, within noise of tabulating the whole run up front.
BASIS_BLOCK = 4096
# Rows per recorded block in run(), for the same reason: a run that writes
# its rows as it goes holds one block whatever its horizon.  A block of
# 4096 rows of 13 columns (single-link, approximator-free) is 425 984
# bytes.  Each block costs a few numpy reductions, so a run of up to 4096
# recorded rows, one block, makes the same numpy calls whatever its length:
# the benchmark counts numpy calls per step as the difference between runs
# of 501 and 2001 rows.
RECORD_BLOCK = 4096
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
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not isinstance(self.record_every, int) or isinstance(self.record_every, bool) or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")
        step_count(self.t_end, self.dt)
        try:
            x0 = tuple(float(v) for v in self.x0)
        except (TypeError, ValueError):
            raise ValueError(f"x0 must be a sequence of numbers, got {self.x0!r}") from None
        if not all(map(math.isfinite, x0)):
            raise ValueError(f"x0 must be finite, got {x0!r}")
        object.__setattr__(self, "x0", x0)


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


def _step_constants(mus: tuple, varpis: tuple, lams: tuple, dt: float):
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
    for mu, varpi in zip(mus, varpis):
        a = varpi * h
        q = 1.0 - a + a * a
        hmu = h * mu
        e = dt / 6.0 * mu
        c2.append((1.0 - a, hmu))
        c3.append((q, -a * hmu, hmu))
        c4.append((1.0 - 2.0 * a * q, 2.0 * a * a * hmu, dt * mu, -2.0 * a * hmu))
        cmix.append((e * (1.0 - 2.0 * a * q), e * 2.0 * q, e * (2.0 - 2.0 * a), e))
        z = varpi * dt
        growth.append(1.0 - z + z * z / 2.0 - z**3 / 6.0 + z**4 / 24.0)
    growth = np.array(growth)[:, None]
    growth.flags.writeable = False  # shared by every call of the compiled step
    half = tuple(math.exp(-0.5 * dt / lam) for lam in lams)
    full = tuple(math.exp(-dt / lam) for lam in lams)
    return tuple(c2), tuple(c3), tuple(c4), tuple(cmix), growth, half, full


# One RK4 step of an n-stage chain, as statements that the standalone step
# and the run loop share.  Per RK stage k, x<k>_<j> is plant state j,
# s<k>_<i> filter i, u<k> the control, a<k>_<i> the alpha that filter i
# tracks, d<k>_<j> the drive and f<k>_<j> the drift estimate of stage j,
# and k<k>_<j> the plant derivative.  The time inputs at the stage times
# t, tm = t + dt/2 and te = t + dt are the locals of _START, _MID and _END.
# The opening reads the step's basis rows (from ``row`` of the table
# ``basis, energy, cross1, cross2``) and evaluates the kernel at t; the
# advance takes the RK4 step and leaves the new state in x1_<j>, s1_<i>
# and theta.  The plant's right-hand side and the time inputs are their
# texts inlined ({rhs<k>}, {mid}, {end}).  The constants are globals:
# HALF = 0.5*dt, DT = dt, DT6 = dt/6.0, the _step_constants coefficients
# c2_<j>_<m>, c3_<j>_<m>, c4_<j>_<m>, m_<j>_<m> and GROWTH, the decays
# dh<i> and df<i> and the filter time constants lam<i>, and the globals of
# the inlined texts.
_ADVANCE = """\
tm = t + HALF
te = t + DT
{mid}
{end}
{filters1}
{rhs1}
{x2}
{kernel2}
{rhs2}
{filters2}
{x3}
{kernel3}
{rhs3}
{filters3}
{x4}
{kernel4}
{rhs4}
{filters4}
{x_new}
{weights}
"""

# The time inputs' locals at each stage time: the time, y_r, dy_r, eta and
# eta_dot.  The start's keep the kernel's own names, which a recorded row
# reads.
_START = _TIME_INPUTS
_MID = ("tm", "y_m", "dy_m", "eta_m", "etad_m")
_END = ("te", "y_e", "dy_e", "eta_e", "etad_e")

# The standalone step: the kernel is called, and it reads its own rows.
_STEP = """\
def step(kernel, tabulate, bundle, t):
    {x1}, {s1}, theta = bundle
    basis, energy, cross1, cross2 = tabulate([t, t + HALF, t + DT])
    row = 0
{inputs}
{opening}
{advance}
    return ({x_list}, {s_list}, theta), start
"""

# The run: the kernel is inlined at every stage.  Sample k opens step k,
# which reads rows 2k..2k+2 of the half-step grid i*dt/2, tabulated in
# blocks of BLOCK rows plus two of overlap; the last sample, at t_end,
# closes the run.  A recorded row takes e, arctan e, y_r, eta and z from
# the opening kernel's own locals, and is packed into the next row of
# ``block``, BLOCK_ROWS rows of ROW_BYTES bytes.  A full block goes to
# ``fold`` before the next row, so all its rows opened a step; ``fold``
# returns the block to fill next.  The loop returns the rows of its last
# block, which ``run()`` folds.
_LOOP = """\
def run_loop(x, s, theta, block, fold, n_steps):
    {x1}, {s1} = x, s
    filled = 0
    max_err = max_err_after = max_u = peak_u_t = 0.0
    steady_ok = True
    breach = te = None
    first = -BLOCK  # first row of the basis block; sample 0 fills one
    for k in range(n_steps + 1):
        t = k * DT
        closing = k == n_steps
        if 2 * k - first >= BLOCK:
            first = 2 * k
            basis, energy, cross1, cross2 = tabulate([i * HALF for i in range(first, first + BLOCK + 2)])
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
                    block = fold(filled, filled)
                    filled = 0
                pack_row(block, filled * ROW_BYTES, {sample})
                filled += 1
            if not closing:
{advance}
        except FunnelBreachError as br:
            breach = br.t
            break
        except OverflowError as exc:
            raise SimulationDivergenceError(t) from exc
        # streaming verification at the sample
        ae = abs(e)
        if ae > max_err:
            max_err = ae
        if t >= AFTER_T:
            if ae > max_err_after:
                max_err_after = ae
            if ae >= TAN_C:
                steady_ok = False
        if closing:
            break
        au = abs(u1)
        if au > max_u:
            max_u = au
            peak_u_t = t
        if not ({finite}):
            raise SimulationDivergenceError(t + DT)
    return filled, breach, max_err, max_err_after, max_u, peak_u_t, steady_ok
"""


def _step_text(plant: StrictFeedbackPlant, reference: ReferenceSignal, perf: PerfFunction, fuzzy: bool,
               exact_filter: bool, kernel_at):
    """``(inputs, opening, advance, namespace)``: the step's statements for
    one plant, reference, envelope, mode and filter update, at indentation
    0, and the globals of the texts they inline.  ``inputs`` are the time
    inputs at t, which the opening reads.  ``kernel_at(k, args, outputs)``
    gives the statements that evaluate the kernel at RK stage k on the
    locals named by ``args`` = (x, filter_states, drifts, inputs), inputs
    being one of :data:`_START`, :data:`_MID` and :data:`_END`, into those
    named by ``outputs`` = (u, alpha, drives)."""
    n = plant.n
    states, filters = range(1, n + 1), range(2, n + 1)
    namespace = {}

    def inlined(statements, globals_):
        namespace.update(globals_)
        return statements

    def time_inputs(names):
        return inlined(*inline_time_inputs(reference, perf, names[0], names))

    def rhs(k):
        t = ("t", "tm", "tm", "te")[k - 1]
        return inlined(*plant.inline_rhs(f"rhs{k}", names(f"x{k}_{{i}}"), f"u{k}", t, names(f"k{k}_{{i}}")))

    def names(template, indices=states):
        return [template.format(i=i) for i in indices]

    def lines(*templates, indices=states):
        return "\n".join(line for template in templates for line in names(template, indices))

    def unpacked(template, indices=states):
        return f"({', '.join(names(template, indices))},)"

    def listed(template, indices=states):
        return f"[{', '.join(names(template, indices))}]"

    def kernel(k):
        filtered = (1, 2, 2, 4)[k - 1] if exact_filter else k  # exact: stages 2, 3 share s2
        if fuzzy:
            drifts = names("p1_{i}" if k == 1 else f"f{k}_{{i}}")
        else:
            drifts = ("en1", "enh", "enh", "en4")[k - 1]
        inputs = (_START, _MID, _MID, _END)[k - 1]
        outputs = (f"u{k}", names(f"a{k}_{{i}}", filters), names(f"d{k}_{{i}}") if fuzzy else None)
        return kernel_at(k, (names(f"x{k}_{{i}}"), names(f"s{filtered}_{{i}}", filters), drifts, inputs), outputs)

    fields = {
        "mid": time_inputs(_MID), "end": time_inputs(_END),
        "x_new": lines("x1_{i} = x1_{i} + DT6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"),
        "weights": "",
    }
    drifts = {2: "", 3: "", 4: ""}
    for k in range(1, 5):
        fields[f"rhs{k}"] = rhs(k)
    if fuzzy:
        basis = (
            "rows = basis[row:row + 3]\n"
            f"{unpacked('p1_{i}')}, {unpacked('ph_{i}')}, {unpacked('p4_{i}')} = (rows @ theta.T).tolist()\n"
            "g1h, ghh, g14, gh4 = cross1[row], energy[row + 1], cross2[row], cross1[row + 1]\n"
        )
        drifts = {
            2: lines("f2_{i} = c2_{i}_0 * ph_{i} + c2_{i}_1 * d1_{i} * g1h"),
            3: lines("f3_{i} = c3_{i}_0 * ph_{i} + c3_{i}_1 * d1_{i} * g1h + c3_{i}_2 * d2_{i} * ghh"),
            4: lines(
                "f4_{i} = c4_{i}_0 * p4_{i} + c4_{i}_1 * d1_{i} * g14 + (c4_{i}_2 * d3_{i} + c4_{i}_3 * d2_{i}) * gh4"),
        }
        fields["weights"] = (
            "theta = GROWTH * theta + array("
            + listed("[m_{i}_0 * d1_{i}, m_{i}_1 * d2_{i} + m_{i}_2 * d3_{i}, m_{i}_3 * d4_{i}]") + ") @ rows"
        )
    else:
        basis = "en1, enh, en4 = energy[row:row + 3]\n"
    fields["x2"] = lines("x2_{i} = x1_{i} + HALF * k1_{i}") + "\n" + drifts[2]
    fields["x3"] = lines("x3_{i} = x1_{i} + HALF * k2_{i}") + "\n" + drifts[3]
    fields["x4"] = lines("x4_{i} = x1_{i} + DT * k3_{i}") + "\n" + drifts[4]
    if exact_filter:
        # toward the alpha frozen at t: s2 serves RK stages 2 and 3, s4 stage 4 and the step's end
        fields.update(
            filters1=lines("s2_{i} = a1_{i} + (s1_{i} - a1_{i}) * dh{i}", "s4_{i} = a1_{i} + (s1_{i} - a1_{i}) * df{i}",
                           indices=filters),
            filters2="", filters3="", filters4=lines("s1_{i} = s4_{i}", indices=filters),
        )
    else:
        # the RK4 stages of s' = (alpha - s)/lam, from each stage's alpha
        fields.update(
            filters1=lines("ks1_{i} = (a1_{i} - s1_{i}) / lam{i}", "s2_{i} = s1_{i} + HALF * ks1_{i}", indices=filters),
            filters2=lines("ks2_{i} = (a2_{i} - s2_{i}) / lam{i}", "s3_{i} = s1_{i} + HALF * ks2_{i}", indices=filters),
            filters3=lines("ks3_{i} = (a3_{i} - s3_{i}) / lam{i}", "s4_{i} = s1_{i} + DT * ks3_{i}", indices=filters),
            filters4=lines(
                "ks4_{i} = (a4_{i} - s4_{i}) / lam{i}",
                "s1_{i} = s1_{i} + DT6 * (ks1_{i} + 2.0 * ks2_{i} + 2.0 * ks3_{i} + ks4_{i})", indices=filters),
        )
    fields.update(kernel2=kernel(2), kernel3=kernel(3), kernel4=kernel(4))
    return time_inputs(_START), basis + kernel(1), _ADVANCE.format(**fields), namespace


def _kernel_call(k: int, args, outputs) -> str:
    """RK stage k's kernel as a call of the ``kernel`` argument, on the
    time inputs packed as one tuple per stage time, which stages 2 and 3
    share; the opening's call keeps its output as ``start``."""
    (x, s, drifts, inputs), (u, alpha, drives) = args, outputs
    packed = ("inputs", "mid", "mid", "end")[k - 1]

    def listed(names):
        return f"[{', '.join(names)}]"

    pack = "" if k == 3 else f"{packed} = ({', '.join(inputs)})\n"
    call = f"kernel({listed(x)}, {listed(s)}, {drifts if isinstance(drifts, str) else listed(drifts)}, {packed})"
    target = f"{u}, ({', '.join(alpha)},), " + (f"({', '.join(drives)},)" if drives else "_")
    return pack + (f"start = {call}\n{target} = start\n" if k == 1 else f"{target} = {call}\n")


def _step_globals(mus: tuple, varpis: tuple, lams: tuple, dt: float) -> dict:
    """The step's constants by their names in the step's statements."""
    c2, c3, c4, cmix, growth, half_decay, full_decay = _step_constants(mus, varpis, lams, dt)
    namespace = {
        "np": np, "array": np.array, "HALF": 0.5 * dt, "DT": dt, "DT6": dt / 6.0, "GROWTH": growth,
    }
    for prefix, table in (("c2", c2), ("c3", c3), ("c4", c4), ("m", cmix)):
        for j, coefficients in enumerate(table, start=1):
            namespace.update({f"{prefix}_{j}_{m}": c for m, c in enumerate(coefficients)})
    for i, (lam, dh, df) in enumerate(zip(lams, half_decay, full_decay), start=2):
        namespace.update({f"lam{i}": lam, f"dh{i}": dh, f"df{i}": df})
    return namespace


@functools.lru_cache(maxsize=8)
def _standalone_step(plant: StrictFeedbackPlant, reference: ReferenceSignal, perf: PerfFunction, fuzzy: bool,
                     exact_filter: bool, mus: tuple, varpis: tuple, lams: tuple, dt: float):
    """:data:`_STEP` for one plant, reference, envelope and chain shape,
    compiled with its constants bound in: ``step(kernel, tabulate,
    bundle, t)``.  Cached by value: the plant, the reference and the
    envelope compare by their texts and names."""
    inputs, opening, advance, namespace = _step_text(plant, reference, perf, fuzzy, exact_filter, _kernel_call)
    n = plant.n
    states, filters = range(1, n + 1), range(2, n + 1)
    x, s = [f"x1_{j}" for j in states], [f"s1_{i}" for i in filters]
    source = _STEP.format(
        x1=f"({', '.join(x)},)", s1=f"({', '.join(s)},)", x_list=f"[{', '.join(x)}]", s_list=f"[{', '.join(s)}]",
        inputs=textwrap.indent(inputs, " " * 4), opening=textwrap.indent(opening, " " * 4),
        advance=textwrap.indent(advance, " " * 4),
    )
    namespace.update(_step_globals(mus, varpis, lams, dt))
    filename = f"{__file__}<step n={n} {'fuzzy' if fuzzy else 'approx-free'} {'exact' if exact_filter else 'explicit'}>"
    return compile_function(source, filename, namespace)


def _compile_loop(plant: StrictFeedbackPlant, chain: ControllerChain, perf: PerfFunction, config: SimConfig,
                  blocks: _Blocks):
    """:data:`_LOOP` for one run, with the chain's kernel inlined at each
    RK stage and the run's constants bound in: ``run_loop(x, s, theta,
    block, fold, n_steps)`` records into the blocks of ``blocks`` and
    returns the rows of its last block, the breach time and the streamed
    verification."""
    n, fuzzy, exact_filter = chain.bounds.n, chain._fuzzy, config.exact_filter
    # the opening's locals that a recorded row and the verifier read
    keep = ("e", "atan_e", "y_r", "eta_v", *(f"z{i}" for i in range(1, n + 1)))
    kernel_constants = {}

    def inline(k, args, outputs):
        statements, constants = chain.inline_kernel(str(k), args, outputs, keep if k == 1 else ())
        kernel_constants.update(constants)
        return statements

    inputs, opening, advance, namespace = _step_text(plant, chain.reference, perf, fuzzy, exact_filter, inline)
    namespace.update(kernel_constants)
    namespace.update(_step_globals(chain._mu, chain._varpi, chain._lam, config.dt))
    states, filters = range(1, n + 1), range(2, n + 1)
    x, s = [f"x1_{j}" for j in states], [f"s1_{i}" for i in filters]
    norms = ["*np.sqrt(np.add.reduce(theta * theta, axis=1)).tolist()"] if fuzzy else []
    sample = [
        "t", *x, "y_r", "e", "atan_e", "eta_v", "-eta_v", "u1", *s, *(f"a1_{i}" for i in filters), *norms,
        *(f"z{i}" for i in states),
    ]
    source = _LOOP.format(
        x1=f"({', '.join(x)},)", s1=f"({', '.join(s)},)", sample=", ".join(sample),
        finite=" and ".join(f"isfinite({v})" for v in x),
        inputs=textwrap.indent(inputs, " " * 16), opening=textwrap.indent(opening, " " * 12),
        advance=textwrap.indent(advance, " " * 16),
    )
    namespace.update(
        BLOCK=BASIS_BLOCK, BLOCK_ROWS=blocks.size, ROW_BYTES=blocks.row.size, pack_row=blocks.row.pack_into,
        RECORD_EVERY=config.record_every, AFTER_T=perf.T, TAN_C=math.tan(perf.c),
        tabulate=chain.tabulate_basis, isfinite=math.isfinite,
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
    and the weights the same RK4 step of their law in closed form;
    ``exact_filter`` selects only the filter update (see the module
    docstring).  The step's statements are those of ``run()``'s loop, with
    ``chain.kernel`` called where the loop inlines it.
    """
    advance = _standalone_step(
        plant, chain.reference, chain.transform.perf, chain._fuzzy, exact_filter, chain._mu, chain._varpi, chain._lam, dt)
    return advance(chain.kernel, chain.tabulate_basis, bundle, t)


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
    2e15 or more, is an input error: a ValueError starting with ``x0``.

    By default ``Trajectory.data`` holds the recorded rows.  With
    ``csv_file``, an open text file (``newline=""``), the rows are written
    to it block by block (see the module docstring), in the bytes
    :func:`export_trajectory` writes, and none is kept: ``Trajectory.data``
    holds no rows, and the rows take one block of memory whatever the
    horizon.  The report is the same float for float either way.
    """
    n = plant.n
    if len(config.x0) != n:
        raise ValueError(f"x0 must have {n} entries")
    e0, eta0 = config.x0[0] - reference.value(0.0), perf.envelope(0.0)[0]
    if abs(math.atan(e0)) >= eta0:
        raise ValueError(f"x0 starts outside the funnel: arctan of the error e(0) = {e0!r} rounds to eta(0) = {eta0!r}")
    if not config.exact_filter:
        check_explicit_step(gains, config.dt)

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
    except OverflowError as exc:
        raise SimulationDivergenceError(0.0) from exc
    if cstate.theta_hat:
        theta = np.array([w.theta_hat for w in cstate.theta_hat])
    else:
        theta = np.zeros((0, 0))
    blocks = _Blocks(names, n_steps // config.record_every + 2, csv_file)
    run_loop = _compile_loop(plant, chain, perf, config, blocks)
    rows, breach, max_err, max_err_after, max_u, peak_u_t, steady_ok = run_loop(
        config.x0, cstate.filter_states, theta, memoryview(blocks.block), blocks.fold, n_steps)
    transient_ok = breach is None
    # the sup norms skip the closing sample, which opens no step
    blocks.fold(rows, rows - transient_ok)

    peaks = dict(zip(names[blocks.first:], np.maximum(blocks.high, -blocks.low).tolist()), u=max_u)
    sup = {
        name.replace("_norm", ""): peaks[name]
        for name in (*zs, *filters, *alphas, "u", *norms)
        if peaks[name] > 0.0
    }
    report = VerificationReport(
        transient_ok=transient_ok,
        steady_ok=steady_ok and transient_ok,
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

    The loop packs rows into ``block``.  ``fold(rows, opening)`` folds the
    block's first ``rows`` rows into the minimum funnel margin and its
    first ``opening`` rows, those that opened a step, into the column
    peaks from ``u`` on; it then hands the rows on and returns the next
    block to fill, as a memoryview.  Without ``csv_file`` each block is a
    window of ``kept``, one array for every row the run can record;
    with it each block's rows are appended to that file and ``kept`` holds
    none, so the run's rows take one block of memory whatever its horizon.
    """

    def __init__(self, names: tuple, capacity: int, csv_file: Optional[TextIO]):
        width = len(names)
        self.size = min(RECORD_BLOCK, capacity)
        self.row = struct.Struct(f"{width}d")
        self.first, self.eta, self.atan = names.index("u"), names.index("eta"), names.index("arctan_e")
        self.high = self.low = np.zeros(width - self.first)
        self.margin = self.margin_time = None
        self.rows = 0  # rows folded so far
        if csv_file is None:
            self.kept, self.write = np.empty((capacity, width)), None
            self.block = self.kept[:self.size]
        else:
            self.kept, self.write = np.empty((0, width)), _csv_writer(csv_file, names)
            self.block = np.empty((self.size, width))

    def fold(self, rows: int, opening: int) -> memoryview:
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
        if self.write is None:
            self.block = self.kept[self.rows:self.rows + self.size]
        else:
            self.write(block)
        return memoryview(self.block)


def _csv_writer(fh: TextIO, names: tuple):
    """Write the header line of :func:`export_trajectory` to ``fh``;
    returns ``write(rows)``, which appends the lines of the rows of a float
    array, each line as :func:`export_trajectory` writes it."""
    width = names.index("z1")
    fh.write(",".join(names[:width]) + "\r\n")

    def write(rows: np.ndarray) -> None:
        # a flat view of the C-ordered rows: each line reads its fields from
        # a slice, so no row list or float outlives its line, and the numpy
        # calls do not grow with the rows
        flat, stride = memoryview(np.ascontiguousarray(rows, dtype=float).ravel()), rows.shape[1]
        fh.writelines(",".join(map(repr, flat[i:i + width])) + "\r\n" for i in range(0, len(flat), stride))

    return write


def export_trajectory(traj: Trajectory, path) -> None:
    """Write a run as comma-separated text: a header of column names, then
    one row per recorded sample, without the z columns.  Each field is the
    ``repr`` of its float, fields are joined by ``,`` and every line ends
    in ``\\r\\n``: the bytes ``csv.writer`` writes for these rows, since no
    name or float repr needs quoting.  ``run()`` writes the same bytes to
    its ``csv_file``."""
    with open(path, "w", newline="") as fh:
        _csv_writer(fh, traj.names)(traj.data)
