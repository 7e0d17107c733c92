"""Fixed-step closed-loop integration and performance-bound verification.

The augmented state couples the plant, the first-order filters of the
control chain, and (in fuzzy mode) the adaptive weights.  Each step
evaluates the plant's one right-hand side (``plant.rhs``) and the
controller's one kernel (``ControllerChain.kernel``), which takes numbers
only.  Its basis input comes from one read per step of the basis rows at
t, t+dt/2 and t+dt, their energies and Gram products: the drift estimates
theta_i . basis in fuzzy mode, the energy basis . basis in
approximator-free mode.  ``run()`` tabulates the half-step grid i*dt/2 in
blocks of :data:`BASIS_BLOCK` rows plus two rows of overlap, and step k
reads rows 2k..2k+2 of the block that holds row 2k; a standalone
:func:`step` tabulates its own three rows.  Its time inputs
(``ControllerChain.time_inputs``) are built once per stage time: t (whose
y_r the verifier reads too), t + 0.5*dt for RK stages 2 and 3, and t + dt.
At some steps these differ by an ulp from the grid's (2k+1)*dt/2 and
(2k+2)*dt/2, enough to move the weak-gain run's peaks past the benchmark's
golden records, so they stay off the grid until those are re-recorded.

:func:`step` is one RK4 step.  The plant takes the four RK4 stages.  The
weights take the same RK4 step of their linear law in closed form, once
per step: one projection of theta on the step's three basis rows (t,
t+dt/2, t+dt) gives every stage's drift estimate as a scalar recurrence,
and one update forms the new weights.  The step is compiled per (n, mode,
filter update, mu, varpi, lam, dt): :data:`_STEP` unrolled over the n
stages as straight-line Python, with the closed-form coefficients and the
filter decays of :func:`_step_constants` bound in as globals.  The cache
(:func:`_compiled_step`) is keyed by value, and ``run()`` clears it at its
start and compiles once per run.  Every float takes the same operations in
the same order as in the loop step (the oracle ``comprehension_step`` in
the tests), and numpy ops stay numpy ops, as BLAS and pairwise sums add
in another order than a Python loop, so every float is unchanged to the
bit.  The source is compiled under the name
``.../sim.py<step n=3 fuzzy exact>`` and registered in :mod:`linecache`.
The compiled step returns the time inputs at t + dt, and ``run()`` opens
the next step with them wherever (k+1)*dt is the float k*dt + dt.  The two
steppers differ only in how the filters s' = (alpha - s)/lam move:

- exact filter (default): along their closed-form exponential toward the
  virtual control ``alpha`` frozen at the step start.  This removes the
  filter time constant from the step-size limit, but freezing ``alpha``
  caps the observed global order at about 1 (1.06 and 1.19 measured on
  the single-link case).
- ``exact_filter=False``: by the RK4 stages of their law, from the
  ``alpha`` the kernel returns at each stage; it needs dt <= lam_min / 5
  (:func:`check_explicit_step`).

``run()`` is one loop over the n_steps + 1 sample times; sample k opens
step k, and the last, at t_end, is opened, recorded and verified like the
others but takes no step and adds nothing to max|u|.  Each recorded sample
(every ``record_every``-th step start, and t_end) is one row of floats in
one buffer, seen as the array ``Trajectory.data``; the sup norms and the
funnel margin are read from its columns after the run.  ``run()`` never
takes the kernel's diagnostic branch (``signals=True``): a row reads u,
alpha, y_r and eta from the step's own kernel call and its time inputs, and
forms e, z1 and z_i = x_i - s_i by the kernel's own expressions, so each
value is the same float.  :func:`export_trajectory` writes the rows as the
``repr`` of each float, ``,`` between fields and ``\\r\\n`` line ends: the
bytes ``csv.writer`` writes for them.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .controller import ControlMode, ControllerChain, StageGains, compile_function
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
    """Integration settings for one closed-loop run."""

    dt: float
    t_end: float
    x0: tuple
    mode: ControlMode = ControlMode.FUZZY
    record_every: int = 1
    exact_filter: bool = True

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be strictly positive")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be strictly positive")
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")
        step_count(self.t_end, self.dt)
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))


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
    are not exported.  ``breach`` holds the first breach time."""

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
    min_funnel_margin: Optional[float]
    min_margin_time: Optional[float]
    peak_control_time: Optional[float]

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


# One RK4 step of an n-stage chain.  Per RK stage k, x<k>_<j> is plant state
# j, s<k>_<i> filter i, a<k>_<i> the alpha that filter i tracks, d<k>_<j>
# the drive of stage j and k<k>_<j> the plant derivative.  The constants
# are globals: HALF = 0.5*dt, DT = dt, DT6 = dt/6.0, the _step_constants
# coefficients c2_<j>_<m>, c3_<j>_<m>, c4_<j>_<m>, m_<j>_<m> and GROWTH,
# the decays dh<i> and df<i> and the filter time constants lam<i>.
_STEP = """\
def advance(kernel, rhs, time_inputs, bundle, t, start, basis):
    x, s, theta = bundle
    {x1}, = x
    {s1}, = s
    u1, ({a1},), {d1}, _ = start
    {basis} = basis
    tm = t + HALF
    te = t + DT
    mid = time_inputs(tm)
    end = time_inputs(te)
{filters1}
    {k1}, = rhs(x, u1, t)
    x2 = [{x2}]
    u2, {a2}, {d2}, _ = kernel(x2, {s2}, {f2}, mid)
    {k2}, = rhs(x2, u2, tm)
{filters2}
    x3 = [{x3}]
    u3, {a3}, {d3}, _ = kernel(x3, {s3}, {f3}, mid)
    {k3}, = rhs(x3, u3, tm)
{filters3}
    x4 = [{x4}]
    u4, {a4}, {d4}, _ = kernel(x4, {s4}, {f4}, end)
    {k4}, = rhs(x4, u4, te)
{filters4}
    x_new = [{x_new}]
{weights}
    return (x_new, {s_new}, theta), end
"""


def _step_source(n: int, fuzzy: bool, exact_filter: bool) -> str:
    """:data:`_STEP` unrolled over n stages for one mode and filter update."""
    states, filters = range(1, n + 1), range(2, n + 1)

    def each(template, indices=states, sep=", "):
        return sep.join(template.format(i=i) for i in indices)

    def listed(template, indices=states):
        return f"[{each(template, indices)}]"

    def unpacked(template, indices=states):
        return f"({each(template, indices)},)"

    def lines(*templates):
        return "\n".join(each("    " + template, filters, "\n") for template in templates)

    fields = {
        "x1": each("x1_{i}"), "s1": each("s1_{i}", filters), "a1": each("a1_{i}", filters),
        "x2": each("x1_{i} + HALF * k1_{i}"), "x3": each("x1_{i} + HALF * k2_{i}"),
        "x4": each("x1_{i} + DT * k3_{i}"),
        "x_new": each("x1_{i} + DT6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"),
    }
    for k in range(1, 5):
        fields[f"k{k}"] = each(f"k{k}_{{i}}")
        fields[f"d{k}"] = unpacked(f"d{k}_{{i}}") if fuzzy else "_"
        if k > 1:
            fields[f"a{k}"] = "_" if exact_filter else unpacked(f"a{k}_{{i}}", filters)
    if fuzzy:
        fields.update(
            basis=f"rows, _, (g1h, ghh, g14, gh4), (_, {unpacked('ph_{i}')}, {unpacked('p4_{i}')})",
            f2=listed("c2_{i}_0 * ph_{i} + c2_{i}_1 * d1_{i} * g1h"),
            f3=listed("c3_{i}_0 * ph_{i} + c3_{i}_1 * d1_{i} * g1h + c3_{i}_2 * d2_{i} * ghh"),
            f4=listed("c4_{i}_0 * p4_{i} + c4_{i}_1 * d1_{i} * g14 + (c4_{i}_2 * d3_{i} + c4_{i}_3 * d2_{i}) * gh4"),
            weights="    theta = GROWTH * theta + np.array("
            + listed("[m_{i}_0 * d1_{i}, m_{i}_1 * d2_{i} + m_{i}_2 * d3_{i}, m_{i}_3 * d4_{i}]") + ") @ rows",
        )
    else:
        fields.update(basis="_, (_, f2, f4), _, _", f2="f2", f3="f2", f4="f4", weights="")
    if exact_filter:
        # toward the alpha frozen at t: s2 serves RK stages 2 and 3, s4 stage 4 and the step's end
        fields.update(
            filters1=f"    s2 = {listed('a1_{i} + (s1_{i} - a1_{i}) * dh{i}', filters)}\n"
            f"    s4 = {listed('a1_{i} + (s1_{i} - a1_{i}) * df{i}', filters)}",
            filters2="", filters3="", filters4="", s2="s2", s3="s2", s4="s4", s_new="s4",
        )
    else:
        # the RK4 stages of s' = (alpha - s)/lam, from each stage's alpha
        fields.update(
            filters1=lines("ks1_{i} = (a1_{i} - s1_{i}) / lam{i}", "s2_{i} = s1_{i} + HALF * ks1_{i}"),
            filters2=lines("ks2_{i} = (a2_{i} - s2_{i}) / lam{i}", "s3_{i} = s1_{i} + HALF * ks2_{i}"),
            filters3=lines("ks3_{i} = (a3_{i} - s3_{i}) / lam{i}", "s4_{i} = s1_{i} + DT * ks3_{i}"),
            filters4=lines("ks4_{i} = (a4_{i} - s4_{i}) / lam{i}") + "\n    s_new = "
            + listed("s1_{i} + DT6 * (ks1_{i} + 2.0 * ks2_{i} + 2.0 * ks3_{i} + ks4_{i})", filters),
            s2=listed("s2_{i}", filters), s3=listed("s3_{i}", filters), s4=listed("s4_{i}", filters), s_new="s_new",
        )
    return _STEP.format(**fields)


@functools.lru_cache(maxsize=8)
def _compiled_step(n: int, fuzzy: bool, exact_filter: bool, mus: tuple, varpis: tuple, lams: tuple, dt: float):
    """:data:`_STEP` for one chain shape, compiled with its
    :func:`_step_constants` bound in: ``advance(kernel, rhs, time_inputs,
    bundle, t, start, basis)`` returns ``(new_bundle, end)``, ``end`` being
    the time inputs at t + dt.  Cached by value."""
    c2, c3, c4, cmix, growth, half_decay, full_decay = _step_constants(mus, varpis, lams, dt)
    namespace = {"np": np, "HALF": 0.5 * dt, "DT": dt, "DT6": dt / 6.0, "GROWTH": growth}
    for prefix, table in (("c2", c2), ("c3", c3), ("c4", c4), ("m", cmix)):
        for j, coefficients in enumerate(table, start=1):
            namespace.update({f"{prefix}_{j}_{m}": c for m, c in enumerate(coefficients)})
    for i, (lam, dh, df) in enumerate(zip(lams, half_decay, full_decay), start=2):
        namespace.update({f"lam{i}": lam, f"dh{i}": dh, f"df{i}": df})
    filename = f"{__file__}<step n={n} {'fuzzy' if fuzzy else 'approx-free'} {'exact' if exact_filter else 'explicit'}>"
    return compile_function(_step_source(n, fuzzy, exact_filter), filename, namespace)


def _open_step(chain: ControllerChain, bundle, t: float, signals: bool, block, row: int, inputs=None):
    """The kernel at the step start, ``(u, alpha, drives, sig)``, its time
    inputs and what the rest of the step needs: the basis rows b1, bh, b4
    at t, t+dt/2 and t+dt, their energies, and in fuzzy mode their Gram
    products (b1.bh, bh.bh, b1.b4, bh.b4) and the projections
    P = theta.[b1, bh, b4] as a 3 x n list, one list per row (both None
    in approximator-free mode).

    ``block`` is a ``ControllerChain.tabulate_basis`` result whose rows
    ``row .. row+2`` are the step's; this is the step's one read of it.
    ``inputs`` is ``chain.time_inputs(t)`` when the caller has it."""
    x, s, theta = bundle
    basis, energy, cross1, cross2 = block
    rows, energies = basis[row:row + 3], energy[row:row + 3]
    gram = proj = None
    if chain._fuzzy:
        gram = (cross1[row], energy[row + 1], cross2[row], cross1[row + 1])
        proj = (theta @ rows.T).T.tolist()
        basis_in = proj[0]
    else:
        basis_in = energies[0]
    if inputs is None:
        inputs = chain.time_inputs(t)
    return chain.kernel(x, s, basis_in, inputs, signals), inputs, (rows, energies, gram, proj)


def step(
    plant: StrictFeedbackPlant,
    chain: ControllerChain,
    bundle,
    t: float,
    dt: float,
    exact_filter: bool = True,
    opened=None,
):
    """Advance the (x, filters, weights) bundle from t to t+dt by one RK4
    step.

    ``opened`` is ``_open_step`` of (bundle, t) when the caller already has
    it.  By default it is computed here with the stage signals, from one
    ``ControllerChain.tabulate_basis`` call at t, t+dt/2 and t+dt.  Returns
    (new_bundle, start), ``start`` being the kernel output at (bundle, t).
    The plant takes the RK4 stages and the weights the same RK4 step of
    their law in closed form; ``exact_filter`` selects only the filter
    update (see the module docstring).
    """
    if opened is None:
        block = chain.tabulate_basis([t, t + 0.5 * dt, t + dt])
        opened = _open_step(chain, bundle, t, True, block, 0)
    start, _, basis = opened
    advance = _compiled_step(chain.bounds.n, chain._fuzzy, exact_filter, chain._mu, chain._varpi, chain._lam, dt)
    new_bundle, _ = advance(chain.kernel, plant.rhs, chain.time_inputs, bundle, t, start, basis)
    return new_bundle, start


def run(
    plant: StrictFeedbackPlant,
    reference: ReferenceSignal,
    gains: Sequence[StageGains],
    perf: PerfFunction,
    config: SimConfig,
    *,
    kind: TransformKind = TransformKind.SYMMETRIC_TAN,
    sign_smoothing: float = 0.0,
):
    """Integrate the closed loop over [0, t_end] and verify the funnel bounds.

    Returns (Trajectory, VerificationReport).  A funnel breach stops the run
    at the breach time and is reported, not raised; divergence, a non-finite
    plant state or a float overflow in the controller, raises
    :class:`SimulationDivergenceError`.
    """
    n = plant.n
    if len(config.x0) != n:
        raise ValueError(f"x0 must have {n} entries")
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
    # each run compiles its step once, whatever this process ran before,
    # so the calls a run makes do not depend on the process's history
    _compiled_step.cache_clear()

    # one row of floats per recorded sample: the CSV columns, then z
    filters = [f"s{i}" for i in range(2, n + 1)]
    alphas = [f"alpha{i}" for i in range(1, n)]
    norms = [f"theta_norm{i}" for i in range(1, n + 1)] if config.mode is ControlMode.FUZZY else []
    zs = [f"z{i}" for i in range(1, n + 1)]
    names = (
        "t", *(f"x{i}" for i in range(1, n + 1)), "y_r", "e", "arctan_e", "eta", "neg_eta", "u",
        *filters, *alphas, *norms, *zs,
    )
    samples = array("d")

    max_err = 0.0
    max_err_after = 0.0
    max_u = 0.0
    peak_u_t = 0.0
    steady_ok = True
    tan_c = math.tan(perf.c)

    x = list(config.x0)
    try:
        cstate = chain.init_state(x)
    except FunnelBreachError as br:
        traj = Trajectory(names, np.empty((0, len(names))), br.t)
        report = VerificationReport(False, False, abs(br.e), 0.0, 0.0, {}, None, None, None)
        return traj, report
    except OverflowError as exc:
        raise SimulationDivergenceError(0.0) from exc
    s = list(cstate.filter_states)
    if cstate.theta_hat:
        theta = np.array([w.theta_hat for w in cstate.theta_hat])
    else:
        theta = np.zeros((0, 0))

    bundle = (x, s, theta)
    breach = None
    dt = config.dt
    half = 0.5 * dt
    first = -BASIS_BLOCK  # first row of the basis block; sample 0 fills one
    after_T = perf.T
    to_z1 = chain.transform._transform
    record_every, isfinite = config.record_every, math.isfinite
    advance = _compiled_step(n, chain._fuzzy, config.exact_filter, chain._mu, chain._varpi, chain._lam, dt)
    kernel, rhs, time_inputs = chain.kernel, plant.rhs, chain.time_inputs
    inputs = None  # the time inputs at t when the last step's end has them
    # sample k opens step k, which reads rows 2k..2k+2 of the half-step
    # grid; the last sample, at t_end, closes the run
    for k in range(n_steps + 1):
        t = k * dt
        xv, sv, tv = bundle
        closing = k == n_steps
        recorded = closing or k % record_every == 0
        if 2 * k - first >= BASIS_BLOCK:
            first = 2 * k
            block = chain.tabulate_basis([i * half for i in range(first, first + BASIS_BLOCK + 2)])
        try:
            # never the diagnostic branch: a recorded row forms e, z1 and
            # z_i by the kernel's own expressions, the same floats
            start, inputs, basis = _open_step(chain, bundle, t, False, block, 2 * k - first, inputs)
            if recorded:
                y_r, eta = inputs[1], inputs[3]
                e = xv[0] - y_r
                wn = np.sqrt(np.add.reduce(tv * tv, axis=1)).tolist() if tv.size else ()
                samples.extend([
                    t, *xv, y_r, e, math.atan(e), eta, -eta, start[0], *sv, *start[1], *wn,
                    to_z1(e, t, eta), *[xi - si for xi, si in zip(xv[1:], sv)],
                ])
            if not closing:
                new_bundle, end = advance(kernel, rhs, time_inputs, bundle, t, start, basis)
        except FunnelBreachError as br:
            breach = br.t
            break
        except OverflowError as exc:
            raise SimulationDivergenceError(t) from exc
        # streaming verification at the sample
        ae = abs(xv[0] - inputs[1])
        if ae > max_err:
            max_err = ae
        if t >= after_T:
            if ae > max_err_after:
                max_err_after = ae
            if ae >= tan_c:
                steady_ok = False
        if closing:
            break
        au = abs(start[0])
        if au > max_u:
            max_u = au
            peak_u_t = t
        bundle = new_bundle
        if not all(map(isfinite, bundle[0])):
            raise SimulationDivergenceError(t + dt)
        # time_inputs is a pure function of the float, so the step's end
        # serves as the next start wherever (k+1)*dt is the same float
        inputs = end if (k + 1) * dt == end[0] else None

    traj = Trajectory(names, np.frombuffer(samples).reshape(-1, len(names)), breach)
    data = traj.data
    transient_ok = breach is None
    # sup norms over the samples that opened a step: all but the closing one
    opening = data[:-1] if transient_ok else data
    first = names.index("u")
    # max|v| as max(max v, -min v), exact like abs, without an |v| copy
    cols = opening[:, first:]
    peaks = np.maximum(cols.max(axis=0, initial=0.0), -cols.min(axis=0, initial=0.0)).tolist()
    peaks = dict(zip(names[first:], peaks), u=max_u)
    sup = {
        name.replace("_norm", ""): peaks[name]
        for name in (*zs, *filters, *alphas, "u", *norms)
        if peaks[name] > 0.0
    }
    margin_t = margin = None
    if len(data):
        margins = data[:, names.index("eta")] - np.abs(data[:, names.index("arctan_e")])
        i = int(np.argmin(margins))
        margin, margin_t = float(margins[i]), float(data[i, 0])
    report = VerificationReport(
        transient_ok=transient_ok,
        steady_ok=steady_ok and transient_ok,
        max_abs_error=max_err,
        max_abs_error_after_T=max_err_after,
        max_abs_control=max_u,
        signal_sup_norms=sup,
        min_funnel_margin=margin,
        min_margin_time=margin_t,
        peak_control_time=peak_u_t,
    )
    return traj, report


def export_trajectory(traj: Trajectory, path) -> None:
    """Write a run as comma-separated text: a header of column names, then
    one row per recorded sample.  Each field is the ``repr`` of its float,
    fields are joined by ``,`` and every line ends in ``\\r\\n``: the bytes
    ``csv.writer`` writes for these rows, since no name or float repr
    needs quoting."""
    names = traj.names[:traj.names.index("z1")]  # the z columns are not exported
    width, stride = len(names), traj.data.shape[1]
    # a flat view of the C-ordered rows: each line reads its fields from a
    # slice, so no row list or float outlives its line, and the numpy calls
    # do not grow with the rows
    flat = memoryview(np.ascontiguousarray(traj.data, dtype=float).ravel())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        fh.writelines(
            ",".join(map(repr, flat[i:i + width])) + "\r\n" for i in range(0, len(flat), stride)
        )
