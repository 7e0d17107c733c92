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
and one update forms the new weights (see
:func:`_weight_step_coefficients`).  The two steppers differ only in how
the filters s' = (alpha - s)/lam move:

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
funnel margin are read from its columns after the run.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .controller import ControlMode, ControllerChain, StageGains
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


@functools.lru_cache(maxsize=8)
def _weight_step_coefficients(mus: tuple, varpis: tuple, dt: float):
    """Coefficients of one RK4 step of the adaptive law in closed form.

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
    of the terms above, and A as a column.
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
    growth.flags.writeable = False  # shared by every caller of the cache
    return tuple(c2), tuple(c3), tuple(c4), tuple(cmix), growth


def _open_step(chain: ControllerChain, bundle, t: float, signals: bool, block, row: int):
    """The kernel at the step start, ``(u, alpha, drives, sig)``, its time
    inputs and what the rest of the step needs: the basis rows b1, bh, b4
    at t, t+dt/2 and t+dt, their energies, and in fuzzy mode their Gram
    products (b1.bh, bh.bh, b1.b4, bh.b4) and the projections
    P = theta.[b1, bh, b4] as an n x 3 list (both None in approximator-free mode).

    ``block`` is a ``ControllerChain.tabulate_basis`` result whose rows
    ``row .. row+2`` are the step's; this is the step's one read of it."""
    x, s, theta = bundle
    basis, energy, cross1, cross2 = block
    rows, energies = basis[row:row + 3], energy[row:row + 3]
    gram = proj = None
    if chain.mode is ControlMode.FUZZY:
        gram = (cross1[row], energy[row + 1], cross2[row], cross1[row + 1])
        proj = (theta @ rows.T).tolist()
        basis_in = [p[0] for p in proj]
    else:
        basis_in = energies[0]
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
    it, as ``run()`` does from its block of the half-step grid.  By default
    it is computed here with the stage signals, from one
    ``ControllerChain.tabulate_basis`` call at t, t+dt/2 and t+dt.  Returns
    (new_bundle, start), ``start`` being the kernel output at (bundle, t).
    The plant takes the RK4 stages and the weights the same RK4 step of
    their law in closed form; ``exact_filter`` selects only the filter
    update (see the module docstring).
    """
    x, s, theta = bundle
    half = 0.5 * dt
    if opened is None:
        block = chain.tabulate_basis([t, t + half, t + dt])
        opened = _open_step(chain, bundle, t, True, block, 0)
    start, _, (rows, energies, gram, proj) = opened
    u0, a1, d1, _ = start
    kernel, rhs = chain.kernel, plant.rhs
    mid, end = chain.time_inputs(t + half), chain.time_inputs(t + dt)
    lams = [g.lam for g in chain.gains[1:]]
    # the kernel's basis input at RK stages 2..4: the rows' energies in
    # approximator-free mode, the drift estimates theta_k . b in fuzzy mode
    _, f2, f4 = energies
    f3 = f2
    fuzzy = proj is not None
    if fuzzy:
        g1h, ghh, g14, gh4 = gram
        c2, c3, c4, cmix, growth = _weight_step_coefficients(chain._mu, chain._varpi, dt)
    # the filter update, the steppers' one difference: the exponential
    # toward the alpha frozen at t, or RK4 stages from each stage's alpha
    if exact_filter:
        s2 = s3 = [a + (si - a) * math.exp(-0.5 * dt / lam) for a, si, lam in zip(a1, s, lams)]
        s4 = s_new = [a + (si - a) * math.exp(-dt / lam) for a, si, lam in zip(a1, s, lams)]
    else:
        k1s = [(a - si) / lam for a, si, lam in zip(a1, s, lams)]
        s2 = [si + half * ki for si, ki in zip(s, k1s)]

    k1x = rhs(x, u0, t)
    x2 = [xi + half * ki for xi, ki in zip(x, k1x)]
    if fuzzy:
        f2 = [k0 * p[1] + k1 * da * g1h for (k0, k1), p, da in zip(c2, proj, d1)]
    u2, a2, d2, _ = kernel(x2, s2, f2, mid)
    k2x = rhs(x2, u2, mid[0])
    x3 = [xi + half * ki for xi, ki in zip(x, k2x)]
    if not exact_filter:
        k2s = [(a - si) / lam for a, si, lam in zip(a2, s2, lams)]
        s3 = [si + half * ki for si, ki in zip(s, k2s)]
    if fuzzy:
        f3 = [
            k0 * p[1] + k1 * da * g1h + k2 * db * ghh
            for (k0, k1, k2), p, da, db in zip(c3, proj, d1, d2)
        ]
    u3, a3, d3, _ = kernel(x3, s3, f3, mid)
    k3x = rhs(x3, u3, mid[0])
    x4 = [xi + dt * ki for xi, ki in zip(x, k3x)]
    if not exact_filter:
        k3s = [(a - si) / lam for a, si, lam in zip(a3, s3, lams)]
        s4 = [si + dt * ki for si, ki in zip(s, k3s)]
    if fuzzy:
        f4 = [
            k0 * p[2] + k1 * da * g14 + (k2 * dc + k3 * db) * gh4
            for (k0, k1, k2, k3), p, da, db, dc in zip(c4, proj, d1, d2, d3)
        ]
    u4, a4, d4, _ = kernel(x4, s4, f4, end)
    k4x = rhs(x4, u4, end[0])
    x_new = [
        xi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1x, k2x, k3x, k4x)
    ]
    if not exact_filter:
        k4s = [(a - si) / lam for a, si, lam in zip(a4, s4, lams)]
        s_new = [
            si + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for si, a, b, c, d in zip(s, k1s, k2s, k3s, k4s)
        ]
    if fuzzy:
        mix = [
            [k0 * da, k1 * db + k2 * dc, k3 * dd]
            for (k0, k1, k2, k3), da, db, dc, dd in zip(cmix, d1, d2, d3, d4)
        ]
        theta = growth * theta + np.array(mix) @ rows
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
    # sample k opens step k, which reads rows 2k..2k+2 of the half-step
    # grid; the last sample, at t_end, closes the run
    for k in range(n_steps + 1):
        t = k * dt
        xv, sv, tv = bundle
        closing = k == n_steps
        recorded = closing or k % config.record_every == 0
        if 2 * k - first >= BASIS_BLOCK:
            first = 2 * k
            block = chain.tabulate_basis([i * half for i in range(first, first + BASIS_BLOCK + 2)])
        try:
            # full diagnostic evaluation only at recorded samples; the step
            # reuses it as its first stage
            opened = _open_step(chain, bundle, t, recorded, block, 2 * k - first)
            start, inputs, _ = opened
            if recorded:
                sig = start[3]
                e, eta = sig.e, sig.eta
                wn = np.linalg.norm(tv, axis=1).tolist() if tv.size else ()
                samples.extend(
                    [t, *xv, sig.y_r, e, math.atan(e), eta, -eta, sig.u, *sv, *sig.alpha, *wn, *sig.z])
            if not closing:
                new_bundle, _ = step(plant, chain, bundle, t, dt, config.exact_filter, opened)
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
        if not all(math.isfinite(v) for v in bundle[0]):
            raise SimulationDivergenceError(t + dt)

    traj = Trajectory(names, np.frombuffer(samples).reshape(-1, len(names)), breach)
    data = traj.data
    transient_ok = breach is None
    # sup norms over the samples that opened a step: all but the closing one
    opening = data[:-1] if transient_ok else data
    first = names.index("u")
    peaks = np.abs(opening[:, first:]).max(axis=0, initial=0.0).tolist()
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
    """Write a run as delimiter-separated text, one row per recorded sample."""
    width = traj.names.index("z1")  # the z columns are not exported
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(traj.names[:width])
        # in blocks, to bound the row lists held at once
        for start in range(0, len(traj.data), 4096):
            writer.writerows(traj.data[start:start + 4096, :width].tolist())
