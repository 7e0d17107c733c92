"""Fixed-step closed-loop integration and performance-bound verification.

The augmented state couples the plant, the first-order filters of the
control chain, and (in fuzzy mode) the adaptive weights.  Each step
evaluates the plant's one right-hand side (``plant.rhs``) and the
controller's one kernel (``ControllerChain.kernel``), which takes the
stage drift estimates theta_i . basis as floats and returns the drives of
the adaptive law.  Two steppers:

- exact filter (default): RK4 in x, with the filters moved along their
  closed-form exponential toward the virtual control ``alpha`` frozen at
  the step start.  The weights take the same RK4 step of their linear law
  in closed form, once per step: one projection of theta on the step's
  three basis rows (t, t+dt/2, t+dt) gives every stage's drift estimate as
  a scalar recurrence, and one update forms the new weights (see
  :func:`_weight_step_coefficients`).  The filter update removes the
  filter time constant from the step-size limit, but freezing ``alpha``
  caps the observed global order at about 1 (1.06 and 1.19 measured on
  the single-link case).
- ``exact_filter=False``: classical RK4 through :func:`rk4_step` on the
  flattened (x, filters, weights) state, the weight derivatives taken from
  ``ControllerChain.weight_derivative``; it needs dt <= lam_min / 5
  (:func:`check_explicit_step`).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .controller import BASIS_BLOCK, ControlMode, ControllerChain, StageGains
from .perf import ErrorTransform, FunnelBreachError, PerfFunction, TransformKind
from .plants import ReferenceSignal, StrictFeedbackPlant

__all__ = [
    "SimConfig",
    "Trajectory",
    "VerificationReport",
    "SimulationDivergenceError",
    "step_count",
    "check_explicit_step",
    "rk4_step",
    "step",
    "run",
    "convergence_check",
    "export_trajectory",
]

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
    n = round(ratio)
    if n < 1 or abs(ratio - n) > _STEP_COUNT_RTOL * ratio:
        raise ValueError(f"t_end={t_end!r} is not a whole multiple of dt={dt!r}")
    return n


@dataclass
class Trajectory:
    """Decimated record of one run; ``breach`` holds the first breach time."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    signals: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    filters: list = field(default_factory=list)
    theta_norms: list = field(default_factory=list)
    breach: Optional[float] = None


@dataclass
class VerificationReport:
    """Outcome of the two funnel bounds plus boundedness diagnostics."""

    transient_ok: bool
    steady_ok: bool
    max_abs_error: float
    max_abs_error_after_T: float
    max_abs_control: float
    signal_sup_norms: dict

    def as_dict(self) -> dict:
        return {
            "transient_ok": self.transient_ok,
            "steady_ok": self.steady_ok,
            "max_abs_error": self.max_abs_error,
            "max_abs_error_after_T": self.max_abs_error_after_T,
            "max_abs_control": self.max_abs_control,
            "signal_sup_norms": dict(self.signal_sup_norms),
        }


def rk4_step(f, y: Sequence[float], t: float, dt: float) -> list:
    """One classical RK4 step of ydot = f(t, y) for a flat float state."""
    k1 = f(t, y)
    y2 = [yi + 0.5 * dt * ki for yi, ki in zip(y, k1)]
    k2 = f(t + 0.5 * dt, y2)
    y3 = [yi + 0.5 * dt * ki for yi, ki in zip(y, k2)]
    k3 = f(t + 0.5 * dt, y3)
    y4 = [yi + dt * ki for yi, ki in zip(y, k3)]
    k4 = f(t + dt, y4)
    return [
        yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]


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


def _open_step(chain: ControllerChain, bundle, t: float, dt: float, exact_filter: bool, signals: bool):
    """The kernel at the step start, ``(u, alpha, drives, sig)``, and what
    the closed-form weight step needs: the basis rows, their Gram products
    and the projections P = theta.[b1, bh, b4] as an n x 3 list (None in
    approximator-free mode and on the explicit path)."""
    x, s, theta = bundle
    if not exact_filter or chain.mode is not ControlMode.FUZZY:
        return chain.kernel(x, s, _drifts(chain, theta, t), t, signals), None
    rows, *gram = chain.step_basis(t, dt)
    proj = (theta @ rows.T).tolist()
    return chain.kernel(x, s, [p[0] for p in proj], t, signals), (rows, gram, proj)


def _drifts(chain: ControllerChain, theta, t: float):
    """Stage drift estimates theta_i . basis(t); None in approximator-free mode."""
    if chain.mode is not ControlMode.FUZZY:
        return None
    return (theta @ chain.basis_at(t)).tolist()


def step(
    plant: StrictFeedbackPlant,
    chain: ControllerChain,
    bundle,
    t: float,
    dt: float,
    exact_filter: bool = True,
    opened=None,
):
    """Advance the (x, filters, weights) bundle from t to t+dt.

    ``opened`` is ``_open_step`` of (bundle, t) when the caller already has
    it; by default it is computed here with the stage signals.  Returns
    (new_bundle, start), ``start`` being the kernel output at (bundle, t).
    With ``exact_filter`` the plant takes an RK4 step, the weights take the
    same RK4 step of their law in closed form (see
    :func:`_weight_step_coefficients`) and the filters follow their
    closed-form exponential toward the virtual control frozen at the step
    start; otherwise the whole flattened (x, filters, weights) state takes
    one :func:`rk4_step`.
    """
    x, s, theta = bundle
    if opened is None:
        opened = _open_step(chain, bundle, t, dt, exact_filter, True)
    start, proj = opened
    u0, alphas, d1, _ = start
    kernel, rhs = chain.kernel, plant.rhs
    lams = [g.lam for g in chain.gains[1:]]

    if not exact_filter:
        n, n_f = len(x), len(s)
        fuzzy = chain.mode is ControlMode.FUZZY

        def f(tt, y):
            basis = chain.basis_at(tt) if fuzzy else None
            if y is flat:  # the step start, already evaluated
                xv, sv, tv, (u, alpha, drives, _) = x, s, theta, start
            else:
                xv, sv = y[:n], y[n:n + n_f]
                tv = np.reshape(y[n + n_f:], theta.shape)
                drifts = (tv @ basis).tolist() if fuzzy else None
                u, alpha, drives, _ = kernel(xv, sv, drifts, tt)
            s_dot = [(a - si) / lam for a, si, lam in zip(alpha, sv, lams)]
            kt = chain.weight_derivative(tv, drives, basis).ravel().tolist() if fuzzy else []
            return rhs(xv, u, tt) + s_dot + kt

        flat = list(x) + list(s) + theta.ravel().tolist()
        y = rk4_step(f, flat, t, dt)
        return (y[:n], y[n:n + n_f], np.reshape(y[n + n_f:], theta.shape)), start

    s_half = [a + (si - a) * math.exp(-0.5 * dt / lam) for a, si, lam in zip(alphas, s, lams)]
    s_full = [a + (si - a) * math.exp(-dt / lam) for a, si, lam in zip(alphas, s, lams)]
    half = 0.5 * dt
    # drift estimates theta_k . b of RK stages 2..4 (None without weights)
    f2 = f3 = f4 = None
    closed = proj is not None
    if closed:
        rows, (g1h, ghh, g14, gh4), P = proj
        c2, c3, c4, cmix, growth = _weight_step_coefficients(chain._mu, chain._varpi, dt)

    k1x = rhs(x, u0, t)
    x2 = [xi + half * ki for xi, ki in zip(x, k1x)]
    if closed:
        f2 = [k0 * p[1] + k1 * da * g1h for (k0, k1), p, da in zip(c2, P, d1)]
    u2, _, d2, _ = kernel(x2, s_half, f2, t + half)
    k2x = rhs(x2, u2, t + half)
    x3 = [xi + half * ki for xi, ki in zip(x, k2x)]
    if closed:
        f3 = [
            k0 * p[1] + k1 * da * g1h + k2 * db * ghh
            for (k0, k1, k2), p, da, db in zip(c3, P, d1, d2)
        ]
    u3, _, d3, _ = kernel(x3, s_half, f3, t + half)
    k3x = rhs(x3, u3, t + half)
    x4 = [xi + dt * ki for xi, ki in zip(x, k3x)]
    if closed:
        f4 = [
            k0 * p[2] + k1 * da * g14 + (k2 * dc + k3 * db) * gh4
            for (k0, k1, k2, k3), p, da, db, dc in zip(c4, P, d1, d2, d3)
        ]
    u4, _, d4, _ = kernel(x4, s_full, f4, t + dt)
    k4x = rhs(x4, u4, t + dt)
    x_new = [
        xi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1x, k2x, k3x, k4x)
    ]
    if closed:
        mix = [
            [k0 * da, k1 * db + k2 * dc, k3 * dd]
            for (k0, k1, k2, k3), da, db, dc, dd in zip(cmix, d1, d2, d3, d4)
        ]
        theta = growth * theta + np.array(mix) @ rows
    return (x_new, s_full, theta), start


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
    at the breach time and is reported, not raised; divergence raises
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
    # the integrator only queries the basis on the half-step grid
    chain.tabulate_basis(0.5 * config.dt, 0, BASIS_BLOCK)

    traj = Trajectory()
    sup: dict = {}

    def bump(key, value):
        v = abs(value)
        if v > sup.get(key, 0.0):
            sup[key] = v

    max_err = 0.0
    max_err_after = 0.0
    max_u = 0.0
    steady_ok = True
    tan_c = math.tan(perf.c)

    x = list(config.x0)
    try:
        cstate = chain.init_state(x)
    except FunnelBreachError as br:
        traj.breach = br.t
        report = VerificationReport(False, False, abs(br.e), 0.0, 0.0, {})
        return traj, report
    s = list(cstate.filter_states)
    if cstate.theta_hat:
        theta = np.array([w.theta_hat for w in cstate.theta_hat])
    else:
        theta = np.zeros((0, 0))

    bundle = (x, s, theta)
    t = 0.0
    breach = None

    def record(tt, sig, xv, sv, tv):
        traj.times.append(tt)
        traj.states.append(tuple(xv))
        traj.signals.append(sig)
        traj.eta.append(sig.eta)
        traj.filters.append(tuple(sv))
        traj.theta_norms.append(tuple(np.linalg.norm(tv, axis=1).tolist()) if tv.size else ())

    dt = config.dt
    ref_value = reference.value
    after_T = perf.T
    for k in range(n_steps):
        t = k * dt
        xv, sv, tv = bundle
        recorded = k % config.record_every == 0
        try:
            # full diagnostic evaluation only at recorded samples; the step
            # reuses it as its first stage
            opened = _open_step(chain, bundle, t, dt, config.exact_filter, recorded)
            start = opened[0]
            if recorded:
                sig = start[3]
                record(t, sig, xv, sv, tv)
                for j, zj in enumerate(sig.z, start=1):
                    bump(f"z{j}", zj)
                for j, sj in enumerate(sv, start=2):
                    bump(f"s{j}", sj)
                for j, aj in enumerate(sig.alpha, start=1):
                    bump(f"alpha{j}", aj)
                for j, nt in enumerate(traj.theta_norms[-1], start=1):
                    bump(f"theta{j}", nt)
            new_bundle, _ = step(plant, chain, bundle, t, dt, config.exact_filter, opened)
        except FunnelBreachError as br:
            breach = br.t
            break
        u0 = start[0]
        # streaming verification at the sample that opened this step
        ae = abs(xv[0] - ref_value(t))
        if ae > max_err:
            max_err = ae
        if t >= after_T:
            if ae > max_err_after:
                max_err_after = ae
            if ae >= tan_c:
                steady_ok = False
        au = abs(u0)
        if au > max_u:
            max_u = au
        bump("u", u0)
        bundle = new_bundle
        if not all(math.isfinite(v) for v in bundle[0]):
            raise SimulationDivergenceError(t + dt)

    if breach is None:
        # closing sample at t_end
        t_final = n_steps * config.dt
        try:
            xv, sv, tv = bundle
            sig = chain.kernel(xv, sv, _drifts(chain, tv, t_final), t_final, signals=True)[3]
            ae = abs(sig.e)
            max_err = max(max_err, ae)
            if t_final >= perf.T:
                max_err_after = max(max_err_after, ae)
                if ae >= tan_c:
                    steady_ok = False
            record(t_final, sig, xv, sv, tv)
        except FunnelBreachError as br:
            breach = br.t

    traj.breach = breach
    transient_ok = breach is None
    report = VerificationReport(
        transient_ok=transient_ok,
        steady_ok=steady_ok and transient_ok,
        max_abs_error=max_err,
        max_abs_error_after_T=max_err_after,
        max_abs_control=max_u,
        signal_sup_norms=sup,
    )
    return traj, report


def convergence_check(report_a: VerificationReport, report_b: VerificationReport) -> float:
    """Relative difference of the peak tracking error between two runs."""
    a, b = report_a.max_abs_error, report_b.max_abs_error
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def export_trajectory(traj: Trajectory, n: int, path) -> None:
    """Write a run as delimiter-separated text, one row per recorded sample."""
    n_theta = len(traj.theta_norms[0]) if traj.theta_norms else 0
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + ["y_r", "e", "arctan_e", "eta", "neg_eta", "u"]
        + [f"s{i}" for i in range(2, n + 1)]
        + [f"alpha{i}" for i in range(1, n)]
        + [f"theta_norm{i}" for i in range(1, n_theta + 1)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, x, sig, eta, s, tn in zip(
            traj.times, traj.states, traj.signals, traj.eta, traj.filters, traj.theta_norms
        ):
            writer.writerow(
                [t, *x, sig.y_r, sig.e, math.atan(sig.e), eta, -eta, sig.u, *s, *sig.alpha, *tn]
            )
