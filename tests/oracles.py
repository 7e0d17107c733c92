"""Test oracles of the control kernel.

``indexed_kernel`` is the chain's kernel written with explicit stage
indices, each constant read where it is used; it returns every stage
signal, where the compiled kernel returns only ``(u, alpha, drives)``.
The stage-formula tests check the oracle's signals against the paper's
formulas, and the oracle equals the compiled kernel float for float.
``zeta`` is the oracle's energy-slope factor, the kernel's ``zt<i>``.
``oracle_run`` is ``sim.run`` rebuilt sample by sample from the plain
``sim.step`` and the oracle, which share no text with ``run()``'s
generated loop.

``RHS``, ``REFERENCES`` and ``envelope_method`` are the built-in plants'
right-hand sides, their references and the envelope as they were
hand-written before each became one source text; the compiled texts
equal them float for float.  ``reference_derivative`` compiles a reference's
derivative text, which the package only inlines.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from funneldsc import codegen, plants
from funneldsc.controller import ControlMode, ControllerChain, StageGains
from funneldsc.perf import _POLE_GUARD, PHI_FLOOR, ErrorTransform, FunnelBreachError, PerfFunction
from funneldsc.plants import EM_B, EM_M, EM_N, PlantBounds, ReferenceSignal
from funneldsc.sim import VerificationReport, step, step_count

# sin(t) and its derivative, a reference whose every value differs from the built-in ones
SINE = ReferenceSignal("sin(t)", "cos(t)", {"sin": math.sin, "cos": math.cos})


def electromechanical_rhs(x, u, t):
    n_over_m = EM_N / EM_M
    b_over_m = EM_B / EM_M
    kb_ml = plants._KB / (EM_M * plants._LA)
    r_ml = plants._RA / (EM_M * plants._LA)
    return [
        x[1] + 2.0 * math.sin(5.0 * t),
        -n_over_m * math.sin(x[0]) - b_over_m * x[1] + x[2] + 5.0 * math.cos(2.0 * t),
        -kb_ml * x[1] - r_ml * x[2] + u + 10.0 * math.sin(t),
    ]


def single_link_rhs(x, u, t):
    return [
        x[1],
        -(plants._SL_B * x[1] + plants._SL_M * plants._G * plants._SL_L * math.sin(x[0])) / plants._SL_I
        + (1.0 / plants._SL_I) * u
        + 10.0 * math.cos(5.0 * t),
    ]


def reference_derivative(reference: ReferenceSignal):
    """``derivative(t)``: ``reference.derivative_text`` compiled by
    ``codegen.function``, as ``reference.value`` is."""
    return codegen.function("derivative", "t", "", reference.derivative_text.strip(), "<reference derivative>",
                            reference.names)


RHS = {"electromechanical": electromechanical_rhs, "single-link": single_link_rhs}
# (value, derivative) of each built-in plant's reference
REFERENCES = {
    "electromechanical": (lambda t: math.sin(10.0 * t) + 2.0, lambda t: 10.0 * math.cos(10.0 * t)),
    "single-link": (lambda t: math.pi + 2.0 * math.sin(10.0 * t), lambda t: 20.0 * math.cos(10.0 * t)),
}


def envelope_method(p: PerfFunction, t: float) -> tuple:
    """``PerfFunction.envelope`` as the method it was, on the constants
    its construction prepared."""
    guard, T, neg_b, h, prefactor, h1 = (
        p.T - _POLE_GUARD * p.T, p.T, -p.b, p.h, -p.a * p.b * p.h * p.T**p.h, p.h + 1.0)
    if t >= guard:
        return p.c, 0.0
    rem = T - t
    decay = math.exp(neg_b * (T / rem) ** h)
    if decay == 0.0:
        return p.c, 0.0
    return p.a * decay + p.c, prefactor / rem**h1 * decay


class Signals(NamedTuple):
    """One chain evaluation.  The first three fields are the kernel's
    output.  Lists are stage-indexed from each signal's first stage:
    ``z[0]`` and ``beta[0]`` belong to stage 1, ``r[0]``, ``gamma[0]``,
    ``xi[0]`` and ``zeta_vals[0]`` to stage 2, and ``alpha[0]`` is the
    first virtual control."""

    u: float
    alpha: list
    drives: Optional[list]
    z: list
    beta: list
    chi: list
    gamma: list
    xi: list
    zeta_vals: list
    r: list
    e: float
    eta: float
    psi: float
    varphi: float


def zeta(z: float, varrho: float, smoothing: float = 0.0) -> float:
    """Energy-slope factor 1/(1+z^2) + varrho*sign(z) with sign(0)=0.

    ``smoothing > 0`` replaces sign(z) by tanh(z/smoothing).  With
    varrho > 1 the result is never zero.
    """
    if smoothing > 0.0:
        s = math.tanh(z / smoothing)
    else:
        s = 0.0 if z == 0.0 else math.copysign(1.0, z)
    return 1.0 / (1.0 + z * z) + varrho * s


def distinct_chain(n, mode, smoothing):
    """A chain of order n on hand-built bounds whose every gain, bound and
    rate differs from stage to stage and from the other constants."""
    bounds = PlantBounds(
        n=n,
        gain_lower=(0.5, 0.7, 0.9, 1.1)[:n],
        gain_upper=(2.0, 3.0, 4.5, 6.0)[:n],
        lipschitz_rate=(1.3, 0.8, 2.2, 1.7)[:n],
    )
    gains = [
        StageGains(
            delta=0.3 + 0.11 * k, sigma=0.5 + 0.07 * k, varpi=2.0 + 0.3 * k, mu=1.0 + k,
            rho=0.2 + 0.05 * k, tau=0.4 + 0.03 * k, varrho=1.5 + 0.1 * k, lam=0.01 * (k + 1),
        )
        for k in range(1, n + 1)
    ]
    perf = PerfFunction(b=0.4, c=0.05, h=1.0, T=0.5)
    return ControllerChain(bounds, gains, ErrorTransform(perf=perf), SINE, mode, smoothing)


def indexed_kernel(chain, x, s, drifts, inputs) -> Signals:
    """The kernel written with explicit stage indices, each constant read
    where it is used, returning every stage signal."""
    n, gains, smoothing = chain.bounds.n, chain.gains, chain.sign_smoothing
    g_lo, g_hi = chain.bounds.gain_lower, chain.bounds.gain_upper
    rates = chain.bounds.lipschitz_rate
    fuzzy = chain.mode is ControlMode.FUZZY
    t, y_r, dy_r, eta, eta_dot = inputs
    e = x[0] - y_r
    z1 = math.tan(math.pi / 2.0 * math.atan(e) / eta)
    psi = math.pi * (1.0 + z1 * z1) / (2.0 * eta)
    cphi = math.cos(2.0 / math.pi * eta * math.atan(z1))
    phi = max(cphi * cphi, PHI_FLOOR)
    w = z1 * phi * psi
    drift = drifts[0] if fuzzy else w * drifts
    beta1 = drift - dy_r - 2.0 / (math.pi * phi) * eta_dot * math.atan(z1)
    chi1 = rates[0] * abs(e)
    alpha = [
        -w * beta1 * beta1 / (g_lo[0] * math.sqrt((w * beta1) ** 2 + gains[0].delta ** 2))
        - w * chi1 * chi1 / (g_lo[0] * math.sqrt((w * chi1) ** 2 + gains[0].sigma ** 2))
        - w / g_lo[0]
        - gains[0].varpi * z1 / (2.0 * g_lo[0] * phi * psi)
    ]
    z, beta, chi, gamma, xi, zeta_vals, r = [z1], [beta1], [chi1], [], [], [], []
    for i in range(2, n + 1):
        g = gains[i - 1]
        z.append(x[i - 1] - s[i - 2])
        r.append(s[i - 2] - alpha[i - 2])
        zt = zeta(z[i - 1], g.varrho, smoothing)
        zeta_vals.append(zt)
        drift = drifts[i - 1] if fuzzy else zt * drifts
        beta.append(drift - (alpha[i - 2] - s[i - 2]) * (1.0 / g.lam))
        dev2 = 0.0
        for j in range(i):
            dev2 += (x[j] - y_r) * (x[j] - y_r)
        chi.append(rates[i - 1] * math.sqrt(dev2))
        coupling = g_hi[0] * phi * psi * abs(z1) if i == 2 else g_hi[i - 2] * abs(zeta_vals[i - 3])
        gamma.append(coupling * abs(z[i - 1]) / zt)
        xi.append(coupling * abs(r[i - 2]) / zt)
        alpha.append(-(
            zt * beta[i - 1] * beta[i - 1] / (g_lo[i - 1] * math.sqrt((zt * beta[i - 1]) ** 2 + g.delta ** 2))
            + zt * chi[i - 1] * chi[i - 1] / (g_lo[i - 1] * math.sqrt((zt * chi[i - 1]) ** 2 + g.sigma ** 2))
            + zt * gamma[i - 2] * gamma[i - 2] / (g_lo[i - 1] * math.sqrt((zt * gamma[i - 2]) ** 2 + g.rho ** 2))
            + zt * xi[i - 2] * xi[i - 2] / (g_lo[i - 1] * math.sqrt((zt * gamma[i - 2]) ** 2 + g.tau ** 2))
            + g.varpi * (math.atan(z[i - 1]) + g.varrho * abs(z[i - 1])) / (g_lo[i - 1] * zt)
            + zt / g_lo[i - 1]
        ))
    drives = [w, *zeta_vals] if fuzzy else None
    return Signals(alpha[-1], alpha[:-1], drives, z, beta, chi, gamma, xi, zeta_vals, r, e, eta, psi, phi)


def oracle_at(chain, x, state, t) -> Signals:
    """The oracle at plant state ``x``, controller state ``state`` and
    time t, given the basis input that ``ControllerChain.evaluate`` gives
    the kernel: the projections theta_i . basis(t) in fuzzy mode, the
    energy basis(t) . basis(t) otherwise.  Asserts that the compiled
    kernel returns the oracle's ``(u, alpha, drives)``."""
    (basis,), (energy,), _, _ = chain.tabulate_basis([t])
    if chain.mode is ControlMode.FUZZY:
        drifts = (np.array([w.theta_hat for w in state.theta_hat]) @ basis).tolist()
    else:
        drifts = energy
    inputs = chain.time_inputs(t)
    sig = indexed_kernel(chain, x, state.filter_states, drifts, inputs)
    assert chain.kernel(x, state.filter_states, drifts, inputs) == sig[:3]
    return sig


def settled_filters(chain, x0) -> list:
    """The filter states at t = 0 settled front to back on the oracle: the
    filter of stage k + 2 takes alpha_(k+1) of the filters settled before
    it.  The basis input is that of zero weights (0.0 per stage) in fuzzy
    mode and the regressor energy at t = 0 in approximator-free mode."""
    n = chain.bounds.n
    if chain.mode is ControlMode.FUZZY:
        drifts = [0.0] * n
    else:
        basis = chain.grid.basis(chain.reference.value(0.0))
        drifts = float((basis * basis).sum())
    s, inputs = list(x0[1:]), chain.time_inputs(0.0)
    for k in range(n - 1):
        s[k] = indexed_kernel(chain, x0, s, drifts, inputs).alpha[k]
    return s


def oracle_run(plant, chain, config):
    """``sim.run`` rebuilt from the plain ``sim.step`` and the indexed
    oracle, sample by sample: ``(rows, breach, report, signals)``.

    ``rows`` are the recorded rows in ``run()``'s column order, built from
    the oracle's signals at each step start, and ``signals`` the oracle's
    :class:`Signals` and time inputs of each recorded row.  The report is
    streamed and read from the rows as ``run()`` documents it: a breach
    raised at an RK stage state skips that step's max|e| and max|u|.
    ``chain`` must be the chain ``run()`` builds for ``config``."""
    n, dt, fuzzy = chain.bounds.n, config.dt, chain.mode is ControlMode.FUZZY
    perf, half = chain.transform.perf, 0.5 * dt
    n_steps = step_count(config.t_end, dt)
    tabulate = chain.tabulate_basis
    state = chain.init_state(list(config.x0))
    theta = np.array([w.theta_hat for w in state.theta_hat]) if fuzzy else np.zeros((0, 0))
    bundle = (list(config.x0), list(state.filter_states), theta)
    rows, signals, breach = [], [], None
    max_err = max_after = max_u = peak_t = 0.0
    steady = True
    try:
        for k in range(n_steps + 1):
            t = k * dt
            # run() reads step k's basis rows at the half-step grid times
            # 2k*dt/2 .. (2k+2)*dt/2; the standalone step's t + dt/2 and
            # t + dt differ from them by an ulp at some k
            grid = [i * half for i in range(2 * k, 2 * k + 3)]
            chain.tabulate_basis = lambda times, grid=grid: tabulate(grid)
            x, s, theta = bundle
            basis, energies, _, _ = tabulate(grid)
            drifts = np.dot(basis, theta.T).tolist()[0] if fuzzy else energies[0]
            inputs = chain.time_inputs(t)
            try:
                sig = indexed_kernel(chain, x, s, drifts, inputs)
                if k == n_steps or k % config.record_every == 0:
                    norms = np.sqrt(np.add.reduce(theta * theta, axis=1)).tolist() if fuzzy else []
                    rows.append([
                        t, *x, inputs[1], sig.e, math.atan(sig.e), sig.eta, -sig.eta, sig.u,
                        *s, *sig.alpha, *norms, *sig.z,
                    ])
                    signals.append((sig, inputs))
                if k < n_steps:
                    new_bundle, start = step(plant, chain, bundle, t, dt, config.exact_filter)
                    assert start == sig[:3]
            except FunnelBreachError as br:
                breach = br.t
                break
            ae = abs(sig.e)
            if ae > max_err:
                max_err = ae
            if t >= perf.T:
                if ae > max_after:
                    max_after = ae
                if ae >= math.tan(perf.c):
                    steady = False
            if k == n_steps:
                break
            if abs(sig.u) > max_u:
                max_u, peak_t = abs(sig.u), t
            bundle = new_bundle
    finally:
        del chain.tabulate_basis

    filters = [f"s{i}" for i in range(2, n + 1)]
    alphas = [f"alpha{i}" for i in range(1, n)]
    norms = [f"theta_norm{i}" for i in range(1, n + 1)] if fuzzy else []
    zs = [f"z{i}" for i in range(1, n + 1)]
    names = (
        "t", *(f"x{i}" for i in range(1, n + 1)), "y_r", "e", "arctan_e", "eta", "neg_eta", "u",
        *filters, *alphas, *norms, *zs,
    )
    # the sup norms skip the closing sample, which opens no step
    opening = dict(zip(names, zip(*(rows if breach is not None else rows[:-1]))))
    peaks = {name: max(map(abs, opening.get(name, ())), default=0.0) for name in names}
    peaks["u"] = max_u
    sup = {name.replace("_norm", ""): peaks[name] for name in (*zs, *filters, *alphas, "u", *norms) if peaks[name] > 0.0}
    margins = [row[names.index("eta")] - abs(row[names.index("arctan_e")]) for row in rows]
    i = margins.index(min(margins))
    report = VerificationReport(
        transient_ok=breach is None, steady_ok=steady and breach is None,
        max_abs_error=max_err, max_abs_error_after_T=max_after, max_abs_control=max_u,
        signal_sup_norms=sup, min_funnel_margin=margins[i], min_margin_time=rows[i][0], peak_control_time=peak_t,
    )
    return rows, breach, report, signals
