"""Dynamic-surface control chain with prescribed-time funnel feedback.

Stage 1 shapes the transformed tracking error through the funnel
auxiliaries; stages 2..n track the filtered virtual controls through
first-order filters, using saturated robust terms instead of derivatives of
the virtual controllers.  Two modes are supported: an adaptive fuzzy mode
that estimates the unknown drift online, and an approximator-free mode that
replaces the estimate with a regressor-energy damping term.

Inputs: a :class:`ControllerChain` takes the plant's bounds, one
:class:`StageGains` per stage, the error transformation, the reference,
the mode and the sign form (``sign_smoothing``).  Outputs: its ``kernel``,
the same statements for ``sim.run``'s loop to inline at every RK stage
(:meth:`~ControllerChain.inline_kernel`), and its inputs of time,
``time_inputs(t)`` and :func:`inline_time_inputs`.  What is identical, and
why: the chain builds its kernel text (:data:`_KERNEL_BODY` over its n
stages) once, at construction, and both compiles and inlines that text, so
the kernel and each inlined copy take the same float operations in the
same order; the tests' indexed oracle gives the same floats.  The squared
guards stay ``** 2``: pow raises OverflowError where ``*`` gives inf, and
v ** 2 != v * v for some v.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .codegen import function, inline
from .fuzzy import AdaptiveWeights, GaussianGrid
from .perf import _HALF_PI, PHI_FLOOR, ErrorTransform, FunnelBreachError, PerfFunction
from .plants import PlantBounds, ReferenceSignal

__all__ = [
    "ControlMode",
    "StageGains",
    "ControllerState",
    "ControllerChain",
]


class ControlMode(enum.Enum):
    FUZZY = "fuzzy"
    APPROX_FREE = "approx-free"


@dataclass(frozen=True)
class StageGains:
    """Tuning constants for one controller stage.

    ``rho``, ``tau``, ``varrho`` and ``lam`` apply to stages >= 2 only
    (coupling guards, energy slope, filter time constant).
    """

    delta: float
    sigma: float
    varpi: float
    mu: float
    rho: Optional[float] = None
    tau: Optional[float] = None
    varrho: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self):
        for name in ("delta", "sigma", "varpi", "mu", "rho", "tau", "varrho", "lam"):
            v = getattr(self, name)
            if v is None and name in ("rho", "tau", "varrho", "lam"):
                continue
            floor, rule = (1.0, "exceed 1") if name == "varrho" else (0.0, "be strictly positive")
            # the chain squares the gains and inverts lam once at construction;
            # a square that underflows to 0 would divide by zero in the kernel,
            # and float() of an int beyond the floats raises OverflowError
            also = "squared and inverted" if name == "lam" else "squared"
            if not (floor < v <= sys.float_info.max and 0.0 < float(v) * v < math.inf
                    and (name != "lam" or math.isfinite(1.0 / v))):
                raise ValueError(f"StageGains.{name} must {rule} and be finite, also {also}, got {v!r}")


@dataclass
class ControllerState:
    """Mutable closed-loop controller memory: filter states and weights."""

    theta_hat: list
    filter_states: list


# The kernel's names of its time inputs: the time, y_r, dy_r, eta, eta_dot.
_TIME_INPUTS = ("t", "y_r", "dy_r", "eta_v", "eta_d")

# The kernel's statements: {stages} holds one _KERNEL_STAGE per stage
# 2..n.  Stage i's constants are the globals lo<i>, hi<i>, rate<i>,
# delta2_<i>, sigma2_<i>, varpi<i> and, for i >= 2, rho2_<i>, tau2_<i>,
# varrho<i> and invlam<i> (see ControllerChain._kernel_text).
_KERNEL_BODY = '''\
e = x1 - y_r
atan_e = atan(e)
if abs(atan_e) >= eta_v:
    raise FunnelBreachError(t, e, eta_v)
z1 = tan(HALF_PI * atan_e / eta_v)
atan_z1 = atan(z1)
psi_v = pi * (1.0 + z1 * z1) / (2.0 * eta_v)
cphi = cos(2.0 / pi * eta_v * atan_z1)
phi_v = cphi * cphi
if phi_v < PHI_FLOOR:
    phi_v = PHI_FLOOR

# stage 1: funnel-shaping virtual control
w = z1 * phi_v * psi_v
beta1 = {drift1} - dy_r - 2.0 / (pi * phi_v) * eta_d * atan_z1
chi1 = rate1 * abs(e)
# -w * beta1 * beta1 is ((-w) * beta1) * beta1 and (-w) * beta1 == -(w * beta1)
wb, wc = w * beta1, w * chi1
alpha1 = (
    -wb * beta1 / (lo1 * sqrt(wb ** 2 + delta2_1))
    - wc * chi1 / (lo1 * sqrt(wc ** 2 + sigma2_1))
    - w / lo1
    - varpi1 * z1 / (2.0 * lo1 * phi_v * psi_v)
)
dev2 = e * e
coupling = hi1 * phi_v * psi_v * abs(z1)
{stages}'''

# Stage i >= 2 tracks the filtered alpha_(i-1); the last stage's alpha is u.
_KERNEL_STAGE = '''
# stage {i}
z{i} = x{i} - s{i}
r{i} = s{i} - alpha{p}
sgn = {sign}
zt{i} = 1.0 / (1.0 + z{i} * z{i}) + varrho{i} * sgn
beta{i} = {drift} - (alpha{p} - s{i}) * invlam{i}
dev = x{i} - y_r
dev2 += dev * dev
chi{i} = rate{i} * sqrt(dev2)
gamma{i} = coupling * abs(z{i}) / zt{i}
xi{i} = coupling * abs(r{i}) / zt{i}
zb, zc, zg = zt{i} * beta{i}, zt{i} * chi{i}, zt{i} * gamma{i}
zg2 = zg ** 2
alpha{i} = -(
    zb * beta{i} / (lo{i} * sqrt(zb ** 2 + delta2_{i}))
    + zc * chi{i} / (lo{i} * sqrt(zc ** 2 + sigma2_{i}))
    + zg * gamma{i} / (lo{i} * sqrt(zg2 + rho2_{i}))
    # the paper's guard on the xi term is gamma, not xi
    + zt{i} * xi{i} * xi{i} / (lo{i} * sqrt(zg2 + tau2_{i}))
    + varpi{i} * (atan(z{i}) + varrho{i} * abs(z{i})) / (lo{i} * zt{i})
    + zt{i} / lo{i}
)
'''


def inline_time_inputs(reference: ReferenceSignal, perf: PerfFunction, tag: str, names):
    """``(statements, namespace)``: the kernel's time inputs as statements
    to inline into a generated function, at indentation 0, and the globals
    they read.  At the caller's local time ``names[0]`` they assign the
    reference, its derivative, eta and eta_dot to the locals named by
    ``names[1:]``, by the texts of ``reference`` and of the envelope of
    ``perf``; the envelope's own locals ``v`` are renamed ``v__<tag>``."""
    t, y_r, dy_r, eta, eta_dot = names
    value, derivative, namespace = reference.inline(t)
    envelope, constants = perf.inline_envelope(tag, t, (eta, eta_dot))
    namespace.update(constants)
    return f"{y_r} = {value}\n{dy_r} = {derivative}\n{envelope}", namespace


class ControllerChain:
    """Evaluates the full control chain for one plant/reference pairing.

    ``kernel(x, filter_states, drifts, inputs)``, at ``inputs =
    time_inputs(t)`` and ``drifts`` the drift estimates theta_i . basis(t)
    (fuzzy) or the energy basis(t) . basis(t), returns ``(u, alpha,
    drives)``: the control, alpha_1..alpha_(n-1) and the adaptive law's
    drives (w, zeta_2..zeta_n; None in approximator-free mode), or raises
    FunnelBreachError.  Profiles count it, ``.../controller.py<kernel n=3
    fuzzy sign>``, under this module.

    Pure function of (plant state, controller state, time): the chain keeps
    no cache, and the integrator owns all mutation of
    :class:`ControllerState`.  The basis is always the 11-rule reference
    grid on the scalar reference, kept as ``self.grid``.
    """

    def __init__(
        self,
        bounds: PlantBounds,
        gains: Sequence[StageGains],
        transform: ErrorTransform,
        reference: ReferenceSignal,
        mode: ControlMode = ControlMode.FUZZY,
        sign_smoothing: float = 0.0,
    ):
        if bounds.n < 2:
            raise ValueError("controller chain requires plant order >= 2")
        if len(gains) != bounds.n:
            raise ValueError("need one StageGains per plant stage")
        for i, g in enumerate(gains[1:], start=2):
            if g.rho is None or g.tau is None or g.varrho is None or g.lam is None:
                raise ValueError(f"stage {i} gains need rho, tau, varrho and lam")
        if not 0.0 <= sign_smoothing < math.inf:
            raise ValueError("sign_smoothing must be nonnegative and finite")
        if not isinstance(mode, ControlMode):
            raise ValueError(f"mode must be a ControlMode, got {mode!r}")
        self.bounds = bounds
        self.gains = list(gains)
        self.transform = transform
        self.reference = reference
        self.mode = mode
        self._fuzzy = mode is ControlMode.FUZZY
        self.grid = GaussianGrid.reference_grid(dim=1)
        self.sign_smoothing = sign_smoothing
        self._body, self._names = self._kernel_text()
        self.kernel = self._compile_kernel()
        self.time_inputs, self._reference_values = self._compile_time_functions()
        self._mu = tuple(g.mu for g in self.gains)
        self._varpi = tuple(g.varpi for g in self.gains)
        self._lam = tuple(g.lam for g in self.gains[1:])

    def _kernel_text(self):
        """``(body, namespace)``: :data:`_KERNEL_BODY` for this chain's n,
        mode and sign, and each stage's constants, its globals."""
        n, fuzzy, smoothed = self.bounds.n, self._fuzzy, self.sign_smoothing > 0.0
        g_lo, g_hi, rates = self.bounds.gain_lower, self.bounds.gain_upper, self.bounds.lipschitz_rate
        namespace = {
            "atan": math.atan, "tan": math.tan, "cos": math.cos, "sqrt": math.sqrt,
            "tanh": math.tanh, "copysign": math.copysign, "pi": math.pi, "HALF_PI": _HALF_PI,
            "PHI_FLOOR": PHI_FLOOR, "FunnelBreachError": FunnelBreachError, "smoothing": self.sign_smoothing,
        }
        for i, g in enumerate(self.gains, start=1):
            namespace.update({
                f"lo{i}": g_lo[i - 1], f"hi{i}": g_hi[i - 1], f"rate{i}": rates[i - 1],
                f"delta2_{i}": g.delta**2, f"sigma2_{i}": g.sigma**2, f"varpi{i}": g.varpi,
            })
            if i > 1:
                namespace.update({
                    f"rho2_{i}": g.rho**2, f"tau2_{i}": g.tau**2, f"varrho{i}": g.varrho, f"invlam{i}": 1.0 / g.lam,
                })
        stages = []
        for i in range(2, n + 1):
            stages.append(_KERNEL_STAGE.format(
                i=i, p=i - 1,
                sign=f"tanh(z{i} / smoothing)" if smoothed else f"0.0 if z{i} == 0.0 else copysign(1.0, z{i})",
                drift=f"est{i}" if fuzzy else f"zt{i} * energy",
            ))
            if i < n:
                stages.append(f"coupling = hi{i} * abs(zt{i})\n")
        body = _KERNEL_BODY.format(stages="".join(stages), drift1="est1" if fuzzy else "w * energy")
        return body, namespace

    def _compile_kernel(self):
        """:attr:`kernel`: the kernel text after lines that unpack its arguments."""
        n, fuzzy = self.bounds.n, self._fuzzy
        xs, ss, ests, zts = (", ".join(f"{v}{i}" for i in range(first, n + 1))
                             for v, first in (("x", 1), ("s", 2), ("est", 1), ("zt", 2)))
        alphas = ", ".join(f"alpha{i}" for i in range(1, n))
        drifts, drives = (ests + ",", f"[w, {zts}]") if fuzzy else ("energy", "None")
        unpack = f"{xs}, = x\n{ss}, = filter_states\n{drifts} = drifts\n{', '.join(_TIME_INPUTS)} = inputs\n"
        sign = "tanh" if self.sign_smoothing > 0.0 else "sign"
        return function("kernel", "x, filter_states, drifts, inputs", unpack + self._body,
                        f"alpha{n}, [{alphas}], {drives}", f"{__file__}<kernel n={n} {self.mode.value} {sign}>",
                        self._names)

    def _compile_time_functions(self):
        """``(time_inputs, reference_values)``: ``time_inputs(t)`` gives
        ``(t, y_r, dy_r, eta, eta_dot)``, the kernel's only inputs of time,
        by :func:`inline_time_inputs`; ``reference_values(times)`` the
        reference at each of ``times``, as a list."""
        statements, namespace = inline_time_inputs(self.reference, self.transform.perf, "", _TIME_INPUTS)
        time_inputs = function("time_inputs", "t", statements, ", ".join(_TIME_INPUTS), f"{__file__}<time_inputs>",
                               namespace)
        value, _, namespace = self.reference.inline("t")
        return time_inputs, function("reference_values", "times", "", f"[{value} for t in times]",
                                     f"{__file__}<reference_values>", namespace)

    def inline_kernel(self, tag: str, args, outputs, keep=()):
        """``(statements, namespace)``: :attr:`kernel`'s own text, built
        once at construction, as statements to inline into a generated
        function, and the constants they read as globals.  They are evaluated on the caller's
        locals named by ``args`` = (x, filter_states, drifts, inputs): a
        name per plant state, per filter (stages 2..n) and per stage drift
        estimate in fuzzy mode, or one for the energy in approximator-free
        mode, and one per time input (t, y_r, dy_r, eta, eta_dot; see
        :func:`inline_time_inputs`).  They assign the kernel's outputs to the
        names in ``outputs`` = (u, alpha, drives); drives is None in
        approximator-free mode.  Every other local ``v`` of the kernel is
        renamed ``v__<tag>``, so copies with different tags do not share a
        local, except those in ``keep``, which keep their names: ``e``,
        ``atan_e``, ``y_r``, ``eta_v`` and ``z1..zn`` are the error, its
        arctan, the reference, eta and the surfaces."""
        n = self.bounds.n
        (x, s, drifts, inputs), (u, alpha, drives) = args, outputs
        names = dict(zip(_TIME_INPUTS, inputs))
        names[f"alpha{n}"] = u
        names.update((f"x{i}", v) for i, v in enumerate(x, start=1))
        names.update((f"s{i}", v) for i, v in enumerate(s, start=2))
        names.update((f"alpha{i}", v) for i, v in enumerate(alpha, start=1))
        if self._fuzzy:
            names.update((f"est{i}", v) for i, v in enumerate(drifts, start=1))
            names.update(zip(["w", *(f"zt{i}" for i in range(2, n + 1))], drives))
        else:
            names["energy"] = drifts
        names.update((name, name) for name in keep)
        return inline(self._body, names, tag, self._names, prefix="")

    # -- setup ------------------------------------------------------------

    def init_state(self, x0: Sequence[float]) -> ControllerState:
        """Controller state at t=0 with each filter preloaded to the virtual
        control it will track, removing artificial initial filter lag."""
        n = self.bounds.n
        if self._fuzzy:
            theta = [AdaptiveWeights(np.zeros(self.grid.m)) for _ in range(n)]
            drifts = [0.0] * n  # the projections of the zero weights
        else:
            theta = []
            drifts = self.tabulate_basis([0.0])[1][0]
        state = ControllerState(theta_hat=theta, filter_states=list(x0[1:]))
        inputs = self.time_inputs(0.0)
        # s_i depends on alpha_{i-1}, which depends on s_2..s_{i-1}: one
        # sweep per filter settles them front to back.
        for k in range(n - 1):
            state.filter_states[k] = self.kernel(x0, state.filter_states, drifts, inputs)[1][k]
        return state

    # -- evaluation -------------------------------------------------------

    def tabulate_basis(self, times: Sequence[float]):
        """``(rows, energies, cross1, cross2)``: the reference basis at
        ``times`` as a (len(times), m) array, the energies b_i.b_i and, in
        fuzzy mode, the Gram products b_i.b_{i+1} and b_i.b_{i+2} as lists
        (None in approximator-free mode).  Each energy is a sum of squares,
        so no row depends on the other times of the call.  Stores nothing."""
        rows = self.grid.basis(np.array(self._reference_values(times)))
        energies = (rows * rows).sum(axis=1).tolist()
        if self.mode is not ControlMode.FUZZY:
            return rows, energies, None, None
        cross1 = (rows[:-1] * rows[1:]).sum(axis=1).tolist()
        return rows, energies, cross1, (rows[:-2] * rows[2:]).sum(axis=1).tolist()


    def evaluate(self, x: Sequence[float], state: ControllerState, t: float) -> tuple:
        """``(u, alpha, theta_dot)``: the control input, the virtual controls
        and the weight derivatives, one row per stage (an empty array in
        approximator-free mode).

        Raises :class:`funneldsc.perf.FunnelBreachError` if the output error
        left the performance funnel.
        """
        (basis,), (energy,), _, _ = self.tabulate_basis([t])
        inputs = self.time_inputs(t)
        if not self._fuzzy:
            u, alpha, _ = self.kernel(x, state.filter_states, energy, inputs)
            return u, alpha, np.zeros((0, 0))
        theta = np.array([w.theta_hat for w in state.theta_hat])
        u, alpha, drives = self.kernel(x, state.filter_states, (theta @ basis).tolist(), inputs)
        # the adaptive law theta_i' = mu_i * drive_i * basis - varpi_i * theta_i
        mu_drives = np.array([m * d for m, d in zip(self._mu, drives)])
        return u, alpha, mu_drives[:, None] * basis - np.array(self._varpi)[:, None] * theta
