"""Dynamic-surface control chain with prescribed-time funnel feedback.

Stage 1 shapes the transformed tracking error through the funnel
auxiliaries; stages 2..n track the filtered virtual controls through
first-order filters, using saturated robust terms instead of derivatives of
the virtual controllers.  Two modes are supported: an adaptive fuzzy mode
that estimates the unknown drift online, and an approximator-free mode that
replaces the estimate with a regressor-energy damping term.

The chain prepares the kernel's constants once, at construction, each by
the expression the kernel once evaluated per call, so every result is
unchanged to the bit.  The squared guards stay ``** 2``: pow is not
correctly rounded, and v ** 2 != v * v for some v.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .fuzzy import AdaptiveWeights, GaussianGrid
from .perf import PHI_FLOOR, ErrorTransform
from .plants import PlantBounds, ReferenceSignal

__all__ = [
    "ControlMode",
    "StageGains",
    "ControllerState",
    "StageSignals",
    "ControllerChain",
    "zeta",
    "saturated_term",
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
            # a square that underflows to 0 would divide by zero in the kernel
            also = "squared and inverted" if name == "lam" else "squared"
            if not (floor < v and 0.0 < float(v) * v < math.inf and (name != "lam" or math.isfinite(1.0 / v))):
                raise ValueError(f"StageGains.{name} must {rule} and be finite, also {also}, got {v!r}")


@dataclass
class ControllerState:
    """Mutable closed-loop controller memory: filter states and weights."""

    theta_hat: list
    filter_states: list


@dataclass(slots=True)
class StageSignals:
    """Diagnostic record of one full chain evaluation.

    Lists are stage-indexed: ``z[0]`` is the transformed output error,
    ``zeta_vals[0]``/``gamma[0]``/... belong to stage 2, ``alpha[0]`` is the
    first virtual control.  ``theta_dot`` holds the weight derivatives, one
    row per stage (empty in approximator-free mode); only
    :meth:`ControllerChain.evaluate` fills it, the integrator's samples
    leave it None.
    """

    z: list
    r: list
    alpha: list
    beta: list
    chi: list
    gamma: list
    xi: list
    zeta_vals: list
    u: float
    theta_dot: Optional[np.ndarray] = None
    e: float = 0.0
    eta: float = 0.0
    psi: float = 0.0
    varphi: float = 0.0
    y_r: float = 0.0


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


def saturated_term(s: float, guard: float) -> float:
    """Smooth saturation s^2 / sqrt(s^2 + guard^2) of the magnitude of s.

    Satisfies 0 <= |s| - saturated_term(s, guard) <= guard.
    """
    return s * s / math.sqrt(s * s + guard * guard)


class ControllerChain:
    """Evaluates the full control chain for one plant/reference pairing.

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
        self.bounds = bounds
        self.gains = list(gains)
        self.transform = transform
        self.reference = reference
        self.mode = mode
        self._fuzzy = mode is ControlMode.FUZZY
        self.grid = GaussianGrid.reference_grid(dim=1)
        self.sign_smoothing = sign_smoothing
        g_lo, g_hi, rates, g = bounds.gain_lower, bounds.gain_upper, bounds.lipschitz_rate, gains[0]
        self._stage1 = (g_lo[0], g_hi[0], rates[0], g.delta**2, g.sigma**2, g.varpi)
        # stages 2..n in loop order, each with the g_hi of the next coupling
        self._stages = tuple(
            (g_lo[i], g_hi[i], rates[i], g.delta**2, g.sigma**2, g.rho**2, g.tau**2, g.varpi, g.varrho, 1.0 / g.lam)
            for i, g in enumerate(self.gains[1:], start=1)
        )
        self._mu = tuple(g.mu for g in self.gains)
        self._varpi = tuple(g.varpi for g in self.gains)
        self._lam = tuple(g.lam for g in self.gains[1:])
        self._inputs = (reference.value, reference.derivative, transform.perf.envelope)

    # -- setup ------------------------------------------------------------

    def init_state(self, x0: Sequence[float]) -> ControllerState:
        """Controller state at t=0 with each filter preloaded to the virtual
        control it will track, removing artificial initial filter lag."""
        n = self.bounds.n
        if self.mode is ControlMode.FUZZY:
            theta = [AdaptiveWeights.zeros(self.grid.m) for _ in range(n)]
        else:
            theta = []
        state = ControllerState(theta_hat=theta, filter_states=list(x0[1:]))
        # s_i depends on alpha_{i-1}, which depends on s_2..s_{i-1}: one
        # sweep per filter settles them front to back.
        for k in range(n - 1):
            signals = self.evaluate(x0, state, 0.0)
            state.filter_states[k] = signals.alpha[k]
        return state

    # -- evaluation -------------------------------------------------------

    def tabulate_basis(self, times: Sequence[float]):
        """``(rows, energies, cross1, cross2)``: the reference basis at
        ``times`` as a (len(times), m) array, the energies b_i.b_i and, in
        fuzzy mode, the Gram products b_i.b_{i+1} and b_i.b_{i+2} as lists
        (None in approximator-free mode).  Each energy is a sum of squares,
        so no row depends on the other times of the call.  Stores nothing."""
        rows = self.grid.basis(np.array([self.reference.value(t) for t in times])[:, None])
        energies = (rows * rows).sum(axis=1).tolist()
        if self.mode is not ControlMode.FUZZY:
            return rows, energies, None, None
        cross1 = (rows[:-1] * rows[1:]).sum(axis=1).tolist()
        return rows, energies, cross1, (rows[:-2] * rows[2:]).sum(axis=1).tolist()

    def time_inputs(self, t: float) -> tuple:
        """``(t, y_r, dy_r, eta, eta_dot)``: the reference and the envelope
        at t with their derivatives, the kernel's only inputs of time."""
        value, derivative, envelope = self._inputs
        return (t, value(t), derivative(t), *envelope(t))

    def weight_derivative(self, theta: np.ndarray, drives, basis: np.ndarray) -> np.ndarray:
        """The adaptive law theta_i' = mu_i * drive_i * basis - varpi_i * theta_i,
        one row per stage, for the drives the kernel returns."""
        mu_drives = np.array([m * d for m, d in zip(self._mu, drives)])
        return mu_drives[:, None] * basis - np.array(self._varpi)[:, None] * theta

    def evaluate(self, x: Sequence[float], state: ControllerState, t: float) -> StageSignals:
        """Compute all stage signals, the control input and the weight
        derivatives.

        Raises :class:`funneldsc.perf.FunnelBreachError` if the output error
        left the performance funnel.
        """
        (basis,), (energy,), _, _ = self.tabulate_basis([t])
        inputs = self.time_inputs(t)
        if self.mode is not ControlMode.FUZZY:
            sig = self.kernel(x, state.filter_states, energy, inputs, signals=True)[3]
            sig.theta_dot = np.zeros((0, 0))
            return sig
        theta = np.array([w.theta_hat for w in state.theta_hat])
        _, _, drives, sig = self.kernel(x, state.filter_states, (theta @ basis).tolist(), inputs, signals=True)
        sig.theta_dot = self.weight_derivative(theta, drives, basis)
        return sig

    def kernel(self, x, filter_states, drifts, inputs: tuple, signals: bool = False):
        """One evaluation of the chain at plant state ``x``, filter states
        ``filter_states`` (stages 2..n) and ``inputs``, the :meth:`time_inputs`
        of its time t.  ``drifts`` is the caller's basis input for t: the
        drift estimates theta_i . basis(t) in fuzzy mode, the float energy
        basis(t) . basis(t) in approximator-free mode.  The kernel reads no
        basis and calls no function of time.

        Returns ``(u, alpha, drives, sig)``: the control input, the virtual
        controls alpha_1..alpha_{n-1}, the drives (w, zeta_2, ..., zeta_n)
        of the adaptive law (None in approximator-free mode) and, only when
        ``signals`` is set, the full :class:`StageSignals` (else None).
        Raises :class:`funneldsc.perf.FunnelBreachError` if the output error
        left the performance funnel.
        """
        fuzzy = self._fuzzy
        g_lo, g_hi, rate, delta2, sigma2, varpi = self._stage1
        sqrt, atan, pi, tanh, copysign = math.sqrt, math.atan, math.pi, math.tanh, math.copysign

        t, y_r, dy_r, eta_v, eta_d = inputs
        e = x[0] - y_r
        z1 = self.transform._transform(e, t, eta_v)
        atan_z1 = atan(z1)
        psi_v = pi * (1.0 + z1 * z1) / (2.0 * eta_v)
        cphi = math.cos(2.0 / pi * eta_v * atan_z1)
        phi_v = cphi * cphi
        if phi_v < PHI_FLOOR:
            phi_v = PHI_FLOOR

        # stage 1: funnel-shaping virtual control
        w = z1 * phi_v * psi_v
        if fuzzy:
            drift_term = drifts[0]
            drives = [w]
        else:
            drives = None
            energy = drifts
            drift_term = w * energy
        beta1 = drift_term - dy_r - 2.0 / (pi * phi_v) * eta_d * atan_z1
        chi1 = rate * abs(e)
        # -w * beta1 * beta1 is ((-w) * beta1) * beta1 and (-w) * beta1 == -(w * beta1)
        wb, wc = w * beta1, w * chi1
        alpha1 = (
            -wb * beta1 / (g_lo * sqrt(wb ** 2 + delta2))
            - wc * chi1 / (g_lo * sqrt(wc ** 2 + sigma2))
            - w / g_lo
            - varpi * z1 / (2.0 * g_lo * phi_v * psi_v)
        )

        alpha = [alpha1]
        stages = []  # per-stage diagnostics, kept only when signals are asked for
        dev2 = e * e
        smoothing = self.sign_smoothing
        a_prev = alpha1
        coupling = g_hi * phi_v * psi_v * abs(z1)

        # stages 2..n track the filtered virtual controls; the last value is u
        for (glo, hi_next, rate, delta2, sigma2, rho2, tau2, varpi, varrho, invlam), s_i, x_i, est in zip(
            self._stages, filter_states, x[1:], drifts[1:] if fuzzy else repeat(energy)
        ):
            z_i = x_i - s_i
            r_i = s_i - a_prev
            if smoothing > 0.0:
                sgn = tanh(z_i / smoothing)
            else:
                sgn = 0.0 if z_i == 0.0 else copysign(1.0, z_i)
            zt = 1.0 / (1.0 + z_i * z_i) + varrho * sgn
            if fuzzy:
                drift_i = est
                drives.append(zt)
            else:
                drift_i = zt * est
            beta_i = drift_i - (a_prev - s_i) * invlam
            d_i = x_i - y_r
            dev2 += d_i * d_i
            chi_i = rate * sqrt(dev2)
            gamma_i = coupling * abs(z_i) / zt
            xi_i = coupling * abs(r_i) / zt
            zb, zc, zg = zt * beta_i, zt * chi_i, zt * gamma_i
            zg2 = zg ** 2
            a_prev = -(
                zb * beta_i / (glo * sqrt(zb ** 2 + delta2))
                + zc * chi_i / (glo * sqrt(zc ** 2 + sigma2))
                + zg * gamma_i / (glo * sqrt(zg2 + rho2))
                # the paper's guard on the xi term is gamma, not xi
                + zt * xi_i * xi_i / (glo * sqrt(zg2 + tau2))
                + varpi * (atan(z_i) + varrho * abs(z_i)) / (glo * zt)
                + zt / glo
            )
            alpha.append(a_prev)
            coupling = hi_next * abs(zt)
            if signals:
                stages.append((z_i, r_i, beta_i, chi_i, gamma_i, xi_i, zt))
        u = alpha.pop()

        if not signals:
            return u, alpha, drives, None
        z, r, beta, chi, gamma, xi, zeta_vals = map(list, zip(*stages))
        sig = StageSignals(
            z=[z1] + z, r=r, alpha=alpha, beta=[beta1] + beta, chi=[chi1] + chi,
            gamma=gamma, xi=xi, zeta_vals=zeta_vals, u=u,
            e=e, eta=eta_v, psi=psi_v, varphi=phi_v, y_r=y_r,
        )
        return u, alpha, drives, sig
