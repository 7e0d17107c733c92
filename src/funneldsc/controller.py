"""Dynamic-surface control chain with prescribed-time funnel feedback.

Stage 1 shapes the transformed tracking error through the funnel
auxiliaries; stages 2..n track the filtered virtual controls through
first-order filters, using saturated robust terms instead of derivatives of
the virtual controllers.  Two modes are supported: an adaptive fuzzy mode
that estimates the unknown drift online, and an approximator-free mode that
replaces the estimate with a regressor-energy damping term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fuzzy import AdaptiveWeights, GaussianGrid
from .perf import ErrorTransform
from .plants import PlantBounds, ReferenceSignal

__all__ = [
    "ControlMode",
    "StageGains",
    "ControllerState",
    "StageSignals",
    "ControllerChain",
    "zeta",
    "saturated_term",
    "BASIS_BLOCK",
]


class ControlMode(enum.Enum):
    FUZZY = "fuzzy"
    APPROX_FREE = "approx-free"


# Rows per tabulated basis block.  A fixed block bounds the table's memory
# whatever the horizon (4096 rows of 11 rules is about 0.6 MB with the
# Gram products), while refilling costs one vectorised pass per 2048 steps,
# within noise of tabulating the whole run up front.
BASIS_BLOCK = 4096


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
        for name in ("delta", "sigma", "varpi", "mu"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"StageGains.{name} must be strictly positive")
        for name in ("rho", "tau", "lam"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ValueError(f"StageGains.{name} must be strictly positive")
        if self.varrho is not None and not self.varrho > 1.0:
            raise ValueError("StageGains.varrho must exceed 1")


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

    Pure function of (plant state, controller state, time); the integrator
    owns all mutation of :class:`ControllerState`.
    """

    def __init__(
        self,
        bounds: PlantBounds,
        gains: Sequence[StageGains],
        transform: ErrorTransform,
        reference: ReferenceSignal,
        mode: ControlMode = ControlMode.FUZZY,
        grid: Optional[GaussianGrid] = None,
        sign_smoothing: float = 0.0,
    ):
        if bounds.n < 2:
            raise ValueError("controller chain requires plant order >= 2")
        if len(gains) != bounds.n:
            raise ValueError("need one StageGains per plant stage")
        for i, g in enumerate(gains[1:], start=2):
            if g.rho is None or g.tau is None or g.varrho is None or g.lam is None:
                raise ValueError(f"stage {i} gains need rho, tau, varrho and lam")
        if grid is None:
            grid = GaussianGrid.reference_grid(dim=1)
        if grid.dim != 1:
            raise ValueError("chain evaluates the basis on the scalar reference")
        if sign_smoothing < 0.0:
            raise ValueError("sign_smoothing must be nonnegative")
        self.bounds = bounds
        self.gains = list(gains)
        self.transform = transform
        self.reference = reference
        self.mode = mode
        self.grid = grid
        self.sign_smoothing = sign_smoothing
        # (step, first row, basis rows, b_i.b_i, b_i.b_{i+1}, b_i.b_{i+2}),
        # the last two None in approximator-free mode
        self._table = None
        # hot-loop constants
        self._delta2 = tuple(g.delta**2 for g in self.gains)
        self._sigma2 = tuple(g.sigma**2 for g in self.gains)
        self._rho2 = tuple(None if g.rho is None else g.rho**2 for g in self.gains)
        self._tau2 = tuple(None if g.tau is None else g.tau**2 for g in self.gains)
        self._mu = tuple(g.mu for g in self.gains)
        self._varpi = tuple(g.varpi for g in self.gains)
        self._varrho = tuple(g.varrho for g in self.gains)
        self._invlam = tuple(None if g.lam is None else 1.0 / g.lam for g in self.gains)

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

    def tabulate_basis(self, step: float, first: int, count: int) -> None:
        """Tabulate the reference basis on rows ``first .. first+count+1`` of
        the uniform time grid ``{0, step, 2*step, ...}`` that a fixed-step
        integrator queries, with the energies b_i.b_i and, in fuzzy mode, the
        Gram products b_i.b_{i+1} and b_i.b_{i+2}.  The block serves rows
        ``first .. first+count-1``; its two rows of overlap let a step read
        rows i..i+2 from one block.  A later query on that grid outside the
        block refills it with the :data:`BASIS_BLOCK` rows that hold the
        query."""
        ys = np.array([self.reference.value(i * step) for i in range(first, first + count + 2)])
        basis = self.grid.basis(ys[:, None])
        cross = (None, None)
        if self.mode is ControlMode.FUZZY:
            cross = (
                (basis[:-1] * basis[1:]).sum(axis=1).tolist(),
                (basis[:-2] * basis[2:]).sum(axis=1).tolist(),
            )
        self._table = (step, first, basis, (basis * basis).sum(axis=1).tolist(), *cross)

    def _table_row(self, t: float, step: float):
        """Row of grid time ``t = i*step`` in the table, refilled with the
        block that holds row i when needed; None when t is off the grid."""
        pos = t / step
        i = int(pos + 0.5)
        # grid times may differ by rounding noise from k*dt arithmetic
        if abs(pos - i) >= 1e-6:
            return None
        table = self._table
        if table is None or table[0] != step or not 0 <= i - table[1] < len(table[3]) - 2:
            self.tabulate_basis(step, i - i % BASIS_BLOCK, BASIS_BLOCK)
            table = self._table
        return i - table[1]

    def _basis_at(self, t: float, y_r: float):
        if self._table is not None:
            row = self._table_row(t, self._table[0])
            if row is not None:
                table = self._table
                return table[2][row], table[3][row]
        basis = self.grid.basis(y_r)
        return basis, float(basis @ basis)

    def basis_at(self, t: float) -> np.ndarray:
        """Basis of the reference at time t, from the table when t is on its grid."""
        return self._basis_at(t, self.reference.value(t))[0]

    def step_basis(self, t: float, dt: float):
        """Basis rows b1, bh, b4 at t, t+dt/2 and t+dt as a (3, m) array, and
        their Gram products b1.bh, bh.bh, b1.b4 and bh.b4 (fuzzy mode).

        Served from the half-step table, which is tabulated here when it is
        missing or built for another step; a t off that grid evaluates the
        three rows directly."""
        h = 0.5 * dt
        row = self._table_row(t, h)
        if row is None:
            ys = [[self.reference.value(t + k * h)] for k in range(3)]
            rows = self.grid.basis(np.array(ys))
            gram = (rows @ rows.T).tolist()
            return rows, gram[0][1], gram[1][1], gram[0][2], gram[1][2]
        _, _, basis, energy, cross1, cross2 = self._table
        return basis[row:row + 3], cross1[row], energy[row + 1], cross2[row], cross1[row + 1]

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
        if self.mode is not ControlMode.FUZZY:
            sig = self.kernel(x, state.filter_states, None, t, signals=True)[3]
            sig.theta_dot = np.zeros((0, 0))
            return sig
        theta = np.array([w.theta_hat for w in state.theta_hat])
        basis = self.basis_at(t)
        _, _, drives, sig = self.kernel(x, state.filter_states, (theta @ basis).tolist(), t, signals=True)
        sig.theta_dot = self.weight_derivative(theta, drives, basis)
        return sig

    def kernel(self, x, filter_states, drifts, t: float, signals: bool = False):
        """One evaluation of the chain at plant state ``x``, filter states
        ``filter_states`` (stages 2..n) and stage drift estimates ``drifts``,
        the floats theta_i . basis(t) (ignored in approximator-free mode).

        Returns ``(u, alpha, drives, sig)``: the control input, the virtual
        controls alpha_1..alpha_{n-1}, the drives (w, zeta_2, ..., zeta_n)
        of the adaptive law (None in approximator-free mode) and, only when
        ``signals`` is set, the full :class:`StageSignals` (else None).
        Raises :class:`funneldsc.perf.FunnelBreachError` if the output error
        left the performance funnel.
        """
        n = self.bounds.n
        g_lo = self.bounds.gain_lower
        g_hi = self.bounds.gain_upper
        rates = self.bounds.lipschitz_rate
        tr = self.transform
        fuzzy = self.mode is ControlMode.FUZZY

        y_r = self.reference.value(t)
        dy_r = self.reference.derivative(t)
        e = x[0] - y_r
        eta_v = tr.perf.eta(t)
        z1 = tr._transform(e, t, eta_v)
        atan_z1 = math.atan(z1)
        psi_v = math.pi * (1.0 + z1 * z1) / (2.0 * eta_v)
        cphi = math.cos(2.0 / math.pi * eta_v * atan_z1)
        phi_v = cphi * cphi
        if phi_v < tr.phi_floor:
            phi_v = tr.phi_floor
        eta_d = tr.perf.eta_dot(t)

        # stage 1: funnel-shaping virtual control
        w = z1 * phi_v * psi_v
        if fuzzy:
            drift_term = drifts[0]
            drives = [w]
        else:
            drives = None
            energy = self._basis_at(t, y_r)[1]
            drift_term = w * energy
        beta1 = drift_term - dy_r - 2.0 / (math.pi * phi_v) * eta_d * atan_z1
        chi1 = rates[0](x[:1], (y_r,), t) * abs(e)
        alpha1 = (
            -w * beta1 * beta1 / (g_lo[0] * math.sqrt((w * beta1) ** 2 + self._delta2[0]))
            - w * chi1 * chi1 / (g_lo[0] * math.sqrt((w * chi1) ** 2 + self._sigma2[0]))
            - w / g_lo[0]
            - self._varpi[0] * z1 / (2.0 * g_lo[0] * phi_v * psi_v)
        )

        alpha = [alpha1]
        stages = []  # per-stage diagnostics, kept only when signals are asked for
        u = 0.0
        dev2 = e * e
        zt_prev = 0.0
        smoothing = self.sign_smoothing
        varrho = self._varrho
        invlam = self._invlam

        # stages 2..n track the filtered virtual controls
        for i in range(2, n + 1):
            s_i = filter_states[i - 2]
            a_prev = alpha[i - 2]
            x_i = x[i - 1]
            z_i = x_i - s_i
            r_i = s_i - a_prev
            if smoothing > 0.0:
                sgn = math.tanh(z_i / smoothing)
            else:
                sgn = 0.0 if z_i == 0.0 else math.copysign(1.0, z_i)
            zt = 1.0 / (1.0 + z_i * z_i) + varrho[i - 1] * sgn
            if fuzzy:
                drift_i = drifts[i - 1]
                drives.append(zt)
            else:
                drift_i = zt * energy
            beta_i = drift_i - (a_prev - s_i) * invlam[i - 1]
            d_i = x_i - y_r
            dev2 += d_i * d_i
            chi_i = rates[i - 1](x[:i], (y_r,) * i, t) * math.sqrt(dev2)
            if i == 2:
                coupling = g_hi[0] * phi_v * psi_v * abs(z1)
            else:
                coupling = g_hi[i - 2] * abs(zt_prev)
            gamma_i = coupling * abs(z_i) / zt
            xi_i = coupling * abs(r_i) / zt
            glo = g_lo[i - 1]
            value = -(
                zt * beta_i * beta_i / (glo * math.sqrt((zt * beta_i) ** 2 + self._delta2[i - 1]))
                + zt * chi_i * chi_i / (glo * math.sqrt((zt * chi_i) ** 2 + self._sigma2[i - 1]))
                + zt * gamma_i * gamma_i / (glo * math.sqrt((zt * gamma_i) ** 2 + self._rho2[i - 1]))
                # the paper's guard on the xi term is gamma, not xi
                + zt * xi_i * xi_i / (glo * math.sqrt((zt * gamma_i) ** 2 + self._tau2[i - 1]))
                + self._varpi[i - 1] * (math.atan(z_i) + varrho[i - 1] * abs(z_i)) / (glo * zt)
                + zt / glo
            )
            zt_prev = zt
            if signals:
                stages.append((z_i, r_i, beta_i, chi_i, gamma_i, xi_i, zt))
            if i < n:
                alpha.append(value)
            else:
                u = value

        if not signals:
            return u, alpha, drives, None
        z, r, beta, chi, gamma, xi, zeta_vals = map(list, zip(*stages))
        sig = StageSignals(
            z=[z1] + z, r=r, alpha=alpha, beta=[beta1] + beta, chi=[chi1] + chi,
            gamma=gamma, xi=xi, zeta_vals=zeta_vals, u=u,
            e=e, eta=eta_v, psi=psi_v, varphi=phi_v, y_r=y_r,
        )
        return u, alpha, drives, sig
