"""Strict-feedback plants, reference signals, and the two case-study systems.

A plant of order n is a cascade
    xdot_i = f_i(x_1..x_i) + g_i(x_1..x_i) * x_{i+1} + w_i(t)   (i < n)
    xdot_n = f_n(x) + g_n(x) * u + w_n(t)
Each plant writes the whole cascade out in one hand-written ``rhs``.  The
controller never reads f_i, g_i or w_i; it only sees the gain bounds and
the constant Lipschitz rates exposed through :class:`PlantBounds`.  ``PLANTS``
registers the built-in plants by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "StrictFeedbackPlant",
    "PlantBounds",
    "ReferenceSignal",
    "make_electromechanical",
    "make_single_link",
    "electromechanical_reference",
    "single_link_reference",
    "PLANTS",
]

@dataclass(frozen=True)
class PlantBounds:
    """Controller-visible plant metadata: order, gain bounds, Lipschitz rates."""

    n: int
    gain_lower: tuple
    gain_upper: tuple
    lipschitz_rate: tuple


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference trajectory with its analytic derivative."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]


@dataclass(frozen=True)
class StrictFeedbackPlant:
    """Order-n strict-feedback cascade with per-stage disturbances.

    ``rhs(x, u, t)`` is the hand-written right-hand side of the whole
    cascade and is simulator-only; controllers must go through
    :meth:`bounds`.
    """

    n: int
    rhs: Callable[[Sequence[float], float, float], list]
    gain_lower: tuple
    gain_upper: tuple
    lipschitz_rate: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("plant order must be at least 1")
        for name in ("gain_lower", "gain_upper", "lipschitz_rate"):
            if len(getattr(self, name)) != self.n:
                raise ValueError(f"{name} must have {self.n} entries")
        for lo, hi in zip(self.gain_lower, self.gain_upper):
            if not 0.0 < lo <= hi:
                raise ValueError("gain bounds must satisfy 0 < lower <= upper")

    def bounds(self) -> PlantBounds:
        """The controller-visible view of this plant."""
        return PlantBounds(
            n=self.n,
            gain_lower=self.gain_lower,
            gain_upper=self.gain_upper,
            lipschitz_rate=self.lipschitz_rate,
        )

    def state_derivative(self, x: Sequence[float], u: float, t: float) -> list:
        """Right-hand side at state x, input u, time t, with its inputs
        checked; the integrator calls :attr:`rhs` directly and checks the
        state after every step instead."""
        if not all(math.isfinite(v) for v in x) or not math.isfinite(u):
            raise ValueError(f"non-finite plant input at t={t}")
        return self.rhs(x, u, t)


# -- electromechanical servo (order 3) -----------------------------------

# Physical constants of the motor-driven link.
_J = 1.625e-3       # rotor inertia, kg m^2
_M0_LINK = 0.506    # link mass, kg
_M0_LOAD = 0.434    # load mass, kg
_L0 = 0.305         # link length, m
_R0 = 0.023         # load radius, m
_B0 = 16.25e-3      # viscous friction, N m s/rad
_LA = 15.0          # armature inductance, H
_RA = 5.0           # armature resistance, ohm
_KTAU = 0.90        # torque constant, N m / A
_KB = 0.90          # back-EMF constant
_G = 9.81

EM_M = _J / _KTAU + _M0_LINK * _L0**2 / (3 * _KTAU) + _M0_LOAD * _L0**2 / _KTAU \
    + 2 * _M0_LOAD * _R0**2 / (5 * _KTAU)
EM_N = _M0_LINK * _L0 * _G / (2 * _KTAU) + _M0_LOAD * _L0 * _G / _KTAU
EM_B = _B0 / _KTAU


def make_electromechanical() -> StrictFeedbackPlant:
    """Motor-driven link: position, velocity, scaled armature current."""
    n_over_m = EM_N / EM_M
    b_over_m = EM_B / EM_M
    kb_ml = _KB / (EM_M * _LA)
    r_ml = _RA / (EM_M * _LA)
    l2 = (EM_N + EM_B) / EM_M
    l3 = (_KB + _RA) / (EM_M * _LA)
    return StrictFeedbackPlant(
        n=3,
        rhs=lambda x, u, t: [
            x[1] + 2.0 * math.sin(5.0 * t),
            -n_over_m * math.sin(x[0]) - b_over_m * x[1] + x[2] + 5.0 * math.cos(2.0 * t),
            -kb_ml * x[1] - r_ml * x[2] + u + 10.0 * math.sin(t),
        ],
        gain_lower=(0.1, 0.1, 0.1),
        gain_upper=(10.0, 10.0, 10.0),
        lipschitz_rate=(1.0, l2, l3),
    )


def electromechanical_reference() -> ReferenceSignal:
    return ReferenceSignal(
        value=lambda t: math.sin(10.0 * t) + 2.0,
        derivative=lambda t: 10.0 * math.cos(10.0 * t),
    )


# -- single-link manipulator (order 2) -----------------------------------

_SL_I = 1.0   # rotational inertia, kg m^2
_SL_B = 2.0   # damping, kg m/s
_SL_M = 1.0   # link mass, kg
_SL_L = 1.0   # joint-to-center distance, m


def make_single_link() -> StrictFeedbackPlant:
    """Single-link manipulator: joint angle and angular velocity."""
    l2 = (_SL_B + _SL_M * _G * _SL_L) / _SL_I
    return StrictFeedbackPlant(
        n=2,
        rhs=lambda x, u, t: [
            x[1],
            -(_SL_B * x[1] + _SL_M * _G * _SL_L * math.sin(x[0])) / _SL_I
            + (1.0 / _SL_I) * u
            + 10.0 * math.cos(5.0 * t),
        ],
        gain_lower=(0.5, 0.5),
        gain_upper=(10.0, 10.0),
        lipschitz_rate=(1.0, l2),
    )


def single_link_reference() -> ReferenceSignal:
    return ReferenceSignal(
        value=lambda t: math.pi + 2.0 * math.sin(10.0 * t),
        derivative=lambda t: 20.0 * math.cos(10.0 * t),
    )


class PlantEntry(NamedTuple):
    """Factories of one built-in plant and of the reference it tracks."""

    plant: Callable[[], StrictFeedbackPlant]
    reference: Callable[[], ReferenceSignal]


PLANTS = {
    "electromechanical": PlantEntry(make_electromechanical, electromechanical_reference),
    "single-link": PlantEntry(make_single_link, single_link_reference),
}
