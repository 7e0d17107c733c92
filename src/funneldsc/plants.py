"""Strict-feedback plants, reference signals, and the two case-study systems.

A plant of order n is a cascade
    xdot_i = f_i(x_1..x_i) + g_i(x_1..x_i) * x_{i+1} + w_i(t)   (i < n)
    xdot_n = f_n(x) + g_n(x) * u + w_n(t)
Inputs: each plant writes the whole cascade out once, as source text
(``rhs_text``): statements that assign ``dx1..dxn`` from ``x1..xn``, ``u``
and ``t``, reading every other name from the plant's ``names`` dict; a
reference writes its value and its derivative as two expressions in
``t``.  Outputs: the right-hand side and the reference's value compiled
(:attr:`StrictFeedbackPlant.rhs`, :attr:`ReferenceSignal.value`, under
names such as ``.../plants.py<rhs n=3>``, counted under this module by
profiles), and every text renamed for ``sim.run``'s loop to inline,
uncompiled (:meth:`StrictFeedbackPlant.inline_rhs`,
:meth:`ReferenceSignal.inline`).  Both forms are the one text
(:mod:`funneldsc.codegen`), so they take the same float operations in the
same order.
The controller never reads f_i, g_i or w_i; it only sees the gain bounds
and the constant Lipschitz rates exposed through :class:`PlantBounds`.
``PLANTS`` registers the built-in plants by name, with their order; each
built-in plant and reference is built once per process.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .codegen import function, inline

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


def _statements(text: str) -> str:
    """``text`` at indentation 0, ending in one newline."""
    return textwrap.dedent(text).strip("\n") + "\n"


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference trajectory with its analytic derivative: ``value_text``
    and ``derivative_text`` are one-line expressions in ``t`` that read
    every other name from ``names``."""

    value_text: str
    derivative_text: str
    names: Mapping

    def __post_init__(self):
        object.__setattr__(self, "names", MappingProxyType(dict(self.names)))

    @functools.cached_property
    def value(self) -> Callable[[float], float]:
        """``value(t)``: :attr:`value_text` compiled."""
        return function("value", "t", "", self.value_text.strip(), f"{__file__}<reference value>", self.names)

    def inline(self, t: str):
        """``(value, derivative, namespace)``: the two expressions at the
        caller's local ``t``, and the globals they read, each name of
        :attr:`names` prefixed with ``ref_``."""
        value, namespace = inline(self.value_text.strip(), {"t": t}, "ref", self.names, "ref_")
        derivative, _ = inline(self.derivative_text.strip(), {"t": t}, "ref", self.names, "ref_")
        return value, derivative, namespace


@dataclass(frozen=True)
class StrictFeedbackPlant:
    """Order-n strict-feedback cascade with per-stage disturbances.

    ``rhs_text`` is the right-hand side of the whole cascade: statements
    that assign ``dx1..dxn`` from ``x1..xn``, ``u`` and ``t`` and read
    every other name from ``names``.  It is simulator-only; controllers
    must go through :meth:`bounds`.
    """

    n: int
    rhs_text: str
    names: Mapping
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
        object.__setattr__(self, "names", MappingProxyType(dict(self.names)))

    def bounds(self) -> PlantBounds:
        """The controller-visible view of this plant."""
        return PlantBounds(
            n=self.n,
            gain_lower=self.gain_lower,
            gain_upper=self.gain_upper,
            lipschitz_rate=self.lipschitz_rate,
        )

    @functools.cached_property
    def rhs(self) -> Callable[[Sequence[float], float, float], list]:
        """``rhs(x, u, t)``: ``[dx1, ..., dxn]`` by :attr:`rhs_text`."""
        xs, dxs = (", ".join(f"{v}{i}" for i in range(1, self.n + 1)) for v in ("x", "dx"))
        text = f"{xs}, = x\n{_statements(self.rhs_text)}"
        return function("rhs", "x, u, t", text, f"[{dxs}]", f"{__file__}<rhs n={self.n}>", self.names)

    def inline_rhs(self, tag: str, x: Sequence[str], u: str, t: str, dx: Sequence[str]):
        """``(statements, namespace)``: :attr:`rhs_text` at indentation 0
        on the caller's locals named by ``x``, ``u`` and ``t``, assigning
        the derivatives to those named by ``dx``; every other local ``v``
        is renamed ``v__<tag>``.  The namespace holds the globals they
        read, each name of :attr:`names` prefixed with ``rhs_``."""
        mapping = {"u": u, "t": t}
        mapping.update((f"x{i}", v) for i, v in enumerate(x, start=1))
        mapping.update((f"dx{i}", v) for i, v in enumerate(dx, start=1))
        return inline(_statements(self.rhs_text), mapping, tag, self.names, "rhs_")

    def state_derivative(self, x: Sequence[float], u: float, t: float) -> list:
        """Right-hand side at state x, input u, time t, with its inputs
        checked; the integrator inlines :attr:`rhs_text` instead and checks
        the state after every step."""
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

_EM_RHS = """\
dx1 = x2 + 2.0 * sin(5.0 * t)
dx2 = -n_over_m * sin(x1) - b_over_m * x2 + x3 + 5.0 * cos(2.0 * t)
dx3 = -kb_ml * x2 - r_ml * x3 + u + 10.0 * sin(t)
"""


@functools.cache
def make_electromechanical() -> StrictFeedbackPlant:
    """Motor-driven link: position, velocity, scaled armature current."""
    l2 = (EM_N + EM_B) / EM_M
    l3 = (_KB + _RA) / (EM_M * _LA)
    return StrictFeedbackPlant(
        n=3,
        rhs_text=_EM_RHS,
        names={
            "sin": math.sin, "cos": math.cos, "n_over_m": EM_N / EM_M, "b_over_m": EM_B / EM_M,
            "kb_ml": _KB / (EM_M * _LA), "r_ml": _RA / (EM_M * _LA),
        },
        gain_lower=(0.1, 0.1, 0.1),
        gain_upper=(10.0, 10.0, 10.0),
        lipschitz_rate=(1.0, l2, l3),
    )


@functools.cache
def electromechanical_reference() -> ReferenceSignal:
    return ReferenceSignal("sin(10.0 * t) + 2.0", "10.0 * cos(10.0 * t)", {"sin": math.sin, "cos": math.cos})


# -- single-link manipulator (order 2) -----------------------------------

_SL_I = 1.0   # rotational inertia, kg m^2
_SL_B = 2.0   # damping, kg m/s
_SL_M = 1.0   # link mass, kg
_SL_L = 1.0   # joint-to-center distance, m

_SL_RHS = """\
dx1 = x2
dx2 = -(B * x2 + M * G * L * sin(x1)) / I + (1.0 / I) * u + 10.0 * cos(5.0 * t)
"""


@functools.cache
def make_single_link() -> StrictFeedbackPlant:
    """Single-link manipulator: joint angle and angular velocity."""
    l2 = (_SL_B + _SL_M * _G * _SL_L) / _SL_I
    return StrictFeedbackPlant(
        n=2,
        rhs_text=_SL_RHS,
        names={"sin": math.sin, "cos": math.cos, "B": _SL_B, "M": _SL_M, "G": _G, "L": _SL_L, "I": _SL_I},
        gain_lower=(0.5, 0.5),
        gain_upper=(10.0, 10.0),
        lipschitz_rate=(1.0, l2),
    )


@functools.cache
def single_link_reference() -> ReferenceSignal:
    return ReferenceSignal(
        "pi + 2.0 * sin(10.0 * t)", "20.0 * cos(10.0 * t)", {"pi": math.pi, "sin": math.sin, "cos": math.cos})


class PlantEntry(NamedTuple):
    """The order of one built-in plant, and the factories of the plant and
    of the reference it tracks."""

    n: int
    plant: Callable[[], StrictFeedbackPlant]
    reference: Callable[[], ReferenceSignal]


PLANTS = {
    "electromechanical": PlantEntry(3, make_electromechanical, electromechanical_reference),
    "single-link": PlantEntry(2, make_single_link, single_link_reference),
}
