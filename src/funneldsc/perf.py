"""Prescribed-time performance envelopes and the funnel error transformation.

The envelope ``eta(t)`` shrinks from pi/2 at t=0 to a terminal accuracy ``c``
exactly at a user-chosen settling time ``T``, independently of initial
conditions.  The error transformation maps a tracking error ``e`` constrained
by ``|arctan(e)| < eta(t)`` to an unconstrained variable ``z1``; boundedness
of ``z1`` certifies the funnel bound.  This is the paper's one
transformation; the controller's auxiliaries ``psi`` and ``varphi`` and
its ``eta_dot`` term are derived for it alone.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

__all__ = [
    "FunnelBreachError",
    "PerfFunction",
    "TransformKind",
    "ErrorTransform",
    "PHI_FLOOR",
    "perf_from_terminal",
]

_HALF_PI = math.pi / 2.0

# Fraction of T below which eta/eta_dot switch to the t >= T branch, avoiding
# 0*inf at the pole of the exponent.
_POLE_GUARD = 1e-12

# Floor of the auxiliary varphi, which the controller divides by; it only
# binds in the unreachable limit |z1| -> inf while eta is still near pi/2.
PHI_FLOOR = 1e-12


class FunnelBreachError(ValueError):
    """The tracking error left the performance funnel.

    Raised when the transformation domain |arctan(e)| < eta(t) is violated.
    Simulations treat this as a verification failure, never as a silent
    clamp.
    """

    def __init__(self, t: float, e: float, eta: float):
        super().__init__(
            f"funnel breach at t={t:.6g}: error {e:.6g} outside envelope {eta:.6g}"
        )
        self.t = t
        self.e = e
        self.eta = eta


@dataclass(frozen=True)
class PerfFunction:
    """Performance envelope a*exp(-b*(T/(T-t))^h) + c, frozen at c for t >= T.

    Construction enforces eta(0) = a*exp(-b) + c = pi/2, which makes the
    tangent-based error transformation well defined for any initial error.
    If :meth:`envelope` would overflow or underflow at some t, the
    ValueError starts with the parameter to change, ``b=``, ``h=`` or ``T=``.
    """

    a: float
    b: float
    c: float
    h: float
    T: float

    def __post_init__(self):
        for name in ("a", "b", "c", "h", "T"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"PerfFunction.{name} must be strictly positive and finite")
        if abs(self.a * math.exp(-self.b) + self.c - _HALF_PI) > 1e-9:
            raise ValueError(
                "PerfFunction requires a*exp(-b) + c = pi/2 "
                f"(got {self.a * math.exp(-self.b) + self.c!r})"
            )
        # In logs: q = T/(T - t) runs from 1 to 1/_POLE_GUARD, and eta_dot is
        # computed only while the decay exp(-b q^h) is nonzero, b q^h < 745.2,
        # up to q = live; each power must stay a finite, normal float there,
        # between the logs ``small`` and ``big`` of the extreme normal floats.
        big, small = math.log(sys.float_info.max), math.log(sys.float_info.min)
        b, h, log_T, log_q = self.b, self.h, math.log(self.T), -math.log(_POLE_GUARD)
        live = min(log_q, (math.log(745.2) - math.log(b)) / h)
        log_abh = math.log(self.a) + math.log(b) + math.log(h)
        if h * log_q >= big:
            raise ValueError(f"h={h!r} is too large: (T/(T - t))**h overflows as t nears T")
        if (h + 1.0) * log_T >= big:
            raise ValueError(f"T={self.T!r} is too large: T**(h + 1) overflows")
        if (h + 1.0) * (log_T - live) <= small:
            raise ValueError(f"T={self.T!r} is too small: (T - t)**(h + 1) underflows as t nears T")
        # eta_dot's a*b*h*T**h before and after it is divided by (T - t)**(h + 1)
        if log_abh + max(h * log_T, (h + 1.0) * live - log_T) >= big:
            raise ValueError(f"b={b!r} is too large: eta_dot overflows as t nears T")

    def envelope(self, t: float) -> tuple:
        """``(eta(t), eta_dot(t))`` from one decay; eta_dot is nonpositive
        and exactly 0 for t >= T."""
        if t >= self.T - _POLE_GUARD * self.T:
            return self.c, 0.0
        rem = self.T - t
        # the decay underflows to 0 as t -> T, giving a continuous junction
        decay = math.exp(-self.b * (self.T / rem) ** self.h)
        if decay == 0.0:
            return self.c, 0.0
        eta_dot = -self.a * self.b * self.h * self.T**self.h / rem ** (self.h + 1.0) * decay
        return self.a * decay + self.c, eta_dot

    def eta(self, t: float) -> float:
        """Envelope value at time t >= 0."""
        return self.envelope(t)[0]

    def eta_dot(self, t: float) -> float:
        """Time derivative of the envelope."""
        return self.envelope(t)[1]


def perf_from_terminal(b: float, c: float, h: float, T: float) -> PerfFunction:
    """Build a PerfFunction from (b, c, h, T), deriving a = (pi/2 - c)*e^b."""
    if not (b > 0.0 and c > 0.0 and h > 0.0 and T > 0.0):
        raise ValueError("b, c, h, T must be strictly positive")
    if c >= _HALF_PI:
        raise ValueError(f"terminal accuracy c={c!r} must be below pi/2")
    if b + math.log(_HALF_PI - c) >= math.log(sys.float_info.max):
        raise ValueError(f"b={b!r} is too large: a = (pi/2 - c)*exp(b) overflows")
    return PerfFunction(a=(_HALF_PI - c) * math.exp(b), b=b, c=c, h=h, T=T)


class TransformKind(enum.Enum):
    """The error transformation: the paper's tangent barrier, the only kind.

    Kept so that callers passing ``kind=`` and saved config files holding
    ``transform = symmetric-tan`` keep working.
    """

    SYMMETRIC_TAN = "symmetric-tan"


@dataclass(frozen=True)
class ErrorTransform:
    """Funnel transformation z1 = tan((pi/2) * arctan(e) / eta(t)) and helpers."""

    perf: PerfFunction
    kind: TransformKind = TransformKind.SYMMETRIC_TAN

    # -- forward / inverse ------------------------------------------------

    def transform(self, e: float, t: float) -> float:
        """Map error e to the unconstrained coordinate z1; raises on breach."""
        return self._transform(e, t, self.perf.eta(t))

    @staticmethod
    def _transform(e: float, t: float, eta: float) -> float:
        theta = math.atan(e)
        if abs(theta) >= eta:
            raise FunnelBreachError(t, e, eta)
        return math.tan(_HALF_PI * theta / eta)

    def inverse_transform(self, z1: float, t: float) -> float:
        """Map z1 back to the error; exact inverse of :meth:`transform`."""
        return math.tan(self.perf.eta(t) * math.atan(z1) / _HALF_PI)

    # -- controller auxiliaries ------------------------------------------

    def psi(self, z1: float, t: float) -> float:
        """Sensitivity factor pi*(1 + z1^2) / (2*eta(t)); strictly positive."""
        return math.pi * (1.0 + z1 * z1) / (2.0 * self.perf.eta(t))

    def varphi(self, z1: float, t: float) -> float:
        """cos^2((2/pi)*eta(t)*arctan(z1)), floored at PHI_FLOOR."""
        c = math.cos(2.0 / math.pi * self.perf.eta(t) * math.atan(z1))
        return max(c * c, PHI_FLOOR)
