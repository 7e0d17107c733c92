"""Prescribed-time performance envelopes and the funnel error transformation.

The envelope ``eta(t)`` shrinks from pi/2 at t=0 to a terminal accuracy ``c``
exactly at a user-chosen settling time ``T``, independently of initial
conditions.  The error transformation maps a tracking error ``e`` constrained
by ``|arctan(e)| < eta(t)`` to an unconstrained variable ``z1``; boundedness
of ``z1`` certifies the funnel bound.  This is the paper's one
transformation.  The controller's auxiliaries ``psi`` and ``varphi`` are
written once, in the control kernel, which reads ``eta`` and ``eta_dot``
as time inputs.

Inputs: the paper's four parameters ``(b, c, h, T)``; a ValueError names
the one to change.  Outputs: the envelope, written once as the statements
:data:`_ENVELOPE` over each :class:`PerfFunction`'s constants (``names``),
compiled as :attr:`PerfFunction.envelope` (``.../perf.py<envelope>``,
counted under this module by profiles) and renamed for ``sim.run``'s loop
by :meth:`PerfFunction.inline_envelope`, uncompiled.  Both forms are the
one text (:mod:`funneldsc.codegen`), so they take the same float
operations in the same order.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

from .codegen import function, inline

__all__ = [
    "FunnelBreachError",
    "PerfFunction",
    "TransformKind",
    "ErrorTransform",
    "PHI_FLOOR",
]

_HALF_PI = math.pi / 2.0

# Fraction of T below which eta/eta_dot switch to the t >= T branch, avoiding
# 0*inf at the pole of the exponent.
_POLE_GUARD = 1e-12

# Floor of the auxiliary varphi, which the controller divides by; it only
# binds in the unreachable limit |z1| -> inf while eta is still near pi/2.
PHI_FLOOR = 1e-12

# eta(t) and eta_dot(t) of one decay: eta_dot is nonpositive and exactly 0
# for t >= T, past the pole guard GUARD = T - _POLE_GUARD*T.  The decay
# underflows to 0 as t -> T, giving a continuous junction.  The other
# constants are A = a, C = c, NEG_B = -b, H = h, H1 = h + 1 and
# PREFACTOR = -a*b*h*T**h (see PerfFunction.names).
_ENVELOPE = """\
if t >= GUARD:
    eta, eta_dot = C, 0.0
else:
    rem = T - t
    decay = exp(NEG_B * (T / rem) ** H)
    if decay == 0.0:
        eta, eta_dot = C, 0.0
    else:
        eta, eta_dot = A * decay + C, PREFACTOR / rem ** H1 * decay
"""


def _real(value) -> bool:
    """Whether ``value`` is a real number and not a bool, which reads as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether the real ``value`` lies within the finite floats; an int
    beyond them is not, where math.isfinite raises OverflowError."""
    return -sys.float_info.max <= value <= sys.float_info.max


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

    Takes the paper's four parameters and derives ``a = (pi/2 - c)*exp(b)``,
    so eta(0) = a*exp(-b) + c is pi/2 to within 2 ulps, whatever the
    initial condition: the tangent-based error transformation accepts every
    initial error whose arctan rounds below pi/2.  A ValueError starts with
    the parameter to change, ``b=``, ``c=``, ``h=`` or ``T=``, also where
    :attr:`envelope` would overflow or underflow.  ``names`` holds the
    derived constants that :data:`_ENVELOPE` reads.
    """

    b: float
    c: float
    h: float
    T: float
    a: float = field(init=False)

    def __post_init__(self):
        for name in ("b", "c", "h", "T"):
            if not _real(value := getattr(self, name)):
                raise ValueError(f"{name}={value!r} must be a real number")
            if not (0.0 < value and _finite(value)):
                raise ValueError(f"{name}={value!r} must be strictly positive and finite")
        # the logs of the extreme normal floats
        big, small = math.log(sys.float_info.max), math.log(sys.float_info.min)
        if self.c >= _HALF_PI:
            raise ValueError(f"c={self.c!r} is too large: the terminal accuracy must be below pi/2")
        if self.b + max(0.0, math.log(_HALF_PI - self.c)) >= big:
            raise ValueError(f"b={self.b!r} is too large: exp(b) or a = (pi/2 - c)*exp(b) overflows")
        object.__setattr__(self, "a", (_HALF_PI - self.c) * math.exp(self.b))
        # In logs: q = T/(T - t) runs from 1 to 1/_POLE_GUARD, and eta_dot is
        # computed only while the decay exp(-b q^h) is nonzero, b q^h < 745.2,
        # up to q = live; each power must stay a finite, normal float there,
        # between ``small`` and ``big``.
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
        # the envelope's constants, each by the expression it once evaluated per call
        object.__setattr__(self, "names", MappingProxyType({
            "GUARD": self.T - _POLE_GUARD * self.T, "T": self.T, "NEG_B": -self.b, "H": self.h,
            "PREFACTOR": -self.a * self.b * self.h * self.T**self.h, "H1": self.h + 1.0, "A": self.a, "C": self.c,
            "exp": math.exp,
        }))

    def __reduce__(self):
        # the four parameters; the derived constants and the compiled envelope are rebuilt
        return PerfFunction, (self.b, self.c, self.h, self.T)

    @functools.cached_property
    def envelope(self):
        """``envelope(t)``: ``(eta(t), eta_dot(t))`` by :data:`_ENVELOPE`."""
        return function("envelope", "t", _ENVELOPE, "eta, eta_dot", f"{__file__}<envelope>", self.names)

    def inline_envelope(self, tag: str, t: str, outputs):
        """``(statements, namespace)``: :data:`_ENVELOPE` at indentation 0
        on the caller's local ``t``, assigning eta and eta_dot to the names
        in ``outputs``; every other local ``v`` is renamed ``v__<tag>``.
        The namespace holds its constants, each name prefixed with
        ``env_``."""
        eta, eta_dot = outputs
        return inline(_ENVELOPE, {"t": t, "eta": eta, "eta_dot": eta_dot}, tag, self.names, "env_")

    def eta(self, t: float) -> float:
        """Envelope value at time t >= 0."""
        return self.envelope(t)[0]


class TransformKind(enum.Enum):
    """The error transformation: the paper's tangent barrier, the only kind.

    Kept so that callers passing ``kind=`` and saved config files holding
    ``transform = symmetric-tan`` keep working.
    """

    SYMMETRIC_TAN = "symmetric-tan"


@dataclass(frozen=True)
class ErrorTransform:
    """Funnel transformation z1 = tan((pi/2) * arctan(e) / eta(t))."""

    perf: PerfFunction
    kind: TransformKind = TransformKind.SYMMETRIC_TAN

    def __post_init__(self):
        if not isinstance(self.kind, TransformKind):
            raise ValueError(f"kind must be a TransformKind, got {self.kind!r}")

    def transform(self, e: float, t: float) -> float:
        """Map error e to the unconstrained coordinate z1; raises on breach."""
        eta = self.perf.eta(t)
        theta = math.atan(e)
        if abs(theta) >= eta:
            raise FunnelBreachError(t, e, eta)
        return math.tan(_HALF_PI * theta / eta)
