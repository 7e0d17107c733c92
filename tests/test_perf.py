import dataclasses
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funneldsc.perf import (
    ErrorTransform,
    FunnelBreachError,
    PHI_FLOOR,
    PerfFunction,
    _POLE_GUARD,
)
from oracles import envelope_method

HALF_PI = math.pi / 2.0


def default_perf() -> PerfFunction:
    return PerfFunction(b=0.1, c=0.05, h=1.0, T=0.5)


class TestPerfFunction:
    def test_terminal_construction_solves_initial_constraint(self):
        p = default_perf()
        assert p.a * math.exp(-p.b) + p.c == pytest.approx(HALF_PI, abs=1e-12)
        # reference magnitude for this parameterization
        assert p.a == pytest.approx(1.6807, abs=1e-4)

    def test_terminal_construction_steeper_envelope(self):
        p = PerfFunction(b=0.9, c=0.05, h=1.0, T=0.5)
        assert p.a == pytest.approx((HALF_PI - 0.05) * math.exp(0.9), rel=1e-12)
        assert p.eta(0.0) == pytest.approx(HALF_PI, abs=1e-12)

    def test_initial_value_is_half_pi(self):
        assert default_perf().eta(0.0) == pytest.approx(HALF_PI, abs=1e-12)

    def test_terminal_value_and_freeze(self):
        p = default_perf()
        for t in (p.T, p.T + 1e-9, p.T + 1.0, 100.0):
            assert p.envelope(t) == (p.c, 0.0)

    def test_monotone_decreasing(self):
        p = default_perf()
        ts = [i * p.T / 2000.0 for i in range(2001)]
        vals = [p.eta(t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(p.envelope(t)[1] <= 0.0 for t in ts)

    def test_continuous_junction_at_settling_time(self):
        p = default_perf()
        assert p.eta(p.T * (1.0 - 1e-13)) == pytest.approx(p.c, abs=1e-12)

    def test_eta_dot_matches_central_difference(self):
        p = default_perf()
        h = 1e-7
        for i in range(1, 1000):
            t = i * (p.T * 0.98) / 1000.0
            fd = (p.eta(t + h) - p.eta(t - h)) / (2.0 * h)
            assert p.envelope(t)[1] == pytest.approx(fd, rel=1e-4)

    def test_rejects_nonpositive_parameters(self):
        for kwargs in (dict(b=-0.1), dict(c=0.0), dict(h=0.0), dict(T=0.0)):
            with pytest.raises(ValueError):
                PerfFunction(**{**dict(b=0.1, c=0.05, h=1.0, T=0.5), **kwargs})

    def test_initial_amplitude_is_derived_not_given(self):
        with pytest.raises(TypeError):
            PerfFunction(a=1.6807, b=0.1, c=0.05, h=1.0, T=0.5)
        assert [f.name for f in dataclasses.fields(PerfFunction) if f.init] == ["b", "c", "h", "T"]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(b=1000.0), "b=1000.0 is too large: exp(b) or a = "),
        (dict(b=705.0), "b=705.0 is too large: eta_dot overflows"),
        (dict(h=30.0), "h=30.0 is too large"),
        (dict(T=1e-300), "T=1e-300 is too small"),
        (dict(T=1e300), "T=1e+300 is too large"),
        (dict(c=1.6), "c=1.6 is too large: the terminal accuracy must be below pi/2"),
        # a = (pi/2 - c)*exp(b) would be finite, but exp(b) itself overflows
        (dict(b=710.0, c=1.5), "b=710.0 is too large: exp(b) or a = "),
    ])
    def test_rejects_parameters_the_envelope_cannot_evaluate(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PerfFunction(**{**dict(b=0.9, c=0.05, h=1.0, T=0.5), **kwargs})

    @pytest.mark.parametrize("name", ["b", "c", "h", "T"])
    # an int beyond the floats compares below inf, and b and h overflow in float arithmetic
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, pytest.param(10**400, id="10**400")])
    def test_names_the_failing_parameter(self, name, value):
        kwargs = {**dict(b=0.9, c=0.05, h=1.0, T=0.5), name: value}
        with pytest.raises(ValueError, match=f"^{name}={re.escape(repr(value))} must be strictly positive and finite$"):
            PerfFunction(**kwargs)

    def test_rejects_accuracy_at_half_pi(self):
        with pytest.raises(ValueError):
            PerfFunction(b=0.1, c=HALF_PI, h=1.0, T=0.5)

    @given(
        b=st.floats(min_value=0.0, max_value=700.0, exclude_min=True),
        c=st.floats(min_value=0.0, max_value=HALF_PI, exclude_min=True, exclude_max=True),
    )
    def test_initial_value_is_half_pi_to_two_ulps(self, b, c):
        """a = (pi/2 - c)*exp(b) puts eta(0) = a*exp(-b) + c within 2 ulps
        of pi/2, so only an error whose arctan rounds to pi/2 starts outside."""
        eta0 = PerfFunction(b=b, c=c, h=1.0, T=0.5).eta(0.0)
        assert abs(eta0 - HALF_PI) <= 2.0 * math.ulp(HALF_PI)

    @given(name=st.sampled_from(["b", "c", "h", "T"]), value=st.floats())
    def test_a_rejected_parameter_is_named_first(self, name, value):
        try:
            PerfFunction(**{**dict(b=0.9, c=0.05, h=1.0, T=0.5), name: value})
        except ValueError as exc:
            assert str(exc).startswith(f"{name}={value!r} ")

    @given(st.fixed_dictionaries({
        name: st.one_of(st.floats(), st.floats(min_value=0.0, max_value=1e3, exclude_min=True))
        for name in ("b", "c", "h", "T")
    }))
    def test_every_rejection_starts_with_a_parameter(self, kwargs):
        """Whatever the four values, construction succeeds or raises a
        ValueError that starts with one of them, never another error."""
        try:
            PerfFunction(**kwargs)
        except ValueError as exc:
            assert any(str(exc).startswith(f"{name}={value!r} ") for name, value in kwargs.items())


class TestSymmetricTransform:
    def setup_method(self):
        self.tr = ErrorTransform(perf=default_perf())

    def test_identity_at_start(self):
        # eta(0) = pi/2 collapses the map to z1 = e
        for e in (-500.0, -3.0, -1e-6, 0.0, 0.2, 5.0):
            assert self.tr.transform(e, 0.0) == pytest.approx(e, rel=1e-10, abs=1e-12)

    @given(
        e=st.floats(-1e4, 1e4),
        frac=st.floats(0.0, 0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, e, frac):
        t = frac * 0.5
        eta = self.tr.perf.eta(t)
        if abs(math.atan(e)) >= eta:
            return
        z1 = self.tr.transform(e, t)
        back = math.tan(eta * math.atan(z1) / HALF_PI)
        assert back == pytest.approx(e, rel=1e-10, abs=1e-10)

    def test_roundtrip_after_settling(self):
        t = 2.0
        eta = self.tr.perf.eta(t)
        for e in (-0.04, -0.001, 0.0, 0.02, 0.049):
            z1 = self.tr.transform(e, t)
            assert math.tan(eta * math.atan(z1) / HALF_PI) == pytest.approx(e, rel=1e-10, abs=1e-12)

    def test_breach_raises(self):
        # after settling the funnel only admits |e| < tan(c)
        with pytest.raises(FunnelBreachError) as exc:
            self.tr.transform(0.2, 2.0)
        assert exc.value.t == 2.0
        assert exc.value.e == 0.2
        assert exc.value.eta == self.tr.perf.c

    def test_transform_is_odd_and_increasing(self):
        t = 0.3
        vals = [self.tr.transform(e, t) for e in (-2.0, -0.5, 0.0, 0.5, 2.0)]
        assert vals[2] == 0.0
        assert vals[0] == pytest.approx(-vals[4], rel=1e-12)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_psi_positive_and_exact(self):
        """The kernel's psi = pi*(1 + z1^2) / (2*eta) is positive and is the
        slope of the transform in arctan(e)."""
        t, e = 0.2, 0.9
        eta = self.tr.perf.eta(t)
        z1 = self.tr.transform(e, t)
        psi = math.pi * (1.0 + z1 * z1) / (2.0 * eta)
        h = 1e-7
        fd = (self.tr.transform(math.tan(math.atan(e) + h), t)
              - self.tr.transform(math.tan(math.atan(e) - h), t)) / (2.0 * h)
        assert psi > 0.0
        assert psi == pytest.approx(fd, rel=1e-6)

    def test_varphi_floor(self):
        """The kernel's varphi = cos^2((2/pi)*eta*arctan(z1)), floored at
        PHI_FLOOR, is cos^2(arctan e) = 1/(1 + e^2) inside the funnel."""
        def varphi(z1, t):
            c = math.cos(2.0 / math.pi * self.tr.perf.eta(t) * math.atan(z1))
            return max(c * c, PHI_FLOOR)

        # near-vertical branch: cos^2 collapses, floor takes over
        assert varphi(1e12, 0.0) == PHI_FLOOR
        assert varphi(0.0, 0.0) == pytest.approx(1.0)
        for t, e in ((0.1, 0.8), (0.3, -0.2), (2.0, 0.03)):
            assert varphi(self.tr.transform(e, t), t) == pytest.approx(1.0 / (1.0 + e * e), rel=1e-12)


def direct_envelope(p: PerfFunction, t: float) -> tuple:
    """``(eta, eta_dot)`` with every constant computed where it is used."""
    if t >= p.T - _POLE_GUARD * p.T:
        return p.c, 0.0
    rem = p.T - t
    decay = math.exp(-p.b * (p.T / rem) ** p.h)
    if decay == 0.0:
        return p.c, 0.0
    return p.a * decay + p.c, -p.a * p.b * p.h * p.T**p.h / rem ** (p.h + 1.0) * decay


class TestEnvelopeConstants:
    @pytest.mark.parametrize("b, c, h, T", [
        (0.1, 0.05, 1.0, 0.5), (0.9, 0.2, 2.5, 1.3), (3.0, 0.01, 0.4, 0.07), (0.02, 1.2, 7.0, 40.0),
        # a decay still nonzero at the pole guard
        (0.02, 0.3, 0.2, 2.0),
    ])
    def test_envelope_equals_the_direct_expression(self, b, c, h, T):
        """The constants prepared at construction give the floats the
        direct expression gives, also on a ``dataclasses.replace`` copy."""
        p = PerfFunction(b=b, c=c, h=h, T=T)
        copy = dataclasses.replace(p, T=0.7 * T)
        for q in (p, copy):
            # a grid over [0, 1.2 T], then both sides of the pole guard
            times = [i * 1.2 * q.T / 997 for i in range(998)]
            times += [q.T - f * _POLE_GUARD * q.T for f in (3.0, 1.5, 1.0, 0.5, 0.0)]
            assert [q.envelope(t) for t in times] == [direct_envelope(q, t) for t in times]
        assert copy.envelope(0.5 * T) != p.envelope(0.5 * T)

    def test_pickles_by_its_four_parameters(self):
        p = PerfFunction(b=0.9, c=0.2, h=2.5, T=1.3)
        p.envelope(0.4)  # compiled, and cached on the instance
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.envelope(0.4) == p.envelope(0.4)

    @given(
        b=st.floats(0.01, 5.0), c=st.floats(0.01, 1.5), h=st.floats(0.2, 5.0), T=st.floats(0.05, 50.0),
        # t as a fraction of T over [0, 1.5 T], or in guards from the pole guard
        where=st.one_of(st.floats(0.0, 1.5).map(lambda f: (f, 0.0)), st.floats(0.0, 4.0).map(lambda g: (1.0, g))),
    )
    @settings(max_examples=300, deadline=None)
    def test_envelope_text_equals_the_method_it_was(self, b, c, h, T, where):
        """The compiled envelope text gives the floats of the method it
        replaced (``tests/oracles.py``), sign of zero included."""
        p = PerfFunction(b=b, c=c, h=h, T=T)
        f, g = where
        t = f * T - g * _POLE_GUARD * T
        assert list(map(float.hex, p.envelope(t))) == list(map(float.hex, envelope_method(p, t)))
