import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funneldsc.perf import (
    ErrorTransform,
    FunnelBreachError,
    PHI_FLOOR,
    PerfFunction,
    perf_from_terminal,
)

HALF_PI = math.pi / 2.0


def default_perf() -> PerfFunction:
    return perf_from_terminal(b=0.1, c=0.05, h=1.0, T=0.5)


class TestPerfFunction:
    def test_terminal_construction_solves_initial_constraint(self):
        p = default_perf()
        assert p.a * math.exp(-p.b) + p.c == pytest.approx(HALF_PI, abs=1e-12)
        # reference magnitude for this parameterization
        assert p.a == pytest.approx(1.6807, abs=1e-4)

    def test_terminal_construction_steeper_envelope(self):
        p = perf_from_terminal(b=0.9, c=0.05, h=1.0, T=0.5)
        assert p.a == pytest.approx((HALF_PI - 0.05) * math.exp(0.9), rel=1e-12)
        assert p.eta(0.0) == pytest.approx(HALF_PI, abs=1e-12)

    def test_initial_value_is_half_pi(self):
        assert default_perf().eta(0.0) == pytest.approx(HALF_PI, abs=1e-12)

    def test_terminal_value_and_freeze(self):
        p = default_perf()
        for t in (p.T, p.T + 1e-9, p.T + 1.0, 100.0):
            assert p.eta(t) == p.c
            assert p.eta_dot(t) == 0.0

    def test_monotone_decreasing(self):
        p = default_perf()
        ts = [i * p.T / 2000.0 for i in range(2001)]
        vals = [p.eta(t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(p.eta_dot(t) <= 0.0 for t in ts)

    def test_continuous_junction_at_settling_time(self):
        p = default_perf()
        assert p.eta(p.T * (1.0 - 1e-13)) == pytest.approx(p.c, abs=1e-12)

    def test_eta_dot_matches_central_difference(self):
        p = default_perf()
        h = 1e-7
        for i in range(1, 1000):
            t = i * (p.T * 0.98) / 1000.0
            fd = (p.eta(t + h) - p.eta(t - h)) / (2.0 * h)
            assert p.eta_dot(t) == pytest.approx(fd, rel=1e-4)

    def test_rejects_nonpositive_parameters(self):
        for kwargs in (
            dict(a=0.0, b=0.1, c=0.05, h=1.0, T=0.5),
            dict(a=1.6807, b=-0.1, c=0.05, h=1.0, T=0.5),
            dict(a=1.6807, b=0.1, c=0.0, h=1.0, T=0.5),
            dict(a=1.6807, b=0.1, c=0.05, h=0.0, T=0.5),
            dict(a=1.6807, b=0.1, c=0.05, h=1.0, T=0.0),
        ):
            with pytest.raises(ValueError):
                PerfFunction(**kwargs)

    def test_rejects_inconsistent_initial_value(self):
        with pytest.raises(ValueError, match="pi/2"):
            PerfFunction(a=1.0, b=0.1, c=0.05, h=1.0, T=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(b=1000.0), "b=1000.0 is too large: a = "),
        (dict(b=705.0), "b=705.0 is too large: eta_dot overflows"),
        (dict(h=30.0), "h=30.0 is too large"),
        (dict(T=1e-300), "T=1e-300 is too small"),
        (dict(T=1e300), "T=1e+300 is too large"),
    ])
    def test_rejects_parameters_the_envelope_cannot_evaluate(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            perf_from_terminal(**{**dict(b=0.9, c=0.05, h=1.0, T=0.5), **kwargs})

    def test_terminal_helper_rejects_large_accuracy(self):
        with pytest.raises(ValueError):
            perf_from_terminal(b=0.1, c=HALF_PI, h=1.0, T=0.5)


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
        back = self.tr.inverse_transform(z1, t)
        assert back == pytest.approx(e, rel=1e-10, abs=1e-10)

    def test_roundtrip_after_settling(self):
        t = 2.0
        for e in (-0.04, -0.001, 0.0, 0.02, 0.049):
            z1 = self.tr.transform(e, t)
            assert self.tr.inverse_transform(z1, t) == pytest.approx(e, rel=1e-10, abs=1e-12)

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
        t, z1 = 0.2, 1.7
        expected = math.pi * (1.0 + z1 * z1) / (2.0 * self.tr.perf.eta(t))
        assert self.tr.psi(z1, t) == pytest.approx(expected, rel=1e-12)
        assert self.tr.psi(0.0, t) > 0.0

    def test_varphi_floor(self):
        tr = ErrorTransform(perf=default_perf())
        # near-vertical branch: cos^2 collapses, floor takes over
        assert tr.varphi(1e12, 0.0) == PHI_FLOOR
        assert tr.varphi(0.0, 0.0) == pytest.approx(1.0)
