import functools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funneldsc import sim
from funneldsc.cli import build_problem
from funneldsc.config import electromechanical_preset, single_link_preset
from funneldsc.controller import (
    ControlMode,
    ControllerChain,
    ControllerState,
    StageGains,
)
from funneldsc.fuzzy import AdaptiveWeights
from funneldsc.perf import PHI_FLOOR, ErrorTransform, FunnelBreachError, PerfFunction
from funneldsc.plants import (
    electromechanical_reference,
    make_electromechanical,
    make_single_link,
    single_link_reference,
)
from oracles import distinct_chain, indexed_kernel, oracle_at, oracle_run, reference_derivative, settled_filters, zeta


def em_chain(mode=ControlMode.FUZZY, **kwargs) -> ControllerChain:
    cfg = electromechanical_preset(mode=mode)
    perf = PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
    return ControllerChain(
        bounds=make_electromechanical().bounds(),
        gains=cfg.gains,
        transform=ErrorTransform(perf=perf),
        reference=electromechanical_reference(),
        mode=mode,
        **kwargs,
    )


def sl_chain(mode=ControlMode.APPROX_FREE, **kwargs) -> ControllerChain:
    cfg = single_link_preset(mode=mode)
    perf = PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
    return ControllerChain(
        bounds=make_single_link().bounds(),
        gains=cfg.gains,
        transform=ErrorTransform(perf=perf),
        reference=single_link_reference(),
        mode=mode,
        **kwargs,
    )


class TestHelpers:
    def test_zeta_at_zero(self):
        assert zeta(0.0, varrho=10.0) == 1.0  # sign(0) = 0 keeps only 1/(1+z^2)

    @given(z=st.floats(-1e6, 1e6), varrho=st.floats(1.0 + 1e-9, 100.0))
    @settings(max_examples=300, deadline=None)
    def test_zeta_never_vanishes(self, z, varrho):
        v = zeta(z, varrho)
        assert v != 0.0
        if z != 0.0:
            # bounded away from zero by the sign offset
            assert abs(v) >= varrho - 1.0 - 1e-12
            assert math.copysign(1.0, v) == math.copysign(1.0, z) or abs(z) < 1e-150

    def test_zeta_smoothing(self):
        hard = zeta(0.5, 10.0)
        soft = zeta(0.5, 10.0, smoothing=1.0)
        assert soft < hard
        assert soft == pytest.approx(1.0 / 1.25 + 10.0 * math.tanh(0.5))

    @given(
        s=st.floats(-1e8, 1e8, allow_nan=False),
        guard=st.floats(1e-6, 1e6, allow_nan=False),
    )
    @settings(max_examples=500, deadline=None)
    def test_saturation_bound(self, s, guard):
        # the kernel's saturated term s^2 / sqrt(s^2 + guard^2)
        slack = abs(s) - s * s / math.sqrt(s * s + guard * guard)
        # rounding noise of the subtraction scales with |s|
        tol = 1e-12 + 4.0 * abs(s) * 1e-16
        assert -tol <= slack <= guard + tol

class TestStageGains:
    def test_rejects_nonpositive_core_gains(self):
        with pytest.raises(ValueError):
            StageGains(delta=0.0, sigma=1.0, varpi=1.0, mu=1.0)

    def test_rejects_varrho_at_most_one(self):
        with pytest.raises(ValueError):
            StageGains(delta=1.0, sigma=1.0, varpi=1.0, mu=1.0, varrho=1.0, rho=1.0, tau=1.0, lam=1.0)

    @pytest.mark.parametrize("name", ["delta", "sigma", "varpi", "mu", "rho", "tau", "varrho", "lam"])
    # 1e300 is finite, but its square is not; 1e-200 squares to 0; float()
    # of an int beyond the floats overflows
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e300, 1e-200, pytest.param(10**400, id="10**400")])
    def test_rejects_non_finite_gains(self, name, value):
        gains = dict(delta=1.0, sigma=1.0, varpi=1.0, mu=1.0, rho=1.0, tau=1.0, varrho=2.0, lam=1.0)
        StageGains(**gains)
        with pytest.raises(ValueError, match=f"StageGains.{name} must .* and be finite"):
            StageGains(**{**gains, name: value})

    @pytest.mark.parametrize("name", ["delta", "sigma", "varpi", "mu", "rho", "tau", "varrho", "lam"])
    @pytest.mark.parametrize("value", [True, "1e6"])
    def test_rejects_a_bool_or_a_string_naming_it(self, name, value):
        """``delta=True`` was taken as 1, and ``delta="1e6"`` raised a bare
        TypeError."""
        gains = dict(delta=1.0, sigma=1.0, varpi=1.0, mu=1.0, rho=1.0, tau=1.0, varrho=2.0, lam=1.0)
        with pytest.raises(ValueError, match=f"^StageGains.{name} must be a real number, got {value!r}$"):
            StageGains(**{**gains, name: value})

    def test_rejects_lam_whose_reciprocal_overflows(self):
        with pytest.raises(ValueError, match="StageGains.lam must .* also squared and inverted, got 1e-320"):
            StageGains(delta=1.0, sigma=1.0, varpi=1.0, mu=1.0, rho=1.0, tau=1.0, varrho=2.0, lam=1e-320)


class TestChainConstruction:
    def test_requires_order_two(self):
        cfg = single_link_preset()
        perf = PerfFunction(b=0.9, c=0.05, h=1.0, T=0.5)
        from funneldsc.plants import PlantBounds

        bad = PlantBounds(n=1, gain_lower=(0.5,), gain_upper=(10.0,), lipschitz_rate=(1.0,))
        with pytest.raises(ValueError):
            ControllerChain(
                bounds=bad, gains=cfg.gains[:1], transform=ErrorTransform(perf=perf),
                reference=single_link_reference(),
            )

    def test_requires_filter_gains_beyond_stage_one(self):
        cfg = single_link_preset()
        perf = PerfFunction(b=0.9, c=0.05, h=1.0, T=0.5)
        incomplete = (cfg.gains[0], cfg.gains[0])  # stage-2 block missing rho/tau/varrho/lam
        with pytest.raises(ValueError):
            ControllerChain(
                bounds=make_single_link().bounds(), gains=incomplete,
                transform=ErrorTransform(perf=perf), reference=single_link_reference(),
            )

    def test_requires_one_gain_set_per_stage(self):
        cfg = single_link_preset()
        perf = PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
        with pytest.raises(ValueError, match="^need one StageGains per plant stage$"):
            ControllerChain(
                bounds=make_single_link().bounds(), gains=cfg.gains[:1],
                transform=ErrorTransform(perf=perf), reference=single_link_reference(),
            )

    @pytest.mark.parametrize("mode", ["fuzzy", "approx-free", None])
    def test_rejects_a_mode_that_is_not_a_control_mode(self, mode):
        """A mode that is not a ControlMode selected the approximator-free law."""
        cfg = single_link_preset()
        perf = PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
        with pytest.raises(ValueError, match="^mode must be a ControlMode"):
            ControllerChain(
                bounds=make_single_link().bounds(), gains=cfg.gains,
                transform=ErrorTransform(perf=perf), reference=single_link_reference(), mode=mode,
            )

    def test_rejects_negative_smoothing(self):
        with pytest.raises(ValueError):
            sl_chain(sign_smoothing=-1.0)

    # an int beyond the floats compares below inf
    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
    def test_rejects_non_finite_smoothing(self, smoothing):
        with pytest.raises(ValueError, match="^sign_smoothing must be nonnegative and finite$"):
            sl_chain(sign_smoothing=smoothing)

    @pytest.mark.parametrize("smoothing", [True, "0.1"])
    def test_rejects_a_bool_or_a_string_smoothing(self, smoothing):
        """``True`` ran tanh(z / True), and ``"0.1"`` raised a bare TypeError."""
        with pytest.raises(ValueError, match=f"^sign_smoothing must be a real number, got {smoothing!r}$"):
            sl_chain(sign_smoothing=smoothing)


class TestInitialization:
    @pytest.mark.parametrize(
        "chain,x0",
        [
            (em_chain(), (5.0, 3.0, 2.0)),
            (em_chain(mode=ControlMode.APPROX_FREE), (5.0, 3.0, 2.0)),
            (sl_chain(), (0.0, 0.0)),
            # every constant differs per stage
            *((distinct_chain(n, mode, 0.0), (0.8, 0.3, -0.2, 0.1)[:n])
              for n in (2, 3, 4) for mode in (ControlMode.FUZZY, ControlMode.APPROX_FREE)),
        ],
    )
    def test_filters_start_on_their_virtual_controls(self, chain, x0):
        """Each filter is the oracle's front-to-back settle at t = 0 (zero
        drift estimates in fuzzy mode, the regressor energy at t = 0 in
        approximator-free mode) and the virtual control it tracks there."""
        state = chain.init_state(x0)
        assert state.filter_states == settled_filters(chain, x0)
        assert state.filter_states == oracle_at(chain, list(x0), state, 0.0).alpha

    def test_fuzzy_weights_start_at_zero(self):
        state = em_chain().init_state((5.0, 3.0, 2.0))
        assert len(state.theta_hat) == 3
        for w in state.theta_hat:
            assert not w.theta_hat.any()

    def test_approx_free_has_no_weights(self):
        state = sl_chain().init_state((0.0, 0.0))
        assert state.theta_hat == []


def random_state(chain, rng, t=0.0):
    n = chain.bounds.n
    x = list(rng.uniform(-2.0, 2.0, n))
    # place the output error safely inside the funnel at time t
    eta = chain.transform.perf.eta(t)
    x[0] = chain.reference.value(t) + math.tan(0.8 * eta * rng.uniform(-1.0, 1.0))
    s = list(rng.uniform(-3.0, 3.0, n - 1))
    if chain.mode is ControlMode.FUZZY:
        theta = [AdaptiveWeights(rng.uniform(-1.0, 1.0, chain.grid.m)) for _ in range(n)]
    else:
        theta = []
    return x, ControllerState(theta_hat=theta, filter_states=s)


class TestStageFormulas:
    def test_first_virtual_control_oracle(self):
        chain = em_chain()
        rng = np.random.default_rng(3)
        t = 0.21
        x, state = random_state(chain, rng, t)
        signals = oracle_at(chain, x, state, t)

        tr = chain.transform
        g = chain.gains[0]
        g_lo = chain.bounds.gain_lower[0]
        y_r = chain.reference.value(t)
        e = x[0] - y_r
        z1 = tr.transform(e, t)
        eta, eta_dot = tr.perf.envelope(t)
        psi = math.pi * (1.0 + z1 * z1) / (2.0 * eta)
        phi = max(math.cos(2.0 / math.pi * eta * math.atan(z1)) ** 2, PHI_FLOOR)
        w = z1 * phi * psi
        basis = chain.grid.basis(y_r)
        beta1 = (
            float(basis @ state.theta_hat[0].theta_hat)
            - reference_derivative(chain.reference)(t)
            - 2.0 / (math.pi * phi) * eta_dot * math.atan(z1)
        )
        chi1 = 1.0 * abs(e)
        expected = (
            -w * beta1**2 / (g_lo * math.sqrt((w * beta1) ** 2 + g.delta**2))
            - w * chi1**2 / (g_lo * math.sqrt((w * chi1) ** 2 + g.sigma**2))
            - w / g_lo
            - g.varpi * z1 / (2.0 * g_lo * phi * psi)
        )
        assert signals.alpha[0] == pytest.approx(expected, rel=1e-10)
        assert signals.beta[0] == pytest.approx(beta1, rel=1e-10)
        assert signals.chi[0] == pytest.approx(chi1, rel=1e-12)

    def test_surface_and_coupling_signals(self):
        chain = em_chain()
        rng = np.random.default_rng(11)
        t = 0.1
        x, state = random_state(chain, rng, t)
        sig = oracle_at(chain, x, state, t)
        g_hi = chain.bounds.gain_upper

        for i in (2, 3):
            assert sig.z[i - 1] == pytest.approx(x[i - 1] - state.filter_states[i - 2])
            assert sig.r[i - 2] == pytest.approx(state.filter_states[i - 2] - sig.alpha[i - 2])
            assert sig.zeta_vals[i - 2] == pytest.approx(
                zeta(sig.z[i - 1], chain.gains[i - 1].varrho)
            )
        coupling2 = g_hi[0] * sig.varphi * sig.psi * abs(sig.z[0])
        assert sig.gamma[0] == pytest.approx(
            coupling2 * abs(sig.z[1]) / sig.zeta_vals[0], rel=1e-10
        )
        assert sig.xi[0] == pytest.approx(
            coupling2 * abs(sig.r[0]) / sig.zeta_vals[0], rel=1e-10
        )
        coupling3 = g_hi[1] * abs(sig.zeta_vals[0])
        assert sig.gamma[1] == pytest.approx(
            coupling3 * abs(sig.z[2]) / sig.zeta_vals[1], rel=1e-10
        )

    def test_control_input_oracle(self):
        chain = em_chain()
        rng = np.random.default_rng(5)
        t = 0.33
        x, state = random_state(chain, rng, t)
        sig = oracle_at(chain, x, state, t)
        g = chain.gains[2]
        g_lo = chain.bounds.gain_lower[2]
        zt = sig.zeta_vals[1]
        beta, chi, gamma, xi = sig.beta[2], sig.chi[2], sig.gamma[1], sig.xi[1]
        z3 = sig.z[2]
        expected = -(
            zt * beta**2 / (g_lo * math.sqrt((zt * beta) ** 2 + g.delta**2))
            + zt * chi**2 / (g_lo * math.sqrt((zt * chi) ** 2 + g.sigma**2))
            + zt * gamma**2 / (g_lo * math.sqrt((zt * gamma) ** 2 + g.rho**2))
            + zt * xi**2 / (g_lo * math.sqrt((zt * gamma) ** 2 + g.tau**2))
            + g.varpi * (math.atan(z3) + g.varrho * abs(z3)) / (g_lo * zt)
            + zt / g_lo
        )
        assert sig.u == pytest.approx(expected, rel=1e-10)

    def test_approx_free_replaces_estimates_with_energy_damping(self):
        chain = sl_chain()
        x, state = (3.34, 0.1), chain.init_state((3.34, 0.1))
        t = 0.05
        sig = oracle_at(chain, list(x), state, t)
        basis = chain.grid.basis(chain.reference.value(t))
        assert_energy_damping(chain, sig, state, t, (basis * basis).sum())

    def test_approx_free_kernel_uses_the_energy_it_is_given(self):
        chain = sl_chain()
        x, state = (3.34, 0.1), chain.init_state((3.34, 0.1))
        t = 0.05
        inputs = chain.time_inputs(t)
        sig = indexed_kernel(chain, list(x), state.filter_states, 0.37, inputs)
        assert chain.kernel(list(x), state.filter_states, 0.37, inputs) == sig[:3]
        assert_energy_damping(chain, sig, state, t, 0.37)


def assert_energy_damping(chain, sig, state, t, energy):
    """beta_1 and beta_2 of an approximator-free evaluation with regressor
    energy ``energy`` in place of the drift estimates."""
    w = sig.z[0] * sig.varphi * sig.psi
    beta1_expected = (
        w * energy
        - reference_derivative(chain.reference)(t)
        - 2.0 / (math.pi * sig.varphi) * chain.transform.perf.envelope(t)[1] * math.atan(sig.z[0])
    )
    assert sig.beta[0] == pytest.approx(beta1_expected, rel=1e-10)
    beta2_expected = sig.zeta_vals[0] * energy - (
        sig.alpha[0] - state.filter_states[0]
    ) / chain.gains[1].lam
    assert sig.beta[1] == pytest.approx(beta2_expected, rel=1e-8)


class TestStageConstants:
    """Each stage reads its own gains, bounds and rates: the kernel equals,
    float for float, an oracle that indexes every constant where it is used,
    on a plant whose stages share no constant."""

    @staticmethod
    def cases(test):
        """n = 2, 3, 4 in both modes, with and without sign smoothing."""
        test = pytest.mark.parametrize("smoothing", [0.0, 0.05])(test)
        test = pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])(test)
        return pytest.mark.parametrize("n", [2, 3, 4])(test)

    @staticmethod
    def samples(chain):
        """``(t, x, s, drifts, inputs)`` at four times, the output error
        inside the funnel; at t = 0.37 the last surface is zero."""
        n = chain.bounds.n
        rng = np.random.default_rng(n)
        for t in (0.0, 0.13, 0.37, 0.8):
            inputs = chain.time_inputs(t)
            e = math.tan(0.7 * inputs[3] * rng.uniform(-1.0, 1.0))
            x = [inputs[1] + e, *rng.uniform(-2.0, 2.0, n - 1).tolist()]
            s = rng.uniform(-3.0, 3.0, n - 1).tolist()
            # a zero surface takes the sign(0) = 0 branch
            if t == 0.37:
                s[-1] = x[-1]
            if chain.mode is ControlMode.FUZZY:
                drifts = rng.uniform(-1.0, 1.0, n).tolist()
            else:
                drifts = float(rng.uniform(0.1, 2.0))
            yield t, x, s, drifts, inputs

    @cases
    def test_kernel_equals_the_indexed_oracle(self, n, mode, smoothing):
        chain = distinct_chain(n, mode, smoothing)
        for _, x, s, drifts, inputs in self.samples(chain):
            assert chain.kernel(x, s, drifts, inputs) == indexed_kernel(chain, x, s, drifts, inputs)[:3]

    @cases
    def test_oracle_signals_follow_the_transform_and_surfaces(self, n, mode, smoothing):
        """The oracle's signals that the kernel does not return (the
        recorder and stage-formula tests read them) equal, float for float,
        the error transformation's, the performance function's and the
        surface definitions' values, on every stage of a distinct chain."""
        chain = distinct_chain(n, mode, smoothing)
        tr, ref = chain.transform, chain.reference
        for t, x, s, drifts, inputs in self.samples(chain):
            assert inputs == (t, ref.value(t), reference_derivative(ref)(t), *tr.perf.envelope(t))
            sig = indexed_kernel(chain, x, s, drifts, inputs)
            assert (sig.e, sig.eta) == (x[0] - ref.value(t), tr.perf.eta(t))
            z1 = tr.transform(sig.e, t)
            eta = tr.perf.eta(t)
            cphi = math.cos(2.0 / math.pi * eta * math.atan(z1))
            psi = math.pi * (1.0 + z1 * z1) / (2.0 * eta)
            assert (sig.z[0], sig.psi, sig.varphi) == (z1, psi, max(cphi * cphi, PHI_FLOOR))
            assert sig.z[1:] == [xi - si for xi, si in zip(x[1:], s)]
            assert sig.r == [si - a for si, a in zip(s, sig.alpha)]
            assert sig.zeta_vals == [
                zeta(z, g.varrho, smoothing) for z, g in zip(sig.z[1:], chain.gains[1:])
            ]
            w = sig.z[0] * sig.varphi * sig.psi
            assert sig.drives == ([w, *sig.zeta_vals] if mode is ControlMode.FUZZY else None)
            assert len(sig.alpha) == len(sig.r) == n - 1


def breach_of(fn, *args):
    """``(t, e, eta)`` of the FunnelBreachError that ``fn(*args)`` raises, else None."""
    try:
        fn(*args)
    except FunnelBreachError as br:
        return br.t, br.e, br.eta
    return None


def outcome(fn, *args):
    """``(u, alpha, drives)`` of a kernel call, or OverflowError if it overflows."""
    try:
        return fn(*args)[:3]
    except OverflowError:
        return OverflowError


class TestCompiledKernelRaises:
    """The compiled kernel raises where the error transformation and the
    indexed oracle raise, with the same arguments."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])
    def test_breach_parity(self, n, mode):
        chain = distinct_chain(n, mode, 0.0)
        rng = np.random.default_rng(n)
        s = rng.uniform(-3.0, 3.0, n - 1).tolist()
        drifts = rng.uniform(-1.0, 1.0, n).tolist() if mode is ControlMode.FUZZY else 0.5
        breaches = 0
        for t in (0.0, 0.13, 0.8):
            _, y_r, dy_r, eta, eta_dot = chain.time_inputs(t)
            cases = [(target, eta) for target in (1e300, -1e300, math.inf, 2.0 * math.tan(eta), -2.0 * math.tan(eta))]
            # |arctan e| == eta breaches, and one ulp of eta either way decides it
            for target in (0.7, -3.0):
                bound = abs(math.atan(y_r + target - y_r))
                cases += [(target, bound), (target, math.nextafter(bound, 0.0)), (target, math.nextafter(bound, 2.0))]
            for target, bound in cases:
                x = [y_r + target, *rng.uniform(-2.0, 2.0, n - 1).tolist()]
                e, inputs = x[0] - y_r, (t, y_r, dy_r, bound, eta_dot)
                # the transform's rule: |arctan e| >= eta breaches
                want = (t, e, bound) if abs(math.atan(e)) >= bound else None
                if want is None:  # inside the funnel, if only by an ulp
                    assert outcome(chain.kernel, x, s, drifts, inputs) == outcome(
                        functools.partial(indexed_kernel, chain), x, s, drifts, inputs)
                else:
                    assert breach_of(chain.kernel, x, s, drifts, inputs) == want
                    breaches += 1
        assert breaches == 3 * 5 + 2 * 3 * 2

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])
    def test_overflow_of_the_stage_one_square(self, mode):
        """A stage-1 product ``w * beta1`` past 1.34e154 raises OverflowError
        at its ``** 2``, as the oracle's does, and the traceback shows the
        generated line, with stage 1's constants as the literals the kernel
        was compiled with."""
        chain = distinct_chain(3, mode, 0.0)
        t, y_r, _, eta, eta_dot = chain.time_inputs(0.13)
        x, s = [y_r + 0.5, 0.3, -0.2], [0.1, 0.4]
        drifts = [0.2, -0.1, 0.3] if mode is ControlMode.FUZZY else 0.5
        inputs = (t, y_r, 1e160, eta, eta_dot)
        with pytest.raises(OverflowError):
            indexed_kernel(chain, x, s, drifts, inputs)
        with pytest.raises(OverflowError) as err:
            chain.kernel(x, s, drifts, inputs)
        frame = err.traceback[-1]
        assert frame.name == "kernel" and "<kernel n=3" in str(frame.path)
        lo1, delta2_1 = chain.bounds.gain_lower[0], chain.gains[0].delta ** 2
        assert f"-wb * beta1 / ({lo1!r} * sqrt(wb ** 2 + {delta2_1!r}))" in str(frame.statement)


class TestAdaptiveLaw:
    def test_drives_per_stage(self):
        chain = em_chain()
        rng = np.random.default_rng(13)
        t = 0.15
        x, state = random_state(chain, rng, t)
        sig = oracle_at(chain, x, state, t)
        u, alpha, theta_dot = chain.evaluate(x, state, t)
        assert (u, alpha) == (sig.u, sig.alpha)
        basis = chain.grid.basis(chain.reference.value(t))
        drives = [sig.z[0] * sig.varphi * sig.psi, sig.zeta_vals[0], sig.zeta_vals[1]]
        for i, g in enumerate(chain.gains):
            expected = -g.varpi * state.theta_hat[i].theta_hat + g.mu * drives[i] * basis
            np.testing.assert_allclose(theta_dot[i], expected, rtol=1e-10, atol=1e-12)


class TestBasisBlocks:
    """``run()`` tabulates the half-step grid i*dt/2 in blocks of
    ``sim.BASIS_BLOCK`` rows plus two rows of overlap through
    ``tabulate_basis``, and step k reads rows 2k..2k+2; every row is the
    basis at its grid time."""

    BLOCK = 6
    DT = 1e-5

    def record_run(self, monkeypatch, n_steps):
        """The multi-time ``tabulate_basis`` calls of an em fuzzy run with
        ``sim.BASIS_BLOCK = BLOCK``, as (times, block) pairs, and the run's
        reads of the blocks' basis rows as (rows, key) pairs: each block's
        rows log every index the run takes of them.  The run tabulates
        every block into one set of buffers, so each block's rows are
        copied as they are tabulated, and the run reads the copy."""
        monkeypatch.setattr(sim, "BASIS_BLOCK", self.BLOCK)
        blocks, reads = [], []
        tabulate = ControllerChain.tabulate_basis

        class Logged(np.ndarray):
            def __getitem__(self, key):
                reads.append((self, key))
                return np.asarray(np.ndarray.__getitem__(self, key))

        def tabulated(chain, times, buffers=None):
            block = tabulate(chain, times, buffers)
            if len(times) > 1:  # not a read of init_state or evaluate
                block = (block[0].copy().view(Logged), *block[1:])
                blocks.append((list(times), block))
            return block

        monkeypatch.setattr(ControllerChain, "tabulate_basis", tabulated)
        cfg = replace(electromechanical_preset(), dt=self.DT, t_end=n_steps * self.DT, record_every=n_steps)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        _, report = sim.run(plant, reference, cfg.gains, perf, sim_cfg)
        assert report.transient_ok
        return blocks, reads

    @staticmethod
    def check_rows(rows, times, energies=None):
        chain = em_chain()
        for j, t in enumerate(times):
            y_r = chain.reference.value(t)
            np.testing.assert_allclose(rows[j], chain.grid.basis(y_r), rtol=1e-12, atol=1e-300)
            if energies is not None:
                basis = chain.grid.basis(y_r)
                assert energies[j] == pytest.approx((basis * basis).sum(), rel=1e-12)

    def test_rows_match_direct_evaluation_across_a_block_boundary(self, monkeypatch):
        n_steps = 10  # half-step rows 0 .. 2 * n_steps + 2
        h = 0.5 * self.DT
        blocks, reads = self.record_run(monkeypatch, n_steps)
        firsts = list(range(0, 2 * n_steps + 1, self.BLOCK))
        assert [times for times, _ in blocks] == [
            [i * h for i in range(first, first + self.BLOCK + 2)] for first in firsts]
        for times, (rows, energies, _, _) in blocks:
            self.check_rows(np.asarray(rows), times, energies)
        # consecutive blocks share their two rows of overlap
        for (_, before), (_, after) in zip(blocks, blocks[1:]):
            np.testing.assert_array_equal(np.asarray(before[0])[-2:], np.asarray(after[0])[:2])
        # sample k reads its three rows 2k..2k+2 from the block that holds row 2k
        assert len(reads) == n_steps + 1
        for k, (rows, key) in enumerate(reads):
            t, row = k * self.DT, 2 * k % self.BLOCK
            times, block = blocks[2 * k // self.BLOCK]
            assert rows is block[0] and key == slice(row, row + 3) and times[row] == 2 * k * h
            self.check_rows(np.asarray(rows)[key], [t, t + h, t + self.DT])

    def test_last_half_steps_of_a_run_off_the_block_size(self, monkeypatch):
        n_steps = 10
        assert (2 * n_steps + 1) % self.BLOCK != 0
        h = 0.5 * self.DT
        blocks, reads = self.record_run(monkeypatch, n_steps)
        times, (rows, energies, _, _) = blocks[-1]
        # the last stage time and the closing sample sit in the last block
        last = [(2 * n_steps - 1) * h, 2 * n_steps * h]
        assert set(last) <= set(times)
        self.check_rows(np.asarray(rows), times, energies)
        read, key = reads[-1]
        assert read is rows and times[key.start] == 2 * n_steps * h

    def test_steps_reading_a_blocks_overlap_equal_the_oracle(self, monkeypatch):
        """Step k reads rows 2k..2k+2 of its block, so the step from row
        BLOCK - 2 reads a row of the block's overlap.  Its rows, energies,
        Gram products and projections feed every float of the run, which
        equals the oracle loop, whose steps tabulate their own three rows;
        the weights' rows differ after the first step, so a transposed
        projection would show."""
        monkeypatch.setattr(sim, "BASIS_BLOCK", self.BLOCK)
        cfg = replace(electromechanical_preset(), dt=self.DT, t_end=20 * self.DT, record_every=1)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, report = sim.run(plant, reference, cfg.gains, perf, sim_cfg)
        rows, breach, want, _ = oracle_run(plant, em_chain(), sim_cfg)
        assert traj.data.tolist() == rows and breach is None
        assert report == want
        norms = traj.column("theta_norm1")
        assert len(set(norms.tolist())) == len(norms)

    def test_off_grid_times_use_the_direct_path(self, monkeypatch):
        chain = em_chain()
        calls = []
        tabulate = ControllerChain.tabulate_basis

        def counted(chain, times):
            calls.append(list(times))
            return tabulate(chain, times)

        monkeypatch.setattr(ControllerChain, "tabulate_basis", counted)
        x0 = [3.0, 0.5, 0.2]
        state = chain.init_state(x0)
        assert calls == []  # zero weights project to 0.0 without a basis read
        t, dt = 0.25e-3, 2e-3
        calls.clear()
        chain.evaluate(x0, state, t)
        theta = np.array([w.theta_hat for w in state.theta_hat])
        sim.step(make_electromechanical(), chain, (x0, list(state.filter_states), theta), t, dt)
        # evaluate reads t; a standalone step reads t, t+dt/2 and t+dt
        assert calls == [[t], [t, t + 0.5 * dt, t + dt]]
        rows, energies, cross1, cross2 = tabulate(chain, calls[1])
        self.check_rows(rows, calls[1], energies)
        gram = rows @ rows.T
        assert cross1 == pytest.approx([gram[0, 1], gram[1, 2]], rel=1e-12)
        assert cross2 == pytest.approx([gram[0, 2]], rel=1e-12)


class TestOneBasisRoutine:
    """``tabulate_basis`` is the one basis read; it keeps nothing."""

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])
    def test_batch_size_does_not_change_a_row(self, mode):
        chain = em_chain(mode)
        # a half-step grid and times off it, where the reference varies
        times = [i * 5e-4 for i in range(300)] + [0.1234567 + i * 3.3e-3 for i in range(100)]
        rows, energies, cross1, cross2 = chain.tabulate_basis(times)
        assert rows.shape == (len(times), chain.grid.m)
        assert energies == (rows * rows).sum(axis=1).tolist()
        for j, t in enumerate(times):
            one = chain.tabulate_basis([t])
            np.testing.assert_array_equal(one[0], rows[j:j + 1])
            assert one[1] == [energies[j]]
            if mode is ControlMode.FUZZY:
                assert one[2:] == ([], [])
            else:
                assert one[2:] == (None, None)
        for j in range(len(times) - 2):
            three = chain.tabulate_basis(times[j:j + 3])
            np.testing.assert_array_equal(three[0], rows[j:j + 3])
            assert three[1] == energies[j:j + 3]
            if mode is ControlMode.FUZZY:
                assert three[2] == cross1[j:j + 2] and three[3] == cross2[j:j + 1]
            else:
                assert three[2:] == (None, None)

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])
    def test_chain_assigns_nothing_after_construction(self, mode):
        chain = em_chain(mode)
        before = dict(vars(chain))
        x0 = [3.0, 0.5, 0.2]
        state = chain.init_state(x0)
        chain.evaluate(x0, state, 0.013)
        theta = np.array([w.theta_hat for w in state.theta_hat]) if state.theta_hat else np.zeros((0, 0))
        bundle = (x0, list(state.filter_states), theta)
        for k in range(3):
            bundle, _ = sim.step(make_electromechanical(), chain, bundle, k * 1e-5, 1e-5)
        after = vars(chain)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


class TestBasisBuffers:
    """``tabulate_basis`` computes in the buffers it is passed, and
    ``run()`` passes one set per run to every refill of its block."""

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])
    @pytest.mark.parametrize("k", [1, 3, 6, 1026])
    def test_buffered_equals_fresh(self, mode, k):
        chain = em_chain(mode)
        buffers = chain.grid.buffers(k)
        for buffer in buffers:
            buffer.fill(np.nan)  # nothing of an earlier fill may show
        for start in (0.0, 0.4321):  # the second fill overwrites the first
            times = [start + i * 5e-6 for i in range(k)]
            fresh = chain.tabulate_basis(times)
            block = chain.tabulate_basis(times, buffers)
            assert block[0] is buffers[0] and block[0].tobytes() == fresh[0].tobytes()
            assert block[1:] == fresh[1:]

    def test_buffered_dead_rows_equal_fresh(self):
        grid = em_chain().grid
        ys = np.array([-1e6, 0.0, 3.7, 1e6, -70.0, 150.0, 1e200, -math.inf])
        buffers = grid.buffers(len(ys))
        for buffer in buffers:
            buffer.fill(np.nan)
        rows = grid.basis(ys, buffers)
        assert rows is buffers[0] and rows.tobytes() == grid.basis(ys).tobytes()
        assert (np.count_nonzero(rows, axis=1) == 1).tolist() == [True, False, False, True, False, True, True, True]

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])
    def test_run_passes_one_row_buffer_to_every_refill(self, mode, monkeypatch):
        monkeypatch.setattr(sim, "BASIS_BLOCK", 6)
        passed = []
        tabulate = ControllerChain.tabulate_basis

        def logged(chain, times, buffers=None):
            if len(times) > 1:  # not init_state's read
                passed.append(buffers)
            return tabulate(chain, times, buffers)

        monkeypatch.setattr(ControllerChain, "tabulate_basis", logged)
        cfg = replace(electromechanical_preset(mode=mode), dt=1e-5, t_end=1e-4)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        sim.run(plant, reference, cfg.gains, perf, sim_cfg)
        assert len(passed) == 4  # half-step rows 0..20 in blocks of 6
        assert passed[0][0].shape == (8, 11)
        assert all(buffers[0] is passed[0][0] for buffers in passed)

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE])
    def test_a_refill_allocates_less_than_one_row_array(self, mode):
        """A refill of a 1026-row block keeps only the lists it returns,
        and beyond them allocates less than one (1026, m) array at its
        peak; numpy traces its data, so every temporary array counts."""
        chain = em_chain(mode)
        times = [i * 5e-6 for i in range(4000, 5026)]
        buffers = chain.grid.buffers(len(times))
        chain.tabulate_basis(times, buffers)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            block = chain.tabulate_basis(times, buffers)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sys.getsizeof(block) + sum(sys.getsizeof(v) + sum(map(sys.getsizeof, v)) for v in block[1:] if v)
        assert held - start <= returned
        assert peak - start - returned < buffers[0].nbytes


class TestBreachPropagation:
    def test_breach_surfaces_from_evaluation(self):
        chain = sl_chain()
        state = chain.init_state((3.34, 0.1))
        with pytest.raises(FunnelBreachError):
            chain.evaluate([chain.reference.value(2.0) + 1.0, 0.0], state, 2.0)
